"""Command-line front end.

Reports go to stdout (JSON with sorted keys, CSV for density sweeps, or
plain text); notes and errors go to stderr. Exit status: 0 on
success, 1 when a certification check fails (other than the documented
cyclic-order-4 exception), 2 on usage errors, which include sizes a
command refuses: a --group of order above GROUP_MAX_N, refused by every
command as it is parsed; a group of order 1; an oracle search or a whole covering
check past lattice.SEARCH_MAX_NODES nodes, the one limit of both searches,
which charges each covering trial about its time in nodes; a group whose
covering bounds leave the float range; basis above BASIS_MAX_N; verify
above VERIFY_MAX_N; minvec above MINVEC_MAX_N; density --to above
DENSITY_MAX_N; and a curve prime above curves.MAX_P, checked before the
prime is tested. Of the bad curve inputs, a singular curve and a p that is
not a prime above 3 (errors.BadInput) exit 2 as well. Any other exception,
a ValueError included, is a bug and ends the run with its traceback (exit
status 1). A reader that closes stdout early (`eclat minvec ... | head`)
ends the run quietly with exit status 141, 128 + SIGPIPE, as a shell reports
for a process that signal stops. curve certifies the basis only up to
N = CURVE_BASIS_MAX_N and reports the structure and bounds alone above it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections.abc import Iterable
from dataclasses import asdict
from fractions import Fraction
from functools import cache
from math import isqrt

from . import basis as basis_mod
from . import curves, geometry
from .errors import BadInput, BadSize, CurveTooLarge, EclatError, SearchBoundExceeded, SingularCurve
from .groups import AbelianGroup, make_group, parse_group_spec
from .lattice import Lattice, Quadruple, minimal_quadruples, quadruple, span_rank

DEFAULT_SEED = 2024
DEFAULT_TRIALS = 50
# the largest group order any command parses: N^3 (3001 digits) stays below the 4300 digits Python converts
# to a decimal string by default, so every report and refusal message prints
GROUP_MAX_N = 10**1000
# basis prints N - 1 rows of N entries, up to 3 N^2 bytes (300 MB in about 4 s at N = 10^4)
BASIS_MAX_N = 10_200
# the Hasse bound N <= p + 1 + 2 sqrt(p) (Washington, thm. 4.2) at curves.MAX_P, so verify certifies
# the group of every curve that curve admits: 0.52 to 0.61 s and 77 MB peak RSS at N = 100633, 0.55 to 0.91 s
# and 78 to 80 MB at 2x50000, 316x316 and 4x25000 (ten whole-process runs each, 2-core VM, Python 3.11)
VERIFY_MAX_N = curves.MAX_P + 1 + isqrt(4 * curves.MAX_P)
# minvec prints about N^3/4 rows of N entries, about 0.7 N^4 bytes: 62 MB at N = 96, 196 MB at N = 128
MINVEC_MAX_N = 128
# density takes about 0.7 s for --to 100000
DENSITY_MAX_N = 100_000
# curve builds and certifies the basis only up to this order; perfbench/checks.py expects exactly this bound
CURVE_BASIS_MAX_N = 300

# vector rows: (before a row, between entries, after a row, between rows)
_JSON_ROWS = ("[", ", ", "]", ", ")
_PLAIN_ROWS = ("", ",", "\n", "")
_CSV_ROWS = ("", ",", "\r\n", "")  # the line ends csv.writer writes
_BATCH_BYTES = 1 << 16


def _encode(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _emit(args, payload) -> None:
    """Print the payload as JSON with sorted keys under --json, else as key: value
    lines, one key.field: value line per field of a nested dict."""
    if args.json:
        print(json.dumps(payload, sort_keys=True, default=_encode))
    else:
        for key, value in payload.items():
            if isinstance(value, dict):
                for field, item in value.items():
                    print(f"{key}.{field}: {item}")
            else:
                print(f"{key}: {value}")


def _write_rows(head: str, rows: Iterable[Quadruple], N: int, row_format, tail: str) -> None:
    """Write head, one row of N integer entries per quadruple ((a, b), (c, d)),
    the vector e_a + e_b - e_c - e_d, then tail, to stdout.

    The zero row pre + sep.join(["0"] * N) + post + between is built once as
    bytes, so entry x of every row sits at the fixed offset
    len(pre) + x * (1 + len(sep)). A batch starts as a copy of that row
    repeated to about _BATCH_BYTES, and each quadruple makes four byte stores
    at its row's offsets: "1" at a and at b, or "2" when a = b, and at c and
    at d the placeholder byte of -1, or of -2 when c = d. No zero row holds
    either placeholder, and each is expanded to its entry's text with one
    bytes.replace when the batch is written. The report's last row drops its
    `between`. No whole report is held.
    """
    pre, sep, post, between = row_format
    write = sys.stdout.write
    write(head)
    zero_row = (pre + sep.join(["0"] * N) + post + between).encode()
    stride = len(zero_row)
    offsets = [len(pre) + x * (1 + len(sep)) for x in range(N)]
    blank = zero_row * max(1, _BATCH_BYTES // stride)
    batch = bytearray(blank)
    lead = ""
    base = 0  # where the next row starts in the batch
    one, two, minus_one, minus_two = b"12\x01\x02"  # the last two are the placeholders

    def flush(end: int) -> None:
        data = batch[: end - len(between)].replace(b"\x01", b"-1").replace(b"\x02", b"-2")
        write(lead + data.decode())

    for (a, b), (c, d) in rows:
        batch[base + offsets[a]] = one
        batch[base + offsets[b]] = one if a != b else two
        batch[base + offsets[c]] = minus_one
        batch[base + offsets[d]] = minus_one if c != d else minus_two
        base += stride
        if base == len(blank):
            flush(base)
            batch[:] = blank
            lead = between
            base = 0
    if base:
        flush(base)
    write(tail)


def _emit_vectors(args, fields: dict, title: str, rows: Iterable[Quadruple], N: int) -> None:
    """Print fields and vectors: under --json one object with sorted keys,
    "vectors" last; under --csv the rows alone; else the title line, then
    one comma-separated row per vector."""
    if args.json:
        # json.dumps(payload, sort_keys=True) with the vector list streamed in
        head = json.dumps(fields, sort_keys=True)[:-1] + ', "vectors": ['
        _write_rows(head, rows, N, _JSON_ROWS, "]}\n")
    elif args.csv:
        _write_rows("", rows, N, _CSV_ROWS, "")
    else:
        _write_rows(title + "\n", rows, N, _PLAIN_ROWS, "")


def _group_arg(spec: str) -> AbelianGroup:
    try:
        m, n = parse_group_spec(spec)
    except ValueError as exc:  # argparse would print this function's name in place of the message
        raise argparse.ArgumentTypeError(str(exc)) from None
    if m * n > GROUP_MAX_N:
        raise argparse.ArgumentTypeError(f"group spec {spec!r} has order above GROUP_MAX_N = 10^1000")
    return make_group(m, n)


def _curve_arg(spec: str) -> tuple[int, int, int]:
    try:
        p, a, b = (int(x) for x in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid curve spec {spec!r}; expected p,a,b with integers p, a and b, e.g. 13,2,2"
        ) from None
    return p, a, b


def _int_in(low: int, high: int | None, kind: str):
    """An argparse type for integers from low to high (no upper end when
    high is None); kind names the accepted values in the message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")
        return value

    return parse


_nonnegative_int = _int_in(0, None, "a non-negative integer")


def _refuse_above(g: AbelianGroup, cap: int, command: str, why: str) -> None:
    if g.order > cap:
        raise BadSize(f"--group {g.spec()}: {command} refuses N = {g.order} above {cap}; {why}")


def cmd_group(args) -> int:
    g = args.group
    if g.order < 2:  # a group of order 1 has no lattice
        summary = {"min_dist_sq": None, "num_min_vecs": 0, "det_sq": None, "index": None}
    else:
        lat = Lattice(g)
        summary = {
            "min_dist_sq": lat.minimal_distance_sq(),
            "num_min_vecs": lat.count_minimal_vectors(),
            "det_sq": lat.determinant_sq(),
            "index": g.order,
        }
    _emit(args, {"group": g.spec(), "N": g.order, **summary})
    return 0


def cmd_basis(args) -> int:
    g = args.group
    _refuse_above(g, BASIS_MAX_N, "basis", "its report takes about 3 N^2 bytes")
    result = basis_mod.build_minimal_basis(g)
    # decided first: a basis that fails may hold a row that is not e_a + e_b - e_c - e_d, which no report row can print
    if not result.accepted:
        print(f"certification failed for {g.spec()}; verify --group {g.spec()} names the failed check", file=sys.stderr)
        return 1
    fields = {
        "group": g.spec(),
        "kind": result.kind,
        "certified": result.certified,
        "gram_det_sq": result.report.gram_det_sq,
    }
    if result.kind == "exceptional_cyclic_4":
        fields["span_rank"] = span_rank(Lattice(g).minimal_vectors())
    title = f"group {g.spec()}: kind {result.kind}, certified {result.certified}"
    _emit_vectors(args, fields, title, list(map(quadruple, result.supports)), g.order)
    return 0


def cmd_minvec(args) -> int:
    g = args.group
    N = g.order
    _refuse_above(g, MINVEC_MAX_N, "minvec", "its report takes about 0.7 N^4 bytes")
    lat = Lattice(g)
    min_dist_sq = lat.minimal_distance_sq()
    count = lat.count_minimal_vectors()
    fields = {"group": g.spec(), "N": N, "min_dist_sq": min_dist_sq, "count": count}
    title = f"group {g.spec()}: {count} minimal vectors, norm^2 {min_dist_sq}"
    _emit_vectors(args, fields, title, minimal_quadruples(g), N)
    return 0


def cmd_verify(args) -> int:
    g = args.group
    _refuse_above(g, VERIFY_MAX_N, "verify", "certification takes time and memory linear in N")
    result = basis_mod.build_minimal_basis(g)
    _emit(args, {"group": g.spec(), "kind": result.kind, **asdict(result.report), "certified": result.certified})
    return 0 if result.accepted else 1


def cmd_density(args) -> int:
    reports = geometry.mh_window_scan(args.start, args.stop)
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["N", "log_density", "log_mh_bound", "satisfies_mh"])
        for rep in reports:
            writer.writerow([rep.N, repr(rep.log_density), repr(rep.log_mh_bound), rep.satisfies_mh])
    elif args.json:
        _emit(args, [vars(rep) for rep in reports])
    else:
        for rep in reports:
            flag = "yes" if rep.satisfies_mh else "no"
            print(f"N={rep.N} log_density={rep.log_density:.6f} log_mh={rep.log_mh_bound:.6f} mh={flag}")
    return 0


def cmd_covering(args) -> int:
    g = args.group
    payload = {"group": g.spec(), **asdict(geometry.covering_bounds(g))}
    sampled = None
    if args.trials > 0:
        sampled = geometry.sampled_covering_check(g, args.trials, args.seed)
        payload["sampled"] = asdict(sampled)
    _emit(args, payload)
    return 0 if sampled is None or sampled.all_within_upper else 1


def cmd_oracle(args) -> int:
    g = args.group
    lat = Lattice(g)
    minimum = lat.minimal_distance_sq()
    bound = minimum if args.oracle_bound is None else args.oracle_bound
    found = lat.svp_oracle(bound)
    # every minimal vector has the minimal norm, so the pair-sum side is all or nothing
    agree = found == lat.minimal_vectors() if bound == minimum else None
    payload = {
        "group": g.spec(),
        "norm_sq_bound": bound,
        "oracle_count": len(found),
        "pair_sum_count": lat.count_minimal_vectors() if bound >= minimum else 0,
        "agree": agree,
    }
    _emit(args, payload)
    return 0 if agree in (True, None) else 1


def cmd_curve(args) -> int:
    curve = curves.Curve(*args.curve)
    cg = curves.curve_group(curve)
    g = cg.structure
    bounds = geometry.covering_bounds(g)
    n1, n2 = g.m, g.n
    payload = {
        "p": curve.p,
        "a": curve.a,
        "b": curve.b,
        "N": cg.order,
        "n1": n1,
        "n2": n2,
        "generators": [list(pt) if pt else None for pt in cg.generators],
        "n1_divides_n2": n2 % n1 == 0,
        "n1_divides_p_minus_1": (curve.p - 1) % n1 == 0,
        "basis_kind": None,
        "basis_certified": None,
        "gram_det_sq": None,
        "covering_lower": bounds.lower,
        "covering_upper": bounds.upper_new,
    }
    result = None
    if g.order <= CURVE_BASIS_MAX_N:
        result = basis_mod.build_minimal_basis(g)
        payload["basis_kind"] = result.kind
        payload["basis_certified"] = result.certified
        payload["gram_det_sq"] = result.report.gram_det_sq
    else:
        print(f"N = {g.order} exceeds {CURVE_BASIS_MAX_N}; skipping basis certification", file=sys.stderr)
    _emit(args, payload)
    return 0 if result is None or result.accepted else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args returns a
    fresh Namespace on every call and changes no default, so main reuses it."""
    parser = argparse.ArgumentParser(prog="eclat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, csv_ok=False):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="machine-readable JSON output")
        if csv_ok:
            fmt.add_argument("--csv", action="store_true", help="CSV output")
        else:
            p.set_defaults(csv=False)

    def group_command(name, text, func):
        p = sub.add_parser(name, help=text)
        p.add_argument("--group", type=_group_arg, required=True, metavar="MxN")
        p.set_defaults(func=func)
        return p

    for name, text, func, csv_ok in (
        ("group", "canonical form and lattice summary", cmd_group, False),
        ("basis", "build and certify the minimal-vector basis", cmd_basis, True),
        ("minvec", "enumerate the minimal vectors", cmd_minvec, False),
        ("verify", "certification report for the built basis", cmd_verify, False),
    ):
        add_format(group_command(name, text, func), csv_ok)

    p = sub.add_parser("density", help="packing density vs the Minkowski-Hlawka bound")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument(
        "--to", dest="stop", type=_int_in(4, DENSITY_MAX_N, f"an integer from 4 to {DENSITY_MAX_N}"), required=True
    )
    add_format(p, csv_ok=True)
    p.set_defaults(func=cmd_density)

    p = group_command("covering", "covering-radius bounds and seeded random check", cmd_covering)
    p.add_argument("--trials", type=_nonnegative_int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_format(p)

    p = group_command("oracle", "exhaustive short-vector search cross-check", cmd_oracle)
    p.add_argument("--oracle-bound", type=_nonnegative_int, default=None, help="squared-norm bound (default: minimal)")
    add_format(p)

    p = sub.add_parser("curve", help="curve -> group -> lattice pipeline")
    p.add_argument("--curve", type=_curve_arg, required=True, metavar="p,a,b")
    add_format(p)
    p.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BadInput, SingularCurve, CurveTooLarge, BadSize, SearchBoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EclatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: exit 128 + SIGPIPE, with stdout on devnull so the last flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
