"""Command-line front end.

Reports go to stdout (JSON with sorted keys, CSV for density sweeps, or
plain text); notes and errors go to stderr. Exit status: 0 on
success, 1 when a certification check fails (other than the documented
cyclic-order-4 exception), 2 on usage errors, which include sizes a
command refuses: a group of order 1; an oracle search or a whole covering
check past lattice.SEARCH_MAX_NODES nodes, the one limit of both searches;
covering --trials above COVERING_MAX_TRIALS, since a trial at small N costs
few nodes but real time, and a group whose covering bounds leave the float
range; basis and verify above BASIS_MAX_N; minvec above MINVEC_MAX_N;
density --to above DENSITY_MAX_N; --max-p above curves.MAX_P_CAP; and a
curve prime above --max-p, checked before the prime is tested.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from . import basis as basis_mod
from . import curves, geometry
from .errors import BadSize, CurveTooLarge, EclatError, SearchBoundExceeded, SingularCurve
from .groups import AbelianGroup, make_group, parse_group_spec
from .lattice import Lattice, minimal_quadruples, span_rank, support

DEFAULT_SEED = 2024
DEFAULT_TRIALS = 50
# basis prints N - 1 rows of N entries, up to 3 N^2 bytes (300 MB in about 4 s at N = 10^4), and
# verify takes about 0.3 s at N = 10^4; the cap admits 10173, the Hasse maximum for p <= 10^4
BASIS_MAX_N = 10_200
# minvec prints about N^3/4 rows of N entries, about 0.7 N^4 bytes: 62 MB at N = 96, 196 MB at N = 128
MINVEC_MAX_N = 128
# density takes about 0.7 s for --to 100000
DENSITY_MAX_N = 100_000
# the node budget charges a trial N nodes, which does not bound the trials at small N: a trial takes
# about 12 us at 1x2 and 35 us at 1x10, so the 10^6 trials that 2000000 nodes admit at N = 2 would
# take about 12 s. The cap keeps a run to about 4 s
COVERING_MAX_TRIALS = 100_000

# vector rows: (before a row, between entries, after a row, between rows)
_JSON_ROWS = ("[", ", ", "]", ", ")
_PLAIN_ROWS = ("", ",", "\n", "")
_CSV_ROWS = ("", ",", "\r\n", "")  # the line ends csv.writer writes
_BATCH_ROWS = 1024


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


def _write_rows(head: str, supports, N: int, row_format, tail: str) -> None:
    """Write head, one row of N entries per support, then tail, to stdout.

    Each row fills the support's entries into a reused list of "0" strings;
    rows are joined and written in batches, so no whole report is held.
    """
    pre, sep, post, between = row_format
    write = sys.stdout.write
    write(head)
    cells = ["0"] * N
    batch: list[str] = []
    lead = ""
    for v in supports:
        for i, c in v.items():
            cells[i] = str(c)
        batch.append(pre + sep.join(cells) + post)
        for i in v:
            cells[i] = "0"
        if len(batch) == _BATCH_ROWS:
            write(lead + between.join(batch))
            batch.clear()
            lead = between
    if batch:
        write(lead + between.join(batch))
    write(tail)


def _emit_vectors(args, fields: dict, title: str, supports, N: int) -> None:
    """Print fields and vectors: under --json one object with sorted keys,
    "vectors" last; under --csv the rows alone; else the title line, then
    one comma-separated row per vector."""
    if args.json:
        # json.dumps(payload, sort_keys=True) with the vector list streamed in
        head = json.dumps(fields, sort_keys=True)[:-1] + ', "vectors": ['
        _write_rows(head, supports, N, _JSON_ROWS, "]}\n")
    elif args.csv:
        _write_rows("", supports, N, _CSV_ROWS, "")
    else:
        _write_rows(title + "\n", supports, N, _PLAIN_ROWS, "")


def _group_arg(spec: str) -> AbelianGroup:
    m, n = parse_group_spec(spec)
    return make_group(m, n)


def _curve_arg(spec: str) -> tuple[int, int, int]:
    # only parsed here: cmd_curve checks p against --max-p before Curve's primality test
    p, a, b = (int(x) for x in spec.split(","))
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


_prime_bound = _int_in(1, curves.MAX_P_CAP, f"a positive integer at most {curves.MAX_P_CAP}")
_nonnegative_int = _int_in(0, None, "a non-negative integer")


def _max_p(args) -> int:
    if args.max_p is not None:
        return args.max_p
    env = os.environ.get("EC_LATTICE_MAX_P")
    if not env:
        return curves.DEFAULT_MAX_P
    try:
        return _prime_bound(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"EC_LATTICE_MAX_P: {exc}") from None


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
    fields = {
        "group": g.spec(),
        "kind": result.kind,
        "certified": result.certified,
        "gram_det_sq": result.report.gram_det_sq,
    }
    if result.kind == "exceptional_cyclic_4":
        fields["span_rank"] = span_rank(Lattice(g).minimal_vectors())
    title = f"group {g.spec()}: kind {result.kind}, certified {result.certified}"
    _emit_vectors(args, fields, title, result.supports, g.order)
    if not result.accepted:
        print(f"certification failed for {g.spec()}", file=sys.stderr)
        return 1
    return 0


def cmd_minvec(args) -> int:
    g = args.group
    N = g.order
    _refuse_above(g, MINVEC_MAX_N, "minvec", "its report takes about 0.7 N^4 bytes")
    lat = Lattice(g)
    min_dist_sq = lat.minimal_distance_sq()
    if N >= 4:
        quads = minimal_quadruples(g)
        count = len(quads)
        supports = ({i: 1, j: 1, k: -1, l: -1} for (i, j), (k, l) in quads)
    else:
        vectors = lat.minimal_vectors()
        count = len(vectors)
        supports = map(support, vectors)
    fields = {"group": g.spec(), "N": N, "min_dist_sq": min_dist_sq, "count": count}
    title = f"group {g.spec()}: {count} minimal vectors, norm^2 {min_dist_sq}"
    _emit_vectors(args, fields, title, supports, N)
    return 0


def cmd_verify(args) -> int:
    g = args.group
    _refuse_above(g, BASIS_MAX_N, "verify", "certification takes time and memory linear in N")
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
        _emit(args, [asdict(rep) for rep in reports])
    else:
        for rep in reports:
            flag = "yes" if rep.satisfies_mh else "no"
            print(f"N={rep.N} log_density={rep.log_density:.6f} log_mh={rep.log_mh_bound:.6f} mh={flag}")
    return 0


def cmd_covering(args) -> int:
    g = args.group
    payload = {"group": g.spec(), **asdict(geometry.covering_bounds(g.order, cyclic=g.is_cyclic))}
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
    p, a, b = args.curve
    max_p = _max_p(args)
    curves.check_prime_bound(p, max_p)
    curve = curves.Curve(p, a, b)
    cg = curves.curve_group(curve, max_p)
    g = cg.structure
    bounds = geometry.covering_bounds(g.order, cyclic=g.is_cyclic)
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
    if g.order <= args.max_basis_n:
        result = basis_mod.build_minimal_basis(g)
        payload["basis_kind"] = result.kind
        payload["basis_certified"] = result.certified
        payload["gram_det_sq"] = result.report.gram_det_sq
    else:
        print(
            f"N = {g.order} exceeds --max-basis-n = {args.max_basis_n}; skipping basis certification",
            file=sys.stderr,
        )
    _emit(args, payload)
    return 0 if result is None or result.accepted else 1


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument(
        "--trials",
        type=_int_in(0, COVERING_MAX_TRIALS, f"an integer from 0 to {COVERING_MAX_TRIALS}"),
        default=DEFAULT_TRIALS,
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_format(p)

    p = group_command("oracle", "exhaustive short-vector search cross-check", cmd_oracle)
    p.add_argument("--oracle-bound", type=_nonnegative_int, default=None, help="squared-norm bound (default: minimal)")
    add_format(p)

    p = sub.add_parser("curve", help="curve -> group -> lattice pipeline")
    p.add_argument("--curve", type=_curve_arg, required=True, metavar="p,a,b")
    p.add_argument(
        "--max-p", type=_prime_bound, default=None, help="prime bound (default env EC_LATTICE_MAX_P or 10000)"
    )
    p.add_argument(
        "--max-basis-n",
        type=_nonnegative_int,
        default=300,
        help="largest group order for which the basis is built and certified",
    )
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
    except (SingularCurve, CurveTooLarge, BadSize, SearchBoundExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EclatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
