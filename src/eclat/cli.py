"""Command-line front end.

Reports go to stdout (JSON with sorted keys, CSV for density sweeps, or
plain text); progress for long sweeps goes to stderr. Exit status: 0 on
success, 1 when a certification check fails (other than the documented
cyclic-order-4 exception), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from . import basis as basis_mod
from . import curves, geometry
from .errors import CurveTooLarge, EclatError, SingularCurve
from .groups import AbelianGroup, make_group, parse_group_spec
from .lattice import Lattice, span_rank

DEFAULT_SEED = 2024
DEFAULT_TRIALS = 50


def _encode(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _emit(args, payload) -> None:
    """Print the payload as JSON with sorted keys under --json, else as key: value lines."""
    if args.json:
        print(json.dumps(payload, sort_keys=True, default=_encode))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _group_arg(spec: str) -> AbelianGroup:
    m, n = parse_group_spec(spec)
    return make_group(m, n)


def _curve_arg(spec: str) -> curves.Curve:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError(f"invalid curve spec {spec!r}; expected p,a,b")
    p, a, b = (int(x) for x in parts)
    try:
        return curves.Curve(p, a, b)
    except SingularCurve as exc:
        # singular input is a usage error for the CLI
        raise ValueError(str(exc)) from exc


def _positive_fraction(text: str) -> Fraction:
    # float() bounds the exponent first: an exact parse of 1e999999999 would not finish
    try:
        value = Fraction(text) if "/" in text or 0 < float(text) < math.inf else 0
    except (ValueError, ZeroDivisionError):
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number such as 5.83 or 35/6, got {text!r}")
    return value


def _max_p(args) -> int:
    if args.max_p is not None:
        return args.max_p
    env = os.environ.get("EC_LATTICE_MAX_P")
    return int(env) if env else curves.DEFAULT_MAX_P


def cmd_group(args) -> int:
    g = args.group
    lat = Lattice(g)
    payload = {
        "group": g.spec(),
        "N": g.order,
        "min_dist_sq": lat.minimal_distance_sq() if g.order >= 2 else None,
        "num_min_vecs": lat.count_minimal_vectors() if g.order >= 2 else 0,
        "det_sq": lat.determinant_sq() if g.order >= 2 else None,
        "index": g.order if g.order >= 2 else None,
    }
    _emit(args, payload)
    return 0


def cmd_basis(args) -> int:
    g = args.group
    result = basis_mod.build_minimal_basis(g)
    payload = {
        "group": g.spec(),
        "kind": result.kind,
        "certified": result.certified,
        "gram_det_sq": result.report.gram_det_sq,
        "vectors": result.vectors,
    }
    if result.kind == "exceptional_cyclic_4":
        payload["span_rank"] = span_rank(Lattice(g).minimal_vectors())
    if args.json:
        _emit(args, payload)
    elif args.csv:
        writer = csv.writer(sys.stdout)
        for v in result.vectors:
            writer.writerow(v)
    else:
        print(f"group {g.spec()}: kind {result.kind}, certified {result.certified}")
        for v in result.vectors:
            print(",".join(str(c) for c in v))
    if result.kind != "exceptional_cyclic_4" and not result.certified:
        print(f"certification failed for {g.spec()}", file=sys.stderr)
        return 1
    return 0


def cmd_minvec(args) -> int:
    g = args.group
    lat = Lattice(g)
    vectors = lat.minimal_vectors()
    payload = {
        "group": g.spec(),
        "N": g.order,
        "min_dist_sq": lat.minimal_distance_sq(),
        "count": len(vectors),
        "vectors": vectors,
    }
    if args.json:
        _emit(args, payload)
    else:
        print(f"group {g.spec()}: {len(vectors)} minimal vectors, norm^2 {payload['min_dist_sq']}")
        for v in vectors:
            print(",".join(str(c) for c in v))
    return 0


def cmd_verify(args) -> int:
    g = args.group
    result = basis_mod.build_minimal_basis(g)
    report = result.report
    payload = {
        "group": g.spec(),
        "kind": result.kind,
        "all_in_lattice": report.all_in_lattice,
        "all_minimal": report.all_minimal,
        "count_ok": report.count_ok,
        "gram_det_sq_ok": report.gram_det_sq_ok,
        "gram_det_sq": report.gram_det_sq,
        "certified": report.certified,
    }
    _emit(args, payload)
    if result.kind == "exceptional_cyclic_4":
        ok = report.all_in_lattice and report.count_ok and report.gram_det_sq_ok
        return 0 if ok else 1
    return 0 if report.certified else 1


def cmd_density(args) -> int:
    if not 4 <= args.start <= args.stop:
        print(f"error: --from/--to must satisfy 4 <= from <= to, got [{args.start}, {args.stop}]", file=sys.stderr)
        return 2
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
    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative, got {args.trials}")
    g = args.group
    bounds = geometry.covering_bounds(g.order, cyclic=g.is_cyclic)
    payload = {
        "group": g.spec(),
        "N": bounds.N,
        "mu_A_sq": bounds.mu_A_sq,
        "lower": bounds.lower,
        "upper_new": bounds.upper_new,
        "upper_old": bounds.upper_old,
        "upper_boettcher": bounds.upper_boettcher,
    }
    if args.trials > 0 and g.order > geometry.CVP_MAX_DIM:
        print(f"N = {g.order} exceeds the exact-search bound; reporting bounds only", file=sys.stderr)
    elif args.trials > 0:
        print(f"sampling {args.trials} targets for {g.spec()}", file=sys.stderr)
        sampled = geometry.sampled_covering_check(g, args.trials, args.seed, cvp_cap=args.cvp_cap)
        payload["sampled"] = {
            "trials": sampled.trials,
            "seed": sampled.seed,
            "deep_hole_distance_sq": sampled.deep_hole_distance_sq,
            "max_distance_sq": sampled.max_distance_sq,
            "all_within_upper": sampled.all_within_upper,
            "max_reaches_lower": sampled.max_reaches_lower,
        }
    _emit(args, payload)
    sampled_ok = "sampled" not in payload or (
        payload["sampled"]["all_within_upper"] and payload["sampled"]["max_reaches_lower"]
    )
    return 0 if sampled_ok else 1


def cmd_oracle(args) -> int:
    g = args.group
    lat = Lattice(g)
    bound = args.oracle_bound if args.oracle_bound else lat.minimal_distance_sq()
    found = lat.svp_oracle(bound, max_dim=max(g.order, 12) if args.force else 12)
    expected = [v for v in lat.minimal_vectors() if sum(c * c for c in v) <= bound]
    agree = found == sorted(expected) if bound == lat.minimal_distance_sq() else None
    payload = {
        "group": g.spec(),
        "norm_sq_bound": bound,
        "oracle_count": len(found),
        "pair_sum_count": len(expected),
        "agree": agree,
    }
    _emit(args, payload)
    return 0 if agree in (True, None) else 1


def cmd_curve(args) -> int:
    curve = args.curve
    cg = curves.group_structure(curve.points(_max_p(args)), curve)
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
    if result is not None and result.kind != "exceptional_cyclic_4" and not result.certified:
        return 1
    return 0


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

    p = sub.add_parser("group", help="canonical form and lattice summary")
    p.add_argument("--group", type=_group_arg, required=True, metavar="MxN")
    add_format(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("basis", help="build and certify the minimal-vector basis")
    p.add_argument("--group", type=_group_arg, required=True, metavar="MxN")
    add_format(p, csv_ok=True)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("minvec", help="enumerate the minimal vectors")
    p.add_argument("--group", type=_group_arg, required=True, metavar="MxN")
    add_format(p)
    p.set_defaults(func=cmd_minvec)

    p = sub.add_parser("verify", help="certification report for the built basis")
    p.add_argument("--group", type=_group_arg, required=True, metavar="MxN")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("density", help="packing density vs the Minkowski-Hlawka bound")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    add_format(p, csv_ok=True)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("covering", help="covering-radius bounds and seeded random check")
    p.add_argument("--group", type=_group_arg, required=True, metavar="MxN")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--cvp-cap", type=_positive_fraction, default=None, help="squared-radius search cap override")
    add_format(p)
    p.set_defaults(func=cmd_covering)

    p = sub.add_parser("oracle", help="exhaustive short-vector search cross-check")
    p.add_argument("--group", type=_group_arg, required=True, metavar="MxN")
    p.add_argument("--oracle-bound", type=int, default=None, help="squared-norm bound (default: minimal)")
    p.add_argument("--force", action="store_true", help="lift the dimension cap")
    add_format(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("curve", help="curve -> group -> lattice pipeline")
    p.add_argument("--curve", type=_curve_arg, required=True, metavar="p,a,b")
    p.add_argument("--max-p", type=int, default=None, help="prime bound (default env EC_LATTICE_MAX_P or 10000)")
    p.add_argument(
        "--max-basis-n",
        type=int,
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
    except (SingularCurve, CurveTooLarge, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EclatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
