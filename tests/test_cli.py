import contextlib
import csv
import hashlib
import io
import json
import random
import subprocess
import sys
import time

import pytest
from reference import canonical_groups_of_order, full_walk_points, write_rows

from eclat import cli
from eclat.basis import build_minimal_basis
from eclat.cli import (
    _BATCH_BYTES,
    _CSV_ROWS,
    _JSON_ROWS,
    _PLAIN_ROWS,
    DENSITY_MAX_N,
    MINVEC_MAX_N,
    _write_rows,
    build_parser,
    main,
)
from eclat.curves import Curve, curve_group
from eclat.groups import make_group, parse_group_spec
from eclat.lattice import Lattice, quadruple, support

SMALL_GROUPS = [g for N in range(2, 25) for g in canonical_groups_of_order(N)]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_basis_cyclic7(capsys):
    code, out = run(capsys, "basis", "--group", "1x7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "cyclic_basis1"
    assert payload["certified"] is True
    assert payload["gram_det_sq"] == 343
    assert len(payload["vectors"]) == 6


def test_basis_exceptional_cyclic4(capsys):
    code, out = run(capsys, "basis", "--group", "1x4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "exceptional_cyclic_4"
    assert payload["certified"] is False
    assert payload["span_rank"] == 2
    assert payload["gram_det_sq"] == 64


def test_basis_canonicalizes_spec(capsys):
    code, out = run(capsys, "basis", "--group", "2x3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "1x6"
    assert payload["certified"] is True


def test_basis_csv(capsys):
    code, out = run(capsys, "basis", "--group", "2x2", "--csv")
    assert code == 0
    rows = [line for line in out.splitlines() if line.strip()]
    assert rows == ["-1,1,1,-1", "-1,1,-1,1", "-1,-1,1,1"]


def test_group_report(capsys):
    code, out = run(capsys, "group", "--group", "1x5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "group": "1x5",
        "N": 5,
        "min_dist_sq": 4,
        "num_min_vecs": 10,
        "det_sq": 125,
        "index": 5,
    }


def test_group_count_closed_form(capsys):
    # 2G has a = 50000 elements: a sums with (N - 2)/2 pairs each, N - a sums with N/2
    code, out = run(capsys, "group", "--group", "1x100000", "--json")
    assert code == 0
    assert json.loads(out)["num_min_vecs"] == 50000 * 49999 * 49998 + 50000 * 50000 * 49999 == 249_990_000_100_000


def test_minvec(capsys):
    code, out = run(capsys, "minvec", "--group", "1x4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["min_dist_sq"] == 4


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: g.spec())
def test_minvec_output_is_the_dense_rendering(capsys, g):
    lat = Lattice(g)
    vectors = lat.minimal_vectors()
    d = lat.minimal_distance_sq()
    payload = {"group": g.spec(), "N": g.order, "min_dist_sq": d, "count": len(vectors), "vectors": vectors}
    assert run(capsys, "minvec", "--group", g.spec(), "--json") == (0, json.dumps(payload, sort_keys=True) + "\n")
    lines = [f"group {g.spec()}: {len(vectors)} minimal vectors, norm^2 {d}"]
    lines += [",".join(str(c) for c in v) for v in vectors]
    assert run(capsys, "minvec", "--group", g.spec()) == (0, "".join(line + "\n" for line in lines))


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: g.spec())
def test_basis_output_is_the_dense_rendering(capsys, g):
    result = build_minimal_basis(g)
    payload = {
        "group": g.spec(),
        "kind": result.kind,
        "certified": result.certified,
        "gram_det_sq": result.report.gram_det_sq,
        "vectors": result.vectors,
    }
    if result.kind == "exceptional_cyclic_4":
        payload["span_rank"] = 2
    assert run(capsys, "basis", "--group", g.spec(), "--json") == (0, json.dumps(payload, sort_keys=True) + "\n")
    rows = io.StringIO()
    csv.writer(rows).writerows(result.vectors)
    assert run(capsys, "basis", "--group", g.spec(), "--csv") == (0, rows.getvalue())
    lines = [f"group {g.spec()}: kind {result.kind}, certified {result.certified}"]
    lines += [",".join(str(c) for c in v) for v in result.vectors]
    assert run(capsys, "basis", "--group", g.spec()) == (0, "".join(line + "\n" for line in lines))


def captured(writer, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        writer(*args)
    return out.getvalue().encode()


ROW_FORMATS = {"json": _JSON_ROWS, "plain": _PLAIN_ROWS, "csv": _CSV_ROWS}


def random_quadruples(N, count, seed):
    # a = b gives the entry 2 and c = d the entry -2; {a, b} and {c, d} never meet
    rng = random.Random(seed)
    shapes = [(a_is_b, c_is_d) for a_is_b in (False, True) for c_is_d in (False, True) if 4 - a_is_b - c_is_d <= N]
    rows = []
    for _ in range(count):
        a_is_b, c_is_d = rng.choice(shapes)
        picks = iter(rng.sample(range(N), 4 - a_is_b - c_is_d))
        a = next(picks)
        b = a if a_is_b else next(picks)
        c = next(picks)
        d = c if c_is_d else next(picks)
        rows.append(((a, b), (c, d)))
    return rows


def as_support(row):
    (a, b), (c, d) = row
    v = {}
    for i, unit in ((a, 1), (b, 1), (c, -1), (d, -1)):
        v[i] = v.get(i, 0) + unit
    return v


@pytest.mark.parametrize("fmt", ROW_FORMATS)
@pytest.mark.parametrize("N", [2, 3, 97])
def test_row_writer_matches_the_per_cell_reference(fmt, N):
    row_format = ROW_FORMATS[fmt]
    pre, sep, post, between = row_format
    per_batch = max(1, _BATCH_BYTES // len(pre + sep.join(["0"] * N) + post + between))
    for count in sorted({0, 1, per_batch - 1, per_batch, per_batch + 1, 3 * per_batch + 2}):
        rows = random_quadruples(N, count, seed=count)
        expected = captured(write_rows, "head\n", map(as_support, rows), N, row_format, "tail\n")
        assert captured(_write_rows, "head\n", rows, N, row_format, "tail\n") == expected, count


@pytest.mark.parametrize(
    "v", [{0: 3, 1: -1, 2: -2}, {0: 1, 1: 1, 2: 1, 3: -1, 4: -1}, {}], ids=["entry-3", "three-positive", "empty"]
)
def test_quadruple_refuses_other_supports(v):
    with pytest.raises(ValueError, match="not the support of"):
        quadruple(v)


@pytest.mark.parametrize(
    "argv",
    [("basis", "--group", spec, *fmt) for spec in ("1x2", "1x3", "1x4") for fmt in (("--json",), ("--csv",), ())]
    + [("minvec", "--group", spec, *fmt) for spec in ("1x2", "1x3") for fmt in (("--json",), ())],
    ids=" ".join,
)
def test_reports_with_entries_two_match_the_per_cell_reference(capsys, monkeypatch, argv):
    # the only reports whose rows carry +-2: N = 2 and 3, and the cyclic-4 fallback basis
    g = make_group(*parse_group_spec(argv[2]))
    dense_vectors = build_minimal_basis(g).vectors if argv[0] == "basis" else Lattice(g).minimal_vectors()
    assert any(2 in map(abs, v) for v in dense_vectors)
    written = run(capsys, *argv)

    def reference(head, rows, N, row_format, tail):
        assert len(list(rows)) == len(dense_vectors)
        write_rows(head, [support(v) for v in dense_vectors], N, row_format, tail)

    monkeypatch.setattr(cli, "_write_rows", reference)
    assert written == run(capsys, *argv)
    assert written[0] == 0


def test_verify(capsys):
    assert run(capsys, "verify", "--group", "3x6", "--json")[0] == 0
    assert run(capsys, "verify", "--group", "1x4", "--json")[0] == 0


def test_density_csv_window_flip(capsys):
    code, out = run(capsys, "density", "--from", "4", "--to", "48", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,log_density,log_mh_bound,satisfies_mh"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 45
    assert rows[-2][0] == "47" and rows[-2][3] == "True"
    assert rows[-1][0] == "48" and rows[-1][3] == "False"


def test_covering_deterministic(capsys):
    args = ("covering", "--group", "2x2", "--trials", "10", "--seed", "11", "--json")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["sampled"]["deep_hole_distance_sq"] == "1/1"
    assert payload["sampled"]["all_within_upper"] is True


def test_covering_large_group_certifies(capsys):
    # no dimension cap: each trial is charged 4N + 10 nodes, and the deep hole is not searched
    for spec in ("1x16", "1x20", "1x21", "1x23", "1x24", "2x12", "1x1000"):
        start = time.perf_counter()
        code, out = run(capsys, "covering", "--group", spec, "--json")
        assert time.perf_counter() - start < 1, spec
        sampled = json.loads(out)["sampled"]
        assert code == 0 and sampled["all_within_upper"] and sampled["max_reaches_lower"], spec


def test_oracle(capsys):
    code, out = run(capsys, "oracle", "--group", "1x5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["oracle_count"] == payload["pair_sum_count"] == 10


@pytest.mark.parametrize("bound,oracle_count,pair_sum_count", [(0, 0, 0), (3, 0, 0), (6, 30, 10)])
def test_oracle_explicit_bound(capsys, bound, oracle_count, pair_sum_count):
    # an explicit bound of 0 is a bound, not the default minimum
    code, out = run(capsys, "oracle", "--group", "1x5", "--oracle-bound", str(bound), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["norm_sq_bound"] == bound
    assert (payload["oracle_count"], payload["pair_sum_count"]) == (oracle_count, pair_sum_count)
    assert payload["agree"] is None


# sha256 of the concatenated stdout, recorded from the enumerator that tested membership only at its leaves
# and searched both vectors of each pair +-v: the searches must return the same vectors in the same order
SEARCH_DIGESTS = {
    "oracle": "d16b3324b165f8ccb985a725dfb566418ca38b8bad47a18a9c6472f2d7aa540b",
    "covering": "d188943439c207bb2dd7b80910f63d7a5880264ccf87cb175bc56d5647ff07aa",
}
# sha256 of the concatenated stdout, recorded from the per-cell row writer (reference.write_rows)
REPORT_DIGESTS = {
    "vectors": "5694d31e5e5994482769757aa4731e8f421ae36cb15fb7ace8bca83b04101465",
    # recorded from the dispatch with one function per small shape and the explicit N = 2, 3 minimal vectors
    "small_shapes": "a60a3d1a090d053ad45be110e3a672379709068843a9a9f75caf8623838c2668",
}
# p,a,b near 10^4 with n1 = 1 (n2 odd and even), 2, 3 (n2 odd and even), 4, 6 and 13, so rows that are their
# own negation (row 0, row n1/2) and rows that are not both occur; three small primes whose basis is
# certified; and the largest admitted prime
DIGEST_CURVES = (
    "10009,2201,9325",
    "10009,1033,4179",
    "10009,34,7297",
    "10009,6591,4609",
    "10009,7090,9952",
    "10037,1640,3401",
    "10009,5263,6984",
    "10037,4370,5978",
    "13,2,2",
    "149,17,4",
    "151,22,3",
    "99991,2,3",
)
# sha256 over repr((argv, stdout, stderr, exit code)) of `curve --curve <spec> --json` for each of DIGEST_CURVES,
# recorded from the labelling that walked every row in full (reference.full_walk_points)
CURVE_DIGESTS = {
    "curve": "8fbb56b351a74969a655b7d6cae09ee5e933ebd2c3105c94e16bcf2d5696d36c",
}


def test_search_outputs_match_recorded_digests(capsys):
    # the benchmark's nine oracle inputs, and covering at seed 7 for every canonical group of order 2 to 12
    calls = {
        "oracle": [
            ("oracle", "--group", spec, "--oracle-bound", str(bound), "--json")
            for spec in ("1x11", "1x12", "2x6")
            for bound in (6, 8, 10)
        ],
        "covering": [
            ("covering", "--group", g.spec(), "--json", "--seed", "7") for N in range(2, 13) for g in canonical_groups_of_order(N)
        ],
    }
    for name, argvs in calls.items():
        digest = hashlib.sha256()
        for argv in argvs:
            code, out = run(capsys, *argv)
            assert code == 0, argv
            digest.update(out.encode())
        assert digest.hexdigest() == SEARCH_DIGESTS[name], name


def test_vector_reports_match_recorded_digests(capsys):
    # reports above N = 24 in every row format, up to the certify workload's largest basis
    argvs = [
        ("minvec", "--group", "1x48", "--json"),
        ("minvec", "--group", "2x32", "--json"),
        ("minvec", "--group", "4x16"),
        ("basis", "--group", "5x50", "--json"),
        ("basis", "--group", "5x50", "--csv"),
        ("basis", "--group", "5x50"),
        ("basis", "--group", "1x300", "--json"),
    ]
    digest = hashlib.sha256()
    for argv in argvs:
        code, out = run(capsys, *argv)
        assert code == 0, argv
        digest.update(out.encode())
    assert digest.hexdigest() == REPORT_DIGESTS["vectors"]


def test_small_shape_reports_match_recorded_digest(capsys):
    # basis and verify for every shape of basis.SMALL_BASES, and minvec below N = 4
    argvs = [
        (cmd, "--group", spec, *fmt)
        for spec in ("1x2", "1x3", "1x4", "2x2", "2x4", "3x3", "4x4")
        for cmd, fmt in (("basis", ("--json",)), ("basis", ("--csv",)), ("basis", ()), ("verify", ("--json",)))
    ]
    argvs += [("minvec", "--group", spec, *fmt) for spec in ("1x2", "1x3") for fmt in ((), ("--json",))]
    digest = hashlib.sha256()
    for argv in argvs:
        code, out = run(capsys, *argv)
        assert code == 0, argv
        digest.update(out.encode())
    assert digest.hexdigest() == REPORT_DIGESTS["small_shapes"]


def test_curve_outputs_match_recorded_digests(capsys):
    digest = hashlib.sha256()
    for spec in DIGEST_CURVES:
        argv = ("curve", "--curve", spec, "--json")
        code = main(list(argv))
        captured = capsys.readouterr()
        digest.update(repr((argv, captured.out, captured.err, code)).encode())
    assert digest.hexdigest() == CURVE_DIGESTS["curve"]


@pytest.mark.parametrize("spec", DIGEST_CURVES)
def test_curve_labelling_matches_full_walk(spec):
    # a*g1 + b*g2 over Z/n1 x Z/n2, walked by curve.add, lists every point once: the certificate's claim
    cg = curve_group(Curve(*map(int, spec.split(","))))
    walk = full_walk_points(cg.curve, cg.structure.m, cg.structure.n, *cg.generators)
    assert sorted(walk, key=lambda pt: (pt is not None, pt)) == cg.curve.points()


def test_curve_pipeline(capsys):
    code, out = run(capsys, "curve", "--curve", "5,1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n1"], payload["n2"]) == (1, 9)
    assert payload["N"] == 9
    assert payload["n1_divides_n2"] and payload["n1_divides_p_minus_1"]
    assert payload["basis_certified"] is True

    code, out = run(capsys, "curve", "--curve", "5,1,0", "--json")
    payload = json.loads(out)
    assert payload["basis_kind"] == "klein_2x2"


def test_usage_errors(capsys):
    assert run(capsys, "curve", "--curve", "5,0,0")[0] == 2  # singular
    assert run(capsys, "basis", "--group", "5")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "density", "--from", "1", "--to", "5")[0] == 2


REUSE_SEQUENCE = [
    ("basis", "--group", "1x7", "--csv"),
    ("basis", "--group", "1x7", "--json"),
    ("basis", "--group", "1x7"),
    ("basis", "--group", "1x7", "--csv", "--json"),  # usage error: exclusive formats
    ("covering", "--group", "1x5", "--trials", "3"),
    ("covering", "--group", "1x5"),
]


def test_main_reuses_one_parser_and_carries_nothing_over(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()

    def outputs():
        out = []
        for argv in REUSE_SEQUENCE:
            code = main(list(argv))
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    reused = outputs()
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 0]
    # the same calls, each with a parser built afresh
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outputs() == reused


def test_density_range_error_is_the_library_message(capsys):
    assert main(["density", "--from", "5", "--to", "4"]) == 2
    assert capsys.readouterr() == ("", "error: need 4 <= n_min <= n_max, got [5, 4]\n")


@pytest.mark.parametrize("flag,value", [("--trials", "-3")])
def test_covering_rejects_bad_values(capsys, flag, value):
    code = main(["covering", "--group", "1x5", "--trials", "2", flag, value, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err and flag in captured.err


def test_covering_has_no_radius_cap(capsys):
    # the search always finds the closest vector, so there is no cap to set
    code = main(["covering", "--group", "1x5", "--trials", "2", "--cvp-cap", "35/6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_covering_plain_text_prints_sampled_fields(capsys):
    code, out = run(capsys, "covering", "--group", "1x5", "--trials", "3")
    assert code == 0
    assert "Fraction(" not in out
    assert "mu_A_sq: 6/5\n" in out
    assert "sampled.max_distance_sq: 403/250\n" in out
    assert "sampled.all_within_upper: True\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--group", "1x5", "--oracle-bound", "-3"),
    ],
)
def test_negative_integer_flags_are_usage_errors(capsys, argv):
    code = main([*argv, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert argv[-2] in captured.err and "non-negative integer" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [(cmd, "--group", "1x1") for cmd in ("basis", "minvec", "verify", "covering", "oracle")]
    + [("oracle", "--group", "1x230")]
    + [("covering", "--group", "1x9998")],
)
def test_size_refusals_are_usage_errors(capsys, argv):
    code = main([*argv, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("minvec", "--group", f"1x{MINVEC_MAX_N + 1}"), "--group"),
        (("minvec", "--group", f"2x{MINVEC_MAX_N}"), "--group"),
        (("density", "--from", "4", "--to", str(DENSITY_MAX_N + 1)), "--to"),
        (("density", "--from", "4", "--to", "10**9"), "--to"),
        (("covering", "--group", "1x5", "--trials", "66667"), "--trials"),  # 66667 * (4 * 5 + 10) > 2000000
        (("covering", "--group", f"1x{10**200}", "--trials", "0"), "--group"),
    ],
)
def test_size_caps_are_usage_errors(capsys, argv, flag):
    for fmt in ((), ("--json",)):
        code = main([*argv, *fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("error") == 1 and flag in captured.err
        assert "Traceback" not in captured.err


def test_size_caps_admit_their_limit(capsys):
    assert run(capsys, "density", "--from", str(DENSITY_MAX_N), "--to", str(DENSITY_MAX_N), "--json")[0] == 0
    # the node budget, not the parser, bounds --trials
    args = build_parser().parse_args(["covering", "--group", "1x2", "--trials", str(10**40)])
    assert args.trials == 10**40


@pytest.mark.parametrize("flag,value", [("--max-p", "200"), ("--max-basis-n", "4")])
def test_curve_has_no_size_flags(capsys, flag, value):
    # the prime bound and the basis bound are constants
    code = main(["curve", "--curve", "13,2,2", flag, value, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_curve_ignores_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("EC_LATTICE_MAX_P", "50")
    code, out = run(capsys, "curve", "--curve", "101,2,3", "--json")
    assert code == 0
    assert json.loads(out)["p"] == 101


def test_curve_admits_the_largest_prime_below_the_bound(capsys):
    code = main(["curve", "--curve", "99991,2,3", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert (payload["p"], payload["N"]) == (99991, 99776)
    assert payload["basis_kind"] is None and payload["basis_certified"] is None and payload["gram_det_sq"] is None
    assert captured.err == "N = 99776 exceeds 300; skipping basis certification\n"


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "eclat.cli", "group", "--group", "2x2", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["N"] == 4


def test_curve_basis_cap(capsys):
    # above the cap the pipeline still reports structure and bounds
    code, out = run(capsys, "curve", "--curve", "401,1,1", "--json")  # 432 points
    assert code == 0
    payload = json.loads(out)
    assert payload["basis_kind"] is None and payload["basis_certified"] is None
    assert payload["n1_divides_n2"] and payload["covering_lower"] > 0

    code, out = run(capsys, "curve", "--curve", "13,2,2", "--json")
    assert json.loads(out)["basis_certified"] is True
