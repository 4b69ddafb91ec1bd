import csv
import io
import json
import subprocess
import sys
import time

import pytest

from eclat.basis import build_minimal_basis
from eclat.cli import COVERING_MAX_TRIALS, DENSITY_MAX_N, MINVEC_MAX_N, build_parser, main
from eclat.groups import canonical_groups_of_order
from eclat.lattice import Lattice

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
    # no dimension cap: each trial is charged N nodes, and the deep hole is not searched
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
        ("curve", "--curve", "13,2,2", "--max-basis-n", "-3"),
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
    + [("oracle", "--group", "1x183")]
    + [("covering", "--group", "1x40001")],
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
        (("covering", "--group", "1x5", "--trials", str(COVERING_MAX_TRIALS + 1)), "--trials"),
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
    args = build_parser().parse_args(["covering", "--group", "1x2", "--trials", str(COVERING_MAX_TRIALS)])
    assert args.trials == COVERING_MAX_TRIALS


def test_curve_prime_bound(capsys, monkeypatch):
    monkeypatch.delenv("EC_LATTICE_MAX_P", raising=False)
    assert run(capsys, "curve", "--curve", "101,2,3", "--max-p", "50")[0] == 2
    assert run(capsys, "curve", "--curve", "101,2,3", "--max-p", "200", "--json")[0] == 0
    monkeypatch.setenv("EC_LATTICE_MAX_P", "50")
    assert run(capsys, "curve", "--curve", "101,2,3")[0] == 2
    monkeypatch.setenv("EC_LATTICE_MAX_P", "200")
    code, out = run(capsys, "curve", "--curve", "101,2,3", "--json")
    assert code == 0
    assert json.loads(out)["p"] == 101


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
@pytest.mark.parametrize("source", ["--max-p", "EC_LATTICE_MAX_P"])
def test_curve_rejects_bad_prime_bound(capsys, monkeypatch, source, value):
    argv = ["curve", "--curve", "101,2,3", "--json"]
    if source == "--max-p":
        monkeypatch.delenv("EC_LATTICE_MAX_P", raising=False)
        argv += ["--max-p", value]
    else:
        monkeypatch.setenv("EC_LATTICE_MAX_P", value)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert source in captured.err and "positive integer" in captured.err
    assert "Traceback" not in captured.err


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
    code, out = run(capsys, "curve", "--curve", "13,2,2", "--max-basis-n", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis_kind"] is None and payload["basis_certified"] is None
    assert payload["n1_divides_n2"] and payload["covering_lower"] > 0

    code, out = run(capsys, "curve", "--curve", "13,2,2", "--json")
    assert json.loads(out)["basis_certified"] is True
