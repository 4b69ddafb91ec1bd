import json
import subprocess
import sys

import pytest

from eclat.cli import main


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


def test_minvec(capsys):
    code, out = run(capsys, "minvec", "--group", "1x4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["min_dist_sq"] == 4


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


def test_covering_large_group_skips_sampling(capsys):
    code, out = run(capsys, "covering", "--group", "1x20", "--trials", "5", "--json")
    assert code == 0
    assert "sampled" not in json.loads(out)


def test_oracle(capsys):
    code, out = run(capsys, "oracle", "--group", "1x5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["oracle_count"] == payload["pair_sum_count"] == 10


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


@pytest.mark.parametrize(
    "flag,value",
    [("--cvp-cap", "inf"), ("--cvp-cap", "1e400"), ("--cvp-cap", "0"), ("--cvp-cap", "1/0"), ("--trials", "-3")],
)
def test_covering_rejects_bad_values(capsys, flag, value):
    code = main(["covering", "--group", "1x5", "--trials", "2", flag, value, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err and flag in captured.err


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
