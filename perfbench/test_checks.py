"""The benchmark's report checks accept what the eclat CLI prints today and
reject deliberately corrupted reports."""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from itertools import permutations, product
from math import isqrt, prod
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from eclat import cli  # noqa: E402

OPS = [
    ("basis", "--group", "1x12", "--json"),
    ("basis", "--group", "2x10", "--json"),
    ("basis", "--group", "3x6", "--json"),
    ("basis", "--group", "4x8", "--json"),
    ("basis", "--group", "5x5", "--json"),
    ("curve", "--curve", "151,2,3", "--json"),
    ("curve", "--curve", "151,144,6", "--json"),  # (x - 1)(x - 2)(x + 3): full 2-torsion
    ("curve", "--curve", "401,7,11", "--json"),
    ("minvec", "--group", "1x9", "--json"),
    ("minvec", "--group", "2x6", "--json"),
    ("covering", "--group", "1x7", "--trials", "40", "--seed", "3", "--json"),
    ("covering", "--group", "2x4", "--trials", "40", "--seed", "5", "--json"),
    ("oracle", "--group", "1x11", "--oracle-bound", "8", "--json"),
    ("oracle", "--group", "2x6", "--oracle-bound", "6", "--json"),
    ("density", "--from", "44", "--to", "50", "--json"),
]


def report(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def dump(payload) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def check(argv, text: str) -> None:
    checks.check_report(argv, io.BytesIO(text.encode("utf-8")))


def rejects(argv, text: str) -> bool:
    try:
        check(argv, text)
    except checks.CheckFailed:
        return True
    return False


@pytest.mark.parametrize("argv", OPS, ids=lambda a: " ".join(a[:3]))
def test_accepts_todays_report(argv):
    check(argv, report(argv))


def test_curve_ops_cover_both_structures():
    structures = {json.loads(report(a))["n1"] > 1 for a in OPS if a[0] == "curve"}
    assert structures == {False, True}


@pytest.mark.parametrize("command", ["basis", "minvec"])
def test_rejects_flipped_coordinate(command):
    argv = next(a for a in OPS if a[0] == command)
    rep = json.loads(report(argv))
    v = rep["vectors"][1]
    i = next(i for i, c in enumerate(v) if c)
    v[i] = -v[i]
    assert rejects(argv, dump(rep))


def test_rejects_swapped_minvec_order():
    argv = ("minvec", "--group", "2x6", "--json")
    rep = json.loads(report(argv))
    rep["vectors"][0], rep["vectors"][1] = rep["vectors"][1], rep["vectors"][0]
    assert rejects(argv, dump(rep))


@pytest.mark.parametrize("command", ["minvec", "oracle", "basis"])
def test_rejects_wrong_count(command):
    argv = next(a for a in OPS if a[0] == command)
    rep = json.loads(report(argv))
    if command == "minvec":
        rep["count"] += 1
    elif command == "oracle":
        rep["oracle_count"] += 1
    else:
        rep["vectors"].pop()
    assert rejects(argv, dump(rep))


@pytest.mark.parametrize("command", ["curve", "covering", "minvec"])
def test_rejects_n_off_by_one(command):
    argv = next(a for a in OPS if a[0] == command)
    rep = json.loads(report(argv))
    rep["N"] += 1
    assert rejects(argv, dump(rep))


def test_rejects_wrong_curve_generator():
    argv = ("curve", "--curve", "401,7,11", "--json")
    rep = json.loads(report(argv))
    x, y = rep["generators"][1]
    rep["generators"][1] = [x, (y + 1) % 401]
    assert rejects(argv, dump(rep))


def test_rejects_distance_just_past_exact_bound():
    argv = ("covering", "--group", "1x7", "--trials", "40", "--seed", "3", "--json")
    rep = json.loads(report(argv))
    mu_sq = checks.covering_radius_sq(7)
    scale = 10**9
    root = isqrt(8 * mu_sq.numerator * scale * scale // mu_sq.denominator)
    below, above = (mu_sq + 2 + Fraction(r, scale) for r in (root, root + 1))
    assert checks.within_upper(below, mu_sq) and not checks.within_upper(above, mu_sq)
    rep["sampled"]["max_distance_sq"] = f"{above.numerator}/{above.denominator}"
    assert rejects(argv, dump(rep))
    rep["sampled"]["max_distance_sq"] = f"{below.numerator}/{below.denominator}"
    check(argv, dump(rep))


def test_rejects_wrong_mh_decision():
    argv = ("density", "--from", "44", "--to", "50", "--json")
    rows = json.loads(report(argv))
    rows[3]["satisfies_mh"] = not rows[3]["satisfies_mh"]
    assert rejects(argv, json.dumps(rows) + "\n")


def test_exact_det_matches_leibniz():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            leibniz = sum(
                (-1) ** sum(1 for i in range(n) for j in range(i) if perm[j] > perm[i])
                * prod(rows[i][perm[i]] for i in range(n))
                for perm in permutations(range(n))
            )
            assert checks.exact_det(rows) == leibniz


def test_short_vector_count_matches_brute_force():
    for m, n, bound in ((1, 5, 6), (2, 2, 8), (1, 6, 6)):
        N = m * n
        top = isqrt(bound)
        brute = sum(
            1
            for v in product(range(-top, top + 1), repeat=N)
            if any(v) and sum(c * c for c in v) <= bound and checks._in_lattice(list(v), m, n)
        )
        assert checks.short_vector_count(m, n, bound) == brute
