"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

from contextlib import contextmanager

from reference import canonical_groups_of_order, deep_hole_An

from eclat.basis import build_minimal_basis
from eclat.curves import Curve, curve_group
from eclat.errors import SingularCurve
from eclat.geometry import (
    covering_bounds,
    covering_radius_An_sq,
    cvp,
    mh_window_scan,
    sampled_covering_check,
)
from eclat.groups import AbelianGroup
from eclat.lattice import Lattice, gram_report, span_rank, support, support_index

SEED = 20260809


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{title}]: FAIL")
        raise
    print(f"criterion {number} [{title}]: PASS")


def all_canonical_groups(lo, hi):
    for order in range(lo, hi + 1):
        yield from canonical_groups_of_order(order)


def norm_sq(v):
    return sum(c * c for c in v)


def test_criterion_1_determinant_law():
    # exact Gram determinant N^3 for every canonical group, 2 <= N <= 64
    # (the 4-cyclic shape uses its fallback basis)
    with criterion(1, "determinant N^3"):
        for g in all_canonical_groups(2, 64):
            result = build_minimal_basis(g)
            det = gram_report(list(result.vectors)).det
            assert det == g.order**3, g.spec()
            assert result.report.gram_det_sq == det, g.spec()


def test_criterion_2_minimal_vector_bases():
    with criterion(2, "bases of minimal vectors"):
        for g in all_canonical_groups(2, 64):
            if (g.m, g.n) == (1, 4):
                continue
            result = build_minimal_basis(g)
            assert result.certified, g.spec()
            lat = Lattice(g)
            expected = 8 if g.order == 2 else 6 if g.order == 3 else 4
            assert lat.minimal_distance_sq() == expected
            for v in result.vectors:
                assert norm_sq(v) == expected, g.spec()
                assert lat.contains(v), g.spec()


def test_criterion_3_cyclic_4_exception():
    with criterion(3, "cyclic order-4 exception"):
        vectors = Lattice(AbelianGroup(1, 4)).minimal_vectors()
        assert len(vectors) == 4
        assert span_rank(vectors) == 2 < 3


def test_criterion_4_svp_oracle_agreement():
    # this also checks the closed-form minimum: a wrong one would make the oracle find more or nothing
    with criterion(4, "SVP oracle agreement, N <= 12"):
        for g in all_canonical_groups(2, 12):
            lat = Lattice(g)
            minimum = lat.minimal_distance_sq()
            assert lat.svp_oracle(minimum) == lat.minimal_vectors(), g.spec()


def test_criterion_5_minkowski_hlawka_window():
    with criterion(5, "Minkowski-Hlawka window [4, 47]"):
        reports = mh_window_scan(4, 48)
        for rep in reports:
            assert rep.satisfies_mh == (rep.N <= 47), rep.N
        margins = {rep.N: rep.log_density - rep.log_mh_bound for rep in reports}
        assert margins[47] > 1e-9
        assert margins[48] < -1e-9


def test_criterion_6_covering_bounds():
    with criterion(6, "covering bounds and seeded CVP check"):
        for N in range(2, 101):
            rep = covering_bounds(AbelianGroup(1, N))
            assert rep.lower <= rep.upper_new, N
            assert rep.upper_new < rep.upper_old - 1e-12, N
        for g in all_canonical_groups(2, 9):
            rep = sampled_covering_check(g, 200, SEED)
            assert rep.all_within_upper, g.spec()
            assert rep.max_reaches_lower, g.spec()
            assert rep.deep_hole_distance_sq == covering_radius_An_sq(g.order), g.spec()
        # the check states the deep hole's distance as mu^2; the exact search confirms it
        for g in all_canonical_groups(2, 18):
            mu_sq = covering_radius_An_sq(g.order)
            assert cvp(g, deep_hole_An(g.order))[1] == mu_sq, g.spec()
        for g in all_canonical_groups(10, 64):
            rep = sampled_covering_check(g, 50, SEED)
            assert rep.all_within_upper and rep.max_reaches_lower, g.spec()


def test_criterion_7_curve_pipeline():
    with criterion(7, "curve pipeline over p in {5, 7, 11, 13}"):
        lattice_checked = set()
        for p in (5, 7, 11, 13):
            for a in range(p):
                for b in range(p):
                    try:
                        c = Curve(p, a, b)
                    except SingularCurve:
                        continue
                    points = c.points()
                    N = len(points)
                    assert (N - p - 1) ** 2 <= 4 * p, (p, a, b)
                    cg = curve_group(c)
                    n1, n2 = cg.structure.m, cg.structure.n
                    assert n1 * n2 == N
                    assert n2 % n1 == 0, (p, a, b)
                    assert (p - 1) % n1 == 0, (p, a, b)
                    if (n1, n2) in lattice_checked:
                        continue
                    lattice_checked.add((n1, n2))
                    # criteria 1-2 on the induced lattice
                    result = build_minimal_basis(cg.structure)
                    assert gram_report(list(result.vectors)).det == N**3
                    if (n1, n2) != (1, 4):
                        lat = Lattice(cg.structure)
                        d = lat.minimal_distance_sq()
                        assert result.certified
                        assert all(norm_sq(v) == d and lat.contains(v) for v in result.vectors)


def test_criterion_8_index_via_hnf():
    # the minimal vectors generate the lattice for cyclic n >= 5, so the
    # Hermite-normal-form index of their span equals the index n
    with criterion(8, "index [A_{n-1} : L] = n via HNF"):
        for n in range(5, 13):
            vectors = Lattice(AbelianGroup(1, n)).minimal_vectors()
            assert support_index([support(v) for v in vectors], n) == n, n
