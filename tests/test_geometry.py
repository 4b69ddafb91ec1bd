import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eclat.errors import BadSize, CvpBoundExceeded, NoPointInRadius, NotInAn
from eclat.geometry import (
    closest_An_point,
    covering_bounds,
    covering_radius_An_sq,
    cvp,
    deep_hole_An,
    density_report,
    mh_window_scan,
    packing_density_log,
    retract,
    sample_targets,
    sampled_covering_check,
    splitmix64,
    within_upper_bound,
    zeta,
)
from eclat.groups import AbelianGroup, canonical_groups_of_order
from eclat.lattice import Lattice


def test_zeta_values():
    import mpmath

    assert abs(zeta(2) - math.pi**2 / 6) <= 1e-13
    assert abs(zeta(3) - float(mpmath.zeta(3))) <= 1e-13
    for k in (4, 7, 20, 46, 47):
        assert abs(zeta(k) - float(mpmath.zeta(k))) <= 1e-13
    for k in (50, 80, 120):
        assert abs(zeta(k) - 1.0) <= 1e-13
    with pytest.raises(ValueError):
        zeta(1)


def test_packing_density_log_exact_at_4():
    # the closed form evaluates to pi/6 at N = 4
    assert abs(packing_density_log(4) - math.log(math.pi / 6)) <= 1e-12
    with pytest.raises(BadSize):
        packing_density_log(3)


def test_packing_density_strictly_decreasing():
    values = [packing_density_log(N) for N in range(4, 101)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_mh_window():
    reports = mh_window_scan(4, 60)
    by_n = {rep.N: rep for rep in reports}
    assert by_n[4].satisfies_mh
    assert by_n[10].satisfies_mh
    assert by_n[47].satisfies_mh
    assert not by_n[48].satisfies_mh
    assert all(rep.satisfies_mh == (rep.N <= 47) for rep in reports)
    assert abs(by_n[47].log_density - by_n[47].log_mh_bound) > 1e-9
    assert abs(by_n[48].log_density - by_n[48].log_mh_bound) > 1e-9
    with pytest.raises(BadSize):
        mh_window_scan(3, 10)


def test_density_report_fields():
    rep = density_report(10)
    assert rep.N == 10 and rep.k == 9
    assert rep.satisfies_mh


def test_covering_radius_An_sq():
    assert covering_radius_An_sq(4) == 1
    assert covering_radius_An_sq(5) == Fraction(6, 5)
    assert covering_radius_An_sq(2) == Fraction(1, 2)
    with pytest.raises(BadSize):
        covering_radius_An_sq(1)


def test_deep_hole_An():
    assert deep_hole_An(4) == (Fraction(1, 2),) * 2 + (Fraction(-1, 2),) * 2
    assert deep_hole_An(3) == (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3))
    for N in range(2, 11):
        hole = deep_hole_An(N)
        assert sum(hole) == 0
        # distance to the origin is the covering radius
        assert sum(x * x for x in hole) == covering_radius_An_sq(N)


def test_retract_examples():
    g = AbelianGroup(1, 5)
    assert retract(g, (1, -1, 0, 0, 0)) == (2, -1, 0, 0, -1)
    v = (1, 1, -1, 0, -1)  # already in the lattice
    assert retract(g, v) == v
    with pytest.raises(NotInAn):
        retract(g, (1, 0, 0, 0, 0))


@given(st.integers(2, 9), st.lists(st.integers(-6, 6), min_size=8, max_size=8))
@settings(max_examples=80)
def test_retract_properties(n, coords):
    g = AbelianGroup(1, n)
    v = tuple(coords[: n - 1]) + (-sum(coords[: n - 1]),)
    lat = Lattice(g)
    w = retract(g, v)
    assert lat.contains(w)
    diff = sum((a - b) ** 2 for a, b in zip(v, w))
    assert diff in (0, 2)
    assert retract(g, w) == w  # idempotent on the lattice


def test_closest_An_point_is_optimal():
    # brute-force comparison over integer offsets of the rounding
    for target in sample_targets(5, 10, 123):
        got = closest_An_point(target)
        assert sum(got) == 0
        d_got = sum((Fraction(c) - t) ** 2 for c, t in zip(got, target))
        best = min(
            sum((Fraction(g + d) - t) ** 2 for g, d, t in zip(got, delta, target))
            for delta in itertools.product((-1, 0, 1), repeat=5)
            if sum(delta) == 0
        )
        assert d_got == best


def test_cvp_lattice_point_and_errors():
    g = AbelianGroup(1, 4)
    zero = (Fraction(0),) * 4
    vec, dist = cvp(g, zero, Fraction(1))
    assert vec == (0, 0, 0, 0) and dist == 0
    with pytest.raises(NoPointInRadius):
        cvp(g, deep_hole_An(4), Fraction(1, 2))
    with pytest.raises(CvpBoundExceeded):
        cvp(AbelianGroup(1, 11), (Fraction(0),) * 11, Fraction(1))
    with pytest.raises(NotInAn):
        cvp(g, (Fraction(1), Fraction(0), Fraction(0), Fraction(0)), Fraction(1))


def test_cvp_deep_hole_identity():
    for shape in [(1, 4), (1, 5), (2, 2), (1, 8), (3, 3)]:
        g = AbelianGroup(*shape)
        N = g.order
        _, dist_sq = cvp(g, deep_hole_An(N), Fraction(N))
        assert dist_sq == covering_radius_An_sq(N)


def test_cvp_matches_brute_force():
    for shape in [(1, 5), (2, 2), (1, 6)]:
        g = AbelianGroup(*shape)
        N = g.order
        lat = Lattice(g)
        for target in sample_targets(N, 6, 2024):
            got_vec, got_sq = cvp(g, target, Fraction(9))
            best = None
            for combo in itertools.product(range(-3, 4), repeat=N - 1):
                v = combo + (-sum(combo),)
                if abs(v[-1]) > 3 or not lat.contains(v):
                    continue
                d = sum((Fraction(c) - t) ** 2 for c, t in zip(v, target))
                if best is None or d < best[1] or (d == best[1] and v < best[0]):
                    best = (v, d)
            assert (got_vec, got_sq) == best


def test_covering_bounds_values():
    rep = covering_bounds(4)
    assert rep.lower == 1.0
    assert abs(rep.upper_new - (1 + math.sqrt(2))) < 1e-12
    assert abs(rep.upper_old - 0.5 * (math.sqrt(40) + 2)) < 1e-12
    assert rep.upper_boettcher is None
    assert covering_bounds(4, cyclic=True).upper_boettcher is not None
    assert covering_bounds(2, cyclic=True).upper_boettcher is None


def test_covering_bound_chain():
    for N in range(2, 101):
        rep = covering_bounds(N, cyclic=True)
        assert rep.lower <= rep.upper_new <= rep.upper_old - 1e-12
        assert abs(rep.lower - math.sqrt(float(rep.mu_A_sq))) < 1e-12


def test_within_upper_bound_is_exact():
    # N = 4: mu = 1, so the bound is (1 + sqrt 2)^2 = 5.82842712474619009...
    mu_sq = covering_radius_An_sq(4)
    above = Fraction(5828427125, 10**9)  # 2.5e-10 above the bound
    below = Fraction(5828427124, 10**9)  # 7.5e-10 below it
    assert math.sqrt(float(above)) <= covering_bounds(4).upper_new + 1e-9  # a float test with slack accepts it
    assert not within_upper_bound(above, mu_sq)
    assert within_upper_bound(below, mu_sq)
    assert within_upper_bound(mu_sq, mu_sq)


def test_splitmix64_reference_sequence():
    # published SplitMix64 outputs from seed 0
    v1, state = splitmix64(0)
    assert v1 == 0xE220A8397B1DCDAF
    v2, _ = splitmix64(state)
    assert v2 == 0x6E789E6AA1B965F4


def test_sample_targets_deterministic_and_in_plane():
    a = sample_targets(6, 5, 42)
    b = sample_targets(6, 5, 42)
    assert a == b
    assert sample_targets(6, 5, 43) != a
    for t in a:
        assert sum(t) == 0
        # draws in [-3N, 3N] projected and scaled by 1/(2N) stay below 3
        assert all(abs(x) < 3 for x in t)


def test_sampled_covering_check():
    g = AbelianGroup(2, 2)
    rep1 = sampled_covering_check(g, 25, 7)
    rep2 = sampled_covering_check(g, 25, 7)
    assert rep1 == rep2
    assert rep1.all_within_upper and rep1.max_reaches_lower
    assert rep1.deep_hole_distance_sq == covering_radius_An_sq(4)
    assert rep1.max_distance_sq >= rep1.deep_hole_distance_sq
    with pytest.raises(CvpBoundExceeded):
        sampled_covering_check(AbelianGroup(1, 12), 2, 1)


def test_sampled_covering_all_small_groups():
    for N in range(2, 8):
        for g in canonical_groups_of_order(N):
            rep = sampled_covering_check(g, 20, 99)
            assert rep.all_within_upper and rep.max_reaches_lower
