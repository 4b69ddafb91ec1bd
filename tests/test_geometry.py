import itertools
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from reference import canonical_groups_of_order, deep_hole_An, sample_targets

from eclat import geometry
from eclat.errors import BadSize, NotInAn, SearchBoundExceeded
from eclat.geometry import (
    _retraction_point,
    _scaled_targets,
    _splitmix64,
    covering_bounds,
    covering_radius_An_sq,
    cvp,
    density_report,
    mh_window_scan,
    packing_density_log,
    sampled_covering_check,
    within_upper_bound,
    zeta,
)
from eclat.groups import AbelianGroup
from eclat.lattice import SEARCH_MAX_NODES, Lattice


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


def log_density_over_bound(N):
    """log R(N), density over the Minkowski-Hlawka bound, at the working precision of mpmath."""
    import mpmath

    k = N - 1
    log_density = k * mpmath.log(mpmath.pi) / 2 - mpmath.loggamma(mpmath.mpf(k) / 2 + 1) - 3 * mpmath.log(N) / 2
    return log_density - mpmath.log(mpmath.zeta(k)) + (k - 1) * mpmath.log(2)


def test_mh_window_matches_mpmath_at_50_digits():
    import mpmath

    with mpmath.workdps(50):
        for N in range(4, 301):
            assert density_report(N).satisfies_mh == (log_density_over_bound(N) >= 0), N


def test_mh_ratio_decreases_from_26_as_gautschi_bounds_it():
    # R(N + 1) / R(N) < 2 sqrt(2 pi / N) zeta(N - 1) < 1, so R(48) < 1 decides every N >= 48
    import mpmath

    with mpmath.workdps(50):
        logs = {N: log_density_over_bound(N) for N in range(26, 2002)}
        for N in range(26, 2001):
            gautschi = mpmath.log(2 * mpmath.sqrt(2 * mpmath.pi / N) * mpmath.zeta(N - 1))
            assert logs[N + 1] - logs[N] < gautschi < 0, N


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
    # an integer target (D = 1) steps from the identity into the lattice
    g = AbelianGroup(1, 5)
    assert _retraction_point(g, [1, -1, 0, 0, 0], 1) == ((2, -1, 0, 0, -1), 2)
    v = (1, 1, -1, 0, -1)  # already in the lattice
    assert _retraction_point(g, list(v), 1) == (v, 0)


@given(st.integers(2, 9), st.lists(st.integers(-6, 6), min_size=8, max_size=8))
@settings(max_examples=80)
def test_retract_properties(n, coords):
    g = AbelianGroup(1, n)
    v = tuple(coords[: n - 1]) + (-sum(coords[: n - 1]),)
    lat = Lattice(g)
    w = _retraction_point(g, list(v), 1)[0]
    assert lat.contains(w)
    diff = sum((a - b) ** 2 for a, b in zip(v, w))
    assert diff in (0, 2)
    assert _retraction_point(g, list(w), 1)[0] == w  # idempotent on the lattice


def test_cvp_lattice_point_and_errors():
    g = AbelianGroup(1, 4)
    zero = (Fraction(0),) * 4
    vec, dist = cvp(g, zero)
    assert vec == (0, 0, 0, 0) and dist == 0
    assert cvp(AbelianGroup(1, 11), (Fraction(0),) * 11) == ((0,) * 11, 0)
    with pytest.raises(NotInAn):
        cvp(g, (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))


def test_cvp_refuses_order_one():
    with pytest.raises(BadSize, match=r"^the lattice needs a group of order at least 2$"):
        cvp(AbelianGroup(1, 1), (0,))


def test_cvp_deep_hole_identity():
    for shape in [(1, 4), (1, 5), (2, 2), (1, 8), (3, 3)]:
        g = AbelianGroup(*shape)
        N = g.order
        _, dist_sq = cvp(g, deep_hole_An(N))
        assert dist_sq == covering_radius_An_sq(N)


def test_cvp_float_target_and_generous_cap():
    g = AbelianGroup(2, 2)
    hole = deep_hole_An(4)
    expected = cvp(g, hole)
    assert expected == ((0, 0, 0, 0), 1)
    assert cvp(g, tuple(float(x) for x in hole)) == expected


def test_cvp_matches_brute_force():
    for shape in [(1, 5), (2, 2), (1, 6)]:
        g = AbelianGroup(*shape)
        N = g.order
        lat = Lattice(g)
        for target in [deep_hole_An(N), *sample_targets(N, 6, 2024)]:
            got_vec, got_sq = cvp(g, target)
            best = None
            for combo in itertools.product(range(-3, 4), repeat=N - 1):
                v = combo + (-sum(combo),)
                if abs(v[-1]) > 3 or not lat.contains(v):
                    continue
                d = sum((Fraction(c) - t) ** 2 for c, t in zip(v, target))
                if best is None or d < best[1] or (d == best[1] and v < best[0]):
                    best = (v, d)
            assert (got_vec, got_sq) == best


SHAPES_UP_TO_7 = [(m, N // m) for N in range(2, 8) for m in range(1, N + 1) if N % m == 0]


@pytest.mark.parametrize("shape", SHAPES_UP_TO_7)
@given(st.lists(st.fractions(-3, 3, max_denominator=6), min_size=6, max_size=6))
@settings(max_examples=15, deadline=None)
def test_cvp_matches_a_brute_force_box(shape, head):
    # every shape of order <= 7, n = 1 shapes included: every lattice vector within the distance cvp
    # finds has each coordinate within that distance, so the box of those coordinates holds the minimum
    g = AbelianGroup(*shape)
    N = g.order
    lat = Lattice(g)
    target = (*head[: N - 1], -sum(head[: N - 1]))
    vec, dist_sq = cvp(g, target)
    reach = math.isqrt(math.ceil(dist_sq)) + 1
    box = [[v for v in range(math.floor(t) - reach, math.ceil(t) + reach + 1) if (v - t) ** 2 <= dist_sq] for t in target]
    best = None
    for combo in itertools.product(*box[:-1]):
        v = (*combo, -sum(combo))
        if v[-1] in box[-1] and lat.contains(v):
            d = sum((c - t) ** 2 for c, t in zip(v, target))
            best = min(best or (d, v), (d, v))
    assert best == (dist_sq, vec)


def test_both_searches_share_the_recursion_guard():
    # N = 151 passes the oracle's up-front count, and the zero target costs cvp about 2(N - 1) nodes,
    # so only the depth guard in the shared enumerator stops them under a lowered recursion limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        with pytest.raises(SearchBoundExceeded, match="recurses too deep"):
            Lattice(AbelianGroup(1, 151)).svp_oracle(2)
        with pytest.raises(SearchBoundExceeded, match="recurses too deep"):
            cvp(AbelianGroup(1, 151), (0,) * 151)
    finally:
        sys.setrecursionlimit(limit)


def test_covering_bounds_values():
    rep = covering_bounds(AbelianGroup(2, 2))
    assert rep.lower == 1.0
    assert abs(rep.upper_new - (1 + math.sqrt(2))) < 1e-12
    assert abs(rep.upper_old - 0.5 * (math.sqrt(40) + 2)) < 1e-12
    assert rep.upper_boettcher is None
    assert covering_bounds(AbelianGroup(1, 4)).upper_boettcher is not None
    assert covering_bounds(AbelianGroup(1, 2)).upper_boettcher is None


def test_covering_bound_chain():
    for N in range(2, 101):
        rep = covering_bounds(AbelianGroup(1, N))
        assert rep.lower <= rep.upper_new <= rep.upper_old - 1e-12
        assert abs(rep.lower - math.sqrt(float(rep.mu_A_sq))) < 1e-12


def test_within_upper_bound_is_exact():
    # N = 4: mu = 1, so the bound is (1 + sqrt 2)^2 = 5.82842712474619009...
    mu_sq = covering_radius_An_sq(4)
    above = Fraction(5828427125, 10**9)  # 2.5e-10 above the bound
    below = Fraction(5828427124, 10**9)  # 7.5e-10 below it
    assert math.sqrt(float(above)) <= covering_bounds(AbelianGroup(2, 2)).upper_new + 1e-9  # a float test with slack accepts it
    assert not within_upper_bound(above, mu_sq)
    assert within_upper_bound(below, mu_sq)
    assert within_upper_bound(mu_sq, mu_sq)


def test_splitmix64_reference_sequence():
    # the published SplitMix64 outputs from seed 0, as one trial at N = 5 draws them: residues mod 31
    # shifted to [-15, 15], then projected to coordinate sum zero and scaled by 2N = 10
    outputs = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC, 0x1B39896A51A8749B]
    draws = [v % 31 - 15 for v in outputs]
    assert list(_scaled_targets(5, 1, 0)) == [[5 * d - sum(draws) for d in draws]]
    # the batched outputs against the scalar recurrence, across batch boundaries and for a seed past 2^64
    for seed, count in ((0, 5000), (2**64 + 5, 2049)):
        state, expected = seed % 2**64, []
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) % 2**64
            z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
            expected.append(z ^ (z >> 31))
        assert [z for batch in _splitmix64(seed, count) for z in batch] == expected


def test_sample_targets_deterministic_and_in_plane():
    a = list(sample_targets(6, 5, 42))
    b = list(sample_targets(6, 5, 42))
    assert a == b
    assert list(sample_targets(6, 5, 43)) != a
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
    rep12 = sampled_covering_check(AbelianGroup(1, 12), 2, 1)
    assert rep12.all_within_upper and rep12.max_reaches_lower


def test_cvp_refuses_a_search_deeper_than_the_recursion_limit():
    # the zero target costs about 2(N - 1) nodes, so only the depth guard stops it
    with pytest.raises(SearchBoundExceeded):
        cvp(AbelianGroup(1, 2000), (Fraction(0),) * 2000)


def test_cvp_calls_share_one_budget():
    g = AbelianGroup(1, 6)
    target = next(sample_targets(6, 1, 3))
    budget = [SEARCH_MAX_NODES]
    expected = cvp(g, target, budget=budget)
    spent = SEARCH_MAX_NODES - budget[0]
    assert spent > 0
    budget = [spent]
    assert cvp(g, target, budget=budget) == expected and budget == [0]
    with pytest.raises(SearchBoundExceeded):
        cvp(g, target, budget=budget)


@pytest.mark.parametrize("N", range(2, 17))
def test_deep_hole_search_spends_at_least_the_central_binomial(N):
    # every prefix of each of the C(N, N // 2) nearest points of A_{N-1} is tried
    g = AbelianGroup(1, N)
    with pytest.raises(SearchBoundExceeded):
        cvp(g, deep_hole_An(N), budget=[math.comb(N, N // 2) - 1])
    assert cvp(g, deep_hole_An(N))[1] == covering_radius_An_sq(N)


@pytest.mark.parametrize(
    "shape,trials",
    [
        ((1, 499998), 1),  # one trial is charged 4 * 499998 + 10, 2 nodes past the budget
        ((1, 10**39), 50),
        ((1, 20), SEARCH_MAX_NODES),  # more trials than nodes
        ((1, 9998), 50),  # 50 * (4 * 9998 + 10) passes 2000000 by 100
        ((2, 4999), 50),  # the charge takes the group's order, not its cyclic factor
    ],
)
def test_sampled_covering_refusals(shape, trials):
    start = time.perf_counter()
    with pytest.raises(SearchBoundExceeded):
        sampled_covering_check(AbelianGroup(*shape), trials, 7)
    assert time.perf_counter() - start < 5


def test_sampled_covering_refuses_negative_trials():
    with pytest.raises(BadSize, match="non-negative number of trials"):
        sampled_covering_check(AbelianGroup(1, 5), -3, 1)
    assert sampled_covering_check(AbelianGroup(1, 5), 0, 1).trials == 0


def test_sampled_covering_charges_4n_plus_10_nodes_per_trial_and_the_searches_on_top(monkeypatch):
    # at 1x4 and seed 1 the first two trials have retraction points within the deep hole's distance 1,
    # and the third is searched; a trial at N = 4 is charged 4 * 4 + 10 = 26 nodes
    g = AbelianGroup(1, 4)
    monkeypatch.setattr(geometry, "SEARCH_MAX_NODES", 2 * 26)
    assert sampled_covering_check(g, 2, 1).max_distance_sq == 1
    monkeypatch.setattr(geometry, "SEARCH_MAX_NODES", 2 * 26 - 1)
    with pytest.raises(SearchBoundExceeded):
        sampled_covering_check(g, 2, 1)
    budget = [SEARCH_MAX_NODES]
    third = list(sample_targets(4, 3, 1))[2]
    expected = max(Fraction(1), cvp(g, third, budget=budget)[1])
    search_nodes = SEARCH_MAX_NODES - budget[0]
    monkeypatch.setattr(geometry, "SEARCH_MAX_NODES", 3 * 26 + search_nodes)
    assert sampled_covering_check(g, 3, 1).max_distance_sq == expected
    monkeypatch.setattr(geometry, "SEARCH_MAX_NODES", 3 * 26 + search_nodes - 1)
    with pytest.raises(SearchBoundExceeded):
        sampled_covering_check(g, 3, 1)


@pytest.mark.parametrize("N", range(2, 11))
def test_sampled_covering_max_matches_a_search_of_every_trial(N):
    for g in canonical_groups_of_order(N):
        for seed in (3, 2024):
            expected = max(cvp(g, t)[1] for t in [deep_hole_An(N), *sample_targets(N, 40, seed)])
            assert sampled_covering_check(g, 40, seed).max_distance_sq == expected


@given(
    st.sampled_from([(m, n) for m in (1, 2, 3) for n in range(1, 13) if 2 <= m * n <= 12]),
    st.integers(1, 60),
    st.lists(st.integers(-(10**12), 10**12) | st.integers(-200, 200), min_size=11, max_size=11),
)
@settings(max_examples=150, deadline=None)
def test_retraction_point_is_a_lattice_vector_within_the_paper_bound(shape, D, draws):
    g = AbelianGroup(*shape)
    N = g.order
    ts = draws[: N - 1] + [-sum(draws[: N - 1])]
    v, cost = _retraction_point(g, ts, D)
    assert Lattice(g).contains(v)
    assert cost == sum((D * x - t) ** 2 for x, t in zip(v, ts))
    dist = Fraction(cost, D * D)
    # the nearest point of A_{N-1} is within mu(A_{N-1}), and the step into the lattice adds at most sqrt(2)
    assert within_upper_bound(dist, covering_radius_An_sq(N))
    assert cvp(g, tuple(Fraction(t, D) for t in ts))[1] <= dist


def test_cvp_far_from_the_origin():
    g = AbelianGroup(1, 3)
    start = time.perf_counter()
    assert cvp(g, (10**6, -(10**6), 0)) == ((999999, -999999, 0), 2)
    assert time.perf_counter() - start < 0.5
    vec, dist = cvp(g, (10**40 + Fraction(1, 3), -(10**40), Fraction(-1, 3)))
    assert Lattice(g).contains(vec) and dist <= 2


def test_sampled_covering_all_small_groups():
    for N in range(2, 8):
        for g in canonical_groups_of_order(N):
            rep = sampled_covering_check(g, 20, 99)
            assert rep.all_within_upper and rep.max_reaches_lower
