"""Packing density against the Minkowski-Hlawka bound, covering-radius bounds,
deep holes of A_{N-1}, the retraction of A_{N-1} into the lattice, and an
exact closest-vector search for desk-scale checks.

The closest-vector search scales the target to integers once and runs the
lattice enumeration shared with the short-vector oracle, so covering checks
are decided in exact integer arithmetic; floating point appears only in
reported bounds and logs, never in a decision.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import BadSize, LengthMismatch, NotInAn, SearchBoundExceeded
from .groups import AbelianGroup
from .lattice import SEARCH_MAX_NODES, Vector, _enumerate

RationalPoint = tuple[Fraction, ...]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class DensityReport:
    N: int
    k: int
    log_density: float
    log_mh_bound: float
    satisfies_mh: bool


@dataclass(frozen=True)
class CoveringReport:
    N: int
    mu_A_sq: Fraction
    lower: float
    upper_new: float
    upper_old: float
    upper_boettcher: float | None


@dataclass(frozen=True)
class SampledCoveringReport:
    """Result of the seeded random covering check for one group.

    The deep hole of A_{N-1} is at squared distance mu(A_{N-1})^2, stated,
    not searched; the trials are SplitMix64-driven rational targets in the
    zero-sum hyperplane. N and the bounds themselves are in the group's
    CoveringReport.

    deep_hole_distance_sq always equals mu(A_{N-1})^2 and max_reaches_lower
    is always true, since the largest distance starts there. Both stay
    because the printed report carries them: perfbench/checks.py checks
    them, the README states them, and dropping them would change the
    report's bytes.
    """

    trials: int
    seed: int
    deep_hole_distance_sq: Fraction
    max_distance_sq: Fraction
    all_within_upper: bool
    max_reaches_lower: bool


@lru_cache(maxsize=None)
def zeta(k: int) -> float:
    """Riemann zeta at an integer k >= 2, absolute error below 1e-13.

    Direct summation of M terms plus the integral tail bound M^(1-k)/(k-1);
    M is chosen so the tail approximation error M^(-k)/2 is below tolerance.
    """
    if k < 2:
        raise ValueError(f"zeta evaluated only for k >= 2, got {k}")
    M = max(10, math.ceil((1.25e13) ** (1.0 / k)) + 1)
    partial = math.fsum(j ** (-float(k)) for j in range(1, M + 1))
    tail = M ** (1.0 - k) / (k - 1)
    return partial + tail


def packing_density_log(N: int) -> float:
    """log of the packing density of the lattice of a group of order N >= 4.

    Minimal distance 2 makes the ball-radius factor (d/2)^k equal to 1, so
    log density = (k/2) log pi - log Gamma(k/2 + 1) - (3/2) log N with
    k = N - 1.
    """
    if N < 4:
        raise BadSize(f"density formula needs N >= 4 (minimal distance 2), got {N}")
    k = N - 1
    return (k / 2.0) * math.log(math.pi) - math.lgamma(k / 2.0 + 1.0) - 1.5 * math.log(N)


def mh_bound_log(k: int) -> float:
    """log of the Minkowski-Hlawka existence bound zeta(k) / 2^(k-1)."""
    return math.log(zeta(k)) - (k - 1) * math.log(2.0)


def density_report(N: int) -> DensityReport:
    """The logs of density and bound as floats, and the window decision stated exactly.

    The density is at least the bound exactly for N = 4..47 of N = 4..48
    (checked to 50 digits in the tests). Past that, Gautschi's inequality
    Gamma(x + 1/2) / Gamma(x + 1) < x^(-1/2) at x = N/2 bounds the ratio
    R(N) = density / bound by R(N + 1) / R(N) < 2 sqrt(2 pi / N) zeta(N - 1),
    below 1 from N = 26 on, so R(N) <= R(48) < 1 for every N >= 48.
    """
    k = N - 1
    return DensityReport(N, k, packing_density_log(N), mh_bound_log(k), N <= 47)


def mh_window_scan(n_min: int, n_max: int) -> list[DensityReport]:
    """Density reports for N in [n_min, n_max]."""
    if not 4 <= n_min <= n_max:
        raise BadSize(f"need 4 <= n_min <= n_max, got [{n_min}, {n_max}]")
    return [density_report(N) for N in range(n_min, n_max + 1)]


def covering_radius_An_sq(N: int) -> Fraction:
    """Exact squared covering radius of A_{N-1}: N/4 if N even, (N - 1/N)/4 if odd."""
    if N < 2:
        raise BadSize(f"A_{{N-1}} needs N >= 2, got {N}")
    if N % 2 == 0:
        return Fraction(N, 4)
    return Fraction(N * N - 1, 4 * N)


def deep_hole_An(N: int) -> RationalPoint:
    """A deep hole of A_{N-1}: ceil(N/2) positive entries then floor(N/2) negative ones.

    Entries are +-1/2 for even N and 1/2 - 1/(2N), -1/2 - 1/(2N) for odd N,
    so the coordinates sum to zero exactly.
    """
    if N < 2:
        raise BadSize(f"A_{{N-1}} needs N >= 2, got {N}")
    i = N // 2
    j = N - i
    if N % 2 == 0:
        return tuple([Fraction(1, 2)] * j + [Fraction(-1, 2)] * i)
    shift = Fraction(1, 2 * N)
    return tuple([Fraction(1, 2) - shift] * j + [Fraction(-1, 2) - shift] * i)


def retract(group: AbelianGroup, v: Vector) -> Vector:
    """Pull a zero-sum integer vector into the lattice within distance sqrt(2).

    Adds 1 at the identity coordinate and subtracts 1 at the coordinate of
    the vector's group-weighted sum; vectors already in the lattice are
    returned unchanged.
    """
    if len(v) != group.order:
        raise LengthMismatch(f"expected length {group.order}, got {len(v)}")
    if sum(v) != 0:
        raise NotInAn("coordinates must sum to zero")
    return _retraction_point(group, list(v), 1)[0]


def _retraction_point(group: AbelianGroup, ts: list[int], D: int) -> tuple[Vector, int]:
    """A lattice vector near the target ts / D, and its cost sum((D*x_i - ts_i)^2).

    The construction behind mu(L) <= mu(A_{N-1}) + sqrt(2): the nearest point
    of A_{N-1} (Conway and Sloane, ch. 20: round each coordinate, then move
    back by one the |sum(x)| coordinates rounded furthest in the direction
    of that sum), then the cheapest step +e_g - e_{g+s} into the lattice, where s is
    the point's group-weighted sum. With residues r = D*x - ts the step costs
    2D^2 + 2D(r_g - r_{g+s}), so g is found in one pass over the elements;
    ties go to the element first in index order, so an integer target steps
    from the identity, as retract does. The target must lie in the zero-sum
    hyperplane.
    """
    m, n = group.m, group.n
    x = [(2 * t + D) // (2 * D) for t in ts]
    r = [D * xi - t for xi, t in zip(x, ts)]
    k = sum(x)
    if k:
        # lowering x_i changes the cost by D^2 - 2D r_i and raising it by D^2 + 2D r_i: move the |k| cheapest
        step = 1 if k > 0 else -1
        for i in sorted(range(m * n), key=r.__getitem__, reverse=k > 0)[: abs(k)]:
            x[i] -= step
            r[i] -= step * D
    sa, sb = group.weighted_sum(enumerate(x))
    if sa or sb:
        # each element g = (a, b), at coordinate a*n + b, paired with g + s
        steps = [(a * n + b, (a + sa) % m * n + (b + sb) % n) for a in range(m) for b in range(n)]
        g, h = min(steps, key=lambda gh: r[gh[0]] - r[gh[1]])
        x[g] += 1
        x[h] -= 1
        r[g] += D
        r[h] -= D
    return tuple(x), sum(c * c for c in r)


def cvp(group: AbelianGroup, target: RationalPoint, *, budget: list[int] | None = None) -> tuple[Vector, Fraction]:
    """Exact closest lattice vector to the target, and its squared distance.

    The shared lattice enumeration around the target, with the radius
    shrinking to the best cost found so far. It starts from the smaller of
    the cost of the zero vector and the cost of the lattice vector the
    paper's retraction gives (the nearest point of A_{N-1} plus one step),
    so a lattice vector always lies within the start and the search does
    not grow with the target's distance from the origin. Every vector
    within that start is visited, so ties are broken toward the
    lexicographically smallest coordinate vector. Entries other than int
    and Fraction are converted exactly with Fraction().

    budget is a one-item list of the nodes left, which calls can share; a
    call without one gets SEARCH_MAX_NODES. A search past its budget, or one
    that recurses (a frame per coordinate) past half the interpreter's
    recursion limit, raises SearchBoundExceeded.
    """
    N = group.order
    if 2 * N > sys.getrecursionlimit():
        raise SearchBoundExceeded(f"the closest-vector search at N = {N} recurses too deep; use a smaller --group")
    if len(target) != N:
        raise LengthMismatch(f"expected length {N}, got {len(target)}")
    target = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in target]
    D = lcm(*(x.denominator for x in target), 1)
    ts = [x.numerator * (D // x.denominator) for x in target]
    if sum(ts) != 0:
        raise NotInAn("target must lie in the zero-sum hyperplane")
    best: tuple[int, Vector] | None = None

    def visit(cost: int, vec: Vector) -> int:
        nonlocal best
        if best is None or (cost, vec) < best:
            best = (cost, vec)
        return best[0]

    if budget is None:
        budget = [SEARCH_MAX_NODES]
    # the zero vector and the retraction point lie in the lattice, so their costs bound the minimum
    limit = min(sum(x * x for x in ts), _retraction_point(group, ts, D)[1])
    budget[0] = _enumerate(group, ts, D, limit, visit, budget[0])
    if budget[0] < 0:
        raise SearchBoundExceeded(f"the search at N = {N} passes its node budget; use fewer --trials or a smaller --group")
    return best[1], Fraction(best[0], D * D)


def covering_bounds(N: int, *, cyclic: bool = False) -> CoveringReport:
    """Covering-radius bounds: mu(A_{N-1}) <= mu(L) <= mu(A_{N-1}) + sqrt(2).

    upper_old is the earlier bound (sqrt(N^2 + 4N + 8) + sqrt(N)) / 2; the
    comparator bound sqrt(N + 4 log(N-2) + 6 - 4 log 2 + 10/(N-1)) / 2 is
    reported for cyclic groups of order N >= 3 only.
    """
    if N * N + 4 * N + 8 > sys.float_info.max:  # the largest value converted to a float
        raise BadSize(f"--group of order {N}: the covering bounds leave the float range")
    mu_sq = covering_radius_An_sq(N)
    lower = math.sqrt(float(mu_sq))
    upper_new = lower + math.sqrt(2.0)
    upper_old = 0.5 * (math.sqrt(N * N + 4 * N + 8) + math.sqrt(N))
    boettcher = None
    if cyclic and N >= 3:
        boettcher = 0.5 * math.sqrt(N + 4 * math.log(N - 2) + 6 - 4 * math.log(2) + 10 / (N - 1))
    return CoveringReport(N, mu_sq, lower, upper_new, upper_old, boettcher)


def splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (output, next state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


def _scaled_targets(N: int, trials: int, seed: int) -> Iterator[list[int]]:
    """The targets of sample_targets as integer numerators over 2N^2."""
    state = seed & _MASK64
    width = 6 * N + 1
    for _ in range(trials):
        draws = []
        for _ in range(N):
            value, state = splitmix64(state)
            draws.append(value % width - 3 * N)
        total = sum(draws)
        yield [N * d - total for d in draws]


def sample_targets(N: int, trials: int, seed: int) -> Iterator[RationalPoint]:
    """Deterministic rational targets in the zero-sum hyperplane, drawn one at a time.

    Each trial draws N SplitMix64 integers in [-3N, 3N], projects the vector
    onto coordinate sum zero, and scales by 1/(2N).
    """
    D = 2 * N * N
    for ts in _scaled_targets(N, trials, seed):
        yield tuple(Fraction(t, D) for t in ts)


def within_upper_bound(dist_sq: Fraction, mu_sq: Fraction) -> bool:
    """Whether sqrt(dist_sq) <= mu + sqrt(2), that is e <= 2 sqrt(2) mu for
    e = dist_sq - mu^2 - 2, decided exactly."""
    e = dist_sq - mu_sq - 2
    return e <= 0 or e * e <= 8 * mu_sq


def sampled_covering_check(group: AbelianGroup, trials: int, seed: int) -> SampledCoveringReport:
    """Seeded random covering check: every sampled point must be within
    mu(A_{N-1}) + sqrt(2) of the lattice. The deep hole of A_{N-1} is at
    squared distance exactly mu(A_{N-1})^2, so the largest distance reaches
    the lower bound; the tests check that distance with cvp.

    Each trial is charged N nodes, for drawing and rounding its coordinates,
    from one budget of SEARCH_MAX_NODES nodes, so a check with trials * N
    above the budget raises SearchBoundExceeded before any target is built.
    A trial whose retraction point (see cvp) is within the largest distance
    so far cannot raise it and is not searched. Every other trial is
    searched with cvp, which returns the exact closest lattice vector; it
    starts from the smaller of the zero vector's cost and the retraction
    point's cost, and its nodes come from the same budget.
    """
    N = group.order
    mu_sq = covering_radius_An_sq(N)
    if trials * N > SEARCH_MAX_NODES:
        raise SearchBoundExceeded(
            f"the covering check at N = {N} with {trials} trials passes {SEARCH_MAX_NODES} nodes;"
            " use fewer --trials or a smaller --group"
        )
    budget = [SEARCH_MAX_NODES - trials * N]
    # the zero vector attains mu^2 from the deep hole, and no point of A_{N-1} is nearer
    deep_sq = max_sq = mu_sq
    D = 2 * N * N
    for ts in _scaled_targets(N, trials, seed):
        if _retraction_point(group, ts, D)[1] * max_sq.denominator <= max_sq.numerator * D * D:
            continue
        # looked up on the module at each call, so a wrapper set on geometry.cvp sees every search
        max_sq = max(max_sq, cvp(group, tuple(Fraction(t, D) for t in ts), budget=budget)[1])
    return SampledCoveringReport(
        trials=trials,
        seed=seed,
        deep_hole_distance_sq=deep_sq,
        max_distance_sq=max_sq,
        all_within_upper=within_upper_bound(max_sq, mu_sq),  # every distance is within the bound when the largest is
        max_reaches_lower=max_sq >= mu_sq,
    )
