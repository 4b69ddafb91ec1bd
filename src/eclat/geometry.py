"""Packing density against the Minkowski-Hlawka bound, covering-radius bounds,
deep holes of A_{N-1}, and an exact closest-vector search for desk-scale checks.

Covering computations run in exact rational arithmetic (targets are scaled to
integers); floating point appears only in reported bounds and log-space
density comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from .errors import (
    BadSize,
    CvpBoundExceeded,
    InternalInconsistency,
    LengthMismatch,
    NoPointInRadius,
    NotInAn,
)
from .groups import AbelianGroup
from .lattice import Vector, _enumerate

RationalPoint = tuple[Fraction, ...]

CVP_MAX_DIM = 10
MH_TOLERANCE = 1e-9

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

    Trial 0 is always the deep hole of A_{N-1}; the remaining trials are
    SplitMix64-driven rational targets in the zero-sum hyperplane.
    """

    group: str
    N: int
    trials: int
    seed: int
    lower: float
    upper: float
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
    k = N - 1
    log_density = packing_density_log(N)
    log_mh = mh_bound_log(k)
    return DensityReport(N, k, log_density, log_mh, log_density >= log_mh - MH_TOLERANCE)


def mh_window_scan(n_min: int, n_max: int) -> list[DensityReport]:
    """Density reports for N in [n_min, n_max].

    The margin between density and bound is asserted to exceed the tolerance
    at the window edge N = 47 and just outside it at N = 48, whenever those
    sizes fall in the requested range.
    """
    if not 4 <= n_min <= n_max:
        raise BadSize(f"need 4 <= n_min <= n_max, got [{n_min}, {n_max}]")
    reports = [density_report(N) for N in range(n_min, n_max + 1)]
    for rep in reports:
        if rep.N in (47, 48) and abs(rep.log_density - rep.log_mh_bound) <= MH_TOLERANCE:
            raise InternalInconsistency(f"margin at N = {rep.N} too small to resolve the window edge")
    return reports


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
    s = group.weighted_sum(v)
    if s == group.identity:
        return tuple(v)
    out = list(v)
    out[0] += 1
    out[group.element_index(s)] -= 1
    return tuple(out)


def closest_An_point(target: RationalPoint) -> list[int]:
    """Exact closest point of A_{N-1} to a zero-sum rational target.

    Round every coordinate to the nearest integer, then repair the sum by
    stepping the coordinates whose rounding residue makes the step cheapest.
    """
    rounded = [math.floor(t + Fraction(1, 2)) for t in target]
    deficit = sum(rounded)
    if deficit == 0:
        return rounded
    residues = [f - t for f, t in zip(rounded, target)]  # in [-1/2, 1/2]
    order = sorted(range(len(target)), key=lambda idx: (residues[idx], idx))
    if deficit > 0:
        # decrement the coordinates rounded up the furthest
        for idx in order[len(target) - deficit :]:
            rounded[idx] -= 1
    else:
        for idx in order[: -deficit]:
            rounded[idx] += 1
    return rounded


def cvp(
    group: AbelianGroup,
    target: RationalPoint,
    radius_sq_cap: Fraction,
    *,
    max_dim: int = CVP_MAX_DIM,
) -> tuple[Vector, Fraction]:
    """Exact closest lattice vector to the target within the given squared radius.

    The lattice enumeration around the target with a shrinking radius,
    seeded by the retraction of the closest A_{N-1} point. Ties are broken
    toward the lexicographically smallest coordinate vector. Raises
    NoPointInRadius if the cap is too small.
    """
    N = group.order
    if N > max_dim:
        raise CvpBoundExceeded(f"N = {N} exceeds the search bound {max_dim}")
    if len(target) != N:
        raise LengthMismatch(f"expected length {N}, got {len(target)}")
    t = [Fraction(x) for x in target]
    if sum(t) != 0:
        raise NotInAn("target must lie in the zero-sum hyperplane")
    cap = Fraction(radius_sq_cap)

    D = lcm(*(x.denominator for x in t), 1)
    ts = [int(x * D) for x in t]
    DD = D * D
    cap_scaled = (cap.numerator * DD) // cap.denominator  # floor; costs are integers

    warm = retract(group, tuple(closest_An_point(tuple(t))))
    warm_cost = sum((D * x - c) ** 2 for x, c in zip(warm, ts))
    best: tuple[int, Vector] | None = (warm_cost, warm) if warm_cost <= cap_scaled else None

    def visit(cost: int, vec: Vector) -> int:
        nonlocal best
        if best is None or (cost, vec) < best:
            best = (cost, vec)
        return best[0]

    _enumerate(group, ts, D, cap_scaled if best is None else best[0], visit)
    if best is None:
        raise NoPointInRadius(f"no lattice point within squared distance {cap} of the target")
    return best[1], Fraction(best[0], DD)


def covering_bounds(N: int, *, cyclic: bool = False) -> CoveringReport:
    """Covering-radius bounds: mu(A_{N-1}) <= mu(L) <= mu(A_{N-1}) + sqrt(2).

    upper_old is the earlier bound (sqrt(N^2 + 4N + 8) + sqrt(N)) / 2; the
    comparator bound sqrt(N + 4 log(N-2) + 6 - 4 log 2 + 10/(N-1)) / 2 is
    reported for cyclic groups of order N >= 3 only.
    """
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


def sample_targets(N: int, trials: int, seed: int) -> list[RationalPoint]:
    """Deterministic rational targets in the zero-sum hyperplane.

    Each trial draws N SplitMix64 integers in [-3N, 3N], projects the vector
    onto coordinate sum zero, and scales by 1/(2N).
    """
    state = seed & _MASK64
    width = 6 * N + 1
    targets = []
    for _ in range(trials):
        draws = []
        for _ in range(N):
            value, state = splitmix64(state)
            draws.append(value % width - 3 * N)
        total = sum(draws)
        targets.append(tuple(Fraction(N * d - total, 2 * N * N) for d in draws))
    return targets


def within_upper_bound(dist_sq: Fraction, mu_sq: Fraction) -> bool:
    """Whether sqrt(dist_sq) <= mu + sqrt(2), that is e <= 2 sqrt(2) mu for
    e = dist_sq - mu^2 - 2, decided exactly."""
    e = dist_sq - mu_sq - 2
    return e <= 0 or e * e <= 8 * mu_sq


def sampled_covering_check(
    group: AbelianGroup,
    trials: int,
    seed: int,
    *,
    cvp_cap: Fraction | None = None,
    max_dim: int = CVP_MAX_DIM,
) -> SampledCoveringReport:
    """Seeded random covering check: every sampled point must be within
    mu(A_{N-1}) + sqrt(2) of the lattice, and the deep hole (trial 0) must
    achieve squared distance exactly mu(A_{N-1})^2."""
    N = group.order
    if N > max_dim:
        raise CvpBoundExceeded(f"N = {N} exceeds the search bound {max_dim}")
    bounds = covering_bounds(N, cyclic=group.is_cyclic)
    mu_sq = bounds.mu_A_sq
    if cvp_cap is None:
        # (mu + sqrt 2)^2 = mu^2 + 2 + sqrt(8ab)/b for mu^2 = a/b, rounded up
        a, b = mu_sq.numerator, mu_sq.denominator
        cvp_cap = mu_sq + 2 + Fraction(isqrt(8 * a * b) + 1, b)
    targets = [deep_hole_An(N)] + sample_targets(N, trials, seed)
    dists = [cvp(group, tgt, cvp_cap, max_dim=max_dim)[1] for tgt in targets]
    max_sq = max(dists)
    return SampledCoveringReport(
        group=group.spec(),
        N=N,
        trials=trials,
        seed=seed,
        lower=bounds.lower,
        upper=bounds.upper_new,
        deep_hole_distance_sq=dists[0],
        max_distance_sq=max_sq,
        all_within_upper=within_upper_bound(max_sq, mu_sq),  # every distance is within the bound when the largest is
        max_reaches_lower=max_sq >= mu_sq,
    )
