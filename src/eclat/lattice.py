"""The lattice attached to a finite abelian group.

A vector of length N = |P| indexed by the group elements lies in the lattice
exactly when its coordinates sum to zero and the group-weighted sum of its
coordinates is the identity; equivalently, read as a divisor supported on the
group, it is principal. For cyclic groups this is the classical sublattice of
A_{N-1} cut out by sum(i * x_i) = 0 mod N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, prod
from typing import Callable

from .errors import BadSize, InternalInconsistency, LengthMismatch, NotInAn, OracleBoundExceeded
from .exact import det_bareiss, echelon_pivots
from .groups import AbelianGroup, GroupElement

Vector = tuple[int, ...]

SVP_ORACLE_MAX_DIM = 12


@dataclass(frozen=True)
class GramReport:
    """Exact Gram matrix of a vector list and its exact determinant."""

    gram: tuple[tuple[int, ...], ...]
    det: int


@dataclass(frozen=True)
class Lattice:
    group: AbelianGroup

    @property
    def dim(self) -> int:
        """Ambient dimension N = |P|; the lattice itself has rank N - 1."""
        return self.group.order

    @property
    def rank(self) -> int:
        return self.dim - 1

    def contains(self, v: Vector) -> bool:
        """Membership: zero coordinate sum and group-weighted sum equal to identity."""
        g = self.group
        if len(v) != g.order:
            raise LengthMismatch(f"expected length {g.order}, got {len(v)}")
        return sum(v) == 0 and g.weighted_sum(v) == g.identity

    def minimal_distance_sq(self) -> int:
        """Squared minimal distance: 4 for N >= 4, 6 for N = 3, 8 for N = 2.

        At oracle-friendly sizes the closed form is cross-checked once per
        group shape against the exhaustive short-vector search.
        """
        N = self.dim
        if N < 2:
            raise BadSize("the lattice needs a group of order at least 2")
        closed = 8 if N == 2 else 6 if N == 3 else 4
        if N <= SVP_ORACLE_MAX_DIM:
            _check_oracle_minimum(self.group.m, self.group.n, closed)
        return closed

    def minimal_vectors(self) -> list[Vector]:
        """All minimal vectors, sorted lexicographically.

        For N >= 4 these are e_P + e_Q - e_R - e_S over unordered pairs
        {P, Q} != {R, S} of distinct elements with P + Q = R + S (distinct
        pairs with equal sum are automatically disjoint); for N = 2 and 3
        the short explicit lists.
        """
        g = self.group
        N = g.order
        if N < 2:
            raise BadSize("the lattice needs a group of order at least 2")
        if N == 2:
            return [(-2, 2), (2, -2)]
        if N == 3:
            base = [(-2, 1, 1), (1, -2, 1), (1, 1, -2)]
            out3 = base + [tuple(-c for c in v) for v in base]
            return sorted(out3)
        out: list[Vector] = []
        for pairs in _pair_classes(g):
            for pos in pairs:
                for neg in pairs:
                    if pos == neg:
                        continue
                    v = [0] * N
                    v[pos[0]] = v[pos[1]] = 1
                    v[neg[0]] = v[neg[1]] = -1
                    out.append(tuple(v))
        out.sort()
        return out

    def count_minimal_vectors(self) -> int:
        """Number of minimal vectors, by the same pair-sum enumeration as
        minimal_vectors but without materializing the vectors."""
        g = self.group
        N = g.order
        if N < 2:
            raise BadSize("the lattice needs a group of order at least 2")
        if N == 2:
            return 2
        if N == 3:
            return 6
        return sum(len(pairs) * (len(pairs) - 1) for pairs in _pair_classes(g))

    def svp_oracle(self, norm_sq_bound: int, *, max_dim: int = SVP_ORACLE_MAX_DIM) -> list[Vector]:
        """Every nonzero lattice vector with squared norm <= the bound, sorted.

        The lattice enumeration around the origin; independent of the
        pair-sum characterization used by minimal_vectors.
        """
        g = self.group
        N = g.order
        if N > max_dim:
            raise OracleBoundExceeded(f"N = {N} exceeds the oracle bound {max_dim}")
        if N < 2:
            raise BadSize("the lattice needs a group of order at least 2")
        bound = int(norm_sq_bound)
        out: list[Vector] = []

        def visit(cost: int, vec: Vector) -> int:
            if cost:
                out.append(vec)
            return bound

        _enumerate(g, [0] * N, 1, bound, visit)
        return sorted(out)

    def determinant_sq(self) -> int:
        """Exact squared determinant N^3 (the determinant itself is N^{3/2})."""
        N = self.dim
        if N < 2:
            raise BadSize("the lattice needs a group of order at least 2")
        return N**3


def _pair_classes(group: AbelianGroup) -> list[list[tuple[int, int]]]:
    """Coordinate pairs i < j grouped by the sum of their two elements."""
    N = group.order
    elems = group.elements()
    by_sum: dict[GroupElement, list[tuple[int, int]]] = {}
    for i in range(N):
        for j in range(i + 1, N):
            by_sum.setdefault(group.add(elems[i], elems[j]), []).append((i, j))
    return list(by_sum.values())


def _enumerate(
    group: AbelianGroup, ts: list[int], D: int, limit: int, visit: Callable[[int, Vector], int]
) -> None:
    """Visit every lattice vector x with cost sum((D*x_i - ts_i)^2) <= limit.

    The target is ts / D. The search is depth first over the coordinates in
    index order; the zero-sum constraint fixes the last coordinate and
    membership is tested there. visit(cost, x) is called at each lattice
    vector within the limit and returns the limit to continue with.

    Each coordinate's cost depends on that coordinate alone, so its
    candidates are sorted by cost once, from the initial limit, and tried
    nearest first (Schnorr-Euchner order). The coordinates after i cost at
    least sum(rho_j^2) + D*(D - 2*max(rho_j))*|s - sum(n_j)| when they must
    sum to s, where n_j is the integer nearest ts_j / D and
    rho_j = |D*n_j - ts_j| <= D/2.
    """
    if limit < 0:
        return
    N, m, n = group.order, group.m, group.n
    last = N - 1
    if last == 0:  # the zero vector is the only zero-sum vector
        if ts[0] ** 2 <= limit:
            visit(ts[0] ** 2, (0,))
        return
    r = isqrt(limit)
    cands = [sorted(((D * x - t) ** 2, x) for x in range(-((r - t) // D), (t + r) // D + 1)) for t in ts[:last]]
    base, near, slope = [0] * N, [0] * N, [0] * N
    b = s = rho_max = 0
    for j in range(last, 0, -1):
        nj = (2 * ts[j] + D) // (2 * D)
        rho = abs(D * nj - ts[j])
        b, s, rho_max = b + rho * rho, s + nj, max(rho_max, rho)
        base[j - 1], near[j - 1], slope[j - 1] = b, s, D * (D - 2 * rho_max)
    t_last = ts[last]
    a_last, b_last = divmod(last, n)
    coords = [0] * N

    def dfs(i: int, total: int, wa: int, wb: int, cost: int) -> None:
        nonlocal limit
        bi, nr, sl = base[i], near[i], slope[i]
        a, bw = divmod(i, n)
        for c, x in cands[i]:
            c += cost
            if c + bi > limit:
                break
            if c + bi + sl * abs(total + x + nr) > limit:
                continue
            coords[i] = x
            if i < last - 1:
                dfs(i + 1, total + x, wa + x * a, wb + x * bw, c)
                continue
            # the last coordinate is tested here, not in a call: most nodes are leaves
            y = -total - x
            c += (D * y - t_last) ** 2
            if c <= limit and (wa + x * a + y * a_last) % m == 0 and (wb + x * bw + y * b_last) % n == 0:
                coords[last] = y
                limit = visit(c, tuple(coords))

    dfs(0, 0, 0, 0, 0)


@lru_cache(maxsize=None)
def _check_oracle_minimum(m: int, n: int, expected: int) -> bool:
    lat = Lattice(AbelianGroup(m, n))
    found = lat.svp_oracle(expected)
    if not found or min(sum(c * c for c in v) for v in found) != expected:
        raise InternalInconsistency(
            f"oracle minimum disagrees with the closed form {expected} for shape ({m}, {n})"
        )
    return True


def divisor_degree(v: Vector) -> int:
    """Degree of the divisor a zero-sum vector encodes: the sum of its positive entries."""
    if sum(v) != 0:
        raise NotInAn("coordinates must sum to zero")
    return sum(c for c in v if c > 0)


def gram_matrix(vectors: list[Vector]) -> list[list[int]]:
    k = len(vectors)
    if k and any(len(v) != len(vectors[0]) for v in vectors):
        raise LengthMismatch("vectors must all have the same length")
    return [[sum(a * b for a, b in zip(vectors[i], vectors[j])) for j in range(k)] for i in range(k)]


def gram_report(vectors: list[Vector]) -> GramReport:
    """Exact integer Gram matrix and its exact determinant."""
    gram = gram_matrix(vectors)
    return GramReport(tuple(tuple(row) for row in gram), det_bareiss(gram))


def span_rank(vectors: list[Vector]) -> int:
    """Rank over the rationals of the span of the vectors."""
    return len(echelon_pivots(vectors))


def index_from_generators(vectors: list[Vector]) -> int:
    """Index in A_{N-1} of the sublattice the vectors generate.

    Dropping the last coordinate maps A_{N-1} isomorphically onto Z^{N-1},
    so the index is the product of the echelon pivots of the vectors without
    their last coordinate. Returns 0 when the span has deficient rank.
    """
    if not vectors:
        raise ValueError("need at least one generator")
    N = len(vectors[0])
    for v in vectors:
        if len(v) != N:
            raise LengthMismatch("vectors must all have the same length")
        if sum(v) != 0:
            raise NotInAn("generators must lie in A_{N-1}")
    pivots = echelon_pivots([v[:-1] for v in vectors])
    return prod(pivots) if len(pivots) == N - 1 else 0
