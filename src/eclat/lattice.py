"""The lattice attached to a finite abelian group.

A vector of length N = |P| indexed by the group elements lies in the lattice
exactly when its coordinates sum to zero and the group-weighted sum of its
coordinates is the identity; equivalently, read as a divisor supported on the
group, it is principal. For cyclic groups this is the classical sublattice of
A_{N-1} cut out by sum(i * x_i) = 0 mod N.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from math import comb, gcd, isqrt, prod
from operator import itemgetter

from .errors import BadSize, LengthMismatch, SearchBoundExceeded
from .exact import det_bareiss, echelon_pivots
from .groups import AbelianGroup

Vector = tuple[int, ...]
# a vector held by its nonzero entries, {coordinate: entry}
Support = dict[int, int]
# a minimal vector e_i + e_j - e_k - e_l held as ((i, j), (k, l))
Quadruple = tuple[tuple[int, int], tuple[int, int]]

# the nodes one search may try, leaves included: about 1 s. It bounds an svp_oracle
# search and a whole geometry.sampled_covering_check, all its targets together
SEARCH_MAX_NODES = 2_000_000


@dataclass(frozen=True)
class GramReport:
    """Exact Gram matrix of a vector list and its exact determinant."""

    gram: tuple[tuple[int, ...], ...]
    det: int


@dataclass(frozen=True)
class Lattice:
    group: AbelianGroup

    def __post_init__(self) -> None:
        if self.group.order < 2:
            raise BadSize("the lattice needs a group of order at least 2")

    @property
    def dim(self) -> int:
        """Ambient dimension N = |P|; the lattice itself has rank N - 1."""
        return self.group.order

    def contains(self, v: Vector) -> bool:
        """Membership: zero coordinate sum and group-weighted sum equal to identity."""
        g = self.group
        if len(v) != g.order:
            raise LengthMismatch(f"expected length {g.order}, got {len(v)}")
        return sum(v) == 0 and g.weighted_sum(enumerate(v)) == g.identity

    def minimal_distance_sq(self) -> int:
        """Squared minimal distance: 4 for N >= 4, 6 for N = 3, 8 for N = 2.

        The tests cross-check this closed form against svp_oracle.
        """
        N = self.dim
        return 8 if N == 2 else 6 if N == 3 else 4

    def minimal_vectors(self) -> list[Vector]:
        """All minimal vectors as dense tuples, sorted lexicographically: the
        stream of minimal_quadruples expanded in its order, where below N = 4 a
        pair may repeat an index."""
        N = self.dim
        out = []
        for (i, j), (k, l) in minimal_quadruples(self.group):
            v = [0] * N
            v[i] += 1
            v[j] += 1
            v[k] -= 1
            v[l] -= 1
            out.append(tuple(v))
        return out

    def count_minimal_vectors(self) -> int:
        """Number of minimal vectors, in closed form for N >= 4.

        Each class of pairs {P, Q} with a fixed sum s gives k(k-1) vectors
        for its k pairs. The a = N/T sums in 2G, where T = |G[2]|, have
        (N-T)/2 pairs each; the N-a other sums have N/2 pairs each.
        """
        g = self.group
        N = g.order
        if N == 2:
            return 2
        if N == 3:
            return 6
        T = gcd(2, g.m) * gcd(2, g.n)
        a, c1, c0 = N // T, (N - T) // 2, N // 2
        return a * c1 * (c1 - 1) + (N - a) * c0 * (c0 - 1)

    def svp_oracle(self, norm_sq_bound: int) -> list[Vector]:
        """Every nonzero lattice vector with squared norm <= the bound, sorted.

        The lattice enumeration around the origin; independent of the
        pair-sum characterization used by minimal_vectors. The search finds
        one vector of each pair +-v, the one whose first nonzero entry is
        positive, and both are kept; with n >= 2 it settles membership at
        the last row and at the second-to-last coordinate (see _enumerate).
        A search that would spend more than SEARCH_MAX_NODES nodes raises
        SearchBoundExceeded, before it starts when the count below shows it.
        """
        g = self.group
        N = g.order
        bound = int(norm_sq_bound)
        if bound < 2:  # a nonzero zero-sum integer vector has squared norm at least 2
            return []
        out: list[Vector] = []

        def visit(cost: int, vec: Vector) -> int:
            if cost:
                out.append(vec)
                out.append(tuple(-c for c in vec))
            return bound

        # the nodes charged include, at each of the N - 1 levels, all 2r + 1 values after the zero prefix (which
        # loops over x >= 0 only), and a call after each prefix whose nonzero entries are one x > 0,
        # x^2 + x <= bound, or two, x then -x, 2x^2 <= bound; such a call is counted where the row test cannot cut
        # it off: the prefix's nonzero entries lie in the last row (from coordinate R on), or the call comes before it
        R = (g.m - 1) * g.n if g.n > 1 else 0
        r, t, s = isqrt(bound), (isqrt(4 * bound + 1) - 1) // 2, isqrt(bound // 2)
        least = (N - 1) * (2 * r + 1) + t * (comb(N - 1 - R, 2) + comb(R, 2)) + s * (comb(N - 1 - R, 3) + comb(R, 3))
        if least > SEARCH_MAX_NODES or _enumerate(g, [0] * N, 1, bound, visit, SEARCH_MAX_NODES, symmetric=True) < 0:
            raise SearchBoundExceeded(
                f"the search for squared norms <= {bound} at N = {N} passes {SEARCH_MAX_NODES} nodes;"
                " lower --oracle-bound or use a smaller --group"
            )
        return sorted(out)

    def determinant_sq(self) -> int:
        """Exact squared determinant N^3 (the determinant itself is N^{3/2})."""
        return self.dim**3


def minimal_quadruples(group: AbelianGroup) -> Iterator[Quadruple]:
    """The minimal vectors, each as ((i, j), (k, l)): the vector
    e_i + e_j - e_k - e_l, with i < j and k < l for N >= 4.

    They run over ordered pairs of distinct pairs {P, Q} != {R, S} of distinct
    elements with P + Q = R + S (distinct pairs with equal sum are disjoint).
    Below N = 4 a pair may repeat an element (i <= j and k <= l), which gives
    the minimal vectors 2e_0 - 2e_1 at N = 2 and e_a + e_b - 2e_c at N = 3.

    They stream in the lexicographic order of the dense tuples, with memory
    O(N^2) and no sort; where two vectors first differ, the smaller entry
    comes first. Negation reverses that order, and of v and -v exactly one
    has a negative first nonzero entry. So the stream is block(0), ...,
    block(N-1), then block(N-1), ..., block(0), each negated and reversed,
    where block(k) holds the vectors whose first nonzero entry is negative,
    at k: (k, l) is the negative pair and k < i. In block(k):
    - first those with l < i, by l ascending, then i descending; the pairs
      of sum e_k + e_l give j;
    - then those with i < l, by i descending. Within one i, first those with
      l < j, by l ascending, then those with j < l, by j descending. As
      e_i + e_j = e_k + e_l, j is l translated by e_k - e_i, and l is j
      translated by e_i - e_k.
    Below N = 4 the same order puts l = k (an entry -2) first in block(k),
    and j = i (an entry 2) last within its i.
    """
    N = group.order
    if N < 2:
        raise BadSize(f"minimal vectors need N >= 2, got N = {N}")
    elems = group.elements()
    index = {e: x for x, e in enumerate(elems)}
    # sums[x][y] is the index of elems[x] + elems[y], and mates[s][x] that of elems[s] - elems[x], x's partner in
    # the pairs of sum s. Ascending, firsts[s] holds the first index x of each pair (x, mates[s][x]) of sum s, and
    # rises[d] each x below sums[d][x], its translate by elems[d]
    sums = [[index[group.add(a, b)] for b in elems] for a in elems]
    mates = [[0] * N for _ in range(N)]
    for x, row in enumerate(sums):
        for y, s in enumerate(row):
            mates[s][x] = y
    lo = 0 if N < 4 else 1  # a pair (x, y) has x + lo <= y
    firsts = [[x for x in range(N) if mate[x] >= x + lo] for mate in mates]
    rises = [[x for x in range(N) if shift[x] > x] for shift in sums]

    def block(k: int) -> list[Quadruple]:
        out = []
        to_k = sums[k]
        for l in range(k + lo, N):
            s = to_k[l]
            neg, mate, pos = (k, l), mates[s], firsts[s]
            out += [((i, mate[i]), neg) for i in reversed(pos[bisect_right(pos, l) :])]
        for i in range(N - 1, k, -1):
            d, e = mates[k][i], mates[i][k]  # the indices of e_k - e_i and e_i - e_k
            to_j, up = sums[d], rises[d]
            out += [((i, to_j[l]), (k, l)) for l in up[bisect_right(up, i) :]]
            to_l, up = sums[e], rises[e]
            out += [((i, j), (k, to_l[j])) for j in reversed(up[bisect_right(up, i - 1 + lo) :])]
        return out

    def stream() -> Iterator[Quadruple]:
        for k in range(N):
            yield from block(k)
        for k in reversed(range(N)):
            yield from [(neg, pos) for pos, neg in reversed(block(k))]

    return stream()


_cost = itemgetter(0)


def _enumerate(
    group: AbelianGroup,
    ts: list[int],
    D: int,
    limit: int,
    visit: Callable[[int, Vector], int],
    nodes: int,
    *,
    symmetric: bool = False,
) -> int:
    """Visit every lattice vector x with cost sum((D*x_i - ts_i)^2) <= limit.

    The target is ts / D, and the group has order at least 2, as Lattice
    requires. The search is depth first over the coordinates in index order,
    one frame per coordinate, so a group of order N with 2N above the
    interpreter's recursion limit raises SearchBoundExceeded. visit(cost, x)
    is called at each lattice vector within the limit and returns the limit
    to continue with. The search spends at most `nodes` nodes: each call
    counts itself and, before its loop, every candidate within the limit
    there, leaves included. It returns the nodes left, so one budget can span
    several searches; a negative count means the budget ran out before the
    search finished.

    Each coordinate's cost depends on that coordinate alone, so its
    candidates are sorted by cost once, from the initial limit, and tried
    nearest first (Schnorr-Euchner order). The coordinates after i cost at
    least sum(rho_j^2) + D*(D - 2*max(rho_j))*|s - sum(n_j)| when they must
    sum to s, where n_j is the integer nearest ts_j / D and
    rho_j = |D*n_j - ts_j| <= D/2.

    The zero-sum constraint fixes the last coordinate, and membership is
    settled before the leaves when n >= 2. Every element of the last row,
    from coordinate (m-1)*n on, has first component m - 1, and the row's
    entries sum to -total, so the call for that coordinate returns, uncharged,
    when the m-part of the weighted sum, wa - (m-1)*total, is not 0 mod m.
    With y = -total - x in the last place, the n-part is wb - (n-1)*total - x,
    so the second-to-last coordinate loops only over its candidates
    x = wb - (n-1)*total mod n, split by residue once per search; its leaves
    then need only their cost test. For n = 1 the leaves test the m-part.

    symmetric=True, for a target at the origin, visits one vector of each
    pair +-x, the one whose first nonzero entry is positive: a call with a
    zero prefix loops only over its candidates x >= 0.
    """
    N, m, n = group.order, group.m, group.n
    if 2 * N > sys.getrecursionlimit():
        raise SearchBoundExceeded(f"the search at N = {N} recurses too deep; use a smaller --group")
    if limit < 0:
        return nodes
    last = N - 1
    r = isqrt(limit)
    # the candidates sorted by cost, and those looped over after a zero prefix (the symmetric search takes
    # x >= 0 there), built once per distinct target: the coordinates with that target share them, read only
    by_target: dict[int, tuple[list[tuple[int, int]], list[tuple[int, int]]]] = {}
    for t in set(ts[:last]):
        c = sorted(((D * x - t) ** 2, x) for x in range(-((r - t) // D), (t + r) // D + 1))
        by_target[t] = (c, [e for e in c if e[1] >= 0] if symmetric else c)
    cands = [by_target[t] for t in ts[:last]]
    base, near, slope = [0] * N, [0] * N, [0] * N
    b = s = rho_max = 0
    for j in range(last, 0, -1):
        nj = (2 * ts[j] + D) // (2 * D)
        rho = abs(D * nj - ts[j])
        b, s, rho_max = b + rho * rho, s + nj, max(rho_max, rho)
        base[j - 1], near[j - 1], slope[j - 1] = b, s, D * (D - 2 * rho_max)
    t_last = ts[last]
    a_last = last // n
    row = (m - 1) * n if n > 1 else -1  # the call that settles the m-part; at m = 1 it always passes
    coords = [0] * N
    # each coordinate's candidates, those it loops over after a prefix of nonzero and of zero cost (at the
    # second-to-last coordinate, one list per residue mod n), the bounds on the later ones, and its element (a, b)
    loops = cands[:-1] + [tuple([[e for e in c if e[1] % n == k] for k in range(n)] for c in cands[-1])]
    rows = [(cands[i][0], *loops[i], base[i], near[i], slope[i], *divmod(i, n)) for i in range(last)]

    def dfs(i: int, total: int, wa: int, wb: int, cost: int) -> None:
        nonlocal limit, nodes
        if i == row and (wa - (m - 1) * total) % m:
            return
        cand, full, half, bi, nr, sl, a, bw = rows[i]
        nodes -= 1 + bisect_right(cand, limit - cost - bi, key=_cost)
        if nodes < 0:
            limit = -1  # out of budget: every loop breaks at its first candidate
        if i < last - 1:
            for c, x in full if cost else half:
                c += cost
                if c + bi > limit:
                    break
                if c + bi + sl * abs(total + x + nr) > limit:
                    continue
                coords[i] = x
                dfs(i + 1, total + x, wa + x * a, wb + x * bw, c)
            return
        # the last coordinate is fixed here, not in a call: most nodes are leaves
        for c, x in (full if cost else half)[(wb - (n - 1) * total) % n]:
            c += cost
            if c + bi > limit:
                break
            if c + bi + sl * abs(total + x + nr) > limit:
                continue
            y = -total - x
            c += (D * y - t_last) ** 2
            if c <= limit and (n > 1 or (wa + x * a + y * a_last) % m == 0):
                coords[i], coords[last] = x, y
                limit = visit(c, tuple(coords))

    dfs(0, 0, 0, 0, 0)
    return nodes


def gram_matrix(vectors: list[Vector]) -> list[list[int]]:
    k = len(vectors)
    if k and any(len(v) != len(vectors[0]) for v in vectors):
        raise LengthMismatch("vectors must all have the same length")
    return [[sum(a * b for a, b in zip(vectors[i], vectors[j])) for j in range(k)] for i in range(k)]


def gram_report(vectors: list[Vector]) -> GramReport:
    """Exact integer Gram matrix and its exact determinant."""
    gram = gram_matrix(vectors)
    return GramReport(tuple(tuple(row) for row in gram), det_bareiss(gram))


def support(v: Sequence[int]) -> Support:
    """The nonzero entries of a dense vector."""
    return {i: c for i, c in enumerate(v) if c}


def dense(v: Support, N: int) -> Vector:
    """The length-N tuple with the entries of a support."""
    out = [0] * N
    for i, c in v.items():
        out[i] = c
    return tuple(out)


def quadruple(v: Support) -> Quadruple:
    """The support of e_a + e_b - e_c - e_d as ((a, b), (c, d)), with a = b
    for an entry 2 and c = d for an entry -2; ValueError for any other support."""
    pos: list[int] = []
    neg: list[int] = []
    for i, c in v.items():
        if c == 1:
            pos.append(i)
        elif c == -1:
            neg.append(i)
        elif c == 2:
            pos += (i, i)
        elif c == -2:
            neg += (i, i)
        else:
            raise ValueError(f"{v} is not the support of e_a + e_b - e_c - e_d")
    if len(pos) != 2 or len(neg) != 2:
        raise ValueError(f"{v} is not the support of e_a + e_b - e_c - e_d")
    return (pos[0], pos[1]), (neg[0], neg[1])


def span_rank(vectors: list[Vector]) -> int:
    """Rank over the rationals of the span of the vectors."""
    if any(len(v) != len(vectors[0]) for v in vectors):
        raise ValueError("ragged matrix")
    return len(echelon_pivots([support(v) for v in vectors]))


def support_index(vectors: list[Support], N: int) -> int:
    """Index in A_{N-1} of the sublattice that zero-sum supports generate.

    Dropping the last coordinate maps A_{N-1} isomorphically onto Z^{N-1},
    so the index is that of the vectors without their last coordinate in
    Z^{N-1}. echelon_pivots pivots each row on its largest column; its pivot
    rows are triangular in reversed column order and generate the same span,
    so with N-1 pivots the index is their product. Returns 0 when the span
    has deficient rank. The rows are made one at a time as the echelon takes
    them, so no copy of every support is held at once.
    """
    pivots = echelon_pivots({i: c for i, c in v.items() if i != N - 1} for v in vectors)
    return prod(pivots) if len(pivots) == N - 1 else 0
