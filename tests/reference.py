"""Independent references the tests check the library against, and the
helpers only the tests need.

``canonical_groups_of_order`` lists every canonical shape of a given order;
``deep_hole_An`` is a deep hole of A_{N-1}, at squared distance mu(A_{N-1})^2
from the lattice, which cvp must find; ``sample_targets`` gives the covering
check's targets as rational points, for cvp to search one at a time;
``canonical_map`` witnesses that make_group's Z/gcd x Z/lcm is isomorphic to
Z/m x Z/n; ``subgroup`` closes a set of curve points under addition, the
point sets group_structure must refuse unless they are all of E(F_p);
``full_walk_points`` labels E(F_p) by a*g1 + b*g2 with one chord addition per
point, so listing every point once checks curve_group's certificate;
``first_complement`` picks g1 by scanning every point, the rule the
certificate's scan of the sorted n1-torsion must match;
``write_rows`` is the per-cell writer the CLI's byte-template writer must
match byte for byte; ``density_output`` is the density report printed from a
list of every report, through json.dumps, csv.writer or print, which the
CLI's streamed rows must match byte for byte; ``verification_report``
certifies a basis from dense vectors and the Bareiss determinant of their
Gram matrix, which verify_basis, with its sparse echelon index, must match;
``echelon_pivots_xgcd`` is the echelon with an xgcd step for every row
operation, whose pivot count and product exact.echelon_pivots, with its
unit-pivot step, must match; ``minimal_quadruples`` lists every pair-sum
quadruple and sorts them by a 3^(N-1)-sized key, the order
lattice.minimal_quadruples must stream.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from collections.abc import Iterator
from fractions import Fraction
from typing import Callable

from eclat.basis import VerificationReport
from eclat.curves import Curve, CurvePoint
from eclat.errors import BadSize
from eclat.exact import det_bareiss, factorize, xgcd
from eclat.geometry import RationalPoint, _scaled_targets, density_report
from eclat.groups import AbelianGroup, GroupElement, make_group
from eclat.lattice import Lattice, Quadruple, Support, dense, gram_matrix


def canonical_groups_of_order(order: int) -> list[AbelianGroup]:
    """All canonical shapes (m, n) with m | n and m*n = order, m ascending."""
    if order < 1:
        raise ValueError("order must be positive")
    shapes = []
    for m in range(1, order + 1):
        if m * m > order:
            break
        if order % (m * m) == 0:
            shapes.append(AbelianGroup(m, order // m))
    return shapes


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


def sample_targets(N: int, trials: int, seed: int) -> Iterator[RationalPoint]:
    """The covering check's targets, as Fractions in the zero-sum hyperplane."""
    D = 2 * N * N
    for ts in _scaled_targets(N, trials, seed):
        yield tuple(Fraction(t, D) for t in ts)


def crt(congruences: list[tuple[int, int]]) -> int:
    """Solve x = r (mod q) for pairwise-coprime moduli; returns x mod prod(q)."""
    x, mod = 0, 1
    for r, q in congruences:
        if q == 1:
            continue
        t = ((r - x) * pow(mod % q, -1, q)) % q
        x += mod * t
        mod *= q
    return x % mod if mod > 1 else 0


def canonical_map(m: int, n: int) -> Callable[[GroupElement], GroupElement]:
    """Group isomorphism from Z/m x Z/n onto make_group(m, n)'s labelling.

    Built prime by prime: for each prime p, the smaller of the two p-power
    components feeds the gcd side and the larger the lcm side; both sides
    are then recombined by the Chinese remainder theorem.
    """
    target = make_group(m, n)
    low: list[tuple[int, int]] = []   # (prime power, source side: 0 -> a, 1 -> b)
    high: list[tuple[int, int]] = []
    fm, fn = factorize(m), factorize(n)
    for p in factorize(m * n):
        pa, pb = p ** fm.get(p, 0), p ** fn.get(p, 0)
        if pa <= pb:
            low.append((pa, 0))
            high.append((pb, 1))
        else:
            low.append((pb, 1))
            high.append((pa, 0))

    def relabel(x: GroupElement) -> GroupElement:
        a, b = x[0] % m, x[1] % n
        sides = (a, b)
        lo = crt([(sides[src] % q, q) for q, src in low])
        hi = crt([(sides[src] % q, q) for q, src in high])
        return (lo % target.m, hi % target.n)

    return relabel


def subgroup(curve: Curve, gens: list[CurvePoint]) -> set[CurvePoint]:
    """The points of the subgroup of E(F_p) generated by the given points."""
    closure = {None}
    frontier = [None]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = curve.add(base, g)
            if nxt not in closure:
                closure.add(nxt)
                frontier.append(nxt)
    return closure


def full_walk_points(curve: Curve, n1: int, n2: int, g1: CurvePoint, g2: CurvePoint) -> tuple[CurvePoint, ...]:
    """The points a*g1 + b*g2 in row-major (a, b) order, each row walked in full by curve.add."""
    indexed: list[CurvePoint] = []
    row_start: CurvePoint = None
    for _ in range(n1):
        pt = row_start
        for _ in range(n2):
            indexed.append(pt)
            pt = curve.add(pt, g2)
        row_start = curve.add(row_start, g1)
    return tuple(indexed)


def first_complement(curve: Curve, points: list[CurvePoint], n1: int, n2: int, g2: CurvePoint) -> CurvePoint:
    """The first of the points, in their order, with n1*P = O whose multiples a*P, 0 < a < n1, avoid the
    n1-torsion of <g2>: the g1 rule scanned over every point, with no torsion set."""
    if n1 == 1:
        return None
    step = curve.mul(n2 // n1, g2)
    H = {curve.mul(a, step) for a in range(n1)}
    for P in points:
        if P in H or curve.mul(n1, P) is not None:
            continue
        multiple = P
        for _ in range(n1 - 2):
            multiple = curve.add(multiple, P)
            if multiple in H:
                break
        else:
            return P
    raise AssertionError(f"no point of order {n1} meets <g2> only in O")


BATCH_ROWS = 1024


def write_rows(head: str, supports, N: int, row_format, tail: str) -> None:
    """Write head, one row of N entries per support, then tail, to stdout.

    Each row fills the support's entries into a reused list of "0" strings;
    rows are joined and written in batches, so no whole report is held.
    """
    pre, sep, post, between = row_format
    write = sys.stdout.write
    write(head)
    cells = ["0"] * N
    batch: list[str] = []
    lead = ""
    for v in supports:
        for i, c in v.items():
            cells[i] = str(c)
        batch.append(pre + sep.join(cells) + post)
        for i in v:
            cells[i] = "0"
        if len(batch) == BATCH_ROWS:
            write(lead + between.join(batch))
            batch.clear()
            lead = between
    if batch:
        write(lead + between.join(batch))
    write(tail)


def density_output(n_min: int, n_max: int, fmt: str) -> str:
    """The stdout of density --from n_min --to n_max with the format flag fmt
    ("--json", "--csv" or "" for plain text), built from a list of every report."""
    reports = [density_report(N) for N in range(n_min, n_max + 1)]
    if fmt == "--json":
        return json.dumps([vars(rep) for rep in reports], sort_keys=True) + "\n"
    out = io.StringIO()
    if fmt == "--csv":
        writer = csv.writer(out)
        writer.writerow(["N", "log_density", "log_mh_bound", "satisfies_mh"])
        for rep in reports:
            writer.writerow([rep.N, repr(rep.log_density), repr(rep.log_mh_bound), rep.satisfies_mh])
    else:
        for rep in reports:
            flag = "yes" if rep.satisfies_mh else "no"
            print(f"N={rep.N} log_density={rep.log_density:.6f} log_mh={rep.log_mh_bound:.6f} mh={flag}", file=out)
    return out.getvalue()


def verification_report(group: AbelianGroup, supports: list[Support]) -> VerificationReport:
    """The report verify_basis must give for at most N-1 vectors, by the report's rules.

    gram_det_sq is 0 when a vector lies outside the lattice or there are fewer
    than N-1 vectors (the rank is short), and otherwise the Bareiss
    determinant of the dense Gram matrix, which is itself 0 for a short rank.
    """
    N = group.order
    if len(supports) > N - 1:
        raise ValueError("more than N-1 vectors have no Gram determinant to compare")
    lat = Lattice(group)
    vectors = [dense(v, N) for v in supports]
    in_lattice = all(lat.contains(v) for v in vectors)
    min_sq = lat.minimal_distance_sq()
    det = det_bareiss(gram_matrix(vectors)) if in_lattice and len(vectors) == N - 1 else 0
    return VerificationReport(
        all_in_lattice=in_lattice,
        all_minimal=all(sum(c * c for c in v) == min_sq for v in vectors),
        count_ok=len(vectors) == N - 1,
        gram_det_sq_ok=det == N**3,
        gram_det_sq=det,
    )


def echelon_pivots_xgcd(rows: list[dict[int, int]]) -> list[int]:
    """Positive pivots, in column order, of an integer echelon form of sparse rows.

    Each row is pivoted on its largest column, and every row operation is the
    xgcd step: the pivot row becomes x * row + y * vec, with a*x + b*y = g, and
    vec becomes -(b/g) * row + (a/g) * vec, which clears the column.
    """

    def combine(p: int, u: dict[int, int], q: int, v: dict[int, int]) -> dict[int, int]:
        out = {c: p * u.get(c, 0) + q * v.get(c, 0) for c in u.keys() | v.keys()}
        return {c: x for c, x in out.items() if x}

    pivot_rows: dict[int, dict[int, int]] = {}
    for vec in rows:
        while vec:
            c = max(vec)
            row = pivot_rows.get(c)
            if row is None:
                pivot_rows[c] = vec if vec[c] > 0 else {k: -x for k, x in vec.items()}
                break
            a, b = row[c], vec[c]
            g, x, y = xgcd(a, b)
            pivot_rows[c] = combine(x, row, y, vec)
            vec = combine(-(b // g), row, a // g, vec)
    return [pivot_rows[c][c] for c in sorted(pivot_rows)]


def minimal_quadruples(group: AbelianGroup) -> list[Quadruple]:
    """The minimal vectors, each as ((i, j), (k, l)): the vector
    e_i + e_j - e_k - e_l, with i < j and k < l for N >= 4.

    They run over ordered pairs of distinct pairs {P, Q} != {R, S} of distinct
    elements with P + Q = R + S (distinct pairs with equal sum are disjoint).
    Below N = 4 a pair may repeat an element (i <= j and k <= l), which gives
    the minimal vectors 2e_0 - 2e_1 at N = 2 and e_a + e_b - 2e_c at N = 3.
    The list is in the lexicographic order of the dense tuples. The key
    sum(v_x * 3^(N-1-x)) keeps that order: for N >= 4, where two vectors
    first differ, their entries differ by 1 or 2, and the later coordinates,
    whose differences lie in [-2, 2], add less than 3^(N-1-x) in absolute
    value; the 2 + 6 vectors at N = 2 and 3 have distinct keys in that order.
    """
    N = group.order
    if N < 2:
        raise BadSize(f"minimal vectors need N >= 2, got N = {N}")
    elems = group.elements()
    by_sum: dict[GroupElement, list[tuple[int, int]]] = {}
    lo = 0 if N < 4 else 1
    for i in range(N):
        for j in range(i + lo, N):
            by_sum.setdefault(group.add(elems[i], elems[j]), []).append((i, j))
    quads = [(pos, neg) for pairs in by_sum.values() for pos in pairs for neg in pairs if pos != neg]
    weight = [3 ** (N - 1 - x) for x in range(N)]
    pair_weight = {pair: weight[pair[0]] + weight[pair[1]] for pairs in by_sum.values() for pair in pairs}
    quads.sort(key=lambda q: pair_weight[q[0]] - pair_weight[q[1]])
    return quads
