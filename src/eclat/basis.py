"""Explicit bases of minimal vectors for every group shape.

Each construction returns vectors as supports, {coordinate: nonzero entry},
in the row-major coordinates of the group: coordinate a*n + b is the element
(a, b), so "Part i" of a product Z/m x Z/n occupies the coordinate block
[i*n, (i+1)*n). Every minimal vector e_P + e_Q - e_R - e_S has four entries,
so a basis takes O(N) space. The one shape with no minimal-vector basis is
the cyclic group of order 4, which gets a certified fallback basis instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadShape, BadSize
from .groups import AbelianGroup
# gram_report is not called here; it stays importable because the traced benchmark run wraps it
from .lattice import Lattice, Support, Vector, dense, gram_report, support, support_index  # noqa: F401

# Fallback for the cyclic group of order 4: a basis of the lattice (Gram
# determinant exactly 64) whose third vector has squared norm 6, because no
# basis of minimal vectors exists for this shape.
CYCLIC4_FALLBACK: tuple[Vector, ...] = (
    (1, 1, -1, -1),
    (1, -1, -1, 1),
    (2, -1, 0, -1),
)

_EXPLICIT_2X4: tuple[Vector, ...] = (
    (1, 1, -1, -1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, -1, -1, 1),
    (1, 1, 0, 0, -1, -1, 0, 0),
    (1, 0, 1, 0, -1, 0, -1, 0),
    (1, 0, 0, 1, -1, 0, 0, -1),
    (0, 1, 1, 0, 0, -1, -1, 0),
    (1, -1, 0, 0, 1, 0, 0, -1),
)

_EXPLICIT_3X3: tuple[Vector, ...] = (
    (1, 1, 0, -1, 0, 0, 0, -1, 0),
    (1, 1, 0, 0, -1, 0, -1, 0, 0),
    (1, 1, 0, 0, 0, -1, 0, 0, -1),
    (1, 0, 1, -1, 0, 0, 0, 0, -1),
    (1, 0, 1, 0, -1, 0, 0, -1, 0),
    (1, 0, 1, 0, 0, -1, -1, 0, 0),
    (0, 1, 1, -1, 0, 0, -1, 0, 0),
    (1, 0, 0, -1, -1, 0, 0, 1, 0),
)

_EXPLICIT_4X4: tuple[Vector, ...] = (
    (1, 1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, -1, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, -1, 1),
    (1, 1, 0, 0, 0, 0, 0, 0, -1, -1, 0, 0, 0, 0, 0, 0),
    (1, 0, 1, 0, 0, 0, 0, 0, -1, 0, -1, 0, 0, 0, 0, 0),
    (1, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0, 0, 0, 0, -1, -1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, -1, -1, 0, 0),
    (0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, -1, 0, -1, 0),
    (1, -1, 0, 0, 1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, -1, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1, 0, 0, 0, 0),
    (1, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0),
    (1, 0, 0, 0, 0, -1, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (1, 0, 0, 0, -1, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
)

# The shapes that neither cyclic_basis nor rect_basis covers: {(m, n): (kind, basis as dense rows)}
SMALL_BASES: dict[tuple[int, int], tuple[str, tuple[Vector, ...]]] = {
    (1, 2): ("cyclic_small_2", ((-2, 2),)),
    (1, 3): ("cyclic_small_3", ((-2, 1, 1), (1, -2, 1))),
    (1, 4): ("exceptional_cyclic_4", CYCLIC4_FALLBACK),
    (2, 2): ("klein_2x2", ((-1, 1, 1, -1), (-1, 1, -1, 1), (-1, -1, 1, 1))),  # orthogonal: Gram matrix 4*I
    (2, 4): ("explicit_2x4", _EXPLICIT_2X4),
    (3, 3): ("explicit_3x3", _EXPLICIT_3X3),
    (4, 4): ("explicit_4x4", _EXPLICIT_4X4),
}


@dataclass(frozen=True)
class VerificationReport:
    """Certification flags for a candidate basis of minimal vectors.

    gram_det_sq is N * [A_{N-1} : span]^2, the Gram determinant of N-1 lattice
    vectors; it is 0 when a vector lies outside the lattice or the rank is
    short, and not the Gram determinant for more than N-1 vectors.
    """

    all_in_lattice: bool
    all_minimal: bool
    count_ok: bool
    gram_det_sq_ok: bool
    gram_det_sq: int

    @property
    def certified(self) -> bool:
        return self.all_in_lattice and self.all_minimal and self.count_ok and self.gram_det_sq_ok


@dataclass(frozen=True)
class BasisResult:
    """Constructed basis, as supports, with the tag of the construction that
    produced it; vectors expands the supports to dense N-tuples.

    For kind "exceptional_cyclic_4" the vectors are the non-minimal fallback
    basis and certified is False; every other kind is a certified basis of
    minimal vectors.
    """

    kind: str
    order: int
    supports: tuple[Support, ...]
    report: VerificationReport

    @property
    def certified(self) -> bool:
        return self.report.certified

    @property
    def accepted(self) -> bool:
        """The CLI's pass: the certificate, or for the cyclic-4 fallback, whose
        third vector is not minimal, every check but minimality."""
        r = self.report
        if self.kind == "exceptional_cyclic_4":
            return r.all_in_lattice and r.count_ok and r.gram_det_sq_ok
        return r.certified

    @property
    def vectors(self) -> tuple[Vector, ...]:
        """The basis as dense N-tuples, built on each access."""
        return tuple(dense(v, self.order) for v in self.supports)


def cyclic_basis(n: int) -> list[Support]:
    """Minimal-vector basis of the cyclic lattice for n >= 5.

    Rows 1..n-3 carry +1 at positions 0 and i, -1 at positions i+1 and n-1;
    the two closing rows are (-1, 1, 0, ..., 1, -1, 0) and
    (-1, 1, 0, ..., 0, 1, -1).
    """
    if n < 5:
        raise BadSize(f"cyclic construction needs n >= 5, got {n}")
    rows = [{0: 1, i: 1, i + 1: -1, n - 1: -1} for i in range(1, n - 2)]
    rows.append({0: -1, 1: 1, n - 3: 1, n - 2: -1})
    rows.append({0: -1, 1: 1, n - 2: 1, n - 1: -1})
    return rows


def rect_basis(m: int, n: int) -> list[Support]:
    """Minimal-vector basis for Z/m x Z/n assembled from the cyclic pattern.

    Layout: the full cyclic basis of size n embedded in Part 0; the first
    n-2 cyclic vectors embedded in each Part i (i = 1..m-1); one cross
    vector per Part i pairing (0,1)-(0,2) against (i,1)-(i,2); then the
    shape-specific closing vectors (for m >= 5, the cyclic basis of size m
    placed down the column of points (i, 0)).

    Accepts m in {2, 3, 4} with n >= 5, or n >= m >= 5. The shape does not
    need to be canonical (m | n is not required).
    """
    if not ((m in (2, 3, 4) and n >= 5) or (5 <= m <= n)):
        raise BadShape(f"rectangular construction undefined for shape ({m}, {n})")
    pattern = cyclic_basis(n)
    rows = pattern + [{part * n + i: c for i, c in v.items()} for part in range(1, m) for v in pattern[: n - 2]]
    rows += [{1: 1, 2: -1, part * n + 1: -1, part * n + 2: 1} for part in range(1, m)]
    return rows + _closing_vectors(m, n)


def _closing_vectors(m: int, n: int) -> list[Support]:
    if m == 2:
        return [{1: 1, 2: 1, n + 1: -1, n + 2: -1}]
    if m == 3:
        return [{0: 1, n + 3: 1, 2 * n + 1: -1, 2 * n + 2: -1}, {0: 1, n: -1, n + 1: -1, 2 * n + 1: 1}]
    if m == 4:
        return [
            {0: 1, 2 * n + 3: 1, 3 * n + 1: -1, 3 * n + 2: -1},
            {0: 1, n + 1: -1, n + 2: -1, 2 * n + 3: 1},
            {0: 1, n: -1, 2 * n: -1, 3 * n: 1},
        ]
    # m >= 5: the cyclic pattern of size m down the column of points (i, 0)
    return [{i * n: c for i, c in u.items()} for u in cyclic_basis(m)]


def verify_basis(group: AbelianGroup, vectors: list[Support]) -> VerificationReport:
    """Certify a candidate basis: membership, minimality, count and Gram determinant.

    N-1 lattice vectors whose span has index N in A_{N-1}, as the lattice
    has, form a basis; their Gram determinant is then N * N^2 = N^3.
    """
    N = group.order
    min_sq = Lattice(group).minimal_distance_sq()
    all_in_lattice = all(
        all(0 <= i < N for i in v) and sum(v.values()) == 0 and group.weighted_sum(v.items()) == group.identity
        for v in vectors
    )
    index = support_index(vectors, N) if all_in_lattice else 0
    return VerificationReport(
        all_in_lattice=all_in_lattice,
        all_minimal=all(sum(c * c for c in v.values()) == min_sq for v in vectors),
        count_ok=len(vectors) == N - 1,
        gram_det_sq_ok=index == N,
        gram_det_sq=N * index**2,
    )


def build_minimal_basis(group: AbelianGroup) -> BasisResult:
    """Basis of minimal vectors for any canonical group of order >= 2.

    Dispatches on the canonical shape (m, n) with m | n; the cyclic group of
    order 4 gets the fallback basis tagged "exceptional_cyclic_4", which
    verify_basis does not certify (its third vector is not minimal).
    """
    m, n = group.m, group.n
    Lattice(group)  # refuses a group of order 1
    if not group.is_canonical:
        raise BadShape(f"dispatch needs a canonical shape with m | n, got ({m}, {n})")
    if (m, n) in SMALL_BASES:
        kind, rows = SMALL_BASES[m, n]
        vectors = [support(v) for v in rows]
    elif m == 1:
        kind, vectors = "cyclic_basis1", cyclic_basis(n)
    else:
        kind, vectors = (f"rect_{m}xn" if m <= 4 else "rect_mxn"), rect_basis(m, n)
    return BasisResult(kind, group.order, tuple(vectors), verify_basis(group, vectors))
