"""Explicit bases of minimal vectors for every group shape.

Each construction returns vectors in the row-major coordinates of the group:
coordinate a*n + b is the element (a, b), so "Part i" of a product Z/m x Z/n
occupies the coordinate block [i*n, (i+1)*n). The one shape with no
minimal-vector basis is the cyclic group of order 4, which gets a certified
fallback basis instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadShape, BadSize
from .groups import AbelianGroup
# gram_report is not called here; it stays importable because the traced benchmark run wraps it
from .lattice import Lattice, Vector, gram_report, index_from_generators  # noqa: F401

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
    """Constructed basis with the tag of the construction that produced it.

    For kind "exceptional_cyclic_4" the vectors are the non-minimal fallback
    basis and certified is False; every other kind is a certified basis of
    minimal vectors.
    """

    kind: str
    vectors: tuple[Vector, ...]
    certified: bool
    report: VerificationReport


def cyclic_basis(n: int) -> list[Vector]:
    """Minimal-vector basis of the cyclic lattice for n >= 5.

    Rows 1..n-3 carry +1 at positions 0 and i, -1 at positions i+1 and n-1;
    the two closing rows are (-1, 1, 0, ..., 1, -1, 0) and
    (-1, 1, 0, ..., 0, 1, -1).
    """
    if n < 5:
        raise BadSize(f"cyclic construction needs n >= 5, got {n}")
    rows: list[Vector] = []
    for i in range(1, n - 2):
        v = [0] * n
        v[0] = 1
        v[i] = 1
        v[i + 1] = -1
        v[n - 1] = -1
        rows.append(tuple(v))
    v = [0] * n
    v[0] = -1
    v[1] = 1
    v[n - 3] = 1
    v[n - 2] = -1
    rows.append(tuple(v))
    v = [0] * n
    v[0] = -1
    v[1] = 1
    v[n - 2] = 1
    v[n - 1] = -1
    rows.append(tuple(v))
    return rows


def small_cyclic_basis(n: int) -> list[Vector]:
    """Minimal-vector basis for the cyclic groups of order 2 and 3."""
    if n == 2:
        return [(-2, 2)]
    if n == 3:
        return [(-2, 1, 1), (1, -2, 1)]
    raise BadSize(f"small cyclic construction is for n in {{2, 3}}, got {n}")


def klein_basis() -> list[Vector]:
    """Orthogonal minimal-vector basis for Z/2 x Z/2 (Gram matrix 4*I)."""
    return [(-1, 1, 1, -1), (-1, 1, -1, 1), (-1, -1, 1, 1)]


def explicit_small_basis(shape: tuple[int, int]) -> list[Vector]:
    """Verbatim minimal-vector bases for the shapes (2,4), (3,3) and (4,4)."""
    table = {(2, 4): _EXPLICIT_2X4, (3, 3): _EXPLICIT_3X3, (4, 4): _EXPLICIT_4X4}
    try:
        return list(table[shape])
    except KeyError:
        raise BadShape(f"no explicit table for shape {shape}") from None


def rect_basis(m: int, n: int) -> list[Vector]:
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
    N = m * n
    pattern = cyclic_basis(n)
    rows: list[Vector] = [_embed(v, 0, N, n) for v in pattern]
    for part in range(1, m):
        rows.extend(_embed(v, part, N, n) for v in pattern[: n - 2])
    for part in range(1, m):
        v = [0] * N
        v[1] = 1
        v[2] = -1
        v[part * n + 1] = -1
        v[part * n + 2] = 1
        rows.append(tuple(v))
    rows.extend(_closing_vectors(m, n))
    return rows


def _embed(v: Vector, part: int, total: int, n: int) -> Vector:
    out = [0] * total
    out[part * n : (part + 1) * n] = v
    return tuple(out)


def _closing_vectors(m: int, n: int) -> list[Vector]:
    N = m * n
    if m == 2:
        v = [0] * N
        v[1] = v[2] = 1
        v[n + 1] = v[n + 2] = -1
        return [tuple(v)]
    if m == 3:
        a = [0] * N
        a[0] = 1
        a[n + 3] = 1
        a[2 * n + 1] = a[2 * n + 2] = -1
        b = [0] * N
        b[0] = 1
        b[n] = b[n + 1] = -1
        b[2 * n + 1] = 1
        return [tuple(a), tuple(b)]
    if m == 4:
        a = [0] * N
        a[0] = 1
        a[2 * n + 3] = 1
        a[3 * n + 1] = a[3 * n + 2] = -1
        b = [0] * N
        b[0] = 1
        b[n + 1] = b[n + 2] = -1
        b[2 * n + 3] = 1
        c = [0] * N
        c[0] = 1
        c[n] = -1
        c[2 * n] = -1
        c[3 * n] = 1
        return [tuple(a), tuple(b), tuple(c)]
    # m >= 5: the cyclic pattern of size m down the column of points (i, 0)
    out = []
    for u in cyclic_basis(m):
        v = [0] * N
        for i, c in enumerate(u):
            v[i * n] = c
        out.append(tuple(v))
    return out


def verify_basis(group: AbelianGroup, vectors: list[Vector]) -> VerificationReport:
    """Certify a candidate basis: membership, minimality, count and Gram determinant.

    N-1 lattice vectors whose span has index N in A_{N-1}, as the lattice
    has, form a basis; their Gram determinant is then N * N^2 = N^3.
    """
    lat = Lattice(group)
    N = group.order
    min_sq = lat.minimal_distance_sq()
    all_in_lattice = all(lat.contains(v) for v in vectors)
    index = index_from_generators(vectors) if vectors and all_in_lattice else 0
    return VerificationReport(
        all_in_lattice=all_in_lattice,
        all_minimal=all(sum(c * c for c in v) == min_sq for v in vectors),
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
    if group.order < 2:
        raise BadSize("the lattice needs a group of order at least 2")
    if not group.is_canonical:
        raise BadShape(f"dispatch needs a canonical shape with m | n, got ({m}, {n})")
    if (m, n) == (1, 4):
        kind, vectors = "exceptional_cyclic_4", CYCLIC4_FALLBACK
    elif m == 1 and n in (2, 3):
        kind = f"cyclic_small_{n}"
        vectors = tuple(small_cyclic_basis(n))
    elif m == 1:
        kind = "cyclic_basis1"
        vectors = tuple(cyclic_basis(n))
    elif (m, n) == (2, 2):
        kind = "klein_2x2"
        vectors = tuple(klein_basis())
    elif (m, n) in ((2, 4), (3, 3), (4, 4)):
        kind = f"explicit_{m}x{n}"
        vectors = tuple(explicit_small_basis((m, n)))
    else:
        kind = f"rect_{m}xn" if m <= 4 else "rect_mxn"
        vectors = tuple(rect_basis(m, n))
    report = verify_basis(group, list(vectors))
    return BasisResult(kind, vectors, report.certified, report)
