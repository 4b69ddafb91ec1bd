"""Exact integer arithmetic helpers and fraction-free linear algebra.

Everything here works on plain Python ints, so determinants, ranks and
lattice indices come out exact instead of floating-point estimates.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import InternalInconsistency


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) and g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: multiplicity}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def det_bareiss(matrix: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division by the previous pivot (Sylvester identity)
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def echelon_pivots(rows: Iterable[dict[int, int]]) -> list[int]:
    """Absolute values of the pivots, in column order, of an integer echelon form of the rows.

    Rows are sparse, {column: nonzero entry}, and are reduced with
    extended-gcd row operations, which are unimodular, so the pivot rows
    generate the same Z-module as the input. Each row is pivoted on its
    largest column, so a pivot row is zero right of its pivot and the pivot
    rows are triangular in reversed column order. The number of pivots is
    therefore the rank over the rationals; when every one of the k columns
    has a pivot, the pivot rows are a triangular basis of the rows' Z-span,
    and the absolute value of its determinant, the product of the |pivots|,
    is the index of that span in Z^k. |pivot at c| generates the c-th
    entries of the span's vectors that are zero right of c, so it does not
    depend on the row operations taken, nor on the sign a pivot row is kept
    with. On the sparse quadruples of a minimal-vector basis, the largest
    column takes about half the row operations of the smallest.

    When the pivot a is +-1, the commonest case on these bases, the pivot
    row is kept and the row's entry b is cleared by row - b*a * pivot row:
    one row operation and no xgcd. The step is unimodular and clears the
    column, like the xgcd step. Every row operation must clear the column;
    one that does not is a bug and raises InternalInconsistency, since the
    row would never settle.

    The rows may come from a generator, and are taken one at a time. An
    input row may be kept as it is, as a pivot row that later rows read, so
    callers must pass fresh dicts and change none of them afterwards.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    for vec in rows:
        while vec:
            c = max(vec)
            row = pivot_rows.get(c)
            if row is None:
                pivot_rows[c] = vec
                break
            a, b = row[c], vec[c]
            if a in (1, -1):
                vec = _combine(-b * a, row, 1, vec)
            else:
                g, x, y = xgcd(a, b)
                pivot_rows[c] = _combine(x, row, y, vec)
                vec = _combine(-(b // g), row, a // g, vec)
            if c in vec:
                raise InternalInconsistency(f"a row operation left column {c} nonzero")
    return [abs(pivot_rows[c][c]) for c in sorted(pivot_rows)]


def _combine(p: int, u: dict[int, int], q: int, v: dict[int, int]) -> dict[int, int]:
    """The sparse row p*u + q*v, without zero entries."""
    out = {}
    for c in u.keys() | v.keys():
        x = p * u.get(c, 0) + q * v.get(c, 0)
        if x:
            out[c] = x
    return out
