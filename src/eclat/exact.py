"""Exact integer arithmetic helpers and fraction-free linear algebra.

Everything here works on plain Python ints, so determinants, ranks and
lattice indices come out exact instead of floating-point estimates.
"""

from __future__ import annotations

from math import isqrt


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


def inv_mod(a: int, m: int) -> int:
    g, x, _ = xgcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    return x % m


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


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


def crt(congruences: list[tuple[int, int]]) -> int:
    """Solve x = r (mod q) for pairwise-coprime moduli; returns x mod prod(q)."""
    x, mod = 0, 1
    for r, q in congruences:
        if q == 1:
            continue
        t = ((r - x) * inv_mod(mod % q, q)) % q
        x += mod * t
        mod *= q
    return x % mod if mod > 1 else 0


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


def echelon_pivots(rows: list[tuple[int, ...]]) -> list[int]:
    """Positive pivots, in column order, of an integer echelon form of the rows.

    Rows are held sparse as {column: entry} and reduced with extended-gcd
    row operations, which are unimodular, so the pivot rows generate the same
    Z-module as the input. The number of pivots is the rank over the
    rationals; when every one of the k columns has a pivot, the product of
    the pivots is the index of the rows' Z-span in Z^k.
    """
    ncols = len(rows[0]) if rows else 0
    pivot_rows: dict[int, dict[int, int]] = {}
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
        vec = {c: x for c, x in enumerate(r) if x}
        while vec:
            c = min(vec)
            row = pivot_rows.get(c)
            if row is None:
                pivot_rows[c] = vec if vec[c] > 0 else {k: -x for k, x in vec.items()}
                break
            a, b = row[c], vec[c]
            g, x, y = xgcd(a, b)
            pivot_rows[c] = _combine(x, row, y, vec)
            vec = _combine(-(b // g), row, a // g, vec)
    return [pivot_rows[c][c] for c in sorted(pivot_rows)]


def _combine(p: int, u: dict[int, int], q: int, v: dict[int, int]) -> dict[int, int]:
    """The sparse row p*u + q*v, without zero entries."""
    out = {}
    for c in u.keys() | v.keys():
        x = p * u.get(c, 0) + q * v.get(c, 0)
        if x:
            out[c] = x
    return out
