"""Independent checks of the reports the ``eclat`` CLI prints.

Every expected value is computed here from the operation's own arguments,
with arithmetic written for this file (point counts by Euler's criterion,
curve arithmetic, determinants modulo large primes, short-vector counts by a
dynamic program), or is a property the method must have. Nothing is compared
against a stored copy of an earlier report, and nothing is imported from
``eclat``.

``check_report(argv, raw)`` reads the report from the binary file ``raw`` and
raises CheckFailed with the reason when it is wrong. A minvec report, which
runs to tens of megabytes, is read in chunks and never held whole.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd, isqrt, lcm, prod


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _opt(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _canonical(spec: str) -> tuple[int, int]:
    m, n = (int(x) for x in spec.lower().split("x"))
    return gcd(m, n), lcm(m, n)


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _in_lattice(v: list[int], m: int, n: int) -> bool:
    """Zero coordinate sum and group-weighted sum equal to the identity;
    coordinate i is the element (i // n, i % n)."""
    wa = sum(c * (i // n) for i, c in enumerate(v) if c)
    wb = sum(c * (i % n) for i, c in enumerate(v) if c)
    return sum(v) == 0 and wa % m == 0 and wb % n == 0


def min_vector_count(m: int, n: int) -> int:
    """Number of norm-4 lattice vectors for N >= 4: sum over s of k_s(k_s - 1),
    with k_s = (N - #{P : 2P = s}) / 2 pairs of distinct elements summing to s."""
    doubles: dict[tuple[int, int], int] = {}
    for a in range(m):
        for b in range(n):
            s = (2 * a % m, 2 * b % n)
            doubles[s] = doubles.get(s, 0) + 1
    N = m * n
    total = 0
    for a in range(m):
        for b in range(n):
            k = (N - doubles.get((a, b), 0)) // 2
            total += k * (k - 1)
    return total


# --- exact determinant modulo large primes ----------------------------------


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_below(top: int):
    q = top - 1
    while True:
        if _is_prime(q):
            yield q
        q -= 1


def _det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant modulo p by sparse Gaussian elimination.

    Each step eliminates the column with the fewest remaining entries, using
    its sparsest row as the pivot, which keeps the fill-in small on the
    4-sparse basis matrices.
    """
    n = len(rows)
    sparse = [{j: c % p for j, c in enumerate(r) if c % p} for r in rows]
    where: list[set[int]] = [set() for _ in range(n)]
    for i, r in enumerate(sparse):
        for j in r:
            where[j].add(i)
    open_cols = set(range(n))
    pivot_of = [0] * n
    det = 1
    for _ in range(n):
        col = min(open_cols, key=lambda j: (len(where[j]), j))
        if not where[col]:
            return 0
        piv = min(where[col], key=lambda i: (len(sparse[i]), i))
        prow = sparse[piv]
        for j in prow:
            where[j].discard(piv)
        open_cols.discard(col)
        pivot_of[col] = piv
        det = det * prow[col] % p
        inv = pow(prow[col], -1, p)
        for i in list(where[col]):
            r = sparse[i]
            f = r[col] * inv % p
            for j, c in prow.items():
                value = (r.get(j, 0) - f * c) % p
                if value:
                    if j not in r:
                        where[j].add(i)
                    r[j] = value
                elif j in r:
                    del r[j]
                    where[j].discard(i)
    # sign of the permutation column -> pivot row
    seen = [False] * n
    sign = 1
    for start in range(n):
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = pivot_of[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return det * sign % p


def exact_det(rows: list[list[int]]) -> int:
    """Exact determinant: residues modulo primes near 2^62, recombined by the
    Chinese remainder theorem past twice the Hadamard bound."""
    hadamard = isqrt(prod(max(1, sum(c * c for c in r)) for r in rows)) + 1
    value, modulus = 0, 1
    for p in _primes_below(1 << 62):
        if modulus > 2 * hadamard:
            break
        r = _det_mod(rows, p)
        t = (r - value) * pow(modulus, -1, p) % p
        value, modulus = value + modulus * t, modulus * p
    return value if value <= modulus // 2 else value - modulus


# --- elliptic curves ---------------------------------------------------------


def _ec_add(P, Q, a: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        s = (3 * x1 * x1 + a) * pow(2 * y1, p - 2, p) % p
    else:
        s = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
    x3 = (s * s - x1 - x2) % p
    return (x3, (s * (x1 - x3) - y1) % p)


def _ec_mul(k: int, P, a: int, p: int):
    out = None
    while k:
        if k & 1:
            out = _ec_add(out, P, a, p)
        P = _ec_add(P, P, a, p)
        k >>= 1
    return out


def point_count(p: int, a: int, b: int) -> int:
    """Number of points on y^2 = x^3 + ax + b over F_p, by Euler's criterion."""
    total = 1
    half = (p - 1) // 2
    for x in range(p):
        r = (x * x * x + a * x + b) % p
        total += 1 if r == 0 else 2 if pow(r, half, p) == 1 else 0
    return total


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def _has_exact_order(P, order: int, a: int, p: int) -> bool:
    return _ec_mul(order, P, a, p) is None and all(
        _ec_mul(order // q, P, a, p) is not None for q in _prime_factors(order)
    )


CURVE_SAMPLE_POINTS = 16


def check_curve(argv, text: str) -> None:
    p, a, b = (int(x) for x in _opt(argv, "--curve").split(","))
    a, b = a % p, b % p
    rep = json.loads(text)
    _require((rep["p"], rep["a"], rep["b"]) == (p, a, b), "curve echoed wrongly")

    def on_curve(P) -> bool:
        return P is None or (P[1] ** 2 - P[0] ** 3 - a * P[0] - b) % p == 0

    N = point_count(p, a, b)
    _require(rep["N"] == N, f"N = {rep['N']}, point count {N}")
    n1, n2 = rep["n1"], rep["n2"]
    _require(n1 * n2 == N and n2 % n1 == 0 and (p - 1) % n1 == 0, f"bad structure ({n1}, {n2})")
    _require(rep["n1_divides_n2"] is True and rep["n1_divides_p_minus_1"] is True, "divisibility flags")
    g1, g2 = (tuple(g) if g is not None else None for g in rep["generators"])
    _require(on_curve(g1) and on_curve(g2), "generator not on the curve")
    _require(_has_exact_order(g2, n2, a, p), f"g2 does not have order {n2}")
    if n1 == 1:
        _require(g1 is None, "cyclic group with a second generator")
    else:
        _require(_has_exact_order(g1, n1, a, p), f"g1 does not have order {n1}")
        span, acc = set(), None
        for _ in range(n2):
            span.add(acc)
            acc = _ec_add(acc, g2, a, p)
        acc = g1
        for _ in range(n1 - 1):
            _require(acc not in span, "generators are not independent")
            acc = _ec_add(acc, g1, a, p)
    roots = {y * y % p: y for y in range(p)}
    rng = random.Random(f"{p},{a},{b}")
    sampled = 0
    while sampled < CURVE_SAMPLE_POINTS:
        x = rng.randrange(p)
        r = (x**3 + a * x + b) % p
        if r in roots:
            P = (x, roots[r] if rng.random() < 0.5 else -roots[r] % p)
            _require(_ec_mul(n2, P, a, p) is None, f"{n2} * {P} is not the identity")
            sampled += 1
    if N <= 300:  # the CLI's default --max-basis-n
        _require(rep["basis_certified"] is True and rep["gram_det_sq"] == N**3, "basis not certified")
    else:
        _require(rep["basis_kind"] is None and rep["gram_det_sq"] is None, "basis built past the bound")


# --- lattices ----------------------------------------------------------------


def check_basis(argv, text: str) -> None:
    m, n = _canonical(_opt(argv, "--group"))
    N = m * n
    rep = json.loads(text)
    _require(rep["group"] == f"{m}x{n}", "group echoed wrongly")
    vectors = rep["vectors"]
    _require(len(vectors) == N - 1, f"{len(vectors)} vectors, expected {N - 1}")
    for v in vectors:
        _require(len(v) == N and _in_lattice(v, m, n), f"vector not in the lattice: {v}")
        _require(sum(c * c for c in v) == 4, f"vector of norm^2 {sum(c * c for c in v)}")
    _require(rep["certified"] is True and rep["gram_det_sq"] == N**3, "Gram determinant is not N^3")
    det = exact_det([v[:-1] for v in vectors])
    _require(abs(det) == N, f"|det B'| = {abs(det)}, expected {N}")


_CHUNK = 1 << 20


def _unit_rows(data: bytes, N: int):
    """Yield the vectors of a run of JSON rows ``v, ..., v], [v, ..., v``,
    whose entries must lie in {-1, 0, 1}, each as bytes over 'a' < 'b' < 'c'
    for -1, 0, 1, so byte order is the lexicographic order of the vectors."""
    t = data.replace(b"-1", b"a").replace(b"1", b"c").replace(b"0", b"b")
    t = t.replace(b"], [", b"|").replace(b", ", b"")
    _require(t.translate(None, b"abc|") == b"", "entry outside {-1, 0, 1}")
    for row in t.split(b"|"):
        _require(len(row) == N, "vector of the wrong length")
        yield row


def _vector_rows(raw, N: int):
    """Yield the vectors of the JSON list of lists that the binary file raw
    holds from its position on, up to the report's closing brace.

    The file is read a megabyte at a time, so checking a large report holds
    no copy of it in memory.
    """
    _require(raw.read(2) == b"[[", "vectors list malformed")
    rest = b""
    while chunk := raw.read(_CHUNK):
        data = rest + chunk
        cut = data.rfind(b"], [")
        if cut == -1:
            rest = data
            continue
        yield from _unit_rows(data[:cut], N)
        rest = data[cut + 4:]
    rest = rest.rstrip()
    _require(rest.endswith(b"]]}"), "vectors list malformed")
    yield from _unit_rows(rest[:-3], N)


def check_minvec(argv, raw) -> None:
    """Check the minvec report that the binary file raw holds."""
    m, n = _canonical(_opt(argv, "--group"))
    N = m * n
    key = b', "vectors": '
    head = raw.read(4096)
    cut = head.find(key)
    _require(cut > 0, "report has no vectors")
    rep = json.loads(head[:cut] + b"}")
    raw.seek(cut + len(key))
    _require(rep["group"] == f"{m}x{n}" and rep["N"] == N, "group echoed wrongly")
    _require(rep["min_dist_sq"] == 4, f"min_dist_sq {rep['min_dist_sq']}")
    expected = min_vector_count(m, n)
    _require(rep["count"] == expected, f"count {rep['count']}, expected {expected}")
    seen = 0
    previous = b""
    for r in _vector_rows(raw, N):
        _require(previous < r, "vectors not sorted and distinct")
        _require(r.count(b"a") == 2 and r.count(b"c") == 2, "vector without norm^2 4 and zero sum")
        i = r.find(b"c")
        j = r.find(b"c", i + 1)
        k = r.find(b"a")
        l = r.find(b"a", k + 1)
        wa = i // n + j // n - k // n - l // n
        wb = i % n + j % n - k % n - l % n
        _require(wa % m == 0 and wb % n == 0, "vector not in the lattice")
        previous = r
        seen += 1
    _require(seen == expected, f"{seen} vectors, expected {expected}")


def short_vector_count(m: int, n: int, bound: int) -> int:
    """Nonzero lattice vectors of norm^2 <= bound, counted coordinate by
    coordinate with a dynamic program over (norm^2, coordinate sum,
    group-weighted sum) instead of a depth-first search."""
    top = isqrt(bound)
    states = {(0, 0, 0, 0): 1}
    for i in range(m * n):
        ea, eb = i // n, i % n
        nxt: dict[tuple[int, int, int, int], int] = {}
        for (norm, total, wa, wb), ways in states.items():
            for x in range(-top, top + 1):
                nn = norm + x * x
                # the remaining coordinates must cancel the sum, each unit costing >= 1
                if nn + abs(total + x) > bound:
                    continue
                key = (nn, total + x, (wa + x * ea) % m, (wb + x * eb) % n)
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return sum(w for (norm, total, wa, wb), w in states.items() if total == 0 and wa == 0 and wb == 0) - 1


def check_oracle(argv, text: str) -> None:
    m, n = _canonical(_opt(argv, "--group"))
    bound = int(_opt(argv, "--oracle-bound"))
    rep = json.loads(text)
    _require(rep["group"] == f"{m}x{n}" and rep["norm_sq_bound"] == bound, "input echoed wrongly")
    expected = short_vector_count(m, n, bound)
    _require(rep["oracle_count"] == expected, f"oracle_count {rep['oracle_count']}, expected {expected}")
    _require(rep["pair_sum_count"] == min_vector_count(m, n), "pair_sum_count wrong")
    _require(rep["agree"] is None, "agree must be null above the minimum")


def covering_radius_sq(N: int) -> Fraction:
    """Squared covering radius of A_{N-1}: N/4 for even N, (N^2 - 1)/(4N) for odd N."""
    return Fraction(N, 4) if N % 2 == 0 else Fraction(N * N - 1, 4 * N)


def within_upper(d: Fraction, mu_sq: Fraction) -> bool:
    """d <= (mu + sqrt 2)^2, decided exactly: with e = d - mu^2 - 2 the bound
    reads e <= 2 sqrt(2) mu, that is e <= 0 or e^2 <= 8 mu^2."""
    e = d - mu_sq - 2
    return e <= 0 or e * e <= 8 * mu_sq


def check_covering(argv, text: str) -> None:
    m, n = _canonical(_opt(argv, "--group"))
    N = m * n
    rep = json.loads(text)
    mu_sq = covering_radius_sq(N)
    _require(rep["group"] == f"{m}x{n}" and rep["N"] == N, "group echoed wrongly")
    _require(_frac(rep["mu_A_sq"]) == mu_sq, f"mu_A_sq {rep['mu_A_sq']}, expected {mu_sq}")
    s = rep["sampled"]
    _require(s["trials"] == int(_opt(argv, "--trials")) and s["seed"] == int(_opt(argv, "--seed")), "input echoed")
    _require(_frac(s["deep_hole_distance_sq"]) == mu_sq, "deep hole distance is not mu^2")
    d = _frac(s["max_distance_sq"])
    _require(mu_sq <= d and within_upper(d, mu_sq), f"max distance^2 {d} outside [mu^2, (mu + sqrt 2)^2]")
    _require(s["all_within_upper"] is True and s["max_reaches_lower"] is True, "flags")


def check_density(argv, text: str) -> None:
    lo, hi = int(_opt(argv, "--from")), int(_opt(argv, "--to"))
    rows = json.loads(text)
    _require([r["N"] for r in rows] == list(range(lo, hi + 1)), "scan rows wrong")
    for r in rows:
        _require(r["k"] == r["N"] - 1, "k is not N - 1")
        _require(r["satisfies_mh"] is (r["N"] <= 47), f"MH decision wrong at N = {r['N']}")


CHECKS = {
    "basis": check_basis,
    "curve": check_curve,
    "oracle": check_oracle,
    "covering": check_covering,
    "density": check_density,
}


def check_report(argv, raw) -> None:
    """Check the report that the binary file raw holds from its start."""
    try:
        if argv[0] == "minvec":
            check_minvec(argv, raw)
        else:
            CHECKS[argv[0]](argv, raw.read().decode("utf-8"))
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        raise CheckFailed(f"malformed report: {exc!r}") from exc
