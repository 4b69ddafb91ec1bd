"""Short Weierstrass curves y^2 = x^3 + ax + b over prime fields F_p, p > 3.

E(F_p) is read off one pass over x against a table of square roots, so
curves are capped at a desk-scale prime bound. The pass counts N = #E
without a point, and a lazy scan yields the points in a fixed order
(infinity, then x ascending, then y ascending); Curve.points is the list of
that scan. E(F_p) is Z/n1 x Z/n2 with n1 | n2 (Washington, Elliptic Curves:
Number Theory and Cryptography, thm. 4.1) and n1 | p-1 by the Weil pairing.
curve_group, the one certificate, reads n1 off the Sylow subgroups of N,
factored once, takes g2 from the scan and g1 from the n1-torsion those
subgroups hold, and certifies the structure from the generators' orders: g2
has exact order n2 and g1 exact order n1 with <g1> meeting <g2> only in the
identity, so the two span n1*n2 = N points, all of E(F_p) as N is its exact
count. It builds no point list. group_structure accepts a list of points
only when it holds exactly N points of the curve, and returns curve_group's
result.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from .errors import (
    BadInput,
    CurveTooLarge,
    InternalInconsistency,
    PointNotOnCurve,
    SingularCurve,
)
from .exact import factorize, is_prime
from .groups import AbelianGroup

# Affine point (x, y); None is the point at infinity.
CurvePoint = tuple[int, int] | None

# the point-enumeration bound: `curve --curve S --json` takes 0.09 to 0.13 s and 25 MB peak RSS for S in
# 99991,0,1, 99991,2,3 and 99991,12,3 (whole process, five runs each, 2-core VM, Python 3.11)
MAX_P = 100_000


@dataclass(frozen=True)
class Curve:
    """Nonsingular curve y^2 = x^3 + ax + b over F_p, 3 < p <= MAX_P."""

    p: int
    a: int
    b: int

    def __post_init__(self) -> None:
        # the bound comes first: trial division of a huge p would not finish
        if self.p > MAX_P:
            raise CurveTooLarge(f"p = {self.p} exceeds the enumeration bound {MAX_P}")
        if self.p <= 3 or not is_prime(self.p):
            raise BadInput(f"p must be a prime greater than 3, got {self.p}")
        object.__setattr__(self, "a", self.a % self.p)
        object.__setattr__(self, "b", self.b % self.p)
        if (4 * self.a**3 + 27 * self.b**2) % self.p == 0:
            raise SingularCurve(f"4a^3 + 27b^2 = 0 mod {self.p}: curve is singular")

    def contains_point(self, point: CurvePoint) -> bool:
        if point is None:
            return True
        x, y = point
        return (y * y - (x**3 + self.a * x + self.b)) % self.p == 0

    def require_point(self, point: CurvePoint) -> None:
        if not self.contains_point(point):
            raise PointNotOnCurve(f"{point} is not on y^2 = x^3 + {self.a}x + {self.b} over F_{self.p}")

    def neg(self, point: CurvePoint) -> CurvePoint:
        if point is None:
            return None
        x, y = point
        return (x, -y % self.p)

    def add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        """Chord-tangent addition; the point at infinity is the identity."""
        if P is None:
            return Q
        if Q is None:
            return P
        p = self.p
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2 and (y1 + y2) % p == 0:
            return None
        if P == Q:
            slope = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, p) % p
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (slope * slope - x1 - x2) % p
        y3 = (slope * (x1 - x3) - y1) % p
        return (x3, y3)

    def mul(self, k: int, point: CurvePoint) -> CurvePoint:
        """Scalar multiple k*point by double-and-add."""
        if k < 0:
            return self.mul(-k, self.neg(point))
        result: CurvePoint = None
        addend = point
        while k:
            if k & 1:
                result = self.add(result, addend)
            k >>= 1
            if k:
                addend = self.add(addend, addend)
        return result

    def points(self) -> list[CurvePoint]:
        """All rational points in scan order: infinity first, then x ascending, then y ascending.

        The point count is checked against the Hasse bound |N - p - 1| <= 2*sqrt(p).
        """
        return list(_enumeration(self)[1]())


def _enumeration(curve: Curve) -> tuple[int, Callable[[], Iterator[CurvePoint]]]:
    """#E(F_p), and a function that starts a fresh lazy scan of E(F_p) in scan order.

    Both come from one table that maps each square mod p to its smaller
    square root (0 to 0) and the list of f(x) = x^3 + ax + b for x in F_p.
    f(x) gives two points when it is a nonzero square and one when it is 0,
    so the count needs no point at all. The count is checked against the
    Hasse bound |N - p - 1| <= 2*sqrt(p).
    """
    p, a, b = curve.p, curve.a, curve.b
    half = range(1, (p + 1) // 2)
    roots = dict(zip([y * y % p for y in half], half))
    roots[0] = 0
    values = [((x * x + a) * x + b) % p for x in range(p)]
    count = 1 + 2 * sum(map(roots.__contains__, values)) - values.count(0)
    if (count - p - 1) ** 2 > 4 * p:
        raise InternalInconsistency(f"point count {count} violates the Hasse bound for p = {p}")

    def scan() -> Iterator[CurvePoint]:
        yield None
        for x, v in enumerate(values):
            y = roots.get(v)
            if y:
                yield (x, y)
                yield (x, p - y)
            elif y == 0:
                yield (x, 0)

    return count, scan


@dataclass(frozen=True, eq=False)
class CurveGroup:
    """E(F_p) as Z/n1 x Z/n2 (``structure``), with generators (g1, g2) of exact
    orders n1 and n2 whose spans meet only in the identity, so a*g1 + b*g2
    labels each point by exactly one (a, b)."""

    curve: Curve
    structure: AbelianGroup
    generators: tuple[CurvePoint, CurvePoint]

    @property
    def order(self) -> int:
        return self.structure.order


def point_order(curve: Curve, point: CurvePoint, group_order: int) -> int:
    """Order of a point, given the order of a group containing it."""
    o = group_order
    for q in factorize(group_order):
        while o % q == 0 and curve.mul(o // q, point) is None:
            o //= q
    return o


def group_structure(points: list[CurvePoint], curve: Curve) -> CurveGroup:
    """curve_group(curve), given the list of all points of E(F_p) in any order.

    The list must hold the identity and only points on the curve (checked by
    Curve.require_point), else PointNotOnCurve. Its distinct points are then
    all of E(F_p) exactly when there are N = curve_group(curve).order of
    them; a list of any other size raises InternalInconsistency.
    """
    pts = set(points)
    if None not in pts:
        raise PointNotOnCurve("the point list must contain the identity (point at infinity)")
    for pt in pts:
        curve.require_point(pt)
    result = curve_group(curve)
    if len(pts) != result.order:
        raise InternalInconsistency(f"the {len(pts)} points are not all of E(F_p)")
    return result


def curve_group(curve: Curve) -> CurveGroup:
    """Certify E(F_p) = Z/n1 x Z/n2 with no point list.

    N = #E(F_p) is counted from a table of square roots, and scan() runs
    lazily over the points in scan order and may stop early (see
    _enumeration). N is factored once. By the Weil pairing n1 | p-1, so only
    a prime q with q^2 | N and q | p-1 can divide n1; for each such q the
    Sylow q-subgroup is grown from the points (N/q^e)P until it has q^e
    elements, and its exponent q^k gives q^(e-k) as q's share of n1. The
    subgroup's points that q^(e-k) kills are the q-part of E[n1]; when
    e = 2(e-k) that is the whole subgroup. E[n1], the points that n1 kills,
    is the set of sums of one point from each q-part. Two checks certify the
    structure:

    1. g2 is the first point of exact order n2 = N/n1 in the scan: n2*g2 = O,
       and (n2/q)*g2 != O for each prime q | n2.
    2. g1 is the first point of E[n1], sorted, with n1*g1 = O such that no
       a*g1 with 0 < a < n1 lies in H, the n1 points of <g2> whose order
       divides n1 (the multiples of (n2/n1)*g2). Every such point lies in
       E[n1], so this is the first one in scan order. O lies in H, so g1 has
       exact order n1, and a point of <g1> in <g2> has order dividing n1, so
       it lies in H and is O.

    So <g1> + <g2> holds n1*n2 = N = #E(F_p) points: all of E(F_p).
    """
    count, scan = _enumeration(curve)
    p = curve.p
    # a Sylow subgroup of E has rank at most 2, so e - k <= k and n1 | n2
    factors = factorize(count)
    n1 = 1
    torsion: set[CurvePoint] = {None}
    for q, e in factors.items():
        if e >= 2 and (p - 1) % q == 0:
            k, sylow = _sylow_exponent(curve, scan(), count // q**e, q, e)
            j = e - k
            if j:
                n1 *= q**j
                part = sylow if k == j else [P for P in sylow if curve.mul(q**j, P) is None]
                torsion = {curve.add(T, P) for T in torsion for P in part}
    n2 = count // n1

    for g2 in scan():
        if _has_exact_order(curve, g2, n2, factors):
            break
    else:
        raise InternalInconsistency("no point realizes the group exponent")
    if curve.mul(n2, g2) is not None:
        raise InternalInconsistency(f"n2 * g2 is not the identity for n2 = {n2}")

    g1: CurvePoint = None
    if n1 > 1:
        if (p - 1) % n1 != 0:
            raise InternalInconsistency(f"n1 = {n1} does not divide p - 1 = {p - 1}")
        H = set(_multiples(curve, curve.mul(n2 // n1, g2), n1 - 1))
        for g1 in sorted(torsion - H):
            w = _multiples(curve, g1, n1)
            if w[n1] is None and H.isdisjoint(w[2:n1]):
                break
        else:
            raise InternalInconsistency("no complementary generator found")

    return CurveGroup(curve, AbelianGroup(n1, n2), (g1, g2))


def _sylow_exponent(
    curve: Curve, scan: Iterable[CurvePoint], cofactor: int, q: int, e: int
) -> tuple[int, set[CurvePoint]]:
    """(k, S) with S the Sylow q-subgroup of order q^e and q^k its exponent.

    The subgroup is grown from the points cofactor*P in scan order until it
    has q^e elements; its exponent is the largest order among the points that
    enlarged it. Every loop is bounded by e or by q^e.
    """
    size = q**e
    sylow: set[CurvePoint] = {None}
    k = 0
    for pt in scan:
        if len(sylow) == size:
            return k, sylow
        Q = curve.mul(cofactor, pt)
        if Q in sylow:
            continue
        order_exp, R = 0, Q
        while R is not None:
            if order_exp == e:
                raise InternalInconsistency(f"a point order does not divide the group order {cofactor * size}")
            R = curve.mul(q, R)
            order_exp += 1
        k = max(k, order_exp)
        coset, step = list(sylow), Q
        while step not in sylow:
            if len(sylow) + len(coset) > size:
                raise InternalInconsistency(f"the Sylow {q}-subgroup has more than {size} elements")
            sylow.update(curve.add(h, step) for h in coset)
            step = curve.add(step, Q)
    if len(sylow) != size:
        raise InternalInconsistency(f"the Sylow {q}-subgroup has fewer than {size} elements")
    return k, sylow


def _multiples(curve: Curve, step: CurvePoint, count: int) -> list[CurvePoint]:
    """[O, step, 2*step, ..., count*step], one curve.add each."""
    out: list[CurvePoint] = [None]
    for _ in range(count):
        out.append(curve.add(out[-1], step))
    return out


def _has_exact_order(curve: Curve, point: CurvePoint, order: int, primes: Iterable[int]) -> bool:
    """True when (order/q)*point is not the identity for every prime q | order in primes.

    Where order*point is the identity, this says the point has exact order ``order``.
    """
    return all(curve.mul(order // q, point) is not None for q in primes if order % q == 0)
