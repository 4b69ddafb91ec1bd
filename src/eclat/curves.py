"""Short Weierstrass curves y^2 = x^3 + ax + b over prime fields F_p, p > 3.

Point enumeration is brute force over x, so curves are capped at a desk-scale
prime bound. The group structure Z/n1 x Z/n2 (n1 | n2, n1 | p-1) is computed
from one factorization of N = n1*n2: by the Weil pairing only primes q with
q^2 | N and q | p-1 can divide n1, and q's share of n1 is read off the Sylow
q-subgroup. A generator pair is then chosen by a fixed scan, and labelling
every point by its (a, b) coordinates with respect to that pair certifies the
structure, so the cost grows with N additions, not N order computations
(Washington, Elliptic Curves: Number Theory and Cryptography, section 4.3).
"""

from __future__ import annotations

from collections.abc import Container, Iterable
from dataclasses import dataclass

from .errors import (
    CurveTooLarge,
    InternalInconsistency,
    PointNotOnCurve,
    SingularCurve,
)
from .exact import factorize, inv_mod, is_prime
from .groups import AbelianGroup, GroupElement

# Affine point (x, y); None is the point at infinity.
CurvePoint = tuple[int, int] | None

# the point-enumeration bound: the curve pipeline at p = 99991 takes about 1 s and 66 MB
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
            raise ValueError(f"p must be a prime greater than 3, got {self.p}")
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
            slope = (3 * x1 * x1 + self.a) * inv_mod(2 * y1, p) % p
        else:
            slope = (y2 - y1) * inv_mod(x2 - x1, p) % p
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
        """All rational points, infinity first then affine points sorted.

        The point count is checked against the Hasse bound |N - p - 1| <= 2*sqrt(p).
        """
        p = self.p
        roots: dict[int, list[int]] = {}
        for y in range(p):
            roots.setdefault(y * y % p, []).append(y)
        pts: list[CurvePoint] = [None]
        for x in range(p):
            rhs = (x**3 + self.a * x + self.b) % p
            for y in roots.get(rhs, ()):
                pts.append((x, y))
        count = len(pts)
        if (count - p - 1) ** 2 > 4 * p:
            raise InternalInconsistency(f"point count {count} violates the Hasse bound for p = {p}")
        return pts


@dataclass(frozen=True, eq=False)
class CurveGroup:
    """A subgroup of E(F_p) with an explicit isomorphism onto Z/n1 x Z/n2.

    ``points[i]`` is the point labelled by structure.elements()[i], so the
    point at infinity sits at index 0.
    """

    curve: Curve
    structure: AbelianGroup
    points: tuple[CurvePoint, ...]
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
    """Structure (n1, n2) with n1 | n2 of the group formed by the points.

    N is factored once. By the Weil pairing n1 | p-1, so only a prime q with
    q^2 | N and q | p-1 can divide n1; for each such q the Sylow q-subgroup is
    grown from the points (N/q^e)P until it has q^e elements, and its exponent
    q^k gives q^(e-k) as q's share of n1. Then g2 is the first point of exact
    order n2 = N/n1, and g1 the first point of exact order n1 whose span meets
    the span of g2 only in the identity. Labelling every point by its (a, b)
    coordinates certifies the result: n2*g2 and n1*g1 are checked to be the
    identity and the labels to be a bijection, so a point set that is not a
    group raises InternalInconsistency. The scan order is fixed (infinity
    first, affine points sorted), so the result does not depend on the order
    of the input list.
    """
    pts = set(points)
    if None not in pts:
        raise PointNotOnCurve("the point list must contain the identity (point at infinity)")
    for pt in pts:
        curve.require_point(pt)
    count = len(pts)
    ordered = [None] + sorted(pt for pt in pts if pt is not None)

    factors = factorize(count)
    n1 = 1
    for q, e in factors.items():
        if e >= 2 and (curve.p - 1) % q == 0:
            n1 *= q ** (e - _sylow_exponent(curve, ordered, count // q**e, q, e))
    n2 = count // n1

    # n2*g2 = O is left to the labelling, whose rows close only if it holds
    for g2 in ordered:
        if _has_exact_order(curve, g2, n2, factors):
            break
    else:
        raise InternalInconsistency("no point realizes the group exponent")

    labels: dict[CurvePoint, GroupElement] = {}
    indexed: list[CurvePoint] = []

    def label_row(a: int, row_start: CurvePoint) -> None:
        pt = row_start
        for b in range(n2):
            labels[pt] = (a, b)
            indexed.append(pt)
            pt = curve.add(pt, g2)
        if pt != row_start:
            raise InternalInconsistency(f"n2 * g2 is not the identity for n2 = {n2}")

    label_row(0, None)
    g1: CurvePoint = None
    if n1 > 1:
        if (curve.p - 1) % n1 != 0:
            raise InternalInconsistency(f"n1 = {n1} does not divide p - 1 = {curve.p - 1}")
        for candidate in ordered:
            if (
                curve.mul(n1, candidate) is None
                and _has_exact_order(curve, candidate, n1, factors)
                and _span_meets_trivially(curve, candidate, n1, labels)  # labels holds row 0, the span of g2
            ):
                g1 = candidate
                break
        else:
            raise InternalInconsistency("no complementary generator found")
    row_start = g1
    for a in range(1, n1):
        label_row(a, row_start)
        row_start = curve.add(row_start, g1)
    if row_start is not None:
        raise InternalInconsistency(f"n1 * g1 is not the identity for n1 = {n1}")
    if len(labels) != count or set(indexed) != pts:
        raise InternalInconsistency("generator pair does not label the group bijectively")
    return CurveGroup(curve, AbelianGroup(n1, n2), tuple(indexed), (g1, g2))


def curve_group(curve: Curve) -> CurveGroup:
    """Full rational-point group of the curve with its structure."""
    return group_structure(curve.points(), curve)


def _sylow_exponent(curve: Curve, ordered: list[CurvePoint], cofactor: int, q: int, e: int) -> int:
    """k with q^k the exponent of the Sylow q-subgroup of order q^e.

    The subgroup is grown from the points cofactor*P in scan order until it
    has q^e elements; its exponent is the largest order among the points that
    enlarged it. Every loop is bounded by e or by q^e.
    """
    size = q**e
    sylow: set[CurvePoint] = {None}
    k = 0
    for pt in ordered:
        if len(sylow) == size:
            return k
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
    return k


def _has_exact_order(curve: Curve, point: CurvePoint, order: int, primes: Iterable[int]) -> bool:
    """True when (order/q)*point is not the identity for every prime q | order in primes.

    Where order*point is the identity, this says the point has exact order ``order``.
    """
    return all(curve.mul(order // q, point) is not None for q in primes if order % q == 0)


def _span_meets_trivially(curve: Curve, point: CurvePoint, order: int, other_span: Container[CurvePoint]) -> bool:
    acc = point
    for _ in range(order - 1):
        if acc in other_span:
            return False
        acc = curve.add(acc, point)
    return True
