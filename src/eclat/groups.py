"""Finite abelian groups Z/m x Z/n with a fixed row-major element order.

Every lattice in this package is indexed by the elements of such a group:
element (a, b) occupies coordinate a*n + b, so the identity is always
coordinate 0 and the elements with a = 0 form the leading block.
Canonical presentations have m | n; every rank-two finite abelian group
(in particular every elliptic-curve group over a finite field) has one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, lcm
from typing import Callable, Iterable

from .exact import crt, factorize

GroupElement = tuple[int, int]

_SPEC_RE = re.compile(r"^\s*(\d+)\s*[xX]\s*(\d+)\s*$")


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product Z/m x Z/n. Canonical instances satisfy m | n.

    Non-canonical shapes (e.g. Z/2 x Z/5) are permitted so that the basis
    constructions can be exercised with the labelling the shape dictates;
    ``make_group`` always canonicalizes.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"group shape must be positive, got ({self.m}, {self.n})")

    @property
    def order(self) -> int:
        return self.m * self.n

    @property
    def exponent(self) -> int:
        return lcm(self.m, self.n)

    @property
    def is_canonical(self) -> bool:
        return self.n % self.m == 0

    @property
    def is_cyclic(self) -> bool:
        return gcd(self.m, self.n) == 1

    @property
    def identity(self) -> GroupElement:
        return (0, 0)

    def reduce(self, x: GroupElement) -> GroupElement:
        return (x[0] % self.m, x[1] % self.n)

    def add(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return ((x[0] + y[0]) % self.m, (x[1] + y[1]) % self.n)

    def neg(self, x: GroupElement) -> GroupElement:
        return (-x[0] % self.m, -x[1] % self.n)

    def element_index(self, x: GroupElement) -> int:
        """Coordinate of x in the row-major enumeration: a*n + b."""
        return x[0] * self.n + x[1]

    def element_at(self, index: int) -> GroupElement:
        if not 0 <= index < self.order:
            raise IndexError(f"element index {index} out of range for order {self.order}")
        return divmod(index, self.n)

    def weighted_sum(self, terms: Iterable[tuple[int, int]]) -> GroupElement:
        """The element sum(c * element_at(i)) over the (i, c) terms, read off i as divmod(i, n)."""
        n = self.n
        wa = wb = 0
        for i, c in terms:
            wa += c * (i // n)
            wb += c * (i % n)
        return (wa % self.m, wb % n)

    def elements(self) -> list[GroupElement]:
        """All elements in index order, identity first."""
        return [(a, b) for a in range(self.m) for b in range(self.n)]

    def element_order(self, x: GroupElement) -> int:
        a, b = self.reduce(x)
        return lcm(self.m // gcd(a, self.m), self.n // gcd(b, self.n))

    def spec(self) -> str:
        return f"{self.m}x{self.n}"


def make_group(m: int, n: int) -> AbelianGroup:
    """Canonical form Z/gcd(m,n) x Z/lcm(m,n) of the product Z/m x Z/n.

    The order m*n is preserved; the CRT re-labelling onto the canonical
    coordinates is recorded by ``canonical_map``.
    """
    if m < 1 or n < 1:
        raise ValueError(f"group shape must be positive, got ({m}, {n})")
    return AbelianGroup(gcd(m, n), lcm(m, n))


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


def parse_group_spec(spec: str) -> tuple[int, int]:
    """Parse a group spec string such as "3x6" into the pair (3, 6)."""
    match = _SPEC_RE.match(spec)
    if not match:
        raise ValueError(f"invalid group spec {spec!r}; expected the form MxN, e.g. 3x6")
    m, n = int(match.group(1)), int(match.group(2))
    if m < 1 or n < 1:
        raise ValueError(f"group spec must have positive factors, got {spec!r}")
    return m, n


def format_element(x: GroupElement) -> str:
    return f"({x[0]},{x[1]})"

