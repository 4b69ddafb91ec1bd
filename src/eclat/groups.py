"""Finite abelian groups Z/m x Z/n with a fixed row-major element order.

Every lattice in this package is indexed by the elements of such a group:
element (a, b) occupies coordinate a*n + b, so the identity is always
coordinate 0 and the elements with a = 0 form the leading block.
Canonical presentations have m | n; every rank-two finite abelian group
(in particular every elliptic-curve group over a finite field) has one.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from math import gcd, lcm

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
    def is_canonical(self) -> bool:
        return self.n % self.m == 0

    @property
    def is_cyclic(self) -> bool:
        return gcd(self.m, self.n) == 1

    @property
    def identity(self) -> GroupElement:
        return (0, 0)

    def add(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return ((x[0] + y[0]) % self.m, (x[1] + y[1]) % self.n)

    def weighted_sum(self, terms: Iterable[tuple[int, int]]) -> GroupElement:
        """The element sum(c * elements()[i]) over the (i, c) terms, element i read off as divmod(i, n)."""
        n = self.n
        wa = wb = 0
        for i, c in terms:
            wa += c * (i // n)
            wb += c * (i % n)
        return (wa % self.m, wb % n)

    def elements(self) -> list[GroupElement]:
        """All elements in index order, identity first."""
        return [(a, b) for a in range(self.m) for b in range(self.n)]

    def spec(self) -> str:
        return f"{self.m}x{self.n}"


def make_group(m: int, n: int) -> AbelianGroup:
    """Canonical form Z/gcd(m,n) x Z/lcm(m,n) of the product Z/m x Z/n.

    The order m*n is preserved, and by the Chinese remainder theorem the two
    groups are isomorphic: each prime's smaller power in m and n goes to the
    gcd side and the larger to the lcm side.
    """
    if m < 1 or n < 1:
        raise ValueError(f"group shape must be positive, got ({m}, {n})")
    return AbelianGroup(gcd(m, n), lcm(m, n))


def parse_group_spec(spec: str) -> tuple[int, int]:
    """Parse a group spec string such as "3x6" into the pair (3, 6)."""
    match = _SPEC_RE.match(spec)
    if not match:
        raise ValueError(f"invalid group spec {spec!r}; expected the form MxN, e.g. 3x6")
    m, n = int(match.group(1)), int(match.group(2))
    if m < 1 or n < 1:
        raise ValueError(f"group spec must have positive factors, got {spec!r}")
    return m, n
