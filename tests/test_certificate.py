"""Corruption suite for the basis certificate.

Each test corrupts a built minimal-vector basis in one way and checks the
whole VerificationReport: against reference.verification_report, which uses
dense vectors, Lattice.contains and the Bareiss determinant of the Gram
matrix, for every canonical group of order 2 to 40; and against the flags and
gram_det_sq the corruption implies for groups near N = 10^4, where a dense
Gram matrix is out of reach.
"""

import random
from functools import cache

import pytest
from reference import canonical_groups_of_order, verification_report

from eclat.basis import VerificationReport, build_minimal_basis, cyclic_basis, rect_basis, verify_basis
from eclat.exact import echelon_pivots
from eclat.groups import AbelianGroup, parse_group_spec
from eclat.lattice import Support


def _sum(u: Support, v: Support) -> Support:
    """The support of u + v."""
    out = dict(u)
    for i, c in v.items():
        out[i] = out.get(i, 0) + c
    return {i: c for i, c in out.items() if c}


def corrupt(rows: list[Support], kind: str, N: int, rng: random.Random) -> list[Support]:
    """A copy of the rows with one corruption; the rows picked come from rng."""
    rows = list(rows)
    i, j = rng.sample(range(len(rows)), 2) if len(rows) > 1 else (0, None)
    v = rows[i]
    if kind == "flip":  # one entry's sign
        a = rng.choice(sorted(v))
        rows[i] = {**v, a: -v[a]}
    elif kind == "move":  # one entry to another coordinate
        a = rng.choice(sorted(v))
        b = rng.choice([x for x in range(N) if x != a])
        rows[i] = _sum({x: c for x, c in v.items() if x != a}, {b: v[a]})
    elif kind == "drop":
        del rows[i]
    elif kind == "duplicate":  # v_i in place of v_j
        rows[j] = v
    elif kind == "double":
        rows[i] = {x: 2 * c for x, c in v.items()}
    elif kind == "add":  # v_i + v_j in place of v_i
        rows[i] = _sum(v, rows[j])
    else:
        raise ValueError(kind)
    return rows


def test_echelon_pivots_on_the_largest_column():
    # each row settles on its largest column, 1 and then 2; pivoting on the
    # smallest would combine the rows on column 0 and give [1, 1]
    assert echelon_pivots([{0: 2, 1: 1}, {0: 1, 2: 3}]) == [1, 3]


KINDS = ["flip", "move", "drop", "duplicate", "double", "add"]


@pytest.mark.parametrize("order", range(2, 41))
def test_intact_basis_matches_reference(order):
    for g in canonical_groups_of_order(order):
        rows = list(build_minimal_basis(g).supports)
        assert verify_basis(g, rows) == verification_report(g, rows), g.spec()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", range(2, 41))
def test_corrupted_basis_matches_reference(order, kind):
    for g in canonical_groups_of_order(order):
        rows = list(build_minimal_basis(g).supports)
        if kind in ("duplicate", "add") and len(rows) < 2:
            continue
        rng = random.Random(f"{g.spec()} {kind}")
        bad = corrupt(rows, kind, order, rng)
        assert verify_basis(g, bad) == verification_report(g, bad), (g.spec(), bad)


@cache
def large_basis(m: int, n: int) -> tuple[Support, ...]:
    # the construction alone: build_minimal_basis would certify it once more
    return tuple(cyclic_basis(n) if m == 1 else rect_basis(m, n))


@pytest.mark.parametrize("kind", ["flip", "drop", "duplicate", "double", "add"])
@pytest.mark.parametrize("spec", ["1x10000", "2x5000", "3x3333", "4x2500", "100x100"])
def test_corrupted_large_basis_flags(spec, kind):
    g = AbelianGroup(*parse_group_spec(spec))
    N = g.order
    rows = list(large_basis(g.m, g.n))
    rng = random.Random(f"{spec} {kind}")
    bad = corrupt(rows, kind, N, rng)
    # every row of the basis has norm 4; a flip keeps it, a doubling makes it 16,
    # and a sum is minimal only when it has norm 4
    changed = [v for v, u in zip(bad, rows) if v != u]
    minimal = kind != "double" and all(sum(c * c for c in v.values()) == 4 for v in changed)
    det = {"flip": 0, "drop": 0, "duplicate": 0, "double": 4 * N**3, "add": N**3}[kind]
    assert verify_basis(g, bad) == VerificationReport(
        all_in_lattice=kind != "flip",
        all_minimal=minimal,
        count_ok=kind != "drop",
        gram_det_sq_ok=det == N**3,
        gram_det_sq=det,
    )
