from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st
from reference import canonical_groups_of_order, canonical_map

from eclat.groups import AbelianGroup, make_group, parse_group_spec

small_shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))


@pytest.mark.parametrize(
    "m,n,cm,cn",
    [
        (2, 3, 1, 6),
        (4, 6, 2, 12),
        (3, 3, 3, 3),
        (6, 4, 2, 12),
        (1, 1, 1, 1),
    ],
)
def test_make_group_canonicalizes(m, n, cm, cn):
    g = make_group(m, n)
    assert (g.m, g.n) == (cm, cn)
    assert g.order == m * n
    assert g.is_canonical


def test_make_group_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_group(0, 5)
    with pytest.raises(ValueError):
        AbelianGroup(3, -1)


def test_canonical_map_is_isomorphism_4x6():
    # exhaustive check of the CRT re-labelling over all 24 elements
    relabel = canonical_map(4, 6)
    source = [(a, b) for a in range(4) for b in range(6)]
    images = [relabel(x) for x in source]
    assert len(set(images)) == 24
    target = make_group(4, 6)
    for x in source:
        for y in source:
            xy = ((x[0] + y[0]) % 4, (x[1] + y[1]) % 6)
            assert relabel(xy) == target.add(relabel(x), relabel(y))
    assert relabel((0, 0)) == (0, 0)


@given(small_shapes)
def test_canonical_map_maps_identity_and_preserves_order(shape):
    m, n = shape
    relabel = canonical_map(m, n)
    g = make_group(m, n)
    assert relabel((0, 0)) == (0, 0)
    for x in [(1 % m, 0), (0, 1 % n), (m - 1, n - 1)]:
        # the order of the image, by repeated addition in the target
        y = relabel(x)
        acc, k = y, 1
        while acc != (0, 0):
            acc, k = g.add(acc, y), k + 1
        # the order of (a, b) in Z/m x Z/n
        assert k == lcm(m // gcd(x[0], m), n // gcd(x[1], n))


def test_add_and_neg():
    g = AbelianGroup(2, 4)
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.add((0, 0), (1, 3)) == (1, 3)
    g5 = AbelianGroup(1, 5)
    assert g5.add((0, 4), (0, 3)) == (0, 2)


def test_elements_enumeration():
    assert AbelianGroup(1, 3).elements() == [(0, 0), (0, 1), (0, 2)]
    assert AbelianGroup(2, 2).elements() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(AbelianGroup(3, 6).elements()) == 18


@given(small_shapes)
def test_group_axioms(shape):
    g = AbelianGroup(*shape)
    elems = g.elements()
    assert elems[0] == (0, 0)
    for x in elems:
        assert g.add(x, (-x[0] % g.m, -x[1] % g.n)) == (0, 0)
    # row-major: element i is divmod(i, n), the layout weighted_sum reads
    assert [divmod(i, g.n) for i in range(g.order)] == elems


@given(small_shapes)
def test_make_group_preserves_order_and_exponent(shape):
    m, n = shape
    g = make_group(m, n)
    assert g.order == m * n
    assert lcm(g.m, g.n) == lcm(m, n)
    assert g.n % g.m == 0


def test_canonical_groups_of_order():
    assert [(g.m, g.n) for g in canonical_groups_of_order(12)] == [(1, 12), (2, 6)]
    assert [(g.m, g.n) for g in canonical_groups_of_order(16)] == [(1, 16), (2, 8), (4, 4)]
    assert [(g.m, g.n) for g in canonical_groups_of_order(7)] == [(1, 7)]


def test_parse_group_spec():
    assert parse_group_spec("3x6") == (3, 6)
    assert parse_group_spec(" 2 X 12 ") == (2, 12)
    with pytest.raises(ValueError):
        parse_group_spec("3*6")
    with pytest.raises(ValueError):
        parse_group_spec("0x4")
