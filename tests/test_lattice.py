import itertools
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from eclat.errors import LengthMismatch, NotInAn, OracleBoundExceeded
from eclat.groups import AbelianGroup, canonical_groups_of_order
from eclat.lattice import (
    Lattice,
    divisor_degree,
    gram_report,
    index_from_generators,
    span_rank,
)


def cyclic(n):
    return Lattice(AbelianGroup(1, n))


def norm_sq(v):
    return sum(c * c for c in v)


def test_contains_cyclic4():
    lat = cyclic(4)
    assert lat.contains((1, 1, -1, -1))
    assert lat.contains((0, 0, 0, 0))
    assert not lat.contains((1, -1, 0, 0))
    with pytest.raises(LengthMismatch):
        lat.contains((1, -1, 0))


def test_contains_rectangular():
    lat = Lattice(AbelianGroup(2, 4))
    # +(0,0) +(1,3) -(0,3) -(1,0): sums (1,3) on both sides
    assert lat.contains((1, 0, 0, -1, -1, 0, 0, 1))
    assert not lat.contains((1, -1, 0, 0, 0, 0, 0, 0))


def test_divisor_degree():
    assert divisor_degree((1, 1, -1, -1)) == 2
    assert divisor_degree((0, 0, 0)) == 0
    assert divisor_degree((2, -1, -1)) == 2
    with pytest.raises(NotInAn):
        divisor_degree((1, 0, 0))


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=10))
def test_divisor_degree_is_half_l1(coords):
    v = tuple(coords) + (-sum(coords),)
    assert 2 * divisor_degree(v) == sum(abs(c) for c in v)


@pytest.mark.parametrize("n,expected", [(7, 4), (3, 6), (2, 8), (4, 4), (12, 4)])
def test_minimal_distance_sq(n, expected):
    assert cyclic(n).minimal_distance_sq() == expected


def test_minimal_vectors_cyclic4():
    got = set(cyclic(4).minimal_vectors())
    assert got == {(1, 1, -1, -1), (-1, -1, 1, 1), (1, -1, -1, 1), (-1, 1, 1, -1)}


def test_minimal_vectors_counts():
    assert len(cyclic(5).minimal_vectors()) == 10
    assert cyclic(2).minimal_vectors() == [(-2, 2), (2, -2)]
    assert set(cyclic(3).minimal_vectors()) == {
        (-2, 1, 1), (1, -2, 1), (1, 1, -2), (2, -1, -1), (-1, 2, -1), (-1, -1, 2),
    }


@pytest.mark.parametrize("n", range(2, 13))
def test_minimal_vectors_invariants(n):
    for g in canonical_groups_of_order(n):
        lat = Lattice(g)
        vectors = lat.minimal_vectors()
        d = lat.minimal_distance_sq()
        assert len(vectors) == len(set(vectors))
        for v in vectors:
            assert lat.contains(v)
            assert norm_sq(v) == d
            assert tuple(-c for c in v) in set(vectors)


def test_gram_report_examples():
    klein = [(-1, 1, 1, -1), (-1, 1, -1, 1), (-1, -1, 1, 1)]
    report = gram_report(klein)
    assert report.gram == ((4, 0, 0), (0, 4, 0), (0, 0, 4))
    assert report.det == 64

    assert gram_report([(1, 1, -1, -1)]).det == 4
    v = (1, 1, -1, -1)
    assert gram_report([v, v]).det == 0
    assert gram_report([]).det == 1


@given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_gram_det_matches_sympy(rows):
    import sympy

    from eclat.lattice import gram_matrix

    gram = gram_matrix([tuple(r) for r in rows])
    assert gram_report([tuple(r) for r in rows]).det == int(sympy.Matrix(gram).det())


def test_determinant_sq():
    assert cyclic(4).determinant_sq() == 64
    assert cyclic(2).determinant_sq() == 8
    assert Lattice(AbelianGroup(3, 3)).determinant_sq() == 729


def test_index_from_generators_hnf_oracle():
    # valid because the lattice is generated by its minimal vectors for n >= 5
    assert index_from_generators(cyclic(6).minimal_vectors()) == 6
    assert index_from_generators(cyclic(9).minimal_vectors()) == 9
    # rank-deficient generating sets report index 0
    assert index_from_generators(cyclic(4).minimal_vectors()) == 0
    with pytest.raises(NotInAn):
        index_from_generators([(1, 0, 0)])


@given(st.integers(2, 7), st.data())
@settings(max_examples=80, deadline=None)
def test_index_matches_gram_determinant(N, data):
    # dropping the last coordinate maps A_{N-1} onto Z^{N-1}, so N-1 vectors
    # of A_{N-1} have Gram determinant N * index^2
    row = st.lists(st.integers(-3, 3), min_size=N - 1, max_size=N - 1)
    heads = data.draw(st.lists(row, min_size=N - 1, max_size=N - 1))
    if data.draw(st.booleans()):
        # make the last vector an integer combination of the others: rank below N-1
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=N - 2, max_size=N - 2))
        heads[-1] = [sum(c * h[i] for c, h in zip(coeffs, heads)) for i in range(N - 1)]
    vs = [tuple(h) + (-sum(h),) for h in heads]
    assert N * index_from_generators(vs) ** 2 == gram_report(vs).det


def test_span_rank():
    assert span_rank(cyclic(4).minimal_vectors()) == 2
    assert span_rank([]) == 0
    assert span_rank(cyclic(5).minimal_vectors()) == 4


@given(st.lists(st.lists(st.integers(-7, 7), min_size=5, max_size=5), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_span_rank_matches_sympy(rows):
    import sympy

    vectors = [tuple(r) for r in rows]
    assert span_rank(vectors) == sympy.Matrix(rows).rank()


def test_svp_oracle_examples():
    lat = cyclic(4)
    assert lat.svp_oracle(4) == lat.minimal_vectors()
    assert cyclic(3).svp_oracle(5) == []
    for v in cyclic(6).svp_oracle(6):
        assert cyclic(6).contains(v)


def test_svp_oracle_bound():
    with pytest.raises(OracleBoundExceeded):
        cyclic(13).svp_oracle(4)
    assert cyclic(13).svp_oracle(4, max_dim=13)  # explicit override works


@pytest.mark.parametrize("shape", [(1, 5), (1, 8), (2, 4), (3, 3)])
def test_svp_oracle_matches_pair_sum(shape):
    lat = Lattice(AbelianGroup(*shape))
    assert lat.svp_oracle(lat.minimal_distance_sq()) == lat.minimal_vectors()


@pytest.mark.parametrize("shape", [(1, 5), (1, 6), (1, 7), (2, 2), (2, 3)])
def test_svp_oracle_complete_above_minimum(shape):
    # brute force over the box |x_i| <= isqrt(B), which holds every vector of norm <= B
    lat = Lattice(AbelianGroup(*shape))
    N = lat.dim
    for bound in (6, 8, 10):
        r = isqrt(bound)
        expected = []
        for head in itertools.product(range(-r, r + 1), repeat=N - 1):
            v = head + (-sum(head),)
            if 0 < norm_sq(v) <= bound and lat.contains(v):
                expected.append(v)
        assert lat.svp_oracle(bound) == sorted(expected), (shape, bound)


@given(st.integers(2, 9), st.data())
@settings(max_examples=40)
def test_lattice_closure(n, data):
    # integer combinations of minimal vectors must stay in the lattice
    lat = cyclic(n)
    gens = lat.minimal_vectors()
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
    v = tuple(sum(c * b[i] for c, b in zip(coeffs, gens)) for i in range(n))
    w = gens[data.draw(st.integers(0, len(gens) - 1))]
    assert lat.contains(v)
    assert lat.contains(tuple(-x for x in v))
    assert lat.contains(tuple(a + b for a, b in zip(v, w)))


@pytest.mark.parametrize("n", range(2, 13))
def test_count_minimal_vectors_matches_enumeration(n):
    for g in canonical_groups_of_order(n):
        lat = Lattice(g)
        assert lat.count_minimal_vectors() == len(lat.minimal_vectors())
