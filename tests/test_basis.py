import pytest
from reference import canonical_groups_of_order

from eclat.basis import (
    CYCLIC4_FALLBACK,
    build_minimal_basis,
    cyclic_basis,
    rect_basis,
    verify_basis,
)
from eclat.errors import BadShape, BadSize
from eclat.groups import AbelianGroup
from eclat.lattice import Lattice, dense, gram_report, span_rank, support


def norm_sq(v):
    return sum(c * c for c in v)


def test_cyclic_basis_rows_n5():
    rows = [dense(v, 5) for v in cyclic_basis(5)]
    assert rows[0] == (1, 1, -1, 0, -1)
    assert rows[1] == (1, 0, 1, -1, -1)
    assert rows[2] == (-1, 1, 1, -1, 0)
    assert rows[3] == (-1, 1, 0, 1, -1)


def test_cyclic_basis_certified():
    for n in (5, 6, 7, 11):
        rows = cyclic_basis(n)
        report = verify_basis(AbelianGroup(1, n), rows)
        assert report.certified
    assert gram_report([dense(v, 6) for v in cyclic_basis(6)]).det == 216


def test_cyclic_basis_bad_size():
    with pytest.raises(BadSize):
        cyclic_basis(4)


def table_rows(m, n, kind):
    """The dense basis build_minimal_basis gives Z/m x Z/n, after checking its kind and certificate."""
    result = build_minimal_basis(AbelianGroup(m, n))
    assert result.kind == kind
    assert result.certified
    return list(result.vectors)


def test_small_cyclic_basis():
    assert table_rows(1, 2, "cyclic_small_2") == [(-2, 2)]
    assert norm_sq((-2, 2)) == 8
    rows = table_rows(1, 3, "cyclic_small_3")
    assert rows == [(-2, 1, 1), (1, -2, 1)]
    assert gram_report(rows).det == 27
    lat = Lattice(AbelianGroup(1, 3))
    assert all(lat.contains(v) for v in rows)


def test_klein_basis():
    rows = table_rows(2, 2, "klein_2x2")
    report = gram_report(rows)
    assert report.det == 64
    assert report.gram == ((4, 0, 0), (0, 4, 0), (0, 0, 4))
    assert all(norm_sq(v) == 4 for v in rows)


def test_explicit_small_bases():
    rows24 = table_rows(2, 4, "explicit_2x4")
    assert rows24[6] == (1, -1, 0, 0, 1, 0, 0, -1)
    rows33 = table_rows(3, 3, "explicit_3x3")
    assert rows33[7] == (1, 0, 0, -1, -1, 0, 0, 1, 0)
    rows44 = table_rows(4, 4, "explicit_4x4")
    assert gram_report(rows44).det == 4096


def test_rect_basis_2x5_layout():
    rows = rect_basis(2, 5)
    assert len(rows) == 9
    # cross vector: (0,1)-(0,2) paired against (1,1)-(1,2)
    assert dense(rows[7], 10) == (0, 1, -1, 0, 0, 0, -1, 1, 0, 0)
    # closing vector for two parts
    assert dense(rows[8], 10) == (0, 1, 1, 0, 0, 0, -1, -1, 0, 0)


@pytest.mark.parametrize("shape", [(2, 5), (3, 5), (4, 5), (2, 6), (3, 6), (4, 8), (5, 5), (5, 6), (6, 7)])
def test_rect_basis_certified(shape):
    m, n = shape
    rows = rect_basis(m, n)
    assert len(rows) == m * n - 1
    assert verify_basis(AbelianGroup(m, n), rows).certified


def test_rect_basis_counts():
    assert len(rect_basis(3, 5)) == 14
    assert gram_report([dense(v, 25) for v in rect_basis(5, 5)]).det == 15625


@pytest.mark.parametrize("shape", [(2, 4), (4, 4), (1, 6), (6, 5), (5, 4)])
def test_rect_basis_bad_shapes(shape):
    with pytest.raises(BadShape):
        rect_basis(*shape)


def test_build_dispatch_kinds():
    cases = {
        (1, 2): "cyclic_small_2",
        (1, 3): "cyclic_small_3",
        (1, 4): "exceptional_cyclic_4",
        (1, 5): "cyclic_basis1",
        (2, 2): "klein_2x2",
        (2, 4): "explicit_2x4",
        (3, 3): "explicit_3x3",
        (4, 4): "explicit_4x4",
        (2, 6): "rect_2xn",
        (3, 6): "rect_3xn",
        (4, 8): "rect_4xn",
        (5, 5): "rect_mxn",
    }
    for shape, kind in cases.items():
        result = build_minimal_basis(AbelianGroup(*shape))
        assert result.kind == kind, shape
        assert result.certified == (kind != "exceptional_cyclic_4")


def test_build_exceptional_cyclic_4():
    g = AbelianGroup(1, 4)
    result = build_minimal_basis(g)
    assert result.vectors == CYCLIC4_FALLBACK
    report = result.report
    assert report.gram_det_sq == 64
    assert report.all_in_lattice and report.count_ok and report.gram_det_sq_ok
    assert not report.all_minimal  # the third vector has squared norm 6
    assert span_rank(Lattice(g).minimal_vectors()) == 2


def test_build_3x6():
    result = build_minimal_basis(AbelianGroup(3, 6))
    assert result.kind == "rect_3xn"
    assert len(result.vectors) == 17
    assert result.report.gram_det_sq == 18**3


@pytest.mark.parametrize(
    "shape,kind",
    [((1, 10000), "cyclic_basis1"), ((2, 5000), "rect_2xn"), ((3, 3000), "rect_3xn"), ((4, 2500), "rect_4xn"), ((100, 100), "rect_mxn")],
)
def test_build_certifies_large_groups(shape, kind):
    g = AbelianGroup(*shape)
    result = build_minimal_basis(g)
    assert result.kind == kind
    assert result.certified and result.accepted
    assert result.report.gram_det_sq == g.order**3
    assert len(result.supports) == g.order - 1
    assert all(len(v) == 4 for v in result.supports)


@pytest.mark.parametrize("shape", [(1, 300), (2, 150), (3, 99), (4, 100), (10, 30)])
def test_vectors_expand_supports(shape):
    # dense vectors at N = 10^4 would hold 10^8 entries, so the expansion is checked at N <= 300
    g = AbelianGroup(*shape)
    result = build_minimal_basis(g)
    vectors = result.vectors
    assert all(len(v) == g.order for v in vectors)
    assert [support(v) for v in vectors] == list(result.supports)


def test_build_rejects_bad_input():
    with pytest.raises(BadShape):
        build_minimal_basis(AbelianGroup(2, 5))  # not canonical
    with pytest.raises(BadSize):
        build_minimal_basis(AbelianGroup(1, 1))


def test_verify_basis_flags():
    g = AbelianGroup(1, 7)
    rows = cyclic_basis(7)
    report = verify_basis(g, rows)
    assert report.certified
    assert report.gram_det_sq == 343

    short = verify_basis(g, rows[:-1])
    assert not short.count_ok and not short.certified

    doubled = rows[:-1] + [{i: 2 * c for i, c in rows[-1].items()}]
    scaled = verify_basis(g, doubled)
    assert scaled.gram_det_sq == 4 * 343
    assert not scaled.gram_det_sq_ok
    assert not scaled.all_minimal


def test_verify_basis_rejects_coordinates_out_of_range():
    # coordinates 7 and 8 of a length-7 vector: zero sum and weighted sum 1 - 7 - 8 = -14 = 0 mod 7
    g = AbelianGroup(1, 7)
    rows = cyclic_basis(7)[:-1] + [{0: 1, 1: 1, 7: -1, 8: -1}]
    report = verify_basis(g, rows)
    assert not report.all_in_lattice and not report.certified
    assert report.gram_det_sq == 0


@pytest.mark.parametrize("order", range(2, 41))
def test_sweep_small_orders(order):
    for g in canonical_groups_of_order(order):
        result = build_minimal_basis(g)
        if result.kind == "exceptional_cyclic_4":
            continue
        assert result.certified, (g.m, g.n)
        d = Lattice(g).minimal_distance_sq()
        assert all(norm_sq(v) == d for v in result.vectors)
