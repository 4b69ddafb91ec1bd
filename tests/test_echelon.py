"""The certificate's sparse echelon against the xgcd-only reference echelon.

exact.echelon_pivots takes a unit-pivot step under a pivot a = +-1 (keep
the pivot row, subtract b*a times it from a row with entry b) where the
reference always takes the xgcd step, and keeps each new pivot row with the
sign it comes with. Both steps are unimodular, so the pivot count (the rank)
and the product of the |pivots| (the index) must agree, and for a square
full-rank input the product is |det|, which det_bareiss computes
independently.
"""

from math import prod

import pytest
from hypothesis import given, settings, strategies as st
from reference import echelon_pivots_xgcd

from eclat import exact
from eclat.errors import InternalInconsistency
from eclat.exact import det_bareiss, echelon_pivots


def sparse_rows(width: int, count: int):
    entry = st.integers(-3, 3)
    return st.lists(
        st.dictionaries(st.integers(0, width - 1), entry.filter(bool), max_size=width), min_size=count, max_size=count
    )


@st.composite
def row_sets(draw):
    width = draw(st.integers(2, 30))
    return draw(sparse_rows(width, draw(st.integers(1, width + 3))))


@st.composite
def square_rows(draw):
    n = draw(st.integers(1, 12))
    return n, draw(sparse_rows(n, n))


@settings(max_examples=200, deadline=None)
@given(row_sets())
def test_pivots_match_the_xgcd_reference(rows):
    pivots = echelon_pivots([dict(r) for r in rows])
    expected = echelon_pivots_xgcd([dict(r) for r in rows])
    assert len(pivots) == len(expected)
    assert prod(pivots) == prod(expected)
    assert all(p > 0 for p in pivots)


@settings(max_examples=200, deadline=None)
@given(square_rows())
def test_full_rank_pivot_product_is_the_determinant(case):
    n, rows = case
    pivots = echelon_pivots([dict(r) for r in rows])
    det = det_bareiss([[r.get(c, 0) for c in range(n)] for r in rows])
    assert (len(pivots) == n) == (det != 0)
    if det:
        assert prod(pivots) == abs(det)


def test_unit_pivot_meets_plus_one_and_minus_one():
    # row 0 settles on column 2 with pivot 1. Row 1 meets it with +1, becomes
    # {0: 2, 1: -2} and settles on column 1 with pivot -2, kept as it comes.
    # Row 2 meets column 2 with -1 and becomes {0: 2, 1: 1}; the kept pivot
    # row keeps pivot 1. It then meets pivot -2 with 1, an xgcd step, and
    # settles as {0: -6}; the pivots are returned as absolute values.
    rows = [{0: 1, 2: 1}, {0: 3, 1: -2, 2: 1}, {0: 1, 1: 1, 2: -1}]
    assert echelon_pivots(rows) == [6, 1, 1]
    assert det_bareiss([[1, 0, 1], [3, -2, 1], [1, 1, -1]]) == 6


def test_a_minus_one_pivot_clears_any_entry_in_one_subtraction(monkeypatch):
    # row 0 is kept as it comes, pivot -1 on column 1. Row 1 meets it with 3
    # and becomes row 1 - 3 * (-1) * row 0 = {0: 5}: one _combine, no xgcd
    calls = []
    combine = exact._combine
    monkeypatch.setattr(exact, "_combine", lambda *args: calls.append(args) or combine(*args))
    first, second = {0: 1, 1: -1}, {0: 2, 1: 3}
    assert echelon_pivots([first, second]) == [5, 1]
    assert len(calls) == 1
    p, u, q, v = calls[0]
    assert (p, q) == (3, 1) and u is first and v is second
    assert det_bareiss([[1, -1], [2, 3]]) == 5


def test_a_row_operation_that_keeps_its_column_raises(monkeypatch):
    # a sign error that adds where it should subtract never clears the
    # column, so without the check the row would never settle
    combine = exact._combine
    monkeypatch.setattr(exact, "_combine", lambda p, u, q, v: combine(p, u, -q, v))
    with pytest.raises(InternalInconsistency, match="column 1"):
        echelon_pivots([{0: 1, 1: 1}, {1: 1}])
    with pytest.raises(InternalInconsistency, match="column 0"):
        echelon_pivots([{0: 2}, {0: 3}])
