import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lerayfront.errors import NoSolutionError
from lerayfront.linalg import (
    ColumnSpan,
    RationalMatrix,
    det_fraction,
    det_int,
    inverse_int,
)

from helpers import column_span_inverse, matvec, rank_by_minors


def _span(rows: list[list[Fraction]]) -> tuple[ColumnSpan, list]:
    """The span of the columns of ``rows``, and what ``add`` returned for each."""
    span = ColumnSpan(range(len(rows)))
    added = [
        span.add({i: row[j] for i, row in enumerate(rows) if row[j]}, j)
        for j in range(len(rows[0]))
    ]
    return span, added


def test_identity_solve():
    span, added = _span(RationalMatrix.identity(2).entries)
    assert added == [None, None]
    assert span.solve({0: Fraction(1), 1: Fraction(2)}) == {0: 1, 1: 2}


def test_underdetermined():
    span, added = _span(RationalMatrix.from_rows([[1, 1]]).entries)
    assert added == [None, {0: -1, 1: 1}]
    x = span.solve({0: Fraction(3)})
    assert x.get(0, 0) + x.get(1, 0) == 3


def test_inconsistent():
    span, _ = _span(RationalMatrix.from_rows([[1], [1]]).entries)
    assert span.solve({0: Fraction(1), 1: Fraction(2)}) is None
    # a row key outside the span's rows is inconsistent too
    assert span.solve({5: Fraction(1)}) is None


rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@settings(max_examples=40)
@given(st.lists(st.lists(rational, min_size=3, max_size=3), min_size=2, max_size=4), st.lists(rational, min_size=2, max_size=4))
def test_solutions_satisfy_system(rows, b):
    if len(rows) != len(b):
        b = (b * len(rows))[: len(rows)]
    A = RationalMatrix.from_rows(rows)
    span, added = _span(A.entries)
    sol = span.solve({i: Fraction(x) for i, x in enumerate(b) if x})
    if sol is not None:
        assert matvec(A, [sol.get(j, 0) for j in range(A.cols)]) == [Fraction(x) for x in b]
    for rel in added:
        if rel is not None:
            assert matvec(A, [rel.get(j, 0) for j in range(A.cols)]) == [Fraction(0)] * A.rows


small_rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda nrows: st.lists(
            st.lists(small_rational, min_size=nrows, max_size=nrows), min_size=1, max_size=6
        )
    )
)
def test_add_returns_a_relation_exactly_on_a_dependent_column(columns):
    # the reference: column j lies in the span of columns 0..j-1 exactly
    # when appending it leaves the rank by minors where it was
    rows = [list(r) for r in zip(*columns)]
    _, added = _span(rows)
    for j, rel in enumerate(added):
        before = rank_by_minors([r[:j] for r in rows])
        assert (rel is not None) == (rank_by_minors([r[: j + 1] for r in rows]) == before)
        if rel is not None:
            assert rel[j] == 1 and all(k <= j for k in rel)
            A = RationalMatrix.from_rows(rows)
            assert matvec(A, [rel.get(k, 0) for k in range(A.cols)]) == [Fraction(0)] * A.rows


def test_det_and_inverse():
    A = [[2, 1], [1, 1]]
    assert det_fraction(A) == 1
    N, d = inverse_int(A)
    assert d == 1
    assert RationalMatrix.from_rows(A) * RationalMatrix.from_rows(N) == RationalMatrix.identity(2)


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(NoSolutionError):
        inverse_int([[1, 2], [2, 4]])


def _check_inverse(m: list[list[int]]) -> None:
    """inverse_int(m) is the ColumnSpan inverse as N / d in lowest terms, d > 0."""
    N, d = inverse_int(m)
    assert d > 0
    assert gcd(d, *(x for row in N for x in row)) == 1
    assert [[Fraction(x, d) for x in row] for row in N] == column_span_inverse(m)


def _random_matrix(rng: random.Random, n: int) -> list[list[int]]:
    return [
        [rng.choice([0, rng.randint(-9, 9), rng.randint(-(10**6), 10**6)]) for _ in range(n)]
        for _ in range(n)
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_integer_inverse_matches_column_span(n):
    rng = random.Random(n)
    checked = 0
    while checked < 12:
        m = _random_matrix(rng, n)
        if checked % 3 == 0 and n > 1:
            m[0][0] = 0  # the first pivot needs a row swap
        if det_int([row[:] for row in m]) == 0:
            continue
        _check_inverse(m)
        checked += 1


def test_integer_inverse_swaps_at_every_step():
    # every leading pivot is zero: the anti-diagonal and its neighbours
    _check_inverse([[0, 0, 0, 3], [0, 0, 5, 1], [0, 7, 2, 0], [2, 1, 0, 0]])
    _check_inverse([[0, 1], [1, 0]])
    # a large determinant, so N / d is not reduced by chance
    _check_inverse([[10**20 + 1, 3], [7, -(10**15)]])


@pytest.mark.parametrize("n", range(1, 9))
def test_integer_inverse_of_singular_matrices_raises(n):
    rng = random.Random(100 + n)
    for _ in range(6):
        m = _random_matrix(rng, n)
        # one row a combination of the others, or (n = 1) the zero matrix
        i = rng.randrange(n)
        others = [r for r in range(n) if r != i] or [i]
        a, b = (rng.randint(-3, 3), rng.randint(-3, 3)) if n > 1 else (0, 0)
        m[i] = [a * x + b * y for x, y in zip(m[others[0]], m[others[-1]])]
        assert det_int([row[:] for row in m]) == 0
        with pytest.raises(NoSolutionError):
            inverse_int(m)
        with pytest.raises(NoSolutionError):
            column_span_inverse(m)


def test_det_fraction_matches_cofactor():
    rows = [
        [Fraction(1, 2), Fraction(2), Fraction(0)],
        [Fraction(3), Fraction(-1, 3), Fraction(1)],
        [Fraction(0), Fraction(5), Fraction(2, 7)],
    ]
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    cof = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    assert det_fraction(rows) == cof
