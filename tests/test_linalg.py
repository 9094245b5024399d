from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lerayfront.errors import NoSolutionError
from lerayfront.linalg import (
    RationalMatrix,
    char_poly,
    det_fraction,
    rational_eigenvalues,
    solve_linear_exact,
)


def test_identity_solve():
    A = RationalMatrix.identity(2)
    sol = solve_linear_exact(A, [Fraction(1), Fraction(2)])
    assert sol.particular == [Fraction(1), Fraction(2)]
    assert sol.nullspace == []


def test_underdetermined():
    A = RationalMatrix.from_rows([[1, 1]])
    sol = solve_linear_exact(A, [Fraction(3)])
    x = sol.particular
    assert x[0] + x[1] == 3
    assert len(sol.nullspace) == 1
    v = sol.nullspace[0]
    assert v[0] + v[1] == 0 and v != [0, 0]


def test_inconsistent():
    A = RationalMatrix.from_rows([[1], [1]])
    with pytest.raises(NoSolutionError):
        solve_linear_exact(A, [Fraction(1), Fraction(2)])


rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@settings(max_examples=40)
@given(st.lists(st.lists(rational, min_size=3, max_size=3), min_size=2, max_size=4), st.lists(rational, min_size=2, max_size=4))
def test_solutions_satisfy_system(rows, b):
    if len(rows) != len(b):
        b = (b * len(rows))[: len(rows)]
    A = RationalMatrix.from_rows(rows)
    try:
        sol = solve_linear_exact(A, b)
    except NoSolutionError:
        return
    assert A.matvec(sol.particular) == [Fraction(x) for x in b]
    for v in sol.nullspace:
        assert A.matvec(v) == [Fraction(0)] * A.rows


def test_det_and_inverse():
    A = RationalMatrix.from_rows([[2, 1], [1, 1]])
    assert A.det() == 1
    Ai = A.inverse()
    assert A * Ai == RationalMatrix.identity(2)


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(NoSolutionError):
        RationalMatrix.from_rows([[1, 2], [2, 4]]).inverse()


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


def test_char_poly_and_eigenvalues():
    A = RationalMatrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(-1, 3)]])
    cp = char_poly(A)
    # (x - 1/2)(x + 1/3) = x^2 - x/6 - 1/6
    assert cp == [Fraction(-1, 6), Fraction(-1, 6), Fraction(1)]
    assert rational_eigenvalues(A) == [Fraction(-1, 3), Fraction(1, 2)]


def test_eigenvalues_with_hints():
    A = RationalMatrix.from_rows([[5, 1], [0, 5]])
    assert rational_eigenvalues(A, hints=[Fraction(5)]) == [5, 5]
