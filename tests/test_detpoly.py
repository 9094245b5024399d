import random
from fractions import Fraction
from math import prod

import pytest

from lerayfront.detpoly import _grid_values, degree_bounds, det_interpolate, det_poly_matrix
from lerayfront.errors import ResourceLimitError
from lerayfront.linalg import det_fraction
from lerayfront.poly import MultiPoly

RING = ("y1", "y2")
Y1 = MultiPoly.variable(RING, "y1")
Y2 = MultiPoly.variable(RING, "y2")
ONE = MultiPoly.constant(RING, 1)
ZERO = MultiPoly.zero(RING)


def test_diagonal():
    six_y = Y1.scale(6)
    M = [[six_y, ZERO], [ZERO, six_y]]
    assert det_poly_matrix(M) == Y1 * Y1 * 36


def test_symbolic_2x2():
    ring = ("a", "b", "c", "d")
    a, b, c, d = (MultiPoly.variable(ring, v) for v in ring)
    M = [[a, b], [c, d]]
    assert det_poly_matrix(M) == a * d - b * c
    assert det_interpolate(M, degree_bounds(M)) == a * d - b * c


def _random_poly(rng, max_deg=2, ring=RING, max_den=1):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, max_deg) for _ in ring)
        num = rng.randint(-5, 5)
        terms[e] = Fraction(num, rng.randint(1, max_den) if max_den > 1 else 1)
    return MultiPoly(ring, terms)


def test_strategies_agree_random_4x4():
    rng = random.Random(42)
    M = [[_random_poly(rng) for _ in range(4)] for _ in range(4)]
    d1 = det_poly_matrix(M)
    d2 = det_interpolate(M, degree_bounds(M))
    assert d1 == d2


def test_strategies_agree_on_rational_entries():
    # denominators up to 6 exercise the integer row scaling of the grid
    rng = random.Random(5)
    for _ in range(3):
        M = [[_random_poly(rng, max_den=6) for _ in range(3)] for _ in range(3)]
        assert det_interpolate(M, degree_bounds(M)) == det_poly_matrix(M)


def test_strategies_agree_in_one_variable():
    rng = random.Random(9)
    ring = ("y",)
    M = [[_random_poly(rng, 3, ring, max_den=4) for _ in range(4)] for _ in range(4)]
    d = det_poly_matrix(M)
    assert det_interpolate(M, degree_bounds(M)) == d
    assert d.ring == ring


def test_interpolate_in_the_constant_ring():
    three = MultiPoly.constant((), 3)
    assert det_interpolate([[three]], degree_bounds([[three]])) == three


@pytest.mark.parametrize("ring", [(), ("y",), ("a", "b", "c")], ids=len)
def test_grid_values_match_determinants_of_evaluated_entries(ring):
    rng = random.Random(len(ring))
    M = [[_random_poly(rng, 2, ring, max_den=6) for _ in range(3)] for _ in range(3)]
    bounds = degree_bounds(M)
    values = _grid_values(M, ring, bounds)
    assert len(values) == prod(b + 1 for b in bounds)
    for point, value in values.items():
        at = {v: Fraction(a) for v, a in zip(ring, point)}
        assert value == det_fraction([[p.eval_exact(at) for p in row] for row in M])


def test_interpolation_grid_cap():
    M = [[Y1 * Y2, ONE], [ONE, Y1 * Y2]]
    assert det_interpolate(M, degree_bounds(M), max_points=9) == Y1**2 * Y2**2 - ONE
    with pytest.raises(ResourceLimitError):
        det_interpolate(M, degree_bounds(M), max_points=8)


def test_multiplicativity():
    rng = random.Random(7)
    for _ in range(3):
        A = [[_random_poly(rng, 1) for _ in range(2)] for _ in range(2)]
        B = [[_random_poly(rng, 1) for _ in range(2)] for _ in range(2)]
        AB = [
            [
                A[i][0] * B[0][j] + A[i][1] * B[1][j]
                for j in range(2)
            ]
            for i in range(2)
        ]
        assert det_poly_matrix(AB) == det_poly_matrix(A) * det_poly_matrix(B)


def test_zero_column():
    M = [[ZERO, Y1], [ZERO, Y2]]
    assert det_poly_matrix(M).is_zero()


def test_row_swap_pivoting():
    M = [[ZERO, ONE], [ONE, ZERO]]
    assert det_poly_matrix(M) == -ONE


def test_rejects_non_square():
    with pytest.raises(ValueError):
        det_poly_matrix([[ONE, ONE]])
