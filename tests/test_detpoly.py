import random
from fractions import Fraction
from itertools import product
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lerayfront import detpoly
from lerayfront.detpoly import (
    _lagrange,
    _row_scaled,
    degree_bounds,
    det_interpolate,
    det_poly_matrix,
)
from lerayfront.errors import ResourceLimitError
from lerayfront.linalg import RationalMatrix, det_fraction, det_int, solve_linear_exact
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


@pytest.mark.parametrize("ring", [(), ("y",), ("a", "b", "c"), ("a", "b", "c", "d")], ids=len)
def test_grid_values_match_determinants_of_evaluated_entries(ring):
    # axes of uneven lengths, one with a negative value, catch a walk that
    # swaps or reverses axes; the zero entry has no coefficients to walk
    rng = random.Random(len(ring))
    M = [[_random_poly(rng, 2, ring, max_den=6) for _ in range(3)] for _ in range(3)]
    M[1][2] = MultiPoly.zero(ring)
    axes = [range(-1, 2 + k) for k in range(len(ring))]
    evaluator, scale = _row_scaled(M, ring)
    values = [det_int(mats[0]) for mats in evaluator.grid(axes)]
    points = list(product(*axes))
    assert len(values) == len(points) == prod(len(axis) for axis in axes)
    for point, value in zip(points, values):
        at = {v: Fraction(a) for v, a in zip(ring, point)}
        assert Fraction(value, scale) == det_fraction([[p.eval_exact(at) for p in row] for row in M])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-40, 40), min_size=1, max_size=12, unique=True).flatmap(
        lambda nodes: st.tuples(
            st.just(nodes),
            st.lists(
                st.fractions(-50, 50, max_denominator=12), min_size=len(nodes), max_size=len(nodes)
            ),
        )
    )
)
def test_interp_1d_solves_the_vandermonde_system(case):
    # den times the coefficients from the integer Lagrange matrix, against an
    # exact solve of sum_j c_j nodes[i]^j = vals[i]
    nodes, vals = case
    b = len(vals) - 1
    den = lcm(*(v.denominator for v in vals))
    cols, w = _lagrange(nodes)
    scaled = [sum(int(v * den) * c for v, c in zip(vals, col)) for col in cols]
    V = RationalMatrix(b + 1, b + 1, [[Fraction(x**j) for j in range(b + 1)] for x in nodes])
    coeffs = solve_linear_exact(V, vals).particular
    assert [Fraction(c, den * w) for c in scaled] == coeffs


def test_interpolation_grid_cap(monkeypatch):
    M = [[Y1 * Y2, ONE], [ONE, Y1 * Y2]]
    monkeypatch.setattr(detpoly, "GRID_MAX_POINTS", 9)
    assert det_interpolate(M, degree_bounds(M)) == Y1**2 * Y2**2 - ONE
    monkeypatch.setattr(detpoly, "GRID_MAX_POINTS", 8)
    with pytest.raises(ResourceLimitError):
        det_interpolate(M, degree_bounds(M))


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
