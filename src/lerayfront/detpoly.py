"""Determinants of matrices with multivariate polynomial entries.

``det_poly_matrix`` (``det_bareiss``) is fraction-free elimination in the
polynomial ring, with exact divisions guaranteed by the Sylvester identity;
every symbolic determinant (the discriminant, small pullbacks) uses it.

``det_interpolate`` takes integer determinants on the grid 0..bounds[i] of
each variable and recovers det M by tensor-grid Newton interpolation one
axis at a time.  ``wavefront`` runs it with probed degree bounds; the tests
run it with the safe bounds of ``degree_bounds`` against Bareiss.

``_IntegerEvaluator`` is the one evaluator of polynomial matrices at exact
points: the grid, the degree probes along lines (``_det_values``) and the
flatness oracle in ``gaussmanin`` all go through it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm, prod
from operator import mul
from typing import Sequence

from .errors import ResourceLimitError
from .linalg import det_int
from .poly import MultiPoly

ZERO = Fraction(0)
# Most integer determinants one interpolation grid may take; the flagship
# front's grid has 17,226 points.
GRID_MAX_POINTS = 400_000


def det_poly_matrix(M: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Exact determinant of a square MultiPoly matrix, by Bareiss."""
    n = len(M)
    if n == 0:
        raise ValueError("empty matrix")
    ring = M[0][0].ring
    for row in M:
        if len(row) != n:
            raise ValueError("matrix is not square")
        for p in row:
            if p.ring != ring:
                raise ValueError("mixed rings in matrix")
    return det_bareiss(M)


def det_bareiss(M: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    n = len(M)
    ring = M[0][0].ring
    m = [[p for p in row] for row in M]
    sign = 1
    prev = MultiPoly.constant(ring, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            piv = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if piv is None:
                return MultiPoly.zero(ring)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                num = pkk * m[i][j] - mik * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = MultiPoly.zero(ring)
        prev = pkk
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


def degree_bounds(M: Sequence[Sequence[MultiPoly]]) -> list[int]:
    """Safe per-variable degree bounds for det(M): min of row and column sums."""
    n = len(M)
    ring = M[0][0].ring
    bounds = []
    for v in ring:
        row_sum = sum(max(M[i][j].degree_in(v) for j in range(n)) for i in range(n))
        col_sum = sum(max(M[i][j].degree_in(v) for i in range(n)) for j in range(n))
        bounds.append(min(row_sum, col_sum))
    return bounds


def det_interpolate(
    M: Sequence[Sequence[MultiPoly]],
    bounds: Sequence[int],
    max_points: int = GRID_MAX_POINTS,
) -> MultiPoly:
    """Determinant by grid evaluation and tensor Newton interpolation.

    ``bounds`` are per-variable degree bounds of det(M) (``degree_bounds``
    gives safe ones); the grid has prod(bounds[i]+1) points and must stay
    within ``max_points``.
    """
    npts = prod(b + 1 for b in bounds)
    if npts > max_points:
        raise ResourceLimitError(
            f"interpolation grid of {npts} points exceeds cap {max_points}",
            kind="interpolation-grid",
            limit=max_points,
        )
    ring = M[0][0].ring
    return _tensor_interpolate(_grid_values(M, ring, bounds), bounds, ring)


def _integer_entries(mats: list[list[list[MultiPoly]]]) -> list[list[list[dict]]]:
    """The matrices' entries as {exponents: int}, all over one common denominator."""
    den = lcm(
        *(c.denominator for mat in mats for row in mat for p in row for c in p.terms.values())
    )
    return [
        [
            [{e: c.numerator * (den // c.denominator) for e, c in p.terms.items()} for p in row]
            for row in mat
        ]
        for mat in mats
    ]


def _partial_entries(mat: list[list[dict]], i: int) -> list[list[dict]]:
    """Derivative in variable number ``i`` of a matrix from ``_integer_entries``."""
    return [
        [{e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in p.items() if e[i]} for p in row]
        for row in mat
    ]


class _IntegerEvaluator:
    """Integer polynomial matrices in one ring, evaluated together at rational points.

    The distinct monomials of all entries are collected once.  At a point
    with y_v = a_v / b_v (b_v > 0) each monomial is scaled by
    prod_v b_v^maxdeg_v, which makes it an integer, so every entry of every
    matrix is an integer dot product: its value times that common scale.
    At an integer point (plain ints work) the scale is 1.
    """

    def __init__(self, mats: list[list[list[dict]]], ring: tuple[str, ...]):
        self.ring = ring
        index: dict[tuple[int, ...], int] = {}
        self.mats = [
            [
                [
                    (tuple(index.setdefault(e, len(index)) for e in p), tuple(p.values()))
                    for p in row
                ]
                for row in mat
            ]
            for mat in mats
        ]
        self.monomials = list(index)
        self.maxdeg = [max((e[v] for e in index), default=0) for v in range(len(ring))]

    def at(self, point: dict) -> list[list[list[int]]]:
        """Every matrix at ``point``, each entry times the common scale."""
        powers = []  # powers[v][k] = a_v^k * b_v^(maxdeg_v - k)
        for v, top in zip(self.ring, self.maxdeg):
            a, b = point[v].numerator, point[v].denominator
            powers.append([a**k * b ** (top - k) for k in range(top + 1)])
        table = [prod(powers[v][k] for v, k in enumerate(e)) for e in self.monomials]
        get = table.__getitem__
        return [
            [[sum(map(mul, cs, map(get, idx))) for idx, cs in row] for row in mat]
            for mat in self.mats
        ]


def _det_values(M, ring, points) -> list[Fraction]:
    """det M at each integer point, given as values in ring order.

    Each row is scaled to integers by its own denominator, which keeps the
    operands of det_int smaller than one common denominator would.
    """
    dens = [lcm(*(c.denominator for p in row for c in p.terms.values())) for row in M]
    scaled = [[p.scale(d) for p in row] for row, d in zip(M, dens)]
    evaluator = _IntegerEvaluator(_integer_entries([scaled]), ring)
    scale = prod(dens)
    return [
        Fraction(det_int(evaluator.at(dict(zip(ring, pt)))[0]), scale) for pt in points
    ]


def _grid_values(M, ring, bounds) -> dict[tuple[int, ...], Fraction]:
    """det M at every point of the integer grid 0..bounds[i] of each variable."""
    points = list(product(*(range(b + 1) for b in bounds)))
    return dict(zip(points, _det_values(M, ring, points)))


def _tensor_interpolate(
    values: dict[tuple[int, ...], Fraction], bounds: Sequence[int], ring
) -> MultiPoly:
    """Tensor-grid interpolation by 1-D Newton transforms along each axis."""
    nvars = len(bounds)
    data = dict(values)
    # transform axis by axis, innermost last index first
    for axis in range(nvars - 1, -1, -1):
        out: dict[tuple[int, ...], Fraction] = {}
        prefix_groups: dict[tuple, list] = {}
        b = bounds[axis]
        for key, val in data.items():
            rest = key[:axis] + key[axis + 1 :]
            prefix_groups.setdefault(rest, [ZERO] * (b + 1))[key[axis]] = val
        for rest, vals in prefix_groups.items():
            coeffs = _interp_1d(vals)
            for k, c in enumerate(coeffs):
                if c != 0:
                    out[rest[:axis] + (k,) + rest[axis:]] = c
        data = out
    terms = {e: c for e, c in data.items() if c != 0}
    return MultiPoly(ring, terms)


def _interp_1d(vals: list[Fraction]) -> list[Fraction]:
    """Monomial coefficients of the polynomial through (i, vals[i]), i = 0..n-1."""
    n = len(vals)
    dd = [Fraction(x) for x in vals]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / level
    coeffs = [dd[n - 1]]
    for i in range(n - 2, -1, -1):
        nxt = [ZERO] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] += c * (-i)
        nxt[0] += dd[i]
        coeffs = nxt
    return coeffs
