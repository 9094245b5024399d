"""Determinants of matrices with multivariate polynomial entries.

``det_poly_matrix`` (``det_bareiss``) is fraction-free elimination in the
polynomial ring, with exact divisions guaranteed by the Sylvester identity;
the symbolic discriminant and the Jacobian minors (``phase``) use it.

``det_interpolate`` takes integer determinants on the grid 0..bounds[i] of
each variable and recovers det M by tensor-grid interpolation one axis at a
time, all in Python ints: the grid's one denominator is cleared first, each
axis runs forward differences and turns them into monomial coefficients by
Stirling numbers of the first kind with weights b!/k!, and one division by
the product of the b! and the denominator ends it.  ``wavefront`` runs it
with probed degree bounds for every front determinant; the tests run it
with the safe bounds of ``degree_bounds`` against Bareiss.

``line_determinant`` restricts det M to a line y = a + b*tau the same way:
integer determinants at tau = 0..bound, one 1-D interpolation
(``oracle.line_check``).

``_IntegerEvaluator`` is the one evaluator of polynomial matrices at exact
points.  ``at`` takes one rational point (the flatness oracle in
``gaussmanin``, the points of a line); ``grid`` walks an integer grid axis
by axis, so that neighbouring points share the work of their common prefix
(the interpolation grid and the degree probes).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, product
from math import factorial, lcm, prod
from operator import mul, sub
from typing import Iterator, Sequence

from .errors import ResourceLimitError
from .linalg import det_int
from .poly import MultiPoly

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
    return [_row_col_bound(M, lambda p: p.degree_in(v)) for v in M[0][0].ring]


def _row_col_bound(M: Sequence[Sequence[MultiPoly]], degree) -> int:
    """min(sum of row maxima, sum of column maxima) of degree(entry): bounds deg det(M)."""
    D = [[degree(p) for p in row] for row in M]
    return min(sum(map(max, D)), sum(map(max, zip(*D))))


def det_interpolate(M: Sequence[Sequence[MultiPoly]], bounds: Sequence[int]) -> MultiPoly:
    """Determinant by grid evaluation and tensor interpolation.

    ``bounds`` are per-variable degree bounds of det(M) (``degree_bounds``
    gives safe ones); the grid has prod(bounds[i]+1) points and must stay
    within ``GRID_MAX_POINTS``.
    """
    npts = prod(b + 1 for b in bounds)
    if npts > GRID_MAX_POINTS:
        raise ResourceLimitError(
            f"interpolation grid of {npts} points exceeds cap {GRID_MAX_POINTS}",
            kind="interpolation-grid",
            limit=GRID_MAX_POINTS,
        )
    values, scale = _grid_values(M, M[0][0].ring, [range(b + 1) for b in bounds])
    return _tensor_interpolate(values, bounds, M[0][0].ring, scale)


def line_determinant(
    M: list[list[MultiPoly]], ring: tuple[str, ...], a: list[int], b: list[int]
) -> MultiPoly:
    """det M(a + b*tau) in the ring (tau,), M's variables in ``ring`` order.

    Its degree is at most the row/column total-degree bound of M, so integer
    determinants at tau = 0..bound, interpolated once, give it exactly.
    """
    bound = _row_col_bound(M, MultiPoly.total_degree)
    points = [[al + bl * k for al, bl in zip(a, b)] for k in range(bound + 1)]
    values, scale = _det_values(M, ring, points)
    return _tensor_interpolate(values, [bound], ("tau",), scale)


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
    """Integer polynomial matrices in one ring, evaluated together at exact points.

    ``at`` takes one rational point.  The distinct monomials of all entries
    are collected once.  At a point with y_v = a_v / b_v (b_v > 0) each
    monomial is scaled by prod_v b_v^maxdeg_v, which makes it an integer, so
    every entry of every matrix is an integer dot product: its value times
    that common scale.  At an integer point (plain ints work) the scale is 1.

    ``grid`` takes one list of integers per variable and walks the grid they
    span.
    """

    def __init__(self, mats: list[list[list[dict]]], ring: tuple[str, ...]):
        self.ring = ring
        self.shapes = [(len(mat), len(mat[0])) for mat in mats]
        index: dict[tuple[int, ...], int] = {}
        self.terms = [
            (tuple(index.setdefault(e, len(index)) for e in p), tuple(p.values()))
            for mat in mats
            for row in mat
            for p in row
        ]
        self.monomials = list(index)
        self.maxdeg = [max((e[v] for e in index), default=0) for v in range(len(ring))]

    def _matrices(self, values: list[int], start: int = 0) -> list[list[list[int]]]:
        """The entry values from ``start`` on, cut back into the matrices (fresh lists)."""
        out = []
        for rows, cols in self.shapes:
            out.append([values[k : k + cols] for k in range(start, start + rows * cols, cols)])
            start += rows * cols
        return out

    def at(self, point: dict) -> list[list[list[int]]]:
        """Every matrix at ``point``, each entry times the common scale."""
        powers = []  # powers[v][k] = a_v^k * b_v^(maxdeg_v - k)
        for v, top in zip(self.ring, self.maxdeg):
            a, b = point[v].numerator, point[v].denominator
            powers.append([a**k * b ** (top - k) for k in range(top + 1)])
        table = [prod(powers[v][k] for v, k in enumerate(e)) for e in self.monomials]
        get = table.__getitem__
        return self._matrices([sum(map(mul, cs, map(get, idx))) for idx, cs in self.terms])

    def grid(self, axes: Sequence[Sequence[int]]) -> Iterator[list[list[list[int]]]]:
        """Every matrix at every point of axes[0] x ... x axes[-1], last axis fastest.

        Entries are evaluated one axis at a time, so all points under one
        prefix of the grid share that prefix's work.  On the last axis each
        entry is a short coefficient vector, dotted with the powers of every
        value of that axis at once (one product per term, running sums per
        entry); the prefix's points are then handed out one by one, so the
        grid's matrices are never held together.
        """
        if not axes:
            yield self.at({})
            return
        coefficients, plan = self._walk_plan(len(axes))
        *outer, last = axes
        kexp, ends = plan[-1]
        m, n = len(kexp), len(self.terms)
        powers = [x**k for x in last for k in kexp]
        his = [j * m + end for j in range(len(last)) for end in ends]
        los = [j * m + end for j in range(len(last)) for end in [0, *ends[:-1]]]

        def walk(values: list[int], axis: int):
            if axis == len(outer):
                cums = list(accumulate(map(mul, values * len(last), powers), initial=0))
                flat = list(map(sub, map(cums.__getitem__, his), map(cums.__getitem__, los)))
                for j in range(0, len(flat), n):
                    yield self._matrices(flat, j)
                return
            kexp, ends = plan[axis]
            starts = [0, *ends[:-1]]
            for x in outer[axis]:
                pw = [x**k for k in range(self.maxdeg[axis] + 1)]
                cums = list(accumulate(map(mul, values, map(pw.__getitem__, kexp)), initial=0))
                yield from walk(
                    list(map(sub, map(cums.__getitem__, ends), map(cums.__getitem__, starts))),
                    axis + 1,
                )

        yield from walk(coefficients, 0)

    def _walk_plan(self, nvars: int) -> tuple[list[int], list[tuple[list[int], list[int]]]]:
        """The entries' coefficients in walk order, and one step per axis.

        Before axis a is evaluated, each value belongs to one (entry,
        exponents from a on) pair; the pairs are sorted by entry and then by
        their exponents read from the last variable back, so the pairs that
        differ only at axis a are adjacent and their groups come out in the
        same order for the next axis.  A step holds each value's exponent at
        its axis and the end of each group; the last axis groups by entry.
        """
        terms = sorted(
            (
                (i, self.monomials[j], c)
                for i, (idx, cs) in enumerate(self.terms)
                for j, c in zip(idx, cs)
            ),
            key=lambda term: (term[0], term[1][::-1]),
        )
        items = [(i, e) for i, e, _ in terms]
        coefficients = [c for _, _, c in terms]
        plan = []
        for axis in range(nvars):
            groups = [(i, e[1:]) for i, e in items]
            kexp = [e[0] for _, e in items]
            if axis < nvars - 1:
                items = list(dict.fromkeys(groups))
            else:
                items = [(i, ()) for i in range(len(self.terms))]
            sizes = Counter(groups)
            plan.append((kexp, list(accumulate(sizes[g] for g in items))))
        return coefficients, plan


def _row_scaled(M, ring) -> tuple[_IntegerEvaluator, int]:
    """An evaluator of M with each row scaled to integers, and the product of the scales.

    Each row gets its own denominator, which keeps the operands of det_int
    smaller than one common denominator would; det M = det_int / scale.
    """
    dens = [lcm(*(c.denominator for p in row for c in p.terms.values())) for row in M]
    scaled = [[p.scale(d) for p in row] for row, d in zip(M, dens)]
    return _IntegerEvaluator(_integer_entries([scaled]), ring), prod(dens)


def _det_values(M, ring, points) -> tuple[list[int], int]:
    """det M times the scale at each integer point (coordinates in ring order), and the scale."""
    evaluator, scale = _row_scaled(M, ring)
    return [det_int(evaluator.at(dict(zip(ring, pt)))[0]) for pt in points], scale


def _grid_values(M, ring, axes) -> tuple[list[int], int]:
    """det M times the scale on the grid axes[0] x ... (last axis fastest), and the scale."""
    evaluator, scale = _row_scaled(M, ring)
    return [det_int(mats[0]) for mats in evaluator.grid(axes)], scale


def _tensor_interpolate(
    values: list[int], bounds: Sequence[int], ring, den: int
) -> MultiPoly:
    """The polynomial that is values / den on the grid 0..bounds[i], last axis fastest.

    ``_interp_1d`` transforms each axis in place (in ints, times bounds[axis]!);
    one division by den * prod(bounds[i]!) per coefficient ends it.
    """
    data = list(values)
    stride = 1
    for b in reversed(bounds):
        span = stride * (b + 1)
        cols = _falling_to_monomial(b)
        for start in range(0, len(data), span):
            for r in range(start, start + stride):
                data[r : r + span : stride] = _interp_1d(data[r : r + span : stride], cols)
        stride = span
    den *= prod(map(factorial, bounds))
    exponents = product(*(range(b + 1) for b in bounds))
    return MultiPoly(ring, {e: Fraction(c, den) for e, c in zip(exponents, data) if c})


def _interp_1d(vals: Sequence[int], cols: list[list[int]] | None = None) -> list[int]:
    """b! times the monomial coefficients of the polynomial through (i, vals[i]), i = 0..b.

    Forward differences give the Newton form sum_k D^k(0) x(x-1)...(x-k+1) / k!;
    ``cols`` (``_falling_to_monomial(b)``, passed in when many lines share
    it) expands it with integer weights b!/k!.
    """
    d = list(vals)
    for level in range(1, len(d)):
        d[level:] = map(sub, d[level:], d[level - 1 : -1])
    if cols is None:
        cols = _falling_to_monomial(len(d) - 1)
    return [sum(map(mul, d[j:], col)) for j, col in enumerate(cols)]


def _falling_to_monomial(b: int) -> list[list[int]]:
    """Column j holds (b!/k!) * s(k, j) for k = j..b.

    s(k, j) are the signed Stirling numbers of the first kind, the monomial
    coefficients of the falling factorial x(x-1)...(x-k+1);
    s(k+1, j) = s(k, j-1) - k * s(k, j).
    """
    cols: list[list[int]] = [[] for _ in range(b + 1)]
    stirling = [1]  # s(k, 0..k)
    weight = factorial(b)  # b!/k!
    for k in range(b + 1):
        for j, s in enumerate(stirling):
            cols[j].append(weight * s)
        stirling = [
            (stirling[j - 1] if j else 0) - (k * stirling[j] if j <= k else 0)
            for j in range(k + 2)
        ]
        weight //= k + 1
    return cols
