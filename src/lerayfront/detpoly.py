"""Determinants of matrices with multivariate polynomial entries.

``det_poly_matrix`` (``det_bareiss``) is fraction-free elimination in the
polynomial ring, with exact divisions guaranteed by the Sylvester identity;
the symbolic discriminant and the Jacobian minors (``phase``) use it.

``det_probed`` is the front pullback's determinant (``wavefront``): it
peels single-entry rows and columns, divides out common exponent factors,
probes each variable's degree, valuation v and exponent step g,
interpolates on the grid those leave, checks the result exactly at random
rational points and falls back to the safe bounds of ``degree_bounds``.
One integer evaluator of the core serves all of it.  ``det_interpolate``
is the same grid on given bounds; the tests run it with safe bounds
against Bareiss.  The grid takes integer determinants on (deg - v) // g + 1
integer nodes of each variable, divides each by the nodes' powers
prod x_i^v_i exactly, and interpolates one axis at a time in u = x^g, all
in Python ints: each axis applies the integer Lagrange matrix of its
nodes (``_lagrange``), and one division by the product of the matrices'
denominators and the row scale ends it.

``line_determinant`` restricts det M to a line y = a + b*tau with the same
kernel: integer determinants at tau = 0..bound, one 1-D interpolation
(``oracle.line_check``).

``_IntegerEvaluator`` is the one evaluator of polynomial matrices at exact
points.  ``at`` takes one rational point (the flatness oracle in
``gaussmanin``, the points of a line, the check points of ``det_probed``);
``grid`` walks an integer grid axis by axis, so that neighbouring points
share the work of their common prefix (the interpolation grid and the
degree probes).
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from math import gcd, lcm, prod
from operator import floordiv, mul, sub
from typing import Iterator, Sequence

from .errors import MismatchError, ResourceLimitError
from .linalg import det_int
from .poly import MultiPoly

# Most integer determinants one interpolation grid may take; the flagship
# front's grid has 6,480 points at s = 1 and 97,200 with symbolic s.
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
    evaluator, scale = _row_scaled(M, M[0][0].ring)
    return _interpolate_grid(evaluator, scale, [range(b + 1) for b in bounds])


def det_probed(M: list[list[MultiPoly]], seed: int = 0) -> tuple[MultiPoly, dict]:
    """det M by probed-exponent grid interpolation, checked exactly; and the path taken.

    Rows and columns with one nonzero entry are peeled off exactly, and
    exponents with a common factor in a variable are divided by it.  The
    core left is evaluated by one row-scaled integer evaluator: the probes
    (two random axis-parallel lines per variable give its degree, its
    valuation v and the step g of its exponents), the grid of
    (degree - v) // g + 1 nodes per variable, and four random rational
    points where the interpolant must equal det_int of the evaluated core.
    When a grid value is not divisible by the nodes' powers prod y_i^v_i or
    a point disagrees, the grid is taken again on the safe bounds (v = 0,
    g = 1); when that grid exceeds ``GRID_MAX_POINTS``, MismatchError.
    ``random.Random(seed)`` draws the probes first, then the check points.

    The record (``FrontResult.strategy``) holds the engine, the matrix size,
    the peeled and core sizes and, when a core is left, its exponent parity,
    the safe and probed degree bounds, the probed valuations and steps, the
    points of the probed grid and whether the safe-bounds fallback ran.
    """
    ring = M[0][0].ring
    rng = random.Random(seed)
    factor, sign, core = _peel_single_entries(M)
    record = {
        "engine": "probed grid",
        "size": len(M),
        "peeled": len(M) - len(core),
        "core": len(core),
    }
    if not core:
        return factor.scale(sign), record
    # per-variable gcd of the exponents of all entries, 1 where all are 0
    parity = [
        gcd(*(e[i] for row in core for p in row for e in p.terms)) or 1 for i in range(len(ring))
    ]
    compressed = any(g > 1 for g in parity)
    if compressed:
        core = [[_map_exponents(p, floordiv, parity) for p in row] for row in core]
    safe = degree_bounds(core)
    evaluator, scale = _row_scaled(core, ring)
    bounds, valuations, steps = _probe_degrees(evaluator, rng, safe)
    exponents = [range(v, b + 1, g) for b, v, g in zip(bounds, valuations, steps)]
    record.update(
        parity=parity,
        safe_bounds=safe,
        probed_bounds=bounds,
        probed_valuations=valuations,
        probed_steps=steps,
        grid_points=prod(map(len, exponents)),
        fallback=False,
    )

    def agrees_at_a_random_point() -> bool:
        pt = {v: Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for v in ring}
        # the evaluator's entries are the row-scaled core's times S
        S = prod(pt[v].denominator ** top for v, top in zip(ring, evaluator.maxdeg))
        return det_int(evaluator.at(pt)[0]) == det.eval_exact(pt) * scale * S ** len(core)

    det = _interpolate_grid(evaluator, scale, exponents)
    if det is None or not all(agrees_at_a_random_point() for _ in range(4)):
        try:
            det = _interpolate_grid(evaluator, scale, [range(b + 1) for b in safe])
        except ResourceLimitError as err:
            raise MismatchError(
                "probed interpolation failed verification and safe bounds "
                f"exceed the grid cap {err.limit}"
            ) from None
        record["fallback"] = True
    if compressed:
        det = _map_exponents(det, mul, parity)
    return (factor * det).scale(sign), record


def _peel_single_entries(M: list[list[MultiPoly]]):
    """Laplace-expand along rows/columns with exactly one nonzero entry.

    Returns (factor polynomial, sign, reduced matrix); repeated until no
    such row or column remains.  Exact, and it shrinks both the matrix and
    the interpolation grid.
    """
    ring = M[0][0].ring
    factor = MultiPoly.constant(ring, 1)
    sign = 1
    m = [list(row) for row in M]
    while m:
        n = len(m)
        rows = [[j for j in range(n) if not m[i][j].is_zero()] for i in range(n)]
        cols = [[i for i in range(n) if not m[i][j].is_zero()] for j in range(n)]
        if not all(rows) or not all(cols):
            return MultiPoly.zero(ring), 1, []
        single = [(i, nz[0]) for i, nz in enumerate(rows) if len(nz) == 1]
        single += [(nz[0], j) for j, nz in enumerate(cols) if len(nz) == 1]
        if not single:
            break
        i, j = single[0]
        factor = factor * m[i][j]
        sign *= (-1) ** (i + j)
        m = [[m[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
    return factor, sign, m


def _map_exponents(p: MultiPoly, op, parity: list[int]) -> MultiPoly:
    """p with each exponent e_v replaced by op(e_v, parity[v])."""
    return MultiPoly(p.ring, {tuple(map(op, e, parity)): c for e, c in p.terms.items()})


def _probe_degrees(
    evaluator: _IntegerEvaluator, rng: random.Random, safe: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """Per-variable degree, valuation and exponent step of the evaluator's determinant.

    Along each axis-parallel line the determinant is taken at safe_bound+1
    nodes (a grid whose other axes hold one value each) and interpolated as
    a univariate.  Over the two random lines of a variable, the largest
    exponent with a nonzero coefficient is its degree, the smallest is its
    valuation v, and the gcd of their differences from v is its step (1
    when that gcd is 0).
    """
    degrees, valuations, steps = [], [], []
    for k in range(len(safe)):
        cols = _lagrange(range(safe[k] + 1))[0]
        found = set()
        for _ in range(2):
            axes = [[rng.randint(2, 19)] for _ in range(len(safe) - 1)]
            axes.insert(k, range(safe[k] + 1))
            values = [det_int(mats[0]) for mats in evaluator.grid(axes)]
            found.update(j for j, col in enumerate(cols) if sum(map(mul, values, col)))
        v = min(found, default=0)
        degrees.append(max(found, default=0))
        valuations.append(v)
        steps.append(gcd(*(j - v for j in found)) or 1)
    return degrees, valuations, steps


def _interpolate_grid(
    evaluator: _IntegerEvaluator, scale: int, exponents: Sequence[range]
) -> MultiPoly | None:
    """det M from the evaluator of M, given each exponent of y_i in det M is in exponents[i].

    With exponents[i] = range(v, ..., g), axis i takes len(exponents[i])
    integer nodes, from 1 when v > 0 and from 0 otherwise; each grid value
    is divided exactly by prod node_i^v_i and interpolated in u_i = y_i^g
    (det M = det_int / scale).  None when a value is not divisible, which
    shows the exponents wrong.
    """
    nodes = [range(1, len(e) + 1) if e.start else range(len(e)) for e in exponents]
    npts = prod(map(len, nodes))
    if npts > GRID_MAX_POINTS:
        raise ResourceLimitError(
            f"interpolation grid of {npts} points exceeds cap {GRID_MAX_POINTS}",
            kind="interpolation-grid",
            limit=GRID_MAX_POINTS,
        )
    powers = product(*([x**e.start for x in axis] for axis, e in zip(nodes, exponents)))
    values = []
    for mats, divisors in zip(evaluator.grid(nodes), powers):
        value, rest = divmod(det_int(mats[0]), prod(divisors))
        if rest:
            return None
        values.append(value)
    return _tensor_interpolate(values, nodes, exponents, evaluator.ring, scale)


def line_determinant(
    M: list[list[MultiPoly]], ring: tuple[str, ...], a: list[int], b: list[int]
) -> MultiPoly:
    """det M(a + b*tau) in the ring (tau,), M's variables in ``ring`` order.

    Its degree is at most the row/column total-degree bound of M, so integer
    determinants at tau = 0..bound, interpolated once, give it exactly.
    """
    nodes = range(_row_col_bound(M, MultiPoly.total_degree) + 1)
    evaluator, scale = _row_scaled(M, ring)
    values = [
        det_int(evaluator.at({v: al + bl * k for v, al, bl in zip(ring, a, b)})[0])
        for k in nodes
    ]
    return _tensor_interpolate(values, [nodes], [nodes], ("tau",), scale)


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
        coefficients, plan = self._walk_plan
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

    @cached_property
    def _walk_plan(self) -> tuple[list[int], list[tuple[list[int], list[int]]]]:
        """The entries' coefficients in walk order, and one step per axis (built once).

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
        nvars = len(self.ring)
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


def _tensor_interpolate(
    values: list[int], nodes: Sequence[Sequence[int]], exponents: Sequence[range], ring, den: int
) -> MultiPoly:
    """The polynomial that is values / den on the grid of nodes, last axis fastest.

    Along axis i it is a polynomial in u = y_i^g with exponents[i] =
    range(v, ..., g) of y_i, divided by y_i^v in ``values``; each axis is
    interpolated in place at u = node^g with the integer Lagrange matrix
    (``_lagrange``), and one division by den times the matrices'
    denominators ends it.
    """
    data = list(values)
    stride = 1
    for axis, exps in zip(reversed(nodes), reversed(exponents)):
        span = stride * len(axis)
        cols, w = _lagrange([x**exps.step for x in axis])
        for start in range(0, len(data), span):
            for r in range(start, start + stride):
                line = data[r : r + span : stride]
                data[r : r + span : stride] = [sum(map(mul, line, col)) for col in cols]
        den *= w
        stride = span
    return MultiPoly(ring, {e: Fraction(c, den) for e, c in zip(product(*exponents), data) if c})


def _lagrange(nodes: Sequence[int]) -> tuple[list[tuple[int, ...]], int]:
    """The integer Lagrange matrix of distinct integer nodes, by columns, and its denominator.

    The polynomial through the points (nodes[i], vals[i]) has the
    coefficient sum_i vals[i] * cols[j][i] / den at u^j.  Row i is
    m(u) / (u - nodes[i]), one synthetic division of the master product
    m(u) = prod_j (u - nodes[j]), times den / w_i, where
    w_i = prod_{j != i} (nodes[i] - nodes[j]) and den is the lcm of the w_i.
    """
    master = [1]  # coefficients from u^0 up
    for a in nodes:
        master = list(map(sub, [0, *master], [a * c for c in master] + [0]))
    weights = [prod(a - b for b in nodes if b != a) for a in nodes]
    den = lcm(*weights)
    rows = [
        # the quotient from the top down: q_(k-1) = m_k + a * q_k
        [c * (den // w) for c in accumulate(master[-2:0:-1], lambda q, m: m + a * q, initial=1)]
        for a, w in zip(nodes, weights)
    ]
    return list(zip(*(row[::-1] for row in rows))), den
