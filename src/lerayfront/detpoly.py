"""Determinants of matrices with multivariate polynomial entries.

``det_poly_matrix`` (``det_bareiss``) is fraction-free Bareiss elimination
over Z[y]: each row of M is scaled to integer coefficients, the elimination
runs on packed monomials, one int each, whose fields hold twice the
row/column bound of the entries' exponents below the guard bits, and the
product of the row scales is divided out once, at the end.  By the
Sylvester identity each step's division by the previous pivot is exact in
Z[y]; the one heap-ordered exact division ``poly.exact_div_int`` takes it.
The symbolic discriminant and the Jacobian minors (``phase``) use it.

``det_probed`` is the front pullback's determinant.  It takes M(y)
pulled back by ``poly.pullback``, the one substitution, as integer rows,
{exponents: int} dicts over one scale per row (``wavefront``).  It peels
single-entry rows and columns (the peeled entries multiply, packed, as
integer terms over the product of their rows' scales), divides out common
exponent factors, probes each variable's degree, valuation v and
exponent step g (and the total degree, when that costs fewer
determinants than it can save), interpolates on the lower set those
leave, checks the result exactly at random rational points and falls
back to the safe bounds of ``degree_bounds`` and ``total_degree_bound``.
One integer evaluator of the core serves the grid, the check points and
the fallback, and a 1 x 1 one of the interpolant's integer terms the
check.  The grid takes (deg - v) // g + 1 integer nodes of each variable
and keeps the points whose exponents stay within the total-degree bound,
a lower set of the box; it divides each integer determinant by the
nodes' powers prod x_i^v_i exactly and interpolates in u = x^g
(``_interpolate``), all in Python ints: divided differences along every
axis, then the Newton-to-monomial conversion along every axis.  One
MultiPoly is built at the end, over the product of the axes'
denominators and the row scales.

``_curve_determinant`` restricts det M to a curve y = images(tau): it
pulls the integer rows back to (tau,) with ``poly.pullback``, takes
their integer determinants at tau = 0..their row/column degree bound and
interpolates once.  The axis probes, the total-degree curves and
``line_determinant`` (``oracle.line_check``) all go through it.

``_IntegerEvaluator`` is the one evaluator of polynomial matrices at exact
points, and of the first partials each matrix asks for (``partials``, one
list of variables per matrix, for the flatness oracle), which it reads off
its interned monomials, every matrix's derivative blocks in whole-array
passes over that matrix's terms.  ``at`` takes one rational point (the
flatness oracle in ``gaussmanin`` and the check points of ``det_probed``,
drawn from at least 2^32 values) and makes one pass over the terms of
all entries, summed entry by entry; ``grid`` walks a lower set of an
integer grid axis by axis, so that neighbouring points share the work of
their common prefix (the interpolation grid and the nodes of a curve).
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, islice
from math import gcd, lcm, prod
from operator import floordiv, getitem, mul, sub
from typing import Iterator, Sequence

from .errors import MismatchError, ResourceLimitError
from .linalg import det_int
from .poly import MultiPoly, _reduced, _sum_of_products, exact_div_int, guarded_fields
from .poly import pack_terms, product, pullback, unpack

# Most integer determinants one interpolation grid (a lower set) may take;
# the flagship front's grid has 1,487 points at s = 1 and 14,599 with
# symbolic s, and its safe fallback 24,031 and 660,130.
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
    """Exact det M by fraction-free Bareiss elimination over Z[y].

    Each row is scaled to integer coefficients by the lcm of its
    denominators and packed once; det is unpacked and divided by the product
    of the row scales once, at the end.  Every Bareiss entry is a minor, of
    degree at most the row/column bound B of the entries' largest exponents
    in each variable, and every numerator a sum of products of two, so the
    fields take the bound 2B.  By the Sylvester identity every step's
    division by the previous pivot is exact in Z[y]; ``poly.exact_div_int``
    takes it, so no step makes a Fraction or rescans a remainder.
    """
    ring = M[0][0].ring
    entries, scales = _row_scaled_entries(M)
    bound = _row_col_bound(entries, lambda p: max(chain.from_iterable(p), default=0))
    width, guard = guarded_fields(2 * bound, len(ring))
    m = [[pack_terms(p, width) for p in row] for row in entries]
    n = len(m)
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return MultiPoly.zero(ring)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        rowk = m[k]
        pkk = rowk[k]
        for rowi in m[k + 1 :]:
            mik = rowi[k]
            for j in range(k + 1, n):
                num = _sum_of_products(((pkk, rowi[j], 1), (mik, rowk[j], -1)), guard)
                rowi[j] = num if prev is None else exact_div_int(num, prev, guard)
            rowi[k] = {}
        prev = pkk
    scale = prod(scales)
    det = m[n - 1][n - 1].items()
    return MultiPoly(ring, {unpack(e, width, len(ring)): Fraction(sign * c, scale) for e, c in det})


def degree_bounds(M: Sequence[Sequence[dict]], nvars: int) -> list[int]:
    """Safe per-variable degree bounds for det(M): min of row and column sums."""
    return [_row_col_bound(M, lambda p: max((e[v] for e in p), default=0)) for v in range(nvars)]


def total_degree_bound(M: Sequence[Sequence[dict]]) -> int:
    """Safe total-degree bound for det(M): min of row and column sums."""
    return _row_col_bound(M, lambda p: max(map(sum, p), default=0))


def _row_col_bound(M: Sequence[Sequence[dict]], degree) -> int:
    """min(sum of row maxima, sum of column maxima) of degree(entry): bounds deg det(M)."""
    D = [[degree(p) for p in row] for row in M]
    return min(sum(map(max, D)), sum(map(max, zip(*D))))


def det_probed(
    M: list[list[dict]], scales: list[int], ring: tuple[str, ...], seed: int = 0
) -> tuple[MultiPoly, dict]:
    """det of M[i][j] / scales[i] by probed-exponent lower-set interpolation, checked
    exactly; and the path taken.

    M holds integer rows of {exponents: int} dicts in ``ring`` and one
    scale per row, as ``poly.pullback`` gives them.  Rows and columns with
    one nonzero entry are peeled off exactly (``_peel_single_entries``),
    and exponents with a common factor (the parity) in a variable are
    divided by it.  Two random axis-parallel lines per variable give its
    degree, its valuation v and the step g of its exponents
    (``_probe_degrees``).  One integer evaluator of the core then takes the
    grid of (degree - v) // g + 1 nodes per variable, cut to a lower set by
    a bound on the total degree of det M, and four random rational points
    where the interpolant must equal det_int of the evaluated core
    (``_agrees_at_random_points``, which states the error bound).  The bound is
    ``total_degree_bound`` of the core (safe), or the degree along two
    random curves y_i = p_i + q_i * tau^parity_i (``_probe_total_degree``)
    when their determinants are fewer than the grid points that safe bound
    keeps; the lines and the curves are each one ``_curve_determinant``.
    When a grid value is not divisible by the nodes' powers prod y_i^v_i
    or a point disagrees, the grid is taken again on the safe bounds
    (v = 0, g = 1, the safe total degree); when that grid exceeds
    ``GRID_MAX_POINTS``, MismatchError.  Everything stays in Python ints
    until the one MultiPoly of the result.
    ``random.Random(seed)`` draws the axis probes first, then the curves,
    then the check points.

    The record (``FrontResult.strategy``) holds the engine, the matrix size,
    the peeled and core sizes and, when a core is left, its exponent parity,
    the safe and probed degree bounds, the safe total degree, the probed
    valuations and steps, the probed total degree (None when not probed),
    the points of the probed lower set and whether the safe-bounds fallback
    ran.
    """
    rng = random.Random(seed)
    factor, factor_scale, core, core_scales = _peel_single_entries(M, scales, ring)
    record = {
        "engine": "probed grid",
        "size": len(M),
        "peeled": len(M) - len(core),
        "core": len(core),
    }
    if not core:
        return MultiPoly(ring, {e: Fraction(c, factor_scale) for e, c in factor.items()}), record
    # the weighted degree sum parity_i * e_i of the compressed core is the
    # total degree of the core as given
    safe_top = total_degree_bound(core)
    # per-variable gcd of the exponents of all entries, 1 where all are 0
    parity = [
        gcd(*(e[i] for row in core for p in row for e in p)) or 1 for i in range(len(ring))
    ]
    compressed = any(g > 1 for g in parity)
    if compressed:
        core = [[_map_exponents(p, floordiv, parity) for p in row] for row in core]
    safe = degree_bounds(core, len(ring))
    evaluator = _IntegerEvaluator([core], ring)
    bounds, valuations, steps = _probe_degrees(core, core_scales, rng, len(ring))
    exponents = [range(v, b + 1, g) for b, v, g in zip(bounds, valuations, steps)]
    lengths = list(map(len, exponents))
    costs = list(map(mul, parity, steps))
    floor = sum(map(mul, parity, valuations))
    probed_top = None
    if 2 * (safe_top + 1) < _lower_set_size(lengths, costs, safe_top - floor):
        probed_top = _probe_total_degree(core, core_scales, rng, parity)
    budget = (safe_top if probed_top is None else probed_top) - floor
    record.update(
        parity=parity,
        safe_bounds=safe,
        safe_total_degree=safe_top,
        probed_bounds=bounds,
        probed_valuations=valuations,
        probed_steps=steps,
        probed_total_degree=probed_top,
        grid_points=_lower_set_size(lengths, costs, budget),
        fallback=False,
    )

    det = _interpolate_grid(evaluator, exponents, costs, budget)
    if det is None or not _agrees_at_random_points(evaluator, len(core), *det, rng):
        try:
            box = [range(b + 1) for b in safe]
            det = _interpolate_grid(evaluator, box, parity, safe_top)
        except ResourceLimitError as err:
            raise MismatchError(
                "probed interpolation failed verification and safe bounds "
                f"exceed the grid cap {err.limit}"
            ) from None
        record["fallback"] = True
    terms, den = det
    if compressed:
        terms = _map_exponents(terms, mul, parity)
    den *= prod(core_scales) * factor_scale
    terms = product([factor, terms], len(ring))
    return MultiPoly(ring, {e: Fraction(c, den) for e, c in terms.items()}), record


def _agrees_at_random_points(
    evaluator: _IntegerEvaluator, size: int, terms: dict, den: int, rng: random.Random
) -> bool:
    """Whether terms / den equals det_int of the evaluator's size x size matrix at
    four random rational points (the interpolant by a 1 x 1 evaluator of its terms).

    Each coordinate is a / b with a uniform in [2^31, 2^32) and b in
    [1, 2^16].  A value q comes only from denominators b with 2^31 <= q*b <
    2^32, at most 2^15 + 1 of them, and from one numerator each, so no value
    has probability above (2^15 + 1) / 2^47 = (1 + 2^-15) / 2^32.  A wrong
    interpolant differs from det by a nonzero polynomial of total degree at
    most D, the safe total degree of the core, so by Schwartz-Zippel
    (Schwartz 1980; Zippel 1979) it passes one point with probability at
    most D (1 + 2^-15) / 2^32, and all four with about (D / 2^32)^4.  The
    flagship's D is 64.
    """
    check = _IntegerEvaluator([[[terms]]], evaluator.ring)
    for _ in range(4):
        pt = {
            v: Fraction(rng.randrange(2**31, 2**32), rng.randint(1, 2**16))
            for v in evaluator.ring
        }
        # each evaluator's values are its entries times its prod_v b_v^maxdeg_v
        S, T = (
            prod(pt[v].denominator ** top for v, top in zip(evaluator.ring, e.maxdeg))
            for e in (evaluator, check)
        )
        if det_int(evaluator.at(pt)[0]) * den * T != check.at(pt)[0][0][0] * S**size:
            return False
    return True


def _peel_single_entries(M: list[list[dict]], scales: list[int], ring: tuple[str, ...]):
    """Laplace-expand along rows/columns with exactly one nonzero entry.

    Returns (factor, its scale, reduced integer rows, their scales);
    repeated until no such row or column remains.  The factor is the
    product of the peeled entries as integer terms (``poly.product``), over
    the product of their rows' scales and Laplace signs, and each row left
    is divided by the gcd of its scale and its content (``_reduced``), since
    a peeled column may have held a row's only denominator.  Exact, and it
    shrinks both the matrix and the interpolation grid.
    """
    peeled, factor_scale = [], 1
    m = [list(row) for row in M]
    scales = list(scales)
    while m:
        n = len(m)
        rows = [[j for j in range(n) if m[i][j]] for i in range(n)]
        cols = [[i for i in range(n) if m[i][j]] for j in range(n)]
        if not all(rows) or not all(cols):
            return {}, 1, [], []
        single = [(i, nz[0]) for i, nz in enumerate(rows) if len(nz) == 1]
        single += [(nz[0], j) for j, nz in enumerate(cols) if len(nz) == 1]
        if not single:
            break
        i, j = single[0]
        peeled.append(m[i][j])
        factor_scale *= (-1) ** (i + j) * scales[i]
        m = [[m[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
        del scales[i]
    reduced = [_reduced(row, scale) for row, scale in zip(m, scales)]
    factor = product(peeled, len(ring))
    return factor, factor_scale, [row for row, _ in reduced], [scale for _, scale in reduced]


def _map_exponents(p: dict, op, parity: list[int]) -> dict:
    """The {exponents: coefficient} dict p with each exponent e_v replaced by op(e_v, parity[v])."""
    return {tuple(map(op, e, parity)): c for e, c in p.items()}


def _probe_degrees(
    core: list[list[dict]], scales: list[int], rng: random.Random, nvars: int
) -> tuple[list[int], list[int], list[int]]:
    """Per-variable degree, valuation and exponent step of det of core[i][j] / scales[i].

    On each of two random axis-parallel lines per variable, that variable
    goes to tau and every other one to a random integer in [2, 19], and
    ``_curve_determinant`` gives the determinant as a univariate.  Over the
    two lines of a variable, the largest exponent with a nonzero
    coefficient is its degree, the smallest is its valuation v, and the gcd
    of their differences from v is its step (1 when that gcd is 0).
    """
    line = ("tau",)
    degrees, valuations, steps = [], [], []
    for k in range(nvars):
        found = set()
        for _ in range(2):
            images = [MultiPoly.constant(line, rng.randint(2, 19)) for _ in range(nvars - 1)]
            images.insert(k, MultiPoly.variable(line, "tau"))
            found.update(j for j, c in enumerate(_curve_determinant(core, scales, images)[0]) if c)
        v = min(found, default=0)
        degrees.append(max(found, default=0))
        valuations.append(v)
        steps.append(gcd(*(j - v for j in found)) or 1)
    return degrees, valuations, steps


def _probe_total_degree(
    core: list[list[dict]], scales: list[int], rng: random.Random, parity: list[int]
) -> int:
    """The degree sum_i parity_i * e_i of det of core[i][j] / scales[i], read on two random curves.

    On y_i = p_i + q_i * tau^parity_i a term prod y_i^e_i has degree
    sum_i parity_i * e_i in tau, and the coefficient at the top degree is
    a nonzero polynomial in q, so random q keep it.  Each curve is one
    ``_curve_determinant``.
    """
    line = ("tau",)
    top = 0
    for _ in range(2):
        images = [
            MultiPoly(line, {(0,): rng.randint(-9, 9), (e,): rng.randint(1, 9)}) for e in parity
        ]
        coefficients = _curve_determinant(core, scales, images)[0]
        top = max(top, max((j for j, c in enumerate(coefficients) if c), default=0))
    return top


def _curve_determinant(
    rows: list[list[dict]], scales: list[int], images: Sequence[MultiPoly]
) -> tuple[list[int], int]:
    """det of rows[i][j] / scales[i] on the curve y_l = images[l](tau): the integer
    coefficients of tau^0, tau^1, ... and their denominator.

    The rows are pulled back to (tau,) once (``poly.pullback``).  The
    determinant's degree is at most the row/column degree bound of the
    pulled rows, so their integer determinants at tau = 0..bound,
    interpolated once, give it exactly.
    """
    line = ("tau",)
    pulled, pulled_scales = pullback(rows, scales, images, line)
    nodes = range(total_degree_bound(pulled) + 1)
    values = [det_int(mats[0]) for mats in _IntegerEvaluator([pulled], line).grid([nodes])]
    coefficients, den = _interpolate_line(values, nodes)
    return coefficients, den * prod(pulled_scales)


def _interpolate_grid(
    evaluator: _IntegerEvaluator,
    exponents: Sequence[range],
    costs: Sequence[int],
    budget: int,
) -> tuple[dict, int] | None:
    """det_int of the evaluator's matrix as integer terms and one denominator, given
    each of its terms is prod y_i^(v_i + g_i*j_i) with exponents[i] = range(v_i, ..., g_i)
    and j in the lower set sum_i costs[i] * j_i <= budget.

    Axis i takes len(exponents[i]) integer nodes, from 1 when v > 0 and
    from 0 otherwise; each value on the lower set is divided exactly by
    prod node_i^v_i and interpolated in u_i = y_i^g; the terms and the
    denominator are divided by their gcd.  None when a value is not
    divisible, which shows the exponents wrong.
    """
    lengths = [len(e) for e in exponents]
    npts = _lower_set_size(lengths, costs, budget)
    if npts > GRID_MAX_POINTS:
        raise ResourceLimitError(
            f"interpolation grid of {npts} points exceeds cap {GRID_MAX_POINTS}",
            kind="interpolation-grid",
            limit=GRID_MAX_POINTS,
        )
    points = _lower_set(lengths, costs, budget)
    nodes = [range(1, len(e) + 1) if e.start else range(len(e)) for e in exponents]
    values = []
    for mats, j in zip(evaluator.grid(nodes, costs, budget), points):
        divisor = prod(axis[k] ** e.start for axis, k, e in zip(nodes, j, exponents))
        value, rest = divmod(det_int(mats[0]), divisor)
        if rest:
            return None
        values.append(value)
    us = [[x**e.step for x in axis] for axis, e in zip(nodes, exponents)]
    coefficients, den = _interpolate(values, us, points)
    terms = {
        tuple(e[k] for e, k in zip(exponents, j)): c for j, c in zip(points, coefficients) if c
    }
    [terms], den = _reduced([terms], den)
    return terms, den


def line_determinant(
    M: list[list[MultiPoly]], ring: tuple[str, ...], a: list[int], b: list[int]
) -> MultiPoly:
    """det M(a + b*tau) in the ring (tau,), M's variables in ``ring`` order: the
    ``_curve_determinant`` of M's row-scaled entries on that line."""
    line = ("tau",)
    on_line = {v: MultiPoly(line, {(0,): al, (1,): bl}) for v, al, bl in zip(ring, a, b)}
    coefficients, den = _curve_determinant(
        *_row_scaled_entries(M), [on_line[v] for v in M[0][0].ring]
    )
    return MultiPoly(line, {(j,): Fraction(c, den) for j, c in enumerate(coefficients) if c})


def _integer_entries(mats: list[list[list[MultiPoly]]]) -> list[list[list[dict]]]:
    """The matrices' entries as {exponents: int}, all over one common denominator."""
    dens = {c.denominator for mat in mats for row in mat for p in row for c in p.terms.values()}
    den = lcm(*dens)
    factor = {q: den // q for q in dens}
    return [
        [
            [{e: c.numerator * factor[c.denominator] for e, c in p.terms.items()} for p in row]
            for row in mat
        ]
        for mat in mats
    ]


class _IntegerEvaluator:
    """Integer polynomial matrices in one ring, evaluated together at exact points.

    ``at`` takes one rational point.  The distinct monomials of all entries
    are collected once, and the terms of all entries are kept one after the
    other in flat arrays (``indices``, ``coefficients``, with each entry's
    ``ends``).  At a point with y_v = a_v / b_v (b_v > 0) each monomial is
    scaled by prod_v b_v^maxdeg_v, which makes it an integer, so every entry
    of every matrix is an integer dot product: its value times that common
    scale.  At an integer point (plain ints work) the scale is 1.

    ``grid`` takes one list of integers per variable and walks the grid they
    span.

    ``partials`` holds one list of variable numbers per matrix (by default
    none at all).  After ``mats`` come the derivatives d_i of each matrix,
    matrix by matrix, each in the order of its list.  They are read off the
    interned monomials, never built as polynomials: each monomial e with
    e_i > 0 maps once to the number of e - 1_i, and a derivative entry keeps
    its base entry's terms with e_i > 0, each coefficient times e_i.  Each
    derivative block is built by whole-array maps over its matrix's terms.
    """

    def __init__(
        self,
        mats: list[list[list[dict]]],
        ring: tuple[str, ...],
        partials: Sequence[Sequence[int]] = (),
    ):
        self.ring = ring
        self.shapes = [(len(mat), len(mat[0])) for mat in mats]
        entries = [p for mat in mats for row in mat for p in row]
        index = {e: k for k, e in enumerate(dict.fromkeys(chain.from_iterable(entries)))}
        # every entry's terms, one after the other: monomial numbers and coefficients
        self.indices = list(map(index.__getitem__, chain.from_iterable(entries)))
        self.coefficients = list(chain.from_iterable(p.values() for p in entries))
        self.ends = list(accumulate(map(len, entries), initial=0))
        base = list(index)
        lowered = {}  # variable i: each base monomial's e_i, and the number of e - 1_i
        for i in dict.fromkeys(chain.from_iterable(partials)):
            exps = [e[i] for e in base]
            shift = [
                index.setdefault(e[:i] + (k - 1,) + e[i + 1 :], len(index)) if k else -1
                for e, k in zip(base, exps)
            ]
            lowered[i] = (exps, shift)
        first = 0
        for (rows, cols), variables in zip(list(self.shapes), partials):
            lo, hi = self.ends[first], self.ends[first + rows * cols]
            cuts = [end - lo for end in self.ends[first + 1 : first + rows * cols + 1]]
            idx, cs = self.indices[lo:hi], self.coefficients[lo:hi]
            first += rows * cols
            for i in variables:
                exps, shift = lowered[i]
                keep = list(map(exps.__getitem__, idx))  # e_i of each term
                kept = list(accumulate(map(bool, keep), initial=self.ends[-1]))
                self.indices.extend(map(shift.__getitem__, compress(idx, keep)))
                self.coefficients.extend(map(mul, compress(cs, keep), compress(keep, keep)))
                self.ends.extend(map(kept.__getitem__, cuts))
                self.shapes.append((rows, cols))
        self.monomials = list(index)
        self.maxdeg = [max(column) for column in zip(*base)] if base else [0] * len(ring)

    @cached_property
    def terms(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each entry's (monomial numbers, coefficients), entry by entry."""
        return [
            (tuple(self.indices[a:b]), tuple(self.coefficients[a:b]))
            for a, b in zip(self.ends, self.ends[1:])
        ]

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
        table = [prod(map(getitem, powers, e)) for e in self.monomials]
        # one pass over all terms, summed entry by entry
        terms = map(mul, self.coefficients, map(table.__getitem__, self.indices))
        ends = self.ends
        return self._matrices([sum(islice(terms, b - a)) for a, b in zip(ends, ends[1:])])

    def grid(
        self, axes: Sequence[Sequence[int]], costs: Sequence[int] | None = None, budget: int = 0
    ) -> Iterator[list[list[list[int]]]]:
        """Every matrix on a lower set of axes[0] x ... x axes[-1], last axis fastest.

        The point with index j_i on axis i is taken when sum_i costs[i] *
        j_i <= budget (``_lower_set``); without costs, the whole grid.
        Entries are evaluated one axis at a time, so all points under one
        prefix of the grid share that prefix's work.  On the last axis each
        entry is a short coefficient vector, dotted with the powers of every
        value of that axis the prefix leaves at once (one product per term,
        running sums per entry); the prefix's points are then handed out one
        by one, so the grid's matrices are never held together.
        """
        if not axes:
            yield self.at({})
            return
        costs = costs or [0] * len(axes)
        coefficients, plan = self._walk_plan
        *outer, last = axes
        kexp, ends = plan[-1]
        m = len(kexp)
        powers = [x**k for x in last for k in kexp]
        his = [j * m + end for j in range(len(last)) for end in ends]
        los = [j * m + end for j in range(len(last)) for end in [0, *ends[:-1]]]

        yield from self._walk(coefficients, 0, budget, outer, costs, (last, powers, his, los))

    def _walk(self, values: list[int], axis: int, left: int, outer, costs, tail):
        """``grid``'s matrices under one prefix: ``values`` are the walk-order
        coefficients with the axes before ``axis`` evaluated, ``left`` the budget
        the prefix leaves, ``tail`` the last axis and its powers and group bounds."""
        if axis == len(outer):
            last, powers, his, los = tail
            n = len(self.terms)
            count = _allowed(len(last), costs[axis], left)
            cums = list(accumulate(map(mul, values * count, powers), initial=0))
            hi = map(cums.__getitem__, islice(his, count * n))
            flat = list(map(sub, hi, map(cums.__getitem__, islice(los, count * n))))
            for j in range(0, len(flat), n):
                yield self._matrices(flat, j)
            return
        kexp, ends = self._walk_plan[1][axis]
        starts = [0, *ends[:-1]]
        for k in range(_allowed(len(outer[axis]), costs[axis], left)):
            pw = [outer[axis][k] ** e for e in range(self.maxdeg[axis] + 1)]
            cums = list(accumulate(map(mul, values, map(pw.__getitem__, kexp)), initial=0))
            yield from self._walk(
                list(map(sub, map(cums.__getitem__, ends), map(cums.__getitem__, starts))),
                axis + 1,
                left - costs[axis] * k,
                outer,
                costs,
                tail,
            )

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


def _row_scaled_entries(M) -> tuple[list[list[dict]], list[int]]:
    """M's entries as {exponents: int}, each row scaled to integers, and the row scales.

    Each row gets its own denominator, the lcm of its coefficients'
    denominators, which keeps the operands of a determinant smaller than one
    common denominator would; det M = det(scaled) / product of the scales.
    """
    dens = [lcm(*(c.denominator for p in row for c in p.terms.values())) for row in M]
    entries = [
        [{e: c.numerator * (d // c.denominator) for e, c in p.terms.items()} for p in row]
        for row, d in zip(M, dens)
    ]
    return entries, dens


def _allowed(n: int, cost: int, left: int) -> int:
    """How many of an axis's n indices k keep cost * k within ``left`` (all n at cost 0)."""
    return n if cost == 0 else max(0, min(n, left // cost + 1))


def _lower_set_size(lengths: Sequence[int], costs: Sequence[int], budget: int) -> int:
    """The number of points of ``_lower_set``, counted by their spent budget."""
    spent = Counter({0: 1})
    for n, cost in zip(lengths, costs):
        grown = Counter()
        for s, count in spent.items():
            for k in range(_allowed(n, cost, budget - s)):
                grown[s + cost * k] += count
        spent = grown
    return sum(spent.values())


def _lower_set(lengths: Sequence[int], costs: Sequence[int], budget: int) -> list[tuple[int, ...]]:
    """The index tuples j with j_i < lengths[i] and sum_i costs[i] * j_i <= budget, last fastest.

    A lower set: lowering any index stays inside it.  All-zero costs (and
    budget 0) give the whole box.
    """
    points = [((), 0)]
    for n, cost in zip(lengths, costs):
        points = [
            (j + (k,), s + cost * k)
            for j, s in points
            for k in range(_allowed(n, cost, budget - s))
        ]
    return [j for j, _ in points]


def _interpolate(
    values: list[int], nodes: Sequence[Sequence[int]], points: list[tuple[int, ...]]
) -> tuple[list[int], int]:
    """Integer coefficients c and a denominator den with sum_j c_j / den * prod_i u_i^j_i
    equal to values[k] at u_i = nodes[i][points[k][i]]; points is a lower set.

    Along each axis the points with the other indices fixed form a fiber
    whose indices are a prefix 0..L-1.  First, on every axis, each fiber's
    values become their divided differences on the fiber's prefix of
    nodes (``_newton_matrices``); only after all of them, on every axis,
    the Newton coefficients become monomial ones.  A fiber's Lagrange
    interpolation, or a conversion before the other axes' differences,
    mixes in points of longer fibers and is wrong on a lower set that is
    not a box.
    """
    data = list(values)
    fibers = []  # per axis, the positions of each fiber's points in axis order
    for axis in range(len(nodes)):
        fibers.append({})
        for k, j in enumerate(points):
            fibers[-1].setdefault(j[:axis] + j[axis + 1 :], []).append(k)
    matrices = [_newton_matrices(axis) for axis in nodes]
    den = 1
    for (differences, w, _), axis_fibers in zip(matrices, fibers):
        for fiber in axis_fibers.values():
            line = [data[k] for k in fiber]
            for k, row in zip(fiber, differences):
                data[k] = sum(map(mul, row, line))
        den *= w
    for (_, _, conversion), axis_fibers in zip(matrices, fibers):
        for fiber in axis_fibers.values():
            line = [data[k] for k in fiber]
            for r, (k, row) in enumerate(zip(fiber, conversion)):
                data[k] = sum(map(mul, row, islice(line, r, None)))
    return data, den


def _interpolate_line(values: list[int], nodes: Sequence[int]) -> tuple[list[int], int]:
    """``_interpolate`` on one axis: the coefficients of u^0, u^1, ... and their denominator."""
    return _interpolate(values, [nodes], [(k,) for k in range(len(nodes))])


def _newton_matrices(nodes: Sequence[int]) -> tuple[list[list[int]], int, list[list[int]]]:
    """Divided-difference rows of distinct integer nodes, their denominator, conversion rows.

    Row r of the first takes the values at u_0..u_r to den times their r-th
    divided difference: den / prod_{j <= r, j != i} (u_i - u_j) at i, with
    den the lcm of the products.  Row r of the last holds the coefficient
    of u^r in prod_{j < k} (u - u_j) for k = r, r+1, ...  Leading blocks
    serve shorter prefixes of the nodes.
    """
    weights = []  # weights[r][i] = prod_{j <= r, j != i} (u_i - u_j)
    for r, a in enumerate(nodes):
        previous = weights[-1] if weights else []
        weights.append(
            [w * (b - a) for w, b in zip(previous, nodes)] + [prod(a - b for b in nodes[:r])]
        )
    den = lcm(*(w for row in weights for w in row))
    differences = [[den // w for w in row] for row in weights]
    newton = [[1]]  # coefficients of prod_{j < k} (u - u_j) from u^0 up
    for a in nodes[:-1]:
        newton.append(list(map(sub, [0, *newton[-1]], [a * c for c in newton[-1]] + [0])))
    conversion = [[poly[r] for poly in newton[r:]] for r in range(len(nodes))]
    return differences, den, conversion
