"""Determinants of matrices with multivariate polynomial entries.

Two independent strategies are provided and cross-checked in the tests:

* ``bareiss``: fraction-free elimination in the polynomial ring, with exact
  divisions guaranteed by the Sylvester identity.
* ``interpolate``: integer determinants on the grid 0..bounds[i] of each
  variable, with the bounds read off the entries, followed by tensor-grid
  Newton interpolation one axis at a time.

The grid engine also computes pulled-back discriminants in ``wavefront``,
where the caller supplies probed degree bounds; ``_interp_1d`` serves the
probes along lines.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import ResourceLimitError
from .linalg import det_int
from .poly import MultiPoly

ZERO = Fraction(0)
ONE = Fraction(1)


def det_poly_matrix(M: Sequence[Sequence[MultiPoly]], strategy: str = "bareiss") -> MultiPoly:
    """Exact determinant of a square MultiPoly matrix."""
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
    if strategy == "bareiss":
        return det_bareiss(M)
    if strategy == "interpolate":
        return det_interpolate(M)
    raise ValueError(f"unknown strategy {strategy!r}")


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
    bounds: Sequence[int] | None = None,
    max_points: int = 2_000_000,
) -> MultiPoly:
    """Determinant by grid evaluation and tensor Newton interpolation.

    ``bounds`` overrides the safe per-variable degree bounds; the grid has
    prod(bounds[i]+1) points and must stay within ``max_points``.
    """
    ring = M[0][0].ring
    if bounds is None:
        bounds = degree_bounds(M)
    npts = 1
    for b in bounds:
        npts *= b + 1
    if npts > max_points:
        raise ResourceLimitError(
            f"interpolation grid of {npts} points exceeds cap {max_points}",
            kind="interpolation-grid",
            limit=max_points,
        )
    return _tensor_interpolate(_grid_values(M, ring, bounds), bounds, ring)


def thread_budget() -> int:
    """Parallelism budget from LERAYFRONT_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("LERAYFRONT_THREADS", "1")))
    except ValueError:
        return 1


def _int_subst(entry: dict, var_index: int, a: int) -> dict:
    out: dict = {}
    for e, c in entry.items():
        val = c * a ** e[var_index] if e[var_index] else c
        e2 = e[:var_index] + (0,) + e[var_index + 1 :]
        out[e2] = out.get(e2, 0) + val
    return out


def _grid_chunk(args) -> list[tuple[tuple[int, ...], int]]:
    """Evaluate integer determinants for a slice of outermost grid values."""
    int_rows, nvars, bounds, outer_values = args
    out: list[tuple[tuple[int, ...], int]] = []

    def rec(mat, var_index, prefix):
        if var_index == nvars:
            ints = [[next(iter(p.values())) if p else 0 for p in row] for row in mat]
            out.append((prefix, det_int(ints)))
            return
        values = outer_values if var_index == 0 else range(bounds[var_index] + 1)
        for a in values:
            sub = [[_int_subst(p, var_index, a) for p in row] for row in mat]
            rec(sub, var_index + 1, prefix + (a,))

    rec(int_rows, 0, ())
    return out


def _grid_values(M, ring, bounds) -> dict[tuple[int, ...], Fraction]:
    """det values on the integer grid, via integer-scaled rows and nested
    partial evaluation (shared variable prefixes are evaluated once).

    Honors the LERAYFRONT_THREADS budget by splitting the outermost axis
    across processes; results are merged by grid index, so the output is
    identical for any budget.
    """
    nvars = len(ring)
    scale = ONE
    int_rows: list[list[dict[tuple[int, ...], int]]] = []
    for row in M:
        den = 1
        for p in row:
            for c in p.terms.values():
                den = den * c.denominator // gcd(den, c.denominator)
        scale *= den
        int_rows.append(
            [{e: int(c * den) for e, c in p.terms.items()} for p in row]
        )
    outer = list(range(bounds[0] + 1)) if nvars else []
    budget = thread_budget()
    results: list[tuple[tuple[int, ...], int]] = []
    if budget > 1 and len(outer) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [outer[i::budget] for i in range(min(budget, len(outer)))]
        with ProcessPoolExecutor(max_workers=len(chunks)) as ex:
            for part in ex.map(
                _grid_chunk,
                [(int_rows, nvars, bounds, ch) for ch in chunks],
            ):
                results.extend(part)
    else:
        results = _grid_chunk((int_rows, nvars, bounds, outer))
    return {prefix: Fraction(d, 1) / scale for prefix, d in results}


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
