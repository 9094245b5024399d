"""Helpers that only the tests need: a matrix-vector product, a rank by
minors, an inverse by ``ColumnSpan`` solves, basis 1-forms, readers for
the polynomial, matrix and form JSON that ``jsonio`` writes, a phase
expansion summed back up, a substitution built from MultiPoly arithmetic
alone, a determinant by interpolation on given bounds, the
integer-row engines on MultiPoly matrices, a minimal polynomial by a
``ColumnSpan`` dependency search, and the level-set sampler as it was before
the shared stream (a Fraction ``poly_substitute`` per line, the per-term
float formula)."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import fsum, prod
from operator import mul
from typing import Mapping, Sequence

from lerayfront.detpoly import (
    _IntegerEvaluator,
    _interpolate_grid,
    _row_scaled_entries,
    degree_bounds,
    det_probed,
    total_degree_bound,
)
from lerayfront.forms import DiffForm
from lerayfront.errors import MismatchError, NoSolutionError
from lerayfront.groebner import GroebnerBasis, normal_form, standard_monomials
from lerayfront.linalg import ColumnSpan, RationalMatrix, det_fraction
from lerayfront.oracle import LEVEL_BOX, POLISH_STEPS, ROOT_STEP, ROOT_SWEEPS
from lerayfront.phase import PhaseExpansion
from lerayfront.poly import MultiPoly, poly_substitute


def matvec(A: RationalMatrix, v: Sequence[Fraction]) -> list[Fraction]:
    assert A.cols == len(v)
    return [sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in A.entries]


def rank_by_minors(rows: Sequence[Sequence[Fraction]]) -> int:
    """The size of the largest square submatrix with a nonzero determinant."""
    ncols = len(rows[0]) if rows else 0
    for k in range(min(len(rows), ncols), 0, -1):
        for I in combinations(range(len(rows)), k):
            for J in combinations(range(ncols), k):
                if det_fraction([[rows[i][j] for j in J] for i in I]):
                    return k
    return 0


def column_span_inverse(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """The inverse of a square matrix over Q: column i is ``ColumnSpan.solve(e_i)``.

    Raises NoSolutionError when a column depends on the earlier ones.
    """
    n = len(rows)
    span = ColumnSpan(range(n))
    for j in range(n):
        if span.add({i: Fraction(row[j]) for i, row in enumerate(rows) if row[j]}, j) is not None:
            raise NoSolutionError("matrix is singular")
    cols = [span.solve({i: Fraction(1)}) for i in range(n)]
    return [[col.get(k, Fraction(0)) for col in cols] for k in range(n)]


def d_variable(ring: Sequence[str], name: str) -> DiffForm:
    ring = tuple(ring)
    return DiffForm(ring, 1, {(ring.index(name),): MultiPoly.constant(ring, 1)})


def poly_from_json(obj: dict) -> MultiPoly:
    terms = {tuple(t["e"]): Fraction(t["c"]) for t in obj["terms"]}
    return MultiPoly(tuple(obj["vars"]), terms)


def matrix_from_json(obj: dict) -> list[list[MultiPoly]]:
    return [[poly_from_json(p) for p in row] for row in obj["entries"]]


def form_from_json(obj: dict) -> DiffForm:
    comps = {tuple(c["idx"]): poly_from_json(c["poly"]) for c in obj["components"]}
    return DiffForm(tuple(obj["vars"]), obj["degree"], comps)


def reconstruct(exp: PhaseExpansion) -> MultiPoly:
    """base + sum W_i z^alpha_i: psi again, from its expansion."""
    ring = exp.base.ring
    acc = exp.base
    for mono, W in exp.deformation:
        e = [0] * len(ring)
        for j, k in enumerate(mono):
            e[exp.n + 1 + j] = k
        acc = acc + W.mul_term(tuple(e), 1)
    return acc


def substitute(p: MultiPoly, bindings: Mapping[str, MultiPoly], ring: Sequence[str]) -> MultiPoly:
    """p with each bound variable replaced by its image in ``ring`` and each unbound one
    by itself there, by MultiPoly +, * and ** alone: a reference for ``poly.pullback``."""
    images = [bindings[v] if v in bindings else MultiPoly.variable(ring, v) for v in p.ring]
    out = MultiPoly.zero(ring)
    for e, c in p.terms.items():
        term = MultiPoly.constant(ring, c)
        for image, k in zip(images, e):
            term = term * image**k
        out = out + term
    return out


def det_interpolate(
    M: Sequence[Sequence[MultiPoly]], bounds: Sequence[int], top: int | None = None
) -> MultiPoly:
    """Determinant by grid evaluation and interpolation.

    ``bounds`` are per-variable degree bounds of det(M) and ``top`` a
    total-degree bound (``degree_bounds`` and ``total_degree_bound`` give
    safe ones); without ``top`` the grid is the whole box of
    prod(bounds[i]+1) points.
    """
    evaluator, scale = integer_evaluator(M)
    costs, budget = ([0] * len(bounds), 0) if top is None else ([1] * len(bounds), top)
    terms, den = _interpolate_grid(evaluator, [range(b + 1) for b in bounds], costs, budget)
    return MultiPoly(M[0][0].ring, {e: Fraction(c, den * scale) for e, c in terms.items()})


# The engines below take integer rows over row scales; a MultiPoly matrix
# is converted once, here, by the row scaling ``det_bareiss`` uses.


def integer_evaluator(M: Sequence[Sequence[MultiPoly]]) -> tuple[_IntegerEvaluator, int]:
    """An evaluator of M's row-scaled integer rows and the scales' product P (det_int / P)."""
    rows, scales = _row_scaled_entries(M)
    return _IntegerEvaluator([rows], M[0][0].ring), prod(scales)


def safe_bounds(M: Sequence[Sequence[MultiPoly]]) -> tuple[list[int], int]:
    """``degree_bounds`` and ``total_degree_bound`` of M."""
    rows = _row_scaled_entries(M)[0]
    return degree_bounds(rows, len(M[0][0].ring)), total_degree_bound(rows)


def probed(M: Sequence[Sequence[MultiPoly]], seed: int = 0) -> tuple[MultiPoly, dict]:
    """``det_probed`` of M."""
    return det_probed(*_row_scaled_entries(M), M[0][0].ring, seed=seed)


def minimal_polynomial(gb: GroebnerBasis, var: str) -> tuple[MultiPoly, int]:
    """Minimal polynomial of var on a zero-dimensional quotient, and its dimension D.

    The normal forms of 1, var, var^2, ... are columns on the staircase; the
    first that depends on the earlier ones gives the first relation of a
    ``ColumnSpan``, with coefficient 1 at the newest power: the monic
    minimal polynomial.  It comes at degree D at the latest.  The reference
    for the oracle's characteristic polynomial, which has the same roots.
    """
    staircase = standard_monomials(gb)
    if not staircase.finite:
        raise MismatchError(
            f"line ideal is not zero-dimensional (unbounded in {staircase.witness_variable})"
        )
    rows = staircase.monomials
    span = ColumnSpan(rows)
    x = MultiPoly.variable(gb.ring, var)
    power = normal_form(MultiPoly.constant(gb.ring, 1), gb)
    while (relation := span.add(power.terms, len(span.labels))) is None:
        power = normal_form(power * x, gb)
    return MultiPoly((var,), {(k,): c for k, c in relation.items()}), len(rows)


def eval_float_reference(p: MultiPoly, values: Mapping[str, float]) -> float:
    """The per-term float formula: fsum of prod(map(pow, vals, e), start=float(c))."""
    vals = [float(values[v]) for v in p.ring]
    return fsum(prod(map(pow, vals, e), start=float(c)) for e, c in p.terms.items())


def roots_reference(coeffs: Sequence[float]) -> list[complex]:
    """Durand-Kerner as ``oracle._roots`` ran it, with a generator for each product."""
    zs = [(0.4 + 0.9j) ** k for k in range(len(coeffs) - 1)]
    for _ in range(ROOT_SWEEPS):
        done = True
        for k, z in enumerate(zs):
            value = 0j
            for c in coeffs:
                value = value * z + c
            den = prod((z - w for j, w in enumerate(zs) if j != k), start=coeffs[0])
            step = value / den if den else 0j  # z_k met another root: stay
            zs[k] = z - step
            done = done and abs(step) <= ROOT_STEP * abs(z)
        if done:
            break
    return zs


def level_set_reference(
    F: MultiPoly, s: Fraction, count: int, seed: int = 3
) -> list[tuple[float, ...]]:
    """Real points with F(z) = s, found on random lines, with |z_i| <= LEVEL_BOX:
    the sampler as it was, one Fraction ``poly_substitute`` per line."""
    rng = random.Random(seed)
    ring = F.ring
    n = len(ring)
    out: list[tuple[float, ...]] = []
    attempts = 0
    grads = [F.partial(v) for v in ring]
    while len(out) < count and attempts < 80 * count:
        attempts += 1
        base = [Fraction(rng.randint(-20, 20), 10) for _ in range(n)]
        direction = [Fraction(rng.randint(-9, 9), 3) for _ in range(n)]
        if all(d == 0 for d in direction):
            continue
        tau_ring = ("tau",)
        tau = MultiPoly.variable(tau_ring, "tau")
        bindings = {
            v: MultiPoly.constant(tau_ring, b) + tau.scale(d)
            for v, b, d in zip(ring, base, direction)
        }
        uni = poly_substitute(F, bindings) - MultiPoly.constant(tau_ring, s)
        coeffs = [0.0] * (uni.degree_in("tau") + 1)
        for e, c in uni.terms.items():
            coeffs[e[0]] = float(c)
        if len(coeffs) < 2 or all(abs(c) < 1e-14 for c in coeffs[1:]):
            continue
        for r in roots_reference(coeffs[::-1]):
            if abs(r.imag) > 1e-10 * max(1.0, abs(r.real)):
                continue
            z = [float(b) + r.real * float(d) for b, d in zip(base, direction)]
            if max(map(abs, z)) > LEVEL_BOX:
                continue
            z = _newton_polish_level_reference(F, grads, z, float(s))
            if z is None:
                continue
            out.append(tuple(z))
            if len(out) >= count:
                break
    return out[:count]


def _newton_polish_level_reference(F, grads, z, s):
    for _ in range(POLISH_STEPS):
        vals = dict(zip(F.ring, z))
        r = eval_float_reference(F, vals) - s
        g = [eval_float_reference(gp, vals) for gp in grads]
        gn = sum(map(mul, g, g))
        if gn < 1e-18:
            return None
        z = [zi - r * gi / gn for zi, gi in zip(z, g)]
    vals = dict(zip(F.ring, z))
    if abs(eval_float_reference(F, vals) - s) > 1e-11 * max(1.0, abs(s)):
        return None
    return z
