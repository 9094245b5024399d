"""Wavefront defining polynomial via substitution into the system matrix.

The front polynomial phi(x, t, s) is det M(y) evaluated along
y0 = s, y1 = (-W_1 | 0) depending on the case, and y_i = W_i(x, t) through
the recorded couplings.  Ring maps commute with determinants, so the
entries of M are substituted first for every Milnor number mu, and one
engine takes the determinant of the substituted matrix: degree-probed grid
interpolation (``detpoly.det_interpolate``) with an exact check at random
rational points.  The degree probes are grids with one axis of more than
one value, so the probes and the grid both run on ``detpoly``'s grid walk
and interpolation, in Python ints from evaluation to the final division.
``FrontResult.strategy`` records the path taken (``front.json``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod

from .detpoly import _grid_values, _interp_1d, degree_bounds, det_interpolate
from .errors import MismatchError, ResourceLimitError, ZeroAfterSubstitutionError
from .gcdtools import divide_monomial, monomial_content, squarefree_part
from .gaussmanin import GaussManinData
from .linalg import det_fraction
from .phase import IcisMap
from .poly import MultiPoly, poly_substitute


@dataclass
class FrontResult:
    """The pulled-back discriminant, its normalizations and the path taken.

    ``strategy`` holds deterministic facts only (no timings): the engine
    ("probed grid"), the matrix size and the peeled and core sizes, and when
    a core is left, its exponent parity, the safe and probed degree bounds,
    the number of grid points and whether the safe-bounds fallback ran.
    """

    phi: MultiPoly
    raw: MultiPoly
    squarefree: MultiPoly | None
    case: str
    substitution: dict[str, MultiPoly]
    power: int
    metadata: dict = field(default_factory=dict)
    strategy: dict = field(default_factory=dict)


def front_ring(n: int, symbolic_s: bool) -> tuple[str, ...]:
    base = [f"x{i + 1}" for i in range(n)] + ["t"]
    if symbolic_s:
        base.append("s")
    return tuple(base)


def front_substitution(
    icis: IcisMap, s_value: Fraction | None
) -> tuple[tuple[str, ...], dict[str, MultiPoly]]:
    """The y -> (s, case rule, W couplings) binding map."""
    ring = front_ring(icis.n, symbolic_s=s_value is None)
    if s_value is None:
        s_poly = MultiPoly.variable(ring, "s")
    else:
        s_poly = MultiPoly.constant(ring, Fraction(s_value))
    bindings: dict[str, MultiPoly] = {"y0": s_poly}
    if icis.case == "case1":
        bindings["y1"] = icis.y1_value.rename_ring(ring)
    else:
        bindings["y1"] = MultiPoly.zero(ring)
    for c in icis.couplings:
        bindings[f"y{c.y_index}"] = c.w_poly.rename_ring(ring)
    missing = [f"y{i}" for i in range(icis.K) if f"y{i}" not in bindings]
    if missing:
        raise ValueError(f"substitution misses parameters {missing}")
    return ring, bindings


def front_polynomial(
    data: GaussManinData,
    icis: IcisMap,
    s_value: Fraction | None = None,
    seed: int = 0,
) -> FrontResult:
    """Pull the discriminant back along the front substitution and normalize.

    The entries of M(y) are substituted first; the determinant of the
    substituted matrix is then taken by probed interpolation.
    ``data.delta`` is left untouched.
    """
    ring, bindings = front_substitution(icis, s_value)
    M_sub = [[poly_substitute(e, bindings) for e in row] for row in data.M]
    raw, strategy = _det_probed_interpolation(M_sub, ring, seed=seed)
    if raw.is_zero():
        raise ZeroAfterSubstitutionError(
            "discriminant pullback vanishes identically; raw system kept for diagnosis"
        )
    phi = raw.primitive_part()
    try:
        sf = squarefree_part(phi)
        sf_note = "computed"
    except ResourceLimitError:
        sf = None
        sf_note = "skipped: gcd resource cap"
    return FrontResult(
        phi=phi,
        raw=raw,
        squarefree=sf,
        case=icis.case,
        substitution=bindings,
        power=icis.power,
        metadata={
            "s": "symbolic" if s_value is None else str(Fraction(s_value)),
            "monomial_content": {v: k for v, k in zip(ring, monomial_content(phi)) if k},
            "squarefree": sf_note,
            "sign_normalization": icis.sign,
            "case1_bookkeeping": "constant monomial mapped to the y1 direction",
        },
        strategy=strategy,
    )


def _variable_parity(M_sub, ring) -> list[int]:
    """Per-variable gcd of exponents across all entries (for grid compression)."""
    out = []
    for i, v in enumerate(ring):
        g = 0
        for row in M_sub:
            for p in row:
                for e in p.terms:
                    g = gcd(g, e[i])
        out.append(g if g > 0 else 1)
    return out


def _peel_single_entries(M: list[list[MultiPoly]], ring):
    """Laplace-expand along rows/columns with exactly one nonzero entry.

    Returns (factor polynomial, sign, reduced matrix); repeated until no
    such row or column remains.  Exact, and it shrinks both the matrix and
    the interpolation grid.
    """
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


def _det_probed_interpolation(
    M_sub: list[list[MultiPoly]],
    ring: tuple[str, ...],
    seed: int = 0,
) -> tuple[MultiPoly, dict]:
    """Determinant of a substituted matrix by probed-degree interpolation.

    Single-entry rows and columns are peeled off exactly first.  Then the
    per-variable degrees of the remaining determinant are discovered along
    random axis-parallel lines (twice, max taken), the grid is evaluated
    exactly, and the interpolant is verified against determinants of the
    entries evaluated directly (``eval_exact``, ``det_fraction``) at four
    random points, falling back to safe degree bounds on a verification
    failure.  Returns the determinant and the ``FrontResult.strategy``
    record of the path.
    """
    rng = random.Random(seed)
    factor, sign, core = _peel_single_entries(M_sub, ring)
    record = {
        "engine": "probed grid",
        "size": len(M_sub),
        "peeled": len(M_sub) - len(core),
        "core": len(core),
    }
    if not core:
        return factor.scale(sign), record
    parity = _variable_parity(core, ring)
    compressed = _compress_exponents(core, ring, parity)
    safe = degree_bounds(compressed)
    bounds = _probe_degrees(compressed, ring, rng, safe)
    bounds = [min(b, s) for b, s in zip(bounds, safe)]
    record.update(
        parity=parity,
        safe_bounds=safe,
        probed_bounds=bounds,
        grid_points=prod(b + 1 for b in bounds),
        fallback=False,
    )
    det = det_interpolate(compressed, bounds)
    for _ in range(4):
        pt = {v: Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for v in ring}
        direct = det_fraction([[p.eval_exact(pt) for p in row] for row in compressed])
        if det.eval_exact(pt) != direct:
            try:
                det = det_interpolate(compressed, safe)
            except ResourceLimitError as err:
                raise MismatchError(
                    "probed interpolation failed verification and safe bounds "
                    f"exceed the grid cap {err.limit}"
                ) from None
            record["fallback"] = True
            break
    det = _decompress_exponents(det, ring, parity)
    return (factor * det).scale(sign), record


def _compress_exponents(M_sub, ring, parity):
    if all(g == 1 for g in parity):
        return M_sub
    out = []
    for row in M_sub:
        new_row = []
        for p in row:
            terms = {}
            for e, c in p.terms.items():
                terms[tuple(x // g for x, g in zip(e, parity))] = c
            new_row.append(MultiPoly(ring, terms))
        out.append(new_row)
    return out


def _decompress_exponents(p: MultiPoly, ring, parity) -> MultiPoly:
    if all(g == 1 for g in parity):
        return p
    terms = {}
    for e, c in p.terms.items():
        terms[tuple(x * g for x, g in zip(e, parity))] = c
    return MultiPoly(ring, terms)


def _probe_degrees(M_sub, ring, rng, safe: list[int]) -> list[int]:
    """Actual per-variable degree of det(M) along random axis-parallel lines.

    The determinant is evaluated at safe_bound+1 nodes (a grid whose other
    axes hold one value each) and interpolated as a univariate; the trimmed
    degree is the probe.  Two lines per variable, max taken.
    """
    bounds = []
    for k in range(len(ring)):
        best = 0
        for _ in range(2):
            axes = [[rng.randint(2, 19)] for _ in range(len(ring) - 1)]
            axes.insert(k, range(safe[k] + 1))
            coeffs = _interp_1d(_grid_values(M_sub, ring, axes)[0])
            best = max(best, max((i for i, c in enumerate(coeffs) if c), default=0))
        bounds.append(best)
    return bounds


@dataclass
class TZeroReport:
    max_scaled_residual: float
    samples: int
    no_real_points: bool = False


def t_zero_check(
    fr: FrontResult,
    F: MultiPoly,
    s_value: Fraction,
    samples: int = 50,
    seed: int = 3,
    box: float = 2.5,
) -> TZeroReport:
    """Residual at t = 0 on numerically sampled points of {F = s}.

    phi = t^k * rest vanishes identically at t = 0 when k > 0, so the check
    evaluates phi divided by its t-power content.  Residuals are scaled by
    the coefficient norm and a point-magnitude factor, so float evaluation
    error stays orders below the tolerances.
    """
    from .oracle import sample_level_set, scaled_residual

    pts = sample_level_set(F, Fraction(s_value), samples, seed=seed, box=box)
    if not pts:
        return TZeroReport(max_scaled_residual=float("nan"), samples=0, no_real_points=True)
    ti = fr.phi.ring.index("t")
    t_power = tuple(k if i == ti else 0 for i, k in enumerate(monomial_content(fr.phi)))
    phi = divide_monomial(fr.phi, t_power)
    worst = 0.0
    for z in pts:
        values = {f"x{i + 1}": z[i] for i in range(len(z))}
        values["t"] = 0.0
        if "s" in phi.ring:
            values["s"] = float(s_value)
        worst = max(worst, scaled_residual(phi, values))
    return TZeroReport(max_scaled_residual=worst, samples=len(pts))
