"""Wavefront defining polynomial via substitution into the system discriminant.

The front polynomial phi(x, t, s) is det M(y) evaluated along
y0 = s, y1 = (-W_1 | 0) depending on the case, and y_i = W_i(x, t) through
the recorded couplings.  For small systems the determinant is taken first;
for large ones the substitution happens entry-wise and the determinant is
recovered by degree-probed grid interpolation with exact post-verification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .detpoly import _interp_1d, degree_bounds, det_bareiss, det_interpolate
from .errors import MismatchError, ResourceLimitError, ZeroAfterSubstitutionError
from .gcdtools import squarefree_part
from .gaussmanin import GaussManinData, discriminant
from .linalg import det_fraction
from .phase import IcisMap
from .poly import MultiPoly, poly_substitute

# Size switches on the Milnor number mu = dim M(y).  Up to DET_FIRST_MAX_MU
# det M(y) is taken symbolically before the substitution; above it the
# entries are substituted first, and the determinant of the substituted
# matrix is taken by Bareiss up to BAREISS_MAX_MU, by the probed grid above.
DET_FIRST_MAX_MU = 6
BAREISS_MAX_MU = 8


@dataclass
class FrontResult:
    """The pulled-back discriminant and its normalizations."""

    phi: MultiPoly
    raw: MultiPoly
    squarefree: MultiPoly | None
    case: str
    substitution: dict[str, MultiPoly]
    power: int
    strategy: str
    metadata: dict = field(default_factory=dict)


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
    strategy: str = "auto",
    det_strategy: str = "bareiss",
    seed: int = 0,
    max_grid: int = 400_000,
) -> FrontResult:
    """Pull the discriminant back along the front substitution and normalize.

    ``strategy``: ``det-first`` computes det M(y) symbolically then
    substitutes; ``substitute-first`` substitutes entry-wise and then takes
    the determinant (Bareiss below the size threshold, otherwise probed
    interpolation); ``auto`` picks by system size.
    """
    ring, bindings = front_substitution(icis, s_value)
    if strategy == "auto":
        strategy = "det-first" if data.mu <= DET_FIRST_MAX_MU else "substitute-first"
    if strategy == "det-first":
        if data.delta is None:
            discriminant(data, strategy=det_strategy)
        raw = poly_substitute(data.delta_raw, bindings)
    elif strategy == "substitute-first":
        M_sub = [
            [poly_substitute(e, bindings) for e in row] for row in data.M
        ]
        if data.mu <= BAREISS_MAX_MU:
            raw = det_bareiss(M_sub)
        else:
            raw = _det_probed_interpolation(M_sub, ring, seed=seed, max_grid=max_grid)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
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
        strategy=strategy,
        metadata={
            "s": "symbolic" if s_value is None else str(Fraction(s_value)),
            "squarefree": sf_note,
            "sign_normalization": icis.sign,
            "case1_bookkeeping": "constant monomial mapped to the y1 direction",
        },
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
    changed = True
    while changed and m:
        changed = False
        n = len(m)
        for i in range(n):
            nz = [j for j in range(n) if not m[i][j].is_zero()]
            if len(nz) == 0:
                return MultiPoly.zero(ring), 1, []
            if len(nz) == 1:
                j = nz[0]
                factor = factor * m[i][j]
                sign *= (-1) ** (i + j)
                m = [
                    [m[r][c] for c in range(n) if c != j]
                    for r in range(n)
                    if r != i
                ]
                changed = True
                break
        if changed or not m:
            continue
        n = len(m)
        for j in range(n):
            nz = [i for i in range(n) if not m[i][j].is_zero()]
            if len(nz) == 0:
                return MultiPoly.zero(ring), 1, []
            if len(nz) == 1:
                i = nz[0]
                factor = factor * m[i][j]
                sign *= (-1) ** (i + j)
                m = [
                    [m[r][c] for c in range(n) if c != j]
                    for r in range(n)
                    if r != i
                ]
                changed = True
                break
    return factor, sign, m


def _det_probed_interpolation(
    M_sub: list[list[MultiPoly]],
    ring: tuple[str, ...],
    seed: int = 0,
    max_grid: int = 400_000,
    verify_points: int = 4,
) -> MultiPoly:
    """Determinant of a substituted matrix by probed-degree interpolation.

    Single-entry rows and columns are peeled off exactly first.  Then the
    per-variable degrees of the remaining determinant are discovered along
    random axis-parallel lines (twice, max taken), the grid is evaluated
    exactly over integer-scaled rows, and the interpolant is verified
    against direct determinant values at extra random points, falling back
    to safe degree bounds on a verification failure.
    """
    rng = random.Random(seed)
    factor, sign, core = _peel_single_entries(M_sub, ring)
    if not core:
        return factor.scale(sign)
    parity = _variable_parity(core, ring)
    compressed, cring = _compress_exponents(core, ring, parity)
    safe = degree_bounds(compressed)
    bounds = _probe_degrees(compressed, cring, rng, safe)
    bounds = [min(b, s) for b, s in zip(bounds, safe)]
    det = det_interpolate(compressed, bounds, max_points=max_grid)
    for _ in range(verify_points):
        pt = {v: Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for v in cring}
        direct = det_fraction([[p.eval_exact(pt) for p in row] for row in compressed])
        if det.eval_exact(pt) != direct:
            try:
                det = det_interpolate(compressed, safe, max_points=max_grid)
            except ResourceLimitError:
                raise MismatchError(
                    "probed interpolation failed verification and safe bounds "
                    f"exceed the grid cap {max_grid}"
                ) from None
            break
    det = _decompress_exponents(det, ring, parity)
    return (factor * det).scale(sign)


def _compress_exponents(M_sub, ring, parity):
    if all(g == 1 for g in parity):
        return M_sub, ring
    out = []
    for row in M_sub:
        new_row = []
        for p in row:
            terms = {}
            for e, c in p.terms.items():
                terms[tuple(x // g for x, g in zip(e, parity))] = c
            new_row.append(MultiPoly(ring, terms))
        out.append(new_row)
    return out, ring


def _decompress_exponents(p: MultiPoly, ring, parity) -> MultiPoly:
    if all(g == 1 for g in parity):
        return p
    terms = {}
    for e, c in p.terms.items():
        terms[tuple(x * g for x, g in zip(e, parity))] = c
    return MultiPoly(ring, terms)


def _probe_degrees(M_sub, ring, rng, safe: list[int]) -> list[int]:
    """Actual per-variable degree of det(M) along random axis-parallel lines.

    The determinant is evaluated at safe_bound+1 nodes and interpolated as a
    univariate; the trimmed degree is the probe.  Two lines per variable,
    max taken.
    """
    bounds = []
    for k, v in enumerate(ring):
        best = 0
        for _ in range(2):
            point = {w: Fraction(rng.randint(2, 19)) for w in ring if w != v}
            spec = [[p.substitute_partial(point) for p in row] for row in M_sub]
            vals = []
            for a in range(safe[k] + 1):
                m = [
                    [p.substitute_partial({v: Fraction(a)}).constant_value() for p in row]
                    for row in spec
                ]
                vals.append(det_fraction(m))
            coeffs = _interp_1d(vals)
            deg = len(coeffs) - 1
            while deg > 0 and coeffs[deg] == 0:
                deg -= 1
            if coeffs[deg] == 0:
                deg = 0
            best = max(best, deg)
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
    """Residual of phi(x, 0, s) on numerically sampled points of {F = s}.

    Residuals are scaled by the coefficient norm and a point-magnitude
    factor, so float evaluation error stays orders below the tolerances.
    """
    from .oracle import sample_level_set, scaled_residual

    pts = sample_level_set(F, Fraction(s_value), samples, seed=seed, box=box)
    if not pts:
        return TZeroReport(max_scaled_residual=float("nan"), samples=0, no_real_points=True)
    phi = fr.phi
    worst = 0.0
    for z in pts:
        values = {f"x{i + 1}": z[i] for i in range(len(z))}
        values["t"] = 0.0
        if "s" in phi.ring:
            values["s"] = float(s_value)
        worst = max(worst, scaled_residual(phi, values))
    return TZeroReport(max_scaled_residual=worst, samples=len(pts))
