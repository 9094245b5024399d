"""Wavefront defining polynomial via substitution into the system matrix.

The front polynomial phi(x, t, s) is det M(y) evaluated along
y0 = s, y1 = (-W_1 | 0) depending on the case, and y_i = W_i(x, t) through
the recorded couplings.  Ring maps commute with determinants, so the
entries of M are pulled back first for every Milnor number mu, in Python
integers: ``poly.pullback``, the one substitution, gives the substituted
matrix as integer rows over row scales.  One engine,
``detpoly.det_probed``, takes the determinant of those rows: the peel,
the parity compression, the degree probes, the integer grid, its exact
check at random rational points and the safe-bounds fallback all live
there.  This module keeps the substitution map, the normalizations
(the primitive part, and the squarefree part when
``gcdtools.squarefree_part`` proves one; None otherwise) and the metadata;
``FrontResult.strategy`` records the path taken (``front.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .detpoly import _row_scaled_entries, det_probed
from .errors import ZeroAfterSubstitutionError
from .gcdtools import divide_monomial, monomial_content, squarefree_part
from .gaussmanin import GaussManinData
from .oracle import LevelSet, scaled_residuals, worst_residual
from .phase import IcisMap
from .poly import MultiPoly, pullback


@dataclass
class FrontResult:
    """The pulled-back discriminant, its normalizations and the path taken.

    ``strategy`` is the record of ``detpoly.det_probed``: deterministic
    facts only (no timings) about the peel, the parity compression, the
    degree bounds, the grid and whether the safe-bounds fallback ran.
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

    The entries of M(y) are pulled back first, to integer rows
    (``poly.pullback``); ``detpoly.det_probed`` then takes the
    determinant of the substituted matrix.  ``data.delta`` is left
    untouched.
    """
    ring, bindings = front_substitution(icis, s_value)
    images = [bindings[y] for y in data.y_ring]
    rows, scales = pullback(*_row_scaled_entries(data.M), images, ring)
    raw, strategy = det_probed(rows, scales, ring, seed=seed)
    if raw.is_zero():
        raise ZeroAfterSubstitutionError(
            "discriminant pullback vanishes identically; raw system kept for diagnosis"
        )
    phi = raw.primitive_part()
    sf = squarefree_part(phi)
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
            "squarefree": "computed" if sf is not None else "skipped: not proven squarefree",
            "sign_normalization": icis.sign,
            "case1_bookkeeping": "constant monomial mapped to the y1 direction",
        },
        strategy=strategy,
    )


# level-set points of the t = 0 check
T_ZERO_SAMPLES = 50


@dataclass
class TZeroReport:
    max_scaled_residual: float
    samples: int
    no_real_points: bool = False


def t_zero_check(fr: FrontResult, level: LevelSet, samples: int = T_ZERO_SAMPLES) -> TZeroReport:
    """Residual at t = 0 on the first ``samples`` points of the level set's stream.

    phi = t^k * rest vanishes identically at t = 0 when k > 0, so the check
    evaluates phi divided by its t-power content.  Residuals are scaled by
    the coefficient norm and a point-magnitude factor, so float evaluation
    error stays orders below the tolerances.
    """
    pts = level.take(samples)
    if not pts:
        return TZeroReport(max_scaled_residual=float("nan"), samples=0, no_real_points=True)
    ti = fr.phi.ring.index("t")
    t_power = tuple(k if i == ti else 0 for i, k in enumerate(monomial_content(fr.phi)))
    phi = divide_monomial(fr.phi, t_power)
    points = []
    for z in pts:
        values = {f"x{i + 1}": z[i] for i in range(len(z))}
        values["t"] = 0.0
        if "s" in phi.ring:
            values["s"] = float(level.s)
        points.append(values)
    worst, _ = worst_residual(scaled_residuals(phi, points))
    return TZeroReport(max_scaled_residual=worst, samples=len(pts))
