"""Independent verification: elimination-ideal critical loci and ray sampling.

Nothing here touches the lattice machinery.  The critical-value locus comes
from Groebner elimination on the graph-plus-minors ideal and is compared
with det M exactly, by squarefree parts; front points come from numerically
integrated characteristic rays (straight lines, constant coefficients).
Float containment sampling of critical values on det M = 0 is only the
fallback for when a resource cap stops the eliminant or the gcd.  Agreement
of the two sides with the discriminant pipeline is the package's end-to-end
correctness evidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import MismatchError
from .groebner import eliminate
from .phase import HyperbolicSymbol, IcisMap, maximal_minors
from .poly import MultiPoly, poly_substitute
from .gcdtools import squarefree_part

ZERO = Fraction(0)


def critical_locus_eliminant(
    icis: IcisMap,
    max_pairs: int = 100_000,
    max_degree: int = 60,
    max_poly_terms: int = 30_000,
) -> list[MultiPoly]:
    """Eliminate u from <f_l - y_l> + <maximal Jacobian minors>.

    Coordinate components are substituted away first (u_c = y_l exactly),
    which shrinks the elimination to the essential variables.
    """
    ring = icis.ring
    y_names = icis.y_names()
    coords = icis.coordinate_components()
    coord_vars = {c: l for l, c in coords}
    rest = [i for i in range(len(ring)) if i not in coord_vars]
    mixed_ring = tuple(ring[i] for i in rest) + y_names
    bindings = {}
    for i in range(len(ring)):
        if i in coord_vars:
            bindings[ring[i]] = MultiPoly.variable(mixed_ring, f"y{coord_vars[i]}")
        else:
            bindings[ring[i]] = MultiPoly.variable(mixed_ring, ring[i])

    gens: list[MultiPoly] = []
    coord_comps = {l for l, _ in coords}
    for l, f in enumerate(icis.components):
        if l in coord_comps:
            continue  # f_l - y_l became y_l - y_l = 0 after substitution
        g = poly_substitute(f, bindings) - MultiPoly.variable(mixed_ring, f"y{l}")
        gens.append(g)
    for m in maximal_minors(icis.jacobian(), ring):
        if m.is_zero():
            continue
        gens.append(poly_substitute(m, bindings))
    drop = [ring[i] for i in rest]
    out = eliminate(
        gens, drop, max_pairs=max_pairs, max_degree=max_degree, max_poly_terms=max_poly_terms
    )
    return [p.rename_ring(y_names) for p in out]


@dataclass
class SampledContainment:
    points: int
    max_scaled_residual: float
    attempted: int


def sampled_critical_containment(
    icis: IcisMap,
    M: list[list[MultiPoly]],
    count: int = 12,
    seed: int = 23,
    tol: float = 1e-8,
) -> SampledContainment:
    """Critical values of the mapping must lie on {det M(y) = 0}: sampled check.

    Random starts are projected onto the critical set (all maximal Jacobian
    minors zero) by Gauss-Newton on the stacked system, pushed forward
    through the mapping, and det M is evaluated there.  The stack also holds
    |u|^2 = |u_start|^2: the minors of a quasihomogeneous map are weighted
    homogeneous, so without it each Gauss-Newton step shrinks u toward the
    origin and det M is tested only at y = 0.  This is the fallback oracle
    when the elimination ideal or the gcd is out of reach.
    """
    rng = random.Random(seed)
    ring = icis.ring
    minors = [q for q in maximal_minors(icis.jacobian(), ring) if not q.is_zero()]
    grads = {
        i: [q.partial(v) for v in ring] for i, q in enumerate(minors)
    }
    n = len(ring)
    found = 0
    attempted = 0
    worst = 0.0
    while found < count and attempted < 60 * count:
        attempted += 1
        u = np.array([rng.uniform(-1.5, 1.5) for _ in range(n)])
        radius2 = float(np.dot(u, u))
        ok = False
        for _ in range(60):
            vals = {v: u[i] for i, v in enumerate(ring)}
            r = np.array([q.eval_float(vals) for q in minors] + [float(np.dot(u, u)) - radius2])
            if float(np.max(np.abs(r))) < 1e-13:
                ok = True
                break
            J = np.array(
                [[g.eval_float(vals) for g in grads[i]] for i in range(len(minors))]
                + [list(2 * u)]
            )
            try:
                step, *_ = np.linalg.lstsq(J, -r, rcond=None)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            u = u + step
            if float(np.max(np.abs(u))) > 1e3:
                break
        if not ok:
            continue
        vals = {v: u[i] for i, v in enumerate(ring)}
        yv = {f"y{l}": f.eval_float(vals) for l, f in enumerate(icis.components)}
        det = float(
            np.linalg.det(
                np.array([[e.eval_float(yv) for e in row] for row in M], dtype=float)
            )
        )
        res = abs(det) / _det_scale(M, yv)
        worst = max(worst, res)
        found += 1
        if res > tol:
            raise MismatchError(
                f"det M residual {res:.2e} at sampled critical value",
                witness=tuple(sorted(yv.items())),
            )
    return SampledContainment(points=found, max_scaled_residual=worst, attempted=attempted)


def _det_scale(M: list[list[MultiPoly]], yv: dict) -> float:
    """Row-wise coefficient-norm and magnitude bound for |det M| at a point."""
    mag = max([1.0] + [abs(float(v)) for v in yv.values()])
    scale = 1.0
    for row in M:
        row_norm = max(
            float(sum(abs(c) for c in p.terms.values())) if p.terms else 0.0
            for p in row
        )
        row_deg = max(p.total_degree() for p in row)
        scale *= max(row_norm, 1e-30) * mag**row_deg
    return max(scale, 1e-300)


def scaled_residual(p: MultiPoly, values: dict[str, float]) -> float:
    """|p(values)| / (L1 coefficient norm * max(1, |point|_inf)^deg)."""
    norm = float(sum(abs(c) for c in p.terms.values()))
    if norm == 0.0:
        return 0.0
    mag = max([1.0] + [abs(float(v)) for v in values.values()])
    scale = norm * mag ** p.total_degree()
    return abs(p.eval_float(values)) / scale


@dataclass
class DiscriminantComparison:
    verdict: str
    detail: str


def compare_discriminants(
    delta: MultiPoly, eliminant: Sequence[MultiPoly], seed: int = 17
) -> DiscriminantComparison:
    """Exact zero-set agreement of det M with the critical-value eliminant.

    The elimination ideal of an ICIS discriminant is an unmixed height-one
    ideal of a polynomial ring, hence principal: one generator g.  The two
    hypersurfaces agree iff the squarefree parts of delta and g are equal
    (``squarefree_part`` normalises both, ``seed`` drives its modular proof);
    ``detail`` then gives the radical's term count and total degree.  A gcd
    past its step or term budget raises ResourceLimitError.
    """
    eliminant = [p for p in eliminant if not p.is_zero()]
    if not eliminant:
        raise MismatchError("empty eliminant; nothing to compare")
    if len(eliminant) > 1:
        raise MismatchError(f"eliminant is not principal: {len(eliminant)} generators")
    d_sf = squarefree_part(delta, seed=seed)
    e_sf = squarefree_part(eliminant[0].rename_ring(delta.ring), seed=seed)
    if d_sf == e_sf:
        return DiscriminantComparison(
            verdict="equal radicals (exact)",
            detail=f"radical has {len(d_sf.terms)} terms, total degree {d_sf.total_degree()}",
        )
    raise MismatchError(
        f"radical mismatch: {d_sf.pretty()} vs {e_sf.pretty()}",
        witness=(d_sf.pretty(), e_sf.pretty()),
    )


def sample_level_set(
    F: MultiPoly, s: Fraction, count: int, seed: int = 3, box: float = 2.5
) -> list[tuple[float, ...]]:
    """Real points with F(z) = s, found on random lines inside a box."""
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
        roots = np.roots(list(reversed(coeffs)))
        for r in roots:
            if abs(r.imag) > 1e-10 * max(1.0, abs(r.real)):
                continue
            z = np.array([float(b) for b in base]) + float(r.real) * np.array(
                [float(d) for d in direction]
            )
            if np.max(np.abs(z)) > box:
                continue
            z = _newton_polish_level(F, grads, z, float(s))
            if z is None:
                continue
            out.append(tuple(z))
            if len(out) >= count:
                break
    return out[:count]


def _newton_polish_level(F, grads, z, s, iters: int = 6):
    names = F.ring
    for _ in range(iters):
        vals = {v: z[i] for i, v in enumerate(names)}
        r = F.eval_float(vals) - s
        g = np.array([gp.eval_float(vals) for gp in grads])
        gn = float(np.dot(g, g))
        if gn < 1e-18:
            return None
        z = z - r * g / gn
    vals = {v: z[i] for i, v in enumerate(names)}
    if abs(F.eval_float(vals) - s) > 1e-11 * max(1.0, abs(s)):
        return None
    return z


@dataclass
class RaySample:
    """One characteristic ray point: start z on the level set, sheet, time, x."""

    z: tuple[float, ...]
    sheet: int
    t: float
    x: tuple[float, ...]
    lam: float
    residual_root: float
    residual_level: float


@dataclass
class RayReport:
    samples: list[RaySample]
    skipped_collisions: int = 0


def sample_front(
    P: HyperbolicSymbol,
    F: MultiPoly,
    s: Fraction,
    t_values: Sequence[float],
    count: int,
    seed: int = 5,
    tol: float = 1e-8,
    box: float = 2.5,
) -> RayReport:
    """Front points x = z + t * grad_xi(lambda_j)(grad F(z)) over all sheets.

    Characteristic roots come from the companion matrix; their xi-gradients
    from implicit differentiation (-P_xi / P_tau), with one Newton polish on
    the root.  Near-collisions of roots are skipped and counted.
    """
    zs = sample_level_set(F, s, count, seed=seed, box=box)
    tau_polys = P.tau_coefficient_polys()
    xi_ring = P.poly.ring[1:]
    p_tau = P.poly.partial("tau")
    p_xis = [P.poly.partial(v) for v in P.poly.ring[1:]]
    grads = [F.partial(v) for v in F.ring]
    samples: list[RaySample] = []
    skipped = 0
    for z in zs:
        zvals = {v: z[i] for i, v in enumerate(F.ring)}
        xi = np.array([g.eval_float(zvals) for g in grads])
        if float(np.dot(xi, xi)) < 1e-16:
            continue
        xi_vals = {name: xi[i] for i, name in enumerate(xi_ring)}
        coeffs = [p.eval_float(xi_vals) for p in tau_polys]  # tau^m .. tau^0
        roots = np.roots(coeffs)
        lams = sorted(float(r.real) for r in roots)
        if len(lams) != P.m or any(
            abs(r.imag) > 1e-7 * max(1.0, abs(r.real)) for r in roots
        ):
            skipped += 1
            continue
        if any(abs(a - b) < tol for a, b in zip(lams, lams[1:])):
            skipped += 1
            continue
        level_res = abs(F.eval_float(zvals) - float(s))
        for j, lam in enumerate(lams):
            point = dict(xi_vals)
            point["tau"] = lam
            pt_val = p_tau.eval_float(point)
            if abs(pt_val) < 1e-14:
                skipped += 1
                continue
            # one Newton step on P(lam, xi) = 0
            lam = lam - P.poly.eval_float(point) / pt_val
            point["tau"] = lam
            pt_val = p_tau.eval_float(point)
            root_res = abs(P.poly.eval_float(point))
            grad_lam = np.array(
                [-pxi.eval_float(point) / pt_val for pxi in p_xis]
            )
            for t in t_values:
                x = np.array(z) + float(t) * grad_lam
                samples.append(
                    RaySample(
                        z=tuple(z),
                        sheet=j,
                        t=float(t),
                        x=tuple(float(c) for c in x),
                        lam=lam,
                        residual_root=root_res,
                        residual_level=level_res,
                    )
                )
    return RayReport(samples=samples, skipped_collisions=skipped)


@dataclass
class FrontEvalReport:
    max_scaled_residual: float
    count: int
    vacuous: bool = False
    worst: RaySample | None = None


def eval_front_on_samples(
    phi: MultiPoly, samples: Sequence[RaySample], s: Fraction, tol: float = 1e-6
) -> FrontEvalReport:
    """Max scaled |phi| over ray samples; pass iff below tol."""
    if not samples:
        return FrontEvalReport(max_scaled_residual=0.0, count=0, vacuous=True)
    worst = 0.0
    worst_s = None
    for smp in samples:
        values = {f"x{i + 1}": smp.x[i] for i in range(len(smp.x))}
        values["t"] = smp.t
        if "s" in phi.ring:
            values["s"] = float(s)
        r = scaled_residual(phi, values)
        if r > worst:
            worst = r
            worst_s = smp
    return FrontEvalReport(max_scaled_residual=worst, count=len(samples), worst=worst_s)
