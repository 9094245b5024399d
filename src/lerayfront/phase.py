"""Front validation and the symbolic phase pipeline.

Given a strictly hyperbolic constant-coefficient symbol P(tau, xi) and a
quasihomogeneous front polynomial F, this module checks both (weights, the
C3 dimension, and strict hyperbolicity at sampled xi from the Hermite form
on ``linalg.det_fraction``), builds the phase
psi(x, t, z) = P(<x - z, grad F(z)>, t grad F(z)), expands it into the
weighted deformation of <z, grad F>^m, and assembles the associated
complete-intersection mapping whose parameter space carries the front data.

``critical_ideal`` builds the mapping's critical ideal for every caller
(staircase, restricted map, eliminant, seeded lines); with
``bind_coordinates`` it is the only code that treats coordinate components.

x and t are treated as weightless parameters; all weights live on the
z-variables (and on the auxiliary variables of the mapping).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from .errors import (
    AmbiguousWeightsError,
    BoundViolationError,
    HomogeneousOnlyError,
    HyperbolicityError,
    InfiniteDimensionalError,
    NoPositiveSolutionError,
    NotIsolatedError,
    RingMismatchError,
)
from .detpoly import det_bareiss
from .groebner import GREVLEX, Staircase, groebner, standard_monomials
from .linalg import ColumnSpan, det_fraction
from .poly import Exponents, MultiPoly, poly_substitute, weight, weighted_graded_parts

ONE = Fraction(1)


@dataclass(frozen=True)
class WeightSystem:
    """Positive integer weights w_i for the front variables, plus w(F)."""

    weights: tuple[int, ...]
    total: int  # w(F)

    def __post_init__(self):
        if any(w <= 0 for w in self.weights) or self.total <= 0:
            raise NoPositiveSolutionError("weights and w(F) must be positive")

    def verify(self, F: MultiPoly) -> None:
        """Check the Euler relation sum(w_i x_i dF/dx_i) = w(F) F exactly.

        Term by term the left side is weight(e) * c x^e, so the relation
        holds exactly when every term of F has weight w(F).
        """
        if any(weight(e, self.weights) != self.total for e in F.terms):
            raise NoPositiveSolutionError(
                f"weights {self.weights} do not satisfy the Euler relation for {F.pretty()}"
            )


def discover_weights(F: MultiPoly) -> WeightSystem:
    """Solve <w, alpha> = w(F) over the support of F for primitive positive weights.

    Raises when no positive solution exists, when the solution space is more
    than one-dimensional (caller must then supply weights), or when all
    weights are forced equal (the front must not be homogeneous).
    """
    if F.is_zero():
        raise NoPositiveSolutionError("zero polynomial has no weight system")
    zero_e = tuple([0] * len(F.ring))
    if zero_e in F.terms:
        raise NoPositiveSolutionError("front polynomial must have no constant term")
    n = len(F.ring)
    support = sorted(F.terms)
    # homogeneous system (alpha, -1) . (w, W) = 0: the relations among its
    # columns w_1, ..., w_n, W are a basis of its nullspace
    span = ColumnSpan(range(len(support)))
    columns = [{i: Fraction(e[j]) for i, e in enumerate(support) if e[j]} for j in range(n)]
    columns.append({i: Fraction(-1) for i in range(len(support))})
    relations = [span.add(col, j) for j, col in enumerate(columns)]
    null = [rel for rel in relations if rel is not None]
    if len(null) == 0:
        raise NoPositiveSolutionError("front polynomial is not quasihomogeneous")
    if len(null) > 1:
        raise AmbiguousWeightsError(
            "weight system is not unique; pass explicit weights"
        )
    v = [null[0].get(j, Fraction(0)) for j in range(n + 1)]
    if v[-1] == 0:
        raise NoPositiveSolutionError("front polynomial is not quasihomogeneous")
    v = [x / v[-1] for x in v]  # normalize total weight positive
    if any(x <= 0 for x in v):
        raise NoPositiveSolutionError("weight solution is not positive")
    ints = _coprime_integers(v)
    weights, total = tuple(ints[:-1]), ints[-1]
    if len(set(weights)) == 1 and n > 1:
        raise HomogeneousOnlyError(
            f"all weights equal ({weights[0]}); the front must not be homogeneous"
        )
    if n == 1:
        raise HomogeneousOnlyError("a one-variable front is necessarily homogeneous")
    ws = WeightSystem(weights, total)
    ws.verify(F)
    return ws


def _coprime_integers(v: Sequence[Fraction]) -> list[int]:
    """The positive multiple of a nonzero rational vector with coprime integer entries."""
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints]


def jacobian_ideal_gens(F: MultiPoly) -> list[MultiPoly]:
    return [F] + [F.partial(v) for v in F.ring]


def check_c3(F: MultiPoly) -> int:
    """Dimension of Q[x] / <F, dF/dx_1, ..., dF/dx_n>; must be finite."""
    gb = groebner(jacobian_ideal_gens(F), GREVLEX)
    sc = standard_monomials(gb)
    if not sc.finite:
        raise InfiniteDimensionalError(
            f"quotient by the extended Jacobian ideal is infinite along {sc.witness_variable}"
        )
    return sc.dimension


@dataclass(frozen=True)
class HyperbolicSymbol:
    """Total symbol P(tau, xi) = tau^m + sum of P_{m-i}(xi) tau^(m-i).

    Ring is (tau, xi1..xin).  Monic in tau; each P_{m-i} homogeneous of
    degree i in xi.  Irreducibility over R is the caller's assertion.
    """

    poly: MultiPoly
    m: int
    n: int
    irreducible_attested: bool = False

    @classmethod
    def from_poly(cls, p: MultiPoly, irreducible_attested: bool = False) -> "HyperbolicSymbol":
        ring = p.ring
        if not ring or ring[0] != "tau":
            raise RingMismatchError("symbol ring must start with 'tau'")
        n = len(ring) - 1
        m = p.degree_in("tau")
        if m < 1:
            raise ValueError("symbol must have positive degree in tau")
        for e, c in p.terms.items():
            k = e[0]
            xi_deg = sum(e[1:])
            if k + xi_deg != m:
                raise ValueError(
                    "symbol must be homogeneous of degree m in (tau, xi) jointly"
                )
            if k == m and c != 1:
                raise ValueError("symbol must be monic in tau")
        lead = tuple([m] + [0] * n)
        if lead not in p.terms:
            raise ValueError("symbol must be monic in tau")
        return cls(poly=p, m=m, n=n, irreducible_attested=irreducible_attested)

    def tau_coefficient_polys(self) -> list[MultiPoly]:
        """P_{m-i}(xi) for i = 0..m, in the xi-ring."""
        xi_ring = self.poly.ring[1:]
        out = []
        for i in range(self.m + 1):
            terms = {}
            for e, c in self.poly.terms.items():
                if e[0] == self.m - i:
                    terms[e[1:]] = c
            out.append(MultiPoly(xi_ring, terms))
        return out


# xi samples per strict-hyperbolicity check
HYPERBOLICITY_SAMPLES = 25


def check_strict_hyperbolicity(P: HyperbolicSymbol, seed: int = 1) -> dict:
    """Sample nonzero rational xi and verify m distinct real tau-roots exactly.

    Hermite's form decides both: the Hankel matrix H = (s_{i+j}) of the
    power sums of the roots has the number of distinct roots as its rank
    and the number of distinct real roots as its signature.  So det H = 0
    means a repeated root, and otherwise all m roots are real exactly when
    every leading principal minor of H is positive (Sylvester).  Passing is
    a necessary-condition verdict, not a proof.
    """
    coefficients = P.tau_coefficient_polys()
    rng = random.Random(seed)
    checked = 0
    while checked < HYPERBOLICITY_SAMPLES:
        xi = tuple(Fraction(rng.randint(-9, 9)) for _ in range(P.n))
        if all(x == 0 for x in xi):
            continue
        point = dict(zip(coefficients[0].ring, xi))
        s = _power_sums([c.eval_exact(point) for c in coefficients])
        minors = [
            det_fraction([s[i : i + k] for i in range(k)]) for k in range(1, P.m + 1)
        ]
        if minors[-1] == 0:
            raise HyperbolicityError(f"repeated characteristic roots at xi = {xi}")
        if any(d <= 0 for d in minors):
            raise HyperbolicityError(f"complex characteristic roots at xi = {xi}")
        checked += 1
    return {"verdict": "passed samples", "samples": checked, "seed": seed}


def _power_sums(a: Sequence[Fraction]) -> list[Fraction]:
    """s_0..s_{2m-2} for the roots of tau^m + a_1 tau^(m-1) + ... + a_m (a_0 = 1).

    Newton's identities: s_k = -(k a_k + a_1 s_{k-1} + ... + a_{k-1} s_1) for
    k <= m, and s_k = -(a_1 s_{k-1} + ... + a_m s_{k-m}) beyond.
    """
    m = len(a) - 1
    s = [Fraction(m)]
    for k in range(1, 2 * m - 1):
        acc = k * a[k] if k <= m else 0
        s.append(-acc - sum(a[i] * s[k - i] for i in range(1, min(k, m + 1))))
    return s


def phase_ring(n: int) -> tuple[str, ...]:
    return tuple([f"x{i + 1}" for i in range(n)] + ["t"] + [f"z{i + 1}" for i in range(n)])


def build_phase(P: HyperbolicSymbol, F: MultiPoly) -> MultiPoly:
    """psi(x, t, z) by exact substitution into the symbol; no root extraction."""
    if P.n != len(F.ring):
        raise RingMismatchError(
            f"symbol has {P.n} space variables but front has {len(F.ring)}"
        )
    n = P.n
    ring = phase_ring(n)
    z_names = ring[n + 1 :]
    grads = [F.partial(v).relabel(z_names).rename_ring(ring) for v in F.ring]
    t = MultiPoly.variable(ring, "t")
    tau_image = MultiPoly.zero(ring)
    for j in range(n):
        xj = MultiPoly.variable(ring, f"x{j + 1}")
        zj = MultiPoly.variable(ring, f"z{j + 1}")
        tau_image = tau_image + (xj - zj) * grads[j]
    bindings = {"tau": tau_image}
    for j in range(n):
        bindings[f"xi{j + 1}"] = t * grads[j]
    return poly_substitute(P.poly, bindings)


def base_term(F: MultiPoly, m: int, ring: Sequence[str]) -> MultiPoly:
    """<z, grad F(z)>^m in the phase ring."""
    n = len(F.ring)
    ring = tuple(ring)
    z_names = tuple(f"z{i + 1}" for i in range(n))
    acc = MultiPoly.zero(ring)
    for j, v in enumerate(F.ring):
        g = F.partial(v).relabel(z_names).rename_ring(ring)
        zj = MultiPoly.variable(ring, f"z{j + 1}")
        acc = acc + zj * g
    return acc**m


@dataclass
class PhaseExpansion:
    """psi written as sign * <z, grad F>^m plus weighted deformation terms.

    ``base`` includes the sign, so psi = base + sum W_i z^alpha_i exactly.
    ``sign`` is +1 for even operator degree and -1 for odd; downstream
    constructions normalize by it so the mapping stays monic-like.
    """

    F: MultiPoly
    weights: WeightSystem
    m: int
    n: int
    base: MultiPoly
    sign: int
    deformation: list[tuple[Exponents, MultiPoly]]  # (z-monomial, W_i(x, t))
    case: str  # "case1" | "case2"
    mu_prime: int
    mu: int
    bound: Fraction
    psi: MultiPoly = field(repr=False, default=None)


def expand_phase(psi: MultiPoly, F: MultiPoly, w: WeightSystem) -> PhaseExpansion:
    """Collect psi - sign*<z,grad F>^m by z-monomial and verify the weight bound."""
    n = len(F.ring)
    ring = psi.ring
    if ring != phase_ring(n):
        raise RingMismatchError("psi does not live in the phase ring")
    # infer m from the z-degree structure: top weight must be m * w(F)
    z_weights = [0] * (n + 1) + list(w.weights)
    top = max((weight(e, z_weights) for e in psi.terms), default=0)
    if top == 0 or top % w.total != 0:
        raise BoundViolationError(
            f"top z-weight {top} of psi is not a multiple of w(F) = {w.total}"
        )
    m = top // w.total
    sign = 1 if m % 2 == 0 else -1
    base = base_term(F, m, ring).scale(sign)
    rest = psi - base
    # group by z-monomial
    groups: dict[tuple[int, ...], dict] = {}
    for e, c in rest.terms.items():
        zexp = e[n + 1 :]
        xte = e[: n + 1] + tuple([0] * n)
        groups.setdefault(zexp, {})[xte] = c
    deformation = []
    for zexp in sorted(groups, key=lambda z: (weight(z, w.weights), z)):
        wt = weight(zexp, w.weights)
        if wt >= m * w.total:
            raise BoundViolationError(
                f"deformation monomial z^{zexp} has weight {wt} >= m*w(F) = {m * w.total}; "
                "the top graded part of psi is not sign*<z,grad F>^m"
            )
        W = MultiPoly(ring, groups[zexp])
        if W.total_degree() > m:
            raise BoundViolationError(
                f"coefficient of z^{zexp} has degree {W.total_degree()} > m = {m}"
            )
        deformation.append((zexp, W))
    bound = Fraction(m) ** n
    for wi in w.weights:
        bound *= Fraction(w.total, wi)
    mu_prime = len(deformation)
    if mu_prime > bound:
        raise BoundViolationError(
            f"deformation has {mu_prime} monomials, exceeding the bound {bound}"
        )
    case = "case1" if deformation and not any(deformation[0][0]) else "case2"
    mu = mu_prime if case == "case1" else mu_prime + 1
    return PhaseExpansion(
        F=F,
        weights=w,
        m=m,
        n=n,
        base=base,
        sign=sign,
        deformation=deformation,
        case=case,
        mu_prime=mu_prime,
        mu=mu,
        bound=bound,
        psi=psi,
    )


@dataclass
class Coupling:
    """One deformation monomial wired to an auxiliary variable and a y-slot.

    ``w_poly`` is the sign-normalized coefficient: the value the auxiliary
    variable takes on the fiber through the actual phase.
    """

    y_index: int
    var: str
    monomial: Exponents
    w_poly: MultiPoly


@dataclass
class IcisMap:
    """Quasihomogeneous map u -> (f_0..f_{K-1}) with isolated singular fiber."""

    K: int
    N: int
    ring: tuple[str, ...]
    components: list[MultiPoly]
    var_weights: tuple[int, ...]
    comp_weights: tuple[int, ...]
    power: int = 2
    n: int = 0
    case: str = ""
    sign: int = 1
    couplings: list[Coupling] = field(default_factory=list)
    y1_value: MultiPoly | None = None  # Case 1: -W_1 (normalized); Case 2: None (zero)
    metadata: dict = field(default_factory=dict)
    _staircase: Staircase | None = field(default=None, init=False, repr=False, compare=False)

    def y_names(self) -> tuple[str, ...]:
        return tuple(f"y{i}" for i in range(self.K))

    def coordinate_components(self) -> list[tuple[int, int]]:
        """(component index, variable index) pairs with f_l = u_c exactly."""
        out = []
        for l, f in enumerate(self.components):
            if len(f.terms) != 1:
                continue
            (e, c), = f.terms.items()
            if c == 1 and sum(e) == 1:
                out.append((l, e.index(1)))
        return out


def build_mapping(exp: PhaseExpansion, power: int = 2) -> IcisMap:
    """Assemble the complete-intersection mapping carrying the phase deformation.

    Case 1 sends the constant deformation monomial to the y_1 direction; all
    other monomials are coupled to fresh variables.  New-variable weights are
    m*w(F) - w(z^alpha) and m*w(F)/power, with one integral rescale.
    ``make_icis`` reads off the component weights and checks isolation; the
    phase bookkeeping is then set on the map it returns.
    """
    if exp.mu < 1:
        raise ValueError("empty deformation; nothing to build")
    if power < 2:
        raise ValueError("power must be >= 2")
    n, m, wF = exp.n, exp.m, exp.weights.total
    coupled: list[tuple[Exponents, MultiPoly]] = []
    y1_value: MultiPoly | None = None
    if exp.case == "case1":
        const_mono, W1 = exp.deformation[0]
        assert not any(const_mono)
        coupled = exp.deformation[1:]
    else:
        coupled = list(exp.deformation)
    mu = exp.mu
    assert len(coupled) == mu - 1

    ring = tuple(f"z{i + 1}" for i in range(n + mu))
    xt_ring = phase_ring(n)[: n + 1]  # x1..xn, t

    def to_u(p: MultiPoly) -> MultiPoly:
        return p.rename_ring(ring)

    def xt_part(p: MultiPoly) -> MultiPoly:
        return p.rename_ring(xt_ring)

    z_names = tuple(f"z{i + 1}" for i in range(n))
    F_u = exp.F.relabel(z_names).rename_ring(ring)
    base_u = to_u(exp.base.scale(exp.sign))  # +<z, grad F>^m, no sign

    f1 = MultiPoly.from_monomial(
        ring, tuple([0] * (n + mu - 1) + [power]), 1
    ) + base_u
    couplings: list[Coupling] = []
    for i, (mono, W) in enumerate(coupled):
        var = ring[n + i]
        e = [0] * len(ring)
        for j, k in enumerate(mono):
            e[j] = k
        e[n + i] = 1
        f1 = f1 + MultiPoly.from_monomial(ring, tuple(e), 1)
        couplings.append(
            Coupling(
                y_index=i + 2,
                var=var,
                monomial=mono,
                w_poly=xt_part(W).scale(exp.sign),
            )
        )
    if exp.case == "case1":
        y1_value = xt_part(exp.deformation[0][1]).scale(-exp.sign)

    components = [F_u, f1] + [
        MultiPoly.variable(ring, ring[n + i]) for i in range(mu - 1)
    ]

    # weights: start from the front weights, extend, rescale to integers
    vw: list[Fraction] = [Fraction(w) for w in exp.weights.weights]
    for mono, _ in coupled:
        vw.append(Fraction(m * wF - weight(mono, exp.weights.weights)))
    vw.append(Fraction(m * wF, power))
    icis = make_icis(components, _coprime_integers(vw), power)
    icis.n = n
    icis.case = exp.case
    icis.sign = exp.sign
    icis.couplings = couplings
    icis.y1_value = y1_value
    icis.metadata = {
        "case1_bookkeeping": "constant monomial mapped to the y1 direction",
        "power": power,
        "sign_normalization": exp.sign,
    }
    return icis


def make_icis(
    components: Sequence[MultiPoly], var_weights: Sequence[int], power: int = 2
) -> IcisMap:
    """The quasihomogeneous map with these components and variable weights.

    The one constructor that checks a map: each component must be
    weighted-homogeneous (its weight is read off) and the singularity
    isolated (``validate_isolated``, which caches the critical staircase).
    ``build_mapping`` builds through it; tests and direct CLI use call it
    on hand-built components.
    """
    components = list(components)
    ring = components[0].ring
    var_weights = tuple(var_weights)
    comp_weights = []
    for f in components:
        parts = weighted_graded_parts(f, var_weights)
        if len(parts) != 1:
            raise ValueError(f"{f.pretty()} is not weighted-homogeneous")
        comp_weights.append(parts[0][0])
    icis = IcisMap(
        K=len(components),
        N=len(ring) - len(components),
        ring=tuple(ring),
        components=components,
        var_weights=var_weights,
        comp_weights=tuple(comp_weights),
        power=power,
    )
    validate_isolated(icis)
    return icis


def bind_coordinates(
    icis: IcisMap, images: Sequence[MultiPoly]
) -> tuple[list[int], list[MultiPoly], list[str]]:
    """Bind each coordinate variable u_c (f_l = u_c) to images[l].

    The images share one ring T.  Returns the indices l of the other
    components, their f_l - images[l] in the ring (rest, T), and rest: the
    u variables that are not coordinate components.
    """
    ring = icis.ring
    coord_vars = {c: l for l, c in icis.coordinate_components()}
    rest = [v for i, v in enumerate(ring) if i not in coord_vars]
    target = tuple(rest) + images[0].ring
    lifted = [y.rename_ring(target) for y in images]
    bindings = {
        v: lifted[coord_vars[i]] if i in coord_vars else MultiPoly.variable(target, v)
        for i, v in enumerate(ring)
    }
    kept = [l for l in range(icis.K) if l not in coord_vars.values()]
    components = [poly_substitute(icis.components[l], bindings) - lifted[l] for l in kept]
    return kept, components, rest


def critical_ideal(
    icis: IcisMap, images: Sequence[MultiPoly]
) -> tuple[list[MultiPoly], list[str]]:
    """<f_l - y_l> + <maximal Jacobian minors>, with y_l bound to images[l].

    A coordinate component f_l = u_c binds u_c to images[l] and drops out;
    the others g_l = f_l - images[l] live in (rest, T) (``bind_coordinates``).
    The minors are those of their own K' x (N+K') Jacobian in rest: a full
    K x K minor that leaves out a coordinate column has a zero row, and
    every other one is, up to sign, such a minor with u_c bound.  Returns
    the nonzero generators, components first, and rest.
    """
    _, components, rest = bind_coordinates(icis, images)
    if not components:  # every component is a coordinate: no critical points
        return [MultiPoly.constant(tuple(rest) + images[0].ring, 1)], rest
    jac = [[g.partial(v) for v in rest] for g in components]
    minors = [
        det_bareiss([[row[c] for c in sel] for row in jac])
        for sel in combinations(range(len(rest)), len(jac))
    ]
    return [g for g in components + minors if not g.is_zero()], rest


def critical_ideal_gens(icis: IcisMap) -> list[MultiPoly]:
    """Generators of <f_0..f_{K-1}> + <maximal Jacobian minors>.

    ``critical_ideal`` at images 0, in the full ring, plus the coordinate
    variables u_c.
    """
    gens, _ = critical_ideal(icis, [MultiPoly.zero(())] * icis.K)
    ring = icis.ring
    coords = [MultiPoly.variable(ring, ring[c]) for _, c in icis.coordinate_components()]
    return [g.rename_ring(ring) for g in gens] + coords


def critical_staircase(icis: IcisMap) -> Staircase:
    """Staircase of the critical ideal, computed once per map and kept on it."""
    if icis._staircase is None:
        icis._staircase = standard_monomials(groebner(critical_ideal_gens(icis), GREVLEX))
    return icis._staircase


def validate_isolated(icis: IcisMap) -> int:
    """Finite-dimensionality of the singularity quotient; returns its dimension."""
    sc = critical_staircase(icis)
    if not sc.finite:
        raise NotIsolatedError(
            f"singularity is not isolated: staircase unbounded along {sc.witness_variable}"
        )
    return sc.dimension
