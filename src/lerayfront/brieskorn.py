"""Singularity bases and decomposition matrices in the Brieskorn lattice.

Three computations live here, all exact:

* ``phi_basis``: the Groebner staircase of the critical ideal
  (``phase.critical_ideal``); its size is the Milnor number.
* ``f_basis``: weighted-homogeneous (N+1)-form representatives of the
  companion quotient, selected greedily by ascending weight and then
  corrected to closed representatives.
* ``reduce_in_lattice`` / ``gm_matrices``: writes top forms as polynomial
  combinations of the staircase forms modulo df_0 ^ ... ^ df_{K-1} ^ d(eta),
  solving one graded piece at a time by exact linear algebra.  Every
  reduction returns a certificate that re-expands to the input identically;
  the re-expansion runs in integers over one denominator.

The f-basis search keeps independent forms in ``linalg.SparseEchelon``;
each graded piece solves in a ``linalg.ColumnSpan`` of its columns, which
tags each column on that echelon, so a solve reads the coefficients off
the tags of the reduced right-hand side.

Every map with coordinate components (f_l = u_c) takes the collapse path.
On such a component u^gamma f^beta = f^(beta + gamma), and D ^ d(u^gamma)
= 0, so the reduction of u^gamma x^r (x the remaining variables) is the
reduction of x^r shifted by gamma.  Each coordinate-free monomial x^r is
therefore reduced once per ``LatticeContext``: one solve against the
restricted mapping on the remaining variables (``phase.bind_coordinates``
at images 0, the critical ideal's binding), re-expanded on the full ring,
plus the shifted reductions of what that leaves over, whose coordinate-free
parts have lower weight.  Maps without coordinate components, and the
restricted map itself, solve each piece directly.  There is no retry: the
lattice is free, so a piece that has no solution fails with
ReductionNoSolutionError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add
from typing import Sequence

from .errors import (
    CapExceededError,
    NotIsolatedError,
    ReductionNoSolutionError,
    ResourceLimitError,
)
from .forms import (
    DiffForm,
    EulerField,
    _merge_indices,
    contract_euler,
    d_of_poly,
    exterior_d,
    wedge,
    wedge_all,
)
from .linalg import ColumnSpan, SparseEchelon
from .phase import IcisMap, bind_coordinates, critical_staircase
# unused here, but perfbench's tracer test looks the name up on this module
from .phase import critical_ideal_gens  # noqa: F401
from .poly import Exponents, MultiPoly, monomials_of_weight, weight

ONE = Fraction(1)
# The most row monomials one graded piece of the lattice may have; a larger
# piece ends the reduction with ResourceLimitError (kind "graded-piece").
MAX_PIECE = 40_000


@dataclass
class PhiBasis:
    """Staircase monomials phi_j whose classes phi_j du span the top quotient."""

    monomials: list[Exponents]
    mu: int
    weights: list[int]  # w(phi_j du) = w(phi_j) + sum(v)


@dataclass
class FBasis:
    """Closed (N+1)-form representatives with their weights l_1..l_mu."""

    forms: list[DiffForm]
    weights: list[int]


@dataclass
class LatticeCertificate:
    """Exact witness: input = sum_j P_j(f) phi_j du + df_0^...^df_{K-1}^d(eta)."""

    input_form: DiffForm
    coefficients: list[MultiPoly]  # P_j in the y-ring, one per staircase monomial
    eta: DiffForm

    def verify(self, ctx: "LatticeContext") -> bool:
        recon = ctx.expand_certificate(self)
        return recon == ctx.top_coefficient(self.input_form)


def phi_basis(icis: IcisMap) -> PhiBasis:
    sc = critical_staircase(icis)
    if not sc.finite:
        raise NotIsolatedError(
            f"staircase unbounded along {sc.witness_variable}",
            witness_variable=sc.witness_variable,
        )
    sv = sum(icis.var_weights)
    weights = [weight(m, icis.var_weights) + sv for m in sc.monomials]
    return PhiBasis(monomials=sc.monomials, mu=len(sc.monomials), weights=weights)


def _restricted_map(icis: IcisMap):
    """The coordinate-collapsed map and its index maps, or None.

    Returns (restricted IcisMap on the remaining variables, their indices in
    the full ring, coordinate pairs (component, variable), original indices
    of the restricted components) when the map has coordinate components and
    every other component survives setting the coordinate variables to zero
    (``bind_coordinates`` at images 0).
    """
    coords = icis.coordinate_components()
    if not coords:
        return None
    comp_indices, components, rest_names = bind_coordinates(
        icis, [MultiPoly.zero(())] * icis.K
    )
    if any(f.is_zero() for f in components):
        return None
    rest = [icis.ring.index(v) for v in rest_names]
    sub_icis = IcisMap(
        K=len(components),
        N=len(rest) - len(components),
        ring=tuple(rest_names),
        components=components,
        var_weights=tuple(icis.var_weights[i] for i in rest),
        comp_weights=tuple(icis.comp_weights[l] for l in comp_indices),
        power=icis.power,
    )
    assert sub_icis.N == icis.N, "collapse must preserve the fiber dimension"
    return sub_icis, rest, coords, comp_indices


class LatticeContext:
    """Precomputed data for repeated lattice reductions over one mapping."""

    def __init__(self, icis: IcisMap, phi: PhiBasis):
        self.icis = icis
        self.phi = phi
        self.ring = icis.ring
        self.nvars = len(self.ring)
        self.v = icis.var_weights
        self.p = icis.comp_weights
        self.N = icis.N
        self.K = icis.K
        self.sum_v = sum(self.v)
        self.sum_p = sum(self.p)
        self.y_ring = icis.y_names()
        self.top_index = tuple(range(self.nvars))
        self.dfs = [d_of_poly(f) for f in icis.components]
        self.D = wedge_all(self.dfs)
        self._fpow: dict[tuple[int, ...], MultiPoly] = {
            tuple([0] * self.K): MultiPoly.constant(self.ring, 1)
        }
        self._fpow_int: dict[tuple[int, ...], tuple[dict, int]] = {}
        self._solvers: dict[int, ColumnSpan] = {}
        # minors with signs: coefficient of D ^ du_r ^ du_J per (r, J)
        self._w_cache: dict[tuple[int, tuple[int, ...]], MultiPoly] = {}
        rest = _restricted_map(icis)
        self.collapse = None if rest is None else _Collapse(self, *rest)

    # -- helpers -------------------------------------------------------

    def top_coefficient(self, form: DiffForm) -> MultiPoly:
        if form.degree != self.nvars:
            raise ValueError("not a top-degree form")
        return form.components.get(self.top_index, MultiPoly.zero(self.ring))

    def f_power(self, beta: tuple[int, ...]) -> MultiPoly:
        if beta in self._fpow:
            return self._fpow[beta]
        l = next(i for i, b in enumerate(beta) if b)
        prev = list(beta)
        prev[l] -= 1
        res = self.f_power(tuple(prev)) * self.icis.components[l]
        self._fpow[beta] = res
        return res

    def f_power_int(self, beta: tuple[int, ...]) -> tuple[dict, int]:
        """f^beta as integer terms over one denominator (the components may be rational)."""
        if beta not in self._fpow_int:
            self._fpow_int[beta] = self.f_power(beta).integer_terms()
        return self._fpow_int[beta]

    def w_minor(self, r: int, J: tuple[int, ...]) -> MultiPoly:
        """Top coefficient of D ^ du_r ^ du_J (zero when indices collide)."""
        key = (r, J)
        if key not in self._w_cache:
            merged = _merge_indices((r,), J)
            if merged is None:
                self._w_cache[key] = MultiPoly.zero(self.ring)
            else:
                # du_r ^ du_J = sign * du_legs, legs increasing
                legs, sign = merged
                one = MultiPoly.constant(self.ring, 1)
                w = wedge(self.D, DiffForm(self.ring, self.N, {legs: one}))
                self._w_cache[key] = self.top_coefficient(w).scale(sign)
        return self._w_cache[key]

    def modulus_vector_poly(self, delta: tuple[int, ...], J: tuple[int, ...]) -> MultiPoly:
        """Top coefficient of D ^ d(u^delta du_J)."""
        acc = MultiPoly.zero(self.ring)
        for r in range(self.nvars):
            if delta[r] == 0:
                continue
            minor = self.w_minor(r, J)
            if minor.is_zero():
                continue
            de = list(delta)
            de[r] -= 1
            acc = acc + minor.mul_term(tuple(de), Fraction(delta[r]))
        return acc

    def column(self, meta: tuple) -> MultiPoly:
        """Top coefficient of a lattice generator: f^beta phi_j du for
        ("phi", j, beta), D ^ d(u^delta du_J) for ("eta", J, delta)."""
        kind, a, b = meta
        if kind == "phi":
            return self.f_power(b).mul_term(self.phi.monomials[a], ONE)
        return self.modulus_vector_poly(b, a)

    def expand_certificate(self, cert: LatticeCertificate) -> MultiPoly:
        """sum_j P_j(f) phi_j + top(D ^ d(eta)), summed in integers over one denominator."""
        mod, mod_den = self.top_coefficient(wedge(self.D, exterior_d(cert.eta))).integer_terms()
        parts = [
            (c, self.f_power_int(beta), self.phi.monomials[j])
            for j, P in enumerate(cert.coefficients)
            for beta, c in P.terms.items()
        ]
        den = lcm(mod_den, *(c.denominator * fden for c, (_, fden), _ in parts))
        acc = {e: a * (den // mod_den) for e, a in mod.items()}
        for c, (terms, fden), shift in parts:
            k = c.numerator * (den // (c.denominator * fden))
            for e, a in terms.items():
                e = tuple(map(add, e, shift))
                acc[e] = acc.get(e, 0) + k * a
        return MultiPoly(self.ring, {e: Fraction(a, den) for e, a in acc.items() if a})

    def solver(self, coeff_weight: int) -> ColumnSpan:
        if coeff_weight not in self._solvers:
            self._solvers[coeff_weight] = _piece_solver(self, coeff_weight)
        return self._solvers[coeff_weight]


def _piece_solver(ctx: LatticeContext, coeff_weight: int) -> ColumnSpan:
    """The solver for one graded piece of the lattice decomposition.

    Unknowns: coefficients of f^beta phi_j du (for all y-monomials beta of
    matching weight) and of the modulus generators D ^ d(u^delta du_J).
    """
    rows = monomials_of_weight(ctx.v, coeff_weight)
    if len(rows) > MAX_PIECE:
        raise ResourceLimitError(
            f"graded piece of {len(rows)} monomials exceeds cap {MAX_PIECE}",
            kind="graded-piece",
            limit=MAX_PIECE,
        )
    span = ColumnSpan(rows)
    form_weight = coeff_weight + ctx.sum_v
    eta_weight = form_weight - ctx.sum_p
    metas = [
        ("phi", j, beta)
        for j, w in enumerate(ctx.phi.weights)
        for beta in monomials_of_weight(ctx.p, form_weight - w)
    ] + [
        ("eta", J, delta)
        for J in (combinations(range(ctx.nvars), ctx.N - 1) if ctx.N >= 1 else [])
        for delta in monomials_of_weight(ctx.v, eta_weight - sum(ctx.v[i] for i in J))
    ]
    for meta in metas:
        poly = ctx.column(meta)
        if not poly.is_zero():
            span.add(poly.terms, meta)
    return span


class _Collapse:
    """The coordinate collapse: the restricted mapping and the memoised reductions.

    A reduction is (den, terms): the input equals the sum of
    terms[meta] / den times ``LatticeContext.column(meta)``, in integers.
    ``monomial(r)`` reduces the coordinate-free monomial x^r (r an exponent on
    the remaining variables) once per context; ``reduce`` adds the reductions
    of u^gamma x^r, each x^r's shifted by gamma.
    """

    def __init__(self, ctx: LatticeContext, sub_icis: IcisMap, rest, coords, comp_indices):
        self.ctx = ctx
        self.rest = rest
        self.coord_comps = [l for l, _ in coords]  # f_l = u_c for each pair (l, c)
        self.coord_vars = [c for _, c in coords]
        self.comp_indices = comp_indices
        # staircase monomials never involve coordinate variables
        for m in ctx.phi.monomials:
            for c in self.coord_vars:
                assert m[c] == 0, "staircase touches a coordinate variable"
        sub_phi_monos = [tuple(m[i] for i in rest) for m in ctx.phi.monomials]
        sv = sum(sub_icis.var_weights)
        self.sub_phi = PhiBasis(
            monomials=sub_phi_monos,
            mu=len(sub_phi_monos),
            weights=[weight(m, sub_icis.var_weights) + sv for m in sub_phi_monos],
        )
        self.sub_ctx = LatticeContext(sub_icis, self.sub_phi)
        self._memo: dict[tuple[int, ...], tuple[int, dict]] = {}

    def split(self, e: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(coordinate exponents gamma, exponents r on the remaining variables) of u^gamma x^r."""
        return tuple(e[c] for c in self.coord_vars), tuple(e[i] for i in self.rest)

    def shift(self, gamma: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
        """What u^gamma adds to beta (f_l = u_c on a coordinate pair) and to delta."""
        return {
            "phi": _place(self.ctx.K, self.coord_comps, gamma),
            "eta": _place(self.ctx.nvars, self.coord_vars, gamma),
        }

    def reduce(self, poly: MultiPoly) -> dict[tuple, Fraction]:
        """The reduction of ``poly`` as {column meta: coefficient}."""
        parts = []
        for e, c in poly.terms.items():
            gamma, r = self.split(e)
            parts.append((c, self.shift(gamma), self.monomial(r)))
        den, terms = _combine(parts)
        return {meta: Fraction(a, den) for meta, a in terms.items() if a}

    def monomial(self, r: tuple[int, ...]) -> tuple[int, dict]:
        """The reduction of x^r: its restricted solve, lifted, less the shifted
        reductions of what the solve's full-ring value adds to x^r."""
        if r in self._memo:
            return self._memo[r]
        ctx = self.ctx
        sol = {}
        restricted = _reduce_direct(MultiPoly(self.sub_ctx.ring, {r: ONE}), self.sub_ctx)
        for (kind, a, b), c in restricted.items():
            if kind == "phi":
                sol[kind, a, _place(ctx.K, self.comp_indices, b)] = c
            else:
                # rest is increasing, so the lifted legs stay sorted
                sol[kind, tuple(self.rest[i] for i in a), _place(ctx.nvars, self.rest, b)] = c
        excess = sum(
            (ctx.column(meta).scale(c) for meta, c in sol.items()),
            MultiPoly(ctx.ring, {_place(ctx.nvars, self.rest, r): -ONE}),
        )
        den = lcm(*(c.denominator for c in sol.values()))
        solved = (den, {meta: c.numerator * (den // c.denominator) for meta, c in sol.items()})
        parts = [(ONE, self.shift((0,) * len(self.coord_vars)), solved)]
        for e, c in excess.terms.items():
            gamma, r_low = self.split(e)
            if not any(gamma):
                raise ReductionNoSolutionError("collapse reduction failed to make progress")
            parts.append((-c, self.shift(gamma), self.monomial(r_low)))
        den, terms = _combine(parts)
        g = gcd(den, *terms.values())
        self._memo[r] = den // g, {meta: a // g for meta, a in terms.items() if a}
        return self._memo[r]


def _place(n: int, idx: Sequence[int], values: Sequence[int]) -> tuple[int, ...]:
    """The length-n exponent tuple with values at positions idx, zero elsewhere."""
    out = [0] * n
    for i, a in zip(idx, values):
        out[i] = a
    return tuple(out)


def _combine(parts) -> tuple[int, dict]:
    """sum c * u^gamma * red over (c, shift(gamma), red), in integers over one denominator."""
    den = lcm(*(c.denominator * red[0] for c, _, red in parts))
    acc: dict = {}
    for c, shift, (d, terms) in parts:
        k = c.numerator * (den // (c.denominator * d))
        for (kind, a, b), n in terms.items():
            key = (kind, a, tuple(map(add, b, shift[kind])))
            acc[key] = acc.get(key, 0) + k * n
    return den, acc


def reduce_in_lattice(
    g: DiffForm, phi: PhiBasis, icis: IcisMap, ctx: LatticeContext | None = None
) -> LatticeCertificate:
    """Decompose a weighted-homogeneous top form over the staircase basis.

    Solves, one graded piece at a time, the exact linear system expressing
    the input as sum c_{j,beta} f^beta phi_j du plus a lattice-modulus term,
    and returns a certificate carrying the cofactor eta.  The certificate is
    re-verified by direct expansion before being returned.
    """
    if ctx is None:
        ctx = LatticeContext(icis, phi)
    coeff = ctx.top_coefficient(g)
    cert = _reduce_poly(coeff, ctx)
    cert.input_form = g
    if not cert.verify(ctx):
        raise ReductionNoSolutionError("certificate failed exact re-expansion")
    return cert


def _reduce_poly(coeff: MultiPoly, ctx: LatticeContext) -> LatticeCertificate:
    if coeff.is_zero():
        parts = {}
    elif ctx.collapse is not None:
        parts = ctx.collapse.reduce(coeff)
    else:
        parts = _reduce_direct(coeff, ctx)
    coefficients: list[dict] = [{} for _ in range(ctx.phi.mu)]
    eta_terms: dict[tuple[int, ...], dict] = {}
    for (kind, a, b), c in parts.items():
        if kind == "phi":
            coefficients[a][b] = c
        else:
            eta_terms.setdefault(a, {})[b] = c
    eta = DiffForm(
        ctx.ring,
        max(ctx.N - 1, 0),
        {J: MultiPoly(ctx.ring, terms) for J, terms in eta_terms.items()},
    )
    return LatticeCertificate(
        input_form=DiffForm.zero(ctx.ring, ctx.nvars),
        coefficients=[MultiPoly(ctx.y_ring, terms) for terms in coefficients],
        eta=eta,
    )


def _reduce_direct(coeff: MultiPoly, ctx: LatticeContext) -> dict[tuple, Fraction]:
    """Solve the one graded piece of the lattice that holds ``coeff``.

    The Brieskorn lattice of an ICIS is free (Greuel 1975), so a piece that
    has no solution means the staircase basis does not generate it.
    """
    w = weight(next(iter(coeff.terms)), ctx.v)
    res = ctx.solver(w).solve(coeff.terms)
    if res is None:
        raise ReductionNoSolutionError(
            f"no decomposition at weight {w}; staircase basis may not generate this piece"
        )
    return res


def f_basis(icis: IcisMap, weight_cap: int | None = None) -> FBasis:
    """Greedy weighted basis of the (N+1)-form quotient, closed representatives.

    Works on the coordinate-collapsed mapping when the map has coordinate
    components (the quotient is isomorphic, component by component, and
    representatives embed); stops with CapExceededError if the cap is hit
    first.
    """
    mu = phi_basis(icis).mu
    if weight_cap is None:
        weight_cap = 4 * sum(icis.comp_weights)
    rest = _restricted_map(icis)
    if rest is None:
        return FBasis(*_fbasis_graded(icis, mu, weight_cap))
    sub_icis, rest_idx = rest[:2]
    forms, weights = _fbasis_graded(sub_icis, mu, weight_cap)
    # rest_idx is increasing, so the lifted legs stay sorted
    lifted = []
    for form in forms:
        comps = {
            tuple(rest_idx[i] for i in J): p.rename_ring(icis.ring)
            for J, p in form.components.items()
        }
        lifted.append(DiffForm(icis.ring, form.degree, comps))
    return FBasis(forms=lifted, weights=weights)


def _fbasis_graded(icis: IcisMap, mu: int, weight_cap: int):
    ring, vweights, N, pweights = icis.ring, icis.var_weights, icis.N, icis.comp_weights
    nvars = len(ring)
    deg = N + 1
    euler = EulerField.unchecked(vweights)
    dfs = [d_of_poly(f) for f in icis.components]
    subsets = list(combinations(range(nvars), deg))
    n_subsets = list(combinations(range(nvars), N))
    t_subsets = list(combinations(range(nvars), deg + 1))
    found: list[DiffForm] = []
    weights: list[int] = []
    min_w = min(sum(vweights[i] for i in J) for J in subsets)
    for d in range(min_w, weight_cap + 1):
        if len(found) == mu:
            break
        index: dict[tuple, int] = {}
        for J in subsets:
            legs = sum(vweights[i] for i in J)
            for e in monomials_of_weight(vweights, d - legs):
                index[(J, e)] = len(index)
        if not index:
            continue
        ech = SparseEchelon()

        def vec_of(form: DiffForm) -> dict[int, Fraction]:
            out = {}
            for J, poly in form.components.items():
                for e, c in poly.terms.items():
                    out[index[(J, e)]] = c
            return out

        # modulus: df_l ^ (monomial N-forms), then i_E of (N+2)-monomial-forms
        for l, df in enumerate(dfs):
            for J in n_subsets:
                legs = sum(vweights[i] for i in J)
                base = wedge(df, DiffForm(ring, N, {J: MultiPoly.constant(ring, 1)}))
                if base.is_zero():
                    continue
                for e in monomials_of_weight(vweights, d - pweights[l] - legs):
                    ech.insert(vec_of(base.mul_poly(MultiPoly.from_monomial(ring, e))))
        if deg + 1 <= nvars:
            for J in t_subsets:
                legs = sum(vweights[i] for i in J)
                base = contract_euler(
                    DiffForm(ring, deg + 1, {J: MultiPoly.constant(ring, 1)}), euler
                )
                for e in monomials_of_weight(vweights, d - legs):
                    ech.insert(vec_of(base.mul_poly(MultiPoly.from_monomial(ring, e))))
        # greedy candidates: single-term forms in component order
        for J in subsets:
            legs = sum(vweights[i] for i in J)
            for e in monomials_of_weight(vweights, d - legs):
                if len(found) == mu:
                    break
                cand = DiffForm(ring, deg, {J: MultiPoly.from_monomial(ring, e)})
                if ech.insert(vec_of(cand)):
                    found.append(cand)
                    weights.append(d)
    if len(found) < mu:
        raise CapExceededError(
            f"found {len(found)} of {mu} basis forms below weight cap {weight_cap}",
            found=len(found),
            needed=mu,
        )
    # closed representatives: correct by i_E(d omega)/weight
    closed = []
    for form, w in zip(found, weights):
        dw = exterior_d(form)
        if dw.is_zero():
            closed.append(form)
            continue
        corr = contract_euler(dw, euler).scale(Fraction(-1, w))
        fixed = form + corr
        assert exterior_d(fixed).is_zero()
        closed.append(fixed)
    return closed, weights


@dataclass
class GMMatrices:
    """Decomposition matrices P^(l)(y) and the diagonal weight matrix."""

    matrices: list[list[list[MultiPoly]]]  # K matrices, each mu x mu in y
    l_weights: list[int]
    phi: PhiBasis
    fbasis: FBasis
    certificates: list[list[LatticeCertificate]] = field(default_factory=list)


def gm_matrices(
    icis: IcisMap,
    phi: PhiBasis | None = None,
    fb: FBasis | None = None,
) -> GMMatrices:
    """Rows of P^(l) from reducing each basis form wedged with the df's (l omitted)."""
    if phi is None:
        phi = phi_basis(icis)
    if fb is None:
        fb = f_basis(icis)
    ctx = LatticeContext(icis, phi)
    mu = phi.mu
    matrices = []
    certs_all = []
    for l in range(icis.K):
        rows = []
        certs = []
        others = [ctx.dfs[k] for k in range(icis.K) if k != l]
        rest = wedge_all(others) if others else None
        for i in range(mu):
            g = fb.forms[i] if rest is None else wedge(fb.forms[i], rest)
            cert = reduce_in_lattice(g, phi, icis, ctx)
            rows.append(cert.coefficients)
            certs.append(cert)
        matrices.append(rows)
        certs_all.append(certs)
    gm = GMMatrices(
        matrices=matrices,
        l_weights=list(fb.weights),
        phi=phi,
        fbasis=fb,
        certificates=certs_all,
    )
    _validate_forced_weights(gm, icis)
    return gm


def _validate_forced_weights(gm: GMMatrices, icis: IcisMap) -> None:
    """Entries must be weighted-homogeneous of l_i + sum(p) - p_l - w(phi_j du)."""
    sum_p = sum(icis.comp_weights)
    for l, mat in enumerate(gm.matrices):
        for i, row in enumerate(mat):
            for j, entry in enumerate(row):
                if entry.is_zero():
                    continue
                forced = gm.l_weights[i] + sum_p - icis.comp_weights[l] - gm.phi.weights[j]
                for e in entry.terms:
                    if weight(e, icis.comp_weights) != forced:
                        raise ReductionNoSolutionError(
                            f"entry P^({l})[{i}][{j}] violates the forced weight {forced}"
                        )
