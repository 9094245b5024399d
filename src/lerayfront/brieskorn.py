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
  reduction returns a certificate that re-expands to the input identically.

Both the f-basis search and the piece solves run on ``linalg.SparseEchelon``;
a piece tags each column with its own coordinate, so a solve reads the
coefficients off the tags of the reduced right-hand side.

Every map with coordinate components (f_l = u_c) takes the collapse path:
slices along the coordinate monomials are reduced against the restricted
mapping on the remaining variables (``phase.bind_coordinates`` at images
0, the critical ideal's binding), and what each level leaves over is
re-expanded on the full ring and reduced at the next level.  Maps without
coordinate components, and the restricted map itself, solve each piece
directly.  There is no retry: the lattice is free, so a piece that has no
solution fails with ReductionNoSolutionError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import (
    CapExceededError,
    NotIsolatedError,
    ReductionNoSolutionError,
    ResourceLimitError,
)
from .forms import DiffForm, EulerField, contract_euler, d_of_poly, exterior_d, wedge, wedge_all
from .linalg import SparseEchelon
from .phase import IcisMap, bind_coordinates, critical_staircase
# unused here, but perfbench's tracer test looks the name up on this module
from .phase import critical_ideal_gens  # noqa: F401
from .poly import Monomial, MultiPoly, monomials_of_weight

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class PhiBasis:
    """Staircase monomials phi_j whose classes phi_j du span the top quotient."""

    monomials: list[Monomial]
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
    weights = [m.weight(icis.var_weights) + sv for m in sc.monomials]
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

    def __init__(self, icis: IcisMap, phi: PhiBasis, max_piece: int = 40_000):
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
        self.max_piece = max_piece
        self.y_ring = icis.y_names()
        self.top_index = tuple(range(self.nvars))
        self.dfs = [d_of_poly(f) for f in icis.components]
        self.D = wedge_all(self.dfs)
        self._fpow: dict[tuple[int, ...], MultiPoly] = {
            tuple([0] * self.K): MultiPoly.constant(self.ring, 1)
        }
        self._solvers: dict[int, "_PieceSolver"] = {}
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

    def w_minor(self, r: int, J: tuple[int, ...]) -> MultiPoly:
        """Top coefficient of D ^ du_r ^ du_J (zero when indices collide)."""
        key = (r, J)
        if key not in self._w_cache:
            legs = (r,) + J
            if len(set(legs)) != len(legs):
                self._w_cache[key] = MultiPoly.zero(self.ring)
            else:
                one = MultiPoly.constant(self.ring, 1)
                eta_like = DiffForm(self.ring, self.N, {tuple(sorted(legs)): one})
                # sign from sorting (r, J) into increasing order
                sign = _sort_sign(legs)
                w = wedge(self.D, eta_like)
                coeff = self.top_coefficient(w)
                self._w_cache[key] = coeff.scale(sign)
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

    def expand_certificate(self, cert: LatticeCertificate) -> MultiPoly:
        acc = MultiPoly.zero(self.ring)
        for j, P in enumerate(cert.coefficients):
            if P.is_zero():
                continue
            for e, c in P.terms.items():
                acc = acc + self.f_power(e).mul_term(self.phi.monomials[j].exps, c)
        mod = wedge(self.D, exterior_d(cert.eta))
        return acc + self.top_coefficient(mod)

    def solver(self, coeff_weight: int) -> "_PieceSolver":
        if coeff_weight not in self._solvers:
            self._solvers[coeff_weight] = _piece_solver(self, coeff_weight)
        return self._solvers[coeff_weight]


def _sort_sign(legs: Sequence[int]) -> int:
    inv = 0
    for i, a in enumerate(legs):
        for b in legs[i + 1 :]:
            if b < a:
                inv += 1
    return (-1) ** inv


def _piece_solver(ctx: LatticeContext, coeff_weight: int) -> "_PieceSolver":
    """The solver for one graded piece of the lattice decomposition.

    Unknowns: coefficients of f^beta phi_j du (for all y-monomials beta of
    matching weight) and of the modulus generators D ^ d(u^delta du_J).
    """
    rows = monomials_of_weight(ctx.v, coeff_weight)
    if len(rows) > ctx.max_piece:
        raise ResourceLimitError(
            f"graded piece of {len(rows)} monomials exceeds cap {ctx.max_piece}",
            kind="graded-piece",
            limit=ctx.max_piece,
        )
    solver = _PieceSolver({e: i for i, e in enumerate(rows)})
    form_weight = coeff_weight + ctx.sum_v
    for j, mono in enumerate(ctx.phi.monomials):
        shift = form_weight - ctx.phi.weights[j]
        if shift < 0:
            continue
        for beta in monomials_of_weight(ctx.p, shift):
            poly = ctx.f_power(beta).mul_term(mono.exps, ONE)
            solver.add_column(poly, ("phi", j, beta))
    # modulus generators
    eta_weight = form_weight - ctx.sum_p
    for J in combinations(range(ctx.nvars), ctx.N - 1) if ctx.N >= 1 else []:
        legs_w = sum(ctx.v[i] for i in J)
        dw = eta_weight - legs_w
        if dw < 0:
            continue
        for delta in monomials_of_weight(ctx.v, dw):
            poly = ctx.modulus_vector_poly(delta, J)
            if poly.is_zero():
                continue
            solver.add_column(poly, ("eta", J, delta))
    return solver


class _PieceSolver:
    """Exact solves in the span of polynomial columns over fixed row monomials.

    Column j enters the echelon with a tag coordinate nrows + j of value 1
    and is kept only while its residual has a row index as pivot.  A
    right-hand side that reduces to tags alone is the column combination
    whose coefficients are minus those tags.
    """

    def __init__(self, row_index: dict[tuple[int, ...], int]):
        self.row_index = row_index
        self.echelon = SparseEchelon()
        self.meta: list[tuple] = []

    def add_column(self, poly: MultiPoly, meta: tuple):
        nrows = len(self.row_index)
        vec = {self.row_index[e]: c for e, c in poly.terms.items()}
        vec[nrows + len(self.meta)] = ONE
        r = self.echelon.residual(vec)
        # a residual of tags alone is a kernel vector: keeping it would only
        # slow every later reduction
        if min(r) < nrows:
            self.echelon.insert(r)
        self.meta.append(meta)

    def solve(self, target: MultiPoly):
        """(phi part, eta part) of the combination equal to ``target``, or None."""
        rhs = {}
        for e, c in target.terms.items():
            if e not in self.row_index:
                return None
            rhs[self.row_index[e]] = c
        nrows = len(self.row_index)
        r = self.echelon.residual(rhs)
        if r and min(r) < nrows:
            return None
        phi_part: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        eta_part: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}
        for tag in sorted(r):
            meta = self.meta[tag - nrows]
            part = phi_part if meta[0] == "phi" else eta_part
            part[meta[1:]] = -r[tag]
        return phi_part, eta_part


class _Collapse:
    """Coordinate-collapse data: the restricted mapping and index embeddings."""

    def __init__(self, ctx: LatticeContext, sub_icis: IcisMap, rest, coords, comp_indices):
        self.ctx = ctx
        self.rest = rest
        self.coord_pairs = coords  # (component index, variable index)
        self.coord_vars = [c for _, c in coords]
        self.comp_indices = comp_indices
        # staircase monomials never involve coordinate variables
        for m in ctx.phi.monomials:
            for c in self.coord_vars:
                assert m.exps[c] == 0, "staircase touches a coordinate variable"
        sub_phi_monos = [
            Monomial(tuple(m.exps[i] for i in rest)) for m in ctx.phi.monomials
        ]
        sv = sum(sub_icis.var_weights)
        self.sub_phi = PhiBasis(
            monomials=sub_phi_monos,
            mu=len(sub_phi_monos),
            weights=[m.weight(sub_icis.var_weights) + sv for m in sub_phi_monos],
        )
        self.sub_ctx = LatticeContext(sub_icis, self.sub_phi, max_piece=ctx.max_piece)

    def slice_by_coords(self, poly: MultiPoly) -> dict[tuple[int, ...], MultiPoly]:
        """Group terms by the exponent pattern on coordinate variables."""
        out: dict[tuple[int, ...], dict] = {}
        for e, c in poly.terms.items():
            gamma = tuple(e[i] for i in self.coord_vars)
            rest_e = tuple(e[i] for i in self.rest)
            out.setdefault(gamma, {})[rest_e] = c
        ring = self.sub_ctx.ring
        return {g: MultiPoly(ring, terms) for g, terms in out.items()}

    def lift_exponent(self, rest_e: tuple[int, ...], gamma: tuple[int, ...]) -> tuple[int, ...]:
        e = [0] * self.ctx.nvars
        for pos, i in enumerate(self.rest):
            e[i] = rest_e[pos]
        for (l, cvar), gk in zip(self.coord_pairs, gamma):
            e[cvar] = gk
        return tuple(e)

    def lift_y_exponent(self, beta_rest: tuple[int, ...], gamma: tuple[int, ...]) -> tuple[int, ...]:
        b = [0] * self.ctx.K
        for pos, l in enumerate(self.comp_indices):
            b[l] = beta_rest[pos]
        for (l, _), gk in zip(self.coord_pairs, gamma):
            b[l] = gk
        return tuple(b)


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
    y_zero = MultiPoly.zero(ctx.y_ring)
    coefficients = [y_zero for _ in range(ctx.phi.mu)]
    eta_terms: dict[tuple[int, ...], dict] = {}
    if coeff.is_zero():
        return LatticeCertificate(
            input_form=DiffForm.zero(ctx.ring, ctx.nvars),
            coefficients=coefficients,
            eta=DiffForm.zero(ctx.ring, ctx.N - 1) if ctx.N >= 1 else DiffForm.zero(ctx.ring, 0),
        )
    if ctx.collapse is not None:
        phi_acc, eta_acc = _reduce_collapsed(coeff, ctx)
    else:
        phi_acc, eta_acc = _reduce_direct(coeff, ctx)
    for (j, beta), c in phi_acc.items():
        coefficients[j] = coefficients[j] + MultiPoly(ctx.y_ring, {beta: c})
    for (J, delta), c in eta_acc.items():
        eta_terms.setdefault(J, {})[delta] = eta_terms.setdefault(J, {}).get(delta, ZERO) + c
    comps = {
        J: MultiPoly(ctx.ring, terms)
        for J, terms in eta_terms.items()
        if not MultiPoly(ctx.ring, terms).is_zero()
    }
    eta = DiffForm(ctx.ring, ctx.N - 1, comps)
    return LatticeCertificate(
        input_form=DiffForm.zero(ctx.ring, ctx.nvars), coefficients=coefficients, eta=eta
    )


def _weight_of(ctx, poly: MultiPoly) -> int:
    e = next(iter(poly.terms))
    return sum(a * b for a, b in zip(ctx.v, e))


def _reduce_direct(coeff: MultiPoly, ctx: LatticeContext):
    """Solve the one graded piece of the lattice that holds ``coeff``.

    The Brieskorn lattice of an ICIS is free (Greuel 1975), so a piece that
    has no solution means the staircase basis does not generate it.
    """
    w = _weight_of(ctx, coeff)
    res = ctx.solver(w).solve(coeff)
    if res is None:
        raise ReductionNoSolutionError(
            f"no decomposition at weight {w}; staircase basis may not generate this piece"
        )
    return res


def _reduce_collapsed(coeff: MultiPoly, ctx: LatticeContext):
    """Peel coordinate-variable monomials and solve restricted pieces."""
    col = ctx.collapse
    phi_acc: dict = {}
    eta_acc: dict = {}
    residual = coeff
    max_levels = 64
    last_level = -1
    for _ in range(max_levels):
        if residual.is_zero():
            return phi_acc, eta_acc
        slices = col.slice_by_coords(residual)
        level = min(sum(g) for g in slices)
        if level <= last_level:
            raise ReductionNoSolutionError(
                "collapse reduction failed to make progress"
            )
        last_level = level
        new_phi: dict = {}
        new_eta: dict = {}
        for gamma, part in sorted(slices.items()):
            if sum(gamma) != level:
                continue
            res = _reduce_direct(part, col.sub_ctx)
            for (j, beta_rest), c in res[0].items():
                key = (j, col.lift_y_exponent(beta_rest, gamma))
                new_phi[key] = new_phi.get(key, ZERO) + c
            for (J_rest, delta_rest), c in res[1].items():
                # rest is increasing, so the lifted legs stay sorted
                J = tuple(col.rest[j] for j in J_rest)
                key = (J, col.lift_exponent(delta_rest, gamma))
                new_eta[key] = new_eta.get(key, ZERO) + c
        # subtract the exact full-ring value of the new contributions
        delta_poly = MultiPoly.zero(ctx.ring)
        for (j, beta), c in new_phi.items():
            delta_poly = delta_poly + ctx.f_power(beta).mul_term(
                ctx.phi.monomials[j].exps, c
            )
            phi_acc[(j, beta)] = phi_acc.get((j, beta), ZERO) + c
        eta_form_terms: dict[tuple[int, ...], dict] = {}
        for (J, e), c in new_eta.items():
            eta_form_terms.setdefault(J, {})[e] = c
            eta_acc[(J, e)] = eta_acc.get((J, e), ZERO) + c
        if eta_form_terms:
            eta_form = DiffForm(
                ctx.ring,
                ctx.N - 1,
                {J: MultiPoly(ctx.ring, t) for J, t in eta_form_terms.items()},
            )
            delta_poly = delta_poly + ctx.top_coefficient(
                wedge(ctx.D, exterior_d(eta_form))
            )
        residual = residual - delta_poly
    raise ReductionNoSolutionError("collapse reduction exceeded the level cap")


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
        for i in range(mu):
            g = fb.forms[i]
            for df in others:
                g = wedge(g, df)
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
                    w = sum(a * b for a, b in zip(icis.comp_weights, e))
                    if w != forced:
                        raise ReductionNoSolutionError(
                            f"entry P^({l})[{i}][{j}] violates the forced weight {forced}"
                        )
