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

The collapse and the certificate check run in Python ints on packed keys
(``poly.pack``, ``poly.pack_terms``).  A column meta ("phi", j, beta) or
("eta", J, delta) is one int, one bit field per exponent with j or J's index
above them, so u^gamma shifts a memoised reduction by one integer add per
term; metas and Fractions come back once, where the certificate is built.
Every weight is a positive integer and the data are weighted-homogeneous,
so an exponent in a reduction of coefficient weight w is at most
(w + sum_v) / min weight: the fields are ``poly.guarded_fields`` of that
bound, and a bound longer than MAX_FIELD_BITS bits ends the reduction with
ResourceLimitError (kind "exponent-field").  The check expands
sum_j P_j(f) phi_j + top(D ^ d(eta)) from f^beta, D's integer components
and eta's integer partials, never from the solver's columns.
On the flagship ``gm_matrices`` takes 0.25 reference s under
``perfbench/run.py --trace 1`` and ``reduce_in_lattice`` 0.22 of it (0.59
and 0.56 with tuple keys and a Fraction re-expansion; BENCH_25.json).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm
from operator import add
from typing import Sequence

from .errors import CapExceededError, ReductionNoSolutionError, ResourceLimitError
from .forms import (
    DiffForm,
    _merge_indices,
    contract_euler,
    d_of_poly,
    exterior_d,
    wedge,
    wedge_all,
)
from .linalg import ColumnSpan, SparseEchelon
from .phase import IcisMap, bind_coordinates, critical_staircase, validate_isolated
# unused here, but perfbench's tracer test looks the name up on this module
from .phase import critical_ideal_gens  # noqa: F401
from .poly import Exponents, MultiPoly, _sum_of_products, guarded_fields, monomials_of_weight
from .poly import pack, pack_terms, product, unpack, weight

ONE = Fraction(1)
# The most row monomials one graded piece of the lattice may have; a larger
# piece ends the reduction with ResourceLimitError (kind "graded-piece").
MAX_PIECE = 40_000
# The most bits of a packed exponent, guard bit aside; a reduction that needs
# more ends with ResourceLimitError (kind "exponent-field").  Wider fields
# would still be exact in Python ints: the cap bounds the size of the keys.
# The flagship's reductions need 5 bits.
MAX_FIELD_BITS = 32


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
        """The re-expansion equals the input's top coefficient, compared in integers."""
        acc, den = ctx.expand_certificate(self)
        terms, tden = ctx.top_coefficient(self.input_form).integer_terms()
        expected = pack_terms({e: c * den for e, c in terms.items()}, ctx.packed.width)
        return {key: a * tden for key, a in acc.items() if a} == expected


def phi_basis(icis: IcisMap) -> PhiBasis:
    validate_isolated(icis)
    sc = critical_staircase(icis)
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


class _Packed:
    """What a context's reductions keep at one field width.

    Packed metas: ("phi", j, beta) is ``pack(beta + (j,))`` and ("eta", J,
    delta) is ``pack(delta + (code of J,))``, so u^gamma shifts a meta by one
    integer add.  Holds phi_j, D's components, the f_l and their powers and
    the eta columns packed, the collapse's memo and the metas of its keys;
    widening the fields replaces it.
    """

    def __init__(self, ctx: "LatticeContext", width: int, guard: int):
        self.width, self.guard = width, guard
        self.phi = [pack(m, width) for m in ctx.phi.monomials]
        self.D = {I: (pack_terms(t, width), den) for I, (t, den) in ctx.d_terms.items()}
        self.f = [(pack_terms(g, width), den) for g, den in ctx._f_int]
        self.fpow: dict[tuple[int, ...], tuple[dict[int, int], int]] = {(0,) * ctx.K: ({0: 1}, 1)}
        self.eta: dict[tuple, tuple[dict[int, int], int]] = {}
        self.memo: dict[int, tuple[int, dict[int, int], dict[int, int]]] = {}
        self.names: dict[str, dict[int, tuple]] = {"phi": {}, "eta": {}}  # key -> meta


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
        self.min_weight = min(self.v + self.p)
        self.y_ring = icis.y_names()
        self.top_index = tuple(range(self.nvars))
        self.dfs = [d_of_poly(f) for f in icis.components]
        self.D = wedge_all(self.dfs)
        # the legs J of eta's components; a packed eta meta carries J's index
        self.legs = list(combinations(range(self.nvars), self.N - 1)) if self.N >= 1 else []
        self.leg_code = {J: k for k, J in enumerate(self.legs)}
        # D's components as integer terms, and for each (i, J) the component I
        # and sign with top(D ^ du_i ^ du_J) = sign * D_I
        self.d_terms = {I: q.integer_terms() for I, q in self.D.components.items()}
        self._d_legs: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, ...], int]] = {}
        for J in self.legs:
            for i in range(self.nvars):
                merged = _merge_indices((i,), J)
                if merged is None:
                    continue
                L, sign = merged
                I = tuple(k for k in range(self.nvars) if k not in L)
                if I in self.d_terms:
                    self._d_legs[i, J] = I, sign * _merge_indices(I, L)[1]
        # f^beta multiplied out in integers over one denominator
        self._f_int = [f.integer_terms() for f in icis.components]
        self._fpow_int: dict[tuple[int, ...], tuple[dict[Exponents, int], int]] = {
            (0,) * self.K: ({(0,) * self.nvars: 1}, 1)
        }
        self._solvers: dict[int, ColumnSpan] = {}
        # minors with signs: coefficient of D ^ du_r ^ du_J per (r, J)
        self._w_cache: dict[tuple[int, tuple[int, ...]], MultiPoly] = {}
        self.packed: _Packed | None = None
        rest = _restricted_map(icis)
        self.collapse = None if rest is None else _Collapse(self, *rest)

    # -- helpers -------------------------------------------------------

    def top_coefficient(self, form: DiffForm) -> MultiPoly:
        if form.degree != self.nvars:
            raise ValueError("not a top-degree form")
        return form.components.get(self.top_index, MultiPoly.zero(self.ring))

    def coefficient_weight(self, poly: MultiPoly) -> int:
        """The largest weight of a term of a top coefficient (0 for the zero polynomial)."""
        return max((weight(e, self.v) for e in poly.terms), default=0)

    def fit(self, w: int) -> None:
        """Widen the packed fields to ``guarded_fields`` of (w + sum_v) // min weight,
        which bounds every exponent of u, beta and delta in a reduction of
        coefficient weight w."""
        bound = (max(w, 0) + self.sum_v) // self.min_weight
        if bound.bit_length() > MAX_FIELD_BITS:
            raise ResourceLimitError(
                f"exponents of weight {w} need {bound.bit_length()}-bit fields; "
                f"the cap is {MAX_FIELD_BITS}",
                kind="exponent-field",
                limit=MAX_FIELD_BITS,
            )
        width, guard = guarded_fields(bound, self.nvars)
        if self.packed is None or width > self.packed.width:
            self.packed = _Packed(self, width, guard)

    def f_power_int(self, beta: tuple[int, ...]) -> tuple[dict[Exponents, int], int]:
        """f^beta as integer terms over one denominator, one ``poly.product`` per factor."""
        return _power(self._fpow_int, beta, self._f_int, lambda a, g: product([a, g], self.nvars))

    def f_power_packed(self, beta: tuple[int, ...]) -> tuple[dict[int, int], int]:
        """``f_power_int`` in the fields of ``packed``: their weight bound holds f^beta
        and every power below it, so no product sets a guard bit."""
        pk = self.packed
        return _power(pk.fpow, beta, pk.f, lambda a, g: _sum_of_products(((a, g, 1),), pk.guard))

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

    def eta_packed(self, J: tuple[int, ...], delta: tuple[int, ...]) -> tuple[dict[int, int], int]:
        """``modulus_vector_poly(delta, J)`` as packed integer terms over one denominator."""
        got = self.packed.eta.get((J, delta))
        if got is None:
            terms, den = self.modulus_vector_poly(delta, J).integer_terms()
            got = self.packed.eta[J, delta] = pack_terms(terms, self.packed.width), den
        return got

    def expand_certificate(self, cert: LatticeCertificate) -> tuple[dict[int, int], int]:
        """sum_j P_j(f) phi_j + top(D ^ d(eta)) as packed integer terms over one denominator.

        d(eta) comes term by term from the integer partials of eta, and
        D ^ du_i ^ du_J from D's integer components with the signs of
        ``_merge_indices``: neither the solver's columns nor ``wedge`` enter.
        The fields are first fitted to the heaviest column the certificate
        names, so no field can overflow whatever the certificate holds.
        """
        v, sv = self.v, self.sum_v
        self.fit(max(chain(
            [self.coefficient_weight(self.top_coefficient(cert.input_form))],
            (
                weight(beta, self.p) + self.phi.weights[j] - sv
                for j, P in enumerate(cert.coefficients)
                for beta in P.terms
            ),
            (
                weight(e, v) + sum(v[i] for i in J) + self.sum_p - sv
                for J, q in cert.eta.components.items()
                for e in q.terms
            ),
        )))
        pk = self.packed
        width = pk.width
        parts = [
            (c.numerator, c.denominator, pk.phi[j], self.f_power_packed(beta))
            for j, P in enumerate(cert.coefficients)
            for beta, c in P.terms.items()
        ]
        for J, q in cert.eta.components.items():
            for e, c in q.terms.items():
                key = pack(e, width)
                for i, k in enumerate(e):
                    if k and (i, J) in self._d_legs:
                        I, sign = self._d_legs[i, J]
                        parts.append((
                            sign * k * c.numerator,
                            c.denominator,
                            key - (1 << (width * i)),
                            pk.D[I],
                        ))
        return _sum_shifted(parts)

    def metas(self, den: int, phi: dict[int, int], eta: dict[int, int]):
        """The packed reduction (den, phi, eta) as (column meta, Fraction) pairs."""
        pk = self.packed
        for kind, terms, n in (("phi", phi, self.K), ("eta", eta, self.nvars)):
            names = pk.names[kind]
            for key, c in terms.items():
                if c:
                    meta = names.get(key)
                    if meta is None:
                        *b, a = unpack(key, pk.width, n + 1)
                        meta = names[key] = kind, a if kind == "phi" else self.legs[a], tuple(b)
                    yield meta, Fraction(c, den)

    def solver(self, coeff_weight: int) -> ColumnSpan:
        if coeff_weight not in self._solvers:
            self._solvers[coeff_weight] = _piece_solver(self, coeff_weight)
        return self._solvers[coeff_weight]


def _piece_solver(ctx: LatticeContext, coeff_weight: int) -> ColumnSpan:
    """The solver for one graded piece of the lattice decomposition.

    Unknowns: coefficients of f^beta phi_j du (for all y-monomials beta of
    matching weight) and of the modulus generators D ^ d(u^delta du_J).  A
    phi column is ``f_power_int(beta)`` shifted by phi_j, an eta column
    ``modulus_vector_poly``.
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
    for j, (m, w) in enumerate(zip(ctx.phi.monomials, ctx.phi.weights)):
        for beta in monomials_of_weight(ctx.p, form_weight - w):
            terms, den = ctx.f_power_int(beta)
            column = {tuple(map(add, e, m)): Fraction(c, den) for e, c in terms.items()}
            span.add(column, ("phi", j, beta))
    for J in ctx.legs:
        for delta in monomials_of_weight(ctx.v, eta_weight - sum(ctx.v[i] for i in J)):
            poly = ctx.modulus_vector_poly(delta, J)
            if not poly.is_zero():
                span.add(poly.terms, ("eta", J, delta))
    return span


def _power(cache: dict, beta: tuple[int, ...], factors: list, times) -> tuple[dict, int]:
    """f^beta over one denominator: steps down one factor at a time to a power in ``cache``,
    then multiplies back up by factors[l] with ``times`` (no recursion depth), caching each."""
    path, low = [], beta
    while low not in cache:
        l = next(i for i, b in enumerate(low) if b)
        path.append((low, l))
        low = low[:l] + (low[l] - 1,) + low[l + 1 :]
    terms, den = cache[low]
    for high, l in reversed(path):
        g, gden = factors[l]
        terms, den = cache[high] = times(terms, g), den * gden
    return terms, den


def _sum_shifted(parts) -> tuple[dict[int, int], int]:
    """sum (n / d) * u^shift * (terms / tden) over parts (n, d, shift, (terms, tden)):
    packed integer terms over one denominator, one integer add per exponent sum."""
    den = lcm(*(d * tden for _, d, _, (_, tden) in parts))
    acc: dict[int, int] = {}
    get = acc.get
    for n, d, shift, (terms, tden) in parts:
        k = n * (den // (d * tden))
        for key, a in terms.items():
            key += shift
            acc[key] = get(key, 0) + k * a
    return acc, den


class _Collapse:
    """The coordinate collapse: the restricted mapping and the memoised reductions.

    A reduction is (den, phi, eta): the input equals the sum of n / den
    times the lattice generator of each packed meta {key: n} of phi and eta,
    top(f^beta phi_j du) or top(D ^ d(u^delta du_J)).  ``monomial(key)`` reduces the coordinate-free monomial x^r
    (packed on the full ring) once per context and field width; ``reduce``
    adds the reductions of u^gamma x^r, each x^r's shifted by gamma.  A
    restricted solve's eta terms lift with ``sign``, which relates D to the
    restricted D when the coordinate components or variables are not last.
    The context is passed to each call, not kept, so the context that owns
    the collapse and the collapse hold no reference cycle.
    """

    def __init__(self, ctx: LatticeContext, sub_icis: IcisMap, rest, coords, comp_indices):
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
        # D = s_f * (the other df_l) ^ du_c1 ^ ... ^ du_cm, and moving the du_c
        # past the N legs and into place among the variables gives (-1)^(m N) * s_v:
        # at u_c = 0, top(D ^ du_L) = sign * top(D_sub ^ du_L) for legs L in x
        self.sign = (
            _merge_indices(tuple(comp_indices), tuple(self.coord_comps))[1]
            * _merge_indices(tuple(rest), tuple(self.coord_vars))[1]
            * (-1) ** (len(coords) * ctx.N)
        )

    def split(self, key: int, width: int) -> tuple[int, int, int]:
        """(phi shift, eta shift, x^r) for the packed monomial u^gamma x^r:
        u^gamma adds gamma to beta on the components f_l = u_c and to delta."""
        mask = (1 << width) - 1
        gamma = [(key >> (width * c)) & mask for c in self.coord_vars]
        eta_shift = sum(g << (width * c) for g, c in zip(gamma, self.coord_vars))
        phi_shift = sum(g << (width * l) for g, l in zip(gamma, self.coord_comps))
        return phi_shift, eta_shift, key - eta_shift

    def reduce(self, poly: MultiPoly, ctx: LatticeContext) -> tuple[int, dict, dict]:
        """The reduction of ``poly``; the context's fields must hold its weight."""
        width = ctx.packed.width
        parts = []
        for e, c in poly.terms.items():
            phi_shift, eta_shift, low = self.split(pack(e, width), width)
            parts.append(
                (c.numerator, c.denominator, phi_shift, eta_shift, self.monomial(low, ctx))
            )
        return _combine(parts)

    def monomial(self, key: int, ctx: LatticeContext) -> tuple[int, dict, dict]:
        """The reduction of x^r: its restricted solve, lifted, less the shifted
        reductions of what the solve's full-ring value adds to x^r."""
        memo = ctx.packed.memo
        if key in memo:
            return memo[key]
        width = ctx.packed.width
        r = unpack(key, width, ctx.nvars)
        restricted = _reduce_direct(
            MultiPoly(self.sub_ctx.ring, {tuple(r[i] for i in self.rest): ONE}), self.sub_ctx
        )
        den = lcm(*(c.denominator for c in restricted.values()))
        phi, eta, lifted = {}, {}, []
        for (kind, a, b), c in restricted.items():
            n = c.numerator * (den // c.denominator)
            if kind == "phi":
                b = _place(ctx.K, self.comp_indices, b)
                phi[pack(b + (a,), width)] = n
                lifted.append((n, 1, ctx.packed.phi[a], ctx.f_power_packed(b)))
            else:
                # rest is increasing, so the lifted legs stay sorted
                a = tuple(self.rest[i] for i in a)
                b = _place(ctx.nvars, self.rest, b)
                n *= self.sign
                eta[pack(b + (ctx.leg_code[a],), width)] = n
                lifted.append((n, 1, 0, ctx.eta_packed(a, b)))
        # the lifted solve's value is excess / (den * eden) + x^r
        excess, eden = _sum_shifted(lifted)
        excess[key] = excess.get(key, 0) - eden * den
        parts = [(1, 1, 0, 0, (den, phi, eta))]
        for e, a in excess.items():
            if a:
                phi_shift, eta_shift, low = self.split(e, width)
                if not eta_shift:
                    raise ReductionNoSolutionError("collapse reduction failed to make progress")
                parts.append((-a, eden * den, phi_shift, eta_shift, self.monomial(low, ctx)))
        den, phi, eta = _combine(parts)
        g = gcd(den, *phi.values(), *eta.values())
        memo[key] = (
            den // g,
            {k: a // g for k, a in phi.items() if a},
            {k: a // g for k, a in eta.items() if a},
        )
        return memo[key]


def _place(n: int, idx: Sequence[int], values: Sequence[int]) -> tuple[int, ...]:
    """The length-n exponent tuple with values at positions idx, zero elsewhere."""
    out = [0] * n
    for i, a in zip(idx, values):
        out[i] = a
    return tuple(out)


def _combine(parts) -> tuple[int, dict, dict]:
    """sum (n / d) * u^gamma * red over (n, d, phi shift, eta shift, red): one packed reduction."""
    phi, den = _sum_shifted([(n, d, s, (red[1], red[0])) for n, d, s, _, red in parts])
    eta, _ = _sum_shifted([(n, d, s, (red[2], red[0])) for n, d, _, s, red in parts])
    return den, phi, eta


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
    ctx.fit(ctx.coefficient_weight(coeff))
    if coeff.is_zero():
        parts = []
    elif ctx.collapse is not None:
        parts = ctx.metas(*ctx.collapse.reduce(coeff, ctx))
    else:
        parts = _reduce_direct(coeff, ctx).items()
    coefficients: list[dict] = [{} for _ in range(ctx.phi.mu)]
    eta_terms: dict[tuple[int, ...], dict] = {}
    for (kind, a, b), c in parts:
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
                    DiffForm(ring, deg + 1, {J: MultiPoly.constant(ring, 1)}), vweights
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
            f"found {len(found)} of {mu} basis forms below weight cap {weight_cap}"
        )
    # closed representatives: correct by i_E(d omega)/weight
    closed = []
    for form, w in zip(found, weights):
        dw = exterior_d(form)
        if dw.is_zero():
            closed.append(form)
            continue
        corr = contract_euler(dw, vweights).scale(Fraction(-1, w))
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
    inputs = []
    for l in range(icis.K):
        others = [ctx.dfs[k] for k in range(icis.K) if k != l]
        rest = wedge_all(others) if others else None
        inputs.append([form if rest is None else wedge(form, rest) for form in fb.forms])
    # one field width, the smallest the heaviest input allows, for the whole memo
    ctx.fit(max(ctx.coefficient_weight(ctx.top_coefficient(g)) for row in inputs for g in row))
    certs_all = [[reduce_in_lattice(g, phi, icis, ctx) for g in row] for row in inputs]
    matrices = [[cert.coefficients for cert in certs] for certs in certs_all]
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
