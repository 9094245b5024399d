import dataclasses
import hashlib
import json
from fractions import Fraction
from itertools import chain
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lerayfront import brieskorn
from lerayfront.brieskorn import (
    MAX_FIELD_BITS,
    LatticeCertificate,
    LatticeContext,
    PhiBasis,
    _fbasis_graded,
    f_basis,
    gm_matrices,
    phi_basis,
    reduce_in_lattice,
)
from lerayfront.errors import NotIsolatedError, ReductionNoSolutionError, ResourceLimitError
from lerayfront.forms import DiffForm, exterior_d, wedge
from lerayfront.phase import (
    HyperbolicSymbol,
    IcisMap,
    build_mapping,
    build_phase,
    discover_weights,
    expand_phase,
    make_icis,
)
from lerayfront.jsonio import form_to_json, matrix_to_json, poly_to_json
from lerayfront.linalg import ColumnSpan, RationalMatrix, det_fraction
from lerayfront.poly import MultiPoly

from helpers import matvec, rank_by_minors


@pytest.fixture(scope="module")
def m1_cusp_icis(cusp_front):
    """The first-order operator over the cusp: 5 variables, 2 coordinate components."""
    tau = MultiPoly.variable(("tau", "xi1", "xi2"), "tau")
    psi = build_phase(HyperbolicSymbol.from_poly(tau), cusp_front)
    icis = build_mapping(expand_phase(psi, cusp_front, discover_weights(cusp_front)), 2)
    assert len(icis.ring) == 5 and len(icis.coordinate_components()) == 2
    return icis


# sha256 of the flagship's P matrices and certificates (coefficients and eta)
# as jsonio writes them, taken before the memoised collapse
FLAGSHIP_P_SHA256 = "65e30940ad433b99a9308669a34cb836688c5415252183aec651e4e44ba8a474"
FLAGSHIP_CERTIFICATES_SHA256 = "e0f766ceb7a716a2e4897614a82c979755700471c3a993563120a2b9c83898cf"


class TestPhiBasis:
    def test_cusp(self, cusp_icis):
        phi = phi_basis(cusp_icis)
        assert phi.mu == 2
        assert phi.monomials == [(0, 0), (0, 1)]
        assert phi.weights == [5, 7]

    def test_not_isolated(self):
        # the check of phase.validate_isolated, which make_icis runs too
        ring = ("u1", "u2")
        u1, u2 = (MultiPoly.variable(ring, v) for v in ring)
        icis = IcisMap(
            K=1, N=1, ring=ring, components=[u1**2 * u2**3], var_weights=(1, 1), comp_weights=(5,)
        )
        with pytest.raises(NotIsolatedError, match="^singularity is not isolated: staircase"):
            phi_basis(icis)

    def test_a1(self, a1_icis):
        phi = phi_basis(a1_icis)
        assert phi.mu == 1
        assert phi.monomials == [(0, 0, 0)]

    def test_quadric_matches_f_side(self, quadric_icis):
        phi = phi_basis(quadric_icis)
        fb = f_basis(quadric_icis)
        assert phi.mu == len(fb.forms)


class TestFBasis:
    def test_cusp_representatives(self, cusp_icis):
        fb = f_basis(cusp_icis)
        assert fb.weights == [5, 7]
        ring = cusp_icis.ring
        one = MultiPoly.constant(ring, 1)
        u2 = MultiPoly.variable(ring, "u2")
        assert fb.forms[0] == DiffForm(ring, 2, {(0, 1): one})
        assert fb.forms[1] == DiffForm(ring, 2, {(0, 1): u2})

    def test_a1_single_form(self, a1_icis):
        fb = f_basis(a1_icis)
        assert fb.weights == [3]
        ring = a1_icis.ring
        one = MultiPoly.constant(ring, 1)
        assert fb.forms[0] == DiffForm(ring, 3, {(0, 1, 2): one})

    def test_count_equals_mu(self, a4_icis):
        phi = phi_basis(a4_icis)
        fb = f_basis(a4_icis)
        assert len(fb.forms) == phi.mu == 4

    def test_representatives_closed(self, quadric_icis):
        fb = f_basis(quadric_icis)
        for form in fb.forms:
            assert exterior_d(form).is_zero()


class TestReduction:
    def test_cusp_identity_rows(self, cusp_icis):
        phi = phi_basis(cusp_icis)
        fb = f_basis(cusp_icis)
        ctx = LatticeContext(cusp_icis, phi)
        rows = []
        for form in fb.forms:
            cert = reduce_in_lattice(form, phi, cusp_icis, ctx)
            rows.append([p.pretty() for p in cert.coefficients])
            assert cert.eta.is_zero()
        assert rows == [["1", "0"], ["0", "1"]]

    def test_reduce_zero(self, cusp_icis):
        phi = phi_basis(cusp_icis)
        ctx = LatticeContext(cusp_icis, phi)
        zero = DiffForm.zero(cusp_icis.ring, 2)
        cert = reduce_in_lattice(zero, phi, cusp_icis, ctx)
        assert all(p.is_zero() for p in cert.coefficients)
        assert cert.eta.is_zero()

    def test_tautological_membership(self, cusp_icis):
        # f0 * (phi_1 du) reduces to the row (y0, 0)
        phi = phi_basis(cusp_icis)
        ctx = LatticeContext(cusp_icis, phi)
        ring = cusp_icis.ring
        g = DiffForm(ring, 2, {(0, 1): cusp_icis.components[0]})
        cert = reduce_in_lattice(g, phi, cusp_icis, ctx)
        assert [p.pretty() for p in cert.coefficients] == ["y0", "0"]

    def test_certificates_reexpand(self, quadric_icis):
        gm = gm_matrices(quadric_icis)
        phi = gm.phi
        ctx = LatticeContext(quadric_icis, phi)
        count = 0
        for certs in gm.certificates:
            for cert in certs:
                assert cert.verify(ctx)
                count += 1
        assert count == quadric_icis.K * phi.mu

    def test_missing_staircase_monomial_has_no_decomposition(self, cusp_icis):
        # without the constant monomial, du itself lies in no graded piece's span
        phi = phi_basis(cusp_icis)
        short = PhiBasis(monomials=phi.monomials[1:], mu=phi.mu - 1, weights=phi.weights[1:])
        with pytest.raises(ReductionNoSolutionError) as exc:
            gm_matrices(cusp_icis, short, f_basis(cusp_icis))
        assert exc.value.exit_code == 11


def _gm_inputs(icis, ctx):
    """The K * mu top forms that ``gm_matrices`` reduces."""
    for l in range(icis.K):
        for form in f_basis(icis).forms:
            g = form
            for k in range(icis.K):
                if k != l:
                    g = wedge(g, ctx.dfs[k])
            yield g


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=poly_to_json)
    return hashlib.sha256(text.encode()).hexdigest()


class TestCollapse:
    """The memoised collapse against solves on the full ring, and its shift identity."""

    def test_reductions_match_direct_solve(self, m1_cusp_icis, wave_parabola_icis):
        # tau over 1/2*x1^2 + x2^3 has the component z2^3 + 1/2*z1^2, so its
        # f powers carry denominators
        half_cusp = MultiPoly(("x1", "x2"), {(2, 0): Fraction(1, 2), (0, 3): Fraction(1)})
        tau = MultiPoly.variable(("tau", "xi1", "xi2"), "tau")
        psi = build_phase(HyperbolicSymbol.from_poly(tau), half_cusp)
        half_icis = build_mapping(expand_phase(psi, half_cusp, discover_weights(half_cusp)), 2)
        for icis, ncoords in ((m1_cusp_icis, 2), (wave_parabola_icis, 5), (half_icis, 2)):
            phi = phi_basis(icis)
            collapsed = LatticeContext(icis, phi)
            direct = LatticeContext(icis, phi)
            assert len(icis.coordinate_components()) == ncoords
            assert collapsed.collapse is not None
            direct.collapse = None
            count = 0
            for g in _gm_inputs(icis, collapsed):
                a = reduce_in_lattice(g, phi, icis, collapsed)
                b = reduce_in_lattice(g, phi, icis, direct)
                assert a.coefficients == b.coefficients
                assert a.verify(collapsed) and b.verify(direct)
                count += 1
            assert count == icis.K * phi.mu
            powers = chain(collapsed._fpow_int.values(), collapsed.packed.fpow.values())
            dens = {den for _, den in powers}
            assert (dens != {1}) == (icis is half_icis)

    def test_shift_identity_on_the_flagship(self, wave_cusp_pipeline):
        # reduce(u^gamma x^r) == shift_gamma(reduce(x^r)): P_j gains y^gamma on
        # the coordinate components and eta is multiplied by u^gamma
        icis, phi = wave_cusp_pipeline["icis"], wave_cusp_pipeline["phi"]
        ctx = LatticeContext(icis, phi)
        pairs = icis.coordinate_components()
        # the input term with the most weight on the coordinate variables,
        # times two more of them
        e = list(max(
            (e for g in _gm_inputs(icis, ctx) for e in ctx.top_coefficient(g).terms),
            key=lambda e: (sum(e[c] * ctx.v[c] for _, c in pairs), e),
        ))
        e[pairs[0][1]] += 1
        e[pairs[-1][1]] += 2
        e = tuple(e)
        coord = {c for _, c in pairs}
        u_gamma = tuple(a if i in coord else 0 for i, a in enumerate(e))
        y_gamma = [0] * icis.K
        for l, c in pairs:
            y_gamma[l] = e[c]
        assert sum(u_gamma) >= 3 and sum(e) > sum(u_gamma)

        def reduce_monomial(exps):
            form = DiffForm(ctx.ring, ctx.nvars, {ctx.top_index: MultiPoly(ctx.ring, {exps: 1})})
            return reduce_in_lattice(form, phi, icis, ctx)

        shifted = reduce_monomial(e)
        base = reduce_monomial(tuple(a - b for a, b in zip(e, u_gamma)))
        y_shift = MultiPoly(ctx.y_ring, {tuple(y_gamma): 1})
        assert shifted.coefficients == [P * y_shift for P in base.coefficients]
        assert shifted.eta == base.eta.mul_poly(MultiPoly(ctx.ring, {u_gamma: 1}))
        assert any(not P.is_zero() for P in base.coefficients)

    def test_flagship_matrices_and_certificates_are_pinned(self, wave_cusp_pipeline):
        gm = wave_cusp_pipeline["gm"]
        matrices = [matrix_to_json(P) for P in gm.matrices]
        certificates = [
            [[poly_to_json(P) for P in cert.coefficients], form_to_json(cert.eta)]
            for certs in gm.certificates
            for cert in certs
        ]
        assert _digest(matrices) == FLAGSHIP_P_SHA256
        assert _digest(certificates) == FLAGSHIP_CERTIFICATES_SHA256

    def test_f_basis_matches_full_ring(self, m1_cusp_icis):
        icis = m1_cusp_icis
        forms, weights = _fbasis_graded(icis, phi_basis(icis).mu, 4 * sum(icis.comp_weights))
        fb = f_basis(icis)
        assert fb.weights == weights
        assert fb.forms == forms


def _top_form(ctx, terms):
    return DiffForm(ctx.ring, ctx.nvars, {ctx.top_index: MultiPoly(ctx.ring, terms)})


def _perturbed(poly, delta):
    """poly with delta added to the coefficient of its largest term."""
    e, c = poly.leading()
    return MultiPoly(poly.ring, {**poly.terms, e: c + delta})


def _mutated(cert, mutation, ctx):
    """A copy of the certificate with one coefficient, one eta term or one input coefficient changed."""
    coefficients, eta, form = list(cert.coefficients), cert.eta, cert.input_form
    den = lcm(*(c.denominator for P in coefficients for c in P.terms.values()))
    j = next(j for j, P in enumerate(coefficients) if not P.is_zero())
    if mutation == "P_j off by 1/den":
        coefficients[j] = _perturbed(coefficients[j], Fraction(1, den))
    elif mutation == "P_j gains a term off the input's support":
        # y_l^k on a coordinate component f_l = u_c, k past the input's degree in u_c
        l, c = ctx.icis.coordinate_components()[0]
        beta = list(coefficients[j].leading()[0])
        beta[l] += 1 + max(e[c] for e in ctx.top_coefficient(form).terms)
        coefficients[j] = coefficients[j] + MultiPoly(ctx.y_ring, {tuple(beta): Fraction(1, den)})
    elif mutation == "eta term dropped":
        J, q = next(iter(eta.components.items()))
        e = q.leading()[0]
        dropped = MultiPoly(q.ring, {k: c for k, c in q.terms.items() if k != e})
        eta = DiffForm(eta.ring, eta.degree, {**eta.components, J: dropped})
    else:
        top = ctx.top_index
        form = DiffForm(form.ring, form.degree, {top: _perturbed(form.components[top], 1)})
    return LatticeCertificate(input_form=form, coefficients=coefficients, eta=eta)


class TestPackedKernel:
    """The integer certificate check, the packed field widths and their cap, and
    the collapse on components out of variable order and on long shifts."""

    @pytest.mark.parametrize(
        "mutation",
        [
            "P_j off by 1/den",
            "P_j gains a term off the input's support",
            "eta term dropped",
            "input coefficient changed",
        ],
    )
    def test_a_mutated_certificate_fails_and_its_reduction_exits_11(
        self, wave_cusp_pipeline, monkeypatch, mutation
    ):
        icis, phi, gm = wave_cusp_pipeline["icis"], wave_cusp_pipeline["phi"], wave_cusp_pipeline["gm"]
        ctx = LatticeContext(icis, phi)
        cert = next(
            c for certs in gm.certificates for c in certs
            if not c.eta.is_zero() and any(not P.is_zero() for P in c.coefficients)
        )
        assert cert.verify(ctx)
        assert not _mutated(cert, mutation, ctx).verify(ctx)
        # the same mutation inside the reduction
        reduce_poly = brieskorn._reduce_poly
        if mutation == "input coefficient changed":
            def mutated(coeff, ctx):
                return reduce_poly(_perturbed(coeff, 1), ctx)
        else:
            def mutated(coeff, ctx):
                cert = reduce_poly(coeff, ctx)
                cert.input_form = _top_form(ctx, coeff.terms)
                return _mutated(cert, mutation, ctx)
        monkeypatch.setattr(brieskorn, "_reduce_poly", mutated)
        with pytest.raises(ReductionNoSolutionError) as exc:
            reduce_in_lattice(cert.input_form, phi, icis, ctx)
        assert exc.value.exit_code == 11

    def test_collapse_with_components_out_of_variable_order(self, m1_cusp_icis):
        # reversed, the coordinate components are f_0 = z4 and f_1 = z3, so u^gamma
        # shifts beta on other fields than delta
        icis = dataclasses.replace(
            m1_cusp_icis,
            components=m1_cusp_icis.components[::-1],
            comp_weights=m1_cusp_icis.comp_weights[::-1],
        )
        assert icis.coordinate_components() == [(0, 3), (1, 2)]
        phi = phi_basis(icis)
        ctx, direct = LatticeContext(icis, phi), LatticeContext(icis, phi)
        direct.collapse = None
        for g in _gm_inputs(icis, ctx):
            a = reduce_in_lattice(g, phi, icis, ctx)
            b = reduce_in_lattice(g, phi, icis, direct)
            assert (a.coefficients, a.eta) == (b.coefficients, b.eta)

    def test_reductions_at_the_smallest_field_width(self, m1_cusp_icis):
        # m1/cusp: min weight 2 and sum_v 13, so weight w needs the bit
        # length of (w + 13) // 2 and a guard bit per field; the gm inputs
        # (weights 3..12) need 4 + 1 bits, weight 17 is the heaviest that
        # 4 + 1 bits hold, and weight 19 needs 5 + 1, which replaces the memo
        icis = m1_cusp_icis
        phi = phi_basis(icis)
        ctx, direct = LatticeContext(icis, phi), LatticeContext(icis, phi)
        direct.collapse = None
        assert (ctx.min_weight, ctx.sum_v) == (2, 13)
        inputs = list(_gm_inputs(icis, ctx))
        heaviest = max(ctx.coefficient_weight(ctx.top_coefficient(g)) for g in inputs)
        assert heaviest == 12
        # z1 * z3^4 * z4 of weight 17 (bound 15), z1 * z3^4 * z4^2 of weight 19 (bound 16)
        heavy = [_top_form(ctx, {(1, 0, 4, 1, 0): 1}), _top_form(ctx, {(1, 0, 4, 2, 0): 1})]
        assert [ctx.coefficient_weight(ctx.top_coefficient(g)) for g in heavy] == [17, 19]
        for g, width in [(g, 5) for g in inputs] + list(zip(heavy, (5, 6))):
            a = reduce_in_lattice(g, phi, icis, ctx)
            b = reduce_in_lattice(g, phi, icis, direct)
            assert ctx.packed.width == width
            assert (a.coefficients, a.eta) == (b.coefficients, b.eta)
            assert a.verify(direct) and b.verify(ctx)

    def test_a_coordinate_shift_of_thousands(self, m1_cusp_icis):
        # z3 = f_2 on m1/cusp: z1 * z3^3000 reduces to z1's reduction shifted
        # by y2^3000, in 14-bit fields ((9003 + 13) // 2 = 4508 and a guard bit), and its check
        # multiplies out f_2^3000
        icis = m1_cusp_icis
        phi = phi_basis(icis)
        ctx = LatticeContext(icis, phi)
        base = reduce_in_lattice(_top_form(ctx, {(1, 0, 0, 0, 0): 1}), phi, icis, ctx)
        shifted = reduce_in_lattice(_top_form(ctx, {(1, 0, 3000, 0, 0): 1}), phi, icis, ctx)
        assert ctx.packed.width == 14
        y_shift = MultiPoly(ctx.y_ring, {(0, 0, 3000, 0): 1})
        assert shifted.coefficients == [P * y_shift for P in base.coefficients]
        assert shifted.eta == base.eta.mul_poly(MultiPoly(ctx.ring, {(0, 0, 3000, 0, 0): 1}))

    def test_a_power_past_the_fields_sets_a_guard_bit(self, m1_cusp_icis):
        # z3 = f_2 on m1/cusp: weight 0 bounds the exponents by 13 // 2 = 6, in
        # 3-bit fields and a guard bit, which z3^8 sets
        ctx = LatticeContext(m1_cusp_icis, phi_basis(m1_cusp_icis))
        ctx.fit(0)
        assert ctx.packed.width == 4
        assert ctx.f_power_packed((0, 0, 7, 0))[0] == {7 << (4 * 2): 1}
        with pytest.raises(OverflowError, match="guard bit"):
            ctx.f_power_packed((0, 0, 8, 0))

    @pytest.mark.parametrize("collapse", [True, False])
    def test_an_input_past_the_field_cap_ends_in_exit_14(self, m1_cusp_icis, cusp_icis, collapse):
        # weight w needs (w + sum_v) // min_weight below 2^MAX_FIELD_BITS
        icis = m1_cusp_icis if collapse else cusp_icis
        phi = phi_basis(icis)
        ctx = LatticeContext(icis, phi)
        assert (ctx.collapse is not None) == collapse
        e = [0] * ctx.nvars
        e[-1] = 1 << MAX_FIELD_BITS
        with pytest.raises(ResourceLimitError) as exc:
            reduce_in_lattice(_top_form(ctx, {tuple(e): 1}), phi, icis, ctx)
        assert (exc.value.kind, exc.value.limit, exc.value.exit_code) == (
            "exponent-field", MAX_FIELD_BITS, 14
        )


class TestGMMatrices:
    def test_cusp(self, cusp_system):
        gm, _ = cusp_system
        assert [[p.pretty() for p in row] for row in gm.matrices[0]] == [
            ["1", "0"],
            ["0", "1"],
        ]
        assert gm.l_weights == [5, 7]

    def test_a1(self, a1_system):
        gm, _ = a1_system
        assert [[p.pretty() for p in row] for row in gm.matrices[0]] == [["1"]]
        assert gm.l_weights == [3]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_p0_invertible_at_zero_for_ak(self, k):
        from math import gcd

        ring = ("u1", "u2")
        u1 = MultiPoly.variable(ring, "u1")
        u2 = MultiPoly.variable(ring, "u2")
        g = gcd(k + 1, 2)
        icis = make_icis([u1**2 + u2 ** (k + 1)], ((k + 1) // g, 2 // g))
        gm = gm_matrices(icis)
        zero = {v: Fraction(0) for v in icis.y_names()}
        mu = gm.phi.mu
        P0 = [[gm.matrices[0][i][j].eval_exact(zero) for j in range(mu)] for i in range(mu)]
        assert det_fraction(P0) != 0

    def test_forced_weight_structure(self, quadric_system):
        gm, _ = quadric_system
        icis_p = (2, 2)
        sum_p = 4
        for l, mat in enumerate(gm.matrices):
            for i, row in enumerate(mat):
                for j, entry in enumerate(row):
                    if entry.is_zero():
                        continue
                    forced = gm.l_weights[i] + sum_p - icis_p[l] - gm.phi.weights[j]
                    for e in entry.terms:
                        assert 2 * e[0] + 2 * e[1] == forced

    def test_dim_phi_equals_dim_f(self, cusp_icis, a1_icis, a4_icis, quadric_icis):
        for icis in (cusp_icis, a1_icis, a4_icis, quadric_icis):
            assert phi_basis(icis).mu == len(f_basis(icis).forms)


NROWS = 5
sparse_vector = st.dictionaries(st.integers(0, NROWS - 1), st.integers(-3, 3), max_size=3)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(sparse_vector, max_size=6),
    sparse_vector,
    st.lists(st.integers(-2, 2), max_size=6),
)
def test_piece_solver_solves_exactly_in_the_column_span(columns, extra, weights):
    # right-hand side: a combination of the columns plus a random sparse
    # vector, so both members and non-members of the span come up; the
    # piece solver is a ColumnSpan over monomial rows with column metas
    b = [Fraction(extra.get(i, 0)) for i in range(NROWS)]
    for col, w in zip(columns, weights):
        for i, c in col.items():
            b[i] += w * c
    solver = ColumnSpan([(i,) for i in range(NROWS)])
    for j, col in enumerate(columns):
        solver.add({(i,): Fraction(c) for i, c in col.items() if c}, ("phi", j, ()))
    res = solver.solve({(i,): c for i, c in enumerate(b) if c})
    A = RationalMatrix.from_rows(
        [[Fraction(col.get(i, 0)) for col in columns] for i in range(NROWS)]
    )
    # b is in the span exactly when appending it leaves the rank by minors
    in_span = rank_by_minors(A.entries) == rank_by_minors(
        [row + [x] for row, x in zip(A.entries, b)]
    )
    assert (res is not None) == in_span
    if res is not None:
        assert all(meta[0] == "phi" for meta in res)
        x = [res.get(("phi", j, ()), Fraction(0)) for j in range(len(columns))]
        assert matvec(A, x) == b
