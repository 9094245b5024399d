import ast
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lerayfront.detpoly import det_bareiss
from lerayfront.errors import (
    AmbiguousWeightsError,
    HomogeneousOnlyError,
    HyperbolicityError,
    InfiniteDimensionalError,
    NotIsolatedError,
)
from lerayfront.groebner import GREVLEX, groebner, standard_monomials
from lerayfront.phase import (
    HyperbolicSymbol,
    IcisMap,
    build_mapping,
    build_phase,
    check_c3,
    check_strict_hyperbolicity,
    critical_ideal,
    critical_ideal_gens,
    critical_staircase,
    discover_weights,
    expand_phase,
    make_icis,
    phase_ring,
    validate_isolated,
)
from lerayfront.poly import MultiPoly, poly_substitute, weight, weighted_graded_parts

from helpers import reconstruct

R = ("x1", "x2")
X1 = MultiPoly.variable(R, "x1")
X2 = MultiPoly.variable(R, "x2")
CUSP = X1**2 + X2**3

SR = ("tau", "xi1", "xi2")
TAU = MultiPoly.variable(SR, "tau")
XI1 = MultiPoly.variable(SR, "xi1")
XI2 = MultiPoly.variable(SR, "xi2")
WAVE = TAU**2 - XI1**2 - XI2**2

# symbols in one space variable
TX = ("tau", "xi1")
T = MultiPoly.variable(TX, "tau")
X = MultiPoly.variable(TX, "xi1")


class TestWeights:
    def test_cusp(self):
        w = discover_weights(CUSP)
        assert w.weights == (3, 2) and w.total == 6

    def test_mixed_monomial(self):
        w = discover_weights(X1**2 + X1 * X2**3)
        assert w.weights == (3, 1) and w.total == 6

    def test_homogeneous_rejected(self):
        with pytest.raises(HomogeneousOnlyError):
            discover_weights(X1**2 + X2**2)

    def test_ambiguous(self):
        with pytest.raises(AmbiguousWeightsError):
            discover_weights(X1**2 * X2)

    def test_euler_relation_verified(self):
        w = discover_weights(CUSP)
        w.verify(CUSP)  # no raise


class TestC3:
    def test_cusp_dimension(self):
        assert check_c3(CUSP) == 2

    def test_a4_dimension(self):
        assert check_c3(X1**2 + X2**5) == 4

    def test_infinite(self):
        with pytest.raises(InfiniteDimensionalError):
            check_c3(X1**2 * X2)


class TestHyperbolicity:
    def test_wave_passes(self):
        P = HyperbolicSymbol.from_poly(WAVE)
        rep = check_strict_hyperbolicity(P, seed=1)
        assert rep["verdict"] == "passed samples"

    def test_elliptic_fails(self):
        P = HyperbolicSymbol.from_poly(TAU**2 + XI1**2 + XI2**2)
        with pytest.raises(HyperbolicityError, match="complex characteristic roots") as ei:
            check_strict_hyperbolicity(P, seed=1)
        assert str(ei.value).endswith(" at xi = (-5, 9)")

    def test_double_root_fails(self):
        # (tau - xi1)^2: one real root of multiplicity two at every xi
        P = HyperbolicSymbol.from_poly((TAU - XI1) ** 2)
        with pytest.raises(HyperbolicityError, match="repeated characteristic roots") as ei:
            check_strict_hyperbolicity(P, seed=1)
        assert str(ei.value).endswith(" at xi = (-5, 9)")

    def test_cubic_passes(self):
        P = HyperbolicSymbol.from_poly(TAU**3 - TAU * (XI1**2 + XI2**2))
        rep = check_strict_hyperbolicity(P, seed=2)
        assert rep["verdict"] == "passed samples"

    def test_monic_required(self):
        with pytest.raises(ValueError):
            HyperbolicSymbol.from_poly(2 * TAU**2 - XI1**2 - XI2**2)

    def test_real_root_counts(self):
        # at xi1 = 1: tau^2 - 1 has two real roots, tau^2 + 1 none,
        # tau^3 - tau three, (tau - 1)^2 (tau + 2) two distinct
        for symbol, failure in (
            (T**2 - X**2, None),
            (T**2 + X**2, "complex"),
            (T**3 - T * X**2, None),
            ((T - X) ** 2 * (T + 2 * X), "repeated"),
        ):
            _assert_verdict(HyperbolicSymbol.from_poly(symbol), failure)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.fractions(-4, 4, max_denominator=3), min_size=1, max_size=4),
        st.booleans(),
    )
    def test_products_of_real_factors(self, cs, complex_factor):
        # prod_j (tau - c_j xi1) has the distinct real roots c_j xi1 at every
        # sampled xi1 != 0 exactly when the c_j are distinct; tau^2 + xi1^2
        # adds the roots +-i xi1.  One space variable keeps xi1 off 0: in
        # two, xi = (0, xi2) is a sample and makes every c_j xi1 equal.
        symbol = T**2 + X**2 if complex_factor else MultiPoly.constant(TX, 1)
        for c in cs:
            symbol = symbol * (T - X.scale(c))
        if len(set(cs)) < len(cs):
            failure = "repeated"
        else:
            failure = "complex" if complex_factor else None
        _assert_verdict(HyperbolicSymbol.from_poly(symbol), failure)


def _assert_verdict(P: HyperbolicSymbol, failure: str | None) -> None:
    """check_strict_hyperbolicity passes (failure None) or names the failure."""
    if failure is None:
        rep = check_strict_hyperbolicity(P, seed=1)
        assert rep["verdict"] == "passed samples" and rep["samples"] == 25
        return
    with pytest.raises(HyperbolicityError, match=f"^{failure} characteristic roots at xi = ") as ei:
        check_strict_hyperbolicity(P, seed=1)
    # the message names the sampled xi: a tuple of P.n integers, not all zero
    xi = ast.literal_eval(str(ei.value).split(" at xi = ")[1])
    assert len(xi) == P.n and all(isinstance(x, int) for x in xi) and any(xi)


class TestBuildPhase:
    def test_m1_is_linear_pairing(self):
        P = HyperbolicSymbol.from_poly(MultiPoly.variable(SR, "tau"))
        psi = build_phase(P, CUSP)
        PR = phase_ring(2)

        def v(n):
            return MultiPoly.variable(PR, n)

        hand = (v("x1") - v("z1")) * (2 * v("z1")) + (v("x2") - v("z2")) * (
            3 * v("z2") ** 2
        )
        assert psi == hand

    def test_wave_cusp_hand_expansion(self):
        P = HyperbolicSymbol.from_poly(WAVE)
        psi = build_phase(P, CUSP)
        PR = phase_ring(2)

        def v(n):
            return MultiPoly.variable(PR, n)

        x1, x2, t, z1, z2 = (v(n) for n in PR)
        hand = (
            2 * x1 * z1 + 3 * x2 * z2**2 - 2 * z1**2 - 3 * z2**3
        ) ** 2 - t**2 * (4 * z1**2 + 9 * z2**4)
        assert psi == hand

    def test_vanishes_on_diagonal_at_t0(self):
        P = HyperbolicSymbol.from_poly(WAVE)
        psi = build_phase(P, CUSP)
        for z in [(1, 2), (-3, 5), (0, 7)]:
            val = psi.eval_exact(
                {
                    "x1": Fraction(z[0]),
                    "x2": Fraction(z[1]),
                    "z1": Fraction(z[0]),
                    "z2": Fraction(z[1]),
                    "t": Fraction(0),
                }
            )
            assert val == 0


class TestExpandPhase:
    def test_wave_cusp(self):
        P = HyperbolicSymbol.from_poly(WAVE)
        w = discover_weights(CUSP)
        psi = build_phase(P, CUSP)
        exp = expand_phase(psi, CUSP, w)
        assert exp.case == "case2"
        assert exp.sign == 1
        assert exp.mu_prime == 7 and exp.mu == 8
        assert exp.bound == 24
        monos = {m for m, _ in exp.deformation}
        assert monos == {(3, 0), (2, 2), (1, 3), (0, 5), (2, 0), (1, 2), (0, 4)}
        assert reconstruct(exp) == psi
        # every deformation weight strictly below m * w(F), coefficients of degree <= m
        for mono, W in exp.deformation:
            assert weight(mono, w.weights) < 2 * 6
            assert W.total_degree() <= 2

    def test_m1_sign_normalization(self):
        P = HyperbolicSymbol.from_poly(MultiPoly.variable(SR, "tau"))
        w = discover_weights(CUSP)
        psi = build_phase(P, CUSP)
        exp = expand_phase(psi, CUSP, w)
        assert exp.sign == -1 and exp.case == "case2"
        got = {(m, W.pretty()) for m, W in exp.deformation}
        assert got == {((1, 0), "2*x1"), ((0, 2), "3*x2")}
        assert reconstruct(exp) == psi

    def test_case1_constant_term(self):
        # front with a linear monomial produces a constant phase term
        F = X1 + X2**2
        w = discover_weights(F)
        assert w.weights == (2, 1)
        P = HyperbolicSymbol.from_poly(MultiPoly.variable(SR, "tau"))
        psi = build_phase(P, F)
        exp = expand_phase(psi, F, w)
        assert exp.case == "case1"
        assert exp.deformation[0][0] == (0, 0)


class TestBuildMapping:
    def test_wave_cusp_counts(self):
        P = HyperbolicSymbol.from_poly(WAVE)
        w = discover_weights(CUSP)
        exp = expand_phase(build_phase(P, CUSP), CUSP, w)
        icis = build_mapping(exp, 2)
        # mu = 8 coupled directions plus the power variable: K = mu + 1
        assert icis.K == exp.mu + 1 == 9
        assert len(icis.ring) == 2 + exp.mu == 10
        assert icis.N == 1
        assert icis.components[0].pretty() in ("z1^2 + z2^3", "z2^3 + z1^2")
        # weight integrality without rescale: v(z10) = 12 / 2 = 6
        assert icis.var_weights[-1] == 6
        for f, p in zip(icis.components, icis.comp_weights):
            assert weighted_graded_parts(f, icis.var_weights) == [(p, f)]
        # make_icis's isolation check left the critical staircase on the map
        assert icis._staircase is not None

    def test_case1_coupling_counts(self):
        F = X1 + X2**2
        w = discover_weights(F)
        P = HyperbolicSymbol.from_poly(MultiPoly.variable(SR, "tau"))
        exp = expand_phase(build_phase(P, F), F, w)
        icis = build_mapping(exp, 3)
        # constant monomial is not coupled: exactly mu - 1 couplings
        assert len(icis.couplings) == exp.mu - 1
        assert icis.y1_value is not None
        assert icis.case == "case1"

    def test_weight_rescale(self):
        # m * w(F) = 2 with power 3 forces a rescale of the weight system
        F = X1 + X2**2
        w = discover_weights(F)
        P = HyperbolicSymbol.from_poly(MultiPoly.variable(SR, "tau"))
        exp = expand_phase(build_phase(P, F), F, w)
        icis = build_mapping(exp, 3)
        for f, p in zip(icis.components, icis.comp_weights):
            parts = weighted_graded_parts(f, icis.var_weights)
            assert len(parts) == 1 and parts[0][0] == p

    def test_not_isolated_detected(self):
        ring = ("u1", "u2")
        u1 = MultiPoly.variable(ring, "u1")
        u2 = MultiPoly.variable(ring, "u2")
        with pytest.raises(NotIsolatedError):
            make_icis([u1**2 * u2**3], (1, 1))


def test_validate_isolated_dimension(cusp_icis):
    assert validate_isolated(cusp_icis) == 2


def test_critical_ideal_built_once_per_map(monkeypatch):
    from lerayfront import brieskorn, phase

    calls = []
    original = phase.critical_ideal_gens

    def counted(icis):
        calls.append(icis)
        return original(icis)

    monkeypatch.setattr(phase, "critical_ideal_gens", counted)
    F = X1 + X2**2
    P = HyperbolicSymbol.from_poly(MultiPoly.variable(SR, "tau"))
    icis = build_mapping(expand_phase(build_phase(P, F), F, discover_weights(F)), 2)
    phi = brieskorn.phi_basis(icis)
    assert len(brieskorn.f_basis(icis).forms) == phi.mu
    assert validate_isolated(icis) == phi.mu
    assert calls == [icis]


def _full_minors(icis):
    """Every K x K minor of the full K x (N+K) Jacobian, by Bareiss."""
    jac = [[f.partial(v) for v in icis.ring] for f in icis.components]
    return [
        det_bareiss([[row[c] for c in sel] for row in jac])
        for sel in combinations(range(len(icis.ring)), icis.K)
    ]


def _reference_critical_ideal(icis, images):
    """<f_l - images[l]> + <full minors>, with each coordinate u_c bound to images[l]."""
    coords = {c: l for l, c in icis.coordinate_components()}
    rest = tuple(v for i, v in enumerate(icis.ring) if i not in coords)
    target = rest + images[0].ring
    lifted = [y.rename_ring(target) for y in images]
    bindings = {
        v: lifted[coords[i]] if i in coords else MultiPoly.variable(target, v)
        for i, v in enumerate(icis.ring)
    }
    comps = [poly_substitute(f, bindings) - y for f, y in zip(icis.components, lifted)]
    return comps + [poly_substitute(m, bindings) for m in _full_minors(icis)]


def _primitive(gens):
    return {g.primitive_part() for g in gens if not g.is_zero()}


def _m1_parabola():
    F = X1 + X2**2
    P = HyperbolicSymbol.from_poly(TAU)
    return build_mapping(expand_phase(build_phase(P, F), F, discover_weights(F)), 2)


def _vanishing_at_zero():
    """f_0 = u1 (u2^3 + u3^2) vanishes at u1 = 0, where the coordinate f_1 = u1 binds it."""
    ring = ("u1", "u2", "u3")
    u1, u2, u3 = (MultiPoly.variable(ring, v) for v in ring)
    return IcisMap(
        K=2,
        N=1,
        ring=ring,
        components=[u1 * (u2**3 + u3**2), u1],
        var_weights=(1, 2, 3),
        comp_weights=(7, 1),
    )


def _all_coordinates():
    return make_icis([MultiPoly.variable(("u1",), "u1")], (1,))


@pytest.mark.parametrize(
    "build",
    [
        "cusp_icis",
        "a1_icis",
        "a4_icis",
        "quadric_icis",
        "wave_parabola_icis",
        "m1_cusp_icis",
        _m1_parabola,
        _vanishing_at_zero,
        _all_coordinates,
    ],
    ids=lambda b: b if isinstance(b, str) else b.__name__.strip("_"),
)
def test_critical_ideal_matches_the_full_minors(request, build):
    """The block minors of the non-coordinate components give the full-minor ideal."""
    icis = request.getfixturevalue(build) if isinstance(build, str) else build()
    y = icis.y_names()
    for images in ([MultiPoly.variable(y, v) for v in y], [MultiPoly.zero(())] * icis.K):
        gens, rest = critical_ideal(icis, images)
        assert _primitive(gens) == _primitive(_reference_critical_ideal(icis, images))
        assert all(g.ring == tuple(rest) + images[0].ring for g in gens)
    reference = groebner(_full_minors(icis) + icis.components, GREVLEX)
    assert groebner(critical_ideal_gens(icis), GREVLEX) == reference
    assert critical_staircase(icis) == standard_monomials(reference)
