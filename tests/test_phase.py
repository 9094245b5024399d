from fractions import Fraction

import pytest

from lerayfront.errors import (
    AmbiguousWeightsError,
    HomogeneousOnlyError,
    HyperbolicityError,
    InfiniteDimensionalError,
    NotIsolatedError,
)
from lerayfront.phase import (
    HyperbolicSymbol,
    build_mapping,
    build_phase,
    check_c3,
    check_strict_hyperbolicity,
    discover_weights,
    expand_phase,
    make_icis,
    phase_ring,
    validate_isolated,
)
from lerayfront.poly import MultiPoly, weighted_graded_parts

R = ("x1", "x2")
X1 = MultiPoly.variable(R, "x1")
X2 = MultiPoly.variable(R, "x2")
CUSP = X1**2 + X2**3

SR = ("tau", "xi1", "xi2")
TAU = MultiPoly.variable(SR, "tau")
XI1 = MultiPoly.variable(SR, "xi1")
XI2 = MultiPoly.variable(SR, "xi2")
WAVE = TAU**2 - XI1**2 - XI2**2


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
        assert check_c3(CUSP, discover_weights(CUSP)) == 2

    def test_a4_dimension(self):
        F = X1**2 + X2**5
        assert check_c3(F, discover_weights(F)) == 4

    def test_infinite(self):
        F = X1**2 * X2
        w = discover_weights(X1**2 + X2**3)  # weights irrelevant to the failure
        with pytest.raises(InfiniteDimensionalError):
            check_c3(F, w)


class TestHyperbolicity:
    def test_wave_passes(self):
        P = HyperbolicSymbol.from_poly(WAVE)
        rep = check_strict_hyperbolicity(P, 10, seed=1)
        assert rep["verdict"] == "passed samples"

    def test_elliptic_fails(self):
        P = HyperbolicSymbol.from_poly(TAU**2 + XI1**2 + XI2**2)
        with pytest.raises(HyperbolicityError) as ei:
            check_strict_hyperbolicity(P, 10, seed=1)
        assert ei.value.witness is not None

    def test_cubic_passes(self):
        P = HyperbolicSymbol.from_poly(TAU**3 - TAU * (XI1**2 + XI2**2))
        rep = check_strict_hyperbolicity(P, 10, seed=2)
        assert rep["verdict"] == "passed samples"

    def test_monic_required(self):
        with pytest.raises(ValueError):
            HyperbolicSymbol.from_poly(2 * TAU**2 - XI1**2 - XI2**2)


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
        monos = {m.exps for m, _ in exp.deformation}
        assert monos == {(3, 0), (2, 2), (1, 3), (0, 5), (2, 0), (1, 2), (0, 4)}
        assert exp.reconstruct() == psi
        # every deformation weight strictly below m * w(F), coefficients of degree <= m
        for mono, W in exp.deformation:
            assert mono.weight(w.weights) < 2 * 6
            assert W.total_degree() <= 2

    def test_m1_sign_normalization(self):
        P = HyperbolicSymbol.from_poly(MultiPoly.variable(SR, "tau"))
        w = discover_weights(CUSP)
        psi = build_phase(P, CUSP)
        exp = expand_phase(psi, CUSP, w)
        assert exp.sign == -1 and exp.case == "case2"
        got = {(m.exps, W.pretty()) for m, W in exp.deformation}
        assert got == {((1, 0), "2*x1"), ((0, 2), "3*x2")}
        assert exp.reconstruct() == psi

    def test_case1_constant_term(self):
        # front with a linear monomial produces a constant phase term
        F = X1 + X2**2
        w = discover_weights(F)
        assert w.weights == (2, 1)
        P = HyperbolicSymbol.from_poly(MultiPoly.variable(SR, "tau"))
        psi = build_phase(P, F)
        exp = expand_phase(psi, F, w)
        assert exp.case == "case1"
        assert exp.deformation[0][0].exps == (0, 0)


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
        icis.validate_homogeneity()

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
