import random
from fractions import Fraction
from itertools import product
from math import fsum, hypot, isnan, nan, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lerayfront.brieskorn import gm_matrices
from lerayfront.detpoly import det_bareiss, det_poly_matrix, line_determinant
from lerayfront import oracle
from lerayfront.errors import MismatchError
from lerayfront.gaussmanin import assemble_system, discriminant
from lerayfront.gcdtools import monomial_content
from lerayfront.groebner import GREVLEX, groebner
from lerayfront.oracle import (
    LEVEL_ATTEMPTS,
    LevelSet,
    RaySample,
    _characteristic_polynomial,
    _roots,
    compare_discriminants,
    critical_locus_eliminant,
    eval_front_on_samples,
    line_check,
    sample_front,
    scaled_residuals,
)
from lerayfront.phase import (
    HyperbolicSymbol,
    build_mapping,
    build_phase,
    critical_ideal,
    discover_weights,
    expand_phase,
)
from lerayfront.parser import parse_poly
from lerayfront.poly import FloatPoly, MultiPoly, poly_substitute

from helpers import eval_float_reference, level_set_reference, minimal_polynomial, substitute

R = ("x1", "x2")
X1 = MultiPoly.variable(R, "x1")
X2 = MultiPoly.variable(R, "x2")
CUSP = X1**2 + X2**3

SR = ("tau", "xi1", "xi2")
TAU = MultiPoly.variable(SR, "tau")
XI1 = MultiPoly.variable(SR, "xi1")
XI2 = MultiPoly.variable(SR, "xi2")
WAVE = HyperbolicSymbol.from_poly(TAU**2 - XI1**2 - XI2**2)


# the whole message of each radical mismatch (error.json prints only the message)
RADICAL_MISMATCHES = {
    "radical mismatch: the eliminant does not divide det M",
    "radical mismatch: det M and the eliminant have different variable factors",
    "radical mismatch: det M divides no power of the eliminant",
}


class TestEliminant:
    def test_cusp(self, cusp_icis, cusp_system):
        el = critical_locus_eliminant(cusp_icis)
        assert [p.pretty() for p in el] == ["y0"]
        _, data = cusp_system
        if data.delta is None:
            discriminant(data)
        assert compare_discriminants(data.delta, el).verdict == "equal radicals (exact)"

    def test_a1(self, a1_icis, a1_system):
        el = critical_locus_eliminant(a1_icis)
        assert [p.pretty() for p in el] == ["y0"]
        _, data = a1_system
        if data.delta is None:
            discriminant(data)
        assert compare_discriminants(data.delta, el).verdict == "equal radicals (exact)"

    def test_a4(self, a4_icis, a4_system):
        el = critical_locus_eliminant(a4_icis)
        assert [p.pretty() for p in el] == ["y0"]
        _, data = a4_system
        if data.delta is None:
            discriminant(data)
        assert compare_discriminants(data.delta, el).verdict == "equal radicals (exact)"

    def test_quadric_sampled(self, quadric_icis, quadric_system):
        el = critical_locus_eliminant(quadric_icis)
        # critical values: the three lines y1 = y0, y1 = 2 y0, y1 = 3 y0
        assert len(el) == 1
        gen = el[0]
        for c in (1, 2, 3):
            val = gen.eval_exact({"y0": Fraction(1), "y1": Fraction(c)})
            assert val == 0
        _, data = quadric_system
        if data.delta is None:
            discriminant(data)
        cmp = compare_discriminants(data.delta, el, seed=17)
        assert cmp.verdict == "equal radicals (exact)"
        # det M is the square of the three lines: it divides the eliminant^2
        assert cmp.detail.endswith("total degree 3 and det M divides eliminant^2")

    def test_mismatch_witness(
        self, quadric_icis, quadric_system, m1_cusp_icis, m1_cusp_system
    ):
        y = ("y0",)
        y0 = MultiPoly.variable(y, "y0")
        one = MultiPoly.constant(y, 1)
        _, quadric = quadric_system
        _, m1_cusp = m1_cusp_system
        for data in (quadric, m1_cusp):
            if data.delta is None:
                discriminant(data)
        delta = quadric.delta
        (g,) = critical_locus_eliminant(quadric_icis)
        y1 = MultiPoly.variable(delta.ring, "y1")
        top = max(delta.terms)
        flipped = MultiPoly(delta.ring, {**delta.terms, top: -delta.terms[top]})
        exact = "equal radicals (exact)"
        y0q = MultiPoly.variable(delta.ring, "y0")
        seven = MultiPoly.constant(delta.ring, 7)
        (m1_g,) = critical_locus_eliminant(m1_cusp_icis)
        # m1/cusp compares y0^4 * rest with y0 * rest
        k = m1_g.ring.index("y0")
        assert (monomial_content(m1_cusp.delta)[k], monomial_content(m1_g)[k]) == (4, 1)
        # (case, delta, eliminant, verdict or MismatchError message)
        table = [
            ("univariate shift", y0, [y0 - one], "radical mismatch: the eliminant does not"),
            ("quadric, one coefficient flipped", flipped, [g], "radical mismatch"),
            ("quadric times y1^2, eliminant times y1", delta * y1**2, [g * y1], exact),
            ("two generators", delta, [g, g * y1], "eliminant is not principal: 2 generators"),
            ("m1/cusp", m1_cusp.delta, [m1_g], exact),
            ("a repeated factor of the eliminant", delta * g, [g], exact),
            ("a dropped factor", g.exact_div(y1 - y0q), [g], "the eliminant does not divide"),
            ("an extra factor", delta * (y1 + seven), [g], "det M divides no power"),
            ("y0 * delta, no y0 content in g", delta * y0q, [g], "different variable factors"),
        ]
        for case, d, el, expected in table:
            if expected == exact:
                assert compare_discriminants(d, el).verdict == exact, case
                continue
            with pytest.raises(MismatchError, match=expected) as err:
                compare_discriminants(d, el)
            if len(el) == 1:
                assert str(err.value) in RADICAL_MISMATCHES, case



QR = ("u", "tau")
QU = MultiPoly.variable(QR, "u")
QTAU = MultiPoly.variable(QR, "tau")
Q1 = MultiPoly.constant(QR, 1)
T = MultiPoly.variable(("tau",), "tau")
T1 = MultiPoly.constant(("tau",), 1)


@pytest.mark.parametrize(
    "gens, charpoly, minpoly, dimension",
    [
        # tau^2 = 2 on a 4-dimensional quotient: each root twice
        ([QU**2 - Q1, QTAU**2 - Q1.scale(2)], (T**2 - T1.scale(2)) ** 2, T**2 - T1.scale(2), 4),
        # tau = u + 1 with u^2 = 2: tau generates, so the degree is D
        (
            [QU**2 - Q1.scale(2), QTAU - QU - Q1],
            T**2 - T.scale(2) - T1,
            T**2 - T.scale(2) - T1,
            2,
        ),
        # a nilpotent tau: both are a power of tau
        ([QU, QTAU**3], T**3, T**3, 3),
    ],
)
def test_characteristic_polynomial_has_the_minimal_polynomials_roots(
    gens, charpoly, minpoly, dimension
):
    gb = groebner(gens)
    assert _characteristic_polynomial(gb) == (charpoly, dimension)
    reference, D = minimal_polynomial(gb, "tau")
    assert (reference, D) == (minpoly, dimension)
    assert compare_discriminants(charpoly, [minpoly]).verdict == "equal radicals (exact)"


def test_characteristic_polynomial_of_a_unit_ideal_is_one():
    assert _characteristic_polynomial(groebner([QU, QU - Q1])) == (T1, 0)


def test_characteristic_polynomial_needs_a_zero_dimensional_quotient():
    with pytest.raises(MismatchError, match="not zero-dimensional.*tau"):
        _characteristic_polynomial(groebner([QU**2 - Q1]))


class TestLineCheck:
    EXACT = "det M equals the characteristic polynomial on 2 seeded lines (exact)"

    def test_quadric_passes_and_perturbed_systems_fail(self, quadric_icis, quadric_system):
        _, data = quadric_system
        rep = line_check(quadric_icis, data.M, seed=1)
        assert rep.verdict == self.EXACT
        assert [line.quotient_dimension for line in rep.lines] == [6, 6]
        # M + y0 I, and each +1 change of one entry of M that changes det M;
        # the other 19 of the 25 leave det M as it is, so no discriminant
        # oracle can see them
        y = data.y_ring
        y0 = MultiPoly.variable(y, "y0")
        delta = det_poly_matrix(data.M)
        perturbed = [
            [[e + y0 if i == j else e for j, e in enumerate(row)] for i, row in enumerate(data.M)]
        ]
        for i, j in product(range(data.mu), repeat=2):
            M = [row[:] for row in data.M]
            M[i][j] = M[i][j] + MultiPoly.constant(y, 1)
            if det_poly_matrix(M) != delta:
                perturbed.append(M)
        assert len(perturbed) == 1 + 6
        for M in perturbed:
            with pytest.raises(MismatchError, match=r"on the line .* not a constant times"):
                line_check(quadric_icis, M, seed=1)

    def test_a_wrong_multiplicity_fails(self, quadric_icis, quadric_system):
        # row 0 times y0 - y1, a factor of the radical
        # (y0 - y1)(2y0 - y1)(3y0 - y1): the radical stays, one multiplicity
        # grows by one, so a comparison of radicals passes and this one fails
        _, data = quadric_system
        y0, y1 = (MultiPoly.variable(data.y_ring, v) for v in ("y0", "y1"))
        M = [[e * (y0 - y1) for e in data.M[0]]] + data.M[1:]
        delta, wrong = det_poly_matrix(data.M), det_poly_matrix(M)
        assert wrong == delta * (y0 - y1)
        assert compare_discriminants(wrong, [delta]).verdict == "equal radicals (exact)"
        line = r"on the line y = \[-5, 9\] \+ \[-7, -1\]\*tau: det M .* not a constant times"
        with pytest.raises(MismatchError, match=line):
            line_check(quadric_icis, M, seed=1)

    def test_line_determinant_is_the_substituted_bareiss_determinant(
        self, cusp_system, a1_system, a4_system, quadric_system, m1_cusp_system
    ):
        tau = MultiPoly.variable(("tau",), "tau")
        rng = random.Random(4)
        for _, data in (cusp_system, a1_system, a4_system, quadric_system, m1_cusp_system):
            ring = data.y_ring
            for _ in range(2):
                a = [rng.randint(-9, 9) for _ in ring]
                b = [rng.randint(-9, 9) for _ in ring]
                on_line = {
                    y: tau.scale(bl) + MultiPoly.constant(tau.ring, al)
                    for y, al, bl in zip(ring, a, b)
                }
                M_line = [[substitute(e, on_line, tau.ring) for e in row] for row in data.M]
                assert line_determinant(data.M, ring, a, b) == det_bareiss(M_line), ring

    def test_maps_pass(
        self,
        cusp_icis,
        cusp_system,
        a1_icis,
        a1_system,
        a4_icis,
        a4_system,
        wave_parabola_icis,
        wave_parabola_system,
        m1_cusp_icis,
        m1_cusp_system,
        quadric_icis,
        quadric_system,
    ):
        front = X1 + X2**2
        psi = build_phase(HyperbolicSymbol.from_poly(TAU), front)
        m1_parabola = build_mapping(expand_phase(psi, front, discover_weights(front)), 2)
        cases = [
            ("cusp", cusp_icis, cusp_system[1], [2, 2]),
            ("A1", a1_icis, a1_system[1], [1, 1]),
            ("A4", a4_icis, a4_system[1], [4, 4]),
            ("quadric", quadric_icis, quadric_system[1], [6, 6]),
            ("wave/parabola", wave_parabola_icis, wave_parabola_system, [9, 9]),
            ("m1/cusp", m1_cusp_icis, m1_cusp_system[1], [18, 18]),
        ]
        m1_parabola_system = assemble_system(gm_matrices(m1_parabola), m1_parabola)
        cases.append(("m1/parabola", m1_parabola, m1_parabola_system, [2, 2]))
        tau = MultiPoly.variable(("tau",), "tau")
        for case, icis, data, dimensions in cases:
            rep = line_check(icis, data.M, seed=1)
            assert rep.verdict == self.EXACT, case
            assert [line.quotient_dimension for line in rep.lines] == dimensions, case
            for line in rep.lines:
                assert any(line.b), case
                images = [
                    tau.scale(bl) + MultiPoly.constant(tau.ring, al)
                    for al, bl in zip(line.a, line.b)
                ]
                gb = groebner(critical_ideal(icis, images)[0], GREVLEX)
                charpoly, D = _characteristic_polynomial(gb)
                minpoly, _ = minimal_polynomial(gb, "tau")
                assert D == line.quotient_dimension, case
                assert charpoly.total_degree() == D, case
                verdict = compare_discriminants(charpoly, [minpoly]).verdict
                assert verdict == "equal radicals (exact)", case
                # det M on the line is a constant times the characteristic
                # polynomial, which is monic: the constant is det's leading
                # coefficient
                det = line_determinant(data.M, icis.y_names(), line.a, line.b)
                assert det == charpoly.scale(det.terms.get((D,), 0)), case


def _coefficients(roots, lead):
    """lead * prod (z - r), highest power first."""
    coeffs = [lead]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


class TestRoots:
    @pytest.mark.parametrize(
        "roots",
        [
            [0.5],
            [-2.0, 0.5, 3.0, 1.25],
            [1 + 2j, 1 - 2j, -0.25],
            [0.0, 1.5, -1.0],
            [-150.0, 2.0, 0.75],
            [1e4, -3.0],
        ],
    )
    def test_known_roots(self, roots):
        coeffs = _coefficients(roots, 3.0)
        assert all(c.imag == 0 for c in coeffs)
        found = _roots([c.real for c in coeffs])
        assert len(found) == len(roots)
        for r in roots:  # match as a multiset, nearest first
            k = min(range(len(found)), key=lambda k: abs(found[k] - r))
            assert abs(found.pop(k) - r) <= 1e-12 * (abs(r) or 1.0), (roots, r)

    def test_double_root_is_dropped_or_polished(self, monkeypatch):
        # (z - 1)^2 (z + 2): the simple root is found to 1e-12, the double
        # one only to about the square root of the float precision
        found = sorted(_roots([1.0, 0.0, -3.0, 2.0]), key=lambda r: r.real)
        assert abs(found[0] + 2) < 1e-12
        assert all(abs(r - 1) < 1e-6 for r in found[1:])
        # 0.1 (z - 1)^2 (z - b): two roots land on exactly 1.0, where the
        # Durand-Kerner denominator is 0; they must stay there
        coeffs = [0.1, -0.03723925607379869, -0.22552148785240264, 0.16276074392620132]
        found = sorted(_roots(coeffs), key=lambda r: r.real)
        assert abs(found[0] + 1.627607439262013) < 1e-12
        assert found[1:] == [1.0, 1.0]
        # every line meets F = x1^2 = 0 in a double root: the 1e-10
        # imaginary filter drops a split complex pair, and Newton puts a
        # split real pair back on F = 0
        seen = []

        def recorded(coeffs):
            roots = _roots(coeffs)
            seen.extend(roots)
            return roots

        monkeypatch.setattr(oracle, "_roots", recorded)
        pts = LevelSet(X1**2, Fraction(0), 3).take(20)
        dropped = [r for r in seen if abs(r.imag) > 1e-10 * max(1.0, abs(r.real))]
        assert dropped and len(dropped) < len(seen)
        assert len(pts) == 20
        assert all(z[0] ** 2 <= 1e-11 for z in pts)


REFERENCE_FRONTS = ["x1^2 + x2^3", "x1 + x2^2", "x1^3 + x2^4", "x1^2 + 3/7*x2^5 - x1*x2", "x1^2"]
# x1^2 + x2^2 = 1249/100 meets the box |z_i| <= 2.5 only near its corners, so
# the attempts cap binds: a take of 40 points finds 34 with seed 3, 1 of 5 with seed 7
CORNER_CIRCLE = (parse_poly("x1^2 + x2^2"), Fraction(1249, 100))


class TestLevelSet:
    def test_points_on_level_set(self):
        pts = LevelSet(CUSP, Fraction(1), 3).take(20)
        assert len(pts) == 20
        for z in pts:
            val = z[0] ** 2 + z[1] ** 3
            assert abs(val - 1.0) < 1e-10

    @pytest.mark.parametrize("seed", [1, 3, 7])
    @pytest.mark.parametrize("s", [Fraction(1), Fraction(0), Fraction(-2, 3)], ids=str)
    @pytest.mark.parametrize("front", REFERENCE_FRONTS)
    def test_take_matches_the_reference_sampler(self, front, s, seed):
        F = parse_poly(front)
        assert LevelSet(F, s, seed).take(20) == level_set_reference(F, s, 20, seed)

    @pytest.mark.parametrize(
        "F, s, seed, count, found",
        [
            (parse_poly("x1^2 + x2^2"), Fraction(-1), 3, 10, 0),
            (*CORNER_CIRCLE, 7, 5, 1),
            (*CORNER_CIRCLE, 3, 40, 34),
            # the one point of this take comes from attempt 160, the last one allowed
            (*CORNER_CIRCLE, 29, 2, 1),
        ],
        ids=["no real points", "capped at 5", "capped at 40", "found by the last attempt"],
    )
    def test_take_matches_the_reference_when_the_cap_binds(self, F, s, seed, count, found):
        level = LevelSet(F, s, seed)
        pts = level.take(count)
        assert len(pts) == found
        assert level.attempts == LEVEL_ATTEMPTS * count
        assert pts == level_set_reference(F, s, count, seed)

    @pytest.mark.parametrize(
        "F, s, seed", [(CUSP, Fraction(1), 1), (*CORNER_CIRCLE, 3)], ids=["cusp", "capped"]
    )
    @pytest.mark.parametrize("first, second", [(40, 50), (50, 40)])
    def test_takes_from_one_stream_equal_fresh_takes(self, F, s, seed, first, second):
        level = LevelSet(F, s, seed)
        assert level.take(first) == LevelSet(F, s, seed).take(first)
        attempts = level.attempts
        assert level.take(second) == LevelSet(F, s, seed).take(second)
        if second < first:  # served from memory: no line is drawn
            assert level.attempts == attempts
        assert level.take(second) == level_set_reference(F, s, second, seed)


_SMALL = st.fractions(min_value=-50, max_value=50, max_denominator=60)
_WIDE = st.builds(Fraction, st.integers(-(2**400), 2**400), st.integers(1, 2**400))


@st.composite
def _polynomials(draw, ring):
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 5) for _ in ring]),
            st.one_of(_SMALL, _WIDE),
            max_size=8,
        )
    )
    return MultiPoly(ring, terms)


_RINGS = st.sampled_from([("x1",), ("x1", "x2"), ("x1", "x2", "x3")])
_POINT_VALUES = st.one_of(
    st.floats(-3, 3, allow_nan=False), st.sampled_from([0.0, -0.0, -1.0, -2.5])
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_float_poly_is_the_per_term_formula_bit_for_bit(data):
    ring = data.draw(_RINGS)
    p = data.draw(_polynomials(ring))
    values = {v: data.draw(_POINT_VALUES) for v in ring}
    expected = eval_float_reference(p, values).hex()
    assert FloatPoly(p)([values[v] for v in ring]).hex() == expected
    assert p.eval_float(values).hex() == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_generic_line_coefficients_are_the_substitution_exactly(data):
    ring = data.draw(_RINGS)
    F = data.draw(_polynomials(ring))
    s = data.draw(st.one_of(_SMALL, _WIDE))
    base = [Fraction(data.draw(st.integers(-20, 20)), 10) for _ in ring]
    direction = [Fraction(data.draw(st.integers(-9, 9)), 3) for _ in ring]
    line = oracle._generic_line(F, s)
    *values, D = line.at(dict(zip(line.ring, base + direction)))[0][0]
    tau = MultiPoly.variable(("tau",), "tau")
    bindings = {
        v: MultiPoly.constant(tau.ring, b) + tau.scale(d) for v, b, d in zip(ring, base, direction)
    }
    uni = poly_substitute(F, bindings) - MultiPoly.constant(tau.ring, s)
    assert uni.degree_in("tau") < len(values)
    assert [Fraction(v, D) for v in values] == [uni.terms.get((k,), 0) for k in range(len(values))]


class TestRays:
    def test_hand_example(self):
        # z = (1, 0): grad F = (2, 0), lambda = +/-2, grad lambda = (+/-1, 0)
        rep = sample_front(WAVE, LevelSet(CUSP, Fraction(1), 5), [0.5], count=5)
        # the sampler may not hit exactly z = (1, 0); verify the ray law instead
        for s in rep.samples:
            norm = hypot(2 * s.z[0], 3 * s.z[1] ** 2)
            lam = s.lam
            assert abs(abs(lam) - norm) < 1e-7
            direction = [(x - z) / s.t for x, z in zip(s.x, s.z)]
            # unit speed: |dx/dt| = |grad lambda| = 1 for the wave operator
            assert abs(hypot(*direction) - 1.0) < 1e-7

    def test_t_zero_is_start(self):
        rep = sample_front(WAVE, LevelSet(CUSP, Fraction(1), 5), [0.0], count=5)
        for s in rep.samples:
            assert s.x == s.z

    def test_m1_rays_stay_put(self):
        P = HyperbolicSymbol.from_poly(TAU)
        rep = sample_front(P, LevelSet(CUSP, Fraction(1), 5), [0.0, 1.0], count=5)
        assert rep.samples
        for s in rep.samples:
            assert abs(s.lam) < 1e-12
            for a, b in zip(s.x, s.z):
                assert abs(a - b) < 1e-12

    def test_residuals_small(self):
        rep = sample_front(WAVE, LevelSet(CUSP, Fraction(1), 5), [0.1, 0.5], count=10)
        for s in rep.samples:
            assert s.residual_root < 1e-10
            assert s.residual_level < 1e-10


class TestEvalFront:
    def test_vacuous(self):
        ring = ("x1", "x2", "t")
        rep = eval_front_on_samples(MultiPoly.constant(ring, 1), [], Fraction(1))
        assert (rep.max_scaled_residual, rep.count) == (0.0, 0)

    def test_corrupted_detected(self):
        ring = ("x1", "x2", "t")
        one = MultiPoly.constant(ring, 1)
        rep_rays = sample_front(WAVE, LevelSet(CUSP, Fraction(1), 5), [0.5], count=5)
        rep = eval_front_on_samples(one, rep_rays.samples, Fraction(1))
        assert rep.max_scaled_residual > 0.5

    def test_a_nan_residual_is_the_worst(self):
        # max() passes over a NaN that does not come first; the NaN sample
        # must make the maximum NaN, so no tolerance passes it
        ring = ("x1", "x2", "t")
        phi = MultiPoly.variable(ring, "x1") - MultiPoly.constant(ring, 2)
        samples = [
            RaySample((0.0, 0.0), 0, 0.5, (x, 0.0), 0.0, 0.0, 0.0) for x in (1.0, nan, 5.0)
        ]
        for order in (samples, samples[::-1]):
            rep = eval_front_on_samples(phi, order, Fraction(1))
            assert isnan(rep.max_scaled_residual) and rep.count == 3
        rep = eval_front_on_samples(phi, samples[::2], Fraction(1))
        assert (rep.max_scaled_residual, rep.count) == (1 / 3, 2)

    def test_residuals_match_eval_float_bit_for_bit(self):
        # the coefficients are converted once; each residual must still be
        # the per-point formula on eval_float, to the last bit
        ring = ("x1", "x2", "t")
        rng = random.Random(4)
        terms = {}
        for _ in range(30):
            e = tuple(rng.randint(0, 4) for _ in ring)
            terms[e] = Fraction(rng.randint(-99, 99), rng.randint(1, 7))
        p = MultiPoly(ring, terms)
        points = [{v: rng.uniform(-3, 3) for v in ring} for _ in range(20)]
        norm = float(sum(abs(c) for c in p.terms.values()))
        expected = []
        for pt in points:
            mag = max([1.0] + [abs(x) for x in pt.values()])
            expected.append(abs(p.eval_float(pt)) / (norm * mag ** p.total_degree()))
        assert scaled_residuals(p, points) == expected
        assert scaled_residuals(MultiPoly.zero(ring), points[:3]) == [0.0] * 3

    @pytest.mark.parametrize("used", [("x1", "x2", "t", "s"), ("x1", "t", "s"), ()], ids=len)
    def test_power_tables_match_the_per_term_formula(self, used):
        # symbolic s makes a 4-variable ring; an unused variable has only
        # exponent 0, and no used variable leaves a constant; the points
        # include zeros, a negative zero and negative coordinates
        ring = ("x1", "x2", "t", "s")
        rng = random.Random(len(used))
        terms = {}
        for _ in range(40):
            e = tuple(rng.randint(0, 7) if v in used else 0 for v in ring)
            terms[e] = Fraction(rng.randint(-999, 999), rng.randint(1, 97))
        p = MultiPoly(ring, terms)
        points = [{v: rng.uniform(-2.5, 2.5) for v in ring} for _ in range(30)]
        points += [
            dict.fromkeys(ring, 0.0),
            dict.fromkeys(ring, -0.0),
            {"x1": -1.0, "x2": 0.0, "t": -2.0, "s": -0.5},
            {"x1": 0.0, "x2": -3.0, "t": 0.0, "s": 1.0},
        ]
        assert scaled_residuals(p, points) == _per_term_residuals(p, points)
        assert scaled_residuals(MultiPoly.zero(ring), points) == [0.0] * len(points)

    def test_a_norm_past_the_float_range_is_scaled_exactly(self):
        # p times 2^3000 has a norm past the float range; one exact power of
        # two brings it back, so the residuals are p's to the last bit, and
        # p times 10^400 gives them to rounding
        ring = ("x1", "x2", "t")
        rng = random.Random(6)
        terms = {}
        for _ in range(30):
            e = tuple(rng.randint(0, 4) for _ in ring)
            terms[e] = Fraction(rng.randint(-99, 99), rng.randint(1, 7))
        p = MultiPoly(ring, terms)
        points = [{v: rng.uniform(-3, 3) for v in ring} for _ in range(20)]
        residuals = scaled_residuals(p, points)
        assert min(residuals) > 0
        assert scaled_residuals(p.scale(2**3000), points) == residuals
        for big, small in zip(scaled_residuals(p.scale(10**400), points), residuals):
            assert big == pytest.approx(small, rel=1e-12)

    def test_flagship_rays_match_the_per_term_formula(self, wave_cusp_front):
        # the 240 ray samples of ``lerayfront all`` on the flagship (seed 1)
        phi = wave_cusp_front.phi
        level = LevelSet(CUSP, Fraction(1), 1)
        rays = sample_front(WAVE, level, [0.1, 0.5, 1.0], count=40)
        assert len(rays.samples) == 240
        points = [{"x1": smp.x[0], "x2": smp.x[1], "t": smp.t} for smp in rays.samples]
        residuals = scaled_residuals(phi, points)
        assert residuals == _per_term_residuals(phi, points)
        rep = eval_front_on_samples(phi, rays.samples, Fraction(1))
        assert rep.max_scaled_residual == max(residuals) < 1e-6


def _per_term_residuals(p, points):
    """scaled_residuals by one prod(map(pow, ...)) per term and point."""
    norm = float(sum(abs(c) for c in p.terms.values()))
    if norm == 0.0:
        return [0.0] * len(points)
    terms = [(e, float(c)) for e, c in p.terms.items()]
    out = []
    for values in points:
        vals = [float(values[v]) for v in p.ring]
        mag = max([1.0] + [abs(float(v)) for v in values.values()])
        value = fsum(prod(map(pow, vals, e), start=c) for e, c in terms)
        out.append(abs(value) / (norm * mag ** p.total_degree()))
    return out