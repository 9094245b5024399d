import random
import time
from fractions import Fraction
from math import gcd, isnan, nan, prod
from operator import mul
from types import SimpleNamespace

import pytest

from lerayfront import detpoly
from lerayfront.detpoly import (
    _agrees_at_random_points,
    _IntegerEvaluator,
    _lower_set_size,
    _map_exponents,
    _probe_degrees,
    _probe_total_degree,
    _row_scaled_entries,
    det_bareiss,
    det_probed,
    degree_bounds,
    total_degree_bound,
)
from lerayfront.errors import MismatchError
from lerayfront.gcdtools import squarefree_part
from lerayfront.gaussmanin import discriminant
from lerayfront.phase import (
    HyperbolicSymbol,
    build_mapping,
    build_phase,
    discover_weights,
    expand_phase,
)
from lerayfront.oracle import LevelSet
from lerayfront.poly import MultiPoly, poly_substitute, pullback
from lerayfront.wavefront import (
    FrontResult,
    front_polynomial,
    front_substitution,
    t_zero_check,
)

from helpers import probed, safe_bounds, substitute

SR = ("tau", "xi1", "xi2")


def _m1_cusp_pipeline():
    R = ("x1", "x2")
    x1 = MultiPoly.variable(R, "x1")
    x2 = MultiPoly.variable(R, "x2")
    F = x1**2 + x2**3
    w = discover_weights(F)
    P = HyperbolicSymbol.from_poly(MultiPoly.variable(SR, "tau"))
    exp = expand_phase(build_phase(P, F), F, w)
    icis = build_mapping(exp, 2)
    from lerayfront.brieskorn import gm_matrices
    from lerayfront.gaussmanin import assemble_system

    gm = gm_matrices(icis)
    return F, icis, assemble_system(gm, icis)


@pytest.fixture(scope="module")
def m1_pipeline():
    return _m1_cusp_pipeline()


class TestSubstitution:
    def test_case2_bindings(self, m1_pipeline):
        F, icis, data = m1_pipeline
        ring, bindings = front_substitution(icis, Fraction(1))
        assert bindings["y1"].is_zero()
        assert bindings["y0"] == MultiPoly.constant(ring, 1)
        # couplings carry the sign normalization (m = 1 is odd)
        assert icis.sign == -1

    def test_symbolic_s(self, m1_pipeline):
        F, icis, data = m1_pipeline
        ring, bindings = front_substitution(icis, None)
        assert "s" in ring
        assert bindings["y0"] == MultiPoly.variable(ring, "s")

    def test_round_trip_on_det_first(self, m1_pipeline):
        F, icis, data = m1_pipeline
        discriminant(data)
        fr = front_polynomial(data, icis, s_value=None)
        redo = poly_substitute(data.delta_raw, fr.substitution)
        assert redo == fr.raw


def _m1_parabola_system():
    """The first-order operator tau over x1 + x2^2, power 2 (a fresh system)."""
    R = ("x1", "x2")
    F = MultiPoly.variable(R, "x1") + MultiPoly.variable(R, "x2") ** 2
    P = HyperbolicSymbol.from_poly(MultiPoly.variable(SR, "tau"))
    icis = build_mapping(expand_phase(build_phase(P, F), F, discover_weights(F)), 2)
    from lerayfront.brieskorn import gm_matrices
    from lerayfront.gaussmanin import assemble_system

    return icis, assemble_system(gm_matrices(icis), icis)


class TestFrontPolynomial:
    def test_strategies_agree(self, wave_parabola_icis, wave_parabola_system):
        # det M(y) pulled back must equal the probed grid's determinant of
        # the pulled-back M
        for icis, data in (_m1_parabola_system(), (wave_parabola_icis, wave_parabola_system)):
            discriminant(data)
            for s_value in (Fraction(1), None):
                fr = front_polynomial(data, icis, s_value=s_value)
                _, bindings = front_substitution(icis, s_value)
                assert fr.phi == poly_substitute(data.delta_raw, bindings).primitive_part()

    def test_strategy_records_the_path(
        self, wave_cusp_front, wave_parabola_icis, wave_parabola_system
    ):
        # the flagship's 15 x 15 matrix peels to an 11 x 11 core whose t
        # exponents are all even; its determinant is even in x1 and divisible
        # by t^6 (of the compressed t), so the box is 15 x 27 x 16 = 6,480
        # points, and its total degree 42 (of 64 safe) leaves 1,487 of them.
        # m1/parabola (mu = 1) peels to nothing and wave/parabola (mu = 3)
        # peels nothing
        assert wave_cusp_front.strategy == {
            "engine": "probed grid",
            "size": 15,
            "peeled": 4,
            "core": 11,
            "parity": [1, 1, 2],
            "safe_bounds": [48, 64, 29],
            "safe_total_degree": 64,
            "probed_bounds": [28, 26, 21],
            "probed_valuations": [0, 0, 6],
            "probed_steps": [2, 1, 1],
            "probed_total_degree": 42,
            "grid_points": 1487,
            "fallback": False,
        }
        icis, data = _m1_parabola_system()
        fr = front_polynomial(data, icis, s_value=Fraction(1))
        assert fr.strategy == {"engine": "probed grid", "size": 1, "peeled": 1, "core": 0}
        fr = front_polynomial(wave_parabola_system, wave_parabola_icis, s_value=Fraction(1))
        assert fr.strategy == {
            "engine": "probed grid",
            "size": 3,
            "peeled": 0,
            "core": 3,
            "parity": [1, 1, 2],
            "safe_bounds": [7, 12, 5],
            "safe_total_degree": 12,
            "probed_bounds": [4, 6, 5],
            "probed_valuations": [0, 0, 2],
            "probed_steps": [1, 2, 1],
            "probed_total_degree": 10,
            "grid_points": 28,
            "fallback": False,
        }

    def test_m1_cusp_skips_the_total_degree_probe(self, m1_pipeline):
        # the 5 x 5 core's box under the safe total degree 17 has 23 of its
        # 24 points, fewer than the 36 determinants two curves would take
        F, icis, data = m1_pipeline
        fr = front_polynomial(data, icis, s_value=Fraction(1))
        assert fr.strategy == {
            "engine": "probed grid",
            "size": 9,
            "peeled": 4,
            "core": 5,
            "parity": [1, 1, 1],
            "safe_bounds": [12, 17, 0],
            "safe_total_degree": 17,
            "probed_bounds": [10, 9, 0],
            "probed_valuations": [0, 0, 0],
            "probed_steps": [2, 3, 1],
            "probed_total_degree": None,
            "grid_points": 23,
            "fallback": False,
        }

    def test_leaves_the_discriminant_alone(self):
        icis, data = _m1_parabola_system()
        assert data.mu <= 6
        front_polynomial(data, icis, s_value=Fraction(1))
        assert data.delta is None and data.delta_raw is None

    def test_normalization_idempotent(self, m1_pipeline):
        F, icis, data = m1_pipeline
        fr = front_polynomial(data, icis, s_value=Fraction(1))
        assert fr.phi.primitive_part() == fr.phi
        assert fr.phi.leading()[1] > 0

    def test_squarefree_divides(self, m1_pipeline):
        F, icis, data = m1_pipeline
        fr = front_polynomial(data, icis, s_value=Fraction(1))
        if fr.squarefree is not None:
            q = fr.phi.exact_div(fr.squarefree)
            assert q is not None

    def test_monomial_content_in_metadata(self, m1_pipeline):
        F, icis, data = m1_pipeline
        fr = front_polynomial(data, icis, s_value=Fraction(1))
        assert fr.metadata["monomial_content"] == {}

    def test_front_vanishes_on_level_set_all_t(self, m1_pipeline):
        # m = 1: rays do not move, the front is the level set for every t
        F, icis, data = m1_pipeline
        fr = front_polynomial(data, icis, s_value=Fraction(1))
        rep0 = t_zero_check(fr, LevelSet(F, Fraction(1), 3), samples=25)
        assert rep0.count > 0
        assert rep0.max_scaled_residual < 1e-9

    def test_smoke_k1_delta(self, cusp_system, cusp_icis):
        # degenerate smoke test: delta = 36 y0^2 pulled back along y0 -> s
        _, data = cusp_system
        if data.delta is None:
            discriminant(data)
        ring = ("s",)
        s = MultiPoly.variable(ring, "s")
        out = poly_substitute(data.delta_raw, {"y0": s})
        assert out == (s * s).scale(36)
        assert out.primitive_part() == s * s


class TestM1CuspDiscriminantSquarefree:
    """det M on m1/cusp is y0^4 * rest, and its rest is proven squarefree."""

    def test_squarefree_part_is_y0_times_rest(self, m1_pipeline):
        F, icis, data = m1_pipeline
        delta = discriminant(data)
        t0 = time.time()
        sf = squarefree_part(delta)
        assert time.time() - t0 < 5.0
        y0 = MultiPoly.variable(delta.ring, "y0")
        assert sf.degree_in("y0") == delta.degree_in("y0") - 3
        assert (sf * y0**3).primitive_part() == delta


class TestCase1EndToEnd:
    def test_parabola_front_is_level_set(self):
        # Case 1 (constant phase term): for a first-order operator the front
        # never moves, and the pulled-back discriminant is a power of the
        # defining equation of the level set.
        from lerayfront.brieskorn import gm_matrices
        from lerayfront.gaussmanin import assemble_system

        R = ("x1", "x2")
        x1 = MultiPoly.variable(R, "x1")
        x2 = MultiPoly.variable(R, "x2")
        F = x1 + x2**2
        w = discover_weights(F)
        P = HyperbolicSymbol.from_poly(MultiPoly.variable(SR, "tau"))
        exp = expand_phase(build_phase(P, F), F, w)
        assert exp.case == "case1"
        icis = build_mapping(exp, 3)
        gm = gm_matrices(icis)
        data = assemble_system(gm, icis)
        fr = front_polynomial(data, icis, s_value=None)
        ring = fr.phi.ring
        level = (
            MultiPoly.variable(ring, "x2") ** 2
            + MultiPoly.variable(ring, "x1")
            - MultiPoly.variable(ring, "s")
        )
        assert fr.phi == level * level
        # a square is not proven squarefree: no squarefree part
        assert fr.squarefree is None
        assert fr.metadata["squarefree"] == "skipped: not proven squarefree"


def _exponent_structure(det):
    """Per-variable degree, valuation and exponent step (gcd of exponent - valuation, or 1)."""
    degrees, valuations, steps = [], [], []
    for i in range(len(det.ring)):
        exps = {e[i] for e in det.terms}
        degrees.append(max(exps))
        valuations.append(min(exps))
        steps.append(gcd(*(e - valuations[-1] for e in exps)) or 1)
    return degrees, valuations, steps


def _random_matrix(rng, ring, n, step=1):
    """n x n entries with up to 3 terms, exponents multiples of ``step``,
    and coefficients with denominators up to 5."""
    return [
        [
            MultiPoly(
                ring,
                {
                    tuple(step * rng.randint(0, 2) for _ in ring): Fraction(
                        rng.randint(-6, 6), rng.randint(1, 5)
                    )
                    for _ in range(rng.randint(1, 3))
                },
            )
            for _ in range(n)
        ]
        for _ in range(n)
    ]


class TestProbedInterpolation:
    @pytest.mark.parametrize("ring", [(), ("y",), ("a", "b", "c")], ids=len)
    def test_matches_bareiss(self, ring):
        rng = random.Random(len(ring))
        for seed in range(2):
            M = _random_matrix(rng, ring, 4)
            assert probed(M, seed=seed)[0] == det_bareiss(M)

    def test_probes_find_the_degrees(self):
        ring = ("a", "b", "c")
        M = _random_matrix(random.Random(9), ring, 4)
        rows, scales = _row_scaled_entries(M)
        found = _probe_degrees(rows, scales, random.Random(0), degree_bounds(rows, len(ring)))
        assert found == _exponent_structure(det_bareiss(M))
        top = _probe_total_degree(
            rows, scales, random.Random(0), [1, 1, 1], total_degree_bound(rows)
        )
        assert top == det_bareiss(M).total_degree()

    def test_probes_find_the_valuation_and_the_step(self):
        # entries a^((i + j) % 2) * q_ij(a^2, b, c): every permutation takes
        # an even number of odd entries, so det M is even in a although the
        # entries' exponents of a have gcd 1; row 0 times b^3 puts b^3 in det M
        ring = ("a", "b", "c")
        a, b = MultiPoly.variable(ring, "a"), MultiPoly.variable(ring, "b")
        M = _random_matrix(random.Random(25), ring, 4)
        M = [
            [
                a ** ((i + j) % 2) * MultiPoly(ring, _map_exponents(p.terms, mul, [2, 1, 1]))
                for j, p in enumerate(row)
            ]
            for i, row in enumerate(M)
        ]
        M[0] = [b**3 * p for p in M[0]]
        det, record = probed(M, seed=5)
        assert record["parity"] == [1, 1, 1]
        degrees, valuations, steps = _exponent_structure(det_bareiss(M))
        assert (valuations, steps) == ([0, 3, 0], [2, 1, 1])
        assert (record["probed_bounds"], record["probed_valuations"], record["probed_steps"]) == (
            degrees,
            valuations,
            steps,
        )
        assert record["grid_points"] < (degrees[0] + 1) * (degrees[1] + 1) * (degrees[2] + 1)
        assert record["fallback"] is False
        assert det == det_bareiss(M)

    def test_single_entry_row_is_peeled(self):
        ring = ("a", "b", "c")
        M = _random_matrix(random.Random(7), ring, 4)
        zero = MultiPoly.zero(ring)
        M[1] = [zero, zero, MultiPoly.variable(ring, "b") + MultiPoly.constant(ring, 1), zero]
        det, record = probed(M, seed=3)
        assert (record["peeled"], record["core"]) == (1, 3)
        assert det == det_bareiss(M)

    def test_core_rows_are_scaled_as_the_core_alone(self, monkeypatch):
        # row 0 has one nonzero entry, so column 2 is peeled with it; b / 5
        # there is row 1's only denominator, so the pulled-back row 1 is 5
        # times the integers of the core's own row scaling until det_probed
        # divides it again
        ring = ("a", "b")
        a, b = (MultiPoly.variable(ring, v) for v in ring)
        one = MultiPoly.constant(ring, 1)
        M = [
            [MultiPoly.zero(ring), MultiPoly.zero(ring), a + one],
            [a * 2 + b * 3, a * b, b.scale(Fraction(1, 5))],
            [a - one.scale(Fraction(1, 3)), b * b, a],
        ]
        bindings = {"a": a, "b": b}
        rows, scales = pullback(*_row_scaled_entries(M), [a, b], ring)
        assert scales[1] == 5
        built = []
        init = detpoly._IntegerEvaluator.__init__

        def recording_init(self, mats, ring):
            built.append(mats)
            init(self, mats, ring)

        monkeypatch.setattr(detpoly._IntegerEvaluator, "__init__", recording_init)
        det, record = det_probed(rows, scales, ring, seed=1)
        assert (record["peeled"], record["core"]) == (1, 2)
        core = [[substitute(p, bindings, ring) for p in row[:2]] for row in M[1:]]
        assert built[0] == [_row_scaled_entries(core)[0]]
        assert det == det_bareiss(M)

    def test_even_exponents_are_compressed(self):
        ring = ("a", "b", "c")
        M = _random_matrix(random.Random(8), ring, 4, step=2)
        det, record = probed(M, seed=4)
        assert record["parity"] == [2, 2, 2]
        assert det == det_bareiss(M)

    def test_one_evaluator_per_core(self, monkeypatch):
        # the grid and the check points walk one evaluator of the core, and
        # the check points also evaluate the interpolant, 1 x 1; each of the
        # six probe lines and two total-degree curves pulls the core back to
        # (tau,) and walks an evaluator of its own
        built = []
        init = detpoly._IntegerEvaluator.__init__

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(detpoly._IntegerEvaluator, "__init__", counting_init)
        M = _random_matrix(random.Random(10), ("a", "b", "c"), 4)
        det, record = probed(M, seed=1)
        assert det == det_bareiss(M)
        assert record["core"] == 4 and record["fallback"] is False
        assert record["probed_total_degree"] is not None
        ring, line = ("a", "b", "c"), ("tau",)
        assert [(e.ring, e.shapes) for e in built] == (
            [(ring, [(4, 4)])] + [(line, [(4, 4)])] * (2 * 3 + 2) + [(ring, [(1, 1)])]
        )

    def _misreported(self, monkeypatch, part, shift):
        """Make the probes report part (0 degree, 1 valuation, 2 step) off by ``shift``.

        The part changed is that of the first variable with a nonzero degree.
        """
        probe = detpoly._probe_degrees

        def wrong_probe(*args):
            found = probe(*args)
            k = next(i for i, b in enumerate(found[0]) if b)
            found[part][k] += shift
            return found

        monkeypatch.setattr(detpoly, "_probe_degrees", wrong_probe)
        return _random_matrix(random.Random(11), ("a", "b", "c"), 4)

    def test_failed_check_falls_back_to_safe_bounds(self, monkeypatch):
        M = self._misreported(monkeypatch, 0, -1)
        det, record = probed(M, seed=2)
        assert record["fallback"] is True
        assert record["probed_bounds"] != record["safe_bounds"]
        assert det == det_bareiss(M)

    def test_indivisible_grid_value_falls_back_at_once(self, monkeypatch):
        # an overstated valuation leaves a grid value that prod node^v does
        # not divide: the safe grid runs, with no check point drawn (the
        # check points are the only single points taken; the probes walk
        # grids of their own)
        M = self._misreported(monkeypatch, 1, 1)
        grids, events = [], []
        interpolate = detpoly._interpolate_grid
        at = detpoly._IntegerEvaluator.at

        def recording_interpolate(*args):
            events.append("grid")
            grids.append(interpolate(*args))
            return grids[-1]

        def recording_at(self, point):
            events.append("at")
            return at(self, point)

        monkeypatch.setattr(detpoly, "_interpolate_grid", recording_interpolate)
        monkeypatch.setattr(detpoly._IntegerEvaluator, "at", recording_at)
        det, record = probed(M, seed=2)
        assert record["probed_valuations"] != [0, 0, 0]
        assert (record["fallback"], grids[0]) == (True, None)
        assert events[events.index("grid") :] == ["grid", "grid"]
        assert det == det_bareiss(M)

    def test_under_reported_total_degree_falls_back(self, monkeypatch):
        # one total degree too few drops the top terms from the lower set:
        # the interpolant fails the check and the safe lower set runs
        probe = detpoly._probe_total_degree
        monkeypatch.setattr(detpoly, "_probe_total_degree", lambda *args: probe(*args) - 1)
        M = _random_matrix(random.Random(11), ("a", "b", "c"), 4)
        det, record = probed(M, seed=2)
        assert record["probed_total_degree"] == det_bareiss(M).total_degree() - 1
        assert record["fallback"] is True
        assert det == det_bareiss(M)

    def test_overstated_step_falls_back(self, monkeypatch):
        M = self._misreported(monkeypatch, 2, 1)
        det, record = probed(M, seed=2)
        assert record["probed_steps"] != [1, 1, 1]
        assert record["fallback"] is True
        assert det == det_bareiss(M)

    def test_fallback_over_the_grid_cap_is_a_mismatch(self, monkeypatch):
        M = self._misreported(monkeypatch, 0, -1)
        bounds, top = safe_bounds(M)
        safe_points = _lower_set_size([b + 1 for b in bounds], [1, 1, 1], top)
        monkeypatch.setattr(detpoly, "GRID_MAX_POINTS", safe_points - 1)
        with pytest.raises(MismatchError, match="safe bounds exceed the grid cap"):
            probed(M, seed=2)


def _grid_vanishing(ring, den, var, nodes, power, cofactor):
    """den * cofactor * prod_k (x^power - k^power) over the nodes k of x = ``var``,
    as integer terms: zero wherever x is a grid node."""
    x = MultiPoly.variable(ring, var) ** power
    factors = (x - MultiPoly.constant(ring, k**power) for k in nodes)
    return {e: int(c) for e, c in prod(factors, start=cofactor.scale(den)).terms.items()}


def _plus(terms, extra):
    out = dict(terms)
    for e, c in extra.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


class TestCheckPoints:
    """det_probed's exact check of the interpolant at four random points.

    An interpolant that is wrong by a multiple of prod (x - node) agrees with
    det on every grid point; only the check points can see it.  Coordinates
    drawn from -7..7 over 1..3 hit the nodes often enough that such an
    interpolant passed on about one seed in six on the flagship.
    """

    def test_grid_vanishing_interpolant_is_rejected_on_a_small_core(self):
        ring = ("a", "b", "c")
        M = _random_matrix(random.Random(10), ring, 4)
        rows, scales = _row_scaled_entries(M)
        evaluator = _IntegerEvaluator([rows], ring)
        det = det_bareiss(M).scale(prod(scales))
        terms = {e: int(c) for e, c in det.terms.items()}
        b = MultiPoly.variable(ring, "b")
        wrong = _plus(terms, _grid_vanishing(ring, 1, "a", range(det.degree_in("a") + 1), 1, b))
        assert _agrees_at_random_points(evaluator, 4, terms, 1, random.Random(0))
        accepted = [
            seed
            for seed in range(500)
            if _agrees_at_random_points(evaluator, 4, wrong, 1, random.Random(seed))
        ]
        assert accepted == []

    def test_grid_vanishing_interpolant_is_rejected_on_the_flagship(self, wave_cusp_probed):
        # the flagship core's grid takes x1 = 0..14 (exponents 0, 2, ..., 28)
        # and keeps t^6 of the compressed t; the seeds are those on which the
        # -7..7 / 1..3 draws accepted this interpolant
        front, (evaluator, size, terms, den) = wave_cusp_probed
        assert front.strategy["probed_bounds"][0] == 28
        assert front.strategy["probed_steps"][0] == 2
        ring = evaluator.ring
        t = MultiPoly.variable(ring, "t")
        wrong = _plus(terms, _grid_vanishing(ring, den, "x1", range(15), 2, t**6))
        assert _agrees_at_random_points(evaluator, size, terms, den, random.Random(0))
        for seed in (0, 5, 8, 10, 11, 24, 28, 37, 46, 50, 56, 63, 67, 86, 89, 97):
            assert not _agrees_at_random_points(evaluator, size, wrong, den, random.Random(seed))

    @pytest.mark.parametrize(
        "power, cofactor",
        [
            (2, 5),  # wrong valuation: t^5 instead of t^6
            (1, 6),  # wrong step: odd powers of x1, prod (x1 - k) over the nodes
        ],
    )
    def test_wrong_valuation_and_step_interpolants_are_rejected_on_the_flagship(
        self, wave_cusp_probed, power, cofactor
    ):
        # both vanish on the grid's x1 = 0..14 like the interpolant above,
        # with terms the grid's exponents never give: t^5 is below the
        # probed t valuation 6, odd powers of x1 are off its probed step 2
        front, (evaluator, size, terms, den) = wave_cusp_probed
        assert front.strategy["probed_valuations"][2] == 6
        assert front.strategy["probed_steps"][0] == 2
        ring = evaluator.ring
        t = MultiPoly.variable(ring, "t")
        wrong = _plus(terms, _grid_vanishing(ring, den, "x1", range(15), power, t**cofactor))
        for seed in (0, 5, 8, 10, 11, 24, 28, 37, 46, 50, 56, 63, 67, 86, 89, 97):
            assert not _agrees_at_random_points(evaluator, size, wrong, den, random.Random(seed))


class TestTZero:
    def test_no_real_points(self, m1_pipeline):
        F, icis, data = m1_pipeline
        fr = front_polynomial(data, icis, s_value=Fraction(-1))
        rep = t_zero_check(fr, LevelSet(F, Fraction(-10**6), 3), samples=10)
        assert rep.count == 0 and isnan(rep.max_scaled_residual)

    def test_corrupted_front_fails(self, m1_pipeline):
        F, icis, data = m1_pipeline
        ring = ("x1", "x2", "t")
        bogus = FrontResult(
            phi=MultiPoly.constant(ring, 1),
            raw=MultiPoly.constant(ring, 1),
            squarefree=None,
            case="case2",
            substitution={},
            power=2,
        )
        rep = t_zero_check(bogus, LevelSet(F, Fraction(1), 3), samples=10)
        assert rep.max_scaled_residual > 0.5

    def test_a_nan_point_fails(self, m1_pipeline):
        # a NaN residual after the first point must not drop out of the max
        F, icis, data = m1_pipeline
        fr = front_polynomial(data, icis, s_value=Fraction(1))
        good = LevelSet(F, Fraction(1), 3).take(10)
        points = good[:5] + [(nan, 0.5)] + good[5:]
        level = SimpleNamespace(s=Fraction(1), take=lambda count: points[:count])
        rep = t_zero_check(fr, level, samples=11)
        assert rep.count == 11
        assert isnan(rep.max_scaled_residual)

    def test_t_power_does_not_hide_a_wrong_front(self, m1_pipeline):
        # t^4 * (phi + 1) vanishes identically at t = 0; the check must read
        # the rest phi + 1, which is 1 on the level set
        F, icis, data = m1_pipeline
        fr = front_polynomial(data, icis, s_value=Fraction(1))
        ring = fr.phi.ring
        t = MultiPoly.variable(ring, "t")
        bogus = FrontResult(
            phi=t**4 * (fr.phi + MultiPoly.constant(ring, 1)),
            raw=fr.raw,
            squarefree=None,
            case=fr.case,
            substitution={},
            power=2,
        )
        rep = t_zero_check(bogus, LevelSet(F, Fraction(1), 3), samples=25)
        assert rep.count == 25
        assert rep.max_scaled_residual > 1e-6
        # the true front times t^4 still passes
        fr.phi = t**4 * fr.phi
        rep = t_zero_check(fr, LevelSet(F, Fraction(1), 3), samples=25)
        assert rep.max_scaled_residual < 1e-9
