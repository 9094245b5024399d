import dataclasses
import importlib.util
import random
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

import pytest

from lerayfront.brieskorn import GMMatrices, PhiBasis, FBasis, gm_matrices
from lerayfront.detpoly import _IntegerEvaluator, _integer_entries
from lerayfront.errors import (
    CurvatureNonzeroError,
    DegenerateSystemError,
    NotApplicableError,
)
from lerayfront.gaussmanin import (
    assemble_system,
    discriminant,
    flatness_check,
    residue_exponents_K1,
)
from lerayfront.phase import make_icis
from lerayfront.poly import MultiPoly

from helpers import det_interpolate, safe_bounds

_spec = importlib.util.spec_from_file_location(
    "classical_exponents",
    Path(__file__).resolve().parent.parent / "scripts" / "classical_exponents.py",
)
classical_exponents = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(classical_exponents)


# flatness_check(flagship, 3, seed) for seeds 1-3, each point as y0..y8;
# taken from the implementation with a Fraction inverse of M
FLAGSHIP_FLATNESS_POINTS = {
    1: [
        ["-5", "-1", "3/2", "3/2", "-3", "6", "3/4", "-9/4", "-1/2"],
        ["9", "1", "-9", "8", "3/2", "4", "7/2", "5/4", "4"],
        ["1", "-1/2", "0", "4", "-4/3", "-2", "7/4", "7/2", "0"],
    ],
    2: [
        ["-8", "-7/3", "-4/3", "-1/2", "-4", "1", "7/3", "2", "7/3"],
        ["-8", "1/2", "1/4", "2", "4", "-1", "-9/2", "1/2", "-5/3"],
        ["7/2", "5/4", "7/3", "3", "1/2", "-1", "5/2", "2", "2"],
    ],
    3: [
        ["-1", "1/2", "9", "-9/4", "-1/2", "-3/4", "2", "3/2", "-1"],
        ["7/4", "-9", "-4", "0", "-1/4", "3/4", "3/4", "-5/3", "-6"],
        ["-5/4", "-1", "4/3", "1", "3", "2", "9/2", "1", "-1/2"],
    ],
}
FLAGSHIP_MUTATION_MESSAGE = (
    "curvature nonzero at {'y0': Fraction(5, 4), 'y1': Fraction(5, 2), "
    "'y2': Fraction(-1, 1), 'y3': Fraction(-4, 1), 'y4': Fraction(5, 3), "
    "'y5': Fraction(-5, 1), 'y6': Fraction(8, 1), 'y7': Fraction(3, 4), "
    "'y8': Fraction(-4, 1)} for pair (0,1)"
)


class TestAssemble:
    def test_cusp_m_matrix(self, cusp_system):
        _, data = cusp_system
        y = data.y_ring
        y0 = MultiPoly.variable(y, "y0")
        assert data.M[0][0] == y0.scale(6)
        assert data.M[1][1] == y0.scale(6)
        assert data.M[0][1].is_zero() and data.M[1][0].is_zero()

    def test_alternating_sign(self, cusp_icis):
        # K = 2 with P0 = P1 = I and p = (2, 2) gives M = 2 y0 I - 2 y1 I
        from lerayfront.phase import IcisMap

        ring = ("u1", "u2", "u3")
        fake = IcisMap(
            K=2,
            N=1,
            ring=ring,
            components=[MultiPoly.variable(ring, "u1"), MultiPoly.variable(ring, "u2")],
            var_weights=(1, 1, 1),
            comp_weights=(2, 2),
        )
        y = fake.y_names()
        one = MultiPoly.constant(y, 1)
        zero = MultiPoly.zero(y)
        eye = [[one, zero], [zero, one]]
        gm = GMMatrices(
            matrices=[eye, eye],
            l_weights=[2, 2],
            phi=PhiBasis(monomials=[], mu=2, weights=[2, 2]),
            fbasis=FBasis(forms=[], weights=[2, 2]),
        )
        gm.phi.monomials = []
        data = assemble_system(gm, fake)
        y0 = MultiPoly.variable(y, "y0")
        y1 = MultiPoly.variable(y, "y1")
        assert data.M[0][0] == y0.scale(2) - y1.scale(2)
        assert data.M[0][1].is_zero()

    def test_all_zero_flagged_degenerate(self, cusp_icis):
        from lerayfront.phase import IcisMap

        y = cusp_icis.y_names()
        zero = MultiPoly.zero(y)
        gm = GMMatrices(
            matrices=[[[zero, zero], [zero, zero]]],
            l_weights=[5, 7],
            phi=PhiBasis(monomials=[], mu=2, weights=[5, 7]),
            fbasis=FBasis(forms=[], weights=[5, 7]),
        )
        data = assemble_system(gm, cusp_icis)
        with pytest.raises(DegenerateSystemError):
            discriminant(data)


class TestDiscriminant:
    def test_cusp(self, cusp_system):
        _, data = cusp_system
        delta = discriminant(data)
        y0 = MultiPoly.variable(data.y_ring, "y0")
        assert delta == y0 * y0
        assert data.delta_raw == (y0 * y0).scale(36)

    def test_a1(self, a1_system):
        _, data = a1_system
        delta = discriminant(data)
        y0 = MultiPoly.variable(data.y_ring, "y0")
        assert delta == y0
        assert data.delta_raw == y0.scale(2)

    def test_forced_weight(self, quadric_system):
        _, data = quadric_system
        delta = discriminant(data)
        forced = data.delta_forced_weight()
        for e in delta.terms:
            assert 2 * (e[0] + e[1]) == forced

    def test_vanishes_at_origin(self, cusp_system, a4_system, quadric_system):
        for _, data in (cusp_system, a4_system, quadric_system):
            if data.delta is None:
                discriminant(data)
            zero = {v: Fraction(0) for v in data.y_ring}
            assert data.delta.eval_exact(zero) == 0

    def test_strategies_agree(self, quadric_system):
        _, data = quadric_system
        d1 = discriminant(data)
        raw = det_interpolate(data.M, safe_bounds(data.M)[0])
        assert data.delta_raw == raw
        assert d1 == raw.primitive_part()


class TestExponents:
    def test_cusp(self, cusp_system):
        _, data = cusp_system
        assert residue_exponents_K1(data) == [Fraction(-1, 6), Fraction(1, 6)]

    def test_a1(self, a1_system):
        _, data = a1_system
        assert residue_exponents_K1(data) == [Fraction(1, 2)]

    def test_deterministic(self, cusp_system):
        _, data = cusp_system
        assert residue_exponents_K1(data) == residue_exponents_K1(data)

    def test_not_applicable_for_k2(self, quadric_system):
        _, data = quadric_system
        with pytest.raises(NotApplicableError):
            residue_exponents_K1(data)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_a_k_closed_form(self, k):
        # the check of scripts/classical_exponents.py: j/(k+1) - 1/2 for j = 1..k
        icis = classical_exponents.a_k(k)
        data = assemble_system(gm_matrices(icis), icis)
        assert data.mu == k
        expected = sorted(Fraction(j, k + 1) - Fraction(1, 2) for j in range(1, k + 1))
        assert residue_exponents_K1(data) == expected

    def test_singular_p0(self, cusp_system):
        _, data = cusp_system
        (row0, row1), = data.matrices
        zero = MultiPoly.zero(data.y_ring)
        singular = dataclasses.replace(data, matrices=[[[zero] * len(row0), row1]])
        with pytest.raises(NotApplicableError, match="singular"):
            residue_exponents_K1(singular)

    def test_irrational_exponents(self, cusp_system):
        # B = (L P0 - 6 I)(6 P0)^-1 for P0 = [[1, 1], [1, 2]] has irrational eigenvalues
        _, data = cusp_system
        P0 = [[MultiPoly.constant(data.y_ring, c) for c in row] for row in ([1, 1], [1, 2])]
        with pytest.raises(NotApplicableError, match="non-rational"):
            residue_exponents_K1(dataclasses.replace(data, matrices=[P0]))

    def test_unpredicted_rational_root(self, cusp_system):
        # P0 = diag(2, 1) makes B = diag(1/3, 1/6): 1/3 is rational but not a
        # predicted (l_i - p0) / p0, which for l = (5, 7) and p0 = 6 are -1/6, 1/6
        _, data = cusp_system
        P0 = [[MultiPoly.constant(data.y_ring, c) for c in row] for row in ([2, 0], [0, 1])]
        with pytest.raises(NotApplicableError, match="non-rational"):
            residue_exponents_K1(dataclasses.replace(data, matrices=[P0]))

    def test_double_root(self):
        # u1^3 + u2^3 with weights (1, 1): l = (2, 3, 3, 4) over p0 = 3, and 0
        # is a double root of the pencil determinant
        u1, u2 = (MultiPoly.variable(("u1", "u2"), v) for v in ("u1", "u2"))
        icis = make_icis([u1**3 + u2**3], (1, 1))
        data = assemble_system(gm_matrices(icis), icis)
        assert sorted(data.l_weights) == [2, 3, 3, 4]
        assert residue_exponents_K1(data) == [Fraction(-1, 3), 0, 0, Fraction(1, 3)]

    def test_script_reports_a_pencil_that_does_not_factor(self, monkeypatch, capsys):
        # 2 P(0) moves every root of the pencil off the predicted exponents
        def doubled(gm, icis):
            data = assemble_system(gm, icis)
            P0 = [[e.scale(2) for e in row] for row in data.matrices[0]]
            return dataclasses.replace(data, matrices=[P0])

        monkeypatch.setattr(classical_exponents, "assemble_system", doubled)
        assert classical_exponents.main() == 1
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 6 and all(row.endswith("MISMATCH") for row in rows)


class TestFlatness:
    def test_k1_vacuous(self, cusp_system):
        _, data = cusp_system
        assert flatness_check(data).vacuous

    def test_quadric_flat(self, quadric_system):
        _, data = quadric_system
        rep = flatness_check(data, sample_points=5, seed=11)
        assert not rep.vacuous
        assert len(rep.points) == 5

    def test_mutation_detected(self, quadric_icis):
        from copy import deepcopy

        from lerayfront.brieskorn import gm_matrices

        gm = gm_matrices(quadric_icis)
        data = assemble_system(gm, quadric_icis)
        # corrupt one entry of P^(1)
        bad = deepcopy(data.matrices)
        one = MultiPoly.constant(data.y_ring, 1)
        bad[1][0][0] = bad[1][0][0] + one
        data_bad = assemble_system(
            GMMatrices(
                matrices=bad,
                l_weights=data.l_weights,
                phi=data.phi,
                fbasis=data.fbasis,
            ),
            quadric_icis,
        )
        with pytest.raises(CurvatureNonzeroError):
            flatness_check(data_bad, sample_points=3, seed=11)

    def test_sample_points_must_be_positive(self, quadric_system):
        _, data = quadric_system
        for bad in (0, -1):
            with pytest.raises(ValueError):
                flatness_check(data, sample_points=bad)

    def test_mutation_detected_on_flagship(self, wave_cusp_pipeline):
        data = wave_cusp_pipeline["data"]
        assert data.K == 9
        # one changed entry of P^(3); M is assembled again from the matrices
        bad = [[row[:] for row in mat] for mat in data.matrices]
        bad[3][2][5] = bad[3][2][5] + MultiPoly.constant(data.y_ring, 1)
        data_bad = assemble_system(
            GMMatrices(
                matrices=bad,
                l_weights=data.l_weights,
                phi=data.phi,
                fbasis=data.fbasis,
            ),
            wave_cusp_pipeline["icis"],
        )
        with pytest.raises(CurvatureNonzeroError) as err:
            flatness_check(data_bad, sample_points=1, seed=11)
        assert str(err.value) == FLAGSHIP_MUTATION_MESSAGE

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_flagship_points_are_pinned(self, wave_cusp_pipeline, seed):
        data = wave_cusp_pipeline["data"]
        points = flatness_check(data, sample_points=3, seed=seed).points
        assert [[str(pt[f"y{k}"]) for k in range(data.K)] for pt in points] == (
            FLAGSHIP_FLATNESS_POINTS[seed]
        )
        assert all(list(pt) == list(data.y_ring) for pt in points)


def _zero_partials_checked(mats, ring, partials, points):
    """Assert that ``_IntegerEvaluator`` with ``partials`` gives mats and then
    d_i of each matrix for the i in its list (matrix by matrix) as
    MultiPoly.partial evaluated exactly, times the evaluator's scale; return
    how many derivative entries are the zero polynomial."""
    den = lcm(*(c.denominator for mat in mats for row in mat for p in row for c in p.terms.values()))
    evaluator = _IntegerEvaluator(_integer_entries(mats), ring, partials=partials)
    derived = [
        [[p.partial(ring[i]) for p in row] for row in mat]
        for mat, variables in zip(mats, partials)
        for i in variables
    ]
    expected = [*mats, *derived]
    assert evaluator.shapes == [(len(mat), len(mat[0])) for mat in expected]
    for pt in points:
        scale = den * prod(pt[v].denominator ** top for v, top in zip(ring, evaluator.maxdeg))
        values = evaluator.at(pt)
        assert len(values) == len(expected)
        for got, want in zip(values, expected):
            assert got == [[p.eval_exact(pt) * scale for p in row] for row in want]
    return sum(p.is_zero() for mat in derived for row in mat for p in row)


def _points(ring, seed, count):
    rng = random.Random(seed)
    return [
        {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in ring} for _ in range(count)
    ]


class TestEvaluatorPartials:
    """The flatness oracle reads d_i of M and the P^(l) off the evaluator's
    interned monomials, one list of variables per matrix; each must be
    MultiPoly.partial, evaluated exactly."""

    def test_quadric_system(self, quadric_system):
        _, data = quadric_system
        ring = data.y_ring
        mats = [data.M, *data.matrices]
        points = _points(ring, 5, 5)
        # both orders of the variables, so the derivatives' order is checked
        for variables in (range(len(ring)), range(len(ring))[::-1]):
            partials = [list(variables)] * len(mats)
            zeros = _zero_partials_checked(mats, ring, partials, points)
            assert zeros > 0

    def test_matrices_with_their_own_variables(self, quadric_system):
        """A matrix that takes no partials, and two that take different ones."""
        _, data = quadric_system
        ring = data.y_ring
        assert len(ring) == 2
        mats = [data.M, *data.matrices]
        points = _points(ring, 7, 3)
        _zero_partials_checked(mats, ring, [[], [1], [0, 1]], points)
        _zero_partials_checked(mats, ring, [[1, 0], [], [0]], points)
        _zero_partials_checked(mats, ring, [], points)

    def test_flagship_matrices(self, wave_cusp_pipeline):
        data = wave_cusp_pipeline["data"]
        ring = data.y_ring
        variables = list(range(len(ring)))
        partials = [variables] * len(data.matrices)
        zeros = _zero_partials_checked(data.matrices, ring, partials, _points(ring, 6, 1))
        assert 0 < zeros < len(ring) * len(data.matrices) * data.mu**2

    def test_flagship_flatness_takes_no_diagonal_blocks(self, wave_cusp_pipeline, monkeypatch):
        """flatness_check derives M by every y_k and P^(l) by y_k for k != l:
        K + K(K - 1) derivative blocks, not K(K + 1)."""
        from lerayfront import gaussmanin

        data = wave_cusp_pipeline["data"]
        K = data.K
        built = []

        class Recording(_IntegerEvaluator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(gaussmanin, "_IntegerEvaluator", Recording)
        flatness_check(data, sample_points=1, seed=1)
        (evaluator,) = built
        assert len(evaluator.shapes) - (K + 1) == K + K * (K - 1)
