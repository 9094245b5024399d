"""flatness_check against the curvature formed directly in Fractions.

The reference below is the direct formula: A_l = (-1)^l L_V P^(l) M^{-1},
its derivatives d_k A_l, and C_kl = d_k A_l - d_l A_k + [A_l, A_k] built
from RationalMatrix products at each point.  It draws points, skips
singular ones and words its failures as flatness_check does, so the two
must agree on every outcome, not only on flat systems.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from lerayfront.brieskorn import GMMatrices
from lerayfront.errors import (
    CurvatureNonzeroError,
    DegenerateSystemError,
    LerayfrontError,
    NoSolutionError,
)
from lerayfront.gaussmanin import assemble_system, flatness_check
from lerayfront.linalg import RationalMatrix
from lerayfront.poly import MultiPoly

from helpers import column_span_inverse


def _at(mat, point) -> RationalMatrix:
    return RationalMatrix.from_rows([[e.eval_exact(point) for e in row] for row in mat])


def _partial(mat, var):
    return [[e.partial(var) for e in row] for row in mat]


def reference_flatness_points(data, sample_points: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    mu, K = data.mu, data.K
    L = RationalMatrix.from_rows(
        [[data.l_weights[i] if i == j else 0 for j in range(mu)] for i in range(mu)]
    )
    dM = {v: _partial(data.M, v) for v in data.y_ring}
    dP = {(l, v): _partial(data.matrices[l], v) for l in range(K) for v in data.y_ring}
    points = []
    tried = 0
    while len(points) < sample_points:
        tried += 1
        if tried > 200 * sample_points:
            raise DegenerateSystemError("could not sample points off the discriminant")
        pt = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in data.y_ring}
        try:
            Minv = RationalMatrix.from_rows(column_span_inverse(_at(data.M, pt).entries))
        except NoSolutionError:
            continue
        sign = [1 if l % 2 == 0 else -1 for l in range(K)]
        P = [_at(data.matrices[l], pt) for l in range(K)]
        A = [(L * P[l] * Minv).scale(sign[l]) for l in range(K)]

        def dA(l, var):
            out = L * _at(dP[(l, var)], pt) * Minv - L * P[l] * Minv * _at(dM[var], pt) * Minv
            return out.scale(sign[l])

        for k in range(K):
            for l in range(k + 1, K):
                C = dA(l, f"y{k}") - dA(k, f"y{l}") + A[l] * A[k] - A[k] * A[l]
                if not C.is_zero():
                    raise CurvatureNonzeroError(f"curvature nonzero at {pt} for pair ({k},{l})")
        points.append(pt)
    return points


def _outcome(check, data, sample_points, seed):
    try:
        return "flat", check(data, sample_points, seed)
    except LerayfrontError as err:
        return type(err).__name__, str(err)


def _new_points(data, sample_points, seed):
    return flatness_check(data, sample_points=sample_points, seed=seed).points


def _perturbed(data, icis, rng: random.Random):
    """The system with one entry of one P^(l) changed by one random term."""
    matrices = [[row[:] for row in mat] for mat in data.matrices]
    l, i, j = rng.randrange(data.K), rng.randrange(data.mu), rng.randrange(data.mu)
    exps = tuple(rng.randint(0, 1) for _ in data.y_ring)
    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    matrices[l][i][j] = matrices[l][i][j] + MultiPoly.from_monomial(data.y_ring, exps, c)
    gm = GMMatrices(
        matrices=matrices, l_weights=data.l_weights, phi=data.phi, fbasis=data.fbasis
    )
    return assemble_system(gm, icis)


def _perturbation_outcomes(data, icis) -> set[str]:
    """The outcomes of 20 seeded one-term perturbations, each the same as the
    reference's, message included."""
    outcomes = set()
    for seed in range(20):
        bad = _perturbed(data, icis, random.Random(seed))
        expected = _outcome(reference_flatness_points, bad, 3, seed)
        assert _outcome(_new_points, bad, 3, seed) == expected
        outcomes.add(expected[0])
    return outcomes


def test_random_perturbations_of_the_quadric_pair(quadric_icis, quadric_system):
    assert _perturbation_outcomes(quadric_system[1], quadric_icis) == {
        "flat",
        "CurvatureNonzeroError",
    }


def test_random_perturbations_of_wave_parabola(wave_parabola_icis, wave_parabola_system):
    """K = 2: every one of the 20 perturbations bends the connection."""
    assert wave_parabola_system.K >= 2
    outcomes = _perturbation_outcomes(wave_parabola_system, wave_parabola_icis)
    assert outcomes == {"CurvatureNonzeroError"}


def test_zero_entries_of_l_weights(quadric_icis, quadric_system):
    """Rows where L_V vanishes drop out of the test; the other rows still count."""
    _, data = quadric_system
    outcomes = []
    for seed in range(40):
        rng = random.Random(seed)
        bad = _perturbed(data, quadric_icis, rng)
        weights = [0 if rng.random() < 0.5 else w for w in data.l_weights]
        bad = replace(bad, l_weights=weights)
        expected = _outcome(reference_flatness_points, bad, 3, seed)
        assert _outcome(_new_points, bad, 3, seed) == expected
        outcomes.append(expected[0])
    assert {"flat", "CurvatureNonzeroError"} <= set(outcomes)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_quadric_points_match(quadric_system, seed):
    _, data = quadric_system
    assert _new_points(data, 5, seed) == reference_flatness_points(data, 5, seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_wave_parabola_points_match(wave_parabola_system, seed):
    data = wave_parabola_system
    assert data.K >= 2
    assert _new_points(data, 5, seed) == reference_flatness_points(data, 5, seed)
