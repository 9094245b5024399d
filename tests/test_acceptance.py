"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The heavyweight pipeline objects are session fixtures shared
with the unit tests.
"""

import hashlib
import json
import time
from fractions import Fraction

import pytest

from lerayfront.brieskorn import LatticeContext, f_basis, phi_basis
from lerayfront.errors import CurvatureNonzeroError, HomogeneousOnlyError
from lerayfront.gaussmanin import (
    assemble_system,
    discriminant,
    flatness_check,
    residue_exponents_K1,
)
from lerayfront.oracle import (
    LevelSet,
    compare_discriminants,
    critical_locus_eliminant,
    eval_front_on_samples,
    sample_front,
)
from lerayfront.phase import check_c3, discover_weights
from lerayfront.poly import MultiPoly, weight
from lerayfront.wavefront import t_zero_check

from helpers import det_interpolate, reconstruct, safe_bounds


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


# The flagship phi at s = 1, as recorded in perfbench/expected.json ("wave_cusp").
WAVE_CUSP_TERMS = 1481
WAVE_CUSP_DIGEST = "2fbf252329926b9fbecb8d832edb9015991f2f158adc25e797a473ba717a7796"


# The critical-locus eliminant of wave/parabola: one generator in y0..y6.
# verify_discriminant.json records it, so its bytes follow these terms.
WAVE_PARABOLA_ELIMINANT_TERMS = 288
WAVE_PARABOLA_ELIMINANT_DIGEST = "5784c4ab644db4cc7fb0a4b1c868c3d4e2605b6789596eb337915837ddeb104d"


def digest(p) -> str:
    """sha256 over the ring, the exponents and the exact coefficients (as perfbench)."""
    terms = sorted((list(e), c.numerator, c.denominator) for e, c in p.terms.items())
    blob = json.dumps([list(p.ring), terms], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_criterion_1_weight_gate(cusp_front):
    t0 = time.time()
    w = discover_weights(cusp_front)
    assert w.weights == (3, 2) and w.total == 6
    assert check_c3(cusp_front) == 2
    ring = cusp_front.ring
    x1 = MultiPoly.variable(ring, "x1")
    x2 = MultiPoly.variable(ring, "x2")
    with pytest.raises(HomogeneousOnlyError):
        discover_weights(x1**2 + x2**2)
    el = time.time() - t0
    assert el < 1.0
    report(1, f"weights (3,2), w(F)=6, C3 dim 2, homogeneous front rejected ({el:.2f}s)")


def test_criterion_2_deformation_bound(wave_cusp_pipeline):
    t0 = time.time()
    exp = wave_cusp_pipeline["expansion"]
    psi = wave_cusp_pipeline["psi"]
    assert reconstruct(exp) == psi  # exact reconstruction
    for mono, _ in exp.deformation:
        assert weight(mono, exp.weights.weights) < 2 * 6
    assert exp.mu_prime <= 24 and exp.bound == 24
    el = time.time() - t0
    assert el < 1.0
    report(2, f"phase expansion exact, weights < 12, {exp.mu_prime} terms <= bound 24 ({el:.2f}s)")


def test_criterion_3_dimension_agreement(cusp_icis, a1_icis, a4_icis, quadric_icis):
    t0 = time.time()
    dims = {}
    for name, icis in [
        ("A1", a1_icis),
        ("cusp", cusp_icis),
        ("A4", a4_icis),
        ("quadric-pair", quadric_icis),
    ]:
        mu_phi = phi_basis(icis).mu
        mu_f = len(f_basis(icis).forms)
        assert mu_phi == mu_f, name
        dims[name] = mu_phi
    el = time.time() - t0
    assert el < 30.0
    report(3, f"dim agreement on {dims} ({el:.1f}s)")


def test_criterion_4_certificates(wave_cusp_pipeline, quadric_icis):
    t0 = time.time()
    checked = 0
    gm = wave_cusp_pipeline["gm"]
    ctx = LatticeContext(wave_cusp_pipeline["icis"], gm.phi)
    for certs in gm.certificates:
        for cert in certs:
            assert cert.verify(ctx)  # exact identity, zero tolerance
            checked += 1
    from lerayfront.brieskorn import gm_matrices

    gmq = gm_matrices(quadric_icis)
    ctxq = LatticeContext(quadric_icis, gmq.phi)
    for certs in gmq.certificates:
        for cert in certs:
            assert cert.verify(ctxq)
            checked += 1
    report(4, f"{checked} lattice certificates re-expand exactly ({time.time()-t0:.1f}s)")


def test_criterion_5_classical_exponents(cusp_system, a1_system):
    t0 = time.time()
    _, cusp_data = cusp_system
    _, a1_data = a1_system
    assert residue_exponents_K1(cusp_data) == [Fraction(-1, 6), Fraction(1, 6)]
    assert residue_exponents_K1(a1_data) == [Fraction(1, 2)]
    el = time.time() - t0
    assert el < 5.0
    report(5, f"cusp exponents -1/6, 1/6; A1 exponent 1/2 ({el:.2f}s)")


def test_criterion_6_discriminant_oracle(
    cusp_icis, cusp_system, a1_icis, a1_system, a4_icis, a4_system, quadric_icis, quadric_system
):
    t0 = time.time()
    verdicts = {}
    for name, icis, (gm, data) in [
        ("cusp", cusp_icis, cusp_system),
        ("A1", a1_icis, a1_system),
        ("A4", a4_icis, a4_system),
    ]:
        el = critical_locus_eliminant(icis)
        assert [p.pretty() for p in el] == ["y0"]
        if data.delta is None:
            discriminant(data)
        cmp = compare_discriminants(data.delta, el)
        assert cmp.verdict == "equal radicals (exact)"
        verdicts[name] = "exact"
    el_q = critical_locus_eliminant(quadric_icis)
    gm, data = quadric_system
    if data.delta is None:
        discriminant(data)
    cmp = compare_discriminants(data.delta, el_q, seed=17)
    assert cmp.verdict == "equal radicals (exact)"
    verdicts["quadric-pair"] = "exact"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(6, f"critical loci match: {verdicts} ({elapsed:.1f}s)")


def test_criterion_6_wave_parabola_eliminant(wave_parabola_icis, wave_parabola_system):
    t0 = time.time()
    el = critical_locus_eliminant(wave_parabola_icis)
    assert len(el) == 1
    assert len(el[0].terms) == WAVE_PARABOLA_ELIMINANT_TERMS
    assert digest(el[0]) == WAVE_PARABOLA_ELIMINANT_DIGEST
    data = wave_parabola_system
    if data.delta is None:
        discriminant(data)
    cmp = compare_discriminants(data.delta, el)
    assert cmp.verdict == "equal radicals (exact)"
    assert cmp.detail == (
        "monomials aside, det M / eliminant has total degree 0 and det M divides eliminant^1"
    )
    elapsed = time.time() - t0
    report(
        6,
        f"wave/parabola eliminant: {WAVE_PARABOLA_ELIMINANT_TERMS} terms and the recorded "
        f"digest, equal radicals with det M (exact) ({elapsed:.1f}s)",
    )


def test_criterion_7_flatness(quadric_system, wave_cusp_pipeline):
    t0 = time.time()
    _, dataq = quadric_system
    rep = flatness_check(dataq, sample_points=5, seed=11)
    assert len(rep.points) == 5
    data_big = wave_cusp_pipeline["data"]
    rep_big = flatness_check(data_big, sample_points=5, seed=11)
    assert len(rep_big.points) == 5
    # mutation test: a single perturbed entry of P^(1) must be detected
    from copy import deepcopy

    from lerayfront.brieskorn import GMMatrices

    gm, dataq2 = quadric_system
    bad = deepcopy(dataq2.matrices)
    bad[1][0][0] = bad[1][0][0] + MultiPoly.constant(dataq2.y_ring, 1)
    data_bad = assemble_system(
        GMMatrices(
            matrices=bad,
            l_weights=dataq2.l_weights,
            phi=dataq2.phi,
            fbasis=dataq2.fbasis,
        ),
        quadric_icis_from(dataq2),
    )
    with pytest.raises(CurvatureNonzeroError):
        flatness_check(data_bad, sample_points=3, seed=11)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(7, f"curvature zero at 5 points (K=2 and K=9); mutation detected ({elapsed:.1f}s)")


def quadric_icis_from(data):
    from lerayfront.phase import make_icis

    ring = ("u1", "u2", "u3")
    u = [MultiPoly.variable(ring, f"u{i+1}") for i in range(3)]
    return make_icis(
        [u[0] ** 2 + u[1] ** 2 + u[2] ** 2, u[0] ** 2 + 2 * u[1] ** 2 + 3 * u[2] ** 2],
        (1, 1, 1),
    )


def test_criterion_8_end_to_end(wave_cusp_pipeline, wave_cusp_front, cusp_front, wave_symbol):
    t0 = time.time()
    fr = wave_cusp_front
    # phi itself is pinned: a pullback change that moved any term fails here
    assert len(fr.phi.terms) == WAVE_CUSP_TERMS
    assert digest(fr.phi) == WAVE_CUSP_DIGEST
    # phi = t^12 * rest with the rest squarefree, so its squarefree part is t * rest
    t = MultiPoly.variable(fr.phi.ring, "t")
    assert fr.metadata["monomial_content"] == {"t": 12}
    assert fr.squarefree * t**11 == fr.phi
    # (a) phi / t^12 vanishes at t = 0 on 50 sampled points of the level set
    rep_a = t_zero_check(fr, LevelSet(cusp_front, Fraction(1), 3), samples=50)
    assert rep_a.count == 50
    assert rep_a.max_scaled_residual < 1e-9
    # (b) phi on >= 100 ray samples across t in {0.1, 0.5, 1.0}
    rays = sample_front(
        wave_symbol, LevelSet(cusp_front, Fraction(1), 5), t_values=[0.1, 0.5, 1.0], count=20
    )
    assert len(rays.samples) >= 100
    rep_b = eval_front_on_samples(fr.phi, rays.samples, Fraction(1))
    assert rep_b.max_scaled_residual < 1e-6
    # (c) the hand ray from z = (1, 0): x = (1 +/- t, 0) lies on the front
    for tv in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
        for sgn in (1, -1):
            val = fr.phi.eval_exact(
                {"x1": 1 + sgn * tv, "x2": Fraction(0), "t": tv}
            )
            assert val == 0
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(
        8,
        f"end-to-end front: phi has {WAVE_CUSP_TERMS} terms and the recorded digest; "
        "t=0 residual "
        f"{rep_a.max_scaled_residual:.1e} < 1e-9 on 50 pts; ray residual "
        f"{rep_b.max_scaled_residual:.1e} < 1e-6 on {rep_b.count} samples; "
        f"x=(1+/-t,0) exact zeros ({elapsed:.1f}s)",
    )


def test_criterion_9_determinism(cusp_system, a1_system, a4_system, quadric_system, tmp_path):
    t0 = time.time()
    from lerayfront.detpoly import det_poly_matrix

    for _, data in (cusp_system, a1_system, a4_system, quadric_system):
        d1 = det_poly_matrix(data.M)
        d2 = det_interpolate(data.M, safe_bounds(data.M)[0])
        assert d1 == d2
    # byte-identical artifacts for identical spec and seeds
    from lerayfront.cli import main

    spec = tmp_path / "m1.json"
    spec.write_text(
        json.dumps(
            {
                "operator": "tau",
                "front": "x1^2 + x2^3",
                "options": {"powerP": 2, "s": "1", "seed": 1, "irreducible": True},
            }
        )
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["all", "--spec", str(spec), "--out", str(out1)]) == 0
    assert main(["all", "--spec", str(spec), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    elapsed = time.time() - t0
    report(9, f"strategies agree on 4 systems; {len(names)} artifacts byte-identical ({elapsed:.1f}s)")
