"""Shared fixtures: small singularity maps, the full wave/cusp pipeline and
the wave/parabola mapping.

The end-to-end pipeline objects are session-scoped; they back both the unit
tests that need real data and the acceptance suite.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from lerayfront.brieskorn import f_basis, gm_matrices, phi_basis
from lerayfront.gaussmanin import assemble_system
from lerayfront.phase import (
    HyperbolicSymbol,
    build_mapping,
    build_phase,
    discover_weights,
    expand_phase,
    make_icis,
)
from lerayfront.poly import MultiPoly


def mk_vars(*names):
    ring = tuple(names)
    return [MultiPoly.variable(ring, v) for v in names]


@pytest.fixture(scope="session")
def cusp_front():
    x1, x2 = mk_vars("x1", "x2")
    return x1**2 + x2**3


@pytest.fixture(scope="session")
def wave_symbol():
    tau, xi1, xi2 = mk_vars("tau", "xi1", "xi2")
    return HyperbolicSymbol.from_poly(tau**2 - xi1**2 - xi2**2)


@pytest.fixture(scope="session")
def cusp_icis():
    u1, u2 = mk_vars("u1", "u2")
    return make_icis([u1**2 + u2**3], (3, 2))


@pytest.fixture(scope="session")
def a1_icis():
    u1, u2, u3 = mk_vars("u1", "u2", "u3")
    return make_icis([u1**2 + u2**2 + u3**2], (1, 1, 1))


@pytest.fixture(scope="session")
def a4_icis():
    u1, u2 = mk_vars("u1", "u2")
    return make_icis([u1**2 + u2**5], (5, 2))


@pytest.fixture(scope="session")
def quadric_icis():
    u1, u2, u3 = mk_vars("u1", "u2", "u3")
    return make_icis(
        [u1**2 + u2**2 + u3**2, u1**2 + 2 * u2**2 + 3 * u3**2], (1, 1, 1)
    )


def _system_for(icis):
    gm = gm_matrices(icis)
    return gm, assemble_system(gm, icis)


@pytest.fixture(scope="session")
def cusp_system(cusp_icis):
    return _system_for(cusp_icis)


@pytest.fixture(scope="session")
def a1_system(a1_icis):
    return _system_for(a1_icis)


@pytest.fixture(scope="session")
def a4_system(a4_icis):
    return _system_for(a4_icis)


@pytest.fixture(scope="session")
def quadric_system(quadric_icis):
    return _system_for(quadric_icis)


@pytest.fixture(scope="session")
def wave_cusp_pipeline(cusp_front, wave_symbol):
    """The full wave-operator/cusp pipeline through the assembled system."""
    w = discover_weights(cusp_front)
    psi = build_phase(wave_symbol, cusp_front)
    exp = expand_phase(psi, cusp_front, w)
    icis = build_mapping(exp, 2)
    phi = phi_basis(icis)
    fb = f_basis(icis)
    gm = gm_matrices(icis, phi, fb)
    data = assemble_system(gm, icis)
    return {
        "weights": w,
        "psi": psi,
        "expansion": exp,
        "icis": icis,
        "phi": phi,
        "fbasis": fb,
        "gm": gm,
        "data": data,
    }


@pytest.fixture(scope="session")
def wave_parabola_icis(wave_symbol):
    """The wave-operator/parabola ICIS, built as the flagship's is."""
    x1, x2 = mk_vars("x1", "x2")
    front = x1 + x2**2
    psi = build_phase(wave_symbol, front)
    return build_mapping(expand_phase(psi, front, discover_weights(front)), 2)


@pytest.fixture(scope="session")
def wave_parabola_system(wave_parabola_icis):
    icis = wave_parabola_icis
    return assemble_system(gm_matrices(icis, phi_basis(icis), f_basis(icis)), icis)


@pytest.fixture(scope="session")
def m1_cusp_icis(cusp_front):
    """The first-order operator tau over the cusp, the CLI's m1/cusp problem."""
    tau = mk_vars("tau", "xi1", "xi2")[0]
    psi = build_phase(HyperbolicSymbol.from_poly(tau), cusp_front)
    return build_mapping(expand_phase(psi, cusp_front, discover_weights(cusp_front)), 2)


@pytest.fixture(scope="session")
def m1_cusp_system(m1_cusp_icis):
    return _system_for(m1_cusp_icis)


@pytest.fixture(scope="session")
def wave_cusp_probed(wave_cusp_pipeline):
    """The flagship front at s = 1, and the arguments (evaluator, size, terms,
    den) of the exact check ``det_probed`` ran on its core's interpolant."""
    from lerayfront import detpoly
    from lerayfront.wavefront import front_polynomial

    checks = []
    agrees = detpoly._agrees_at_random_points

    def recording(*args):
        checks.append(args[:4])
        return agrees(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detpoly, "_agrees_at_random_points", recording)
        front = front_polynomial(
            wave_cusp_pipeline["data"],
            wave_cusp_pipeline["icis"],
            s_value=Fraction(1),
            seed=0,
        )
    return front, checks[0]


@pytest.fixture(scope="session")
def wave_cusp_front(wave_cusp_probed):
    return wave_cusp_probed[0]
