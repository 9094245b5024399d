"""Assembly of the Gauss-Manin system, its discriminant, and diagnostics.

The system data is the matrix M(y) = sum_l (-1)^l p_l y_l P^(l)(y) together
with L_V = diag(l_1..l_mu); the discriminant is det M.  Flatness of the
induced connection is verified numerically-exactly at random rational
points off the discriminant; K = 1 systems expose their classical local
exponents as a bridge to known special cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .brieskorn import FBasis, GMMatrices, PhiBasis
from .detpoly import det_poly_matrix
from .errors import (
    CurvatureNonzeroError,
    DegenerateSystemError,
    NoSolutionError,
    NotApplicableError,
)
from .gcdtools import squarefree_part
from .linalg import RationalMatrix, rational_eigenvalues
from .phase import IcisMap
from .poly import MultiPoly, weighted_graded_parts

ZERO = Fraction(0)


@dataclass
class GaussManinData:
    """The assembled system: matrices, weights, M(y), and (optionally) det M."""

    K: int
    mu: int
    matrices: list[list[list[MultiPoly]]]  # P^(0..K-1), entries in the y-ring
    l_weights: list[int]
    comp_weights: tuple[int, ...]
    M: list[list[MultiPoly]]
    y_ring: tuple[str, ...]
    phi: PhiBasis | None = None
    fbasis: FBasis | None = None
    delta: MultiPoly | None = None
    delta_raw: MultiPoly | None = None
    metadata: dict = field(default_factory=dict)

    def delta_forced_weight(self) -> int:
        sum_p = sum(self.comp_weights)
        return sum(
            self.l_weights[i] + sum_p - self.phi.weights[i] for i in range(self.mu)
        )


def assemble_system(
    gm: GMMatrices, icis: IcisMap
) -> GaussManinData:
    """Build M(y) = sum_l (-1)^l p_l y_l P^(l)(y) with the alternating signs."""
    mu = gm.phi.mu
    K = icis.K
    y_ring = icis.y_names()
    sizes = {len(gm.matrices)}
    if sizes != {K}:
        raise ValueError("matrix count does not match the number of components")
    for mat in gm.matrices:
        if len(mat) != mu or any(len(row) != mu for row in mat):
            raise ValueError("matrix size mismatch")
    zero = MultiPoly.zero(y_ring)
    M = [[zero for _ in range(mu)] for _ in range(mu)]
    for l in range(K):
        sign = 1 if l % 2 == 0 else -1
        p_l = icis.comp_weights[l]
        y_l = MultiPoly.variable(y_ring, f"y{l}")
        factor = y_l.scale(sign * p_l)
        for i in range(mu):
            for j in range(mu):
                entry = gm.matrices[l][i][j]
                if not entry.is_zero():
                    M[i][j] = M[i][j] + factor * entry
    data = GaussManinData(
        K=K,
        mu=mu,
        matrices=gm.matrices,
        l_weights=gm.l_weights,
        comp_weights=icis.comp_weights,
        M=M,
        y_ring=y_ring,
        phi=gm.phi,
        fbasis=gm.fbasis,
    )
    if all(all(e.is_zero() for e in row) for row in M):
        data.metadata["degenerate"] = True
    return data


def discriminant(data: GaussManinData, strategy: str = "bareiss") -> MultiPoly:
    """det M(y), normalized primitive with positive leading coefficient.

    The raw determinant is kept on the data object; weighted homogeneity of
    the forced weight is verified.  A vanishing determinant is an error
    (degenerate system), never returned silently.
    """
    raw = det_poly_matrix(data.M, strategy=strategy)
    if raw.is_zero():
        raise DegenerateSystemError("discriminant vanishes identically")
    delta = raw.primitive_part()
    forced = data.delta_forced_weight()
    parts = weighted_graded_parts(delta, data.comp_weights)
    if len(parts) != 1 or parts[0][0] != forced:
        raise DegenerateSystemError(
            f"discriminant is not weighted-homogeneous of forced weight {forced}"
        )
    data.delta_raw = raw
    data.delta = delta
    data.metadata["delta_strategy"] = strategy
    return delta


def delta_squarefree(data: GaussManinData) -> MultiPoly:
    if data.delta is None:
        raise ValueError("compute the discriminant first")
    return squarefree_part(data.delta)


def residue_exponents_K1(data: GaussManinData) -> list[Fraction]:
    """Local exponents of the one-parameter system at y0 = 0.

    Eigenvalues of (L_V P(0) - p0 I)(p0 P(0))^{-1}; the classical residue
    data of the connection on the y0-line.
    """
    if data.K != 1:
        raise NotApplicableError("exponents are defined only for K = 1")
    mu = data.mu
    p0 = data.comp_weights[0]
    zero_point = {v: ZERO for v in data.y_ring}
    P0 = RationalMatrix.from_rows(
        [
            [data.matrices[0][i][j].eval_exact(zero_point) for j in range(mu)]
            for i in range(mu)
        ]
    )
    if P0.det() == 0:
        raise NotApplicableError("P^(0)(0) is singular; exponents undefined")
    L = RationalMatrix.from_rows(
        [[Fraction(data.l_weights[i]) if i == j else ZERO for j in range(mu)] for i in range(mu)]
    )
    I = RationalMatrix.identity(mu)
    B = (L * P0 - I.scale(p0)) * (P0.scale(p0)).inverse()
    hints = [Fraction(l - p0, p0) for l in data.l_weights]
    return rational_eigenvalues(B, hints=hints)


def _eval_matrix(mat: list[list[MultiPoly]], point: dict) -> RationalMatrix:
    return RationalMatrix.from_rows(
        [[e.eval_exact(point) for e in row] for row in mat]
    )


def _partial_matrix(mat: list[list[MultiPoly]], var: str) -> list[list[MultiPoly]]:
    return [[e.partial(var) for e in row] for row in mat]


@dataclass
class FlatnessReport:
    vacuous: bool
    points: list[dict] = field(default_factory=list)
    checked_pairs: int = 0


def flatness_check(
    data: GaussManinData, sample_points: int = 5, seed: int = 11
) -> FlatnessReport:
    """Zero curvature of the connection at random rational points off det M = 0.

    With A_l = (-1)^l L_V P^(l) M^{-1}, integrability of d(M I) requires
    d_k A_l - d_l A_k + A_l A_k - A_k A_l = 0; any nonzero value is a hard
    failure pointing at corrupted matrices.
    """
    if data.K == 1:
        return FlatnessReport(vacuous=True)
    rng = random.Random(seed)
    mu = data.mu
    K = data.K
    L = RationalMatrix.from_rows(
        [
            [Fraction(data.l_weights[i]) if i == j else ZERO for j in range(mu)]
            for i in range(mu)
        ]
    )
    dM = {v: _partial_matrix(data.M, v) for v in data.y_ring}
    dP = {
        (l, v): _partial_matrix(data.matrices[l], v)
        for l in range(K)
        for v in data.y_ring
    }
    points = []
    tried = 0
    while len(points) < sample_points:
        tried += 1
        if tried > 200 * sample_points:
            raise DegenerateSystemError(
                "could not sample points off the discriminant"
            )
        pt = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in data.y_ring}
        Mv = _eval_matrix(data.M, pt)
        try:
            Minv = Mv.inverse()
        except NoSolutionError:
            continue
        Pv = [_eval_matrix(data.matrices[l], pt) for l in range(K)]
        dPv = {
            (l, v): _eval_matrix(dP[(l, v)], pt)
            for l in range(K)
            for v in data.y_ring
        }
        dMv = {v: _eval_matrix(dM[v], pt) for v in data.y_ring}
        A = []
        for l in range(K):
            sign = 1 if l % 2 == 0 else -1
            A.append((L * Pv[l] * Minv).scale(sign))

        def dA(l: int, var: str) -> RationalMatrix:
            sign = 1 if l % 2 == 0 else -1
            out = L * dPv[(l, var)] * Minv - L * Pv[l] * Minv * dMv[var] * Minv
            return out.scale(sign)

        pairs = 0
        for k in range(K):
            for l in range(k + 1, K):
                vk, vl = f"y{k}", f"y{l}"
                C = dA(l, vk) - dA(k, vl) + A[l] * A[k] - A[k] * A[l]
                pairs += 1
                if not C.is_zero():
                    raise CurvatureNonzeroError(
                        f"curvature nonzero at {pt} for pair ({k},{l})", point=pt
                    )
        points.append(pt)
    return FlatnessReport(vacuous=False, points=points, checked_pairs=pairs)
