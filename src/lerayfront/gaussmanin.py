"""Assembly of the Gauss-Manin system, its discriminant, and diagnostics.

The system data is the matrix M(y) = sum_l (-1)^l p_l y_l P^(l)(y) together
with L_V = diag(l_1..l_mu); the discriminant is det M, taken by Bareiss
over Z[y] on the row-scaled matrix, packed once into one int per monomial,
with each exact division one heap-ordered ``poly.exact_div_int`` on those
ints (``detpoly.det_poly_matrix``), and divided by the row scales once.
Flatness of the induced connection is verified exactly at random rational
points off the discriminant: one ``detpoly._IntegerEvaluator`` holds M and
the P^(l) as integer terms, each row of [M | P^(0) | ... | P^(K-1)] over
its own scale (``detpoly._row_scaled_entries``), and reads off its
interned monomials the first partials that the test reads, d_k M for
every k and d_k P^(l) for k != l (no derivative is built as a
polynomial).  A point costs one table of scaled monomials, one pass over
all terms, one fraction-free integer inverse of M (``linalg.inverse_int``),
K dense products N R_k and K(K-1) products on the nonzero entries of the
P^(l).
K = 1 systems expose their classical local exponents as a bridge to known
special cases: the roots of the pencil determinant det(lam p0 P(0) - L_V
P(0) + p0 I), taken on the line engine of ``detpoly.line_determinant`` and
read by exact deflation with the values (l_i - p0) / p0 that they predict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .brieskorn import FBasis, GMMatrices, PhiBasis
from .detpoly import _IntegerEvaluator, _row_scaled_entries, det_poly_matrix, line_determinant
from .errors import (
    CurvatureNonzeroError,
    DegenerateSystemError,
    NoSolutionError,
    NotApplicableError,
)
from .linalg import inverse_int
from .phase import IcisMap
from .poly import MultiPoly, weighted_graded_parts


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
    # each entry's terms in one dict: sign * p_l times the P^(l) entry, shifted by y_l
    M_terms = [[{} for _ in range(mu)] for _ in range(mu)]
    for l in range(K):
        k = (1 if l % 2 == 0 else -1) * icis.comp_weights[l]
        y = y_ring.index(f"y{l}")
        for row, acc_row in zip(gm.matrices[l], M_terms):
            for entry, acc in zip(row, acc_row):
                for e, c in entry.terms.items():
                    e = e[:y] + (e[y] + 1,) + e[y + 1 :]
                    old = acc.get(e)
                    acc[e] = k * c if old is None else old + k * c
    M = [[MultiPoly(y_ring, terms) for terms in row] for row in M_terms]
    return GaussManinData(
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


def discriminant(data: GaussManinData) -> MultiPoly:
    """det M(y) by Bareiss, normalized primitive with positive leading coefficient.

    The raw determinant is kept on the data object; weighted homogeneity of
    the forced weight is verified.  A vanishing determinant is an error
    (degenerate system), never returned silently.
    """
    raw = det_poly_matrix(data.M)
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
    return delta


def residue_exponents_K1(data: GaussManinData) -> list[Fraction]:
    """Local exponents of the one-parameter system at y0 = 0.

    The eigenvalues of B = (L_V P(0) - p0 I)(p0 P(0))^{-1}, the classical
    residue data of the connection on the y0-line, read off the pencil
    determinant q(lam) = det(lam p0 P(0) - L_V P(0) + p0 I) =
    det(p0 P(0)) det(lam I - B) (``detpoly.line_determinant``): its
    lam^mu coefficient vanishes exactly when P(0) is singular, and
    otherwise its roots are B's eigenvalues with multiplicity.  For a
    quasihomogeneous map these are the values (l_i - p0) / p0 (Steenbrink
    1977), so q is divided by lam - e for each such e for as long as the
    division is exact; a non-constant quotient left over raises.
    """
    if data.K != 1:
        raise NotApplicableError("exponents are defined only for K = 1")
    p0 = data.comp_weights[0]
    ring = ("lam",)
    P0 = [[e.constant_value() for e in row] for row in data.matrices[0]]
    pencil = [
        [MultiPoly(ring, {(1,): p0 * c, (0,): p0 * (i == j) - l * c}) for j, c in enumerate(row)]
        for i, (row, l) in enumerate(zip(P0, data.l_weights))
    ]
    q = line_determinant(pencil, ring, [0], [1])
    if (data.mu,) not in q.terms:
        raise NotApplicableError("P^(0)(0) is singular; exponents undefined")
    roots = []
    for e in sorted({Fraction(l - p0, p0) for l in data.l_weights}):
        factor = MultiPoly(q.ring, {(1,): 1, (0,): -e})
        try:
            while True:
                q = q.exact_div(factor)
                roots.append(e)
        except ValueError:  # lam - e no longer divides q
            pass
    if not q.is_constant():
        raise NotApplicableError(
            "characteristic polynomial has non-rational roots or roots other than "
            "(l_i - p0) / p0; exponents are not read for this input"
        )
    return roots


def _sparse_product(rows: list[tuple[list[int], list[int]]], columns: list[list[int]]):
    """A x B for A given by its rows' (nonzero columns, values) and B by its columns."""
    return [[sum(map(mul, ps, map(col.__getitem__, ms))) for col in columns] for ms, ps in rows]


@dataclass
class FlatnessReport:
    vacuous: bool
    points: list[dict] = field(default_factory=list)
    checked_pairs: int = 0


def flatness_check(
    data: GaussManinData, sample_points: int = 5, seed: int = 11
) -> FlatnessReport:
    """Zero curvature of the connection at random rational points off det M = 0.

    With A_l = s_l L_V P^(l) M^{-1} and s_l = (-1)^l, integrability of
    d(M I) requires the curvature

        C_kl = d_k A_l - d_l A_k + A_l A_k - A_k A_l

    to vanish for every pair k < l; any nonzero value is a hard failure
    pointing at corrupted matrices.  The test is exact but never forms C_kl.
    With X_l = P^(l) M^{-1} and d_k A_l = s_l L_V (d_k P^(l) - X_l d_k M) M^{-1},
    multiplying on the right by M gives

        C_kl M = L_V B_kl,
        B_kl = s_l d_k P^(l) - s_k d_l P^(k) + s_l X_l R_k - s_k X_k R_l,
        R_k = s_k L_V P^(k) - d_k M.

    Every accepted point has M invertible, so C_kl = 0 exactly when L_V B_kl
    = 0, that is when each row i of B_kl with l_i != 0 vanishes.  Row i of
    [M | P^(0) | ... | P^(K-1)] is scaled to integers by one r_i > 0
    (``detpoly._row_scaled_entries``), which multiplies row i of every B_kl
    by r_i and leaves M singular at the same points.  The matrices are
    evaluated as integers over the evaluator's positive scale c at the
    point, the partials by the same evaluator (``partials``: d_k M for every
    k, d_k P^(l) for k != l, the only ones B_kl reads), and M^{-1} is N / d
    from fraction-free Gauss-Jordan on the integers (``linalg.inverse_int``),
    so row i of B_kl is checked as d * c * r_i times its value.  A point costs
    one evaluation pass, one integer inverse, the K dense products W_k =
    N R_k, and the K(K-1) products d X_l R_k = P^(l) W_k (k != l) over the
    nonzero entries of P^(l) in the rows where L_V is nonzero.  Points are
    drawn, singular ones skipped and failures reported as the direct formula
    would.
    """
    if sample_points < 1:
        raise ValueError(f"sample_points must be at least 1, got {sample_points}")
    if data.K == 1:
        return FlatnessReport(vacuous=True)
    rng = random.Random(seed)
    mu = data.mu
    K = data.K
    sign = [1 if l % 2 == 0 else -1 for l in range(K)]
    weights = data.l_weights
    rows = [i for i in range(mu) if weights[i] != 0]
    # row i of [M | P^(0) | ... | P^(K-1)] over its one integer scale r_i
    joined, _ = _row_scaled_entries([sum(parts, []) for parts in zip(data.M, *data.matrices)])
    # M and P^(0..K-1), then d_k M for every k and d_k P^(l) for every k != l
    ys = [data.y_ring.index(f"y{k}") for k in range(K)]
    evaluator = _IntegerEvaluator(
        [[row[j * mu : (j + 1) * mu] for row in joined] for j in range(K + 1)],
        data.y_ring,
        partials=[ys, *([y for k, y in enumerate(ys) if k != l] for l in range(K))],
    )
    pairs = K * (K - 1) // 2
    points = []
    tried = 0
    while len(points) < sample_points:
        tried += 1
        if tried > 200 * sample_points:
            raise DegenerateSystemError(
                "could not sample points off the discriminant"
            )
        pt = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in data.y_ring}
        Mv, *vals = evaluator.at(pt)
        try:
            N, d = inverse_int(Mv)
        except NoSolutionError:
            continue
        Pv, dMv, dPv = vals[:K], vals[K : 2 * K], vals[2 * K :]
        # R_k = s_k L_V P^(k) - d_k M, and the columns of W_k = N R_k = d M^{-1} R_k
        R = [
            [
                [sign[k] * weights[m] * p - q for p, q in zip(Pv[k][m], dMv[k][m])]
                for m in range(mu)
            ]
            for k in range(K)
        ]
        W = [[[sum(map(mul, row, col)) for row in N] for col in zip(*R_k)] for R_k in R]
        # the rows of each P^(l) where L_V is nonzero, as (nonzero columns, values)
        nonzero = [
            [([m for m, p in enumerate(Pv[l][i]) if p], [p for p in Pv[l][i] if p]) for i in rows]
            for l in range(K)
        ]
        for k in range(K):
            for l in range(k + 1, K):
                # d X_l R_k = P^(l) W_k and d X_k R_l, on the rows where L_V is nonzero
                XR_lk = _sparse_product(nonzero[l], W[k])
                XR_kl = _sparse_product(nonzero[k], W[l])
                # d_k P^(l) sits at block l (K - 1) + k - (k > l) of dPv
                dP_lk, dP_kl = dPv[l * (K - 1) + k], dPv[k * (K - 1) + l - 1]
                for r, i in enumerate(rows):
                    if any(
                        d * (sign[l] * p - sign[k] * q) + sign[l] * x - sign[k] * y
                        for p, q, x, y in zip(dP_lk[i], dP_kl[i], XR_lk[r], XR_kl[r])
                    ):
                        raise CurvatureNonzeroError(f"curvature nonzero at {pt} for pair ({k},{l})")
        points.append(pt)
    return FlatnessReport(vacuous=False, points=points, checked_pairs=pairs)
