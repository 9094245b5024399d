"""Independent verification: the critical-value locus and ray sampling.

Nothing here touches the lattice machinery.  The critical-value locus comes
from Groebner elimination on the graph-plus-minors ideal
(``phase.critical_ideal`` with y_l left as variables), whose generators
c*u + r first give away their u (``groebner.eliminate``), and is compared with
det M exactly, by divisibility: the eliminant divides det M, which divides
a power of it (``compare_discriminants``).  When a resource cap stops the
eliminant, both sides are restricted to seeded integer lines instead
(``line_check``): det M on the line against the characteristic polynomial
of the line parameter on the zero-dimensional critical quotient, a pencil
determinant.  Both generate the line's Fitting ideal, so they are compared
exactly up to a constant, multiplicities included.  Neither takes a gcd.
Front points come from numerically integrated characteristic rays
(straight lines, constant coefficients).  Agreement of the two sides with
the discriminant pipeline is the package's end-to-end correctness evidence.

The rays start on the initial variety {F = s}.  Its points are drawn once
per run, as one seeded stream (``LevelSet``): the t = 0 check
(``wavefront.t_zero_check``) reads its first 50 points and the ray oracle
(``sample_front``) its first 40, the same points, drawn once.  Bit-identity
contract: a take of ``count`` points is, to the last bit, the point list
that one Fraction substitution per random line gave before the stream: the
line's coefficients in tau are exact (``poly.pullback`` once, then
``detpoly._IntegerEvaluator`` per line) and each is rounded once, and every
float evaluation is ``poly.FloatPoly``'s, the one float formula.  So
``t_zero.csv``, ``rays.csv`` and ``verify_rays.json`` do not depend on
which command drew the points or in what order the takes came.  One
function scores phi at points: ``front_residual`` gives the worst scaled
residual at (x, t) points, for the t = 0 check (phi over its t-power at
the level-set points, t = 0) and for the ray oracle
(``eval_front_on_samples``, at the ray points).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import fsum, isnan
from operator import mul
from sys import float_info
from typing import Iterator, Sequence

from .detpoly import _IntegerEvaluator, line_determinant
from .errors import MismatchError, NotApplicableError
from .gcdtools import divide_monomial, monomial_content
from .groebner import (
    GREVLEX,
    MAX_PAIRS,
    GroebnerBasis,
    eliminate,
    groebner,
    normal_form,
    standard_monomials,
)
from .phase import HyperbolicSymbol, IcisMap, critical_ideal
from .poly import FloatPoly, MultiPoly, pullback

# line_check restricts to this many seeded lines y = a + b*tau, with the
# integer entries of a and b drawn from [-LINE_RANGE, LINE_RANGE].
LINE_COUNT = 2
LINE_RANGE = 9
# Level-set points are kept inside the box |z_i| <= LEVEL_BOX and polished
# onto F = s by POLISH_STEPS Newton steps; a take of count points tries at
# most LEVEL_ATTEMPTS * count random lines.  Characteristic roots closer
# than ROOT_COLLISION make sample_front skip the point.
LEVEL_BOX = 2.5
POLISH_STEPS = 6
LEVEL_ATTEMPTS = 80
ROOT_COLLISION = 1e-8
# The root finder ``_roots`` stops after ROOT_SWEEPS sweeps, or once no root
# moved by more than ROOT_STEP of its modulus.
ROOT_SWEEPS = 500
ROOT_STEP = 1e-14


def critical_locus_eliminant(icis: IcisMap, max_pairs: int = MAX_PAIRS) -> list[MultiPoly]:
    """Eliminate u from the critical ideal with y_l left as variables."""
    y_names = icis.y_names()
    gens, drop = critical_ideal(icis, [MultiPoly.variable(y_names, y) for y in y_names])
    return [p.rename_ring(y_names) for p in eliminate(gens, drop, max_pairs)]


@dataclass
class LineResult:
    """One seeded line y = a + b*tau and the degree of both sides on it."""

    a: list[int]
    b: list[int]
    quotient_dimension: int


@dataclass
class LineCheck:
    verdict: str
    lines: list[LineResult]


def line_check(icis: IcisMap, M: list[list[MultiPoly]], seed: int) -> LineCheck:
    """det M against the critical values, both restricted to seeded lines.

    On each line y = a + b*tau (integer a, b drawn from [-LINE_RANGE,
    LINE_RANGE] by ``seed``) one side is det M(a + b*tau)
    (``detpoly.line_determinant``).  The other is the characteristic
    polynomial of tau on the zero-dimensional quotient by the critical ideal
    with y = a + b*tau (``_characteristic_polynomial``), of degree the
    quotient's dimension D.  M presents H''/H', so det M generates the 0-th
    Fitting ideal of the critical module f_*O_C; Fitting ideals commute with
    base change (Eisenbud 1995, Cor. 20.5), and on the line that ideal is
    generated by det(lam I - m_tau).  So the two sides must agree up to a
    nonzero constant, multiplicities included: their primitive parts are
    compared exactly.  A wrong det M agrees on a random line only on a
    proper subvariety of lines.  Caps are groebner's defaults and raise
    ResourceLimitError.
    """
    rng = random.Random(seed)
    K = icis.K
    y_names = icis.y_names()
    tau = MultiPoly.variable(("tau",), "tau")
    lines = []
    for _ in range(LINE_COUNT):
        a = [rng.randint(-LINE_RANGE, LINE_RANGE) for _ in range(K)]
        b = [0] * K
        while not any(b):
            b = [rng.randint(-LINE_RANGE, LINE_RANGE) for _ in range(K)]
        images = [tau.scale(bl) + MultiPoly.constant(tau.ring, al) for al, bl in zip(a, b)]
        det = line_determinant(M, y_names, a, b).primitive_part()
        gb = groebner(critical_ideal(icis, images)[0], GREVLEX)
        charpoly, dimension = _characteristic_polynomial(gb)
        if det != charpoly.primitive_part():
            raise MismatchError(
                f"on the line y = {a} + {b}*tau: det M is not a constant times {charpoly.pretty()}"
            )
        lines.append(LineResult(a, b, dimension))
    verdict = f"det M equals the characteristic polynomial on {LINE_COUNT} seeded lines (exact)"
    return LineCheck(verdict, lines)


def _characteristic_polynomial(gb: GroebnerBasis) -> tuple[MultiPoly, int]:
    """Characteristic polynomial of tau on a zero-dimensional quotient, and its dimension D.

    Row i of the D x D matrix m is the normal form of tau times staircase
    monomial i; the polynomial is the pencil determinant det(lam I - m)
    (``detpoly.line_determinant``).  By Stickelberger's theorem its roots
    are tau's values at the quotient's points, so its squarefree part is the
    minimal polynomial's.  A unit ideal (D = 0) gives 1.
    """
    staircase = standard_monomials(gb)
    if not staircase.finite:
        raise MismatchError(
            f"line ideal is not zero-dimensional (unbounded in {staircase.witness_variable})"
        )
    D = len(staircase.monomials)
    if not D:
        return MultiPoly.constant(("tau",), 1), 0
    index = {e: j for j, e in enumerate(staircase.monomials)}
    k = gb.ring.index("tau")
    ring = ("lam",)
    pencil = []
    for i, e in enumerate(staircase.monomials):
        up = MultiPoly(gb.ring, {e[:k] + (e[k] + 1,) + e[k + 1 :]: 1})
        row = {index[f]: c for f, c in normal_form(up, gb).terms.items()}
        pencil.append([MultiPoly(ring, {(1,): i == j, (0,): -row.get(j, 0)}) for j in range(D)])
    return line_determinant(pencil, ring, [0], [1]), D


def scaled_residuals(p: MultiPoly, points: Sequence[dict[str, float]]) -> list[float]:
    """|p(z)| / (L1 coefficient norm * max(1, |z|_inf)^deg) at each point z.

    The norm, the degree, the float coefficients and each variable's column
    of exponents are taken once for all points.  At a point, each variable
    gets one table of x**k up to its largest exponent, and each term is
    multiplied out as c * x1^a * x2^b * ..., the order of
    ``prod(map(pow, vals, e), start=c)``, through one lazy map per variable;
    p(z) is their ``math.fsum``, which is exactly rounded, so every residual
    is the one ``poly.FloatPoly`` (and so ``MultiPoly.eval_float``) gives, to
    the last bit.  A norm past the float range is first divided, with every
    coefficient n / d, by one power of two 2^e, exactly, which leaves the
    residuals as they are; otherwise e = 0, and n / (d << 0) is the float of
    n / d.  A power past the float range raises NotApplicableError.
    """
    norm = sum(abs(c) for c in p.terms.values())
    e = norm.numerator.bit_length() - norm.denominator.bit_length() if norm > float_info.max else 0
    try:
        norm = float(norm / (1 << e))
        if norm == 0.0:
            return [0.0] * len(points)
        degree = p.total_degree()
        coefficients = [c.numerator / (c.denominator << e) for c in p.terms.values()]
        columns = [(v, column, max(column)) for v, column in zip(p.ring, zip(*p.terms))]
        out = []
        for values in points:
            mag = max([1.0] + [abs(float(v)) for v in values.values()])
            terms = coefficients
            for v, column, top in columns:
                x = float(values[v])
                table = [x**k for k in range(top + 1)]
                terms = map(mul, terms, map(table.__getitem__, column))
            out.append(abs(fsum(terms)) / (norm * mag**degree))
    except OverflowError as err:
        raise NotApplicableError(f"scaled residuals leave the float range: {err}") from None
    return out


@dataclass
class DiscriminantComparison:
    verdict: str
    detail: str


def compare_discriminants(
    delta: MultiPoly, eliminant: Sequence[MultiPoly], seed: int = 17
) -> DiscriminantComparison:
    """Exact zero-set agreement of det M with the critical-value eliminant, by division.

    The elimination ideal of an ICIS discriminant is an unmixed height-one
    ideal of a polynomial ring, hence principal: one generator g, of the
    annihilator of the critical module f_*O_C, whose 0-th Fitting ideal det
    M generates.  The module has mu generators, so Ann^mu is in Fitt_0 is in
    Ann (Eisenbud 1995, Prop. 20.7): g | delta | g^mu.  With the monomial
    contents split off, delta = y^a * d and g = y^b * r, the radicals are
    equal iff g | delta, a and b have the same positive entries, and d | r^k
    for some k, that is q = d / r | r^(k - 1), for k up to deg q + 1 (deg q
    bounds every multiplicity in q).  Each test is an exact division; no
    gcd runs.  ``detail`` records deg q and the first such k.  ``seed``
    does not enter the verdict; it stays for callers that pass it.
    """
    eliminant = [p for p in eliminant if not p.is_zero()]
    if not eliminant:
        raise MismatchError("empty eliminant; nothing to compare")
    if len(eliminant) > 1:
        raise MismatchError(f"eliminant is not principal: {len(eliminant)} generators")
    if delta.is_zero():
        raise MismatchError("det M is zero; nothing to compare")
    g = eliminant[0].rename_ring(delta.ring)
    quotient = _exact_quotient(delta, g)
    if quotient is None:
        raise MismatchError("radical mismatch: the eliminant does not divide det M")
    b = monomial_content(g)
    if [k > 0 for k in monomial_content(delta)] != [k > 0 for k in b]:
        raise MismatchError(
            "radical mismatch: det M and the eliminant have different variable factors"
        )
    q = divide_monomial(quotient, monomial_content(quotient))
    r = divide_monomial(g, b)
    power = MultiPoly.constant(delta.ring, 1)
    for k in range(1, q.total_degree() + 2):
        if _exact_quotient(power, q) is not None:
            return DiscriminantComparison(
                verdict="equal radicals (exact)",
                detail=f"monomials aside, det M / eliminant has total degree "
                f"{q.total_degree()} and det M divides eliminant^{k}",
            )
        power = power * r
    raise MismatchError("radical mismatch: det M divides no power of the eliminant")


def _exact_quotient(p: MultiPoly, d: MultiPoly) -> MultiPoly | None:
    """p / d when d divides p, else None."""
    try:
        return p.exact_div(d)
    except ValueError:
        return None


def _roots(coeffs: Sequence[float]) -> list[complex]:
    """Complex roots of coeffs[0] * z^d + ... + coeffs[d], with coeffs[0] != 0.

    Durand-Kerner iteration (Kerner 1966) from the powers of 0.4 + 0.9i: a
    sweep moves each root z_k by p(z_k) / (coeffs[0] * prod_{j != k} (z_k - z_j)).
    """
    zs = [(0.4 + 0.9j) ** k for k in range(len(coeffs) - 1)]
    lead = coeffs[0]
    for _ in range(ROOT_SWEEPS):
        done = True
        for k, z in enumerate(zs):
            value = 0j
            for c in coeffs:
                value = value * z + c
            den = lead
            for j, w in enumerate(zs):
                if j != k:
                    den *= z - w
            step = value / den if den else 0j  # z_k met another root: stay
            zs[k] = z - step
            done = done and abs(step) <= ROOT_STEP * abs(z)
        if done:
            break
    return zs


class LevelSet:
    """Real points of {F = s} in the box |z_i| <= LEVEL_BOX: one seeded stream.

    Attempt k draws a random line z = b + tau*d (b_i in {-2, -1.9, ..., 2},
    d_i in {-3, -8/3, ..., 3}, d != 0), takes the real roots of F - s on
    it, keeps those whose point lies in the box and polishes each onto
    F = s by POLISH_STEPS Newton steps; the stream is the points (attempt,
    z) in that order.  ``take(count)`` returns the first ``count`` points
    whose attempt is at most LEVEL_ATTEMPTS * count.  Points are drawn only
    as far as a take needs and kept, so a take is the same list however
    many takes came before it, and a second take of no more points draws
    nothing.  A run holds one stream (``cli.Pipeline.level_set``): the
    t = 0 check and the ray oracle share its points.  F and grad F are
    compiled to ``poly.FloatPoly`` once (``F_float``, ``grads``), for the
    Newton polish and for ``sample_front``.

    Bit-identity: the coefficients of F - s in tau on the line are exact,
    and each is rounded once to a float (``_level_lines``); every float value
    comes from ``poly.FloatPoly``.  So the points depend on F, s and the seed
    alone, to the last bit.  An s past the float range raises
    NotApplicableError when the stream is built, before any point is drawn.
    """

    def __init__(self, F: MultiPoly, s: Fraction, seed: int):
        self.F = F
        self.s = Fraction(s)
        try:
            target = float(self.s)
        except OverflowError:
            raise NotApplicableError("s is past the float range: no level-set point") from None
        self.F_float = FloatPoly(F)
        self.grads = [FloatPoly(F.partial(v)) for v in F.ring]
        self.attempts = 0
        self.points: list[tuple[int, tuple[float, ...]]] = []
        self._lines = _level_lines(F, self.s, target, seed, self.F_float, self.grads)

    def take(self, count: int) -> list[tuple[float, ...]]:
        cap = LEVEL_ATTEMPTS * count
        while self.attempts < cap and len(self.points) < count:
            self.attempts += 1
            self.points.extend((self.attempts, z) for z in next(self._lines))
        return [z for attempt, z in self.points[:count] if attempt <= cap]


def _level_lines(
    F: MultiPoly, s: Fraction, target: float, seed: int, F_float: FloatPoly, grads: list[FloatPoly]
) -> Iterator[list[tuple[float, ...]]]:
    """The points of {F = s} in the box on each seeded random line, line by line.

    The tau coefficients of F - s on the drawn line come exactly from
    ``_generic_line``, each as n / D with integers n and D; the float n / D
    is correctly rounded (int true division), as ``float(Fraction)`` is;
    ``target``, the float of s, is the level the Newton polish aims at on
    ``F_float`` and ``grads``, the stream's compiled F and grad F.
    """
    rng = random.Random(seed)
    n = len(F.ring)
    line = _generic_line(F, s)
    while True:
        base = [Fraction(rng.randint(-20, 20), 10) for _ in range(n)]
        direction = [Fraction(rng.randint(-9, 9), 3) for _ in range(n)]
        if not any(direction):
            yield []
            continue
        *values, D = line.at(dict(zip(line.ring, base + direction)))[0][0]
        while values and not values[-1]:
            values.pop()
        coeffs = [c / D for c in values]
        if len(coeffs) < 2 or all(abs(c) < 1e-14 for c in coeffs[1:]):
            yield []
            continue
        fb, fd = [float(b) for b in base], [float(d) for d in direction]
        points = []
        for r in _roots(coeffs[::-1]):
            if abs(r.imag) > 1e-10 * max(1.0, abs(r.real)):
                continue
            z = [b + r.real * d for b, d in zip(fb, fd)]
            if max(map(abs, z)) > LEVEL_BOX:
                continue
            z = _newton_polish_level(F_float, grads, z, target)
            if z is not None:
                points.append(tuple(z))
        yield points


def _generic_line(F: MultiPoly, s: Fraction) -> _IntegerEvaluator:
    """F - s on the generic line x_i = b_i + d_i * tau, evaluated exactly at given (b, d).

    F - s is restricted once by ``poly.pullback`` into integer polynomials
    c_k(b, d) times tau^k over one scale.  The evaluator's ring is (b0, ...,
    d0, ...) and its one matrix is the row [c_0, ..., c_m, scale]: at a
    rational point, ``at`` gives each entry times a common integer, so the
    row's values are the tau coefficients times D and, last, D itself.
    """
    n = len(F.ring)
    ring = tuple(f"b{i}" for i in range(n)) + tuple(f"d{i}" for i in range(n)) + ("tau",)
    x = [MultiPoly.variable(ring, v) for v in ring]
    images = [x[i] + x[n + i] * x[-1] for i in range(n)]  # x_i = b_i + d_i * tau
    terms, den = (F - MultiPoly.constant(F.ring, s)).integer_terms()
    [[pulled]], [scale] = pullback([[terms]], [den], images, ring)
    top = max((e[-1] for e in pulled), default=0)
    row = [{e[:-1]: c for e, c in pulled.items() if e[-1] == k} for k in range(top + 1)]
    return _IntegerEvaluator([[row + [{(0,) * (2 * n): scale}]]], ring[:-1])


def _newton_polish_level(F: FloatPoly, grads: list[FloatPoly], z: list[float], s: float):
    for _ in range(POLISH_STEPS):
        r = F(z) - s
        g = [gp(z) for gp in grads]
        gn = sum(map(mul, g, g))
        if gn < 1e-18:
            return None
        z = [zi - r * gi / gn for zi, gi in zip(z, g)]
    if not abs(F(z) - s) <= 1e-11 * max(1.0, abs(s)):  # a NaN point fails too
        return None
    return z


@dataclass
class RaySample:
    """One characteristic ray point: start z on the level set, sheet, time, x."""

    z: tuple[float, ...]
    sheet: int
    t: float
    x: tuple[float, ...]
    lam: float
    residual_root: float
    residual_level: float


@dataclass
class RayReport:
    samples: list[RaySample]
    skipped_collisions: int = 0


def sample_front(
    P: HyperbolicSymbol, level: LevelSet, t_values: Sequence[float], count: int
) -> RayReport:
    """Front points x = z + t * grad_xi(lambda_j)(grad F(z)) over all sheets,
    from the first ``count`` points z of the level set's stream.

    Characteristic roots come from ``_roots``; their xi-gradients from
    implicit differentiation (-P_xi / P_tau), with one Newton polish on the
    root.  Near-collisions of roots are skipped and counted.  Every float
    value is a ``poly.FloatPoly``'s.
    """
    zs = level.take(count)
    s = float(level.s)
    tau_polys = [FloatPoly(p) for p in P.tau_coefficient_polys()]
    P_float = FloatPoly(P.poly)
    p_tau = FloatPoly(P.poly.partial("tau"))
    p_xis = [FloatPoly(P.poly.partial(v)) for v in P.poly.ring[1:]]
    samples: list[RaySample] = []
    skipped = 0
    for z in zs:
        xi = [g(z) for g in level.grads]
        if sum(map(mul, xi, xi)) < 1e-16:
            continue
        coeffs = [p(xi) for p in tau_polys]  # tau^m .. tau^0
        roots = _roots(coeffs)
        lams = sorted(r.real for r in roots)
        if any(abs(r.imag) > 1e-7 * max(1.0, abs(r.real)) for r in roots):
            skipped += 1
            continue
        if any(abs(a - b) < ROOT_COLLISION for a, b in zip(lams, lams[1:])):
            skipped += 1
            continue
        level_res = abs(level.F_float(z) - s)
        for j, lam in enumerate(lams):
            pt_val = p_tau([lam, *xi])
            if abs(pt_val) < 1e-14:
                skipped += 1
                continue
            # one Newton step on P(lam, xi) = 0
            lam = lam - P_float([lam, *xi]) / pt_val
            point = [lam, *xi]
            pt_val = p_tau(point)
            root_res = abs(P_float(point))
            grad_lam = [-pxi(point) / pt_val for pxi in p_xis]
            for t in t_values:
                x = tuple(zi + float(t) * gi for zi, gi in zip(z, grad_lam))
                samples.append(
                    RaySample(
                        z=tuple(z),
                        sheet=j,
                        t=float(t),
                        x=x,
                        lam=lam,
                        residual_root=root_res,
                        residual_level=level_res,
                    )
                )
    return RayReport(samples=samples, skipped_collisions=skipped)


@dataclass
class FrontEvalReport:
    max_scaled_residual: float
    count: int


def front_residual(
    phi: MultiPoly, points: Sequence[tuple[Sequence[float], float]], s: Fraction
) -> FrontEvalReport:
    """The worst ``scaled_residuals`` of phi at the (x, t) points, s bound when phi holds it.

    A NaN fails every tolerance, so the first NaN is the worst; ``max``
    alone would pass over it.  No points give 0.0.
    """
    bound = {"s": float(s)} if "s" in phi.ring else {}
    values = [{**{f"x{i + 1}": xi for i, xi in enumerate(x)}, "t": t, **bound} for x, t in points]
    residuals = scaled_residuals(phi, values)
    worst = next(filter(isnan, residuals), max([0.0, *residuals]))
    return FrontEvalReport(max_scaled_residual=worst, count=len(values))


def eval_front_on_samples(
    phi: MultiPoly, samples: Sequence[RaySample], s: Fraction
) -> FrontEvalReport:
    """Max scaled |phi| over ray samples (``front_residual`` at their x and t)."""
    return front_residual(phi, [(smp.x, smp.t) for smp in samples], s)
