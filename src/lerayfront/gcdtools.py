"""Multivariate gcd and squarefree parts, sized for wavefront normalization.

``squarefree_part`` takes three steps.  It first splits off the monomial
content ``x^m`` (``m_i`` the smallest exponent of ``x_i``): every front
``phi`` has the form ``t^k * rest`` and the m1/cusp discriminant the form
``y0^4 * rest``, and the rest has no variable factor, so
``sf(p) = (prod of x_i with m_i > 0) * sf(rest)``.  It then proves the
rest squarefree by seeded integer specialisations reduced modulo one
word-size prime (``probably_squarefree``), in the spirit of Brown's modular
gcd.  Only when that proof fails does it run the primitive-PRS gcd, on the
rest alone.  The gcd recursion spends one budget of pseudo-remainder steps
(``GCD_STEP_BUDGET``) and raises ResourceLimitError when it runs out;
callers then record the squarefree part as unavailable.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import ResourceLimitError
from .poly import MultiPoly

ZERO = Fraction(0)

# The prime of the specialisation proof: the Mersenne prime 2^61 - 1.
MODULUS = (1 << 61) - 1

# Pseudo-remainder steps (one leading coefficient cancelled each) that one
# gcd may take over its whole recursion.  Measured: the one input the
# benchmark workloads send to the PRS route (in small_corpus) needs 9 steps,
# `verify-discriminant` on m1/cusp sends none, and the random inputs of the
# tests need at most 76 (hypothesis seeds 0-2).  On the m1/cusp discriminant
# against its y0-partial, 600 steps take 0.5 s, 2,000 take 12 s, and the gcd
# is still running after 3,886 steps and 150 s.
GCD_STEP_BUDGET = 200
# Terms that one pseudo-remainder of ``squarefree_part``'s gcd may hold.
GCD_MAX_TERMS = 200_000


class _Budget:
    """The limits of one gcd: steps left over its recursion, terms per remainder."""

    def __init__(self, max_terms: int):
        self.left = GCD_STEP_BUDGET
        self.max_terms = max_terms

    def spend(self) -> None:
        if self.left <= 0:
            raise ResourceLimitError(
                f"gcd pseudo-remainder sequence exceeded {GCD_STEP_BUDGET} steps",
                kind="gcd-steps",
                limit=GCD_STEP_BUDGET,
            )
        self.left -= 1


def _to_univariate(p: MultiPoly, var: str) -> list[MultiPoly]:
    """Coefficient list of p in var, ascending; coefficients keep the full ring."""
    i = p.ring.index(var)
    d = p.degree_in(var)
    buckets: list[dict] = [dict() for _ in range(d + 1)]
    for e, c in p.terms.items():
        e2 = list(e)
        k = e2[i]
        e2[i] = 0
        buckets[k][tuple(e2)] = c
    return [MultiPoly(p.ring, b) for b in buckets]


def _from_univariate(coeffs: list[MultiPoly], var: str) -> MultiPoly:
    if not coeffs:
        raise ValueError("empty coefficient list")
    ring = coeffs[0].ring
    i = ring.index(var)
    terms = {}
    for k, c in enumerate(coeffs):
        for e, v in c.terms.items():
            e2 = list(e)
            e2[i] += k
            terms[tuple(e2)] = terms.get(tuple(e2), ZERO) + v
    return MultiPoly(ring, terms)


def _poly_content_in(p: MultiPoly, var: str, budget: _Budget) -> MultiPoly:
    coeffs = [c for c in _to_univariate(p, var) if not c.is_zero()]
    g = coeffs[0]
    for c in coeffs[1:]:
        g = _gcd(g, c, budget)
        if g.is_constant():
            break
    return g


def _gcd(a: MultiPoly, b: MultiPoly, budget: _Budget) -> MultiPoly:
    """gcd over Q, primitive with positive leading coefficient, within ``budget``."""
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    if a.is_zero():
        return b.primitive_part()
    if b.is_zero():
        return a.primitive_part()
    if len(a.terms) == 1 and len(b.terms) == 1:  # two monomials: no PRS steps
        m = tuple(map(min, next(iter(a.terms)), next(iter(b.terms))))
        return MultiPoly(a.ring, {m: Fraction(1)})
    if a.is_constant() or b.is_constant():
        return MultiPoly.constant(a.ring, 1)
    used = sorted(set(a.variables_used()) | set(b.variables_used()))
    if not used:
        return MultiPoly.constant(a.ring, 1)
    # choose the variable where the smaller max-degree lives, to keep PRS short
    var = min(used, key=lambda v: max(a.degree_in(v), b.degree_in(v)) or 10**9)
    if a.degree_in(var) == 0 or b.degree_in(var) == 0:
        # var missing from one side: gcd divides its content
        side, other = (a, b) if a.degree_in(var) == 0 else (b, a)
        return _gcd(side, _poly_content_in(other, var, budget), budget)

    ca = _poly_content_in(a, var, budget)
    cb = _poly_content_in(b, var, budget)
    pa = a.exact_div(ca) if not ca.is_constant() else a
    pb = b.exact_div(cb) if not cb.is_constant() else b
    cont = _gcd(ca, cb, budget)

    # primitive PRS in var
    f, g = (pa, pb) if pa.degree_in(var) >= pb.degree_in(var) else (pb, pa)
    while True:
        if g.is_zero():
            result = f
            break
        if g.degree_in(var) == 0:
            result = MultiPoly.constant(a.ring, 1)
            break
        r = _pseudo_rem(f, g, var, budget)
        if r.is_zero():
            result = g
            break
        # drop the content in var (a primitive polynomial) and the integer content
        cr = _poly_content_in(r, var, budget)
        r = (r.exact_div(cr) if not cr.is_constant() else r).primitive_part()
        f, g = g, r
    result = result.primitive_part()
    return (cont * result).primitive_part()


def _pseudo_rem(f: MultiPoly, g: MultiPoly, var: str, budget: _Budget) -> MultiPoly:
    fc = _to_univariate(f, var)
    gc = _to_univariate(g, var)
    dg = len(gc) - 1
    lg = gc[-1]
    r = list(fc)
    while len(r) - 1 >= dg and any(not c.is_zero() for c in r):
        while len(r) > 1 and r[-1].is_zero():
            r.pop()
        if len(r) - 1 < dg:
            break
        budget.spend()
        lead = r[-1]
        shift = len(r) - 1 - dg
        r = [c * lg for c in r]
        for i in range(dg + 1):
            r[shift + i] = r[shift + i] - lead * gc[i]
        r.pop()
        if sum(len(c.terms) for c in r) > budget.max_terms:
            raise ResourceLimitError(
                "pseudo-remainder exceeded term cap", kind="gcd-terms", limit=budget.max_terms
            )
    return _from_univariate(r, var) if r else MultiPoly.zero(f.ring)


def probably_squarefree(p: MultiPoly, seed: int = 7) -> bool:
    """Prove p squarefree by specialising all but one variable, modulo a prime.

    p is scaled to integer coefficients.  For each used variable v the
    others are set to seeded random integers and the result q is reduced
    modulo MODULUS.  The direction passes when the prime does not divide
    the coefficient of v^deg_v(p) in q and gcd(q, q') modulo the prime is
    constant.  That proves q squarefree over Q: a nonconstant gcd there has
    a primitive integer form g with lc(g) | lc(q), so its image keeps its
    degree and divides both images.  A repeated factor of p that involves v
    would survive the degree-preserving specialisation, so a pass in every
    used direction is a proof; only a False answer is (conservatively)
    inconclusive.
    """
    used = p.variables_used()
    if not used:
        return True
    ring = p.ring
    integer_terms = {e: c.numerator for e, c in p.scale(1 / p.content()).terms.items()}
    rng = random.Random(seed)
    for v in sorted(used, key=lambda v: -p.degree_in(v)):
        i = ring.index(v)
        d = p.degree_in(v)
        for _ in range(4):
            point = {ring.index(w): rng.randint(-40, 40) for w in used if w != v}
            q = _specialise_mod(integer_terms, i, d, point)
            if q[d] and len(_gcd_mod(q, _derivative_mod(q))) == 1:
                break
        else:
            return False
    return True


def _specialise_mod(terms: dict, i: int, d: int, point: dict[int, int]) -> list[int]:
    """Coefficients in x_i (ascending) of an integer polynomial at the point, mod MODULUS."""
    out = [0] * (d + 1)
    for e, c in terms.items():
        val = c
        for j, a in point.items():
            if e[j]:
                val = val * pow(a, e[j], MODULUS) % MODULUS
        out[e[i]] = (out[e[i]] + val) % MODULUS
    return out


def _derivative_mod(a: list[int]) -> list[int]:
    return [k * c % MODULUS for k, c in enumerate(a)][1:]


def _trim_mod(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gcd_mod(a: list[int], b: list[int]) -> list[int]:
    """gcd of two univariate polynomials modulo MODULUS (not normalized); [] for 0."""
    a, b = _trim_mod(list(a)), _trim_mod(list(b))
    while b:
        inv = pow(b[-1], -1, MODULUS)
        db = len(b) - 1
        while len(a) > db:
            f = a[-1] * inv % MODULUS
            shift = len(a) - 1 - db
            for k in range(db):
                a[shift + k] = (a[shift + k] - f * b[k]) % MODULUS
            a.pop()
            _trim_mod(a)
        a, b = b, a
    return a


def monomial_content(p: MultiPoly) -> tuple[int, ...]:
    """The smallest exponent of each variable over the terms of p (zeros for p = 0)."""
    if not p.terms:
        return (0,) * len(p.ring)
    return tuple(min(col) for col in zip(*p.terms))


def divide_monomial(p: MultiPoly, m: tuple[int, ...]) -> MultiPoly:
    """p / x^m for a monomial x^m that divides every term of p."""
    return MultiPoly(p.ring, {tuple(a - b for a, b in zip(e, m)): c for e, c in p.terms.items()})


def squarefree_part(p: MultiPoly, seed: int = 7) -> MultiPoly:
    """p divided by gcd(p, dp/dx_i over all i); primitive, positive leading.

    The monomial content is split off first, the rest is proved squarefree
    by ``probably_squarefree`` when it is, and otherwise its squarefree part
    comes from the PRS gcd (ResourceLimitError past GCD_STEP_BUDGET steps).
    """
    if p.is_zero() or p.is_constant():
        return p.primitive_part() if not p.is_zero() else p
    p = p.primitive_part()
    m = monomial_content(p)
    rest = divide_monomial(p, m)
    variables = MultiPoly(p.ring, {tuple(min(k, 1) for k in m): Fraction(1)})
    if not probably_squarefree(rest, seed=seed):
        budget = _Budget(GCD_MAX_TERMS)
        g = rest
        for v in rest.variables_used():
            g = _gcd(g, rest.partial(v), budget)
            if g.is_constant():
                break
        rest = rest.exact_div(g)
    return (variables * rest).primitive_part()
