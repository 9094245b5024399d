"""Squarefree parts by proof, and the monomial content of a polynomial.

``squarefree_part`` first splits off the monomial content ``x^m`` (``m_i``
the smallest exponent of ``x_i``): every front ``phi`` has the form
``t^k * rest`` and the m1/cusp discriminant the form ``y0^4 * rest``, and
the rest has no variable factor, so
``sf(p) = (prod of x_i with m_i > 0) * sf(rest)``.  It then proves the
rest squarefree by seeded integer specialisations reduced modulo one
word-size prime (``probably_squarefree``), in the spirit of Brown's modular
gcd.  When the proof fails there is no squarefree part (None): no gcd runs,
so no cap can stop one.  ``monomial_content`` and ``divide_monomial`` also
serve the discriminant comparison (``oracle.compare_discriminants``) and
the t = 0 check.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .poly import MultiPoly

# The prime of the specialisation proof: the Mersenne prime 2^61 - 1.
MODULUS = (1 << 61) - 1
# The seed of the proof's points: the same points, so the same answer, on every run.
SEED = 7


def probably_squarefree(p: MultiPoly) -> bool:
    """Prove p squarefree by specialising all but one variable, modulo a prime.

    p is scaled to integer coefficients.  For each used variable v the
    others are set to points drawn uniformly from [0, MODULUS) by
    ``random.Random(SEED)``, and the result q is reduced modulo MODULUS.  The direction passes when the
    prime does not divide the coefficient of v^deg_v(p) in q and gcd(q, q')
    modulo the prime is constant.  That proves q squarefree over Q: a
    nonconstant gcd there has a primitive integer form g with lc(g) | lc(q),
    so its image keeps its degree and divides both images.  A repeated
    factor of p that involves v would survive the degree-preserving
    specialisation, so a pass in every used direction is a proof, whatever
    the points; only a False answer is (conservatively) inconclusive.

    A direction tries four points.  When disc_v * lc_v (the discriminant
    and the leading coefficient of p in v, polynomials in the other
    variables) is nonzero modulo MODULUS, a point fails only at a root of
    it, with probability at most D_v / MODULUS (Schwartz-Zippel; D_v its
    total degree).  So a squarefree p fails direction v with probability at
    most (D_v / MODULUS)^4, about (D_v / 2^61)^4.
    """
    used = p.variables_used()
    if not used:
        return True
    ring = p.ring
    integer_terms = {e: c.numerator for e, c in p.scale(1 / p.content()).terms.items()}
    rng = random.Random(SEED)
    for v in sorted(used, key=lambda v: -p.degree_in(v)):
        i = ring.index(v)
        d = p.degree_in(v)
        for _ in range(4):
            point = {ring.index(w): rng.randrange(MODULUS) for w in used if w != v}
            q = _specialise_mod(integer_terms, i, d, point)
            if q[d] and len(_gcd_mod(q, _derivative_mod(q))) == 1:
                break
        else:
            return False
    return True


def _specialise_mod(terms: dict, i: int, d: int, point: dict[int, int]) -> list[int]:
    """Coefficients in x_i (ascending) of an integer polynomial at the point, mod MODULUS."""
    tops = [max(col) for col in zip(*terms)]
    tables = [[pow(a, k, MODULUS) for k in range(tops[j] + 1)] for j, a in point.items()]
    out = [0] * (d + 1)
    for e, c in terms.items():
        val = c
        for j, table in zip(point, tables):
            val = val * table[e[j]] % MODULUS
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


def squarefree_part(p: MultiPoly) -> MultiPoly | None:
    """The squarefree part of p, primitive with positive leading coefficient, or None.

    The monomial content is split off first; the squarefree part is the
    product of the variables that divide p times the rest, when
    ``probably_squarefree`` proves the rest squarefree, and None otherwise.
    """
    m = monomial_content(p)
    rest = divide_monomial(p, m)
    if not probably_squarefree(rest):
        return None
    variables = MultiPoly(p.ring, {tuple(min(k, 1) for k in m): Fraction(1)})
    return (variables * rest).primitive_part()
