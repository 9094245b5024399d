"""Exact univariate polynomial utilities: Sturm chains and real-root counts.

Polynomials are dense Fraction coefficient lists, ascending degree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)


def trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def degree(p: Sequence[Fraction]) -> int:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    if len(p) == 1 and p[0] == 0:
        return -1
    return len(p) - 1


def derivative(p: Sequence[Fraction]) -> list[Fraction]:
    if len(p) <= 1:
        return [ZERO]
    return trim([Fraction(i) * c for i, c in enumerate(p)][1:])


def poly_rem(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a = trim([Fraction(x) for x in a])
    b = trim([Fraction(x) for x in b])
    if degree(b) < 0:
        raise ZeroDivisionError
    r = list(a)
    db = degree(b)
    lb = b[db]
    while degree(r) >= db:
        dr = degree(r)
        f = r[dr] / lb
        for i in range(db + 1):
            r[dr - db + i] -= f * b[i]
        r = trim(r)
        if degree(r) < 0:
            break
    return r


def sturm_chain(p: Sequence[Fraction]) -> list[list[Fraction]]:
    chain = [trim([Fraction(x) for x in p]), derivative(p)]
    while degree(chain[-1]) > 0:
        r = poly_rem(chain[-2], chain[-1])
        if degree(r) < 0:
            break
        chain.append([-c for c in r])
    return [c for c in chain if degree(c) >= 0]


def _sign_at_inf(p: Sequence[Fraction], positive: bool) -> int:
    d = degree(p)
    if d < 0:
        return 0
    lc = p[d]
    s = 1 if lc > 0 else -1
    if not positive and d % 2 == 1:
        s = -s
    return s


def _variations(signs: list[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def real_roots_of_chain(chain: list[list[Fraction]]) -> int:
    """Number of distinct real roots of chain[0], exactly, by Sturm's theorem."""
    at_neg = _variations([_sign_at_inf(c, positive=False) for c in chain])
    at_pos = _variations([_sign_at_inf(c, positive=True) for c in chain])
    return at_neg - at_pos
