"""Tests of gcdtools: squarefree parts by proof, or None."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from lerayfront.gcdtools import MODULUS, probably_squarefree, squarefree_part
from lerayfront.poly import MultiPoly

F = Fraction


RING = ("a", "b")
A = MultiPoly.variable(RING, "a")
B = MultiPoly.variable(RING, "b")


def test_squarefree_part_multivariate():
    p = (A + B) * (A - B.scale(2))
    assert squarefree_part(p.scale(F(-3, 2))) == p.primitive_part()
    # a repeated factor is not proven squarefree: no squarefree part
    assert squarefree_part((A + B) ** 3 * (A - B.scale(2))) is None


def test_probably_squarefree_proof_direction():
    p = (A + B) * (A - B) * (A * B - MultiPoly.constant(RING, 2))
    assert probably_squarefree(p)
    assert not probably_squarefree((A + B) ** 2 * (A - B))


SMALL_POLY = st.lists(
    st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-4, 4)),
    min_size=1,
    max_size=3,
).map(lambda terms: MultiPoly(RING, {e: F(c) for e, c in terms}))


@settings(max_examples=25)
@given(SMALL_POLY)
def test_square_has_no_squarefree_part_unless_a_monomial(p):
    if p.is_zero() or p.is_constant():
        return
    sf = squarefree_part(p * p)
    if len(p.terms) == 1:
        # a monomial's square: its variables, each once
        (e,) = p.terms
        assert sf == MultiPoly(RING, {tuple(min(k, 1) for k in e): F(1)})
    else:
        assert sf is None


@settings(max_examples=40, deadline=None)
@given(st.sets(st.tuples(st.integers(1, 3), st.integers(-3, 3), st.integers(1, 3)), max_size=3))
def test_distinct_linear_factors_are_proven_squarefree(forms):
    # a*A + b*B + c with a, c > 0 has no monomial factor, and two such forms
    # with coprime coefficients are proportional only when equal
    p = MultiPoly.constant(RING, 1)
    for a, b, c in forms:
        if gcd(a, b, c) == 1:
            p = p * (A.scale(a) + B.scale(b) + MultiPoly.constant(RING, c))
    assert squarefree_part(A * A * B * p) == (A * B * p).primitive_part()


def test_prime_dividing_leading_coefficient_is_no_proof():
    # (MODULUS*a + 1)^2 reduces to the constant 1 modulo the prime, whose gcd
    # with its derivative is constant; only the leading-coefficient test
    # stops that from passing as a proof
    f = A.scale(MODULUS) + MultiPoly.constant(RING, 1)
    assert not probably_squarefree(f * f)
    assert squarefree_part(f * f) is None
    g = (A * B).scale(MODULUS) + MultiPoly.constant(RING, 1)
    assert not probably_squarefree(g * g)
    assert squarefree_part(g * g) is None


def test_monomial_content_is_split_off():
    rest = (A + B) * (A - B + MultiPoly.constant(RING, 1))
    p = A**3 * B**2 * rest
    assert squarefree_part(p) == (A * B * rest).primitive_part()
    assert squarefree_part(A**5 * B) == A * B
