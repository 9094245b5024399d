"""Tests of gcdtools: the multivariate PRS gcd and squarefree parts."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lerayfront.gcdtools import (
    GCD_STEP_BUDGET,
    MODULUS,
    _Budget,
    _gcd,
    probably_squarefree,
    squarefree_part,
)
from lerayfront.poly import MultiPoly

F = Fraction


RING = ("a", "b")
A = MultiPoly.variable(RING, "a")
B = MultiPoly.variable(RING, "b")


def test_multivariate_gcd():
    p = (A + B) ** 2 * (A - B)
    q = (A + B) * (A * B + MultiPoly.constant(RING, 1))
    g = _gcd(p, q, _Budget(max_terms=200_000))
    assert g == (A + B) or g == -(A + B)


def test_gcd_of_monomials_takes_no_steps():
    ring = ("y0", "y3")
    y0 = MultiPoly.variable(ring, "y0")
    y3 = MultiPoly.variable(ring, "y3")
    assert _gcd(y3**30, y3**27, _Budget(max_terms=200_000)) == y3**27
    budget = _Budget(max_terms=10)
    assert _gcd((3 * y0**2 * y3**30), (-2 * y0 * y3**27), budget) == y0 * y3**27
    assert budget.left == GCD_STEP_BUDGET


def test_squarefree_part_multivariate():
    p = (A + B) ** 3 * (A - 2 * B)
    sf = squarefree_part(p)
    expected = ((A + B) * (A - 2 * B)).primitive_part()
    assert sf == expected


def test_probably_squarefree_proof_direction():
    p = (A + B) * (A - B) * (A * B - MultiPoly.constant(RING, 2))
    assert probably_squarefree(p)
    assert not probably_squarefree((A + B) ** 2 * (A - B))


@settings(max_examples=25)
@given(
    st.lists(
        st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-4, 4)),
        min_size=1,
        max_size=3,
    )
)
def test_squarefree_of_square_drops_multiplicity(terms):
    p = MultiPoly(RING, {e: F(c) for e, c in terms})
    if p.is_zero() or p.is_constant():
        return
    sf = squarefree_part(p * p)
    # sf divides p*p and has no square factors: its square divides (p*p) too
    assert (p * p).exact_div(sf) is not None


def _prs_squarefree(p: MultiPoly) -> MultiPoly:
    """Reference route: p / gcd(p, all partials) by the PRS gcd alone."""
    p = p.primitive_part()
    g = p
    for v in p.variables_used():
        g = _gcd(g, p.partial(v), _Budget(max_terms=200_000))
    return p.exact_div(g).primitive_part()


SMALL_POLY = st.lists(
    st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-4, 4)),
    min_size=1,
    max_size=3,
).map(lambda terms: MultiPoly(RING, {e: F(c) for e, c in terms}))


@settings(max_examples=40, deadline=None)
@given(SMALL_POLY, SMALL_POLY, st.integers(0, 3), st.integers(0, 3))
def test_squarefree_part_matches_prs_route(q, r, a, b):
    p = A**a * B**b * q * q * r
    if p.is_zero():
        return
    assert squarefree_part(p) == _prs_squarefree(p)


def test_prime_dividing_leading_coefficient_is_no_proof():
    # (MODULUS*a + 1)^2 reduces to the constant 1 modulo the prime, whose gcd
    # with its derivative is constant; only the leading-coefficient test
    # stops that from passing as a proof
    f = A.scale(MODULUS) + MultiPoly.constant(RING, 1)
    assert not probably_squarefree(f * f)
    assert squarefree_part(f * f) == f
    g = (A * B).scale(MODULUS) + MultiPoly.constant(RING, 1)
    assert not probably_squarefree(g * g)
    assert squarefree_part(g * g) == g.primitive_part()


def test_monomial_content_is_split_off():
    rest = (A + B) * (A - B + MultiPoly.constant(RING, 1))
    p = A**3 * B**2 * rest
    assert squarefree_part(p) == (A * B * rest).primitive_part()
    assert squarefree_part(A**5 * B) == A * B
