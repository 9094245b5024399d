from fractions import Fraction
from itertools import chain
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lerayfront import poly
from lerayfront.errors import RingMismatchError
from lerayfront.poly import (
    MultiPoly,
    _sum_of_products,
    exact_div_int,
    guarded_fields,
    monomials_of_weight,
    pack,
    pack_terms,
    poly_substitute,
    unpack,
    weight,
    weighted_graded_parts,
)

from helpers import substitute

R2 = ("x1", "x2")
X1 = MultiPoly.variable(R2, "x1")
X2 = MultiPoly.variable(R2, "x2")


def small_polys(ring=R2, max_terms=5, max_exp=4):
    coeff = st.fractions(
        st.integers(-9, 9).map(Fraction), st.integers(1, 4)
    ).map(lambda f: Fraction(f))
    exps = st.tuples(*[st.integers(0, max_exp) for _ in ring])
    term = st.tuples(exps, st.integers(-9, 9))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: MultiPoly(ring, {e: Fraction(c) for e, c in ts})
    )


def rational_polys(ring=R2, max_terms=5, max_exp=3):
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    exps = st.tuples(*[st.integers(0, max_exp) for _ in ring])
    return st.dictionaries(exps, coeff, max_size=max_terms).map(lambda t: MultiPoly(ring, t))


class TestBasics:
    def test_zero_and_constant(self):
        assert MultiPoly.zero(R2).is_zero()
        c = MultiPoly.constant(R2, Fraction(3, 4))
        assert c.constant_value() == Fraction(3, 4)

    def test_no_zero_terms_stored(self):
        p = X1 - X1
        assert p.terms == {}

    def test_ring_mismatch(self):
        q = MultiPoly.variable(("y",), "y")
        with pytest.raises(RingMismatchError):
            X1 + q

    def test_eval_float_ignores_term_order(self):
        # 10**16 + 1 is no float: a running sum drops the 1 in one of the orders
        terms = {(1, 0): Fraction(10**16), (0, 1): Fraction(-(10**16)), (0, 0): Fraction(1)}
        for order in ([(1, 0), (0, 1), (0, 0)], [(1, 0), (0, 0), (0, 1)]):
            p = MultiPoly(R2, {e: terms[e] for e in order})
            assert list(p.terms) == order
            assert p.eval_float({"x1": 1.0, "x2": 1.0}) == 1.0

    def test_partial(self):
        p = X1**2 * X2 + X2**3
        assert p.partial("x1") == 2 * X1 * X2
        assert p.partial("x2") == X1**2 + 3 * X2**2

    def test_exact_div(self):
        p = (X1 + X2) * (X1**2 - X2)
        assert p.exact_div(X1 + X2) == X1**2 - X2
        with pytest.raises(ValueError):
            (X1 + MultiPoly.constant(R2, 1)).exact_div(X2)

    def test_exact_div_fixed_divisors(self):
        one = MultiPoly.constant(R2, 1)
        a = Fraction(5, 7) * X1**2 * X2 - Fraction(3, 2) * X2 + one
        divisors = [
            Fraction(2, 3) * (X1 + one),  # not primitive: content 2/3
            MultiPoly.from_monomial(R2, (2, 1), Fraction(-5, 2)),  # one term
            MultiPoly.constant(R2, Fraction(-4, 9)),
            6 * X1 * X2 - 4 * X2**2 + one,
        ]
        for d in divisors:
            assert (a * d).exact_div(d) == a
        assert MultiPoly.zero(R2).exact_div(X1) == MultiPoly.zero(R2)
        with pytest.raises(ZeroDivisionError):
            a.exact_div(MultiPoly.zero(R2))

    def test_exact_div_empty_ring(self):
        a = MultiPoly.constant((), Fraction(3, 4))
        d = MultiPoly.constant((), Fraction(-2, 5))
        assert (a * d).exact_div(d) == a
        assert a.exact_div(d) == MultiPoly.constant((), Fraction(-15, 8))

    def test_exact_div_raises_when_not_exact(self):
        one = MultiPoly.constant(R2, 1)
        # the leading exponent x1 does not divide the remainder -1 after one step
        with pytest.raises(ValueError):
            (X1 + one).exact_div(X1 + 2 * one)
        with pytest.raises(ValueError):
            (X1 * X2 + X2).exact_div(X1**2)
        # a coefficient that does not divide: x1 + 1 over 2*x1 + 1
        with pytest.raises(ValueError):
            (X1 + one).exact_div(2 * X1 + one)
        # the kernel on packed keys: 2-bit fields hold exponents up to 1
        width, guard = guarded_fields(1, 2)
        a = pack_terms({(1, 0): 1, (0, 0): 1}, width)
        with pytest.raises(ValueError, match="coefficient"):
            exact_div_int(a, pack_terms({(1, 0): 2, (0, 0): 1}, width), guard)
        with pytest.raises(ValueError, match="exponent"):
            exact_div_int(a, pack_terms({(1, 0): 1, (0, 0): 2}, width), guard)

    def test_exact_div_raises_outside_the_degree_box(self):
        # a divisor of larger degree than the dividend
        with pytest.raises(ValueError, match="box"):
            X1.exact_div(X1**2)
        with pytest.raises(ValueError, match="box"):
            (X1**3 * X2).exact_div(X1 * X2**2 + X2)
        # x1^3 x2 / (x2 + x1^2): the first quotient term x1^3 leaves the remainder
        # -x1^5, past the dividend's x1-degree 3 and its 3-bit fields' guard bit
        with pytest.raises(ValueError, match="box"):
            (X1**3 * X2).exact_div(X2 + X1**2)

    @settings(max_examples=150, deadline=None)
    @given(rational_polys(), rational_polys())
    def test_exact_div_inverts_multiplication(self, a, d):
        if d.is_zero():
            return
        assert (a * d).exact_div(d) == a
        # the integer kernel on integer multiples of a and d, d not primitive
        A = a.integer_terms()[0]
        B = {e: 2 * c for e, c in d.integer_terms()[0].items()}
        AB = {e: int(c) for e, c in (MultiPoly(R2, A) * MultiPoly(R2, B)).terms.items()}
        width, guard = guarded_fields(max(chain.from_iterable([*AB, *B])), 2)
        q = exact_div_int(pack_terms(AB, width), pack_terms(B, width), guard)
        assert _unpack_terms(q, width) == A

    @settings(max_examples=150, deadline=None)
    @given(rational_polys(), rational_polys())
    def test_exact_div_quotient_or_value_error(self, a, d):
        if d.is_zero():
            return
        try:
            q = a.exact_div(d)
        except ValueError:
            return
        assert q * d == a

    def test_primitive_part(self):
        p = 6 * X1 - 9 * X2
        pp = p.primitive_part()
        assert pp == 2 * X1 - 3 * X2 or pp == -(2 * X1 - 3 * X2)
        assert pp.leading()[1] > 0


class TestSubstitute:
    def test_binomial_identity(self):
        ring = ("x",)
        x = MultiPoly.variable(ring, "x")
        target = ("a", "b")
        a = MultiPoly.variable(target, "a")
        b = MultiPoly.variable(target, "b")
        out = poly_substitute(x**2, {"x": a + b})
        assert out == a**2 + 2 * a * b + b**2

    def test_empty_bindings_identity(self):
        p = X1**3 + X2
        assert poly_substitute(p, {}) == p

    def test_wave_cusp_expansion(self):
        # tau^2 - xi1^2 - xi2^2 under the phase substitution for x1^2 + x2^3
        ring = ("tau", "xi1", "xi2")
        tau = MultiPoly.variable(ring, "tau")
        xi1 = MultiPoly.variable(ring, "xi1")
        xi2 = MultiPoly.variable(ring, "xi2")
        p = tau**2 - xi1**2 - xi2**2
        PR = ("x1", "x2", "t", "z1", "z2")

        def v(n):
            return MultiPoly.variable(PR, n)

        x1, x2, t, z1, z2 = (v(n) for n in PR)
        gF = [2 * z1, 3 * z2**2]
        tau_img = (x1 - z1) * gF[0] + (x2 - z2) * gF[1]
        out = poly_substitute(
            p, {"tau": tau_img, "xi1": t * gF[0], "xi2": t * gF[1]}
        )
        hand = (
            2 * x1 * z1 + 3 * x2 * z2**2 - 2 * z1**2 - 3 * z2**3
        ) ** 2 - t**2 * (4 * z1**2 + 9 * z2**4)
        assert out == hand
        assert len(out.terms) == 12

    def test_collision_rejected(self):
        p = X1 * X2
        img = MultiPoly.variable(("a",), "a")
        with pytest.raises(RingMismatchError):
            poly_substitute(p, {"x1": img})  # x2 missing from target ring

    @settings(max_examples=60)
    @given(small_polys(), small_polys())
    def test_substitution_is_homomorphism(self, p, q):
        target = ("a", "b")
        a = MultiPoly.variable(target, "a")
        b = MultiPoly.variable(target, "b")
        bind = {"x1": a + b, "x2": a * b - b}
        assert poly_substitute(p * q, bind) == poly_substitute(p, bind) * poly_substitute(q, bind)
        assert poly_substitute(p + q, bind) == poly_substitute(p, bind) + poly_substitute(q, bind)


def _rational_polys(ring, max_exponent, max_terms):
    return st.dictionaries(
        st.tuples(*(st.integers(0, max_exponent) for _ in ring)),
        st.fractions(-9, 9, max_denominator=5),
        max_size=max_terms,
    ).map(lambda terms: MultiPoly(ring, terms))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_poly_substitute_is_the_reference_substitution(data):
    # each variable is unbound, or goes to zero, a rational constant or a
    # polynomial with rational coefficients; into the empty ring only
    # constants can go, and from it only the empty binding
    source = ("x1", "x2", "x3")
    source, target = data.draw(
        st.sampled_from([(source, ("a", *source)), (source, ()), ((), ())])
    )
    p = data.draw(_rational_polys(source, 3, 5))
    kinds = ["zero", "constant"] + (["unbound", "polynomial"] if target else [])
    constants = st.fractions(-5, 5, max_denominator=7)
    bindings = {}
    for v in source:
        kind = data.draw(st.sampled_from(kinds))
        if kind == "zero":
            bindings[v] = MultiPoly.zero(target)
        elif kind == "constant":
            bindings[v] = MultiPoly.constant(target, data.draw(constants))
        elif kind == "polynomial":
            bindings[v] = data.draw(_rational_polys(target, 2, 3))
    # with no binding the target ring is p's own
    ring = target if bindings else source
    assert poly_substitute(p, bindings) == substitute(p, bindings, ring)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pack_round_trips_and_adds_like_tuples(data):
    # fields up to 2^width - 1, the largest exponent a field of that width
    # admits, and sums that stay within it
    width = data.draw(st.integers(1, 12))
    top = (1 << width) - 1
    n = data.draw(st.integers(1, 6))
    a = data.draw(st.tuples(*[st.integers(0, top)] * n))
    b = tuple(data.draw(st.integers(0, top - x)) for x in a)
    for e in (a, b, (top,) * n):
        assert unpack(pack(e, width), width, n) == e
    assert pack(a, width) + pack(b, width) == pack(tuple(map(add, a, b)), width)
    # the last field is open: a tag of any size rides above the exponents
    tag = data.draw(st.integers(0, 10**9))
    assert unpack(pack(a + (tag,), width), width, n + 1) == a + (tag,)
    assert pack(a + (tag,), width) + pack(b + (0,), width) == pack(tuple(map(add, a, b)) + (tag,), width)


def _unpack_terms(terms, width, n=2):
    return {unpack(key, width, n): c for key, c in terms.items()}


def test_unpack_in_the_empty_ring():
    for bound in (0, 1, 100):
        width, guard = guarded_fields(bound, 0)
        assert pack((), width) == guard == 0
        assert unpack(pack((), width), width, 0) == ()


@settings(max_examples=150, deadline=None)
@given(rational_polys(max_exp=5), rational_polys(max_exp=5))
def test_packed_kernels_at_the_smallest_width(a, d):
    # the fields take the product's largest exponent plus the guard bit and
    # no more; product and quotient agree with MultiPoly's tuple arithmetic
    if a.is_zero() or d.is_zero():
        return
    A, B = a.integer_terms()[0], d.integer_terms()[0]
    AB = {e: int(c) for e, c in (MultiPoly(R2, A) * MultiPoly(R2, B)).terms.items()}
    bound = max(chain.from_iterable(AB))
    width, guard = guarded_fields(bound, 2)
    packed = _sum_of_products(((pack_terms(A, width), pack_terms(B, width), 1),), guard)
    assert _unpack_terms(packed, width) == AB
    assert _unpack_terms(exact_div_int(packed, pack_terms(B, width), guard), width) == A
    if bound:
        # one bit narrower, the largest exponent reaches the guard bit: a
        # factor does not pack, or the product raises
        narrow, guard = guarded_fields(bound >> 1, 2)
        with pytest.raises(OverflowError, match="guard bit"):
            _sum_of_products(((pack_terms(A, narrow), pack_terms(B, narrow), 1),), guard)


def test_exact_div_never_returns_a_quotient_past_its_fields(monkeypatch):
    # fields one bit too narrow: (x1 + x2)^2 does not fit, and the division
    # raises instead of dividing wrapped exponents
    narrow = poly.guarded_fields
    monkeypatch.setattr(poly, "guarded_fields", lambda bound, n: narrow(bound >> 1, n))
    with pytest.raises(OverflowError, match="guard bit"):
        ((X1 + X2) ** 2).exact_div(X1 + X2)


class TestGradedParts:
    def test_cusp_single_part(self):
        parts = weighted_graded_parts(X1**2 + X2**3, (3, 2))
        assert parts == [(6, X1**2 + X2**3)]

    def test_two_parts(self):
        parts = weighted_graded_parts(X1**2 + X2**2, (3, 2))
        assert [w for w, _ in parts] == [4, 6]
        assert parts[0][1] == X2**2

    def test_zero(self):
        assert weighted_graded_parts(MultiPoly.zero(R2), (3, 2)) == []

    @settings(max_examples=40)
    @given(small_polys())
    def test_parts_sum_to_input(self, p):
        parts = weighted_graded_parts(p, (3, 2))
        acc = MultiPoly.zero(R2)
        for _, q in parts:
            acc = acc + q
        assert acc == p


class TestRingAxioms:
    @settings(max_examples=50)
    @given(small_polys(), small_polys(), small_polys())
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)


def _assert_clean(p):
    """p equals its copy through the checked constructor and stores no zero coefficient."""
    assert type(p.ring) is tuple and p == MultiPoly(p.ring, p.terms)
    assert all(type(c) is Fraction and c for c in p.terms.values())


class TestResultsAreClean:
    @settings(max_examples=60)
    @given(
        rational_polys(),
        rational_polys(),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.integers(0, 3),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    def test_each_result_is_its_checked_copy(self, p, q, c, k, e):
        results = [p + q, p - q, -p, p * q, p**k, p.scale(c), p.mul_term(e, c), p * 2]
        results += [p - p, p + -p, p.partial("x1"), p.partial("x2")]
        for r in results:
            _assert_clean(r)

    @settings(max_examples=60)
    @given(rational_polys(), rational_polys())
    def test_equal_polynomials_hash_alike(self, p, q):
        assert p * q == q * p and hash(p * q) == hash(q * p)
        assert (p + q) - q == p and hash((p + q) - q) == hash(p)
        reordered = MultiPoly(R2, dict(reversed(p.terms.items())))
        assert reordered == p and hash(reordered) == hash(p)


def test_monomials_of_weight():
    out = monomials_of_weight((3, 2), 6)
    assert set(out) == {(2, 0), (0, 3)}
    assert monomials_of_weight((3, 2), 1) == []
    assert monomials_of_weight((3, 2), 0) == [(0, 0)]


def test_monomials_are_exponent_tuples():
    m = MultiPoly.from_monomial(R2, (1, 2))
    assert m.terms == {(1, 2): 1}
    assert m.total_degree() == 3
    assert weight((1, 2), (3, 2)) == 7
    with pytest.raises(ValueError):
        MultiPoly(R2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly.from_monomial(R2, (-1, 0))
