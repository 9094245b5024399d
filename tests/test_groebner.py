import importlib
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lerayfront.errors import ResourceLimitError
from lerayfront.groebner import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    MonomialOrder,
    eliminate,
    groebner,
    normal_form,
    _isolated,
    _Packing,
    _reduce,
    _spoly,
    standard_monomials,
)
from lerayfront.oracle import critical_locus_eliminant
from lerayfront.parser import parse_poly
from lerayfront.poly import MultiPoly, monomials_of_weight, unpack, weight

groebner_module = importlib.import_module("lerayfront.groebner")

R = ("x1", "x2")
R3 = ("x1", "x2", "x3")
X1 = MultiPoly.variable(R, "x1")
X2 = MultiPoly.variable(R, "x2")


class TestGroebner:
    def test_already_basis(self):
        ring = ("x", "y")
        x = MultiPoly.variable(ring, "x")
        y = MultiPoly.variable(ring, "y")
        gb = groebner([x**2, y], LEX)
        assert sorted(p.pretty() for p in gb.generators) == ["x^2", "y"]

    def test_cusp_critical_ideal(self):
        gb = groebner([2 * X1, 3 * X2**2, X1**2 + X2**3], GREVLEX)
        lts = {p.leading()[0] for p in gb.generators}
        assert lts == {(1, 0), (0, 2)}
        assert [p.pretty() for p in gb.generators] == ["x1", "x2^2"]

    def test_unit_ideal(self):
        one = MultiPoly.constant(R, 1)
        gb = groebner([X1 - one, X1], GREVLEX)
        assert [p.pretty() for p in gb.generators] == ["1"]

    def test_generators_reduce_to_zero(self):
        gens = [X1**2 + X2**3, 2 * X1 * X2, X2**4 - X1]
        gb = groebner(gens, GREVLEX)
        for g in gens:
            assert normal_form(g, gb).is_zero()

    def test_pair_cap(self):
        with pytest.raises(ResourceLimitError):
            groebner([X1**2 + X2**3, X1 * X2**2 - X1], max_pairs=1)


class TestStaircase:
    def test_cusp(self):
        gb = groebner([X1, X2**2], GREVLEX)
        sc = standard_monomials(gb)
        assert sc.finite
        assert sc.monomials == [(0, 0), (0, 1)]
        assert sc.dimension == 2

    def test_infinite(self):
        gb = groebner([X1**2], GREVLEX)
        sc = standard_monomials(gb)
        assert not sc.finite
        assert sc.witness_variable == "x2"

    def test_unit_ideal_empty(self):
        gb = groebner([MultiPoly.constant(R, 1)], GREVLEX)
        sc = standard_monomials(gb)
        assert sc.finite and sc.dimension == 0

    @pytest.mark.parametrize(
        "gens,expected",
        [
            ([2 * X1, 3 * X2**2, X1**2 + X2**3], 2),
            ([2 * X1, 5 * X2**4, X1**2 + X2**5], 4),
            ([X1**3 - X2, X2**2], 6),
        ],
    )
    def test_dimension_order_independent(self, gens, expected):
        for order in (GREVLEX, LEX):
            sc = standard_monomials(groebner(gens, order))
            assert sc.finite and sc.dimension == expected


class TestNormalForm:
    def test_member_reduces_to_zero(self):
        gb = groebner([X1, X2**2], GREVLEX)
        assert normal_form(X2**3, gb).is_zero()
        assert normal_form(X1 * X2 + X2**2, gb).is_zero()

    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-5, 5)
            ),
            max_size=4,
        )
    )
    def test_idempotent(self, terms):
        p = MultiPoly(R, {e: Fraction(c) for e, c in terms})
        gb = groebner([X1**2 - X2, X2**3], GREVLEX)
        r = normal_form(p, gb)
        assert normal_form(r, gb) == r

    def test_difference_in_ideal(self):
        gb = groebner([X1**2 - X2, X2**3], GREVLEX)
        p = X1**4 + X2 * X1
        r = normal_form(p, gb)
        assert normal_form(p - r, gb).is_zero()


class TestEliminate:
    def test_simple(self):
        ring = ("u", "y")
        u = MultiPoly.variable(ring, "u")
        y = MultiPoly.variable(ring, "y")
        out = eliminate([u**2 - y, 2 * u], ["u"])
        assert [p.pretty() for p in out] == ["y"]

    def test_zero_ideal(self):
        ring = ("u", "y")
        u = MultiPoly.variable(ring, "u")
        y = MultiPoly.variable(ring, "y")
        assert eliminate([u - y], ["u"]) == []

    def test_cusp_critical_value(self):
        ring = ("u1", "u2", "y")
        u1 = MultiPoly.variable(ring, "u1")
        u2 = MultiPoly.variable(ring, "u2")
        y = MultiPoly.variable(ring, "y")
        out = eliminate([u1**2 + u2**3 - y, 2 * u1, 3 * u2**2], ["u1", "u2"])
        assert [p.pretty() for p in out] == ["y"]


UY = ("u1", "u2", "y1", "y2")


def block_eliminant(gens, k):
    """The old path of ``eliminate``, from public functions: the elements of the
    block-order basis free of the first k variables.  Small caps, since some
    random block-order ideals run away; None when one is hit."""
    try:
        gb = groebner(
            gens, MonomialOrder("block", split=k), max_pairs=40, max_degree=10, max_poly_terms=400
        )
    except ResourceLimitError:
        return None
    keep = gens[0].ring[k:]
    return [g.rename_ring(keep) for g in gb.generators if not any(any(e[:k]) for e in g.terms)]


def uy_polys(max_size, free=None):
    """Small polynomials in (u1, u2, y1, y2); with ``free`` set, u_free does not occur."""
    exponent = st.integers(0, 2)
    term = st.tuples(
        st.tuples(*(st.just(0) if j == free else exponent for j in range(4))),
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
    )
    return st.lists(term, min_size=0 if free is not None else 1, max_size=max_size).map(
        lambda ts: MultiPoly(UY, {e: Fraction(c) for e, c in ts})
    )


class TestLinearSubstitution:
    """Dropped variables given linearly by a generator are substituted away
    before Buchberger; the eliminant is the one the block order gives."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(uy_polys(3), min_size=1, max_size=3),
        st.integers(0, 1),
        st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool),
        st.data(),
    )
    def test_planted_linear_generator(self, gens, i, c, data):
        rest = data.draw(uy_polys(3, free=i))
        planted = MultiPoly.variable(UY, UY[i]).scale(c) + rest
        gens = [planted, *gens]
        expected = block_eliminant([g for g in gens if not g.is_zero()], 2)
        if expected is None:
            return  # past the reference's small caps
        assert eliminate(gens, ["u1", "u2"]) == expected

    @pytest.mark.parametrize("text", ["y*u + 1", "u + u*y", "u^2 + y", "u*y - 1"])
    def test_rule_does_not_fire(self, text, monkeypatch):
        ring = ("u", "y")
        u, y = (MultiPoly.variable(ring, v) for v in ring)
        g = parse_poly(text, ring=ring)
        gens = [g, u**3 - y**2 + u * y]
        expected = block_eliminant(gens, 1)

        def fired(*args):
            raise AssertionError("substituted")

        monkeypatch.setattr(groebner_module, "_substitute", fired)
        assert eliminate(gens, ["u"]) == expected

    def test_unit_ideal(self):
        ring = ("u", "y")
        u = MultiPoly.variable(ring, "u")
        out = eliminate([2 * u, u + MultiPoly.constant(ring, 1)], ["u"])
        assert out == [MultiPoly.constant(("y",), 1)]

    def test_no_dropped_variable_left(self):
        ring = ("u", "y")
        u, y = (MultiPoly.variable(ring, v) for v in ring)
        out = eliminate([u - y, u**2 - y], ["u"])
        assert [p.pretty() for p in out] == ["y^2 - y"]
        assert out[0].ring == ("y",)


def _finished_count(calls):
    """The final phase's ``_reduce`` calls: those after the last S-pair
    reduction, the only calls that pass a term cap."""
    n = 0
    for max_terms in reversed(calls):
        if max_terms is not None:
            break
        n += 1
    return n


class TestEliminationBlock:
    """Buchberger under ``eliminate`` finishes only the basis elements whose
    leading monomial is free of the drop block; the eliminant is the one the
    full reduced basis gives."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(uy_polys(3), min_size=1, max_size=3))
    def test_drop_block_survives(self, gens):
        gens = [g for g in gens if not g.is_zero()]
        assume(gens and not any(_isolated(g, i) for g in gens for i in range(2)))
        expected = block_eliminant(gens, 2)
        if expected is None:
            return  # past the reference's small caps
        assert eliminate(gens, ["u1", "u2"]) == expected

    def test_wave_parabola_finishes_one_element(self, wave_parabola_icis, monkeypatch):
        calls, runs = [], []
        reduce, run = groebner_module._reduce, groebner_module._groebner

        def counting(terms, heads, guard, max_terms=None):
            calls.append(max_terms)
            return reduce(terms, heads, guard, max_terms)

        def recording(gens, order, drop, *caps):
            runs.append((gens, order, drop))
            return run(gens, order, drop, *caps)

        monkeypatch.setattr(groebner_module, "_reduce", counting)
        monkeypatch.setattr(groebner_module, "_groebner", recording)
        out = critical_locus_eliminant(wave_parabola_icis)
        assert [len(p.terms) for p in out] == [288]
        assert _finished_count(calls) == 1
        [(gens, order, drop)] = runs
        assert (order, drop) == (MonomialOrder("block", split=1), 1)
        calls.clear()
        gb = groebner(gens, order)
        assert len(gb.generators) == 19
        assert _finished_count(calls) == 19
        free = [g for g in gb.generators if not any(e[0] for e in g.terms)]
        assert [g.rename_ring(wave_parabola_icis.y_names()) for g in free] == out

    def test_pair_cap(self, wave_parabola_icis):
        with pytest.raises(ResourceLimitError) as info:
            critical_locus_eliminant(wave_parabola_icis, max_pairs=3)
        assert (info.value.kind, info.value.limit) == ("pairs", 3)


def _sign(x):
    return (x > 0) - (x < 0)


def _lex_cmp(a, b):
    """Lex: the first exponent where a and b differ decides, the larger one wins."""
    return next((_sign(x - y) for x, y in zip(a, b) if x != y), 0)


def _grevlex_cmp(a, b):
    """Grevlex: the total degree decides, then the last exponent where they differ, smaller wins."""
    if sum(a) != sum(b):
        return _sign(sum(a) - sum(b))
    return next((_sign(y - x) for x, y in zip(a[::-1], b[::-1]) if x != y), 0)


def ascending(order):
    """A sort key, smallest monomial first, written out from the order's definition."""
    if order.kind == "lex":
        return cmp_to_key(_lex_cmp)
    if order.kind == "grevlex":
        return cmp_to_key(_grevlex_cmp)
    s = order.split
    return cmp_to_key(lambda a, b: _grevlex_cmp(a[:s], b[:s]) or _grevlex_cmp(a[s:], b[s:]))


def test_block_order_key():
    order = MonomialOrder("block", split=1)
    # (1, 0) > (0, 5) in the elimination block order: first block dominates
    assert ascending(order)((1, 0)) > ascending(order)((0, 5))
    assert sorted([(0, 5), (1, 0)], key=order.descending_key()) == [(1, 0), (0, 5)]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def reference_normal_form(p, gb, max_terms=None):
    """The full-scan reduction the heap kernel replaced, as the test oracle.

    Each step takes the largest working term by a ``max`` over all of them
    and cancels it with the first generator whose leading term divides it.
    The order is the test's own ``ascending`` key, not the kernel's.
    """
    key = ascending(gb.order)
    heads = []
    for g in gb.generators:
        lt = max(g.terms, key=key)
        heads.append((lt, g.terms[lt], g))
    rem, work = {}, dict(p.terms)
    while work:
        if max_terms is not None and len(work) + len(rem) > max_terms:
            raise ResourceLimitError("too many terms", kind="terms", limit=max_terms)
        e = max(work, key=key)
        c = work.pop(e)
        hit = next((h for h in heads if _divides(h[0], e)), None)
        if hit is None:
            rem[e] = c
            continue
        lt, lc, g = hit
        f = c / lc
        for ge, gc in g.terms.items():
            te = tuple(x + y - z for x, y, z in zip(ge, e, lt))
            if te == e:
                continue
            s = work.get(te, Fraction(0)) - f * gc
            if s == 0:
                work.pop(te, None)
            else:
                work[te] = s
    return MultiPoly(p.ring, rem)


def capped_normal_form(p, gb, cap):
    """``normal_form`` through the kernel with its term cap, as Buchberger's
    ``max_poly_terms`` reaches it."""
    terms, d = p.integer_terms()
    bound = max(g.total_degree() for g in [p, *gb.generators])
    while True:
        pk, heads = gb.packed_heads(bound)
        try:
            rem, m = _reduce({key(pk, e): c for e, c in terms.items()}, heads, pk.guard, cap)
        except OverflowError:
            bound = 4 ** bound.bit_length()
            continue
        return MultiPoly(p.ring, {exponents(pk, e): Fraction(c, d * m) for e, c in rem.items()})


def key(packing, e):
    """The packed key of the exponent tuple e."""
    return weight(e, packing.steps)


def exponents(packing, key):
    """The exponent tuple of a packed key."""
    return unpack(key, packing.width, packing.n + 1)[-2::-1]


def small_polys(max_size):
    term = st.tuples(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
    )
    return st.lists(term, min_size=1, max_size=max_size).map(
        lambda ts: MultiPoly(R3, {e: Fraction(c) for e, c in ts})
    )


ORDERS = [LEX, GREVLEX, MonomialOrder("block", split=1), MonomialOrder("block", split=2)]


class TestOrderKeys:
    """Every order's one largest-first key against the test's own definitions."""

    def test_orders_agree_with_their_definitions(self):
        rng = random.Random(19)
        ring = ("x1", "x2", "x3")
        grevlex = ascending(GREVLEX)

        def exponents(low=0):
            return tuple(rng.randint(low, 3) for _ in ring)

        for _ in range(40):
            p = MultiPoly(ring, {exponents(): 1 for _ in range(6)})
            assert [e for e, _ in p.sorted_terms()] == sorted(p.terms, key=grevlex, reverse=True)
            out = monomials_of_weight(exponents(low=1), rng.randint(0, 12))
            assert out == sorted(out, key=grevlex)
        for order in ORDERS:
            key = ascending(order)
            for _ in range(40):
                p = MultiPoly(ring, {exponents(): 1 for _ in range(6)})
                assert p.leading(order.descending_key())[0] == max(p.terms, key=key)
            for _ in range(10):
                # three pure powers make the staircase finite, inside the 4^3 box
                gens = [exponents() for _ in range(3)]
                gens += [tuple(rng.randint(1, 4) * (j == i) for j in range(3)) for i in range(3)]
                gb = GroebnerBasis([MultiPoly(ring, {e: 1}) for e in gens], order)
                below = standard_monomials(gb).monomials
                assert below == sorted(below, key=key)
                box = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
                assert set(below) == {e for e in box if not any(_divides(g, e) for g in gens)}


class TestReductionKernel:
    """The heap-ordered kernel against the full-scan reference, term for term."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(small_polys(3), min_size=1, max_size=3),
        st.lists(small_polys(6), min_size=1, max_size=3),
        st.sampled_from(ORDERS),
        st.integers(1, 12),
    )
    def test_matches_reference(self, gens, ps, order, cap):
        # Small caps: a few random ideals run for minutes under the defaults
        # as their coefficients grow.
        try:
            gb = groebner(gens, order, max_pairs=30, max_degree=8, max_poly_terms=300)
        except (ValueError, ResourceLimitError):
            return  # the zero ideal, or a basis past the small caps
        for p in ps + gens:
            assert normal_form(p, gb) == reference_normal_form(p, gb)
            # the term cap fires exactly where the reference's does
            try:
                expected = reference_normal_form(p, gb, max_terms=cap)
            except ResourceLimitError:
                with pytest.raises(ResourceLimitError):
                    capped_normal_form(p, gb, cap)
            else:
                assert capped_normal_form(p, gb, cap) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(small_polys(4), min_size=1, max_size=3), st.sampled_from(ORDERS))
    def test_unreduced_generators(self, gens, order):
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            return
        gb = GroebnerBasis(gens, order)
        p = sum(gens[1:], gens[0]) ** 2
        assert normal_form(p, gb) == reference_normal_form(p, gb)

    def test_remainder_scales_with_the_working_terms(self):
        # x1 moves to the remainder before x2 is cancelled by 2*x2 - x3
        ring = ("x1", "x2", "x3")
        x1, x2, x3 = (MultiPoly.variable(ring, v) for v in ring)
        gb = groebner([2 * x2 - x3], LEX)
        assert normal_form(x1 * x3 + x2, gb) == x1 * x3 + x3.scale(Fraction(1, 2))

    def test_term_cap(self):
        one = MultiPoly.constant(R, 1)
        gb = groebner([X1 - X2 - one], LEX)
        assert normal_form(X1**6, gb) == (X2 + one) ** 6
        with pytest.raises(ResourceLimitError) as err:
            capped_normal_form(X1**6, gb, 3)
        assert err.value.kind == "terms"
        assert err.value.limit == 3
        # the cap counts remainder terms too: x2^3 and x2^2 sit in the
        # remainder when x1 becomes x2 + 1
        gb = groebner([X1 - X2 - one], GREVLEX)
        assert len(capped_normal_form(X2**3 + X2**2 + X1, gb, 4).terms) == 4
        with pytest.raises(ResourceLimitError):
            capped_normal_form(X2**3 + X2**2 + X1, gb, 3)


# ORDERS, and the block orders with an empty first or second block
PACKED_ORDERS = ORDERS + [MonomialOrder("block", split=0), MonomialOrder("block", split=3)]


class TestPacking:
    """Packed monomials against the test's own order definitions, in the fields of the
    box's largest degree."""

    BOX = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]

    @pytest.mark.parametrize("order", PACKED_ORDERS, ids=repr)
    def test_packed_ints_order_divide_unpack_and_add(self, order):
        packing = _Packing(order, 3, 9)
        top = 2 ** (packing.width - 1)  # the guard bit of a field
        packed = {e: key(packing, e) for e in self.BOX}
        assert sorted(self.BOX, key=packed.get) == sorted(self.BOX, key=ascending(order))
        for a in self.BOX:
            assert exponents(packing, packed[a]) == a
            assert not packed[a] & packing.guard
            for b in self.BOX:
                divisible = not (packed[b] - packed[a]) & packing.guard
                assert divisible == _divides(a, b)
            for b in self.BOX[::7]:
                e = tuple(x + y for x, y in zip(a, b))
                total = packed[a] + packed[b]
                passes = max(order.fields(e) + list(e)) >= top
                assert bool(total & packing.guard) == passes
                if not passes:
                    assert total == key(packing, e)
                    assert exponents(packing, total) == e

    def test_the_fields_hold_the_bound(self):
        # grevlex (3, 3, 3) has degree 9: below the guard bits in the fields of
        # bound 9 (4 bits), past them in those of bound 7 (3 bits)
        for bound, fits in ((9, True), (7, False)):
            packing = _Packing(GREVLEX, 3, bound)
            assert bool(key(packing, (3, 3, 3)) & packing.guard) != fits


def _s_polynomial(f, g, key):
    """The S-polynomial of two polynomials in Fractions, their leading terms under key."""
    ef, eg = max(f.terms, key=key), max(g.terms, key=key)
    lcm = tuple(map(max, ef, eg))
    a = tuple(x - y for x, y in zip(lcm, ef))
    b = tuple(x - y for x, y in zip(lcm, eg))
    return f.mul_term(a, 1 / f.terms[ef]) - g.mul_term(b, 1 / g.terms[eg])


class TestReducedBasis:
    """Properties that pin the unique reduced basis, checked without the kernel."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(small_polys(3), min_size=1, max_size=3), st.sampled_from(PACKED_ORDERS))
    def test_reduced_basis(self, gens, order):
        try:
            gb = groebner(gens, order, max_pairs=30, max_degree=8, max_poly_terms=300)
        except (ValueError, ResourceLimitError):
            return  # the zero ideal, or a basis past the small caps
        key = ascending(order)
        leads = [max(g.terms, key=key) for g in gb.generators]
        for g, lt in zip(gb.generators, leads):
            assert g.terms[lt] == 1
        for i, g in enumerate(gb.generators):
            for j, lt in enumerate(leads):
                assert i == j or not any(_divides(lt, e) for e in g.terms)
        for p in gens:
            assert reference_normal_form(p, gb).is_zero()
        for i, f in enumerate(gb.generators):
            for g in gb.generators[i + 1 :]:
                assert reference_normal_form(_s_polynomial(f, g, key), gb).is_zero()


class TestOverflow:
    """A reduction past the starting width re-runs wider and returns the basis of a run
    that starts wide."""

    def run(self, monkeypatch, gens, order, **caps):
        """The basis and the field width of each packing the call made."""
        widths = []

        class Recorded(_Packing):
            def __init__(self, order, n, bound):
                super().__init__(order, n, bound)
                widths.append(self.width)

        monkeypatch.setattr(groebner_module, "_Packing", Recorded)
        return groebner(gens, order, **caps), widths

    @pytest.mark.parametrize("order", [LEX, MonomialOrder("block", split=1)], ids=repr)
    def test_reduction_past_the_starting_width(self, monkeypatch, order):
        ring = ("x1", "x2", "x3")
        x1, x2, x3 = (MultiPoly.variable(ring, v) for v in ring)
        gens = [x1 - x2**300, x1**2 - x3]
        # x1^2 reduces to x2^600, past the fields of degree 300 (9 bits and a guard bit)
        gb, widths = self.run(monkeypatch, gens, order)
        assert widths == [10, 20]
        assert gb.generators == [x2**600 - x3, x1 - x2**300]
        assert normal_form(x1**2, groebner([x1 - x2**300], order)) == x2**600
        wide, widths = self.run(monkeypatch, gens, order, max_degree=10**6)
        assert widths == [21]
        assert wide == gb

    def test_s_polynomial_past_the_width(self):
        # lex x1*x2^5 - x2^59 and x1^2*x2^2 - x2^62: the S-polynomial holds x2^65
        for bound, fits in ((63, False), (127, True)):
            packing = _Packing(LEX, 2, bound)
            f = (key(packing, (1, 5)), 1, [(key(packing, (0, 59)), -1)])
            g = (key(packing, (2, 2)), 1, [(key(packing, (0, 62)), -1)])
            lcm = key(packing, (2, 5))
            if fits:
                s = _spoly(f, g, lcm, packing.guard)
                assert {exponents(packing, e): c for e, c in s.items()} == {(1, 59): -1, (0, 65): 1}
            else:
                with pytest.raises(OverflowError, match="guard bit"):
                    _spoly(f, g, lcm, packing.guard)
