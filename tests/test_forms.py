from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lerayfront.errors import RingMismatchError
from lerayfront.forms import (
    DiffForm,
    contract_euler,
    d_of_poly,
    exterior_d,
    wedge,
)
from lerayfront.poly import MultiPoly, weight

from helpers import d_variable

RING = ("u1", "u2")
E32 = (3, 2)
U1 = MultiPoly.variable(RING, "u1")
U2 = MultiPoly.variable(RING, "u2")
DU1 = d_variable(RING, "u1")
DU2 = d_variable(RING, "u2")


def small_forms(ring=RING, degree=1):
    n = len(ring)
    from itertools import combinations

    idxsets = list(combinations(range(n), degree))
    exps = st.tuples(*[st.integers(0, 3) for _ in ring])

    def build(entries):
        comps = {}
        for i, (e, c) in enumerate(entries):
            idx = idxsets[i % len(idxsets)]
            p = MultiPoly(ring, {e: Fraction(c)})
            comps[idx] = comps.get(idx, MultiPoly.zero(ring)) + p
        return DiffForm(ring, degree, comps)

    return st.lists(st.tuples(exps, st.integers(-5, 5)), max_size=4).map(build)


RING3 = ("u1", "u2", "u3")


def _assert_clean(f):
    """f equals its copy through the checked constructor and stores no zero component."""
    assert type(f.ring) is tuple and f == DiffForm(f.ring, f.degree, f.components)
    assert not any(p.is_zero() for p in f.components.values())


class TestResultsAreClean:
    @settings(max_examples=60)
    @given(
        st.data(),
        st.integers(0, 3),
        st.integers(0, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * 3),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            max_size=3,
        ),
    )
    def test_each_result_is_its_checked_copy(self, data, k, l, c, terms):
        f, g = data.draw(small_forms(RING3, k)), data.draw(small_forms(RING3, k))
        h = data.draw(small_forms(RING3, l))
        results = [f + g, f - g, f - f, f + f.scale(-1), f.scale(c), f.scale(0)]
        results += [f.mul_poly(MultiPoly(RING3, terms)), wedge(f, h), wedge(f, f)]
        results += [exterior_d(f), exterior_d(exterior_d(f)), contract_euler(f, (3, 2, 1))]
        for r in results:
            _assert_clean(r)


class TestWedge:
    def test_square_is_zero(self):
        assert wedge(DU1, DU1).is_zero()

    def test_anticommutes(self):
        assert wedge(DU1, DU2) == wedge(DU2, DU1).scale(-1)

    def test_coefficient_passes_through(self):
        lhs = wedge(DU1.mul_poly(U1), DU2)
        assert lhs == wedge(DU1, DU2).mul_poly(U1)

    def test_ambient_mismatch(self):
        other = d_variable(("v1", "v2"), "v1")
        with pytest.raises(RingMismatchError):
            wedge(DU1, other)

    @settings(max_examples=40)
    @given(small_forms(degree=1), small_forms(degree=1))
    def test_graded_anticommutativity(self, a, b):
        assert wedge(a, b) == wedge(b, a).scale((-1) ** (a.degree * b.degree))


class TestExteriorD:
    def test_d_of_variable(self):
        assert d_of_poly(U1) == DU1

    def test_d_of_product(self):
        out = exterior_d(DU2.mul_poly(U1))
        assert out == wedge(DU1, DU2)

    @settings(max_examples=40)
    @given(small_forms(degree=0))
    def test_dd_zero_functions(self, a):
        assert exterior_d(exterior_d(a)).is_zero()

    @settings(max_examples=40)
    @given(small_forms(degree=1))
    def test_dd_zero_one_forms(self, a):
        assert exterior_d(exterior_d(a)).is_zero()


class TestContraction:
    def test_definition(self):
        out = contract_euler(wedge(DU1, DU2), E32)
        expected = DU2.mul_poly(U1.scale(3)) - DU1.mul_poly(U2.scale(2))
        assert out == expected

    @settings(max_examples=40)
    @given(small_forms(degree=2))
    def test_contract_twice_zero(self, a):
        assert contract_euler(contract_euler(a, E32), E32).is_zero()

    def test_degree_zero_contracts_to_zero(self):
        f = DiffForm.function(U1)
        assert contract_euler(f, E32).is_zero()

    def test_cartan_formula_example(self):
        # a = u2 du1^du2 has weight 2 + 3 + 2 = 7
        a = wedge(DU1, DU2).mul_poly(U2)
        lhs = exterior_d(contract_euler(a, E32)) + contract_euler(exterior_d(a), E32)
        assert lhs == a.scale(7)

    @settings(max_examples=40)
    @given(small_forms(degree=1), st.integers(0, 3), st.integers(0, 3))
    def test_cartan_formula_homogeneous(self, base, e1, e2):
        # restrict to one weighted-homogeneous component
        mono = MultiPoly(RING, {(e1, e2): Fraction(1)})
        for idx, p in base.components.items():
            form = DiffForm(RING, 1, {idx: mono})
            # coefficient weight plus the weight of the leg du_i
            w = weight((e1, e2), E32) + sum(E32[i] for i in idx)
            lhs = exterior_d(contract_euler(form, E32)) + contract_euler(
                exterior_d(form), E32
            )
            assert lhs == form.scale(w)
            break

    def test_euler_relation_for_quasihomogeneous(self):
        F = U1**2 + U2**3
        out = contract_euler(d_of_poly(F), E32)
        assert out == DiffForm.function(F.scale(6))

