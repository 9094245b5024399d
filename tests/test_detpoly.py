import os
import random
import time
from fractions import Fraction
from functools import partial
from itertools import permutations, product
from math import lcm, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lerayfront import detpoly
from lerayfront.detpoly import (
    _curve_determinant,
    _interpolate,
    _interpolate_line,
    _lower_set,
    _lower_set_size,
    _map_exponents,
    _row_scaled_entries,
    det_bareiss,
    det_poly_matrix,
    det_probed,
)
from lerayfront.errors import MismatchError, ResourceLimitError
from lerayfront.linalg import det_fraction, det_int
from lerayfront.poly import MultiPoly, pullback

from helpers import det_interpolate, integer_evaluator, probed, safe_bounds, substitute

RING = ("y1", "y2")
Y1 = MultiPoly.variable(RING, "y1")
Y2 = MultiPoly.variable(RING, "y2")
ONE = MultiPoly.constant(RING, 1)
ZERO = MultiPoly.zero(RING)


def test_diagonal():
    six_y = Y1.scale(6)
    M = [[six_y, ZERO], [ZERO, six_y]]
    assert det_poly_matrix(M) == Y1 * Y1 * 36


def test_symbolic_2x2():
    ring = ("a", "b", "c", "d")
    a, b, c, d = (MultiPoly.variable(ring, v) for v in ring)
    M = [[a, b], [c, d]]
    assert det_poly_matrix(M) == a * d - b * c
    assert det_interpolate(M, safe_bounds(M)[0]) == a * d - b * c


def _random_poly(rng, max_deg=2, ring=RING, max_den=1):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, max_deg) for _ in ring)
        num = rng.randint(-5, 5)
        terms[e] = Fraction(num, rng.randint(1, max_den) if max_den > 1 else 1)
    return MultiPoly(ring, terms)


def test_strategies_agree_random_4x4():
    rng = random.Random(42)
    M = [[_random_poly(rng) for _ in range(4)] for _ in range(4)]
    d1 = det_poly_matrix(M)
    d2 = det_interpolate(M, safe_bounds(M)[0])
    assert d1 == d2


def test_strategies_agree_on_rational_entries():
    # denominators up to 6 exercise the integer row scaling of the grid
    rng = random.Random(5)
    for _ in range(3):
        M = [[_random_poly(rng, max_den=6) for _ in range(3)] for _ in range(3)]
        assert det_interpolate(M, safe_bounds(M)[0]) == det_poly_matrix(M)


def test_strategies_agree_in_one_variable():
    rng = random.Random(9)
    ring = ("y",)
    M = [[_random_poly(rng, 3, ring, max_den=4) for _ in range(4)] for _ in range(4)]
    d = det_poly_matrix(M)
    assert det_interpolate(M, safe_bounds(M)[0]) == d
    assert d.ring == ring


def test_interpolate_in_the_constant_ring():
    three = MultiPoly.constant((), 3)
    assert det_interpolate([[three]], safe_bounds([[three]])[0]) == three


@pytest.mark.parametrize("ring", [(), ("y",), ("a", "b", "c"), ("a", "b", "c", "d")], ids=len)
def test_grid_values_match_determinants_of_evaluated_entries(ring):
    # axes of uneven lengths, one with a negative value, catch a walk that
    # swaps or reverses axes; the zero entry has no coefficients to walk;
    # the lower set with costs 2, 1, 2, 1 and budget 3 cuts the grid
    rng = random.Random(len(ring))
    M = [[_random_poly(rng, 2, ring, max_den=6) for _ in range(3)] for _ in range(3)]
    M[1][2] = MultiPoly.zero(ring)
    axes = [range(-1, 2 + k) for k in range(len(ring))]
    evaluator, scale = integer_evaluator(M)
    values = [det_int(mats[0]) for mats in evaluator.grid(axes)]
    points = list(product(*axes))
    assert len(values) == len(points) == prod(len(axis) for axis in axes)
    for point, value in zip(points, values):
        at = {v: Fraction(a) for v, a in zip(ring, point)}
        assert Fraction(value, scale) == det_fraction([[p.eval_exact(at) for p in row] for row in M])
    # a lower set of the same grid hands out the same values, in its order
    costs = [2 - k % 2 for k in range(len(ring))]
    kept = _lower_set([len(axis) for axis in axes], costs, 3)
    assert len(kept) < len(points) or not ring
    by_point = dict(zip(points, values))
    assert [det_int(mats[0]) for mats in evaluator.grid(axes, costs, 3)] == [
        by_point[tuple(axis[k] for axis, k in zip(axes, j))] for j in kept
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-40, 40), min_size=1, max_size=12, unique=True).flatmap(
        lambda nodes: st.tuples(
            st.just(nodes),
            st.lists(
                st.fractions(-50, 50, max_denominator=12), min_size=len(nodes), max_size=len(nodes)
            ),
        )
    )
)
def test_interp_1d_solves_the_vandermonde_system(case):
    # the lower-set kernel on one axis (divided differences, then the
    # Newton-to-monomial conversion) against Cramer's rule on
    # sum_j c_j nodes[i]^j = vals[i]
    nodes, vals = case
    b = len(vals) - 1
    den = lcm(*(v.denominator for v in vals))
    scaled, w = _interpolate_line([int(v * den) for v in vals], nodes)
    V = [[Fraction(x**j) for j in range(b + 1)] for x in nodes]
    det_V = det_fraction(V)
    coeffs = [
        det_fraction([row[:j] + [v] + row[j + 1 :] for row, v in zip(V, vals)]) / det_V
        for j in range(b + 1)
    ]
    assert [Fraction(c, den * w) for c in scaled] == coeffs


@pytest.mark.parametrize("seed", range(4))
def test_lower_set_kernel_recovers_random_coefficients(seed):
    # random integer coefficients on a lower set of uneven axes and costs,
    # evaluated at distinct integer nodes (negative ones too), come back
    # from the values; a fiber-wise Lagrange interpolation or a conversion
    # before every axis's differences would not
    rng = random.Random(seed)
    lengths, costs = [5, 4, 6], [2, 3, 1]
    points = _lower_set(lengths, costs, 9)
    assert len(points) == _lower_set_size(lengths, costs, 9) < prod(lengths)
    nodes = [rng.sample(range(-12, 13), n) for n in lengths]
    coefficients = {j: rng.randint(-50, 50) for j in points}
    terms = coefficients.items()
    values = [
        sum(c * prod(axis[k] ** e for axis, k, e in zip(nodes, j, exps)) for exps, c in terms)
        for j in points
    ]
    found, den = _interpolate(values, nodes, points)
    assert [Fraction(c, den) for c in found] == [coefficients[j] for j in points]


def _row_variable_matrix(rng, ring):
    """Row i's entries are polynomials in ring[i] alone, so the row bound of
    the total degree is the sum of the per-variable bounds."""
    return [
        [_random_poly(rng, 3, (v,), max_den=4).rename_ring(ring) for _ in ring] for v in ring
    ]


def test_lower_set_interpolation_matches_bareiss():
    # on the safe total-degree cut: random matrices whose lower set is
    # smaller than the degree box, and matrices where it cuts nothing
    rng = random.Random(17)
    ring = ("a", "b", "c")
    for _ in range(3):
        M = [[_random_poly(rng, 2, ring, max_den=4) for _ in range(4)] for _ in range(4)]
        bounds, top = safe_bounds(M)
        box = prod(b + 1 for b in bounds)
        assert _lower_set_size([b + 1 for b in bounds], [1, 1, 1], top) < box
        assert det_interpolate(M, bounds, top) == det_bareiss(M)
        M = _row_variable_matrix(rng, ring)
        bounds, top = safe_bounds(M)
        assert top == sum(bounds)
        box = prod(b + 1 for b in bounds)
        assert _lower_set_size([b + 1 for b in bounds], [1, 1, 1], top) == box
        assert det_interpolate(M, bounds, top) == det_bareiss(M)


@pytest.mark.parametrize("step", [1, 2])
def test_total_degree_bound_is_safe_on_sparse_matrices(step):
    # about half the entries zero, exponents multiples of step; the
    # row/column bound on entry total degrees is at least the determinant's
    rng = random.Random(step)
    ring = ("a", "b", "c")
    nonzero = 0
    for _ in range(30):
        n = rng.randint(2, 5)
        M = [
            [
                MultiPoly(ring, _map_exponents(_random_poly(rng, 3, ring).terms, mul, [step] * 3))
                .scale(rng.randint(0, 1))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        det = det_bareiss(M)
        if not det.is_zero():
            nonzero += 1
            assert safe_bounds(M)[1] >= det.total_degree()
    assert nonzero >= 10


def test_interpolation_grid_cap(monkeypatch):
    M = [[Y1 * Y2, ONE], [ONE, Y1 * Y2]]
    monkeypatch.setattr(detpoly, "GRID_MAX_POINTS", 9)
    assert det_interpolate(M, safe_bounds(M)[0]) == Y1**2 * Y2**2 - ONE
    monkeypatch.setattr(detpoly, "GRID_MAX_POINTS", 8)
    with pytest.raises(ResourceLimitError):
        det_interpolate(M, safe_bounds(M)[0])


def test_multiplicativity():
    rng = random.Random(7)
    for _ in range(3):
        A = [[_random_poly(rng, 1) for _ in range(2)] for _ in range(2)]
        B = [[_random_poly(rng, 1) for _ in range(2)] for _ in range(2)]
        AB = [
            [
                A[i][0] * B[0][j] + A[i][1] * B[1][j]
                for j in range(2)
            ]
            for i in range(2)
        ]
        assert det_poly_matrix(AB) == det_poly_matrix(A) * det_poly_matrix(B)


def _leibniz(M):
    """sum over permutations p of sign(p) * prod_i M[i][p(i)]."""
    n = len(M)
    total = MultiPoly.zero(M[0][0].ring)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = MultiPoly.constant(total.ring, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * M[i][j]
        total = total + term
    return total


def test_bareiss_matches_leibniz_on_row_scaled_matrices():
    # each row has its own denominators (2, 3, 5, 7 times a small factor), so
    # every row scale is more than 1; about a third of the entries are zero,
    # so zero pivots force row swaps, and some matrices get an all-zero row
    rng = random.Random(20)
    ring = ("a", "b")
    zero = MultiPoly.zero(ring)
    swapped = zero_rows = 0
    for trial in range(120):
        n = 1 + trial % 4
        M = [
            [
                zero if rng.random() < 0.35 else _random_poly(rng, 2, ring, 1).scale(
                    Fraction(1, (2, 3, 5, 7)[i] * rng.randint(1, 3))
                )
                for _ in range(n)
            ]
            for i in range(n)
        ]
        if n > 1 and trial % 5 == 0:
            M[0][0] = zero
        if trial % 7 == 0:
            M[rng.randrange(n)] = [zero] * n
            zero_rows += 1
        det = det_bareiss(M)
        assert det == _leibniz(M), M
        swapped += M[0][0].is_zero() and not det.is_zero()
    # a zero pivot after the first elimination step: m[1][1] = 1*1 - 1*1 = 0
    one = MultiPoly.constant(ring, Fraction(1, 3))
    a = MultiPoly.variable(ring, "a")
    M = [[one, one, zero], [one, one, a], [zero, one.scale(2), a]]
    assert det_bareiss(M) == _leibniz(M) == a.scale(Fraction(-2, 9))
    assert swapped >= 5 and zero_rows >= 10
    # exponents 2^k - 1 and 2^k on both sides of a field width boundary, so
    # the packed fields are at the smallest width their degree bound allows
    for trial in range(60):
        n, k = 1 + trial % 3, 1 + trial % 4
        M = [
            [
                MultiPoly(
                    ring,
                    {
                        tuple(rng.choice((0, 1, 2**k - 1, 2**k)) for _ in ring): rng.randint(-5, 5)
                        for _ in range(rng.randint(0, 3))
                    },
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        assert det_bareiss(M) == _leibniz(M), M


def test_bareiss_in_the_empty_ring():
    M = [[MultiPoly.constant((), c) for c in row] for row in ([2, 1], [3, 5])]
    assert det_bareiss(M) == MultiPoly.constant((), 7)


def test_bareiss_guard_bit_raises_on_too_narrow_fields(monkeypatch):
    # a degree bound cut to a third makes the fields too narrow for some
    # products: a set guard bit raises and never yields a wrong determinant
    y = MultiPoly.variable(("y",), "y")
    one = MultiPoly.constant(("y",), 1)
    bound = detpoly._row_col_bound
    monkeypatch.setattr(detpoly, "_row_col_bound", lambda M, degree: bound(M, degree) // 3)
    # the bound 8 becomes 2: 4-bit fields hold y^4, and y^4 * y^4 sets the guard bit
    with pytest.raises(OverflowError, match="guard bit"):
        det_bareiss([[y**4, one], [one, y**4]])
    rng = random.Random(38)
    ring = ("a", "b")
    raised = 0
    for trial in range(60):
        n = 2 + trial % 2
        M = [[_random_poly(rng, 3, ring) for _ in range(n)] for _ in range(n)]
        try:
            det = det_bareiss(M)
        except OverflowError:
            raised += 1
            continue
        assert det == _leibniz(M), M
    assert 20 <= raised <= 50


def test_zero_column():
    M = [[ZERO, Y1], [ZERO, Y2]]
    assert det_poly_matrix(M).is_zero()


def test_row_swap_pivoting():
    M = [[ZERO, ONE], [ONE, ZERO]]
    assert det_poly_matrix(M) == -ONE


def test_rejects_non_square():
    with pytest.raises(ValueError):
        det_poly_matrix([[ONE, ONE]])


SOURCE = ("y0", "y1", "y2", "y3")
TARGET = ("x", "t")


def _sparse_polys(ring, max_exponent, max_terms):
    return st.dictionaries(
        st.tuples(*(st.integers(0, max_exponent) for _ in ring)),
        st.fractions(-9, 9, max_denominator=6),
        max_size=max_terms,
    ).map(lambda terms: MultiPoly(ring, terms))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_sparse_polys(SOURCE, 2, 4), min_size=9, max_size=9),
    st.fractions(-5, 5, max_denominator=7),
    st.lists(_sparse_polys(TARGET, 2, 3), min_size=2, max_size=2),
)
def test_pullback_is_the_row_scaled_substitution(entries, s, images):
    # y0 goes to a constant (a numeric s), y1 to zero (as in case 2), y2
    # and y3 to polynomials with rational coefficients; entry (0, 1) is
    # (y0 - s) * p, which cancels to zero once y0 = s
    bindings = {
        "y0": MultiPoly.constant(TARGET, s),
        "y1": MultiPoly.zero(TARGET),
        "y2": images[0],
        "y3": images[1],
    }
    M = [entries[3 * i : 3 * i + 3] for i in range(3)]
    y0 = MultiPoly.variable(SOURCE, "y0")
    M[0][1] = (y0 - MultiPoly.constant(SOURCE, s)) * M[0][1]
    substituted = [[substitute(e, bindings, TARGET) for e in row] for row in M]
    rows, scales = pullback(*_row_scaled_entries(M), [bindings[v] for v in SOURCE], TARGET)
    assert (rows, scales) == _row_scaled_entries(substituted)
    assert rows[0][1] == {}
    det, _ = det_probed(rows, scales, TARGET, seed=1)
    assert det == det_bareiss(substituted)


def _integer_polys(ring, max_exponent, max_terms):
    return st.dictionaries(
        st.tuples(*(st.integers(0, max_exponent) for _ in ring)),
        st.integers(-9, 9).filter(bool),
        max_size=max_terms,
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_curve_determinant_is_the_substituted_bareiss_determinant(data):
    # integer rows over row scales, restricted to an axis line (one variable
    # to tau, the others to integers) or to a curve y_l = p_l + q_l * tau^2,
    # sometimes with one variable sent to zero
    ring = SOURCE[:3]
    n = data.draw(st.integers(1, 3))
    row = st.lists(_integer_polys(ring, 2, 3), min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=n, max_size=n))
    scales = data.draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    line = ("tau",)
    tau = MultiPoly.variable(line, "tau")
    if data.draw(st.booleans()):
        images = [MultiPoly.constant(line, data.draw(st.integers(-9, 19))) for _ in ring]
        images[data.draw(st.integers(0, len(ring) - 1))] = tau
    else:
        pq = st.fractions(-9, 9, max_denominator=4)
        images = [MultiPoly.constant(line, data.draw(pq)) + tau**2 * data.draw(pq) for _ in ring]
    zero = data.draw(st.integers(-1, len(ring) - 1))
    if zero >= 0:
        images[zero] = MultiPoly.zero(line)
    coefficients, den = _curve_determinant(rows, scales, images)
    M = [
        [MultiPoly(ring, {e: Fraction(c, s) for e, c in p.items()}) for p in r]
        for r, s in zip(rows, scales)
    ]
    on_curve = [[substitute(p, dict(zip(ring, images)), line) for p in r] for r in M]
    det = MultiPoly(line, {(j,): Fraction(c, den) for j, c in enumerate(coefficients)})
    assert det == det_bareiss(on_curve)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _abc_matrix(seed):
    rng = random.Random(seed)
    return [[_random_poly(rng, 2, ("a", "b", "c"), max_den=4) for _ in range(4)] for _ in range(4)]


def _overstate_valuations(monkeypatch):
    """Make the probes report each variable of nonzero degree with valuation one
    too high: grid values that prod node^v does not divide send det_probed to
    the safe grid."""
    probe = detpoly._probe_degrees

    def overstated(*args):
        degrees, valuations, steps = probe(*args)
        return degrees, [v + 1 if b else v for v, b in zip(valuations, degrees)], steps

    monkeypatch.setattr(detpoly, "_probe_degrees", overstated)


class TestShares:
    """The grid's and the curves' determinants taken in forked shares give the
    values, the determinant and the record of one share in this process."""

    @pytest.fixture
    def shares(self, monkeypatch):
        """Each call runs first with one share, then with three CPUs and no least
        work, so that every list of two or more items splits; the share counts
        ``_run_shares`` got in the second run are kept in ``shares.taken``."""
        monkeypatch.setattr(detpoly, "SHARE_MIN_WORK", 1)
        run = detpoly._run_shares
        taken = []

        def counting(jobs):
            taken.append(len(jobs))
            return run(jobs)

        monkeypatch.setattr(detpoly, "_run_shares", counting)

        def both(f, *args):
            monkeypatch.setattr(detpoly, "_cpus", lambda: 1)
            taken.clear()
            one = f(*args)
            assert set(taken) == {1}
            taken.clear()
            monkeypatch.setattr(detpoly, "_cpus", lambda: 3)
            return one, f(*args)

        both.taken = taken
        return both

    @pytest.mark.parametrize("ring", [(), ("y",), ("a", "b"), ("a", "b", "c")], ids=len)
    def test_grid_values(self, shares, ring):
        rng = random.Random(len(ring) + 20)
        M = [[_random_poly(rng, 2, ring, max_den=4) for _ in range(4)] for _ in range(4)]
        evaluator, _ = integer_evaluator(M)
        bounds, top = safe_bounds(M)
        exponents = [range(b + 1) for b in bounds]
        for costs, budget in (([0] * len(ring), 0), ([1] * len(ring), top)):
            one, split = shares(detpoly._interpolate_grid, evaluator, exponents, costs, budget)
            assert split == one
        if ring:
            assert max(shares.taken) == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_det_probed_and_its_record(self, shares, seed):
        M = _abc_matrix(seed)
        one, split = shares(probed, M, seed)
        assert split == one
        assert split[0] == det_bareiss(M)
        assert shares.taken.count(3) >= 2  # the grid and at least the probe lines
        _no_child_left()

    def test_indivisible_value_falls_back(self, shares, monkeypatch):
        _overstate_valuations(monkeypatch)
        M = _abc_matrix(11)
        one, split = shares(probed, M, 2)
        assert split == one
        assert split[1]["fallback"] is True
        assert split[0] == det_bareiss(M)

    def test_none_in_any_share_is_none(self, shares):
        for bad in range(3):
            block = lambda a, b: None if a <= bad < b else list(range(a, b))  # noqa: E731
            assert shares(detpoly._in_shares, block, [1] * 6, 1) == (None, None)
        block = lambda a, b: list(range(a, b))  # noqa: E731
        assert shares(detpoly._in_shares, block, [1] * 6, 1) == (list(range(6)),) * 2
        assert shares.taken == [3]

    def test_flagship_front(self, shares, wave_cusp_pipeline):
        # the pinned digest of phi, on one share and on three
        from test_acceptance import WAVE_CUSP_DIGEST, digest

        from lerayfront.wavefront import front_polynomial

        data, icis = wave_cusp_pipeline["data"], wave_cusp_pipeline["icis"]
        one, split = shares(
            lambda: front_polynomial(data, icis, s_value=Fraction(1), seed=0)
        )
        assert digest(one.phi) == digest(split.phi) == WAVE_CUSP_DIGEST
        assert split.strategy == one.strategy
        assert shares.taken == [3, 2, 3]  # probe lines, the two curves, the grid
        _no_child_left()


class TestRunShares:
    def test_a_failed_child_share_runs_here(self):
        parent = os.getpid()

        def job(k):
            if os.getpid() != parent:
                os._exit(3)
            return [k, parent]

        assert detpoly._run_shares([partial(job, k) for k in range(3)]) == [
            [k, parent] for k in range(3)
        ]
        _no_child_left()

    def test_failed_child_shares_of_det_probed_give_its_result(self, monkeypatch):
        # every determinant taken in a child ends it with exit code 5, so
        # every child's share runs again here
        M = _abc_matrix(3)
        serial = probed(M, 1)
        parent = os.getpid()
        monkeypatch.setattr(detpoly, "_cpus", lambda: 2)
        monkeypatch.setattr(detpoly, "SHARE_MIN_WORK", 1)
        monkeypatch.setattr(
            detpoly, "det_int", lambda m: det_int(m) if os.getpid() == parent else os._exit(5)
        )
        assert probed(M, 1) == serial
        _no_child_left()

    def test_the_serial_exception_is_raised(self):
        jobs = [lambda: 1, lambda: 1 / 0, lambda: [][0]]
        with pytest.raises(ZeroDivisionError):
            detpoly._run_shares(jobs)
        _no_child_left()

    def test_children_are_reaped_when_this_share_raises(self):
        # the children still running are killed, not waited for
        start = time.monotonic()
        with pytest.raises(ZeroDivisionError):
            detpoly._run_shares([lambda: 1 / 0, lambda: time.sleep(60)])
        assert time.monotonic() - start < 30
        _no_child_left()

    def test_det_probed_leaves_no_child_when_it_raises(self, monkeypatch):
        # the safe grid, which the cap refuses, runs after the probes and the
        # probed grid ran in shares
        _overstate_valuations(monkeypatch)
        M = _abc_matrix(11)
        monkeypatch.setattr(detpoly, "_cpus", lambda: 2)
        monkeypatch.setattr(detpoly, "SHARE_MIN_WORK", 1)
        monkeypatch.setattr(detpoly, "GRID_MAX_POINTS", probed(M, 2)[1]["grid_points"])
        with pytest.raises(MismatchError, match="safe bounds exceed the grid cap"):
            probed(M, 2)
        _no_child_left()
