"""Exact multivariate polynomials over the rationals.

Coefficients are ``fractions.Fraction`` throughout; terms are stored sparsely
as a dict from exponent tuples to coefficients.  All operations are pure and
return new objects, so values can be shared freely across threads.

A monomial is its exponent tuple.  A monomial order is one key function on
exponent tuples under which the largest monomial sorts first: ``min`` under
the key finds a leading term, and a plain sort lists terms from the largest
down.  ``grevlex_descending`` is the default order, used for canonical
printing and for Groebner bases.

A ``MultiPoly`` is built one of two ways.  The checked constructor,
``MultiPoly(ring, terms)``, takes input from outside the class (the parser,
the JSON readers, a caller's dict): it coerces coefficients, drops zeros
and checks each exponent tuple.  ``MultiPoly._raw`` wraps a result that the
class's own arithmetic has already built clean, with no check.

The integer kernels run on packed monomials: ``pack``/``unpack`` turn an
exponent tuple into one int of fixed-width bit fields and back, so a
monomial product is one int add.  ``guarded_fields`` is the one width rule:
a proven exponent bound's bit length plus a guard bit that a field past the
bound sets.  A product or reduction term that sets a guard bit raises
OverflowError (in ``exact_div_int`` it proves the division inexact: ValueError).
``_sum_of_products`` is the one product and ``exact_div_int`` the one exact
division, heap-ordered; each caller packs once at entry and unpacks once at
exit: the Bareiss determinant (``detpoly.det_bareiss``),
``MultiPoly.exact_div``, ``product`` and ``pullback``.  The Groebner
reductions (``groebner``, which packs the order's fields above the
exponents) and the lattice reductions (``brieskorn``) pack in this layout
and width too; ``MultiPoly`` keeps tuple exponents.

``pullback`` is the one substitution, a ring map on integer rows over row
scales; ``poly_substitute`` is its 1 x 1 case, and the front pullback
(``wavefront``) and every curve restriction of a determinant
(``detpoly._curve_determinant``) call it on whole matrices.

``FloatPoly`` is the one float evaluation: a polynomial compiled once to
float coefficients and nonzero exponents, summed with ``math.fsum``.
``MultiPoly.eval_float`` and the level-set and ray sampling in ``oracle``
run on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import chain
from math import fsum, gcd, lcm, prod
from operator import gt, mul, or_
from typing import Callable, Mapping, Sequence

from .errors import RingMismatchError

Exponents = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def grevlex_descending(e: Exponents):
    """Graded reverse lexicographic order as a key: the largest monomial first."""
    return (-sum(e), e[::-1])


def weight(e: Exponents, weights: Sequence[int]) -> int:
    """The weighted degree sum_i weights[i] * e[i] of a monomial."""
    return sum(map(mul, weights, e))


def pack(e: Exponents, width: int) -> int:
    """The exponent tuple e as one int, e[i] in the bits from width * i up.

    Every field but the last must be below 2^width; the last one is open, so
    a tag (a basis index) may ride above the exponents.  While every field of
    a sum stays below 2^width, the sum of packed keys is the packed sum of
    the tuples: one integer add per exponent sum (the packed exponent vectors
    of Monagan and Pearce, 2007).
    """
    key = 0
    for x in reversed(e):
        key = (key << width) + x
    return key


def unpack(key: int, width: int, n: int) -> Exponents:
    """The n fields of a packed key, the last one open: the inverse of ``pack``."""
    if not n:
        return ()
    mask = (1 << width) - 1
    out = []
    for _ in range(n - 1):
        out.append(key & mask)
        key >>= width
    out.append(key)
    return tuple(out)


def guarded_fields(bound: int, n: int) -> tuple[int, int]:
    """The width of n packed fields for exponents up to a proven ``bound`` (its bit length
    and a guard bit on top: two fields below their guard bits add without a carry) and
    the mask of the n guard bits, one of which a field past the bound sets."""
    width = bound.bit_length() + 1
    return width, pack((1 << (width - 1),) * n, width)


def pack_terms(terms: Mapping[Exponents, int], width: int) -> dict[int, int]:
    """Terms on packed keys; OverflowError if an exponent reaches its field's guard bit."""
    if max(chain.from_iterable(terms), default=0) >> (width - 1):
        raise OverflowError(f"an exponent reaches the guard bit of {width}-bit fields")
    return {pack(e, width): c for e, c in terms.items()}


def exact_div_int(a: Mapping[int, int], d: Mapping[int, int], guard: int) -> dict[int, int]:
    """Exact quotient a / d of integer polynomials on packed keys ({key: int} dicts).

    Heap-ordered division (Monagan and Pearce, 2007) in the int order of the
    keys, a lex order (an exact quotient does not depend on it): each step
    pops the largest remainder key (negated in a min-heap; the popped keys
    strictly decrease, and a cancelled one is skipped) and cancels it with
    one quotient term times d.  The terms of a and d lie below the guard bits
    ``guard``; every quotient and remainder term of an exact division lies in
    the Newton polytope of a, so a popped key with a set guard bit raises
    ValueError, as does a leading exponent (e - lt sets a guard bit) or
    coefficient of d that does not divide the largest remainder term.
    """
    if not d:
        raise ZeroDivisionError("division by zero polynomial")
    lt = max(d)
    lc = d[lt]
    tail = [(e, c) for e, c in d.items() if e != lt]
    work = dict(a)
    heap = [-e for e in work]
    heapify(heap)
    q: dict[int, int] = {}
    while heap:
        e = -heappop(heap)
        c = work.pop(e, None)
        if c is None:
            continue
        if e & guard:
            raise ValueError("not exactly divisible: a remainder exponent leaves the degree box")
        shift = e - lt
        if shift & guard:
            raise ValueError("not exactly divisible: leading exponent does not divide")
        qc, r = divmod(c, lc)
        if r:
            raise ValueError("not exactly divisible: leading coefficient does not divide")
        q[shift] = qc
        for ge, gc in tail:
            te = ge + shift
            old = work.get(te)
            if old is None:
                work[te] = -qc * gc
                heappush(heap, -te)
            else:
                s = old - qc * gc
                if s:
                    work[te] = s
                else:
                    del work[te]
    return q


def _sum_of_products(triples, guard: int) -> dict[int, int]:
    """The sum of sign * x * y over (x, y, sign) triples of packed {key: int} dicts, one int
    add per monomial product; OverflowError if a term's guard bit (``guard``) is set."""
    out: dict = {}
    get = out.get
    for x, y, sign in triples:
        for e1, c1 in x.items():
            c1 *= sign
            for e2, c2 in y.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
    out = {e: v for e, v in out.items() if v}
    if reduce(or_, out, 0) & guard:
        raise OverflowError("a packed exponent reached its guard bit: its bound is wrong")
    return out


def product(factors: Sequence[Mapping[Exponents, int]], n: int) -> dict[Exponents, int]:
    """The product of {exponents: int} polynomials in n variables, on packed keys."""
    width, guard = guarded_fields(sum(max(chain.from_iterable(p), default=0) for p in factors), n)
    out = {0: 1}
    for p in factors:
        out = _sum_of_products(((out, pack_terms(p, width), 1),), guard)
    return {unpack(key, width, n): c for key, c in out.items()}


def _reduced(row: list[dict], scale: int) -> tuple[list[dict], int]:
    """An integer row and its scale divided by gcd(scale, content): the scale is then the
    lcm of the denominators of row / scale."""
    g = gcd(scale, *(c for p in row for c in p.values()))
    if g == 1:
        return row, scale
    return [{e: c // g for e, c in p.items()} for p in row], scale // g


def pullback(
    rows: Sequence[Sequence[Mapping[Exponents, int]]],
    scales: Sequence[int],
    images: Sequence[MultiPoly],
    ring: Sequence[str],
) -> tuple[list[list[dict[Exponents, int]]], list[int]]:
    """The matrix rows[i][j] / scales[i] with each variable y_l replaced by images[l].

    rows[i][j] is an {exponents: int} dict in the variables y_l, and the
    images are polynomials in ``ring``; the result is integer rows in
    ``ring`` over one scale per row, each scale the lcm of the denominators
    of its substituted row.  Each image y_l = g_l / d_l is split into
    integers once; one table of the powers g_l^k serves every entry, and
    each distinct monomial y^e is expanded once, from the expansion of its
    prefix.  Row i is scaled by prod_l d_l^D_il, with D_il its largest
    degree in y_l, which makes it integer over scales[i] * prod_l
    d_l^D_il, and then divided by the gcd of that scale and the row's
    content.
    """
    images = [g.integer_terms() for g in images]
    nvars, n = len(images), len(ring)
    highest = [max((e[l] for row in rows for p in row for e in p), default=0) for l in range(nvars)]
    # y^e has degree at most sum_l e_l * (largest exponent of g_l) in each variable of ring
    bound = sum(t * max(chain.from_iterable(g), default=0) for t, (g, _) in zip(highest, images))
    width, guard = guarded_fields(bound, n)
    one = {0: 1}
    powers = []  # powers[l][k] = g_l^k, packed
    for (g, _), top in zip(images, highest):
        table = [one]
        if top:  # g_l is within the bound only where y_l occurs
            g = pack_terms(g, width)
        for _ in range(top):
            table.append(_sum_of_products(((table[-1], g, 1),), guard))
        powers.append(table)
    expanded = {(0,) * nvars: one}

    def expand(e: Exponents) -> dict:
        """prod_l g_l^e_l, packed: the last nonzero power times the expansion of the
        rest, each prefix expanded once, the shortest first."""
        path = []  # e and its prefixes not yet expanded, the longest first
        prefix = e
        while prefix not in expanded:
            l = max(i for i, k in enumerate(prefix) if k)
            path.append((prefix, l))
            prefix = prefix[:l] + (0,) * (nvars - l)
        for f, l in reversed(path):
            rest = expanded[f[:l] + (0,) * (nvars - l)]
            expanded[f] = _sum_of_products(((rest, powers[l][f[l]], 1),), guard)
        return expanded[e]

    out_rows, out_scales = [], []
    for row, scale in zip(rows, scales):
        tops = [max((e[l] for p in row for e in p), default=0) for l in range(nvars)]
        # y^e = G_e / prod_l d_l^e_l, so the row scale leaves prod_l d_l^(D_il - e_l)
        cofactors = [[d ** (top - k) for k in range(top + 1)] for (_, d), top in zip(images, tops)]
        entries = []
        for p in row:
            out: dict = {}
            get = out.get
            for e, c in p.items():
                k = c * prod(map(list.__getitem__, cofactors, e))
                for e2, c2 in expand(e).items():
                    out[e2] = get(e2, 0) + k * c2
            entries.append({unpack(e, width, n): c for e, c in out.items() if c})
        entries, scale = _reduced(entries, scale * prod(table[0] for table in cofactors))
        out_rows.append(entries)
        out_scales.append(scale)
    return out_rows, out_scales


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    return Fraction(c)


class MultiPoly:
    """Sparse polynomial in an ordered tuple of named variables.

    ``ring`` is the variable-name tuple; ``terms`` maps exponent tuples to
    nonzero Fractions.  Equality is structural (same ring, same terms).
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Sequence[str], terms: Mapping[Exponents, Fraction] | None = None):
        self.ring = tuple(ring)
        clean: dict[Exponents, Fraction] = {}
        if terms:
            n = len(self.ring)
            for e, c in terms.items():
                c = _coerce(c)
                if c == 0:
                    continue
                e = tuple(e)
                if len(e) != n:
                    raise RingMismatchError(f"exponent tuple {e} does not match ring {self.ring}")
                if e and min(e) < 0:
                    raise ValueError(f"negative exponent {e}")
                if e not in clean:
                    clean[e] = c
                    continue
                s = clean[e] + c
                if s:
                    clean[e] = s
                else:
                    del clean[e]
        self.terms = clean

    @classmethod
    def _raw(cls, ring: tuple[str, ...], terms: dict[Exponents, Fraction]) -> "MultiPoly":
        """A result, unchecked: ``ring`` a tuple, ``terms`` nonzero Fractions on
        exponent tuples of its length, owned by the new polynomial."""
        out = cls.__new__(cls)
        out.ring, out.terms = ring, terms
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring: Sequence[str]) -> "MultiPoly":
        return cls(ring, {})

    @classmethod
    def constant(cls, ring: Sequence[str], c) -> "MultiPoly":
        c = _coerce(c)
        if c == 0:
            return cls.zero(ring)
        return cls(ring, {tuple([0] * len(ring)): c})

    @classmethod
    def variable(cls, ring: Sequence[str], name: str) -> "MultiPoly":
        ring = tuple(ring)
        i = ring.index(name)
        e = [0] * len(ring)
        e[i] = 1
        return cls(ring, {tuple(e): ONE})

    @classmethod
    def from_monomial(cls, ring: Sequence[str], e: Exponents, c=ONE) -> "MultiPoly":
        return cls(ring, {e: c})

    # -- basic predicates ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        z = tuple([0] * len(self.ring))
        return self.terms.get(z, ZERO)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, ZERO) + c
            if s == 0:
                res.pop(e, None)
            else:
                res[e] = s
        return MultiPoly._raw(self.ring, res)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, ZERO) - c
            if s == 0:
                res.pop(e, None)
            else:
                res[e] = s
        return MultiPoly._raw(self.ring, res)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        res: dict[Exponents, Fraction] = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = res.get(e, ZERO) + c1 * c2
                if s == 0:
                    res.pop(e, None)
                else:
                    res[e] = s
        return MultiPoly._raw(self.ring, res)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        c = _coerce(c)
        if c == 0:
            return MultiPoly.zero(self.ring)
        return MultiPoly._raw(self.ring, {e: c * v for e, v in self.terms.items()})

    def mul_term(self, e0: Exponents, c) -> "MultiPoly":
        c = _coerce(c)
        if c == 0:
            return MultiPoly.zero(self.ring)
        return MultiPoly._raw(
            self.ring, {tuple(x + y for x, y in zip(e, e0)): c * v for e, v in self.terms.items()}
        )

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.ring, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- structure -----------------------------------------------------

    def sorted_terms(self):
        """Terms in the canonical order, grevlex descending."""
        return sorted(self.terms.items(), key=lambda t: grevlex_descending(t[0]))

    def leading(self, key: Callable = grevlex_descending) -> tuple[Exponents, Fraction]:
        """The largest term under ``key``, a largest-first order key."""
        e = min(self.terms, key=key)
        return e, self.terms[e]

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        if not self.terms:
            return 0
        i = self.ring.index(var)
        return max((e[i] for e in self.terms), default=0)

    def variables_used(self) -> tuple[str, ...]:
        used = [False] * len(self.ring)
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used[i] = True
        return tuple(v for v, u in zip(self.ring, used) if u)

    def partial(self, var: str) -> "MultiPoly":
        i = self.ring.index(var)
        res: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            e2 = tuple(e2)
            s = res.get(e2, ZERO) + c * e[i]
            if s == 0:
                res.pop(e2, None)
            else:
                res[e2] = s
        return MultiPoly._raw(self.ring, res)

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive; 0 for the zero poly."""
        terms, den = self.integer_terms()
        return Fraction(gcd(*terms.values()), den)

    def integer_terms(self) -> tuple[dict[Exponents, int], int]:
        """Integer terms and the denominator d with self = terms / d."""
        d = lcm(*(c.denominator for c in self.terms.values()))
        return {e: c.numerator * (d // c.denominator) for e, c in self.terms.items()}, d

    def primitive_part(self) -> "MultiPoly":
        """Integer coprime coefficients, positive grevlex-leading coefficient."""
        if not self.terms:
            return self
        p = self.scale(1 / self.content())
        return -p if p.leading()[1] < 0 else p

    # -- evaluation ------------------------------------------------------

    def eval_exact(self, values: Mapping[str, Fraction]) -> Fraction:
        """Evaluate at a full rational point."""
        vals = [_coerce(values[v]) for v in self.ring]
        total = ZERO
        pw: list[dict[int, Fraction]] = [dict() for _ in self.ring]
        for e, c in self.terms.items():
            t = c
            for i, k in enumerate(e):
                if k:
                    cache = pw[i]
                    if k not in cache:
                        cache[k] = vals[i] ** k
                    t *= cache[k]
            total += t
        return total

    def eval_float(self, values: Mapping[str, float]) -> float:
        """Float value at ``values``: ``FloatPoly``'s formula."""
        return FloatPoly(self)([float(values[v]) for v in self.ring])

    def relabel(self, new_names: Sequence[str]) -> "MultiPoly":
        """Rename variables positionally (ring length unchanged)."""
        new_names = tuple(new_names)
        if len(new_names) != len(self.ring):
            raise RingMismatchError("relabel requires the same number of variables")
        return MultiPoly(new_names, self.terms)

    def rename_ring(self, new_ring: Sequence[str]) -> "MultiPoly":
        """Reinterpret this polynomial in a ring that contains all used variables.

        Variables are matched by name; missing ones must be unused.
        """
        new_ring = tuple(new_ring)
        pos = {v: i for i, v in enumerate(new_ring)}
        for v in self.variables_used():
            if v not in pos:
                raise RingMismatchError(f"variable {v} not present in target ring {new_ring}")
        res: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            e2 = [0] * len(new_ring)
            for i, x in enumerate(e):
                if x:
                    e2[pos[self.ring[i]]] = x
            res[tuple(e2)] = c
        return MultiPoly(new_ring, res)

    # -- division ------------------------------------------------------

    def exact_div(self, d: "MultiPoly") -> "MultiPoly":
        """Exact quotient self/d; raises ValueError if the division is not exact.

        With self = a / m and d = g * b / n, where a and b are integer
        polynomials and b is primitive, self/d = (a / b) * n / (m * g).  By
        Gauss's lemma a / b lies in Z[y] whenever it lies in Q[y], so the one
        kernel ``exact_div_int`` takes it, packed in fields for a's largest
        exponent: a b outside a's degree box, or any inexact division, fails.
        """
        self._check(d)
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        a, m = self.integer_terms()
        b, n = d.integer_terms()
        if not a:
            return MultiPoly.zero(self.ring)
        tops, r = [max(column) for column in zip(*a)], len(self.ring)
        if any(any(map(gt, e, tops)) for e in b):
            raise ValueError("not exactly divisible: the divisor leaves the degree box")
        width, guard = guarded_fields(max(tops, default=0), r)
        g = gcd(*b.values())
        b = pack_terms({e: c // g for e, c in b.items()}, width)
        q = exact_div_int(pack_terms(a, width), b, guard).items()
        return MultiPoly(self.ring, {unpack(e, width, r): Fraction(c * n, m * g) for e, c in q})

    # -- printing --------------------------------------------------------

    def __repr__(self):
        return f"MultiPoly({self.pretty()})"

    def pretty(self) -> str:
        """Canonical printable form; the parser reads it back to this polynomial."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for v, k in zip(self.ring, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            mono = "*".join(factors)
            if not mono:
                frag = str(c)
            elif c == 1:
                frag = mono
            elif c == -1:
                frag = f"-{mono}"
            else:
                frag = f"{c}*{mono}"
            parts.append(frag)
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


class FloatPoly:
    """A polynomial compiled once for float evaluation: the one float formula.

    Each term keeps its float coefficient c and its nonzero (variable
    number, exponent) pairs in ring order.  At a point (floats in ring
    order) a term is c * v_i**k_i * ..., multiplied left to right, and the
    value is the ``math.fsum`` of the terms, which is exactly rounded and so
    independent of term order.  Leaving out a zero exponent is exact, since
    v**0 is 1.0 and x * 1.0 is x: the value is
    ``fsum(prod(map(pow, vals, e), start=float(c)))`` to the last bit.
    """

    __slots__ = ("terms",)

    def __init__(self, p: MultiPoly):
        self.terms = [
            (float(c), [(i, k) for i, k in enumerate(e) if k]) for e, c in p.terms.items()
        ]

    def __call__(self, vals: Sequence[float]) -> float:
        values = []
        for c, pairs in self.terms:
            for i, k in pairs:
                c *= vals[i] ** k
            values.append(c)
        return fsum(values)


def poly_substitute(p: MultiPoly, bindings: Mapping[str, MultiPoly]) -> MultiPoly:
    """Ring homomorphism sending each bound variable to its image polynomial.

    Unbound variables map to themselves; all images must share one target
    ring which also contains every unbound variable of ``p``.  A name shared
    between the target ring and a *bound* source variable is fine, but an
    untouched source variable colliding with nothing to receive it is an
    error surfaced by the ring check.  ``pullback`` of the 1 x 1 matrix
    [[p]] takes it.
    """
    for v in bindings:
        if v not in p.ring:
            raise RingMismatchError(f"bound variable {v} not in source ring {p.ring}")
    rings = {img.ring for img in bindings.values()} or {p.ring}
    if len(rings) > 1:
        raise RingMismatchError("images of bound variables live in different rings")
    [target] = rings
    images = []
    for v in p.ring:
        if v in bindings:
            images.append(bindings[v])
        elif v in target:
            images.append(MultiPoly.variable(target, v))
        else:
            raise RingMismatchError(f"unbound variable {v} missing from target ring {target}")
    terms, den = p.integer_terms()
    [[q]], [scale] = pullback([[terms]], [den], images, target)
    return MultiPoly(target, {e: Fraction(c, scale) for e, c in q.items()})


def weighted_graded_parts(p: MultiPoly, weights: Sequence[int]) -> list[tuple[int, MultiPoly]]:
    """Split into weighted-homogeneous parts, weights strictly increasing."""
    if len(weights) != len(p.ring):
        raise RingMismatchError("weight vector does not cover the ring")
    buckets: dict[int, dict[Exponents, Fraction]] = {}
    for e, c in p.terms.items():
        buckets.setdefault(weight(e, weights), {})[e] = c
    return [(w, MultiPoly(p.ring, buckets[w])) for w in sorted(buckets)]


def monomials_of_weight(weights: Sequence[int], target: int) -> list[Exponents]:
    """All exponent tuples with given positive weights summing to ``target``."""
    if target < 0:
        return []
    *head, last = weights
    partial = [((), target)]  # exponent prefixes and the weight they leave
    for w in head:
        partial = [(e + (k,), rem - k * w) for e, rem in partial for k in range(rem // w + 1)]
    out = [e + (rem // last,) for e, rem in partial if rem % last == 0]
    return sorted(out, key=grevlex_descending, reverse=True)
