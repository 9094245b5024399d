"""Groebner bases over the rationals: Buchberger with Gebauer-Moeller pruning.

Desk-scale by design: ideals in at most a dozen variables.  Three caps
raise ResourceLimitError: ``MAX_PAIRS`` bounds the number of S-pairs
reduced (``eliminate`` takes its own count), ``MAX_DEGREE`` the total
degree of each S-pair's lcm, and ``MAX_POLY_TERMS`` the working plus
remainder terms of one S-polynomial's reduction.  None of them bounds time:
a reduction within all three can still run for minutes (a three-generator
ideal in 3 variables under a block order runs past 120 s with 200 pairs and
degree 12).

Every reduction (normal forms, S-polynomials, the input generators and the
final inter-reduction) runs one kernel, ``_reduce``: heap-ordered reduction
on packed monomials (Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", 2007).  Each basis element is
held as the head of its primitive integer multiple (leading term, leading
coefficient, tail), computed once; the working terms are integers over one
running denominator, so a reduction step makes no Fraction.

A packed monomial is one ``poly.pack`` key holding the order's linear
fields (``MonomialOrder.fields``) and then the exponents, most significant
first, so the exponents lie in the low fields, in fields from
``poly.guarded_fields`` of the largest degree a call starts from (for
``groebner`` the degree cap too).  Every field is linear, so the key is one
dot product with the keys of the unit vectors (``_Packing``); every field
is at most the total degree, so the inputs and the S-pair lcms pack with no
check.  A product is one int add, the larger int is the larger monomial,
and ``lt`` divides ``e`` exactly when ``e - lt`` has no guard bit set.  A
working term of a reduction with a guard bit set raises OverflowError and
the call re-runs with fields twice as wide, so no result depends on the
width: lex and block orders bound no degree.  Pair bookkeeping and
staircases read the exponent tuples back with ``poly.unpack``.

``eliminate`` first substitutes away every dropped variable z that a
generator gives as c*z + r, c a nonzero constant and z not in r: z becomes
-r/c in the other generators (``poly.pullback``) and leaves the ring.  The
quotient algebras over the kept variables are isomorphic, so the
elimination ideal is the same; its reduced basis in the keep block's
grevlex, which the substitution leaves alone, is unique (Cox, Little and
O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2 §7 and ch. 3 §1), so the
output is too.  Buchberger's main loop then runs as for ``groebner``, but
the final phase (drop the non-minimal leading terms, inter-reduce, make
monic) finishes only the elements whose leading monomial is free of the
dropped block: the block order puts that block first, so those elements are
free of it in every term, and a head holding a dropped variable divides no
such monomial.  They reduce to the remainders the full basis gives them,
and the rest would be thrown away (on wave/parabola 1 of 19 is finished).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, product
from math import gcd
from typing import Callable, Iterable, Sequence

from .errors import ResourceLimitError, RingMismatchError
from .poly import Exponents, MultiPoly, grevlex_descending, guarded_fields, pack, pullback
from .poly import unpack, weight

# A cached head: packed leading monomial, leading coefficient and the other
# packed terms of a primitive integer polynomial, leading coefficient > 0.
Head = tuple[int, int, list[tuple[int, int]]]

# Buchberger's caps: S-pairs reduced (eliminate's default), S-pair lcm
# degree and working terms of one reduction
MAX_PAIRS = 100_000
MAX_DEGREE = 60
MAX_POLY_TERMS = 30_000


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative well-order on monomials, given by linear fields.

    ``kind`` is one of ``lex``, ``grevlex``, ``block``; a block order compares
    the first ``split`` variables grevlex first (used for elimination).
    """

    kind: str = "grevlex"
    split: int = 0

    def fields(self, e: Exponents) -> list[int]:
        """Non-negative linear fields of e, most significant first: larger list, larger monomial.

        Lex is ``e_1, ..., e_n``; grevlex is ``deg, deg - e_n, ..., e_1``, one
        such group per block of a block order.
        """
        if self.kind == "lex":
            return list(e)
        if self.kind == "grevlex":
            blocks = (e,)
        elif self.kind == "block":
            blocks = (e[: self.split], e[self.split :])
        else:
            raise ValueError(f"unknown order kind {self.kind}")
        return [x for b in blocks for x in reversed(list(accumulate(b)))]

    def descending_key(self) -> Callable[[Exponents], object]:
        """Sort key under which the largest monomial comes first (a min-heap key)."""
        return lambda e: [-x for x in self.fields(e)]


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


class _Packing:
    """The packed keys of an order on n variables, in ``guarded_fields`` of ``bound``.

    The key of e holds the order's fields of e and then e, most significant
    first (``pack`` of that list reversed): it is ``weight(e, steps)``,
    steps[i] the key of the i-th unit vector, and
    ``unpack(key, width, n + 1)[-2::-1]`` is e.
    """

    def __init__(self, order: MonomialOrder, n: int, bound: int):
        self.order, self.n = order, n
        self.width, self.guard = guarded_fields(bound, n + len(order.fields((0,) * n)))
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        self.steps = [pack((order.fields(u) + list(u))[::-1], self.width) for u in units]


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _disjoint(a: Exponents, b: Exponents) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


@dataclass
class GroebnerBasis:
    generators: list[MultiPoly]
    order: MonomialOrder
    ring: tuple[str, ...] = field(default_factory=tuple)
    _packed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.generators and not self.ring:
            self.ring = self.generators[0].ring

    def leading_terms(self) -> list[Exponents]:
        key = self.order.descending_key()
        return [g.leading(key)[0] for g in self.generators]

    def packed_heads(self, bound: int) -> tuple[_Packing, list[Head]]:
        """The generators' heads in the fields of a degree bound, packed once per bound."""
        if bound not in self._packed:
            packing = _Packing(self.order, len(self.ring), bound)
            steps = packing.steps
            heads = [
                _head({weight(e, steps): c for e, c in g.integer_terms()[0].items()})
                for g in self.generators
            ]
            self._packed[bound] = packing, heads
        return self._packed[bound]


def _head(terms: dict[int, int]) -> Head:
    """The head of the primitive integer multiple, positive leading coefficient, of terms."""
    lt = max(terms)
    g = gcd(*terms.values())
    if terms[lt] < 0:
        g = -g
    return lt, terms[lt] // g, [(e, c // g) for e, c in terms.items() if e != lt]


def _reduce(
    terms: dict[int, int], heads: Sequence[Head], guard: int, max_terms: int | None = None
) -> tuple[dict[int, int], int]:
    """Full remainder of the packed terms modulo the heads, the largest term first.

    Returns ``(rem, m)``: ``rem / m`` is the remainder.  Each step pops the
    largest working term ``c x^e`` and cancels it with the first head ``L x^lt
    + tail`` whose leading monomial divides it (``e - lt`` clear of the
    ``guard`` bits): the working and remainder terms are multiplied by
    ``L / gcd(c, L)``, so that coefficients stay integers.  A term that no
    head divides moves to the remainder.  ``work`` holds the live terms; a
    monomial whose coefficient cancelled stays in the heap and is skipped
    when popped.  ``max_terms`` caps the working plus remainder term count.
    Raises OverflowError when a new working term has a guard bit set.
    """
    work = dict(terms)
    if not heads:
        return work, 1
    heap = [-e for e in work]
    heapify(heap)
    rem: dict[int, int] = {}
    scale = 1
    while heap:
        if max_terms is not None and len(work) + len(rem) > max_terms:
            raise ResourceLimitError(
                f"normal form exceeded {max_terms} working terms", kind="terms", limit=max_terms
            )
        e = -heappop(heap)
        c = work.pop(e, None)
        if c is None:
            continue
        for lt, lc, tail in heads:
            shift = e - lt
            if not shift & guard:
                break
        else:
            rem[e] = c
            continue
        g = gcd(c, lc)
        m, q = lc // g, c // g
        if m != 1:
            scale *= m
            work = {k: v * m for k, v in work.items()}
            rem = {k: v * m for k, v in rem.items()}
        for ge, gc in tail:
            te = ge + shift
            old = work.get(te)
            if old is None:
                if te & guard:
                    raise OverflowError("a working term reached its guard bit")
                work[te] = -q * gc
                heappush(heap, -te)
            else:
                s = old - q * gc
                if s:
                    work[te] = s
                else:
                    del work[te]
    return rem, scale


def normal_form(p: MultiPoly, gb: GroebnerBasis) -> MultiPoly:
    """Full remainder of p modulo the basis: no term divisible by a leading term."""
    if not gb.generators:
        return p
    terms, d = p.integer_terms()
    bound = max(g.total_degree() for g in [p, *gb.generators])
    while True:
        pk, heads = gb.packed_heads(bound)
        try:
            rem, m = _reduce({weight(e, pk.steps): c for e, c in terms.items()}, heads, pk.guard)
        except OverflowError:
            bound = 4 ** bound.bit_length()  # fields twice as wide
            continue
        out = {unpack(e, pk.width, pk.n + 1)[-2::-1]: Fraction(c, d * m) for e, c in rem.items()}
        return MultiPoly(p.ring, out)


def groebner(gens: Iterable[MultiPoly], order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis by Buchberger's algorithm.

    Pair pruning follows Gebauer-Moeller (lcm criteria and the coprime
    criterion).  Raises ResourceLimitError past ``MAX_PAIRS``, ``MAX_DEGREE``
    or ``MAX_POLY_TERMS``.  The basis is held as integer heads; each element
    is made monic over Q on output.
    """
    return _groebner(gens, order, 0, MAX_PAIRS)


def _groebner(gens, order, drop, max_pairs) -> GroebnerBasis:
    """``groebner`` with ``max_pairs`` S-pairs, finishing only the elements whose
    leading monomial is free of the first ``drop`` variables: all of them when
    ``drop`` is 0."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("empty generator list")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise RingMismatchError("generators live in different rings")
    bound = max(MAX_DEGREE, *(g.total_degree() for g in gens))
    while True:
        try:
            return _buchberger(gens, _Packing(order, len(ring), bound), drop, max_pairs)
        except OverflowError:
            bound = 4 ** bound.bit_length()  # fields twice as wide


def _buchberger(gens, packing: _Packing, drop, max_pairs) -> GroebnerBasis:
    """``_groebner`` in the fields of one packing; raises OverflowError past them."""
    guard, steps, width, nvars = packing.guard, packing.steps, packing.width, packing.n
    heads: list[Head] = []
    lts: list[Exponents] = []
    pairs: list[tuple[Exponents, int, int]] = []  # (lcm, i, j)

    def add_poly(terms: dict[int, int]):
        nonlocal pairs
        head = _head(terms)
        t = unpack(head[0], width, nvars + 1)[-2::-1]
        k = len(heads)
        # Gebauer-Moeller update of the pair set
        new_pairs = [(_lcm(lts[i], t), i, k) for i in range(k)]
        # drop old pairs whose lcm is a proper multiple of something involving t
        pairs = [
            (l, i, j)
            for (l, i, j) in pairs
            if not (_divides(t, l) and _lcm(lts[i], t) != l and _lcm(lts[j], t) != l)
        ]
        # prune among the new pairs: keep minimal lcms, drop coprime ones
        pruned: list[tuple[Exponents, int, int]] = []
        for (l, i, j) in sorted(new_pairs, key=lambda t3: grevlex_descending(t3[0]), reverse=True):
            if _disjoint(lts[i], t):
                continue
            if any(_divides(l2, l) for (l2, _, _) in pruned):  # a smaller or equal lcm
                continue
            pruned.append((l, i, j))
        pairs.extend(pruned)
        heads.append(head)
        lts.append(t)

    inputs = ({weight(e, steps): c for e, c in g.integer_terms()[0].items()} for g in gens)
    for terms in sorted(inputs, key=max):
        r = _reduce(terms, heads, guard)[0]
        if r:
            add_poly(r)

    processed = 0
    while pairs:
        pairs.sort(key=lambda t3: grevlex_descending(t3[0]))
        l, i, j = pairs.pop()
        processed += 1
        if processed > max_pairs:
            raise ResourceLimitError(
                f"Buchberger exceeded {max_pairs} S-pairs", kind="pairs", limit=max_pairs
            )
        if sum(l) > MAX_DEGREE:
            raise ResourceLimitError(
                f"S-pair lcm degree {sum(l)} exceeds cap {MAX_DEGREE}",
                kind="degree",
                limit=MAX_DEGREE,
            )
        s = _spoly(heads[i], heads[j], weight(l, steps), guard)
        s = _reduce(s, heads, guard, MAX_POLY_TERMS)[0]
        if s:
            add_poly(s)

    # finish the elements whose leading monomial is free of the first `drop`
    # variables: discard the redundant ones, then fully inter-reduce the rest
    free = [i for i, t in enumerate(lts) if not any(t[:drop])]
    kept = [
        i
        for i in free
        if not any(_divides(lts[j], lts[i]) for j in free if j != i and (lts[j] != lts[i] or j < i))
    ]
    reduced = []
    for n, i in enumerate(kept):
        lt, lc, tail = heads[i]
        others = [heads[j] for j in kept[:n] + kept[n + 1 :]]
        reduced.append(_reduce({lt: lc, **dict(tail)}, others, guard)[0])
    ring, out = gens[0].ring, []
    for r in sorted(filter(None, reduced), key=max):
        top = r[max(r)]
        terms = {unpack(e, width, nvars + 1)[-2::-1]: Fraction(c, top) for e, c in r.items()}
        out.append(MultiPoly(ring, terms))
    return GroebnerBasis(out, packing.order, ring)


def _spoly(f: Head, g: Head, l: int, guard: int) -> dict[int, int]:
    """An integer multiple of the S-polynomial of two heads whose leading monomials have lcm l."""
    ef, cf, f_tail = f
    eg, cg, g_tail = g
    c = gcd(cf, cg)
    mf, mg = cg // c, cf // c
    a, b = l - ef, l - eg
    out = {e + a: mf * v for e, v in f_tail}
    for e, v in g_tail:
        e += b
        s = out.get(e, 0) - mg * v
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    if any(e & guard for e in out):
        raise OverflowError("an S-polynomial term reached its guard bit")
    return out


@dataclass
class Staircase:
    """Monomials below the leading-term staircase of an ideal."""

    finite: bool
    monomials: list[Exponents] = field(default_factory=list)
    witness_variable: str | None = None

    @property
    def dimension(self) -> int:
        if not self.finite:
            raise ValueError("staircase is infinite")
        return len(self.monomials)


def standard_monomials(gb: GroebnerBasis) -> Staircase:
    """Monomials not divisible by any leading term.

    Finite exactly when every variable has a pure power among the leading
    terms; otherwise the witness variable of an unbounded ray is reported.
    """
    lts = gb.leading_terms()
    n = len(gb.ring)
    if any(sum(t) == 0 for t in lts):
        return Staircase(finite=True, monomials=[])  # unit ideal
    bounds: list[int | None] = [None] * n
    for t in lts:
        nz = [i for i, x in enumerate(t) if x]
        if len(nz) == 1:
            i = nz[0]
            b = t[i]
            if bounds[i] is None or b < bounds[i]:
                bounds[i] = b
    for i, b in enumerate(bounds):
        if b is None:
            return Staircase(finite=False, witness_variable=gb.ring[i])
    out = [e for e in product(*map(range, bounds)) if not any(_divides(t, e) for t in lts)]
    out.sort(key=gb.order.descending_key(), reverse=True)
    return Staircase(finite=True, monomials=out)


def _isolated(g: MultiPoly, i: int) -> bool:
    """Whether g = c*x_i + r, with c a nonzero constant and x_i absent from r."""
    unit = tuple(int(j == i) for j in range(len(g.ring)))
    return [e for e in g.terms if e[i]] == [unit]


def _substitute(gens: list[MultiPoly], n: int, i: int) -> list[MultiPoly]:
    """The generators but gens[n] = c*x_i + r, with x_i replaced by -r/c, in the ring without x_i.

    A zero image drops the terms that hold x_i; a nonzero one goes through
    ``pullback``, each image kept as an integer multiple of itself, which
    generates the same ideal.  Generators that become zero are left out.
    """
    g, others = gens[n], gens[:n] + gens[n + 1 :]
    ring = g.ring[:i] + g.ring[i + 1 :]
    c = next(v for e, v in g.terms.items() if e[i])
    rest = {e[:i] + e[i + 1 :]: -v / c for e, v in g.terms.items() if not e[i]}
    if not rest:
        out = [{e[:i] + e[i + 1 :]: v for e, v in h.terms.items() if not e[i]} for h in others]
    else:
        images = [MultiPoly.variable(ring, v) for v in ring]
        images.insert(i, MultiPoly(ring, rest))
        split = [h.integer_terms() for h in others]
        rows, _ = pullback([[t] for t, _ in split], [d for _, d in split], images, ring)
        out = [row[0] for row in rows]
    return [MultiPoly(ring, t) for t in out if t]


def eliminate(
    gens: Sequence[MultiPoly],
    drop: Sequence[str],
    max_pairs: int = MAX_PAIRS,
) -> list[MultiPoly]:
    """The reduced grevlex basis of the elimination ideal in the kept variables.

    First, while a generator is c*z + r with z a dropped variable, c a
    nonzero constant and z absent from r, that generator goes, z becomes
    -r/c in the others (``_substitute``) and leaves the ring.  This is an
    isomorphism of k[keep]-algebras k[z, rest]/I = k[rest]/I', so I and I'
    meet k[keep] in the same ideal.  Then Buchberger runs on what is left,
    in a block order with the remaining dropped variables in the front
    block; its elements free of them are the reduced basis of that ideal
    in the keep block's grevlex (the Elimination Theorem).  Only those are
    finished: an element whose leading monomial is free of the block is
    free of it in every term, and no head holding a dropped variable
    divides it, so each is the element the full reduced basis holds.  The
    keep block is untouched and a reduced basis is unique, so the output,
    re-rung to the kept variables, is the one the unsubstituted ideal gives.
    ``max_pairs`` counts the S-pairs of the substituted ideal.
    """
    if not gens:
        return []
    ring = gens[0].ring
    drop = list(drop)
    for v in drop:
        if v not in ring:
            raise RingMismatchError(f"cannot drop unknown variable {v}")
    keep = tuple(v for v in ring if v not in drop)
    gens = [g.rename_ring(drop + list(keep)) for g in gens if not g.is_zero()]
    while hit := next(
        ((n, i) for n, g in enumerate(gens) for i in range(len(drop)) if _isolated(g, i)), None
    ):
        gens = _substitute(gens, *hit)
        del drop[hit[1]]
    if not gens:
        return []
    k = len(drop)
    gb = _groebner(gens, MonomialOrder("block", split=k), k, max_pairs)
    return [g.rename_ring(keep) for g in gb.generators]
