"""Groebner bases over the rationals: Buchberger with Gebauer-Moeller pruning.

Desk-scale by design: ideals in at most a dozen variables.  Hard resource
caps (pair count, lcm degree) turn runaway eliminations into structured
errors instead of hangs.

Every reduction (normal forms, S-polynomials, the input generators and the
final inter-reduction) runs one kernel, ``_reduce``: heap-ordered reduction,
heads cached per basis element.  Each order has one key, under which the
largest monomial sorts first: ``min`` finds a leading term, and the working
terms sit in a min-heap under it, the key computed once per exponent as it
enters (Monagan and Pearce, "Polynomial division using dynamic arrays,
heaps, and packed exponent vectors", 2007).  Each basis element is held as
the head of its primitive integer multiple (leading term, leading
coefficient, tail), computed once, when it joins the basis; the working
terms are integers over one running denominator, so a reduction step makes
no Fraction.  Monomials are exponent tuples, staircases included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, le, neg
from typing import Callable, Iterable, Sequence

from .errors import ResourceLimitError, RingMismatchError
from .poly import Exponents, MultiPoly, grevlex_descending

# A cached head: leading exponent, leading coefficient and the remaining
# terms of a primitive integer polynomial with positive leading coefficient.
Head = tuple[Exponents, int, list[tuple[Exponents, int]]]


def _lex_descending(e: Exponents):
    return tuple(map(neg, e))


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative well-order on monomials, as a largest-first sort key.

    ``kind`` is one of ``lex``, ``grevlex``, ``block``; a block order compares
    the first ``split`` variables grevlex first (used for elimination).
    """

    kind: str = "grevlex"
    split: int = 0

    def descending_key(self) -> Callable[[Exponents], object]:
        """Sort key under which the largest monomial comes first (a min-heap key)."""
        if self.kind == "grevlex":
            return grevlex_descending
        if self.kind == "lex":
            return _lex_descending
        if self.kind == "block":
            s = self.split

            def block_descending(e: Exponents):
                return (grevlex_descending(e[:s]), grevlex_descending(e[s:]))

            return block_descending
        raise ValueError(f"unknown order kind {self.kind}")


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _sub(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x - y for x, y in zip(a, b))


def _disjoint(a: Exponents, b: Exponents) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


@dataclass
class GroebnerBasis:
    generators: list[MultiPoly]
    order: MonomialOrder
    ring: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.generators and not self.ring:
            self.ring = self.generators[0].ring

    def leading_terms(self) -> list[Exponents]:
        key = self.order.descending_key()
        return [g.leading(key)[0] for g in self.generators]


def _head(terms: dict[Exponents, int], key) -> Head:
    """The head of the primitive integer multiple, positive leading coefficient, of terms."""
    lt = min(terms, key=key)
    g = gcd(*terms.values())
    if terms[lt] < 0:
        g = -g
    return lt, terms[lt] // g, [(e, c // g) for e, c in terms.items() if e != lt]


def _reduce(
    terms: dict[Exponents, int],
    heads: Sequence[Head],
    key,
    max_terms: int | None = None,
) -> tuple[dict[Exponents, int], int]:
    """Full remainder of the terms modulo the heads, the largest term under ``key`` first.

    Returns ``(rem, m)``: ``rem / m`` is the remainder.  Each step pops the
    largest working term ``c x^e`` and cancels it with the first head ``L x^lt
    + tail`` whose leading exponent divides it: the working and remainder
    terms are multiplied by ``L / gcd(c, L)``, so that coefficients stay
    integers.  A term that no head divides moves to the remainder.  ``work``
    holds the live terms; an exponent whose coefficient cancelled stays in
    the heap and is skipped when popped.  ``max_terms`` caps the working plus
    remainder term count.
    """
    work = dict(terms)
    if not heads:
        return work, 1
    heap = [(key(e), e) for e in work]
    heapify(heap)
    rem: dict[Exponents, int] = {}
    scale = 1
    while heap:
        if max_terms is not None and len(work) + len(rem) > max_terms:
            raise ResourceLimitError(
                f"normal form exceeded {max_terms} working terms",
                kind="terms",
                limit=max_terms,
            )
        e = heappop(heap)[1]
        c = work.pop(e, None)
        if c is None:
            continue
        for lt, lc, tail in heads:
            if all(map(le, lt, e)):
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
        shift = _sub(e, lt)
        for ge, gc in tail:
            te = tuple(map(add, ge, shift))
            old = work.get(te)
            if old is None:
                work[te] = -q * gc
                heappush(heap, (key(te), te))
            else:
                s = old - q * gc
                if s:
                    work[te] = s
                else:
                    del work[te]
    return rem, scale


def normal_form(p: MultiPoly, gb: GroebnerBasis, max_terms: int | None = None) -> MultiPoly:
    """Full remainder of p modulo the basis: no term divisible by a leading term.

    ``max_terms`` caps the working term count (used by Buchberger to abort
    explosive eliminations early).
    """
    key = gb.order.descending_key()
    heads = [_head(g.integer_terms()[0], key) for g in gb.generators]
    terms, d = p.integer_terms()
    rem, m = _reduce(terms, heads, key, max_terms)
    return MultiPoly(p.ring, {e: Fraction(c, d * m) for e, c in rem.items()})


def groebner(
    gens: Iterable[MultiPoly],
    order: MonomialOrder = GREVLEX,
    max_pairs: int = 100_000,
    max_degree: int = 60,
    max_poly_terms: int = 30_000,
) -> GroebnerBasis:
    """Reduced Groebner basis by Buchberger's algorithm.

    Pair pruning follows Gebauer-Moeller (lcm criteria and the coprime
    criterion).  Raises ResourceLimitError when caps are hit.  The basis is
    held as integer heads; each element is made monic over Q on output.
    """
    key = order.descending_key()
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("empty generator list")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators live in different rings")

    heads: list[Head] = []
    lts: list[Exponents] = []
    pairs: list[tuple[Exponents, int, int]] = []  # (lcm, i, j)

    def add_poly(terms: dict[Exponents, int]):
        nonlocal pairs
        head = _head(terms, key)
        t = head[0]
        k = len(heads)
        # Gebauer-Moeller update of the pair set
        new_pairs: list[tuple[Exponents, int, int]] = []
        for i in range(k):
            new_pairs.append((_lcm(lts[i], t), i, k))
        # drop old pairs whose lcm is a proper multiple of something involving t
        kept = []
        for (l, i, j) in pairs:
            if _divides(t, l) and _lcm(lts[i], t) != l and _lcm(lts[j], t) != l:
                continue
            kept.append((l, i, j))
        pairs = kept
        # prune among the new pairs: keep minimal lcms, drop coprime ones
        pruned: list[tuple[Exponents, int, int]] = []
        for (l, i, j) in sorted(new_pairs, key=lambda t3: grevlex_descending(t3[0]), reverse=True):
            if _disjoint(lts[i], t):
                continue
            if any(_divides(l2, l) and l2 != l for (l2, _, _) in pruned):
                continue
            if any(l2 == l for (l2, _, _) in pruned):
                continue
            pruned.append((l, i, j))
        pairs.extend(pruned)
        heads.append(head)
        lts.append(t)

    for g in sorted(gens, key=lambda p: key(p.leading(key)[0]), reverse=True):
        r = _reduce(g.integer_terms()[0], heads, key)[0]
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
        if sum(l) > max_degree:
            raise ResourceLimitError(
                f"S-pair lcm degree {sum(l)} exceeds cap {max_degree}",
                kind="degree",
                limit=max_degree,
            )
        s = _reduce(_spoly(heads[i], heads[j]), heads, key, max_poly_terms)[0]
        if s:
            add_poly(s)

    # reduce: drop redundant generators, then fully inter-reduce
    kept = [
        i
        for i, t in enumerate(lts)
        if not any(_divides(lts[j], t) for j in range(len(lts)) if j != i and (lts[j] != t or j < i))
    ]
    reduced: list[MultiPoly] = []
    for n, i in enumerate(kept):
        lt, lc, tail = heads[i]
        others = [heads[j] for j in kept[:n] + kept[n + 1 :]]
        r = _reduce({lt: lc, **dict(tail)}, others, key)[0]
        if r:
            top = r[min(r, key=key)]
            reduced.append(MultiPoly(ring, {e: Fraction(c, top) for e, c in r.items()}))
    reduced.sort(key=lambda p: key(p.leading(key)[0]), reverse=True)
    return GroebnerBasis(reduced, order, ring)


def _spoly(f: Head, g: Head) -> dict[Exponents, int]:
    """An integer multiple of the S-polynomial of two heads."""
    ef, cf, f_tail = f
    eg, cg, g_tail = g
    l = _lcm(ef, eg)
    c = gcd(cf, cg)
    mf, mg = cg // c, cf // c
    a, b = _sub(l, ef), _sub(l, eg)
    out = {tuple(map(add, e, a)): mf * v for e, v in f_tail}
    for e, v in g_tail:
        e = tuple(map(add, e, b))
        s = out.get(e, 0) - mg * v
        if s:
            out[e] = s
        else:
            out.pop(e, None)
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
    out: list[Exponents] = []
    e = [0] * n

    def rec(i: int):
        if i == n:
            ee = tuple(e)
            if not any(_divides(t, ee) for t in lts):
                out.append(ee)
            return
        for k in range(bounds[i]):
            e[i] = k
            rec(i + 1)
        e[i] = 0

    rec(0)
    out.sort(key=gb.order.descending_key(), reverse=True)
    return Staircase(finite=True, monomials=out)


def eliminate(
    gens: Sequence[MultiPoly],
    drop: Sequence[str],
    max_pairs: int = 100_000,
) -> list[MultiPoly]:
    """Generators of the elimination ideal in the kept variables.

    Uses a block order with the dropped variables in the front block; the
    result is re-rung to keep-variables only.
    """
    if not gens:
        return []
    ring = gens[0].ring
    drop = list(drop)
    for v in drop:
        if v not in ring:
            raise RingMismatchError(f"cannot drop unknown variable {v}")
    keep = [v for v in ring if v not in drop]
    perm_ring = tuple(drop + keep)
    permuted = [g.rename_ring(perm_ring) for g in gens]
    order = MonomialOrder("block", split=len(drop))
    gb = groebner(permuted, order, max_pairs=max_pairs)
    k = len(drop)
    out = []
    for g in gb.generators:
        if all(all(e[i] == 0 for i in range(k)) for e in g.terms):
            out.append(g.rename_ring(tuple(keep)))
    return out
