"""Groebner bases over the rationals: Buchberger with Gebauer-Moeller pruning.

Desk-scale by design: ideals in at most a dozen variables.  Hard resource
caps (pair count, lcm degree) turn runaway eliminations into structured
errors instead of hangs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import ResourceLimitError, RingMismatchError
from .poly import Exponents, Monomial, MultiPoly, grevlex_key, lex_key

ZERO = Fraction(0)


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative well-order on monomials, as a sort key factory.

    ``kind`` is one of ``lex``, ``grevlex``, ``block``; a block order compares
    the first ``split`` variables grevlex first (used for elimination).
    """

    kind: str = "grevlex"
    split: int = 0

    def key(self) -> Callable[[Exponents], object]:
        if self.kind == "grevlex":
            return grevlex_key
        if self.kind == "lex":
            return lex_key
        if self.kind == "block":
            s = self.split

            def block_key(e: Exponents):
                return (grevlex_key(e[:s]), grevlex_key(e[s:]))

            return block_key
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
        key = self.order.key()
        return [g.leading(key)[0] for g in self.generators]


def normal_form(p: MultiPoly, gb: GroebnerBasis, max_terms: int | None = None) -> MultiPoly:
    """Full remainder of p modulo the basis: no term divisible by a leading term.

    ``max_terms`` caps the working term count (used by Buchberger to abort
    explosive eliminations early).
    """
    key = gb.order.key()
    gens = gb.generators
    if not gens:
        return p
    lts = [(g.leading(key)[0], g.leading(key)[1], g) for g in gens]
    rem: dict[Exponents, Fraction] = {}
    work = dict(p.terms)
    while work:
        if max_terms is not None and len(work) + len(rem) > max_terms:
            raise ResourceLimitError(
                f"normal form exceeded {max_terms} working terms",
                kind="terms",
                limit=max_terms,
            )
        e = max(work, key=key)
        c = work.pop(e)
        if c == 0:
            continue
        hit = None
        for lt, lc, g in lts:
            if _divides(lt, e):
                hit = (lt, lc, g)
                break
        if hit is None:
            rem[e] = rem.get(e, ZERO) + c
            continue
        lt, lc, g = hit
        shift = _sub(e, lt)
        f = c / lc
        for ge, gc in g.terms.items():
            te = tuple(x + y for x, y in zip(ge, shift))
            s = work.get(te, ZERO) - f * gc
            if te == e:
                continue
            if s == 0:
                work.pop(te, None)
            else:
                work[te] = s
    return MultiPoly(p.ring, rem)


def _spoly(f: MultiPoly, g: MultiPoly, key) -> MultiPoly:
    ef, cf = f.leading(key)
    eg, cg = g.leading(key)
    l = _lcm(ef, eg)
    return f.mul_term(_sub(l, ef), 1 / cf) - g.mul_term(_sub(l, eg), 1 / cg)


def groebner(
    gens: Iterable[MultiPoly],
    order: MonomialOrder = GREVLEX,
    max_pairs: int = 100_000,
    max_degree: int = 60,
    max_poly_terms: int = 30_000,
) -> GroebnerBasis:
    """Reduced Groebner basis by Buchberger's algorithm.

    Pair pruning follows Gebauer-Moeller (lcm criteria and the coprime
    criterion).  Raises ResourceLimitError when caps are hit.
    """
    key = order.key()
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("empty generator list")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators live in different rings")

    basis: list[MultiPoly] = []
    lts: list[Exponents] = []
    pairs: list[tuple[Exponents, int, int]] = []  # (lcm, i, j)

    def add_poly(p: MultiPoly):
        nonlocal pairs
        p = p.scale(1 / p.leading(key)[1])
        t = p.leading(key)[0]
        k = len(basis)
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
        for (l, i, j) in sorted(new_pairs, key=lambda t3: grevlex_key(t3[0])):
            if _disjoint(lts[i], t):
                continue
            if any(_divides(l2, l) and l2 != l for (l2, _, _) in pruned):
                continue
            if any(l2 == l for (l2, _, _) in pruned):
                continue
            pruned.append((l, i, j))
        pairs.extend(pruned)
        basis.append(p)
        lts.append(t)

    for g in sorted(gens, key=lambda p: key(p.leading(key)[0])):
        g = normal_form(g, GroebnerBasis(basis, order, ring)) if basis else g
        if not g.is_zero():
            add_poly(g)

    processed = 0
    while pairs:
        pairs.sort(key=lambda t3: grevlex_key(t3[0]), reverse=True)
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
        s = _spoly(basis[i], basis[j], key)
        s = normal_form(s, GroebnerBasis(basis, order, ring), max_terms=max_poly_terms)
        if not s.is_zero():
            add_poly(s)

    # reduce: drop redundant generators, then fully inter-reduce
    minimal: list[MultiPoly] = []
    for i, g in enumerate(basis):
        t = lts[i]
        if any(_divides(lts[j], t) for j in range(len(basis)) if j != i and (lts[j] != t or j < i)):
            continue
        minimal.append(g)
    reduced: list[MultiPoly] = []
    for i, g in enumerate(minimal):
        others = GroebnerBasis(minimal[:i] + minimal[i + 1 :], order, ring)
        r = normal_form(g, others)
        if not r.is_zero():
            reduced.append(r.scale(1 / r.leading(key)[1]))
    reduced.sort(key=lambda p: key(p.leading(key)[0]))
    return GroebnerBasis(reduced, order, ring)


@dataclass
class Staircase:
    """Monomials below the leading-term staircase of an ideal."""

    finite: bool
    monomials: list[Monomial] = field(default_factory=list)
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
    key = gb.order.key()
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
    out.sort(key=key)
    return Staircase(finite=True, monomials=[Monomial(x) for x in out])


def eliminate(
    gens: Sequence[MultiPoly],
    drop: Sequence[str],
    max_pairs: int = 100_000,
    max_degree: int = 60,
    max_poly_terms: int = 30_000,
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
    gb = groebner(
        permuted,
        order,
        max_pairs=max_pairs,
        max_degree=max_degree,
        max_poly_terms=max_poly_terms,
    )
    k = len(drop)
    out = []
    for g in gb.generators:
        if all(all(e[i] == 0 for i in range(k)) for e in g.terms):
            out.append(g.rename_ring(tuple(keep)))
    return out
