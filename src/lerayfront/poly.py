"""Exact multivariate polynomials over the rationals.

Coefficients are ``fractions.Fraction`` throughout; terms are stored sparsely
as a dict from exponent tuples to coefficients.  All operations are pure and
return new objects, so values can be shared freely across threads.

Monomial orders live here as key functions on exponent tuples: ``grevlex``
is the default order used for canonical printing and for Groebner bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Mapping, Sequence

from .errors import RingMismatchError

Exponents = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def grevlex_key(e: Exponents):
    """Sort key realizing graded reverse lexicographic order (ascending)."""
    return (sum(e), tuple(-x for x in reversed(e)))


def lex_key(e: Exponents):
    return e


@dataclass(frozen=True)
class Monomial:
    """A power product, given by one exponent per ring variable."""

    exps: Exponents

    def __post_init__(self):
        if any(e < 0 for e in self.exps):
            raise ValueError(f"negative exponent in {self.exps}")

    def degree(self) -> int:
        return sum(self.exps)

    def weight(self, weights: Sequence[int]) -> int:
        return sum(w * e for w, e in zip(weights, self.exps))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __repr__(self):
        return f"Monomial{self.exps}"


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    return Fraction(c)


class MultiPoly:
    """Sparse polynomial in an ordered tuple of named variables.

    ``ring`` is the variable-name tuple; ``terms`` maps exponent tuples to
    nonzero Fractions.  Equality is structural (same ring, same terms).
    """

    __slots__ = ("ring", "terms", "_hash")

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
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent {e}")
                clean[e] = clean.get(e, ZERO) + c
                if clean[e] == 0:
                    del clean[e]
        self.terms = clean
        self._hash = None

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
    def from_monomial(cls, ring: Sequence[str], mono: Monomial | Exponents, c=ONE) -> "MultiPoly":
        e = mono.exps if isinstance(mono, Monomial) else tuple(mono)
        return cls(ring, {e: _coerce(c)})

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
        out = MultiPoly.__new__(MultiPoly)
        out.ring, out.terms, out._hash = self.ring, res, None
        return out

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, ZERO) - c
            if s == 0:
                res.pop(e, None)
            else:
                res[e] = s
        out = MultiPoly.__new__(MultiPoly)
        out.ring, out.terms, out._hash = self.ring, res, None
        return out

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly.__new__(MultiPoly)
        out.ring = self.ring
        out.terms = {e: -c for e, c in self.terms.items()}
        out._hash = None
        return out

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
        out = MultiPoly.__new__(MultiPoly)
        out.ring, out.terms, out._hash = self.ring, res, None
        return out

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        c = _coerce(c)
        if c == 0:
            return MultiPoly.zero(self.ring)
        out = MultiPoly.__new__(MultiPoly)
        out.ring = self.ring
        out.terms = {e: c * v for e, v in self.terms.items()}
        out._hash = None
        return out

    def mul_term(self, e0: Exponents, c) -> "MultiPoly":
        c = _coerce(c)
        if c == 0:
            return MultiPoly.zero(self.ring)
        out = MultiPoly.__new__(MultiPoly)
        out.ring = self.ring
        out.terms = {tuple(x + y for x, y in zip(e, e0)): c * v for e, v in self.terms.items()}
        out._hash = None
        return out

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
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    # -- structure -----------------------------------------------------

    def sorted_terms(self, key: Callable = grevlex_key, reverse: bool = True):
        """Terms in a canonical order (grevlex descending by default)."""
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=reverse)

    def leading(self, key: Callable = grevlex_key) -> tuple[Exponents, Fraction]:
        e = max(self.terms, key=key)
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
        out = MultiPoly.__new__(MultiPoly)
        out.ring, out.terms, out._hash = self.ring, res, None
        return out

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive; 0 for the zero poly."""
        if not self.terms:
            return ZERO
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive_part(self, positive_leading: bool = True, key: Callable = grevlex_key) -> "MultiPoly":
        if not self.terms:
            return self
        c = self.content()
        p = self.scale(1 / c)
        if positive_leading and p.leading(key)[1] < 0:
            p = -p
        return p

    # -- evaluation and substitution ------------------------------------

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
        vals = [float(values[v]) for v in self.ring]
        total = 0.0
        for e, c in self.terms.items():
            t = float(c)
            for i, k in enumerate(e):
                if k:
                    t *= vals[i] ** k
            total += t
        return total

    def substitute_partial(self, assignment: Mapping[str, Fraction]) -> "MultiPoly":
        """Plug rational values into a subset of the variables (ring unchanged)."""
        idxs = {self.ring.index(v): _coerce(c) for v, c in assignment.items()}
        res: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            val = c
            e2 = list(e)
            for i, a in idxs.items():
                if e[i]:
                    val *= a ** e[i]
                    e2[i] = 0
            if val == 0:
                continue
            e2 = tuple(e2)
            s = res.get(e2, ZERO) + val
            if s == 0:
                res.pop(e2, None)
            else:
                res[e2] = s
        out = MultiPoly.__new__(MultiPoly)
        out.ring, out.terms, out._hash = self.ring, res, None
        return out

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
        """Exact quotient self/d; raises if the division is not exact."""
        self._check(d)
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        if d.is_constant():
            return self.scale(1 / d.constant_value())
        q: dict[Exponents, Fraction] = {}
        r = self
        de, dc = d.leading()
        while not r.is_zero():
            re, rc = r.leading()
            qe = tuple(a - b for a, b in zip(re, de))
            if any(x < 0 for x in qe):
                raise ValueError("not exactly divisible")
            qc = rc / dc
            q[qe] = q.get(qe, ZERO) + qc
            r = r - d.mul_term(qe, qc)
        return MultiPoly(self.ring, q)

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


def poly_substitute(p: MultiPoly, bindings: Mapping[str, MultiPoly]) -> MultiPoly:
    """Ring homomorphism sending each bound variable to its image polynomial.

    Unbound variables map to themselves; all images must share one target
    ring which also contains every unbound variable of ``p``.  A name shared
    between the target ring and a *bound* source variable is fine, but an
    untouched source variable colliding with nothing to receive it is an
    error surfaced by the ring check.
    """
    for v in bindings:
        if v not in p.ring:
            raise RingMismatchError(f"bound variable {v} not in source ring {p.ring}")
    if bindings:
        target = None
        for img in bindings.values():
            if target is None:
                target = img.ring
            elif img.ring != target:
                raise RingMismatchError("images of bound variables live in different rings")
    else:
        target = p.ring
    target = tuple(target)
    unbound = [v for v in p.ring if v not in bindings]
    for v in unbound:
        if v not in target:
            raise RingMismatchError(
                f"unbound variable {v} missing from target ring {target}"
            )
    images: list[MultiPoly] = []
    for v in p.ring:
        if v in bindings:
            images.append(bindings[v])
        else:
            images.append(MultiPoly.variable(target, v))
    result = MultiPoly.zero(target)
    pow_cache: list[dict[int, MultiPoly]] = [dict() for _ in p.ring]
    for e, c in p.terms.items():
        term = MultiPoly.constant(target, c)
        for i, k in enumerate(e):
            if k:
                cache = pow_cache[i]
                if k not in cache:
                    cache[k] = images[i] ** k
                term = term * cache[k]
        result = result + term
    return result


def weighted_graded_parts(p: MultiPoly, weights: Sequence[int]) -> list[tuple[int, MultiPoly]]:
    """Split into weighted-homogeneous parts, weights strictly increasing."""
    if len(weights) != len(p.ring):
        raise RingMismatchError("weight vector does not cover the ring")
    buckets: dict[int, dict[Exponents, Fraction]] = {}
    for e, c in p.terms.items():
        w = sum(wi * ei for wi, ei in zip(weights, e))
        buckets.setdefault(w, {})[e] = c
    return [(w, MultiPoly(p.ring, buckets[w])) for w in sorted(buckets)]


def weighted_degree(p: MultiPoly, weights: Sequence[int]) -> int | None:
    """Weight of a weighted-homogeneous polynomial, or None if mixed/zero."""
    parts = weighted_graded_parts(p, weights)
    if not parts:
        return None
    if len(parts) > 1:
        return None
    return parts[0][0]


def monomials_of_weight(weights: Sequence[int], target: int) -> list[Exponents]:
    """All exponent tuples with given positive weights summing to ``target``."""
    n = len(weights)
    out: list[Exponents] = []
    e = [0] * n

    def rec(i: int, rem: int):
        if i == n - 1:
            w = weights[i]
            if rem % w == 0:
                e[i] = rem // w
                out.append(tuple(e))
                e[i] = 0
            return
        w = weights[i]
        for k in range(rem // w + 1):
            e[i] = k
            rec(i + 1, rem - k * w)
        e[i] = 0

    if target < 0:
        return []
    rec(0, target)
    return sorted(out, key=grevlex_key)
