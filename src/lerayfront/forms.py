"""Exterior algebra of polynomial differential forms.

A ``DiffForm`` of degree k on variables u_1..u_N stores a sparse map from
strictly increasing k-index-subsets to polynomial coefficients.  The three
operations needed downstream are the wedge product, the exterior derivative,
and contraction with the Euler vector field sum(v_i u_i d/du_i), given by
its weight tuple v.

A ``DiffForm`` is built one of two ways, as a ``MultiPoly`` is.  The
checked constructor, ``DiffForm(ring, degree, components)``, takes input
from outside the class: it checks each index set and component ring and
merges repeated index sets.  ``DiffForm._raw`` wraps a result that the
operations here have already built clean, with no check.  Every sum of
two components, in the constructor and in the operations, goes through
``_merge``, which drops a zero sum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import RingMismatchError
from .poly import MultiPoly

IndexSet = tuple[int, ...]


class DiffForm:
    """Polynomial-coefficient exterior form of fixed degree."""

    __slots__ = ("ring", "degree", "components")

    def __init__(
        self,
        ring: Sequence[str],
        degree: int,
        components: Mapping[IndexSet, MultiPoly] | None = None,
    ):
        self.ring = tuple(ring)
        n = len(self.ring)
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.degree = degree
        comps: dict[IndexSet, MultiPoly] = {}
        if components:
            for idx, p in components.items():
                idx = tuple(idx)
                if len(idx) != degree or list(idx) != sorted(set(idx)):
                    raise ValueError(f"index set {idx} not strictly increasing of size {degree}")
                if idx and (idx[0] < 0 or idx[-1] >= n):
                    raise ValueError(f"index {idx} out of range for {n} variables")
                if p.ring != self.ring:
                    raise RingMismatchError("component ring mismatch")
                _merge(comps, idx, p)
        self.components = comps

    @classmethod
    def _raw(cls, ring: tuple[str, ...], degree: int, components: dict) -> "DiffForm":
        """A result, unchecked: ``components`` maps increasing index sets of size
        ``degree`` to nonzero polynomials in ``ring``, owned by the new form."""
        out = cls.__new__(cls)
        out.ring, out.degree, out.components = ring, degree, components
        return out

    @classmethod
    def zero(cls, ring: Sequence[str], degree: int) -> "DiffForm":
        return cls(ring, degree, {})

    @classmethod
    def function(cls, p: MultiPoly) -> "DiffForm":
        return cls(p.ring, 0, {(): p})

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiffForm)
            and self.ring == other.ring
            and self.degree == other.degree
            and self.components == other.components
        )

    def __add__(self, other: "DiffForm") -> "DiffForm":
        if self.ring != other.ring or self.degree != other.degree:
            raise RingMismatchError("cannot add forms of different type")
        comps = dict(self.components)
        for idx, p in other.components.items():
            _merge(comps, idx, p)
        return DiffForm._raw(self.ring, self.degree, comps)

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> "DiffForm":
        return self.scale(Fraction(-1))

    def scale(self, c) -> "DiffForm":
        comps = {i: p.scale(c) for i, p in self.components.items()} if c != 0 else {}
        return DiffForm._raw(self.ring, self.degree, comps)

    def mul_poly(self, q: MultiPoly) -> "DiffForm":
        if q.ring != self.ring:
            raise RingMismatchError("coefficient ring mismatch")
        comps = {i: p * q for i, p in self.components.items()} if not q.is_zero() else {}
        return DiffForm._raw(self.ring, self.degree, comps)

    def __repr__(self):
        if not self.components:
            return f"DiffForm(0, degree={self.degree})"
        bits = []
        for idx in sorted(self.components):
            legs = "^".join(f"d{self.ring[i]}" for i in idx) or "1"
            bits.append(f"({self.components[idx].pretty()}) {legs}")
        return "DiffForm[" + " + ".join(bits) + "]"


def _merge(comps: dict[IndexSet, MultiPoly], idx: IndexSet, q: MultiPoly) -> None:
    """Add q into comps[idx], dropping the entry when the sum is zero."""
    s = comps[idx] + q if idx in comps else q
    if s.is_zero():
        comps.pop(idx, None)
    else:
        comps[idx] = s


def _merge_indices(a: IndexSet, b: IndexSet) -> tuple[IndexSet, int] | None:
    """Merge two index tuples; None if they collide.

    Returns the sorted merged tuple and the sign of the permutation that
    sorts the concatenation a + b (its inversions, so neither tuple need be
    increasing).
    """
    if set(a) & set(b):
        return None
    merged = a + b
    # count inversions of the concatenation for the sign
    inv = 0
    for i, x in enumerate(merged):
        for y in merged[i + 1 :]:
            if y < x:
                inv += 1
    return tuple(sorted(merged)), (-1) ** inv


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    if a.ring != b.ring:
        raise RingMismatchError("ambient mismatch in wedge")
    deg = a.degree + b.degree
    n = len(a.ring)
    if deg > n:
        # only the zero form exists above top degree; keep the formal degree
        return DiffForm.zero(a.ring, deg)
    comps: dict[IndexSet, MultiPoly] = {}
    for ia, pa in a.components.items():
        for ib, pb in b.components.items():
            m = _merge_indices(ia, ib)
            if m is None:
                continue
            idx, sign = m
            q = pa * pb
            _merge(comps, idx, q if sign > 0 else -q)
    return DiffForm._raw(a.ring, deg, comps)


def wedge_all(forms: Sequence[DiffForm]) -> DiffForm:
    if not forms:
        raise ValueError("empty wedge")
    acc = forms[0]
    for f in forms[1:]:
        acc = wedge(acc, f)
    return acc


def exterior_d(a: DiffForm) -> DiffForm:
    n = len(a.ring)
    if a.degree >= n:
        return DiffForm.zero(a.ring, a.degree + 1)
    comps: dict[IndexSet, MultiPoly] = {}
    for idx, p in a.components.items():
        for i, var in enumerate(a.ring):
            dp = p.partial(var)
            if dp.is_zero():
                continue
            m = _merge_indices((i,), idx)
            if m is None:
                continue
            midx, sign = m
            _merge(comps, midx, dp if sign > 0 else -dp)
    return DiffForm._raw(a.ring, a.degree + 1, comps)


def d_of_poly(p: MultiPoly) -> DiffForm:
    return exterior_d(DiffForm.function(p))


def contract_euler(a: DiffForm, weights: Sequence[int]) -> DiffForm:
    """Interior product with the Euler field sum(weights[i] u_i d/du_i): an
    anti-derivation of degree -1."""
    if len(weights) != len(a.ring):
        raise RingMismatchError("Euler field does not match ambient")
    if a.degree == 0:
        return DiffForm.zero(a.ring, 0)
    comps: dict[IndexSet, MultiPoly] = {}
    for idx, p in a.components.items():
        for k, i in enumerate(idx):
            rest = idx[:k] + idx[k + 1 :]
            coeff = p.mul_term(_unit_exp(len(a.ring), i), Fraction(weights[i]))
            _merge(comps, rest, -coeff if k % 2 else coeff)
    return DiffForm._raw(a.ring, a.degree - 1, comps)


def _unit_exp(n: int, i: int) -> tuple[int, ...]:
    e = [0] * n
    e[i] = 1
    return tuple(e)
