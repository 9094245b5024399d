"""Exact rational linear algebra: solving and determinants.

Everything works over ``fractions.Fraction`` except the integer kernels
``det_int`` and ``inverse_int``.  ``SparseEchelon`` is the one sparse
echelon, and ``ColumnSpan`` is the one exact solver on it: every solve and
dependency search (the lattice pieces of ``brieskorn``, the weight system
of ``phase``) tags its columns and reads the answer off the tags.  The
f-basis search keeps independent forms in a bare ``SparseEchelon``.
``inverse_int`` is fraction-free Gauss-Jordan over Z, the inverse of the
flatness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from .errors import NoSolutionError

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class RationalMatrix:
    """Dense rectangular matrix of Fractions."""

    rows: int
    cols: int
    entries: list[list[Fraction]]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        ent = [[Fraction(x) for x in row] for row in rows]
        return cls(len(ent), len(ent[0]) if ent else 0, ent)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return RationalMatrix(
            self.rows,
            self.cols,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "RationalMatrix":
        c = Fraction(c)
        return RationalMatrix(
            self.rows, self.cols, [[c * x for x in row] for row in self.entries]
        )

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        assert self.cols == other.rows
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            rowi = self.entries[i]
            for k in range(self.cols):
                a = rowi[k]
                if a == 0:
                    continue
                rowk = other.entries[k]
                outi = out[i]
                for j in range(other.cols):
                    if rowk[j]:
                        outi[j] += a * rowk[j]
        return RationalMatrix(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


class SparseEchelon:
    """Incremental row echelon over sparse Fraction vectors (dict index -> value).

    Each kept row is scaled to 1 at its pivot, its smallest index.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, Fraction]] = {}

    def residual(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """``vec`` reduced until its smallest index is not a pivot (or it is 0)."""
        vec = dict(vec)
        while vec:
            p = min(vec)
            if p not in self.rows:
                return vec
            f = vec[p]
            for i, v in self.rows[p].items():
                s = vec.get(i, ZERO) - f * v
                if s == 0:
                    vec.pop(i, None)
                else:
                    vec[i] = s
        return vec

    def insert(self, vec: dict[int, Fraction]) -> bool:
        """Reduce and keep if independent; True when the vector was new."""
        r = self.residual(vec)
        if not r:
            return False
        p = min(r)
        pv = r[p]
        self.rows[p] = {i: v / pv for i, v in r.items()}
        return True


class ColumnSpan:
    """Exact solves in the span of sparse Fraction columns over fixed row keys.

    Column j enters the echelon with a tag coordinate nrows + j of value 1
    and is kept only while its residual has a row index as pivot.  A
    residual of tags alone is a relation among the columns, with
    coefficient 1 at the newest; a right-hand side that reduces to tags
    alone is the column combination whose coefficients are minus those tags.
    """

    def __init__(self, rows: Sequence):
        self.row_index = {key: i for i, key in enumerate(rows)}
        self.echelon = SparseEchelon()
        self.labels: list = []

    def _tags(self, r: dict[int, Fraction], sign: int) -> dict:
        nrows = len(self.row_index)
        return {self.labels[tag - nrows]: sign * r[tag] for tag in sorted(r)}

    def add(self, column: dict, label) -> dict | None:
        """Append ``column`` ({row key: value}); None when it is independent of
        the earlier columns, else the relation {label: coefficient} that
        holds among them, with coefficient 1 at ``label``."""
        nrows = len(self.row_index)
        vec = {self.row_index[key]: c for key, c in column.items()}
        vec[nrows + len(self.labels)] = ONE
        self.labels.append(label)
        r = self.echelon.residual(vec)
        if min(r) < nrows:
            self.echelon.insert(r)
            return None
        # a kept kernel vector would only slow every later reduction
        return self._tags(r, 1)

    def solve(self, rhs: dict) -> dict | None:
        """The combination of columns equal to ``rhs`` as {label: coefficient}, or None."""
        if any(key not in self.row_index for key in rhs):
            return None
        r = self.echelon.residual({self.row_index[key]: c for key, c in rhs.items()})
        if r and min(r) < len(self.row_index):
            return None
        return self._tags(r, -1)


def det_fraction(entries: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a rational matrix via integer-scaled Bareiss."""
    if not entries:
        return ONE
    rows = [[Fraction(x) for x in row] for row in entries]
    dens = [lcm(*(x.denominator for x in row)) for row in rows]
    m = [[x.numerator * (d // x.denominator) for x in row] for row, d in zip(rows, dens)]
    return Fraction(det_int(m), prod(dens))


def det_int(m: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix (destructive)."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            rowi = m[i]
            rowk = m[k]
            for j in range(k + 1, n):
                rowi[j] = (pkk * rowi[j] - mik * rowk[j]) // prev
            rowi[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def inverse_int(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """M^{-1} = N / d for a square integer matrix, with d > 0 and gcd(d, N) = 1.

    Fraction-free Gauss-Jordan (Bareiss 1968) on [M | I]: step k takes
    every row i != k to (p_k row_i - m_ik row_k) / p_{k-1}, exactly, with
    p_k the k-th pivot, so [M | I] ends as p_{n-1} [I | M^{-1}].  Before
    step k the right half of a row not yet pivoted is p_{k-1} at its own
    column and zero outside the columns of the pivoted rows, so each step
    works on n columns only.  Raises NoSolutionError when M is singular.
    """
    n = len(m)
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)]
    order = list(range(n))  # order[p]: the row of M now at position p
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                raise NoSolutionError("matrix is singular")
            a[k], a[piv] = a[piv], a[k]
            order[k], order[piv] = order[piv], order[k]
        rowk = a[k]
        pkk = rowk[k]
        cols = [*range(k + 1, n), *(n + r for r in order[: k + 1])]
        for i, rowi in enumerate(a):
            if i == k:
                continue
            mik = rowi[k]
            for j in cols:
                rowi[j] = (pkk * rowi[j] - mik * rowk[j]) // prev
            if i > k:
                rowi[n + order[i]] = pkk
        prev = pkk
    N = [row[n:] for row in a]
    g = gcd(prev, *(x for row in N for x in row))
    g = g if prev > 0 else -g
    return [[x // g for x in row] for row in N], prev // g
