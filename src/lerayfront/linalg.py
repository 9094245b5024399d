"""Exact rational linear algebra: solving, determinants, characteristic polynomials.

Everything works over ``fractions.Fraction``.  Solvers return certificates
(particular solution plus nullspace basis) so callers can verify results by
substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import NoSolutionError, NotApplicableError

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

    @classmethod
    def zeros(cls, n: int, m: int) -> "RationalMatrix":
        return cls(n, m, [[ZERO] * m for _ in range(n)])

    def copy(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols, [row[:] for row in self.entries])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __setitem__(self, ij, v):
        i, j = ij
        self.entries[i][j] = Fraction(v)

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

    def matvec(self, v: Sequence[Fraction]) -> list[Fraction]:
        assert self.cols == len(v)
        return [sum((a * x for a, x in zip(row, v)), ZERO) for row in self.entries]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.cols,
            self.rows,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def det(self) -> Fraction:
        assert self.rows == self.cols
        return det_fraction(self.entries)

    def inverse(self) -> "RationalMatrix":
        """Gauss-Jordan on [A | I]; singular exactly when a pivot leaves 0..n-1."""
        assert self.rows == self.cols
        n = self.rows
        ident = RationalMatrix.identity(n).entries
        aug, pivots = _echelonize([row + ident[i] for i, row in enumerate(self.entries)])
        if pivots[:n] != list(range(n)):
            raise NoSolutionError("matrix is singular")
        return RationalMatrix(n, n, [row[n:] for row in aug])


@dataclass
class LinearSolution:
    """One solution of A x = b plus a basis of ker A."""

    particular: list[Fraction]
    nullspace: list[list[Fraction]] = field(default_factory=list)


def _echelonize(entries: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (matrix, pivot column list)."""
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if entries[i][c] != 0), None)
        if piv is None:
            continue
        entries[r], entries[piv] = entries[piv], entries[r]
        pv = entries[r][c]
        entries[r] = [x / pv for x in entries[r]]
        for i in range(rows):
            if i != r and entries[i][c] != 0:
                f = entries[i][c]
                entries[i] = [a - f * b for a, b in zip(entries[i], entries[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return entries, pivots


def solve_linear_exact(A: RationalMatrix, b: Sequence[Fraction]) -> LinearSolution:
    """Solve A x = b exactly; raises NoSolutionError when inconsistent."""
    if A.rows != len(b):
        raise ValueError("dimension mismatch")
    aug = [row[:] + [Fraction(b[i])] for i, row in enumerate(A.entries)]
    aug, pivots = _echelonize(aug)
    n = A.cols
    for r, row in enumerate(aug):
        if all(x == 0 for x in row[:n]) and row[n] != 0:
            raise NoSolutionError("rank(A) < rank(A|b)")
    x = [ZERO] * n
    for r, c in enumerate(pivots):
        if c < n:
            x[c] = aug[r][n]
        elif aug[r][n] != 0:
            raise NoSolutionError("rank(A) < rank(A|b)")
    pivset = set(c for c in pivots if c < n)
    null: list[list[Fraction]] = []
    for free in range(n):
        if free in pivset:
            continue
        v = [ZERO] * n
        v[free] = ONE
        for r, c in enumerate(pivots):
            if c < n:
                v[c] = -aug[r][free]
        null.append(v)
    return LinearSolution(particular=x, nullspace=null)


class ColumnSolver:
    """Reusable solver for systems sharing one coefficient matrix.

    Columns are sparse dicts row-index -> Fraction.  The elimination is done
    once; ``solve`` then answers membership of right-hand sides in the column
    span, returning the coefficient vector or None.
    """

    def __init__(self, columns: list[dict[int, Fraction]], nrows: int):
        self.ncols = len(columns)
        self.nrows = nrows
        # rows of the reduced system over the augmented identity: each record
        # is (pivot_row_index, dense_row_over_rows, dense_coeffs_over_cols)
        self.reduced: list[tuple[int, dict[int, Fraction], list[Fraction]]] = []
        for j, col in enumerate(columns):
            vec = dict(col)
            coeffs = [ZERO] * self.ncols
            coeffs[j] = ONE
            vec, coeffs = self._reduce(vec, coeffs)
            if vec:
                piv = min(vec)
                pv = vec[piv]
                vec = {i: v / pv for i, v in vec.items()}
                coeffs = [c / pv for c in coeffs]
                self.reduced.append((piv, vec, coeffs))
                self.reduced.sort(key=lambda t: t[0])

    def _reduce(self, vec: dict[int, Fraction], coeffs: list[Fraction]):
        for piv, pvec, pcoef in self.reduced:
            if piv in vec:
                f = vec[piv]
                for i, v in pvec.items():
                    s = vec.get(i, ZERO) - f * v
                    if s == 0:
                        vec.pop(i, None)
                    else:
                        vec[i] = s
                for k in range(self.ncols):
                    if pcoef[k]:
                        coeffs[k] -= f * pcoef[k]
        return vec, coeffs

    def solve(self, rhs: dict[int, Fraction]) -> list[Fraction] | None:
        vec = dict(rhs)
        coeffs = [ZERO] * self.ncols
        vec, coeffs = self._reduce(vec, coeffs)
        if vec:
            return None
        return [-c for c in coeffs]


def det_fraction(entries: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a rational matrix via integer-scaled Bareiss."""
    n = len(entries)
    if n == 0:
        return ONE
    scale = ONE
    m: list[list[int]] = []
    for row in entries:
        den = 1
        for x in row:
            x = Fraction(x)
            den = den * x.denominator // gcd(den, x.denominator)
        scale /= den
        m.append([int(Fraction(x) * den) for x in row])
    d = det_int(m)
    return scale * d


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


def char_poly(A: RationalMatrix) -> list[Fraction]:
    """Coefficients [c0..cn] of det(xI - A), ascending, via Faddeev-LeVerrier."""
    assert A.rows == A.cols
    n = A.rows
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    M = RationalMatrix.identity(n)
    c = ONE
    for k in range(1, n + 1):
        AM = A * M
        tr = sum(AM.entries[i][i] for i in range(n))
        c = -tr / k
        coeffs[n - k] = c
        M = AM + RationalMatrix.identity(n).scale(c)
    return coeffs


def eval_poly_coeffs(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rational_eigenvalues(A: RationalMatrix, hints: Sequence[Fraction] = ()) -> list[Fraction]:
    """All eigenvalues, required to be rational; raises otherwise.

    ``hints`` are candidate values tried first (cheap deflation); remaining
    roots are searched via the rational root theorem on the characteristic
    polynomial.
    """
    coeffs = char_poly(A)
    roots: list[Fraction] = []
    cs = list(coeffs)
    hint_pool = list(dict.fromkeys(Fraction(h) for h in hints))
    progress = True
    while len(cs) > 1 and progress:
        progress = False
        for h in hint_pool:
            while len(cs) > 1 and eval_poly_coeffs(cs, h) == 0:
                roots.append(h)
                cs = _synthetic_div(cs, h)
                progress = True
    # rational root search on what is left
    while len(cs) > 1:
        found = None
        lead = cs[-1]
        const = cs[0]
        if const == 0:
            found = ZERO
        else:
            num0 = abs(const.numerator) * lead.denominator
            den0 = abs(lead.numerator) * const.denominator
            for p in _divisors(num0):
                for q in _divisors(den0):
                    for cand in (Fraction(p, q), Fraction(-p, q)):
                        if eval_poly_coeffs(cs, cand) == 0:
                            found = cand
                            break
                    if found is not None:
                        break
                if found is not None:
                    break
        if found is None:
            raise NotApplicableError(
                "characteristic polynomial has non-rational roots; "
                "exponents are not rational for this input"
            )
        roots.append(found)
        cs = _synthetic_div(cs, found)
    return sorted(roots)


def _synthetic_div(cs: list[Fraction], r: Fraction) -> list[Fraction]:
    n = len(cs) - 1
    out = [ZERO] * n
    acc = ZERO
    for i in range(n - 1, -1, -1):
        acc = cs[i + 1] + acc * r
        out[i] = acc
    return out


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return [0]
    if n > 10**12:
        # cap the search; callers treat failure as non-rational
        return [1, n]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)
