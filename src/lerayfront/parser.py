"""Recursive-descent parser for polynomial expressions.

Grammar: integer and rational literals (``3``, ``3/4``), identifiers,
``+ - * ^``, parentheses.  Exponents must be non-negative integers.  Errors
carry line and column positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ExpressionSyntaxError, NegativeExponentError, UnknownVariableError
from .poly import MultiPoly


@dataclass
class _Token:
    kind: str  # "int", "name", "op", "end"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()/":
            toks.append(_Token("op", ch, line, col))
            col += 1
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("end", "", line, col))
    return toks


class _Parser:
    def __init__(self, tokens: list[_Token], ring: tuple[str, ...]):
        self.toks = tokens
        self.pos = 0
        self.ring = ring

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, text: str) -> _Token:
        t = self.take()
        if t.kind != "op" or t.text != text:
            raise ExpressionSyntaxError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def parse(self) -> MultiPoly:
        p = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ExpressionSyntaxError(f"trailing input {t.text!r}", t.line, t.col)
        return p

    def expr(self) -> MultiPoly:
        t = self.peek()
        negate = False
        if t.kind == "op" and t.text in "+-":
            self.take()
            negate = t.text == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.take()
                rhs = self.term()
                acc = acc - rhs if t.text == "-" else acc + rhs
            else:
                return acc

    def term(self) -> MultiPoly:
        acc = self.power()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text == "*":
                self.take()
                acc = acc * self.power()
            else:
                return acc

    def power(self) -> MultiPoly:
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.take()
            e = self.take()
            neg = False
            if e.kind == "op" and e.text == "-":
                neg = True
                e = self.take()
            if e.kind != "int":
                raise ExpressionSyntaxError("exponent must be an integer", e.line, e.col)
            if neg:
                raise NegativeExponentError(
                    f"negative exponent at line {e.line}, column {e.col}"
                )
            return base ** int(e.text)
        return base

    def atom(self) -> MultiPoly:
        t = self.take()
        if t.kind == "int":
            num = int(t.text)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "/":
                self.take()
                d = self.take()
                if d.kind != "int":
                    raise ExpressionSyntaxError(
                        "denominator must be an integer", d.line, d.col
                    )
                return MultiPoly.constant(self.ring, Fraction(num, int(d.text)))
            return MultiPoly.constant(self.ring, num)
        if t.kind == "name":
            if t.text not in self.ring:
                raise UnknownVariableError(
                    f"unknown variable {t.text!r} at line {t.line}, column {t.col}"
                )
            return MultiPoly.variable(self.ring, t.text)
        if t.kind == "op" and t.text == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        if t.kind == "op" and t.text == "-":
            return -self.atom()
        raise ExpressionSyntaxError(f"unexpected token {t.text!r}", t.line, t.col)


def parse_poly(text: str, ring: tuple[str, ...] | None = None) -> MultiPoly:
    """Parse an expression into an exact polynomial.

    With ``ring=None`` the variable set is inferred from the identifiers in
    order of first appearance; otherwise identifiers must belong to ``ring``.
    """
    tokens = _tokenize(text)
    if ring is None:
        seen: list[str] = []
        for t in tokens:
            if t.kind == "name" and t.text not in seen:
                seen.append(t.text)
        ring = tuple(seen)
    return _Parser(tokens, tuple(ring)).parse()


def poly_to_text(p: MultiPoly) -> str:
    """Canonical printable form; parse(poly_to_text(p)) == p."""
    return p.pretty()
