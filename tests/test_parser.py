import json
import sys
from fractions import Fraction

import pytest

from lerayfront.errors import (
    ExpressionSyntaxError,
    NegativeExponentError,
    UnknownVariableError,
)
from lerayfront.jsonio import form_to_json, matrix_to_json, poly_to_json
from lerayfront.parser import parse_poly, poly_to_text
from lerayfront.poly import MultiPoly

from helpers import form_from_json, matrix_from_json, poly_from_json


def round_trip(obj):
    """A record with MultiPoly leaves through JSON text and back, as an artifact reader sees it."""
    return json.loads(json.dumps(obj, default=poly_to_json))


class TestParse:
    def test_cusp(self):
        p = parse_poly("x1^2 + x2^3")
        ring = ("x1", "x2")
        x1 = MultiPoly.variable(ring, "x1")
        x2 = MultiPoly.variable(ring, "x2")
        assert p == x1**2 + x2**3

    def test_wave_symbol(self):
        p = parse_poly("tau^2 - xi1^2 - xi2^2")
        assert p.ring == ("tau", "xi1", "xi2")
        assert p.total_degree() == 2

    def test_negative_exponent(self):
        with pytest.raises(NegativeExponentError):
            parse_poly("x1^-1")

    def test_rational_literal(self):
        p = parse_poly("3/4*x + 1/2", ring=("x",))
        x = MultiPoly.variable(("x",), "x")
        assert p == x.scale(Fraction(3, 4)) + MultiPoly.constant(("x",), Fraction(1, 2))

    def test_parentheses_and_unary(self):
        p = parse_poly("-(x - 2)*(x + 2)", ring=("x",))
        x = MultiPoly.variable(("x",), "x")
        assert p == -(x**2) + MultiPoly.constant(("x",), 4)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            parse_poly("x + q", ring=("x",))

    def test_syntax_error_position(self):
        with pytest.raises(ExpressionSyntaxError, match=r"\(line 1, column 6\)$"):
            parse_poly("x1 + + ^")
        with pytest.raises(ExpressionSyntaxError, match=r"\(line 2, column 3\)$"):
            parse_poly("x1 +\n  )")

    @pytest.mark.parametrize(
        "before, column",
        [("x1 + ", 6), ("x1 + 1/", 8), ("x1^", 4)],
        ids=["numerator", "denominator", "exponent"],
    )
    def test_too_long_integer_is_a_syntax_error(self, before, column):
        # int() refuses a digit run past sys.get_int_max_str_digits() (4300 by default)
        limit = sys.get_int_max_str_digits()
        message = rf"{limit + 1} digits exceeds the limit of {limit} \(line 1, column {column}\)$"
        with pytest.raises(ExpressionSyntaxError, match=message):
            parse_poly(before + "1" * (limit + 1))
        if before != "x1^":  # x1 to a power of limit digits would not fit in memory
            assert not parse_poly(before + "1" * limit).is_zero()

    @pytest.mark.parametrize(
        "text",
        ["(" * 1000 + "x1" + ")" * 1000, "-" * 2000 + "x1", "x1^\u00b2", "\u00b2"],
        ids=["deep parentheses", "many minus signs", "superscript exponent", "superscript"],
    )
    def test_bad_text_is_a_syntax_error(self, text):
        with pytest.raises(ExpressionSyntaxError):
            parse_poly(text)

    def test_fifty_deep_parentheses_parse(self):
        x = MultiPoly.variable(("x1",), "x1")
        assert parse_poly("(" * 50 + "x1 + 1" + ")" * 50) == x + MultiPoly.constant(("x1",), 1)
        assert parse_poly("-" * 50 + "x1") == x

    def test_round_trip(self):
        texts = ["x1^2 + x2^3", "2*x1*x2 - 7", "1/3*x1^4 - x2 + 5/2"]
        for t in texts:
            p = parse_poly(t, ring=("x1", "x2"))
            assert parse_poly(poly_to_text(p), ring=("x1", "x2")) == p


class TestJson:
    def test_poly_round_trip(self):
        p = parse_poly("1/3*x1^4 - x2 + 5/2", ring=("x1", "x2"))
        assert poly_from_json(round_trip(p)) == p

    def test_matrix_round_trip(self):
        ring = ("y0", "y1")
        y0 = MultiPoly.variable(ring, "y0")
        y1 = MultiPoly.variable(ring, "y1")
        M = [[y0, y1], [y0 * y1, MultiPoly.zero(ring)]]
        again = matrix_from_json(round_trip(matrix_to_json(M)))
        assert again == M

    def test_form_round_trip(self):
        from lerayfront.forms import DiffForm

        ring = ("u1", "u2", "u3")
        u1 = MultiPoly.variable(ring, "u1")
        f = DiffForm(ring, 2, {(0, 1): u1, (1, 2): MultiPoly.constant(ring, Fraction(-3, 7))})
        assert form_from_json(round_trip(form_to_json(f))) == f
