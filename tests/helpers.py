"""Helpers that only the tests need: a matrix-vector product, basis
1-forms, and readers for the polynomial, matrix and form JSON that
``jsonio`` writes."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from lerayfront.forms import DiffForm
from lerayfront.linalg import RationalMatrix
from lerayfront.poly import MultiPoly


def matvec(A: RationalMatrix, v: Sequence[Fraction]) -> list[Fraction]:
    assert A.cols == len(v)
    return [sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in A.entries]


def d_variable(ring: Sequence[str], name: str) -> DiffForm:
    ring = tuple(ring)
    return DiffForm(ring, 1, {(ring.index(name),): MultiPoly.constant(ring, 1)})


def poly_from_json(obj: dict) -> MultiPoly:
    terms = {tuple(t["e"]): Fraction(t["c"]) for t in obj["terms"]}
    return MultiPoly(tuple(obj["vars"]), terms)


def matrix_from_json(obj: dict) -> list[list[MultiPoly]]:
    return [[poly_from_json(p) for p in row] for row in obj["entries"]]


def form_from_json(obj: dict) -> DiffForm:
    comps = {tuple(c["idx"]): poly_from_json(c["poly"]) for c in obj["components"]}
    return DiffForm(tuple(obj["vars"]), obj["degree"], comps)
