"""JSON serialization for polynomials, matrices, forms, and pipeline artifacts.

Schema: a polynomial is {"vars": [...], "terms": [{"c": "num/den", "e":
[ints]}]} with terms in canonical (grevlex-descending) order and rational
coefficients as strings, so arbitrary precision survives every consumer.
Matrices are row-major lists of polynomial objects.  All emitters sort keys
and avoid timestamps: identical inputs give byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .forms import DiffForm
from .poly import MultiPoly


def fraction_to_json(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)


def poly_to_json(p: MultiPoly) -> dict:
    return {
        "vars": list(p.ring),
        "terms": [
            {"c": fraction_to_json(c), "e": list(e)} for e, c in p.sorted_terms()
        ],
    }


def matrix_to_json(M: list[list[MultiPoly]]) -> dict:
    return {
        "rows": len(M),
        "cols": len(M[0]) if M else 0,
        "entries": [[poly_to_json(p) for p in row] for row in M],
    }


def form_to_json(f: DiffForm) -> dict:
    return {
        "degree": f.degree,
        "vars": list(f.ring),
        "components": [
            {"idx": list(idx), "poly": poly_to_json(f.components[idx])}
            for idx in sorted(f.components)
        ],
    }


def dump_json(obj: Any, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1, separators=(",", ": "))
        fh.write("\n")


def load_json(path) -> Any:
    with open(path) as fh:
        return json.load(fh)
