"""JSON serialization for polynomials, matrices, forms, and pipeline artifacts.

Schema: a polynomial is {"vars": [...], "terms": [{"c": "num/den", "e":
[ints]}]} with terms in canonical (grevlex-descending) order and rational
coefficients as strings, so arbitrary precision survives every consumer.
``poly_to_json`` is the one definition of that value.  Records carry
``MultiPoly`` leaves (``matrix_to_json``'s entries, ``form_to_json``'s
components and ``cli``'s records alike), and the writer renders each leaf
as ``poly_to_json`` would.  All emitters sort keys and avoid timestamps:
identical inputs give byte-identical files.

Byte contract: for a value whose dict keys are all ``str``,
``dump_json(obj, path)`` writes exactly the bytes of ``json.dump(obj, fh,
sort_keys=True, indent=1, separators=(",", ": "), default=poly_to_json)``
followed by ``"\n"``; any other key raises TypeError.  ``json.dump`` with an
``indent`` always runs the pure-Python ``_iterencode``, one ``write`` per
token; the writer here walks the value itself with the same rules
(``encode_basestring_ascii`` for keys and strings, ``int.__repr__``,
``float.__repr__`` with ``NaN`` and ``Infinity`` spelled as ``json`` spells
them, keys sorted), writes a list whose items are all ``int`` in one join,
and writes a polynomial one piece per term, with each exponent list
rendered once per nesting depth.

Streaming: the writer collects pieces in a list and hands them to the file in
one ``write`` whenever the list reaches ``_FLUSH_PIECES``, so its memory stays
bounded by that count and the distinct exponent lists, not by the size of
the document.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .errors import ResourceLimitError
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
        "entries": M,
    }


def form_to_json(f: DiffForm) -> dict:
    return {
        "degree": f.degree,
        "vars": list(f.ring),
        "components": [
            {"idx": list(idx), "poly": f.components[idx]}
            for idx in sorted(f.components)
        ],
    }


# Pieces collected before one write; bounds the writer's memory.
_FLUSH_PIECES = 1024
_INF = float("inf")
_INT_ONLY = {int}


def _scalar_text(o: Any) -> str:
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


class _Writer:
    """One document written to ``fh`` under the module's byte contract and streaming rule.

    The state is the instance's and the methods reach each other through
    ``self``: nested closures that call each other would form a reference
    cycle and keep the file object alive until the cyclic collector ran.
    """

    def __init__(self, fh):
        self.fh = fh
        self.pieces: list[str] = []
        self.newlines = ["\n"]  # newlines[k] is a newline and the indent of depth k
        self.exponent_blocks: dict[int, dict] = {}  # level -> exponent tuple -> its "e" text

    def flush(self) -> None:
        self.fh.write("".join(self.pieces))
        self.pieces.clear()

    def emit_poly(self, p: MultiPoly, level: int) -> None:
        """``poly_to_json(p)`` at depth ``level``, one piece per term."""
        pieces, newlines = self.pieces, self.newlines
        append = pieces.append
        while len(newlines) <= level + 4:
            newlines.append(newlines[-1] + " ")
        n1, n2, n3, n4 = newlines[level + 1 : level + 5]
        blocks = self.exponent_blocks.setdefault(level, {})
        terms = p.sorted_terms()
        append("{" + n1 + '"terms": ' + ("[" if terms else "[]"))
        sep = n2 + "{" + n3 + '"c": "'
        for e, c in terms:
            block = blocks.get(e)
            if block is None:
                block = "[" + n4 + ("," + n4).join(map(int.__repr__, e)) + n3 + "]" if e else "[]"
                blocks[e] = block
            append(sep + fraction_to_json(c) + '",' + n3 + '"e": ' + block + n2 + "}")
            sep = "," + n2 + "{" + n3 + '"c": "'
            if len(pieces) >= _FLUSH_PIECES:
                self.flush()
        append((n1 + "]," if terms else ",") + n1 + '"vars": ')
        self.emit(p.ring, level + 1)
        append(newlines[level] + "}")

    def emit(self, o: Any, level: int) -> None:
        pieces, newlines = self.pieces, self.newlines
        append = pieces.append
        encode = encode_basestring_ascii
        if isinstance(o, str):
            append(encode(o))
            return
        if isinstance(o, MultiPoly):
            self.emit_poly(o, level)
            return
        if not isinstance(o, (list, tuple, dict)):
            append(_scalar_text(o))
            return
        if not o:
            append("{}" if isinstance(o, dict) else "[]")
            return
        if len(newlines) <= level + 1:
            newlines.append(newlines[-1] + " ")
        inner = newlines[level + 1]
        comma = "," + inner
        if isinstance(o, dict):
            sep = "{" + inner
            for key, v in sorted(o.items()):
                head = encode(key) + ": "
                if isinstance(v, str):
                    append(sep + head + encode(v))
                else:
                    append(sep + head)
                    self.emit(v, level + 1)
                sep = comma
                if len(pieces) >= _FLUSH_PIECES:
                    self.flush()
            append(newlines[level] + "}")
        elif set(map(type, o)) == _INT_ONLY:
            append("[" + inner + comma.join(map(int.__repr__, o)) + newlines[level] + "]")
        else:
            sep = "[" + inner
            for v in o:
                if isinstance(v, str):
                    append(sep + encode(v))
                else:
                    append(sep)
                    self.emit(v, level + 1)
                sep = comma
                if len(pieces) >= _FLUSH_PIECES:
                    self.flush()
            append(newlines[level] + "]")


def _write_json(obj: Any, fh) -> None:
    """Write ``obj`` to ``fh`` under the module's byte contract and streaming rule."""
    writer = _Writer(fh)
    writer.emit(obj, 0)
    writer.pieces.append("\n")
    writer.flush()


def int_digits_error(err: ValueError, what) -> ResourceLimitError:
    """``what`` holds an int longer than ``sys.get_int_max_str_digits()``."""
    limit = sys.get_int_max_str_digits()
    return ResourceLimitError(f"{what} not written: {err}", kind="int-digits", limit=limit)


def dump_json(obj: Any, path) -> None:
    """Write ``obj`` to ``path``; an integer too long to print removes the
    partly written file and raises ``int_digits_error``."""
    try:
        with open(path, "w") as fh:
            _write_json(obj, fh)
    except ValueError as err:
        os.remove(path)
        raise int_digits_error(err, path) from None


def load_json(path) -> Any:
    with open(path) as fh:
        return json.load(fh)
