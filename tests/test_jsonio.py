"""The artifact writer: the bytes of ``json.dump``, written in bounded chunks.

``jsonio.dump_json`` must write exactly what ``json.dump(obj, fh,
sort_keys=True, indent=1, separators=(",", ": "), default=poly_to_json)``
followed by a newline writes, on arbitrary nested values, on values with
``MultiPoly`` leaves and on every artifact ``all`` records, and it must
stream its output instead of joining the whole document first.
"""

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lerayfront import cli
from lerayfront.errors import ResourceLimitError
from lerayfront.jsonio import _write_json, dump_json, matrix_to_json, poly_to_json
from lerayfront.poly import MultiPoly


def reference(obj) -> bytes:
    text = json.dumps(obj, sort_keys=True, indent=1, separators=(",", ": "), default=poly_to_json)
    return (text + "\n").encode()


def written(obj) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "out.json"
        dump_json(obj, path)
        return path.read_bytes()


texts = st.text() | st.text(alphabet='"\\/\x00\x08\x1f\x7fé \ud800\U0001f600 ab')
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324])
    | texts
)
values = st.recursive(
    leaves,
    lambda kids: st.lists(kids, max_size=6)
    | st.lists(kids, max_size=6).map(tuple)
    | st.lists(st.integers(), max_size=6)
    | st.dictionaries(texts, kids, max_size=6),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(values)
def test_writer_matches_json_dump(obj):
    assert written(obj) == reference(obj)


RINGS = [(), ("x1",), ("y0", "y1", "y2"), ("tau", "xi1", "é")]
coefficients = (
    st.fractions()
    | st.builds(Fraction, st.integers(-(2**400), 2**400), st.integers(1, 2**400))
    | st.sampled_from([Fraction(-1), Fraction(-(2**400) - 1, 3), Fraction(1, 2**399 + 1)])
)


@st.composite
def polys(draw):
    """The zero polynomial, constants and sparse polynomials over RINGS, the empty ring too."""
    ring = draw(st.sampled_from(RINGS))
    exponents = st.tuples(*[st.integers(0, 7)] * len(ring))
    return MultiPoly(ring, draw(st.dictionaries(exponents, coefficients, max_size=6)))


@st.composite
def poly_records(draw):
    """A polynomial at nesting depth 0-4, each level a list or a dict with siblings."""
    obj = draw(polys())
    for _ in range(draw(st.integers(0, 4))):
        siblings = draw(st.lists(polys() | leaves, max_size=3))
        siblings.insert(draw(st.integers(0, len(siblings))), obj)
        if draw(st.booleans()):
            obj = siblings
        else:
            n = len(siblings)
            obj = dict(zip(draw(st.lists(texts, min_size=n, max_size=n, unique=True)), siblings))
    return obj


@settings(max_examples=200, deadline=None)
@given(poly_records())
def test_poly_leaves_match_json_dump_with_poly_to_json(obj):
    assert written(obj) == reference(obj)


@pytest.mark.parametrize(
    "p",
    [
        MultiPoly((), {}),
        MultiPoly((), {(): Fraction(-3, 7)}),
        MultiPoly(("x1", "x2"), {}),
        MultiPoly(("x1", "x2"), {(0, 0): 5}),
        MultiPoly(("x1", "x2"), {(2, 0): Fraction(-(2**400), 3**250), (0, 1): Fraction(1, 2**400)}),
    ],
    ids=["zero, empty ring", "constant, empty ring", "zero", "constant", "400-bit"],
)
def test_poly_unit_cases_match_json_dump(p):
    for obj in (p, [p], {"p": p}, [[1, {"a": [p, p]}]], {"m": {"n": [{"o": p}]}}):
        assert written(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        [[], {}, [[]], {"a": {}}],
        [1, True, 2, False, 3],
        [True, 1],
        (1, (2, 3), ()),
        {10: "ten", 2: "two", -1: "minus one"},
        {1.5: 1, -0.5: 2},
        {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")},
        "é\"\\\n",
        7,
        None,
    ],
)
def test_unit_cases_match_json_dump(obj):
    assert written(obj) == reference(obj)


def test_int_dict_keys_sort_as_numbers():
    assert written({10: 1, 2: 2}) == b'{\n "2": 2,\n "10": 1\n}\n'


@pytest.mark.parametrize("obj", [Fraction(1, 2), [1, Fraction(1, 2)], {"c": Fraction(1, 2)}])
def test_fraction_raises_type_error(obj):
    with pytest.raises(TypeError):
        json.dumps(obj)
    with pytest.raises(TypeError, match="Fraction"):
        written(obj)


def test_unsupported_keys_raise_type_error():
    with pytest.raises(TypeError, match="keys must be"):
        written({Fraction(1, 2): 1})


def test_an_int_too_long_to_print_leaves_no_file(tmp_path):
    # the strings fill several streamed chunks before the writer meets the int
    path = tmp_path / "out.json"
    with pytest.raises(ResourceLimitError) as err:
        obj = {"a": [str(i) for i in range(5000)], "z": 10 ** sys.get_int_max_str_digits()}
        dump_json(obj, path)
    assert err.value.kind == "int-digits" and err.value.exit_code == 14
    assert not path.exists()


class CountingFile:
    def __init__(self):
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)


RING = ("y0", "y1", "y2")


def _poly(n_terms: int, shift: int = 0) -> MultiPoly:
    return MultiPoly(
        RING, {(i % 200, i // 200, 3): Fraction(i + shift + 1, 7) for i in range(n_terms)}
    )


@pytest.mark.parametrize(
    "obj",
    [
        # 200 k leaves, in one long list and in one wide dict
        {
            "terms": [{"c": f"{i}/7", "e": [i, 2 * i, 3]} for i in range(40_000)],
            "index": {f"k{i}": i for i in range(40_000)},
        },
        {"poly": _poly(40_000)},
        {"M": matrix_to_json([[_poly(100, 15 * i + j) for j in range(15)] for i in range(15)])},
    ],
    ids=["dicts", "40,000-term polynomial", "15 x 15 polynomial matrix"],
)
def test_writer_streams_in_bounded_chunks(obj):
    fh = CountingFile()
    _write_json(obj, fh)
    document = "".join(fh.chunks)
    assert document.encode() == reference(obj)
    assert len(fh.chunks) > 1
    assert max(map(len, fh.chunks)) < len(document) // 10


M1_CUSP = {
    "operator": "tau",
    "front": "x1^2 + x2^3",
    "options": {"powerP": 2, "s": "1", "seed": 1, "irreducible": True},
}
WAVE_PARABOLA = {
    "operator": "tau^2 - xi1^2 - xi2^2",
    "front": "x1 + x2^2",
    "options": {"powerP": 2, "s": "1", "seed": 1, "irreducible": True},
}
RECORDS = ["check", "phase", "map", "milnor", "gm", "front", "verify_rays", "summary"]


@pytest.mark.parametrize(
    "spec, names",
    [
        (M1_CUSP, RECORDS),
        (WAVE_PARABOLA, RECORDS + ["discriminant", "verify_discriminant"]),
    ],
    ids=["m1_cusp", "wave_parabola"],
)
def test_all_artifacts_match_json_dump(tmp_path, monkeypatch, spec, names):
    compared = {}

    def both_writers(obj, path):
        dump_json(obj, path)
        compared[Path(path).stem] = Path(path).read_bytes() == reference(obj)

    monkeypatch.setattr(cli, "dump_json", both_writers)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert cli.main(["all", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 0
    assert sorted(compared) == sorted(names)
    assert all(compared.values()), compared
