"""The artifact writer: the bytes of ``json.dump``, written in bounded chunks.

``jsonio.dump_json`` must write exactly what
``json.dump(obj, fh, sort_keys=True, indent=1, separators=(",", ": "))``
followed by a newline writes, on arbitrary nested values and on every
artifact ``all`` records, and it must stream its output instead of joining
the whole document first.
"""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lerayfront import cli
from lerayfront.jsonio import _write_json, dump_json


def reference(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=1, separators=(",", ": ")) + "\n").encode()


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
        reference(obj)
    with pytest.raises(TypeError, match="Fraction"):
        written(obj)


def test_unsupported_keys_raise_type_error():
    with pytest.raises(TypeError, match="keys must be"):
        written({Fraction(1, 2): 1})


class CountingFile:
    def __init__(self):
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)


def test_writer_streams_in_bounded_chunks():
    # 200 k leaves, in one long list and in one wide dict
    obj = {
        "terms": [{"c": f"{i}/7", "e": [i, 2 * i, 3]} for i in range(40_000)],
        "index": {f"k{i}": i for i in range(40_000)},
    }
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
