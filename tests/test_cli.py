import json
import subprocess
import sys

import pytest

from lerayfront.cli import main

SPEC = {
    "operator": "tau^2 - xi1^2 - xi2^2",
    "front": "x1^2 + x2^3",
    "options": {"powerP": 2, "seed": 1, "irreducible": True},
}

M1_SPEC = {
    "operator": "tau",
    "front": "x1^2 + x2^3",
    "options": {"powerP": 2, "s": "1", "seed": 1, "irreducible": True},
}

BAD_FRONT_SPEC = {
    "operator": "tau^2 - xi1^2 - xi2^2",
    "front": "x1^2 + x2^2",
    "options": {},
}


def write_spec(tmp_path, spec, name="prob.json"):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return p


class TestCommands:
    def test_check(self, tmp_path):
        spec = write_spec(tmp_path, SPEC)
        out = tmp_path / "out"
        assert main(["check", "--spec", str(spec), "--out", str(out)]) == 0
        rec = json.loads((out / "check.json").read_text())
        assert rec["weights"] == [3, 2]
        assert rec["c3_dimension"] == 2
        assert rec["hyperbolicity"]["verdict"] == "passed samples"

    def test_homogeneous_front_exit_code(self, tmp_path):
        spec = write_spec(tmp_path, BAD_FRONT_SPEC)
        out = tmp_path / "out"
        code = main(["check", "--spec", str(spec), "--out", str(out)])
        assert code == 5
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "HomogeneousOnlyError"

    def test_phase_and_map(self, tmp_path):
        spec = write_spec(tmp_path, SPEC)
        out = tmp_path / "out"
        assert main(["phase", "--spec", str(spec), "--out", str(out)]) == 0
        rec = json.loads((out / "phase.json").read_text())
        assert rec["case"] == "case2"
        assert rec["mu_prime"] == 7 and rec["mu"] == 8
        assert main(["build-map", "--spec", str(spec), "--out", str(out)]) == 0
        rec = json.loads((out / "map.json").read_text())
        assert rec["K"] == 9 and len(rec["vars"]) == 10

    def test_milnor_on_m1(self, tmp_path):
        spec = write_spec(tmp_path, M1_SPEC)
        out = tmp_path / "out"
        assert main(["milnor", "--spec", str(spec), "--out", str(out)]) == 0
        rec = json.loads((out / "milnor.json").read_text())
        assert rec["mu"] == 9

    def test_full_m1_pipeline_and_determinism(self, tmp_path):
        spec = write_spec(tmp_path, M1_SPEC)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert main(["all", "--spec", str(spec), "--out", str(out1)]) == 0
        assert main(["all", "--spec", str(spec), "--out", str(out2)]) == 0
        for name in ("front.json", "gm.json", "summary.json", "map.json"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, f"{name} not byte-identical"
        rays = json.loads((out1 / "verify_rays.json").read_text())
        assert rays["pass"] is True

    def test_wavefront_artifacts_parse_back(self, tmp_path):
        spec = write_spec(tmp_path, M1_SPEC)
        out = tmp_path / "out"
        assert main(["wavefront", "--spec", str(spec), "--out", str(out)]) == 0
        from lerayfront.jsonio import poly_from_json

        rec = json.loads((out / "front.json").read_text())
        phi = poly_from_json(rec["phi"])
        assert not phi.is_zero()
        again = json.loads(json.dumps(rec["phi"]))
        assert poly_from_json(again) == phi

    def test_discriminant_small_map(self, tmp_path):
        # m = 1 parabola front: mu stays tiny so the symbolic det is cheap
        spec = write_spec(
            tmp_path,
            {
                "operator": "tau",
                "front": "x1 + x2^2",
                "options": {"powerP": 3, "s": "1", "irreducible": True},
            },
        )
        out = tmp_path / "out"
        assert main(["discriminant", "--spec", str(spec), "--out", str(out)]) == 0
        rec = json.loads((out / "discriminant.json").read_text())
        assert rec["delta"]["terms"]

    def test_missing_spec_file(self, tmp_path):
        code = main(["check", "--spec", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert code == 17


def _text_file(tmp_path, text):
    p = tmp_path / "prob.json"
    p.write_text(text)
    return p


def _directory(tmp_path, _):
    return tmp_path


BAD_INPUTS = [
    ("no front", write_spec, {"operator": "tau", "options": {}}, [], 2),
    ("malformed JSON", _text_file, '{"operator": "tau",', [], 17),
    ("spec is a directory", _directory, None, [], 17),
    ("options.s not rational", write_spec, dict(M1_SPEC, options={"s": "abc"}), [], 2),
    ("--s divides by zero", write_spec, M1_SPEC, ["--s", "1/0"], 2),
    ("front in y1, y2", write_spec, dict(M1_SPEC, front="y1^2 + y2^3"), [], 4),
    ("operator not monic", write_spec, dict(M1_SPEC, operator="2*tau"), [], 2),
]


@pytest.mark.parametrize(
    "make, content, flags, code", [case[1:] for case in BAD_INPUTS], ids=[c[0] for c in BAD_INPUTS]
)
def test_bad_input_exit_codes(tmp_path, make, content, flags, code):
    spec = make(tmp_path, content)
    out = tmp_path / "out"
    assert main(["check", "--spec", str(spec), "--out", str(out)] + flags) == code
    err = json.loads((out / "error.json").read_text())
    assert err["exit_code"] == code


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lerayfront.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "lerayfront" in proc.stdout
