import dataclasses
import gc
import json
import subprocess
import sys
import tempfile
import types
import weakref
from math import nan
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lerayfront
from lerayfront import brieskorn, cli
from lerayfront.cli import COMMANDS, RAY_SAMPLES, Pipeline, Problem, main
from lerayfront.oracle import FrontEvalReport, LevelSet
from lerayfront.wavefront import T_ZERO_SAMPLES

from helpers import poly_from_json

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

WAVE_PARABOLA_SPEC = {
    "operator": "tau^2 - xi1^2 - xi2^2",
    "front": "x1 + x2^2",
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


class TestLevelSetStream:
    @pytest.mark.parametrize("spec", [M1_SPEC, WAVE_PARABOLA_SPEC], ids=["m1/cusp", "wave/parabola"])
    def test_verify_rays_alone_writes_the_bytes_of_all(self, tmp_path, spec):
        path = write_spec(tmp_path, spec)
        assert main(["all", "--spec", str(path), "--out", str(tmp_path / "all")]) == 0
        assert main(["verify-rays", "--spec", str(path), "--out", str(tmp_path / "rays")]) == 0
        for name in ("rays.csv", "verify_rays.json"):
            assert (tmp_path / "rays" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()

    def test_the_ray_oracle_reads_the_points_the_t_zero_check_drew(self, tmp_path):
        pipe = Pipeline(Problem(M1_SPEC, {}), tmp_path)
        pipe.cmd_wavefront()
        level = pipe.level_set()
        drawn = level.attempts
        fresh = LevelSet(pipe.pb.front, pipe.pb.s_value, pipe.pb.seed)
        assert len(fresh.take(T_ZERO_SAMPLES)) == T_ZERO_SAMPLES
        assert fresh.attempts == drawn
        pipe.cmd_verify_rays()
        assert pipe.level_set() is level and level.attempts == drawn

    def test_verify_rays_alone_draws_only_its_points(self, tmp_path):
        pipe = Pipeline(Problem(M1_SPEC, {}), tmp_path)
        pipe.cmd_verify_rays()
        fresh = LevelSet(pipe.pb.front, pipe.pb.s_value, pipe.pb.seed)
        fresh.take(RAY_SAMPLES)
        assert pipe.level_set().attempts == fresh.attempts
        fresh.take(T_ZERO_SAMPLES)
        assert fresh.attempts > pipe.level_set().attempts


def _lerayfront_object(o) -> bool:
    """Whether o is an instance of a lerayfront class, or a function, generator or
    frame of lerayfront's code."""
    code = None
    if isinstance(o, types.FunctionType):
        code = o.__code__
    elif isinstance(o, types.GeneratorType):
        code = o.gi_code
    elif isinstance(o, types.FrameType):
        code = o.f_code
    if code is not None:
        return Path(code.co_filename).is_relative_to(Path(lerayfront.__file__).parent)
    return type(o).__module__.split(".")[0] == "lerayfront"


def test_all_leaves_no_lerayfront_object_to_the_cyclic_collector(tmp_path):
    # with the collector off during the runs, every object of a reference
    # cycle is still there for one DEBUG_SAVEALL collection to list
    gc.collect()
    gc.disable()
    try:
        for k, spec in enumerate([M1_SPEC, WAVE_PARABOLA_SPEC]):
            path = write_spec(tmp_path, spec, f"prob{k}.json")
            assert main(["all", "--spec", str(path), "--out", str(tmp_path / f"o{k}")]) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [o for o in gc.garbage if _lerayfront_object(o)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not leaked, sorted({type(o).__qualname__ for o in leaked})


@pytest.mark.parametrize("spec", [M1_SPEC, WAVE_PARABOLA_SPEC], ids=["m1/cusp", "wave/parabola"])
def test_all_frees_its_pipeline_by_reference_counts_alone(tmp_path, spec):
    # a cycle through a started generator (such as the level set's stream of
    # lines) may not show in the DEBUG_SAVEALL list above; a weak reference
    # to each object that could hold one sees it
    gc.collect()
    gc.disable()
    try:
        pipe = Pipeline(Problem(spec, {}), tmp_path)
        pipe.cmd_all()
        refs = [weakref.ref(o) for o in (pipe, pipe.level_set(), pipe.front_result())]
        del pipe
        alive = [type(r()).__qualname__ for r in refs if r() is not None]
    finally:
        gc.enable()
    assert not alive


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
        names = sorted(path.name for path in out1.iterdir())
        assert names == sorted(path.name for path in out2.iterdir())
        for name in names:
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, f"{name} not byte-identical"
        rays = json.loads((out1 / "verify_rays.json").read_text())
        assert rays["pass"] is True
        # Milnor number 9 is above DISCRIMINANT_MAX_MU = 6
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["discriminant"] == summary["verify_discriminant"] == "skipped: mu 9 > 6"
        assert not (out1 / "verify_discriminant.json").exists()
        # flatness runs at every mu: K = 4 gives 6 pairs k < l
        assert summary["flatness"] == {"vacuous": False, "points": 3, "pairs": 6}

    def test_all_exits_15_on_a_corrupted_system_above_the_discriminant_cap(
        self, tmp_path, monkeypatch
    ):
        # m1/cusp: mu 9 > DISCRIMINANT_MAX_MU and K = 4, so only the flatness
        # check of `all` itself reads the P^(l)
        from lerayfront import cli
        from lerayfront.poly import MultiPoly

        gm_matrices = cli.gm_matrices

        def corrupted(*args, **kwargs):
            gm = gm_matrices(*args, **kwargs)
            bad = [[row[:] for row in P] for P in gm.matrices]
            bad[1][2][5] = bad[1][2][5] + MultiPoly.constant(bad[1][2][5].ring, 1)
            return dataclasses.replace(gm, matrices=bad)

        monkeypatch.setattr(cli, "gm_matrices", corrupted)
        spec = write_spec(tmp_path, M1_SPEC)
        out = tmp_path / "out"
        assert main(["all", "--spec", str(spec), "--out", str(out)]) == 15
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "CurvatureNonzeroError" and err["exit_code"] == 15
        assert (out / "gm.json").exists()
        assert not (out / "front.json").exists() and not (out / "summary.json").exists()

    def test_verify_discriminant_capped_falls_back_to_sampling(self, tmp_path, monkeypatch):
        # three S-pairs stop the wave/parabola eliminant long before it ends;
        # the exact check on two seeded lines takes over
        spec = write_spec(
            tmp_path,
            {
                "operator": "tau^2 - xi1^2 - xi2^2",
                "front": "x1 + x2^2",
                "options": {"powerP": 2, "seed": 1, "irreducible": True, "max_pairs": 3},
            },
        )
        runs = []
        for name in ("out1", "out2"):
            out = tmp_path / name
            assert main(["verify-discriminant", "--spec", str(spec), "--out", str(out)]) == 0
            runs.append((out / "verify_discriminant.json").read_bytes())
        assert runs[0] == runs[1]
        rec = json.loads(runs[0])
        assert rec["eliminant"] is None
        assert rec["verdict"] == (
            "capped: pairs/3; det M equals the characteristic polynomial on 2 seeded lines (exact)"
        )
        assert len(rec["lines"]) == 2
        for line in rec["lines"]:
            assert sorted(line) == ["a", "b", "quotient_dimension"]
            assert len(line["a"]) == len(line["b"]) == 7
            assert line["quotient_dimension"] == 9
        # the lines need no gcd: the same record with squarefree parts refused
        from lerayfront import gcdtools, oracle
        from lerayfront.errors import ResourceLimitError

        def no_squarefree_part(*args, **kwargs):
            raise AssertionError("line_check took a squarefree part")

        with monkeypatch.context() as patch:
            patch.setattr(gcdtools, "squarefree_part", no_squarefree_part)
            out = tmp_path / "no_gcd"
            assert main(["verify-discriminant", "--spec", str(spec), "--out", str(out)]) == 0
            assert (out / "verify_discriminant.json").read_bytes() == runs[0]
        # a cap hit on a line is a resource limit too, not a verdict

        def capped_groebner(*args, **kwargs):
            raise ResourceLimitError("Buchberger exceeded 1 S-pairs", kind="pairs", limit=1)

        monkeypatch.setattr(oracle, "groebner", capped_groebner)
        out = tmp_path / "out3"
        assert main(["verify-discriminant", "--spec", str(spec), "--out", str(out)]) == 14
        assert json.loads((out / "error.json").read_text())["error"] == "ResourceLimitError"
        assert not (out / "verify_discriminant.json").exists()

    def test_wavefront_artifacts_parse_back(self, tmp_path):
        spec = write_spec(tmp_path, M1_SPEC)
        out = tmp_path / "out"
        assert main(["wavefront", "--spec", str(spec), "--out", str(out)]) == 0
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

    def test_weights_flag_parses_integers(self, tmp_path):
        spec = write_spec(tmp_path, SPEC)
        out = tmp_path / "out"
        assert main(["check", "--spec", str(spec), "--out", str(out), "--weights", "3,2"]) == 0
        assert json.loads((out / "check.json").read_text())["weights"] == [3, 2]

    def test_missing_spec_file(self, tmp_path):
        code = main(["check", "--spec", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert code == 17


# s = 10^300 is a finite float, and the front's coefficients (powers of s)
# leave the float range; s = (10^2500 + 1) / 10^2500 is about 1, but its
# square has more digits than Python prints in an int by default
HUGE_S = "1e300"
LONG_S = f"{10**2500 + 1}/{10**2500}"


def test_a_huge_s_has_no_level_set_points_in_the_box(tmp_path):
    # {x1 + x2^2 = 10^300} misses the box |z_i| <= LEVEL_BOX, so the t = 0
    # check and the rays are vacuous; a NaN point from an overflowed root or
    # Newton step is not taken for a point of the level set
    options = dict(WAVE_PARABOLA_SPEC["options"], s=HUGE_S)
    spec = write_spec(tmp_path, dict(WAVE_PARABOLA_SPEC, options=options))
    out = tmp_path / "out"
    assert main(["all", "--spec", str(spec), "--out", str(out)]) == 0
    rows = (out / "t_zero.csv").read_text().splitlines()
    assert rows == ["samples,max_scaled_residual,no_real_points", "0,nan,True"]
    rec = json.loads((out / "verify_rays.json").read_text())
    assert (rec["samples"], rec["pass"]) == (0, None)
    assert (out / "rays.csv").read_text().splitlines()[1:] == []


@pytest.mark.parametrize("command", ["wavefront", "all"], ids=["wavefront-long", "all-long"])
def test_large_s_exits_with_a_documented_code(tmp_path, capsys, command):
    options = dict(WAVE_PARABOLA_SPEC["options"], s=LONG_S)
    spec = write_spec(tmp_path, dict(WAVE_PARABOLA_SPEC, options=options))
    out = tmp_path / "out"
    assert main([command, "--spec", str(spec), "--out", str(out)]) == 14
    assert "Traceback" not in capsys.readouterr().err
    err = json.loads((out / "error.json").read_text())
    assert (err["exit_code"], err["error"]) == (14, "ResourceLimitError")
    # no front.json is left behind, and the ray artifacts are never begun
    assert not (out / "front.json").exists()
    assert not (out / "rays.csv").exists() and not (out / "verify_rays.json").exists()


@pytest.mark.parametrize("command", ["wavefront", "verify-rays", "all"])
def test_an_s_past_the_float_range_has_no_level_set(tmp_path, capsys, command):
    # 10^400 has no float: the level set is refused where it is built,
    # before any point is drawn, with exit 19 and error.json
    options = dict(WAVE_PARABOLA_SPEC["options"], s="1e400")
    spec = write_spec(tmp_path, dict(WAVE_PARABOLA_SPEC, options=options))
    out = tmp_path / "out"
    assert main([command, "--spec", str(spec), "--out", str(out)]) == 19
    assert "Traceback" not in capsys.readouterr().err
    err = json.loads((out / "error.json").read_text())
    assert (err["exit_code"], err["error"]) == (19, "NotApplicableError")
    assert "float range" in err["message"]
    assert not (out / "t_zero.csv").exists() and not (out / "rays.csv").exists()


def test_verify_rays_scales_a_norm_past_the_float_range(tmp_path):
    # with s = LONG_S the front's coefficients, primitive over Z, are about
    # 10^10000, but its residuals on the rays are of order 1e-17
    options = dict(WAVE_PARABOLA_SPEC["options"], s=LONG_S)
    spec = write_spec(tmp_path, dict(WAVE_PARABOLA_SPEC, options=options))
    out = tmp_path / "out"
    assert main(["verify-rays", "--spec", str(spec), "--out", str(out)]) == 0
    rec = json.loads((out / "verify_rays.json").read_text())
    assert rec["pass"] is True
    assert 0 < rec["max_scaled_residual"] < 1e-12


@pytest.mark.parametrize("command", ["verify-rays", "all"])
def test_a_failed_ray_check_exits_16(tmp_path, capsys, command):
    # the wave/parabola ray residual, about 1e-17, is not below --tol 1e-30:
    # the command writes the ray artifacts, then fails with exit 16
    spec = write_spec(tmp_path, WAVE_PARABOLA_SPEC)
    out = tmp_path / "out"
    assert main([command, "--spec", str(spec), "--out", str(out), "--tol", "1e-30"]) == 16
    assert "Traceback" not in capsys.readouterr().err
    err = json.loads((out / "error.json").read_text())
    assert (err["exit_code"], err["error"]) == (16, "MismatchError")
    rec = json.loads((out / "verify_rays.json").read_text())
    assert rec["pass"] is False and rec["max_scaled_residual"] >= 1e-30
    assert (out / "rays.csv").read_text().splitlines()[1:]


def test_a_nan_ray_residual_exits_16(tmp_path, monkeypatch):
    # a NaN residual passes no tolerance
    monkeypatch.setattr(
        cli, "eval_front_on_samples", lambda phi, samples, s: FrontEvalReport(nan, len(samples))
    )
    spec = write_spec(tmp_path, WAVE_PARABOLA_SPEC)
    out = tmp_path / "out"
    assert main(["verify-rays", "--spec", str(spec), "--out", str(out)]) == 16
    assert json.loads((out / "error.json").read_text())["exit_code"] == 16
    assert json.loads((out / "verify_rays.json").read_text())["pass"] is False


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
    ("front without variables", write_spec, dict(SPEC, front="1"), ["--weights", "3,2"], 5),
    ("front cancels to zero", write_spec, dict(M1_SPEC, front="x1 - x1"), [], 5),
    ("operator not monic", write_spec, dict(M1_SPEC, operator="2*tau"), [], 2),
    ("zero denominator", write_spec, dict(M1_SPEC, front="x1^2 + x2^3 + 1/0"), [], 3),
    # past Python's recursion limit, and a digit that int() does not read
    ("deep nesting", write_spec, dict(M1_SPEC, front="(" * 1000 + "x1" + ")" * 1000), [], 3),
    ("2000 minus signs", write_spec, dict(M1_SPEC, operator="-" * 2000 + "tau"), [], 3),
    ("superscript exponent", write_spec, dict(M1_SPEC, front="x1^\u00b2 + x2^3"), [], 3),
    # a literal past sys.get_int_max_str_digits(), which int() refuses
    ("5000-digit literal", write_spec, dict(M1_SPEC, front="x1^2 + x2^3 + " + "1" * 5000), [], 3),
    ("weights not positive", write_spec, dict(M1_SPEC, options={"weights": [0, 2]}), [], 2),
    (
        "--weights, constant term",
        write_spec,
        dict(M1_SPEC, front="1 + x1^2 + x2^3"),
        ["--weights", "3,2"],
        5,
    ),
    (
        "weights, constant term",
        write_spec,
        dict(M1_SPEC, front="1 + x1^2 + x2^3", options={"weights": [3, 2]}),
        [],
        5,
    ),
    (
        "--weights, zero front",
        write_spec,
        dict(M1_SPEC, front="x1 + x2 - x1 - x2"),
        ["--weights", "1,1"],
        5,
    ),
    ("weights too long", write_spec, dict(M1_SPEC, options={"weights": [3, 2, 1]}), [], 2),
    ("--weights too short", write_spec, M1_SPEC, ["--weights", "3"], 2),
    ("--weights not integers", write_spec, M1_SPEC, ["--weights", "3,2.5"], 2),
    ("weights a string", write_spec, dict(M1_SPEC, options={"weights": "32"}), [], 2),
    ("weights entry a float", write_spec, dict(M1_SPEC, options={"weights": [3, 2.9]}), [], 2),
    ("weights a dict", write_spec, dict(M1_SPEC, options={"weights": {"3": 1, "2": 0}}), [], 2),
    ("powerP a float", write_spec, dict(M1_SPEC, options={"powerP": 2.9}), [], 2),
    ("powerP a boolean", write_spec, dict(M1_SPEC, options={"powerP": True}), [], 2),
    ("powerP below 2", write_spec, dict(M1_SPEC, options={"powerP": 1}), [], 2),
    ("seed a float", write_spec, dict(M1_SPEC, options={"seed": 1.5}), [], 2),
    ("max_pairs a string", write_spec, dict(M1_SPEC, options={"max_pairs": "100"}), [], 2),
    ("max_pairs zero", write_spec, dict(M1_SPEC, options={"max_pairs": 0}), [], 2),
    ("--max-pairs negative", write_spec, M1_SPEC, ["--max-pairs", "-5"], 2),
    ("tol nan", write_spec, dict(M1_SPEC, options={"tol": "nan"}), [], 2),
    ("tol zero", write_spec, dict(M1_SPEC, options={"tol": 0}), [], 2),
    ("tol a boolean", write_spec, dict(M1_SPEC, options={"tol": True}), [], 2),
    ("--tol nan", write_spec, M1_SPEC, ["--tol", "nan"], 2),
    ("--tol inf", write_spec, M1_SPEC, ["--tol", "inf"], 2),
    ("--tol negative", write_spec, M1_SPEC, ["--tol", "-1"], 2),
    # the f-basis weight cap is brieskorn.F_BASIS_WEIGHT_FACTOR: an unknown key
    ("weight_cap an unknown key", write_spec, dict(M1_SPEC, options={"weight_cap": 80}), [], 2),
    (
        "weight_cap beside valid options",
        write_spec,
        dict(M1_SPEC, options=dict(M1_SPEC["options"], weight_cap=80)),
        [],
        2,
    ),
    ("irreducible not boolean", write_spec, dict(M1_SPEC, options={"irreducible": "no"}), [], 2),
    ("misspelt option key", write_spec, dict(M1_SPEC, options={"max_pair": 3}), [], 2),
    (
        "options a list of pairs",
        write_spec,
        dict(M1_SPEC, options=[["seed", 3], ["irreducible", True]]),
        [],
        2,
    ),
    # hyperbolicity_samples is no option (the sample count is
    # phase.HYPERBOLICITY_SAMPLES): an unknown key, whatever its value
    (
        "no hyperbolicity samples",
        write_spec,
        dict(M1_SPEC, operator="tau^2 + xi1^2 + xi2^2", options={"hyperbolicity_samples": -3}),
        [],
        2,
    ),
    (
        "hyperbolicity samples a float",
        write_spec,
        dict(M1_SPEC, options={"hyperbolicity_samples": 2.5}),
        [],
        2,
    ),
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


def test_unknown_option_keys_are_named(tmp_path):
    options = dict(M1_SPEC["options"], max_pair=3, hyperbolicity_samples=25)
    spec = write_spec(tmp_path, dict(M1_SPEC, options=options))
    out = tmp_path / "out"
    assert main(["check", "--spec", str(spec), "--out", str(out)]) == 2
    message = json.loads((out / "error.json").read_text())["message"]
    assert "'max_pair'" in message and "'hyperbolicity_samples'" in message
    assert "seed" not in message


@pytest.mark.parametrize(
    "operator, failure",
    [
        ("tau^2 + xi1^2 + xi2^2", "complex characteristic roots"),
        ("tau^2 - 2*tau*xi1 + xi1^2", "repeated characteristic roots"),
    ],
)
def test_check_exits_7_when_not_strictly_hyperbolic(tmp_path, operator, failure):
    spec = write_spec(tmp_path, dict(M1_SPEC, operator=operator))
    out = tmp_path / "out"
    assert main(["check", "--spec", str(spec), "--out", str(out)]) == 7
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "HyperbolicityError" and err["exit_code"] == 7
    assert err["message"].startswith(f"{failure} at xi = ")
    assert not (out / "check.json").exists()


def test_constant_front_is_blamed_not_the_operator(tmp_path):
    spec = write_spec(tmp_path, dict(SPEC, front="1"))
    out = tmp_path / "out"
    assert main(["check", "--spec", str(spec), "--out", str(out), "--weights", "3,2"]) == 5
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConstantFrontError"
    assert "'1'" in err["message"] and "xi1" not in err["message"]


def test_space_dimension_comes_from_operator_and_front(tmp_path):
    # the front names only x2, the operator xi1 and xi2: both live in n = 2
    spec = write_spec(tmp_path, dict(SPEC, front="x2^3"))
    out = tmp_path / "out"
    assert main(["check", "--spec", str(spec), "--out", str(out)]) == 5
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "AmbiguousWeightsError"


def test_every_command_is_a_pipeline_method():
    for name in COMMANDS:
        assert callable(getattr(Pipeline, "cmd_" + name.replace("-", "_"), None)), name


def test_det_flag_is_gone(tmp_path):
    spec = write_spec(tmp_path, M1_SPEC)
    with pytest.raises(SystemExit) as exc:
        main(["discriminant", "--spec", str(spec), "--out", str(tmp_path), "--det", "interp"])
    assert exc.value.code == 2


def test_weight_cap_flag_is_gone(tmp_path):
    spec = write_spec(tmp_path, M1_SPEC)
    with pytest.raises(SystemExit) as exc:
        main(["gm", "--spec", str(spec), "--out", str(tmp_path), "--weight-cap", "80"])
    assert exc.value.code == 2


def test_gm_exits_10_past_the_f_basis_weight_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(brieskorn, "F_BASIS_WEIGHT_FACTOR", 0)
    spec = write_spec(tmp_path, M1_SPEC)
    out = tmp_path / "out"
    assert main(["gm", "--spec", str(spec), "--out", str(out)]) == 10
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "CapExceededError" and err["exit_code"] == 10
    assert not (out / "gm.json").exists()


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lerayfront.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "lerayfront" in proc.stdout


def test_all_runs_without_numpy(tmp_path):
    # the package needs only the standard library
    spec = write_spec(tmp_path, dict(M1_SPEC, front="x1 + x2^2"))
    args = ["all", "--spec", str(spec), "--out", str(tmp_path / "out")]
    code = (
        "import sys; sys.modules['numpy'] = None; from lerayfront.cli import main; "
        f"sys.exit(main({args!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "out" / "verify_rays.json").read_text())["pass"] is True


# -- fuzzed problem files ------------------------------------------------------

DOCUMENTED_CODES = {0, *range(2, 20)}
OPTION_KEYS = (
    "powerP",
    "seed",
    "tol",
    "max_pairs",
    "s",
    "weights",
    "irreducible",
    "det",
    "weight_cap",
    "front_strategy",
)
# "det", "weight_cap" and "front_strategy" are not options: such a file exits 2.
# Small integers keep the weights option cheap; the fuzz is about exit
# codes, not about cost.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=5),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=5,
)
# Fronts and operators: valid ones, ones outside x1..xn or tau, xi1..xin,
# syntax errors, and short random text (six characters cannot spell an
# expensive expression).
FRONTS = st.sampled_from(
    [
        "x1^2 + x2^3",
        "x1 + x2^2",
        "x1^2 + x2^2",
        "y1^2 + y2^3",
        "x2^2 + x3^3",
        "x1^2 + x3",
        "x1^2 + x2^3 + 1/0",
        "x1^-2 + x2^3",
        "x1^ + x2",
        "(x1 + x2",
        "x1 ** 2",
        "",
        "1",
    ]
) | st.text(alphabet="x1y23+-*^/() ", max_size=6)
OPERATORS = st.sampled_from(
    [
        "tau^2 - xi1^2 - xi2^2",
        "tau",
        "2*tau",
        "tau^2 + xi1^2",
        "tau^2 - xi3^2",
        "xi1",
        "tau^2 - xi1^2/0",
        "tau^",
    ]
) | st.text(alphabet="tauxi12+-*^/ ", max_size=6)


@st.composite
def problem_files(draw) -> str:
    spec = {}
    for key, texts in (("operator", OPERATORS), ("front", FRONTS)):
        kind = draw(st.sampled_from(["text", "text", "missing", "not text"]))
        if kind == "text":
            spec[key] = draw(texts)
        elif kind == "not text":
            spec[key] = draw(JSON_VALUES)
    if draw(st.booleans()):
        spec["options"] = draw(
            st.dictionaries(st.sampled_from(OPTION_KEYS), JSON_VALUES, max_size=4) | JSON_VALUES
        )
    text = json.dumps(spec)
    damage = draw(st.sampled_from(["none", "none", "truncated", "not an object", "garbage"]))
    if damage == "truncated":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif damage == "not an object":
        text = json.dumps(draw(JSON_VALUES))
    elif damage == "garbage":
        text = draw(st.text(max_size=20))
    return text


@settings(max_examples=150, deadline=None)
@given(text=problem_files())
def test_fuzzed_problem_files_exit_with_documented_codes(text):
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "prob.json"
        spec.write_text(text)
        out = Path(tmp) / "out"
        code = main(["check", "--spec", str(spec), "--out", str(out)])
        assert code in DOCUMENTED_CODES
        if code:
            assert json.loads((out / "error.json").read_text())["exit_code"] == code
        else:
            assert (out / "check.json").is_file()
