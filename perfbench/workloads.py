"""The benchmark's problems, how each one is run, and the checks on its output.

Every problem calls lerayfront through module attributes (``gaussmanin.
flatness_check``, not a name imported into this file), so the tracer's
wrappers see the benchmark's own calls as well as the program's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from lerayfront import brieskorn, cli, gaussmanin, oracle, parser, phase

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

WAVE = "tau^2 - xi1^2 - xi2^2"
FIRST_ORDER = "tau"
CUSP = "x1^2 + x2^3"
PARABOLA = "x1 + x2^2"

ACCEPTED_VERDICTS = ("equal radicals (exact)", "mutual sampled containment")
HAND_RAY_TIMES = (Fraction(1, 10), Fraction(1, 2), Fraction(1))


def digest(p) -> str:
    """sha256 of the polynomial itself (ring, exponents, exact coefficients).

    Independent of ``jsonio`` and of the artifact layout, so later changes to
    ``front.json`` metadata do not move it while any change to phi does.
    """
    terms = sorted((list(e), c.numerator, c.denominator) for e, c in p.terms.items())
    blob = json.dumps([list(p.ring), terms], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Outcome:
    solve_s: float
    verify_s: float | None = None
    failures: list[str] = field(default_factory=list)
    front_terms: int = 0


class FrontProblem:
    """``lerayfront all`` on a problem file, split into solve and verify.

    solve: check, phase, build-map, milnor, gm, discriminant (when this
    problem's ``all`` computes it) and wavefront, ending with front.json and
    t_zero.csv written.  verify: verify-discriminant (when ``all`` runs it),
    verify-rays, and ``flatness_points`` extra flatness points.
    """

    def __init__(self, name, operator, front, with_discriminant, flatness_points=0, ray_speed=1):
        self.name = name
        self.operator = operator
        self.front = front
        self.with_discriminant = with_discriminant
        self.flatness_points = flatness_points
        self.ray_speed = ray_speed
        self.expected = EXPECTED[name]

    def spec(self, seed: int) -> dict:
        return {
            "operator": self.operator,
            "front": self.front,
            "options": {"powerP": 2, "s": "1", "seed": seed, "irreducible": True},
        }

    def run(self, seed: int, out: Path, verify: bool = True, clock=perf_counter) -> Outcome:
        pipe = cli.Pipeline(cli.Problem(self.spec(seed), {}), out)
        t0 = clock()
        pipe.cmd_check()
        pipe.cmd_phase()
        pipe.cmd_build_map()
        pipe.cmd_milnor()
        pipe.cmd_gm()
        if self.with_discriminant:
            pipe.cmd_discriminant()
        front = pipe.cmd_wavefront()
        solve_s = clock() - t0
        if not verify:
            return Outcome(solve_s)
        t1 = clock()
        verdict = pipe.cmd_verify_discriminant()["verdict"] if self.with_discriminant else None
        rays = pipe.cmd_verify_rays()
        if self.flatness_points:
            gaussmanin.flatness_check(pipe.system(), sample_points=self.flatness_points, seed=seed)
        verify_s = clock() - t1
        phi = pipe.front_result().phi
        return Outcome(
            solve_s, verify_s, self.check(phi, front, rays, verdict, pipe.pb.tol), len(phi.terms)
        )

    def check(self, phi, front, rays, verdict, tol) -> list[str]:
        failures = []
        # x = (1 +/- c t, 0) follows the characteristic ray from z = (1, 0) on
        # F = 1 for both fronts (grad F there points along x1); c is the ray
        # speed, 0 for the first-order operator whose front stands still.
        for t in HAND_RAY_TIMES:
            for x1 in sorted({1 - self.ray_speed * t, 1 + self.ray_speed * t}):
                if phi.eval_exact({"x1": x1, "x2": Fraction(0), "t": t}) != 0:
                    failures.append(f"phi({x1}, 0, {t}) != 0")
        if rays["pass"] is not True:
            failures.append(f"ray residual {rays['max_scaled_residual']} not below {tol}")
        t_zero = front.get("t_zero", {})
        if not t_zero.get("samples") or not t_zero["max_scaled_residual"] < tol:
            failures.append(f"t=0 residual check failed: {t_zero}")
        if self.with_discriminant and verdict not in ACCEPTED_VERDICTS:
            failures.append(f"eliminant verdict {verdict!r}")
        if len(phi.terms) != self.expected["terms"]:
            failures.append(f"front has {len(phi.terms)} terms, expected {self.expected['terms']}")
        if digest(phi) != self.expected["digest"]:
            failures.append("front digest differs from the recorded one")
        return failures


class MapProblem:
    """A hand-built singularity map: gm, discriminant, then its checks.

    solve: gm_matrices, assemble_system, discriminant.  verify: residue
    exponents (K = 1) or flatness at five points (K >= 2), the elimination
    oracle, and the comparison of its zero set with det M = 0.
    """

    def __init__(self, name, components, weights):
        self.name = name
        self.components = components
        self.weights = weights
        self.expected = EXPECTED[name]

    def run(self, seed: int, out: Path, verify: bool = True, clock=perf_counter) -> Outcome:
        ring = tuple(f"u{i + 1}" for i in range(len(self.weights)))
        icis = phase.make_icis(
            [parser.parse_poly(c, ring=ring) for c in self.components], self.weights
        )
        t0 = clock()
        data = gaussmanin.assemble_system(brieskorn.gm_matrices(icis), icis)
        delta = gaussmanin.discriminant(data)
        solve_s = clock() - t0
        if not verify:
            return Outcome(solve_s)
        t1 = clock()
        exponents = None
        if data.K == 1:
            exponents = gaussmanin.residue_exponents_K1(data)
        else:
            gaussmanin.flatness_check(data, sample_points=5, seed=seed)
        eliminant = oracle.critical_locus_eliminant(icis)
        verdict = oracle.compare_discriminants(delta, eliminant, seed=seed).verdict
        verify_s = clock() - t1
        failures = []
        if verdict not in ACCEPTED_VERDICTS:
            failures.append(f"eliminant verdict {verdict!r}")
        if exponents is not None and [str(e) for e in exponents] != self.expected["exponents"]:
            failures.append(f"exponents {exponents}, expected {self.expected['exponents']}")
        if digest(delta) != self.expected["digest"]:
            failures.append("discriminant digest differs from the recorded one")
        return Outcome(solve_s, verify_s, failures)


WAVE_CUSP = FrontProblem("wave_cusp", WAVE, CUSP, with_discriminant=False, flatness_points=3)
WAVE_PARABOLA = FrontProblem("wave_parabola", WAVE, PARABOLA, with_discriminant=True)
SMALL = (
    FrontProblem("m1_cusp", FIRST_ORDER, CUSP, with_discriminant=False, ray_speed=0),
    FrontProblem("m1_parabola", FIRST_ORDER, PARABOLA, with_discriminant=True, ray_speed=0),
    MapProblem("map_cusp", ["u1^2 + u2^3"], (3, 2)),
    MapProblem("map_a1", ["u1^2 + u2^2 + u3^2"], (1, 1, 1)),
    MapProblem("map_a4", ["u1^2 + u2^5"], (5, 2)),
    MapProblem(
        "map_quadric_pair",
        ["u1^2 + u2^2 + u3^2", "u1^2 + 2*u2^2 + 3*u3^2"],
        (1, 1, 1),
    ),
)

# One cycle of a workload runs each of its problems once.
WORKLOADS = {
    "wave_cusp_s1": (WAVE_CUSP,),
    "wave_parabola_s1": (WAVE_PARABOLA,),
    "small_corpus": SMALL,
}
