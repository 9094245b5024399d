"""Command-line driver: problem files in, JSON/CSV artifacts out.

A problem file is JSON with an ``operator`` expression in (tau, xi1..xin),
a ``front`` expression in (x1..xn), and an ``options`` block.  Commands
cover individual pipeline stages plus ``all`` for the end-to-end run; every
structured error maps to a documented nonzero exit code.

``verify-discriminant`` compares det M with the eliminant of the critical
locus by exact divisibility (``oracle.compare_discriminants``).  When a
resource cap stops the eliminant, it compares det M on two seeded lines
with the characteristic polynomial of the line parameter instead
(``oracle.line_check``), up to a constant; both verdicts are exact, neither
takes a gcd, and a cap hit on the lines is exit 14.

``verify-rays`` writes ``rays.csv`` and ``verify_rays.json`` and then exits
16 when the worst ray residual is not below the tolerance, a NaN included;
with no ray point (``"pass": null``) it exits 0.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from math import inf
from pathlib import Path

from . import __version__
from .brieskorn import f_basis, gm_matrices, phi_basis
from .errors import (
    ConstantFrontError,
    LerayfrontError,
    MismatchError,
    ProblemFileError,
    ResourceLimitError,
    UnknownVariableError,
    UsageError,
)
from .gaussmanin import assemble_system, discriminant, flatness_check
from .groebner import MAX_PAIRS
from .jsonio import (
    dump_json,
    form_to_json,
    fraction_to_json,
    int_digits_error,
    load_json,
    matrix_to_json,
)
from .oracle import (
    LevelSet,
    compare_discriminants,
    critical_locus_eliminant,
    eval_front_on_samples,
    line_check,
    sample_front,
)
from .parser import parse_poly, poly_to_text
from .phase import (
    HyperbolicSymbol,
    WeightSystem,
    build_mapping,
    build_phase,
    check_c3,
    check_strict_hyperbolicity,
    discover_weights,
    expand_phase,
)
from .poly import weight
from .wavefront import front_polynomial, t_zero_check

COMMANDS = (
    "check",
    "phase",
    "build-map",
    "milnor",
    "gm",
    "discriminant",
    "wavefront",
    "verify-discriminant",
    "verify-rays",
    "all",
)
# verify-rays follows the characteristic rays from this many level-set points
# (the first ones of the run's stream, which the t = 0 check reads too)
RAY_SAMPLES = 40
# ``all`` runs the discriminant and the eliminant comparison only up to this
# Milnor number; above it the symbolic det M and the elimination cost too
# much, and summary.json records both stages as skipped.
DISCRIMINANT_MAX_MU = 6


# every key a problem file's options block may hold; any other is exit 2
OPTION_KEYS = frozenset(
    ("irreducible", "powerP", "seed", "tol", "max_pairs", "s", "weights")
)

_SPACE_VARIABLE = re.compile(r"xi?([1-9][0-9]*)")


def _json_int(name: str, value) -> int:
    """An option value that must be a JSON integer (true/false and 2.0 are not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


class Problem:
    """Parsed problem file plus effective options.

    ``overrides`` holds the command-line flags; ``weights`` there is the
    ``--weights`` text split at commas, one base-10 integer per entry.
    """

    def __init__(self, spec: dict, overrides: dict):
        if not isinstance(spec, dict):
            raise UsageError("problem file must hold a JSON object")
        missing = [key for key in ("operator", "front") if not isinstance(spec.get(key), str)]
        if missing:
            raise UsageError(f"problem file lacks a text {' and '.join(missing)}")
        self.front = parse_poly(spec["front"])
        # n counts the space variables named by either expression: x1..xn in
        # the front, xi1..xin in the operator
        names = self.front.ring + parse_poly(spec["operator"]).ring
        n = max((int(m[1]) for m in map(_SPACE_VARIABLE.fullmatch, names) if m), default=0)
        expected = tuple(f"x{i + 1}" for i in range(n))
        if not set(self.front.ring) <= set(expected):
            raise UnknownVariableError(
                f"front must use variables x1..x{n}, got {self.front.ring}"
            )
        self.front = self.front.rename_ring(expected)
        if self.front.is_constant():
            raise ConstantFrontError(f"front {spec['front']!r} is constant: it uses no variable xk")
        op_ring = ("tau",) + tuple(f"xi{i + 1}" for i in range(n))
        self.operator = parse_poly(spec["operator"], ring=op_ring)
        self.n = n
        try:
            options = spec.get("options", {})
            if not isinstance(options, dict):
                raise UsageError(f"options must be a JSON object, got {options!r}")
            options = dict(options)
            if overrides.get("weights") is not None:
                overrides = dict(overrides, weights=[int(x) for x in overrides["weights"]])
            options.update({k: v for k, v in overrides.items() if v is not None})
            unknown = sorted(map(repr, set(options) - OPTION_KEYS))
            if unknown:
                raise UsageError(f"unknown option {', '.join(unknown)}")
            irreducible = options.get("irreducible", False)
            if not isinstance(irreducible, bool):
                raise ValueError(f"irreducible must be true or false, got {irreducible!r}")
            self.symbol = HyperbolicSymbol.from_poly(
                self.operator, irreducible_attested=irreducible
            )
            self.power = _json_int("powerP", options.get("powerP", 2))
            if self.power < 2:
                raise ValueError(f"powerP must be at least 2, got {self.power}")
            self.seed = _json_int("seed", options.get("seed", 1))
            tol = options.get("tol", 1e-6)
            if isinstance(tol, bool):
                raise ValueError(f"tol must be a number, got {tol!r}")
            self.tol = float(tol)
            if not 0 < self.tol < inf:
                raise ValueError(f"tol must be a finite positive number, got {self.tol}")
            self.max_pairs = _json_int("max_pairs", options.get("max_pairs", MAX_PAIRS))
            if self.max_pairs < 1:
                raise ValueError(f"max_pairs must be at least 1, got {self.max_pairs}")
            self.s_value = options.get("s")
            if self.s_value is not None:
                self.s_value = Fraction(str(self.s_value))
            w = options.get("weights")
            if w is not None and not isinstance(w, list):
                raise ValueError(f"weights must be a list of integers, got {w!r}")
            self.explicit_weights = None if w is None else tuple(
                _json_int("a weights entry", x) for x in w
            )
            if self.explicit_weights is not None:
                if len(self.explicit_weights) != n:
                    raise ValueError(f"weights must have {n} entries, one per front variable")
                if min(self.explicit_weights) <= 0:
                    raise ValueError("weights must be positive")
        except (TypeError, ValueError, ZeroDivisionError) as err:
            raise UsageError(f"bad operator or option value: {err}") from None

    def weight_system(self) -> WeightSystem:
        if self.explicit_weights is not None:
            # w(F) is the top weighted degree (0 for F = 0, which WeightSystem
            # rejects); the Euler check rejects any lower term, a constant too
            F = self.front
            total = max((weight(e, self.explicit_weights) for e in F.terms), default=0)
            ws = WeightSystem(self.explicit_weights, total)
            ws.verify(F)
            return ws
        return discover_weights(self.front)


class Pipeline:
    """Lazy stage evaluation with JSON artifact emission."""

    def __init__(self, problem: Problem, out: Path):
        self.pb = problem
        self.out = out
        self._cache: dict[str, object] = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def weights(self):
        return self._get("weights", self.pb.weight_system)

    def c3(self):
        return self._get("c3", lambda: check_c3(self.pb.front))

    def hyperbolicity(self):
        return self._get("hyp", lambda: check_strict_hyperbolicity(self.pb.symbol, self.pb.seed))

    def psi(self):
        return self._get("psi", lambda: build_phase(self.pb.symbol, self.pb.front))

    def expansion(self):
        return self._get(
            "exp", lambda: expand_phase(self.psi(), self.pb.front, self.weights())
        )

    def icis(self):
        return self._get("icis", lambda: build_mapping(self.expansion(), self.pb.power))

    def phi_basis(self):
        return self._get("phi", lambda: phi_basis(self.icis()))

    def f_basis(self):
        return self._get("fb", lambda: f_basis(self.icis()))

    def gm(self):
        return self._get(
            "gm",
            lambda: gm_matrices(self.icis(), self.phi_basis(), self.f_basis()),
        )

    def system(self):
        return self._get("sys", lambda: assemble_system(self.gm(), self.icis()))

    def front_result(self):
        return self._get(
            "front",
            lambda: front_polynomial(
                self.system(), self.icis(), s_value=self.pb.s_value, seed=self.pb.seed
            ),
        )

    def level_set(self) -> LevelSet:
        """The run's one stream of points on {F = s}, seeded by ``options.seed``."""
        return self._get(
            "level", lambda: LevelSet(self.pb.front, self.pb.s_value, self.pb.seed)
        )

    def flatness(self, sample_points: int) -> dict:
        """The flatness record of the system; a nonzero curvature raises (exit 15)."""
        rep = flatness_check(self.system(), sample_points=sample_points, seed=self.pb.seed)
        return {"vacuous": rep.vacuous, "points": len(rep.points), "pairs": rep.checked_pairs}

    # -- command bodies --------------------------------------------------

    def cmd_check(self):
        w = self.weights()
        rec = {
            "weights": list(w.weights),
            "w_F": w.total,
            "c3_dimension": self.c3(),
            "hyperbolicity": self.hyperbolicity(),
            "m": self.pb.symbol.m,
            "n": self.pb.n,
            "irreducible_attested": self.pb.symbol.irreducible_attested,
        }
        if not self.pb.symbol.irreducible_attested:
            rec["warning"] = (
                "irreducibility of the operator symbol is assumed, not verified; "
                "pass options.irreducible = true to attest it"
            )
        dump_json(rec, self.out / "check.json")
        return rec

    def cmd_phase(self):
        exp = self.expansion()
        rec = {
            "psi": self.psi(),
            "base": exp.base,
            "sign": exp.sign,
            "case": exp.case,
            "mu_prime": exp.mu_prime,
            "mu": exp.mu,
            "bound": fraction_to_json(Fraction(exp.bound)),
            "deformation": [
                {
                    "monomial": list(mono),
                    "weight": weight(mono, exp.weights.weights),
                    "W": W,
                }
                for mono, W in exp.deformation
            ],
            "metadata": {
                "weights": list(exp.weights.weights),
                "w_F": exp.weights.total,
                "m": exp.m,
            },
        }
        dump_json(rec, self.out / "phase.json")
        return rec

    def cmd_build_map(self):
        icis = self.icis()
        rec = {
            "K": icis.K,
            "N": icis.N,
            "vars": list(icis.ring),
            "var_weights": list(icis.var_weights),
            "comp_weights": list(icis.comp_weights),
            "power": icis.power,
            "case": icis.case,
            "sign": icis.sign,
            "components": icis.components,
            "couplings": [
                {
                    "y_index": c.y_index,
                    "var": c.var,
                    "monomial": list(c.monomial),
                    "W": c.w_poly,
                }
                for c in icis.couplings
            ],
            "y1_value": icis.y1_value,
            "metadata": icis.metadata,
        }
        dump_json(rec, self.out / "map.json")
        return rec

    def cmd_milnor(self):
        phi = self.phi_basis()
        rec = {
            "mu": phi.mu,
            "staircase": [list(m) for m in phi.monomials],
            "weights": list(phi.weights),
        }
        dump_json(rec, self.out / "milnor.json")
        return rec

    def cmd_gm(self):
        data = self.system()
        rec = {
            "mu": data.mu,
            "K": data.K,
            "l_weights": list(data.l_weights),
            "comp_weights": list(data.comp_weights),
            "phi": [list(m) for m in data.phi.monomials],
            "f_basis": [form_to_json(f) for f in data.fbasis.forms],
            "matrices": {
                f"P{l}": matrix_to_json(data.matrices[l]) for l in range(data.K)
            },
            "M": matrix_to_json(data.M),
            "delta": data.delta,
        }
        dump_json(rec, self.out / "gm.json")
        return rec

    def cmd_discriminant(self):
        data = self.system()
        delta = discriminant(data)
        rec = {
            "delta": delta,
            "delta_raw": data.delta_raw,
            "forced_weight": data.delta_forced_weight(),
            "strategy": "bareiss",
            "diagnostics": {"flatness": self.flatness(sample_points=5)},
        }
        dump_json(rec, self.out / "discriminant.json")
        return rec

    def cmd_wavefront(self):
        fr = self.front_result()
        try:
            phi_text = poly_to_text(fr.phi)
        except ValueError as err:
            raise int_digits_error(err, self.out / "front.json") from None
        rec = {
            "phi": fr.phi,
            "phi_text": phi_text,
            "raw": fr.raw,
            "squarefree": fr.squarefree,
            "case": fr.case,
            "power": fr.power,
            "strategy": fr.strategy,
            "substitution": fr.substitution,
            "metadata": fr.metadata,
        }
        dump_json(rec, self.out / "front.json")
        if self.pb.s_value is not None:
            rep = t_zero_check(fr, self.level_set())
            with open(self.out / "t_zero.csv", "w", newline="") as fh:
                wr = csv.writer(fh)
                wr.writerow(["samples", "max_scaled_residual", "no_real_points"])
                wr.writerow([rep.count, rep.max_scaled_residual, rep.count == 0])
            rec["t_zero"] = {
                "samples": rep.count,
                "max_scaled_residual": rep.max_scaled_residual,
            }
        return rec

    def cmd_verify_discriminant(self):
        data = self.system()
        icis = self.icis()
        try:
            el = critical_locus_eliminant(icis, max_pairs=self.pb.max_pairs)
            if data.delta is None:
                discriminant(data)
            cmp = compare_discriminants(data.delta, el)
            rec = {
                "eliminant": el,
                "verdict": cmp.verdict,
                "detail": cmp.detail,
            }
        except ResourceLimitError as err:
            rep = line_check(icis, data.M, self.pb.seed)
            rec = {
                "eliminant": None,
                "verdict": f"capped: {err.kind}/{err.limit}; {rep.verdict}",
                "detail": str(err),
                "lines": [asdict(line) for line in rep.lines],
            }
        dump_json(rec, self.out / "verify_discriminant.json")
        return rec

    def cmd_verify_rays(self):
        if self.pb.s_value is None:
            raise LerayfrontError("verify-rays requires a numeric s (options.s)")
        fr = self.front_result()
        rays = sample_front(
            self.pb.symbol, self.level_set(), t_values=[0.1, 0.5, 1.0], count=RAY_SAMPLES
        )
        rep = eval_front_on_samples(fr.phi, rays.samples, self.pb.s_value)
        with open(self.out / "rays.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            n = self.pb.n
            wr.writerow(
                [f"z{i + 1}" for i in range(n)]
                + ["sheet", "t"]
                + [f"x{i + 1}" for i in range(n)]
                + ["residual_root", "residual_level"]
            )
            for s in rays.samples:
                wr.writerow(
                    list(s.z) + [s.sheet, s.t] + list(s.x) + [s.residual_root, s.residual_level]
                )
        tol = self.pb.tol
        rec = {
            "samples": rep.count,
            "skipped_collisions": rays.skipped_collisions,
            "max_scaled_residual": rep.max_scaled_residual,
            "tolerance": tol,
            "pass": bool(rep.max_scaled_residual < tol) if rep.count else None,
        }
        dump_json(rec, self.out / "verify_rays.json")
        if rec["pass"] is False:
            raise MismatchError(f"ray residual {rec['max_scaled_residual']} is not below {tol}")
        return rec

    def cmd_all(self):
        summary = {}
        summary["check"] = self.cmd_check()
        summary["phase"] = {"case": self.expansion().case, "mu": self.expansion().mu}
        self.cmd_phase()
        self.cmd_build_map()
        summary["milnor"] = self.cmd_milnor()["mu"]
        self.cmd_gm()
        summary["flatness"] = self.flatness(sample_points=3)
        mu = self.system().mu
        if mu <= DISCRIMINANT_MAX_MU:
            summary["discriminant"] = "computed"
            self.cmd_discriminant()
            summary["verify_discriminant"] = self.cmd_verify_discriminant()["verdict"]
        else:
            skipped = f"skipped: mu {mu} > {DISCRIMINANT_MAX_MU}"
            summary["discriminant"] = summary["verify_discriminant"] = skipped
        front = self.cmd_wavefront()
        summary["front_terms"] = len(front["phi"].terms)
        if self.pb.s_value is not None:
            summary["verify_rays"] = self.cmd_verify_rays()
        dump_json(summary, self.out / "summary.json")
        return summary


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lerayfront",
        description=(
            "Exact wavefront polynomials for strictly hyperbolic operators "
            "with quasihomogeneous algebraic initial fronts."
        ),
        epilog="Exit codes: 0 ok; 2 usage; 3-20 structured errors (see README).",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--spec", required=True, help="problem file (JSON)")
    ap.add_argument("--out", default="out", help="artifact directory")
    ap.add_argument("--power-P", type=int, dest="powerP", default=None)
    ap.add_argument(
        "--weights",
        default=None,
        help="comma-separated explicit front weights (overrides discovery)",
    )
    ap.add_argument("--s", default=None, help="rational level value, e.g. 1 or 3/2")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--tol", type=float, default=None)
    ap.add_argument("--max-pairs", type=int, dest="max_pairs", default=None)
    ap.add_argument("--version", action="version", version=__version__)
    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    overrides = {
        "powerP": args.powerP,
        "s": args.s,
        "seed": args.seed,
        "tol": args.tol,
        "max_pairs": args.max_pairs,
        "weights": args.weights.split(",") if args.weights else None,
    }
    try:
        try:
            spec = load_json(args.spec)
        except ValueError as err:
            raise ProblemFileError(f"{args.spec} is not JSON: {err}") from None
        problem = Problem(spec, overrides)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        pipe = Pipeline(problem, out)
        method = getattr(pipe, "cmd_" + args.command.replace("-", "_"))
        method()
        print(f"{args.command}: ok (artifacts in {out})")
        return 0
    except (LerayfrontError, OSError) as exc:
        err = exc if isinstance(exc, LerayfrontError) else ProblemFileError(str(exc))
        record = {
            "error": type(err).__name__,
            "message": str(err),
            "exit_code": err.exit_code,
        }
        try:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            dump_json(record, outdir / "error.json")
        except OSError:
            pass
        print(f"error[{err.exit_code}] {type(err).__name__}: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
