"""Command-line driver: problem files in, JSON/CSV artifacts out.

A problem file is JSON with an ``operator`` expression in (tau, xi1..xin),
a ``front`` expression in (x1..xn), and an ``options`` block.  Commands
cover individual pipeline stages plus ``all`` for the end-to-end run; every
structured error maps to a documented nonzero exit code.
"""

from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .brieskorn import f_basis, gm_matrices, phi_basis
from .errors import LerayfrontError, ProblemFileError, UnknownVariableError, UsageError
from .gaussmanin import (
    assemble_system,
    discriminant,
    flatness_check,
    residue_exponents_K1,
)
from .jsonio import (
    dump_json,
    form_to_json,
    fraction_to_json,
    load_json,
    matrix_to_json,
    poly_to_json,
)
from .oracle import (
    compare_discriminants,
    critical_locus_eliminant,
    eval_front_on_samples,
    sample_front,
    sampled_critical_containment,
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
from .wavefront import DET_FIRST_MAX_MU, front_polynomial, t_zero_check

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


class Problem:
    """Parsed problem file plus effective options."""

    def __init__(self, spec: dict, overrides: dict):
        if not isinstance(spec, dict):
            raise UsageError("problem file must hold a JSON object")
        missing = [key for key in ("operator", "front") if not isinstance(spec.get(key), str)]
        if missing:
            raise UsageError(f"problem file lacks a text {' and '.join(missing)}")
        self.front = parse_poly(spec["front"])
        n = len(self.front.ring)
        expected = tuple(f"x{i + 1}" for i in range(n))
        if self.front.ring != expected:
            self.front = self.front.rename_ring(expected) if set(
                self.front.ring
            ) <= set(expected) else self.front
        if self.front.ring != expected:
            raise UnknownVariableError(
                f"front must use variables x1..x{n}, got {self.front.ring}"
            )
        op_ring = ("tau",) + tuple(f"xi{i + 1}" for i in range(n))
        self.operator = parse_poly(spec["operator"], ring=op_ring)
        self.n = n
        try:
            options = dict(spec.get("options", {}))
            options.update({k: v for k, v in overrides.items() if v is not None})
            self.symbol = HyperbolicSymbol.from_poly(
                self.operator,
                irreducible_attested=bool(options.get("irreducible", False)),
            )
            self.power = int(options.get("powerP", 2))
            self.seed = int(options.get("seed", 1))
            self.tol = float(options.get("tol", 1e-6))
            self.det = str(options.get("det", "bareiss"))
            self.weight_cap = options.get("weight_cap")
            self.max_pairs = int(options.get("max_pairs", 100_000))
            self.s_value = options.get("s")
            if self.s_value is not None:
                self.s_value = Fraction(str(self.s_value))
            w = options.get("weights")
            self.explicit_weights = tuple(int(x) for x in w) if w else None
            self.hyp_samples = int(options.get("hyperbolicity_samples", 25))
        except (TypeError, ValueError, ZeroDivisionError) as err:
            raise UsageError(f"bad operator or option value: {err}") from None
        self.raw_options = options

    def weight_system(self) -> WeightSystem:
        if self.explicit_weights is not None:
            total = None
            F = self.front
            for e in F.terms:
                t = sum(w * k for w, k in zip(self.explicit_weights, e))
                total = t if total is None else total
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
        return self._get("c3", lambda: check_c3(self.pb.front, self.weights()))

    def hyperbolicity(self):
        return self._get(
            "hyp",
            lambda: check_strict_hyperbolicity(
                self.pb.symbol, self.pb.hyp_samples, self.pb.seed
            ),
        )

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
        def build():
            cap = self.pb.weight_cap
            return f_basis(self.icis(), int(cap) if cap else None)

        return self._get("fb", build)

    def gm(self):
        return self._get(
            "gm",
            lambda: gm_matrices(self.icis(), self.phi_basis(), self.f_basis()),
        )

    def system(self):
        return self._get("sys", lambda: assemble_system(self.gm(), self.icis()))

    def front_result(self):
        def build():
            strategy = self.pb.raw_options.get("front_strategy", "auto")
            return front_polynomial(
                self.system(),
                self.icis(),
                s_value=self.pb.s_value,
                strategy=strategy,
                det_strategy="interpolate" if self.pb.det == "interp" else self.pb.det,
                seed=self.pb.seed,
            )

        return self._get("front", build)

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
            "psi": poly_to_json(self.psi()),
            "base": poly_to_json(exp.base),
            "sign": exp.sign,
            "case": exp.case,
            "mu_prime": exp.mu_prime,
            "mu": exp.mu,
            "bound": fraction_to_json(Fraction(exp.bound)),
            "deformation": [
                {
                    "monomial": list(mono.exps),
                    "weight": mono.weight(exp.weights.weights),
                    "W": poly_to_json(W),
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
            "components": [poly_to_json(f) for f in icis.components],
            "couplings": [
                {
                    "y_index": c.y_index,
                    "var": c.var,
                    "monomial": list(c.monomial.exps),
                    "W": poly_to_json(c.w_poly),
                }
                for c in icis.couplings
            ],
            "y1_value": poly_to_json(icis.y1_value) if icis.y1_value is not None else None,
            "metadata": icis.metadata,
        }
        dump_json(rec, self.out / "map.json")
        return rec

    def cmd_milnor(self):
        phi = self.phi_basis()
        rec = {
            "mu": phi.mu,
            "staircase": [list(m.exps) for m in phi.monomials],
            "weights": list(phi.weights),
        }
        dump_json(rec, self.out / "milnor.json")
        return rec

    def cmd_gm(self, with_delta: bool = False):
        data = self.system()
        rec = {
            "mu": data.mu,
            "K": data.K,
            "l_weights": list(data.l_weights),
            "comp_weights": list(data.comp_weights),
            "phi": [list(m.exps) for m in data.phi.monomials],
            "f_basis": [form_to_json(f) for f in data.fbasis.forms],
            "matrices": {
                f"P{l}": matrix_to_json(data.matrices[l]) for l in range(data.K)
            },
            "M": matrix_to_json(data.M),
            "delta": poly_to_json(data.delta) if data.delta is not None else None,
        }
        dump_json(rec, self.out / "gm.json")
        return rec

    def cmd_discriminant(self):
        data = self.system()
        strategy = "interpolate" if self.pb.det == "interp" else self.pb.det
        delta = discriminant(data, strategy=strategy)
        report = {}
        if data.K == 1:
            report["exponents"] = [
                fraction_to_json(e) for e in residue_exponents_K1(data)
            ]
        if data.K >= 2:
            rep = flatness_check(data, sample_points=5, seed=self.pb.seed)
            report["flatness"] = {
                "vacuous": rep.vacuous,
                "points": len(rep.points),
                "pairs": rep.checked_pairs,
            }
        rec = {
            "delta": poly_to_json(delta),
            "delta_raw": poly_to_json(data.delta_raw),
            "forced_weight": data.delta_forced_weight(),
            "strategy": strategy,
            "diagnostics": report,
        }
        dump_json(rec, self.out / "discriminant.json")
        return rec

    def cmd_wavefront(self):
        fr = self.front_result()
        rec = {
            "phi": poly_to_json(fr.phi),
            "phi_text": poly_to_text(fr.phi),
            "raw": poly_to_json(fr.raw),
            "squarefree": poly_to_json(fr.squarefree) if fr.squarefree is not None else None,
            "case": fr.case,
            "power": fr.power,
            "strategy": fr.strategy,
            "substitution": {k: poly_to_json(v) for k, v in fr.substitution.items()},
            "metadata": fr.metadata,
        }
        dump_json(rec, self.out / "front.json")
        if self.pb.s_value is not None:
            rep = t_zero_check(
                self.front_result(), self.pb.front, self.pb.s_value, seed=self.pb.seed
            )
            with open(self.out / "t_zero.csv", "w", newline="") as fh:
                wr = csv.writer(fh)
                wr.writerow(["samples", "max_scaled_residual", "no_real_points"])
                wr.writerow([rep.samples, rep.max_scaled_residual, rep.no_real_points])
            rec["t_zero"] = {
                "samples": rep.samples,
                "max_scaled_residual": rep.max_scaled_residual,
            }
        return rec

    def cmd_verify_discriminant(self):
        data = self.system()
        icis = self.icis()
        try:
            el = critical_locus_eliminant(icis, max_pairs=self.pb.max_pairs)
            if data.delta is None:
                strategy = "interpolate" if self.pb.det == "interp" else self.pb.det
                discriminant(data, strategy=strategy)
            cmp = compare_discriminants(data.delta, el, seed=self.pb.seed)
            rec = {
                "eliminant": [poly_to_json(p) for p in el],
                "verdict": cmp.verdict,
                "detail": cmp.detail,
            }
        except LerayfrontError as err:
            if getattr(err, "exit_code", 18) != 14:
                raise
            rep = sampled_critical_containment(
                icis, data.M, count=10, seed=self.pb.seed, tol=1e-8
            )
            rec = {
                "eliminant": None,
                "verdict": "elimination capped; sampled critical values lie on det M = 0",
                "detail": (
                    f"{rep.points} projected critical points, max residual "
                    f"{rep.max_scaled_residual:.2e} ({err})"
                ),
            }
        dump_json(rec, self.out / "verify_discriminant.json")
        return rec

    def cmd_verify_rays(self):
        if self.pb.s_value is None:
            raise LerayfrontError("verify-rays requires a numeric s (options.s)")
        fr = self.front_result()
        rays = sample_front(
            self.pb.symbol,
            self.pb.front,
            self.pb.s_value,
            t_values=[0.1, 0.5, 1.0],
            count=40,
            seed=self.pb.seed,
        )
        rep = eval_front_on_samples(fr.phi, rays.samples, self.pb.s_value, tol=self.pb.tol)
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
        rec = {
            "samples": rep.count,
            "skipped_collisions": rays.skipped_collisions,
            "max_scaled_residual": rep.max_scaled_residual,
            "tolerance": self.pb.tol,
            "pass": bool(rep.max_scaled_residual < self.pb.tol) if rep.count else None,
        }
        dump_json(rec, self.out / "verify_rays.json")
        return rec

    def cmd_all(self):
        summary = {}
        summary["check"] = self.cmd_check()
        summary["phase"] = {"case": self.expansion().case, "mu": self.expansion().mu}
        self.cmd_phase()
        self.cmd_build_map()
        summary["milnor"] = self.cmd_milnor()["mu"]
        self.cmd_gm()
        mu = self.system().mu
        if mu <= DET_FIRST_MAX_MU:
            summary["discriminant"] = "computed"
            self.cmd_discriminant()
            summary["verify_discriminant"] = self.cmd_verify_discriminant()["verdict"]
        front = self.cmd_wavefront()
        summary["front_terms"] = len(front["phi"]["terms"])
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
    ap.add_argument("--det", choices=["bareiss", "interp"], default=None)
    ap.add_argument("--weight-cap", type=int, dest="weight_cap", default=None)
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
        "det": args.det,
        "weight_cap": args.weight_cap,
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
        method = {
            "check": pipe.cmd_check,
            "phase": pipe.cmd_phase,
            "build-map": pipe.cmd_build_map,
            "milnor": pipe.cmd_milnor,
            "gm": pipe.cmd_gm,
            "discriminant": pipe.cmd_discriminant,
            "wavefront": pipe.cmd_wavefront,
            "verify-discriminant": pipe.cmd_verify_discriminant,
            "verify-rays": pipe.cmd_verify_rays,
            "all": pipe.cmd_all,
        }[args.command]
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
