#!/usr/bin/env python3
"""lerayfront benchmark: solve and verify time on fixed problems.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads are closed loops with one client in one process: each
problem starts when the previous one has been solved, verified and checked.
The seed reaches the program only as ``options.seed``.  Every time reported
is in reference seconds: wall time scaled by the machine's speed, probed
while the run goes (``speed.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs traced
cycles for ``--seconds``, then solves one cycle untraced, and prints the
per-layer metrics (per cycle) plus the tracing overhead; its spans go to
``.perfbench/trace-<workload>-<seed>.jsonl``.  Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, ReferenceClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 9

# Functions that do not run on every workload.  The JSON result carries only
# their call counts: their times would read exactly 0 on every run of some
# workload.  The report lines and the trace file carry their times.
UNTIMED_IN_RESULT = (
    "groebner.eliminate",  # not on wave_cusp_s1
    "gaussmanin.discriminant",  # not on wave_cusp_s1
    "detpoly.det_poly_matrix",  # not on wave_cusp_s1
    "oracle.critical_locus_eliminant",  # not on wave_cusp_s1
    "oracle.compare_discriminants",  # not on wave_cusp_s1
    "linalg.det_int",  # not on wave_parabola_s1
)

# Set-up as a user pays it: a fresh interpreter imports lerayfront, loads the
# problem file and builds cli.Problem.  Interpreter start-up is not counted.
# The machine's speed is probed right after, so that the reported time is in
# reference seconds like every other timing (see speed.py).
SETUP_SNIPPET = """
import sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
from lerayfront import cli, jsonio
cli.Problem(jsonio.load_json(sys.argv[2]), {})
wall = perf_counter() - t0
sys.path.insert(0, sys.argv[3])
import speed
print(wall * speed.speed_factor(), wall)
"""


def import_program():
    """Import lerayfront from this checkout's src/, or stop with an error."""
    package = SRC / "lerayfront"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from a full source checkout")
    sys.path.insert(0, str(SRC))
    import lerayfront

    if Path(lerayfront.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported lerayfront from {lerayfront.__file__}, not {package}")


def git_sha() -> str:
    """HEAD of the checkout, read from its own .git (no git process, no parent dirs)."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((l.split()[0] for l in lines if l.endswith(" " + ref)), "unknown")


def setup_seconds(problem, seed: int) -> list[tuple[float, float]]:
    """(reference seconds, wall seconds) of each fresh interpreter's set-up."""
    spec = WORK / f"setup-{os.getpid()}.json"
    spec.write_text(json.dumps(problem.spec(seed)))
    try:
        samples = []
        for _ in range(SETUP_SAMPLES):
            done = subprocess.run(
                [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC), str(spec), str(HERE)],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
            )
            samples.append(tuple(map(float, done.stdout.split())))
        return samples
    finally:
        spec.unlink()


def run_checked(problem, seed: int, verify: bool = True, clock=perf_counter):
    """Run one problem in a fresh artifact directory; never raises."""
    out = Path(tempfile.mkdtemp(prefix=f"{problem.name}-", dir=WORK))
    try:
        return problem.run(seed, out, verify=verify, clock=clock)
    except Exception:  # counted as a failed operation, traceback kept
        traceback.print_exc(file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_cycles(problems, seed: int, seconds: float, tracer=None, clock=perf_counter):
    """Whole cycles over ``problems`` until ``seconds`` have passed (at least one).

    Returns one list of outcomes per cycle (None where the problem raised) and
    the time of the loop on ``clock``; outcomes are timed on ``clock`` too.
    """
    cycles = []
    start, clock_start = perf_counter(), clock()
    while not cycles or perf_counter() - start < seconds:
        cycle = []
        for problem in problems:
            if tracer is not None:
                tracer.op = f"{problem.name}#{len(cycles)}"
            outcome = run_checked(problem, seed, clock=clock)
            cycle.append(outcome)
            if outcome is None:
                print(f"op {problem.name} FAILED: raised")
            else:
                status = "FAILED: " + "; ".join(outcome.failures) if outcome.failures else "ok"
                print(
                    f"op {problem.name} solve_s={outcome.solve_s:.6f} "
                    f"verify_s={outcome.verify_s:.6f} {status}"
                )
        cycles.append(cycle)
    return cycles, clock() - clock_start


def count_failed(cycles) -> tuple[int, int]:
    ops = [o for cycle in cycles for o in cycle]
    return len(ops), sum(1 for o in ops if o is None or o.failures)


def tail(values: list[float]) -> str:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"no tail percentile (n={n} < 11)"
    ordered = sorted(values)
    pct = (100 * (n - 10)) // n
    return f"p{pct}={ordered[n - 11]:.6f} s (n={n})"


def end_to_end(problems, seed: int, seconds: float):
    """Medians over cycles of the time to solve (verify) every problem once.

    Times are reference seconds (see speed.py); the wall-clock figures are
    printed beside them.
    """
    setup = setup_seconds(problems[0], seed)
    with ReferenceClock() as clock:
        cycles, loop_s = run_cycles(problems, seed, seconds, clock=clock.now)
    whole = [c for c in cycles if None not in c]
    if not whole:
        sys.exit("perfbench: no cycle completed without an operation raising")
    attempted, failed = count_failed(cycles)
    solve = [sum(o.solve_s for o in c) for c in whole]
    metrics = {
        "setup_s": (statistics.median(ref for ref, _ in setup), "s"),
        "solve_s": (statistics.median(solve), "s"),
        "verify_s": (statistics.median([sum(o.verify_s for o in c) for c in whole]), "s"),
        "problems_per_s": ((attempted - failed) / loop_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"setup_s samples: {' '.join(f'{ref:.6f}' for ref, _ in setup)}")
    print(f"setup wall seconds: {' '.join(f'{w:.6f}' for _, w in setup)}")
    print(
        f"reference_work: {len(clock.probes)} probes, median "
        f"{statistics.median(clock.probes):.6f} s, min {min(clock.probes):.6f} s "
        f"(scale {REFERENCE_S} s)"
    )
    print(f"solve_s per cycle: median={metrics['solve_s'][0]:.6f} s, {tail(solve)}")
    print(
        f"failed_ratio={failed}/{attempted}={failed / attempted} ratio; "
        f"{len(cycles)} cycles in {loop_s:.3f} reference s"
    )
    return metrics, attempted, failed


def per_layer(problems, seed: int, seconds: float, trace_path: Path):
    from tracing import TARGETS, Tracer, span_cost

    with ReferenceClock() as clock:
        with Tracer(clock.now) as tracer:
            cycles, _ = run_cycles(problems, seed, seconds, tracer, clock.now)
        # Untraced reference, solved after the traced cycles so that neither
        # side pays the process's first-call costs (compared with cycle 1 when
        # it exists).
        untraced = [run_checked(p, seed, verify=False, clock=clock.now) for p in problems]
    tracer.write(trace_path)
    attempted, failed = count_failed(cycles)
    if None in untraced + [o for c in cycles for o in c]:
        sys.exit("perfbench: an operation raised in the traced run")
    n = len(cycles)

    totals = tracer.totals()
    metrics = {}
    for label, _, _ in TARGETS:
        rec = totals[label]
        print(
            f"layer {label}: {rec['s'] / n:.6f} s, self {rec['self_s'] / n:.6f} s, "
            f"{rec['calls'] / n:g} calls per cycle"
        )
        if label not in UNTIMED_IN_RESULT:
            metrics[f"{label}_s"] = (rec["s"] / n, "s")
            metrics[f"{label}.self_s"] = (rec["self_s"] / n, "s")
        metrics[f"{label}.calls"] = (rec["calls"] / n, "count")
    sqf = totals["gcdtools.squarefree_part"]
    useful = sqf["returned"] / sqf["calls"] if sqf["calls"] else 0.0
    metrics["gcdtools.squarefree_part.useful_ratio"] = (useful, "ratio")
    metrics["wavefront.front_terms"] = (sum(o.front_terms for o in cycles[0]), "count")
    overhead = sum(o.solve_s for o in cycles[min(1, n - 1)]) - sum(o.solve_s for o in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    cost = span_cost()
    print(
        f"tracing overhead: traced minus untraced solve_s of one cycle = {overhead:.6f} s; "
        f"wrapper cost {cost * 1e6:.2f} us x {len(tracer.spans) / n:g} spans per cycle "
        f"= {cost * len(tracer.spans) / n:.6f} s"
    )
    print(f"{len(tracer.spans)} spans written to {trace_path}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problems = WORKLOADS[args.workload]
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} sha={git_sha()} nproc={os.cpu_count()} "
        f"python={platform.python_version()}"
    )
    if args.trace:
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
        metrics, attempted, failed = per_layer(problems, args.seed, args.seconds, trace_path)
    else:
        metrics, attempted, failed = end_to_end(problems, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    import_program()
    WORK.mkdir(exist_ok=True)
    sys.exit(main())
