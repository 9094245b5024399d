"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

Runs only the small_corpus workload, for about a second per run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lerayfront.poly import MultiPoly  # noqa: E402


def bench(trace: int) -> tuple[str, dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_corpus",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_declared_metric_with_its_unit(trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    stdout, result = bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    lines = stdout.splitlines()
    for m in declared:
        assert any(
            line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
            for line in lines
        ), m["name"]
    if trace == 0:
        assert "failed_ratio=0/" in stdout
        assert all(m["value"] > 0 for m in result["metrics"].values())


def flip_one_coefficient(p: MultiPoly) -> MultiPoly:
    terms = dict(p.terms)
    e = max(terms)
    terms[e] = -terms[e]
    return MultiPoly(p.ring, terms)


def test_mutated_phi_fails_every_operation(monkeypatch, tmp_path):
    """One flipped coefficient in phi (and in det M for the maps) fails each op."""
    from lerayfront import gaussmanin, wavefront

    front_polynomial, discriminant = wavefront.front_polynomial, gaussmanin.discriminant

    def mutated_front(*args, **kwargs):
        fr = front_polynomial(*args, **kwargs)
        fr.phi = flip_one_coefficient(fr.phi)
        return fr

    def mutated_discriminant(data, *args, **kwargs):
        delta = flip_one_coefficient(discriminant(data, *args, **kwargs))
        data.delta = delta
        return delta

    changed = tracing.replace_everywhere(front_polynomial, mutated_front)
    changed += tracing.replace_everywhere(discriminant, mutated_discriminant)
    monkeypatch.setattr(run, "WORK", tmp_path)
    try:
        cycles, _ = run.run_cycles(workloads.SMALL, seed=3, seconds=0)
    finally:
        tracing.restore(changed)
    assert run.count_failed(cycles) == (len(workloads.SMALL),) * 2


def test_tracer_restores_every_binding():
    from lerayfront import brieskorn, gcdtools, phase, wavefront

    before = (wavefront.squarefree_part, brieskorn.critical_ideal_gens)
    with tracing.Tracer():
        assert wavefront.squarefree_part is gcdtools.squarefree_part
        assert wavefront.squarefree_part is not before[0]
        assert brieskorn.critical_ideal_gens is phase.critical_ideal_gens
    assert (wavefront.squarefree_part, brieskorn.critical_ideal_gens) == before


def test_reference_clock_probes_and_gives_back_sigalrm():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.ReferenceClock() as clock:
        t0 = clock.now()
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
        t1 = clock.now()
    assert len(clock.probes) >= speed.PROBES_KEPT + 2
    assert t1 > t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
