"""Per-layer spans recorded from outside the program.

The tracer replaces a lerayfront function with a timing wrapper under every
name a caller looks it up by: ``from .gcdtools import squarefree_part`` in
``wavefront`` binds its own name, so a wrapper set only on ``gcdtools``
would miss those calls.  Spans (name, start, end, parent, op) stay in memory
until the run ends, timed on the clock the tracer is given.  Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (label, module, attribute path).  The label names the layer and function;
# per-layer metrics are ``<label>_s``, ``<label>.self_s`` and ``<label>.calls``.
TARGETS = (
    ("jsonio.dump_json", "lerayfront.jsonio", "dump_json"),
    ("phase.build_mapping", "lerayfront.phase", "build_mapping"),
    ("phase.critical_ideal_gens", "lerayfront.phase", "critical_ideal_gens"),
    ("groebner.groebner", "lerayfront.groebner", "groebner"),
    ("groebner.eliminate", "lerayfront.groebner", "eliminate"),
    ("brieskorn.phi_basis", "lerayfront.brieskorn", "phi_basis"),
    ("brieskorn.f_basis", "lerayfront.brieskorn", "f_basis"),
    ("brieskorn.gm_matrices", "lerayfront.brieskorn", "gm_matrices"),
    ("brieskorn.reduce_in_lattice", "lerayfront.brieskorn", "reduce_in_lattice"),
    ("gaussmanin.assemble_system", "lerayfront.gaussmanin", "assemble_system"),
    ("gaussmanin.discriminant", "lerayfront.gaussmanin", "discriminant"),
    ("gaussmanin.flatness_check", "lerayfront.gaussmanin", "flatness_check"),
    ("linalg.det_int", "lerayfront.linalg", "det_int"),
    ("linalg.RationalMatrix.mul", "lerayfront.linalg", "RationalMatrix.__mul__"),
    ("detpoly.det_poly_matrix", "lerayfront.detpoly", "det_poly_matrix"),
    ("detpoly.det_bareiss", "lerayfront.detpoly", "det_bareiss"),
    ("poly.poly_substitute", "lerayfront.poly", "poly_substitute"),
    ("gcdtools.squarefree_part", "lerayfront.gcdtools", "squarefree_part"),
    ("wavefront.front_polynomial", "lerayfront.wavefront", "front_polynomial"),
    ("wavefront.t_zero_check", "lerayfront.wavefront", "t_zero_check"),
    ("oracle.sample_front", "lerayfront.oracle", "sample_front"),
    ("oracle.eval_front_on_samples", "lerayfront.oracle", "eval_front_on_samples"),
    ("oracle.critical_locus_eliminant", "lerayfront.oracle", "critical_locus_eliminant"),
    ("oracle.compare_discriminants", "lerayfront.oracle", "compare_discriminants"),
)


def replace_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Bind ``replacement`` wherever a lerayfront module or class holds ``original``.

    Returns (owner, attribute, previous value) for each binding changed, so
    the caller can restore them in reverse order.
    """
    changed = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "lerayfront" or name.startswith("lerayfront.")):
            continue
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, replacement)
                    changed.append((owner, attr, original))
    if not changed:
        raise LookupError(f"no lerayfront binding holds {original!r}")
    return changed


def restore(changed) -> None:
    for owner, attr, value in reversed(changed):
        setattr(owner, attr, value)


def resolve(module_name: str, path: str):
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


class Tracer:
    """Wraps the TARGETS functions and keeps one span per call."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        # each span: [name, start, end, parent index or -1, op, returned, nested in same name]
        self.spans: list[list] = []
        self.op = ""
        self._stack: list[int] = []
        self._changed: list = []

    def _wrap(self, label, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested = any(spans[j][0] == label for j in stack)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, nested]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                span[5] = True
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def __enter__(self):
        try:
            for label, module_name, path in TARGETS:
                original = resolve(module_name, path)
                self._changed += replace_everywhere(original, self._wrap(label, original))
        except (AttributeError, KeyError, LookupError):
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        restore(self._changed)
        self._changed = []

    def totals(self) -> dict[str, dict]:
        """Per label: inclusive seconds, self seconds, calls, calls that returned."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {label: {"s": 0.0, "self_s": 0.0, "calls": 0, "returned": 0} for label, _, _ in TARGETS}
        for i, (name, start, end, _, _, returned, nested) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["returned"] += returned
            rec["self_s"] += (end - start) - child[i]
            if not nested:
                rec["s"] += end - start
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, returned, _ in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "op": op, "returned": returned}
                    )
                    + "\n"
                )


def span_cost(calls: int = 20_000) -> float:
    """Seconds a wrapper adds to one call, timed on a no-op function."""

    def noop():
        return None

    wrapped = Tracer()._wrap("probe", noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        wrapped()
    return ((perf_counter() - t1) - (t1 - t0)) / calls
