"""Spans and counts around the kalamidas functions the workloads reach.

The program is traced from outside: each public function below is replaced
by a timing wrapper for the duration of a traced operation. Modules bind
these names at import (``from .hilbert import apply``), so a function is
replaced in every kalamidas module that holds it, not only where it is
defined. Classes are traced through a method: ``PureState`` through its
constructor, ``Report.to_json`` directly.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
from time import perf_counter

TRACED = {
    "cli": ("main",),
    "experiment": (
        "run_experiment",
        "heisenberg_residuals",
        "initial_state_with_coherent",
        "initial_state_bare",
        "evolve",
        "direct_final_state",
        "Report.to_json",
    ),
    "optics": ("beamsplitter_unitary", "displacement_unitary", "heisenberg_action"),
    "hilbert": ("apply", "embed", "PureState"),
    "channels": (
        "random_right_unitary",
        "random_kraus",
        "occupation_projectors",
        "conditional_left_by_occupation",
    ),
    "nosignal": (
        "reduce_left",
        "trace_distance",
        "signaling_gap",
        "random_left_observable",
        "expectation",
    ),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)

# Counts recorded next to the spans. Each is a whole number that repeats
# exactly from run to run.
COUNT_NAMES = (
    "optics.beamsplitter_unitary.distinct",
    "hilbert.apply.bytes",
    "hilbert.PureState.bytes",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced operation reports, in order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.s", f"{span}.self_s"]
    return names + list(COUNT_NAMES)


class Tracer:
    """Records spans (name, start, end, parent) and per-function totals.

    Use ``with tracer.installed(op):`` around one operation, then read
    :meth:`metrics`. Spans of every operation stay in memory until
    :meth:`write_spans`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._op = 0
        self._reset_totals()

    def _reset_totals(self) -> None:
        self.totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._splitters: set = set()

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)  # reserve the id; filled in on exit
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                seconds = end - start
                if self._stack:
                    self._stack[-1][1] += seconds
                entry = self.totals[name]
                entry[0] += 1
                entry[1] += seconds
                entry[2] += seconds - frame[1]
                self.spans[span_id] = (self._op, span_id, parent, name, start, end)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    # count hooks: called with the result and the traced call's arguments

    def _count_splitter(self, result, spec, bs):
        # distinct matrices: arm a and arm b build the same one
        self._splitters.add((bs.t, bs.r, result.spec.cutoffs))
        self.counts["optics.beamsplitter_unitary.distinct"] = len(self._splitters)

    def _count_apply(self, result, op, state):
        self.counts["hilbert.apply.bytes"] += (
            state.amplitudes.nbytes + result.amplitudes.nbytes + op.matrix.nbytes
        )

    def _count_pure_state(self, result, state, *args, **kwargs):
        self.counts["hilbert.PureState.bytes"] += state.amplitudes.nbytes

    def _patches(self):
        """(owner, attribute, original, replacement) for every traced name."""
        package = importlib.import_module("kalamidas")
        modules = [package] + [importlib.import_module(f"kalamidas.{m}") for m in TRACED]
        hooks = {
            "optics.beamsplitter_unitary": self._count_splitter,
            "hilbert.apply": self._count_apply,
            "hilbert.PureState": self._count_pure_state,
        }
        patches = []
        for module_name, names in TRACED.items():
            home = importlib.import_module(f"kalamidas.{module_name}")
            for name in names:
                span = f"{module_name}.{name}"
                cls_name, _, method = name.partition(".")
                target = getattr(home, cls_name, None)
                if target is None:
                    print(f"trace: kalamidas.{module_name} has no {cls_name}; "
                          f"{span} reads 0", file=sys.stderr)
                    continue
                if isinstance(target, type):
                    method = method or "__init__"
                    original = target.__dict__[method]
                    wrapped = self._wrap(span, original, hooks.get(span))
                    patches.append((target, method, original, wrapped))
                    continue
                wrapped = self._wrap(span, target, hooks.get(span))
                for module in modules:
                    if vars(module).get(name) is target:
                        patches.append((module, name, target, wrapped))
        return patches

    @contextlib.contextmanager
    def installed(self, op: int):
        """Patch every traced name for one operation, then restore them."""
        self._op = op
        self._reset_totals()
        patches = self._patches()
        for owner, attr, _, wrapped in patches:
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the last traced operation."""
        out = {}
        for span, (calls, seconds, self_seconds) in self.totals.items():
            out[f"{span}.calls"] = calls
            out[f"{span}.s"] = seconds
            out[f"{span}.self_s"] = self_seconds
        out.update(self.counts)
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span: op, id, parent (-1 at the top), name,
        start and end in seconds on the process's performance counter."""
        keys = ("op", "id", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def combine(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one operation from several traced operations:
    counts must agree exactly; times are medians."""
    out = {}
    for name in metric_names():
        values = [m[name] for m in per_op]
        if name.endswith("_s") or name.endswith(".s"):
            out[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                raise RuntimeError(f"count {name} differs between operations: {values}")
            out[name] = values[0]
    return out
