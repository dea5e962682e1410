"""Spans around the public functions of each ``orbitforge`` layer.

The library is not instrumented.  ``Tracer.install`` wraps each declared
function and puts the wrapper in every ``orbitforge`` namespace that holds
the function, so calls made through a ``from`` import (for example
``orbitforge.rewire.rearrange_line``) are seen too.  Modules are reached
through ``importlib.import_module``: ``orbitforge.rewire`` as an attribute
is the re-exported function, not the module.

A span records calls, wall time and self time (its time minus the time of
the spans nested inside it).  Counts are read from the returned reports.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PIPELINE = "pipeline_random"
REWIRE = "rewire_short_cycles"
TRANSPORT = "transport_ball_r3"


def _count_rearrange(totals, args, out):
    _, report = out
    totals["rearrange.points"] += args[0].n
    totals["rearrange.components_after_merge"] += report.components_after_merge
    totals["rearrange.edges_changed_by_close"] += report.edges_changed_by_close


def _count_rewire(totals, args, out):
    _, report = out
    totals["rewire.cycles"] += len(report.per_cycle)
    totals["rewire.cycles_rewired"] += sum(c.good for c in report.per_cycle)


def _count_ball(totals, args, out):
    totals["freegroup.ball.words"] += len(out)


def _count_certificate(totals, args, out):
    totals["weak.words"] += len(out.words)
    totals["weak.refinement_atoms"] += out.refinement_atoms


def _count_attempts(totals, args, out):
    totals["pipeline.good_observable.attempts"] += out[1]


@dataclass(frozen=True)
class Span:
    """A wrapped function and the workloads on which it must be called.

    On every other workload the span must record no call: that is the
    prediction the self-test checks.
    """

    name: str
    module: str
    attr: str
    workloads: frozenset
    count: Callable | None = None


def _span(name, module, workloads, count=None):
    attr = name.rsplit(".", 1)[1]
    return Span(name, f"orbitforge.{module}", attr, frozenset(workloads), count)


SPANS = (
    _span("rearrange.rearrange_line", "rearrange", {PIPELINE, REWIRE}, _count_rearrange),
    _span("rearrange.round_coupling", "rearrange", {PIPELINE, REWIRE}),
    _span("rearrange.build_tau", "rearrange", {PIPELINE, REWIRE}),
    _span("rewire.rewire", "rewire", {PIPELINE, REWIRE}, _count_rewire),
    _span("rewire.cycle_decomposition", "rewire", {PIPELINE, REWIRE}),
    # on rewire_short_cycles only the benchmark's own check calls it
    _span("rewire.verify_same_orbits", "rewire", {PIPELINE}),
    _span("permutations.cycle_min_labels", "permutations", {PIPELINE, REWIRE}),
    _span("spaces.empirical_distribution", "spaces", {PIPELINE, REWIRE}),
    _span("spaces.joint_pair_distribution", "spaces", {PIPELINE, REWIRE}),
    _span("freegroup.ball", "freegroup", {PIPELINE, TRANSPORT}, _count_ball),
    _span("freegroup.evaluate", "freegroup", {PIPELINE, TRANSPORT}),
    _span("freegroup.refine_partition", "freegroup", {TRANSPORT}),
    _span("freegroup.inverse_permutation", "freegroup", {PIPELINE, TRANSPORT}),
    _span(
        "weak.ball_transport_certificate", "weak", {TRANSPORT}, _count_certificate
    ),
    _span("weak.kechris_distance", "weak", {PIPELINE, TRANSPORT}),
    _span("pipeline.run_experiment", "pipeline", {PIPELINE}),
    _span("pipeline.oe_approximate", "pipeline", {PIPELINE}),
    _span("pipeline.good_observable", "pipeline", {PIPELINE}, _count_attempts),
    _span("pipeline.target_couplings", "pipeline", {PIPELINE}),
    _span("pipeline.verify_oe", "pipeline", {PIPELINE}),
)

# Per-layer metrics and their units, as BENCHMARK.json declares them.  Each
# is per top-level call.  A name ending in .calls, .s or .self_s reads that
# span's totals; the others are counters, or ratios of two totals listed in
# RATIOS.  bound_use comes from the workload checks, not from a span.
DECLARATION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(DECLARATION.read_text())["per_layer"]}

RATIOS = {
    "rearrange.points_per_call": ("rearrange.points", "rearrange.rearrange_line.calls"),
    "rewire.good_ratio": ("rewire.cycles_rewired", "rewire.cycles"),
    "freegroup.evaluate.per_word": ("freegroup.evaluate.calls", "freegroup.ball.words"),
}


class Tracer:
    """Wraps the declared spans; records only while ``recording`` is true."""

    def __init__(self):
        self.recording = False
        self.totals: dict[str, float] = defaultdict(float)
        self._child_time: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "orbitforge" or name.startswith("orbitforge.")
        ]
        for span in SPANS:
            original = getattr(importlib.import_module(span.module), span.attr, None)
            if original is None:
                # a layer that no longer has this function records nothing;
                # the self-test reports it
                continue
            wrapper = self._wrap(span, original)
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, span: Span, fn):
        totals = self.totals
        stack = self._child_time
        calls, secs, self_secs = (f"{span.name}.{k}" for k in ("calls", "s", "self_s"))

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals[calls] += 1
                totals[secs] += elapsed
                totals[self_secs] += elapsed - nested
            if span.count is not None:
                span.count(totals, args, out)
            return out

        return wrapper

    def metrics(self, top_calls: int) -> dict[str, float]:
        """Every PER_LAYER metric but bound_use, per top-level call (ratios as they are)."""
        out = {}
        for metric in PER_LAYER:
            if metric == "bound_use":
                continue
            if metric in RATIOS:
                num, den = (self.totals.get(k, 0.0) for k in RATIOS[metric])
                out[metric] = num / den if den else 0.0
            else:
                out[metric] = self.totals.get(metric, 0.0) / top_calls
        return out
