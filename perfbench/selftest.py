"""Self-test of the benchmark itself; exits non-zero on any failure.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

- input generation is a function of the seed: the same seed gives the same
  input digest and another seed a different one;
- every declared span records at least one call on each workload it maps
  to, and none on the others (one traced call per workload), and the
  tracer leaves the library as it found it;
- every per-layer metric of BENCHMARK.json but bound_use is nonzero on at
  least one workload, so a misspelt name shows;
- the workloads in BENCHMARK.json are the ones the benchmark runs.
"""

import importlib
import json
import sys

import run


def check_input_digests(workloads) -> list[str]:
    errors = []
    for name, workload in workloads.WORKLOADS.items():
        first, again, other = (workload.generate(s).digest for s in (7, 7, 8))
        if first != again:
            errors.append(f"{name}: seed 7 gave two different input digests")
        if first == other:
            errors.append(f"{name}: seeds 7 and 8 gave the same input digest")
    return errors


def check_spans(workloads, tracing) -> list[str]:
    errors = []
    originals = {
        s.name: getattr(importlib.import_module(s.module), s.attr, None)
        for s in tracing.SPANS
    }
    errors += [f"{name}: no such function" for name, f in originals.items() if f is None]
    recorded = set()
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.generate(1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.recording = True
            out = workload.call(*inputs.args)
        finally:
            tracer.recording = False
            tracer.uninstall()
        if not workload.check(inputs, out).ok:
            errors.append(f"{name}: the traced call failed its check")
        recorded |= {metric for metric, value in tracer.metrics(1).items() if value}
        for span in tracing.SPANS:
            calls = tracer.totals.get(f"{span.name}.calls", 0)
            if name in span.workloads and calls < 1:
                errors.append(f"{span.name}: no call recorded on {name}")
            if name not in span.workloads and calls != 0:
                errors.append(f"{span.name}: {calls:g} calls on {name}, predicted none")
    for metric in tracing.PER_LAYER.keys() - recorded - {"bound_use"}:
        errors.append(f"{metric}: zero on every workload")
    for span in tracing.SPANS:
        if getattr(importlib.import_module(span.module), span.attr, None) is not originals[span.name]:
            errors.append(f"{span.name}: wrapper left in place after uninstall")
    return errors


def check_declaration(workloads, tracing) -> list[str]:
    declared = json.loads(tracing.DECLARATION.read_text())
    if not [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES):
        return ["BENCHMARK.json workloads differ from the benchmark's"]
    return []


def main() -> int:
    workloads, tracing = run.load_modules()
    errors = []
    for check in (
        lambda: check_input_digests(workloads),
        lambda: check_spans(workloads, tracing),
        lambda: check_declaration(workloads, tracing),
    ):
        errors += check()
    for line in errors:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
