"""Tracing overhead: traced minus untraced call_s.p50, in one process.

Run from the root of a checkout::

    python3 perfbench/overhead.py

Load on a shared machine drifts over tens of seconds, more than the
overhead itself, so comparing separate runs cannot resolve it.  This script
alternates untraced and traced calls on the same inputs, taking turns at
going first, and reports both medians per workload.
"""

import json
import statistics
import time

import run

SEED = 101
PAIRS = 10


def timed(workload, inputs, tracer=None) -> float:
    if tracer is not None:
        tracer.install()
        tracer.recording = True
    start = time.perf_counter()
    try:
        workload.call(*inputs.args)
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.recording = False
            tracer.uninstall()
    return elapsed


def main() -> int:
    workloads, tracing = run.load_modules()
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.generate(SEED)
        workload.call(*inputs.args)
        plain, traced = [], []
        for i in range(PAIRS):
            order = (None, tracing.Tracer()) if i % 2 == 0 else (tracing.Tracer(), None)
            for tracer in order:
                (plain if tracer is None else traced).append(timed(workload, inputs, tracer))
        base, with_trace = statistics.median(plain), statistics.median(traced)
        print(
            json.dumps(
                {
                    "workload": name,
                    "pairs": PAIRS,
                    "untraced_p50_s": base,
                    "traced_p50_s": with_trace,
                    "overhead_s": with_trace - base,
                    "overhead_share": (with_trace - base) / base,
                }
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
