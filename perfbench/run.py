"""orbitforge benchmark: one seeded workload, timed end to end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rewire_short_cycles --seed 1 \
        --seconds 30 --trace 0

The library is imported from the checkout's ``src/`` and nowhere else; the
run exits with status 2, printing no result, when it is missing.  One run is
a closed loop with a single caller in one process: set up seven times
(input generation plus one warm-up call; the median is ``setup_s``), then
call back to back until ``--seconds`` have passed.  Every output is checked,
and its digest must match that of the run's first call.

With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` every call runs under the tracer and the result line carries
the per-layer metrics instead.  Human-readable lines, including an
environment record, precede the result line, which is the last line of
standard output.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pipeline_random", "rewire_short_cycles", "transport_ball_r3")
# pinned before numpy is first imported, so BLAS and OpenMP stay on one thread
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# with three set-ups the spread of setup_s over ten runs reached 0.25
SETUP_REPEATS = 7
# call_s.tail is this fixed percentile, so runs of different speed (and so of
# different call counts) report the same statistic
TAIL_PERCENTILE = 75


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_modules():
    """Import the library from ``src/`` and the benchmark's own modules."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "orbitforge" / "__init__.py").is_file():
        raise BenchmarkError(f"no orbitforge package under {SRC}")
    sys.path.insert(0, str(SRC))
    orbitforge = importlib.import_module("orbitforge")
    origin = Path(orbitforge.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchmarkError(f"orbitforge was imported from {origin}, not {SRC}")
    return importlib.import_module("workloads"), importlib.import_module("tracer")


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def tail(samples: list[float]) -> float:
    """The TAIL_PERCENTILE percentile of the samples (the sample if only one)."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100)[TAIL_PERCENTILE - 1]


class Run:
    """Counts calls and failures and checks outputs against the first call."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.bound_use = 0.0
        self.reasons: list[str] = []

    def call(self, tracer=None):
        """One checked call; returns its wall time, or None if it raised."""
        self.attempted += 1
        if tracer is not None:
            tracer.recording = True
        start = time.perf_counter()
        try:
            out = self.workload.call(*self.inputs.args)
        except Exception:
            self._fail(traceback.format_exc(limit=3))
            return None
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.recording = False
        checked = self.workload.check(self.inputs, out)
        self.bound_use = max(self.bound_use, checked.bound_use)
        if self.reference is None:
            self.reference = checked.digest
        if not checked.ok:
            self._fail(checked.reason)
        elif checked.digest != self.reference:
            self._fail("output digest differs from the first call's")
        return elapsed

    def _fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons.append(reason)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    start = time.perf_counter()
    try:
        workloads, tracing = load_modules()
    except (BenchmarkError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    workload = workloads.WORKLOADS[args.workload]

    setups, run = [], None
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        inputs = workload.generate(args.seed)
        if run is None:
            run = Run(workload, inputs)
        elif inputs.digest != run.inputs.digest:
            print("error: input generation is not deterministic", file=sys.stderr)
            return 2
        run.call()
        setups.append(time.perf_counter() - begin)
    setup_s = import_s + statistics.median(setups)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    times: list[float] = []
    loop_calls = 0
    loop_start = time.perf_counter()
    try:
        while True:
            loop_calls += 1
            elapsed = run.call(tracer)
            if elapsed is not None:
                times.append(elapsed)
            if time.perf_counter() - loop_start >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - loop_start

    if not times:
        # every call raised; the loop's time keeps the metrics defined
        times = [wall]
    p50 = statistics.median(times)
    tail_s = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "call_s.p50": (p50, "s"),
        "call_s.tail": (tail_s, "s"),
        "points_per_s": (run.inputs.n * len(times) / sum(times), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    failed_ratio = run.failed / run.attempted

    mode = "traced" if tracer is not None else "untraced"
    print(f"workload {args.workload} seed {args.seed} n {run.inputs.n} ({mode})")
    print(f"input digest {run.inputs.digest}")
    print(f"call_s.p50 = {p50:.6f} s over {len(times)} calls")
    above = sum(t > tail_s for t in times)
    print(f"call_s.tail = {tail_s:.6f} s at p{TAIL_PERCENTILE}, {above} of {len(times)} calls above it")
    for name in ("points_per_s", "setup_s", "peak_rss_mb"):
        value, unit = end_to_end[name]
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {failed_ratio:.6g} ({run.failed} of {run.attempted} calls)")
    print(f"bound_use = {run.bound_use:.6g} ratio")
    for reason in run.reasons[:5]:
        print(f"failure: {reason.strip()}")
    print("environment " + json.dumps(environment(), sort_keys=True))

    if tracer is not None:
        values = {**tracer.metrics(loop_calls), "bound_use": run.bound_use}
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in tracing.PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()
        }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
