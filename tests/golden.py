"""Golden digests: sha256 fingerprints of outputs that must stay byte-identical.

Usage, from the root of a checkout::

    python tests/golden.py            # print the digests of this tree
    python tests/golden.py --write    # regenerate tests/golden.json

The digests cover the check digest of each ``perfbench`` workload at two
seeds, built by the workload's own generate, call and check functions, and
the CSV and JSON texts of the criterion-6 pipeline run at two seeds.  The
file also records the numpy and Python versions it was made with: numpy
does not promise the same ``Generator`` streams across versions (NEP 19),
so digests made on another numpy are not comparable.  ``test_golden.py``
recomputes every digest.  A change that alters an output on purpose
regenerates the file and explains each changed digest.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")
WORKLOAD_SEEDS = (101, 977)
# the criterion-6 run of test_acceptance.py, at each of these seeds
CRITERION_6 = dict(n=100_000, rank=2, alphabet=2, eps_schedule=(0.1, 0.03, 0.01))
CRITERION_6_SEEDS = (42, 101)


def _workloads():
    """``perfbench/workloads.py`` as it stands, imported by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict[str, str]:
    """Every golden digest of this tree, by name."""
    from orbitforge.pipeline import PipelineConfig, run_experiment

    out = {}
    for name, workload in _workloads().WORKLOADS.items():
        for seed in WORKLOAD_SEEDS:
            inputs = workload.generate(seed)
            checked = workload.check(inputs, workload.call(*inputs.args))
            if not checked.ok:
                raise RuntimeError(f"{name} at seed {seed}: {checked.reason}")
            out[f"{name} seed {seed} check"] = checked.digest
    for seed in CRITERION_6_SEEDS:
        config = PipelineConfig(**CRITERION_6, seed=seed, retries=5)
        result = run_experiment(config)
        out[f"criterion 6 seed {seed} csv"] = _sha256(result.csv_text)
        out[f"criterion 6 seed {seed} json"] = _sha256(result.json_text)
    return out


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    record = {**versions(), "digests": digests()}
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.write:
        GOLDEN.write_text(text)
        print(f"wrote {GOLDEN}")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
