"""Golden digests: sha256 fingerprints of outputs that must stay byte-identical.

Usage, from the root of a checkout::

    python tests/golden.py            # print the digests of this tree
    python tests/golden.py --write    # regenerate tests/golden.json

The digests cover the check digest of each ``perfbench`` workload at two
seeds, built by the workload's own generate, call and check functions, and
the CSV and JSON texts of the criterion-6 pipeline run at two seeds, and
the ``repr`` of three transport certificates off the ``transport_ball_r3``
inputs, on both sides of the rule that compares only the points where two
sides disagree.  The
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
TRANSPORT_SEED = 101


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


def _transport_variants(workload, seed: int) -> dict:
    """Certificates off the workload's nearby inputs, by name.

    A beta that permutes every refinement atom at random and an unrelated
    ``w`` make the two sides differ almost everywhere; an image partition
    that relabels 10 points keeps them nearby but makes the transported
    partition differ from ``P`` there.
    """
    from orbitforge import (
        FiniteAction,
        Observable,
        ball,
        ball_transport_certificate,
        refine_partition,
    )

    v, w, p, radius, beta, eps = workload.generate(seed).args
    rng = np.random.default_rng(seed)
    atoms = beta.shape[0]
    shuffled = rng.permutation(atoms)
    unrelated = FiniteAction.from_perms([rng.permutation(v.n) for _ in range(v.rank)])
    relabeled = refine_partition(p, ball(v.rank, radius), v).labels.copy()
    points = rng.choice(v.n, size=20, replace=False)
    relabeled[points[:10]] = relabeled[points[10:]]
    cases = {
        "beta permutes every atom": (w, shuffled),
        "unrelated w": (unrelated, beta),
        "image relabels a few points": (w, Observable(relabeled, atoms)),
    }
    return {
        name: ball_transport_certificate(v, other, p, radius, image, eps)
        for name, (other, image) in cases.items()
    }


def digests() -> dict[str, str]:
    """Every golden digest of this tree, by name."""
    from orbitforge.pipeline import PipelineConfig, run_experiment

    workloads = _workloads().WORKLOADS
    out = {}
    for name, workload in workloads.items():
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
    transport = workloads["transport_ball_r3"]
    for name, cert in _transport_variants(transport, TRANSPORT_SEED).items():
        out[f"transport {name} seed {TRANSPORT_SEED} repr"] = _sha256(repr(cert))
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
