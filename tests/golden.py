"""Golden digests: sha256 fingerprints of outputs that must stay byte-identical.

Usage, from the root of a checkout::

    python tests/golden.py            # print the digests of this tree
    python tests/golden.py --write    # regenerate tests/golden.json

The digests cover:

- the check digest of each ``perfbench`` workload at two seeds, built by
  the workload's own generate, call and check functions;
- the CSV and JSON texts of the criterion-6 pipeline run at two seeds, and
  of a rank-3 run over three atoms at three seeds;
- the ``repr`` of five transport certificates and one radius-2
  ``kechris_distance`` off the ``transport_ball_r3`` inputs, with sides
  compared on the points near where they differ and on every point, and
  one certificate at radius 2, whose refinement is not discrete;
- the exit code, stdout, stderr and written files of the four CLI commands
  on one 3,000-point input: ``lemma-rearrange`` and ``rewire`` with and
  without ``--no-check`` (``pipeline`` and ``stats`` have no such flag),
  and ``rewire`` on a coupling whose margins it refuses;
- the stdout of each demo.

The file also records the numpy and Python versions it was made with: numpy
does not promise the same ``Generator`` streams across versions (NEP 19),
so digests made on another numpy are not comparable.  ``test_golden.py``
recomputes every digest but the demos', which ``test_demos.py`` checks as it
runs them.  A change that alters an output on purpose regenerates the file
and explains each changed digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WORKLOAD_SEEDS = (101, 977)
# the criterion-6 run of test_acceptance.py, at each of these seeds
CRITERION_6 = dict(n=100_000, rank=2, alphabet=2, eps_schedule=(0.1, 0.03, 0.01))
CRITERION_6_SEEDS = (42, 101)
# three generators and three atoms, so every word comparison has k = 3
RANK_3 = dict(n=100_000, rank=3, alphabet=3, eps_schedule=(0.1, 0.03, 0.01))
RANK_3_SEEDS = (0, 5, 42)
TRANSPORT_SEED = 101
CLI_POINTS = 3_000
CLI_SEED = 7
_CLI_INPUT = ["--labels=labels.txt", "--coupling=j.csv", "--eps=0.03"]
# each run's arguments, with paths relative to the folder of the inputs
CLI_RUNS = {
    "pipeline": ["pipeline", "--config=run.cfg"],
    "lemma-rearrange": [
        "lemma-rearrange",
        *_CLI_INPUT,
        "--out-sigma=out/sigma.txt",
        "--out-report=out/report.json",
    ],
    "lemma-rearrange --no-check": ["lemma-rearrange", *_CLI_INPUT, "--no-check"],
    "rewire": [
        "rewire",
        "--perm=perm0.txt",
        *_CLI_INPUT,
        "--out-perm=out/perm.txt",
        "--out-report=out/report.json",
    ],
    "rewire --no-check": ["rewire", "--perm=perm0.txt", *_CLI_INPUT, "--no-check"],
    "stats": [
        "stats",
        "--perm=perm0.txt",
        "--perm=perm1.txt",
        "--labels=labels.txt",
        "--word=a B a",
    ],
    "rewire refused": [
        "rewire",
        "--perm=perm0.txt",
        "--labels=labels.txt",
        "--coupling=far.csv",
        "--eps=0.03",
    ],
}


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
    """Certificates and a distance off the workload's nearby inputs, by name.

    A beta that permutes every refinement atom at random, or only the atoms
    within each coarse atom, moves most points, and an unrelated ``w``, or
    one whose generator 2 reshuffles its images on 30% of the points (also
    under the radius-2 distance), differs from ``v`` on most points within
    the radius: those sides are compared on every point.  An image
    partition that relabels 10 points keeps the sides nearby but makes the
    transported partition differ from ``P`` there.  At radius 2 the
    refinement is not discrete, so it reads every word and ranks the codes.
    """
    from orbitforge import (
        FiniteAction,
        Observable,
        ball,
        ball_transport_certificate,
        kechris_distance,
        refine_partition,
    )

    v, w, p, radius, beta, eps = workload.generate(seed).args
    rng = np.random.default_rng(seed)
    atoms = beta.shape[0]
    shuffled = rng.permutation(atoms)
    unrelated = FiniteAction.from_perms([rng.permutation(v.n) for _ in range(v.rank)])
    refinement = refine_partition(p, ball(v.rank, radius), v).labels
    relabeled = refinement.copy()
    points = rng.choice(v.n, size=20, replace=False)
    relabeled[points[:10]] = relabeled[points[10:]]
    _, first = np.unique(refinement, return_index=True)
    within = np.arange(atoms)
    for part in range(p.alphabet_size):
        ids = np.flatnonzero(p.labels[first] == part)
        within[ids] = ids[rng.permutation(ids.size)]
    perms = v.perms.copy()
    picked = rng.choice(v.n, size=3 * v.n // 10, replace=False)
    perms[1, picked] = perms[1, rng.permutation(picked)]
    reshuffled = FiniteAction.from_perms(perms)
    cases = {
        "beta permutes every atom": (w, shuffled),
        "unrelated w": (unrelated, beta),
        "image relabels a few points": (w, Observable(relabeled, atoms)),
        "beta permutes atoms within their coarse atom": (w, within),
        "w reshuffles generator 2 on 30% of points": (reshuffled, beta),
    }
    out = {
        name: ball_transport_certificate(v, other, p, radius, image, eps)
        for name, (other, image) in cases.items()
    }
    out["radius-2 kechris_distance, w reshuffles generator 2 on 30% of points"] = (
        kechris_distance(v, reshuffled, p, p, ball(v.rank, 2))
    )
    atoms = refine_partition(p, ball(v.rank, 2), v).alphabet_size
    out["radius 2"] = ball_transport_certificate(v, w, p, 2, np.arange(atoms), eps)
    return out


def _write_cli_inputs(folder: Path) -> None:
    """Balanced labels, two permutations, two couplings and a pipeline config.

    ``far.csv`` has margins (0.65, 0.35) and (0.7, 0.3), far from the
    balanced labels.
    """
    rng = np.random.default_rng(CLI_SEED)
    labels = rng.permutation(np.arange(CLI_POINTS) % 2)
    (folder / "labels.txt").write_text("".join(f"{'ab'[x]}\n" for x in labels))
    for s in range(2):
        images = rng.permutation(CLI_POINTS)
        (folder / f"perm{s}.txt").write_text("".join(f"{v}\n" for v in images))
    (folder / "j.csv").write_text("0.3,0.2\n0.2,0.3\n")
    (folder / "far.csv").write_text("0.5,0.15\n0.2,0.15\n")
    (folder / "run.cfg").write_text(
        f"n = {CLI_POINTS}\nrank = 2\nalphabet = 2\neps = 0.1, 0.03\n"
        f"seed = {CLI_SEED}\nsource = file:perm0.txt,perm1.txt\n"
        "out_csv = out/run.csv\nout_json = out/run.json\n"
    )


def cli_digests() -> dict[str, str]:
    """The digest of each CLI run's exit code, stdout, stderr and files."""
    from orbitforge.cli import main

    out = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        _write_cli_inputs(folder)
        os.chdir(folder)
        try:
            for name, argv in CLI_RUNS.items():
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    with contextlib.redirect_stderr(stderr):
                        code = main(argv)
                written = folder / "out"
                files = {
                    path.relative_to(folder).as_posix(): path.read_text()
                    for path in sorted(written.rglob("*"))
                }
                shutil.rmtree(written, ignore_errors=True)
                record = dict(
                    exit=code,
                    stdout=stdout.getvalue(),
                    stderr=stderr.getvalue(),
                    files=files,
                )
                out[f"cli {name}"] = _sha256(json.dumps(record, sort_keys=True))
        finally:
            os.chdir(home)
    return out


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
    runs = [("criterion 6", CRITERION_6, seed) for seed in CRITERION_6_SEEDS]
    runs += [("rank 3", RANK_3, seed) for seed in RANK_3_SEEDS]
    for name, settings, seed in runs:
        result = run_experiment(PipelineConfig(**settings, seed=seed, retries=5))
        out[f"{name} seed {seed} csv"] = _sha256(result.csv_text)
        out[f"{name} seed {seed} json"] = _sha256(result.json_text)
    transport = workloads["transport_ball_r3"]
    for name, value in _transport_variants(transport, TRANSPORT_SEED).items():
        out[f"transport {name} seed {TRANSPORT_SEED} repr"] = _sha256(repr(value))
    out.update(cli_digests())
    return out


def run_demo(script: Path) -> subprocess.CompletedProcess:
    """Run one demo script against the library in ``src``, capturing its output."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=ROOT,
        timeout=300,
    )


def demo_digests() -> dict[str, str]:
    """The sha256 of each demo's stdout, by script name."""
    out = {}
    for script in DEMOS:
        proc = run_demo(script)
        if proc.returncode:
            raise RuntimeError(f"{script.name} exited {proc.returncode}: {proc.stderr}")
        out[script.stem] = _sha256(proc.stdout)
    return out


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version()}


def recorded() -> dict:
    """The contents of ``golden.json``, refused on another numpy version."""
    want = json.loads(GOLDEN.read_text())
    here = versions()
    # numpy does not promise the same Generator streams across versions
    if here["numpy"] != want["numpy"]:
        raise AssertionError(
            f"{GOLDEN.name} was made with numpy {want['numpy']}, and this is "
            f"numpy {here['numpy']}; its digests do not apply here.  Regenerate "
            "it with `python tests/golden.py --write` on the parent commit first."
        )
    return want


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    record = {**versions(), "digests": digests(), "demos": demo_digests()}
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.write:
        GOLDEN.write_text(text)
        print(f"wrote {GOLDEN}")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
