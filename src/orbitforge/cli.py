"""Command line front end: ``orbit-forge <subcommand>``.

Symbols in label files are arbitrary tokens, one per line, and index
coupling matrices in sorted order; permutations and line bijections are one
0-based image per line.  Every command writes its outputs through ``_write_all``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .freegroup import FiniteAction, parse_word
from .pipeline import (
    SCHEMA_VERSION,
    CertificationError,
    ConfigError,
    GoodObservableError,
    _permutation_text,
    _read_coupling_csv,
    _read_labels,
    _read_permutations,
    parse_config,
    run_experiment,
)
from .rearrange import PreconditionError, rearrange_line
from .rewire import RewireReport, rewire
from .weak import stats_matrix

__all__ = ["main"]


def _cmd_pipeline(args) -> int:
    try:
        config = parse_config(Path(args.config).read_text())
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    result = run_experiment(config)
    _write_all([(config.out_csv, result.csv_text), (config.out_json, result.json_text)])
    return 0 if result.all_bounds_held else 1


def _report_line(report) -> str:
    """The report's fields and ``schema_version`` as one JSON line."""
    payload = {f.name: getattr(report, f.name) for f in fields(report)}
    if isinstance(report, RewireReport):
        # the per-cycle arrays go out as one [length, good, error] row each
        del payload["lengths"], payload["good"], payload["error"]
        payload["per_cycle"] = report.per_cycle
    payload["schema_version"] = SCHEMA_VERSION
    # a NaN or infinity in a report is an error, not a token for the reader
    return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"


def _write_all(outputs: list[tuple[str | None, str]]) -> None:
    """Write every ``(path, text)`` or none; a text with no path goes to stdout.

    Each file is written to a temporary file beside its target and renamed
    into place once all are written; stdout comes last, so a failed file
    write prints nothing, and a failed print removes the files placed.
    """
    files = [(Path(path), text) for path, text in outputs if path]
    staged = [p.with_name(f".{p.name}.{os.urandom(8).hex()}.tmp") for p, _ in files]
    placed = 0
    try:
        for tmp, (path, text) in zip(staged, files):
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text)
        for tmp, (path, _) in zip(staged, files):
            tmp.replace(path)
            placed += 1
        for path, text in outputs:
            if not path:
                sys.stdout.write(text)
        sys.stdout.flush()
    except BaseException:
        for i, (tmp, (path, _)) in enumerate(zip(staged, files)):
            (path if i < placed else tmp).unlink(missing_ok=True)
        raise


def _cmd_lemma_rearrange(args) -> int:
    j = _read_coupling_csv(args.coupling)
    phi = _read_labels(args.labels, alphabet=j.alphabet_size, alphabet_of=args.coupling)
    sigma, report = rearrange_line(phi, j, args.eps, check=not args.no_check)
    text = _permutation_text(sigma.sigma)
    _write_all([(args.out_sigma, text), (args.out_report, _report_line(report))])
    return 0


def _cmd_rewire(args) -> int:
    t = _read_permutations([args.perm])[0]
    j = _read_coupling_csv(args.coupling)
    psi = _read_labels(args.labels, t.shape[0], j.alphabet_size, args.coupling)
    t_new, report = rewire(t, psi, j, args.eps, check=not args.no_check)
    text = _permutation_text(t_new)
    _write_all([(args.out_perm, text), (args.out_report, _report_line(report))])
    return 0


def _cmd_stats(args) -> int:
    action = FiniteAction(_read_permutations(args.perm))
    p = _read_labels(args.labels, action.n)
    word = parse_word(args.word, action.rank)
    cells = np.ndenumerate(stats_matrix(action, p, word).real)
    _write_all([(None, "".join(f"{i},{jx},{float(v)!r}\n" for (i, jx), v in cells))])
    return 0


def _positive_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orbit-forge")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", help="run a config-driven experiment schedule")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser(
        "lemma-rearrange", help="rearrange labels into a line matching a coupling"
    )
    p.add_argument("--labels", required=True)
    p.add_argument("--coupling", required=True)
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--out-sigma")
    p.add_argument("--out-report")
    p.add_argument("--no-check", action="store_true")
    p.set_defaults(func=_cmd_lemma_rearrange)

    p = sub.add_parser("rewire", help="rewire a permutation within its cycles")
    p.add_argument("--perm", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--coupling", required=True)
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--out-perm")
    p.add_argument("--out-report")
    p.add_argument("--no-check", action="store_true")
    p.set_defaults(func=_cmd_rewire)

    p = sub.add_parser("stats", help="print intersection statistics as CSV")
    p.add_argument("--perm", action="append", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except (GoodObservableError, CertificationError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
