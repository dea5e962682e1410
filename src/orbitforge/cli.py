"""Command line front end: ``orbit-forge <subcommand>``.

Symbols in label files are arbitrary tokens, one per line, and index
coupling matrices in sorted order; permutations and line bijections are one
0-based image per line.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .freegroup import FiniteAction, parse_word
from .permutations import is_permutation
from .pipeline import (
    SCHEMA_VERSION,
    CertificationError,
    ConfigError,
    GoodObservableError,
    _permutation_text,
    parse_config,
    read_coupling_csv,
    read_labels,
    read_permutation,
    run_experiment,
)
from .rearrange import PreconditionError, rearrange_line
from .rewire import rewire
from .weak import stats_matrix

__all__ = ["build_parser", "main"]


def _cmd_pipeline(args) -> int:
    try:
        config = parse_config(Path(args.config).read_text())
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    result = run_experiment(config)
    if not config.out_csv:
        sys.stdout.write(result.csv_text)
    if not config.out_json:
        sys.stdout.write(result.json_text)
    return 0 if result.all_bounds_held else 1


def _json_line(payload: dict) -> str:
    # a NaN or infinity in a report is an error, not a token for the reader
    return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"


def _write_or_print(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_lemma_rearrange(args) -> int:
    phi, _ = read_labels(args.labels)
    j = read_coupling_csv(args.coupling)
    sigma, report = rearrange_line(phi, j, args.eps, check=not args.no_check)
    _write_or_print(args.out_sigma, _permutation_text(sigma.sigma))
    payload = {"schema_version": SCHEMA_VERSION, **asdict(report)}
    _write_or_print(args.out_report, _json_line(payload))
    return 0


def _cmd_rewire(args) -> int:
    t = read_permutation(args.perm)
    psi, _ = read_labels(args.labels)
    j = read_coupling_csv(args.coupling)
    t_new, report = rewire(t, psi, j, args.eps, check=not args.no_check)
    _write_or_print(args.out_perm, _permutation_text(t_new))
    payload = {"schema_version": SCHEMA_VERSION, **asdict(report)}
    payload["per_cycle"] = [list(row.values()) for row in payload["per_cycle"]]
    _write_or_print(args.out_report, _json_line(payload))
    return 0


def _cmd_stats(args) -> int:
    perms = [read_permutation(path) for path in args.perm]
    n = perms[0].shape[0]
    for path, perm in zip(args.perm, perms):
        if perm.shape[0] != n:
            raise ValueError(f"{path}: {perm.shape[0]} images, expected n={n}")
        if not is_permutation(perm):
            raise ValueError(f"{path}: the images are not a permutation")
    action = FiniteAction.from_perms(np.vstack(perms))
    p, _ = read_labels(args.labels)
    if p.n != action.n:
        raise ValueError(f"{args.labels}: {p.n} labels, expected n={action.n}")
    word = parse_word(args.word, action.rank)
    stats = stats_matrix(action, p, word)
    for i in range(p.alphabet_size):
        for jx in range(p.alphabet_size):
            value = float(stats.counts[i, jx] / stats.denom)
            sys.stdout.write(f"{i},{jx},{value!r}\n")
    return 0


def _positive_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except (GoodObservableError, CertificationError) as exc:
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
