"""End-to-end experiment: match a target action's pair statistics by orbit
rewiring, and certify the result.

Per generator ``s``, the target's pair statistics are those of the inverse
letter, the distribution of ``(phi(x), phi(b_s x))``.  The target coupling
blends them with an independent product (weight ``eps``), which keeps every
entry positive; a sampled observable equidistributes over the source
action's cycles; rewiring each generator inside its own cycles then brings
the per-generator statistics within ``10*|A|*eps`` of the target while the
orbit partition of the source action is untouched.  ``weak`` counts the
target and gives each rewired action's Kechris distance from it; this
module decides only when (once per run) and over which ball
(``KECHRIS_RADIUS``).

``run_experiment`` drives a schedule of eps values from a flat key=value
config, returning the texts of a CSV (fixed columns eps,generator,
achieved_error,bound,kechris_distance) and a JSON report.  All randomness
flows from one 64-bit seed through named seed-sequence keys, so reports are
byte-identical across runs and worker counts.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .freegroup import FiniteAction, ball
from .permutations import cycle_min_labels
from .rearrange import PreconditionError, _require_eps
from .rewire import _bad_mass, _rewire_cycles
from .spaces import (
    REAL_TOL,
    CertificationError,
    Coupling,
    Dist,
    Observable,
    _as_permutation,
    empirical_distribution,
    linf,
    mixture_coupling,
)
from .weak import _counted, _distance_from

__all__ = [
    "ConfigError",
    "GoodObservableError",
    "PipelineConfig",
    "GeneratorOutcome",
    "PipelineReport",
    "ExperimentResult",
    "good_observable",
    "verify_oe",
    "parse_config",
    "run_experiment",
]

SCHEMA_VERSION = 1
KECHRIS_RADIUS = 2  # ball radius of the reported Kechris distance


class GoodObservableError(RuntimeError):
    """All sampling attempts failed; carries the worst per-generator profile.

    ``label_gap`` is the least global label gap among the attempts refused
    for it, or ``None`` if no attempt was; ``gap_below`` is the bound.
    """

    def __init__(
        self,
        attempts: int,
        worst_bad_mass: list[float],
        label_gap: float | None,
        gap_below: float | None,
    ):
        self.attempts = attempts
        self.worst_bad_mass = worst_bad_mass
        self.label_gap = label_gap
        self.gap_below = gap_below
        message = (
            f"no equidistributed observable in {attempts} attempts; "
            f"worst per-generator off-mass {worst_bad_mass}"
        )
        if label_gap is None:
            message += " (cycles are likely too short for concentration)"
        else:
            message += (
                f"; label distribution gap {label_gap:.6g} not below {gap_below:.6g}"
            )
        super().__init__(message)


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))


def good_observable(
    a: FiniteAction,
    pi: Dist,
    eps: float,
    retries: int,
    seed: int,
    gap_below: float | None = None,
) -> tuple[Observable, int]:
    """Sample labels i.i.d. from ``pi`` until they equidistribute per cycle.

    Acceptance: for every generator, the mass of cycles whose internal
    distribution strays more than ``3*eps`` from the global one is below
    ``eps``; with ``gap_below``, also the global label gap, the sup-norm
    distance from the labels' distribution to ``pi``, is below it.  Returns
    the observable and the number of attempts used; deterministic given the
    seed.
    """
    if retries < 1:
        raise ValueError("need at least one attempt")
    _require_eps(eps)
    cum = np.cumsum(pi.real)
    cum[-1] = 1.0
    worst: list[float] | None = None
    least_gap: float | None = None
    for attempt in range(1, retries + 1):
        rng = _rng(seed, 1, attempt)
        labels = np.searchsorted(cum, rng.random(a.n), side="right")
        psi = Observable(labels, pi.alphabet_size)
        masses = [_bad_mass(dec, psi, 3 * eps)[0] for dec in a.cycle_decompositions]
        gap_ok = True
        if gap_below is not None:
            gap = float(np.abs(psi.atom_sizes() / a.n - pi.real).max())
            gap_ok = gap < gap_below
            if not gap_ok and (least_gap is None or gap < least_gap):
                least_gap = gap
        if gap_ok and all(m < eps for m in masses):
            return psi, attempt
        if worst is None or max(masses) > max(worst):
            worst = masses
    raise GoodObservableError(retries, worst or [], least_gap, gap_below)


@dataclass(frozen=True)
class GeneratorOutcome:
    generator: int
    achieved_error: float
    bound: float
    rewire_error: float
    mixture_gap: float
    rewire_bound: float
    good_mass: float
    same_orbits: bool
    min_entry_ok: bool
    eps_used: float


@dataclass(frozen=True)
class PipelineReport:
    eps: float
    alphabet_size: int
    bound: float
    generators: tuple[GeneratorOutcome, ...]
    orbit_equivalent: bool
    retries_used: int
    kechris_distance: float
    kechris_radius: int = field(default=KECHRIS_RADIUS, init=False)

    def bounds_held(self) -> bool:
        return all(g.achieved_error <= g.bound for g in self.generators)


def _target_side(b: FiniteAction, phi: Observable):
    """``weak._counted`` of ``(b, phi)`` over the ball of radius
    ``KECHRIS_RADIUS``: the pair targets and tallies, counted once per run."""
    return _counted(b, phi, ball(b.rank, KECHRIS_RADIUS))


def _oe_approximate(a, phi, eps, retries, seed, target):
    """Rewire ``a`` generator by generator toward the statistics of ``(b, phi)``.

    ``target`` is ``_target_side(b, phi)``, for ``b`` of ``a``'s rank and
    size and ``phi`` of its size.  The source observable is sampled by
    ``good_observable`` from the label distribution of ``phi``.  Returns the
    rewired action (same orbits as ``a``, generator-wise), that observable,
    and a per-generator report with the Kechris distance over the ball of
    radius ``KECHRIS_RADIUS``.  The triangle decomposition achieved <=
    rewire_error + mixture_gap, the mixture bound mixture_gap <= eps and
    orbit preservation are checked on every run; a failure raises
    ``CertificationError``.  The cycles of ``a`` are decomposed once, on the
    action, and shared by sampling, rewiring and the orbit check.
    """
    if not eps < 1 / 6:
        raise PreconditionError(f"eps={eps:.6g} is not below 1/6")
    pi = empirical_distribution(phi)
    if int(pi.counts.min()) == 0:
        raise ValueError(
            "observable does not use every symbol; restrict the alphabet "
            "to its range first"
        )
    pair_targets, tallies = target
    targets = [mixture_coupling(j, eps, pi) for j in pair_targets]
    alpha = phi.alphabet_size
    jmins = [float(j.real.min()) for j in targets]
    min_oks = [jmin > 2 * alpha * eps for jmin in jmins]
    # when the min-entry check fails, shrink the working eps until it
    # holds; the 10|A|eps bound only loosens, so it stays valid
    eps_used = [
        eps if ok else min(eps, 0.45 * jmin / alpha) for jmin, ok in zip(jmins, min_oks)
    ]
    # rewiring needs the coupling margins, the distribution of phi, within
    # each working eps of the sampled labels' distribution
    psi, attempts = good_observable(a, pi, eps, retries, seed, gap_below=min(eps_used))

    new_perms = []
    outcomes = []
    for s in range(a.rank):
        t_new, rep, pairs = _rewire_cycles(
            a.perms[s], a.cycle_decompositions[s], psi, targets[s], eps_used[s]
        )
        achieved = linf(pairs, pair_targets[s])
        mixture_gap = linf(targets[s], pair_targets[s])
        if not mixture_gap <= eps + REAL_TOL:
            raise CertificationError(
                f"generator {s}: mixture gap {mixture_gap!r} exceeds eps={eps!r}"
            )
        if not achieved <= rep.achieved_error + mixture_gap + REAL_TOL:
            raise CertificationError(
                f"generator {s}: achieved error {achieved!r} exceeds rewire error "
                f"{rep.achieved_error!r} + mixture gap {mixture_gap!r}"
            )
        new_perms.append(t_new)
        # same_orbits holds once verify_oe below passes, or no report is made
        outcomes.append(
            GeneratorOutcome(
                generator=s,
                achieved_error=achieved,
                bound=10 * alpha * eps,
                rewire_error=rep.achieved_error,
                mixture_gap=mixture_gap,
                rewire_bound=rep.bound,
                good_mass=rep.good_mass,
                same_orbits=True,
                min_entry_ok=min_oks[s],
                eps_used=eps_used[s],
            )
        )
    a_new = FiniteAction(np.vstack(new_perms))
    # the rows of a_new are copies; drop the originals before the checks
    del new_perms, t_new
    if not verify_oe(a, a_new):
        raise CertificationError("rewiring did not preserve orbits generator-wise")
    report = PipelineReport(
        eps=eps,
        alphabet_size=alpha,
        bound=10 * alpha * eps,
        generators=tuple(outcomes),
        orbit_equivalent=True,
        retries_used=attempts,
        kechris_distance=_distance_from(phi, tallies, a_new, psi),
    )
    return a_new, psi, report


def verify_oe(a: FiniteAction, a2: FiniteAction) -> bool:
    """Generator-wise equal orbits (which forces equal orbit relations).

    The cycle minima of ``a`` come from its cached decompositions; those of
    ``a2`` are computed once per generator.
    """
    if a.rank != a2.rank or a.n != a2.n:
        raise ValueError("actions must share rank and space size")
    for dec, p2 in zip(a.cycle_decompositions, a2.perms):
        minima = dec.order[dec.offsets[dec.cycle_of]]
        if not np.array_equal(minima, cycle_min_labels(p2)):
            return False
    return True


# ---------------------------------------------------------------------------
# experiment runner: config, file formats, CSV/JSON reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    n: int
    rank: int
    alphabet: int
    eps_schedule: tuple[float, ...]
    seed: int
    retries: int = 5
    source: str = "random"
    target: str = "random"
    phi: str = "balanced"
    out_csv: str | None = None
    out_json: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.alphabet < 1:
            raise ValueError("alphabet must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.retries < 1:
            raise ValueError("retries must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if not self.eps_schedule:  # it would certify nothing, yet hold every bound
            raise ValueError("field 'eps': the schedule lists no value")
        for e in self.eps_schedule:
            if not 0 < e < 1 / 6:
                raise ValueError(f"eps={e} outside (0, 1/6)")


# config key -> PipelineConfig field; the key ``eps`` fills ``eps_schedule``
_CONFIG_FIELDS = {
    "eps" if f.name == "eps_schedule" else f.name: f for f in fields(PipelineConfig)
}


class ConfigError(ValueError):
    """Malformed config file; the message names the line and field."""


def parse_config(text: str) -> PipelineConfig:
    """Parse a flat ``key = value`` config with per-line diagnostics."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    def as_int(key: str, value: str) -> int:
        try:
            return _strict_int(value)
        except ValueError:
            raise ConfigError(f"field {key!r}: {value!r} is not an integer") from None

    def as_schedule(value: str) -> tuple[float, ...]:
        schedule = []
        for part in value.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                schedule.append(float(part))
            except ValueError:
                raise ConfigError(f"field 'eps': {part!r} is not a number") from None
        return tuple(schedule)

    values = {}
    for key, f in _CONFIG_FIELDS.items():
        if key not in raw:
            if f.default is MISSING:
                raise ConfigError(f"missing required key {key!r}")
        elif key == "eps":
            values[f.name] = as_schedule(raw[key])
        elif f.type == "int":
            values[f.name] = as_int(key, raw[key])
        else:
            values[f.name] = raw[key]
    try:
        return PipelineConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_lines(path, parse, what: str) -> list:
    """``(line number, parse(line))`` for each nonblank line of ``path``.

    A line ``parse`` refuses raises ``ValueError`` naming the file and line.
    """
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if line := line.strip():
            try:
                rows.append((lineno, parse(line)))
            except ValueError:
                message = f"{path}: line {lineno}: {line!r} is not {what}"
                raise ValueError(message) from None
    return rows


def _strict_int(text: str) -> int:
    """A decimal integer in ASCII digits with an optional leading ``-``.

    Python's ``int`` also reads ``1_0`` as 10, non-ASCII digits, a ``+``
    sign and surrounding blanks; a file or config value spelled so is
    refused instead.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


def _symbol(text: str) -> str:
    if len(text.split()) != 1:
        raise ValueError(text)
    return text


def _finite_row(text: str) -> list[float]:
    row = [float(v) for v in text.split(",")]
    if not np.isfinite(row).all():
        raise ValueError(text)
    return row


def _read_permutations(paths, n: int | None = None) -> np.ndarray:
    """Stack one permutation per file, all of ``n`` (default: the first's) points.

    Each file lists one integer image per nonblank line.
    """
    rows = [_parse_lines(path, _strict_int, "an integer image") for path in paths]
    perms = [np.asarray([v for _, v in r], dtype=np.int64) for r in rows]
    n = perms[0].shape[0] if n is None else n
    for path, perm in zip(paths, perms):
        if perm.shape[0] != n:
            raise ValueError(f"{path}: {perm.shape[0]} images, expected n={n}")
        if n == 0:
            raise ValueError(f"{path}: no images")
        _as_permutation(perm, f"{path}: the image list")
    return np.vstack(perms)


def _permutation_text(perm: np.ndarray) -> str:
    return "\n".join(str(int(v)) for v in perm) + "\n"


def _read_labels(path, n=None, alphabet=None, alphabet_of=None) -> Observable:
    """The labels of ``path``, checked for ``n`` points and ``alphabet`` symbols.

    The file holds one symbol per nonblank line; the sorted symbols are the
    labels ``0, 1, ...``.  ``alphabet_of`` names the file the symbol count
    comes from, if any.
    """
    tokens = [t for _, t in _parse_lines(path, _symbol, "one symbol")]
    if not tokens:
        raise ValueError(f"{path}: no symbols")
    index = {sym: i for i, sym in enumerate(sorted(set(tokens)))}
    obs = Observable(np.asarray([index[t] for t in tokens], dtype=np.int64), len(index))
    if n is not None and obs.n != n:
        raise ValueError(f"{path}: {obs.n} labels, expected n={n}")
    if alphabet is not None and obs.alphabet_size != alphabet:
        source = f" as in {alphabet_of}" if alphabet_of else ""
        raise ValueError(f"{path}: {obs.alphabet_size} symbols, not {alphabet}{source}")
    return obs


def _read_coupling_csv(path) -> Coupling:
    rows = _parse_lines(path, _finite_row, "a row of finite numbers")
    for lineno, row in rows:
        if len(row) != len(rows):
            message = f"{len(row)} values in a {len(rows)}-row coupling"
            raise ValueError(f"{path}: line {lineno}: {message}")
    try:
        return Coupling.from_probs(np.asarray([r for _, r in rows], dtype=np.float64))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _build_action(spec: str, n: int, rank: int, seed: int, tag: int) -> FiniteAction:
    if spec == "random":
        perms = np.vstack(
            [_rng(seed, tag, s).permutation(n) for s in range(rank)]
        )
        return FiniteAction.from_perms(perms)
    if spec.startswith("file:"):
        paths = [p for p in spec[len("file:") :].split(",") if p]
        if len(paths) != rank:
            raise ConfigError(
                f"field 'source'/'target': expected {rank} permutation files, "
                f"got {len(paths)}"
            )
        try:
            return FiniteAction(_read_permutations(paths, n))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown action spec {spec!r}")


def _build_phi(spec: str, n: int, alphabet: int) -> Observable:
    if spec == "balanced":
        return Observable(np.arange(n, dtype=np.int64) % alphabet, alphabet)
    if spec.startswith("file:"):
        try:
            return _read_labels(spec[len("file:") :], n, alphabet)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown phi spec {spec!r}")


@dataclass(frozen=True)
class ExperimentResult:
    config: PipelineConfig
    reports: tuple[PipelineReport, ...]
    csv_text: str
    json_text: str
    all_bounds_held: bool


CSV_HEADER = "eps,generator,achieved_error,bound,kechris_distance"


def run_experiment(config: PipelineConfig) -> ExperimentResult:
    """Run the schedule, gather deterministically, return the CSV and JSON texts.

    No file is written: ``orbit-forge pipeline`` writes the texts to
    ``out_csv`` and ``out_json``, which the JSON's ``config`` block records.
    The target action is read only by its statistics, counted once before
    any entry runs; it is released then, so no entry holds it.  Schedule
    entries are independent pure computations; with ``workers > 1`` they
    run on a thread pool, and outputs are gathered in schedule order, so
    reports do not depend on the worker count.
    """
    a = _build_action(config.source, config.n, config.rank, config.seed, 101)
    b = _build_action(config.target, config.n, config.rank, config.seed, 202)
    phi = _build_phi(config.phi, config.n, config.alphabet)
    # every schedule entry reads the statistics of (b, phi) and the cycles
    # of a; building both first leaves workers only reading.  Nothing else
    # reads b, so it goes first, and the cycles of a reuse its memory
    target = _target_side(b, phi)
    del b
    _ = a.cycle_decompositions

    def entry(idx_eps: tuple[int, float]) -> PipelineReport:
        idx, eps = idx_eps
        entry_seed = int(
            np.random.SeedSequence((config.seed, 303, idx)).generate_state(1)[0]
        )
        _, _, report = _oe_approximate(a, phi, eps, config.retries, entry_seed, target)
        return report

    items = list(enumerate(config.eps_schedule))
    if config.workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            reports = tuple(pool.map(entry, items))
    else:
        reports = tuple(entry(item) for item in items)

    lines = [CSV_HEADER]
    for report in reports:
        for g in report.generators:
            lines.append(
                f"{report.eps!r},{g.generator},{g.achieved_error!r},"
                f"{g.bound!r},{report.kechris_distance!r}"
            )
    csv_text = "\n".join(lines) + "\n"
    all_held = all(r.bounds_held() for r in reports)
    json_text = (
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                # workers is an execution knob, not part of the experiment
                # identity: reports stay byte-identical across worker counts
                "config": {k: v for k, v in vars(config).items() if k != "workers"},
                "entries": [asdict(r) for r in reports],
                "all_bounds_held": all_held,
            },
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )
    return ExperimentResult(config, reports, csv_text, json_text, all_held)
