"""The three seeded workloads: input generation, the timed call, and checks.

Every workload builds its inputs from the benchmark seed alone and hands
them to the public API of ``orbitforge``.  Calls go through the package
namespace (``of.rewire``, not a name bound at import time) so that the
tracer's wrappers see them.  Checks are explicit ``if`` tests, never
``assert``, so they survive ``python -O``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import orbitforge as of


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one workload: the call's arguments and a digest."""

    n: int
    args: tuple
    digest: str
    # facts about the inputs that the checks compare against
    facts: dict


@dataclass(frozen=True)
class Checked:
    """Outcome of checking one call's output."""

    ok: bool
    reason: str
    digest: str
    bound_use: float


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], Inputs]
    call: Callable[..., Any]
    check: Callable[[Inputs, Any], Checked]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), tag)))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# pipeline_random: run_experiment on the acceptance criterion-6 shape
# ---------------------------------------------------------------------------

PIPELINE_N = 100_000


def _pipeline_inputs(seed: int) -> Inputs:
    # run_experiment draws its actions from the config seed, so the config
    # is the whole input; the seed is spread so nearby bench seeds differ
    config_seed = int(_rng(seed, 6).integers(0, 2**63 - 1))
    config = of.PipelineConfig(
        n=PIPELINE_N,
        rank=2,
        alphabet=2,
        eps_schedule=(0.1, 0.03, 0.01),
        seed=config_seed,
        retries=5,
        workers=1,
    )
    return Inputs(PIPELINE_N, (config,), _digest(sorted(vars(config).items())), {})


def _pipeline_call(config):
    return of.run_experiment(config)


def _pipeline_check(inputs: Inputs, result) -> Checked:
    digest = _digest(result.json_text, result.csv_text)
    bound_use = max(
        g.achieved_error / g.bound for r in result.reports for g in r.generators
    )
    if not result.all_bounds_held:
        return Checked(False, "a 10|A|eps bound failed", digest, bound_use)
    if not all(r.orbit_equivalent for r in result.reports):
        return Checked(False, "orbits not preserved", digest, bound_use)
    return Checked(True, "", digest, bound_use)


# ---------------------------------------------------------------------------
# rewire_short_cycles: many short ragged cycles, labels balanced per cycle
# ---------------------------------------------------------------------------

REWIRE_N = 200_000
REWIRE_EPS = 0.01


def _balanced_labels(perm: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Two labels, as even as possible on every cycle, in random cycle order.

    On an odd cycle a coin picks which label gets the extra point.
    """
    n = perm.shape[0]
    cycle = of.cycle_min_labels(perm)
    order = np.lexsort((rng.random(n), cycle))
    sorted_cycle = cycle[order]
    first = np.r_[True, sorted_cycle[1:] != sorted_cycle[:-1]]
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    rank = np.arange(n) - starts[group]
    coin = rng.integers(0, 2, size=starts.shape[0])
    labels = np.empty(n, dtype=np.int64)
    labels[order] = (rank + coin[group]) % 2
    return labels


def _rewire_inputs(seed: int) -> Inputs:
    rng = _rng(seed, 2)
    # lengths uniform on 12..40 until they cover REWIRE_N points
    draws = rng.integers(12, 41, size=REWIRE_N // 12 + 1)
    k = int(np.searchsorted(np.cumsum(draws), REWIRE_N)) + 1
    lengths = draws[:k]
    t = of.permutation_with_cycle_lengths(lengths, rng)
    psi = of.Observable(_balanced_labels(t, rng), 2)
    j = of.product_coupling(of.empirical_distribution(psi))
    n = int(t.shape[0])
    return Inputs(
        n,
        (t, psi, j, REWIRE_EPS),
        _digest(t, psi.labels, j.counts, REWIRE_EPS),
        {"cycles": k},
    )


def _rewire_call(t, psi, j, eps):
    return of.rewire(t, psi, j, eps)


def _rewire_check(inputs: Inputs, out) -> Checked:
    t = inputs.args[0]
    t_new, rep = out
    good = np.fromiter((c.good for c in rep.per_cycle), dtype=bool)
    digest = _digest(t_new, good, rep.good_mass, rep.achieved_error, rep.bound)
    bound_use = rep.achieved_error / rep.bound
    if not of.is_permutation(t_new):
        return Checked(False, "output is not a permutation", digest, bound_use)
    if not of.verify_same_orbits(t, t_new):
        return Checked(False, "orbits not preserved", digest, bound_use)
    if not rep.achieved_error <= rep.bound:
        return Checked(False, "9|A|eps bound failed", digest, bound_use)
    if len(rep.per_cycle) != inputs.facts["cycles"]:
        return Checked(False, "cycle count differs from the input", digest, bound_use)
    return Checked(True, "", digest, bound_use)


# ---------------------------------------------------------------------------
# transport_ball_r3: certified partition transport over the radius-3 ball
# ---------------------------------------------------------------------------

TRANSPORT_N = 50_000
TRANSPORT_RADIUS = 3
TRANSPORT_EPS = 0.2
TRANSPOSITIONS = 20


def _transport_inputs(seed: int) -> Inputs:
    rng = _rng(seed, 3)
    n = TRANSPORT_N
    v_perms = np.vstack([rng.permutation(n) for _ in range(2)])
    w_perms = v_perms.copy()
    # w is v with TRANSPOSITIONS disjoint random transpositions in generator 2
    pts = rng.choice(n, size=2 * TRANSPOSITIONS, replace=False)
    x, y = pts[:TRANSPOSITIONS], pts[TRANSPOSITIONS:]
    w_perms[1, x], w_perms[1, y] = v_perms[1, y], v_perms[1, x]
    v = of.FiniteAction.from_perms(v_perms)
    w = of.FiniteAction.from_perms(w_perms)
    p = of.Observable(rng.integers(0, 3, size=n), 3)
    words = of.ball(2, TRANSPORT_RADIUS)
    atoms = of.refine_partition(p, words, v).alphabet_size
    beta = np.arange(atoms, dtype=np.int64)
    return Inputs(
        n,
        (v, w, p, TRANSPORT_RADIUS, beta, TRANSPORT_EPS),
        _digest(v_perms, w_perms, p.labels, TRANSPORT_RADIUS, atoms, TRANSPORT_EPS),
        {"atoms": atoms, "words": len(words)},
    )


def _transport_call(v, w, p, radius, beta, eps):
    return of.ball_transport_certificate(v, w, p, radius, beta, eps)


def _transport_check(inputs: Inputs, cert) -> Checked:
    drifts = [cert.claim2_max_per_word[g] for g in cert.words]
    digest = _digest(
        cert.claim1_max,
        drifts,
        cert.hypothesis_max,
        cert.hypothesis_bound,
        cert.final_discrepancy,
        cert.refinement_atoms,
    )
    bound_use = max(
        d / cert.claim2_bound(g) for g, d in zip(cert.words, drifts) if len(g) >= 1
    )
    if len(cert.words) != inputs.facts["words"]:
        return Checked(False, "ball has the wrong size", digest, bound_use)
    if cert.refinement_atoms != inputs.facts["atoms"]:
        return Checked(False, "refinement atom count changed", digest, bound_use)
    for g, d in zip(cert.words, drifts):
        if not d <= cert.claim2_bound(g):
            return Checked(False, f"claim-2 drift over budget on {g}", digest, bound_use)
    return Checked(True, "", digest, bound_use)


# BENCHMARK.json records why each workload is in the benchmark
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline_random", _pipeline_inputs, _pipeline_call, _pipeline_check),
        Workload("rewire_short_cycles", _rewire_inputs, _rewire_call, _rewire_check),
        Workload(
            "transport_ball_r3", _transport_inputs, _transport_call, _transport_check
        ),
    )
}
