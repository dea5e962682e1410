"""Every input check refuses its input with its own message.

Each row calls one entry point with an input its check exists for: a size
or alphabet that does not match, an empty or out-of-range count, an unknown
spec.  The message must be the check's own, whole, so a row fails when an
earlier check, or none, catches the input instead.  The out-of-range index
checks have their table, ``OUT_OF_RANGE_INPUTS``, in ``test_spaces.py``.
"""

import re

import numpy as np
import pytest

from orbitforge import (
    ConfigError,
    Coupling,
    Dist,
    FiniteAction,
    Observable,
    PipelineConfig,
    PreconditionError,
    ReducedWord,
    ball,
    ball_transport_certificate,
    build_tau,
    empirical_pair_distribution,
    good_observable,
    joint_pair_distribution,
    linf,
    mixture_coupling,
    permutation_with_cycle_lengths,
    rearrange_line,
    refine_partition,
    rewire,
    round_coupling,
    run_experiment,
    verify_oe,
    verify_same_orbits,
)
from orbitforge import freegroup, pipeline

_CYCLE4 = np.array([1, 2, 3, 0])
_V4 = FiniteAction.from_perms([_CYCLE4])
_RANK2 = FiniteAction.from_perms([_CYCLE4, _CYCLE4])
_P4 = Observable([0, 0, 1, 1], 2)
_PI2 = Dist([2, 2], 4)
_J2 = Coupling.from_counts([[1, 1], [1, 1]], 4)
_ONE_POINT = Observable([0], 1)
_RUN = dict(n=4, rank=1, alphabet=2, eps_schedule=(0.1,), seed=0)


def _config(**changed) -> PipelineConfig:
    return PipelineConfig(**{**_RUN, **changed})


INPUT_CHECKS = {
    # freegroup
    "ReducedWord(0)": (
        lambda: ReducedWord((0,)),
        ValueError,
        "letters are nonzero signed indices",
    ),
    "reduce_word(0)": (
        lambda: freegroup._reduce_word([1, 0]),
        ValueError,
        "letters are nonzero signed indices",
    ),
    "ball(rank 0)": (lambda: ball(0, 1), ValueError, "need at least one generator"),
    "ball(radius -1)": (lambda: ball(1, -1), ValueError, "radius must be nonnegative"),
    "FiniteAction(1-d)": (
        lambda: FiniteAction(_CYCLE4),
        ValueError,
        "perms must be a (rank, n) array",
    ),
    "FiniteAction(no point)": (
        lambda: FiniteAction(np.zeros((1, 0), dtype=np.int64)),
        ValueError,
        "an action needs at least one point",
    ),
    "refine_partition(no word)": (
        lambda: refine_partition(_P4, [], _V4),
        ValueError,
        "need at least one word",
    ),
    # permutations
    "permutation_with_cycle_lengths(0)": (
        lambda: permutation_with_cycle_lengths([2, 0], np.random.default_rng(0)),
        ValueError,
        "cycle lengths must be positive",
    ),
    # pipeline
    "good_observable(no attempt)": (
        lambda: good_observable(_V4, _PI2, 0.05, 0, seed=0),
        ValueError,
        "need at least one attempt",
    ),
    "_oe_approximate(eps 0.2)": (
        lambda: pipeline._oe_approximate(_V4, _P4, 0.2, 5, 0, None),
        PreconditionError,
        "eps=0.2 is not below 1/6",
    ),
    "verify_oe(ranks)": (
        lambda: verify_oe(_V4, _RANK2),
        ValueError,
        "actions must share rank and space size",
    ),
    "PipelineConfig(n 0)": (
        lambda: _config(n=0),
        ValueError,
        "n must be at least 1",
    ),
    "PipelineConfig(rank 0)": (
        lambda: _config(rank=0),
        ValueError,
        "rank must be at least 1",
    ),
    "PipelineConfig(alphabet 0)": (
        lambda: _config(alphabet=0),
        ValueError,
        "alphabet must be at least 1",
    ),
    "PipelineConfig(retries 0)": (
        lambda: _config(retries=0),
        ValueError,
        "retries must be at least 1",
    ),
    "PipelineConfig(workers 0)": (
        lambda: _config(workers=0),
        ValueError,
        "workers must be at least 1",
    ),
    "PipelineConfig(eps 0.2)": (
        lambda: _config(eps_schedule=(0.1, 0.2)),
        ValueError,
        "eps=0.2 outside (0, 1/6)",
    ),
    "run_experiment(one file, rank 2)": (
        lambda: run_experiment(_config(rank=2, source="file:one.txt")),
        ConfigError,
        "field 'source'/'target': expected 2 permutation files, got 1",
    ),
    "run_experiment(action spec)": (
        lambda: run_experiment(_config(target="cycles")),
        ConfigError,
        "unknown action spec 'cycles'",
    ),
    "run_experiment(phi spec)": (
        lambda: run_experiment(_config(phi="uniform")),
        ConfigError,
        "unknown phi spec 'uniform'",
    ),
    # rearrange
    "round_coupling(alphabets)": (
        lambda: round_coupling(_J2, Dist([1, 1, 2], 4), 0.05),
        ValueError,
        "alphabet mismatch between coupling and margins",
    ),
    "build_tau(real coupling)": (
        lambda: build_tau(_P4, Coupling.from_probs(np.full((2, 2), 0.25))),
        ValueError,
        "need an exact coupling with denominator N",
    ),
    "rearrange_line(alphabets)": (
        lambda: rearrange_line(Observable([0, 1, 2, 0], 3), _J2, 0.05),
        ValueError,
        "alphabet mismatch between labels and coupling",
    ),
    # rewire
    "rewire(sizes)": (
        lambda: rewire(_CYCLE4, Observable([0, 1, 0], 2), _J2, 0.05),
        ValueError,
        "observable size does not match the permutation",
    ),
    "rewire(alphabets)": (
        lambda: rewire(_CYCLE4, Observable([0, 1, 2, 0], 3), _J2, 0.05),
        ValueError,
        "alphabet mismatch between labels and coupling",
    ),
    "verify_same_orbits(sizes)": (
        lambda: verify_same_orbits([1, 0], [1, 2, 0]),
        ValueError,
        "permutations must act on the same space",
    ),
    # spaces
    "Observable(2-d)": (
        lambda: Observable([[0, 1]], 2),
        ValueError,
        "labels must be a 1-d array",
    ),
    "Observable(no symbol)": (
        lambda: Observable([0], 0),
        ValueError,
        "alphabet must have at least one symbol",
    ),
    "Dist(no count)": (
        lambda: Dist(np.array([], dtype=np.int64), 1),
        ValueError,
        "counts must be a nonempty 1-d array",
    ),
    "Dist(denominator 0)": (
        lambda: Dist([1], 0),
        ValueError,
        "denominator must be positive",
    ),
    "Coupling.from_counts(denominator 0)": (
        lambda: Coupling.from_counts([[1]], 0),
        ValueError,
        "denominator must be positive",
    ),
    "Coupling.from_counts(sum)": (
        lambda: Coupling.from_counts([[1, 0], [0, 0]], 2),
        ValueError,
        "counts must sum to the denominator",
    ),
    "joint_pair_distribution(sizes)": (
        lambda: joint_pair_distribution(_P4, [1, 2, 0]),
        ValueError,
        "permutation size does not match observable",
    ),
    "empirical_pair_distribution(sizes)": (
        lambda: empirical_pair_distribution(_P4, [1]),
        ValueError,
        "line bijection size does not match observable",
    ),
    "empirical_pair_distribution(one point)": (
        lambda: empirical_pair_distribution(_ONE_POINT, []),
        ValueError,
        "need at least two points for a pair distribution",
    ),
    "linf(shapes)": (
        lambda: linf(_PI2, Dist([1, 1, 1], 3)),
        ValueError,
        "shape mismatch",
    ),
    "mixture_coupling(weight 1.5)": (
        lambda: mixture_coupling(_J2, 1.5, _PI2),
        ValueError,
        "mixture weight must lie in [0, 1]",
    ),
    "mixture_coupling(alphabets)": (
        lambda: mixture_coupling(_J2, 0.1, Dist([1, 1, 1], 3)),
        ValueError,
        "coupling margins do not match the mixing distribution",
    ),
    # weak
    "ball_transport_certificate(image partition size)": (
        lambda: ball_transport_certificate(
            _V4, _V4, _P4, 1, Observable([0, 0, 0], 1), 0.1
        ),
        ValueError,
        "beta is not a bijection on the refinement atoms",
    ),
    "ball_transport_certificate(beta length)": (
        # at most 4 refinement atoms on 4 points
        lambda: ball_transport_certificate(_V4, _V4, _P4, 1, np.arange(5), 0.1),
        ValueError,
        "beta is not a bijection on the refinement atoms",
    ),
    "ball_transport_certificate(ranks)": (
        lambda: ball_transport_certificate(_V4, _RANK2, _P4, 1, np.arange(2), 0.1),
        ValueError,
        "actions must share rank and space",
    ),
}


@pytest.mark.parametrize("entry", sorted(INPUT_CHECKS))
def test_input_check_refuses_with_its_message(entry):
    call, error, message = INPUT_CHECKS[entry]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
