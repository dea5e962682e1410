"""Permutation utilities shared across the library.

Permutations are one-line numpy integer arrays: ``p[x]`` is the image of
point ``x``.  All helpers here are pure and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spaces import _as_int64, _frozen

__all__ = [
    "CycleDecomposition",
    "is_permutation",
    "inverse_permutation",
    "cycle_min_labels",
    "cycle_decomposition",
    "permutation_with_cycle_lengths",
]


@dataclass(frozen=True)
class CycleDecomposition:
    """Cycles of a permutation, ordered by smallest element, as flat arrays.

    ``order`` lists all n points cycle after cycle, each cycle in traversal
    order starting at its smallest point: cycle ``c`` is
    ``order[offsets[c]:offsets[c + 1]]``, and ``cycle_of[x]`` is the index
    of the cycle holding ``x``.  ``cycles`` is the same data as a list of
    read-only views, built on first use.  Lengths weighted by 1/n give the
    finite ergodic decomposition of the uniform measure.
    """

    order: np.ndarray
    offsets: np.ndarray
    cycle_of: np.ndarray

    @property
    def n(self) -> int:
        return int(self.cycle_of.shape[0])

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def cycles(self) -> list[np.ndarray]:
        bounds = self.offsets.tolist()
        return [self.order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def is_permutation(p: np.ndarray) -> bool:
    """True iff ``p`` is a one-line permutation of ``{0..len(p)-1}``.

    Non-integral values, such as ``0.5``, make it false.
    """
    try:
        p = _as_int64(p, "permutation images")
    except ValueError:
        return False
    n = p.shape[0]
    if p.ndim != 1 or n == 0:
        return n == 0 and p.ndim == 1
    if p.min() < 0 or p.max() >= n:
        return False
    return bool(np.bincount(p, minlength=n).max() == 1)


def inverse_permutation(p: np.ndarray) -> np.ndarray:
    """Inverse of a one-line permutation."""
    p = np.asarray(p)
    inv = np.empty_like(p)
    inv[p] = np.arange(p.shape[0], dtype=p.dtype)
    return inv


def cycle_min_labels(p: np.ndarray) -> np.ndarray:
    """Smallest point on each cycle, as a per-point label array.

    Two points get the same label iff they lie on the same cycle of ``p``,
    and the label is the minimum of that cycle.  Pointer doubling: after k
    rounds each point holds the minimum of its next 2^k images.  Doubling
    stops at the first round that changes no label; that is exact, because
    then every label is at most the label 2^k steps ahead, so labels are
    constant along each cycle of ``p^(2^k)``, whose windows cover the cycle.
    O(n log L) for longest cycle L, with no Python-level loop over points.
    """
    p = np.asarray(p)
    n = p.shape[0]
    if n == 0:
        return p.copy()
    labels = np.arange(n, dtype=np.int64)
    jump = p.astype(np.int64, copy=True)
    while True:
        ahead = labels[jump]
        if not (ahead < labels).any():
            return labels
        np.minimum(labels, ahead, out=labels)
        del ahead
        jump = jump[jump]


def cycle_decomposition(t: np.ndarray) -> CycleDecomposition:
    """Cycle decomposition with deterministic ordering and traversal.

    Cycle ids come from the cycle minima.  Each point's position comes from
    list ranking by pointer jumping (Wyllie): every cycle is cut just before
    its minimum, and each point counts its steps to the end of the cut
    cycle.  No Python-level loop over points or cycles.
    """
    t = _as_int64(t, "permutation images")
    if not is_permutation(t):
        raise ValueError("input is not a permutation")
    n = t.shape[0]
    low = cycle_min_labels(t)
    # the last point of a traversal is the one mapping to the cycle minimum;
    # it points at itself, and every other point some steps ahead
    last = t == low
    ahead = np.where(last, np.arange(n), t)
    steps_left = (~last).astype(np.int64)
    del last
    while True:
        further = ahead[ahead]
        if np.array_equal(further, ahead):
            break
        steps_left += steps_left[ahead]
        ahead = further
    del ahead, further
    is_base = low == np.arange(n)
    cycle_of = np.cumsum(is_base)
    cycle_of -= 1
    cycle_of = cycle_of[low]
    del low
    offsets = np.zeros(int(np.count_nonzero(is_base)) + 1, dtype=np.int64)
    np.cumsum(np.bincount(cycle_of, minlength=offsets.shape[0] - 1), out=offsets[1:])
    pos = offsets[1:][cycle_of]
    pos -= 1
    pos -= steps_left
    del steps_left
    order = np.empty(n, dtype=np.int64)
    order[pos] = np.arange(n)
    return CycleDecomposition(_frozen(order), _frozen(offsets), _frozen(cycle_of))


def permutation_with_cycle_lengths(lengths, rng: np.random.Generator) -> np.ndarray:
    """Random permutation whose cycle type is exactly ``lengths``.

    Points are shuffled once and then chained into consecutive cycles of the
    requested lengths; ``sum(lengths)`` is the number of points.
    """
    lengths = np.asarray([int(v) for v in lengths], dtype=np.int64)
    if (lengths < 1).any():
        raise ValueError("cycle lengths must be positive")
    n = int(lengths.sum())
    pts = rng.permutation(n)
    # each shuffled point maps to the next one, the last of a run to its first
    ends = np.cumsum(lengths)
    succ = np.arange(1, n + 1)
    succ[ends - 1] = ends - lengths
    perm = np.empty(n, dtype=np.int64)
    perm[pts] = pts[succ]
    return perm
