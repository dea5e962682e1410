"""Permutation utilities shared across the library.

Permutations are one-line numpy integer arrays: ``p[x]`` is the image of
point ``x``.  All helpers here are pure and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_permutation",
    "inverse_permutation",
    "cycle_min_labels",
    "permutation_with_cycle_lengths",
]


def is_permutation(p: np.ndarray) -> bool:
    """True iff ``p`` is a one-line permutation of ``{0..len(p)-1}``."""
    p = np.asarray(p)
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
