"""Permutation utilities shared across the library.

Permutations are one-line numpy integer arrays: ``p[x]`` is the image of
point ``x``.  All helpers here are pure and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spaces import CertificationError, _as_int64, _as_permutation, _frozen

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
        _as_permutation(p, "p")
    except ValueError:
        return False
    return True


def inverse_permutation(p: np.ndarray) -> np.ndarray:
    """Inverse of a one-line permutation; a non-permutation is refused."""
    return _inverse_permutation(_as_permutation(p, "p"))


def _inverse_permutation(p: np.ndarray) -> np.ndarray:
    """``inverse_permutation`` of an int64 permutation, not checked again."""
    inv = np.empty_like(p)
    inv[p] = np.arange(p.shape[0], dtype=np.int64)
    return inv


# Every _RULER_GAP-th point (x % _RULER_GAP == 0) is a ruler.  A power of
# two, so membership is a bit test; 16 measured fastest at n = 10^5.
_RULER_GAP = 16
# The lockstep walk stops after _WALK_STEPS steps, or once fewer than one
# ruler in _WALK_QUORUM is still out; the points no walker reached become
# nodes of their own.  Each step costs a few numpy calls however few walk.
_WALK_STEPS = 8 * _RULER_GAP
_WALK_QUORUM = 32
# a walked point's node and offset (at most _WALK_STEPS) share one int64
_OFFSET_BITS = 8
# points followed for _RULER_GAP steps to tell short cycles before walking
_PROBES = 64


@dataclass(frozen=True)
class _Nodes:
    """A permutation contracted to nodes, each a run of consecutive images.

    Node ``v`` is followed by node ``succ[v]`` and holds ``size[v]`` points,
    the least of them ``least[v]``.  Point ``x`` lies ``offset[x]`` steps
    after the first point of node ``owner[x]``.  ``owner`` is ``None`` when
    every point is its own node (then ``size`` and ``offset`` are ``None``).
    """

    succ: np.ndarray
    least: np.ndarray
    size: np.ndarray | None = None
    owner: np.ndarray | None = None
    offset: np.ndarray | None = None


def _short_cycles(p: np.ndarray) -> bool:
    """True if most of ``_PROBES`` evenly spaced points have a short cycle.

    On cycles of at most ``_RULER_GAP`` points doubling needs few rounds,
    while the walk would take about as many steps as the cycles are long
    and leave the many cycles that hold no ruler to doubling anyway.
    """
    n = p.shape[0]
    start = np.arange(0, n, max(1, n // _PROBES))
    cur = p[start]
    back = cur == start
    for _ in range(1, _RULER_GAP):
        cur = p[cur]
        back |= cur == start
    return 2 * int(np.count_nonzero(back)) > start.shape[0]


def _contract(p: np.ndarray) -> _Nodes:
    """Contract int64 permutation ``p`` onto its rulers by one lockstep walk.

    Each ruler walks ``p`` until it meets the next ruler, marking every
    point it passes as its own together with its steps from the ruler; the
    walked run is the ruler's node.  Points no walker reached (cycles
    without a ruler, tails of cut walks) are nodes of one point.  When
    ``_short_cycles`` holds, every point is its own node.
    """
    n = p.shape[0]
    if _short_cycles(p):
        return _Nodes(p, np.arange(n, dtype=np.int64))
    low_bits = _RULER_GAP - 1
    m = -(-n // _RULER_GAP)
    walker = np.arange(m, dtype=np.int64)
    stop = np.empty(m, dtype=np.int64)
    size = np.empty(m, dtype=np.int64)
    # a finished walker parks on the sink, which maps to itself; it is no
    # ruler, and writes there land past the points
    sink = n | low_bits
    ext = np.empty(sink + 1, dtype=np.int64)
    ext[:n] = p
    ext[n:] = sink
    tag = walker << _OFFSET_BITS
    code = np.full(sink + 1, -1, dtype=np.int64)
    code[:n:_RULER_GAP] = tag
    least = walker * _RULER_GAP
    cur = p[::_RULER_GAP].copy()
    run_min = least.copy()
    out = m
    step = 1
    while True:
        home = np.flatnonzero((cur & low_bits) == 0)
        if home.shape[0]:
            who = walker[home]
            stop[who] = cur[home]
            size[who] = step
            least[who] = run_min[home]
            cur[home] = sink
            out -= home.shape[0]
            if 2 * out < cur.shape[0]:
                keep = np.flatnonzero(cur != sink)
                walker, cur, run_min = walker[keep], cur[keep], run_min[keep]
                tag = walker << _OFFSET_BITS
        if out * _WALK_QUORUM < m or step > _WALK_STEPS:
            break
        code[cur] = tag + step
        # the sink lies past every point, so parked walkers keep their run_min
        np.minimum(run_min, cur, out=run_min)
        cur = ext[cur]
        step += 1
    del ext
    # a walker cut short stops where it is: that point starts a node
    on = np.flatnonzero(cur != sink)
    who = walker[on]
    stop[who] = cur[on]
    size[who] = step
    least[who] = run_min[on]
    code = code[:n]
    left = np.flatnonzero(code < 0)
    nodes = m + left.shape[0]
    owner = code >> _OFFSET_BITS
    code &= (1 << _OFFSET_BITS) - 1
    code[left] = 0
    owner[left] = np.arange(m, nodes)
    least = np.concatenate([least, left])
    succ = np.concatenate([owner[stop], owner[p[left]]])
    size = np.concatenate([size, np.ones(left.shape[0], dtype=np.int64)])
    return _Nodes(succ, least, size, owner, code)


def _node_minima(succ: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Least ``low`` on each cycle of ``succ``, by pointer doubling in place.

    After k rounds each node holds the least value of its next 2^k nodes.
    Doubling stops at the first round that changes nothing; that is exact,
    because then every value is at most the one 2^k nodes ahead, so values
    are constant along each cycle of ``succ^(2^k)``, whose windows cover the
    cycle.  Past ``k.bit_length() + 2`` rounds on k nodes it raises.
    """
    jump = succ
    for _ in range(succ.shape[0].bit_length() + 2):
        ahead = low[jump]
        if not (ahead < low).any():
            return low
        np.minimum(low, ahead, out=low)
        del ahead
        jump = jump[jump]
    raise CertificationError("cycle minima did not converge")


def cycle_min_labels(p: np.ndarray) -> np.ndarray:
    """Smallest point on each cycle, as a per-point label array.

    Two points get the same label iff they lie on the same cycle of ``p``,
    and the label is the minimum of that cycle.  List contraction with a
    sparse ruling set: one lockstep walk from every 16th point contracts
    the cycles to about n/16 nodes, pointer doubling finds each node's cycle
    minimum, and one gather hands it to the points.  The contraction is the
    one ``cycle_decomposition`` runs; the labels ignore its offsets.  O(n)
    gathers plus O((n/16) log L) for longest cycle L; the Python loop runs
    over the walk's steps (at most 128), not over points.  When most of 64
    sampled points lie on cycles of at most 16 points, doubling runs on the
    points themselves instead, in O(n log L) with L small.

    ``p`` must be a permutation, and only its integrality is checked: the
    non-permutation ``[0, 0, 1]`` gets the labels ``[0, 0, 0]``.
    """
    p = _as_int64(p, "permutation images")
    n = p.shape[0]
    if n == 0:
        return p.copy()
    nodes = _contract(p)
    succ, least, owner = nodes.succ, nodes.least, nodes.owner
    # the offsets go before doubling and the gather allocate
    del nodes
    low = _node_minima(succ, least)
    return low if owner is None else low[owner]


def cycle_decomposition(t: np.ndarray) -> CycleDecomposition:
    """Cycle decomposition with deterministic ordering and traversal.

    One contraction (see ``cycle_min_labels``) gives each point its node and
    its steps from the node's first point.  Doubling gives each node its
    cycle minimum; weighted list ranking (Wyllie) on the nodes, with every
    cycle cut before the node holding its minimum, gives each node its
    distance to the end of the cycle; a point's position is then one
    gather away.  O(n) gathers plus O((n/16) log L), as for the labels.
    """
    return _cycle_decomposition(_as_permutation(t, "input"))


def _cycle_decomposition(t: np.ndarray) -> CycleDecomposition:
    """``cycle_decomposition`` of an int64 permutation, not checked again."""
    n = t.shape[0]
    nodes = _contract(t)
    owner, offset = nodes.owner, nodes.offset
    succ = nodes.succ
    k = succ.shape[0]
    low = _node_minima(succ, nodes.least)
    # the head of a cycle is the node that holds its minimum
    head = low if owner is None else owner[low]
    # sentinel node k: each cycle's last node points there, and each node
    # sums the points from it to the sentinel
    ahead = np.append(succ, k)
    np.copyto(ahead[:k], k, where=succ == head)
    if nodes.size is None:
        dist = np.ones(k + 1, dtype=np.int64)
    else:
        dist = np.append(nodes.size, 0)
    dist[k] = 0
    del succ, nodes
    # each node meets the sentinel within k steps; a headless cycle never
    for _ in range(k.bit_length() + 2):
        further = ahead[ahead]
        if np.array_equal(further, ahead):
            break
        dist += dist[ahead]
        ahead = further
    else:
        raise CertificationError("cycle ranking did not converge: a cycle has no head")
    del ahead, further
    dist = dist[:k]
    heads = np.flatnonzero(head == np.arange(k))
    if owner is not None:
        heads = heads[np.argsort(low[heads])]
        # the minimum sits lead steps into its head; the points of a head
        # before it wrap round to the end of the cycle
        lead = offset[low]
        cut = np.zeros(k, dtype=np.int64)
        cut[heads] = lead[heads]
    cyc = np.empty(k, dtype=np.int64)
    cyc[heads] = np.arange(heads.shape[0])
    lengths = dist[heads]
    del heads
    offsets = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    del lengths
    cyc = cyc[head]
    del head, low
    # a node's first point sits dist points before its cycle's end
    start = offsets[1:][cyc]
    start -= dist
    del dist
    if owner is None:
        cycle_of, pos = cyc, start
    else:
        start -= lead
        del lead
        # the per-point gathers share one buffer, which ends as cycle_of;
        # take buffers its output unless told to clip, which these valid
        # indices never need
        cycle_of = np.empty(n, dtype=np.int64)
        np.take(cut, owner, out=cycle_of, mode="clip")
        wrap = np.flatnonzero(offset < cycle_of)
        del cut
        np.take(start, owner, out=cycle_of, mode="clip")
        del start
        pos = offset
        pos += cycle_of
        np.take(cyc, owner, out=cycle_of, mode="clip")
        del owner, offset, cyc
        pos[wrap] += np.diff(offsets)[cycle_of[wrap]]
    order = np.empty(n, dtype=np.int64)
    order[pos] = np.arange(n)
    return CycleDecomposition(_frozen(order), _frozen(offsets), _frozen(cycle_of))


def permutation_with_cycle_lengths(lengths, rng: np.random.Generator) -> np.ndarray:
    """Random permutation whose cycle type is exactly ``lengths``.

    Points are shuffled once and then chained into consecutive cycles of the
    requested lengths; ``sum(lengths)`` is the number of points.
    """
    lengths = _as_int64(lengths, "cycle lengths")
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
