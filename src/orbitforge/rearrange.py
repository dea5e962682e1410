"""Rearranging a labeled interval into a line with prescribed pair statistics.

Given labels ``phi`` on ``{0..N-1}`` and a target self-coupling ``J`` of the
label distribution, the pipeline produces a bijection
``sigma: {0..N-2} -> {1..N-1}`` whose pair graph is a single line from 0 to
N-1 and whose empirical pair distribution lands within
``2*|A|*eps + 3*|A|^2/N`` of ``J`` in sup norm, provided the empirical label
distribution sits within ``eps`` of the margins of ``J`` and ``J`` has
minimum entry above ``2*|A|*eps + |A|^2/N``.

Stages (each deterministic, each with its own certified drift):

1. ``round_coupling`` - snap ``J`` to exact counts over N with exact margins;
2. ``build_tau``      - realize the counts as a bijection via blockwise matching;
3. merge              - swap edge images inside label cells until the pair
                        graph has at most ``|A|^2`` components (pair counts
                        are preserved exactly);
4. close              - cyclically re-route one representative edge per
                        component, producing a single line.

The stages run on a segmented input: B labeled lines laid back to back,
with one per-point segment index and counts keyed by (segment, label pair).
A component is named by its least point; the merge returns the minima that
survive and the close chains them.  ``rewire`` rearranges all of its good
cycles in one such pass; ``rearrange_line`` is the case B = 1, and
``_merge`` and ``_close`` run stages 3 and 4 alone on one line.  All but
the merge loop over candidate edges is vectorized; the build and merge
stages rank their points through ``_stable_order``.  One line of N = 10^6
points with two labels takes about 0.15 s on one core of a 2-core x86 host
(numpy 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .permutations import cycle_min_labels
from .spaces import (
    _PACK_LIMIT,
    CertificationError,
    Coupling,
    Dist,
    Observable,
    _as_int64,
    _as_permutation,
    _frozen,
    _margin_gap,
    _pair_coupling,
    empirical_distribution,
    linf,
)

__all__ = [
    "PreconditionError",
    "LineBijection",
    "RearrangeReport",
    "round_coupling",
    "build_tau",
    "rearrange_line",
]


class PreconditionError(ValueError):
    """A quantitative hypothesis failed; the message names the bound."""


@dataclass(frozen=True)
class LineBijection:
    """Bijection ``{0..n-2} -> {1..n-1}`` with pair graph edges (i, sigma[i]).

    Vertex 0 has no incoming edge and vertex n-1 no outgoing one; the graph
    is a disjoint union of one path from 0 to n-1 and cycles.  Connected
    instances are exactly the Hamiltonian orderings of the points.
    """

    n: int
    sigma: np.ndarray

    def __post_init__(self):
        sigma = _as_int64(self.sigma, "line images")
        if self.n < 1 or sigma.shape != (self.n - 1,):
            raise ValueError("sigma must list n-1 images")
        _as_permutation(np.append(sigma, 0), "closed line")
        object.__setattr__(self, "sigma", _frozen(sigma))

    def is_connected(self) -> bool:
        return _line_minima(np.append(self.sigma, 0)).shape[0] == 1


@dataclass(frozen=True)
class RearrangeReport:
    """Outcome of one rearrangement: achieved sup-norm error vs. its budget."""

    achieved_error: float
    bound: float
    components_after_merge: int
    edges_changed_by_close: int


def _line_minima(ext: np.ndarray) -> np.ndarray:
    # the components of a closed line ext, each named by its least point
    return np.flatnonzero(cycle_min_labels(ext) == np.arange(ext.shape[0]))


def _require_eps(eps: float) -> None:
    # check=False waives hypotheses, not input validity: a negative or NaN
    # eps would certify a negative or NaN bound
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, not {eps!r}")


def _repair_nonnegative(counts: np.ndarray) -> np.ndarray:
    """Clear negative cells by margin-preserving 2x2 rotations.

    Row and column sums are nonnegative, so a row or column holding a
    negative cell always holds a positive donor; every rotation reduces
    total negativity by at least one count, so past the starting negativity
    it raises ``CertificationError``.  Only reachable when the rounding
    preconditions were waived.
    """
    for _ in range(int(-counts[counts < 0].sum()) + 1):
        neg = np.argwhere(counts < 0)
        if neg.size == 0:
            return counts
        r, c = int(neg[0][0]), int(neg[0][1])
        row_donors = np.flatnonzero(counts[r] > 0)
        col_donors = np.flatnonzero(counts[:, c] > 0)
        cc, rr = int(row_donors[0]), int(col_donors[0])
        delta = int(min(-counts[r, c], counts[r, cc], counts[rr, c]))
        counts[r, c] += delta
        counts[r, cc] -= delta
        counts[rr, c] -= delta
        counts[rr, cc] += delta
    raise CertificationError("negative rounded counts survived their rotations")


# ---------------------------------------------------------------------------
# segmented stages
#
# B lines are laid out back to back: segment s owns the flat points
# offsets[s] .. offsets[s+1]-1, in its own order, and seg[x] is the segment
# of point x.  A line is held closed, as the permutation ``ext`` with the
# missing edge from its last point back to its first, so its components are
# exactly the cycles of ``ext``.  The public single-line stages are B = 1.
# ---------------------------------------------------------------------------


def _round_counts(j: Coupling, pi: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Stage 1 on B segments: ``(B, |A|, |A|)`` rounded counts of ``j``.

    Segment ``s`` has ``lengths[s]`` points with label counts ``pi[s]``,
    which become both margins of its counts exactly.
    """
    counts = np.ceil(j.real[None] * lengths[:, None, None] - 0.5).astype(np.int64)
    counts[:, 0, 1:] = pi[:, 1:] - counts[:, 1:, 1:].sum(axis=1)
    counts[:, 1:, 0] = pi[:, 1:] - counts[:, 1:, 1:].sum(axis=2)
    counts[:, 0, 0] = pi[:, 0] - counts[:, 0, 1:].sum(axis=1)
    for s in np.flatnonzero((counts < 0).any(axis=(1, 2))):
        _repair_nonnegative(counts[s])
    return counts


def round_coupling(
    j: Coupling, pi_prime: Dist, eps: float, *, check: bool = True
) -> Coupling:
    """Snap a coupling to exact counts over N with margins exactly ``pi_prime``.

    Entries away from the distinguished symbol 0 are rounded to the nearest
    multiple of 1/N (ties toward the smaller value); the distinguished row
    and column absorb the margin defects.  Under the stated preconditions
    every entry stays nonnegative and the sup-norm drift is below
    ``2*|A|*eps + |A|^2/N``.
    """
    a = j.alphabet_size
    if pi_prime.alphabet_size != a:
        raise ValueError("alphabet mismatch between coupling and margins")
    n = pi_prime.denom
    _require_eps(eps)
    if check:
        gap = float(_margin_gap(j, pi_prime.real))
        if not gap < eps:
            raise PreconditionError(
                f"margin distance {gap:.6g} is not below eps={eps:.6g}"
            )
        need = 2 * a * eps + a * a / n
        jmin = float(j.real.min())
        if not jmin > need:
            raise PreconditionError(
                f"min coupling entry {jmin:.6g} is not above "
                f"2|A|eps + |A|^2/N = {need:.6g}"
            )
    counts = _round_counts(j, pi_prime.counts[None], np.array([n]))
    return Coupling.from_counts(counts[0], n)


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """The stable sort order of int64 ``keys``, each in ``[-bound, bound)``.

    ``keys`` holds the codes ``key·2^s + index`` (``2^s`` above every index;
    a negative key keeps its low ``s`` bits clear) for one unstable sort and
    is shifted back, so it ends sorted.  The one guard of the line stages:
    a ``bound·2^s`` above ``_PACK_LIMIT`` is refused before ``keys`` changes.
    """
    shift = (keys.shape[0] - 1).bit_length()
    if bound << shift > _PACK_LIMIT:
        raise ValueError(f"{bound} keys on {keys.shape[0]} points overflow int64 codes")
    keys <<= shift
    keys |= np.arange(keys.shape[0])
    keys.sort()
    order = keys & ((1 << shift) - 1)
    keys >>= shift
    return order


def _build_lines(
    labels: np.ndarray, seg: np.ndarray, offsets: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Stage 2 on B segments: realize each segment's counts as a closed line.

    ``seg`` is the segment of each flat point; both margins of
    ``counts[s]`` must equal the label counts of segment ``s``.
    """
    b, a, _ = counts.shape
    m = labels.shape[0]
    # points ranked by segment, label and point; the keys stay below B·|A|
    by_label = _stable_order(seg * a + labels, b * a)
    # flat start of the (segment, label) run in by_label
    sizes = counts.sum(axis=1).ravel()
    group_start = (np.cumsum(sizes) - sizes).reshape(b, a)
    # cell (s, r, c): its sources are the next counts[s, r, c] label-r points
    # of s; its targets sit among the label-c points, after the cells (r', c)
    # with r' < r
    target = (group_start[:, None, :] + np.cumsum(counts, axis=1) - counts).ravel()
    size = counts.ravel()
    source = np.cumsum(size) - size
    # each source takes the target after its own, the last the first
    slot = np.repeat(target - source + 1, size)
    slot += np.arange(m)
    full = size > 0
    slot[(source + size - 1)[full]] = target[full]
    beta = np.empty(m, dtype=np.int64)
    beta[by_label] = by_label[slot]
    del slot
    # close the line: the preimage of the first point takes the image of the
    # last, and the last maps to the first.  The first point of a segment
    # heads its label run, so the first nonempty cell into that label sends
    # its last source there.
    first, last = offsets[:-1], offsets[1:] - 1
    segs = np.arange(b)
    c = labels[first]
    r = np.argmax(counts[segs, :, c] > 0, axis=1)
    cell = (segs * a + r) * a + c
    to_first = by_label[source[cell] + size[cell] - 1]
    beta[to_first] = beta[last]
    beta[last] = first
    return beta


def _merge_cycles(perm: np.ndarray, pairs: np.ndarray, seg: np.ndarray):
    """Join cycles of ``perm`` by image swaps inside buckets.

    A bucket is the points of one segment (``seg`` names it, and no cycle
    leaves it) with one pair code; points with a negative code keep their
    image.  In each bucket, in increasing (segment, code) order, the
    smallest point of every cycle present is a candidate; the smallest
    candidate is the anchor, and each later one swaps images with it if
    their cycles are still apart, which joins them.  Works in place on
    ``perm``.  Returns the minima of its cycles after merging, in increasing
    order, read off the union-find: a joined cycle keeps the least minimum
    of its parts.
    """
    n = perm.shape[0]
    radix = int(pairs.max(initial=-1)) + 1
    comp = cycle_min_labels(perm)
    # a cycle minimum names its segment, so the key pair·n + minimum ranks
    # the points of each (bucket, cycle) together; the segment ends carry
    # pair -1, so the keys lie in [-n, radix·n)
    rank = pairs * n + comp
    order = _stable_order(rank, max(radix, 1) * n)
    # the first point of each (bucket, cycle) run is its least
    head = rank >= 0
    head[1:] &= rank[1:] != rank[:-1]
    points = order[head]
    del rank, order
    # bucket keys segment·radix + pair stay below n·radix
    key = seg[points] * radix + pairs[points]
    # buckets that meet at least two cycles (the minima, so the segments,
    # ascend within one pair), candidates by point: the codes key·n + point
    # stay below radix·n², inside the bound _stable_order checked
    head = np.ones(key.shape[0], dtype=bool)
    head[1:] = key[1:] != key[:-1]
    bucket = np.cumsum(head) - 1
    keep = np.bincount(bucket)[bucket] >= 2
    key, points = key[keep], points[keep]
    order = np.argsort(key * n + points)
    key, points = key[order], points[order]
    anchors = np.ones(key.shape[0], dtype=bool)
    anchors[1:] = key[1:] != key[:-1]
    # union-find over the cycles, numbered by minimum; each class is rooted
    # at its least number, so at the least minimum of its parts
    minima = np.flatnonzero(comp == np.arange(n))
    cyc = np.searchsorted(minima, comp[points])
    del comp
    parent = list(range(minima.shape[0]))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    anchor = anchor_root = 0
    for x, c, is_anchor in zip(points.tolist(), cyc.tolist(), anchors.tolist()):
        root = find(c)
        if is_anchor:
            anchor, anchor_root = x, root
        elif root != anchor_root:
            perm[anchor], perm[x] = perm[x], perm[anchor]
            if root < anchor_root:
                root, anchor_root = anchor_root, root
            parent[root] = anchor_root
    # a cycle still its own root was absorbed by none
    return minima[np.array(parent, dtype=np.int64) == np.arange(minima.shape[0])]


def _close_cycles(perm: np.ndarray, seg: np.ndarray, reps: np.ndarray):
    """Chain the cycles of each segment into one through their minima.

    ``reps`` are the minima of the cycles of ``perm`` in increasing order,
    as ``_merge_cycles`` returns them.  The minima of a segment take each
    other's images cyclically.  Works in place on ``perm`` and returns it.
    """
    seg = seg[reps]
    # the next minimum of the same segment; the last one wraps to the first
    nxt = np.arange(1, reps.shape[0] + 1)
    is_tail = np.ones(reps.shape[0], dtype=bool)
    is_tail[:-1] = seg[1:] != seg[:-1]
    nxt[is_tail] = np.flatnonzero(np.roll(is_tail, 1))
    perm[reps] = perm[reps[nxt]]
    return perm


def _rearrange_lines(
    labels: np.ndarray, offsets: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Build, merge and close B labeled segments against rounded counts.

    Returns the closed lines (flat point -> flat point) and the minima of
    the components after merging, one per component.  Images are checked
    to stay inside their segment and to close each line; injectivity is
    checked by the callers, where they hand the result out.
    """
    b, a, _ = counts.shape
    seg = np.repeat(np.arange(b), np.diff(offsets))
    ext = _build_lines(labels, seg, offsets, counts)
    # merge buckets: (segment, label pair) of each edge; the last point of
    # a segment has no edge
    pairs = labels * a
    pairs += labels[ext]
    pairs[offsets[1:] - 1] = -1
    del labels
    reps = _merge_cycles(ext, pairs, seg)
    del pairs
    ext = _close_cycles(ext, seg, reps)
    if not (
        np.array_equal(seg[ext], seg)
        and np.array_equal(ext[offsets[1:] - 1], offsets[:-1])
    ):
        raise ValueError("rearranged lines are not bijections onto their segments")
    return ext, reps


def build_tau(phi: Observable, j_prime: Coupling) -> np.ndarray:
    """Realize exact pair counts as a bijection ``{0..N-2} -> {1..N-1}``.

    Points of each label are split, in ascending order, into source blocks
    (by target label) and target blocks (by source label) of sizes
    ``N*J'(a,b)``; matching each source block to its target block rotated by
    one gives a permutation beta of all N points (the rotation makes, e.g.,
    constant labels produce the consecutive line directly).  Dropping the
    outgoing edge of N-1 and re-routing the preimage of 0 to beta(N-1)
    perturbs at most one edge and yields the bijection, so its pair
    distribution sits within ``2/(N-1)`` of ``J'``.
    """
    n = phi.n
    if not j_prime.is_exact or j_prime.denom != n:
        raise ValueError("need an exact coupling with denominator N")
    counts = j_prime.counts
    sizes = phi.atom_sizes()
    if not (
        np.array_equal(counts.sum(axis=1), sizes)
        and np.array_equal(counts.sum(axis=0), sizes)
    ):
        raise PreconditionError("coupling margins must equal the label counts")
    ext = _build_lines(
        phi.labels, np.zeros(n, dtype=np.int64), np.array([0, n]), counts[None]
    )
    return ext[: n - 1]


def _merge(phi_labels: np.ndarray, a: int, tau: np.ndarray):
    """Merge stage on one line: ``(tau*, components after merge)``.

    Edges with the same label pair swap images against the smallest edge of
    their bucket, so pair counts are kept and at most ``|A|^2`` components
    remain.
    """
    m = tau.shape[0]
    ext = np.append(_as_int64(tau, "line images"), 0)
    pairs = phi_labels[: m + 1] * a
    pairs += phi_labels[ext]
    pairs[m] = -1
    reps = _merge_cycles(ext, pairs, np.zeros(m + 1, dtype=np.int64))
    return ext[:m], int(reps.shape[0])


def _close(tau: np.ndarray):
    """Close stage on one line: ``(sigma, components, edges changed)``.

    The smallest out-edge vertex of each component shifts its image
    cyclically, chaining the components into one path from 0 to N-1.
    """
    m = tau.shape[0]
    ext = np.append(_as_int64(tau, "line images"), 0)
    reps = _line_minima(ext)
    sigma = _close_cycles(ext, np.zeros(m + 1, dtype=np.int64), reps)
    k = int(reps.shape[0])
    return sigma[:m], k, (k if k > 1 else 0)


def rearrange_line(
    phi: Observable, j: Coupling, eps: float, *, check: bool = True
) -> tuple[LineBijection, RearrangeReport]:
    """Full pipeline: round, realize, merge, close; certified sup-norm error.

    Deterministic in all inputs.  With ``check=False`` the quantitative
    preconditions are waived: the stages still produce a connected line, but
    the reported bound is no longer guaranteed to hold.
    """
    n = phi.n
    if n < 2:
        raise PreconditionError("need at least two points to build a line")
    a = j.alphabet_size
    if phi.alphabet_size != a:
        raise ValueError("alphabet mismatch between labels and coupling")
    pi_prime = empirical_distribution(phi)
    j_rounded = round_coupling(j, pi_prime, eps, check=check)
    ext, reps = _rearrange_lines(phi.labels, np.array([0, n]), j_rounded.counts[None])
    k = int(reps.shape[0])
    sigma = LineBijection(n, ext[: n - 1])
    achieved = linf(_pair_coupling(phi.labels[: n - 1], phi.labels[sigma.sigma], a), j)
    bound = 2 * a * eps + 3 * a * a / n
    return sigma, RearrangeReport(achieved, bound, k, k if k > 1 else 0)
