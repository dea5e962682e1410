"""Frozen copy of the per-cycle rewiring path, kept as a test oracle.

This is the implementation that ``rewire`` replaced: a Python loop that
decomposes a permutation into cycles point by point, and a loop over good
cycles that runs the single-line rearrangement once per cycle.  The
differential tests require the segmented implementation to reproduce its
outputs byte for byte.  Do not edit it to follow the library.

The word-ball section at the end is the evaluate-based statistics path that
the translated-label tables replaced: every ball word is rebuilt letter by
letter, and ``refine_partition`` sorts the full ``(n, |words|)`` signature
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from orbitforge.freegroup import FiniteAction, ReducedWord, ball
from orbitforge.permutations import inverse_permutation, is_permutation
from orbitforge.rearrange import LineBijection, PreconditionError, RearrangeReport
from orbitforge.rewire import RewireReport
from orbitforge.weak import TransportCertificate
from orbitforge.spaces import (
    Coupling,
    Dist,
    Observable,
    empirical_distribution,
    empirical_pair_distribution,
    joint_pair_distribution,
    linf,
)


@dataclass(frozen=True)
class CycleDecomposition:
    cycles: list[np.ndarray]
    cycle_of: np.ndarray

    @property
    def n(self) -> int:
        return int(self.cycle_of.shape[0])

    def lengths(self) -> np.ndarray:
        return np.array([c.shape[0] for c in self.cycles], dtype=np.int64)


def cycle_min_labels(p: np.ndarray) -> np.ndarray:
    """Smallest point on each cycle, as a per-point label array.

    Two points get the same label iff they lie on the same cycle of ``p``,
    and the label is the minimum of that cycle.  Runs in O(n log n) via
    pointer doubling, with no Python-level loop over points.
    """
    p = np.asarray(p)
    n = p.shape[0]
    if n == 0:
        return p.copy()
    labels = np.arange(n, dtype=np.int64)
    jump = p.astype(np.int64, copy=True)
    # after k rounds each point has seen 2^k successive images
    rounds = max(1, int(np.ceil(np.log2(n))) if n > 1 else 1)
    for _ in range(rounds):
        labels = np.minimum(labels, labels[jump])
        jump = jump[jump]
    return labels


def permutation_with_cycle_lengths(lengths, rng: np.random.Generator) -> np.ndarray:
    """Random permutation whose cycle type is exactly ``lengths``.

    Points are shuffled once and then chained into consecutive cycles of the
    requested lengths; ``sum(lengths)`` is the number of points.
    """
    lengths = [int(v) for v in lengths]
    if any(v < 1 for v in lengths):
        raise ValueError("cycle lengths must be positive")
    n = sum(lengths)
    pts = rng.permutation(n)
    perm = np.empty(n, dtype=np.int64)
    start = 0
    for length in lengths:
        block = pts[start : start + length]
        perm[block] = np.roll(block, -1)
        start += length
    return perm


def _line_components(tau: np.ndarray) -> np.ndarray:
    # closing the missing edge (n-1 -> 0) turns the pair graph into a
    # permutation whose cycles are exactly the components
    ext = np.append(np.asarray(tau, dtype=np.int64), 0)
    return cycle_min_labels(ext)



def _margin_gap(j: Coupling, pi: Dist) -> float:
    target = pi.real
    return float(
        max(
            np.max(np.abs(j.row_margin() - target)),
            np.max(np.abs(j.col_margin() - target)),
        )
    )


def _repair_nonnegative(counts: np.ndarray) -> np.ndarray:
    """Clear negative cells by margin-preserving 2x2 rotations.

    Row and column sums are nonnegative, so a row or column holding a
    negative cell always holds a positive donor; every rotation reduces
    total negativity by at least one count, so the loop terminates.  Only
    reachable when the rounding preconditions were waived.
    """
    while True:
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
    if check:
        gap = _margin_gap(j, pi_prime)
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
    pi = pi_prime.counts.astype(np.int64)
    if a == 1:
        return Coupling.from_counts(np.array([[n]], dtype=np.int64), n)
    counts = np.ceil(j.real * n - 0.5).astype(np.int64)
    counts[0, 1:] = pi[1:] - counts[1:, 1:].sum(axis=0)
    counts[1:, 0] = pi[1:] - counts[1:, 1:].sum(axis=1)
    counts[0, 0] = pi[0] - counts[0, 1:].sum()
    counts = _repair_nonnegative(counts)
    return Coupling.from_counts(counts, n)


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
    a = phi.alphabet_size
    if not j_prime.is_exact or j_prime.denom != n:
        raise ValueError("need an exact coupling with denominator N")
    counts = j_prime.counts
    sizes = phi.atom_sizes()
    if not (
        np.array_equal(counts.sum(axis=1), sizes)
        and np.array_equal(counts.sum(axis=0), sizes)
    ):
        raise PreconditionError("coupling margins must equal the label counts")
    by_label = np.argsort(phi.labels, kind="stable")
    block_start = np.concatenate(([0], np.cumsum(sizes)))
    # target block of cell (a,b) sits inside label-b points, after the cells
    # (a', b) with a' < a
    col_offsets = block_start[:-1][None, :] + np.vstack(
        (np.zeros(a, dtype=np.int64), np.cumsum(counts, axis=0)[:-1])
    )
    pieces = [
        np.roll(by_label[col_offsets[r, c] : col_offsets[r, c] + counts[r, c]], -1)
        for r in range(a)
        for c in range(a)
    ]
    target = np.concatenate(pieces) if pieces else by_label[:0]
    beta = np.empty(n, dtype=np.int64)
    beta[by_label] = target
    if n == 1:
        return beta[:0]
    tau = beta[: n - 1].copy()
    i0 = int(np.flatnonzero(beta == 0)[0])
    if i0 != n - 1:
        tau[i0] = beta[n - 1]
    return tau


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p.get(root, root) != root:
            root = p[root]
        while p.get(x, x) != x:
            p[x], x = root, p[x]
        return root

    def union(self, x: int, y: int) -> None:
        self.parent[self.find(x)] = self.find(y)


def _merge(phi_labels: np.ndarray, a: int, tau: np.ndarray):
    m = tau.shape[0]
    tau = tau.copy()
    if m == 0:
        return tau, 1
    comp = _line_components(tau)
    n_comp = int(np.unique(comp).shape[0])
    cells = phi_labels[:m] * a + phi_labels[tau]
    order = np.argsort(cells, kind="stable")
    cuts = np.flatnonzero(np.diff(cells[order])) + 1
    uf = _UnionFind()
    for group in np.split(order, cuts):
        if group.shape[0] < 2:
            continue
        uniq, first = np.unique(comp[group], return_index=True)
        if uniq.shape[0] < 2:
            continue
        candidates = sorted(
            (int(group[f]), int(c)) for f, c in zip(first, uniq)
        )
        anchor_edge, anchor_comp = candidates[0]
        for edge, c in candidates[1:]:
            if uf.find(c) != uf.find(anchor_comp):
                tau[anchor_edge], tau[edge] = tau[edge], tau[anchor_edge]
                uf.union(c, anchor_comp)
                n_comp -= 1
    return tau, n_comp


def _close(tau: np.ndarray):
    m = tau.shape[0]
    if m == 0:
        return tau.copy(), 1, 0
    comp = _line_components(tau)
    uniq, first = np.unique(comp[:m], return_index=True)
    k = int(uniq.shape[0])
    if k == 1:
        return tau.copy(), 1, 0
    reps = np.sort(first)
    sigma = tau.copy()
    sigma[reps] = tau[np.roll(reps, -1)]
    return sigma, k, k


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
    tau = build_tau(phi, j_rounded)
    tau_star, n_comp = _merge(phi.labels, a, tau)
    sigma_arr, _, edges_changed = _close(tau_star)
    sigma = LineBijection(n, sigma_arr)
    achieved = linf(empirical_pair_distribution(phi, sigma), j)
    bound = 2 * a * eps + 3 * a * a / n
    return sigma, RearrangeReport(achieved, bound, n_comp, edges_changed)


def cycle_decomposition(t: np.ndarray) -> CycleDecomposition:
    """Cycle decomposition with deterministic ordering and traversal."""
    t = np.asarray(t, dtype=np.int64)
    if not is_permutation(t):
        raise ValueError("input is not a permutation")
    n = t.shape[0]
    images = t.tolist()
    seen = bytearray(n)
    cycles: list[np.ndarray] = []
    cycle_of = np.empty(n, dtype=np.int64)
    for start in range(n):
        if seen[start]:
            continue
        buf = []
        cur = start
        while not seen[cur]:
            seen[cur] = 1
            buf.append(cur)
            cur = images[cur]
        arr = np.asarray(buf, dtype=np.int64)
        cycle_of[arr] = len(cycles)
        cycles.append(arr)
    return CycleDecomposition(cycles, cycle_of)



def _label_counts_per_cycle(dec: CycleDecomposition, psi: Observable) -> np.ndarray:
    counts = np.zeros((len(dec.cycles), psi.alphabet_size), dtype=np.int64)
    np.add.at(counts, (dec.cycle_of, psi.labels), 1)
    return counts


def _deviations(dec: CycleDecomposition, psi: Observable) -> np.ndarray:
    """Per-cycle sup-norm gap between internal and global label frequencies.

    Exact: numerators are integer, and all products stay below 2^53.
    """
    counts = _label_counts_per_cycle(dec, psi)
    lengths = dec.lengths()
    total = psi.atom_sizes()
    n = psi.n
    num = np.abs(counts * n - total[None, :] * lengths[:, None])
    return num.max(axis=1) / (lengths * n)



def _coupling_margin_gap(j: Coupling, target: np.ndarray) -> float:
    return float(
        max(
            np.max(np.abs(j.row_margin() - target)),
            np.max(np.abs(j.col_margin() - target)),
        )
    )


def rewire(
    t: np.ndarray,
    psi: Observable,
    j: Coupling,
    eps: float,
    *,
    goodness_eps: float | None = None,
    check: bool = True,
) -> tuple[np.ndarray, RewireReport]:
    """Rewire ``t`` within its cycles toward the pair statistics of ``j``.

    ``goodness_eps`` is the per-cycle equidistribution threshold (defaults
    to ``eps``); the mass bound and the deviation threshold are separate
    knobs on purpose.  Orbits are preserved unconditionally.  Whenever the
    off-hypothesis mass is below ``eps`` and every good cycle passes the
    length condition, the achieved error is at most ``9*|A|*eps``.
    """
    t = np.asarray(t, dtype=np.int64)
    if not is_permutation(t):
        raise ValueError("input is not a permutation")
    n = t.shape[0]
    if psi.n != n:
        raise ValueError("observable size does not match the permutation")
    a = j.alphabet_size
    if psi.alphabet_size != a:
        raise ValueError("alphabet mismatch between labels and coupling")
    if check:
        if not eps < 1 / 6:
            raise PreconditionError(f"eps={eps:.6g} is not below 1/6")
        jmin = float(j.real.min())
        if not jmin > 2 * a * eps:
            raise PreconditionError(
                f"min coupling entry {jmin:.6g} is not above 2|A|eps={2 * a * eps:.6g}"
            )
        margin_gap = _coupling_margin_gap(j, empirical_distribution(psi).real)
        if not margin_gap < eps:
            raise PreconditionError(
                f"coupling margins sit {margin_gap:.6g} from the label "
                f"distribution, not below eps={eps:.6g}"
            )
    if goodness_eps is None:
        goodness_eps = eps

    dec = cycle_decomposition(t)
    dev = _deviations(dec, psi)
    lengths = dec.lengths()
    jmin = float(j.real.min())
    jreal = j.real

    t_new = t.copy()
    good_flags = np.zeros(len(dec.cycles), dtype=bool)
    for idx, cycle in enumerate(dec.cycles):
        length = int(lengths[idx])
        if length < 3 or dev[idx] > goodness_eps:
            continue
        # the rounding hypothesis must hold against the block's own margin
        # gap, which picks up the coupling's global margin slack; with
        # checks waived the gate is dropped and rounding self-repairs
        block = np.concatenate((cycle[1:], cycle[:1]))
        phi_block = Observable(psi.labels[block], a)
        eps_block = _coupling_margin_gap(j, empirical_distribution(phi_block).real)
        if check and not jmin > 2 * a * eps_block + a * a / length:
            continue
        good_flags[idx] = True
        sigma, _ = rearrange_line(phi_block, j, eps_block, check=False)
        t_new[block[: length - 1]] = block[sigma.sigma]
        t_new[block[length - 1]] = block[0]

    # per-cycle pair statistics of the rewired permutation, incl. the
    # closure edge through each base point
    cell = psi.labels * a + psi.labels[t_new]
    cycle_cells = np.zeros((len(dec.cycles), a * a), dtype=np.int64)
    np.add.at(cycle_cells, (dec.cycle_of, cell), 1)
    flat = jreal.reshape(1, -1)
    per_cycle_err = np.abs(cycle_cells / lengths[:, None] - flat).max(axis=1)

    report = RewireReport(
        good_mass=float(lengths[good_flags].sum() / n),
        achieved_error=linf(joint_pair_distribution(psi, t_new), j),
        bound=9 * a * eps,
        lengths=lengths,
        good=good_flags,
        error=per_cycle_err,
    )
    return t_new, report


# ---------------------------------------------------------------------------
# word-ball statistics: one evaluate per word and use
# ---------------------------------------------------------------------------


def evaluate(a: FiniteAction, w: ReducedWord) -> np.ndarray:
    """Permutation of a word under the action (identity for the empty word)."""
    result = np.arange(a.n, dtype=np.int64)
    for letter in w.letters:
        # extend on the right: result := result ∘ generator
        perm = a.perms[abs(letter) - 1]
        result = result[perm if letter > 0 else inverse_permutation(perm)]
    return result


def refine_partition(p: Observable, words, a: FiniteAction) -> Observable:
    """Common refinement of the translated partitions ``{g·P : g in words}``.

    Point x lands in the atom determined by its translated-label signature
    ``(P(g^{-1}x))_{g}``.  Atom ids are dense, numbered by first occurrence
    in point order, so the output is reproducible.
    """
    words = list(words)
    if not words:
        raise ValueError("need at least one word")
    n = p.n
    sig = np.empty((n, len(words)), dtype=np.int64)
    for col, g in enumerate(words):
        inv = inverse_permutation(evaluate(a, g))
        sig[:, col] = p.labels[inv]
    _, first_pos, inverse = np.unique(
        sig, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first_pos, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return Observable(rank[inverse.ravel()], int(order.shape[0]))


def _translated_labels(p: Observable, perm: np.ndarray) -> np.ndarray:
    """Labels of the translated partition: point x gets ``P(perm^{-1} x)``."""
    out = np.empty_like(p.labels)
    out[perm] = p.labels
    return out


def _sparse_pair_counts(a: FiniteAction, p: Observable, g: ReducedWord, k: int):
    keys = _translated_labels(p, evaluate(a, g))
    keys += p.labels * k
    return np.unique(keys, return_counts=True)


def _max_cell_diff(keys_p, cnt_p, n_p, keys_q, cnt_q, n_q) -> Fraction:
    all_keys = np.union1d(keys_p, keys_q)
    cp = np.zeros(all_keys.shape[0], dtype=np.int64)
    cq = np.zeros(all_keys.shape[0], dtype=np.int64)
    cp[np.searchsorted(all_keys, keys_p)] = cnt_p
    cq[np.searchsorted(all_keys, keys_q)] = cnt_q
    num = np.abs(cp * int(n_q) - cq * int(n_p))
    return Fraction(int(num.max()) if num.size else 0, int(n_p) * int(n_q))


def kechris_distance(
    v: FiniteAction,
    w: FiniteAction,
    p: Observable,
    q: Observable,
    words,
) -> float:
    if p.alphabet_size != q.alphabet_size:
        raise ValueError("partitions must have the same atom count")
    k = p.alphabet_size
    worst = Fraction(0)
    for g in words:
        kp, cp = _sparse_pair_counts(v, p, g, k)
        kq, cq = _sparse_pair_counts(w, q, g, k)
        worst = max(worst, _max_cell_diff(kp, cp, p.n, kq, cq, q.n))
    return float(worst)


def _beta_partition(pprime: Observable, beta) -> Observable:
    k = pprime.alphabet_size
    if isinstance(beta, Observable):
        if beta.n != pprime.n or beta.alphabet_size != k:
            raise ValueError("beta is not a bijection on the refinement atoms")
        return beta
    beta = np.asarray(beta, dtype=np.int64)
    if beta.shape != (k,) or np.bincount(beta, minlength=k).max() != 1:
        raise ValueError("beta is not a bijection on the refinement atoms")
    inv = np.empty(k, dtype=np.int64)
    inv[beta] = np.arange(k)
    return Observable(inv[pprime.labels], k)


def _atom_parents(p: Observable, pprime: Observable) -> np.ndarray:
    _, first = np.unique(pprime.labels, return_index=True)
    parents = p.labels[first]
    if np.any(p.labels != parents[pprime.labels]):
        raise ValueError("partition does not refine the coarse partition")
    return parents


def ball_transport_certificate(
    v: FiniteAction,
    w: FiniteAction,
    p: Observable,
    radius: int,
    beta,
    eps: float,
) -> TransportCertificate:
    if v.rank != w.rank or v.n != w.n:
        raise ValueError("actions must share rank and space")
    words = tuple(ball(v.rank, radius))
    pprime = refine_partition(p, words, v)
    qprime = _beta_partition(pprime, beta)
    parents = _atom_parents(p, pprime)
    q = Observable(parents[qprime.labels], p.alphabet_size)
    n = p.n
    kref = pprime.alphabet_size

    sizes_p = pprime.atom_sizes()
    sizes_q = qprime.atom_sizes()
    coarse_p = p.atom_sizes()
    coarse_q = q.atom_sizes()
    claim1 = max(
        int(np.max(np.abs(sizes_p - sizes_q))),
        int(np.max(np.abs(coarse_p - coarse_q))),
    )

    _, first = np.unique(pprime.labels, return_index=True)
    claim2: dict[ReducedWord, float] = {}
    kcoarse = p.alphabet_size
    for g in words:
        moved_p = _translated_labels(p, evaluate(v, g))
        atom_translate = moved_p[first]
        beta_image = atom_translate[qprime.labels]
        moved_q = _translated_labels(q, evaluate(w, g))
        mismatch = beta_image != moved_q
        lost = np.bincount(beta_image[mismatch], minlength=kcoarse)
        gained = np.bincount(moved_q[mismatch], minlength=kcoarse)
        worst = int(np.max(lost + gained)) if mismatch.any() else 0
        claim2[g] = worst / n

    letters = []
    for k in range(1, v.rank + 1):
        letters.extend((ReducedWord((k,)), ReducedWord((-k,))))
    hyp = Fraction(0)
    for s in letters:
        kp, cp = _sparse_pair_counts(v, pprime, s, kref)
        kq, cq = _sparse_pair_counts(w, qprime, s, kref)
        hyp = max(hyp, _max_cell_diff(kp, cp, n, kq, cq, n))
    bound = eps / (kref * kref * len(words) * 4)

    return TransportCertificate(
        eps=eps,
        words=words,
        claim1_max=claim1 / n,
        claim2_max_per_word=claim2,
        hypothesis_max=float(hyp),
        hypothesis_bound=bound,
        hypothesis_ok=float(hyp) < bound,
        final_discrepancy=kechris_distance(v, w, p, q, words),
        refinement_atoms=kref,
    )
