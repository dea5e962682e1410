"""Weak-topology statistics and certified partition transport.

The statistics of an action against a partition are the intersection
measures ``mu(P_i ∩ g·P_j)``; two actions are close in the weak sense when
these numbers agree over a finite word set.  Compared statistics are read
over one word of each inverse pair, and ``_kechris`` turns the word gaps
into the distance.  Two sides on the same points are compared by
``_paired_cell_gap``, which counts only the points where they disagree, so
nearby actions, as in a transport, cost little more than those points.
``ball_transport_certificate`` carries a partition across an atom bijection
on a ball refinement, reading one table per side, and measures, claim by
claim, how much each transported quantity drifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .freegroup import (
    FiniteAction,
    ReducedWord,
    _first_points,
    _refine,
    ball,
    translated_labels,
)
from .spaces import (
    Coupling,
    Observable,
    _as_permutation,
    _cell_counts,
    _few_disagree,
    _paired_cell_gap,
)

__all__ = [
    "TransportCertificate",
    "stats_matrix",
    "kechris_distance",
    "ball_transport_certificate",
]


def stats_matrix(a: FiniteAction, p: Observable, g: ReducedWord) -> Coupling:
    """Exact intersection statistics: entry (i,j) is ``#(P_i ∩ g·P_j)/n``."""
    k = p.alphabet_size
    counts = _cell_counts(p.labels * k, translated_labels(a, p, [g])[g], k)
    return Coupling.from_counts(counts.reshape(k, k), p.n)


def kechris_distance(
    v: FiniteAction, w: FiniteAction, p: Observable, q: Observable, words
) -> float:
    """Largest disagreement of intersection statistics over a word set.

    Zero iff the statistics of ``(v, P)`` and ``(w, Q)`` agree exactly for
    every word; computed in exact integer arithmetic.  Since
    ``mu(P_i ∩ g·P_j) = mu(g^{-1}·P_i ∩ P_j)``, the counts of ``g^{-1}`` are
    the transpose of those of ``g`` on both sides and give the same gap, so
    only one word of each inverse pair is compared.
    """
    compare = _paired_cell_gap(p, q)
    compared = _one_per_inverse_pair(words)
    moved_p = translated_labels(v, p, compared)
    moved_q = translated_labels(w, q, compared)
    return _kechris((compare(moved_p[g], moved_q[g]) for g in compared), p.n * q.n)


def _one_per_inverse_pair(words) -> list[ReducedWord]:
    """One word of each inverse pair among ``words``, less repeats.

    Of ``g`` and ``g^{-1}``, the word with more inverse letters is kept, the
    first on a tie: ``translated_labels`` gathers an inverse letter where it
    scatters a generator, and the two words give the same gap.
    """
    kept: dict[tuple, ReducedWord] = {}  # letters of the pair's first -> word kept
    for g in words:
        inverse = tuple(-s for s in reversed(g.letters))
        first = inverse if inverse in kept else g.letters
        if first not in kept or _inverse_letters(g) > _inverse_letters(kept[first]):
            kept[first] = g
    return list(kept.values())


def _inverse_letters(g: ReducedWord) -> int:
    return sum(s < 0 for s in g.letters)


def _kechris(gaps, cells: int) -> float:
    """The largest of the word ``gaps`` over ``cells``, as a correctly
    rounded float; 0 over no word."""
    return float(Fraction(max(gaps, default=0), cells))


def _beta_partition(pprime: Observable, beta) -> Observable:
    """Normalize an atom bijection to an aligned image partition.

    An integer array permuting atom ids means: the image of atom ``i`` is
    the set of the atom labeled ``beta[i]`` (same underlying sets, relabeled).
    An Observable is taken as the image partition itself, already aligned so
    its atom ``i`` is the image of refinement atom ``i``.
    """
    k = pprime.alphabet_size
    if isinstance(beta, Observable):
        if beta.n != pprime.n or beta.alphabet_size != k:
            raise ValueError("beta is not a bijection on the refinement atoms")
        return beta
    beta = _as_permutation(beta, "beta")
    if beta.shape != (k,):
        raise ValueError("beta is not a bijection on the refinement atoms")
    inv = np.empty(k, dtype=np.int64)
    inv[beta] = np.arange(k)
    return Observable(inv[pprime.labels], k)


def _transport(p: Observable, pprime: Observable, beta):
    """Transported partition ``Q``, the aligned image ``Q'`` and atom firsts.

    The transported atom ``Q_i`` is the union of the beta-images of the
    refinement atoms inside ``P_i``.  ``first[i]`` is the first point of
    refinement atom ``i``, so ``p.labels[first]`` names the coarse atom
    containing each refinement atom.
    """
    qprime = _beta_partition(pprime, beta)
    first = _first_points(pprime.labels, pprime.alphabet_size)
    if np.any(first == pprime.n):
        raise ValueError(f"refinement atom {np.argmax(first == pprime.n)} is empty")
    parents = p.labels[first]
    if np.any(p.labels != parents[pprime.labels]):
        raise ValueError("partition does not refine the coarse partition")
    return Observable(parents[qprime.labels], p.alphabet_size), qprime, first


@dataclass(frozen=True)
class TransportCertificate:
    """Per-claim drift report for a ball transport.

    ``claim1_max`` bounds measure drift of transported atoms and their
    coarse unions; ``claim2_max_per_word`` measures, for each ball word g,
    how far the transported translate ``beta(g·P)`` sits from the translate
    of the transport ``g·beta(P)``.  The generator-level hypothesis is the
    quantity whose smallness makes the per-word bounds provable.
    """

    eps: float
    words: tuple[ReducedWord, ...]
    claim1_max: float
    claim2_max_per_word: dict[ReducedWord, float]
    hypothesis_max: float
    hypothesis_bound: float
    hypothesis_ok: bool
    final_discrepancy: float
    refinement_atoms: int

    def claim2_bound(self, g: ReducedWord) -> float:
        """Budget ``eps*|g| / (2*|F|)`` for each ball word."""
        return self.eps * len(g) / (2 * len(self.words))


def ball_transport_certificate(
    v: FiniteAction,
    w: FiniteAction,
    p: Observable,
    radius: int,
    beta,
    eps: float,
) -> TransportCertificate:
    """Verify a partition transport over a word ball, claim by claim.

    ``beta`` maps atoms of the ball refinement of ``P`` under ``v`` to atoms
    of an image partition, given as an integer array permuting the atom ids
    or as the aligned image partition itself.  Claim 1 compares
    atom sizes, claim 2 each word's transported translate with the
    translate of the transport, the hypothesis is ``kechris_distance`` over
    the letters on the refinements, and the final discrepancy is
    ``kechris_distance`` over the ball on ``P`` and its transport.  The
    certificate is informational: out-of-bound values are reported, never
    raised.
    """
    if v.rank != w.rank or v.n != w.n:
        raise ValueError("actions must share rank and space")
    words = tuple(ball(v.rank, radius))
    moved_p = translated_labels(v, p, words)
    pprime = _refine(moved_p, p.alphabet_size, p.n)
    q, qprime, first = _transport(p, pprime, beta)
    n = p.n
    kref = pprime.alphabet_size

    # Claim 1 on the refinement atoms and on the coarse unions they form.
    claim1 = max(
        int(np.max(np.abs(a.atom_sizes() - b.atom_sizes())))
        for a, b in ((pprime, qprime), (p, q))
    )

    # Claim 2: beta extends to unions of refinement atoms, so beta(g·P_i) is
    # the union of image atoms whose preimages tile g·P_i: x lies in it iff
    # moved_p[g][pull[x]] == i.  moved_p[g] is constant on refinement atoms,
    # so that is moved_p[g][x] wherever Q' and P' agree; when they disagree
    # on few points, only those are gathered.
    moved_q = translated_labels(w, q, words)
    pull = first[qprime.labels]
    moved_at = np.flatnonzero(qprime.labels != pprime.labels)
    few = _few_disagree(moved_at.size, n)
    pull_at = pull[moved_at]
    claim2: dict[ReducedWord, float] = {}
    for g in words:
        if few:
            beta_image = moved_p[g].copy()
            beta_image[moved_at] = moved_p[g][pull_at]
        else:
            beta_image = moved_p[g][pull]
        mismatch = np.flatnonzero(beta_image != moved_q[g])
        lost = np.bincount(beta_image[mismatch], minlength=p.alphabet_size)
        gained = np.bincount(moved_q[g][mismatch], minlength=p.alphabet_size)
        worst = int(np.max(lost + gained)) if mismatch.size else 0
        claim2[g] = worst / n
    compare = _paired_cell_gap(p, q)
    compared = _one_per_inverse_pair(words)
    final = _kechris((compare(moved_p[g], moved_q[g]) for g in compared), n * n)
    # freed before the hypothesis builds its own
    del moved_p, moved_q, pull, moved_at, pull_at

    # Generator-level hypothesis over the symmetric letter set.
    hyp = kechris_distance(v, w, pprime, qprime, ball(v.rank, 1)[1:])
    bound = eps / (kref * kref * len(words) * 4)

    return TransportCertificate(
        eps=eps,
        words=words,
        claim1_max=claim1 / n,
        claim2_max_per_word=claim2,
        hypothesis_max=hyp,
        hypothesis_bound=bound,
        hypothesis_ok=hyp < bound,
        final_discrepancy=final,
        refinement_atoms=kref,
    )
