"""Weak-topology statistics and certified partition transport.

The statistics of an action against a partition are the intersection
measures ``mu(P_i ∩ g·P_j)``; two actions are close in the weak sense when
these numbers agree over a finite word set.  This module alone counts and
compares them.  Compared statistics are read over one word of each inverse
pair, and ``_kechris`` turns the word gaps into the distance.  A side read
many times is tallied once (``_counted``) and read by ``_distance_from``.
Each side's translates are one ``freegroup._Translates`` table.  Nearby
sides, as in a transport, differ only at the few points near where their
actions or partitions do (``_near_points``): the ``(w, Q)`` table is built
on those points alone, with the ``(v, P)`` table behind it, and the
comparisons count only those points.  Sides that differ widely
(``_few_disagree``) are translated on every point and compared there.
``ball_transport_certificate`` carries a partition across an atom bijection
on a ball refinement and measures, claim by claim, how much each
transported quantity drifts.
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
    _Translates,
    ball,
)
from .spaces import Coupling, Observable, _as_permutation, _cell_counts, _cell_rule

__all__ = [
    "TransportCertificate",
    "stats_matrix",
    "kechris_distance",
    "ball_transport_certificate",
]


def stats_matrix(a: FiniteAction, p: Observable, g: ReducedWord) -> Coupling:
    """Exact intersection statistics: entry (i,j) is ``#(P_i ∩ g·P_j)/n``."""
    k = p.alphabet_size
    counts = _cell_counts(p.labels * k, _Translates(a, p, [g])[g], k)
    return Coupling.from_counts(counts.reshape(k, k), p.n)


def kechris_distance(
    v: FiniteAction, w: FiniteAction, p: Observable, q: Observable, words
) -> float:
    """Largest disagreement of intersection statistics over a word set.

    Zero iff the statistics of ``(v, P)`` and ``(w, Q)`` agree exactly for
    every word; computed in exact integer arithmetic.  Since
    ``mu(P_i ∩ g·P_j) = mu(g^{-1}·P_i ∩ P_j)``, the counts of ``g^{-1}`` are
    the transpose of those of ``g`` on both sides and give the same gap, so
    only one word of each inverse pair is compared.  Nearby sides are
    compared on ``_near_points`` alone.
    """
    if q.alphabet_size != p.alphabet_size:
        raise ValueError("partitions must have the same atom count")
    compared = _one_per_inverse_pair(words)
    radius = max(map(len, compared), default=0)
    moved_p = _Translates(v, p, compared)
    near = _near_points(v, w, p, q, radius)
    points = None if near is None else np.flatnonzero(near)
    moved_q = _Translates(w, q, compared, points, moved_p)
    return _kechris(_gaps(p, q, compared, moved_p, moved_q, points), p.n * q.n)


def _one_per_inverse_pair(words) -> list[ReducedWord]:
    """One word of each inverse pair among ``words``, less repeats.

    Of ``g`` and ``g^{-1}``, the word with more inverse letters is kept, the
    first on a tie: ``_Translates`` gathers an inverse letter where it
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


def _few_disagree(count: int, n: int) -> bool:
    """Whether ``count`` of ``n`` points, at most a fifth, are few enough
    that building the ``(w, Q)`` side on them beats translating it whole.

    An in-process sweep of a radius-3 transport certificate at n = 5·10^4
    (β the identity, 2-core x86 host) put the near path at 0.79, 0.87,
    0.92, 0.99, 1.05, 1.21 and 1.31 times the every-point time at 5, 10,
    15, 20, 25, 40 and 50% of the points.
    """
    return 5 * count <= n


def _near_points(v, w, p, q, radius: int):
    """Mask of the points where the ``(w, Q)`` translates of words no longer
    than ``radius`` can differ from the ``(v, P)`` ones, or ``None`` when
    they are not few (``_few_disagree``) or the sides differ in rank or
    point count.

    Level 0 holds the points where ``P`` and ``Q`` differ or some generator
    of ``v`` and ``w`` does; level j + 1 adds the images and preimages of
    level j under each generator of ``w``; the mask is level ``radius``.
    Off it, ``(g·Q)(x) = (g·P)(x)`` for ``|g| <= radius``.  The ``w``-walk
    ``x = x_0, ..., x_m`` of ``g^{-1}`` has ``x_i`` outside level
    ``radius - i``, as ``x_{i+1}`` in level ``radius - i - 1`` would put
    ``x_i`` in level ``radius - i``.  So every step starts outside level 1,
    which holds the points where a generator of the two actions differs and
    their images (one set under both actions): ``v`` takes the same step.
    And the walk ends outside level 0, where ``P = Q``.  So a ``(w, Q)``
    table on any points that hold the mask may read the ``(v, P)`` table
    off them.
    """
    n = v.n
    if w.perms.shape != v.perms.shape or q.n != n:
        return None
    near = p.labels != q.labels
    for pv, pw in zip(v.perms, w.perms):
        near |= pv != pw  # the first density test below covers every generator
    for _ in range(radius):
        points = np.flatnonzero(near)
        if not _few_disagree(points.size, n):
            return None
        grown = near.copy()
        for perm in w.perms:
            grown |= near[perm]  # the points whose image is near
            grown[perm[points]] = True
        near = grown
    return near if _few_disagree(np.count_nonzero(near), n) else None


def _counted(v: FiniteAction, p: Observable, words):
    """``(pair targets, tallies)`` of ``(v, P)``, read from one table.

    The pair target of generator s is the statistics of ``s^{-1}``, which
    ``words`` must hold; ``tallies`` holds the ``_cell_rule`` tallies of one
    word of each inverse pair, for ``_distance_from``.  When ``k^2 <= n``
    the tally of ``s^{-1}`` is its cell counts, and the pair target reads
    them; otherwise they are counted once more.
    """
    k = p.alphabet_size
    moved = _Translates(v, p, _one_per_inverse_pair(words))
    tally, _ = _cell_rule(p.labels, p.labels, k, p.n, p.n)
    tallies = {g: tally(moved[g]) for g in moved.words}
    pairs = []
    for s in range(1, v.rank + 1):
        letter = ReducedWord((-s,))
        if k * k <= p.n:  # _cell_rule's dense tally: the cell counts themselves
            counts = tallies[letter]
        else:
            counts = _cell_counts(p.labels * k, moved[letter], k)
        pairs.append(Coupling.from_counts(counts.reshape(k, k), p.n))
    return pairs, tallies


def _distance_from(p: Observable, tallies: dict, w: FiniteAction, q: Observable):
    """``kechris_distance`` of ``(w, Q)``, ``Q`` of ``P``'s size and
    alphabet, from the side ``_counted`` tallied."""
    _, gap = _cell_rule(p.labels, q.labels, p.alphabet_size, q.n, p.n)
    moved = _Translates(w, q, tallies)
    return _kechris((gap(t, moved[g]) for g, t in tallies.items()), p.n * q.n)


def _gaps(p, q, words, moved_p, moved_q, points) -> list[int]:
    """Each word's ``_cell_rule`` gap of ``(P, moved_p)`` against
    ``(Q, moved_q)``, two ``_Translates``, over the sorted ``points``, or
    every point when ``points`` is ``None``.

    Off the points both sides, on the same n points, put each point in the
    same cell, adding ``+n`` and ``-n`` to it, so counting only the points
    leaves every cell's difference as it was.
    """
    if points is not None and not points.size:
        return [0] * len(words)
    at = slice(None) if points is None else points
    tally, gap = _cell_rule(p.labels[at], q.labels[at], p.alphabet_size, q.n, p.n)
    read_p, read_q = moved_p.at(points), moved_q.at(points)
    return [gap(tally(read_p(g)), read_q(g)) for g in words]


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

    One ``_Translates`` holds each side.  A radius-length ``(v, P)`` word is
    translated over every point only when the refinement reads it (those
    that gather first) or when the sides are compared on every point;
    otherwise it is read at the compared points from its parent.  Claim 2
    builds the ``(w, Q)`` table on the near points and those where ``Q'``
    and ``P'`` differ when those are few, and on every point otherwise; the
    final discrepancy reads it at the near points whenever they are few.
    """
    if v.rank != w.rank or v.n != w.n:
        raise ValueError("actions must share rank and space")
    words = tuple(ball(v.rank, radius))
    moved_p = _Translates(v, p, words)
    pprime = _refine(moved_p.columns(), p.alphabet_size, p.n)
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
    # so that is moved_p[g][x] wherever Q' and P' agree, and that is
    # moved_q[g][x] off the near points: the drift lies on the near points
    # and those where Q' and P' differ.  If those are many, on every point.
    pull = first[qprime.labels]
    moved_at = qprime.labels != pprime.labels
    near = _near_points(v, w, p, q, radius)
    claimed = None if near is None else np.flatnonzero(near | moved_at)
    points = claimed if near is not None and _few_disagree(claimed.size, n) else None
    moved_q = _Translates(w, q, words, points, moved_p)
    if moved_at.any():
        read = moved_p.at(pull if points is None else pull[points])
    else:  # moved_p[g][pull] is moved_p[g]
        read = moved_p.at(points)
    claim2: dict[ReducedWord, float] = {}
    for g in words:
        beta_image = read(g)
        mismatch = np.flatnonzero(beta_image != moved_q[g])
        lost = np.bincount(beta_image[mismatch], minlength=p.alphabet_size)
        gained = np.bincount(moved_q[g][mismatch], minlength=p.alphabet_size)
        worst = int(np.max(lost + gained)) if mismatch.size else 0
        claim2[g] = worst / n
    compared = _one_per_inverse_pair(words)
    near = None if near is None else np.flatnonzero(near)
    final = _kechris(_gaps(p, q, compared, moved_p, moved_q, near), n * n)
    # freed before the hypothesis builds its own
    del moved_p, moved_q, pull, moved_at, read

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
