"""Rewiring a permutation inside its own cycles to match pair statistics.

Each cycle of ``T`` is read as a return-time block over its base point (the
block runs ``Ty, T^2y, ..., y``, so the base maps on unchanged).  Blocks
whose internal label distribution sits close to the global one, and which
are long enough for the coupling-rounding hypothesis, are rearranged by the
line pipeline and reclosed through the base; everything else keeps ``T``.
The output permutes every cycle onto itself, so orbits are preserved
unconditionally, and under the stated hypotheses the consecutive-label pair
distribution lands within ``9*|A|*eps`` of the target coupling.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .permutations import CycleDecomposition, cycle_decomposition, cycle_min_labels
from .rearrange import PreconditionError, _rearrange_lines, _require_eps, _round_counts
from .spaces import (
    Coupling,
    Observable,
    _as_int64,
    _as_permutation,
    _frozen,
    _margin_gap,
    linf,
)

__all__ = [
    "CycleOutcome",
    "RewireReport",
    "ergodic_profile",
    "rewire",
    "verify_same_orbits",
]


class CycleOutcome(NamedTuple):
    length: int
    good: bool
    error: float


@dataclass(frozen=True, eq=False)
class RewireReport:
    """Mass actually rewired, achieved sup-norm error and its budget.

    Per-cycle outcomes are read-only arrays in ``cycle_decomposition(t)``
    order: ``lengths``, ``good`` (rewired) and ``error`` (sup-norm gap of
    the cycle's own pair statistics to the target).  ``per_cycle`` holds
    them as ``CycleOutcome`` rows, built on first read.
    """

    good_mass: float
    achieved_error: float
    bound: float
    lengths: np.ndarray
    good: np.ndarray
    error: np.ndarray

    def __post_init__(self):
        for name, dtype in (("lengths", np.int64), ("good", bool), ("error", float)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))

    def __eq__(self, other):
        return isinstance(other, RewireReport) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    @cached_property
    def per_cycle(self) -> tuple[CycleOutcome, ...]:
        rows = self.lengths.tolist(), self.good.tolist(), self.error.tolist()
        return tuple(map(CycleOutcome, *rows))


def _label_counts_per_cycle(dec: CycleDecomposition, psi: Observable) -> np.ndarray:
    a = psi.alphabet_size
    cells = dec.cycle_of * a + psi.labels
    return np.bincount(cells, minlength=(dec.offsets.shape[0] - 1) * a).reshape(-1, a)


# Largest n for which _deviations is exact: its products are at most n^2,
# and float64 holds every integer up to 2^53.
EXACT_DEVIATION_N = 2**26


def _deviations(counts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-cycle sup-norm gap between internal and global label frequencies.

    ``counts`` is the per-cycle label table of ``_label_counts_per_cycle``
    and ``lengths`` the cycle lengths.  Exact: numerators and denominators
    are integers of at most n^2, which float64 holds exactly for n up to
    ``EXACT_DEVIATION_N``; above that the gap is refused rather than rounded.
    """
    n = int(lengths.sum())
    if n > EXACT_DEVIATION_N:
        raise ValueError(
            f"n={n} exceeds {EXACT_DEVIATION_N}, the largest size for which "
            "cycle deviations are computed exactly"
        )
    total = counts.sum(axis=0)
    num = np.abs(counts * n - total[None, :] * lengths[:, None])
    return num.max(axis=1) / (lengths * n)


def _bad_mass(dec: CycleDecomposition, psi: Observable, eps: float):
    """``(mass of the cycles deviating beyond eps, per-cycle deviations)``."""
    lengths = dec.lengths()
    dev = _deviations(_label_counts_per_cycle(dec, psi), lengths)
    return float(lengths[dev > eps].sum() / psi.n), dev


def ergodic_profile(t: np.ndarray, psi: Observable, eps: float):
    """Mass of cycles whose label statistics stray beyond ``eps``.

    Returns ``(bad_mass, deviations)`` where ``deviations`` holds each
    cycle's sup-norm gap to the global distribution, in cycle order.
    """
    dec = cycle_decomposition(t)
    if psi.n != dec.n:
        raise ValueError("observable size does not match the permutation")
    _require_eps(eps)
    return _bad_mass(dec, psi, eps)


def rewire(
    t: np.ndarray,
    psi: Observable,
    j: Coupling,
    eps: float,
    *,
    check: bool = True,
) -> tuple[np.ndarray, RewireReport]:
    """Rewire ``t`` within its cycles toward the pair statistics of ``j``.

    A cycle is rewired when its label frequencies sit within ``eps`` of
    the global ones and it passes the block rounding gate.  Orbits are
    preserved unconditionally.  Whenever the off-hypothesis mass is below
    ``eps`` and every good cycle passes the length condition, the achieved
    error is at most ``9*|A|*eps``.

    All good cycles are rearranged in one segmented pass: each is one
    segment of the line stages of ``rearrange``.
    """
    t = _as_int64(t, "permutation images")
    # cycle_decomposition refuses a non-permutation before any other check
    t_new, report, _ = _rewire_cycles(
        t, cycle_decomposition(t), psi, j, eps, check=check
    )
    return _as_permutation(t_new, "rewired permutation"), report


def _rewire_cycles(
    t: np.ndarray,
    dec: CycleDecomposition,
    psi: Observable,
    j: Coupling,
    eps: float,
    *,
    check: bool = True,
) -> tuple[np.ndarray, RewireReport, Coupling]:
    """``rewire`` of the int64 permutation ``t`` whose cycles are ``dec``.

    ``dec`` must be ``cycle_decomposition(t)``; it is not checked again.
    Also returns the pair distribution of the rewired permutation, which
    ``achieved_error`` measures against ``j``.  The rewired permutation is
    checked by the callers that hand it out: ``rewire`` and the rows of the
    ``FiniteAction`` that ``pipeline._oe_approximate`` builds.
    """
    n = dec.n
    if n == 0:
        raise ValueError("cannot rewire an empty permutation")
    if psi.n != n:
        raise ValueError("observable size does not match the permutation")
    a = j.alphabet_size
    if psi.alphabet_size != a:
        raise ValueError("alphabet mismatch between labels and coupling")
    _require_eps(eps)
    lengths = dec.lengths()
    label_counts = _label_counts_per_cycle(dec, psi)
    jmin = float(j.real.min())
    if check:
        if not eps < 1 / 6:
            raise PreconditionError(f"eps={eps:.6g} is not below 1/6")
        if not jmin > 2 * a * eps:
            raise PreconditionError(
                f"min coupling entry {jmin:.6g} is not above 2|A|eps={2 * a * eps:.6g}"
            )
        margin_gap = float(_margin_gap(j, label_counts.sum(axis=0) / n))
        if not margin_gap < eps:
            raise PreconditionError(
                f"coupling margins sit {margin_gap:.6g} from the label "
                f"distribution, not below eps={eps:.6g}"
            )

    good = (lengths >= 3) & (_deviations(label_counts, lengths) <= eps)
    if check:
        # the rounding hypothesis must hold against the block's own margin
        # gap, which picks up the coupling's global margin slack; with
        # checks waived the gate is dropped and rounding self-repairs
        eps_block = _margin_gap(j, label_counts[good] / lengths[good, None])
        good[good] = jmin > 2 * a * eps_block + a * a / lengths[good]

    t_new = t.copy()
    sel = np.flatnonzero(good)
    if sel.shape[0]:
        # the block of a cycle runs Ty, T^2y, ..., y over its base y: flat
        # point i of a segment is traversal position i+1 of its cycle
        seg_len = lengths[sel]
        offsets = np.zeros(sel.shape[0] + 1, dtype=np.int64)
        np.cumsum(seg_len, out=offsets[1:])
        src = np.repeat(dec.offsets[sel] - offsets[:-1] + 1, seg_len)
        src += np.arange(offsets[-1])
        src[offsets[1:] - 1] = dec.offsets[sel]
        pts = dec.order[src]
        del src
        counts = _round_counts(j, label_counts[sel], seg_len)
        lines, _ = _rearrange_lines(psi.labels[pts], offsets, counts)
        # the closed line maps the block's last point, its base, to the
        # first, which is where T sends the base
        t_new[pts] = pts[lines]
        del pts, lines

    # per-cycle pair statistics of the rewired permutation, incl. the
    # closure edge through each base point
    cells = dec.cycle_of * a
    cells += psi.labels
    cells *= a
    cells += psi.labels[t_new]
    cycle_cells = np.bincount(cells, minlength=lengths.shape[0] * a * a)
    del cells
    cycle_cells = cycle_cells.reshape(-1, a * a)
    flat = j.real.reshape(1, -1)
    per_cycle_err = np.abs(cycle_cells / lengths[:, None] - flat).max(axis=1)
    pairs = Coupling.from_counts(cycle_cells.sum(axis=0).reshape(a, a), n)
    report = RewireReport(
        good_mass=float(lengths[good].sum() / n),
        achieved_error=linf(pairs, j),
        bound=9 * a * eps,
        lengths=lengths,
        good=good,
        error=per_cycle_err,
    )
    return t_new, report, pairs


def verify_same_orbits(t: np.ndarray, t2: np.ndarray) -> bool:
    """True iff the cycle partitions coincide as set partitions."""
    t, t2 = _as_permutation(t, "t"), _as_permutation(t2, "t2")
    if t.shape != t2.shape:
        raise ValueError("permutations must act on the same space")
    return bool(np.array_equal(cycle_min_labels(t), cycle_min_labels(t2)))
