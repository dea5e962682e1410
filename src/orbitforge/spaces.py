"""Finite probability spaces, observables, distributions and couplings.

Everything lives on the uniform measure over ``{0..n-1}``.  Distributions
and couplings carry an exact integer-count view wherever they are built by
counting; analysis-side objects (mixtures) fall back to a real view.  All
values are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "CertificationError",
    "Observable",
    "Dist",
    "Coupling",
    "empirical_distribution",
    "joint_pair_distribution",
    "empirical_pair_distribution",
    "linf",
    "product_coupling",
    "mixture_coupling",
]

# ℓ∞ tolerance for real-valued (non exact-count) comparisons.
REAL_TOL = 1e-12

# every packed int64 code stays below this bound, so no packing step wraps
_PACK_LIMIT = 2**62


class CertificationError(RuntimeError):
    """A certified inequality or proven round count failed on a result.

    Raised by explicit checks, never by ``assert``, so it also fires under
    ``python -O``; the message names the certificate and its numbers.
    """


def _require_finite(values, what: str) -> None:
    # NaN passes every comparison-based check, and casting it to an integer
    # count is undefined, so non-finite input is refused before both
    values = np.asarray(values)
    if values.dtype.kind in "fc" and not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")


def _as_int64(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; a value the cast would change is refused.

    Truncating ``1.7`` to ``1`` would silently run on other input, so a
    non-integer dtype is accepted only when every value is integral.
    """
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return values.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        cast = values.astype(np.int64)
    if not np.array_equal(cast, values):
        raise ValueError(f"{what} must be integers")
    return cast


def _as_permutation(values, what: str) -> np.ndarray:
    """``values`` as an int64 permutation of ``{0..n-1}``; anything else is refused.

    The library's one permutation test: after the integer rule of
    ``_as_int64``, ``values`` must be 1-d with every image in range and
    taken once.  A line ``{0..n-2} -> {1..n-1}`` is checked as the
    permutation it closes into, with the image 0 appended.
    """
    p = _as_int64(values, what)
    if p.ndim != 1 or (
        p.size and (p.min() < 0 or p.max() >= p.size or np.bincount(p).max() > 1)
    ):
        raise ValueError(f"{what} is not a permutation")
    return p


def _frozen(a: np.ndarray, dtype=None) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Observable:
    """A labeling of points by a finite alphabet ``{0..alphabet_size-1}``.

    Represents both measurable maps into a finite set and finite partitions
    (atom ``i`` is the preimage of label ``i``; atoms may be empty).
    """

    labels: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        labels = _as_int64(self.labels, "labels")
        if labels.ndim != 1:
            raise ValueError("labels must be a 1-d array")
        if self.alphabet_size < 1:
            raise ValueError("alphabet must have at least one symbol")
        if labels.size and (labels.min() < 0 or labels.max() >= self.alphabet_size):
            raise ValueError("label out of alphabet range")
        object.__setattr__(self, "labels", _frozen(labels))

    @classmethod
    def constant(cls, n: int) -> "Observable":
        return cls(np.zeros(n, dtype=np.int64), 1)

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    def atom_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.alphabet_size)


@dataclass(frozen=True)
class Dist:
    """Probability distribution on a finite alphabet, as exact counts/denom."""

    counts: np.ndarray
    denom: int

    def __post_init__(self):
        _require_finite(self.counts, "counts")
        counts = _as_int64(self.counts, "counts")
        if counts.ndim != 1 or counts.size < 1:
            raise ValueError("counts must be a nonempty 1-d array")
        if self.denom < 1:
            raise ValueError("denominator must be positive")
        if counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        if int(counts.sum()) != self.denom:
            raise ValueError("counts must sum to the denominator")
        object.__setattr__(self, "counts", _frozen(counts))

    @property
    def alphabet_size(self) -> int:
        return int(self.counts.shape[0])

    @property
    def real(self) -> np.ndarray:
        return self.counts / self.denom


@dataclass(frozen=True)
class Coupling:
    """Probability matrix on ``A x A`` with its two margins.

    Exact couplings, built only by ``from_counts``, also store integer
    ``counts`` over a common ``denom``; real couplings store only the float
    matrix.  Constructive targets stay exact; analysis-side mixtures are real.
    """

    entries: np.ndarray
    counts: np.ndarray | None = field(default=None, init=False)
    denom: int | None = field(default=None, init=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("coupling must be a square matrix")
        _require_finite(entries, "coupling entries")
        if entries.size and entries.min() < 0:
            raise ValueError("coupling entries must be nonnegative")
        if abs(float(entries.sum()) - 1.0) > REAL_TOL:
            raise ValueError("coupling entries must sum to 1")
        object.__setattr__(self, "entries", _frozen(entries))

    @classmethod
    def from_counts(cls, counts, denom: int) -> "Coupling":
        _require_finite(counts, "counts")
        counts = _as_int64(counts, "counts")
        if denom < 1:
            raise ValueError("denominator must be positive")
        if int(counts.sum()) != denom:
            raise ValueError("counts must sum to the denominator")
        coupling = cls(counts / denom)
        object.__setattr__(coupling, "counts", _frozen(counts))
        object.__setattr__(coupling, "denom", denom)
        return coupling

    @classmethod
    def from_probs(cls, matrix) -> "Coupling":
        return cls(np.asarray(matrix, dtype=np.float64))

    @property
    def is_exact(self) -> bool:
        return self.counts is not None

    @property
    def alphabet_size(self) -> int:
        return int(self.entries.shape[0])

    @property
    def real(self) -> np.ndarray:
        return self.entries

    def row_margin(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    def col_margin(self) -> np.ndarray:
        return self.entries.sum(axis=0)


def _cell_counts(rows: np.ndarray, moved: np.ndarray, k: int) -> np.ndarray:
    """Row-major counts of the cells ``(label, moved)``; ``rows`` is ``labels * k``."""
    return np.bincount(rows + moved, minlength=k * k)


def _cell_rule(labels_p, labels_q, k: int, weight_p: int, weight_q: int):
    """``(tally, gap)``: ``gap(tally(moved_p), moved_q)`` is the exact
    ``max |c_p·weight_p - c_q·weight_q|`` over cells.

    ``c_p`` counts the points x listed in a cell ``(labels_p[x], moved_p[x])``,
    ``c_q`` the same on the ``q`` side; with ``weight_p = n_q`` and
    ``weight_q = n_p``, ``gap / (n_p·n_q)`` is the largest frequency gap.  One
    tally serves many gaps.  With ``k*k`` at most the longer list it holds
    the cell counts; otherwise it is ``moved_p``, and both sides' codes
    ``label·2k + 2·moved + side``, below ``2k^2 <= _PACK_LIMIT``, are sorted
    together and the weights ``weight_p`` / ``-weight_q`` summed over each
    cell's run.
    """
    if k * k <= max(labels_p.shape[0], labels_q.shape[0]):
        rows_p, rows_q = labels_p * k, labels_q * k

        def tally(moved_p) -> np.ndarray:
            return _frozen(_cell_counts(rows_p, moved_p, k))

        def gap(counts_p, moved_q) -> int:
            diff = counts_p * weight_p
            diff -= _cell_counts(rows_q, moved_q, k) * weight_q
            return int(np.abs(diff).max())

        return tally, gap
    if 2 * k * k > _PACK_LIMIT:
        raise ValueError(f"{k} atoms are too many for int64 cell codes")
    base = np.concatenate((labels_p * (2 * k), labels_q * (2 * k) + 1))

    def gap(moved_p, moved_q) -> int:
        codes = np.concatenate((moved_p, moved_q), dtype=np.int64)
        codes <<= 1
        codes += base
        codes.sort()
        cells = codes >> 1
        starts = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
        weights = (codes & 1) * -(weight_p + weight_q) + weight_p
        return int(np.abs(np.add.reduceat(weights, starts)).max())

    return (lambda moved_p: moved_p), gap


def empirical_distribution(phi: Observable) -> Dist:
    """Symbol frequencies of an observable: counts over n, exactly."""
    return Dist(phi.atom_sizes(), phi.n)


def joint_pair_distribution(phi: Observable, perm: np.ndarray) -> Coupling:
    """Distribution of the pair ``(phi(x), phi(perm(x)))`` over all n points."""
    perm = _as_permutation(perm, "perm")
    if perm.shape[0] != phi.n:
        raise ValueError("permutation size does not match observable")
    a = phi.alphabet_size
    counts = _cell_counts(phi.labels * a, phi.labels[perm], a).reshape(a, a)
    return Coupling.from_counts(counts, phi.n)


def empirical_pair_distribution(phi: Observable, sigma) -> Coupling:
    """Pair distribution along the N-1 edges of a line bijection.

    ``sigma`` may be a LineBijection or a raw image array of length N-1 with
    values in ``{1..N-1}``.  The denominator is the edge count N-1.
    """
    images = _as_int64(getattr(sigma, "sigma", sigma), "line images")
    n = phi.n
    if images.shape != (n - 1,):
        raise ValueError("line bijection size does not match observable")
    if n < 2:
        raise ValueError("need at least two points for a pair distribution")
    _as_permutation(np.append(images, 0), "closed line")
    a = phi.alphabet_size
    counts = _cell_counts(phi.labels[: n - 1] * a, phi.labels[images], a)
    return Coupling.from_counts(counts.reshape(a, a), n - 1)


def _count_view(p):
    if isinstance(p, Dist):
        return p.counts, p.denom
    if isinstance(p, Coupling) and p.is_exact:
        return p.counts, p.denom
    return None


def _real_view(p) -> np.ndarray:
    if isinstance(p, (Dist, Coupling)):
        return p.real
    return np.asarray(p, dtype=np.float64)


def linf(p, q) -> float:
    """Entrywise ℓ∞ distance between distributions, couplings or arrays.

    Exact integer arithmetic when both operands carry count views (the
    result is the correctly rounded float of the exact rational); plain
    float arithmetic otherwise.
    """
    cp, cq = _count_view(p), _count_view(q)
    if cp is not None and cq is not None:
        ap, dp = cp
        aq, dq = cq
        if ap.shape != aq.shape:
            raise ValueError("shape mismatch")
        num = 0
        for x, y in zip(ap.ravel().tolist(), aq.ravel().tolist()):
            num = max(num, abs(x * dq - y * dp))
        return float(Fraction(num, dp * dq))
    rp, rq = _real_view(p), _real_view(q)
    if rp.shape != rq.shape:
        raise ValueError("shape mismatch")
    if rp.size == 0:
        return 0.0
    return float(np.max(np.abs(rp - rq)))


def product_coupling(pi: Dist) -> Coupling:
    """Independent self-coupling ``pi x pi``, exact over denom squared."""
    return Coupling.from_counts(np.outer(pi.counts, pi.counts), pi.denom * pi.denom)


def _margin_gap(j: Coupling, target: np.ndarray):
    """Sup-norm distance from both margins of ``j`` to ``target``.

    ``target`` is one distribution (a float comes back) or a stack of them
    along the last axis (one gap per row).
    """
    return np.maximum(
        np.abs(j.row_margin() - target).max(axis=-1),
        np.abs(j.col_margin() - target).max(axis=-1),
    )


def mixture_coupling(c: Coupling, eps: float, pi: Dist) -> Coupling:
    """Blend ``(1-eps)*c + eps*(pi x pi)``; margins stay ``pi``.

    Every entry moves by at most ``eps`` and is at least ``eps * min(pi)^2``,
    so fully supported ``pi`` and ``eps > 0`` make every entry positive,
    which is what downstream rounding needs.  Both margins of ``c`` must
    equal ``pi``: exactly for an exact ``c``, within ``REAL_TOL`` otherwise.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("mixture weight must lie in [0, 1]")
    if c.alphabet_size != pi.alphabet_size:
        match = False
    elif c.is_exact:
        # count views compare as Python ints: a float test would pass
        # margins that differ by less than REAL_TOL
        margins = c.counts.sum(axis=1).tolist() + c.counts.sum(axis=0).tolist()
        target = pi.counts.tolist() * 2
        match = all(m * pi.denom == t * c.denom for m, t in zip(margins, target))
    else:
        match = _margin_gap(c, pi.real) <= REAL_TOL
    if not match:
        raise ValueError("coupling margins do not match the mixing distribution")
    prod = product_coupling(pi)
    return Coupling.from_probs((1.0 - eps) * c.real + eps * prod.real)
