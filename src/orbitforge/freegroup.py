"""Reduced words in a finitely generated free group and their finite actions.

Letters are signed generator indices: ``+k`` is the k-th generator (1-based),
``-k`` its inverse.  A finite action assigns one permutation per generator
and extends to words by composition.

Composition convention: ``(uv)·P = u·(v·P)``, i.e. the leftmost letter acts
last on the point.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .permutations import CycleDecomposition, _cycle_decomposition
from .spaces import _PACK_LIMIT, Observable, _as_int64, _as_permutation, _frozen

__all__ = [
    "ReducedWord",
    "FiniteAction",
    "ball",
    "refine_partition",
    "parse_word",
    "format_word",
]


@dataclass(frozen=True)
class ReducedWord:
    """Freely reduced word; empty tuple is the identity."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        letters = tuple(_as_int64(self.letters, "letters").tolist())
        object.__setattr__(self, "letters", letters)
        for prev, cur in zip(letters, letters[1:]):
            if prev == -cur:
                raise ValueError("word is not freely reduced")
        if 0 in letters:
            raise ValueError("letters are nonzero signed indices")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        return format_word(self)


def _reduce_word(letters) -> ReducedWord:
    """Freely reduce a letter sequence (cancel adjacent inverse pairs)."""
    stack: list[int] = []
    for v in _as_int64(list(letters), "letters").tolist():
        if v == 0:
            raise ValueError("letters are nonzero signed indices")
        if stack and stack[-1] == -v:
            stack.pop()
        else:
            stack.append(v)
    return ReducedWord(tuple(stack))


def ball(rank: int, radius: int) -> list[ReducedWord]:
    """All reduced words of length <= radius, ordered by length then lex.

    Breadth-first extension over the letters s1, s1^-1, s2, ... that never
    appends the inverse of the last letter, so every word is produced
    exactly once; extending a lex-ordered level letter by letter in that
    order leaves the next level lex-ordered too.
    """
    if rank < 1:
        raise ValueError("need at least one generator")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    letters = [v for k in range(1, rank + 1) for v in (k, -k)]
    out: list[ReducedWord] = [ReducedWord()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        nxt: list[tuple[int, ...]] = []
        for w in frontier:
            for v in letters:
                if w and w[-1] == -v:
                    continue
                nxt.append(w + (v,))
        out.extend(ReducedWord(w) for w in nxt)
        frontier = nxt
    return out


@dataclass(frozen=True)
class FiniteAction:
    """One permutation of ``{0..n-1}`` per free generator.

    The generators' cycle decompositions are read-only and built on first
    use, once per action: rewiring keeps orbits, so one source action serves
    a whole eps schedule.  No inverse permutation is kept: word translation
    gathers an inverse letter through its generator.
    """

    perms: np.ndarray

    def __post_init__(self):
        perms = _as_int64(self.perms, "generator images")
        if perms.ndim != 2:
            raise ValueError("perms must be a (rank, n) array")
        if perms.shape[1] < 1:
            raise ValueError("an action needs at least one point")
        for k, row in enumerate(perms, 1):
            _as_permutation(row, f"generator {k}")
        object.__setattr__(self, "perms", _frozen(perms))

    @classmethod
    def from_perms(cls, perms) -> "FiniteAction":
        perms = np.asarray(perms)
        if perms.ndim == 1:
            perms = perms[None, :]
        return cls(perms)

    @property
    def rank(self) -> int:
        return int(self.perms.shape[0])

    @property
    def n(self) -> int:
        return int(self.perms.shape[1])

    @cached_property
    def cycle_decompositions(self) -> tuple[CycleDecomposition, ...]:
        return tuple(_cycle_decomposition(p) for p in self.perms)


def _label_dtype(alphabet_size: int) -> np.dtype:
    """Smallest unsigned dtype holding ``alphabet_size - 1`` (int64 past 32 bits)."""
    dt = np.min_scalar_type(alphabet_size - 1)
    return dt if dt.kind == "u" and dt.itemsize <= 4 else np.dtype(np.int64)


class _Translates:
    """One side's translates ``g·P`` of ``words`` under ``a``, on every point
    or on the sorted ``points``; each is built from its suffix parent the
    first time it is read, and kept.

    For ``g = s·h``, ``(g·P)(x) = (h·P)(s^{-1}x)``.  An inverse letter
    ``s = -k`` is one gather through generator ``k``.  On every point, a
    generator ``s = k`` is one scatter through it, ``moved[perms[k-1]] =
    parent``, as ``(g·P)(s·y) = (h·P)(y)``; at some points it reads their
    ``_preimages``.  No inverse permutation is built.  On ``points``, where
    ``s^{-1}x`` leaves them ``h`` is read from ``behind``, the every-point
    table of another side that agrees with this one off the points.  The
    identity maps to the labels themselves.  Arrays are read-only, in the
    smallest unsigned dtype that holds every label.
    """

    def __init__(
        self, a: FiniteAction, p: Observable, words, points=None, behind=None
    ):
        if p.n != a.n:
            raise ValueError("partition size does not match the action")
        self.words = list(dict.fromkeys(words))
        for g in self.words:
            for s in reversed(g.letters):
                if abs(s) > a.rank:
                    raise ValueError(f"letter {s} outside rank {a.rank}")
        self.perms, self.points, self.behind = a.perms, points, behind
        labels = p.labels.astype(_label_dtype(p.alphabet_size))
        if points is not None:
            labels = labels[points]
            self.slot = np.full(a.n, -1, dtype=np.int64)
            self.slot[points] = np.arange(points.size)
        self.table = {(): _frozen(labels)}
        self.before = {None: points}  # s^{-1} of the table's points, by letter s

    def __getitem__(self, g: ReducedWord) -> np.ndarray:
        return self.whole(g.letters)

    def whole(self, letters: tuple) -> np.ndarray:
        """The translate of the word spelled ``letters`` on the table's
        points, and of each of its suffixes, built if it is not yet."""
        missing = []
        while letters not in self.table:
            missing.append(letters)
            letters = letters[1:]
        for letters in reversed(missing):
            s, h = letters[0], letters[1:]
            if self.points is None and s > 0:
                moved = np.empty_like(self.table[h])
                moved[self.perms[s - 1]] = self.table[h]
            else:
                moved = self._step(letters, self.before)
            self.table[letters] = _frozen(moved)
        return self.table[letters]

    def columns(self):
        """Each word's translate, shortest first and, of one length, those
        that gather (first letter an inverse) before those that scatter: a
        refinement that stops reading builds no word it leaves."""
        # (s,) > (0,) exactly when the first letter s is a generator
        for g in sorted(self.words, key=lambda g: (len(g), g.letters[:1] > (0,))):
            yield self[g]

    def at(self, points):
        """A reader of each word's translate at ``points``, which may repeat,
        or on the table's own points when ``points`` is ``None``."""
        if points is None:
            return self.__getitem__
        before = {None: points}
        return lambda g: self._step(g.letters, before)

    def _step(self, letters: tuple, before: dict) -> np.ndarray:
        """The translate of ``letters`` at the points ``before[None]``: read
        there if built, otherwise, for ``s·h``, read off ``h``, built, at
        ``before[s]``, ``s^{-1}`` of the points, kept for the next word.
        Every point (``None``) is stepped only by an inverse letter."""
        s = None if letters in self.table else letters[0]
        if s not in before:
            points = before[None]
            if s > 0:
                before[s] = _preimages(self.perms[s - 1], points)
            else:
                perm = self.perms[-s - 1]
                before[s] = perm if points is None else perm[points]
        return self._read(letters if s is None else letters[1:], before[s])

    def _read(self, letters: tuple, targets) -> np.ndarray:
        """The translate of ``letters`` at ``targets``, read from ``behind``
        off the table's points."""
        own = self.whole(letters)
        if self.points is None:
            return own[targets]
        order = self.slot[targets]
        off = np.flatnonzero(order < 0)
        if off.size:
            own = np.concatenate((own, self.behind.whole(letters)[targets[off]]))
            order[off] = np.arange(self.points.size, own.size)
        return own[order]


def _preimages(perm: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``perm^{-1}`` at ``points``, from one boolean gather ``mask[perm]``
    of their mask: no inverse table is built."""
    mask = np.zeros(perm.shape[0], dtype=bool)
    mask[points] = True
    before = np.flatnonzero(mask[perm])
    source = np.empty(perm.shape[0], dtype=np.int64)  # set at the points only
    source[perm[before]] = before
    return source[points]


def refine_partition(p: Observable, words, a: FiniteAction) -> Observable:
    """Common refinement of the translated partitions ``{g·P : g in words}``.

    Point x lands in the atom determined by its translated-label signature
    ``(P(g^{-1}x))_{g}``, the labels of the translates ``g·P``.
    Atom ids are dense, numbered by first occurrence in point order, so the
    output is reproducible.  The words are translated as the refinement
    reads them (``_Translates.columns``), and those left once a test of the
    packed signatures finds every point in its own atom are never
    translated: the refinement is already discrete.
    """
    words = list(words)
    if not words:
        raise ValueError("need at least one word")
    return _refine(_Translates(a, p, words).columns(), p.alphabet_size, p.n)


_GROUP_LIMIT = 2**16


def _refine(columns, k: int, n: int) -> Observable:
    """``refine_partition`` from label columns in ``{0..k-1}``, read in order.

    Signatures are packed into one int64 code in mixed radix ``k``.  A small
    alphabet's digits are first packed ``width`` at a time into 16-bit
    groups (``k^width <= 2^16``), and each group is folded into the code.
    Before a group that could carry the code past 2^62 is read, the code is
    tested: if every point has its own code, no further word can split an
    atom, and the atoms are the points themselves, the ids first-occurrence
    numbering gives, with no further column read.  Otherwise it is
    dense-ranked, and so is it at the end.  Column order changes neither
    the atoms nor their ids.
    """
    width = 1
    while width < 16 and k ** (width + 1) <= _GROUP_LIMIT:
        width += 1
    columns = iter(columns)
    code = np.zeros(n, dtype=np.int64)
    bound, ranked = 1, True  # every code is below bound; ranked: codes are dense
    while True:
        if not ranked and bound * k**width > _PACK_LIMIT:
            # a plain sort tells whether every code is distinct, for less
            # than the dense rank np.unique makes
            ordered = np.sort(code)
            if not np.any(ordered[1:] == ordered[:-1]):
                return Observable(np.arange(n), n)
            distinct, code = np.unique(code, return_inverse=True)
            bound, ranked = distinct.shape[0], True
        group, radix = None, 1
        for digits in itertools.islice(columns, width):
            if group is None:
                group = digits.astype(np.uint16) if width > 1 else digits
            else:
                group *= k
                group += digits
            radix *= k
        if group is None:
            break
        if bound * radix > _PACK_LIMIT:
            # only alphabets wider than 2^62 / n get here: rank the digits too
            distinct, group = np.unique(group, return_inverse=True)
            radix = distinct.shape[0]
        code *= radix
        code += group
        bound, ranked = bound * radix, False
    if not ranked:
        distinct, code = np.unique(code, return_inverse=True)
        bound = distinct.shape[0]
    first = _first_points(code, bound)
    # an atom's id counts the atoms whose first point comes before its own
    rank = np.cumsum(np.bincount(first, minlength=n))[first] - 1
    return Observable(rank[code], bound)


def _first_points(labels: np.ndarray, k: int) -> np.ndarray:
    """Least point of each label in ``{0..k-1}``; the point count if none has it."""
    first = np.full(k, labels.shape[0], dtype=np.int64)
    np.minimum.at(first, labels, np.arange(labels.shape[0]))
    return first


# "e" spells the identity, so no generator takes it: a, b, c, d, f, ..., z
_LOWER = string.ascii_lowercase.replace("e", "")


def parse_word(text: str, rank: int) -> ReducedWord:
    """Parse ``"a B a"`` style words: lowercase generator, uppercase inverse.

    Generators 1..25 are named ``a b c d f ... z``; ``e`` is the identity.
    """
    text = text.strip()
    if text in ("", "e"):
        return ReducedWord()
    letters = []
    for tok in text.split():
        if len(tok) != 1 or tok.lower() not in _LOWER:
            raise ValueError(f"bad word token {tok!r}")
        idx = _LOWER.index(tok.lower()) + 1
        if idx > rank:
            raise ValueError(f"token {tok!r} exceeds rank {rank}")
        letters.append(idx if tok.islower() else -idx)
    return _reduce_word(letters)


def format_word(w: ReducedWord) -> str:
    if w.is_identity:
        return "e"
    if max(map(abs, w.letters)) > len(_LOWER):
        raise ValueError(f"only generators 1..{len(_LOWER)} have letter names")
    out = []
    for v in w.letters:
        ch = _LOWER[abs(v) - 1]
        out.append(ch if v > 0 else ch.upper())
    return " ".join(out)
