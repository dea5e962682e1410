"""The signed cell-count kernel against the frozen sort-and-merge oracle.

``spaces._cell_rule`` over every point of both sides, weighing a ``p``
point ``n_q`` and a ``q`` point ``-n_p``, returns a tally of the ``p`` side
and a gap that gives, per word, the exact largest ``|c_p·n_q - c_q·n_p|``
over the cells ``(label, moved label)``: dense ``bincount`` when
``k*k <= max(n_p, n_q)``, one sort of both sides' codes otherwise.
``reference_impl`` holds the per-side ``np.unique`` counts and the
``union1d``/``searchsorted`` merge it replaced; every gap must equal that
oracle's ``Fraction`` exactly, on both branches, at the branch boundary,
with unequal point counts, one-sided cells, empty atoms, a single atom and
a single point.  A tally made once must give the same gaps against every
other side, and ``weak._counted`` with ``weak._distance_from`` must give
the letter statistics and ``kechris_distance``.  ``weak._gaps``
compares two sides through one rule, over every point or over the points
where sides on the same points disagree; both must match the oracle
whether the sides agree everywhere, on all but a few points or nowhere.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from orbitforge import (
    FiniteAction,
    Observable,
    ReducedWord,
    ball,
    kechris_distance,
    stats_matrix,
)
from orbitforge import spaces, weak
from orbitforge.freegroup import _Translates


def _oracle(p, moved_p, q, moved_q) -> Fraction:
    k = p.alphabet_size
    keys_p, cnt_p = np.unique(p.labels * k + moved_p, return_counts=True)
    keys_q, cnt_q = np.unique(q.labels * k + moved_q, return_counts=True)
    return ref._max_cell_diff(keys_p, cnt_p, p.n, keys_q, cnt_q, q.n)


def _every_point(p, q):
    """``(tally, gap)`` of ``_cell_rule`` over every point of ``p`` and ``q``."""
    return spaces._cell_rule(p.labels, q.labels, p.alphabet_size, q.n, p.n)


def _label_gap(p, q):
    """One gap of ``_every_point`` from translated labels on both sides."""
    tally, gap = _every_point(p, q)
    return lambda moved_p, moved_q: gap(tally(moved_p), moved_q)


def _gap(p, moved_p, q, moved_q) -> Fraction:
    return Fraction(_label_gap(p, q)(moved_p, moved_q), p.n * q.n)


def _side(n, k, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, size=n)
    moved = rng.integers(0, k, size=n).astype(np.uint8 if k <= 256 else np.int64)
    return Observable(labels, k), moved


@st.composite
def sides(draw):
    k = draw(st.integers(1, 12))
    # labels from a sub-range leave atoms empty; a point count below k*k
    # takes the sparse branch, one at or above it the dense branch
    used = draw(st.integers(1, k))
    out = []
    for _ in range(2):
        n = draw(st.integers(1, 40))
        labels = draw(st.lists(st.integers(0, used - 1), min_size=n, max_size=n))
        moved = draw(st.lists(st.integers(0, used - 1), min_size=n, max_size=n))
        out += [Observable(np.array(labels), k), np.array(moved, dtype=np.uint8)]
    return out


@given(sides())
@settings(max_examples=300, deadline=None)
def test_gap_matches_oracle(case):
    p, moved_p, q, moved_q = case
    assert _gap(p, moved_p, q, moved_q) == _oracle(p, moved_p, q, moved_q)


def _count_dense(monkeypatch):
    calls = []
    original = spaces._cell_counts

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(spaces, "_cell_counts", counted)
    return calls


@pytest.mark.parametrize(
    "k, n_p, n_q, dense",
    [
        (3, 9, 9, True),  # k*k exactly at n
        (3, 8, 8, False),  # one point short of it
        (3, 9, 4, True),  # the larger side decides
        (4, 16, 15, True),
        (5, 24, 24, False),
        (1, 1, 1, True),  # one point, one atom
        (2, 1, 1, False),  # one point, the sparse branch
        (300, 2000, 2000, False),
        (40, 2000, 1999, True),
    ],
)
def test_branches_match_oracle(monkeypatch, k, n_p, n_q, dense):
    calls = _count_dense(monkeypatch)
    for seed in range(5):
        p, moved_p = _side(n_p, k, seed)
        q, moved_q = _side(n_q, k, seed + 100)
        assert _gap(p, moved_p, q, moved_q) == _oracle(p, moved_p, q, moved_q)
    assert bool(calls) == dense


@pytest.mark.parametrize("k, n, dense", [(2, 4, True), (3, 3, False)])
def test_unequal_point_counts_weigh_each_side(monkeypatch, k, n, dense):
    # P has all n points in cell (0, 0); Q has 2n-2 of its 2n-1 points there
    # and one in cell (0, 1), which P never meets
    calls = _count_dense(monkeypatch)
    p = Observable(np.zeros(n, dtype=np.int64), k)
    q = Observable(np.zeros(2 * n - 1, dtype=np.int64), k)
    moved_p = np.zeros(n, dtype=np.uint8)
    moved_q = np.zeros(2 * n - 1, dtype=np.uint8)
    moved_q[-1] = 1
    # frequencies 1 against (2n-2)/(2n-1) and 0 against 1/(2n-1)
    assert _gap(p, moved_p, q, moved_q) == Fraction(1, 2 * n - 1)
    assert _gap(p, moved_p, q, moved_q) == _oracle(p, moved_p, q, moved_q)
    assert _gap(q, moved_q, p, moved_p) == Fraction(1, 2 * n - 1)
    assert bool(calls) == dense


@pytest.mark.parametrize("k, n", [(3, 60), (3, 9), (8, 60), (1, 5)])
def test_one_tally_serves_every_other_side_of_its_size(k, n):
    # weak._counted tallies the pipeline's target once, against itself, and
    # _distance_from reads the tallies through the gap of each sampled side
    # of the same size and alphabet; dense (k*k <= n) and sparse cases alike
    p, moved_p = _side(n, k, 1)
    tally, _ = _every_point(p, p)
    table = tally(moved_p)
    for seed in (2, 3, 4):
        q, moved_q = _side(n, k, seed)
        _, gap = _every_point(p, q)
        got = Fraction(gap(table, moved_q), n * n)
        assert got == _oracle(p, moved_p, q, moved_q)


@pytest.mark.parametrize("k, n", [(3, 60), (8, 60), (1, 5)])
@pytest.mark.parametrize("rank", [1, 2])
def test_counted_side_gives_the_letter_statistics_and_kechris_distance(rank, k, n):
    # the pair target of generator s is the statistics of s^-1, and every
    # other side's distance from the tallies is kechris_distance's
    rng = np.random.default_rng(rank * 100 + k)
    v = FiniteAction.from_perms([rng.permutation(n) for _ in range(rank)])
    p = Observable(rng.integers(0, k, size=n), k)
    words = ball(rank, 2)
    pairs, tallies = weak._counted(v, p, words)
    assert len(pairs) == rank
    for s, pair in enumerate(pairs, start=1):
        want = stats_matrix(v, p, ReducedWord((-s,)))
        assert pair.denom == want.denom
        assert np.array_equal(pair.counts, want.counts)
    for _ in range(3):
        w = FiniteAction.from_perms([rng.permutation(n) for _ in range(rank)])
        q = Observable(rng.integers(0, k, size=n), k)
        got = weak._distance_from(p, tallies, w, q)
        assert repr(got) == repr(ref.kechris_distance(v, w, p, q, words))
    assert weak._distance_from(p, tallies, v, p) == 0


@pytest.mark.parametrize("n", [1, 5, 50])
def test_identical_sides_and_single_atom_give_zero(n):
    p, moved = _side(n, 3, 7)
    assert _label_gap(p, p)(moved, moved) == 0
    one = Observable(np.zeros(n, dtype=np.int64), 1)
    zeros = np.zeros(n, dtype=np.uint8)
    assert _label_gap(one, one)(zeros, zeros) == 0


def test_cells_on_one_side_only():
    # P and Q meet disjoint cells: every cell counts against one side alone
    for k, n in ((2, 6), (5, 6)):
        p = Observable(np.zeros(n, dtype=np.int64), k)
        q = Observable(np.full(n, k - 1), k)
        moved_p = np.zeros(n, dtype=np.uint8)
        moved_q = np.full(n, k - 1, dtype=np.uint8)
        assert _gap(p, moved_p, q, moved_q) == 1
        assert _oracle(p, moved_p, q, moved_q) == 1


def test_refuses_mismatched_alphabets_and_overflowing_codes():
    one = Observable(np.zeros(1, dtype=np.int64), 2)
    v = FiniteAction.from_perms([np.zeros(1, dtype=np.int64)])
    with pytest.raises(ValueError, match="same atom count"):
        kechris_distance(v, v, one, Observable(np.zeros(1, dtype=np.int64), 3), [])
    # 2k^2 = 2^63 cell codes would wrap int64
    wide = Observable(np.zeros(1, dtype=np.int64), 2**31)
    with pytest.raises(ValueError, match="too many"):
        _every_point(wide, wide)
    fits = Observable(np.zeros(1, dtype=np.int64), 2**30)
    zero = np.zeros(1, dtype=np.uint32)
    assert _label_gap(fits, fits)(zero, zero) == 0


@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 30),
    st.integers(1, 30),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_word_statistics_match_frozen_oracle(rank, k, n_p, n_q, seed):
    # the oracle reads each word's permutation, the kernel the label tables
    rng = np.random.default_rng(seed)
    v = FiniteAction.from_perms([rng.permutation(n_p) for _ in range(rank)])
    w = FiniteAction.from_perms([rng.permutation(n_q) for _ in range(rank)])
    p = Observable(rng.integers(0, k, size=n_p), k)
    q = Observable(rng.integers(0, k, size=n_q), k)
    words = ball(rank, 2)
    moved_p = _Translates(v, p, words)
    moved_q = _Translates(w, q, words)
    gap = _label_gap(p, q)
    for g in words:
        kp, cp = ref._sparse_pair_counts(v, p, g, k)
        kq, cq = ref._sparse_pair_counts(w, q, g, k)
        want = ref._max_cell_diff(kp, cp, n_p, kq, cq, n_q)
        assert Fraction(gap(moved_p[g], moved_q[g]), n_p * n_q) == want
    if n_p == n_q:
        assert kechris_distance(v, w, p, q, words) == ref.kechris_distance(
            v, w, p, q, words
        )


def test_generator_letters_on_a_fine_refinement():
    # the certificate's hypothesis loop: about one atom per point
    rng = np.random.default_rng(11)
    n = 3000
    v = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    w = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    k = 2000
    p = Observable(rng.permutation(n) % k, k)
    q = Observable(rng.permutation(n) % k, k)
    letters = [ReducedWord((s,)) for s in (1, -1, 2, -2)]
    moved_p = _Translates(v, p, letters)
    moved_q = _Translates(w, q, letters)
    gap = _label_gap(p, q)
    for g in letters:
        want = _oracle(p, moved_p[g], q, moved_q[g])
        assert Fraction(gap(moved_p[g], moved_q[g]), n * n) == want


@st.composite
def paired_sides(draw):
    # q agrees with p everywhere, off a few points, or nowhere in general
    # (fresh labels, or another point count); k*k against the point count
    # picks the dense or the sparse branch
    k = draw(st.integers(1, 12))
    n = draw(st.integers(1, 60))
    symbols = st.integers(0, k - 1)
    labels = np.array(draw(st.lists(symbols, min_size=n, max_size=n)))
    moved = np.array(draw(st.lists(symbols, min_size=n, max_size=n)), dtype=np.uint8)
    how = draw(st.sampled_from(["same", "few", "fresh", "unequal"]))
    if how in ("same", "few"):
        labels_q, moved_q = labels.copy(), moved.copy()
        if how == "few":
            changed = draw(st.sets(st.integers(0, n - 1), max_size=max(1, n // 4)))
            for x in changed:
                labels_q[x] = draw(symbols)
                moved_q[x] = draw(symbols)
    else:
        m = draw(st.integers(1, 60).filter(lambda m: m != n)) if how == "unequal" else n
        labels_q = np.array(draw(st.lists(symbols, min_size=m, max_size=m)))
        moved_q = np.array(
            draw(st.lists(symbols, min_size=m, max_size=m)), dtype=np.uint8
        )
    return Observable(labels, k), moved, Observable(labels_q, k), moved_q


def _word_gap(p, moved_p, q, moved_q, points) -> Fraction:
    """One word's gap from ``weak._gaps`` over ``points``, or every point:
    each side's moved labels are the identity's translate of a partition."""
    g = ReducedWord()
    k = p.alphabet_size
    tables = [
        _Translates(FiniteAction.from_perms(np.arange(m.size)), Observable(m, k), [g])
        for m in (moved_p, moved_q)
    ]
    return Fraction(weak._gaps(p, q, [g], *tables, points)[0], p.n * q.n)


@given(paired_sides())
@settings(max_examples=300, deadline=None)
def test_paired_gap_matches_oracle(case):
    # on every point, also with unequal point counts, and on sides on the
    # same points over just the points where they disagree
    p, moved_p, q, moved_q = case
    want = _oracle(p, moved_p, q, moved_q)
    assert _word_gap(p, moved_p, q, moved_q, None) == want
    assert _gap(p, moved_p, q, moved_q) == want
    if p.n == q.n:
        disagree = np.flatnonzero((p.labels != q.labels) | (moved_p != moved_q))
        assert _word_gap(p, moved_p, q, moved_q, disagree) == want
        if not disagree.size:
            assert want == 0
