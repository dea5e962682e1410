"""Translated-label tables against the frozen evaluate-based oracle.

``reference_impl`` holds the word-ball statistics as they were before the
tables: each word's permutation rebuilt letter by letter and a row sort of
the full signature matrix.  Refinements, Kechris distances and transport
certificates must agree with it byte for byte, including on word lists that
repeat a word or miss a suffix, on empty atoms and on a single point.
"""

import importlib
import sys
from collections import Counter

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
    ball_transport_certificate,
    kechris_distance,
    refine_partition,
    stats_matrix,
)
from orbitforge import freegroup, spaces, weak
from orbitforge.freegroup import _reduce_word, _Translates


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "raised", (type(exc), str(exc))


@st.composite
def actions(draw, rank, n):
    perms = [draw(st.permutations(range(n))) for _ in range(rank)]
    return FiniteAction.from_perms(np.array(perms, dtype=np.int64).reshape(rank, n))


@st.composite
def partitions(draw, n, k):
    # labels from a prefix of the alphabet, so trailing atoms may be empty
    used = draw(st.integers(1, k))
    labels = draw(st.lists(st.integers(0, used - 1), min_size=n, max_size=n))
    return Observable(np.array(labels, dtype=np.int64), k)


@st.composite
def word_lists(draw, rank):
    letter = st.sampled_from([s for k in range(1, rank + 1) for s in (k, -k)])
    words = st.lists(letter, max_size=5).map(_reduce_word)
    return draw(st.lists(words, min_size=1, max_size=10))


def balls_or_word_lists(rank):
    return st.one_of(st.integers(0, 3).map(lambda r: ball(rank, r)), word_lists(rank))


@st.composite
def instances(draw, max_n=24):
    rank = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, 4))
    return rank, n, k, draw(actions(rank, n)), draw(partitions(n, k))


def assert_same_partition(new, old):
    assert new.alphabet_size == old.alphabet_size
    assert new.labels.dtype == old.labels.dtype
    assert new.labels.tobytes() == old.labels.tobytes()


@given(instances(), st.data())
@settings(max_examples=150, deadline=None)
def test_translated_labels_match_oracle(inst, data):
    rank, n, k, a, p = inst
    words = data.draw(word_lists(rank))
    table = _Translates(a, p, words)
    assert set(table.words) == set(words)
    for g in words:
        want = ref._translated_labels(p, ref.evaluate(a, g))
        assert table[g].dtype == np.uint8
        assert not table[g].flags.writeable
        assert np.array_equal(table[g], want)


def test_translated_labels_dtype_fits_alphabet():
    a = FiniteAction.from_perms([[1, 0]])
    cases = ((1, np.uint8), (256, np.uint8), (257, np.uint16), (2**17, np.uint32))
    for k, dtype in cases:
        p = Observable(np.array([0, k - 1]), k)
        table = _Translates(a, p, [ReducedWord((1,))])
        assert table[ReducedWord((1,))].dtype == dtype
        assert table[ReducedWord((1,))].tolist() == [k - 1, 0]


@given(instances(), st.data())
@settings(max_examples=150, deadline=None)
def test_refine_partition_matches_oracle(inst, data):
    rank, n, k, a, p = inst
    words = data.draw(balls_or_word_lists(rank))
    new = refine_partition(p, words, a)
    assert_same_partition(new, ref.refine_partition(p, words, a))


@given(instances(), st.data())
@settings(max_examples=100, deadline=None)
def test_kechris_distance_matches_oracle(inst, data):
    rank, n, k, v, p = inst
    w = data.draw(actions(rank, n))
    q = data.draw(partitions(n, k))
    words = data.draw(balls_or_word_lists(rank))
    new = kechris_distance(v, w, p, q, words)
    old = ref.kechris_distance(v, w, p, q, words)
    assert repr(new) == repr(old)


@given(instances(), st.integers(0, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_certificate_matches_oracle(inst, radius, data):
    rank, n, k, v, p = inst
    w = data.draw(st.one_of(st.just(v), actions(rank, n)))
    atoms = ref.refine_partition(p, ball(rank, radius), v).alphabet_size
    beta = np.array(data.draw(st.permutations(range(atoms))), dtype=np.int64)
    eps = data.draw(st.sampled_from([0.01, 0.2, 0.5]))
    new = _outcome(ball_transport_certificate, v, w, p, radius, beta, eps)
    old = _outcome(ref.ball_transport_certificate, v, w, p, radius, beta, eps)
    assert repr(new) == repr(old)


def test_certificate_with_image_partition_matches_oracle():
    rng = np.random.default_rng(21)
    n = 300
    v = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    w = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    p = Observable(rng.integers(0, 3, size=n), 4)
    pprime = ref.refine_partition(p, ball(2, 1), v)
    beta = Observable(pprime.labels[rng.permutation(n)], pprime.alphabet_size)
    new = ball_transport_certificate(v, w, p, 1, beta, 0.3)
    old = ref.ball_transport_certificate(v, w, p, 1, beta, 0.3)
    assert repr(new) == repr(old)


@pytest.mark.parametrize("form", ["atom ids", "image partition"])
def test_certificate_with_few_moved_points_matches_oracle(form):
    # beta moves few points: two refinement atoms trade ids, or the aligned
    # image partition relabels a few points.  w is unrelated, so claim 2
    # gathers beta's image on every point, and must still match the oracle
    rng = np.random.default_rng(22)
    n = 400
    v = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    w = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    p = Observable(rng.integers(0, 3, size=n), 3)
    pprime = ref.refine_partition(p, ball(2, 1), v)
    k = pprime.alphabet_size
    if form == "atom ids":
        beta = np.arange(k)
        beta[[3, 7]] = beta[[7, 3]]
    else:
        labels = pprime.labels.copy()
        labels[[0, 10, 20]] = labels[[20, 0, 10]]
        beta = Observable(labels, k)
    new = ball_transport_certificate(v, w, p, 1, beta, 0.3)
    old = ref.ball_transport_certificate(v, w, p, 1, beta, 0.3)
    assert repr(new) == repr(old)
    assert max(new.claim2_max_per_word.values()) > 0


def _count_reranks(monkeypatch):
    reranks = Counter()
    unique = np.unique

    def counted(*args, **kwargs):
        if kwargs.get("return_index"):
            reranks["with_index"] += 1
        elif kwargs.get("return_inverse"):
            reranks["calls"] += 1
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    return reranks


def test_wide_signatures_are_reranked(monkeypatch):
    # |A| = 4 over the rank-3 radius-3 ball: 187 columns of 2 bits each, so
    # the packed code is dense-ranked several times on the way.  Points x
    # and x + 100 are moved alike and labelled alike, so no word separates
    # them: at most 100 atoms on 200 points, never discrete
    rng = np.random.default_rng(4)
    half = 100
    perms = [rng.permutation(half) for _ in range(3)]
    a = FiniteAction.from_perms([np.r_[perm, perm + half] for perm in perms])
    p = Observable(np.tile(rng.integers(0, 4, size=half), 2), 4)
    words = ball(3, 3)
    assert len(words) == 187
    reranks = _count_reranks(monkeypatch)
    new = refine_partition(p, words, a)
    monkeypatch.undo()
    # at least two reranks on the way, then the final ranking
    assert reranks["calls"] >= 3
    # atoms are numbered by first occurrence without a stable sort
    assert reranks["with_index"] == 0
    assert new.alphabet_size <= half
    assert_same_partition(new, ref.refine_partition(p, words, a))


def test_discrete_refinement_stops_at_the_first_rerank(monkeypatch):
    # the radius-3 ball over 2 generators has 53 words, 17 of them shorter
    # than the radius.  Three 16-bit groups of 10 digits each already give
    # every one of the 2000 points its own code, so the test before the
    # fourth group stops the refinement: no word after the 30th is
    # translated whole, claim 2 and the final discrepancy read the rest at
    # the near points, and no np.unique ranks a code
    rng = np.random.default_rng(4)
    n = 2000
    v = FiniteAction.from_perms([rng.permutation(n) for _ in range(2)])
    w = _transposed(v, rng, 3)
    p = Observable(rng.integers(0, 3, size=n), 3)
    beta = np.arange(n)
    tables = []

    class Recorded(weak._Translates):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(weak, "_Translates", Recorded)
    reranks = _count_reranks(monkeypatch)
    cert = ball_transport_certificate(v, w, p, 3, beta, 0.2)
    monkeypatch.undo()
    assert reranks == Counter()
    assert cert.refinement_atoms == n
    # the every-point tables are those of (v, P) and (v, P'); the first
    # holds the words translated whole, the identity included
    table = [t for t in tables if t.points is None][0]
    assert len(table.table) <= 30
    assert repr(cert) == repr(ref.ball_transport_certificate(v, w, p, 3, beta, 0.2))


@pytest.mark.parametrize("discrete", [True, False])
@pytest.mark.parametrize("k", [1, 2, 3, 255, 256, 257, 2**16, 2**16 + 1])
def test_refinement_at_the_group_and_dtype_edges(k, discrete):
    # k^width <= 2^16 sets how many digits share a 16-bit group (16 for
    # k <= 2, one past 256) and _label_dtype the label columns (uint8 to
    # 256, uint16 to 2^16, then uint32).  Points x and x + half are moved
    # and labelled alike, so no word separates them; one point alone is
    # the only discrete partition of a single atom
    rng = np.random.default_rng(k)
    half = 1 if k == 1 and discrete else 40
    perms = [rng.permutation(half) for _ in range(2)]
    labels = rng.integers(0, k, size=half)
    labels[0] = k - 1
    if not discrete:
        perms = [np.r_[perm, perm + half] for perm in perms]
        labels = np.tile(labels, 2)
    a = FiniteAction.from_perms(perms)
    p = Observable(labels, k)
    words = ball(2, 3)
    new = refine_partition(p, words, a)
    assert_same_partition(new, ref.refine_partition(p, words, a))
    assert (new.alphabet_size == a.n) == discrete



@given(instances(), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_translates_read_at_points_match_the_whole_table(inst, radius, data):
    # a radius-length word, first letter either sign, read at arbitrary
    # points, some repeated, from its whole parent: the oracle's values
    # there, and no radius-length word is built whole on the way
    rank, n, k, a, p = inst
    words = ball(rank, radius)
    table = _Translates(a, p, words)
    listed = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    points = np.array(listed, dtype=np.int64)
    read = table.at(points)
    for g in words:
        want = ref._translated_labels(p, ref.evaluate(a, g))
        assert np.array_equal(read(g), want[points])
    assert set(table.table) <= {g.letters for g in words if len(g) < radius} | {()}

def test_refine_partition_with_alphabet_wider_than_codes():
    # the radix alone passes 2^62 / n, so the digits are ranked as well
    n, k = 12, 2**62
    a = FiniteAction.from_perms([np.roll(np.arange(n), 1)])
    p = Observable(np.array([0, k - 1, k // 3])[np.arange(n) ** 2 % 7 % 3], k)
    words = ball(1, 3)
    assert _Translates(a, p, words)[words[0]].dtype == np.int64
    new = refine_partition(p, words, a)
    assert_same_partition(new, ref.refine_partition(p, words, a))


@pytest.mark.parametrize("m", [1, 4, 8])
def test_partition_size_must_match_action(m):
    n = 6
    a = FiniteAction.from_perms([np.roll(np.arange(n), 1), np.arange(n)[::-1]])
    good = Observable(np.arange(n) % 2, 2)
    bad = Observable(np.arange(m) % 2, 2)
    msg = "partition size does not match the action"
    with pytest.raises(ValueError, match=msg):
        _Translates(a, bad, ball(2, 1))
    with pytest.raises(ValueError, match=msg):
        refine_partition(bad, ball(2, 1), a)
    with pytest.raises(ValueError, match=msg):
        kechris_distance(a, a, bad, good, ball(2, 1))
    with pytest.raises(ValueError, match=msg):
        kechris_distance(a, a, good, bad, ball(2, 1))
    with pytest.raises(ValueError, match=msg):
        ball_transport_certificate(a, a, bad, 1, np.arange(2), 0.1)


@pytest.mark.parametrize("letter", [2, -2])
def test_letter_beyond_the_rank_is_refused(letter):
    a = FiniteAction.from_perms([np.roll(np.arange(6), 1)])
    p = Observable(np.arange(6) % 2, 2)
    with pytest.raises(ValueError, match=f"^letter {letter} outside rank 1$"):
        _Translates(a, p, [ReducedWord((letter, 1))])


def _count_calls(monkeypatch, targets):
    # wrap each function in every orbitforge namespace that binds it, so
    # calls made through a from-import are counted too
    calls = Counter()
    for module, name in targets:
        original = getattr(importlib.import_module(module), name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "orbitforge":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def _count_whole_tables(monkeypatch):
    """The action of each ``_Translates`` built on every point, in order."""
    actions = []
    init = freegroup._Translates.__init__

    def recorded(self, a, p, words, points=None, behind=None):
        init(self, a, p, words, points, behind)
        if points is None:
            actions.append(a)

    monkeypatch.setattr(freegroup._Translates, "__init__", recorded)
    return actions


def test_certificate_evaluates_no_word(monkeypatch):
    rng = np.random.default_rng(6)
    n = 2000
    v = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    w = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    p = Observable(rng.integers(0, 3, size=n), 3)
    atoms = ref.refine_partition(p, ball(2, 3), v)
    beta = np.arange(atoms.alphabet_size)
    calls = _count_calls(
        monkeypatch,
        [("orbitforge.permutations", "_inverse_permutation")],
    )
    first = ball_transport_certificate(v, w, p, 3, beta, 0.2)
    second = ball_transport_certificate(v, w, p, 3, beta, 0.2)
    # words translate through the generators themselves: a negative letter
    # gathers through its generator, a positive one scatters through it
    assert calls == Counter()
    assert repr(first) == repr(second)


def test_certificate_builds_each_ball_table_once(monkeypatch):
    rng = np.random.default_rng(7)
    n = 500
    v = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    w = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    p = Observable(rng.integers(0, 3, size=n), 3)
    beta = np.arange(ref.refine_partition(p, ball(2, 3), v).alphabet_size)
    tables = _count_whole_tables(monkeypatch)
    cert = ball_transport_certificate(v, w, p, 3, beta, 0.2)
    # unrelated sides: the ball tables of (v, P) and (w, Q), read by the
    # refinement, claim 2 and the final discrepancy, and the hypothesis's
    # letter tables of (v, P') and (w, Q'), each on every point
    assert list(map(id, tables)) == list(map(id, [v, w, v, w]))
    assert repr(cert) == repr(ref.ball_transport_certificate(v, w, p, 3, beta, 0.2))


def _transposed(v, rng, count):
    """``v`` with the images of ``count`` random point pairs swapped, each
    in a random generator."""
    perms = v.perms.copy()
    for _ in range(count):
        k = rng.integers(v.rank)
        x, y = rng.choice(v.n, size=2, replace=False)
        perms[k, [x, y]] = perms[k, [y, x]]
    return FiniteAction.from_perms(perms)


def test_certificate_translates_only_the_v_side_of_nearby_actions(monkeypatch):
    # w is v with 3 transpositions and the image partition relabels 4
    # points: the (w, Q) and (w, Q') sides are built on the points near
    # those, so only the ball table of (v, P) and the letter table of
    # (v, P') are whole tables, and still no inverse is built
    rng = np.random.default_rng(7)
    n = 5000
    v = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    w = _transposed(v, rng, 3)
    p = Observable(rng.integers(0, 3, size=n), 3)
    atoms = ref.refine_partition(p, ball(2, 3), v)
    image = atoms.labels.copy()
    image[[1, 2, 3, 4]] = image[[10, 20, 30, 40]]
    beta = Observable(image, atoms.alphabet_size)
    calls = _count_calls(
        monkeypatch, [("orbitforge.permutations", "_inverse_permutation")]
    )
    tables = _count_whole_tables(monkeypatch)
    cert = ball_transport_certificate(v, w, p, 3, beta, 0.2)
    assert calls == Counter()
    assert list(map(id, tables)) == list(map(id, [v, v]))
    assert repr(cert) == repr(ref.ball_transport_certificate(v, w, p, 3, beta, 0.2))


@st.composite
def nearby_sides(draw):
    # w is v with 0 to n transpositions; Q differs from P at a few or at
    # many points, and so does the certificate's image partition from P'
    n = draw(st.integers(1, 60))
    rank = draw(st.integers(1, 2))
    radius = draw(st.integers(0, 3))
    k = draw(st.integers(1, 4))
    swaps = draw(st.integers(0, n)) if n > 1 else 0
    changed = draw(st.one_of(st.integers(0, 2), st.integers(n // 2, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = FiniteAction.from_perms([rng.permutation(n) for _ in range(rank)])
    p = Observable(rng.integers(0, k, size=n), k)

    def relabeled(labels):
        out = labels.copy()
        points = rng.choice(n, size=min(changed, n), replace=False)
        out[points] = labels[rng.integers(0, n, size=points.size)]
        return out

    q = Observable(relabeled(p.labels), k)
    atoms = ref.refine_partition(p, ball(rank, radius), v)
    image = Observable(relabeled(atoms.labels), atoms.alphabet_size)
    extra = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    return v, _transposed(v, rng, swaps), p, q, radius, image, extra



@given(nearby_sides(), st.booleans())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_near_side_is_the_w_side_where_the_sides_can_differ(case, patch_always):
    # the (w, Q) table on the near points and some extras, with the (v, P)
    # table behind it, holds its translates there, and off the near points
    # the (w, Q) translates are those of (v, P); certificate and distance
    # match the oracle.  Patching at any share of points, not only a few,
    # checks that the near points are a bound, not a guess
    v, w, p, q, radius, image, extra = case
    words = ball(v.rank, radius)
    moved_p, full_q = _Translates(v, p, words), _Translates(w, q, words)
    with pytest.MonkeyPatch.context() as mp:
        if patch_always:
            mp.setattr(weak, "_few_disagree", lambda count, n: True)
        near = weak._near_points(v, w, p, q, radius)
        new_cert = ball_transport_certificate(v, w, p, radius, image, 0.2)
        new_distance = kechris_distance(v, w, p, q, words)
    if near is None:
        assert not patch_always
    else:
        points = np.flatnonzero(near | extra)
        moved_q = _Translates(w, q, words, points, moved_p)
        for g in words:
            assert np.array_equal(moved_q[g], full_q[g][points])
            assert np.array_equal(full_q[g][~near], moved_p[g][~near])
    want = ref.ball_transport_certificate(v, w, p, radius, image, 0.2)
    assert repr(new_cert) == repr(want)
    assert repr(new_distance) == repr(ref.kechris_distance(v, w, p, q, words))

@given(nearby_sides(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_one_table_on_any_superset_of_the_near_points(case, patch_always, data):
    # a (w, Q) table with the (v, P) table behind it, on the near points
    # plus extras, on every point, or, when the near points are none, on
    # none, is the whole (w, Q) table there, and so is its reader at any
    # points, repeated.  The (v, P) reader builds no radius-length word
    # whole.  Patching the split at any share of points, not only a few,
    # checks that the near points are a bound, not a guess: certificate and
    # distance match the oracle
    v, w, p, q, radius, image, extra = case
    words = ball(v.rank, radius)
    listed = data.draw(st.lists(st.integers(0, v.n - 1), max_size=2 * v.n))
    at = np.array(listed, dtype=np.int64)
    moved_p, whole_q = _Translates(v, p, words), _Translates(w, q, words)
    with pytest.MonkeyPatch.context() as mp:
        if patch_always:
            mp.setattr(weak, "_few_disagree", lambda count, n: True)
        near = weak._near_points(v, w, p, q, radius)
        new_cert = ball_transport_certificate(v, w, p, radius, image, 0.2)
        new_distance = kechris_distance(v, w, p, q, words)
    if near is None:
        assert not patch_always
    else:
        supersets = [np.flatnonzero(near | extra), np.arange(v.n)]
        if not near.any():
            supersets.append(np.arange(0))
        for points in supersets:
            table = _Translates(w, q, words, points, moved_p)
            read = table.at(at)
            for g in words:
                assert np.array_equal(table[g], whole_q[g][points])
                assert np.array_equal(read(g), whole_q[g][at])
    fresh = _Translates(v, p, words)
    read = fresh.at(at)
    for g in words:
        assert np.array_equal(read(g), moved_p[g][at])
    assert all(len(letters) < radius for letters in fresh.table if letters)
    want = ref.ball_transport_certificate(v, w, p, radius, image, 0.2)
    assert repr(new_cert) == repr(want)
    assert repr(new_distance) == repr(ref.kechris_distance(v, w, p, q, words))


def _inverse(g):
    return ReducedWord(tuple(-s for s in reversed(g.letters)))


@pytest.mark.parametrize("k, dense", [(3, True), (12, False)])
@pytest.mark.parametrize("rank", [1, 2])
def test_inverse_word_counts_are_the_transpose(monkeypatch, rank, k, dense):
    # mu(P_i ∩ g·P_j) = mu(g^-1·P_i ∩ P_j): the counts of g^-1 are the
    # transpose of those of g on each side, so the two gaps agree, with
    # unequal point counts, on the dense (k*k <= n) and the sparse branch
    rng = np.random.default_rng(rank * 100 + k)
    n_p, n_q = 60, 45
    v = FiniteAction.from_perms([rng.permutation(n_p) for _ in range(rank)])
    w = FiniteAction.from_perms([rng.permutation(n_q) for _ in range(rank)])
    p = Observable(rng.integers(0, k, size=n_p), k)
    q = Observable(rng.integers(0, k, size=n_q), k)
    words = ball(rank, 3)
    moved_p = _Translates(v, p, words)
    moved_q = _Translates(w, q, words)
    dense_calls = []
    original = spaces._cell_counts

    def counted(*args):
        dense_calls.append(1)
        return original(*args)

    monkeypatch.setattr(spaces, "_cell_counts", counted)
    tally, gap = spaces._cell_rule(p.labels, q.labels, k, q.n, p.n)
    for g in words:
        h = _inverse(g)
        for a, part in ((v, p), (w, q)):
            forward, backward = stats_matrix(a, part, g), stats_matrix(a, part, h)
            assert np.array_equal(backward.counts, forward.counts.T)
        assert gap(tally(moved_p[g]), moved_q[g]) == gap(tally(moved_p[h]), moved_q[h])
    assert bool(dense_calls) == dense


def _count_compared(monkeypatch, n):
    # [path, words compared] per two-sided comparison, each one _cell_rule:
    # on every one of the n points, or on the points near where nearby
    # sides differ
    compared = []
    rule = weak._cell_rule

    def counted_rule(labels_p, *args):
        tally, gap = rule(labels_p, *args)
        compared.append(["every" if labels_p.shape[0] == n else "near", 0])

        def count(*args):
            compared[-1][1] += 1
            return gap(*args)

        return tally, count

    monkeypatch.setattr(weak, "_cell_rule", counted_rule)
    return compared


@pytest.mark.parametrize("radius, want", [(2, 9), (3, 27)])
def test_kechris_distance_compares_each_inverse_pair_once(monkeypatch, radius, want):
    # against an unrelated w on every point, and against v with one
    # transposition on the points near it
    rng = np.random.default_rng(radius)
    n = 2000
    v = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    w = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    p = Observable(rng.integers(0, 3, size=n), 3)
    q = Observable(rng.integers(0, 3, size=n), 3)
    words = ball(2, radius)
    compared = _count_compared(monkeypatch, n)
    for other, part in ((w, q), (_transposed(v, rng, 1), p)):
        distance = kechris_distance(v, other, p, part, words)
        assert repr(distance) == repr(ref.kechris_distance(v, other, p, part, words))
    assert compared == [["every", want], ["near", want]]


def test_certificate_compares_each_inverse_pair_once(monkeypatch):
    rng = np.random.default_rng(8)
    n = 2000
    v = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    w = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    p = Observable(rng.integers(0, 3, size=n), 3)
    beta = np.arange(ref.refine_partition(p, ball(2, 2), v).alphabet_size)
    compared = _count_compared(monkeypatch, n)
    for other in (w, _transposed(v, rng, 1)):
        cert = ball_transport_certificate(v, other, p, 2, beta, 0.2)
        want = ref.ball_transport_certificate(v, other, p, 2, beta, 0.2)
        assert repr(cert) == repr(want)
    # each time, the final discrepancy compares 9 words, the letter
    # hypothesis a and b
    assert compared == [["every", 9], ["every", 2], ["near", 9], ["near", 2]]
