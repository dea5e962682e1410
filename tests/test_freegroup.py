import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge import (
    FiniteAction,
    Observable,
    ReducedWord,
    ball,
    format_word,
    inverse_permutation,
    parse_word,
    refine_partition,
)
from orbitforge.freegroup import _reduce_word, _Translates


def test_reduce_cancellation():
    assert _reduce_word([1, -1]).is_identity
    assert _reduce_word([1, 2, -2, 1]).letters == (1, 1)
    assert _reduce_word([1, 2, -1]).letters == (1, 2, -1)


def test_reduce_nested_cancellation():
    assert _reduce_word([1, 2, -2, -1]).is_identity


def test_reduced_word_rejects_unreduced():
    with pytest.raises(ValueError):
        ReducedWord((1, -1))


def test_words_refuse_non_integral_letters():
    # int() would truncate [1.5, -1.7, 2.2] to [1, -1, 2], which reduces to b
    with pytest.raises(ValueError, match="letters must be integers"):
        _reduce_word([1.5, -1.7, 2.2])
    with pytest.raises(ValueError, match="letters must be integers"):
        ReducedWord((1.5,))
    assert _reduce_word([1.0, 2.0]).letters == (1, 2)
    assert ReducedWord((np.int64(2), -1.0)) == ReducedWord((2, -1))


def test_ball_sizes_rank2():
    assert len(ball(2, 0)) == 1
    assert len(ball(2, 1)) == 5
    assert len(ball(2, 2)) == 17


def test_ball_size_formula():
    for rank in (1, 2, 3):
        for r in range(6):
            expected = 1 + sum(
                2 * rank * (2 * rank - 1) ** (i - 1) for i in range(1, r + 1)
            )
            assert len(ball(rank, r)) == expected


def test_ball_deduplicated_and_ordered():
    words = ball(2, 3)
    assert len(set(w.letters for w in words)) == len(words)
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)
    assert words[0].is_identity


def test_ball_orders_each_length_by_letter_order():
    # letters run s1, s1^-1, s2, s2^-1, ...; the words of one length are
    # lexicographic in that order, which fixes the certificate's word order
    assert [w.letters for w in ball(2, 1)] == [(), (1,), (-1,), (2,), (-2,)]
    assert [w.letters for w in ball(2, 2)][5:9] == [(1, 1), (1, 2), (1, -2), (-1, -1)]
    for rank, radius in ((1, 5), (2, 5), (3, 3), (4, 3)):
        letters = [v for k in range(1, rank + 1) for v in (k, -k)]
        keys = [
            (len(w), [letters.index(v) for v in w.letters]) for w in ball(rank, radius)
        ]
        assert keys == sorted(keys)


def test_translated_labels_identity_and_generators():
    # (g·P)(x) = P(g^-1 x): the identity keeps the labels, s1 reads them
    # through perms[0]^-1 and s1^-1 through perms[0]
    a = FiniteAction.from_perms([[1, 2, 0], [1, 0, 2]])
    p = Observable([0, 1, 2], 3)
    e, s1, s1_inv = ReducedWord(), ReducedWord((1,)), ReducedWord((-1,))
    table = _Translates(a, p, [e, s1, s1_inv])
    assert np.array_equal(table[e], p.labels)
    assert np.array_equal(table[s1], [2, 0, 1])
    assert np.array_equal(table[s1_inv], [1, 2, 0])


def test_translated_labels_composition_convention():
    # leftmost letter acts last: (s1 s2)·P = s1·(s2·P), so the labels are
    # read through the inverse of s2 first and that of s1 last
    a = FiniteAction.from_perms([[1, 2, 0], [1, 0, 2]])
    p = Observable([0, 1, 2], 3)
    w = ReducedWord((1, 2))
    table = _Translates(a, p, [w])
    assert np.array_equal(table[w], [2, 1, 0])
    inverses = [inverse_permutation(perm) for perm in a.perms]
    assert np.array_equal(table[w], p.labels[inverses[1]][inverses[0]])


def test_refine_with_identity_is_relabeling():
    p = Observable([0, 1, 1, 0, 2], 3)
    a = FiniteAction.from_perms([np.arange(5)])
    q = refine_partition(p, [ReducedWord()], a)
    # same partition, atoms renumbered by first appearance
    assert q.alphabet_size == 3
    assert np.array_equal(q.labels, [0, 1, 1, 0, 2])


def test_refine_single_atom():
    p = Observable.constant(6)
    a = FiniteAction.from_perms([np.roll(np.arange(6), -1)])
    q = refine_partition(p, ball(1, 2), a)
    assert q.alphabet_size == 1


def test_refine_four_point_example():
    # P = {{0,1},{2,3}}, s1: i -> i+1 mod 4; refinement cuts to singletons
    p = Observable([0, 0, 1, 1], 2)
    shift = np.array([1, 2, 3, 0])
    a = FiniteAction.from_perms([shift])
    q = refine_partition(p, [ReducedWord(), ReducedWord((1,))], a)
    assert q.alphabet_size == 4
    assert np.array_equal(q.labels, [0, 1, 2, 3])


def test_refine_refines_and_atom_count():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(4, 40))
        k = int(rng.integers(1, 4))
        p = Observable(rng.integers(0, k, size=n), k)
        a = FiniteAction.from_perms([rng.permutation(n) for _ in range(2)])
        words = ball(2, 1)
        q = refine_partition(p, words, a)
        assert q.alphabet_size <= k ** len(words)
        # every refined atom sits inside exactly one atom of p
        for atom in range(q.alphabet_size):
            labels = p.labels[q.labels == atom]
            assert np.unique(labels).size == 1


def test_fifth_generator_is_not_the_identity():
    # "e" spells the identity, so generator 5 is named "f"
    w = ReducedWord((5, -4, 6))
    assert format_word(w) == "f D g"
    assert parse_word("f D g", 6) == w
    assert parse_word("f", 5) == ReducedWord((5,))
    assert parse_word("e", 5).is_identity
    with pytest.raises(ValueError):
        parse_word("a e", 5)


@pytest.mark.parametrize("letter", [26, -26])
def test_format_word_refuses_generators_without_a_letter(letter):
    # a..z without e names 25 generators, as parse_word documents
    assert str(ReducedWord((25, -24, -25))) == "z Y Z"
    with pytest.raises(ValueError, match="only generators 1..25"):
        str(ReducedWord((letter,)))


def test_word_parse_format_roundtrip():
    w = parse_word("a B a", 2)
    assert w.letters == (1, -2, 1)
    assert format_word(w) == "a B a"
    assert parse_word("e", 2).is_identity
    assert format_word(ReducedWord()) == "e"
    with pytest.raises(ValueError):
        parse_word("c", 2)
    with pytest.raises(ValueError):
        parse_word("ab", 2)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_parse_inverts_format(data):
    rank = data.draw(st.integers(1, 25))
    letter = st.integers(1, rank).flatmap(lambda k: st.sampled_from([k, -k]))
    w = _reduce_word(data.draw(st.lists(letter, max_size=20)))
    assert parse_word(format_word(w), rank) == w


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=30))
@settings(max_examples=80, deadline=None)
def test_reduce_idempotent_and_valid(letters):
    w = _reduce_word(letters)
    assert _reduce_word(w.letters).letters == w.letters
    for x, y in zip(w.letters, w.letters[1:]):
        assert x != -y


def test_cycle_decompositions_cached_per_generator():
    a = FiniteAction.from_perms([[1, 0, 3, 4, 2], [0, 1, 2, 3, 4]])
    decs = a.cycle_decompositions
    assert decs is a.cycle_decompositions
    assert [[c.tolist() for c in d.cycles] for d in decs] == [
        [[0, 1], [2, 3, 4]],
        [[0], [1], [2], [3], [4]],
    ]


def test_cached_structure_is_consistent_across_threads():
    # the cache is filled on first use, possibly by several threads at once
    rng = np.random.default_rng(9)
    perms = [rng.permutation(5000), rng.permutation(5000)]
    want = FiniteAction.from_perms(perms)
    want_orders = [d.order for d in want.cycle_decompositions]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            a = FiniteAction.from_perms(perms)

            def read(_):
                return [d.order for d in a.cycle_decompositions]

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(read, range(16), timeout=60))
            for orders in results:
                assert all(map(np.array_equal, orders, want_orders))
    finally:
        sys.setswitchinterval(interval)
