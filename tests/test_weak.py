from fractions import Fraction

import numpy as np
import pytest

from orbitforge import (
    Coupling,
    FiniteAction,
    Observable,
    ReducedWord,
    ball,
    ball_transport_certificate,
    inverse_permutation,
    joint_pair_distribution,
    kechris_distance,
    linf,
    permutation_with_cycle_lengths,
    refine_partition,
    stats_matrix,
)
from orbitforge.weak import _transport


def shift_action(n):
    return FiniteAction.from_perms([np.roll(np.arange(n), -1)])


def test_stats_identity_word_is_diagonal():
    p = Observable([0, 0, 1, 1, 2], 3)
    a = FiniteAction.from_perms([np.random.default_rng(0).permutation(5)])
    m = stats_matrix(a, p, ReducedWord())
    assert np.array_equal(m.counts, np.diag(p.atom_sizes()))


def test_stats_shift_example():
    p = Observable([0, 0, 1, 1], 2)
    a = shift_action(4)
    m = stats_matrix(a, p, ReducedWord((1,)))
    assert np.all(m.counts == 1) and m.denom == 4


def test_stats_single_atom():
    p = Observable.constant(5)
    a = shift_action(5)
    m = stats_matrix(a, p, ReducedWord((1,)))
    assert m.counts.shape == (1, 1) and m.counts[0, 0] == 5


def test_stats_row_sums_equal_atom_sizes():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(2, 25))
        k = int(rng.integers(1, 5))
        p = Observable(rng.integers(0, k, size=n), k)
        a = FiniteAction.from_perms([rng.permutation(n)])
        g = ReducedWord((1,)) if rng.random() < 0.5 else ReducedWord((-1,))
        m = stats_matrix(a, p, g)
        assert np.array_equal(m.counts.sum(axis=1), p.atom_sizes())


def test_stats_matrix_is_an_exact_coupling():
    # labels 000111 under the shift: cells (0,0) and (1,1) twice, the
    # others once, all over 6; linf against another exact coupling is exact
    p = Observable([0, 0, 0, 1, 1, 1], 2)
    m = stats_matrix(shift_action(6), p, ReducedWord((1,)))
    assert np.array_equal(m.counts, [[2, 1], [1, 2]]) and m.denom == 6
    diagonal = Coupling.from_counts([[3, 0], [0, 3]], 6)
    assert linf(m, diagonal) == float(Fraction(1, 6))
    assert linf(m, m) == 0.0


@pytest.mark.parametrize("alphabet", [1, 2, 3, 7])
@pytest.mark.parametrize(
    "lengths",
    [[1] * 30, [2] * 15, [30], [1] * 6 + [2] * 6 + [12]],
    ids=["fixed points", "2-cycles", "n-cycle", "mixed"],
)
def test_letter_statistics_are_the_pair_distributions(alphabet, lengths):
    # the statistics of s^-1 count the pairs (P(x), P(b_s x)); those of s
    # are their transpose
    rng = np.random.default_rng(alphabet)
    b = FiniteAction.from_perms(
        [permutation_with_cycle_lengths(lengths, rng) for _ in range(2)]
    )
    p = Observable(rng.integers(0, alphabet, size=30), alphabet)
    for s in (1, 2):
        pairs = joint_pair_distribution(p, b.perms[s - 1])
        inverse = stats_matrix(b, p, ReducedWord((-s,)))
        forward = stats_matrix(b, p, ReducedWord((s,)))
        assert inverse.denom == forward.denom == pairs.denom == 30
        assert np.array_equal(inverse.counts, pairs.counts)
        assert np.array_equal(forward.counts, pairs.counts.T)


def test_kechris_zero_on_equal_pairs():
    rng = np.random.default_rng(5)
    a = FiniteAction.from_perms([rng.permutation(9), rng.permutation(9)])
    p = Observable(rng.integers(0, 3, size=9), 3)
    assert kechris_distance(a, a, p, p, ball(2, 2)) == 0.0


def test_kechris_shift_vs_identity():
    p = Observable([0, 0, 1, 1], 2)
    v = shift_action(4)
    w = FiniteAction.from_perms([np.arange(4)])
    assert kechris_distance(v, w, p, p, [ReducedWord((1,))]) == 0.25


def test_kechris_atom_count_mismatch():
    v = shift_action(4)
    with pytest.raises(ValueError):
        kechris_distance(
            v,
            v,
            Observable([0, 0, 1, 1], 2),
            Observable([0, 1, 2, 0], 3),
            [ReducedWord()],
        )


def test_kechris_symmetry_and_triangle():
    rng = np.random.default_rng(9)
    words = ball(1, 2)
    for _ in range(100):
        n = int(rng.integers(4, 20))
        k = int(rng.integers(1, 4))
        actions = [FiniteAction.from_perms([rng.permutation(n)]) for _ in range(3)]
        parts = [Observable(rng.integers(0, k, size=n), k) for _ in range(3)]
        d_vw = kechris_distance(actions[0], actions[1], parts[0], parts[1], words)
        d_wv = kechris_distance(actions[1], actions[0], parts[1], parts[0], words)
        assert d_vw == d_wv
        d_vu = kechris_distance(actions[0], actions[2], parts[0], parts[2], words)
        d_uw = kechris_distance(actions[2], actions[1], parts[2], parts[1], words)
        assert d_vw <= d_vu + d_uw + 1e-15


def test_transport_identity():
    p = Observable([0, 0, 1, 1], 2)
    q = _transport(p, p, np.array([0, 1]))[0]
    assert np.array_equal(q.labels, p.labels)


def test_transport_one_atom():
    p = Observable.constant(5)
    pprime = Observable([0, 1, 2, 0, 1], 3)
    q = _transport(p, pprime, np.array([2, 0, 1]))[0]
    assert q.alphabet_size == 1


def test_transport_transposition_example():
    # singleton refinement; swapping atoms 1 and 2 swaps points 1 and 2
    p = Observable([0, 0, 1, 1], 2)
    pprime = Observable([0, 1, 2, 3], 4)
    q = _transport(p, pprime, np.array([0, 2, 1, 3]))[0]
    assert np.array_equal(q.labels, [0, 1, 0, 1])


def test_transport_rejects_non_bijection():
    p = Observable([0, 0, 1, 1], 2)
    pprime = Observable([0, 1, 2, 3], 4)
    with pytest.raises(ValueError):
        _transport(p, pprime, np.array([0, 0, 1, 3]))[0]


@pytest.mark.parametrize(
    "labels, k, atom",
    [([0, 0, 2, 2], 3, 1), ([1, 1, 0, 0], 3, 2)],
    ids=["inner", "last"],
)
def test_transport_rejects_empty_refinement_atom(labels, k, atom):
    p = Observable([0, 0, 1, 1], 2)
    with pytest.raises(ValueError, match=f"refinement atom {atom} is empty"):
        _transport(p, Observable(labels, k), np.arange(k))[0]


def test_transport_requires_refinement():
    p = Observable([0, 1, 0, 1], 2)
    not_finer = Observable([0, 0, 1, 1], 2)
    with pytest.raises(ValueError):
        _transport(p, not_finer, np.array([0, 1]))[0]


def test_certificate_identity_instance():
    rng = np.random.default_rng(13)
    a = FiniteAction.from_perms([rng.permutation(16), rng.permutation(16)])
    p = Observable(rng.integers(0, 2, size=16), 2)
    pprime = refine_partition(p, ball(2, 1), a)
    cert = ball_transport_certificate(
        a, a, p, 1, np.arange(pprime.alphabet_size), eps=0.5
    )
    assert cert.claim1_max == 0.0
    assert all(v == 0.0 for v in cert.claim2_max_per_word.values())
    assert cert.hypothesis_ok
    assert cert.final_discrepancy == 0.0


def test_certificate_conjugacy_instance():
    rng = np.random.default_rng(17)
    n = 32
    v = FiniteAction.from_perms([rng.permutation(n), rng.permutation(n)])
    conj = rng.permutation(n)
    inv_conj = inverse_permutation(conj)
    w = FiniteAction.from_perms([conj[perm[inv_conj]] for perm in v.perms])
    p = Observable(rng.integers(0, 2, size=n), 2)
    pprime = refine_partition(p, ball(2, 1), v)
    beta = Observable(pprime.labels[inv_conj], pprime.alphabet_size)
    cert = ball_transport_certificate(v, w, p, 1, beta, eps=0.25)
    assert cert.claim1_max == 0.0
    assert all(val == 0.0 for val in cert.claim2_max_per_word.values())
    assert cert.hypothesis_max == 0.0 and cert.hypothesis_ok
    assert cert.final_discrepancy == 0.0


def test_certificate_flags_gross_mismatch():
    n = 8
    v = shift_action(n)
    p = Observable([0, 0, 0, 0, 1, 1, 1, 1], 2)
    lopsided = Observable([0, 1, 1, 1, 1, 1, 1, 1], 2)
    cert = ball_transport_certificate(v, v, p, 0, lopsided, eps=0.01)
    assert cert.claim1_max >= 1 / n
    assert not cert.hypothesis_ok


def test_certificate_perturbed_instance_obeys_claims():
    # interval partition on a rotation; opponent differs by one transposition
    n = 4096
    eps = 0.5
    v = shift_action(n)
    p = Observable((np.arange(n) >= n // 2).astype(np.int64), 2)
    perturbed = v.perms[0].copy()
    perturbed[[100, 2000]] = perturbed[[2000, 100]]
    w = FiniteAction.from_perms([perturbed])
    pprime = refine_partition(p, ball(1, 1), v)
    cert = ball_transport_certificate(
        v, w, p, 1, np.arange(pprime.alphabet_size), eps=eps
    )
    assert cert.hypothesis_ok
    assert cert.claim1_max < eps / 2
    for g, val in cert.claim2_max_per_word.items():
        assert val <= cert.claim2_bound(g) + 1e-15
    assert cert.final_discrepancy < eps
