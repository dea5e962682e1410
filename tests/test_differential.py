"""Differential and property tests: segmented path against the frozen oracle.

``reference_impl`` holds the per-cycle implementation that the segmented
rewiring replaced.  On every input here the two must agree byte for byte:
the rewired permutation, the per-cycle outcomes, the rewired mass and the
achieved error, or the same exception when the preconditions fail.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from orbitforge import (
    Coupling,
    Observable,
    build_tau,
    cycle_decomposition,
    cycle_min_labels,
    empirical_distribution,
    ergodic_profile,
    joint_pair_distribution,
    mixture_coupling,
    permutation_with_cycle_lengths,
    product_coupling,
    rearrange_line,
    rewire,
    round_coupling,
)
from orbitforge.rearrange import _close, _merge


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except ValueError as exc:
        return "raised", (type(exc), str(exc))


def assert_same_rewire(t, psi, j, eps, **kwargs):
    new = _outcome(rewire, t, psi, j, eps, **kwargs)
    old = _outcome(ref.rewire, t, psi, j, eps, **kwargs)
    assert new[0] == old[0], (new, old)
    if new[0] == "raised":
        assert new[1] == old[1]
        return None
    (t_new, report), (t_old, report_old) = new[1], old[1]
    assert t_new.dtype == t_old.dtype
    assert t_new.tobytes() == t_old.tobytes()
    assert report.per_cycle == report_old.per_cycle
    assert report.good_mass == report_old.good_mass
    assert report.achieved_error == report_old.achieved_error
    assert report == report_old
    return report


def assert_same_decomposition(t):
    dec = cycle_decomposition(t)
    old = ref.cycle_decomposition(t)
    assert len(dec.cycles) == len(old.cycles)
    for c, c_old in zip(dec.cycles, old.cycles):
        assert c.dtype == c_old.dtype and c.tobytes() == c_old.tobytes()
    assert dec.cycle_of.dtype == old.cycle_of.dtype
    assert dec.cycle_of.tobytes() == old.cycle_of.tobytes()
    assert np.array_equal(dec.lengths(), old.lengths())
    assert np.array_equal(dec.order, np.concatenate(old.cycles or [np.empty(0, int)]))


def involution(n, rng):
    t = np.arange(n)
    order = rng.permutation(n)
    t[order[0::2]], t[order[1::2]] = order[1::2], order[0::2]
    return t


def ragged_lengths(n, rng, low, high):
    lengths, left = [], n
    while left:
        size = int(min(left, rng.integers(low, high + 1)))
        lengths.append(size)
        left -= size
    return lengths


def test_fixed_points():
    rng = np.random.default_rng(1)
    t = np.arange(200)
    psi = Observable(rng.integers(0, 2, size=200), 2)
    j = Coupling.from_probs(np.full((2, 2), 0.25))
    for check in (True, False):
        report = assert_same_rewire(t, psi, j, 0.05, check=check)
        assert report is None or report.good_mass == 0.0


def test_all_two_cycles():
    rng = np.random.default_rng(2)
    t = involution(400, rng)
    psi = Observable(np.tile([0, 1], 200), 2)
    j = Coupling.from_probs(np.full((2, 2), 0.25))
    assert_same_decomposition(t)
    for check in (True, False):
        assert_same_rewire(t, psi, j, 0.05, check=check)


def test_single_n_cycle():
    rng = np.random.default_rng(3)
    n = 5000
    t = permutation_with_cycle_lengths([n], rng)
    psi = Observable(rng.integers(0, 2, size=n), 2)
    j = mixture_coupling(joint_pair_distribution(psi, t), 0.2, empirical_distribution(psi))
    assert_same_decomposition(t)
    report = assert_same_rewire(t, psi, j, 0.05)
    assert report.good_mass == 1.0


def test_single_symbol():
    rng = np.random.default_rng(4)
    t = permutation_with_cycle_lengths(ragged_lengths(3000, rng, 1, 60), rng)
    psi = Observable.constant(3000)
    j = Coupling.from_probs([[1.0]])
    for check in (True, False):
        report = assert_same_rewire(t, psi, j, 0.1, check=check)
        assert report.achieved_error == 0.0


def test_empty_atom():
    # symbol 2 labels no point; the checked call fails its margin
    # precondition, the unchecked one rewires anyway
    rng = np.random.default_rng(5)
    n = 6000
    t = permutation_with_cycle_lengths(ragged_lengths(n, rng, 20, 400), rng)
    psi = Observable(rng.integers(0, 2, size=n), 3)
    w = rng.random((3, 3)) + 0.5
    j = Coupling.from_probs((w + w.T) / (w + w.T).sum())
    assert assert_same_rewire(t, psi, j, 0.05) is None
    assert assert_same_rewire(t, psi, j, 0.05, check=False).good_mass > 0


def test_four_symbols_near_min_entry_floor():
    rng = np.random.default_rng(6)
    n = 40_000
    eps = 0.007
    # margins exactly uniform; minimum entry just above 2|A|eps = 0.056
    pattern = np.array([[1, -1, 1, -1], [-1, 1, -1, 1], [1, -1, 1, -1], [-1, 1, -1, 1]])
    j = Coupling.from_probs(np.full((4, 4), 1 / 16) - 0.0064 * pattern)
    assert float(j.real.min()) - 2 * 4 * eps < 1e-3
    t = permutation_with_cycle_lengths(ragged_lengths(n, rng, 150, 3000), rng)
    # labels balanced inside each cycle: every cycle is within eps
    psi = Observable(_balanced_labels(t, rng, 4), 4)
    assert ergodic_profile(t, psi, eps)[0] == 0.0
    report = assert_same_rewire(t, psi, j, eps)
    # the block-level floor rejects some of the equidistributed cycles
    good = [c.good for c in report.per_cycle]
    assert any(good) and not all(good)


def test_checks_waived_on_random_couplings():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 600))
        t = permutation_with_cycle_lengths(ragged_lengths(n, rng, 1, 30), rng)
        a = int(rng.integers(1, 5))
        psi = Observable(rng.integers(0, a, size=n), a)
        w = rng.random((a, a)) ** 3
        j = Coupling.from_probs(w / w.sum())
        assert_same_rewire(t, psi, j, 0.1, check=False)
        # every cycle of length >= 3 passes the deviation gate
        assert_same_rewire(t, psi, j, 1.0, check=False)


def _balanced_labels(perm, rng, a=2):
    n = perm.shape[0]
    cycle = cycle_min_labels(perm)
    order = np.lexsort((rng.random(n), cycle))
    sorted_cycle = cycle[order]
    first = np.r_[True, sorted_cycle[1:] != sorted_cycle[:-1]]
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    rank = np.arange(n) - starts[group]
    coin = rng.integers(0, a, size=starts.shape[0])
    labels = np.empty(n, dtype=np.int64)
    labels[order] = (rank + coin[group]) % a
    return labels


def test_short_ragged_cycles_seed_101():
    # thousands of cycles of length 12..40, labels as even as possible on
    # each, product target: the shape of the short-cycle benchmark workload
    rng = np.random.default_rng(np.random.SeedSequence((101, 2)))
    n = 200_000
    draws = rng.integers(12, 41, size=n // 12 + 1)
    k = int(np.searchsorted(np.cumsum(draws), n)) + 1
    t = permutation_with_cycle_lengths(draws[:k], rng)
    psi = Observable(_balanced_labels(t, rng), 2)
    j = product_coupling(empirical_distribution(psi))
    report = assert_same_rewire(t, psi, j, 0.01)
    good = sum(c.good for c in report.per_cycle)
    assert len(report.per_cycle) == k and 0 < good < k


def test_rearrange_line_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(60):
        a = int(rng.integers(1, 5))
        n = int(rng.integers(2, 3000))
        phi = Observable(rng.integers(0, a, size=n), a)
        w = rng.random((a, a))
        j = Coupling.from_probs((w + w.T) / (w + w.T).sum())
        for check in (True, False):
            new = _outcome(rearrange_line, phi, j, 0.05, check=check)
            old = _outcome(ref.rearrange_line, phi, j, 0.05, check=check)
            assert new[0] == old[0]
            if new[0] == "raised":
                assert new[1] == old[1]
                continue
            assert new[1][0].sigma.tobytes() == old[1][0].sigma.tobytes()
            assert new[1][1] == old[1][1]


def test_line_stages_match_oracle():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = int(rng.integers(1, 4))
        n = int(rng.integers(1, 200))
        phi = Observable(rng.integers(0, a, size=n), a)
        tau = 1 + rng.permutation(n - 1)
        merged, n_comp = _merge(phi.labels, a, tau)
        merged_old, n_comp_old = ref._merge(phi.labels, a, tau)
        assert merged.tobytes() == merged_old.tobytes() and n_comp == n_comp_old
        assert np.array_equal(_merge(phi.labels, a, tau)[0], merged_old)
        closed, closed_old = _close(tau), ref._close(tau)
        assert closed[0].tobytes() == closed_old[0].tobytes()
        assert closed[1:] == closed_old[1:]
        pi = empirical_distribution(phi)
        w = rng.random((a, a))
        j = Coupling.from_probs((w + w.T) / (w + w.T).sum())
        rounded = round_coupling(j, pi, 0.1, check=False)
        rounded_old = ref.round_coupling(j, pi, 0.1, check=False)
        assert np.array_equal(rounded.counts, rounded_old.counts)
        assert build_tau(phi, rounded).tobytes() == ref.build_tau(phi, rounded).tobytes()


def _wide_coupling(rng, a, empty_cells):
    w = rng.random((a, a)) + 0.1
    if empty_cells:
        w[rng.random((a, a)) < 0.5] = 0.0
        w[0, 0] = 1.0
    return Coupling.from_probs(w / w.sum())


# the shapes where the packed sort codes of the line stages are largest: up
# to 64 symbols (4,096 pair codes), thousands of 3-point segments, one
# n-point segment, one symbol, and couplings with empty cells
WIDE_CASES = [(1, False), (2, True), (64, False), (64, True)]


@pytest.mark.parametrize("a, empty_cells", WIDE_CASES)
def test_line_stages_match_oracle_on_one_long_line(a, empty_cells):
    rng = np.random.default_rng(100 + a)
    n = 20_000
    phi = Observable(rng.integers(0, a, size=n), a)
    j = _wide_coupling(rng, a, empty_cells)
    tau = 1 + rng.permutation(n - 1)
    merged, n_comp = _merge(phi.labels, a, tau)
    merged_old, n_comp_old = ref._merge(phi.labels, a, tau)
    assert merged.tobytes() == merged_old.tobytes() and n_comp == n_comp_old
    rounded = round_coupling(j, empirical_distribution(phi), 1.0, check=False)
    assert build_tau(phi, rounded).tobytes() == ref.build_tau(phi, rounded).tobytes()
    new = rearrange_line(phi, j, 1.0, check=False)
    old = ref.rearrange_line(phi, j, 1.0, check=False)
    assert new[0].sigma.tobytes() == old[0].sigma.tobytes() and new[1] == old[1]


@pytest.mark.parametrize("a, empty_cells", WIDE_CASES)
@pytest.mark.parametrize("shape", ["3-point", "one"])
def test_rewire_equals_oracle_where_codes_are_largest(a, empty_cells, shape):
    # with checks waived and eps = 1 every cycle is one segment of the pass;
    # the per-cycle oracle takes about 45 ms per 3-cycle at 64 symbols
    rng = np.random.default_rng(200 + a)
    lengths = [9000] if shape == "one" else [3] * (3000 if a <= 2 else 100)
    t = permutation_with_cycle_lengths(lengths, rng)
    psi = Observable(rng.integers(0, a, size=t.shape[0]), a)
    j = _wide_coupling(rng, a, empty_cells)
    report = assert_same_rewire(t, psi, j, 1.0, check=False)
    assert report.good_mass == 1.0


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

permutations_st = st.integers(0, 80).flatmap(lambda n: st.permutations(range(n)))
cycle_types_st = st.lists(st.integers(1, 30), max_size=40)


@settings(max_examples=200, deadline=None)
@given(permutations_st)
def test_flat_layout_equals_oracle(perm):
    assert_same_decomposition(np.asarray(perm, dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(cycle_types_st, st.integers(0, 2**32 - 1))
def test_flat_layout_equals_oracle_on_cycle_types(lengths, seed):
    t = permutation_with_cycle_lengths(lengths, np.random.default_rng(seed))
    assert_same_decomposition(t)


@settings(max_examples=200, deadline=None)
@given(permutations_st)
def test_early_exit_min_labels_equal_full_rounds(perm):
    p = np.asarray(perm, dtype=np.int64)
    got = cycle_min_labels(p)
    want = ref.cycle_min_labels(p)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=40),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.booleans(),
)
def test_rewire_equals_oracle(lengths, seed, a, check):
    rng = np.random.default_rng(seed)
    t = permutation_with_cycle_lengths(lengths, rng)
    psi = Observable(rng.integers(0, a, size=t.shape[0]), a)
    w = rng.random((a, a)) + 0.1
    j = Coupling.from_probs((w + w.T) / (w + w.T).sum())
    # with checks waived, eps is only the deviation gate: 0.3 lets most
    # cycles through; checks need eps below 1/6
    assert_same_rewire(t, psi, j, 0.15 if check else 0.3, check=check)


@pytest.mark.parametrize(
    "lengths",
    [[1] * 500, [2] * 500, [1000], [1, 2, 3, 40, 1, 1, 7, 2, 300, 5]],
    ids=["ones", "twos", "one-cycle", "mixed"],
)
def test_permutation_with_cycle_lengths_equals_loop(lengths):
    for seed in range(5):
        got = permutation_with_cycle_lengths(lengths, np.random.default_rng(seed))
        want = ref.permutation_with_cycle_lengths(lengths, np.random.default_rng(seed))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(cycle_types_st, st.integers(0, 2**32 - 1))
def test_permutation_with_cycle_lengths_equals_loop_property(lengths, seed):
    got = permutation_with_cycle_lengths(lengths, np.random.default_rng(seed))
    want = ref.permutation_with_cycle_lengths(lengths, np.random.default_rng(seed))
    assert got.tobytes() == want.tobytes()
