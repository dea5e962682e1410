import importlib
import sys
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge import (
    Coupling,
    Dist,
    LineBijection,
    Observable,
    PreconditionError,
    build_tau,
    cycle_min_labels,
    empirical_distribution,
    empirical_pair_distribution,
    linf,
    permutation_with_cycle_lengths,
    rearrange_line,
    rewire,
    round_coupling,
)
from orbitforge.rearrange import (
    _close,
    _close_cycles,
    _line_minima,
    _merge,
    _merge_cycles,
    _round_counts,
    _stable_order,
)

rearrange_module = importlib.import_module("orbitforge.rearrange")


def _component_count(tau):
    """Components of the pair graph of the line ``tau``."""
    return _line_minima(np.append(tau, 0)).shape[0]


def random_target(rng, alphabet, eps, n, headroom=0.25):
    """Symmetric fully supported coupling with min entry above the rounding bar."""
    floor = 2 * alphabet * eps + alphabet * alphabet / n
    assert floor < 1 / alphabet**2, "infeasible combination"
    m = floor + headroom * (1 / alphabet**2 - floor)
    w = rng.random((alphabet, alphabet))
    w = w + w.T
    w /= w.sum()
    j = np.full((alphabet, alphabet), m) + (1 - m * alphabet**2) * w
    return Coupling.from_probs(j)


def labels_near_margins(rng, j, n):
    """Labels whose empirical distribution rounds the margins of ``j``."""
    target = j.row_margin() * n
    counts = np.floor(target).astype(np.int64)
    short = n - counts.sum()
    order = np.argsort(-(target - np.floor(target)), kind="stable")
    counts[order[:short]] += 1
    labels = rng.permutation(np.repeat(np.arange(j.alphabet_size), counts))
    return Observable(labels, j.alphabet_size)


def brute_force_best_error(phi, j):
    """Minimum sup-norm error over every connected line bijection."""
    n = phi.n
    a = phi.alphabet_size
    best = None
    for middle in permutations(range(1, n - 1)):
        order = (0, *middle, n - 1)
        counts = np.zeros((a, a), dtype=np.int64)
        for u, v in zip(order, order[1:]):
            counts[phi.labels[u], phi.labels[v]] += 1
        err = np.abs(counts / (n - 1) - j.real).max()
        if best is None or err < best:
            best = err
    return best


def test_round_keeps_exact_coupling():
    j = Coupling.from_probs([[0.3, 0.2], [0.2, 0.3]])
    pi = Dist(np.array([20, 20]), 40)
    r = round_coupling(j, pi, 0.02)
    assert np.array_equal(r.counts, [[12, 8], [8, 12]])
    assert r.denom == 40


def test_round_worked_example():
    j = Coupling.from_probs([[0.305, 0.195], [0.195, 0.305]])
    pi = Dist(np.array([20, 20]), 40)
    r = round_coupling(j, pi, 0.02)
    assert np.array_equal(r.counts, [[12, 8], [8, 12]])
    assert np.array_equal(r.counts.sum(axis=1), pi.counts)
    assert np.array_equal(r.counts.sum(axis=0), pi.counts)


def test_round_degenerate_alphabet():
    j = Coupling.from_probs([[1.0]])
    r = round_coupling(j, Dist(np.array([7]), 7), 0.1)
    assert np.array_equal(r.counts, [[7]])


def test_round_ties_go_down():
    # entry (1,1) = 2.5/10 rounds to 2/10, not 3/10
    j = Coupling.from_probs([[0.35, 0.25], [0.15, 0.25]])
    pi = Dist(np.array([6, 4]), 10)
    r = round_coupling(j, pi, 0.2, check=False)
    assert r.counts[1, 1] == 2


def test_round_precondition_diagnostics():
    pi = Dist(np.array([20, 20]), 40)
    skew = Coupling.from_probs([[0.7, 0.1], [0.1, 0.1]])
    with pytest.raises(PreconditionError, match="margin"):
        round_coupling(skew, pi, 0.01)
    thin = Coupling.from_probs([[0.49, 0.01], [0.01, 0.49]])
    with pytest.raises(PreconditionError, match="min coupling entry"):
        round_coupling(thin, pi, 0.05)


def test_round_error_bound_randomized():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = int(rng.integers(2, 4))
        eps = float(rng.choice([0.005, 0.01, 0.02]))
        n = int(rng.integers(100, 600))
        if 2 * a * eps + a * a / n >= 1 / a**2:
            continue
        j = random_target(rng, a, eps, n)
        phi = labels_near_margins(rng, j, n)
        pi = empirical_distribution(phi)
        r = round_coupling(j, pi, eps)
        assert np.array_equal(r.counts.sum(axis=1), pi.counts)
        assert np.array_equal(r.counts.sum(axis=0), pi.counts)
        assert r.counts.min() >= 0
        assert linf(r, j) < 2 * a * eps + a * a / n


def test_build_tau_four_point_example():
    phi = Observable([0, 1, 0, 1], 2)
    jp = Coupling.from_counts(np.ones((2, 2), dtype=np.int64), 4)
    tau = build_tau(phi, jp)
    assert sorted(tau.tolist()) == [1, 2, 3]
    j_tau = empirical_pair_distribution(phi, tau)
    exact_gap = max(
        abs(Fraction(int(ct), 3) - Fraction(int(cp), 4))
        for ct, cp in zip(j_tau.counts.ravel(), jp.counts.ravel())
    )
    assert exact_gap <= Fraction(2, 3)


def test_build_tau_constant_labels_gives_consecutive():
    phi = Observable.constant(5)
    jp = Coupling.from_counts(np.array([[5]]), 5)
    assert np.array_equal(build_tau(phi, jp), [1, 2, 3, 4])


def test_build_tau_forced_two_points():
    phi = Observable([0, 1], 2)
    jp = Coupling.from_counts(np.array([[0, 1], [1, 0]]), 2)
    assert np.array_equal(build_tau(phi, jp), [1])


def test_build_tau_margin_mismatch():
    phi = Observable([0, 1, 0, 1], 2)
    jp = Coupling.from_counts(np.array([[2, 1], [0, 1]]), 4)
    with pytest.raises(PreconditionError):
        build_tau(phi, jp)


def test_build_tau_bound_randomized():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = int(rng.integers(1, 4))
        n = int(rng.integers(max(2, a), 120))
        labels = rng.integers(0, a, size=n)
        phi = Observable(labels, a)
        pi = empirical_distribution(phi)
        j = Coupling.from_probs(np.outer(pi.real, pi.real))
        rounded = round_coupling(j, pi, 1.0, check=False)
        tau = build_tau(phi, rounded)
        assert sorted(tau.tolist()) == list(range(1, n))
        j_tau = empirical_pair_distribution(phi, tau)
        exact_gap = max(
            abs(Fraction(int(ct), n - 1) - Fraction(int(cp), n))
            for ct, cp in zip(j_tau.counts.ravel(), rounded.counts.ravel())
        )
        assert exact_gap <= Fraction(2, n - 1)


def test_merge_leaves_connected_input_alone():
    phi = Observable.constant(4)
    tau = np.array([1, 2, 3])
    assert np.array_equal(_merge(phi.labels, phi.alphabet_size, tau)[0], tau)


def test_merge_worked_example():
    phi = Observable.constant(4)
    tau = np.array([3, 2, 1])
    merged = _merge(phi.labels, phi.alphabet_size, tau)[0]
    assert np.array_equal(merged, [2, 3, 1])
    assert _component_count(merged) == 1


def test_merge_preserves_pair_counts_exactly():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = int(rng.integers(1, 4))
        n = int(rng.integers(2, 80))
        phi = Observable(rng.integers(0, a, size=n), a)
        tau = 1 + rng.permutation(n - 1)
        merged = _merge(phi.labels, phi.alphabet_size, tau)[0]
        before = empirical_pair_distribution(phi, tau)
        after = empirical_pair_distribution(phi, merged)
        assert np.array_equal(before.counts, after.counts)
        assert _component_count(merged) <= a * a
        assert _component_count(merged) <= _component_count(tau)


def test_close_connected_input_unchanged():
    tau = np.array([1, 2, 3, 4])
    assert np.array_equal(_close(tau)[0], tau)


def test_close_worked_example():
    tau = np.array([1, 4, 3, 2])
    sigma, k, changed = _close(tau)
    assert np.array_equal(sigma, [3, 4, 1, 2])
    assert k == 2 and changed == 2
    assert LineBijection(5, sigma).is_connected()


def test_close_changes_at_most_component_count_edges():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 80))
        tau = 1 + rng.permutation(n - 1)
        comps = _component_count(tau)
        sigma, k, changed = _close(tau)
        assert k == comps
        assert changed == (0 if comps == 1 else comps)
        assert int(np.count_nonzero(sigma != tau)) == changed
        assert _component_count(sigma) == 1


def test_rearrange_constant_labels():
    phi = Observable.constant(6)
    sigma, report = rearrange_line(phi, Coupling.from_probs([[1.0]]), 0.1)
    assert np.array_equal(sigma.sigma, [1, 2, 3, 4, 5])
    assert report.achieved_error == 0.0


def test_rearrange_matches_exhaustive_optimum_small():
    phi = Observable([0, 1, 0, 1], 2)
    j = Coupling.from_probs(np.full((2, 2), 0.25))
    sigma, report = rearrange_line(phi, j, 0.25, check=False)
    assert sigma.is_connected()
    best = brute_force_best_error(phi, j)
    assert report.achieved_error <= best + 4 / 3


@pytest.mark.parametrize("eps", [-1.0, 0.0, float("nan"), float("inf")])
@pytest.mark.parametrize("check", [True, False])
def test_invalid_eps_refused_even_with_checks_waived(eps, check):
    # check=False waives hypotheses; a negative or NaN eps would still
    # certify a negative or NaN bound
    phi = Observable([0, 1, 0, 1], 2)
    j = Coupling.from_probs(np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        rearrange_line(phi, j, eps, check=check)
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        round_coupling(j, empirical_distribution(phi), eps, check=check)


def test_rearrange_deterministic():
    rng = np.random.default_rng(10)
    phi = Observable(rng.integers(0, 3, size=500), 3)
    j = random_target(np.random.default_rng(11), 3, 0.01, 500)
    first = rearrange_line(phi, j, 0.05, check=False)
    second = rearrange_line(phi, j, 0.05, check=False)
    assert np.array_equal(first[0].sigma, second[0].sigma)
    assert first[1] == second[1]


def test_rearrange_randomized_bound():
    rng = np.random.default_rng(12)
    for _ in range(60):
        a = int(rng.integers(2, 4))
        eps = float(rng.choice([0.005, 0.01]))
        n = int(rng.integers(400, 2000))
        j = random_target(rng, a, eps, n)
        phi = labels_near_margins(rng, j, n)
        sigma, report = rearrange_line(phi, j, eps)
        assert sigma.is_connected()
        assert report.achieved_error < report.bound


def test_rearrange_line_checks_its_line_once(monkeypatch):
    checked = []
    original = importlib.import_module("orbitforge.spaces")._as_permutation

    def counted(values, what):
        checked.append(what)
        return original(values, what)

    # every orbitforge namespace that binds the test, so a from-import counts
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "orbitforge" and "_as_permutation" in vars(module):
            monkeypatch.setattr(module, "_as_permutation", counted)
    phi = Observable(np.arange(1000) % 2, 2)
    rearrange_line(phi, Coupling.from_probs([[0.3, 0.2], [0.2, 0.3]]), 0.01)
    # LineBijection checks the line it hands out; the pairs are counted
    # from it without a second check
    assert checked == ["closed line"]


def test_lines_that_leave_their_segment_are_refused(monkeypatch):
    # the line stages check that every closed line stays in its segment
    close = rearrange_module._close_cycles
    segments = []

    def close_then_leave(perm, seg, reps):
        perm = close(perm, seg, reps)
        segments.append(int(seg[-1]) + 1)
        perm[0] = np.argmax(seg == 1)  # the first point of the second segment
        return perm

    monkeypatch.setattr(rearrange_module, "_close_cycles", close_then_leave)
    n = 2000
    t = permutation_with_cycle_lengths([n // 2, n // 2], np.random.default_rng(3))
    phi = Observable(np.arange(n) % 2, 2)
    j = Coupling.from_probs(np.full((2, 2), 0.25))
    message = "^rearranged lines are not bijections onto their segments$"
    with pytest.raises(ValueError, match=message):
        rewire(t, phi, j, 0.05)
    assert segments == [2]


def test_rearrange_needs_two_points():
    with pytest.raises(PreconditionError):
        rearrange_line(Observable.constant(1), Coupling.from_probs([[1.0]]), 0.1)


def test_line_bijection_validation():
    with pytest.raises(ValueError):
        LineBijection(3, np.array([0, 2]))
    with pytest.raises(ValueError):
        LineBijection(3, np.array([2, 2]))
    with pytest.raises(ValueError):
        LineBijection(4, np.array([1, 2]))


def test_line_components_path_plus_cycles():
    # 0 -> 2, 2 -> 1, 1 -> 4 is the path; 3 is a fixed point cycle.  Each
    # component is named by its least point
    tau = np.array([2, 4, 1, 3])
    assert _line_minima(np.append(tau, 0)).tolist() == [0, 3]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 80).flatmap(
        lambda n: st.tuples(
            st.permutations(range(n)),
            st.lists(st.integers(-1, 3), min_size=n, max_size=n),
        )
    )
)
def test_merge_returns_cycle_minima_of_merged(perm_keys):
    perm, keys = perm_keys
    merged = np.asarray(perm, dtype=np.int64)
    one_line = np.zeros(merged.shape[0], dtype=np.int64)
    minima = _merge_cycles(merged, np.asarray(keys, dtype=np.int64), one_line)
    want = np.flatnonzero(cycle_min_labels(merged) == np.arange(merged.shape[0]))
    assert minima.dtype == want.dtype and minima.tobytes() == want.tobytes()


# segmented stages: B segments laid back to back, each with its own cycle
# type, so fixed points, 2-cycles and one long cycle all occur; labels use
# the first `used` of `a` symbols, so |A| = 1 and empty atoms occur too
segment_shapes = st.tuples(
    st.lists(
        st.lists(st.integers(1, 9), min_size=1, max_size=4), min_size=1, max_size=6
    ),
    st.integers(1, 3).flatmap(lambda a: st.tuples(st.just(a), st.integers(1, a))),
    st.integers(0, 2**32 - 1),
)


def _segmented(shape):
    """``(perm, labels, offsets, seg, a)``; ``perm`` keeps every segment."""
    cycle_types, (a, used), seed = shape
    rng = np.random.default_rng(seed)
    lengths = np.array([sum(c) for c in cycle_types])
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    perm = np.concatenate(
        [
            start + permutation_with_cycle_lengths(c, rng)
            for start, c in zip(offsets, cycle_types)
        ]
    )
    labels = rng.integers(0, used, size=offsets[-1])
    seg = np.repeat(np.arange(lengths.shape[0]), lengths)
    return perm, labels, offsets, seg, a


def _cycles_per_segment(perm, seg):
    minima = np.flatnonzero(cycle_min_labels(perm) == np.arange(perm.shape[0]))
    return np.bincount(seg[minima], minlength=seg[-1] + 1)


@settings(max_examples=200, deadline=None)
@given(segment_shapes)
def test_round_counts_keep_each_segment_margins(shape):
    _, labels, offsets, seg, a = _segmented(shape)
    b = offsets.shape[0] - 1
    pi = np.bincount(seg * a + labels, minlength=b * a).reshape(b, a)
    w = np.random.default_rng(shape[2]).random((a, a)) + 0.01
    counts = _round_counts(Coupling.from_probs(w / w.sum()), pi, np.diff(offsets))
    assert counts.shape == (b, a, a) and counts.min() >= 0
    assert np.array_equal(counts.sum(axis=2), pi)
    assert np.array_equal(counts.sum(axis=1), pi)


@settings(max_examples=200, deadline=None)
@given(segment_shapes)
def test_merge_keeps_bucket_pair_counts(shape):
    perm, labels, offsets, seg, a = _segmented(shape)
    b = offsets.shape[0] - 1

    def buckets(p):
        cells = (seg * a + labels) * a + labels[p]
        return np.bincount(cells, minlength=b * a * a).reshape(b, a * a)

    before = buckets(perm)
    merged = perm.copy()
    _merge_cycles(merged, labels * a + labels[perm], seg)
    assert np.array_equal(np.sort(merged), np.arange(perm.shape[0]))
    assert np.array_equal(seg[merged], seg)
    assert np.array_equal(buckets(merged), before)
    # the cycles meeting one bucket are joined, so each segment keeps at
    # most one cycle per bucket it uses
    per_segment = _cycles_per_segment(merged, seg)
    assert np.all(per_segment <= np.count_nonzero(before, axis=1))
    assert np.all(per_segment <= a * a)


@settings(max_examples=200, deadline=None)
@given(segment_shapes)
def test_close_leaves_one_cycle_per_segment(shape):
    perm, _, _, seg, _ = _segmented(shape)
    before = _cycles_per_segment(perm, seg)
    reps = np.flatnonzero(cycle_min_labels(perm) == np.arange(perm.shape[0]))
    closed = _close_cycles(perm.copy(), seg, reps)
    assert np.array_equal(np.bincount(seg[reps], minlength=seg[-1] + 1), before)
    assert np.array_equal(seg[closed], seg)
    assert np.all(_cycles_per_segment(closed, seg) == 1)
    # only the minima of segments with several cycles change their image
    assert np.count_nonzero(closed != perm) == before[before > 1].sum()


# packed sort codes: each stage checks its bound before it packs anything


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-7, 6), max_size=300))
def test_stable_order_is_the_stable_argsort(keys):
    # keys may be negative, down to -bound: the merge's segment ends carry
    # pair -1
    keys = np.asarray(keys, dtype=np.int64)
    want = np.argsort(keys, kind="stable")
    sorted_keys = np.sort(keys)
    assert _stable_order(keys, 7).tobytes() == want.tobytes()
    assert np.array_equal(keys, sorted_keys)


def test_stable_order_refuses_codes_past_the_limit(monkeypatch):
    # 100 keys below 5 pack into codes below 5·128 = 640
    keys = np.random.default_rng(3).integers(0, 5, size=100)
    want = np.argsort(keys, kind="stable")
    monkeypatch.setattr(rearrange_module, "_PACK_LIMIT", 640)
    assert np.array_equal(_stable_order(keys, 5), want)
    monkeypatch.setattr(rearrange_module, "_PACK_LIMIT", 639)
    with pytest.raises(ValueError, match="5 keys on 100 points overflow int64 codes"):
        _stable_order(keys, 5)
    monkeypatch.undo()
    # at the real limit: 2^56 keys on 100 points would need 2^63
    with pytest.raises(ValueError, match="overflow int64 codes"):
        _stable_order(keys, 2**56)


def test_merge_refuses_codes_past_the_limit(monkeypatch):
    # 50 points with pair codes 0..3 rank by keys below 4·50 = 200, which
    # _stable_order packs into codes below 200·64 = 12,800
    rng = np.random.default_rng(4)
    perm = rng.permutation(50)
    pairs = rng.integers(0, 4, size=50)
    pairs[[0, 1]] = 3
    seg = np.zeros(50, dtype=np.int64)
    want = perm.copy()
    want_minima = _merge_cycles(want, pairs.copy(), seg)
    monkeypatch.setattr(rearrange_module, "_PACK_LIMIT", 12_800)
    got = perm.copy()
    got_minima = _merge_cycles(got, pairs.copy(), seg)
    assert got.tobytes() == want.tobytes()
    assert got_minima.tobytes() == want_minima.tobytes()
    monkeypatch.setattr(rearrange_module, "_PACK_LIMIT", 12_799)
    merged = perm.copy()
    with pytest.raises(ValueError, match="200 keys on 50 points overflow"):
        _merge_cycles(merged, pairs.copy(), seg)
    assert np.array_equal(merged, perm)
    monkeypatch.undo()
    # at the real limit: a pair code of 2^52 on 4,096 points would need 2^76
    pairs = np.zeros(4096, dtype=np.int64)
    pairs[7] = 2**52
    with pytest.raises(ValueError, match="overflow int64 codes"):
        _merge_cycles(np.arange(4096), pairs, np.zeros(4096, dtype=np.int64))


def test_public_line_stages_refuse_instead_of_wrapping(monkeypatch):
    # with the limit below the bound of the first packed stage, the callers
    # raise; they never return an order the codes could not represent
    n = 100
    phi = Observable(np.arange(n) % 2, 2)
    j = Coupling.from_probs(np.full((2, 2), 0.25))
    monkeypatch.setattr(rearrange_module, "_PACK_LIMIT", 255)
    with pytest.raises(ValueError, match="overflow int64 codes"):
        rearrange_line(phi, j, 0.05)
    with pytest.raises(ValueError, match="overflow int64 codes"):
        build_tau(phi, round_coupling(j, empirical_distribution(phi), 0.05))
    # the build stage fits (2·128 = 256), the merge does not (4·100·128)
    monkeypatch.setattr(rearrange_module, "_PACK_LIMIT", 256)
    with pytest.raises(ValueError, match="400 keys on 100 points overflow"):
        rearrange_line(phi, j, 0.05)
