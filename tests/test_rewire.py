import importlib
import re
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge import (
    Coupling,
    Observable,
    PreconditionError,
    cycle_decomposition,
    empirical_distribution,
    ergodic_profile,
    joint_pair_distribution,
    linf,
    mixture_coupling,
    permutation_with_cycle_lengths,
    product_coupling,
    rewire,
    verify_same_orbits,
)
from orbitforge.rewire import CycleOutcome, RewireReport, _rewire_cycles


def test_cycle_decomposition_examples():
    ident = cycle_decomposition(np.arange(3))
    assert [c.tolist() for c in ident.cycles] == [[0], [1], [2]]
    single = cycle_decomposition(np.roll(np.arange(5), -1))
    assert [c.tolist() for c in single.cycles] == [[0, 1, 2, 3, 4]]
    two = cycle_decomposition(np.array([1, 0, 3, 4, 2]))
    assert [c.tolist() for c in two.cycles] == [[0, 1], [2, 3, 4]]
    assert two.cycle_of.tolist() == [0, 0, 1, 1, 1]


def test_cycle_decomposition_rejects_non_permutation():
    with pytest.raises(ValueError):
        cycle_decomposition(np.array([0, 0, 1]))


def test_ergodic_profile_constant_labels():
    t = np.array([1, 0, 3, 4, 2])
    bad_mass, dev = ergodic_profile(t, Observable.constant(5), 0.01)
    assert bad_mass == 0.0
    assert np.all(dev == 0)


def test_ergodic_profile_homogeneous_cycles():
    # one all-a cycle, one all-b cycle, global (1/2, 1/2)
    t = np.array([1, 0, 3, 2])
    psi = Observable([0, 0, 1, 1], 2)
    bad_mass, dev = ergodic_profile(t, psi, 0.1)
    assert bad_mass == 1.0
    assert np.all(dev == 0.5)


def test_ergodic_profile_long_cycle_concentrates():
    n = 10_000
    t = np.roll(np.arange(n), -1)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        psi = Observable(rng.integers(0, 2, size=n), 2)
        bad_mass, _ = ergodic_profile(t, psi, 0.05)
        assert bad_mass == 0.0


def test_ergodic_profile_refuses_an_observable_of_another_size():
    # one label would broadcast over all six points
    with pytest.raises(ValueError, match="observable size does not match"):
        ergodic_profile(np.roll(np.arange(6), 1), Observable([1], 2), 0.1)


@pytest.mark.parametrize("eps", [-1.0, 0.0, float("nan"), float("inf")])
def test_ergodic_profile_refuses_an_invalid_eps(eps):
    psi = Observable(np.arange(6) % 2, 2)
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        ergodic_profile(np.roll(np.arange(6), 1), psi, eps)


def test_rewire_six_cycle_hand_trace():
    t = np.array([1, 2, 3, 4, 5, 0])
    psi = Observable([0, 1, 0, 1, 0, 1], 2)
    j = Coupling.from_probs([[0.5, 0.0], [0.0, 0.5]])
    t2, report = rewire(t, psi, j, 0.05, check=False)
    assert t2.tolist() == [1, 3, 4, 5, 0, 2]
    pairs = joint_pair_distribution(psi, t2)
    assert np.array_equal(pairs.counts, [[2, 1], [1, 2]])
    assert report.achieved_error == pytest.approx(1 / 6)
    assert verify_same_orbits(t, t2)


def test_rewire_identity_permutation_all_bad():
    t = np.arange(8)
    psi = Observable([0, 1] * 4, 2)
    j = Coupling.from_probs(np.full((2, 2), 0.25))
    t2, report = rewire(t, psi, j, 0.05)
    assert np.array_equal(t2, t)
    assert report.good_mass == 0.0
    assert all(not row.good for row in report.per_cycle)


def test_rewire_preconditions():
    t = np.roll(np.arange(10), -1)
    psi = Observable([0, 1] * 5, 2)
    j = Coupling.from_probs(np.full((2, 2), 0.25))
    with pytest.raises(PreconditionError, match="1/6"):
        rewire(t, psi, j, 0.3)
    thin = Coupling.from_probs([[0.45, 0.05], [0.05, 0.45]])
    with pytest.raises(PreconditionError, match="min coupling entry"):
        rewire(t, psi, thin, 0.05)
    skew = Observable([0, 0, 0, 1] * 2 + [0, 0], 2)
    with pytest.raises(PreconditionError, match="margins"):
        rewire(t, skew, j, 0.05)


def test_rewire_margin_precondition_sits_at_eps():
    # coupling margins (0.5 + d, 0.5 - d) against balanced labels: gap d
    t = np.roll(np.arange(100), -1)
    psi = Observable([0, 1] * 50, 2)
    eps = 0.02

    def shifted(d):
        return Coupling.from_probs([[0.25 + d, 0.25], [0.25, 0.25 - d]])

    rewire(t, psi, shifted(0.99 * eps), eps)
    with pytest.raises(PreconditionError, match="margins sit"):
        rewire(t, psi, shifted(1.01 * eps), eps)


def test_rewire_min_entry_precondition_sits_at_2_a_eps():
    # |A| = 2, eps = 0.05: the least entry must exceed 2|A|eps = 0.2
    t = np.roll(np.arange(100), -1)
    psi = Observable([0, 1] * 50, 2)
    rewire(t, psi, Coupling.from_probs([[0.29, 0.21], [0.21, 0.29]]), 0.05)
    with pytest.raises(PreconditionError, match="min coupling entry 0.2 "):
        rewire(t, psi, Coupling.from_probs([[0.3, 0.2], [0.2, 0.3]]), 0.05)


def test_rewire_self_statistics_within_bound():
    rng = np.random.default_rng(21)
    n = 4000
    t = permutation_with_cycle_lengths([n], rng)
    psi = Observable(rng.integers(0, 2, size=n), 2)
    j = joint_pair_distribution(psi, t)
    t2, report = rewire(t, psi, j, 0.05)
    assert verify_same_orbits(t, t2)
    assert report.achieved_error <= report.bound


def test_rewire_same_orbits_unconditional():
    rng = np.random.default_rng(22)
    for trial in range(200):
        n = int(rng.integers(1, 40))
        if trial % 4 == 0:
            t = np.arange(n)  # identity
        elif trial % 4 == 1:
            t = rng.permutation(n)
        else:
            lengths = []
            left = n
            while left:
                size = int(min(left, rng.integers(1, 8)))
                lengths.append(size)
                left -= size
            t = permutation_with_cycle_lengths(lengths, rng)
        a = int(rng.integers(1, 4))
        psi = Observable(rng.integers(0, a, size=n), a)
        w = rng.random((a, a))
        w = (w + w.T) / (2 * w.sum())
        j = Coupling.from_probs(w / w.sum())
        t2, report = rewire(t, psi, j, 0.1, check=False)
        assert verify_same_orbits(t, t2)
        assert np.bincount(t2, minlength=n).max() <= 1 or n == 0
        assert 0.0 <= report.good_mass <= 1.0
        assert len(report.per_cycle) == len(cycle_decomposition(t).cycles)


def test_rewire_good_cycles_stay_single_cycles():
    rng = np.random.default_rng(23)
    n = 3000
    t = permutation_with_cycle_lengths([1000, 1200, 800], rng)
    psi = Observable(rng.integers(0, 2, size=n), 2)
    j = mixture_coupling(
        joint_pair_distribution(psi, t), 0.2, empirical_distribution(psi)
    )
    t2, report = rewire(t, psi, j, 0.03)
    assert report.good_mass > 0
    dec = cycle_decomposition(t)
    dec2 = cycle_decomposition(t2)
    assert len(dec2.cycles) == len(dec.cycles)
    for c, c2 in zip(dec.cycles, dec2.cycles):
        assert np.array_equal(np.sort(c), np.sort(c2))


def test_rewire_forcing_bad_cycles_degrades_gracefully():
    # each cycle carries one label, so every cycle deviates by 1/2 from the
    # global distribution while the checked hypotheses hold
    rng = np.random.default_rng(24)
    t = permutation_with_cycle_lengths([1000, 1000], rng)
    psi = Observable(cycle_decomposition(t).cycle_of, 2)
    j = mixture_coupling(
        joint_pair_distribution(psi, t), 0.2, empirical_distribution(psi)
    )
    forced = rewire(t, psi, j, 0.01)
    assert verify_same_orbits(t, forced[0])
    assert forced[1].good_mass == 0.0
    assert not any(c.good for c in forced[1].per_cycle)
    assert np.array_equal(forced[0], t)
    assert forced[1].achieved_error == linf(joint_pair_distribution(psi, t), j)


def test_verify_same_orbits_refuses_non_integer_images():
    # an int64 cast would truncate [1.7, 0.2, 2.9] into the permutation [1, 0, 2]
    with pytest.raises(ValueError, match="t must be integers"):
        verify_same_orbits(np.array([1.7, 0.2, 2.9]), np.array([1, 0, 2]))
    with pytest.raises(ValueError, match="t2 must be integers"):
        verify_same_orbits(np.array([1, 0, 2]), np.array([1.7, 0.2, 2.9]))


def test_verify_same_orbits_refuses_a_repeated_point():
    with pytest.raises(ValueError, match="t2 is not a permutation"):
        verify_same_orbits(np.array([1, 0, 2]), np.array([0, 0, 2]))
    with pytest.raises(ValueError, match="t is not a permutation"):
        verify_same_orbits(np.array([0, 0, 2]), np.array([0, 1, 2]))


def test_verify_same_orbits_examples():
    t = np.array([1, 0, 3, 4, 2])
    assert verify_same_orbits(t, t)
    inv = np.empty(5, dtype=np.int64)
    inv[t] = np.arange(5)
    assert verify_same_orbits(t, inv)
    assert not verify_same_orbits(np.array([1, 0, 3, 2]), np.array([1, 2, 3, 0]))


def _rewire_instance(lengths, seed, a):
    rng = np.random.default_rng(seed)
    t = permutation_with_cycle_lengths(lengths, rng)
    psi = Observable(rng.integers(0, a, size=t.shape[0]), a)
    w = rng.random((a, a)) + 0.1
    j = Coupling.from_probs((w + w.T) / (w + w.T).sum())
    return t, psi, j


def test_rewire_report_holds_read_only_arrays_and_builds_rows_on_first_read():
    lengths = [1, 2, 2, 3, 7, 40, 40, 120]
    t, psi, j = _rewire_instance(lengths, 8, 2)
    _, report = rewire(t, psi, j, 0.3, check=False)
    # the call itself builds no CycleOutcome
    assert "per_cycle" not in vars(report)
    dec = cycle_decomposition(t)
    assert report.lengths.dtype == np.int64
    assert np.array_equal(report.lengths, dec.lengths())
    assert report.good.dtype == bool and report.error.dtype == np.float64
    assert report.good.shape == report.error.shape == (len(dec.cycles),)
    assert not report.good[report.lengths < 3].any() and report.good.any()
    assert report.good_mass == report.lengths[report.good].sum() / t.shape[0]
    for name in ("lengths", "good", "error"):
        array = getattr(report, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    with pytest.raises(AttributeError):
        report.good = report.good.copy()

    rows = tuple(
        CycleOutcome(int(length), bool(good), float(error))
        for length, good, error in zip(report.lengths, report.good, report.error)
    )
    assert report.per_cycle == rows
    assert vars(report)["per_cycle"] is report.per_cycle


def test_rewire_reports_compare_by_value():
    t, psi, j = _rewire_instance([3, 5, 40], 4, 2)
    _, report = rewire(t, psi, j, 0.3, check=False)
    _, again = rewire(t, psi, j, 0.3, check=False)
    assert again.per_cycle  # a built row cache takes no part in ==
    assert report == again and not report != again
    same = {f.name: getattr(report, f.name) for f in fields(report)}
    error = report.error.copy()
    error[0] += 1.0
    assert report != RewireReport(**{**same, "error": error})
    assert report != RewireReport(**{**same, "bound": report.bound * 2})


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=40),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.booleans(),
)
def test_rewire_core_matches_public_rewire(lengths, seed, a, check):
    t, psi, j = _rewire_instance(lengths, seed, a)
    # with checks waived, eps is only the deviation gate: 0.3 lets most
    # cycles through; checks need eps below 1/6
    eps = 0.15 if check else 0.3
    try:
        want = rewire(t, psi, j, eps, check=check)
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _rewire_cycles(t, cycle_decomposition(t), psi, j, eps, check=check)
        return
    t_new, report, pairs = _rewire_cycles(
        t, cycle_decomposition(t), psi, j, eps, check=check
    )
    assert t_new.dtype == want[0].dtype and t_new.tobytes() == want[0].tobytes()
    assert report == want[1]
    expected = joint_pair_distribution(psi, t_new)
    assert pairs.denom == expected.denom
    assert np.array_equal(pairs.counts, expected.counts)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=40),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3).flatmap(lambda a: st.tuples(st.just(a), st.integers(1, a))),
    st.booleans(),
)
def test_rewire_keeps_orbits(lengths, seed, alphabet, check):
    # the cycle type brings fixed points, 2-cycles and one long cycle; labels
    # use the first `used` of `a` symbols, so |A| = 1 and empty atoms occur.
    # The target is the product of the label distribution, which meets the
    # checked hypotheses on some draws and misses them on others
    a, used = alphabet
    rng = np.random.default_rng(seed)
    t = permutation_with_cycle_lengths(lengths, rng)
    psi = Observable(rng.integers(0, used, size=t.shape[0]), a)
    j = product_coupling(empirical_distribution(psi))
    try:
        t_new, report = rewire(t, psi, j, 0.05 / a if check else 0.3, check=check)
    except PreconditionError:
        assert check
        return
    assert verify_same_orbits(t, t_new)
    assert len(report.per_cycle) == len(lengths)
    assert report.good_mass <= sum(v for v in lengths if v >= 3) / t.shape[0]


def test_rewire_rejects_empty_permutation():
    empty = np.empty(0, dtype=np.int64)
    j = Coupling.from_probs(np.full((2, 2), 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty permutation"):
            rewire(empty, Observable(empty, 2), j, 0.05)


def test_rewire_refuses_a_non_permutation_before_other_checks():
    j = Coupling.from_probs(np.full((2, 2), 0.25))
    # the observable size, the alphabet and eps are all wrong as well
    psi = Observable(np.zeros(5, dtype=np.int64), 3)
    with pytest.raises(ValueError, match="input is not a permutation"):
        rewire(np.array([0, 0, 1]), psi, j, 0.5)
    with pytest.raises(ValueError, match="permutation images must be integers"):
        rewire(np.array([0.5, 1.0, 2.0]), psi, j, 0.5)


@pytest.mark.parametrize("eps", [-1.0, 0.0, float("nan"), float("inf")])
@pytest.mark.parametrize("check", [True, False])
def test_rewire_refuses_invalid_eps_even_with_checks_waived(eps, check):
    # with checks waived, eps = -1 would report the bound 9|A|eps = -18
    t, psi, j = _rewire_instance([5, 7, 9], 3, 2)
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        rewire(t, psi, j, eps, check=check)


def test_rewire_checks_the_permutation_once(monkeypatch):
    checked = []
    original = importlib.import_module("orbitforge.spaces")._as_permutation

    def counted(values, what):
        checked.append(what)
        return original(values, what)

    # every orbitforge namespace that binds the test, so a from-import counts
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "orbitforge" and "_as_permutation" in vars(module):
            monkeypatch.setattr(module, "_as_permutation", counted)
    t, psi, j = _rewire_instance([5, 7, 9], 3, 2)
    # eps = 0.3 lets two of the three cycles through the deviation gate
    _, report = rewire(t, psi, j, 0.3, check=False)
    assert report.good_mass > 0
    # the input once, by its decomposition, and the output once, where it
    # is handed out; the rearranged lines are not checked on their own
    assert checked == ["input", "rewired permutation"]


def test_deviations_refuse_sizes_beyond_exact_range(monkeypatch):
    rewire_module = importlib.import_module("orbitforge.rewire")
    t = np.roll(np.arange(12), -1)
    psi = Observable(np.arange(12) % 2, 2)
    monkeypatch.setattr(rewire_module, "EXACT_DEVIATION_N", 12)
    assert ergodic_profile(t, psi, 0.1)[0] == 0.0
    monkeypatch.setattr(rewire_module, "EXACT_DEVIATION_N", 11)
    with pytest.raises(ValueError, match="exactly"):
        ergodic_profile(t, psi, 0.1)
    with pytest.raises(ValueError, match="exactly"):
        rewire(t, psi, Coupling.from_probs(np.full((2, 2), 0.25)), 0.05)
