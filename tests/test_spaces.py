import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge import (
    Coupling,
    Dist,
    FiniteAction,
    LineBijection,
    Observable,
    ball_transport_certificate,
    cycle_decomposition,
    cycle_min_labels,
    empirical_distribution,
    empirical_pair_distribution,
    inverse_permutation,
    is_permutation,
    joint_pair_distribution,
    linf,
    mixture_coupling,
    permutation_with_cycle_lengths,
    product_coupling,
    rewire,
)
from orbitforge.rearrange import _close, _merge


def test_empirical_distribution_examples():
    assert np.array_equal(
        empirical_distribution(Observable([0, 0, 1, 1], 2)).counts, [2, 2]
    )
    assert np.array_equal(
        empirical_distribution(Observable([0, 0, 0, 0], 2)).counts, [4, 0]
    )
    d = empirical_distribution(Observable([0, 1, 0, 1, 0], 2))
    assert np.array_equal(d.counts, [3, 2]) and d.denom == 5


def test_pair_distribution_constant_labels():
    phi = Observable([0, 0, 0], 1)
    j = empirical_pair_distribution(phi, np.array([1, 2]))
    assert j.counts[0, 0] == 2 and j.denom == 2


def test_pair_distribution_hand_count():
    # edges (0,2), (2,1), (1,3): labels (a,a), (a,b), (b,b)
    phi = Observable([0, 1, 0, 1], 2)
    sigma = np.array([2, 3, 1])
    j = empirical_pair_distribution(phi, sigma)
    assert np.array_equal(j.counts, [[1, 1], [0, 1]])
    assert j.denom == 3


def test_pair_distribution_single_edge():
    phi = Observable([0, 1], 2)
    j = empirical_pair_distribution(phi, np.array([1]))
    assert np.array_equal(j.counts, [[0, 1], [0, 0]])


def test_pair_margins_close_to_empirical():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(3, 60))
        a = int(rng.integers(1, 5))
        phi = Observable(rng.integers(0, a, size=n), a)
        sigma = 1 + rng.permutation(n - 1)
        j = empirical_pair_distribution(phi, sigma)
        pi = empirical_distribution(phi)
        assert linf(Dist(j.counts.sum(axis=1), n - 1), pi) <= 1 / (n - 1) + 1e-15
        assert linf(Dist(j.counts.sum(axis=0), n - 1), pi) <= 1 / (n - 1) + 1e-15


def test_linf_examples():
    p = Dist(np.array([1, 1]), 2)
    assert linf(p, p) == 0.0
    assert linf(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    # exact rational path: |3/10 - 1/4| = 1/20
    assert linf(Dist(np.array([3, 7]), 10), Dist(np.array([1, 3]), 4)) == 0.05


def test_linf_shape_mismatch():
    with pytest.raises(ValueError):
        linf(np.zeros(2), np.zeros(3))


def test_product_coupling_examples():
    point = product_coupling(Dist(np.array([1, 0]), 1))
    assert point.real[0, 0] == 1.0
    uniform = product_coupling(Dist(np.array([1, 1]), 2))
    assert np.all(uniform.real == 0.25)
    skew = product_coupling(Dist(np.array([3, 1]), 4))
    assert np.array_equal(skew.counts, [[9, 3], [3, 1]]) and skew.denom == 16


def test_mixture_coupling_examples():
    pi = Dist(np.array([1, 1]), 2)
    c = Coupling.from_counts(np.diag(pi.counts), pi.denom)
    unchanged = mixture_coupling(c, 0.0, pi)
    assert np.allclose(unchanged.real, c.real)
    full = mixture_coupling(c, 1.0, pi)
    assert np.allclose(full.real, product_coupling(pi).real)
    half = mixture_coupling(c, 0.5, pi)
    assert np.allclose(half.real, [[3 / 8, 1 / 8], [1 / 8, 3 / 8]])


def test_mixture_coupling_min_entry_floor():
    # every entry is at least eps * min(pi)^2, also where c is zero
    rng = np.random.default_rng(5)
    phi = Observable(rng.integers(0, 3, size=60), 3)
    pi = empirical_distribution(phi)
    diagonal = joint_pair_distribution(phi, np.arange(60))
    eps = 0.2
    j = mixture_coupling(diagonal, eps, pi)
    assert diagonal.counts.min() == 0
    assert j.real.min() >= eps * float(pi.real.min()) ** 2 - 1e-12


def test_mixture_margin_mismatch_rejected():
    pi = Dist(np.array([1, 1]), 2)
    lop = Coupling.from_probs([[0.5, 0.0], [0.25, 0.25]])
    with pytest.raises(ValueError):
        mixture_coupling(lop, 0.5, pi)


@given(
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_mixture_is_linear(e1, e2):
    pi = Dist(np.array([2, 1, 1]), 4)
    c = Coupling.from_counts(np.diag(pi.counts), pi.denom)
    twice = mixture_coupling(mixture_coupling(c, e1, pi), e2, pi)
    once = mixture_coupling(c, 1 - (1 - e1) * (1 - e2), pi)
    assert np.allclose(twice.real, once.real, atol=1e-12)


def test_mixture_positive_entries():
    pi = Dist(np.array([3, 1]), 4)
    c = Coupling.from_counts(np.diag(pi.counts), pi.denom)
    mixed = mixture_coupling(c, 0.125, pi)
    assert mixed.real.min() > 0
    mixture_coupling(mixed, 0.5, pi)  # its margins are still pi


def test_margins_check_examples():
    # mixture_coupling refuses a coupling whose margins are not pi
    pi = Dist(np.array([1, 1]), 2)
    mixture_coupling(product_coupling(pi), 0.5, pi)
    mixture_coupling(Coupling.from_counts(np.diag(pi.counts), pi.denom), 0.5, pi)
    refused = "coupling margins do not match"
    # rows match but columns are (3/4, 1/4)
    with pytest.raises(ValueError, match=refused):
        mixture_coupling(Coupling.from_counts(np.array([[2, 0], [1, 1]]), 4), 0.5, pi)
    with pytest.raises(ValueError, match=refused):
        mixture_coupling(Coupling.from_probs([[0.5, 0.0], [0.25, 0.25]]), 0.5, pi)
    # exact margins 1e-14 apart, closer than the real tolerance REAL_TOL
    near = Coupling.from_counts([[10**7, 0], [0, 1]], 10**7 + 1)
    with pytest.raises(ValueError, match=refused):
        mixture_coupling(near, 0.5, Dist(np.array([10**7 - 1, 1]), 10**7))


def test_joint_pair_distribution_counts_all_points():
    phi = Observable([0, 1, 0, 1], 2)
    shift = np.array([1, 2, 3, 0])
    j = joint_pair_distribution(phi, shift)
    assert j.denom == 4
    assert np.array_equal(j.counts, [[0, 2], [2, 0]])


def test_dist_invariants():
    with pytest.raises(ValueError):
        Dist(np.array([1, 1]), 3)
    with pytest.raises(ValueError):
        Dist(np.array([-1, 4]), 3)


def test_observable_invariants():
    with pytest.raises(ValueError):
        Observable(np.array([0, 2]), 2)


def test_coupling_validation():
    with pytest.raises(ValueError):
        Coupling.from_probs([[0.5, 0.1], [0.1, 0.1]])
    with pytest.raises(ValueError):
        Coupling.from_probs([[1.5, -0.5], [0.0, 0.0]])


@given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_empirical_distribution_sums_to_one(labels):
    phi = Observable(labels, 4)
    d = empirical_distribution(phi)
    assert int(d.counts.sum()) == d.denom == phi.n


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        Coupling.from_probs([[bad, 0.5], [0.25, 0.25]])
    with pytest.raises(ValueError, match="finite"):
        Coupling.from_counts(np.array([[bad, 1.0], [1.0, 1.0]]), 4)
    with pytest.raises(ValueError, match="finite"):
        Dist(np.array([bad, 1.0]), 2)


_LABELS3 = Observable([0, 1, 0], 2)
_UNIFORM2 = Coupling.from_probs(np.full((2, 2), 0.25))


def _transport4(beta):
    # at radius 0 the ball refinement of four singletons is themselves, so
    # beta permutes four atoms
    shift = FiniteAction.from_perms([[1, 2, 3, 0]])
    p = Observable([0, 1, 2, 3], 4)
    return ball_transport_certificate(shift, shift, p, 0, beta, 0.1)


# entry point, a non-integral input that an int64 cast would truncate into
# a valid one (or that numpy would refuse only as an index), and the same
# input as integral floats
INTEGER_INPUTS = {
    "FiniteAction": (FiniteAction.from_perms, [[1.7, 0.2, 2.9]], [[1.0, 0.0, 2.0]]),
    "cycle_decomposition": (cycle_decomposition, [1.7, 0.2, 2.9], [1.0, 0.0, 2.0]),
    "rewire": (
        lambda t: rewire(t, _LABELS3, _UNIFORM2, 0.05, check=False),
        [1.7, 2.2, 0.9],
        [1.0, 2.0, 0.0],
    ),
    "Observable": (lambda v: Observable(v, 2), [0.6, 1.4], [0.0, 1.0]),
    "Dist": (lambda v: Dist(v, 1), [0.5, 1.5], [0.0, 1.0]),
    "Coupling.from_counts": (
        lambda v: Coupling.from_counts(v.reshape(2, 2), 3),
        [0.5, 1.5, 1.0, 1.0],
        [0.0, 1.0, 1.0, 1.0],
    ),
    "cycle_min_labels": (cycle_min_labels, [1.7, 0.2, 2.9], [1.0, 0.0, 2.0]),
    "inverse_permutation": (inverse_permutation, [1.7, 0.2, 2.9], [1.0, 0.0, 2.0]),
    "permutation_with_cycle_lengths": (
        lambda v: permutation_with_cycle_lengths(v, np.random.default_rng(0)),
        [2.5, 1.0],
        [2.0, 1.0],
    ),
    "joint_pair_distribution": (
        lambda v: joint_pair_distribution(_LABELS3, v),
        [1.7, 2.2, 0.9],
        [1.0, 2.0, 0.0],
    ),
    "empirical_pair_distribution": (
        lambda v: empirical_pair_distribution(_LABELS3, v),
        [1.9, 2.2],
        [1.0, 2.0],
    ),
    "LineBijection": (lambda v: LineBijection(3, v), [1.9, 2.2], [1.0, 2.0]),
    "ball_transport_certificate(beta)": (
        _transport4,
        [0.4, 2.2, 1.9, 3.0],
        [0.0, 2.0, 1.0, 3.0],
    ),
    "rearrange._merge": (
        lambda v: _merge(np.array([0, 1, 0]), 2, v),
        [1.9, 2.2],
        [1.0, 2.0],
    ),
    "rearrange._close": (_close, [1.9, 2.2], [1.0, 2.0]),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_INPUTS))
def test_non_integer_input_rejected_not_truncated(entry):
    call, bad, integral = INTEGER_INPUTS[entry]
    with pytest.raises(ValueError, match="must be integers"):
        call(np.array(bad))
    call(np.array(integral))


_PHI4 = Observable([0, 1, 0, 1], 2)

# index inputs outside their range or taken twice, each refused with the
# library's own ValueError: a negative index must not wrap to the far end,
# one past the end must not reach numpy's IndexError, and a repeated image
# must not be counted as if it were a permutation
OUT_OF_RANGE_INPUTS = {
    "beta(k)": (
        lambda: _transport4([0, 1, 2, 9]),
        "beta is not a permutation",
    ),
    "beta(-1)": (
        lambda: _transport4([0, 1, 2, -1]),
        "beta is not a permutation",
    ),
    "joint_pair_distribution(-1)": (
        lambda: joint_pair_distribution(_PHI4, [-1, 0, 1, 2]),
        "perm is not a permutation",
    ),
    "joint_pair_distribution(repeated)": (
        lambda: joint_pair_distribution(_PHI4, [0, 0, 0, 0]),
        "perm is not a permutation",
    ),
    "empirical_pair_distribution(0)": (
        lambda: empirical_pair_distribution(_LABELS3, [0, 1]),
        "closed line is not a permutation",
    ),
    "empirical_pair_distribution(repeated)": (
        lambda: empirical_pair_distribution(_LABELS3, [2, 2]),
        "closed line is not a permutation",
    ),
    "inverse_permutation(repeated)": (
        lambda: inverse_permutation([0, 0, 1]),
        "p is not a permutation",
    ),
}


@pytest.mark.parametrize("entry", sorted(OUT_OF_RANGE_INPUTS))
def test_out_of_range_index_rejected_not_wrapped(entry):
    call, message = OUT_OF_RANGE_INPUTS[entry]
    with pytest.raises(ValueError, match=message):
        call()


def test_is_permutation_false_on_non_integer_values():
    assert not is_permutation(np.array([0.5, 1.2]))
    assert not is_permutation(np.array([1.7, 0.2, 2.9]))
    assert not is_permutation(np.array([np.nan, 0.0]))
    assert is_permutation(np.array([1.0, 0.0]))
