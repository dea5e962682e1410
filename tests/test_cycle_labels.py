"""Cycle labelling by ruling-set contraction against the doubling oracle.

``cycle_min_labels`` and ``cycle_decomposition`` contract each permutation
onto every 16th point by a lockstep walk before doubling.  The inputs here
are large enough for that path, and shaped to strain it: cycles that avoid
every ruler, a ruler chain with one gap of nearly n points, mixes of those
with long cycles, the rulers on a cycle of their own, and the probe points
of ``_short_cycles`` on 2-cycles beside one long cycle.  Every output must
equal ``reference_impl``'s byte for byte.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from orbitforge import CertificationError, cycle_decomposition, cycle_min_labels
from orbitforge import permutations
from orbitforge.cli import main
from orbitforge.permutations import permutation_with_cycle_lengths

GAP = permutations._RULER_GAP


def assert_matches_oracle(p):
    p = np.asarray(p, dtype=np.int64)
    labels, want = cycle_min_labels(p), ref.cycle_min_labels(p)
    assert labels.dtype == want.dtype and labels.tobytes() == want.tobytes()
    dec, old = cycle_decomposition(p), ref.cycle_decomposition(p)
    order = np.concatenate(old.cycles or [np.empty(0, np.int64)])
    assert dec.order.dtype == order.dtype and dec.order.tobytes() == order.tobytes()
    assert np.array_equal(dec.lengths(), old.lengths())
    assert dec.cycle_of.dtype == old.cycle_of.dtype
    assert dec.cycle_of.tobytes() == old.cycle_of.tobytes()


def contracted(p) -> bool:
    nodes = permutations._contract(np.asarray(p, dtype=np.int64))
    return nodes.owner is not None


def ragged(n, rng, low, high):
    lengths, left = [], n
    while left:
        size = int(min(left, rng.integers(low, high + 1)))
        lengths.append(size)
        left -= size
    return lengths


def cycles_on(points, lengths, p):
    """Chain ``points``, in the given order, into cycles of ``lengths``."""
    start = 0
    for length in lengths:
        run = points[start : start + length]
        p[run] = np.roll(run, -1)
        start += length
    return p


def off_rulers(n, rng, low, high):
    # rulers stay fixed; every other point lies on a cycle with no ruler
    p = np.arange(n)
    points = rng.permutation(np.flatnonzero(np.arange(n) % GAP))
    return cycles_on(points, ragged(points.shape[0], rng, low, high), p)


def rulers_first(n):
    # one n-cycle through every ruler in turn, then through every other
    # point: one ruler gap of nearly n points
    idx = np.arange(n)
    points = np.concatenate([idx[idx % GAP == 0], idx[idx % GAP != 0]])
    return cycles_on(points, [n], np.arange(n))


def long_gaps(n, gap):
    # one n-cycle on which a fourteenth of the rulers lead runs of ``gap``
    # other points, longer than a walk may go, and the rest share the others
    idx = np.arange(n)
    rulers, others = idx[idx % GAP == 0], idx[idx % GAP != 0]
    long = rulers.shape[0] // 14
    runs = np.full(rulers.shape[0], gap, dtype=np.int64)
    rest, short = others.shape[0] - gap * long, rulers.shape[0] - long
    runs[long:] = rest // short
    runs[long : long + rest % short] += 1
    start = np.concatenate([[0], np.cumsum(runs)])
    points = np.concatenate(
        [
            np.concatenate([[r], others[lo:hi]])
            for r, lo, hi in zip(rulers, start, start[1:])
        ]
    )
    return cycles_on(points, [n], np.arange(n))


def rulers_apart(n, rng):
    # the rulers on one cycle of their own and every other point on one
    # random cycle: no walk leaves the rulers' cycle
    idx = np.arange(n)
    rulers, others = idx[idx % GAP == 0], idx[idx % GAP != 0]
    p = cycles_on(rulers, [rulers.shape[0]], np.arange(n))
    return cycles_on(rng.permutation(others), [others.shape[0]], p)


def probes_paired(n, rng):
    # the points _short_cycles probes, each on a 2-cycle with the next
    # point, and every other point on one random cycle: the probe sees only
    # short cycles although nearly every point lies on a long one
    probes = np.arange(0, n, max(1, n // permutations._PROBES))
    paired = np.stack([probes, probes + 1], axis=1).ravel()
    p = cycles_on(paired, [2] * probes.shape[0], np.arange(n))
    others = np.setdiff1d(np.arange(n), paired)
    return cycles_on(rng.permutation(others), [others.shape[0]], p)


def involution(n, rng):
    p = np.arange(n)
    order = rng.permutation(n)
    half = n // 2
    p[order[:half]], p[order[half : 2 * half]] = order[half : 2 * half], order[:half]
    return p


def stacked(low, high):
    """``low`` on the first points and ``high`` on the rest."""
    return np.concatenate([low, high + low.shape[0]])


def shapes(n, rng):
    shift = np.roll(np.arange(n), -1)
    yield "identity", np.arange(n)
    yield "involution", involution(n, rng)
    yield "one n-cycle", permutation_with_cycle_lengths([n], rng)
    yield "shift", shift
    yield "uniform", rng.permutation(n)
    yield "off rulers, 2 to 9", off_rulers(n, rng, 2, 9)
    yield "off rulers, 20 to 60", off_rulers(n, rng, 20, 60)
    yield "rulers first", rulers_first(n)
    yield "gaps of 200", long_gaps(n, 200)
    for low, high in ((17, 17), (12, 40)):
        lengths = ragged(n, rng, low, high)
        yield f"lengths {low} to {high}", permutation_with_cycle_lengths(lengths, rng)
    blocks = ragged(n, rng, 300, 300)
    yield "shifted blocks of 300", cycles_on(np.arange(n), blocks, np.arange(n))
    for cut in (n // 3, 2 * n // 3):
        long = permutation_with_cycle_lengths([n - cut], rng)
        yield f"off rulers, long {cut}", stacked(off_rulers(cut, rng, 3, 12), long)
        yield f"identity, long {cut}", stacked(np.arange(cut), long)
        yield f"involution, long {cut}", stacked(involution(cut, rng), long)
        yield f"long, rulers first {cut}", stacked(long, rulers_first(cut))
    yield "rulers apart", rulers_apart(n, rng)
    yield "probes paired", probes_paired(n, rng)


@pytest.mark.parametrize("n", [GAP * 64, 10_007])
def test_adversarial_shapes_match_oracle(n):
    rng = np.random.default_rng(n)
    seen = set()
    for name, p in shapes(n, rng):
        assert np.array_equal(np.sort(p), np.arange(n)), name
        assert_matches_oracle(p)
        seen.add((name, contracted(p)))
    # both paths are exercised: short cycles are labelled by doubling on
    # the points, everything with long cycles through the walk
    assert ("identity", False) in seen and ("involution", False) in seen
    assert ("off rulers, 2 to 9", False) in seen
    for name in ("uniform", "one n-cycle", "shift", "rulers first", "gaps of 200"):
        assert (name, True) in seen, name


def test_walks_cut_short_leave_their_tails_to_doubling():
    n = GAP * 448
    m = n // GAP
    # the rulers map to each other except the last, whose gap holds every
    # other point; its walk stops at once and the tail becomes nodes
    nodes = permutations._contract(rulers_first(n))
    assert nodes.owner is not None and nodes.succ.shape[0] > n - m - GAP
    # a fourteenth of the walks would take 201 steps: they stop at the step
    # limit, each leaving 200 - _WALK_STEPS points as nodes of one point
    nodes = permutations._contract(long_gaps(n, 200))
    tails = (m // 14) * (200 - permutations._WALK_STEPS)
    assert nodes.succ.shape[0] == m + tails
    assert int(nodes.size.max()) == permutations._WALK_STEPS + 1
    for p in (rulers_first(n), long_gaps(n, 200)):
        assert_matches_oracle(p)


@st.composite
def large_permutations(draw):
    n = draw(st.integers(4 * GAP, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "ragged", "blocks", "off rulers, long"]))
    if kind == "uniform":
        return rng.permutation(n)
    low = draw(st.integers(1, 300))
    high = draw(st.integers(low, 600))
    if kind == "ragged":
        return permutation_with_cycle_lengths(ragged(n, rng, low, high), rng)
    if kind == "blocks":
        return cycles_on(np.arange(n), ragged(n, rng, low, high), np.arange(n))
    cut = draw(st.integers(0, n))
    long = permutation_with_cycle_lengths([n - cut] if n > cut else [], rng)
    return stacked(off_rulers(cut, rng, 1, min(high, 40)), long)


@settings(max_examples=150, deadline=None)
@given(large_permutations())
def test_contracted_labels_match_oracle(p):
    assert_matches_oracle(p)


def test_decomposition_allocation_peak():
    # at most six int64 arrays of n alive at once; the two-pass kernel it
    # replaced peaked at about five
    n = 200_000
    rng = np.random.default_rng(12)
    t = permutation_with_cycle_lengths(ragged(n, rng, 12, 40), rng)
    assert contracted(t)
    tracemalloc.start()
    try:
        dec = cycle_decomposition(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dec.n == n
    assert peak <= 6 * 8 * n, peak


def test_a_kernel_that_gives_two_cycles_one_minimum_raises_in_time(
    monkeypatch, tmp_path, capsys
):
    # the mutant hands the cycle with the largest minimum the least one, so
    # no node of that cycle heads it and the ranking never reaches its end;
    # uncapped, cycle_decomposition spun at this size
    minima = permutations._node_minima

    def one_minimum_for_two_cycles(succ, low):
        low = minima(succ, low)
        low[low == low.max()] = low.min()
        return low

    n = 5_000
    t = permutation_with_cycle_lengths([n // 2, n // 2], np.random.default_rng(5))
    assert contracted(t)
    monkeypatch.setattr(permutations, "_node_minima", one_minimum_for_two_cycles)
    message = "cycle ranking did not converge: a cycle has no head"
    start = time.perf_counter()
    with pytest.raises(CertificationError, match=f"^{message}$"):
        cycle_decomposition(t)
    assert time.perf_counter() - start < 1
    perm, labels, coupling = (tmp_path / f for f in ("t.txt", "psi.txt", "j.csv"))
    perm.write_text("".join(f"{v}\n" for v in t))
    labels.write_text("a\nb\n" * (n // 2))
    coupling.write_text("0.25,0.25\n0.25,0.25\n")
    args = [f"--perm={perm}", f"--labels={labels}", f"--coupling={coupling}"]
    start = time.perf_counter()
    assert main(["rewire", *args, "--eps=0.05"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"pipeline failed: {message}\n"
