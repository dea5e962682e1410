"""Rewiring a permutation inside its own cycles toward target statistics.

Builds a permutation with a handful of long cycles, labels its points, and
rewires it so that consecutive-label pairs approximate a prescribed
coupling while every cycle keeps exactly the same point set.

Run:  python demos/orbit_rewiring.py
"""

import numpy as np

from orbitforge import (
    Coupling,
    Observable,
    cycle_decomposition,
    empirical_distribution,
    ergodic_profile,
    joint_pair_distribution,
    permutation_with_cycle_lengths,
    rewire,
    verify_same_orbits,
)

rng = np.random.default_rng(11)

N = 60_000
EPS = 0.03
lengths = [24_000, 20_000, 16_000]
t = permutation_with_cycle_lengths(lengths, rng)
psi = Observable(rng.integers(0, 2, size=N), 2)

dec = cycle_decomposition(t)
bases = dec.order[dec.offsets[:-1]]
print(f"cycles: {dec.lengths().tolist()}, bases: {bases.tolist()}")

bad_mass, dev = ergodic_profile(t, psi, EPS)
print(f"per-cycle label deviation from global: {np.round(dev, 4)} (off-mass {bad_mass})")

# aim for strongly diagonal pair statistics (long same-label runs)
target = Coupling.from_probs([[0.35, 0.15], [0.15, 0.35]])
before = joint_pair_distribution(psi, t)
print(f"\npair statistics before:\n{np.round(before.real, 4)}")

t_new, report = rewire(t, psi, target, EPS)
after = joint_pair_distribution(psi, t_new)
print(f"pair statistics after:\n{np.round(after.real, 4)}")
print(f"target:\n{target.real}")
print(f"\nachieved error {report.achieved_error:.5f} vs bound 9|A|eps = {report.bound}")
print(f"rewired mass {report.good_mass:.3f}")
print(f"orbits preserved: {verify_same_orbits(t, t_new)}")
print(f"label distribution unchanged: "
      f"{np.array_equal(empirical_distribution(psi).counts, psi.atom_sizes())}")
