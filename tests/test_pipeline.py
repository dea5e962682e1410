import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import orbitforge
from orbitforge import freegroup, pipeline
from orbitforge import (
    CertificationError,
    Coupling,
    Dist,
    FiniteAction,
    GoodObservableError,
    Observable,
    PipelineConfig,
    empirical_distribution,
    good_observable,
    joint_pair_distribution,
    linf,
    mixture_coupling,
    parse_config,
    permutation_with_cycle_lengths,
    rearrange_line,
    rewire,
    run_experiment,
    verify_oe,
)
from orbitforge.pipeline import (
    ConfigError,
    _read_coupling_csv,
    _read_labels,
    _read_permutations,
)


def _oe_approximate(a, b, phi, eps, retries, seed):
    """The pipeline's rewiring of ``a`` toward the statistics of ``(b, phi)``."""
    target = pipeline._target_side(b, phi)
    return pipeline._oe_approximate(a, phi, eps, retries, seed, target)


def test_good_observable_single_symbol_immediate():
    a = FiniteAction.from_perms([np.roll(np.arange(50), -1)])
    psi, attempts = good_observable(a, Dist(np.array([50]), 50), 0.05, 5, seed=1)
    assert attempts == 1
    assert psi.alphabet_size == 1


def test_good_observable_rejects_short_cycles():
    pairs = np.arange(100).reshape(50, 2)
    t = np.empty(100, dtype=np.int64)
    t[pairs[:, 0]] = pairs[:, 1]
    t[pairs[:, 1]] = pairs[:, 0]
    a = FiniteAction.from_perms([t])
    with pytest.raises(GoodObservableError) as info:
        good_observable(a, Dist(np.array([1, 1]), 2), 0.01, 3, seed=2)
    assert info.value.attempts == 3
    assert info.value.worst_bad_mass


def test_good_observable_refuses_a_nan_eps():
    # a NaN eps fails every acceptance test; the error must name eps, not
    # the cycles
    a = FiniteAction.from_perms([np.roll(np.arange(50), -1)])
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        good_observable(a, Dist(np.array([25, 25]), 50), float("nan"), 3, seed=1)


def test_good_observable_refuses_a_label_gap_at_the_bound():
    a = FiniteAction.from_perms([np.roll(np.arange(101), -1)])
    pi = Dist(np.array([1, 1]), 2)
    psi, attempts = good_observable(a, pi, 0.05, 5, seed=4)
    gap = float(np.abs(psi.atom_sizes() / 101 - pi.real).max())
    loose, loose_attempts = good_observable(a, pi, 0.05, 5, seed=4, gap_below=1.0)
    assert loose_attempts == attempts and np.array_equal(loose.labels, psi.labels)
    # the same draws, with the bound at the accepted attempt's own gap
    with pytest.raises(GoodObservableError, match="label distribution gap") as info:
        good_observable(a, pi, 0.05, attempts, seed=4, gap_below=gap)
    assert info.value.label_gap == gap


@pytest.mark.parametrize("seed", [0, 5, 11, 19])
@pytest.mark.parametrize("retries", [1, 5])
def test_shrunk_eps_resamples_instead_of_raising(seed, retries):
    # |A| = 3 at n = 3,000: the least target entry fails 2|A|eps, so the
    # working eps shrinks below the sampling noise of the label frequencies;
    # these seeds raised PreconditionError out of run_experiment
    config = PipelineConfig(
        n=3000, rank=2, alphabet=3, eps_schedule=(0.1, 0.05), seed=seed, retries=retries
    )
    try:
        result = run_experiment(config)
    except GoodObservableError as exc:
        assert "label distribution gap" in str(exc)
        assert retries == 1
    else:
        assert result.all_bounds_held
        assert any(not g.min_entry_ok for r in result.reports for g in r.generators)


def test_good_observable_random_permutations_accept():
    # random permutations carry little mass on short cycles, so sampling
    # succeeds fast even against the 3*eps deviation threshold
    rng = np.random.default_rng(31)
    a = FiniteAction.from_perms([rng.permutation(20_000) for _ in range(2)])
    _, attempts = good_observable(a, Dist(np.array([1, 1]), 2), 0.05, 5, seed=4)
    assert attempts <= 5


def test_good_observable_accepts_long_cycles_and_is_deterministic():
    rng = np.random.default_rng(7)
    a = FiniteAction.from_perms(
        [permutation_with_cycle_lengths([5000, 5000], rng) for _ in range(2)]
    )
    pi = Dist(np.array([1, 1]), 2)
    psi1, att1 = good_observable(a, pi, 0.05, 5, seed=9)
    psi2, att2 = good_observable(a, pi, 0.05, 5, seed=9)
    assert att1 == att2
    assert np.array_equal(psi1.labels, psi2.labels)


def test_oe_approximate_refuses_an_unused_symbol():
    b = FiniteAction.from_perms([np.arange(6)])
    phi = Observable(np.zeros(6, dtype=np.int64), 2)
    with pytest.raises(ValueError, match="restrict"):
        _oe_approximate(b, b, phi, 0.1, retries=5, seed=0)


def _long_cycle_instance():
    rng = np.random.default_rng(6)
    n = 2000
    a = FiniteAction.from_perms(
        [permutation_with_cycle_lengths([n], rng) for _ in range(2)]
    )
    return a, Observable(np.arange(n) % 2, 2)


def test_oe_approximate_self_target():
    a, phi = _long_cycle_instance()
    a2, psi, report = _oe_approximate(a, a, phi, 0.05, retries=5, seed=0)
    # one long cycle per generator: the first sampled observable is accepted
    assert report.retries_used == 1
    assert verify_oe(a, a2)
    assert report.orbit_equivalent
    for g in report.generators:
        assert g.achieved_error <= g.bound
        assert g.mixture_gap <= 0.05 + 1e-12
        assert g.same_orbits


def test_oe_approximate_reports_the_10_a_eps_bound():
    a, phi = _long_cycle_instance()
    for eps in (0.05, 0.03):
        _, _, report = _oe_approximate(a, a, phi, eps, retries=5, seed=0)
        assert report.bound == 10 * 2 * eps
        assert [g.bound for g in report.generators] == [10 * 2 * eps] * 2


def test_oe_approximate_certifies_the_mixture_gap_at_eps(monkeypatch):
    # a stand-in mixture moves every entry by d and keeps the margins, so
    # its gap to the pair target is d
    a, phi = _long_cycle_instance()
    eps = 0.05

    def shifted(d):
        step = d * np.array([[1.0, -1.0], [-1.0, 1.0]])
        return lambda c, eps, pi: Coupling.from_probs(c.real + step)

    monkeypatch.setattr(pipeline, "mixture_coupling", shifted(eps))
    _, _, report = _oe_approximate(a, a, phi, eps, retries=5, seed=0)
    assert all(abs(g.mixture_gap - eps) < 1e-12 for g in report.generators)
    monkeypatch.setattr(pipeline, "mixture_coupling", shifted(1.01 * eps))
    with pytest.raises(CertificationError, match="generator 0: mixture gap"):
        _oe_approximate(a, a, phi, eps, retries=5, seed=0)


def test_oe_approximate_refuses_an_understated_rewire_error(monkeypatch):
    # the triangle check achieved <= rewire error + mixture gap, in process;
    # the python -O script below checks that it survives the flag
    a, phi = _long_cycle_instance()
    real = pipeline._rewire_cycles

    def understated(*args, **kwargs):
        t_new, report, pairs = real(*args, **kwargs)
        return t_new, dataclasses.replace(report, achieved_error=-1.0), pairs

    monkeypatch.setattr(pipeline, "_rewire_cycles", understated)
    message = r"^generator 0: achieved error \S+ exceeds rewire error -1\.0 \+ mixture"
    with pytest.raises(CertificationError, match=message):
        _oe_approximate(a, a, phi, 0.05, retries=5, seed=0)


def test_oe_approximate_identity_generator_reports_failure():
    rng = np.random.default_rng(12)
    n = 1000
    a = FiniteAction.from_perms([np.arange(n), np.roll(np.arange(n), -1)])
    b = FiniteAction.from_perms([rng.permutation(n) for _ in range(2)])
    phi = Observable(np.arange(n) % 2, 2)
    with pytest.raises(GoodObservableError):
        _oe_approximate(a, b, phi, 0.05, retries=2, seed=0)


def test_verify_oe_examples():
    rng = np.random.default_rng(8)
    perms = [rng.permutation(12) for _ in range(2)]
    a = FiniteAction.from_perms(perms)
    assert verify_oe(a, a)
    inverted = FiniteAction.from_perms(
        [np.argsort(p) for p in perms]
    )
    assert verify_oe(a, inverted)
    replaced = FiniteAction.from_perms(
        [perms[0], np.roll(np.arange(12), -1)]
    )
    assert not verify_oe(a, replaced)


def test_parse_config_happy_path():
    cfg = parse_config(
        """
        # comment
        n = 1000
        rank = 2
        alphabet = 2
        eps = 0.1, 0.05
        seed = 7
        workers = 4
        """
    )
    assert cfg.n == 1000 and cfg.rank == 2
    assert cfg.eps_schedule == (0.1, 0.05)
    assert cfg.workers == 4
    assert cfg.retries == 5 and cfg.phi == "balanced"


def test_parse_config_diagnostics():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("n = 10\nbogus = 1")
    with pytest.raises(ConfigError, match="missing required key 'seed'"):
        parse_config("n = 10\nrank = 1\nalphabet = 2\neps = 0.1")
    with pytest.raises(ConfigError, match="not an integer"):
        parse_config("n = ten\nrank = 1\nalphabet = 2\neps = 0.1\nseed = 0")
    with pytest.raises(ConfigError, match="'key = value'"):
        parse_config("just words")
    with pytest.raises(ConfigError, match="eps"):
        parse_config("n = 10\nrank = 1\nalphabet = 2\neps = big\nseed = 0")


def test_parse_config_empty_schedule():
    # an empty schedule certifies nothing; it used to pass with every bound held
    for eps in ("", ",", " , ,"):
        with pytest.raises(ConfigError, match="^field 'eps': "):
            parse_config(f"n = 10\nrank = 1\nalphabet = 2\neps = {eps}\nseed = 0")


def test_run_experiment_deterministic_across_workers(tmp_path):
    base = dict(
        n=3000,
        rank=2,
        alphabet=2,
        eps_schedule=(0.05,),
        seed=11,
        retries=5,
    )
    one = run_experiment(PipelineConfig(**base, workers=1))
    many = run_experiment(PipelineConfig(**base, workers=4))
    assert one.csv_text == many.csv_text
    assert one.json_text == many.json_text
    assert one.all_bounds_held
    assert '"schema_version": 1' in one.json_text


def test_run_experiment_empty_schedule(tmp_path):
    # refused before any output is written
    with pytest.raises(ValueError, match="schedule lists no value"):
        PipelineConfig(
            n=100,
            rank=1,
            alphabet=2,
            eps_schedule=(),
            seed=0,
            out_csv=str(tmp_path / "out.csv"),
            out_json=str(tmp_path / "out.json"),
        )
    assert not any(tmp_path.iterdir())


def _file_specs(tmp_path, config):
    """The in-memory run's source, target and labels written out as files."""
    specs = {}
    for field, tag in (("source", 101), ("target", 202)):
        action = pipeline._build_action(
            "random", config.n, config.rank, config.seed, tag
        )
        paths = [tmp_path / f"{field}{s}.txt" for s in range(config.rank)]
        for path, perm in zip(paths, action.perms):
            path.write_text("".join(f"{v}\n" for v in perm))
        specs[field] = "file:" + ",".join(map(str, paths))
    phi = pipeline._build_phi("balanced", config.n, config.alphabet)
    (tmp_path / "phi.txt").write_text("".join(f"{v}\n" for v in phi.labels))
    specs["phi"] = f"file:{tmp_path / 'phi.txt'}"
    return specs


def test_file_specs_reproduce_the_in_memory_run(tmp_path):
    config = PipelineConfig(
        n=3000, rank=2, alphabet=2, eps_schedule=(0.1, 0.05), seed=5
    )
    from_files = dataclasses.replace(config, **_file_specs(tmp_path, config))
    want, got = run_experiment(config), run_experiment(from_files)
    assert got.csv_text == want.csv_text
    assert json.loads(got.json_text)["entries"] == json.loads(want.json_text)["entries"]
    assert got.reports == want.reports


def test_file_specs_of_the_wrong_length_name_the_file(tmp_path):
    config = PipelineConfig(n=50, rank=2, alphabet=2, eps_schedule=(0.1,), seed=0)
    specs = _file_specs(tmp_path, config)
    short = tmp_path / "source1.txt"
    short.write_text("".join(f"{v}\n" for v in range(49)))
    message = f"{short}: 49 images, expected n=50"
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_experiment(dataclasses.replace(config, source=specs["source"]))
    labels = tmp_path / "phi.txt"
    labels.write_text("0\n1\n" * 24)
    message = f"{labels}: 48 labels, expected n=50"
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_experiment(dataclasses.replace(config, phi=specs["phi"]))


def test_phi_file_with_another_symbol_count_names_the_file(tmp_path):
    config = PipelineConfig(n=50, rank=2, alphabet=2, eps_schedule=(0.1,), seed=0)
    labels = tmp_path / "phi.txt"
    labels.write_text("0\n1\n2\n" * 16 + "0\n1\n")
    message = f"{labels}: 3 symbols, not 2"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_experiment(dataclasses.replace(config, phi=f"file:{labels}"))


def test_file_roundtrips(tmp_path):
    perm = np.random.default_rng(0).permutation(20)
    (tmp_path / "p.txt").write_text("".join(f"{v}\n" for v in perm))
    assert np.array_equal(_read_permutations([tmp_path / "p.txt"])[0], perm)

    (tmp_path / "labels.txt").write_text("x\ny\nx\nz\n")
    obs = _read_labels(tmp_path / "labels.txt")
    assert obs.alphabet_size == 3
    assert np.array_equal(obs.labels, [0, 1, 0, 2])

    j = Coupling.from_probs([[0.25, 0.25], [0.25, 0.25]])
    (tmp_path / "j.csv").write_text("0.25,0.25\n" * 2)
    back = _read_coupling_csv(tmp_path / "j.csv")
    assert np.array_equal(back.real, j.real)


CERTIFICATION_SCRIPT = """
import dataclasses
import numpy as np
import orbitforge as of
from orbitforge import pipeline

if __debug__:
    raise SystemExit("assertions are on; run under python -O")
rng = np.random.default_rng(6)
n = 2000
a = of.FiniteAction.from_perms(
    [of.permutation_with_cycle_lengths([n], rng) for _ in range(2)]
)
fixed = of.FiniteAction.from_perms([np.arange(n), np.arange(n)])
phi = of.Observable(np.arange(n) % 2, 2)


def run(name, target):
    try:
        side = pipeline._target_side(target, phi)
        pipeline._oe_approximate(a, phi, 0.05, 5, 0, side)
    except of.CertificationError as exc:
        print(name, "raised:", exc)
    else:
        print(name, "passed")


run("honest", a)
real_verify_oe = pipeline.verify_oe
pipeline.verify_oe = lambda x, y: False
run("orbits", a)
pipeline.verify_oe = real_verify_oe
# the product coupling is far from the diagonal statistics of the identity
real_mixture = pipeline.mixture_coupling
pipeline.mixture_coupling = lambda c, eps, pi: of.product_coupling(pi)
run("mixture", fixed)
pipeline.mixture_coupling = real_mixture
real_rewire = pipeline._rewire_cycles


def understated(*args, **kwargs):
    t_new, report, pairs = real_rewire(*args, **kwargs)
    return t_new, dataclasses.replace(report, achieved_error=-1.0), pairs


pipeline._rewire_cycles = understated
run("triangle", a)
"""


def test_certification_checks_survive_optimize_flag():
    src = str(Path(orbitforge.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CERTIFICATION_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "honest passed"
    assert lines[1] == "orbits raised: rewiring did not preserve orbits generator-wise"
    assert lines[2].startswith("mixture raised: generator 0: mixture gap")
    assert lines[3].startswith("triangle raised: generator 0: achieved error")
    assert len(lines) == 4


def test_run_experiment_decomposes_each_source_generator_once(monkeypatch):
    # wrap each function in every orbitforge namespace that binds it, so
    # calls made through a from-import are counted too
    calls = Counter()
    checked = Counter()
    for module, name in (
        ("orbitforge.permutations", "cycle_min_labels"),
        ("orbitforge.permutations", "_cycle_decomposition"),
        ("orbitforge.spaces", "_as_permutation"),
        ("orbitforge.permutations", "_inverse_permutation"),
    ):
        original = getattr(importlib.import_module(module), name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            if _name == "_as_permutation":
                checked[args[1]] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "orbitforge":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    config = PipelineConfig(
        n=20_000, rank=2, alphabet=2, eps_schedule=(0.1, 0.05, 0.03), seed=9
    )
    result = run_experiment(config)
    assert all(r.orbit_equivalent for r in result.reports)
    assert all(g.same_orbits for r in result.reports for g in r.generators)
    assert calls["_cycle_decomposition"] == 2
    # six from merging the built lines and six from verify_oe; the
    # decompositions label their cycles without it
    assert calls["cycle_min_labels"] == 12
    # the rows of the five built actions: source and target (four) and the
    # rewired action of each entry (six); the rearranged lines and the
    # decompositions are not checked again
    assert calls["_as_permutation"] == 10
    assert checked == {"generator 1": 5, "generator 2": 5}
    # words translate through the generators themselves, on the target and
    # on each rewired action
    assert calls["_inverse_permutation"] == 0


def test_run_experiment_allocation_peak():
    # at most 19 int64 arrays of n alive at once on the criterion-6 shape;
    # holding the target action and the generators' inverse tables through
    # every entry put it at about 22
    n = 100_000
    config = PipelineConfig(
        n=n, rank=2, alphabet=2, eps_schedule=(0.1, 0.03, 0.01), seed=42
    )
    tracemalloc.start()
    try:
        result = run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.all_bounds_held
    assert peak <= 19 * 8 * n, peak


def test_each_construction_refuses_a_line_that_is_not_injective(monkeypatch):
    # the line stages check that images stay in their segment and that each
    # line closes, not injectivity; the output check of each construction
    # must refuse two points that share an image
    rearrange_module = importlib.import_module("orbitforge.rearrange")
    close = rearrange_module._close_cycles
    corrupted = []

    def close_then_collide(perm, seg, reps):
        perm = close(perm, seg, reps)
        # the first segment has at least three points (a rewired cycle does),
        # so neither of its first two points is its last
        perm[1] = perm[0]
        corrupted.append(int(seg[-1]) + 1)
        return perm

    monkeypatch.setattr(rearrange_module, "_close_cycles", close_then_collide)
    n = 2000
    phi = Observable(np.arange(n) % 2, 2)
    j = Coupling.from_probs(np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="^closed line is not a permutation$"):
        rearrange_line(phi, j, 0.05)
    t = np.roll(np.arange(n), -1)
    with pytest.raises(ValueError, match="^rewired permutation is not a permutation$"):
        rewire(t, phi, j, 0.05)
    rng = np.random.default_rng(6)
    a = FiniteAction.from_perms(
        [permutation_with_cycle_lengths([n], rng) for _ in range(2)]
    )
    with pytest.raises(ValueError, match="^generator 1 is not a permutation$"):
        _oe_approximate(a, a, phi, 0.05, retries=5, seed=0)
    # one line each for rearrange_line and rewire, one per generator after
    assert corrupted == [1, 1, 1, 1]


def test_run_experiment_counts_the_target_once_per_run(monkeypatch):
    # rank 2, three eps: the target (b, phi) is translated once, before the
    # entries, and each entry translates its rewired source once; the pair
    # targets are the transposed letter counts of that one table, so no
    # stats_matrix, pair distribution or public kechris_distance is called
    calls = Counter()
    actions = []
    for module, name in (
        ("orbitforge.weak", "stats_matrix"),
        ("orbitforge.weak", "kechris_distance"),
        ("orbitforge.spaces", "joint_pair_distribution"),
    ):
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
    init = freegroup._Translates.__init__

    def recorded(self, a, p, words, points=None, behind=None):
        init(self, a, p, words, points, behind)
        if points is None:  # a table on every point
            actions.append(a)

    monkeypatch.setattr(freegroup._Translates, "__init__", recorded)
    config = PipelineConfig(
        n=20_000, rank=2, alphabet=2, eps_schedule=(0.1, 0.05, 0.03), seed=9
    )
    result = run_experiment(config)
    assert result.all_bounds_held
    assert len(actions) == 4
    b = pipeline._build_action("random", config.n, config.rank, config.seed, 202)
    assert np.array_equal(actions[0].perms, b.perms)
    assert calls["stats_matrix"] == 0
    assert calls["kechris_distance"] == 0
    assert calls["joint_pair_distribution"] == 0


def test_oe_approximate_matches_the_run_experiment_entry():
    # a lone call counts its own target side; the run counts it once for
    # every entry, and both must report the same
    config = PipelineConfig(
        n=6000, rank=2, alphabet=3, eps_schedule=(0.1, 0.05), seed=4, retries=5
    )
    result = run_experiment(config)
    a = pipeline._build_action("random", config.n, config.rank, config.seed, 101)
    b = pipeline._build_action("random", config.n, config.rank, config.seed, 202)
    phi = pipeline._build_phi("balanced", config.n, config.alphabet)
    for idx, eps in enumerate(config.eps_schedule):
        seq = np.random.SeedSequence((config.seed, 303, idx))
        seed = int(seq.generate_state(1)[0])
        _, _, report = _oe_approximate(a, b, phi, eps, config.retries, seed)
        assert report == result.reports[idx]


def test_errors_are_measured_against_the_target_pairs_at_three_symbols():
    # with three symbols a pair matrix need not be symmetric, so a target
    # read from the word s instead of s^-1 (its transpose) shows here: the
    # rewired pairs follow the transposed target, far from b's own pairs
    rng = np.random.default_rng(12)
    n, eps = 30_000, 0.05
    a = FiniteAction.from_perms(
        [permutation_with_cycle_lengths([n], rng) for _ in range(2)]
    )
    # point 3k+i goes to 3k+(i+d_k)%3; with d_k = 0, 1, 2 on 3000, 5000 and
    # 2000 values of k, symbol i meets i+1 more often than i-1
    x = np.arange(n)
    shift = np.repeat([0, 1, 2], [3000, 5000, 2000])[x // 3]
    b = FiniteAction.from_perms([x - x % 3 + (x + shift) % 3, rng.permutation(n)])
    phi = Observable(x % 3, 3)
    pi = empirical_distribution(phi)
    a_new, psi, report = _oe_approximate(a, b, phi, eps, retries=5, seed=3)
    pairs = joint_pair_distribution(phi, b.perms[0])
    assert not np.array_equal(pairs.counts, pairs.counts.T)
    for s, g in enumerate(report.generators):
        p = joint_pair_distribution(phi, b.perms[s])
        assert g.mixture_gap == linf(mixture_coupling(p, eps, pi), p)
        achieved = linf(joint_pair_distribution(psi, a_new.perms[s]), p)
        assert g.achieved_error == achieved <= g.bound
