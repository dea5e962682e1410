"""Round trips and line-level diagnostics of the config and file parsers."""

import re
import string
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge import Coupling, PipelineConfig, parse_config
from orbitforge.pipeline import (
    ConfigError,
    _read_coupling_csv,
    _read_labels,
    _read_permutations,
)

INT_KEYS = ("n", "rank", "alphabet", "seed", "retries", "workers")
# no whitespace at either end (values are stripped) and no line breaks
WORDS = st.text(string.ascii_letters + string.digits + "_-./:,=#", min_size=1)


@st.composite
def configs(draw):
    return PipelineConfig(
        n=draw(st.integers(1, 10**9)),
        rank=draw(st.integers(1, 8)),
        alphabet=draw(st.integers(1, 8)),
        eps_schedule=tuple(
            draw(
                st.lists(
                    st.floats(0, 1 / 6, exclude_min=True, exclude_max=True),
                    min_size=1,  # an empty schedule is refused
                    max_size=4,
                )
            )
        ),
        seed=draw(st.integers(0, 2**63 - 1)),
        retries=draw(st.integers(1, 20)),
        source=draw(WORDS),
        target=draw(WORDS),
        phi=draw(WORDS),
        out_csv=draw(st.none() | WORDS),
        out_json=draw(st.none() | WORDS),
        workers=draw(st.integers(1, 16)),
    )


def _key(name):
    return "eps" if name == "eps_schedule" else name


def _render(config, data):
    """The config as ``key = value`` lines, in a drawn order and spacing."""
    lines = []
    for f in fields(PipelineConfig):
        value = getattr(config, f.name)
        if value is None or (value == f.default and data.draw(st.booleans())):
            continue
        if f.name == "eps_schedule":
            value = ", ".join(repr(e) for e in value)
        pad = data.draw(st.sampled_from(["", " ", "  ", "\t"]))
        lines.append(f"{pad}{_key(f.name)}{pad}={pad}{value}{pad}")
    return data.draw(st.permutations(lines))


def _with_noise(lines, data):
    """Comments and blank lines mixed in; also each line's new index."""
    noise = st.sampled_from(["", "   ", "# comment", "  # n = -1", "#rank=0"])
    out, where = [], []
    for line in lines:
        out += data.draw(st.lists(noise, max_size=2))
        where.append(len(out))
        out.append(line)
    return out + data.draw(st.lists(noise, max_size=2)), where


def _key_of(line):
    return line.split("=")[0].strip()


@settings(max_examples=200, deadline=None)
@given(configs(), st.data())
def test_config_text_round_trip(config, data):
    text = "\n".join(_with_noise(_render(config, data), data)[0])
    assert parse_config(text) == config


@settings(max_examples=200, deadline=None)
@given(configs(), st.data(), st.sampled_from(["unknown", "duplicate", "integer"]))
def test_one_corrupted_config_line_is_named(config, data, fault):
    lines = _render(config, data)
    if fault == "integer":
        # n, rank, alphabet and seed are required, so some line holds one
        held = [i for i, line in enumerate(lines) if _key_of(line) in INT_KEYS]
        at = data.draw(st.sampled_from(held))
        key = _key_of(lines[at])
        bad = data.draw(
            st.text(string.ascii_letters, min_size=1)
            | st.integers().map(lambda v: f"{v}.5")
        )
        lines[at] = f"{key} = {bad}"
        expected = f"field {key!r}: {bad!r} is not an integer"
    else:
        if fault == "unknown":
            known = {_key(f.name) for f in fields(PipelineConfig)}
            key = data.draw(
                st.text(string.ascii_lowercase + "_", min_size=1).filter(
                    lambda k: k not in known
                )
            )
            at = data.draw(st.integers(0, len(lines)))
        else:
            first = data.draw(st.integers(0, len(lines) - 1))
            key = _key_of(lines[first])
            at = data.draw(st.integers(first + 1, len(lines)))
        lines.insert(at, f"{key} = 1")
    lines, where = _with_noise(lines, data)
    if fault != "integer":
        expected = f"line {where[at] + 1}: {fault} key {key!r}"
    with pytest.raises(ConfigError, match=re.escape(expected)):
        parse_config("\n".join(lines))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_permutation_file_round_trip(n, seed):
    perm = np.random.default_rng(seed).permutation(n)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "perm.txt"
        path.write_text("".join(f"{v}\n" for v in perm))
        back = _read_permutations([path])[0]
    assert back.dtype == np.int64 and np.array_equal(back, perm)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda a: st.lists(st.integers(0, 10**6), min_size=a * a, max_size=a * a)
    ),
    st.booleans(),
)
def test_coupling_csv_round_trip(weights, exact):
    a = int(round(len(weights) ** 0.5))
    counts = np.asarray(weights, dtype=np.int64).reshape(a, a)
    if counts.sum() == 0:
        counts[0, 0] = 1
    j = (
        Coupling.from_counts(counts, int(counts.sum()))
        if exact
        else Coupling.from_probs(counts / counts.sum())
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "j.csv"
        path.write_text("".join(",".join(map(repr, r)) + "\n" for r in j.real.tolist()))
        back = _read_coupling_csv(path)
    assert back.real.tobytes() == j.real.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=50))
def test_label_file_round_trip(tokens):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.txt"
        path.write_text("".join(f"{t}\n" for t in tokens))
        psi = _read_labels(path)
    symbols = sorted(set(tokens))
    assert [symbols[v] for v in psi.labels] == tokens
    assert psi.alphabet_size == len(symbols)


@pytest.mark.parametrize("seed", ["-1", "-3", str(-(2**63))])
def test_negative_seed_is_refused(seed):
    text = f"n = 10\nrank = 1\nalphabet = 2\neps = 0.1\nseed = {seed}"
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        parse_config(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "coupling must be a square matrix"),
        ("0.5,0.25\n0.25,0.5\n", "coupling entries must sum to 1"),
        ("0.75,-0.25\n0.25,0.25\n", "coupling entries must be nonnegative"),
    ],
    ids=["empty", "sum", "negative"],
)
def test_refused_coupling_content_names_the_file(tmp_path, text, message):
    path = tmp_path / "j.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
        _read_coupling_csv(path)


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    after = readme.split("`orbit-forge pipeline` reads a flat `key = value` config")[1]
    block = re.search(r"```\n(.*?)```", after, re.S).group(1)
    config = parse_config(block)
    assert config.eps_schedule == (0.1, 0.03, 0.01)
    assert (config.seed, config.retries, config.phi) == (42, 5, "balanced")


@pytest.mark.parametrize("image", ["1_0", "٣", "+1", "1 0", "0x1"])
def test_permutation_image_must_be_ascii_digits(tmp_path, image):
    # Python's int reads 1_0 as 10 and the Arabic-Indic digit as 3; an
    # image is ASCII digits with an optional leading '-', nothing else
    path = tmp_path / "perm.txt"
    path.write_text("".join(f"{v}\n" for v in range(11)) + f"{image}\n")
    message = f"{path}: line 12: {image!r} is not an integer image"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _read_permutations([path])


def test_negative_image_is_read_and_refused_as_out_of_range(tmp_path):
    path = tmp_path / "perm.txt"
    path.write_text("0\n-1\n")
    with pytest.raises(ValueError, match="is not a permutation"):
        _read_permutations([path])


@pytest.mark.parametrize("value", ["1_0", "٣", "+1", "0x1"])
@pytest.mark.parametrize("key", INT_KEYS)
def test_config_integer_must_be_ascii_digits(key, value):
    values = {"n": "10", "rank": "1", "alphabet": "2", "seed": "0"}
    values[key] = value
    text = "\n".join(f"{k} = {v}" for k, v in values.items()) + "\neps = 0.1"
    with pytest.raises(ConfigError, match=re.escape(f"field {key!r}: {value!r}")):
        parse_config(text)
