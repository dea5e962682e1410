import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.cli import main
from orbitforge.pipeline import (
    _read_coupling_csv,
    _read_labels,
    _read_permutations,
)
from orbitforge.rearrange import rearrange_line
from orbitforge.rewire import rewire


@pytest.fixture
def balanced_labels(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("\n".join(["a", "b"] * 300) + "\n")
    return path


def test_lemma_rearrange_writes_sigma_and_report(tmp_path, balanced_labels):
    coupling = tmp_path / "j.csv"
    coupling.write_text("0.3,0.2\n0.2,0.3\n")
    sigma_path = tmp_path / "sigma.txt"
    report_path = tmp_path / "report.json"
    code = main(
        [
            "lemma-rearrange",
            "--labels",
            str(balanced_labels),
            "--coupling",
            str(coupling),
            "--eps",
            "0.01",
            "--out-sigma",
            str(sigma_path),
            "--out-report",
            str(report_path),
        ]
    )
    assert code == 0
    # a line file lists n-1 images and is no permutation
    sigma = np.loadtxt(sigma_path, dtype=np.int64)
    assert sorted(sigma.tolist()) == list(range(1, 600))
    report = json.loads(report_path.read_text())
    assert report["achieved_error"] < report["bound"]


def test_lemma_rearrange_precondition_exit(tmp_path, balanced_labels, capsys):
    coupling = tmp_path / "j.csv"
    coupling.write_text("0.5,0.0\n0.0,0.5\n")
    code = main(
        [
            "lemma-rearrange",
            "--labels",
            str(balanced_labels),
            "--coupling",
            str(coupling),
            "--eps",
            "0.01",
        ]
    )
    assert code == 2
    assert "precondition failed" in capsys.readouterr().err


def test_rewire_cli_roundtrip(tmp_path, balanced_labels):
    rng = np.random.default_rng(1)
    perm_path = tmp_path / "perm.txt"
    perm_path.write_text("".join(f"{v}\n" for v in rng.permutation(600)))
    coupling = tmp_path / "j.csv"
    coupling.write_text("0.25,0.25\n" * 2)
    out_perm = tmp_path / "out.txt"
    out_report = tmp_path / "report.json"
    code = main(
        [
            "rewire",
            "--perm",
            str(perm_path),
            "--labels",
            str(balanced_labels),
            "--coupling",
            str(coupling),
            "--eps",
            "0.05",
            "--out-perm",
            str(out_perm),
            "--out-report",
            str(out_report),
        ]
    )
    assert code == 0
    t2 = _read_permutations([out_perm])[0]
    assert sorted(t2.tolist()) == list(range(600))
    report = json.loads(out_report.read_text())
    assert report["bound"] == 9 * 2 * 0.05
    assert isinstance(report["per_cycle"], list)


def test_stats_csv_output(tmp_path, capsys):
    perm_path = tmp_path / "perm.txt"
    perm_path.write_text("1\n2\n3\n0\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("a\na\nb\nb\n")
    code = main(
        ["stats", "--perm", str(perm_path), "--labels", str(labels), "--word", "a"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["0,0,0.25", "0,1,0.25", "1,0,0.25", "1,1,0.25"]


def test_pipeline_cli_and_exit_codes(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "n = 2000\nrank = 1\nalphabet = 2\neps = 0.05\nseed = 3\n"
        f"out_csv = {tmp_path/'r.csv'}\nout_json = {tmp_path/'r.json'}\n"
    )
    code = main(["pipeline", "--config", str(config)])
    assert code == 0
    csv_lines = (tmp_path / "r.csv").read_text().splitlines()
    assert csv_lines[0] == "eps,generator,achieved_error,bound,kechris_distance"
    assert len(csv_lines) == 2
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["all_bounds_held"] is True


def _pipeline_config(tmp_path, text):
    config = tmp_path / "run.cfg"
    out_csv, out_json = tmp_path / "r.csv", tmp_path / "r.json"
    config.write_text(text + f"out_csv = {out_csv}\nout_json = {out_json}\n")
    return config, out_csv, out_json


def test_pipeline_cli_reports_no_observable_in_one_line(tmp_path, capsys):
    config, out_csv, out_json = _pipeline_config(
        tmp_path, "n = 40\nrank = 2\nalphabet = 3\neps = 0.02\nseed = 3\nretries = 1\n"
    )
    assert main(["pipeline", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pipeline failed: no equidistributed observable")
    assert "Traceback" not in captured.err and len(captured.err.splitlines()) == 1
    assert not out_csv.exists() and not out_json.exists()


def test_pipeline_cli_reports_a_failed_certificate_in_one_line(
    tmp_path, capsys, monkeypatch
):
    import orbitforge.pipeline

    monkeypatch.setattr(orbitforge.pipeline, "verify_oe", lambda a, a2: False)
    config, out_csv, out_json = _pipeline_config(
        tmp_path, "n = 2000\nrank = 1\nalphabet = 2\neps = 0.05\nseed = 3\n"
    )
    assert main(["pipeline", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == "pipeline failed: rewiring did not preserve orbits generator-wise\n"
    assert not out_csv.exists() and not out_json.exists()


@pytest.mark.parametrize("eps", ["", ","])
def test_pipeline_cli_refuses_an_empty_schedule(tmp_path, capsys, eps):
    # it exited 0 with "entries": [] and "all_bounds_held": true
    config, out_csv, out_json = _pipeline_config(
        tmp_path, f"n = 100\nrank = 1\nalphabet = 2\neps = {eps}\nseed = 0\n"
    )
    assert main(["pipeline", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: field 'eps': the schedule lists no value\n"
    assert not out_csv.exists() and not out_json.exists()


def _command_args(tmp_path, command, first, second):
    """Arguments that run ``command`` on small inputs written to ``tmp_path``.

    ``first`` and ``second`` are its two outputs in the order the command
    lists them (``None`` prints that output).
    """
    labels, coupling = tmp_path / "labels.txt", tmp_path / "j.csv"
    labels.write_text("a\nb\n" * 300)
    coupling.write_text("0.25,0.25\n" * 2)
    if command == "pipeline":
        config = tmp_path / "run.cfg"
        text = "n = 2000\nrank = 1\nalphabet = 2\neps = 0.05\nseed = 3\n"
        for key, path in (("out_csv", first), ("out_json", second)):
            text += f"{key} = {path}\n" if path else ""
        config.write_text(text)
        return ["pipeline", "--config", str(config)]
    args = [command, f"--labels={labels}", f"--coupling={coupling}", "--eps=0.05"]
    first_flag = "--out-sigma"
    if command == "rewire":
        perm = tmp_path / "perm.txt"
        images = np.random.default_rng(1).permutation(600)
        perm.write_text("".join(f"{v}\n" for v in images))
        args.append(f"--perm={perm}")
        first_flag = "--out-perm"
    for flag, path in ((first_flag, first), ("--out-report", second)):
        args += [f"{flag}={path}"] if path else []
    return args


COMMANDS = ["pipeline", "rewire", "lemma-rearrange"]


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "blocked", ["parent is a file", "target is a directory", "stdout is closed"]
)
def test_cli_writes_all_outputs_or_none(
    tmp_path, capsys, monkeypatch, blocked, command
):
    # the first output was written before the second was tried, and stayed
    # behind after the exit 2; a directory at the second path fails only at
    # the rename, and a closed stdout only once the file is in place
    block, second = tmp_path / "block", None
    if blocked == "parent is a file":
        block.write_text("")
        second = block / "second.txt"
    elif blocked == "target is a directory":
        block.mkdir()
        second = block
    args = _command_args(tmp_path, command, tmp_path / "first.txt", second)
    before = sorted(tmp_path.rglob("*"))
    if blocked == "stdout is closed":
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_creates_missing_directories_and_prints_the_same_texts(
    tmp_path, capsys, command
):
    # rewire and lemma-rearrange failed with ENOENT where pipeline created
    # the directory
    first, second = tmp_path / "new" / "first.txt", tmp_path / "new" / "a" / "b.txt"
    assert main(_command_args(tmp_path, command, first, second)) == 0
    assert capsys.readouterr().out == ""
    assert main(_command_args(tmp_path, command, None, None)) == 0
    printed = capsys.readouterr().out
    assert printed.startswith(first.read_text())
    if command != "pipeline":  # the pipeline JSON records its output paths
        assert printed == first.read_text() + second.read_text()


def test_pipeline_cli_malformed_config(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("n = 100\nwhat = 1\n")
    code = main(["pipeline", "--config", str(config)])
    assert code == 2
    assert "unknown key 'what'" in capsys.readouterr().err


def test_lemma_rearrange_rejects_nan_coupling(tmp_path, balanced_labels, capsys):
    coupling = tmp_path / "j.csv"
    coupling.write_text("nan,0.5\n0.25,0.25\n")
    out_report = tmp_path / "report.json"
    code = main(
        [
            "lemma-rearrange",
            "--labels",
            str(balanced_labels),
            "--coupling",
            str(coupling),
            "--eps",
            "0.01",
            "--no-check",
            "--out-report",
            str(out_report),
        ]
    )
    assert code != 0
    assert "finite" in capsys.readouterr().err
    assert not out_report.exists()


def _rewire_args(perm, labels, coupling):
    return [
        "rewire",
        "--perm",
        str(perm),
        "--labels",
        str(labels),
        "--coupling",
        str(coupling),
        "--eps",
        "0.05",
    ]


@pytest.fixture
def rewire_files(tmp_path, balanced_labels):
    perm = tmp_path / "perm.txt"
    images = np.random.default_rng(1).permutation(600)
    perm.write_text("".join(f"{v}\n" for v in images))
    coupling = tmp_path / "j.csv"
    coupling.write_text("0.25,0.25\n" * 2)
    return perm, balanced_labels, coupling


def test_permutation_file_error_names_file_and_line(rewire_files, capsys):
    perm, labels, coupling = rewire_files
    perm.write_text("0\n\n1.5\n2\n")
    assert main(_rewire_args(perm, labels, coupling)) == 2
    err = capsys.readouterr().err
    assert f"{perm}: line 3: '1.5' is not an integer image" in err


@pytest.mark.parametrize(
    "text, message",
    [("a\nb\na b\n", "line 3: 'a b' is not one symbol"), ("\n \n", "no symbols")],
)
def test_labels_file_error_names_file_and_line(rewire_files, capsys, text, message):
    perm, labels, coupling = rewire_files
    labels.write_text(text)
    assert main(_rewire_args(perm, labels, coupling)) == 2
    assert f"{labels}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("0.25,0.25\n0.5\n", "line 2: 1 values in a 2-row coupling"),
        ("0.25,0.25\n0.25,x\n", "line 2: '0.25,x' is not a row of finite numbers"),
        ("\n0.5,nan\n0.25,0.25\n", "line 2: '0.5,nan' is not a row of finite numbers"),
    ],
)
def test_coupling_file_error_names_file_and_line(rewire_files, capsys, text, message):
    perm, labels, coupling = rewire_files
    coupling.write_text(text)
    assert main(_rewire_args(perm, labels, coupling)) == 2
    assert f"{coupling}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lemma-rearrange", "rewire"])
@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
def test_non_finite_eps_exits_2_and_writes_nothing(rewire_files, capsys, command, eps):
    perm, labels, coupling = rewire_files
    out, report = perm.parent / "out.txt", perm.parent / "report.json"
    args = ["--labels", str(labels), "--coupling", str(coupling), "--eps", eps]
    if command == "rewire":
        args += ["--perm", str(perm), "--out-perm", str(out)]
    else:
        args += ["--out-sigma", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--out-report", str(report), "--no-check"])
    assert exc.value.code == 2
    assert f"{eps!r} is not a positive finite number" in capsys.readouterr().err
    assert not out.exists() and not report.exists()


@pytest.fixture
def stats_files(tmp_path):
    perms = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path, perm in zip(perms, ([1, 2, 3, 0], [3, 2, 1, 0])):
        path.write_text("".join(f"{v}\n" for v in perm))
    labels = tmp_path / "labels.txt"
    labels.write_text("a\na\nb\nb\n")
    return perms, labels


def _stats_args(perms, labels):
    return ["stats", *(f"--perm={p}" for p in perms), "--labels", str(labels)]


@pytest.mark.parametrize(
    "index, perm_text, message",
    [
        (1, "0\n1\n2\n", "3 images, expected n=4"),
        (1, "0\n0\n1\n2\n", "not a permutation"),
        (0, "", "no images"),
    ],
    ids=["short", "repeated-image", "empty"],
)
def test_stats_permutation_error_names_file(
    stats_files, capsys, index, perm_text, message
):
    perms, labels = stats_files
    perms[index].write_text(perm_text)
    assert main([*_stats_args(perms, labels), "--word", "a b"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {perms[index]}: ")
    assert message in captured.err


def test_stats_labels_error_names_file(stats_files, capsys):
    perms, labels = stats_files
    labels.write_text("a\nb\nb\n")
    assert main([*_stats_args(perms, labels), "--word", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {labels}: 3 labels, expected n=4" in captured.err


def test_rewire_labels_of_the_wrong_length_name_the_file(rewire_files, capsys):
    perm, labels, coupling = rewire_files
    labels.write_text("a\nb\n" * 299 + "a\n")
    out_perm = perm.parent / "out.txt"
    args = [*_rewire_args(perm, labels, coupling), "--out-perm", str(out_perm)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {labels}: 599 labels, expected n=600\n"
    assert not out_perm.exists()


@pytest.mark.parametrize("command", ["lemma-rearrange", "rewire"])
def test_symbol_count_other_than_the_coupling_names_both_files(
    rewire_files, capsys, command
):
    perm, labels, coupling = rewire_files
    labels.write_text("a\nb\nc\n" * 200)
    out = perm.parent / "out.txt"
    if command == "rewire":
        args = [*_rewire_args(perm, labels, coupling), "--out-perm", str(out)]
    else:
        args = [command, f"--labels={labels}", f"--coupling={coupling}", "--eps=0.05"]
        args.append(f"--out-sigma={out}")
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {labels}: 3 symbols, not 2 as in {coupling}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["pipeline", "rewire"])
@pytest.mark.parametrize("perm_text", ["0\n0\n1\n2\n", ""], ids=["repeated", "empty"])
def test_refused_permutation_file_is_named(tmp_path, capsys, command, perm_text):
    bad = tmp_path / "bad.txt"
    bad.write_text(perm_text)
    labels = tmp_path / "labels.txt"
    labels.write_text("a\nb\na\nb\n")
    coupling = tmp_path / "j.csv"
    coupling.write_text("0.25,0.25\n" * 2)
    outputs = [tmp_path / "out.txt", tmp_path / "report.json"]
    if command == "pipeline":
        config, *outputs = _pipeline_config(
            tmp_path,
            f"n = 4\nrank = 1\nalphabet = 2\neps = 0.1\nseed = 0\nsource = file:{bad}\n"
        )
        args = ["pipeline", "--config", str(config)]
    else:
        args = _rewire_args(bad, labels, coupling)
        args += ["--out-perm", str(outputs[0]), "--out-report", str(outputs[1])]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ")
    assert not any(path.exists() for path in outputs)


def test_rewire_report_is_one_line_of_fields_and_rows(tmp_path):
    # fixed points 0 and 1, 2-cycles (2 3) and (4 5), then cycles of 200 and
    # 194 consecutive points; labels alternate, so the long cycles are rewired
    lengths = [1, 1, 2, 2, 200, 194]
    starts = np.cumsum([0, *lengths[:-1]])
    cycles = [np.roll(np.arange(s, s + k), -1) for s, k in zip(starts, lengths)]
    t = np.concatenate(cycles)
    perm, labels, coupling = tmp_path / "t.txt", tmp_path / "l.txt", tmp_path / "j.csv"
    perm.write_text("".join(f"{v}\n" for v in t))
    labels.write_text("a\nb\n" * 200)
    coupling.write_text("0.25,0.25\n" * 2)
    out_report = tmp_path / "report.json"
    args = [*_rewire_args(perm, labels, coupling), "--out-report", str(out_report)]
    assert main([*args, "--out-perm", str(tmp_path / "out.txt")]) == 0

    _, rep = rewire(t, _read_labels(labels), _read_coupling_csv(coupling), 0.05)
    assert [row.length for row in rep.per_cycle] == lengths
    assert [row.good for row in rep.per_cycle] == [False] * 4 + [True] * 2
    for row in rep.per_cycle:
        assert tuple(row) == (row.length, row.good, row.error)
    expected = json.dumps(
        {
            "achieved_error": rep.achieved_error,
            "bound": rep.bound,
            "good_mass": rep.good_mass,
            "per_cycle": [[c.length, c.good, c.error] for c in rep.per_cycle],
            "schema_version": 1,
        },
        sort_keys=True,
        allow_nan=False,
    )
    assert out_report.read_text() == expected + "\n"


def test_lemma_rearrange_report_is_one_line_of_fields(tmp_path, balanced_labels):
    coupling = tmp_path / "j.csv"
    coupling.write_text("0.3,0.2\n0.2,0.3\n")
    out_report = tmp_path / "report.json"
    args = ["lemma-rearrange", "--labels", str(balanced_labels)]
    args += ["--coupling", str(coupling), "--eps", "0.01"]
    assert main([*args, "--out-report", str(out_report)]) == 0

    phi = _read_labels(balanced_labels)
    _, rep = rearrange_line(phi, _read_coupling_csv(coupling), 0.01)
    expected = json.dumps(
        {
            "achieved_error": rep.achieved_error,
            "bound": rep.bound,
            "components_after_merge": rep.components_after_merge,
            "edges_changed_by_close": rep.edges_changed_by_close,
            "schema_version": 1,
        },
        sort_keys=True,
        allow_nan=False,
    )
    assert out_report.read_text() == expected + "\n"


# the stats property: damaged permutation, label and word inputs, each damage
# either harmless (the clean rows print) or refused (exit 2, nothing printed)
_LETTERS = "abcdfghijklmnopqrstuvwxyz"  # generators 1..25; "e" is the identity
_SYMBOLS = ["a", "b", "c", "x_1", "Z", "0", "-"]
_HARMLESS = ["none", "blank lines", "padded lines"]
_REFUSED = {
    "perm": ["duplicate", "non-integral", "out of range", "short", "long"],
    "labels": ["duplicate", "two tokens", "short", "long"],
    "word": ["beyond the rank", "two letters", "digit", "identity among letters"],
}


def _damage(lines, kind, data, pad):
    """Apply one damage of ``kind`` to ``lines``; ``pad`` fills padded lines."""
    n = len(lines)
    at = data.draw(st.integers(0, n - 1))
    if kind == "blank lines":
        spots = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=3))
        for spot in sorted(spots, reverse=True):
            lines.insert(spot, data.draw(st.sampled_from(["", " ", "\t"])))
    elif kind == "padded lines":
        lines[at] = f"{pad}{lines[at]}{pad}"
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "non-integral":
        lines[at] = data.draw(st.sampled_from(["1.5", "2.0", "x", "nan", "0x1"]))
    elif kind == "out of range":
        lines[at] = data.draw(st.sampled_from([str(n), str(n + 3), "-1"]))
    elif kind == "short":
        del lines[at]
    elif kind == "long":
        lines.append(data.draw(st.sampled_from([str(n), "a"])))
    elif kind == "two tokens":
        lines[at] = f"{lines[at]} {lines[at]}"


def _stats_rows(perms, labels, letters):
    """Expected ``stats`` rows, counted point by point."""
    n = len(labels)
    index = {sym: i for i, sym in enumerate(sorted(set(labels)))}
    inverse = [[0] * n for _ in perms]
    for k, perm in enumerate(perms):
        for y, x in enumerate(perm):
            inverse[k][x] = y
    k = len(index)
    counts = [[0] * k for _ in range(k)]
    for x in range(n):
        y = x  # g^{-1}x, the leftmost letter's inverse applied first
        for s in letters:
            y = inverse[s - 1][y] if s > 0 else perms[-s - 1][y]
        counts[index[labels[x]]][index[labels[y]]] += 1
    return [f"{i},{j},{counts[i][j] / n!r}" for i in range(k) for j in range(k)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_stats_prints_its_rows_or_nothing(data):
    n = data.draw(st.integers(1, 30))
    rank = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    perms = [rng.permutation(n).tolist() for _ in range(rank)]
    labels = data.draw(st.lists(st.sampled_from(_SYMBOLS), min_size=n, max_size=n))
    letters = data.draw(
        st.lists(st.sampled_from([s for k in range(1, rank + 1) for s in (k, -k)]))
    )
    target = data.draw(st.sampled_from(["perm", "labels", "word"]))
    kind = data.draw(st.sampled_from(_HARMLESS + _REFUSED[target]))
    tokens = [_LETTERS[s - 1] if s > 0 else _LETTERS[-s - 1].upper() for s in letters]
    word = " ".join(tokens)
    perm_lines = [[str(v) for v in perm] for perm in perms]
    label_lines = list(labels)
    if target == "perm":
        which = data.draw(st.integers(0, rank - 1))
        _damage(perm_lines[which], kind, data, " ")
    elif target == "labels":
        _damage(label_lines, kind, data, "\t")
    elif kind == "blank lines":
        word = "  ".join(tokens)
    elif kind == "padded lines":
        word = f" {word}\t"
    elif kind != "none":
        bad = {
            "beyond the rank": _LETTERS[rank],
            "two letters": "ab",
            "digit": "1",
            "identity among letters": "e",  # alone, "e" is the identity
        }[kind]
        tokens = tokens or [_LETTERS[0]]
        at = data.draw(st.integers(0, len(tokens)))
        word = " ".join(tokens[:at] + [bad] + tokens[at:])

    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"perm{k}.txt" for k in range(rank)]
        for path, lines in zip(paths, perm_lines):
            path.write_text("".join(f"{line}\n" for line in lines))
        labels_path = Path(tmp) / "labels.txt"
        labels_path.write_text("".join(f"{line}\n" for line in label_lines))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(
                [
                    "stats",
                    *(f"--perm={path}" for path in paths),
                    f"--labels={labels_path}",
                    f"--word={word}",
                ]
            )
    if kind in _HARMLESS:
        assert code == 0, err.getvalue()
        rows = out.getvalue().splitlines()
        assert rows == _stats_rows(perms, labels, letters)
        assert len(rows) == len(set(labels)) ** 2
        assert math.isclose(math.fsum(float(r.split(",")[2]) for r in rows), 1)
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
