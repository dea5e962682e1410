"""Each demo script runs to completion against the library in ``src`` and
prints, byte for byte, the stdout whose digest ``golden.json`` holds."""

import pytest

import golden


@pytest.mark.parametrize("script", golden.DEMOS, ids=[p.stem for p in golden.DEMOS])
def test_demo_exits_cleanly(script):
    proc = golden.run_demo(script)
    assert proc.returncode == 0, proc.stderr
    want = golden.recorded()["demos"][script.stem]
    assert golden._sha256(proc.stdout) == want, proc.stdout


def test_every_demo_is_pinned():
    assert sorted(golden.recorded()["demos"]) == [p.stem for p in golden.DEMOS]
