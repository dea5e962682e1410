"""Byte-identity across changes: every digest in ``golden.json`` recomputed.

A digest that moves means an output changed, down to one ulp of one
reported float.  A change that does so on purpose regenerates the file with
``python tests/golden.py --write`` and explains each changed digest.  The
demos' stdout digests are checked by ``test_demos.py``, which runs them.
"""

import golden


def test_outputs_match_the_golden_digests():
    want = golden.recorded()["digests"]
    got = golden.digests()
    assert sorted(got) == sorted(want)
    moved = {name: got[name] for name in got if got[name] != want[name]}
    assert moved == {}
