"""Byte-identity across changes: every digest in ``golden.json`` recomputed.

A digest that moves means an output changed, down to one ulp of one
reported float.  A change that does so on purpose regenerates the file with
``python tests/golden.py --write`` and explains each changed digest.
"""

import json

import golden


def test_outputs_match_the_golden_digests():
    want = json.loads(golden.GOLDEN.read_text())
    here = golden.versions()
    # numpy does not promise the same Generator streams across versions
    assert here["numpy"] == want["numpy"], (
        f"{golden.GOLDEN.name} was made with numpy {want['numpy']}, and this is "
        f"numpy {here['numpy']}; its digests do not apply here.  Regenerate it "
        "with `python tests/golden.py --write` on the parent commit first."
    )
    got = golden.digests()
    assert sorted(got) == sorted(want["digests"])
    moved = {name: got[name] for name in got if got[name] != want["digests"][name]}
    assert moved == {}
