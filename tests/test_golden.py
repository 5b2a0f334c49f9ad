"""The 1e4-trial CLI outputs have the bytes pinned in ``golden_outputs.json``."""

import json

import golden


def test_tier1_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    # float bits may differ across versions: a mismatch is a regenerated manifest,
    # not a skip
    assert manifest["versions"] == golden.versions(), (
        f"the manifest was written with {manifest['versions']}, this run has "
        f"{golden.versions()}; rerun tests/golden.py and review the JSON diff")
    got = golden.outputs(golden.TIER1, str(tmp_path))
    moved = [inv for inv in golden.TIER1 if got[inv] != manifest["outputs"][inv]]
    assert not moved, f"{len(moved)} outputs moved, first: {moved[0]}: {got[moved[0]]}"
