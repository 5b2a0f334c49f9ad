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
    moved = golden.moved(manifest, got)
    assert not moved, f"{len(moved)} outputs moved, first: {moved[0]}: {got[moved[0]]}"


def test_rewrite_names_what_moved_only_at_the_same_versions():
    record = {"exit": 0, "sha256": "0" * 64}
    old = {"versions": golden.versions(), "outputs": {"same": record, "moved": record}}
    new = {"same": record, "moved": {"exit": 1, "sha256": None}, "added": record}
    assert golden.moved(old, new) == ["moved", "added"]
    assert golden.moved({**old, "versions": {"python": "0", "numpy": "0"}}, new) == []
    assert golden.moved({}, new) == []
