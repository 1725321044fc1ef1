"""Canonical output bytes against the committed table of their digests.

`scripts/canonical_digests.py` runs a fixed command set and wrote
`tests/canonical_digests.json`; a change that means to change output
bytes regenerates the table with it and says why.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location(
        "canonical_digests", ROOT / "scripts" / "canonical_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_canonical_outputs_match_the_digest_table(tmp_path):
    script = _script()
    table = json.loads(script.TABLE.read_text(encoding="utf-8"))
    here = script.versions()
    assert here == table["versions"], (
        f"the digest table was made with {table['versions']}, this build has {here}; "
        "output bits may differ between builds, so regenerate the table on the "
        "table's versions or record the new ones with scripts/canonical_digests.py")
    got = script.digests(tmp_path)
    assert got.keys() == table["commands"].keys()
    for name, want in table["commands"].items():
        assert got[name] == want, name
    assert got["cycles_budget_refusal"]["exit"] == 3
