"""The committed same-bytes check: every fixture report keeps its SHA-256.

`scripts/digests.py` owns the command matrix and DIGESTS.json; this test runs
the matrix in-process and compares. A change that alters report bytes on
purpose regenerates DIGESTS.json with that script.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "digests.py"


def _script():
    spec = importlib.util.spec_from_file_location("riskbench_scripts_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_reports_match_the_committed_digests(tmp_path):
    digests = _script()
    recorded = json.loads(digests.DIGESTS.read_text(encoding="utf-8"))["commands"]
    assert digests.first_mismatch(recorded, digests.run_matrix(tmp_path)) is None


def test_first_mismatch_names_the_command_and_the_file():
    digests = _script()
    recorded = [{"argv": ["rbs", "cooccur"], "exit": 0, "outputs": {"c.csv": "aa"}}]
    changed = [{"argv": ["rbs", "cooccur"], "exit": 0, "outputs": {"c.csv": "bb"}}]
    assert digests.first_mismatch(recorded, recorded) is None
    assert digests.first_mismatch(recorded, changed) == (
        "rbs cooccur: c.csv has SHA-256 bb, recorded aa")
    assert "exit 1, recorded 0" in digests.first_mismatch(recorded, [{**recorded[0], "exit": 1}])
    assert "records 1 commands" in digests.first_mismatch(recorded, recorded * 2)
    bench = [{**recorded[0], "workload": "pairwise-repeat", "seed": 2}]
    assert digests.first_mismatch(bench, [{**bench[0], "exit": 1}]) == (
        "pairwise-repeat seed 2: rbs cooccur: exit 1, recorded 0")
