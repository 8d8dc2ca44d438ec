"""Self-tests of the benchmark itself (not of riskbench).

    python3 -m pytest -q perfbench/selftest.py     # about three minutes on 2 cores

The file name keeps it out of the default `pytest` collection: it spawns
dozens of CLI processes.  Workloads run at reduced project counts.
"""

from __future__ import annotations

import dataclasses
import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMALL = {"pairwise-repeat": 4, "catalog-distinct": 6, "lifecycle-history": 4}
COUNT_UNITS = {"count", "flop", "bytes"}


@pytest.fixture(autouse=True)
def small_shapes(monkeypatch):
    for name, projects in SMALL.items():
        monkeypatch.setitem(gen.SHAPES, name,
                            dataclasses.replace(gen.SHAPES[name], projects=projects))


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first, again, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    gen.build(workload, 7, first)
    gen.build(workload, 7, again)
    gen.build(workload, 8, other)
    assert _tree(first) == _tree(again)
    assert _tree(first).keys() == _tree(other).keys()
    assert _tree(first)["manifest.json"] != _tree(other)["manifest.json"]
    assert not filecmp.cmp(first / "registers" / "p001_s0.csv",
                           other / "registers" / "p001_s0.csv", shallow=False)


def test_lifecycle_paths_are_legal(tmp_path):
    gen.build("lifecycle-history", 3, tmp_path)
    states: dict[str, list[str]] = {}
    for path in sorted((tmp_path / "registers").glob("*.csv")):
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            fields = line.split(",")
            states.setdefault(fields[0], []).append(fields[7])
    order = {"Reg": 0, "Hap": 1, "Clo": 2}
    for risk, path in states.items():
        assert path[0] != "Clo", risk
        assert [order[s] for s in path] == sorted(order[s] for s in path), risk
        assert path.count("Clo") <= 1, risk


def test_self_time_subtracts_children():
    spans = [["main", 0.0, 10.0, -1], ["load", 1.0, 4.0, 0], ["parse", 2.0, 3.0, 1],
             ["emit", 5.0, 6.0, 0]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_runs_repeat_counts_and_match_untraced_bytes(workload):
    spec = run.benchmark_spec()
    first = run.measure(workload, 11, 0, trace=True)
    second = run.measure(workload, 11, 0, trace=True)
    for record in (first, second):
        # a traced pass whose bytes differ from the untraced warm-up is a failed op
        assert record["result"]["correct"], record["failures"]
        assert record["result"]["failed"] == 0
        assert record["passes"]["traced"] >= 1
        assert list(record["result"]["metrics"]) == [m["name"] for m in spec["per_layer"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    assert counts
    for name in counts:
        assert (first["result"]["metrics"][name]["value"]
                == second["result"]["metrics"][name]["value"]), name


def test_end_to_end_run_prints_every_metric(capsys):
    spec = run.benchmark_spec()
    assert run.main(["--workload", "catalog-distinct", "--seed", "5", "--seconds", "0",
                     "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
        assert any(line.split()[0] == metric["name"] for line in lines[:-1])
    probe = [line for line in lines if "known-defect probe" in line]
    assert probe and "exit 1" in probe[0]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pairwise-repeat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
