from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import reprlib
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from riskbench import cli
from riskbench import corpus as corpus_module
from riskbench import lifecycle as lifecycle_module
from riskbench import rbs as rbs_module
from riskbench import template as template_module
from riskbench import vectorize
from riskbench.cli import build_parser, main
from riskbench.corpus import default_scale_config, load_corpus, load_register
from riskbench.errors import ParseError
from riskbench.lifecycle import read_lifecycle_csv
from riskbench.rbs import load_rbs
from riskbench.template import load_categories
from riskbench.vectorize import load_sentence_vectors, load_stopwords, load_word_vectors
from riskbench.resources import data_path, input_text

from .conftest import assert_same_text
from .test_corpus import LONG_INT, MANIFEST_FAULTS, _project, write_manifest_fault

WORD_VECTORS = str(data_path("embeddings", "reference_word_vectors.txt"))
SENTENCE_VECTORS = str(data_path("embeddings", "reference_sentence_vectors.jsonl"))


@pytest.fixture(scope="module")
def manifest():
    return str(data_path("fixtures", "expost", "manifest.json"))


def run(argv):
    return main(argv)


def read_report(path):
    return json.loads(path.read_text())


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["--version"])
    assert excinfo.value.code == 0
    assert "riskbench" in capsys.readouterr().out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        run(["frobnicate"])
    assert excinfo.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        run(["ingest"])
    assert excinfo.value.code == 2


def test_ingest_happy_path(manifest, tmp_path):
    out = tmp_path / "ingest.json"
    assert run(["ingest", "--manifest", manifest, "--out", str(out)]) == 0
    payload = read_report(out)
    assert payload["result"]["project_count"] == 11
    assert payload["version"] == "0.1.0"
    assert "manifest" in payload["inputs"]


def test_ingest_missing_register_exits_1(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({
        "projects": [{
            "id": "p1", "jurisdiction": "CA", "delivery_method": "DB",
            "project_type": "Highway", "size_band": "under_500M",
            "registers": [{"ordinal": 0, "path": "missing.csv"}],
        }]
    }))
    code = run(["ingest", "--manifest", str(manifest_path), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "missing.csv" in capsys.readouterr().err


def fresh_python(*args, timeout=120, **environ):
    """Run a fresh interpreter that imports this checkout's riskbench, with
    `environ` added to this process's environment."""
    import riskbench

    src = str(Path(riskbench.__file__).resolve().parents[1])
    env = dict(os.environ, **environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("fault", sorted(MANIFEST_FAULTS))
def test_ingest_bad_manifest_exits_1(tmp_path, capsys, fault):
    manifest_path = write_manifest_fault(tmp_path, fault)
    out = tmp_path / "o.json"
    assert run(["ingest", "--manifest", str(manifest_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {manifest_path}")
    assert not out.exists()


def test_ingest_bad_manifest_exits_1_without_traceback(tmp_path):
    manifest_path = write_manifest_fault(tmp_path, "register without path")
    result = fresh_python("-m", "riskbench.cli", "ingest", "--manifest", str(manifest_path),
                          "--out", str(tmp_path / "o.json"))
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {manifest_path}")
    assert "Traceback" not in result.stderr


# manifests that pass their declared shape but break a project rule, with the
# message after "error: <manifest>, "
PROJECT_FAULTS = {
    "duplicate id": ([_project(), _project()], "project 1: duplicate project_id 'p1'"),
    "no snapshots": ([_project(), _project(id="p2", registers=[])],
                     "project 1: project 'p2' has no snapshots"),
    "repeated ordinal": (
        [_project(registers=[{"ordinal": 0, "path": "r.csv"}, {"ordinal": 0, "path": "r.csv"}])],
        "project 0: project 'p1' snapshot ordinals must strictly increase: [0, 0]"),
    "size band against value": (
        [_project(contract_value_musd=2000)],
        "project 0: project 'p1' size_band under_500M inconsistent with contract value 2000 M$ "
        "(expected over_1B)"),
    "unknown size band": ([_project(), _project(id="p2", size_band="huge")],
                          "project 1: project 'p2' has unknown size_band 'huge'"),
}


@pytest.mark.parametrize("fault", sorted(PROJECT_FAULTS))
def test_project_fault_exits_1_naming_the_manifest(tmp_path, fault):
    projects, message = PROJECT_FAULTS[fault]
    (tmp_path / "r.csv").write_text("risk_id,name\nr1,A\n")
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({"projects": projects}))
    out = tmp_path / "o.json"
    result = fresh_python("-m", "riskbench.cli", "ingest", "--manifest", str(manifest_path),
                          "--out", str(out))
    assert result.returncode == 1
    assert result.stderr == f"error: {manifest_path}, {message}\n"
    assert not out.exists()


LONG_CELL = "x" * 200_000  # past the csv module's field limit of 131,072 characters


@pytest.mark.parametrize("command", ["ingest", "lifecycle ratios"])
def test_csv_cell_past_the_field_limit_exits_1_naming_the_row(tmp_path, command):
    out = tmp_path / "o.json"
    if command == "ingest":
        table = tmp_path / "r.csv"
        table.write_text(f"risk_id,name,description\nr1,A,short\nr2,B,{LONG_CELL}\n")
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({"projects": [_project()]}))
        args = ["ingest", "--manifest", str(manifest_path)]
    else:
        table = tmp_path / "states.csv"
        table.write_text(f"project_id,risk_id,snapshot,state\np1,r1,0,Reg\np1,r2,0,{LONG_CELL}\n")
        args = ["lifecycle", "ratios", "--lifecycle-csv", str(table)]
    result = fresh_python("-m", "riskbench.cli", *args, "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        f"error: {table}, row 3: field larger than field limit (131072)"]
    assert not out.exists()


def test_non_utf8_word_file_exits_1_without_traceback(manifest, tmp_path):
    words = tmp_path / "latin1.txt"
    words.write_bytes("1 2\ncafé 0.5 0.25\n".encode("latin-1"))
    result = fresh_python("-m", "riskbench.cli", "similarity", "risks", "--manifest", manifest,
                          "--embeddings", str(words), "--out", str(tmp_path / "r.json"))
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {words}: not valid UTF-8")
    assert "Traceback" not in result.stderr


def _with_component(source, line, column, value, destination):
    """A copy of a vector file with one component of a line replaced."""
    lines = Path(source).read_text(encoding="utf-8").splitlines()
    if destination.suffix == ".jsonl":
        record = json.loads(lines[line - 1])
        record["vector"][column] = "@"
        lines[line - 1] = json.dumps(record).replace('"@"', value)
    else:
        parts = lines[line - 1].split()
        parts[column + 1] = value
        lines[line - 1] = " ".join(parts)
    destination.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return destination


@pytest.mark.parametrize("name, edits, command, message", [
    ("nan.txt", [(6, 2, "nan")], "similarity risks", "line 6: non-finite component"),
    ("inf.txt", [(9, 0, "1_0"), (12, 5, "inf")], "template build", "line 12: non-finite component"),
    ("nan.jsonl", [(3, 0, "NaN")], "rbs coverage",
     "line 3: vector[0] must be a finite number, got nan"),
    ("inf.jsonl", [(4, 1, "Infinity")], "rbs coverage",
     "line 4: vector[1] must be a finite number, got inf"),
    ("true.jsonl", [(2, 3, "true")], "rbs coverage",
     "line 2: vector[3] must be a finite number, got True"),
])
def test_non_finite_vector_file_exits_1_without_traceback(manifest, tmp_path, name, edits,
                                                          command, message):
    path = tmp_path / name
    source = SENTENCE_VECTORS if path.suffix == ".jsonl" else WORD_VECTORS
    for line, column, value in edits:
        source = _with_component(source, line, column, value, path)
    vectors = (["--sentence-embeddings", str(path), "--embeddings", WORD_VECTORS]
               if path.suffix == ".jsonl" else ["--embeddings", str(path)])
    cache = tmp_path / "cache"
    result = fresh_python("-m", "riskbench.cli", *command.split(), "--manifest", manifest,
                          *vectors, "--out", str(tmp_path / "r.json"), XDG_CACHE_HOME=str(cache))
    assert result.returncode == 1
    assert result.stderr == f"error: {path}, {message}\n"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert not list(cache.glob(f"riskbench/*{digest}*"))
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("record, message", [
    ({"text": "b", "vector": "12"}, "vector must be an array, got '12'"),
    ({"text": "b", "vector": ["0.5", "1e0"]}, "vector[0] must be a finite number, got '0.5'"),
    ({"text": 5, "vector": [0.5, 1.0]}, "text must be a string, got 5"),
    ({"text": None, "vector": [0.5, 1.0]}, "text must be a string, got None"),
    ({"vector": [0.5, 1.0]}, "text is missing"),
    ({"text": "b", "vector": [10**400, 1.0]},
     f"vector[0] must be a finite number, got {reprlib.repr(10**400)}"),
])
def test_bad_sentence_record_exits_1(manifest, tmp_path, capsys, record, message):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps({"text": "a", "vector": [0.5, 1.0]}) + "\n" + json.dumps(record))
    out = tmp_path / "r.json"
    assert run(["similarity", "risks", "--manifest", manifest, "--sentence-embeddings", str(path),
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}, line 2: {message}\n"
    assert not out.exists()


def corpus_digests(manifest):
    """SHA-256 of the manifest and of every register it names, keyed as reports key them."""
    base = Path(manifest).parent
    registers = [
        register["path"]
        for project in json.loads(Path(manifest).read_text(encoding="utf-8"))["projects"]
        for register in project["registers"]
    ]
    expected = {"manifest": hashlib.sha256(Path(manifest).read_bytes()).hexdigest()}
    for path in registers:
        expected[path] = hashlib.sha256((base / path).read_bytes()).hexdigest()
    return expected


def test_report_digests_are_of_the_files_read(manifest, tmp_path):
    expected = corpus_digests(manifest)
    for argv in (["ingest"], ["lifecycle", "ratios"]):
        out = tmp_path / "report.json"
        assert run([*argv, "--manifest", manifest, "--out", str(out)]) == 0
        assert read_report(out)["inputs"] == expected


def test_similarity_docs_with_heatmap(manifest, tmp_path):
    out = tmp_path / "docs.json"
    heatmap = tmp_path / "docs.csv"
    code = run([
        "similarity", "docs", "--manifest", manifest,
        "--heatmap", str(heatmap), "--out", str(out),
    ])
    assert code == 0
    payload = read_report(out)
    assert payload["result"]["aggregates"]["count"] == 55  # C(11, 2)
    lines = heatmap.read_text().splitlines()
    assert len(lines) == 12
    assert lines[0].startswith(",1,2,")


def test_similarity_risks_matrix(manifest, tmp_path):
    out = tmp_path / "risks.json"
    code = run([
        "similarity", "risks", "--manifest", manifest,
        "--embeddings", WORD_VECTORS, "--out", str(out),
    ])
    assert code == 0
    payload = read_report(out)
    matrix = payload["result"]["directional_mean_matrix"]
    assert len(matrix) == 11
    assert matrix[0][0] == 1.0
    assert payload["result"]["overall"]["count"] == 110
    group_means = payload["result"]["group_means"]
    # the single P3 project has no within-group pair
    assert set(group_means) == {"DB", "DBB"}
    assert group_means["DBB"]["count"] == 42  # 7 DBB projects, ordered pairs


def test_similarity_pooling(manifest, tmp_path):
    out = tmp_path / "pooling.json"
    code = run([
        "similarity", "pooling", "--manifest", manifest,
        "--embeddings", WORD_VECTORS, "--out", str(out),
    ])
    assert code == 0
    payload = read_report(out)
    rows = payload["result"]["projects"]
    assert len(rows) == 11
    # synthetic registers share a name bank, so pooled matches are strong
    assert payload["result"]["mean_fraction_at_least_0.5"] > 0.9


def test_similarity_evaluation(manifest, tmp_path):
    out = tmp_path / "evaluation.json"
    code = run([
        "similarity", "evaluation", "--manifest", manifest,
        "--embeddings", WORD_VECTORS, "--group-by", "delivery_method",
        "--out", str(out),
    ])
    assert code == 0
    payload = read_report(out)
    table = payload["result"]["aggregates"]["by_threshold"]
    assert set(table) == {"0.5", "0.7", "0.8"}
    for row in table.values():
        assert 0 <= row["probability"] <= 100
    by_group = payload["result"]["by_group"]
    assert "DBB" in by_group and "0.5" in by_group["DBB"]


def test_similarity_requires_backend(manifest, tmp_path, capsys):
    code = run([
        "similarity", "risks", "--manifest", manifest,
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 1
    assert "embedding backend" in capsys.readouterr().err


def test_template_build_and_eval(manifest, tmp_path):
    template_path = tmp_path / "template.json"
    code = run([
        "template", "build", "--manifest", manifest,
        "--embeddings", WORD_VECTORS,
        "--filter", "delivery=DBB", "--sort", "prevalence", "--top", "30",
        "--out", str(template_path),
    ])
    assert code == 0
    payload = read_report(template_path)
    entries = payload["result"]["entries"]
    assert 0 < len(entries) <= 30
    assert [e["rank"] for e in entries] == list(range(1, len(entries) + 1))
    prevalences = [e["prevalence"] for e in entries]
    assert prevalences == sorted(prevalences, reverse=True)
    assert all(e["category"] for e in entries)

    register = str(data_path("fixtures", "expost", "registers", "p01_s0.csv"))
    eval_path = tmp_path / "eval.json"
    code = run([
        "template", "eval", "--template", str(template_path),
        "--register", register, "--embeddings", WORD_VECTORS,
        "--out", str(eval_path),
    ])
    assert code == 0
    counts = read_report(eval_path)["result"]
    assert counts["tp"] + counts["fn"] == 32
    assert counts["fp"] <= len(entries)
    assert 0.0 <= counts["recall"] <= 1.0


def test_template_build_empty_filter_exits_1(manifest, tmp_path, capsys):
    with pytest.warns(UserWarning, match="bias"):
        code = run([
            "template", "build", "--manifest", manifest,
            "--embeddings", WORD_VECTORS, "--filter", "location=ZZ",
            "--out", str(tmp_path / "t.json"),
        ])
    assert code == 1
    assert "zero projects" in capsys.readouterr().err


TEMPLATE_BACKENDS = {
    "words": ["--embeddings", WORD_VECTORS],
    "sentences": ["--sentence-embeddings", SENTENCE_VECTORS, "--embeddings", WORD_VECTORS],
}


@pytest.mark.parametrize("threshold", [0.7, 0.99, 1.01, -1.0])
@pytest.mark.parametrize("backend", sorted(TEMPLATE_BACKENDS))
def test_template_build_labels_kept_entries_as_labelling_every_group_did(
    manifest, monkeypatch, backend, threshold
):
    """The old order, which classified every group and then ranked, is the
    oracle for each entry's category; classify_risk sees only the kept texts."""
    args = build_parser().parse_args(["template", "build", "--manifest", manifest,
                                      *TEMPLATE_BACKENDS[backend], "--out", "unused"])
    # past the flag's range, so set here: at 1.01 every risk is its own group
    args.match_threshold = threshold
    embedder = cli._backend(args, {})
    groups = template_module.group_risks(list(load_corpus(manifest).projects), embedder, threshold)
    labels = template_module.classify_risk([g.representative_text for g in groups],
                                           template_module.default_categories(), embedder)
    classified = []
    monkeypatch.setattr(cli, "classify_risk", lambda texts, *rest: classified.append(len(texts))
                        or template_module.classify_risk(texts, *rest))
    for sort, field in template_module.SORT_KEYS.items():
        def old_rank(index):
            value = getattr(groups[index], field)  # an unset band ranks last
            return (math.inf if value is None else -value, -groups[index].prevalence,
                    groups[index].representative_text)

        for top in (1, 5, 30):
            args.sort, args.top = sort, top
            entries = args.func(args, {})[1]["entries"]
            kept = sorted(range(len(groups)), key=old_rank)[:top]
            assert [(e["text"], e["category"]) for e in entries] == [
                (groups[i].representative_text, labels[i].label) for i in kept]
            assert classified == [len(entries)] and len(entries) <= top
            classified.clear()


def test_lifecycle_ratios_from_manifest(manifest, tmp_path):
    out = tmp_path / "ratios.json"
    assert run(["lifecycle", "ratios", "--manifest", manifest, "--out", str(out)]) == 0
    payload = read_report(out)
    pooled = payload["result"]["pooled"]
    assert pooled["total_realization"] == pytest.approx(0.646, abs=0.01)
    assert len(payload["result"]["projects"]) == 11


def test_lifecycle_ratios_from_csv(manifest, tmp_path):
    csv_path = str(data_path("fixtures", "expost", "lifecycle_table19.csv"))
    out_csv = tmp_path / "ratios_csv.json"
    out_manifest = tmp_path / "ratios_manifest.json"
    assert run(["lifecycle", "ratios", "--lifecycle-csv", csv_path, "--out", str(out_csv)]) == 0
    assert run(["lifecycle", "ratios", "--manifest", manifest, "--out", str(out_manifest)]) == 0
    assert read_report(out_csv)["result"] == read_report(out_manifest)["result"]


def test_lifecycle_ratios_needs_an_input(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["lifecycle", "ratios", "--out", str(tmp_path / "r.json")])
    assert excinfo.value.code == 2
    assert "one of the arguments --manifest --lifecycle-csv is required" in (
        capsys.readouterr().err)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("mode", ["ratios", "styles"])
def test_lifecycle_tables_take_only_one_source(tmp_path, capsys, mode):
    # a manifest that does not exist, given with a valid CSV, is not ignored
    csv_path = str(data_path("fixtures", "expost", "lifecycle_table19.csv"))
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as excinfo:
        run(["lifecycle", mode, "--manifest", str(tmp_path / "nonexistent.json"),
             "--lifecycle-csv", csv_path, "--out", str(out)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "argument --lifecycle-csv: not allowed with argument --manifest" in err
    assert not out.exists()


def test_lifecycle_styles(manifest, tmp_path):
    out = tmp_path / "styles.json"
    assert run(["lifecycle", "styles", "--manifest", manifest, "--out", str(out)]) == 0
    payload = read_report(out)
    rows = {row["project_id"]: row["style"] for row in payload["result"]["projects"]}
    assert rows["4"] == "careful doer"
    assert rows["1"] == "careful planner"
    groups = payload["result"]["groups"]
    assert set(rows) == {pid for members in groups.values() for pid in members}


@pytest.mark.parametrize("mode", ["ratios", "styles"])
def test_lifecycle_rejects_jobs(manifest, tmp_path, mode):
    argv = ["lifecycle", mode, "--manifest", manifest, "--jobs", "2",
            "--out", str(tmp_path / "r.json")]
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "command, accepts",
    [
        (["ingest"], False),
        (["similarity", "docs"], False),
        (["similarity", "evaluation"], False),
        (["template", "build"], False),
        (["template", "eval", "--template", "t.json", "--register", "r.csv"], False),
        (["similarity", "risks"], False),
        (["similarity", "pooling"], False),
        (["rbs", "coverage"], True),
    ],
)
def test_jobs_only_where_it_is_used(command, accepts):
    manifest = [] if command[:2] == ["template", "eval"] else ["--manifest", "m.json"]
    argv = command + manifest + ["--jobs", "2", "--out", "o.json"]
    if accepts:
        assert build_parser().parse_args(argv).jobs == 2
    else:
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "command, accepts",
    [
        (["ingest"], False),
        (["lifecycle", "ratios"], False),
        (["lifecycle", "styles"], False),
        (["similarity", "docs"], True),
        (["similarity", "risks"], True),
        (["similarity", "pooling"], True),
        (["similarity", "evaluation"], True),
        (["template", "build"], True),
        (["template", "eval", "--template", "t.json", "--register", "r.csv"], True),
        (["rbs", "coverage"], True),
    ],
)
def test_stopwords_only_where_it_is_used(command, accepts):
    manifest = [] if command[:2] == ["template", "eval"] else ["--manifest", "m.json"]
    argv = command + manifest + ["--stopwords", "s.txt", "--out", "o.json"]
    if accepts:
        assert build_parser().parse_args(argv).stopwords == "s.txt"
    else:
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


def test_stopwords_need_a_word_vector_file(manifest, tmp_path, capsys):
    # a sentence table is never tokenized, so it reads no stop-word list
    out = tmp_path / "c.json"
    assert run(["rbs", "coverage", "--manifest", manifest, "--sentence-embeddings",
                SENTENCE_VECTORS, "--stopwords", str(data_path("stopwords_en.txt")),
                "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "error: --stopwords applies only to an --embeddings word-vector file\n")
    assert not out.exists()


def test_a_sentence_table_alone_reads_and_records_no_stop_words(monkeypatch):
    monkeypatch.setattr(cli, "load_stopwords", lambda path: pytest.fail(f"read {path}"))
    digests = {}
    args = argparse.Namespace(embeddings=None, sentence_embeddings=SENTENCE_VECTORS,
                              stopwords=None)
    assert cli._backend(args, digests).stop_words == frozenset()
    assert list(digests) == ["sentence_embeddings"]


@pytest.mark.parametrize("mode", ["docs", "risks", "evaluation"])
def test_group_by_must_name_a_project_field(manifest, tmp_path, mode):
    backend = [] if mode == "docs" else ["--embeddings", WORD_VECTORS]
    argv = ["similarity", mode, "--manifest", manifest, *backend]
    for field in ("foo", "snapshots"):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["--group-by", field, "--out", "o.json"])
        assert excinfo.value.code == 2
    out = tmp_path / "r.json"
    result = fresh_python("-m", "riskbench.cli", *argv, "--group-by", "foo", "--out", str(out))
    assert result.returncode == 2
    assert "invalid choice: 'foo'" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


STYLE_GROUPS = {
    "groups": {"doer": ["4", "5", "6", "8", "11"], "planner": ["1", "2", "7", "9"]},
    "metrics": {
        "4": {"cost_growth": -0.10, "time_growth": 0.02},
        "5": {"cost_growth": -0.05, "time_growth": 0.05},
        "6": {"cost_growth": 0.02, "time_growth": -0.03},
        "8": {"cost_growth": -0.08, "time_growth": 0.01},
        "11": {"cost_growth": -0.02, "time_growth": 0.04},
        "1": {"cost_growth": 0.25, "time_growth": 0.30},
        "2": {"cost_growth": 0.18, "time_growth": 0.22},
        "7": {"cost_growth": 0.40, "time_growth": 0.15},
        "9": {"cost_growth": 0.22, "time_growth": 0.35},
    },
}


def test_lifecycle_compare(tmp_path):
    groups_path = tmp_path / "groups.json"
    groups_path.write_text(json.dumps(STYLE_GROUPS))
    out = tmp_path / "compare.json"
    code = run(["lifecycle", "compare", "--groups", str(groups_path), "--out", str(out)])
    assert code == 0
    payload = read_report(out)["result"]
    assert payload["groups"] == ["doer", "planner"]
    assert payload["t_squared"] > payload["critical_value"]
    assert payload["significant"] is True


def test_lifecycle_compare_alpha_too_small_exits_1_without_traceback(tmp_path):
    groups_path = tmp_path / "groups.json"
    groups_path.write_text(json.dumps(STYLE_GROUPS))
    out = tmp_path / "compare.json"
    result = fresh_python("-m", "riskbench.cli", "lifecycle", "compare", "--groups",
                          str(groups_path), "--alpha", "1e-20", "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        "error: alpha 1e-20 is too small for a finite critical value"]
    assert not out.exists()


@pytest.mark.parametrize("values, message", [
    ((0.0, 1.0, 1e160, 1e160),
     "T^2 overflows; the group means are too far apart for their spread"),
    ((1e308, -1e308, 1e308, -1e308),
     "a dimension's pooled variance overflows; the metrics are too large to compare"),
    ((0.0, 1e-150, 1e300, 1e300),
     "a dimension's z-scores overflow; its spread is too small for the values it holds"),
], ids=["t-squared", "pooled-variance", "z-scores"])
def test_lifecycle_compare_overflow_exits_1_without_warning(tmp_path, values, message):
    """Finite metrics whose statistics overflow a float: one error line, no
    numpy warning and no traceback."""
    groups_path = tmp_path / "groups.json"
    groups_path.write_text(json.dumps({
        "groups": {"a": ["p1", "p2"], "b": ["p3", "p4"]},
        "metrics": {f"p{index}": {"x": x} for index, x in enumerate(values, 1)},
    }))
    out = tmp_path / "compare.json"
    result = fresh_python("-m", "riskbench.cli", "lifecycle", "compare", "--groups",
                          str(groups_path), "--metric", "x", "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_rbs_coverage_and_cooccur(manifest, tmp_path):
    coverage_path = tmp_path / "coverage.json"
    code = run([
        "rbs", "coverage", "--manifest", manifest,
        "--embeddings", WORD_VECTORS, "--out", str(coverage_path),
    ])
    assert code == 0
    payload = read_report(coverage_path)
    assert payload["result"]["rbs"] == {"categories": 11, "items": 70}
    assert len(payload["result"]["projects"]) == 11
    assert 0.0 <= payload["result"]["overall"]["coverage_fraction"] <= 1.0

    pairs_path = tmp_path / "pairs.csv"
    code = run(["rbs", "cooccur", "--coverage", str(coverage_path), "--out", str(pairs_path)])
    assert code == 0
    lines = pairs_path.read_text().splitlines()
    assert lines[0] == "item_a,item_b,count"
    counts = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert counts == sorted(counts, reverse=True)
    assert counts and counts[0] <= 11


def test_outputs_replace_files_whole_and_keep_plain_write_modes(manifest, tmp_path):
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    new_mode = plain.stat().st_mode
    plain.unlink()
    coverage_path, pairs_path = tmp_path / "coverage.json", tmp_path / "pairs.csv"
    heatmap, docs = tmp_path / "docs.csv", tmp_path / "docs.json"
    pairs_path.write_bytes(b"stale\n")
    pairs_path.chmod(0o640)
    assert run(["rbs", "coverage", "--manifest", manifest, "--embeddings", WORD_VECTORS,
                "--out", str(coverage_path)]) == 0
    assert run(["rbs", "cooccur", "--coverage", str(coverage_path),
                "--out", str(pairs_path)]) == 0
    assert run(["similarity", "docs", "--manifest", manifest, "--heatmap", str(heatmap),
                "--out", str(docs)]) == 0
    assert pairs_path.read_text().startswith("item_a,item_b,count\n")
    assert pairs_path.stat().st_mode & 0o777 == 0o640
    for path in (coverage_path, heatmap, docs):
        assert path.stat().st_mode == new_mode
    assert sorted(os.listdir(tmp_path)) == ["coverage.json", "docs.csv", "docs.json",
                                            "pairs.csv"]


def test_rbs_coverage_with_sentence_backend(manifest, tmp_path):
    out = tmp_path / "coverage_sentence.json"
    code = run([
        "rbs", "coverage", "--manifest", manifest,
        "--sentence-embeddings", SENTENCE_VECTORS,
        "--embeddings", WORD_VECTORS,
        "--out", str(out),
    ])
    assert code == 0
    payload = read_report(out)
    rows = payload["result"]["projects"][0]["rows"]
    assert any(row["used_fallback"] for row in rows)


def test_jobs_flag_does_not_change_output(manifest, tmp_path):
    # the similarity commands make one scoring pass and take no --jobs
    for mode in ("risks", "pooling"):
        with pytest.raises(SystemExit) as excinfo:
            run(["similarity", mode, "--manifest", manifest, "--embeddings", WORD_VECTORS,
                 "--jobs", "1", "--out", str(tmp_path / "r.json")])
        assert excinfo.value.code == 2
    first = tmp_path / "one.json"
    second = tmp_path / "four.json"
    base = ["rbs", "coverage", "--manifest", manifest, "--embeddings", WORD_VECTORS]
    assert run(base + ["--jobs", "1", "--out", str(first)]) == 0
    assert run(base + ["--jobs", "4", "--out", str(second)]) == 0
    assert_same_text(first.read_bytes(), second.read_bytes())


def test_rbs_coverage_on_a_warm_corpus_writes_the_same_bytes_on_2_jobs(manifest, tmp_path,
                                                                      monkeypatch):
    # a hit builds no records, and the worker threads read each register's columns
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    load_corpus(manifest)
    base = ["rbs", "coverage", "--manifest", manifest, "--embeddings", WORD_VECTORS]
    reports = []
    for jobs in ("1", "2"):
        reports.append(tmp_path / f"jobs{jobs}.json")
        assert run(base + ["--jobs", jobs, "--out", str(reports[-1])]) == 0
    assert_same_text(reports[1].read_bytes(), reports[0].read_bytes())


def test_lifecycle_history_and_similarity_commands_build_no_records(manifest, tmp_path,
                                                                    monkeypatch):
    # a warm entry, or a parsed register file, serves each register as columns,
    # and every command reads only those
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    load_corpus(manifest)
    built = []
    for record in (corpus_module.RiskItem, corpus_module.Assessment):
        check = record.__post_init__
        monkeypatch.setattr(record, "__post_init__",
                            lambda self, check=check: built.append(type(self).__name__) or check(self))
    vectors = ["--embeddings", WORD_VECTORS]
    template = tmp_path / "template.json"
    register = str(data_path("fixtures", "expost", "registers", "p01_s0.csv"))
    for command in (["ingest"], ["lifecycle", "ratios"], ["lifecycle", "styles"],
                    ["similarity", "docs"], ["similarity", "risks", *vectors],
                    ["similarity", "pooling", *vectors], ["similarity", "evaluation", *vectors],
                    ["template", "build", *vectors], ["rbs", "coverage", *vectors]):
        out = template if command[0] == "template" else tmp_path / "r.json"
        assert run([*command, "--manifest", manifest, "--out", str(out)]) == 0
        assert built == [], command
    assert run(["template", "eval", "--template", str(template), "--register", register,
                *vectors, "--out", str(tmp_path / "r.json")]) == 0
    assert built == [], "template eval"
    corpus_module.RiskItem("r1", "A")  # the count sees a constructor
    assert built == ["Assessment", "RiskItem"]


def test_lifecycle_commands_build_no_observations(manifest, tmp_path, monkeypatch):
    # the ratios fold over a warm corpus's columns, with no record per row
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    load_corpus(manifest)
    built = []
    init = lifecycle_module.RiskObservation.__init__
    monkeypatch.setattr(lifecycle_module.RiskObservation, "__init__",
                        lambda self, *args, **kwargs: built.append(args) or init(
                            self, *args, **kwargs))
    for command in (["lifecycle", "ratios"], ["lifecycle", "styles"]):
        assert run([*command, "--manifest", manifest, "--out", str(tmp_path / "r.json")]) == 0
        assert built == [], command
    lifecycle_module.RiskObservation(0)  # the count sees a constructor
    assert built == [(0,)]


@pytest.mark.parametrize("value", ["0", "-3", "2.5", "two"])
def test_jobs_must_be_a_positive_integer(manifest, tmp_path, capsys, value):
    out = tmp_path / "c.json"
    with pytest.raises(SystemExit) as excinfo:
        run(["rbs", "coverage", "--manifest", manifest, "--embeddings", WORD_VECTORS,
             "--jobs", value, "--out", str(out)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"argument --jobs: expected a positive integer, not {value!r}" in err
    assert not out.exists()


# (command without --out, flag): each flag is a cosine in [-1, 1] or, for
# --alpha, a significance level in (0, 1)
FLOAT_FLAGS = [
    (["similarity", "evaluation", "--manifest", "{manifest}", "--embeddings", WORD_VECTORS],
     "--threshold", "1.5"),
    (["rbs", "coverage", "--manifest", "{manifest}", "--embeddings", WORD_VECTORS],
     "--threshold", "-1.01"),
    (["template", "build", "--manifest", "{manifest}", "--embeddings", WORD_VECTORS],
     "--match-threshold", "2"),
    (["template", "eval", "--template", "t.json", "--register", "r.csv",
      "--embeddings", WORD_VECTORS], "--label-threshold", "1.0001"),
    (["lifecycle", "compare", "--groups", "g.json"], "--alpha", "1"),
]


@pytest.mark.parametrize("command, flag, outside", FLOAT_FLAGS,
                         ids=[f"{c[0]} {c[1]} {f}" for c, f, _ in FLOAT_FLAGS])
@pytest.mark.parametrize("kind", ["nan", "inf", "outside", "word"])
def test_float_flags_reject_non_finite_and_out_of_range(
    manifest, tmp_path, capsys, command, flag, outside, kind
):
    value = {"nan": "nan", "inf": "inf", "outside": outside, "word": "high"}[kind]
    out = tmp_path / "o.json"
    argv = [arg.format(manifest=manifest) for arg in command]
    with pytest.raises(SystemExit) as excinfo:
        run(argv + [flag, value, "--out", str(out)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"argument {flag}: expected a finite number in " in err
    assert f"not {value!r}" in err
    assert not out.exists()


def test_float_flag_bounds_are_accepted(manifest, tmp_path):
    base = ["similarity", "evaluation", "--manifest", manifest, "--embeddings", WORD_VECTORS]
    for value in ("-1", "1", "0.0"):
        assert build_parser().parse_args(base + ["--threshold", value, "--out", "o"]).threshold \
            == float(value)
    compare = ["lifecycle", "compare", "--groups", "g.json", "--out", "o"]
    for value in ("0", "-0.5", "-inf"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(compare + ["--alpha", value])
    assert build_parser().parse_args(compare + ["--alpha", "0.999"]).alpha == 0.999


@pytest.mark.parametrize("value", ["0", "-3", "2.5", "all"])
def test_top_must_be_a_positive_integer(manifest, tmp_path, capsys, value):
    # rejected while the flags are parsed, before any risk is embedded
    out = tmp_path / "t.json"
    with pytest.raises(SystemExit) as excinfo:
        run(["template", "build", "--manifest", manifest, "--embeddings", WORD_VECTORS,
             "--top", value, "--out", str(out)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"argument --top: expected a positive integer, not {value!r}" in err
    assert not out.exists()
    assert build_parser().parse_args(["template", "build", "--manifest", manifest,
                                      "--top", "1", "--out", "o"]).top == 1


def test_nan_threshold_exits_2_without_traceback(manifest, tmp_path):
    out = tmp_path / "c.json"
    result = fresh_python("-m", "riskbench.cli", "rbs", "coverage", "--manifest", manifest,
                          "--embeddings", WORD_VECTORS, "--threshold", "nan", "--out", str(out))
    assert result.returncode == 2
    assert result.stderr.startswith("usage: riskbench rbs coverage")
    assert "argument --threshold: expected a finite number in [-1, 1], not 'nan'" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    # scipy.special alone costs more than a CLI process's start-up; it is
    # imported only when one of the two statistics that need it computes a
    # value the parse cache does not hold, never at import time.
    code = (
        "import sys, riskbench.cli\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(','.join(loaded))\n"
    )
    result = fresh_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_cli_import_loads_no_numpy():
    # importing numpy is about half of a `--version` process; numpy is
    # imported inside the functions that use it.
    code = (
        "import sys, riskbench.cli\n"
        "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.'))\n"
        "print(','.join(loaded))\n"
    )
    result = fresh_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_commands_without_array_work_load_no_numpy(manifest, tmp_path):
    coverage = tmp_path / "coverage.json"
    assert run(["rbs", "coverage", "--manifest", manifest, "--embeddings", WORD_VECTORS,
                "--out", str(coverage)]) == 0
    commands = [
        ["ingest", "--manifest", manifest],
        ["lifecycle", "ratios", "--manifest", manifest],
        ["lifecycle", "styles", "--manifest", manifest],
        ["rbs", "cooccur", "--coverage", str(coverage)],
    ]
    argvs = [argv + ["--out", str(tmp_path / f"{index}.out")]
             for index, argv in enumerate(commands)]
    code = (
        "import json, sys\n"
        "from riskbench.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.'))\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    result = fresh_python("-c", code, json.dumps(argvs))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[0] * len(commands), []]


def test_a_warm_similarity_docs_loads_no_scipy_and_no_futures(manifest, tmp_path):
    # a hit on the t-test's value imports no scipy module, not even to key its
    # entry, and a command on one thread never imports concurrent.futures
    argv = ["similarity", "docs", "--manifest", manifest, "--out", str(tmp_path / "docs.json")]
    code = (
        "import json, sys\n"
        "from riskbench.cli import main\n"
        "code = main(json.loads(sys.argv[1]))\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m.startswith('concurrent.futures')]\n"
        "print(json.dumps([code, 'scipy.special' in loaded, sorted(loaded)]))\n"
    )
    cache = str(tmp_path / "cache")
    cold = fresh_python("-c", code, json.dumps(argv), XDG_CACHE_HOME=cache)
    assert cold.returncode == 0, cold.stderr
    assert json.loads(cold.stdout)[:2] == [0, True]  # a miss stores the value
    warm = fresh_python("-c", code, json.dumps(argv), XDG_CACHE_HOME=cache)
    assert warm.returncode == 0, warm.stderr
    assert json.loads(warm.stdout) == [0, False, []]


@pytest.mark.parametrize("cost, schedule, message", [
    ("nan", "1.0", "raw_cost must be a finite number, got nan"),
    ("inf", "1.0", "raw_cost must be a finite number, got inf"),
    ("12.5", "-inf", "raw_schedule must be a finite number, got -inf"),
])
@pytest.mark.parametrize("command", [
    ["ingest"],
    ["template", "build", "--embeddings", WORD_VECTORS],
    ["similarity", "evaluation", "--embeddings", WORD_VECTORS],
])
def test_non_finite_raw_impact_exits_1(tmp_path, capsys, command, cost, schedule, message):
    register = tmp_path / "raw.csv"
    register.write_text(
        "risk_id,name,probability,cost_impact,schedule_impact\n"
        "r1,utility relocation delays,0.345,0.9374,8.05\n"
        f"r2,wetlands permit conditions,0.02,{cost},{schedule}\n")
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({"projects": [
        {"id": pid, "size_band": "under_500M", "contract_value_musd": 300.0,
         "registers": [{"ordinal": 0, "path": "raw.csv"}]} for pid in ("a", "b")]}))
    out = tmp_path / "out.json"
    assert run([*command, "--manifest", str(manifest_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {register}, row 3: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "template eval"])
def test_negative_csv_snapshot_exits_1_naming_the_file(oracle_files, tmp_path, capsys, command):
    register = tmp_path / "r.csv"
    register.write_text("risk_id,name,snapshot\nr1,A,-1\n")
    if command == "ingest":
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(
            {"projects": [{"id": "p", "registers": [{"ordinal": 0, "path": "r.csv"}]}]}))
        argv = ["ingest", "--manifest", str(manifest_path)]
    else:
        argv = ["template", "eval", "--embeddings", WORD_VECTORS,
                "--template", oracle_files["template"], "--register", str(register)]
    out = tmp_path / "out.json"
    assert run([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {register}: snapshot column must be >= 0, got -1\n"
    assert not out.exists()


def test_reports_identical_with_cold_and_warm_parse_cache(manifest, tmp_path, monkeypatch,
                                                          capsys):
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    # the bundled sentence table does not cover the fixture: every command
    # embeds the texts it misses with the word fallback
    sentences = ["--sentence-embeddings", SENTENCE_VECTORS]
    register = str(data_path("fixtures", "expost", "registers", "p01_s0.csv"))
    commands = {
        **{mode: ["similarity", mode, "--manifest", manifest]
           for mode in ("risks", "pooling", "evaluation")},
        "template": ["template", "build", "--manifest", manifest],
        "eval": ["template", "eval", "--template", str(tmp_path / "template-{state}.json"),
                 "--register", register],
        "coverage": ["rbs", "coverage", "--manifest", manifest],
    }
    reports = {}
    for state in ("cold", "warm"):
        if state == "warm":  # every load must now be served without parsing
            for parser in ("_parse_word_file", "_parse_sentence_file"):
                monkeypatch.setattr(vectorize, parser, None)
        for name, argv in commands.items():
            out = tmp_path / f"{name}-{state}.json"
            argv = [arg.format(state=state) for arg in argv]
            assert run(argv + [*sentences, "--embeddings", WORD_VECTORS, "--out", str(out)]) == 0
            reports[name, state] = out.read_bytes()
        assert len(list((cache / "riskbench").glob("*.npy"))) == 2
    sha256 = {
        path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for path in (WORD_VECTORS, SENTENCE_VECTORS)
    }
    for name, argv in commands.items():
        assert reports[name, "cold"] == reports[name, "warm"]
        inputs = json.loads(reports[name, "warm"])["inputs"]
        assert inputs["embeddings"] == sha256[WORD_VECTORS]
        assert inputs["sentence_embeddings"] == sha256[SENTENCE_VECTORS]
        # without the fallback, the first text the table misses is named:
        # `template eval` embeds the template's entries before the register
        missing = ("contractor access restrictions" if name == "eval"
                   else "unknown utilities encountered during excavation")
        capsys.readouterr()
        out = tmp_path / f"{name}-no-fallback.json"
        assert run([arg.format(state="warm") for arg in argv]
                   + [*sentences, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: no precomputed sentence vector for {missing!r}\n"
        assert not out.exists()


def manifest_with_an_empty_register(tmp_path, ids, empty):
    """A one-snapshot manifest of the projects `ids`: project `empty`'s
    register has a header and no rows, every other one holds one risk."""
    registers = tmp_path / "registers"
    registers.mkdir()
    (registers / "empty.csv").write_text("risk_id,name\n")
    (registers / "full.csv").write_text("risk_id,name\nr1,utility relocation delays\n")
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({"projects": [
        {"id": pid, "size_band": "under_500M", "registers": [
            {"ordinal": 0, "path": f"registers/{'empty' if pid == empty else 'full'}.csv"}]}
        for pid in ids
    ]}))
    return manifest_path


def test_similarity_pooling_empty_register_exits_1_without_traceback(tmp_path):
    manifest_path = manifest_with_an_empty_register(tmp_path, ("p1", "p2"), "p1")
    out = tmp_path / "pooling.json"
    result = fresh_python("-m", "riskbench.cli", "similarity", "pooling",
                          "--manifest", str(manifest_path), "--embeddings", WORD_VECTORS,
                          "--out", str(out))
    assert result.returncode == 1
    assert result.stderr == "error: pooling: project 'p1' has an empty ex-ante register\n"
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    (["rbs", "coverage", "--embeddings", WORD_VECTORS],
     "coverage: project 'pb' has an empty register"),
    (["lifecycle", "ratios"],
     "project 'pb': cannot compute ratios over zero lifecycles; its registers are empty"),
    (["similarity", "risks", "--embeddings", WORD_VECTORS],
     "risk-level similarity needs at least 2 projects with a non-empty ex-ante register; "
     "project 'pb' has an empty one"),
])
def test_empty_register_error_names_the_project(tmp_path, capsys, command, message):
    manifest_path = manifest_with_an_empty_register(tmp_path, ("pa", "pb"), "pb")
    out = tmp_path / "report.json"
    assert run([*command, "--manifest", str(manifest_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--manifest", "--lifecycle-csv"])
def test_lifecycle_errors_name_the_project(tmp_path, capsys, flag):
    # both projects hold a risk r1; only p2's goes Hap -> Reg
    states = {"p1": ("Reg", "Hap"), "p2": ("Hap", "Reg")}
    lifecycle_csv = tmp_path / "lifecycle.csv"
    lifecycle_csv.write_text("project_id,risk_id,snapshot,state\n" + "".join(
        f"{pid},r1,{ordinal},{state}\n"
        for pid, path in states.items() for ordinal, state in enumerate(path)))
    for pid, path in states.items():
        for ordinal, state in enumerate(path):
            (tmp_path / f"{pid}_s{ordinal}.csv").write_text(f"risk_id,name,status\nr1,A,{state}\n")
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({"projects": [
        {"id": pid, "size_band": "under_500M",
         "registers": [{"ordinal": n, "path": f"{pid}_s{n}.csv"} for n in range(2)]}
        for pid in states]}))
    source = {"--manifest": manifest_path, "--lifecycle-csv": lifecycle_csv}[flag]
    out = tmp_path / "ratios.json"
    assert run(["lifecycle", "ratios", flag, str(source), "--out", str(out)]) == 1
    where = f"{lifecycle_csv}: " if flag == "--lifecycle-csv" else ""
    assert capsys.readouterr().err == (
        f"error: {where}project 'p2': risk 'r1': illegal regression Hap -> Reg at snapshot 1\n")
    assert not out.exists()


def test_lifecycle_csv_ids_are_stripped(tmp_path, capsys):
    # the spaces around an id are not part of it, as in a register
    lifecycle_csv = tmp_path / "lifecycle.csv"
    lifecycle_csv.write_text("project_id,risk_id,snapshot,state\np,r1,0,Hap\np, r1 ,1,Reg\n")
    assert list(read_lifecycle_csv(lifecycle_csv.read_bytes())["p"]) == ["r1"]
    out = tmp_path / "ratios.json"
    assert run(["lifecycle", "ratios", "--lifecycle-csv", str(lifecycle_csv),
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {lifecycle_csv}: project 'p': risk 'r1': illegal regression Hap -> Reg "
        "at snapshot 1\n")
    assert not out.exists()


def write_gapped_lifecycle(directory, flag, last):
    """Risk a goes Reg -> Hap at snapshots 0-1, b is Reg at 0 and at `last`,
    and c arrives Happening at `last`; returns the input file for `flag`."""
    registers = {0: [("a", "Reg"), ("b", "Reg")], 1: [("a", "Hap")],
                 last: [("b", "Reg"), ("c", "Hap")]}
    directory.mkdir()
    if flag == "--lifecycle-csv":
        path = directory / "lifecycle.csv"
        path.write_text("project_id,risk_id,snapshot,state\n" + "".join(
            f"p1,{rid},{ordinal},{state}\n"
            for ordinal, items in registers.items() for rid, state in items))
        return path
    for ordinal, items in registers.items():
        (directory / f"s{ordinal}.csv").write_text(
            "risk_id,name,status\n" + "".join(f"{rid},{rid},{state}\n" for rid, state in items))
    path = directory / "manifest.json"
    path.write_text(json.dumps({"projects": [
        {"id": "p1", "size_band": "under_500M",
         "registers": [{"ordinal": n, "path": f"s{n}.csv"} for n in registers]}]}))
    return path


@pytest.mark.parametrize("flag, gap", [
    ("--manifest", 10**12),
    ("--lifecycle-csv", 99999999999999999999),
])
def test_lifecycle_gap_between_snapshots_costs_nothing(tmp_path, flag, gap):
    # an unobserved snapshot carries the last state forward, so a gap to a
    # huge ordinal reads as the same risks at snapshots 0-2 and walks no snapshot
    results = []
    for last in (2, gap):
        source = write_gapped_lifecycle(tmp_path / str(last), flag, last)
        out = tmp_path / f"ratios_{last}.json"
        done = fresh_python("-m", "riskbench.cli", "lifecycle", "ratios", flag, str(source),
                            "--out", str(out), timeout=60)
        assert done.returncode == 0, done.stderr
        results.append(read_report(out)["result"])
    assert results[0] == results[1]
    assert results[0]["pooled"]["counts"] == {
        "initial_identified": 2, "initial_realized": 1,
        "construction_identified": 1, "construction_realized": 1}


@pytest.mark.parametrize("name, flag", [
    ("registers/p01_s0.csv", "--manifest"),
    ("lifecycle_table19.csv", "--lifecycle-csv"),
])
def test_csv_inputs_accept_a_byte_order_mark(tmp_path, name, flag):
    """A CSV that starts with the UTF-8 BOM, as Excel writes it, reads as
    without it; the report's input digest is of the bytes as they are."""
    fixture = tmp_path / "expost"
    shutil.copytree(data_path("fixtures", "expost"), fixture)
    argv = ["lifecycle", "ratios", flag,
            str(fixture / ("manifest.json" if flag == "--manifest" else name))]
    assert run([*argv, "--out", str(tmp_path / "plain.json")]) == 0
    data = b"\xef\xbb\xbf" + (fixture / name).read_bytes()
    (fixture / name).write_bytes(data)
    assert run([*argv, "--out", str(tmp_path / "marked.json")]) == 0
    marked = read_report(tmp_path / "marked.json")
    assert marked["result"] == read_report(tmp_path / "plain.json")["result"]
    key = name if flag == "--manifest" else "lifecycle_csv"
    assert marked["inputs"][key] == hashlib.sha256(data).hexdigest()


def _backend_view(backend):
    table = backend.word_table or backend.sentence_table
    return backend.kind, backend.dimension, {key: v.tolist() for key, v in table.items()}


JSON_REGISTER = {"ordinal": 0, "label": "year 0", "items": [
    {"risk_id": "r1", "name": "utility relocation", "description": "water main",
     "category": "utilities", "status": "Reg", "probability": 3, "cost_impact": 0.5},
    {"risk_id": "r2", "name": "wetlands permit conditions", "schedule_impact": 2}]}

# Each reader of an input file: the file (copied beside the fixture corpus)
# and what it loads, as a comparable value.
BOM_READERS = {
    "manifest": ("manifest.json", lambda path: load_corpus(path).projects),
    "register csv": ("registers/p01_s0.csv", load_register),
    "register json": ("register.json", load_register),
    "lifecycle csv": ("lifecycle_table19.csv",
                      lambda path: read_lifecycle_csv(path.read_bytes(), str(path))),
    "stop words": ("stopwords_en.txt", load_stopwords),
    "rbs": ("rbs_table21.json", load_rbs),
    "categories": ("wsdot_categories.json", load_categories),
    "word vectors": ("reference_word_vectors.txt",
                     lambda path: _backend_view(load_word_vectors(path))),
    "sentence vectors": ("reference_sentence_vectors.jsonl",
                         lambda path: _backend_view(load_sentence_vectors(path))),
}


@pytest.mark.parametrize("reader", sorted(BOM_READERS))
def test_every_reader_skips_a_byte_order_mark(tmp_path, reader):
    """Every input file may start with the UTF-8 BOM; it loads as without it."""
    fixture = tmp_path / "expost"
    shutil.copytree(data_path("fixtures", "expost"), fixture)
    for source in (data_path("stopwords_en.txt"), data_path("rbs_table21.json"),
                   data_path("wsdot_categories.json"), WORD_VECTORS, SENTENCE_VECTORS):
        shutil.copy(source, fixture)
    (fixture / "register.json").write_text(json.dumps(JSON_REGISTER), encoding="utf-8")
    name, load = BOM_READERS[reader]
    path = fixture / name
    plain = load(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load(path) == plain


def test_input_text_counts_an_invalid_byte_from_the_byte_order_mark():
    for data, position in ((b"ab\xffcd", 2), (b"\xef\xbb\xbfab\xffcd", 5)):
        with pytest.raises(ParseError, match=re.escape(
                f"f.txt: word file is not valid UTF-8 ('utf-8' codec can't decode byte 0xff "
                f"in position {position}: invalid start byte)")):
            input_text(data, "f.txt", "word file")


def test_input_text_holds_one_copy_of_a_marked_text():
    import tracemalloc

    data = b"\xef\xbb\xbf" + b"risk 0.5 0.25\n" * 400_000
    tracemalloc.start()
    try:
        text = input_text(data, "f.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == data[3:].decode()
    assert peak < 1.2 * len(data)


def scales_payload(**overrides) -> dict:
    """The default scale config as the JSON of a --scales file, with overrides."""
    scales = default_scale_config()
    return {
        "probability_band_edges": list(scales.probability_band_edges),
        "cost_band_edges": list(scales.cost_band_edges),
        "schedule_band_edges": list(scales.schedule_band_edges),
        "risk_matrix": {f"{p},{i}": q.value for (p, i), q in scales.risk_matrix.items()},
        **overrides,
    }


# Each auxiliary input file, the command that reads it, and whether it is JSON.
AUX_FILES = {
    "stopwords": (["similarity", "docs", "--manifest", "{manifest}", "--stopwords", "{file}"],
                  False),
    "scales": (["ingest", "--manifest", "{manifest}", "--scales", "{file}"], True),
    "rbs": (["rbs", "coverage", "--manifest", "{manifest}", "--embeddings", WORD_VECTORS,
             "--rbs", "{file}"], True),
    "categories": (["template", "build", "--manifest", "{manifest}", "--embeddings",
                    WORD_VECTORS, "--categories", "{file}"], True),
    "template": (["template", "eval", "--template", "{file}", "--register",
                  str(data_path("fixtures", "expost", "registers", "p01_s0.csv")),
                  "--embeddings", WORD_VECTORS], True),
    "thresholds": (["lifecycle", "styles", "--manifest", "{manifest}", "--thresholds",
                    "{file}"], True),
    "groups": (["lifecycle", "compare", "--groups", "{file}"], True),
    "coverage": (["rbs", "cooccur", "--coverage", "{file}"], True),
}
AUX_FAULTS = [(kind, "latin-1") for kind in sorted(AUX_FILES)] + [
    (kind, fault) for kind, (_, is_json) in sorted(AUX_FILES.items()) if is_json
    for fault in ("bad json", "long int")
]


@pytest.mark.parametrize("kind, fault", AUX_FAULTS)
def test_bad_auxiliary_file_exits_1(manifest, tmp_path, capsys, kind, fault):
    path = tmp_path / f"{kind}.input"
    if fault == "latin-1":
        path.write_bytes('{"café": 1}\n'.encode("latin-1"))
    elif fault == "long int":
        path.write_text(f'{{"x": {LONG_INT}}}\n', encoding="utf-8")
    else:
        path.write_text("{bad\n", encoding="utf-8")
    argv, _ = AUX_FILES[kind]
    argv = [a.format(manifest=manifest, file=path) for a in argv]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    if fault == "latin-1":
        assert "is not valid UTF-8" in err
    elif fault == "long int":
        assert "is not valid JSON (Exceeds the limit" in err
    else:
        assert "is not valid JSON (Expecting property name enclosed in double quotes: " \
               "line 1 column 2 (char 1))" in err
    assert not out.exists()


def _with_metrics(project_id, entry):
    return {**STYLE_GROUPS, "metrics": {**STYLE_GROUPS["metrics"], project_id: entry}}


def _rbs_with(name="A", **item):
    return {"categories": [{"name": name, "items": [{"text": "t", "frequency": 1, **item}]}]}


def _template_with(entry):
    return {"entries": [{"rank": 1, "text": "utility relocation", "prevalence": 1.0, **entry}]}


# A case whose message changed keeps the id it was collected under, so that
# each case keeps its name.
@pytest.mark.parametrize("kind, payload, message", [
    pytest.param("thresholds", {"careful": "x"}, "careful must be a finite number, got 'x'",
                 id="thresholds-payload0-'careful' must be a finite number, not 'x'"),
    pytest.param("thresholds", {"doer_new_item": True},
                 "doer_new_item must be a finite number, got True",
                 id="thresholds-payload1-'doer_new_item' must be a finite number, not True"),
    pytest.param("groups", _with_metrics("4", {"cost_growth": "abc", "time_growth": 0.02}),
                 "metrics.4.cost_growth must be a finite number, got 'abc'",
                 id="groups-payload2-project '4' metric 'cost_growth' must be a finite number, "
                    "not 'abc'"),
    pytest.param("groups", _with_metrics("4", [-0.10, 0.02]),
                 "metrics.4 must be an object, got [-0.1, 0.02]",
                 id="groups-payload3-no metrics object for project '4'"),
    ("groups", _with_metrics("4", {"time_growth": 0.02}),
     "project '4' is missing metric 'cost_growth'"),
    pytest.param("groups", {**STYLE_GROUPS, "groups": {"doer": "45681",
                                                     "planner": ["1", "2", "7", "9"]}},
                 "groups.doer must be an array, got '45681'",
                 id="groups-payload5-groups file must hold exactly two 'groups' lists of "
                    "project ids and a 'metrics' table"),
    pytest.param("rbs", _rbs_with(frequency="x"),
                 "categories[0].items[0].frequency must be an integer, got 'x'",
                 id="rbs-payload6-category 0, item 0: 'frequency' must be an integer >= 1, "
                    "not 'x'"),
    pytest.param("rbs", _rbs_with(text=5), "categories[0].items[0].text must be a string, got 5",
                 id="rbs-payload7-category 0, item 0: expected an object with a 'text' string"),
    pytest.param("rbs", _rbs_with(name=["a"]), "categories[0].name must be a string, got ['a']",
                 id="rbs-payload8-category 0: expected an object with a 'name' string and an "
                    "'items' array"),
    ("rbs", {"categories": []}, "expected an object with a non-empty 'categories' array"),
    pytest.param("categories", {"categories": [{"name": ["x"]}]},
                 "categories[0].name must be a string, got ['x']",
                 id="categories-payload10-category 0: expected an object with a 'name' string "
                    "and an optional 'description' string"),
    pytest.param("categories", {"categories": [{"name": "a", "description": 7}]},
                 "categories[0].description must be a string, got 7",
                 id="categories-payload11-category 0: expected an object with a 'name' string "
                    "and an optional 'description' string"),
    pytest.param("template", _template_with({"text": 5}),
                 "entries[0].text must be a string, got 5",
                 id="template-payload12-entry 0: expected an object with a 'text' string, "
                    "a 'rank' and a 'prevalence'"),
    pytest.param("template", {**_template_with({}), "source_filter": [1]},
                 "source_filter must be an object, got [1]",
                 id="template-payload13-'source_filter' must be an object, not [1]"),
    ("rbs", {"categories": [*_rbs_with()["categories"], *_rbs_with(text="u")["categories"]]},
     "category names must be unique"),
    ("rbs", {"categories": [*_rbs_with()["categories"], *_rbs_with(name="B")["categories"]]},
     "duplicate item text 't'"),
    ("rbs", {"categories": [{"name": "A", "items": []}]}, "category 'A' has no items"),
    ("categories", {"categories": [{"name": "a"}, {"name": "a", "description": "b"}]},
     "category names must be unique"),
    ("categories", {"categories": []}, "category set must not be empty"),
    pytest.param("scales", [1, 2], "the top level must be an object, got [1, 2]",
                 id="scales-payload19-invalid scale config (list indices must be integers or "
                    "slices, not str)"),
    pytest.param("scales", scales_payload(probability_band_edges=["0.1", "0.3", "0.5", "0.7"]),
                 "probability_band_edges[0] must be a finite number, got '0.1'",
                 id="scales-payload20-invalid scale config (probability_band_edges must be 4 "
                    "strictly ascending finite numbers: ('0.1', '0.3', '0.5', '0.7'))"),
    pytest.param("scales", scales_payload(cost_band_edges=[[0.001], 0.005, 0.01, 0.05]),
                 "cost_band_edges[0] must be a finite number, got [0.001]",
                 id="scales-payload21-invalid scale config (cost_band_edges must be 4 strictly "
                    "ascending finite numbers: ([0.001], 0.005, 0.01, 0.05))"),
    pytest.param("scales", scales_payload(schedule_band_edges=[False, True, 6, 12]),
                 "schedule_band_edges[0] must be a finite number, got False",
                 id="scales-payload22-invalid scale config (schedule_band_edges must be 4 "
                    "strictly ascending finite numbers: (False, True, 6, 12))"),
    pytest.param("scales", scales_payload(probability_band_edges=[0.1, math.nan, 0.5, 0.7]),
                 "probability_band_edges[1] must be a finite number, got nan",
                 id="scales-payload23-invalid scale config (probability_band_edges must be 4 "
                    "strictly ascending finite numbers: (0.1, nan, 0.5, 0.7))"),
    pytest.param("scales", scales_payload(schedule_band_edges=[1, 3, 6]),
                 "schedule_band_edges must be 4 strictly ascending finite numbers: (1, 3, 6)",
                 id="scales-payload24-invalid scale config (schedule_band_edges must be 4 "
                    "strictly ascending finite numbers: (1, 3, 6))"),
    pytest.param("scales", scales_payload(probability_band_edges=[0.3, 0.1, 0.5, 0.7]),
                 "probability_band_edges must be 4 strictly ascending finite numbers: "
                 "(0.3, 0.1, 0.5, 0.7)",
                 id="scales-payload25-invalid scale config (probability_band_edges must be 4 "
                    "strictly ascending finite numbers: (0.3, 0.1, 0.5, 0.7))"),
    pytest.param("scales", scales_payload(risk_matrix=["High"]),
                 "risk_matrix must be an object, got ['High']",
                 id="scales-payload26-invalid scale config ('list' object has no attribute "
                    "'items')"),
    pytest.param("scales", scales_payload(risk_matrix={"1;1": "High"}),
                 "risk_matrix key '1;1' is not \"p,i\" with p and i in 1..5",
                 id="scales-payload27-invalid scale config (invalid literal for int() with "
                    "base 10: '1;1')"),
    pytest.param("scales", scales_payload(risk_matrix={"1,1": ["High"]}),
                 "risk_matrix.1,1 must be a string, got ['High']",
                 id="scales-payload28-invalid scale config (['High'] is not a valid Qualitative)"),
    pytest.param("scales",
                 scales_payload(risk_matrix={**scales_payload()["risk_matrix"], "1,2": "Unset"}),
                 "risk_matrix has no High, Medium or Low for bands (1, 2)",
                 id="scales-payload29-invalid scale config (risk_matrix has no High, Medium or "
                    "Low for bands (1, 2))"),
    pytest.param("scales", scales_payload(risk_matrix={"1,1": "Low"}),
                 "risk_matrix has no High, Medium or Low for bands (1, 2)",
                 id="scales-payload30-invalid scale config (risk_matrix has no High, Medium or "
                    "Low for bands (1, 2))"),
    pytest.param("thresholds", {"careful": 10**400},
                 f"careful must be a finite number, got {reprlib.repr(10**400)}",
                 id="thresholds-int too large for a float"),
    pytest.param("groups", _with_metrics("4", {"cost_growth": 0.1, "time_growth": -10**400}),
                 f"metrics.4.time_growth must be a finite number, got {reprlib.repr(-10**400)}",
                 id="groups-int too large for a float"),
    ("thresholds", {"careful": 0.5, "carefull": 0.9},
     "unknown key 'carefull' (expected 'doer_new_item' or 'careful')"),
    ("thresholds", {"Careful": "x"},
     "unknown key 'Careful' (expected 'doer_new_item' or 'careful')"),
    pytest.param("scales", scales_payload(risk_matrix={**scales_payload()["risk_matrix"],
                                                       " 1, 2": "High"}),
                 "risk_matrix key ' 1, 2' is not \"p,i\" with p and i in 1..5",
                 id="scales-risk_matrix key with spaces"),
    pytest.param("scales", scales_payload(risk_matrix={**scales_payload()["risk_matrix"],
                                                       "9,9,9": "High"}),
                 "risk_matrix key '9,9,9' is not \"p,i\" with p and i in 1..5",
                 id="scales-risk_matrix key of three bands"),
    pytest.param("scales", scales_payload(risk_matrix={**scales_payload()["risk_matrix"],
                                                       "0,1": "Low"}),
                 "risk_matrix key '0,1' is not \"p,i\" with p and i in 1..5",
                 id="scales-risk_matrix key outside 1..5"),
    pytest.param("template", _template_with({"rank": "x"}),
                 "entries[0].rank must be an integer, got 'x'", id="template-rank a string"),
    pytest.param("template", _template_with({"prevalence": "y"}),
                 "entries[0].prevalence must be a finite number, got 'y'",
                 id="template-prevalence a string"),
    pytest.param("template", _template_with({"group_size": [1]}),
                 "entries[0].group_size must be an integer, got [1]",
                 id="template-group_size a list"),
    pytest.param("template", _template_with({"source_projects": 1.5}),
                 "entries[0].source_projects must be an integer, got 1.5",
                 id="template-source_projects a float"),
    pytest.param("template", _template_with({"category": 5}),
                 "entries[0].category must be a string or null, got 5",
                 id="template-category a number"),
    pytest.param("template", _template_with({"avg_cost": "2"}),
                 "entries[0].avg_cost must be a finite number or null, got '2'",
                 id="template-avg_cost a string"),
    pytest.param("template", {**_template_with({}), "source_filter": {"project_type": 3}},
                 "source_filter.project_type must be a string, got 3",
                 id="template-source_filter value a number"),
    pytest.param("template", {**_template_with({}), "sort_key": 7},
                 "sort_key must be a string, got 7", id="template-sort_key a number"),
    pytest.param("template", {**_template_with({}), "source_project_count": "z"},
                 "source_project_count must be an integer, got 'z'",
                 id="template-source_project_count a string"),
])
def test_bad_auxiliary_value_exits_1(manifest, tmp_path, capsys, kind, payload, message):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(payload))
    argv = [a.format(manifest=manifest, file=path) for a in AUX_FILES[kind][0]]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("payload, message", [
    pytest.param([1, 2], "the top level must be an object, got [1, 2]",
                 id="payload0-not a coverage report"),
    pytest.param({"result": {"projects": [1]}}, "result.projects[0] must be an object, got 1",
                 id="payload1-project 0: expected an object with a 'rows' array"),
    pytest.param({"projects": [{"rows": {"covered": True}}]},
                 "projects[0].rows must be an array, got {'covered': True}",
                 id="payload2-project 0: expected an object with a 'rows' array"),
    pytest.param({"projects": [{"rows": [{"covered": True}]}]},
                 "projects[0].rows[0].best_item is missing",
                 id="payload3-project 0: a covered row has no 'best_item' string"),
    ({"projects": [{"rows": [{"covered": True, "best_item": "not an RBS item"}]}]},
     "covered item 'not an RBS item' is not in the RBS"),
    ({"projects": []}, "co-occurrence needs at least one coverage report"),
    pytest.param({"projects": [{"rows": [{"covered": "no", "best_item": "t"}]}]},
                 "projects[0].rows[0].covered must be true or false, got 'no'",
                 id="covered a string"),
    pytest.param({"result": {"projects": [{"rows": [{"covered": False, "best_item": 3}]}]}},
                 "result.projects[0].rows[0].best_item must be a string, got 3",
                 id="best_item a number"),
])
def test_rbs_cooccur_bad_coverage_exits_1(tmp_path, capsys, payload, message):
    path = tmp_path / "coverage.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "pairs.csv"
    assert run(["rbs", "cooccur", "--coverage", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_rbs_cooccur_counts_match_the_library(manifest, tmp_path):
    from riskbench.corpus import load_corpus
    from riskbench.rbs import cooccurrence, coverage, default_rbs
    from riskbench.vectorize import load_word_vectors

    coverage_path = tmp_path / "coverage.json"
    assert run(["rbs", "coverage", "--manifest", manifest, "--embeddings", WORD_VECTORS,
                "--out", str(coverage_path)]) == 0
    pairs_path = tmp_path / "pairs.csv"
    assert run(["rbs", "cooccur", "--coverage", str(coverage_path),
                "--out", str(pairs_path)]) == 0
    backend = load_word_vectors(WORD_VECTORS)
    reports = [coverage(default_rbs(), p.register, backend) for p in load_corpus(manifest).projects]
    rows = cooccurrence([r.covered_items() for r in reports], default_rbs())
    with pairs_path.open(newline="", encoding="utf-8") as handle:
        written = list(csv.reader(handle))
    assert written[0] == ["item_a", "item_b", "count"]
    assert [(a, b, int(count)) for a, b, count in written[1:]] == rows
    assert len(rows) == 70 * 69 // 2


# ------------------------------------------------------------ report envelopes


def _similarity(mode, group_by=None, threshold=None, use_description=False):
    return {"mode": mode, "group_by": group_by, "threshold": threshold,
            "use_description": use_description}


def _template(**changes):
    every = {"delivery_method": "all", "jurisdiction": "all", "project_type": "all",
             "size_band": "all"}
    return {"filter": every, "sort": "prevalence", "top": 30, "match_threshold": 0.7,
            "use_description": False, **changes}


CORPUS = ["--manifest", "{manifest}"]
WORDS = ["--embeddings", WORD_VECTORS]
DEFAULT_STYLES = {"careful": 0.5, "doer_new_item": 0.5}

# Each report's argv ("{name}" fields are filled per run), command, config and
# input names; "corpus" stands for the manifest and every register it names.
ENVELOPES = {
    "ingest": (["ingest", *CORPUS], "riskbench ingest", {}, {"corpus"}),
    "similarity docs": (["similarity", "docs", *CORPUS], "riskbench similarity docs",
                        _similarity("docs", "delivery_method"), {"corpus", "stopwords"}),
    "similarity docs --group-by --heatmap": (
        ["similarity", "docs", *CORPUS, "--group-by", "project_type",
         "--heatmap", "{tmp}/docs.csv"],
        "riskbench similarity docs", _similarity("docs", "project_type"),
        {"corpus", "stopwords"}),
    "similarity risks": (
        ["similarity", "risks", *CORPUS, *WORDS], "riskbench similarity risks",
        _similarity("risks", "delivery_method"), {"corpus", "stopwords", "embeddings"}),
    "similarity risks --use-description --group-by --heatmap": (
        ["similarity", "risks", *CORPUS, *WORDS, "--use-description", "--group-by",
         "size_band", "--heatmap", "{tmp}/risks.csv"],
        "riskbench similarity risks", _similarity("risks", "size_band", use_description=True),
        {"corpus", "stopwords", "embeddings"}),
    "similarity pooling": (
        ["similarity", "pooling", *CORPUS, *WORDS], "riskbench similarity pooling",
        _similarity("pooling"), {"corpus", "stopwords", "embeddings"}),
    "similarity pooling --use-description": (
        ["similarity", "pooling", *CORPUS, *WORDS, "--use-description"],
        "riskbench similarity pooling", _similarity("pooling", use_description=True),
        {"corpus", "stopwords", "embeddings"}),
    "similarity evaluation": (
        ["similarity", "evaluation", *CORPUS, *WORDS], "riskbench similarity evaluation",
        _similarity("evaluation", threshold=0.5), {"corpus", "stopwords", "embeddings"}),
    "similarity evaluation --group-by --threshold --use-description": (
        ["similarity", "evaluation", *CORPUS, *WORDS, "--group-by", "delivery_method",
         "--threshold", "0.7", "--use-description"],
        "riskbench similarity evaluation",
        _similarity("evaluation", "delivery_method", 0.7, True),
        {"corpus", "stopwords", "embeddings"}),
    "template build": (
        ["template", "build", *CORPUS, *WORDS], "riskbench template build", _template(),
        {"corpus", "stopwords", "embeddings", "categories"}),
    "template build --filter --categories --sort --top --use-description": (
        ["template", "build", *CORPUS, *WORDS, "--filter", "delivery=DBB", "--categories",
         str(data_path("wsdot_categories.json")), "--sort", "cost", "--top", "10",
         "--match-threshold", "0.8", "--use-description"],
        "riskbench template build",
        _template(filter={"delivery_method": "DBB", "jurisdiction": "all",
                          "project_type": "all", "size_band": "all"},
                  sort="cost", top=10, match_threshold=0.8, use_description=True),
        {"corpus", "stopwords", "embeddings", "categories"}),
    "template eval": (
        ["template", "eval", "--template", "{template}", "--register",
         str(data_path("fixtures", "expost", "registers", "p01_s0.csv")), *WORDS,
         "--label-threshold", "0.5"],
        "riskbench template eval", {"label_threshold": 0.5},
        {"template", "register", "stopwords", "embeddings"}),
    "lifecycle ratios": (["lifecycle", "ratios", *CORPUS], "riskbench lifecycle ratios",
                         {"source": "manifest"}, {"corpus"}),
    "lifecycle ratios --lifecycle-csv": (
        ["lifecycle", "ratios", "--lifecycle-csv", "{lifecycle_csv}"],
        "riskbench lifecycle ratios", {"source": "lifecycle_csv"}, {"lifecycle_csv"}),
    "lifecycle styles": (["lifecycle", "styles", *CORPUS], "riskbench lifecycle styles",
                         {"source": "manifest", "thresholds": DEFAULT_STYLES}, {"corpus"}),
    "lifecycle styles --lifecycle-csv --thresholds": (
        ["lifecycle", "styles", "--lifecycle-csv", "{lifecycle_csv}",
         "--thresholds", "{thresholds}"],
        "riskbench lifecycle styles",
        {"source": "lifecycle_csv", "thresholds": {"careful": 0.4, "doer_new_item": 0.6}},
        {"lifecycle_csv", "thresholds"}),
    "lifecycle compare": (
        ["lifecycle", "compare", "--groups", "{groups}"], "riskbench lifecycle compare",
        {"metric": "cost_growth,time_growth", "alpha": 0.05}, {"groups"}),
    "lifecycle compare --metric --alpha": (
        ["lifecycle", "compare", "--groups", "{groups}", "--metric", "cost_growth",
         "--alpha", "0.1"],
        "riskbench lifecycle compare", {"metric": "cost_growth", "alpha": 0.1}, {"groups"}),
    "rbs coverage": (
        ["rbs", "coverage", *CORPUS, *WORDS], "riskbench rbs coverage", {"threshold": 0.6},
        {"corpus", "stopwords", "embeddings", "rbs"}),
    "rbs coverage sentence table --rbs --threshold": (
        ["rbs", "coverage", *CORPUS, "--sentence-embeddings", SENTENCE_VECTORS, *WORDS,
         "--rbs", str(data_path("rbs_table21.json")), "--threshold", "0.7"],
        "riskbench rbs coverage", {"threshold": 0.7},
        {"corpus", "stopwords", "embeddings", "sentence_embeddings", "rbs"}),
}
# the subcommands that take --scales, each by its plain case: those whose
# report reads a band or a qualitative level
SCALED = ["ingest", "similarity evaluation", "template build", "rbs coverage"]
# the corpus subcommands that read only texts, raw probabilities and whether
# a band is set
UNSCALED = ["similarity docs", "similarity risks", "similarity pooling", "lifecycle ratios",
            "lifecycle styles"]


@pytest.fixture(scope="module")
def envelope_files(manifest, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("envelope")
    files = {
        "groups": STYLE_GROUPS,
        "thresholds": {"careful": 0.4, "doer_new_item": 0.6},
        "scales": scales_payload(),
    }
    paths = {"manifest": manifest, "tmp": str(tmp),
             "lifecycle_csv": str(data_path("fixtures", "expost", "lifecycle_table19.csv")),
             "template": str(tmp / "template.json")}
    for name, payload in files.items():
        paths[name] = str(tmp / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(payload))
    assert run(["template", "build", "--manifest", manifest, *WORDS,
                "--out", paths["template"]]) == 0
    return paths


def envelope(argv, files, inputs, tmp_path):
    out = tmp_path / "report.json"
    assert run([a.format(**files) for a in argv] + ["--out", str(out)]) == 0
    report = read_report(out)
    expected = set(inputs) - {"corpus"}
    if "corpus" in inputs:
        expected |= set(corpus_digests(files["manifest"]))
    assert set(report["inputs"]) == expected
    return report


@pytest.mark.parametrize("case", sorted(ENVELOPES))
def test_report_envelope(envelope_files, tmp_path, case):
    argv, command, config, inputs = ENVELOPES[case]
    report = envelope(argv, envelope_files, inputs, tmp_path)
    assert report["command"] == command
    assert report["config"] == config


@pytest.mark.parametrize("case", SCALED)
def test_report_envelope_records_scales(envelope_files, tmp_path, case):
    argv, command, config, inputs = ENVELOPES[case]
    report = envelope(argv + ["--scales", "{scales}"], envelope_files, inputs | {"scales"},
                      tmp_path)
    assert report["command"] == command
    assert report["config"] == config


@pytest.mark.parametrize("case", UNSCALED)
def test_scales_is_a_usage_error_where_no_band_is_read(envelope_files, tmp_path, capsys, case):
    out = tmp_path / "report.json"
    argv = [a.format(**envelope_files) for a in ENVELOPES[case][0] + ["--scales", "{scales}"]]
    with pytest.raises(SystemExit) as excinfo:
        run(argv + ["--out", str(out)])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --scales" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------- mutated input oracle

FIXTURE = data_path("fixtures", "expost")
MUTATED_REGISTER = "registers/p01_s0.csv"
CORPUS_COMMANDS = [
    ["ingest", *CORPUS], ["similarity", "docs", *CORPUS], ["similarity", "risks", *CORPUS, *WORDS],
    ["similarity", "pooling", *CORPUS, *WORDS], ["similarity", "evaluation", *CORPUS, *WORDS],
    ["template", "build", *CORPUS, *WORDS], ["lifecycle", "ratios", *CORPUS],
    ["lifecycle", "styles", *CORPUS], ["rbs", "coverage", *CORPUS, *WORDS],
]
TEMPLATE_EVAL = ["template", "eval", "--template", "{template}", "--register", "{register}", *WORDS]
# Each mutated file: the commands that read it ("{file}" is the mutant) and
# the number of drawn mutations, bounded so that the oracle takes a few seconds.
MUTATED_FILES = {
    "manifest": ([[a.replace("{manifest}", "{file}") for a in argv] for argv in CORPUS_COMMANDS],
                 6),
    "register": ([*CORPUS_COMMANDS, [a.replace("{register}", "{file}") for a in TEMPLATE_EVAL]],
                 5),
    "rbs": ([["rbs", "coverage", *CORPUS, *WORDS, "--rbs", "{file}"],
             ["rbs", "cooccur", "--coverage", "{coverage}", "--rbs", "{file}"]], 12),
    "categories": ([["template", "build", *CORPUS, *WORDS, "--categories", "{file}"]], 15),
    "template": ([[a.replace("{template}", "{file}") for a in TEMPLATE_EVAL]], 20),
    "groups": ([["lifecycle", "compare", "--groups", "{file}"]], 20),
    "thresholds": ([["lifecycle", "styles", *CORPUS, "--thresholds", "{file}"]], 20),
    "register_json": ([[a.replace("{register}", "{file}") for a in TEMPLATE_EVAL]], 15),
    "sentences": ([["similarity", "risks", *CORPUS, "--sentence-embeddings", "{file}", *WORDS]],
                  15),
    "coverage": ([["rbs", "cooccur", "--coverage", "{file}"]], 15),
    "lifecycle_csv": ([["lifecycle", mode, "--lifecycle-csv", "{file}"]
                       for mode in ("ratios", "styles")], 15),
    # over raw values, so that the edges and the risk matrix are read
    "scales": ([[*argv, "--manifest", "{raw_manifest}", "--scales", "{file}"]
                for argv in (["ingest"], ["similarity", "evaluation", *WORDS],
                             ["template", "build", *WORDS], ["rbs", "coverage", *WORDS])], 20),
}
WRONG_JSON_VALUES = (None, True, 0, -1, 2.5, math.nan, "", "x", [], [1], {}, {"a": 1})
WRONG_CSV_VALUES = ("", "x", "0", "6", "-1", "2.5", "1e400", "nan", "Hap", "true")
# Values that ended in a traceback, or were accepted, before the loaders
# checked value types; each exits 1.
KNOWN_FAULTS = {
    "manifest": [("set", ["projects", 0, "id"], ["x"]),
                 ("set", ["projects", 0, "project_type"], 3)],
    "rbs": [("set", ["categories", 0, "items", 0, "frequency"], "x"),
            ("set", ["categories", 0, "items", 0, "text"], 5),
            ("set", ["categories", 0, "name"], ["a"]), ("set", ["categories"], [])],
    "categories": [("set", ["categories", 0, "name"], ["x"]),
                   ("set", ["categories", 0, "description"], 7)],
    "template": [("set", ["result", "entries", 0, "text"], 5),
                 ("set", ["result", "source_filter"], [1]),
                 ("set", ["result", "entries", 0, "rank"], "x"),
                 ("set", ["result", "entries", 0, "prevalence"], "y"),
                 ("set", ["result", "entries", 0, "group_size"], [1]),
                 ("set", ["result", "entries", 0, "category"], 5),
                 ("set", ["result", "source_filter", "project_type"], 3),
                 ("set", ["result", "sort_key"], 7),
                 ("set", ["result", "source_project_count"], "z")],
    # an int too large for a float
    "groups": [("set", ["metrics", "4", "cost_growth"], 10**400)],
    "thresholds": [("set", ["careful"], 10**400)],
    "scales": [("set", ["probability_band_edges"], ["0.1", "0.3", "0.5", "0.7"]),
               ("set", ["cost_band_edges", 0], [0.001]),
               ("set", ["risk_matrix"], {"1": "High"}),
               ("set", ["risk_matrix", " 1, 2"], "High"),
               ("set", ["risk_matrix", "9,9,9"], "High"),
               ("set", ["risk_matrix", "0,1"], "Low")],
    # the step after the line number walks that line's record
    "sentences": [("set", [1, "vector"], "12"), ("set", [1, "vector"], ["0.5", "1e0"]),
                  ("set", [1, "text"], 5), ("set", [1, "text"], None)],
    "coverage": [("set", ["result", "projects", 0, "rows", 0, "covered"], "no")],
    "register_json": [("set", ["items", 0, "risk_id"], 5)],
}
# The form of each mutated file that is not a JSON document.
FORMS = {"register": "csv", "lifecycle_csv": "csv", "sentences": "jsonl"}


def _mutate_json(data: bytes, kind: str, path: list, value) -> bytes:
    """Set or delete the node that `path` walks to: a string step is a key,
    which a set may add, and an integer step picks a key (sorted) or an
    element, modulo their count."""
    document = json.loads(data)
    parent, key, node = None, None, document
    for step in path:
        if isinstance(node, dict) and node:
            key = step if isinstance(step, str) else sorted(node)[step % len(node)]
        elif isinstance(node, list) and node:
            key = step % len(node)
        else:
            break
        parent, node = node, node.get(key) if isinstance(node, dict) else node[key]
    if parent is None:
        document = value if kind == "set" else {}
    elif kind == "set":
        parent[key] = value
    else:
        del parent[key]
    return json.dumps(document).encode("utf-8")


def _mutate_csv(data: bytes, kind: str, path: list, value) -> bytes:
    """Set one cell (`path` picks its row, then its column), or drop one
    column from every row."""
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    row = rows[path[0] % len(rows)]
    column = path[-1] % max(len(row), 1)
    if kind == "set" and row:
        row[column] = value
    elif kind == "delete":
        rows = [[cell for index, cell in enumerate(r) if index != column] for r in rows]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue().encode("utf-8")


def _mutate_jsonl(data: bytes, kind: str, path: list, value) -> bytes:
    """Mutate the record of one line (`path` picks it, then walks it) as
    `_mutate_json` mutates a document."""
    lines = data.decode("utf-8").splitlines()
    index = path[0] % len(lines)
    lines[index] = _mutate_json(lines[index].encode("utf-8"), kind, path[1:], value).decode()
    return ("\n".join(lines) + "\n").encode("utf-8")


def mutated(data: bytes, mutation, form: str = "json") -> bytes:
    kind, path, value = mutation
    if kind == "truncate":
        return data[: path[0] % len(data)]
    if kind == "non-utf-8":
        cut = path[0] % (len(data) + 1)
        return data[:cut] + b"\xff" + data[cut:]
    mutate = {"json": _mutate_json, "jsonl": _mutate_jsonl, "csv": _mutate_csv}[form]
    return mutate(data, kind, path, value)


def mutations(values):
    path = st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=6)
    return st.one_of(
        st.tuples(st.just("set"), path, st.sampled_from(values)),
        st.tuples(st.sampled_from(["delete", "truncate", "non-utf-8"]), path, st.none()),
    )


@pytest.fixture(scope="module")
def oracle_files(manifest, tmp_path_factory):
    """A copy of the fixture corpus, a template and a coverage report of it,
    the bundled RBS and categories, a groups file, a thresholds file, the
    bundled lifecycle CSV, a scales file and a corpus of raw values."""
    root = tmp_path_factory.mktemp("oracle")
    corpus = root / "corpus"
    shutil.copytree(FIXTURE, corpus)
    files = {"manifest": str(corpus / "manifest.json"), "register": str(corpus / MUTATED_REGISTER),
             "template": str(root / "template.json"), "coverage": str(root / "coverage.json"),
             "rbs": str(data_path("rbs_table21.json")), "groups": str(root / "groups.json"),
             "categories": str(data_path("wsdot_categories.json")),
             "scales": str(root / "scales.json"), "raw_manifest": str(root / "raw.json"),
             "thresholds": str(root / "thresholds.json"),
             "lifecycle_csv": str(data_path("fixtures", "expost", "lifecycle_table19.csv")),
             "register_json": str(root / "register.json"), "sentences": SENTENCE_VECTORS}
    Path(files["groups"]).write_text(json.dumps(STYLE_GROUPS))
    Path(files["register_json"]).write_text(json.dumps(JSON_REGISTER))
    Path(files["thresholds"]).write_text(json.dumps({"careful": 0.4, "doer_new_item": 0.6}))
    Path(files["scales"]).write_text(json.dumps(scales_payload()))
    (root / "raw.csv").write_text(
        "risk_id,name,probability,cost_impact,schedule_impact\n"
        "r1,utility relocation delays,0.345,0.9374,8.05\n"
        "r2,wetlands permit conditions,0.02,12.5,0.5\n")
    Path(files["raw_manifest"]).write_text(json.dumps({"projects": [
        {"id": pid, "size_band": "under_500M", "contract_value_musd": 300.0,
         "registers": [{"ordinal": 0, "path": "raw.csv"}]} for pid in ("a", "b")]}))
    for argv, out in ((["template", "build", *CORPUS, *WORDS], "template"),
                      (["rbs", "coverage", *CORPUS, *WORDS], "coverage")):
        assert run([a.format(**files) for a in argv] + ["--out", files[out]]) == 0
    return files


@pytest.mark.parametrize("name", sorted(MUTATED_FILES))
def test_mutated_inputs_exit_0_or_1(oracle_files, tmp_path, name):
    """Wrong value types, missing keys, truncation and non-UTF-8 bytes in an
    input file end every command that reads it in exit 0 or 1, never in an
    exception."""
    commands, count = MUTATED_FILES[name]
    original = Path(oracle_files[name]).read_bytes()
    form = FORMS.get(name, "json")
    known = KNOWN_FAULTS.get(name, [])
    # the manifest's mutant sits beside it, so that register paths resolve;
    # the register's mutant replaces it, and is put back after each run
    if name == "register":
        mutant = Path(oracle_files["register"])
    elif name == "manifest":
        mutant = Path(oracle_files["manifest"]).with_name("mutant.json")
    else:
        mutant = tmp_path / f"{name}.{form}"
    files = {**oracle_files, "file": str(mutant)}

    def check(mutation):
        mutant.write_bytes(mutated(original, mutation, form))
        try:
            for argv in commands:
                code = run([a.format(**files) for a in argv] + ["--out", str(tmp_path / "out")])
                assert code in ((1,) if mutation in known else (0, 1)), (mutation, argv)
        finally:
            if name == "register":
                mutant.write_bytes(original)

    values = WRONG_CSV_VALUES if form == "csv" else WRONG_JSON_VALUES
    test = given(mutation=mutations(values))(check)
    for fault in known:
        test = example(mutation=fault)(test)
    settings(max_examples=count, deadline=None, derandomize=True, database=None,
             suppress_health_check=list(HealthCheck))(test)()


# Each declared JSON shape: the file in `oracle_files` that holds a valid
# document of it, and a command that reads the file ("{file}" is a copy with
# one value changed). A sentence-vector document is the record of line 1.
SHAPED_FILES = {
    "manifest": (corpus_module._MANIFEST, ["ingest", "--manifest", "{file}"]),
    "register_json": (corpus_module._REGISTER,
                      [a.replace("{register}", "{file}") for a in TEMPLATE_EVAL]),
    "scales": (corpus_module._SCALES,
               ["ingest", "--manifest", "{raw_manifest}", "--scales", "{file}"]),
    "rbs": (rbs_module._RBS, ["rbs", "cooccur", "--coverage", "{coverage}", "--rbs", "{file}"]),
    "coverage": ({"result": rbs_module._COVERAGE}, ["rbs", "cooccur", "--coverage", "{file}"]),
    "categories": (template_module._CATEGORIES,
                   ["template", "build", *CORPUS, *WORDS, "--categories", "{file}"]),
    "template": ({"result": template_module._TEMPLATE},
                 [a.replace("{template}", "{file}") for a in TEMPLATE_EVAL]),
    "thresholds": ({"careful?": float, "doer_new_item?": float},
                   ["lifecycle", "styles", *CORPUS, "--thresholds", "{file}"]),
    "groups": ({"groups": {str: [str]}, "metrics": {str: {str: float}}},
               ["lifecycle", "compare", "--groups", "{file}"]),
    "sentences": (vectorize._SENTENCE_RECORD,
                  ["similarity", "risks", *CORPUS, "--sentence-embeddings", "{file}", *WORDS]),
}


# Each input flag and a command that reads it, with "{file}" for the flag's
# value
MISSING_FILES = {
    "--manifest": ["ingest", "--manifest", "{file}"],
    "--lifecycle-csv": ["lifecycle", "ratios", "--lifecycle-csv", "{file}"],
    "--template": [a.replace("{template}", "{file}") for a in TEMPLATE_EVAL],
    "--register": [a.replace("{register}", "{file}") for a in TEMPLATE_EVAL],
    "--embeddings": ["similarity", "risks", *CORPUS, "--embeddings", "{file}"],
    "--sentence-embeddings": ["similarity", "risks", *CORPUS, "--sentence-embeddings", "{file}"],
    "--scales": ["ingest", *CORPUS, "--scales", "{file}"],
    "--rbs": ["rbs", "cooccur", "--coverage", "{coverage}", "--rbs", "{file}"],
    "--categories": ["template", "build", *CORPUS, *WORDS, "--categories", "{file}"],
    "--thresholds": ["lifecycle", "styles", *CORPUS, "--thresholds", "{file}"],
    "--groups": ["lifecycle", "compare", "--groups", "{file}"],
    "--coverage": ["rbs", "cooccur", "--coverage", "{file}"],
    "--stopwords": ["similarity", "docs", *CORPUS, "--stopwords", "{file}"],
}


@pytest.mark.parametrize("flag", sorted(MISSING_FILES))
def test_each_missing_input_file_exits_1_naming_it(oracle_files, tmp_path, capsys, flag):
    missing = tmp_path / "absent.json"
    out = tmp_path / "out"
    argv = [a.format(**oracle_files, file=missing) for a in MISSING_FILES[flag]]
    assert argv[argv.index(flag) + 1] == str(missing)
    assert run([*argv, "--out", str(out)]) == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    assert str(missing) in stderr and "Traceback" not in stderr
    assert not out.exists()


def _slots(document, shape, path=()):
    """(path, shape) of the document and of each value in it that `shape`
    declares, taking the first element of each array and map."""
    yield path, shape
    if isinstance(shape, tuple):  # nullable
        shape = shape[0]
    if isinstance(shape, list) and isinstance(document, list) and document:
        yield from _slots(document[0], shape[0], (*path, 0))
    elif isinstance(shape, dict) and isinstance(document, dict):
        for key, item in shape.items():
            key = next(iter(document), None) if key is str else key.removesuffix("?")
            if key in document:
                yield from _slots(document[key], item, (*path, key))


def _fits(value, shape) -> bool:
    """Whether `value` has `shape`, as `resources.check_shape` reads shapes."""
    if isinstance(shape, tuple):  # nullable
        return value is None or _fits(value, shape[0])
    if isinstance(shape, list):
        return isinstance(value, list) and all(_fits(item, shape[0]) for item in value)
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return False
        if str in shape:
            return all(_fits(item, shape[str]) for item in value.values())
        return all(_fits(value[key.removesuffix("?")], item) if key.removesuffix("?") in value
                   else key.endswith("?") for key, item in shape.items())
    if shape is float:
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is shape


def _json_path(path) -> str:
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}"
                   for step in path).removeprefix(".")


@pytest.mark.parametrize("name", sorted(SHAPED_FILES))
def test_wrong_value_in_each_declared_slot_exits_1(oracle_files, tmp_path, capsys, name):
    """Each of WRONG_JSON_VALUES that a slot's declared shape rejects, put in
    that slot, exits 1 with an error naming the file and the slot's JSON path."""
    shape, argv = SHAPED_FILES[name]
    lines = Path(oracle_files[name]).read_text(encoding="utf-8").splitlines()
    if name == "sentences":
        document, rest, where = json.loads(lines[0]), lines[1:], ", line 1"
    else:
        document, rest, where = json.loads("\n".join(lines)), [], ""
    if name == "manifest":  # beside the corpus, so that register paths resolve
        mutant = Path(oracle_files["manifest"]).with_name("slot.json")
    else:
        mutant = tmp_path / f"slot.{FORMS.get(name, 'json')}"
    files = {**oracle_files, "file": mutant, "out": tmp_path / "out"}
    command = [a.format(**files) for a in [*argv, "--out", "{out}"]]
    slots = list(_slots(document, shape))
    if name == "register_json":
        slots = slots[1:]  # a bare array is the other form of a JSON register
    for path, slot in slots:
        for value in WRONG_JSON_VALUES:
            if _fits(value, slot):
                continue
            changed = value
            if path:
                changed = json.loads(json.dumps(document))
                parent = changed
                for step in path[:-1]:
                    parent = parent[step]
                parent[path[-1]] = value
            mutant.write_text("\n".join([json.dumps(changed), *rest]), encoding="utf-8")
            assert run(command) == 1, (path, value)
            err = capsys.readouterr().err
            # a value of the wrong kind is named at its path; a container at a path inside it
            assert err.startswith(f"error: {mutant}{where}: {_json_path(path)}"), (path, value, err)


# One bad input per subcommand; each but lifecycle compare's ended in a
# traceback before the loaders checked value types.
BAD_INPUTS = {
    "ingest": ("manifest", ("set", ["projects", 0, "id"], ["x"])),
    "similarity docs": ("manifest", ("set", ["projects", 1, "id"], ["x"])),
    "similarity risks": ("manifest", ("set", ["projects", 0, "id"], {"a": 1})),
    "similarity pooling": ("manifest", ("set", ["projects", 0, "id"], [1])),
    "similarity evaluation": ("manifest", ("set", ["projects", 2, "id"], ["x"])),
    "template build": ("categories", ("set", ["categories", 0, "name"], ["x"])),
    "template eval": ("template", ("set", ["result", "source_filter"], [1])),
    "lifecycle ratios": ("manifest", ("set", ["projects", 0, "id"], ["x"])),
    "lifecycle styles": ("manifest", ("set", ["projects", 3, "id"], ["x"])),
    "lifecycle compare": ("groups", ("set", ["metrics", "4", "cost_growth"], None)),
    "rbs coverage": ("rbs", ("set", ["categories", 0, "items", 0, "frequency"], "x")),
    "rbs cooccur": ("rbs", ("set", ["categories", 1, "items", 2, "text"], 5)),
}


@pytest.fixture(scope="module")
def bad_input_runs(oracle_files, tmp_path_factory):
    """Each subcommand of BAD_INPUTS run on its bad input in a fresh
    interpreter, two at a time: its mutant's path and the finished process."""
    tmp = tmp_path_factory.mktemp("bad-inputs")

    def one(command):
        name, mutation = BAD_INPUTS[command]
        argv = next(a for a in MUTATED_FILES[name][0] if " ".join(a).startswith(command))
        stem = command.replace(" ", "-")
        mutant = (Path(oracle_files["manifest"]).with_name(f"bad-{stem}.json")
                  if name == "manifest" else tmp / f"{stem}.json")
        mutant.write_bytes(mutated(Path(oracle_files[name]).read_bytes(), mutation))
        files = {**oracle_files, "file": str(mutant)}
        return mutant, fresh_python("-m", "riskbench.cli", *[a.format(**files) for a in argv],
                                    "--out", str(tmp / f"{stem}.out"))

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(BAD_INPUTS, pool.map(one, BAD_INPUTS)))


@pytest.mark.parametrize("command", sorted(BAD_INPUTS))
def test_bad_input_exits_1_without_traceback(bad_input_runs, command):
    mutant, result = bad_input_runs[command]
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {mutant}")
    assert "Traceback" not in result.stderr
