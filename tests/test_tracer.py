"""The benchmark's tracer wraps riskbench functions by module and name.

A refactor that renames or removes one of them makes `perfbench/run.py
--trace 1` crash, so every name it wraps must resolve after `riskbench.cli`
is imported, and a traced command must run.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from riskbench.resources import data_path

from .test_cli import SENTENCE_VECTORS, WORD_VECTORS, fresh_python

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("riskbench_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracer):
    import riskbench.cli  # noqa: F401  (loads every module the tracer looks in)

    for module_name, function in (*tracer.COARSE, *tracer.HOT):
        module = sys.modules.get(f"riskbench.{module_name}")
        assert module is not None, f"riskbench.{module_name} is not loaded by riskbench.cli"
        assert callable(getattr(module, function, None)), f"{module_name}.{function}"


def test_traced_pooling_run(tmp_path):
    trace = tmp_path / "trace.json"
    out = tmp_path / "pooling.json"
    result = fresh_python(
        str(TRACER), str(trace), "--", "similarity", "pooling",
        "--manifest", str(data_path("fixtures", "expost", "manifest.json")),
        "--embeddings", WORD_VECTORS, "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert out.exists()
    spans = [span[0] for span in json.loads(trace.read_text(encoding="utf-8"))["spans"]]
    assert "similarity.pooling_similarity" in spans


def test_traced_evaluation_run(tmp_path):
    # the tracer's match_registers hook counts the pairs of the table it returns
    trace = tmp_path / "trace.json"
    out = tmp_path / "evaluation.json"
    result = fresh_python(
        str(TRACER), str(trace), "--", "similarity", "evaluation",
        "--manifest", str(data_path("fixtures", "expost", "manifest.json")),
        "--embeddings", WORD_VECTORS, "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    traced = json.loads(trace.read_text(encoding="utf-8"))
    assert "similarity.match_registers" in [name for name, *_ in traced["spans"]]
    pairs = json.loads(out.read_text(encoding="utf-8"))["result"]["pairs"]
    assert traced["counts"]["similarity.match_count"] == len(pairs) > 0


def test_traced_docs_run(tmp_path):
    # the TF-IDF documents are scored by the dense kernel, in one call
    trace = tmp_path / "trace.json"
    out = tmp_path / "docs.json"
    result = fresh_python(
        str(TRACER), str(trace), "--", "similarity", "docs",
        "--manifest", str(data_path("fixtures", "expost", "manifest.json")), "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert out.exists()
    traced = json.loads(trace.read_text(encoding="utf-8"))
    assert "similarity.document_similarity" in [name for name, *_ in traced["spans"]]
    assert traced["hot"]["vectorize.cosine_table"][0] == 1
    assert traced["hot"]["vectorize.tfidf_vector"][0] > 0


@pytest.mark.parametrize("command, span", [
    (("rbs", "coverage"), "rbs.coverage"),
    (("template", "build"), "template.group_risks"),
])
def test_traced_run_with_the_word_fallback(tmp_path, command, span):
    # the bundled sentence table misses fixture texts, so the fallback scores them
    trace = tmp_path / "trace.json"
    out = tmp_path / "report.json"
    result = fresh_python(
        str(TRACER), str(trace), "--", *command,
        "--manifest", str(data_path("fixtures", "expost", "manifest.json")),
        "--sentence-embeddings", SENTENCE_VECTORS, "--embeddings", WORD_VECTORS,
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert out.exists()
    traced = json.loads(trace.read_text(encoding="utf-8"))
    assert span in [name for name, *_ in traced["spans"]]
    assert traced["hot"]["vectorize.embed_text"][0] > 0
    assert traced["hot"]["vectorize.cosine_table"][0] > 0
