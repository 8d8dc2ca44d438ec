"""README's "Library use" examples, run as written over a copy of the fixture."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

from riskbench.cli import main
from riskbench.resources import data_path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks() -> list[str]:
    """The python blocks of README's "Library use" section, in order."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)


def test_library_use_examples_run(tmp_path, monkeypatch):
    # the files the examples name, beside the fixture's manifest and registers
    shutil.copytree(data_path("fixtures", "expost"), tmp_path, dirs_exist_ok=True)
    shutil.copy(data_path("embeddings", "reference_word_vectors.txt"), tmp_path / "vectors.txt")
    shutil.copy(data_path("embeddings", "reference_sentence_vectors.jsonl"),
                tmp_path / "sentences.jsonl")
    shutil.copy(tmp_path / "registers" / "p01_s0.csv", tmp_path / "new_project.csv")
    monkeypatch.chdir(tmp_path)
    for command, out in ((["template", "build"], "template.json"),
                         (["rbs", "coverage"], "coverage.json")):
        assert main([*command, "--manifest", "manifest.json", "--embeddings", "vectors.txt",
                     "--out", out]) == 0

    blocks = library_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["covered"]) == len(namespace["corpus"].projects) == 11
    assert namespace["sentences"].fallback is namespace["backend"]
