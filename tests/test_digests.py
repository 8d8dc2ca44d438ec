"""The committed same-bytes checks: every fixture report keeps its SHA-256.

`scripts/digests.py` owns the command matrix and DIGESTS.json; this test runs
the matrix in-process, with a cold and then a warm parse cache, and compares.
The matrix's `similarity docs` commands also run twice in fresh processes, so
that the second run reads its p-values from the cache. A change that alters
report bytes on purpose regenerates DIGESTS.json with that script.
`scripts/bench_scale.py --check` compares the scale ladder's reports with
BENCH_scale.json; it runs outside the suite, which tests only its comparison.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from riskbench.resources import data_root

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name="digests"):
    spec = importlib.util.spec_from_file_location(f"riskbench_scripts_{name}",
                                                  SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_reports_match_the_committed_digests(tmp_path):
    digests = _script()
    recorded = json.loads(digests.DIGESTS.read_text(encoding="utf-8"))
    runs = digests.cold_and_warm(lambda run: {"commands": digests.run_matrix(run)}, tmp_path)
    assert list(runs) == ["cold", "warm"]
    assert digests.run_mismatch(recorded, runs) is None
    # the cold run stored the fixture corpus and both vector files; it also
    # stores scipy.special values unless an earlier test loaded scipy.special,
    # and memos of the digests of the bundled files, which are old enough; the
    # warm run's hits touched each entry's marker of last use
    names = sorted(path.name for path in (tmp_path / "cache" / "riskbench").iterdir()
                   if not path.name.startswith(("special-", "memo-")))
    entries = [name for name in names if not name.endswith(".used")]
    assert [Path(name).suffix for name in entries] == [".marshal", ".npy", ".npy"]
    assert sorted(set(names) - set(entries)) == [f"{name}.used" for name in entries]


def test_similarity_docs_reports_match_in_fresh_processes(tmp_path):
    # a fresh process has not loaded scipy.special, so the second run of each
    # command that tests two groups reads its p-value from the cache
    from .test_cli import fresh_python

    digests = _script()
    recorded = json.loads(digests.DIGESTS.read_text(encoding="utf-8"))["commands"]
    docs = [record for record in recorded if record["argv"][:2] == ["similarity", "docs"]]
    assert len(docs) == 3
    data = str(data_root())
    entries = tmp_path / "cache" / "riskbench"
    specials = {}
    for run in ("miss", "hit"):
        out = tmp_path / run
        out.mkdir()
        for record in docs:
            argv = [arg.replace("{data}", data).replace("{out}", str(out))
                    for arg in record["argv"]]
            result = fresh_python("-m", "riskbench.cli", *argv,
                                  XDG_CACHE_HOME=str(tmp_path / "cache"))
            assert (result.returncode, result.stderr) == (record["exit"], ""), result.stderr
            for name, digest in record["outputs"].items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (run, name)
        specials[run] = {path.name: path.stat().st_mtime_ns for path in entries.iterdir()
                         if path.name.startswith("special-")}
    # one command tests two groups (by delivery method); its hit rewrote nothing
    # and touched the entry's marker of last use
    [name] = specials["miss"]
    assert specials["hit"].pop(f"{name}.used")
    assert specials["hit"] == specials["miss"]


def test_two_trees_share_a_cache_without_evicting_each_other(tmp_path):
    # Another riskbench tree, here a copy whose cache, corpus and vector
    # modules differ by a comment, keys its entries by its own source digests.
    # Once each tree has run a command, each has its own entries, and a second
    # alternating round reads them and stores nothing. Memos are left out:
    # one is stored whenever the file it describes is first old enough.
    import os
    import shutil
    import subprocess
    import sys

    import riskbench

    src = Path(riskbench.__file__).resolve().parent
    other = tmp_path / "other" / "riskbench"
    shutil.copytree(src, other, ignore=shutil.ignore_patterns("__pycache__"))
    for module in ("vectorize.py", "corpus.py", "cache.py"):
        with open(other / module, "a", encoding="utf-8") as out:
            out.write("# another tree\n")
    recorded = json.loads(_script().DIGESTS.read_text(encoding="utf-8"))["commands"]
    records = [next(record for record in recorded if record["argv"][:2] == command)
               for command in (["similarity", "risks"], ["similarity", "docs"])]
    data, entries = str(data_root()), tmp_path / "cache" / "riskbench"

    def run_round(name: str) -> dict[str, bytes]:
        reports = {}
        for record in records:
            for tree in (src, other):
                out = tmp_path / name / tree.parent.name
                out.mkdir(parents=True, exist_ok=True)
                argv = [arg.replace("{data}", data).replace("{out}", str(out))
                        for arg in record["argv"]]
                result = subprocess.run(
                    [sys.executable, "-m", "riskbench.cli", *argv], capture_output=True,
                    text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(tree.parent),
                                                     XDG_CACHE_HOME=str(tmp_path / "cache")))
                assert (result.returncode, result.stderr) == (0, ""), result.stderr
                for report in record["outputs"]:
                    reports[tree.parent.name, report] = (out / report).read_bytes()
        return reports

    def stored() -> dict[str, int]:  # the entries, without the markers of their last use
        return {path.name: path.stat().st_mtime_ns for path in entries.iterdir()
                if not path.name.startswith("memo-") and path.suffix != ".used"}

    first = run_round("first")
    after_first = stored()
    kinds = sorted(name.split("-", 1)[0] for name in after_first)
    assert kinds == ["corpus"] * 2 + ["special"] * 2 + ["word_average"] * 2  # one per tree
    assert run_round("second") == first
    assert stored() == after_first
    # every entry was hit, and so has its marker
    assert all((entries / f"{name}.used").exists() for name in after_first)
    for record in records:
        for report, digest in record["outputs"].items():
            assert first["src", report] == first["other", report]
            assert hashlib.sha256(first["src", report]).hexdigest() == digest


def test_a_cold_fixture_run_stores_the_entry_names_it_always_has(tmp_path, monkeypatch):
    # Each name is computed with the formula that names it, so a change that
    # renames an entry, and so drops every user's cache, fails here: the word
    # and sentence files by their SHA-256 and the source of the code that
    # parses them, the corpus by the interpreter, that source, the SHA-256 of
    # the manifest and of each register, and the scale config, and a
    # scipy.special value by the source of the cache module, the scipy build,
    # the function and its arguments' float.hex(). Memos of the bundled files'
    # digests are left out.
    import sys
    from importlib.machinery import EXTENSION_SUFFIXES
    from importlib.util import find_spec

    from riskbench import cache, corpus, resources, vectorize
    from riskbench.cli import main
    from riskbench.corpus import default_scale_config

    from .test_cli import fresh_python

    def sha256(data) -> str:
        return hashlib.sha256(data if isinstance(data, bytes) else repr(data).encode()).hexdigest()

    data = data_root()
    commands = [record["argv"] for record in json.loads(
        _script().DIGESTS.read_text(encoding="utf-8"))["commands"]]
    words = next(argv for argv in commands if argv[:2] == ["similarity", "risks"])
    sentences = next(argv for argv in commands if "--sentence-embeddings" in argv)
    docs = next(argv for argv in commands if argv[:2] == ["similarity", "docs"])
    argvs = [[arg.replace("{data}", str(data)).replace("{out}", str(tmp_path)) for arg in argv]
             for argv in (words, sentences, docs)]
    for argv in argvs:  # fresh processes, so that the t-test value is stored too
        result = fresh_python("-m", "riskbench.cli", *argv, XDG_CACHE_HOME=str(tmp_path / "cache"))
        assert (result.returncode, result.stderr) == (0, ""), result.stderr

    embeddings = data / "embeddings"
    manifest = data / "fixtures" / "expost" / "manifest.json"
    registers = [register["path"] for project in json.loads(manifest.read_text())["projects"]
                 for register in project["registers"]]

    def source(*modules) -> str:  # the key of the SHA-256 of each module's source
        return sha256(tuple(sha256(Path(module.__file__).read_bytes()) for module in modules))

    cfg = default_scale_config()
    edges = [cfg.probability_band_edges, cfg.cost_band_edges, cfg.schedule_band_edges]
    matrix = [cfg.risk_matrix[(p, i)].value for p in range(1, 6) for i in range(1, 6)]
    key = (sys.implementation.cache_tag, source(corpus, resources),
           [sha256(manifest.read_bytes())]
           + [sha256((manifest.parent / path).read_bytes()) for path in registers],
           edges, matrix)
    calls = []  # the arguments of the t-test that `similarity docs` computes
    special = cache.special
    monkeypatch.setattr(cache, "special", lambda name, *args: calls.append((name, args))
                        or special(name, *args))
    assert main(argvs[2]) == 0
    [(_, args)] = calls
    scipy = Path(find_spec("scipy").submodule_search_locations[0])
    build = (sha256((sha256((scipy / "version.py").read_bytes()),)), EXTENSION_SUFFIXES[0])
    names = [path.name for path in (tmp_path / "cache" / "riskbench").iterdir()
             if path.suffix != ".used"]  # each entry's marker is its name and ".used"
    assert sorted(name for name in names if not name.startswith("memo-")) == sorted([
        f"word_average-{sha256((embeddings / 'reference_word_vectors.txt').read_bytes())}"
        f".{source(vectorize, resources)}.npy",
        "precomputed_sentence-"
        f"{sha256((embeddings / 'reference_sentence_vectors.jsonl').read_bytes())}"
        f".{source(vectorize, resources)}.npy",
        f"corpus-{sha256(key)}.marshal",
        f"special-{sha256((source(cache), build, 'stdtr', [float(a).hex() for a in args]))}",
    ])


def test_run_mismatch_names_the_run():
    digests = _script()
    record = {"argv": ["ingest"], "exit": 0, "outputs": {"i.json": "aa"}}
    runs = {state: {"commands": [record]} for state in ("cold", "warm")}
    assert digests.run_mismatch({"commands": [record]}, runs) is None
    runs["warm"] = {"commands": [{**record, "outputs": {"i.json": "bb"}}]}
    assert digests.run_mismatch({"commands": [record]}, runs) == (
        "warm run: ingest: i.json has SHA-256 bb, recorded aa")


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


def test_ladder_first_mismatch_names_the_rung_and_the_command():
    first_mismatch = _script("bench_scale").first_mismatch

    def rung(projects, **digests):
        return {"projects": projects, "commands": {
            name.replace("_", " "): {"wall_s": 1.5, "peak_rss_mb": 90.0, "sha256": digest}
            for name, digest in digests.items()}}

    recorded = [rung(50, rbs_coverage="aa", lifecycle_ratios="cc"), rung(100, rbs_coverage="dd")]
    timed = [rung(50, rbs_coverage="aa", lifecycle_ratios="cc"), rung(100, rbs_coverage="dd")]
    timed[0]["commands"]["rbs coverage"].update(wall_s=9.0, peak_rss_mb=10.0)
    assert first_mismatch(recorded, timed) is None  # times and memory are not compared
    assert first_mismatch(recorded, [recorded[0], rung(100, rbs_coverage="ee")]) == (
        "100 projects, rbs coverage: SHA-256 ee, recorded dd")
    assert first_mismatch(recorded, [rung(50, rbs_coverage="aa"), recorded[1]]) == (
        "50 projects, lifecycle ratios: SHA-256 None, recorded cc")
    assert first_mismatch(recorded[1:], [rung(100, rbs_coverage="dd", similarity_docs="ff")]) == (
        "100 projects, similarity docs: SHA-256 ff, recorded None")
    assert first_mismatch(recorded, recorded[::-1]).startswith(
        "the ladder changed: BENCH_scale.json has a 50-project rung, the script 100")
    assert first_mismatch(recorded[:1], recorded) == (
        "BENCH_scale.json records 1 rungs, the ladder has 2")


@pytest.mark.parametrize("served", ["same bytes", "other bytes"])
def test_ladder_runs_each_command_cold_then_warm(tmp_path, monkeypatch, served):
    # a stand-in for riskbench that fills the cache it is given and writes a
    # report naming its command; "other bytes" serves `rbs coverage` a
    # different report from a warm cache, which the ladder must refuse
    bench = _script("bench_scale")
    caches = []

    def run_command(argv, src, cache):
        cache.mkdir(exist_ok=True)
        warm = any(cache.iterdir())
        (cache / f"entry{len(caches)}").write_bytes(b"")
        caches.append((argv[:2], cache, warm))
        stale = served == "other bytes" and warm and argv[0] == "rbs"
        Path(argv[argv.index("--out") + 1]).write_text(f"{argv[:2]}{stale}")
        return (2.0, 20.0) if warm else (3.0, 30.0)

    monkeypatch.setattr(bench, "RUNGS", (50,))
    monkeypatch.setattr(bench, "corpus", lambda projects: (tmp_path, {
        "rows": 5000, "distinct_texts": 2500, "word_vectors": "w.txt"}))
    monkeypatch.setattr(bench, "run_command", run_command)
    if served == "other bytes":
        with pytest.raises(SystemExit, match="50 projects, rbs coverage: cold SHA-256 "):
            bench.run_ladder(tmp_path)
        return
    [rung] = bench.run_ladder(tmp_path)
    cold, fill, warm = (caches[:len(bench.COMMANDS)], caches[len(bench.COMMANDS):][:2],
                        caches[len(bench.COMMANDS) + 2:])
    assert len({cache for _, cache, _ in cold}) == len(cold)  # each its own empty cache
    assert not any(hit for *_, hit in cold)
    assert [argv for argv, *_ in fill] == [["similarity", "risks"], ["similarity", "docs"]]
    assert {cache for _, cache, _ in fill + warm} == {fill[0][1]}
    assert all(hit for *_, hit in warm)
    assert list(rung["commands"]) == list(bench.COMMANDS)
    for name, record in rung["commands"].items():
        report = f"{bench.COMMANDS[name][0][:2]}False".encode()
        assert record == {"wall_s": 2.0, "peak_rss_mb": 20.0, "cold_wall_s": 3.0,
                          "cold_peak_rss_mb": 30.0, "report_bytes": len(report),
                          "sha256": hashlib.sha256(report).hexdigest()}
