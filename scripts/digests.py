"""Same-bytes check: run one command matrix over the bundled fixture and the
benchmark corpora.

    PYTHONPATH=src python3 scripts/digests.py           # write DIGESTS.json
    PYTHONPATH=src python3 scripts/digests.py --check   # exit 1 at the first mismatch

Each argument list of `MATRIX` runs in this process through
`riskbench.cli.main`, in order, with `{data}` replaced by the package's data
directory and `{out}` by a fresh temporary directory. DIGESTS.json records,
for each, the arguments as written here, the exit code and the SHA-256 of
every file named by an `--out` or `--heatmap` flag (null when the command
did not write it). Reports embed input digests, not paths, so the bytes do
not depend on where the checkout or the temporary directory lives.

The matrix covers every subcommand. `template eval` and `rbs cooccur` read
what an earlier `template build` and `rbs coverage` wrote.

The `bench` section runs the commands of every `perfbench/workloads.ops_for`
workload at seeds BENCH_SEEDS, in pass order, on the inputs that
`perfbench/gen.materialize` generates (or reuses) under `.perfbench/`. Its
arguments are recorded with `{inputs}` for the seed's input directory and
`{words}` for the shared word-vector file. Only tests/test_digests.py's
fixture part runs in the test suite: the benchmark inputs take about 55 MB.

Both sections run twice, under a private parse cache (`XDG_CACHE_HOME`): a
cold run that starts with the cache empty and stores every corpus and vector
file it parses, then a warm run that is served from those entries. Each run
must give the recorded bytes; `--check` names the run of the first command
that does not. The scipy.special values of `similarity docs` and `lifecycle
compare` are the exception: `cache.special` skips its entries once
scipy.special is loaded, and the first test value computed in this process
loads it, so the warm run never reads one. tests/test_digests.py runs the
fixture's `similarity docs` commands in fresh processes to reach those hits.

A change that alters report bytes on purpose regenerates DIGESTS.json and
lists every changed report in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "DIGESTS.json"
OUTPUT_FLAGS = ("--out", "--heatmap")
BENCH_SEEDS = (1, 2, 3)

MANIFEST = ["--manifest", "{data}/fixtures/expost/manifest.json"]
LIFECYCLE_CSV = ["--lifecycle-csv", "{data}/fixtures/expost/lifecycle_table19.csv"]
WORDS = ["--embeddings", "{data}/embeddings/reference_word_vectors.txt"]
# a sentence table with the word vectors as its fallback
SENTENCES = ["--sentence-embeddings", "{data}/embeddings/reference_sentence_vectors.jsonl", *WORDS]

MATRIX = [
    ["ingest", *MANIFEST, "--out", "{out}/ingest.json"],
    ["similarity", "docs", *MANIFEST, "--out", "{out}/docs.json",
     "--heatmap", "{out}/docs_heatmap.csv"],
    ["similarity", "docs", *MANIFEST, "--group-by", "project_type",
     "--out", "{out}/docs_type.json"],
    ["similarity", "docs", *MANIFEST, "--group-by", "", "--out", "{out}/docs_ungrouped.json"],
    ["similarity", "risks", *MANIFEST, *WORDS, "--out", "{out}/risks.json",
     "--heatmap", "{out}/risks_heatmap.csv"],
    ["similarity", "risks", *MANIFEST, *SENTENCES, "--group-by", "size_band",
     "--out", "{out}/risks_sentences.json"],
    ["similarity", "risks", *MANIFEST, *WORDS, "--use-description", "--group-by", "",
     "--out", "{out}/risks_description.json"],
    ["similarity", "pooling", *MANIFEST, *WORDS, "--out", "{out}/pooling.json"],
    ["similarity", "pooling", *MANIFEST, *SENTENCES, "--use-description",
     "--out", "{out}/pooling_sentences.json"],
    ["similarity", "evaluation", *MANIFEST, *WORDS, "--out", "{out}/evaluation.json"],
    ["similarity", "evaluation", *MANIFEST, *WORDS, "--group-by", "delivery_method",
     "--out", "{out}/evaluation_grouped.json"],
    ["similarity", "evaluation", *MANIFEST, *WORDS, "--threshold", "0.3", "--use-description",
     "--out", "{out}/evaluation_0.3.json"],
    ["similarity", "evaluation", *MANIFEST, *SENTENCES, "--threshold", "0.8",
     "--group-by", "project_type", "--out", "{out}/evaluation_sentences.json"],
    ["template", "build", *MANIFEST, *WORDS, "--out", "{out}/template.json"],
    ["template", "build", *MANIFEST, *WORDS, "--match-threshold", "0.99",
     "--out", "{out}/template_0.99.json"],
    ["template", "build", *MANIFEST, *SENTENCES, "--use-description", "--sort", "cost",
     "--top", "5", "--filter", "type=Highway", "--out", "{out}/template_sentences.json"],
    ["template", "build", *MANIFEST, *WORDS, "--sort", "schedule", "--top", "3",
     "--out", "{out}/template_schedule.json"],
    # 1 is the highest threshold --match-threshold accepts
    ["template", "build", *MANIFEST, *WORDS, "--match-threshold", "1", "--top", "5",
     "--out", "{out}/template_1.json"],
    ["template", "build", *MANIFEST, *SENTENCES, "--match-threshold", "-1",
     "--out", "{out}/template_-1.json"],
    ["template", "eval", *WORDS, "--template", "{out}/template.json",
     "--register", "{data}/fixtures/expost/registers/p01_s4.csv", "--out", "{out}/eval.json"],
    ["lifecycle", "ratios", *MANIFEST, "--out", "{out}/ratios.json"],
    ["lifecycle", "ratios", *LIFECYCLE_CSV, "--out", "{out}/ratios_csv.json"],
    ["lifecycle", "styles", *MANIFEST, "--out", "{out}/styles.json"],
    ["lifecycle", "styles", *LIFECYCLE_CSV, "--out", "{out}/styles_csv.json"],
    ["lifecycle", "compare", "--groups", "{data}/fixtures/expost/groups.json",
     "--metric", "initial_realized,construction_realized", "--out", "{out}/compare.json"],
    ["rbs", "coverage", *MANIFEST, *WORDS, "--out", "{out}/coverage.json"],
    ["rbs", "coverage", *MANIFEST, *SENTENCES, "--threshold", "0.5", "--jobs", "2",
     "--out", "{out}/coverage_sentences.json"],
    ["rbs", "cooccur", "--coverage", "{out}/coverage.json", "--out", "{out}/cooccur.csv"],
    ["rbs", "cooccur", "--coverage", "{out}/coverage_sentences.json",
     "--out", "{out}/cooccur_sentences.csv"],
]


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def run_matrix(out: Path) -> list[dict]:
    """Run every command of MATRIX with its outputs under `out`; one record each."""
    from riskbench.cli import main
    from riskbench.resources import data_root

    data = str(data_root())
    records = []
    for argv in MATRIX:
        concrete = [arg.replace("{data}", data).replace("{out}", str(out)) for arg in argv]
        code = main(concrete)
        outputs = {}
        for flag, value in zip(argv, argv[1:]):
            if flag in OUTPUT_FLAGS:
                name = value.replace("{out}/", "")
                outputs[name] = _sha256(out / name)
        records.append({"argv": argv, "exit": code, "outputs": outputs})
    return records


def run_bench(out: Path) -> list[dict]:
    """Run every benchmark workload's commands at BENCH_SEEDS; one record each."""
    from riskbench.cli import main

    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    import workloads

    records = []
    for workload in sorted(gen.SHAPES):
        for seed in BENCH_SEEDS:
            inputs, summary = gen.materialize(workload, seed)
            pass_dir = out / f"{workload}-s{seed}"
            pass_dir.mkdir()
            places = {str(inputs): "{inputs}", summary.get("word_vectors"): "{words}"}
            for op in workloads.ops_for(workload, inputs, summary):
                code = main([arg.replace("{out}", str(pass_dir)) for arg in op.argv])
                records.append({
                    "workload": workload, "seed": seed,
                    "argv": [places.get(arg, arg).replace(str(inputs), "{inputs}")
                             for arg in op.argv],
                    "exit": code,
                    "outputs": {name: _sha256(pass_dir / name) for name in op.outputs},
                })
    return records


def first_mismatch(recorded: list[dict], actual: list[dict]) -> str | None:
    """A line naming the first command whose record differs, or None."""
    for want, got in zip(recorded, actual):
        command, ran = " ".join(want["argv"]), " ".join(got["argv"])
        if "seed" in want:
            command = f"{want['workload']} seed {want['seed']}: {command}"
        if want["argv"] != got["argv"]:
            return f"the matrix changed: DIGESTS.json has {command!r}, the script {ran!r}"
        if want["exit"] != got["exit"]:
            return f"{command}: exit {got['exit']}, recorded {want['exit']}"
        for name, digest in want["outputs"].items():
            if got["outputs"].get(name) != digest:
                written = got["outputs"].get(name)
                return f"{command}: {name} has SHA-256 {written}, recorded {digest}"
    if len(recorded) != len(actual):
        return f"DIGESTS.json records {len(recorded)} commands, the matrix has {len(actual)}"
    return None


def cold_and_warm(run: Callable[[Path], dict], out: Path) -> dict[str, dict]:
    """`run`'s sections, run with its outputs under `out/cold`, then under
    `out/warm`, both under the private parse cache `out/cache`, empty at first."""
    previous = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(out / "cache")
    try:
        runs = {}
        for state in ("cold", "warm"):
            (out / state).mkdir()
            runs[state] = run(out / state)
        return runs
    finally:
        if previous is None:
            del os.environ["XDG_CACHE_HOME"]
        else:
            os.environ["XDG_CACHE_HOME"] = previous


def run_mismatch(recorded: dict, runs: dict[str, dict]) -> str | None:
    """A line naming the run and the first command of a section whose record
    differs from `recorded`, or None."""
    for state, sections in runs.items():
        for name, records in sections.items():
            mismatch = first_mismatch(recorded.get(name, []), records)
            if mismatch:
                return f"{state} run: {mismatch}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with DIGESTS.json instead of writing it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="riskbench-digests-") as out:
        runs = cold_and_warm(lambda run: {"commands": run_matrix(run), "bench": run_bench(run)},
                             Path(out))
    counts = ", ".join(f"{len(records)} {name}" for name, records in runs["cold"].items())
    # the cold run is what is recorded; the warm run must give the same bytes
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if args.check else runs["cold"]
    mismatch = run_mismatch(recorded, runs)
    if mismatch:
        print(f"mismatch: {mismatch}", file=sys.stderr)
        return 1
    if args.check:
        print(f"{counts} match DIGESTS.json, cold and warm")
        return 0
    DIGESTS.write_text(json.dumps(runs["cold"], indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.name}: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
