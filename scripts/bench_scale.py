"""Scale ladder for every engine, outside the timed benchmark.

    python3 scripts/bench_scale.py [--out BENCH_scale.json] [--src DIR]
    python3 scripts/bench_scale.py --check [--src DIR]   # exit 1 at the first mismatch

Builds pairwise-shaped corpora with `perfbench/gen.py` (100 risks per
project, half of the rows distinct texts, seed 7, the shared 57 MB 300-d
word file) at 50, 100 and 200 projects under `.perfbench/scale/`, then runs
each command of `COMMANDS` at every rung, one fresh `python -m riskbench.cli`
process each, with the riskbench found in `--src` (default: this checkout's
`src`).  For each command it records wall time, the process's own peak RSS
(from `wait4`), report bytes and the report's SHA-256, and writes them as
JSON, with the line count of the `--src` tree's Python files.  Every
command runs under a private parse cache (a temporary `XDG_CACHE_HOME`), so
the numbers do not depend on the user's cache, and runs twice:

- cold (`cold_wall_s`, `cold_peak_rss_mb`): first, each command under its
  own empty cache, so it parses every input, as a first command does;
- warm (`wall_s`, `peak_rss_mb`): then, after an untimed `similarity risks`
  and `similarity docs` at that rung have filled one cache with the rung's
  corpus, the word vectors and the t-test's scipy value, each command reads
  them from that cache, as a repeated command does.

A cold report whose SHA-256 differs from the warm one ends the run with
exit 1, naming the rung and command.  `--check` runs the same ladder and
compares every warm report's SHA-256 with BENCH_scale.json instead of
writing it; times and memory are not compared.  It exits 1 naming the first
rung and command whose report differs.

This script imports only the standard library and builds the corpora in a
child process, so its own memory stays small: on Linux a child's peak RSS
includes the image it replaced at exec, so a large parent process would show
up in every command's number.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_scale.json"
SCALE_DIR = ROOT / ".perfbench" / "scale"
SEED = 7
RISKS = 100
DISTINCT_RATIO = 0.5
RUNGS = (50, 100, 200)
# name -> (subcommand and flags, whether it reads the word vectors); the
# bundled RBS and categories serve `rbs coverage` and `template build`
COMMANDS = {
    "similarity risks": (["similarity", "risks"], True),
    "similarity pooling": (["similarity", "pooling"], True),
    "similarity evaluation": (["similarity", "evaluation"], True),
    "similarity docs": (["similarity", "docs"], False),
    "template build": (["template", "build"], True),
    "template build --match-threshold 0.99": (
        ["template", "build", "--match-threshold", "0.99"], True),
    "rbs coverage": (["rbs", "coverage"], True),
    "lifecycle ratios": (["lifecycle", "ratios"], False),
}


def build(projects: int, out: Path) -> None:
    """Child-process entry: write one rung's corpus; print its summary and word file."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    name = f"scale-{projects}"
    gen.SHAPES[name] = gen.Shape(projects=projects, risks=RISKS, snapshots=1,
                                 distinct_ratio=DISTINCT_RATIO, raw_values=False,
                                 backend="words")
    summary = gen.build(name, SEED, out)
    summary["word_vectors"] = str(gen.word_vector_file(gen.fixture_words()))
    print(json.dumps(summary))


def corpus(projects: int) -> tuple[Path, dict]:
    """The rung's inputs, built once and then reused."""
    target = SCALE_DIR / f"p{projects}-r{RISKS}-d{DISTINCT_RATIO:g}-s{SEED}"
    summary_path = target / "scale_summary.json"
    if not summary_path.exists():
        tmp = target.with_name(target.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.parent.mkdir(parents=True, exist_ok=True)
        child = subprocess.run([sys.executable, __file__, "--build", str(projects), str(tmp)],
                               check=True, capture_output=True, text=True)
        (tmp / "scale_summary.json").write_text(child.stdout, encoding="utf-8")
        shutil.rmtree(target, ignore_errors=True)
        os.replace(tmp, target)
    return target, json.loads(summary_path.read_text(encoding="utf-8"))


def sha256(path: Path) -> str:
    """A file's SHA-256, read in blocks: a report held whole here would count
    in the next command's peak RSS."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_command(argv: list[str], src: Path, cache: Path) -> tuple[float, float]:
    """Wall seconds and own peak RSS (MB) of one fresh riskbench process that
    keeps its parse cache under `cache`."""
    env = dict(os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(cache))
    with tempfile.TemporaryFile() as stderr:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "riskbench.cli", *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        if os.waitstatus_to_exitcode(status) != 0:
            stderr.seek(0)
            raise SystemExit(f"failed: riskbench {' '.join(argv)}\n{stderr.read().decode()}")
    return wall, usage.ru_maxrss / 1024


def run_ladder(src: Path) -> list[dict]:
    """Run every command of COMMANDS at every rung, cold and then warm; one
    record per rung."""
    inputs = [corpus(projects) for projects in RUNGS]
    results = []
    with tempfile.TemporaryDirectory() as work:
        report, cache = Path(work) / "report.json", Path(work) / "cache"

        def command(name, target, summary):
            argv, reads_vectors = COMMANDS[name]
            vectors = ["--embeddings", summary["word_vectors"]] if reads_vectors else []
            return [*argv, "--manifest", str(target / "manifest.json"), *vectors,
                    "--out", str(report)]

        def measure(argv, cache):
            """Wall seconds, peak RSS (MB), report bytes and SHA-256 of one run."""
            wall, rss = run_command(argv, src, cache)
            size, digest = report.stat().st_size, sha256(report)
            report.unlink()
            return wall, rss, size, digest

        for projects, (target, summary) in zip(RUNGS, inputs):
            cold = {}
            for name in COMMANDS:
                with tempfile.TemporaryDirectory(dir=work) as empty:
                    cold[name] = measure(command(name, target, summary), Path(empty))
            for name in ("similarity risks", "similarity docs"):  # fill the cache
                run_command(command(name, target, summary), src, cache)
            rung = {"projects": projects, "risks_per_project": RISKS, "rows": summary["rows"],
                    "distinct_texts": summary["distinct_texts"], "commands": {}}
            for name in COMMANDS:
                wall, rss, size, digest = measure(command(name, target, summary), cache)
                cold_wall, cold_rss, _, cold_digest = cold[name]
                if cold_digest != digest:
                    raise SystemExit(f"mismatch: {projects} projects, {name}: cold SHA-256 "
                                     f"{cold_digest}, warm {digest}")
                rung["commands"][name] = {
                    "wall_s": round(wall, 3),
                    "peak_rss_mb": round(rss, 1),
                    "cold_wall_s": round(cold_wall, 3),
                    "cold_peak_rss_mb": round(cold_rss, 1),
                    "report_bytes": size,
                    "sha256": digest,
                }
                print(f"{projects} projects, {name}: {wall:.2f} s, {rss:.0f} MB warm; "
                      f"{cold_wall:.2f} s, {cold_rss:.0f} MB cold", file=sys.stderr)
            results.append(rung)
    return results


def first_mismatch(recorded: list[dict], actual: list[dict]) -> str | None:
    """A line naming the first rung and command whose report SHA-256 differs
    from the record, or None."""
    for want, got in zip(recorded, actual):
        if want["projects"] != got["projects"]:
            return (f"the ladder changed: BENCH_scale.json has a {want['projects']}-project "
                    f"rung, the script {got['projects']}")
        names = [*want["commands"], *(n for n in got["commands"] if n not in want["commands"])]
        for name in names:
            digest = got["commands"].get(name, {}).get("sha256")
            expected = want["commands"].get(name, {}).get("sha256")
            if digest != expected:
                return f"{want['projects']} projects, {name}: SHA-256 {digest}, recorded {expected}"
    if len(recorded) != len(actual):
        return f"BENCH_scale.json records {len(recorded)} rungs, the ladder has {len(actual)}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(RECORD))
    parser.add_argument("--src", default=str(ROOT / "src"), help="riskbench source to run")
    parser.add_argument("--check", action="store_true",
                        help="compare report digests with BENCH_scale.json instead of writing")
    parser.add_argument("--build", nargs=2, metavar=("PROJECTS", "DIR"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.build:
        build(int(args.build[0]), Path(args.build[1]))
        return 0

    src = Path(args.src).resolve()
    results = run_ladder(src)
    if args.check:
        recorded = json.loads(RECORD.read_text(encoding="utf-8"))["rungs"]
        mismatch = first_mismatch(recorded, results)
        if mismatch:
            print(f"mismatch: {mismatch}", file=sys.stderr)
            return 1
        count = sum(len(rung["commands"]) for rung in results)
        print(f"{count} ladder reports match {RECORD.name}")
        return 0
    payload = {
        "corpus": {"generator": "perfbench/gen.py", "seed": SEED, "risks_per_project": RISKS,
                   "distinct_ratio": DISTINCT_RATIO, "word_dimension": 300,
                   "word_vocabulary": 20000},
        "method": "one fresh process per command, run cold under its own empty parse cache, "
                  "then warm under a private one that two untimed commands per rung fill; "
                  "peak RSS from wait4",
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "src_lines": sum(len(path.read_bytes().splitlines()) for path in src.rglob("*.py")),
        "rungs": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
