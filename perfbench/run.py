"""riskbench benchmark: seeded corpora, fresh CLI processes, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout (it needs `src/riskbench` and
`scripts/make_fixtures.py`).  Each command runs as
`python -m riskbench.cli ...` with `PYTHONPATH=src` and default flags, in a
closed loop: one process at a time, the next starting after the previous
exits.  A run generates (or reuses) the seed's inputs under `.perfbench/`,
makes one untimed warm-up pass, then S // 10 timed passes (at least two).
A command's time is its fastest timed pass; `wall_s` adds them up.
`setup_s` is the median wall time of three fresh `--version` processes,
one before the warm-up and one before each of the first two timed passes.
Before and after each, `calibrate.py` (fixed work that imports no riskbench
code) is timed; `wall_s`, `risks_per_s` and `setup_s` are scaled by
CALIBRATION_REFERENCE_S / (its mean), because the shared host's speed
drifts by 30% over minutes.  The unscaled times are printed and recorded.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
alternates untraced and traced passes (through `perfbench/tracer.py`) and
prints the per-layer metrics.  Every op is checked: exit code 0, reports
that re-serialize byte-identically through `riskbench.report.canonical_json`,
identical bytes on every pass (traced or not), and invariants on the
report aggregates.  The last stdout line is the JSON result; the lines
before it list every metric by name and unit, the per-command times, report
SHA-256 digests, the input shape and the machine facts, which are also
written to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_TIMED_PASSES = 2
PASS_SECONDS = 10
MIN_TRACED_PAIRS = 1
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# what calibrate.py takes at the reference speed; end-to-end times are
# scaled by CALIBRATION_REFERENCE_S / (mean probe time of the run)
CALIBRATION_REFERENCE_S = 1.0
PROBE_MESSAGE = "no precomputed sentence vector for"


def _load_report_module():
    """riskbench/report.py alone (it has no package imports), for canonical_json."""
    path = ROOT / "src" / "riskbench" / "report.py"
    spec = importlib.util.spec_from_file_location("_riskbench_report", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class Runner:
    """Spawns commands one at a time and keeps the op tally."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def spawn(self, argv: list[str], stdout_path: Path, stderr_path: Path):
        """(wall seconds, own peak RSS in KiB, exit code) of one child process."""
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            remaining = self.deadline - perf_counter()
            if remaining <= 0:
                err.write(b"not started: the run is past its deadline\n")
                return 0.0, 0, -1
            start = perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss, proc.returncode

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def setup_sample(self) -> float | None:
        self.attempted += 1
        out, err = self.work / "version.out", self.work / "version.err"
        wall, _, code = self.spawn([sys.executable, "-m", "riskbench.cli", "--version"], out, err)
        if code != 0 or not out.read_bytes().startswith(b"riskbench "):
            self.fail(f"--version exited {code}")
            return None
        return wall

    def calibration_sample(self) -> float:
        """Wall time of the machine-speed probe; it is not a riskbench op."""
        out, err = self.work / "calibrate.out", self.work / "calibrate.err"
        wall, _, code = self.spawn([sys.executable, str(HERE / "calibrate.py")], out, err)
        if code != 0:
            raise SystemExit(f"error: calibrate.py exited {code}: {err.read_text()[-300:]}")
        return wall


def _argv(op, pass_dir: Path, trace_path: Path | None) -> list[str]:
    args = [a.replace("{out}", str(pass_dir)) for a in op.argv]
    if trace_path is None:
        return [sys.executable, "-m", "riskbench.cli", *args]
    return [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--", *args]


def run_pass(runner: Runner, ops, pass_dir: Path, reference: dict | None,
             summary: dict, report_module, traced: bool = False) -> dict:
    """Run every op once; check it against the invariants or the reference digests."""
    pass_dir.mkdir(parents=True)
    walls, rss, digests, sizes, traces = [], [], {}, 0, []
    for index, op in enumerate(ops):
        runner.attempted += 1
        trace_path = pass_dir / f"trace{index}.json" if traced else None
        wall, maxrss, code = runner.spawn(_argv(op, pass_dir, trace_path),
                                          pass_dir / f"op{index}.out", pass_dir / f"op{index}.err")
        walls.append(wall)
        rss.append(maxrss)
        if code != 0:
            err = (pass_dir / f"op{index}.err").read_text(errors="replace").strip()
            runner.fail(f"{op.label}: exit {code}: {err[-300:]}")
            continue
        try:
            data = {name: (pass_dir / name).read_bytes() for name in op.outputs}
        except FileNotFoundError as exc:
            runner.fail(f"{op.label}: missing output {exc.filename}")
            continue
        sizes += sum(len(b) for b in data.values())
        op_digests = {name: hashlib.sha256(b).hexdigest() for name, b in data.items()}
        digests.update(op_digests)
        if traced:
            traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
        if reference is not None:
            changed = [n for n, d in op_digests.items() if reference.get(n) != d]
            if changed:
                runner.fail(f"{op.label}: bytes differ from the warm-up pass"
                            f"{' under tracing' if traced else ''}: {changed}")
            continue
        problem = check_outputs(op, data, summary, report_module)
        if problem:
            runner.fail(f"{op.label}: {problem}")
    return {"walls": walls, "rss": rss, "digests": digests, "bytes": sizes, "traces": traces}


def check_outputs(op, data: dict[str, bytes], summary: dict, report_module) -> str | None:
    """Canonical re-serialization and the op's invariants; the problem, if any."""
    try:
        reports = {}
        for name, raw in data.items():
            text = raw.decode("utf-8")
            if name.endswith(".json"):
                reports[name] = json.loads(text)
                if report_module.canonical_json(reports[name]) != text:
                    raise workloads.CheckError(f"{name} is not canonical JSON")
            else:
                reports[name] = text
        op.check(reports, summary)
    except (workloads.CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def run_probe(runner: Runner, op, pass_dir: Path, summary: dict, report_module) -> dict:
    """The known-defect probe: its outcome is reported, never timed or counted."""
    pass_dir.mkdir(parents=True)
    _, _, code = runner.spawn(_argv(op, pass_dir, None), pass_dir / "probe.out",
                              pass_dir / "probe.err")
    err = (pass_dir / "probe.err").read_text(errors="replace").strip()
    outcome = {"label": op.label, "exit": code, "stderr": err[-300:],
               "known_defect": code == 1 and PROBE_MESSAGE in err}
    if code == 0:
        data = {name: (pass_dir / name).read_bytes() for name in op.outputs}
        outcome["check"] = check_outputs(op, data, summary, report_module) or "ok"
    return outcome


def op_times(passes: list[dict]) -> list[float]:
    """Each op's fastest wall time over the passes.

    On a shared host, interference from other tenants only adds time, in
    bursts that hit single processes; the fastest of several passes filters
    them where a median of three does not.
    """
    return [min(walls) for walls in zip(*(p["walls"] for p in passes))]


def per_command(ops, times: list[float]) -> dict[str, float]:
    """Per-command metrics: the op times of the ops feeding each (both builds add up)."""
    names = sorted({op.metric for op in ops if op.metric})
    return {name: sum(t for op, t in zip(ops, times) if op.metric == name) for name in names}


def timed_passes(seconds: int, trace: bool) -> int:
    """A fixed pass count per `--seconds`, so that the fastest-of-N estimator
    does not drift with how fast the machine happens to be."""
    if trace:
        return max(MIN_TRACED_PAIRS, seconds // (2 * PASS_SECONDS))
    return max(MIN_TIMED_PASSES, seconds // PASS_SECONDS)


def machine_facts() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = perf_counter()
    inputs, summary = gen.materialize(workload, seed)
    ops = workloads.ops_for(workload, inputs, summary)
    report_module = _load_report_module()
    work = ROOT / ".perfbench" / "runs" / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, start + DEADLINE_S)
    try:
        setup, calibration = [], []

        def sample_setup():
            calibration.append(runner.calibration_sample())
            wall = runner.setup_sample()
            if wall is not None:
                setup.append(wall)
            calibration.append(runner.calibration_sample())

        if not trace:
            sample_setup()
        warm = run_pass(runner, ops, work / "warmup", None, summary, report_module)
        reference = warm["digests"]
        untraced, traced = [], []
        for index in range(timed_passes(seconds, trace)):
            if perf_counter() >= runner.deadline:
                break
            if not trace and len(setup) < SETUP_SAMPLES:
                sample_setup()
            untraced.append(run_pass(runner, ops, work / f"pass{index}", reference, summary,
                                     report_module))
            if trace:
                traced.append(run_pass(runner, ops, work / f"traced{index}", reference,
                                       summary, report_module, traced=True))
            shutil.rmtree(work / f"pass{index}", ignore_errors=True)
            shutil.rmtree(work / f"traced{index}", ignore_errors=True)
        probe = None
        if not trace:
            while len(setup) < SETUP_SAMPLES and perf_counter() < runner.deadline:
                sample_setup()
            op = workloads.probe_op(inputs)
            if op is not None:
                probe = run_probe(runner, op, work / "probe", summary, report_module)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not untraced:
        raise SystemExit("error: no timed pass finished before the deadline")
    times = op_times(untraced)
    commands = per_command(ops, times)
    spec = benchmark_spec()
    wall = sum(times)
    if trace:
        layers = [tracer.layer_metrics(p["traces"]) for p in traced]
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        values["trace.overhead_ratio"] = statistics.median(
            sum(t["walls"]) / sum(u["walls"]) for t, u in zip(traced, untraced))
        values.update({name: commands.get(name, 0.0) for name in workloads.PER_COMMAND})
        listed = spec["per_layer"]
    else:
        speed = CALIBRATION_REFERENCE_S / statistics.fmean(calibration)
        values = {
            "wall_s": wall * speed,
            "risks_per_s": summary["rows"] / (wall * speed),
            "setup_s": statistics.median(setup) * speed,
            "peak_rss_mb": max(statistics.median(r) for r in
                               zip(*(p["rss"] for p in untraced))) / 1024.0,
            "report_bytes": statistics.median(p["bytes"] for p in untraced),
            "success_rate": 1.0 - runner.failed / runner.attempted,
        }
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "inputs": summary, "machine": machine_facts(),
        "passes": {"timed": len(untraced), "traced": len(traced), "setup_samples": len(setup)},
        "pass_walls": [sum(p["walls"]) for p in untraced],
        "op_walls": [p["walls"] for p in untraced],
        "traced_pass_walls": [sum(p["walls"]) for p in traced],
        "setup_samples": setup,
        "calibration_samples": calibration,
        "raw_wall_s": wall,
        "per_command_s": commands, "digests": reference, "probe": probe,
        "failures": runner.failures,
        "result": {"correct": runner.failed == 0, "attempted": runner.attempted,
                   "failed": runner.failed, "metrics": metrics},
    }


def _print_human(record: dict) -> None:
    result = record["result"]
    print(f"# riskbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={record['passes']}")
    print("# inputs: " + json.dumps(record["inputs"], sort_keys=True))
    print("# machine: " + json.dumps(record["machine"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>18.6g} {metric['unit']}")
    if not record["trace"]:
        probe_s = statistics.fmean(record["calibration_samples"])
        print(f"# unscaled: wall {record['raw_wall_s']:.6g} s, setup "
              f"{statistics.median(record['setup_samples']):.6g} s; calibrate.py mean "
              f"{probe_s:.6g} s, so times above are scaled by "
              f"{CALIBRATION_REFERENCE_S / probe_s:.6g}")
        for name, value in record["per_command_s"].items():
            print(f"{'command ' + name:32s} {value:>18.6g} s (fastest pass, unscaled)")
    ops = result["attempted"]
    failed = result["failed"]
    probe = record["probe"]
    if probe is not None:
        ops += 1
        failed += probe["exit"] != 0 or probe.get("check", "ok") != "ok"
        print(f"# known-defect probe ({probe['label']}): exit {probe['exit']}"
              f"{' (the documented fallback is missing)' if probe['known_defect'] else ''}: "
              f"{probe['stderr'].splitlines()[-1] if probe['stderr'] else probe.get('check')}")
    print(f"{'error_rate (with probe)':32s} {failed / ops:>18.6g} ratio ({failed}/{ops} ops)")
    for name, digest in sorted(record["digests"].items()):
        print(f"# sha256 {name} {digest}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    required = [ROOT / "src" / "riskbench" / "cli.py", ROOT / "scripts" / "make_fixtures.py",
                ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in required if not p.is_file()]
    if missing:
        print(f"error: not a riskbench source checkout, missing {missing}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    _print_human(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
