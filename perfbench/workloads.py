"""The benchmark's workloads: the CLI commands each one times, and their checks.

A check reads only a report's aggregates, never its pair lists, because
pair lists may become opt-in.  Each check raises `CheckError` naming the
broken invariant.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent


# Per-command wall-time metrics; each exists where a workload runs that command.
PER_COMMAND = (
    "similarity_risks_s", "similarity_pooling_s", "similarity_evaluation_s",
    "template_build_s", "rbs_coverage_s", "ingest_s", "lifecycle_ratios_s",
    "similarity_docs_s",
)


class CheckError(Exception):
    """A report broke an invariant on its aggregates."""


@dataclass(frozen=True)
class Op:
    """One CLI command of a pass; `{out}` in argv is the pass directory."""

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[dict, dict], None]
    metric: str | None = None  # per-command metric this op's wall time feeds


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-5, abs_tol=1e-6)


def _bundled_rbs() -> tuple[int, int]:
    raw = json.loads((ROOT / "src/riskbench/data/rbs_table21.json").read_text(encoding="utf-8"))
    return len(raw["categories"]), sum(len(c["items"]) for c in raw["categories"])


# ------------------------------------------------------------------ checks


def check_risks(reports, s):
    r = reports["risks.json"]["result"]
    p = s["projects"]
    _expect(len(r["projects"]) == p, "risks: one matrix row per project")
    matrix = r["directional_mean_matrix"]
    _expect(len(matrix) == p and all(len(row) == p for row in matrix), "risks: square matrix")
    _expect(all(matrix[i][i] == 1.0 for i in range(p)), "risks: unit diagonal")
    overall = r["overall"]
    _expect(overall["count"] == p * (p - 1), "risks: every ordered pair scored")
    _expect(-1.0 <= overall["min"] <= overall["mean"] <= overall["max"] <= 1.0,
            "risks: min <= mean <= max within [-1, 1]")
    _expect(sum(g["count"] for g in r["group_means"].values()) <= overall["count"],
            "risks: group means cover a subset of pairs")


def check_pooling(reports, s):
    r = reports["pooling.json"]["result"]
    rows = r["projects"]
    _expect(len(rows) == s["projects"], "pooling: one row per project")
    _expect(all(sum(row["histogram"].values()) == s["risks_per_snapshot"] for row in rows),
            "pooling: each histogram counts every risk of its project")
    mean = sum(row["fraction_at_least_0.5"] for row in rows) / len(rows)
    _expect(_close(r["mean_fraction_at_least_0.5"], mean),
            "pooling: mean fraction equals the mean of the project fractions")


def check_evaluation(reports, s):
    agg = reports["evaluation.json"]["result"]["aggregates"]
    levels = agg["by_threshold"]
    counts = [levels[key]["match_count"] for key in sorted(levels, key=float)]
    p = s["projects"]
    _expect(counts[0] == agg["count"], "evaluation: base threshold keeps every match")
    _expect(all(a >= b for a, b in zip(counts, counts[1:])),
            "evaluation: match counts fall as the threshold rises")
    _expect(0 < agg["count"] <= p * (p - 1) * s["risks_per_snapshot"],
            "evaluation: at most one match per risk and ordered project pair")


def _check_template(template, projects, top=30):
    entries = template["entries"]
    _expect(0 < len(entries) <= top, "template: 1..top entries")
    _expect([e["rank"] for e in entries] == list(range(1, len(entries) + 1)),
            "template: ranks 1..n")
    _expect(template["group_count"] >= len(entries), "template: entries come from groups")
    _expect(template["source_project_count"] == projects,
            "template: source project count equals the filtered selection")
    prevalence = [e["prevalence"] for e in entries]
    _expect(all(0 < v <= 1 for v in prevalence), "template: prevalence in (0, 1]")
    _expect(prevalence == sorted(prevalence, reverse=True), "template: ranked by prevalence")


def check_template_all(reports, s):
    _check_template(reports["template_all.json"]["result"], s["projects"])


def check_template_dbb(reports, s):
    _check_template(reports["template_dbb.json"]["result"], s["dbb_projects"])


def check_eval(name):
    def check(reports, s):
        r = reports[name]["result"]
        _expect(r["tp"] + r["fn"] == s["risks_per_snapshot"],
                "template eval: every held-out risk is a tp or an fn")
        _expect(0 <= r["fp"] <= 30, "template eval: fp bounded by the template size")
    return check


def check_coverage(reports, s):
    r = reports["coverage.json"]["result"]
    categories, items = _bundled_rbs()
    _expect(r["rbs"] == {"categories": categories, "items": items}, "coverage: bundled RBS")
    _expect(len(r["projects"]) == s["projects"], "coverage: one report per project")
    _expect(all(len(p["rows"]) == s["risks_per_snapshot"] for p in r["projects"]),
            "coverage: one row per risk")
    overall = r["overall"]
    _expect(overall["risks"] == s["rows"], "coverage: rows equal corpus rows")
    _expect(0 <= overall["covered"] <= overall["risks"], "coverage: covered <= rows")


def check_cooccur(reports, s):
    rows = list(csv.reader(io.StringIO(reports["cooccur.csv"])))
    _, items = _bundled_rbs()
    _expect(rows[0] == ["item_a", "item_b", "count"], "cooccur: header")
    _expect(len(rows) - 1 == items * (items - 1) // 2, "cooccur: one row per item pair")
    counts = [int(row[2]) for row in rows[1:]]
    _expect(all(0 <= c <= s["projects"] for c in counts), "cooccur: counts within projects")
    _expect(counts == sorted(counts, reverse=True), "cooccur: descending counts")


def check_ingest(reports, s):
    r = reports["ingest.json"]["result"]
    _expect(r["project_count"] == s["projects"], "ingest: project count")
    _expect(r["total_rows"] == s["rows"], "ingest: total rows equal corpus rows")


def _counts_sum(projects):
    keys = projects[0]["counts"].keys()
    return {k: sum(p["counts"][k] for p in projects) for k in keys}


def _check_lifecycle(r, s):
    projects = r["projects"]
    _expect(len(projects) == s["projects"], "lifecycle: one row per project")
    _expect(r["pooled"]["counts"] == _counts_sum(projects),
            "lifecycle: pooled counts equal the sum of per-project counts")
    _expect(all(p["counts"]["initial_identified"] == s["risks_per_snapshot"] for p in projects),
            "lifecycle: every snapshot-0 risk is an initial risk")


def check_ratios(reports, s):
    _check_lifecycle(reports["ratios.json"]["result"], s)


def check_styles(reports, s):
    r = reports["styles.json"]["result"]
    _check_lifecycle(r, s)
    grouped = sorted(pid for ids in r["groups"].values() for pid in ids)
    _expect(grouped == sorted(p["project_id"] for p in r["projects"]),
            "styles: groups partition the projects")


def check_docs(reports, s):
    agg = reports["docs.json"]["result"]["aggregates"]
    p = s["projects"]
    _expect(agg["count"] == p * (p - 1) // 2, "docs: every unordered pair scored")
    _expect(0.0 <= agg["min"] <= agg["mean"] <= agg["max"] <= 1.0, "docs: scores in [0, 1]")


# --------------------------------------------------------------- workloads


def ops_for(workload: str, inputs: Path, summary: dict) -> list[Op]:
    """The timed commands of one workload, in pass order."""
    manifest = ("--manifest", str(inputs / "manifest.json"))
    if workload == "pairwise-repeat":
        words = ("--embeddings", summary["word_vectors"])
        return [
            Op("similarity risks", ("similarity", "risks", *manifest, *words,
                                    "--out", "{out}/risks.json"),
               ("risks.json",), check_risks, "similarity_risks_s"),
            Op("similarity pooling", ("similarity", "pooling", *manifest, *words,
                                      "--out", "{out}/pooling.json"),
               ("pooling.json",), check_pooling, "similarity_pooling_s"),
            Op("similarity evaluation", ("similarity", "evaluation", *manifest, *words,
                                         "--out", "{out}/evaluation.json"),
               ("evaluation.json",), check_evaluation, "similarity_evaluation_s"),
        ]
    if workload == "catalog-distinct":
        sentences = ("--sentence-embeddings", str(inputs / "sentences.jsonl"))
        ops = [
            Op("template build", ("template", "build", *manifest, *sentences,
                                  "--out", "{out}/template_all.json"),
               ("template_all.json",), check_template_all, "template_build_s"),
            Op("template build --filter delivery=DBB",
               ("template", "build", *manifest, *sentences, "--filter", "delivery=DBB",
                "--out", "{out}/template_dbb.json"),
               ("template_dbb.json",), check_template_dbb, "template_build_s"),
        ]
        for held in sorted((inputs / "heldout").glob("*.csv")):
            name = f"eval_{held.stem}.json"
            ops.append(Op(f"template eval {held.stem}",
                          ("template", "eval", "--template", "{out}/template_all.json",
                           "--register", str(held), *sentences, "--out", "{out}/" + name),
                          (name,), check_eval(name)))
        ops += [
            Op("rbs coverage", ("rbs", "coverage", *manifest, *sentences,
                                "--out", "{out}/coverage.json"),
               ("coverage.json",), check_coverage, "rbs_coverage_s"),
            Op("rbs cooccur", ("rbs", "cooccur", "--coverage", "{out}/coverage.json",
                               "--out", "{out}/cooccur.csv"),
               ("cooccur.csv",), check_cooccur),
        ]
        return ops
    if workload == "lifecycle-history":
        return [
            Op("ingest", ("ingest", *manifest, "--out", "{out}/ingest.json"),
               ("ingest.json",), check_ingest, "ingest_s"),
            Op("lifecycle ratios", ("lifecycle", "ratios", *manifest,
                                    "--out", "{out}/ratios.json"),
               ("ratios.json",), check_ratios, "lifecycle_ratios_s"),
            Op("lifecycle styles", ("lifecycle", "styles", *manifest,
                                    "--out", "{out}/styles.json"),
               ("styles.json",), check_styles),
            Op("similarity docs", ("similarity", "docs", *manifest, "--out", "{out}/docs.json"),
               ("docs.json",), check_docs, "similarity_docs_s"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def probe_op(inputs: Path) -> Op | None:
    """Known-defect probe: a sentence table missing ~2% of register texts plus
    the word-average fallback that the README promises.  On the seed code the
    fallback is not wired into `template build`, so it exits 1 with
    "no precomputed sentence vector for ..."."""
    table = inputs / "sentences_probe.jsonl"
    if not table.exists():
        return None
    return Op("template build (fallback probe)",
              ("template", "build", "--manifest", str(inputs / "manifest.json"),
               "--sentence-embeddings", str(table),
               "--embeddings", str(inputs / "fallback_words.txt"),
               "--out", "{out}/template_all.json"),
              ("template_all.json",), check_template_all)
