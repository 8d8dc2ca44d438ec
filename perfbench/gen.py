"""Seeded corpus generator for the riskbench benchmark.

Words come from the fixture script (`scripts/make_fixtures.py`: its word
table `W` and `NAME_BANK`), embedded in `DIMENSION` dimensions: each word
keeps its topic axes and gets a deterministic jitter over the remaining
axes, and filler tokens that no register uses pad the vocabulary.  The word
table depends only on (dimension, vocabulary size), so it is generated once
per checkout and shared by every seed; everything else (texts, bands, raw
values, lifecycle paths, held-out registers, the probe's missing texts)
comes from the workload seed.  The same seed gives byte-identical files.

Run directly to materialise one workload's inputs:
    python3 perfbench/gen.py --workload pairwise-repeat --seed 1
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench" / "inputs"
KEEP_SEED_DIRS = 40

DIMENSION = 300
VOCABULARY = 20000
_WORD_SEED = 20231123

DELIVERY_SHARES = (("DBB", 0.5), ("DB", 0.3), ("P3", 0.2))
PROJECT_TYPES = ("Highway", "Bridge and Tunnel")
JURISDICTIONS = ("CA", "TX", "FL", "WA", "NY", "IA", "MD", "KY", "MI", "VA")
CATEGORY_LABELS = ("utilities", "right of way", "design", "environmental",
                   "construction", "management and funding")
HEADER = ["risk_id", "name", "description", "category", "probability",
          "cost_impact", "schedule_impact", "status", "snapshot"]
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class Shape:
    """Generator knobs for one workload."""

    projects: int
    risks: int
    snapshots: int
    distinct_ratio: float
    raw_values: bool
    backend: str | None  # "words", "sentences" or None
    heldout: int = 0
    probe_missing: float = 0.0


SHAPES = {
    "pairwise-repeat": Shape(projects=16, risks=100, snapshots=1, distinct_ratio=0.10,
                             raw_values=False, backend="words"),
    "catalog-distinct": Shape(projects=30, risks=80, snapshots=1, distinct_ratio=0.60,
                              raw_values=False, backend="sentences", heldout=3,
                              probe_missing=0.02),
    "lifecycle-history": Shape(projects=50, risks=60, snapshots=5, distinct_ratio=0.30,
                               raw_values=True, backend=None),
}


def fixture_words():
    """The fixture script as a module: word table `W`, `NAME_BANK`, stop words."""
    path = ROOT / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("_riskbench_make_fixtures", path)
    if spec is None or not path.is_file():
        raise FileNotFoundError(f"fixture script not found: {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


# ------------------------------------------------------------ word vectors


def word_table(fixtures) -> dict[str, np.ndarray]:
    """Fixture vocabulary in `DIMENSION` dims, rounded as written to disk."""
    topics = fixtures.TOPICS
    rng = np.random.default_rng(_WORD_SEED)
    table = {}
    for name in sorted(fixtures.W):
        jitter, weights = fixtures.W[name]
        vector = np.zeros(DIMENSION)
        for topic, weight in weights:
            vector[topics[topic]] += weight
        noise = rng.standard_normal(DIMENSION - len(topics))
        vector[len(topics):] = jitter * noise / np.linalg.norm(noise)
        table[name] = np.round(vector, 6)
    return table


def _vector_lines(table: dict[str, np.ndarray]) -> list[str]:
    return [name + " " + " ".join(["%.6f" % x for x in vec.tolist()])
            for name, vec in table.items()]


def word_vector_file(fixtures) -> Path:
    """Shared word-vector file: fixture words plus unused filler tokens."""
    path = CACHE / f"words-{DIMENSION}d-{VOCABULARY}.txt"
    if path.exists():
        return path
    CACHE.mkdir(parents=True, exist_ok=True)
    lines = _vector_lines(word_table(fixtures))
    rng = np.random.default_rng(_WORD_SEED + 1)
    filler = VOCABULARY - len(lines)
    block = np.round(rng.standard_normal((filler, DIMENSION)) / np.sqrt(DIMENSION), 6)
    for index, row in enumerate(block.tolist()):
        lines.append(f"zzfill{index:06d} " + " ".join(["%.6f" % x for x in row]))
    header = f"{len(lines)} {DIMENSION}"
    _write_atomic(path, ("\n".join([header] + lines) + "\n").encode("utf-8"))
    return path


# ------------------------------------------------------------------ texts


def _distinct_texts(rng: random.Random, count: int, bank, vocab, exclude=frozenset()):
    """`count` distinct wordings: a bank phrase plus one to three vocabulary words."""
    seen = set(exclude)
    out = []
    while len(out) < count:
        base = bank[rng.randrange(len(bank))]
        extras = rng.sample(vocab, rng.randint(1, 3))
        text = base + " " + " ".join(extras)
        if text not in seen:
            seen.add(text)
            out.append(text)
    return out


def _row_texts(rng: random.Random, rows: int, distinct: list[str]) -> list[str]:
    """Every distinct text used about equally often, in seeded order."""
    texts = [distinct[i % len(distinct)] for i in range(rows)]
    rng.shuffle(texts)
    return texts


def _project_meta(rng: random.Random, count: int) -> list[dict]:
    deliveries = []
    for name, share in DELIVERY_SHARES:
        deliveries += [name] * round(count * share)
    deliveries = (deliveries + ["DBB"] * count)[:count]
    rng.shuffle(deliveries)
    meta = []
    for index, delivery in enumerate(deliveries):
        value = rng.choice((rng.uniform(120, 480), rng.uniform(520, 980), rng.uniform(1100, 4800)))
        value = round(value, 1)
        size = "under_500M" if value < 500 else "500M_to_1B" if value <= 1000 else "over_1B"
        meta.append({
            "id": f"p{index + 1:03d}",
            "jurisdiction": rng.choice(JURISDICTIONS),
            "delivery_method": delivery,
            "project_type": rng.choice(PROJECT_TYPES),
            "size_band": size,
            "contract_value_musd": value,
            "award_year": 2005 + rng.randrange(15),
        })
    return meta


def _band_row(rng, risk_id, name, ordinal):
    category = rng.choice(CATEGORY_LABELS) if rng.random() < 0.3 else ""
    return [risk_id, name, "", category, rng.randint(1, 5), rng.randint(1, 5),
            rng.randint(1, 5), "Reg", ordinal]


def _raw_row(rng, risk_id, name, value, state, ordinal):
    category = rng.choice(CATEGORY_LABELS) if rng.random() < 0.5 else ""
    probability = rng.uniform(0.9, 0.98) if state == "Hap" else rng.uniform(0.02, 0.85)
    cost = value * 10 ** rng.uniform(-3.5, -1.2)
    schedule = rng.uniform(0.5, 18.0)
    return [risk_id, name, "", category, f"{probability:.3f}", f"{cost:.4f}",
            f"{schedule:.2f}", state, ordinal]


def _csv_bytes(rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _lifecycle_snapshots(rng, pid, value, risks, snapshots, texts):
    """Legal Reg -> Hap -> Clo paths; closed risks are listed once, then replaced."""
    next_id = 0

    def new_risk(initial):  # [risk_id, name, state]
        nonlocal next_id
        next_id += 1
        state = "Hap" if rng.random() < (0.1 if initial else 0.3) else "Reg"
        return [f"{pid}-R{next_id:04d}", texts[(next_id - 1) % len(texts)], state]

    live = [new_risk(True) for _ in range(risks)]
    out = []
    for ordinal in range(snapshots):
        if ordinal > 0:
            live = [risk for risk in live if risk[2] != "Clo"]
            for risk in live:
                roll = rng.random()
                if risk[2] == "Reg":
                    risk[2] = "Hap" if roll < 0.2 else "Clo" if roll < 0.26 else "Reg"
                elif roll < 0.08:
                    risk[2] = "Clo"
            live += [new_risk(False) for _ in range(risks - len(live))]
        out.append([_raw_row(rng, rid, name, value, state, ordinal)
                     for rid, name, state in live])
    return out


def _sentence_vector(text, words, stops):
    hits = [words[t] for t in (m.group(0).lower() for m in _TOKEN_RE.finditer(text))
            if t not in stops and t in words]
    if not hits:
        return np.zeros(DIMENSION)
    return np.mean(hits, axis=0)


def _sentence_lines(texts, words, stops):
    return [
        '{"text": %s, "vector": [%s]}' % (
            json.dumps(text, ensure_ascii=False),
            ", ".join(["%.6f" % x for x in
                       _sentence_vector(text, words, stops).tolist()]),
        )
        for text in texts
    ]


def _normalize(text: str) -> str:
    return re.sub(r"\s+", " ", text.strip()).lower()


def _catalog_texts() -> list[str]:
    data = ROOT / "src" / "riskbench" / "data"
    rbs = json.loads((data / "rbs_table21.json").read_text(encoding="utf-8"))
    cats = json.loads((data / "wsdot_categories.json").read_text(encoding="utf-8"))
    return ([item["text"] for cat in rbs["categories"] for item in cat["items"]]
            + [f"{c['name']} {c.get('description', '')}".strip() for c in cats["categories"]])


# --------------------------------------------------------------- workload


def build(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs under `out`; returns the input summary."""
    shape = SHAPES[workload]
    fixtures = fixture_words()
    rng = random.Random(f"{workload}:{seed}")
    stops = fixtures.load_stops()
    vocab = sorted(w for w in fixtures.W if w not in stops)
    rows_total = shape.projects * shape.risks
    distinct = _distinct_texts(rng, max(1, round(rows_total * shape.distinct_ratio)),
                               fixtures.NAME_BANK, vocab)
    meta = _project_meta(rng, shape.projects)
    (out / "registers").mkdir(parents=True)
    texts = _row_texts(rng, rows_total, distinct)
    register_texts = set()
    for index, project in enumerate(meta):
        names = texts[index * shape.risks:(index + 1) * shape.risks]
        register_texts.update(names)
        if shape.raw_values:
            snapshots = _lifecycle_snapshots(rng, project["id"], project["contract_value_musd"],
                                             shape.risks, shape.snapshots, names)
        else:
            snapshots = [[_band_row(rng, f"{project['id']}-R{i + 1:04d}", name, 0)
                          for i, name in enumerate(names)]]
        project["registers"] = []
        for ordinal, rows in enumerate(snapshots):
            rel = f"registers/{project['id']}_s{ordinal}.csv"
            (out / rel).write_bytes(_csv_bytes(rows))
            project["registers"].append({"ordinal": ordinal, "label": f"year {ordinal}",
                                         "path": rel})
    (out / "manifest.json").write_text(
        json.dumps({"projects": meta}, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")

    summary = {
        "workload": workload, "seed": seed, "projects": shape.projects,
        "risks_per_snapshot": shape.risks, "snapshots": shape.snapshots,
        "rows": rows_total * shape.snapshots, "distinct_texts": len(distinct),
        "dbb_projects": sum(1 for p in meta if p["delivery_method"] == "DBB"),
        "raw_values": shape.raw_values, "dimension": DIMENSION,
    }
    if shape.backend == "words":
        summary["vocabulary"] = VOCABULARY
    if shape.backend == "sentences":
        # held-out registers: half corpus wordings, half wordings the corpus never uses
        fresh = iter(_distinct_texts(rng, (shape.risks + 1) // 2 * shape.heldout,
                                     fixtures.NAME_BANK, vocab, exclude=set(distinct)))
        heldout_texts = set()
        (out / "heldout").mkdir()
        for h in range(shape.heldout):
            names = [rng.choice(distinct) if i % 2 else next(fresh) for i in range(shape.risks)]
            heldout_texts.update(names)
            rows = [_band_row(rng, f"h{h + 1}-R{i + 1:04d}", name, 0)
                    for i, name in enumerate(names)]
            (out / "heldout" / f"h{h + 1}.csv").write_bytes(_csv_bytes(rows))
        words = word_table(fixtures)
        keys = sorted({_normalize(t) for t in register_texts | heldout_texts}
                      | {_normalize(t) for t in _catalog_texts()})
        lines = _sentence_lines(keys, words, stops)
        (out / "sentences.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        missing = set(rng.sample(sorted(_normalize(t) for t in register_texts),
                                 max(1, round(len(register_texts) * shape.probe_missing))))
        kept = [line for key, line in zip(keys, lines) if key not in missing]
        (out / "sentences_probe.jsonl").write_text("\n".join(kept) + "\n", encoding="utf-8")
        (out / "fallback_words.txt").write_text(
            "\n".join([f"{len(words)} {DIMENSION}"] + _vector_lines(words)) + "\n",
            encoding="utf-8")
        summary.update(heldout_registers=shape.heldout, sentence_texts=len(keys),
                       probe_missing_texts=len(missing))
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    return summary


def _prune(keep: Path) -> None:
    dirs = sorted((d for d in CACHE.iterdir() if d.is_dir() and d != keep),
                  key=lambda d: d.stat().st_mtime, reverse=True)
    for stale in dirs[KEEP_SEED_DIRS - 1:]:
        shutil.rmtree(stale, ignore_errors=True)


def materialize(workload: str, seed: int) -> tuple[Path, dict]:
    """Cached inputs for (workload, seed): the directory and its summary."""
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}")
    # the key changes with the shape, the generator or the fixture words it draws from
    version = hashlib.sha256(repr(SHAPES[workload]).encode() + Path(__file__).read_bytes()
                             + (ROOT / "scripts" / "make_fixtures.py").read_bytes()).hexdigest()
    target = CACHE / f"{workload}-s{seed}-{version[:10]}"
    if not (target / "summary.json").exists():
        CACHE.mkdir(parents=True, exist_ok=True)
        tmp = CACHE / f".tmp-{workload}-s{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        build(workload, seed, tmp)
        shutil.rmtree(target, ignore_errors=True)
        os.replace(tmp, target)
    os.utime(target)
    _prune(target)
    summary = json.loads((target / "summary.json").read_text(encoding="utf-8"))
    if SHAPES[workload].backend == "words":
        summary["word_vectors"] = str(word_vector_file(fixture_words()))
    return target, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", help="write here instead of the cache")
    args = parser.parse_args(argv)
    if args.out:
        summary = build(args.workload, args.seed, Path(args.out))
    else:
        _, summary = materialize(args.workload, args.seed)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
