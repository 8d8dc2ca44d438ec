#!/usr/bin/env python3
"""Regenerate the bundled reference embeddings and the ex-post fixture.

The word vectors are synthetic: each word is a weighted sum of topic axes
plus a small deterministic per-word jitter, so same-topic words score high
cosine similarity and cross-topic words score near zero. The ex-post
fixture reproduces the 11-project identification/realization count table
with synthetic risk texts drawn from the same vocabulary.

Run from the repository root:  python scripts/make_fixtures.py
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "riskbench" / "data"

DIMENSION = 32
JITTER_DIMS = range(13, 32)
DEFAULT_JITTER = 0.35

TOPICS = {
    "general": 0,
    "utilities": 1,
    "row": 2,
    "geo": 3,
    "design": 4,
    "environmental": 5,
    "construction": 6,
    "management": 7,
    "procurement": 8,
    "railroad": 9,
    "stakeholder": 10,
    "traffic": 11,
    "organizational": 12,
}

# word -> (jitter_magnitude, [(topic, weight), ...])
W = {}


def word(name, *topics, jitter=DEFAULT_JITTER):
    W[name] = (jitter, list(topics))


# --- general / filler -------------------------------------------------
for token in (
    "project", "projects", "risk", "risks", "issues", "issue", "potential",
    "additional", "required", "timely", "lack", "new", "existing", "items",
    "item", "uncertainty", "impacts", "impact", "due", "process", "secondary",
    "determination", "unanticipated", "unexpected", "unsuitable", "unstable",
    "encountering", "encounter", "encountered", "global", "related", "late",
    "request", "longer", "expected", "actions", "take", "opportunity", "low",
    "high", "get", "happen", "time", "restrictions", "inadequate", "handling",
    "packages", "disputes", "incidents", "forecast", "below", "discovered",
    "unknown", "unforeseen", "unidentified", "use", "made", "man", "supported",
    "recommendations", "different", "during", "major", "change", "changes",
):
    word(token, ("general", 0.45), jitter=0.75)

# --- utilities ---------------------------------------------------------
for token in ("utility", "utilities", "municipalities"):
    word(token, ("utilities", 1.0))
word("relocation", ("utilities", 0.85), ("row", 0.30))
word("relocations", ("utilities", 0.85), ("row", 0.30))
word("relocated", ("utilities", 0.8), ("row", 0.3))
word("conflicts", ("utilities", 0.7), ("general", 0.3))
word("conflict", ("utilities", 0.7), ("general", 0.3))
word("overcrossings", ("utilities", 0.4), ("construction", 0.4))
word("field", ("utilities", 0.3), ("construction", 0.4))
word("owners", ("stakeholder", 0.6), ("utilities", 0.3))

# --- right of way ------------------------------------------------------
for token in ("right", "way", "acquisition", "row", "parcel", "parcels",
              "easement", "easements", "corridor", "condemnation"):
    word(token, ("row", 1.0))
word("land", ("row", 0.8), ("traffic", 0.2))
word("entry", ("row", 0.5), ("railroad", 0.3))
word("width", ("row", 0.4), ("construction", 0.3))
word("shoulders", ("row", 0.3), ("construction", 0.5))

# --- structure and geotechnical ----------------------------------------
for token in ("geotechnical", "structure", "structural", "foundation",
              "foundations", "subsurface", "excavation", "pile", "settlement",
              "ground", "soil", "vibration"):
    word(token, ("geo", 1.0))
word("soils", ("geo", 0.6), ("environmental", 0.4))
word("conditions", ("geo", 0.7), ("procurement", 0.3))
word("condition", ("geo", 0.45), ("procurement", 0.6))
word("site", ("construction", 0.6), ("geo", 0.4))
word("driving", ("geo", 0.5), ("general", 0.3))
word("approaches", ("geo", 0.4), ("general", 0.4))
word("bridge", ("construction", 0.5), ("geo", 0.3))
word("superstructure", ("geo", 0.6), ("construction", 0.3))

# --- design -------------------------------------------------------------
for token in ("design", "designs", "drawings", "approval", "approvals",
              "errors", "exceptions", "incomplete", "aesthetic"):
    word(token, ("design", 1.0))
word("requirement", ("design", 0.60), jitter=0.75)
word("requirements", ("design", 0.65), jitter=0.70)
word("development", ("design", 0.4), ("general", 0.5))
word("review", ("environmental", 0.45), ("design", 0.35))
word("views", ("design", 0.4), ("general", 0.5))

# --- environmental ------------------------------------------------------
for token in ("environmental", "permit", "permits", "permitting", "wetlands",
              "wetland", "endangered", "species", "hazardous", "contaminated",
              "contamination", "asbestos", "lead", "paint", "nepa",
              "archaeological", "cultural", "sites", "mitigation",
              "regulation", "water", "pond"):
    word(token, ("environmental", 1.0))
word("materials", ("construction", 0.55), ("environmental", 0.45))
word("material", ("construction", 0.8), ("environmental", 0.2))
word("noise", ("environmental", 0.7), ("geo", 0.2))
word("quality", ("environmental", 0.4), ("construction", 0.5))
word("analysis", ("general", 0.6), ("environmental", 0.3))
word("act", ("environmental", 0.5), ("general", 0.3))
word("national", ("environmental", 0.4), ("general", 0.4))
word("documentation", ("environmental", 0.3), ("general", 0.5))

# --- construction -------------------------------------------------------
for token in ("construction", "contractor", "subcontractor", "safety",
              "weather", "access", "windows", "work", "technology",
              "unproven", "assurance", "control", "workmanship", "buried",
              "objects", "concrete", "roadway", "lanes", "incorporates"):
    word(token, ("construction", 1.0))
word("schedule", ("construction", 0.6), ("management", 0.3))
word("availability", ("construction", 0.5), ("management", 0.4))
word("performance", ("construction", 0.6), ("general", 0.3))
word("delay", ("general", 0.7), ("construction", 0.3))
word("delays", ("general", 0.7), ("construction", 0.3))
word("delayed", ("general", 0.7), ("construction", 0.3))
word("adjacent", ("construction", 0.4), ("stakeholder", 0.4))
word("coordination", ("construction", 0.5), ("utilities", 0.4), ("stakeholder", 0.3))
word("property", ("row", 0.5), ("stakeholder", 0.4))

# --- management and funding ----------------------------------------------
for token in ("funding", "cash", "flow", "decision", "making", "political",
              "economic", "labor", "disruptions", "force", "majeure",
              "purpose", "scope", "financial"):
    word(token, ("management", 1.0))
word("policy", ("management", 0.6), ("environmental", 0.35))
word("cost", ("general", 0.6), ("management", 0.4))
word("costs", ("general", 0.6), ("management", 0.4))
word("plan", ("management", 0.6), ("general", 0.4))
word("planning", ("management", 0.6), ("general", 0.4))
word("overrun", ("management", 0.5), ("general", 0.4))

# --- procurement and contracting ------------------------------------------
for token in ("procurement", "contract", "contracting", "contractual",
              "market", "bids", "bid", "claim", "claims", "order", "orders",
              "legal", "award", "proposal", "proposer", "termination",
              "packaging"):
    word(token, ("procurement", 1.0))
word("delivery", ("procurement", 0.6), ("construction", 0.2))
word("method", ("procurement", 0.6), ("general", 0.3))
word("language", ("procurement", 0.5), ("general", 0.3))

# --- railroad --------------------------------------------------------------
for token in ("railroad", "railroads", "railway", "rail", "crossing",
              "crossings", "track", "flagging", "train"):
    word(token, ("railroad", 1.0))

# --- stakeholders -----------------------------------------------------------
for token in ("stakeholders", "stakeholder", "public", "involvement",
              "communities", "community", "objection", "objections",
              "partnerships", "communication", "emerge", "demand", "third",
              "parties", "party", "local"):
    word(token, ("stakeholder", 1.0))
word("agencies", ("stakeholder", 0.7), ("environmental", 0.3))
word("agency", ("stakeholder", 0.7), ("environmental", 0.3))
word("federal", ("stakeholder", 0.4), ("management", 0.3))
word("negative", ("stakeholder", 0.4), ("general", 0.5))

# --- traffic -----------------------------------------------------------------
for token in ("traffic", "toll", "tolling", "tolls", "revenue", "pedestrian",
              "bicyclist", "mobility", "users", "signage", "lane"):
    word(token, ("traffic", 1.0))
word("growth", ("traffic", 0.6), ("general", 0.3))

# --- organizational -----------------------------------------------------------
for token in ("organizational", "dependencies", "prioritization"):
    word(token, ("organizational", 1.0))
word("resources", ("organizational", 0.5), ("construction", 0.4))
word("leadership", ("management", 0.7), ("organizational", 0.3))

# --- isolated -----------------------------------------------------------------
word("security", jitter=1.0)  # no topic axis: isolated term
word("segment", ("general", 0.6), ("construction", 0.3))


def build_vector(name: str) -> list[float]:
    jitter_magnitude, topics = W[name]
    vector = [0.0] * DIMENSION
    for topic, weight in topics:
        vector[TOPICS[topic]] += weight
    rng = random.Random(f"jitter:{name}")
    noise = [rng.gauss(0.0, 1.0) for _ in JITTER_DIMS]
    norm = math.sqrt(sum(x * x for x in noise))
    for offset, dim in enumerate(JITTER_DIMS):
        vector[dim] = jitter_magnitude * noise[offset] / norm
    return vector


def write_word_vectors() -> dict[str, list[float]]:
    out = DATA / "embeddings" / "reference_word_vectors.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    table = {name: build_vector(name) for name in sorted(W)}
    lines = [f"{len(table)} {DIMENSION}"]
    for name, vector in table.items():
        lines.append(name + " " + " ".join(f"{x:.6f}" for x in vector))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(table)} tokens, dim {DIMENSION})")
    return table


STOPWORDS_PATH = DATA / "stopwords_en.txt"


def load_stops() -> set[str]:
    return {
        line.strip().lower()
        for line in STOPWORDS_PATH.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    }


def average_vector(text: str, table: dict[str, list[float]], stops: set[str]) -> list[float]:
    import re

    tokens = [t.lower() for t in re.findall(r"[^\W_]+", text, re.UNICODE)]
    hits = [table[t] for t in tokens if t not in stops and t in table]
    if not hits:
        return [0.0] * DIMENSION
    return [sum(col) / len(hits) for col in zip(*hits)]


def write_sentence_vectors(table: dict[str, list[float]]) -> None:
    stops = load_stops()
    rbs = json.loads((DATA / "rbs_table21.json").read_text(encoding="utf-8"))
    texts = [item["text"] for cat in rbs["categories"] for item in cat["items"]]
    texts += [
        "utility relocation delays",
        "right of way acquisition delays",
        "design changes on structures",
        "environmental permitting delays",
    ]
    out = DATA / "embeddings" / "reference_sentence_vectors.jsonl"
    lines = []
    for text in texts:
        vector = average_vector(text, table, stops)
        lines.append(json.dumps(
            {"text": text, "vector": [round(x, 6) for x in vector]}, ensure_ascii=False
        ))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(texts)} sentences)")


# (id, type, jurisdiction, delivery, value M$, registers,
#  initial identified, initial realized, construction identified, construction realized)
EXPOST_PROJECTS = [
    (1, "Highway", "CA", "DB", 1421, 5, 32, 31, 6, 6),
    (2, "Highway", "IA", "DBB", 1131, 4, 24, 21, 22, 22),
    (3, "Highway", "TX", "DBB", 4922, 4, 85, 72, 16, 16),
    (4, "Highway", "CA", "DBB", 1792, 4, 43, 39, 103, 68),
    (5, "Highway", "CA", "DBB", 986, 4, 19, 15, 28, 17),
    (6, "Highway", "FL", "DBB", 684, 5, 131, 24, 193, 188),
    (7, "Bridge and Tunnel", "CA", "DB", 1492, 4, 65, 36, 24, 9),
    (8, "Highway", "MD", "DBB", 814, 2, 15, 9, 30, 11),
    (9, "Bridge and Tunnel", "KY", "DBB", 583, 2, 15, 3, 1, 0),
    (10, "Highway", "TX", "DB", 693, 2, 15, 3, 2, 0),
    (11, "Highway", "MI", "P3", 1137, 2, 14, 4, 41, 3),
]

NAME_BANK = [
    "utility relocation delays",
    "unknown utilities encountered during excavation",
    "right of way acquisition delays",
    "additional right of way required",
    "design changes on structures",
    "incomplete design packages at award",
    "hazardous materials handling",
    "unidentified contaminated soils",
    "environmental permitting delays",
    "wetlands and endangered species mitigation",
    "archaeological and cultural sites discovered",
    "different site and subsurface conditions",
    "soil and geotechnical conditions",
    "structural foundation design changes",
    "contractor access restrictions",
    "schedule uncertainty during construction",
    "material and resources availability",
    "weather related delays",
    "construction safety incidents",
    "coordination with adjacent projects",
    "railroad coordination and flagging delays",
    "market condition impacts on bids",
    "contract language and legal issues",
    "change order and claim disputes",
    "delays in procurement",
    "cash flow restrictions",
    "economic change and availability of funding",
    "political or policy changes",
    "delayed decision making",
    "labor disruptions",
    "public involvement and objections",
    "stakeholders request late changes",
    "new stakeholders emerge and demand work",
    "utility coordination with municipalities",
    "traffic growth below forecast",
    "toll related issues",
    "noise mitigation requirements",
    "water quality permits",
    "work windows restrictions",
    "pile driving noise and vibration",
]

CATEGORY_CYCLE = ["utilities", "right of way", "design", "environmental",
                  "construction", "management and funding"]


def size_band(value: float) -> str:
    if value < 500:
        return "under_500M"
    if value <= 1000:
        return "500M_to_1B"
    return "over_1B"


def build_expost() -> None:
    root = DATA / "fixtures" / "expost"
    registers = root / "registers"
    registers.mkdir(parents=True, exist_ok=True)

    manifest = {"projects": []}
    lifecycle_rows = []

    for (pid, ptype, state, delivery, value, n_regs,
         init_n, init_real, cons_n, cons_real) in EXPOST_PROJECTS:
        final = n_regs - 1
        # risk -> list of (ordinal, status)
        observations: dict[str, list[tuple[int, str]]] = {}
        names: dict[str, str] = {}
        bands: dict[str, tuple[int, int, int]] = {}

        for i in range(init_n):
            rid = f"P{pid}-I{i + 1:03d}"
            names[rid] = NAME_BANK[(i + pid) % len(NAME_BANK)]
            bands[rid] = (1 + (i * 3) % 5, 1 + (i * 7 + pid) % 5, 1 + (i * 2 + pid) % 5)
            obs = [(0, "Reg")]
            if i < init_real:
                obs.append((1 + (i % max(final, 1)), "Hap"))
            observations[rid] = obs

        for c in range(cons_n):
            rid = f"P{pid}-C{c + 1:03d}"
            names[rid] = NAME_BANK[(c + 2 * pid + 7) % len(NAME_BANK)]
            bands[rid] = (1 + (c * 2) % 5, 1 + (c * 5 + pid) % 5, 1 + (c * 3 + pid) % 5)
            intro = 1 + (c % final) if final >= 1 else 0
            realized = c < cons_real
            if realized and intro < final and c % 2 == 0:
                observations[rid] = [(intro, "Reg"), (intro + 1, "Hap")]
            elif realized:
                observations[rid] = [(intro, "Hap")]
            else:
                observations[rid] = [(intro, "Reg")]

        # register CSVs: one file per snapshot, rows for observed risks
        register_entries = []
        for ordinal in range(n_regs):
            rows = []
            for rid in observations:
                for obs_ordinal, status in observations[rid]:
                    if obs_ordinal == ordinal:
                        p, cb, sb = bands[rid]
                        description = (
                            "potential schedule and cost impacts"
                            if int(rid[-2:]) % 3 == 0
                            else ""
                        )
                        category = (
                            CATEGORY_CYCLE[int(rid[-2:]) % len(CATEGORY_CYCLE)]
                            if int(rid[-1:]) % 4 == 0
                            else ""
                        )
                        rows.append([rid, names[rid], description, category,
                                     p, cb, sb, status, ordinal])
            path = registers / f"p{pid:02d}_s{ordinal}.csv"
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(["risk_id", "name", "description", "category",
                                 "probability", "cost_impact", "schedule_impact",
                                 "status", "snapshot"])
                writer.writerows(rows)
            register_entries.append({
                "ordinal": ordinal,
                "label": f"year {ordinal}",
                "path": f"registers/p{pid:02d}_s{ordinal}.csv",
            })

        manifest["projects"].append({
            "id": str(pid),
            "jurisdiction": state,
            "delivery_method": delivery,
            "project_type": ptype,
            "size_band": size_band(value),
            "contract_value_musd": value,
            "award_year": None,
            "registers": register_entries,
        })

        # full tabulation for the pre-tabulated lifecycle CSV
        for rid, obs in observations.items():
            intro = obs[0][0]
            hap_at = min((o for o, s in obs if s == "Hap"), default=None)
            for ordinal in range(intro, final + 1):
                state_code = "Hap" if hap_at is not None and ordinal >= hap_at else "Reg"
                lifecycle_rows.append([str(pid), rid, ordinal, state_code])

    (root / "manifest.json").write_text(
        json.dumps(manifest, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    with (root / "lifecycle_table19.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["project_id", "risk_id", "snapshot", "state"])
        writer.writerows(lifecycle_rows)
    print(f"wrote {root}/manifest.json and {len(lifecycle_rows)} lifecycle rows")
    write_groups(root)


def write_groups(root: Path) -> None:
    """A `lifecycle compare` groups file: the design-build projects against
    the design-bid-build ones, by the share of their initial and of their
    construction-phase risks that were realized."""
    groups: dict[str, list[str]] = {"DB": [], "DBB": []}
    metrics = {}
    for (pid, _, _, delivery, _, _, init_n, init_real, cons_n, cons_real) in EXPOST_PROJECTS:
        if delivery in groups:
            groups[delivery].append(str(pid))
            metrics[str(pid)] = {"initial_realized": round(init_real / init_n, 4),
                                 "construction_realized": round(cons_real / cons_n, 4)}
    (root / "groups.json").write_text(
        json.dumps({"groups": groups, "metrics": metrics}, indent=2) + "\n", encoding="utf-8"
    )


def main() -> int:
    table = write_word_vectors()
    write_sentence_vectors(table)
    build_expost()
    return 0


if __name__ == "__main__":
    sys.exit(main())
