"""Risk breakdown structure: loading, semantic coverage, co-occurrence.

The bundled two-level RBS holds 11 categories and 70 generic risk items.
Coverage matches each register risk to its most similar RBS item; a risk
counts as covered when the best cosine score meets the threshold
(default 0.6).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import RegisterSnapshot, band_mean
from .errors import EmptyReportError, RbsError
from .resources import data_path, read_json_checked, read_result
from .similarity import score_histogram
from .vectorize import EmbeddingBackend, normalize_sentence, unit_rows

DEFAULT_COVERAGE_THRESHOLD = 0.6


@dataclass(frozen=True)
class RbsItem:
    text: str
    report_frequency: int


@dataclass(frozen=True)
class RbsCategory:
    name: str
    items: tuple[RbsItem, ...]


@dataclass(frozen=True)
class Rbs:
    categories: tuple[RbsCategory, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.categories]
        if len(set(names)) != len(names):
            raise RbsError("category names must be unique")
        seen: set[str] = set()
        for category in self.categories:
            if not category.items:
                raise RbsError(f"category {category.name!r} has no items")
            for item in category.items:
                if item.report_frequency < 1:
                    raise RbsError(f"item {item.text!r} has frequency < 1")
                if item.text in seen:
                    raise RbsError(f"duplicate item text {item.text!r}")
                seen.add(item.text)

    def flat_items(self) -> list[tuple[str, RbsItem]]:
        """(category_name, item) pairs in file order."""
        return [(c.name, item) for c in self.categories for item in c.items]

    @property
    def item_count(self) -> int:
        return sum(len(c.items) for c in self.categories)


_RBS = {"categories": [{"name": str, "items": [{"text": str, "frequency": int}]}]}


def load_rbs(path: str | Path) -> Rbs:
    """An RBS file: {"categories": [{"name", "items": [{"text", "frequency"}]}]}."""
    raw = read_json_checked(path, "RBS file", _RBS)
    if not raw["categories"]:
        raise RbsError(f"{path}: expected an object with a non-empty 'categories' array")
    try:
        return Rbs(tuple(
            RbsCategory(entry["name"], tuple(RbsItem(item["text"], item["frequency"])
                                             for item in entry["items"]))
            for entry in raw["categories"]
        ))
    except RbsError as exc:
        raise RbsError(f"{path}: {exc}") from exc


def default_rbs() -> Rbs:
    return load_rbs(data_path("rbs_table21.json"))


@dataclass(frozen=True)
class CoverageRow:
    risk_id: str
    best_item: str
    best_category: str
    score: float
    covered: bool
    used_fallback: bool = False


@dataclass(frozen=True)
class CoverageReport:
    project_id: str
    threshold: float
    rows: tuple[CoverageRow, ...]
    coverage_fraction: float
    histogram: dict[str, int]
    # {"category", "fraction"} objects, as the report writes them
    category_fractions: list[dict]
    impact_means: dict
    # agreement between the register's own category labels and the matched
    # level-1 category, over covered rows that carry a label
    category_agreement: float | None = None

    def covered_items(self) -> set[str]:
        return {row.best_item for row in self.rows if row.covered}

    def to_dict(self) -> dict:
        # vars(), not dataclasses.asdict, which deep-copies every leaf value
        return {**vars(self), "rows": [dict(vars(row)) for row in self.rows]}


def coverage(
    rbs: Rbs,
    register: RegisterSnapshot,
    backend: EmbeddingBackend,
    threshold: float = DEFAULT_COVERAGE_THRESHOLD,
    project_id: str = "",
) -> CoverageReport:
    """Best-match every register risk to an RBS item and flag coverage.

    A row is flagged `used_fallback` when the backend's sentence table
    misses the risk's text, so that its scores come from the fallback.
    """
    if not register.risk_ids:
        raise EmptyReportError(f"coverage: project {project_id!r} has an empty register"
                               if project_id else "coverage needs a non-empty register")
    flat = rbs.flat_items()
    # the RBS items first, so that a miss names an item before any register text
    keyed = unit_rows(backend, [*(item.text for _, item in flat),
                                *register.names])
    items, risks = keyed.ids[:len(flat)], keyed.ids[len(flat):]
    best, scores = (column[:, 0] for column in keyed.best(risks, [items]))
    rows = [CoverageRow(risk_id=risk_id, best_item=flat[index][1].text,
                        best_category=flat[index][0], score=score,
                        covered=score >= threshold, used_fallback=missed)
            for risk_id, index, score, missed in zip(register.risk_ids, best.tolist(),
                                                     scores.tolist(), keyed.missed[risks].tolist())]

    # rows are in register order, so each column pairs with the rows by position
    agrees = [normalize_sentence(label) == normalize_sentence(row.best_category)
              for label, row in zip(register.category_labels, rows) if row.covered and label]

    def impact_means(covered: bool) -> dict:
        return {name: band_mean(band for band, row in zip(bands, rows) if row.covered == covered)
                for name, bands in (("cost_band", register.cost_bands),
                                    ("schedule_band", register.schedule_bands))}

    return CoverageReport(
        project_id=project_id,
        threshold=threshold,
        rows=tuple(rows),
        coverage_fraction=sum(row.covered for row in rows) / len(rows),
        histogram=score_histogram(row.score for row in rows),
        category_fractions=_category_fractions(rows),
        impact_means={"covered": impact_means(True), "not_covered": impact_means(False)},
        category_agreement=sum(agrees) / len(agrees) if agrees else None,
    )


def _category_fractions(rows: Iterable[CoverageRow]) -> list[dict]:
    """{"category", "fraction"}: the share of the covered rows per best
    category, descending, then by name; empty when no row is covered."""
    counts = Counter(row.best_category for row in rows if row.covered)
    total = sum(counts.values())
    return [{"category": name, "fraction": count / total}
            for name, count in sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))]


def summarize_coverage(rbs: Rbs, reports: Sequence[CoverageReport], threshold: float) -> dict:
    """The `rbs coverage` payload: every project's report and the coverage of
    all their risks together."""
    rows = [row for report in reports for row in report.rows]
    covered = sum(row.covered for row in rows)
    return {
        "threshold": threshold,
        "rbs": {"categories": len(rbs.categories), "items": rbs.item_count},
        "projects": [report.to_dict() for report in reports],
        "overall": {"risks": len(rows), "covered": covered,
                    "category_distribution": _category_fractions(rows),
                    "coverage_fraction": covered / len(rows) if rows else None},
    }


_COVERAGE = {"projects": [{"rows?": [{"covered": bool, "best_item": str}]}]}


def load_covered_texts(path: str | Path) -> list[list[str]]:
    """Each project's covered item texts, in row order, from a coverage
    report file as `rbs coverage` writes it (or its bare result)."""
    projects = read_result(path, "coverage report", _COVERAGE)["projects"]
    return [[row["best_item"] for row in project.get("rows", []) if row["covered"]]
            for project in projects]


def cooccurrence(covered: Sequence[Iterable[str]], rbs: Rbs) -> list[tuple[str, str, int]]:
    """For each RBS item pair (a before b in file order), the number of
    projects where both are covered: (a, b, count) rows, zero counts
    included, by descending count, then by the two texts.

    `covered` holds each project's covered item texts, for example
    `report.covered_items()` of each coverage report.
    """
    if not covered:
        raise EmptyReportError("co-occurrence needs at least one coverage report")
    texts = [item.text for _, item in rbs.flat_items()]
    order = {text: i for i, text in enumerate(texts)}
    counts: Counter[tuple[str, str]] = Counter()
    for items in covered:
        present: set[str] = set()
        for text in items:
            if text not in order:
                raise RbsError(f"covered item {text!r} is not in the RBS")
            present.add(text)
        counts.update(combinations(sorted(present, key=order.__getitem__), 2))
    rows = [(a, b, counts[a, b]) for a, b in combinations(texts, 2)]
    rows.sort(key=lambda row: (-row[2], row[0], row[1]))
    return rows
