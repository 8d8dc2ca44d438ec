"""Risk-template pipeline: filter, group, summarize, classify, rank, score.

Grouping is greedy and seed-anchored: walking risks in corpus order, the
first unassigned risk opens a group and every later unassigned risk whose
cosine similarity to that seed meets the threshold joins it. Assigned risks
are skipped by later seeds, so the result is a partition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

from .corpus import Assessment, Corpus, ProjectRecord, RegisterSnapshot, band_mean
from .errors import RbsError, TemplateError
from .resources import data_path, read_json_checked, read_result
from .vectorize import EmbeddingBackend, normalize_sentence, unit_rows

DEFAULT_MATCH_THRESHOLD = 0.7
DEFAULT_LABEL_THRESHOLD = 0.6
SMALL_SUBSET_WARNING = 5

# each sort key and the RiskGroup field it ranks by
SORT_KEYS = {"prevalence": "prevalence", "cost": "avg_cost_band", "schedule": "avg_schedule_band"}


@dataclass(frozen=True)
class FilterCriteria:
    """Conjunctive project filter; unset fields select everything."""

    project_type: str | None = None
    size_band: str | None = None
    delivery_method: str | None = None
    jurisdiction: str | None = None

    def matches(self, project: ProjectRecord) -> bool:
        # a SizeBand is a str enum, so it compares equal to its value
        return all(wanted is None or getattr(project, name) == wanted
                   for name, wanted in vars(self).items())

    def describe(self) -> dict[str, str]:
        return {name: "all" if value is None else value for name, value in vars(self).items()}


# each filter key: a FilterCriteria field's name or its short alias
_FILTER_KEYS = {**{f.name: f.name for f in fields(FilterCriteria)}, "type": "project_type",
                "size": "size_band", "delivery": "delivery_method", "location": "jurisdiction"}


def parse_filter(expression: str) -> FilterCriteria:
    """Parse "type=highway,size=over_1B" style filter strings."""
    values: dict[str, str] = {}
    if expression.strip():
        for chunk in expression.split(","):
            if "=" not in chunk:
                raise TemplateError(f"bad filter clause {chunk!r}, expected key=value")
            key, _, value = chunk.partition("=")
            name = _FILTER_KEYS.get(key.strip().lower())
            if name is None:
                raise TemplateError(f"unknown filter key {key.strip()!r}")
            if value.strip().lower() != "all":
                values[name] = value.strip()
    return FilterCriteria(**values)


def filter_projects(corpus: Corpus, criteria: FilterCriteria) -> list[ProjectRecord]:
    """Conjunction of the set criteria, order preserved; warns when small."""
    selected = [p for p in corpus.projects if criteria.matches(p)]
    if len(selected) < SMALL_SUBSET_WARNING:
        warnings.warn(
            f"filter selects only {len(selected)} project(s); "
            "small retrieval sets can bias the template"
        )
    return selected


@dataclass(frozen=True)
class GroupMember:
    project_id: str
    risk_id: str
    text: str
    assessment: Assessment


@dataclass(frozen=True)
class RiskGroup:
    member_refs: tuple[tuple[str, str], ...]
    representative_text: str
    source_projects: int
    prevalence: float
    avg_probability_band: float | None
    avg_cost_band: float | None
    avg_schedule_band: float | None


def summarize_group(
    members: Sequence[GroupMember],
    selected_project_count: int,
) -> RiskGroup:
    """Fill representative text, prevalence, and band averages for a group."""
    if not members:
        raise TemplateError("cannot summarize an empty group")
    frequency: dict[str, int] = {}
    for member in members:
        frequency[member.text] = frequency.get(member.text, 0) + 1
    representative = min(frequency, key=lambda text: (-frequency[text], text))
    contributing = len({m.project_id for m in members})
    assessments = [m.assessment for m in members]
    return RiskGroup(
        member_refs=tuple((m.project_id, m.risk_id) for m in members),
        representative_text=representative,
        source_projects=contributing,
        prevalence=contributing / selected_project_count,
        avg_probability_band=band_mean(assessments, "probability_band"),
        avg_cost_band=band_mean(assessments, "cost_band"),
        avg_schedule_band=band_mean(assessments, "schedule_band"),
    )


def group_risks(
    projects: Sequence[ProjectRecord],
    backend: EmbeddingBackend,
    threshold: float = DEFAULT_MATCH_THRESHOLD,
    use_description: bool = False,
) -> list[RiskGroup]:
    """Greedy seed clustering of every register risk in corpus order."""
    if not projects:
        raise TemplateError("grouping needs at least one project")
    items = [(project.project_id, item) for project in projects for item in project.register.items]
    texts = [item.matching_text(use_description) for _, item in items]
    members = [GroupMember(project_id, item.risk_id, normalize_sentence(text), item.assessment)
               for (project_id, item), text in zip(items, texts)]
    keyed = unit_rows(backend, texts)

    assigned = [False] * len(members)
    groups: list[RiskGroup] = []
    for seed in range(len(members)):
        if assigned[seed]:
            continue
        assigned[seed] = True
        bucket = [members[seed]]
        if seed + 1 < len(members):
            # the seed against every distinct key, read at each later row
            scores = keyed.scores(keyed.ids[seed : seed + 1], slice(None))[0]
            for offset, score in enumerate(scores[keyed.ids[seed + 1 :]].tolist()):
                later = seed + 1 + offset
                if not assigned[later] and score >= threshold:
                    assigned[later] = True
                    bucket.append(members[later])
        groups.append(summarize_group(bucket, len(projects)))
    return groups


@dataclass(frozen=True)
class Category:
    name: str
    description: str = ""


@dataclass(frozen=True)
class CategorySet:
    categories: tuple[Category, ...]

    def __post_init__(self) -> None:
        if not self.categories:
            raise RbsError("category set must not be empty")
        names = [c.name for c in self.categories]
        if len(set(names)) != len(names):
            raise RbsError("category names must be unique")


_CATEGORIES = {"categories": [{"name": str, "description?": str}]}


def load_categories(path: str | Path) -> CategorySet:
    """A category file: {"categories": [{"name", "description" (optional)}]}."""
    raw = read_json_checked(path, "category file", _CATEGORIES)
    try:
        return CategorySet(tuple(Category(entry["name"], entry.get("description", ""))
                                 for entry in raw["categories"]))
    except RbsError as exc:
        raise RbsError(f"{path}: {exc}") from exc


def default_categories() -> CategorySet:
    return load_categories(data_path("wsdot_categories.json"))


@dataclass(frozen=True)
class ClassifiedRisk:
    label: str
    score: float
    all_oov: bool = False


def classify_risk(
    texts: Sequence[str],
    categories: CategorySet,
    backend: EmbeddingBackend,
) -> list[ClassifiedRisk]:
    """Label each text with the category whose embedded "name description"
    text is most similar; ties go to the earliest category."""
    keyed = unit_rows(backend, [*texts, *(f"{c.name} {c.description}".strip()
                                          for c in categories.categories)])
    sources = keyed.ids[:len(texts)]
    indices, scores = (column[:, 0] for column in keyed.best(sources, [keyed.ids[len(texts):]]))
    return [
        ClassifiedRisk(label=categories.categories[index].name, score=score, all_oov=all_oov)
        for index, score, all_oov in zip(indices.tolist(), scores.tolist(),
                                         keyed.all_oov[sources].tolist())
    ]


@dataclass(frozen=True)
class TemplateEntry:
    rank: int
    text: str
    category: str | None
    prevalence: float
    avg_probability: float | None
    avg_cost: float | None
    avg_schedule: float | None
    group_size: int
    source_projects: int


# an entry field that a template file leaves out is None, or this value
_ENTRY_DEFAULTS = {"group_size": 1, "source_projects": 1}


@dataclass(frozen=True)
class RiskTemplate:
    entries: tuple[TemplateEntry, ...]
    sort_key: str
    source_filter: FilterCriteria
    source_project_count: int

    def to_dict(self) -> dict:
        return {
            "sort_key": self.sort_key,
            "source_filter": self.source_filter.describe(),
            "source_project_count": self.source_project_count,
            "entries": [asdict(e) for e in self.entries],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RiskTemplate":
        """The template of a `to_dict` value, such as `load_template` checks."""
        described = raw.get("source_filter", {})
        return cls(
            entries=tuple(TemplateEntry(**{f.name: e.get(f.name, _ENTRY_DEFAULTS.get(f.name))
                                           for f in fields(TemplateEntry)})
                          for e in raw["entries"]),
            sort_key=raw.get("sort_key", "prevalence"),
            source_filter=FilterCriteria(**{
                f.name: None if described.get(f.name, "all") == "all" else described[f.name]
                for f in fields(FilterCriteria)
            }),
            source_project_count=raw.get("source_project_count", 0),
        )


# a `template build` result, as `RiskTemplate.to_dict` writes it
_TEMPLATE = {
    "entries": [{
        "rank": int, "text": str, "category?": (str, None), "prevalence": float,
        **{f"{key}?": (float, None) for key in ("avg_probability", "avg_cost", "avg_schedule")},
        "group_size?": int, "source_projects?": int,
    }],
    "sort_key?": str,
    "source_filter?": {str: str},
    "source_project_count?": int,
}


def load_template(path: str | Path) -> RiskTemplate:
    """A template file: a `template build` report, or its bare result."""
    return RiskTemplate.from_dict(read_result(path, "template", _TEMPLATE))


def _sort_value(group: RiskGroup, sort_key: str) -> float:
    value = getattr(group, SORT_KEYS[sort_key])
    return value if value is not None else -math.inf


def build_template(
    groups: Sequence[RiskGroup],
    sort_key: str = "prevalence",
    top_n: int = 30,
    source_filter: FilterCriteria | None = None,
    source_project_count: int = 0,
) -> RiskTemplate:
    """Rank groups by the sort key and keep the top N; each entry's category
    is unset, for the caller to label (`template build` uses `classify_risk`)."""
    if not groups:
        raise TemplateError("cannot build a template from zero groups")
    if top_n <= 0:
        raise TemplateError(f"top_n must be positive, got {top_n}")
    if sort_key not in SORT_KEYS:
        raise TemplateError(f"sort_key must be one of {tuple(SORT_KEYS)}, got {sort_key!r}")
    ranked = sorted(
        groups,
        key=lambda g: (-_sort_value(g, sort_key), -g.prevalence, g.representative_text),
    )[:top_n]
    entries = tuple(
        TemplateEntry(
            rank=rank,
            text=group.representative_text,
            category=None,
            prevalence=group.prevalence,
            avg_probability=group.avg_probability_band,
            avg_cost=group.avg_cost_band,
            avg_schedule=group.avg_schedule_band,
            group_size=len(group.member_refs),
            source_projects=group.source_projects,
        )
        for rank, group in enumerate(ranked, start=1)
    )
    return RiskTemplate(
        entries=entries,
        sort_key=sort_key,
        source_filter=source_filter or FilterCriteria(),
        source_project_count=source_project_count,
    )


@dataclass(frozen=True)
class EvalCounts:
    """Template-vs-register outcome counts and the derived metrics."""

    tp: int
    fn: int
    fp: int
    recall: float | None
    precision: float | None
    f1: float | None

    @classmethod
    def from_counts(cls, tp: int, fn: int, fp: int) -> "EvalCounts":
        if min(tp, fn, fp) < 0:
            raise TemplateError("outcome counts must be non-negative")
        recall = tp / (tp + fn) if tp + fn > 0 else None
        precision = tp / (tp + fp) if tp + fp > 0 else None
        f1 = tp / (tp + 0.5 * (fn + fp)) if tp + fn + fp > 0 else None
        return cls(tp=tp, fn=fn, fp=fp, recall=recall, precision=precision, f1=f1)

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_template(
    template: RiskTemplate,
    test_register: RegisterSnapshot,
    backend: EmbeddingBackend,
    label_threshold: float = DEFAULT_LABEL_THRESHOLD,
) -> EvalCounts:
    """Score a template against a held-out register.

    Each test risk best-matches into the template; a score at or above the
    threshold is a true positive, below is a false negative. Template
    entries never chosen as the best match of any true-positive risk count
    as false positives.
    """
    if not template.entries:
        raise TemplateError("cannot evaluate an empty template")
    if not test_register.items:
        raise TemplateError("cannot evaluate against an empty register")
    entries = len(template.entries)
    keyed = unit_rows(backend, [*(entry.text for entry in template.entries),
                                *(item.matching_text() for item in test_register.items)])
    indices, scores = (column[:, 0]
                       for column in keyed.best(keyed.ids[entries:], [keyed.ids[:entries]]))
    hit = scores >= label_threshold
    tp = int(hit.sum())
    # an entry that no true positive chose is a false positive
    return EvalCounts.from_counts(tp, len(hit) - tp, entries - len(set(indices[hit].tolist())))
