"""Three-level similarity analysis over risk registers.

Level one compares whole register documents with TF-IDF vectors, level two
matches individual risks through embedding averages, and level three
compares the assessments of matched risks with the Likert distance index
(1 - |x1 - x2| / 4) * 100 and exact High/Medium/Low agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, ProjectRecord, Qualitative, RegisterSnapshot, RiskItem
from .errors import CorpusError, EmptyReportError, StatTestError
from .vectorize import (
    EmbeddingBackend,
    TfidfModel,
    best_against,
    cosine,
    tfidf_fit,
    tfidf_vector,
    tokenize,
    unit_rows,
)

EVALUATION_THRESHOLDS = (0.5, 0.7, 0.8)


class Level(str, Enum):
    DOCUMENT = "document"
    RISK_ITEM = "risk_item"
    POOLING = "pooling"
    EVALUATION = "evaluation"


@dataclass(frozen=True)
class MatchResult:
    source_risk_id: str
    target_risk_id: str
    score: float
    source_project_id: str | None = None
    target_project_id: str | None = None


@dataclass(frozen=True)
class TTestResult:
    statistic: float
    degrees_of_freedom: float
    p_value: float
    variant: str


@dataclass(frozen=True)
class PairScore:
    a: str
    b: str
    score: float


@dataclass(frozen=True)
class SimilarityReport:
    level: Level
    pairs: tuple[PairScore, ...]
    aggregates: dict
    test: TTestResult | None = None
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The report's JSON payload, as `similarity docs` / `evaluation` write it."""
        return {
            "level": self.level.value,
            "pairs": [{"a": p.a, "b": p.b, "score": p.score} for p in self.pairs],
            "aggregates": self.aggregates,
            "metadata": self.metadata,
            "test": None if self.test is None else {
                "statistic": self.test.statistic,
                "degrees_of_freedom": self.test.degrees_of_freedom,
                "p_value": self.test.p_value,
                "variant": self.test.variant,
            },
        }


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _basic_aggregates(scores: Sequence[float]) -> dict:
    return {
        "count": len(scores),
        "mean": _mean(scores),
        "min": min(scores),
        "max": max(scores),
    }


def score_histogram(scores: Iterable[float]) -> dict[str, int]:
    """Bucket scores at the 0.5/0.6/0.7/0.8 cut points, exact 1.0 separate."""
    bins = {
        "below_0.5": 0,
        "0.5_to_0.6": 0,
        "0.6_to_0.7": 0,
        "0.7_to_0.8": 0,
        "0.8_to_1.0": 0,
        "exact_1.0": 0,
    }
    for score in scores:
        if score >= 1.0:
            bins["exact_1.0"] += 1
        elif score >= 0.8:
            bins["0.8_to_1.0"] += 1
        elif score >= 0.7:
            bins["0.7_to_0.8"] += 1
        elif score >= 0.6:
            bins["0.6_to_0.7"] += 1
        elif score >= 0.5:
            bins["0.5_to_0.6"] += 1
        else:
            bins["below_0.5"] += 1
    return bins


def project_document_tokens(
    project: ProjectRecord, stop_words: frozenset[str]
) -> list[str]:
    """Whole-register document: category, name, and description text."""
    chunks: list[str] = []
    for item in project.register.items:
        if item.category_label:
            chunks.append(item.category_label)
        chunks.append(item.name)
        if item.description:
            chunks.append(item.description)
    return tokenize(" ".join(chunks), stop_words)


def document_similarity(
    corpus: Corpus,
    model: TfidfModel | None = None,
    *,
    stop_words: frozenset[str] = frozenset(),
    group_by: str | None = "delivery_method",
) -> SimilarityReport:
    """Cosine over TF-IDF vectors for every unordered project pair."""
    if len(corpus.projects) < 2:
        raise EmptyReportError("document similarity needs at least 2 projects")
    docs = [project_document_tokens(p, stop_words) for p in corpus.projects]
    if model is None:
        model = tfidf_fit(docs)
    vectors = [tfidf_vector(model, doc) if doc else None for doc in docs]

    pairs: list[PairScore] = []
    for i in range(len(corpus.projects)):
        for j in range(i + 1, len(corpus.projects)):
            if vectors[i] is None or vectors[j] is None:
                score = 0.0
            else:
                score = cosine(vectors[i], vectors[j])
            pairs.append(
                PairScore(corpus.projects[i].project_id, corpus.projects[j].project_id, score)
            )

    aggregates = _basic_aggregates([p.score for p in pairs])
    test: TTestResult | None = None
    if group_by:
        groups = _group_pair_scores(corpus, pairs, group_by)
        aggregates["group_means"] = {
            name: _basic_aggregates(scores) for name, scores in groups.items()
        }
        test = _maybe_group_test(groups)
    return SimilarityReport(
        level=Level.DOCUMENT,
        pairs=tuple(pairs),
        aggregates=aggregates,
        test=test,
        metadata={"group_by": group_by, "weighting": "pair"},
    )


def _group_pair_scores(
    corpus: Corpus, pairs: Sequence[PairScore], group_by: str
) -> dict[str, list[float]]:
    lookup = {p.project_id: _group_value(p, group_by) for p in corpus.projects}
    groups: dict[str, list[float]] = {}
    for pair in pairs:
        ga, gb = lookup[pair.a], lookup[pair.b]
        if ga == gb:
            groups.setdefault(ga, []).append(pair.score)
    return dict(sorted(groups.items()))


def _group_value(project: ProjectRecord, group_by: str) -> str:
    value = getattr(project, group_by)
    return value.value if isinstance(value, Enum) else str(value)


def _maybe_group_test(groups: dict[str, list[float]]) -> TTestResult | None:
    eligible = [(name, scores) for name, scores in groups.items() if len(scores) >= 2]
    if len(eligible) < 2:
        return None
    eligible.sort(key=lambda item: (-len(item[1]), item[0]))
    try:
        return two_sample_t_test(eligible[0][1], eligible[1][1])
    except StatTestError:
        return None


def _register_units(
    backend: EmbeddingBackend, registers: Sequence[RegisterSnapshot], use_description: bool
) -> list[np.ndarray]:
    """Unit rows of each register's matching texts, embedded in one pass."""
    units = unit_rows(
        backend, [item.matching_text(use_description) for r in registers for item in r.items]
    )
    bounds = [0, *accumulate(len(r.items) for r in registers)]
    return [units[start:end] for start, end in zip(bounds, bounds[1:])]


def pairwise_risk_similarity(
    reg_a: RegisterSnapshot,
    reg_b: RegisterSnapshot,
    backend: EmbeddingBackend,
    use_description: bool = False,
) -> SimilarityReport:
    """Directional report: every item of reg_a best-matched into reg_b."""
    if not reg_a.items or not reg_b.items:
        raise EmptyReportError("pairwise risk similarity needs two non-empty registers")
    indices, scores = best_against(*_register_units(backend, (reg_a, reg_b), use_description))
    pairs = [
        PairScore(item.risk_id, reg_b.items[int(index)].risk_id, float(score))
        for item, index, score in zip(reg_a.items, indices, scores)
    ]
    score_list = [p.score for p in pairs]
    aggregates = _basic_aggregates(score_list)
    aggregates["histogram"] = score_histogram(score_list)
    return SimilarityReport(
        level=Level.RISK_ITEM,
        pairs=tuple(pairs),
        aggregates=aggregates,
        metadata={"use_description": use_description},
    )


def pooling_similarity(
    corpus: Corpus,
    backend: EmbeddingBackend,
    use_description: bool = False,
    jobs: int = 1,
) -> list[SimilarityReport]:
    """Match each project's risks against the pooled risks of every other
    project; one report per project, in corpus order."""
    from .parallel import parallel_map

    projects = corpus.projects
    if len(projects) < 2:
        raise EmptyReportError("pooling needs at least 2 projects")
    for project in projects:
        if not project.register.items:
            raise EmptyReportError(
                f"pooling: project {project.project_id!r} has an empty ex-ante register"
            )
    units = _register_units(backend, [p.register for p in projects], use_description)

    def one(index: int) -> SimilarityReport:
        others = [j for j in range(len(projects)) if j != index]
        pool = [(projects[j].project_id, item) for j in others
                for item in projects[j].register.items]
        indices, best = best_against(units[index], np.concatenate([units[j] for j in others]))
        pairs = []
        for item, match, score in zip(projects[index].register.items, indices, best):
            owner, matched = pool[int(match)]
            pairs.append(PairScore(item.risk_id, f"{owner}:{matched.risk_id}", float(score)))
        scores = [p.score for p in pairs]
        aggregates = _basic_aggregates(scores)
        aggregates["histogram"] = score_histogram(scores)
        aggregates["fraction_at_least_0.5"] = sum(1 for s in scores if s >= 0.5) / len(scores)
        return SimilarityReport(
            level=Level.POOLING,
            pairs=tuple(pairs),
            aggregates=aggregates,
            metadata={"project_id": projects[index].project_id, "pool_size": len(pool)},
        )

    return parallel_map(one, list(range(len(projects))), jobs)


def evaluation_similarity(x1: int, x2: int) -> float:
    """Distance similarity index between two Likert bands, as a percentage."""
    for value in (x1, x2):
        if value not in (1, 2, 3, 4, 5):
            raise CorpusError(f"Likert band out of range: {value!r}")
    return (1.0 - abs(x1 - x2) / 4.0) * 100.0


def qualitative_match(q1: Qualitative, q2: Qualitative) -> float:
    """100 when both qualitative levels agree exactly, else 0."""
    if q1 is Qualitative.UNSET or q2 is Qualitative.UNSET:
        raise CorpusError("qualitative match needs both levels set")
    return 100.0 if q1 is q2 else 0.0


def match_registers(
    corpus: Corpus,
    backend: EmbeddingBackend,
    min_score: float = 0.0,
    use_description: bool = False,
) -> list[MatchResult]:
    """Best matches for every ordered project pair, annotated with projects."""
    units = _register_units(backend, [p.register for p in corpus.projects], use_description)
    matches: list[MatchResult] = []
    for source_project, source_units in zip(corpus.projects, units):
        for target_project, target_units in zip(corpus.projects, units):
            if source_project.project_id == target_project.project_id:
                continue
            if not source_project.register.items or not target_project.register.items:
                continue
            indices, scores = best_against(source_units, target_units)
            for item, index, score in zip(source_project.register.items, indices, scores):
                if score >= min_score:
                    matches.append(
                        MatchResult(
                            source_risk_id=item.risk_id,
                            target_risk_id=target_project.register.items[int(index)].risk_id,
                            score=float(score),
                            source_project_id=source_project.project_id,
                            target_project_id=target_project.project_id,
                        )
                    )
    return matches


def directional_mean_matrix(
    corpus: Corpus,
    backend: EmbeddingBackend,
    use_description: bool = False,
    jobs: int = 1,
) -> tuple[list[str], list[list[float | None]]]:
    """Mean best-match score for every ordered project pair; diagonal is 1."""
    from .parallel import parallel_map

    ids = [p.project_id for p in corpus.projects]
    units = _register_units(backend, [p.register for p in corpus.projects], use_description)
    ordered = [(i, j) for i in range(len(ids)) for j in range(len(ids)) if i != j]

    def one(pair: tuple[int, int]) -> float | None:
        i, j = pair
        if units[i].shape[0] == 0 or units[j].shape[0] == 0:
            return None
        _, scores = best_against(units[i], units[j])
        return float(scores.mean())

    means = parallel_map(one, ordered, jobs)
    matrix: list[list[float | None]] = [[1.0] * len(ids) for _ in ids]
    for (i, j), mean in zip(ordered, means):
        matrix[i][j] = mean
    return ids, matrix


def _item_index(corpus: Corpus) -> dict[tuple[str, str], RiskItem]:
    index: dict[tuple[str, str], RiskItem] = {}
    for project in corpus.projects:
        for item in project.register.items:
            index[(project.project_id, item.risk_id)] = item
    return index


def evaluation_level_report(
    matches: Sequence[MatchResult],
    corpus: Corpus,
    thresholds: Sequence[float] = EVALUATION_THRESHOLDS,
) -> SimilarityReport:
    """Mean assessment similarity of matched risks at each cosine threshold."""
    if not matches:
        raise EmptyReportError("no matches to evaluate")
    items = _item_index(corpus)
    by_threshold: dict[str, dict] = {}
    for threshold in thresholds:
        surviving = [m for m in matches if m.score >= threshold]
        if not surviving:
            raise EmptyReportError(
                f"no matches with cosine similarity >= {threshold}"
            )
        metrics: dict[str, list[float]] = {
            "probability": [],
            "cost": [],
            "schedule": [],
            "probability_cost_qualitative": [],
            "probability_schedule_qualitative": [],
        }
        for match in surviving:
            a = items[(match.source_project_id, match.source_risk_id)].assessment
            b = items[(match.target_project_id, match.target_risk_id)].assessment
            for key, band_a, band_b in (
                ("probability", a.probability_band, b.probability_band),
                ("cost", a.cost_band, b.cost_band),
                ("schedule", a.schedule_band, b.schedule_band),
            ):
                if band_a is not None and band_b is not None:
                    metrics[key].append(evaluation_similarity(band_a, band_b))
            for key, level_a, level_b in (
                ("probability_cost_qualitative", a.qualitative_cost, b.qualitative_cost),
                (
                    "probability_schedule_qualitative",
                    a.qualitative_schedule,
                    b.qualitative_schedule,
                ),
            ):
                if level_a is not Qualitative.UNSET and level_b is not Qualitative.UNSET:
                    metrics[key].append(qualitative_match(level_a, level_b))
        by_threshold[f"{threshold:g}"] = {
            "match_count": len(surviving),
            **{key: (_mean(values) if values else None) for key, values in metrics.items()},
        }

    pairs = tuple(
        PairScore(
            f"{m.source_project_id}:{m.source_risk_id}",
            f"{m.target_project_id}:{m.target_risk_id}",
            m.score,
        )
        for m in matches
    )
    aggregates = _basic_aggregates([m.score for m in matches])
    aggregates["by_threshold"] = by_threshold
    return SimilarityReport(
        level=Level.EVALUATION,
        pairs=pairs,
        aggregates=aggregates,
        metadata={"thresholds": list(thresholds)},
    )


def two_sample_t_test(
    group_a: Sequence[float],
    group_b: Sequence[float],
    variant: str = "welch",
) -> TTestResult:
    """Two-sided t-test on group means, Welch by default."""
    if variant not in ("welch", "pooled"):
        raise StatTestError(f"unknown t-test variant {variant!r}")
    na, nb = len(group_a), len(group_b)
    if na < 2 or nb < 2:
        raise StatTestError("each group needs at least 2 values")
    mean_a, mean_b = _mean(group_a), _mean(group_b)
    var_a = sum((x - mean_a) ** 2 for x in group_a) / (na - 1)
    var_b = sum((x - mean_b) ** 2 for x in group_b) / (nb - 1)
    if var_a == 0.0 and var_b == 0.0:
        raise StatTestError("both groups have zero variance")

    if variant == "pooled":
        df = float(na + nb - 2)
        pooled = ((na - 1) * var_a + (nb - 1) * var_b) / df
        se = math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    else:
        se = math.sqrt(var_a / na + var_b / nb)
        df = (var_a / na + var_b / nb) ** 2 / (
            (var_a / na) ** 2 / (na - 1) + (var_b / nb) ** 2 / (nb - 1)
        )
    statistic = (mean_a - mean_b) / se
    # stdtr(df, -|t|) is the upper tail that scipy.stats.t.sf computes; the
    # import stays local so that importing riskbench never loads scipy.
    from scipy.special import stdtr

    p_value = 2.0 * float(stdtr(df, -abs(statistic)))
    return TTestResult(
        statistic=statistic, degrees_of_freedom=df, p_value=min(p_value, 1.0), variant=variant
    )
