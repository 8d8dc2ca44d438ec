"""Three-level similarity analysis over risk registers.

Level one compares whole register documents with TF-IDF vectors, level two
matches individual risks through embedding averages, and level three
compares the assessments of matched risks with the Likert distance index
(1 - |x1 - x2| / 4) * 100 and exact High/Medium/Low agreement.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Iterable, Sequence

from . import cache
from .corpus import BANDS, Corpus, ProjectRecord, Qualitative, RegisterSnapshot
from .errors import CorpusError, EmptyReportError, StatTestError
from .report import PairRows
from .vectorize import (
    EmbeddingBackend,
    _unit_length,
    cosine_table,
    tfidf_fit,
    tfidf_vector,
    tokenize,
    unit_rows,
)

if TYPE_CHECKING:
    import numpy as np

EVALUATION_THRESHOLDS = (0.5, 0.7, 0.8)


@dataclass(frozen=True)
class TTestResult:
    statistic: float
    degrees_of_freedom: float
    p_value: float
    variant: str


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _basic_aggregates(scores: Sequence[float]) -> dict:
    return {
        "count": len(scores),
        "mean": _mean(scores),
        "min": min(scores),
        "max": max(scores),
    }


# each score-histogram bin and the lowest score it holds
_HISTOGRAM = {"below_0.5": -math.inf, "0.5_to_0.6": 0.5, "0.6_to_0.7": 0.6, "0.7_to_0.8": 0.7,
              "0.8_to_1.0": 0.8, "exact_1.0": 1.0}
_HISTOGRAM_LOWS = tuple(_HISTOGRAM.values())


def score_histogram(scores: Iterable[float]) -> dict[str, int]:
    """Bucket scores at the 0.5/0.6/0.7/0.8 cut points, exact 1.0 separate."""
    counts = [0] * len(_HISTOGRAM)
    for score in scores:
        counts[bisect_right(_HISTOGRAM_LOWS, score) - 1] += 1
    return dict(zip(_HISTOGRAM, counts))


def project_document_tokens(
    project: ProjectRecord, stop_words: frozenset[str]
) -> list[str]:
    """Whole-register document: each risk's category, name, and description text."""
    r = project.register
    texts = [t for row in zip(r.category_labels, r.names, r.descriptions) for t in row if t]
    return tokenize(" ".join(texts), stop_words)


def document_similarity(
    corpus: Corpus,
    *,
    stop_words: frozenset[str] = frozenset(),
    group_by: str | None = "delivery_method",
) -> dict:
    """The `similarity docs` payload: cosine over TF-IDF vectors for every
    unordered project pair (i, j), i < j, in row-major order, from one score
    table of the unit rows, with their aggregates and a t-test between groups.

    The rows are dense: n_projects x vocabulary x 8 bytes, 200 x 270 at the
    200-project scale rung. An empty document is a zero row and scores 0.0.
    """
    import numpy as np
    if len(corpus.projects) < 2:
        raise EmptyReportError("document similarity needs at least 2 projects")
    docs = [project_document_tokens(p, stop_words) for p in corpus.projects]
    model = tfidf_fit(docs)
    units = _unit_length(np.array(
        [tfidf_vector(model, doc) if doc else np.zeros(len(model.vocabulary)) for doc in docs]))
    rows, cols = np.triu_indices(len(docs), 1)
    pairs = PairRows([p.project_id for p in corpus.projects], rows, cols,
                     cosine_table(units, units)[rows, cols])

    aggregates, groups = _pair_summary(corpus, pairs, group_by)
    return {"level": "document", "pairs": pairs, "aggregates": aggregates,
            "metadata": {"group_by": group_by, "weighting": "pair"},
            "test": _group_test(groups)}


def risk_level_summary(
    corpus: Corpus,
    backend: EmbeddingBackend,
    use_description: bool = False,
    group_by: str | None = None,
) -> dict:
    """The `similarity risks` payload: the directional mean matrix and the
    aggregates of its ordered project pairs, overall and, with `group_by`, by group."""
    import numpy as np
    empty = [p.project_id for p in corpus.projects if not p.register.risk_ids]
    if len(corpus.projects) - len(empty) < 2:
        raise EmptyReportError(
            "risk-level similarity needs at least 2 projects with a non-empty ex-ante register"
            + "".join(f"; project {project_id!r} has an empty one" for project_id in empty))
    ids, matrix = directional_mean_matrix(corpus, backend, use_description)
    # the ordered pairs of two non-empty registers, in row-major order
    scores = np.array(matrix, dtype=float)  # None is nan
    rows, cols = np.nonzero(~np.eye(len(ids), dtype=bool) & ~np.isnan(scores))
    overall, _ = _pair_summary(corpus, PairRows(ids, rows, cols, scores[rows, cols]), group_by)
    result = {"level": "risk_item", "projects": ids, "directional_mean_matrix": matrix}
    if group_by:
        result["group_means"] = overall.pop("group_means")
    return {**result, "overall": overall}


def _pair_summary(
    corpus: Corpus, pairs: PairRows, group_by: str | None
) -> tuple[dict, dict[str, list[float]]]:
    """Score aggregates over all pairs of project ids, with "group_means" when
    `group_by` is set, and the scores of the pairs whose two projects share a
    group, by group."""
    scores = pairs.scores.tolist()
    aggregates = _basic_aggregates(scores)
    groups: dict[str, list[float]] = {}
    if group_by:
        lookup = {p.project_id: _group_value(p, group_by) for p in corpus.projects}
        names = [lookup[label] for label in pairs.labels]
        for a, b, score in zip(pairs.source_rows.tolist(), pairs.target_rows.tolist(), scores):
            if names[a] == names[b]:
                groups.setdefault(names[a], []).append(score)
        groups = dict(sorted(groups.items()))
        aggregates["group_means"] = {name: _basic_aggregates(s) for name, s in groups.items()}
    return aggregates, groups


def _group_value(project: ProjectRecord, group_by: str) -> str:
    value = getattr(project, group_by)
    return value.value if isinstance(value, Enum) else str(value)


def _group_test(groups: dict[str, list[float]]) -> dict | None:
    """Welch's t-test between the two largest groups with at least 2 scores."""
    eligible = [(name, scores) for name, scores in groups.items() if len(scores) >= 2]
    if len(eligible) < 2:
        return None
    eligible.sort(key=lambda item: (-len(item[1]), item[0]))
    try:
        return asdict(two_sample_t_test(eligible[0][1], eligible[1][1]))
    except StatTestError:
        return None


def _best_matches(
    backend: EmbeddingBackend, registers: Sequence[RegisterSnapshot], use_description: bool
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray, np.ndarray]:
    """Every distinct key's best match in every register, from one `best` call.

    Rows number the items of all registers in order. Returns each
    register's [start, end) rows, each row's key id, and for key x and
    register t the best match's row `rows[x, t]` and cosine `scores[x, t]`
    (-1 and -inf when t is empty). Ties take the lowest row, and texts with
    equal keys tie exactly.
    """
    import numpy as np
    keyed = unit_rows(backend, [text for register in registers
                                for text in register.matching_texts(use_description)])
    bounds = [0, *accumulate(len(r.names) for r in registers)]
    spans = list(zip(bounds, bounds[1:]))
    rows, scores = keyed.best(np.arange(len(keyed.units)),
                              [keyed.ids[start:end] for start, end in spans])
    for register, (start, end) in enumerate(spans):
        if start < end:  # positions in the register to rows, in place
            rows[:, register] += start
    return spans, keyed.ids, rows, scores


def pooling_similarity(
    corpus: Corpus,
    backend: EmbeddingBackend,
    use_description: bool = False,
) -> dict:
    """The `similarity pooling` payload: per project, in corpus order, the
    mean, histogram and fraction >= 0.5 of its risks' best scores against the
    pooled risks of every other project; and the mean of those fractions."""
    import numpy as np
    projects = corpus.projects
    if len(projects) < 2:
        raise EmptyReportError("pooling needs at least 2 projects")
    for project in projects:
        if not project.register.risk_ids:
            raise EmptyReportError(
                f"pooling: project {project.project_id!r} has an empty ex-ante register"
            )
    spans, key_ids, _, scores = _best_matches(
        backend, [p.register for p in projects], use_description
    )
    rows = []
    for index, (project, (start, end)) in enumerate(zip(projects, spans)):
        # the pool is every other register: mask the project's own
        pooled = scores[key_ids[start:end]]
        pooled[:, index] = -np.inf
        best = pooled.max(axis=1).tolist()
        rows.append({"project_id": project.project_id, "mean": _mean(best),
                     "fraction_at_least_0.5": sum(1 for s in best if s >= 0.5) / len(best),
                     "histogram": score_histogram(best)})
    fractions = [row["fraction_at_least_0.5"] for row in rows]
    return {"level": "pooling", "projects": rows, "mean_fraction_at_least_0.5": _mean(fractions)}


def evaluation_similarity(x1: int, x2: int) -> float:
    """Distance similarity index between two Likert bands, as a percentage."""
    for value in (x1, x2):
        if value not in BANDS:
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
) -> PairRows:
    """Best matches for every ordered pair of projects with non-empty registers.

    Rows number the ex-ante register items of the corpus's projects in
    order and are labelled "project:risk". Matches run by source project,
    then target project, then source row, each in corpus order.
    """
    import numpy as np
    spans, key_ids, rows, scores = _best_matches(
        backend, [p.register for p in corpus.projects], use_description
    )
    filled = [t for t, (start, end) in enumerate(spans) if start < end]
    parts = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]
    for source, (start, end) in enumerate(spans):
        targets = [t for t in filled if t != source]
        keys = key_ids[start:end]
        parts.append((  # target-major, then source row
            np.tile(np.arange(start, end), len(targets)),
            rows[keys][:, targets].T.ravel(),
            scores[keys][:, targets].T.ravel(),
        ))
    sources, targets, best = (np.concatenate(column) for column in zip(*parts))
    keep = best >= min_score
    labels = [f"{p.project_id}:{risk_id}"
              for p in corpus.projects for risk_id in p.register.risk_ids]
    return PairRows(labels, sources[keep], targets[keep], best[keep])


def directional_mean_matrix(
    corpus: Corpus,
    backend: EmbeddingBackend,
    use_description: bool = False,
) -> tuple[list[str], list[list[float | None]]]:
    """Mean best-match score for every ordered project pair; diagonal is 1."""
    import numpy as np
    ids = [p.project_id for p in corpus.projects]
    spans, key_ids, _, scores = _best_matches(
        backend, [p.register for p in corpus.projects], use_description
    )
    matrix: list[list[float | None]] = [[1.0] * len(ids) for _ in ids]
    for i, (start, end) in enumerate(spans):
        # row j: the source rows' best scores in register j, contiguous, so
        # that each mean sums one 1-D array, as numpy sums a per-pair vector
        by_target = np.ascontiguousarray(scores[key_ids[start:end]].T)
        for j, (target_start, target_end) in enumerate(spans):
            if i != j:
                empty = start == end or target_start == target_end
                matrix[i][j] = None if empty else float(by_target[j].mean())
    return ids, matrix


# Report key, snapshot column, the column's values (unset first) and the
# value of a match between two set ones, from the report's level-three rules.
_BANDS = (None, *BANDS)
_LEVELS = (Qualitative.UNSET, Qualitative.HIGH, Qualitative.MEDIUM, Qualitative.LOW)
_EVALUATION_METRICS = (
    ("probability", "probability_bands", _BANDS, evaluation_similarity),
    ("cost", "cost_bands", _BANDS, evaluation_similarity),
    ("schedule", "schedule_bands", _BANDS, evaluation_similarity),
    ("probability_cost_qualitative", "qualitative_costs", _LEVELS, qualitative_match),
    ("probability_schedule_qualitative", "qualitative_schedules", _LEVELS, qualitative_match),
)


def _match_values(matches: PairRows, corpus: Corpus) -> dict[str, np.ndarray]:
    """Per metric, the value of every match (nan when either side is unset),
    read from a table over the codes of the registers' column; a level's
    value is a key of its str Enum member."""
    import numpy as np
    values = {}
    for key, column, levels, similarity in _EVALUATION_METRICS:
        table = np.array([[similarity(x, y) if x is not levels[0] and y is not levels[0]
                           else np.nan for y in levels] for x in levels])
        index = {level: code for code, level in enumerate(levels)}
        code = np.fromiter(map(index.__getitem__, chain.from_iterable(
            getattr(p.register, column) for p in corpus.projects)), dtype=np.intp)
        values[key] = table[code[matches.source_rows], code[matches.target_rows]]
    return values


def _by_threshold(
    scores: np.ndarray, values: dict[str, np.ndarray], thresholds: Sequence[float]
) -> dict[str, dict]:
    """Mean match value per metric at each threshold. Every value is a
    multiple of 25, so the sums are exact and do not depend on order."""
    import numpy as np
    if not len(scores):
        raise EmptyReportError("no matches to evaluate")
    by_threshold: dict[str, dict] = {}
    for threshold in thresholds:
        surviving = scores >= threshold
        if not surviving.any():
            raise EmptyReportError(f"no matches with cosine similarity >= {threshold}")
        row: dict = {"match_count": int(np.count_nonzero(surviving))}
        for key, value in values.items():
            kept = value[surviving & ~np.isnan(value)]
            row[key] = float(kept.sum()) / len(kept) if len(kept) else None
        by_threshold[f"{threshold:g}"] = row
    return by_threshold


def evaluation_level_report(
    matches: PairRows,
    corpus: Corpus,
    thresholds: Sequence[float] = EVALUATION_THRESHOLDS,
    group_by: str | None = None,
) -> dict:
    """The `similarity evaluation` payload: the matches, their score
    aggregates and the mean assessment similarity at each cosine threshold.

    With `group_by`, `by_group` holds the same table for the matches inside
    each group, by group name; a group with no match, or none at some
    threshold, gets `{"skipped": reason}`.
    """
    import numpy as np
    if not len(matches):
        raise EmptyReportError("no matches to evaluate")
    # the scores' list is made and dropped before the per-metric arrays exist
    aggregates = _basic_aggregates(matches.scores.tolist())
    values = _match_values(matches, corpus)
    aggregates["by_threshold"] = _by_threshold(matches.scores, values, thresholds)
    result = {"level": "evaluation", "pairs": matches, "aggregates": aggregates,
              "metadata": {"thresholds": list(thresholds)}, "test": None}
    if group_by:
        groups, codes = np.unique([_group_value(p, group_by) for p in corpus.projects],
                                  return_inverse=True)
        row_group = np.repeat(codes, [len(p.register.risk_ids) for p in corpus.projects])
        sources, targets = row_group[matches.source_rows], row_group[matches.target_rows]
        result["by_group"] = {}
        for code, name in enumerate(groups.tolist()):
            inside = (sources == code) & (targets == code)
            try:
                result["by_group"][name] = _by_threshold(
                    matches.scores[inside], {k: v[inside] for k, v in values.items()}, thresholds)
            except EmptyReportError as exc:
                result["by_group"][name] = {"skipped": str(exc)}
    return result


def two_sample_t_test(group_a: Sequence[float], group_b: Sequence[float]) -> TTestResult:
    """Two-sided Welch t-test on group means."""
    na, nb = len(group_a), len(group_b)
    if na < 2 or nb < 2:
        raise StatTestError("each group needs at least 2 values")
    mean_a, mean_b = _mean(group_a), _mean(group_b)
    var_a = sum((x - mean_a) ** 2 for x in group_a) / (na - 1)
    var_b = sum((x - mean_b) ** 2 for x in group_b) / (nb - 1)
    if var_a == 0.0 and var_b == 0.0:
        raise StatTestError("both groups have zero variance")

    se = math.sqrt(var_a / na + var_b / nb)
    df = (var_a / na + var_b / nb) ** 2 / (
        (var_a / na) ** 2 / (na - 1) + (var_b / nb) ** 2 / (nb - 1)
    )
    statistic = (mean_a - mean_b) / se
    # stdtr(df, -|t|) is the upper tail that scipy.stats.t.sf computes
    p_value = 2.0 * cache.special("stdtr", df, -abs(statistic))
    return TTestResult(
        statistic=statistic, degrees_of_freedom=df, p_value=min(p_value, 1.0), variant="welch"
    )
