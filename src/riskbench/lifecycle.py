"""Finite-state risk lifecycle tracking, performance ratios, and styles.

States are Registered, Happening, and Closed. A risk enters through
`generate`, may `occur` once (Reg to Hap), persists with `continue`, and
ends with `close` from either live state. Closure tabulation follows four
rules: a risk seen Happening counts as realized, a risk seen only
Registered counts as dismissed, no risk may start Closed, and every risk is
closed at the final register.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

from . import cache
from .corpus import Corpus, ProjectRecord
from .errors import LifecycleError, ParseError, StatTestError, TransitionError
from .resources import csv_rows


class RiskState(str, Enum):
    REG = "Reg"
    HAP = "Hap"
    CLO = "Clo"


class RiskTransition(str, Enum):
    GENERATE = "generate"
    OCCUR = "occur"
    CONTINUE = "continue"
    CLOSE = "close"


class Origin(str, Enum):
    INITIAL = "initial"
    CONSTRUCTION = "construction"


class Outcome(str, Enum):
    REALIZED = "realized"
    DISMISSED = "dismissed"


# Transition table; None stands for the pre-identification state.
_STEP_TABLE: dict[tuple[RiskState | None, RiskTransition], RiskState] = {
    (None, RiskTransition.GENERATE): RiskState.REG,
    (RiskState.REG, RiskTransition.OCCUR): RiskState.HAP,
    (RiskState.REG, RiskTransition.CONTINUE): RiskState.REG,
    (RiskState.HAP, RiskTransition.CONTINUE): RiskState.HAP,
    (RiskState.CLO, RiskTransition.CONTINUE): RiskState.CLO,
    (RiskState.REG, RiskTransition.CLOSE): RiskState.CLO,
    (RiskState.HAP, RiskTransition.CLOSE): RiskState.CLO,
}


def step(state: RiskState | None, transition: RiskTransition) -> RiskState:
    """Apply one transition; illegal pairs raise naming the pair."""
    result = _STEP_TABLE.get((state, transition))
    if result is None:
        shown = state.value if state is not None else "unidentified"
        raise TransitionError(f"illegal transition ({shown}, {transition.value})")
    return result


def accepts(transitions: Sequence[RiskTransition]) -> bool:
    """Whether a transition word is a complete, legal risk lifecycle.

    The accepted language is generate continue* (occur continue*)? close:
    the word must open with generate, every step must be legal, and close
    must be the final symbol (a closed risk emits nothing further).
    """
    if not transitions:
        return False
    state: RiskState | None = None
    for transition in transitions:
        if state is RiskState.CLO:
            return False
        try:
            state = step(state, transition)
        except TransitionError:
            return False
    return state is RiskState.CLO


# An observation with no explicit state is Happening when its probability is
# at least this and an impact is recorded, and Registered otherwise.
HAPPENING_PROBABILITY_MIN = 0.9


@dataclass(frozen=True)
class RiskObservation:
    snapshot_ordinal: int
    explicit_state: RiskState | None = None
    probability_fraction: float | None = None
    impact_recorded: bool = False


def infer_state(obs: RiskObservation) -> RiskState:
    """Explicit state wins; else high probability plus impact means Happening."""
    if obs.explicit_state is not None:
        return obs.explicit_state
    return _inferred(obs.probability_fraction, obs.impact_recorded)


def _inferred(probability: float | None, impact_recorded: bool) -> RiskState:
    """The state of an observation with no explicit state."""
    if probability is not None and probability >= HAPPENING_PROBABILITY_MIN and impact_recorded:
        return RiskState.HAP
    return RiskState.REG


# each change between consecutive observed states that breaks a rule, None
# standing for the state before the first observation, and its violation
_BREAKS = {(None, RiskState.CLO): "a risk cannot be Closed at its first observation",
           (RiskState.HAP, RiskState.REG): "illegal regression Hap -> Reg at snapshot {}",
           (RiskState.CLO, RiskState.REG): "reopened after Closed at snapshot {}",
           (RiskState.CLO, RiskState.HAP): "reopened after Closed at snapshot {}"}


def _fold(rows: Iterable[tuple[str, int, RiskState]]) -> dict[str, list]:
    """Each risk's [initial, realized, state, first violation] from (risk_id,
    ordinal, state) rows, each risk's in ascending ordinal. An unobserved
    snapshot carries the previous state forward, so it breaks no rule and
    realizes nothing. The first risk seen that has a violation raises it."""
    risks: dict[str, list] = {}
    for risk_id, ordinal, state in rows:
        risk = risks.get(risk_id) or risks.setdefault(risk_id, [ordinal == 0, False, None, None])
        if state is not risk[2]:
            if risk[3] is None and (risk[2], state) in _BREAKS:
                risk[3] = _BREAKS[risk[2], state].format(ordinal)
            risk[1], risk[2] = risk[1] or state is RiskState.HAP, state
    for risk_id, (_, _, _, violation) in risks.items():
        if violation is not None:
            raise LifecycleError(f"risk {risk_id!r}: {violation}")
    return risks


@dataclass(frozen=True)
class RiskLifecycle:
    risk_id: str
    origin: Origin
    outcome: Outcome


def build_lifecycle(risk_id: str, observations: Sequence[RiskObservation]) -> RiskLifecycle:
    """Tabulate one risk's origin and outcome from its observations, by
    `_fold`'s rules."""
    if not observations:
        raise LifecycleError(f"risk {risk_id!r}: no observations")
    ordinals = [obs.snapshot_ordinal for obs in observations]
    if any(b <= a for a, b in zip(ordinals, ordinals[1:])):
        raise LifecycleError(f"risk {risk_id!r}: observation ordinals must strictly ascend")
    if ordinals[0] < 0:
        raise LifecycleError(f"risk {risk_id!r}: first ordinal {ordinals[0]} is negative")
    rows = ((risk_id, obs.snapshot_ordinal, infer_state(obs)) for obs in observations)
    [risk] = _fold(rows).values()
    return _lifecycle(risk_id, *risk)


def _lifecycle(risk_id: str, initial: bool, realized: bool, *_) -> RiskLifecycle:
    return RiskLifecycle(risk_id, Origin.INITIAL if initial else Origin.CONSTRUCTION,
                         Outcome.REALIZED if realized else Outcome.DISMISSED)


@dataclass(frozen=True)
class RatioSet:
    """Identification/realization counts and the seven performance ratios."""

    initial_identified: int
    initial_realized: int
    construction_identified: int
    construction_realized: int
    total_realization: float | None
    total_dismissed: float | None
    initial_realization: float | None
    initial_dismissed: float | None
    initial_efficiency: float | None
    new_item: float | None
    further_realized: float | None

    @classmethod
    def from_counts(
        cls,
        initial_identified: int,
        initial_realized: int,
        construction_identified: int,
        construction_realized: int,
    ) -> "RatioSet":
        if initial_realized > initial_identified:
            raise LifecycleError("more initial risks realized than identified")
        if construction_realized > construction_identified:
            raise LifecycleError("more construction risks realized than identified")
        total_identified = initial_identified + construction_identified
        total_realized = initial_realized + construction_realized

        def ratio(numerator: int, denominator: int) -> float | None:
            return numerator / denominator if denominator > 0 else None

        return cls(
            initial_identified=initial_identified,
            initial_realized=initial_realized,
            construction_identified=construction_identified,
            construction_realized=construction_realized,
            total_realization=ratio(total_realized, total_identified),
            total_dismissed=ratio(total_identified - total_realized, total_identified),
            initial_realization=ratio(initial_realized, initial_identified),
            initial_dismissed=ratio(initial_identified - initial_realized, initial_identified),
            initial_efficiency=ratio(initial_realized, total_realized),
            new_item=ratio(construction_identified, total_identified),
            further_realized=ratio(construction_realized, construction_identified),
        )

    def to_dict(self) -> dict:
        ratios = asdict(self)
        counts = {name: ratios.pop(name) for name in list(ratios)[:4]}  # the four counts
        return {"counts": counts, **ratios}


def compute_ratios(lifecycles: Sequence[RiskLifecycle]) -> RatioSet:
    """Performance ratios for one project's completed lifecycles."""
    if not lifecycles:
        raise LifecycleError("cannot compute ratios over zero lifecycles")
    return _ratio_set((lifecycle.origin is Origin.INITIAL, lifecycle.outcome is Outcome.REALIZED)
                      for lifecycle in lifecycles)


def _ratio_set(risks: Iterable[tuple[bool, bool]]) -> RatioSet:
    """The ratios of a project's (initial, realized) pairs, one per risk."""
    counts = Counter(risks)
    return RatioSet.from_counts(counts[True, True] + counts[True, False], counts[True, True],
                                counts[False, True] + counts[False, False], counts[False, True])


def aggregate_ratios(per_project: Mapping[str, RatioSet]) -> RatioSet:
    """Pool counts across projects (sum numerators over sum denominators)."""
    if not per_project:
        raise LifecycleError("cannot aggregate zero projects")
    return RatioSet.from_counts(
        sum(r.initial_identified for r in per_project.values()),
        sum(r.initial_realized for r in per_project.values()),
        sum(r.construction_identified for r in per_project.values()),
        sum(r.construction_realized for r in per_project.values()),
    )


# The explicit states a status note may name, in any case and surrounding space.
_STATE_ALIASES = {
    "reg": RiskState.REG,
    "registered": RiskState.REG,
    "hap": RiskState.HAP,
    "happening": RiskState.HAP,
    "clo": RiskState.CLO,
    "closed": RiskState.CLO,
}


@functools.lru_cache(maxsize=256)  # a register repeats a few notes on every row
def _parse_explicit_state(note: str | None) -> RiskState | None:
    return None if note is None else _STATE_ALIASES.get(note.strip().lower())


def _project_risks(project: ProjectRecord) -> dict[str, list]:
    """`_fold` over the rows of a project's snapshot columns: a row's state is
    the one its note names, else the inferred one, with an impact recorded
    when a raw impact or an impact band is set. An error names the project."""
    if project.snapshots[0].ordinal != 0:
        raise LifecycleError(f"project {project.project_id!r}: lifecycle analysis needs snapshot 0")

    def rows() -> Iterator[tuple[str, int, RiskState]]:
        for s in project.snapshots:
            for risk_id, note, probability, cost, schedule, cost_band, schedule_band in zip(
                    s.risk_ids, s.status_notes, s.raw_probabilities, s.raw_costs, s.raw_schedules,
                    s.cost_bands, s.schedule_bands):
                state = _parse_explicit_state(note)
                if state is None:
                    impacts = (cost, schedule, cost_band, schedule_band)
                    state = _inferred(probability, impacts != (None,) * 4)
                yield risk_id, s.ordinal, state

    return _in_project(project.project_id, _fold, rows())


def _in_project(project_id: str, fold, *args):
    """`fold(*args)`; a LifecycleError names the project."""
    try:
        return fold(*args)
    except LifecycleError as exc:
        raise LifecycleError(f"project {project_id!r}: {exc}") from exc


def project_lifecycles(project: ProjectRecord) -> list[RiskLifecycle]:
    return [_lifecycle(risk_id, *risk) for risk_id, risk in _project_risks(project).items()]


def corpus_ratios(corpus: Corpus) -> tuple[dict[str, RatioSet], RatioSet]:
    """Per-project ratio table plus the pooled aggregate."""
    per_project: dict[str, RatioSet] = {}
    for project in corpus.projects:
        risks = _project_risks(project)
        if not risks:
            raise LifecycleError(f"project {project.project_id!r}: cannot compute ratios over "
                                 "zero lifecycles; its registers are empty")
        per_project[project.project_id] = _ratio_set(
            (initial, realized) for initial, realized, *_ in risks.values())
    return per_project, aggregate_ratios(per_project)


_LIFECYCLE_COLUMNS = ("project_id", "risk_id", "snapshot", "state")


def read_lifecycle_csv(data: bytes, source: str = "<lifecycle>") -> dict[str, dict[str, list[RiskObservation]]]:
    """Pre-tabulated input: project_id,risk_id,snapshot,state rows."""
    projects: dict[str, dict[str, list[RiskObservation]]] = {}
    for where, (project_id, risk_id, snapshot, cell) in csv_rows(
            data, source, _LIFECYCLE_COLUMNS, _LIFECYCLE_COLUMNS):
        state = _parse_explicit_state(cell)
        if state is None:
            raise ParseError(f"{where}: unknown state {cell!r}")
        try:
            ordinal = int(snapshot)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{where}: snapshot must be an integer") from exc
        if ordinal < 0:
            raise ParseError(f"{where}: snapshot must be >= 0, got {ordinal}")
        # ids are stripped, as a register's risk_id is; None past the end of a short row
        project_id, risk_id = (project_id or "").strip(), (risk_id or "").strip()
        for column, value in (("project_id", project_id), ("risk_id", risk_id)):
            if not value:
                raise ParseError(f"{where}: missing {column}")
        risk = projects.setdefault(project_id, {}).setdefault(risk_id, [])
        if risk and ordinal <= risk[-1].snapshot_ordinal:
            raise ParseError(
                f"{where}: snapshot {ordinal} must exceed snapshot "
                f"{risk[-1].snapshot_ordinal} of the previous row of project "
                f"{project_id!r}, risk {risk_id!r}"
            )
        risk.append(RiskObservation(snapshot_ordinal=ordinal, explicit_state=state))
    return projects


def tabulated_ratios(
    projects: dict[str, dict[str, list[RiskObservation]]],
) -> tuple[dict[str, RatioSet], RatioSet]:
    """Ratios from pre-tabulated observations, projects in input order."""
    per_project: dict[str, RatioSet] = {}
    for project_id, risks in projects.items():
        per_project[project_id] = compute_ratios(_in_project(project_id, lambda: [
            build_lifecycle(risk_id, observations) for risk_id, observations in risks.items()]))
    return per_project, aggregate_ratios(per_project)


@dataclass(frozen=True)
class StyleThresholds:
    doer_new_item: float = 0.5
    careful: float = 0.5


@dataclass(frozen=True)
class StyleLabel:
    axis1: str  # planner | doer
    axis2: str  # careful | excessive


def classify_style(
    ratios: RatioSet, thresholds: StyleThresholds = StyleThresholds()
) -> StyleLabel | None:
    """Doer when enough risks arrive during execution; careful when they hit.

    Returns None when the needed ratio is undefined (unclassifiable).
    """
    if ratios.new_item is None:
        return None
    doer = ratios.new_item >= thresholds.doer_new_item
    realized = ratios.further_realized if doer else ratios.initial_realization
    if realized is None:
        return None
    return StyleLabel(axis1="doer" if doer else "planner",
                      axis2="careful" if realized >= thresholds.careful else "excessive")


@dataclass(frozen=True)
class HotellingResult:
    t_squared: float
    group_sizes: tuple[int, int]
    critical_value: float
    alpha: float
    significant: bool


def hotelling_t2(
    group_a: Sequence[Sequence[float]],
    group_b: Sequence[Sequence[float]],
    alpha: float = 0.05,
) -> HotellingResult:
    """Two-sample Hotelling T^2 with z-scored columns and pooled covariance."""
    import numpy as np
    a = np.asarray(group_a, dtype=float)
    b = np.asarray(group_b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise StatTestError("groups must be 2-D arrays with matching dimensions")
    na, nb = a.shape[0], b.shape[0]
    p = a.shape[1]
    if na < 2 or nb < 2:
        raise StatTestError("each group needs at least 2 points")
    nu = na + nb - 2
    if nu - p + 1 < 1:
        raise StatTestError(f"too few points ({na}+{nb}) for dimension {p}")

    # Finite metrics far apart or near the float limit can overflow below;
    # each overflow raises at the first non-finite result instead of warning.
    with np.errstate(over="ignore", invalid="ignore"):
        # Z-score by the pooled per-dimension standard deviation.
        pooled_var = ((na - 1) * a.var(axis=0, ddof=1) + (nb - 1) * b.var(axis=0, ddof=1)) / nu
        if not np.all(np.isfinite(pooled_var)):
            raise StatTestError("a dimension's pooled variance overflows; the metrics are "
                                "too large to compare")
        if np.any(pooled_var <= 0.0):
            raise StatTestError("a dimension has zero pooled variance; covariance is singular")
        scale = np.sqrt(pooled_var)
        za, zb = a / scale, b / scale
        if not (np.all(np.isfinite(za)) and np.all(np.isfinite(zb))):
            raise StatTestError("a dimension's z-scores overflow; its spread is too small "
                                "for the values it holds")

        pooled_cov = ((na - 1) * np.cov(za, rowvar=False, ddof=1)
                      + (nb - 1) * np.cov(zb, rowvar=False, ddof=1)) / nu
        pooled_cov = np.atleast_2d(pooled_cov)
        diff = za.mean(axis=0) - zb.mean(axis=0)
        try:
            solved = np.linalg.solve(pooled_cov, diff)
        except np.linalg.LinAlgError as exc:
            raise StatTestError("pooled covariance matrix is singular") from exc
        if not np.all(np.isfinite(solved)) or np.linalg.cond(pooled_cov) > 1e12:
            raise StatTestError("pooled covariance matrix is singular")

        t_squared = float(na * nb / (na + nb) * diff @ solved)
    if not np.isfinite(t_squared):
        raise StatTestError("T^2 overflows; the group means are too far apart for their spread")
    # fdtri is the F quantile that scipy.stats.f.ppf computes
    critical = p * nu / (nu - p + 1) * cache.special("fdtri", p, nu - p + 1, 1.0 - alpha)
    if not np.isfinite(critical):  # below about 5.6e-17, 1 - alpha rounds to 1
        raise StatTestError(f"alpha {alpha} is too small for a finite critical value")
    return HotellingResult(
        t_squared=t_squared,
        group_sizes=(na, nb),
        critical_value=critical,
        alpha=alpha,
        significant=t_squared > critical,
    )
