from __future__ import annotations

import itertools
import math
import re
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from riskbench import cache
from riskbench.corpus import (Assessment, Corpus, ProjectRecord, RegisterSnapshot, RiskItem,
                              SizeBand, load_corpus)
from riskbench.errors import LifecycleError, ParseError, StatTestError, TransitionError
from riskbench.lifecycle import (
    Origin,
    Outcome,
    RatioSet,
    RiskLifecycle,
    RiskObservation,
    RiskState,
    RiskTransition,
    StyleThresholds,
    accepts,
    aggregate_ratios,
    build_lifecycle,
    classify_style,
    compute_ratios,
    corpus_ratios,
    hotelling_t2,
    infer_state,
    project_lifecycles,
    read_lifecycle_csv,
    step,
    tabulated_ratios,
)
from riskbench.resources import data_path

from .test_similarity import fresh_value, special_key, store_special

REG, HAP, CLO = RiskState.REG, RiskState.HAP, RiskState.CLO
GEN, OCC, CON, CLS = (
    RiskTransition.GENERATE,
    RiskTransition.OCCUR,
    RiskTransition.CONTINUE,
    RiskTransition.CLOSE,
)


# ----------------------------------------------------------------- automaton


def test_step_table():
    assert step(None, GEN) is REG
    assert step(REG, OCC) is HAP
    assert step(REG, CON) is REG
    assert step(HAP, CON) is HAP
    assert step(CLO, CON) is CLO
    assert step(REG, CLS) is CLO
    assert step(HAP, CLS) is CLO


def test_step_rejects_illegal_pairs():
    with pytest.raises(TransitionError, match=r"\(Clo, occur\)"):
        step(CLO, OCC)
    with pytest.raises(TransitionError, match=r"\(Hap, occur\)"):
        step(HAP, OCC)
    with pytest.raises(TransitionError, match=r"\(Clo, close\)"):
        step(CLO, CLS)
    for state in (REG, HAP, CLO):
        with pytest.raises(TransitionError):
            step(state, GEN)


def test_step_exhaustive_legality():
    legal = {
        (REG, OCC), (REG, CON), (HAP, CON), (CLO, CON), (REG, CLS), (HAP, CLS),
    }
    for state in (REG, HAP, CLO):
        for transition in RiskTransition:
            if (state, transition) in legal:
                step(state, transition)
            else:
                with pytest.raises(TransitionError):
                    step(state, transition)


def test_accepts_examples():
    assert accepts([GEN, OCC, CLS]) is True
    assert accepts([GEN, CLS]) is True
    assert accepts([GEN, OCC]) is False
    assert accepts([]) is False
    assert accepts([OCC, CLS]) is False
    assert accepts([GEN, CON, CON, OCC, CON, CLS]) is True
    assert accepts([GEN, OCC, OCC, CLS]) is False
    assert accepts([GEN, CLS, CON]) is False  # nothing follows close


WORD_RE = re.compile(r"^g c* (?:o c* )?k$".replace(" ", ""))
LETTER = {GEN: "g", OCC: "o", CON: "c", CLS: "k"}


def test_language_matches_regex_oracle_up_to_length_7():
    alphabet = list(RiskTransition)
    total_accepted = 0
    for length in range(1, 8):
        for word in itertools.product(alphabet, repeat=length):
            expected = bool(WORD_RE.match("".join(LETTER[t] for t in word)))
            assert accepts(list(word)) is expected, word
            total_accepted += int(expected)
    # sanity: the language is sparse but inhabited at every length >= 2
    assert total_accepted > 0


# ----------------------------------------------------------------- inference


def test_infer_state_explicit_wins():
    obs = RiskObservation(0, explicit_state=CLO, probability_fraction=0.99, impact_recorded=True)
    assert infer_state(obs) is CLO


def test_infer_state_probability_rule():
    assert infer_state(RiskObservation(0, probability_fraction=0.95, impact_recorded=True)) is HAP
    assert infer_state(RiskObservation(0, probability_fraction=0.95, impact_recorded=False)) is REG
    assert infer_state(RiskObservation(0, probability_fraction=0.5, impact_recorded=True)) is REG
    assert infer_state(RiskObservation(0)) is REG


# ----------------------------------------------------------------- lifecycles


def obs(ordinal, state=None, probability=None, impact=False):
    return RiskObservation(
        snapshot_ordinal=ordinal,
        explicit_state=state,
        probability_fraction=probability,
        impact_recorded=impact,
    )


@dataclass(frozen=True)
class _OracleLifecycle:
    risk_id: str
    origin: Origin
    first_ordinal: int
    state_sequence: tuple[RiskState, ...]
    transitions: tuple[RiskTransition, ...]
    outcome: Outcome


def _lifecycle_oracle(
    risk_id: str,
    observations: Sequence[RiskObservation],
    project_snapshot_count: int,
) -> _OracleLifecycle:
    """build_lifecycle as it was before it read only the observations: it
    tabulates one risk's per-snapshot states and reconstructs its word.

    Unobserved snapshots carry the previous state forward; the final
    snapshot always closes the risk. The reconstructed transition word is
    checked against the automaton language.
    """
    if not observations:
        raise LifecycleError(f"risk {risk_id!r}: no observations")
    ordinals = [obs.snapshot_ordinal for obs in observations]
    if any(b <= a for a, b in zip(ordinals, ordinals[1:])):
        raise LifecycleError(f"risk {risk_id!r}: observation ordinals must strictly ascend")
    final_ordinal = project_snapshot_count - 1
    if ordinals[0] < 0 or ordinals[-1] > final_ordinal:
        raise LifecycleError(
            f"risk {risk_id!r}: ordinals {ordinals} outside snapshots 0..{final_ordinal}"
        )

    observed = {obs.snapshot_ordinal: infer_state(obs) for obs in observations}
    if observed[ordinals[0]] is RiskState.CLO:
        raise LifecycleError(
            f"risk {risk_id!r}: a risk cannot be Closed at its first observation"
        )

    states: list[RiskState] = []
    previous: RiskState | None = None
    for ordinal in range(ordinals[0], final_ordinal + 1):
        current = observed.get(ordinal, previous)
        if previous is RiskState.HAP and current is RiskState.REG:
            raise LifecycleError(
                f"risk {risk_id!r}: illegal regression Hap -> Reg at snapshot {ordinal}"
            )
        if previous is RiskState.CLO and current is not RiskState.CLO:
            raise LifecycleError(
                f"risk {risk_id!r}: reopened after Closed at snapshot {ordinal}"
            )
        states.append(current)
        previous = current

    realized = any(state is RiskState.HAP for state in states)

    transitions: list[RiskTransition] = [RiskTransition.GENERATE]
    if states[0] is RiskState.HAP:
        transitions.append(RiskTransition.OCCUR)
    for before, after in zip(states, states[1:]):
        if after is RiskState.CLO:
            break
        if before is RiskState.REG and after is RiskState.HAP:
            transitions.append(RiskTransition.OCCUR)
        else:
            transitions.append(RiskTransition.CONTINUE)
    transitions.append(RiskTransition.CLOSE)

    word = tuple(transitions)
    if not accepts(word):
        raise LifecycleError(f"risk {risk_id!r}: reconstructed word is not accepted: {word}")

    # Assumption 4: the final register closes everything.
    states[-1] = RiskState.CLO
    return _OracleLifecycle(
        risk_id=risk_id,
        origin=Origin.INITIAL if ordinals[0] == 0 else Origin.CONSTRUCTION,
        first_ordinal=ordinals[0],
        state_sequence=tuple(states),
        transitions=word,
        outcome=Outcome.REALIZED if realized else Outcome.DISMISSED,
    )


def test_build_lifecycle_matches_the_oracle_on_every_small_tabulation():
    """Every state tuple at every ordinal subset of 1-7 snapshots: the same
    origin and outcome as the per-snapshot walk, or the same error text."""
    built = cases = 0
    for count in range(1, 8):
        for size in range(1, count + 1):
            for ordinals in itertools.combinations(range(count), size):
                for states in itertools.product(RiskState, repeat=size):
                    observations = [obs(ordinal, state) for ordinal, state in zip(ordinals, states)]
                    cases += 1
                    try:
                        expected = _lifecycle_oracle("r", observations, count)
                    except LifecycleError as exc:
                        with pytest.raises(LifecycleError) as excinfo:
                            build_lifecycle("r", observations)
                        assert str(excinfo.value) == str(exc), observations
                        continue
                    lifecycle = build_lifecycle("r", observations)
                    assert (lifecycle.origin, lifecycle.outcome) == (
                        expected.origin, expected.outcome), observations
                    assert accepts(list(expected.transitions))
                    assert (OCC in expected.transitions) == (
                        lifecycle.outcome is Outcome.REALIZED), observations
                    built += 1
    assert (cases, built) == (21837, 2561)


def test_build_lifecycle_realized_initial():
    lifecycle = build_lifecycle("r", [obs(0, REG), obs(1, HAP)])
    assert lifecycle.outcome is Outcome.REALIZED
    assert lifecycle.origin is Origin.INITIAL
    oracle = _lifecycle_oracle("r", [obs(0, REG), obs(1, HAP)], 2)
    assert oracle.transitions == (GEN, OCC, CLS)
    assert oracle.state_sequence[-1] is CLO


def test_build_lifecycle_dismissed_construction():
    lifecycle = build_lifecycle("r", [obs(1, REG), obs(2, REG)])
    assert lifecycle.outcome is Outcome.DISMISSED
    assert lifecycle.origin is Origin.CONSTRUCTION
    assert _lifecycle_oracle("r", [obs(1, REG), obs(2, REG)], 3).transitions == (GEN, CON, CLS)


def test_build_lifecycle_closed_first_observation_rejected():
    with pytest.raises(LifecycleError, match="Closed at its first observation"):
        build_lifecycle("r", [obs(0, CLO)])


def test_build_lifecycle_regression_rejected():
    with pytest.raises(LifecycleError, match="regression"):
        build_lifecycle("r", [obs(0, HAP), obs(1, REG)])


def test_build_lifecycle_reopened_rejected():
    with pytest.raises(LifecycleError, match="reopened"):
        build_lifecycle("r", [obs(0, CLO if False else REG), obs(1, CLO), obs(2, HAP)])


def test_build_lifecycle_gap_persists_state():
    lifecycle = build_lifecycle("r", [obs(0, REG), obs(3, HAP)])
    assert lifecycle.outcome is Outcome.REALIZED
    oracle = _lifecycle_oracle("r", [obs(0, REG), obs(3, HAP)], 5)
    assert oracle.state_sequence == (REG, REG, REG, HAP, CLO)
    # Hap persists into the final register; the close lands at completion
    assert oracle.transitions == (GEN, CON, CON, OCC, CON, CLS)


def test_build_lifecycle_early_close_stays_closed():
    lifecycle = build_lifecycle("r", [obs(0, REG), obs(1, CLO)])
    assert lifecycle.outcome is Outcome.DISMISSED
    oracle = _lifecycle_oracle("r", [obs(0, REG), obs(1, CLO)], 4)
    assert oracle.state_sequence == (REG, CLO, CLO, CLO)
    assert oracle.transitions == (GEN, CLS)


def test_build_lifecycle_single_final_observation():
    realized = build_lifecycle("r", [obs(2, HAP)])
    assert realized.outcome is Outcome.REALIZED
    assert realized.origin is Origin.CONSTRUCTION
    assert _lifecycle_oracle("r", [obs(2, HAP)], 3).transitions == (GEN, OCC, CLS)
    dismissed = build_lifecycle("r", [obs(2, REG)])
    assert dismissed.outcome is Outcome.DISMISSED
    assert _lifecycle_oracle("r", [obs(2, REG)], 3).transitions == (GEN, CLS)


def test_build_lifecycle_hap_at_final_counts_realized():
    lifecycle = build_lifecycle("r", [obs(0, REG), obs(2, HAP)])
    assert lifecycle.outcome is Outcome.REALIZED
    assert _lifecycle_oracle("r", [obs(0, REG), obs(2, HAP)], 3).state_sequence[-1] is CLO


def test_build_lifecycle_word_is_accepted_language():
    for observations, count in [
        ([obs(0, REG)], 1),
        ([obs(0, REG), obs(1, HAP)], 4),
        ([obs(2, REG)], 5),
        ([obs(1, HAP)], 2),
    ]:
        assert accepts(list(_lifecycle_oracle("r", observations, count).transitions))


def test_outcome_realized_iff_occur_in_word():
    cases = [
        ([obs(0, REG)], 3),
        ([obs(0, REG), obs(1, HAP)], 3),
        ([obs(0, REG), obs(2, CLO)], 4),
        ([obs(1, HAP), obs(2, CLO)], 4),
        ([obs(0, REG), obs(1, REG), obs(2, REG)], 3),
        ([obs(2, HAP)], 3),
    ]
    for observations, count in cases:
        realized = build_lifecycle("r", observations).outcome is Outcome.REALIZED
        word = _lifecycle_oracle("r", observations, count).transitions
        assert realized == (OCC in word), observations


def test_build_lifecycle_validation_errors():
    with pytest.raises(LifecycleError, match="no observations"):
        build_lifecycle("r", [])
    with pytest.raises(LifecycleError, match="ascend"):
        build_lifecycle("r", [obs(1, REG), obs(1, REG)])
    with pytest.raises(LifecycleError, match=r"^risk 'r': first ordinal -1 is negative$"):
        build_lifecycle("r", [obs(-1, REG), obs(2, REG)])


def _word_oracle(states):
    """The transition word as an earlier build_lifecycle built it: a loop with
    a flag that stops after the first Closed state."""
    transitions = [GEN]
    if states[0] is HAP:
        transitions.append(OCC)
    closed = False
    for before, after in zip(states, states[1:]):
        if closed:
            break
        if after is CLO:
            if before is not CLO:
                transitions.append(CLS)
                closed = True
        elif before is REG and after is HAP:
            transitions.append(OCC)
        else:
            transitions.append(CON)
    if not closed:
        transitions.append(CLS)
    return tuple(transitions)


def test_build_lifecycle_word_matches_the_flag_loop_on_every_state_sequence():
    built = 0
    for length in range(1, 9):
        for states in itertools.product(RiskState, repeat=length):
            observations = [obs(ordinal, state) for ordinal, state in enumerate(states)]
            try:
                lifecycle = _lifecycle_oracle("r", observations, length)
            except LifecycleError:
                continue
            assert lifecycle.transitions == _word_oracle(states), states
            built += 1
    assert built == 156  # Reg* Hap* Clo* with a live first state, lengths 1-8


# ----------------------------------------------------------------- ratios


def test_ratios_worked_example():
    ratios = RatioSet.from_counts(43, 39, 103, 68)
    assert ratios.initial_realization == pytest.approx(0.91, abs=0.005)
    assert ratios.further_realized == pytest.approx(0.66, abs=0.005)
    assert ratios.new_item == pytest.approx(0.71, abs=0.005)
    assert ratios.total_realization == pytest.approx(0.73, abs=0.005)
    assert ratios.initial_efficiency == pytest.approx(0.36, abs=0.005)


def test_ratios_all_dismissed():
    lifecycles = [
        build_lifecycle("a", [obs(0, REG)]),
        build_lifecycle("b", [obs(1, REG)]),
    ]
    ratios = compute_ratios(lifecycles)
    assert ratios.total_realization == 0.0
    assert ratios.total_dismissed == 1.0


def test_ratios_table19_project_1():
    ratios = RatioSet.from_counts(32, 31, 6, 6)
    assert ratios.total_realization == pytest.approx(37 / 38, abs=1e-9)
    assert ratios.new_item == pytest.approx(6 / 38, abs=1e-9)


def test_ratios_identities():
    ratios = RatioSet.from_counts(10, 7, 5, 2)
    assert ratios.total_realization + ratios.total_dismissed == pytest.approx(1.0)
    assert ratios.initial_realization + ratios.initial_dismissed == pytest.approx(1.0)
    # integer identity: initial_efficiency * total_realized == initial_realized
    assert ratios.initial_efficiency * (7 + 2) == pytest.approx(7.0)


def test_ratios_zero_denominators_are_unset():
    ratios = RatioSet.from_counts(0, 0, 4, 0)
    assert ratios.initial_realization is None
    assert ratios.initial_efficiency is None  # nothing realized
    assert ratios.new_item == 1.0
    assert ratios.further_realized == 0.0


def test_ratios_invalid_counts():
    with pytest.raises(LifecycleError):
        RatioSet.from_counts(3, 4, 0, 0)


def test_compute_ratios_permutation_invariant():
    lifecycles = [
        build_lifecycle("a", [obs(0, REG), obs(1, HAP)]),
        build_lifecycle("b", [obs(0, REG)]),
        build_lifecycle("c", [obs(1, HAP)]),
        build_lifecycle("d", [obs(2, REG)]),
    ]
    forward = compute_ratios(lifecycles)
    backward = compute_ratios(list(reversed(lifecycles)))
    assert forward == backward


def test_compute_ratios_empty():
    with pytest.raises(LifecycleError):
        compute_ratios([])


def test_aggregate_single_project_is_identity():
    ratios = RatioSet.from_counts(5, 3, 2, 1)
    assert aggregate_ratios({"p": ratios}) == ratios


def test_aggregate_pools_counts_not_ratios():
    a = RatioSet.from_counts(10, 10, 0, 0)   # realization 1.0
    b = RatioSet.from_counts(90, 9, 0, 0)    # realization 0.1
    pooled = aggregate_ratios({"a": a, "b": b})
    assert pooled.total_realization == pytest.approx(19 / 100)
    mean_of_ratios = (1.0 + 0.1) / 2
    assert pooled.total_realization != pytest.approx(mean_of_ratios)


def test_fixture_pooled_matches_published_averages(expost_manifest):
    corpus = load_corpus(expost_manifest)
    per_project, pooled = corpus_ratios(corpus)
    assert len(per_project) == 11
    assert pooled.total_realization == pytest.approx(0.646, abs=0.01)
    assert pooled.initial_realization == pytest.approx(0.561, abs=0.01)
    assert pooled.further_realized == pytest.approx(0.730, abs=0.01)
    assert pooled.new_item == pytest.approx(0.504, abs=0.01)
    assert pooled.initial_efficiency == pytest.approx(0.430, abs=0.01)


def test_fixture_csv_route_matches_register_route(expost_manifest):
    corpus = load_corpus(expost_manifest)
    per_register, pooled_register = corpus_ratios(corpus)
    csv_path = data_path("fixtures", "expost", "lifecycle_table19.csv")
    per_csv, pooled_csv = tabulated_ratios(
        read_lifecycle_csv(csv_path.read_bytes(), str(csv_path))
    )
    assert pooled_csv == pooled_register
    assert per_csv == per_register


def test_read_lifecycle_csv_errors():
    with pytest.raises(ParseError, match="state"):
        read_lifecycle_csv(b"project_id,risk_id,snapshot\n1,r,0\n")
    with pytest.raises(ParseError, match="unknown state"):
        read_lifecycle_csv(b"project_id,risk_id,snapshot,state\n1,r,0,Open\n")
    with pytest.raises(ParseError, match="integer"):
        read_lifecycle_csv(b"project_id,risk_id,snapshot,state\n1,r,x,Reg\n")
    with pytest.raises(ParseError, match=r"^lc\.csv, row 3: snapshot must be >= 0, got -1$"):
        read_lifecycle_csv(b"project_id,risk_id,snapshot,state\n1,r,0,Reg\n1,r,-1,Reg\n", "lc.csv")
    # a repeated row, and rows out of order; other risks' rows may come between
    header = b"project_id,risk_id,snapshot,state\n"
    for rows, row, later, earlier in [(b"1,r,1,Reg\n1,r,1,Reg\n", 3, 1, 1),
                                      (b"1,r,2,Reg\n1,q,0,Reg\n2,r,0,Reg\n1,r,0,Reg\n", 5, 0, 2)]:
        with pytest.raises(ParseError) as excinfo:
            read_lifecycle_csv(header + rows, "lc.csv")
        assert str(excinfo.value) == (
            f"lc.csv, row {row}: snapshot {later} must exceed snapshot {earlier} of the "
            "previous row of project '1', risk 'r'")
    with pytest.raises(ParseError, match=r"^<lifecycle>, row 3: missing project_id$"):
        read_lifecycle_csv(b"project_id,risk_id,snapshot,state\n1,r,0,Reg\n ,r,0,Reg\n")
    with pytest.raises(ParseError, match=r"^lc\.csv, row 2: missing risk_id$"):
        read_lifecycle_csv(b"project_id,risk_id,snapshot,state\n1,,0,Reg\n", "lc.csv")
    # a short row: the last column is missing, not empty
    with pytest.raises(ParseError, match=r"^lc\.csv, row 2: missing project_id$"):
        read_lifecycle_csv(b"state,snapshot,risk_id,project_id\nReg,0,r1\n", "lc.csv")
    cell = b"x" * 200_000  # past the csv module's field limit of 131,072 characters
    with pytest.raises(ParseError, match=r"^lc\.csv, row 1: field larger than field limit"):
        read_lifecycle_csv(b"project_id,risk_id,snapshot,state," + cell + b"\n", "lc.csv")
    with pytest.raises(ParseError, match=r"^lc\.csv, row 3: field larger than field limit"):
        read_lifecycle_csv(b"project_id,risk_id,snapshot,state\n1,r,0,Reg\n1,r2,0," + cell
                           + b"\n", "lc.csv")


# Both CSV inputs, a register and the lifecycle table, follow one set of CSV
# rules. Each file below holds every column either reader needs; its rows are
# risks of project p at snapshot 0, Registered. Both readers must read the
# same risk ids in order, or fail at the same place: the text after the file
# name, up to the first ": " of a row error.
CSV_HEADER = "project_id,risk_id,name,snapshot,state"
CSV_EDGE_CASES = {
    "plain": (f"{CSV_HEADER}\np,r1,n,0,Reg\np,r2,n,0,Reg\n", ["r1", "r2"]),
    "byte-order mark": (f"\ufeff{CSV_HEADER}\np,r1,n,0,Reg\n", ["r1"]),
    "CRLF": (f"{CSV_HEADER}\r\np,r1,n,0,Reg\r\np,r2,n,0,Reg\r\n", ["r1", "r2"]),
    "blank lines": (f"{CSV_HEADER}\n\np,r1,n,0,Reg\n\n\np,r2,n,0,Reg\n\n", ["r1", "r2"]),
    "blank lines count": (f"{CSV_HEADER}\np,r1,n,0,Reg\n\n\np,,n,0,Reg\n", ", row 5"),
    "quoted line break": (f'{CSV_HEADER}\np,r1,"a\nb",0,Reg\np,,n,0,Reg\n', ", row 4"),
    "short row": (f"{CSV_HEADER}\np,r1\n", ", row 2"),
    "repeated header name": (f"{CSV_HEADER},risk_id\np,r1,n,0,Reg,r9\n", ["r9"]),
    "repeated name past a short row": (f"{CSV_HEADER},risk_id\np,r1,n,0,Reg\n", ", row 2"),
    "extra columns": (f"note,{CSV_HEADER}\nx,p,r1,n,0,Reg,y,z\n", ["r1"]),
    "missing required column": ("project_id,name,snapshot,state\np,n,0,Reg\n",
                                ": header is missing required column 'risk_id'"),
    "cell past the field limit": (f"{CSV_HEADER}\np,r1,n,0,Reg\np,r2,{'x' * 200_000},0,Reg\n",
                                  ", row 3: field larger than field limit"),
}


@pytest.mark.parametrize("case", sorted(CSV_EDGE_CASES))
def test_register_and_lifecycle_csv_follow_the_same_csv_rules(case):
    from riskbench.corpus import parse_register

    text, expected = CSV_EDGE_CASES[case]
    data = text.encode("utf-8")
    readers = {
        "register": lambda: [item.risk_id for item in parse_register(data, "csv", "in.csv").items],
        "lifecycle": lambda: [risk_id for risks in read_lifecycle_csv(data, "in.csv").values()
                              for risk_id in risks],
    }
    for name, read in readers.items():
        if isinstance(expected, list):
            assert read() == expected, name
            continue
        with pytest.raises(ParseError) as excinfo:
            read()
        message = str(excinfo.value)
        assert message.startswith(f"in.csv{expected}"), (name, message)
        assert message.split(": ")[0] == f"in.csv{expected}".split(": ")[0], (name, message)


def test_tabulated_ratios_error_names_the_project():
    # both projects hold a risk r1; only p2's goes Hap -> Reg
    observations = read_lifecycle_csv(
        b"project_id,risk_id,snapshot,state\np1,r1,0,Reg\np1,r1,1,Hap\np2,r1,0,Hap\np2,r1,1,Reg\n")
    with pytest.raises(LifecycleError) as excinfo:
        tabulated_ratios(observations)
    assert str(excinfo.value) == (
        "project 'p2': risk 'r1': illegal regression Hap -> Reg at snapshot 1")


def test_project_lifecycles_requires_snapshot_zero(expost_manifest):
    from dataclasses import replace

    corpus = load_corpus(expost_manifest)
    project = corpus.projects[0]
    assert project.project_id == "1"
    truncated = replace(project, snapshots=project.snapshots[1:])
    with pytest.raises(LifecycleError, match="snapshot 0"):
        project_lifecycles(truncated)


# The per-risk path that `corpus_ratios`, `project_lifecycles` and
# `tabulated_ratios` took before they folded rows: one RiskObservation per
# record, then one build_lifecycle per risk, then counts per project.
def _oracle_infer_state(obs: RiskObservation) -> RiskState:
    if obs.explicit_state is not None:
        return obs.explicit_state
    if (obs.probability_fraction is not None and obs.probability_fraction >= 0.9
            and obs.impact_recorded):
        return HAP
    return REG


def _oracle_build_lifecycle(risk_id: str, observations: Sequence[RiskObservation]):
    if not observations:
        raise LifecycleError(f"risk {risk_id!r}: no observations")
    ordinals = [obs.snapshot_ordinal for obs in observations]
    if any(b <= a for a, b in zip(ordinals, ordinals[1:])):
        raise LifecycleError(f"risk {risk_id!r}: observation ordinals must strictly ascend")
    if ordinals[0] < 0:
        raise LifecycleError(f"risk {risk_id!r}: first ordinal {ordinals[0]} is negative")
    states = [_oracle_infer_state(obs) for obs in observations]
    if states[0] is CLO:
        raise LifecycleError(f"risk {risk_id!r}: a risk cannot be Closed at its first observation")
    for ordinal, before, after in zip(ordinals[1:], states, states[1:]):
        if before is HAP and after is REG:
            raise LifecycleError(
                f"risk {risk_id!r}: illegal regression Hap -> Reg at snapshot {ordinal}")
        if before is CLO and after is not CLO:
            raise LifecycleError(f"risk {risk_id!r}: reopened after Closed at snapshot {ordinal}")
    return RiskLifecycle(risk_id, Origin.INITIAL if ordinals[0] == 0 else Origin.CONSTRUCTION,
                         Outcome.REALIZED if HAP in states else Outcome.DISMISSED)


_ORACLE_STATES = {"reg": REG, "registered": REG, "hap": HAP, "happening": HAP, "clo": CLO,
                  "closed": CLO}


def _oracle_observations(project) -> dict[str, list[RiskObservation]]:
    """Each risk's observations, read from the snapshots' records."""
    observations: dict[str, list[RiskObservation]] = {}
    for snapshot in project.snapshots:
        for item in snapshot.items:
            a = item.assessment
            note = item.status_note
            observations.setdefault(item.risk_id, []).append(RiskObservation(
                snapshot.ordinal, None if note is None else _ORACLE_STATES.get(note.strip().lower()),
                a.raw_probability,
                any(v is not None for v in (a.raw_cost, a.raw_schedule, a.cost_band,
                                            a.schedule_band))))
    return observations


def _oracle_lifecycles(project_id: str, risks: dict[str, list[RiskObservation]]):
    try:
        return [_oracle_build_lifecycle(risk_id, obs) for risk_id, obs in risks.items()]
    except LifecycleError as exc:
        raise LifecycleError(f"project {project_id!r}: {exc}") from exc


def _oracle_project_lifecycles(project):
    if project.snapshots[0].ordinal != 0:
        raise LifecycleError(
            f"project {project.project_id!r}: lifecycle analysis needs snapshot 0")
    return _oracle_lifecycles(project.project_id, _oracle_observations(project))


def _oracle_compute_ratios(lifecycles) -> RatioSet:
    if not lifecycles:
        raise LifecycleError("cannot compute ratios over zero lifecycles")
    counts = [0, 0, 0, 0]
    for lifecycle in lifecycles:
        first = 0 if lifecycle.origin is Origin.INITIAL else 2
        counts[first] += 1
        counts[first + 1] += lifecycle.outcome is Outcome.REALIZED
    return RatioSet.from_counts(*counts)


def _oracle_corpus_ratios(corpus):
    per_project = {}
    for project in corpus.projects:
        lifecycles = _oracle_project_lifecycles(project)
        if not lifecycles:
            raise LifecycleError(f"project {project.project_id!r}: cannot compute ratios over "
                                 "zero lifecycles; its registers are empty")
        per_project[project.project_id] = _oracle_compute_ratios(lifecycles)
    return per_project, aggregate_ratios(per_project)


def _oracle_tabulated_ratios(projects):
    per_project = {project_id: _oracle_compute_ratios(_oracle_lifecycles(project_id, risks))
                   for project_id, risks in projects.items()}
    return per_project, aggregate_ratios(per_project)


def _same_outcome(path, oracle, *args) -> None:
    """`path(*args)` returns what `oracle(*args)` returns, or raises the same
    type with the same message."""
    try:
        expected = oracle(*args)
    except LifecycleError as exc:
        with pytest.raises(LifecycleError) as excinfo:
            path(*args)
        assert (type(excinfo.value), str(excinfo.value)) == (type(exc), str(exc))
    else:
        assert path(*args) == expected


# mostly no note; else notes that name a state in any case and spacing, and
# notes that name none
_NOTES = st.sampled_from([None] * 14 + ["Reg", " registered ", "HAP", "Happening", "clo",
                                        "Closed ", "open", ""])
# a probability at, below and above the Happening bound, and impacts that are
# unset, zero (recorded all the same) or set
_ASSESSMENTS = st.builds(
    Assessment, probability_band=st.sampled_from([None, 5]), cost_band=st.sampled_from([None, 3]),
    schedule_band=st.sampled_from([None, 2]),
    raw_probability=st.sampled_from([None, 0.0, 0.5, 0.89, 0.9, 0.95, 1.0]),
    raw_cost=st.sampled_from([None, 0.0, 2.5]), raw_schedule=st.sampled_from([None, 0.0, 1.0]))


@st.composite
def _small_corpora(draw) -> Corpus:
    """1-2 projects of up to 5 snapshots at ordinals 0-4 (snapshot 0 missing
    in about one in eight), each holding up to 4 of the same risk ids in any
    order, or none."""
    projects = []
    for index in range(draw(st.integers(1, 2))):
        ordinals = sorted({*draw(st.lists(st.integers(1, 4), max_size=4)),
                           *([] if draw(st.integers(0, 7)) == 0 else [0])} or {2})
        snapshots = []
        for ordinal in ordinals:
            ids = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), unique=True, max_size=4))
            snapshots.append(RegisterSnapshot(ordinal, [
                RiskItem(risk_id, "risk", assessment=draw(_ASSESSMENTS), status_note=draw(_NOTES))
                for risk_id in ids]))
        projects.append(ProjectRecord(f"p{index}", "", "", "", SizeBand.UNDER_500M, None, None,
                                      tuple(snapshots)))
    return Corpus(tuple(projects))


@settings(deadline=None, max_examples=400)
@given(_small_corpora())
def test_corpus_ratios_match_the_per_risk_oracle(corpus):
    _same_outcome(corpus_ratios, _oracle_corpus_ratios, corpus)
    for project in corpus.projects:
        _same_outcome(project_lifecycles, _oracle_project_lifecycles, project)
    # the same observations, pre-tabulated by their states
    tabulated = {project.project_id: {
        risk_id: [RiskObservation(obs.snapshot_ordinal, _oracle_infer_state(obs))
                  for obs in observations]
        for risk_id, observations in _oracle_observations(project).items()}
        for project in corpus.projects}
    _same_outcome(tabulated_ratios, _oracle_tabulated_ratios, tabulated)


def _project(*snapshots: tuple[int, list[tuple[str, str]]]) -> ProjectRecord:
    """A project of (ordinal, [(risk_id, status note)]) snapshots."""
    return ProjectRecord("p", "", "", "", SizeBand.UNDER_500M, None, None, tuple(
        RegisterSnapshot(ordinal, [RiskItem(risk_id, "risk", status_note=note)
                                   for risk_id, note in risks])
        for ordinal, risks in snapshots))


def test_the_first_risk_to_appear_raises_its_first_violation():
    # risk a breaks a rule at snapshot 3; b, which appears after a, at snapshot 1
    project = _project((0, [("a", "Reg"), ("b", "Hap")]), (1, [("b", "Reg"), ("a", "Hap")]),
                       (2, [("b", "Clo")]), (3, [("a", "Reg"), ("b", "Hap")]))
    message = "project 'p': risk 'a': illegal regression Hap -> Reg at snapshot 3"
    for path in (_oracle_project_lifecycles, project_lifecycles):
        with pytest.raises(LifecycleError) as excinfo:
            path(project)
        assert str(excinfo.value) == message
    with pytest.raises(LifecycleError) as excinfo:
        corpus_ratios(Corpus((project,)))
    assert str(excinfo.value) == message


# ----------------------------------------------------------------- styles


def test_classify_style_examples():
    doer = classify_style(RatioSet.from_counts(43, 39, 103, 68))
    assert (doer.axis1, doer.axis2) == ("doer", "careful")
    planner = classify_style(RatioSet.from_counts(32, 31, 6, 6))
    assert (planner.axis1, planner.axis2) == ("planner", "careful")
    excessive = classify_style(RatioSet.from_counts(15, 3, 2, 0))
    assert (excessive.axis1, excessive.axis2) == ("planner", "excessive")


def test_classify_style_boundary_is_doer():
    ratios = RatioSet.from_counts(5, 5, 5, 5)  # new_item exactly 0.5
    label = classify_style(ratios)
    assert label.axis1 == "doer"


def test_classify_style_zero_construction_falls_back_to_planner_axis():
    ratios = RatioSet.from_counts(8, 6, 0, 0)
    label = classify_style(ratios)
    assert label.axis1 == "planner"
    assert label.axis2 == "careful"


def test_classify_style_unclassifiable():
    empty_new_item = RatioSet.from_counts(0, 0, 0, 0)
    assert classify_style(empty_new_item) is None


def test_classify_style_threshold_override():
    ratios = RatioSet.from_counts(10, 4, 3, 3)  # new_item ~0.23
    strict = classify_style(ratios, StyleThresholds(doer_new_item=0.2, careful=0.9))
    assert strict.axis1 == "doer"
    assert strict.axis2 == "careful"  # further_realized 1.0 >= 0.9


# ----------------------------------------------------------------- hotelling


def test_hotelling_zero_difference():
    group_a = [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]]
    shift = [10.0, -5.0]
    group_b = [[x + shift[0], y + shift[1]] for x, y in group_a]
    centered_b = [[x - 10.0, y + 5.0] for x, y in group_b]  # same mean as A
    result = hotelling_t2(group_a, centered_b)
    assert result.t_squared == pytest.approx(0.0, abs=1e-12)
    assert not result.significant


def _hand_t2(group_a, group_b):
    """Explicit 2x2 inversion oracle on z-scored data."""
    a = np.asarray(group_a, dtype=float)
    b = np.asarray(group_b, dtype=float)
    na, nb = len(a), len(b)
    nu = na + nb - 2
    pooled_var = ((na - 1) * a.var(axis=0, ddof=1) + (nb - 1) * b.var(axis=0, ddof=1)) / nu
    a = a / np.sqrt(pooled_var)
    b = b / np.sqrt(pooled_var)
    cov = ((na - 1) * np.cov(a, rowvar=False, ddof=1) + (nb - 1) * np.cov(b, rowvar=False, ddof=1)) / nu
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inverse = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
    d = a.mean(axis=0) - b.mean(axis=0)
    return na * nb / (na + nb) * float(d @ inverse @ d)


def test_hotelling_matches_hand_inverted_2x2():
    group_a = [[-0.10, 0.17], [-0.05, 0.02], [0.02, 0.30], [-0.20, 0.12], [0.04, 0.25]]
    group_b = [[0.22, -0.04], [0.15, 0.03], [0.30, -0.12], [0.28, 0.08]]
    result = hotelling_t2(group_a, group_b)
    assert result.t_squared == pytest.approx(_hand_t2(group_a, group_b), abs=1e-9)
    assert result.group_sizes == (5, 4)
    assert result.critical_value > 0


def test_hotelling_scale_invariance():
    group_a = [[-0.10, 0.17], [-0.05, 0.02], [0.02, 0.30], [-0.20, 0.12]]
    group_b = [[0.22, -0.04], [0.15, 0.03], [0.30, -0.12]]
    base = hotelling_t2(group_a, group_b)
    scaled = hotelling_t2(
        [[10 * x, y] for x, y in group_a], [[10 * x, y] for x, y in group_b]
    )
    assert scaled.t_squared == pytest.approx(base.t_squared, abs=1e-9)
    assert scaled.critical_value == pytest.approx(base.critical_value, abs=1e-12)


def test_hotelling_critical_value_from_f():
    from scipy import stats

    group_a = [[-0.10, 0.17], [-0.05, 0.02], [0.02, 0.30], [-0.20, 0.12]]
    group_b = [[0.22, -0.04], [0.15, 0.03], [0.30, -0.12]]
    result = hotelling_t2(group_a, group_b, alpha=0.05)
    nu, p = 4 + 3 - 2, 2
    expected = p * nu / (nu - p + 1) * stats.f.ppf(0.95, p, nu - p + 1)
    assert result.critical_value == pytest.approx(expected, abs=1e-12)

    # Over a grid of (alpha, p, nu) the critical value is exactly the one
    # scipy.stats gives.
    rng = np.random.default_rng(11)
    for p in (1, 2, 3, 5):
        for na, nb in ((p + 1, 2), (6, 5), (20, 35), (150, 120)):
            a = rng.normal(0.0, 1.0, (na, p))
            b = rng.normal(0.5, 1.5, (nb, p))
            nu = na + nb - 2
            for alpha in (0.001, 0.01, 0.05, 0.1, 0.5, 0.9):
                result = hotelling_t2(a, b, alpha=alpha)
                expected = float(
                    p * nu / (nu - p + 1) * stats.f.ppf(1.0 - alpha, p, nu - p + 1))
                assert result.critical_value == expected


def test_hotelling_alpha_too_small_for_a_finite_critical_value():
    group_a = [[-0.10, 0.17], [-0.05, 0.02], [0.02, 0.30], [-0.20, 0.12]]
    group_b = [[0.22, -0.04], [0.15, 0.03], [0.30, -0.12]]
    assert math.isfinite(hotelling_t2(group_a, group_b, alpha=1e-16).critical_value)
    for alpha in (5e-17, 1e-20, 5e-324):  # 1 - alpha rounds to 1
        with pytest.raises(StatTestError, match=f"alpha {alpha} is too small"):
            hotelling_t2(group_a, group_b, alpha=alpha)


H_GROUPS = ([[-0.10, 0.17], [-0.05, 0.02], [0.02, 0.30], [-0.20, 0.12]],
            [[0.22, -0.04], [0.15, 0.03], [0.30, -0.12]])
H_CALL = f"hotelling_t2(*{H_GROUPS!r}).critical_value"
# the arguments of the F quantile that hotelling_t2(*H_GROUPS) takes: p, nu - p + 1, 1 - alpha
H_FDTRI = (2, 4, 1.0 - 0.05)


def test_hotelling_critical_value_is_kept_for_a_fresh_process(tmp_path):
    expected = hotelling_t2(*H_GROUPS).critical_value
    assert fresh_value(H_CALL, tmp_path) == (expected, True)  # a miss stores the value
    [entry] = (tmp_path / "riskbench").iterdir()
    assert entry.name.startswith("special-")
    # a hit does not import scipy.special, and touches only the entry's marker of last use
    assert fresh_value(H_CALL, tmp_path) == (expected, False)
    marker = entry.with_name(f"{entry.name}.used")
    assert sorted((tmp_path / "riskbench").iterdir()) == [entry, marker]


def test_unwritable_special_cache_still_computes_and_says_nothing(tmp_path, monkeypatch):
    expected = hotelling_t2(*H_GROUPS).critical_value
    # a cache home that is a file: the cache dir cannot be created
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    assert fresh_value(H_CALL, blocker) == (expected, True)  # fresh_value checks the silence
    # an entry path taken by a directory can be neither read nor replaced
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    entry = cache.entry_path("special", special_key("fdtri", H_FDTRI))
    entry.mkdir(parents=True)
    for _ in range(2):
        assert fresh_value(H_CALL, tmp_path / "cache") == (expected, True)
    assert list(entry.parent.iterdir()) == [entry]  # no temp file left behind


def test_special_does_no_file_io_once_scipy_special_is_loaded(tmp_path, monkeypatch):
    import scipy.special

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    # a wrong value for the first call: were the entry read, that result would differ
    entry = store_special(special_key("fdtri", H_FDTRI), struct.pack("<d", 1.0))

    def listing():
        return [(path.name, path.stat().st_size, path.stat().st_mtime_ns)
                for path in entry.parent.iterdir()]

    before = listing()
    values = [hotelling_t2(*H_GROUPS, alpha=0.05 + i / 1000).critical_value for i in range(100)]
    assert values[0] == 2 * 5 / 4 * float(scipy.special.fdtri(*H_FDTRI))
    assert len(set(values)) == 100
    assert listing() == before


def test_hotelling_singular_covariance():
    group_a = [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]  # second column = 2x first
    group_b = [[1.5, 3.0], [2.5, 5.0], [0.5, 1.0]]
    with pytest.raises(StatTestError, match="singular"):
        hotelling_t2(group_a, group_b)


def test_hotelling_preconditions():
    with pytest.raises(StatTestError):
        hotelling_t2([[1.0, 2.0]], [[1.0, 2.0], [2.0, 3.0]])
    with pytest.raises(StatTestError):
        hotelling_t2([[1.0]], [[1.0, 2.0]])
