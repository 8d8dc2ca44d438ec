from __future__ import annotations

import csv
import hashlib
import io
import json
import marshal
import math
import os
import shutil
import subprocess
import sys
import tempfile
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import riskbench
from riskbench import cache
from riskbench.corpus import (
    BANDS,
    REGISTER_CSV_COLUMNS,
    Assessment,
    Corpus,
    ProjectRecord,
    Qualitative,
    RegisterSnapshot,
    RiskItem,
    SizeBand,
    band_for,
    band_mean,
    default_scale_config,
    load_corpus,
    load_scale_config,
    normalize_assessment,
    parse_register,
)
from riskbench.errors import CorpusError, NormalizeError, ParseError

CSV_HEADER = "risk_id,name,description,category,probability,cost_impact,schedule_impact,status,snapshot\n"


def test_parse_csv_two_rows_in_order():
    data = (CSV_HEADER + "u1,Utility relocation,,,,,,,\nd1,Design changes,,,,,,,\n").encode()
    snapshot = parse_register(data, "csv")
    assert [item.name for item in snapshot.items] == ["Utility relocation", "Design changes"]
    assert [item.risk_id for item in snapshot.items] == ["u1", "d1"]


def test_parse_csv_empty_name_names_row():
    data = (CSV_HEADER + "u1,Utility relocation,,,,,,,\nd1,   ,,,,,,,\n").encode()
    with pytest.raises(ParseError, match="row 3"):
        parse_register(data, "csv")


def test_parse_csv_duplicate_risk_id():
    data = (CSV_HEADER + "u1,A,,,,,,,\nu1,B,,,,,,,\n").encode()
    with pytest.raises(ParseError, match="duplicate risk_id"):
        parse_register(data, "csv")


def test_parse_csv_missing_required_column():
    with pytest.raises(ParseError, match="risk_id"):
        parse_register(b"name\nfoo\n", "csv")


def test_parse_csv_cell_past_the_field_limit_names_the_row():
    cell = "x" * 200_000  # past the csv module's field limit of 131,072 characters
    with pytest.raises(ParseError, match=r"^r\.csv, row 1: field larger than field limit"):
        parse_register(f"risk_id,name,{cell}\nr1,A,\n".encode(), "csv", "r.csv")
    data = CSV_HEADER + "r1,A,,,,,,,\n" + f"r2,B,{cell},,,,,,\n"
    with pytest.raises(ParseError, match=r"^r\.csv, row 3: field larger than field limit"):
        parse_register(data.encode(), "csv", "r.csv")


def test_parse_csv_band_and_raw_values():
    data = (CSV_HEADER + "r1,A,,,3,0.25,2.0,,\n").encode()
    item = parse_register(data, "csv").items[0]
    assert item.assessment.probability_band == 3
    assert item.assessment.raw_cost == 0.25
    assert item.assessment.raw_schedule == 2.0


def test_parse_csv_band_out_of_range():
    data = (CSV_HEADER + "r1,A,,,7,,,,\n").encode()
    with pytest.raises(ParseError, match="outside 1..5"):
        parse_register(data, "csv")
    items = [{"risk_id": "r0", "name": "B"}, {"risk_id": "r1", "name": "A", "probability": 9}]
    with pytest.raises(ParseError, match=r"^r\.json, item 1: probability band 9 outside 1\.\.5$"):
        parse_register(json.dumps({"items": items}).encode(), "json", source="r.json")


def test_parse_csv_mixed_snapshot_column():
    data = (CSV_HEADER + "r1,A,,,,,,,0\nr2,B,,,,,,,1\n").encode()
    with pytest.raises(ParseError, match="mixed"):
        parse_register(data, "csv")


def test_parse_json_35_items():
    items = [{"risk_id": f"r{i}", "name": f"risk {i}"} for i in range(35)]
    snapshot = parse_register(json.dumps({"items": items}).encode(), "json")
    assert len(snapshot.items) == 35


def test_parse_json_int_is_band_float_is_raw():
    payload = {"items": [{"risk_id": "r1", "name": "A", "probability": 1, "cost_impact": 1.0}]}
    item = parse_register(json.dumps(payload).encode(), "json").items[0]
    assert item.assessment.probability_band == 1
    assert item.assessment.raw_cost == 1.0


def test_parse_unknown_format():
    with pytest.raises(ParseError, match="unknown register format"):
        parse_register(b"", "xml")


def test_band_for_boundaries():
    cfg = default_scale_config()
    assert band_for(0.0, cfg.probability_band_edges) == 1
    assert band_for(1.0, cfg.probability_band_edges) == 5
    # value exactly at an edge stays in the lower band (upper-inclusive)
    assert band_for(0.5, cfg.probability_band_edges) == 3
    assert band_for(0.005, cfg.cost_band_edges) == 2


def band_for_loop(value, edges):
    """The reference band_for: the first edge the value does not exceed, else 5."""
    for index, edge in enumerate(edges):
        if value <= edge:
            return index + 1
    return 5


def _edges_and_neighbours(edges):
    return [x for edge in edges
            for x in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf))]


_DEFAULT_EDGES = [getattr(default_scale_config(), label) for label in
                  ("probability_band_edges", "cost_band_edges", "schedule_band_edges")]
ascending_edges = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=4, max_size=4, unique=True).map(lambda e: tuple(sorted(e)))


@given(edges=st.one_of(st.sampled_from(_DEFAULT_EDGES), ascending_edges), data=st.data())
def test_band_for_matches_the_loop(edges, data):
    value = data.draw(st.one_of(
        st.floats(),  # finite, ±inf and nan
        st.sampled_from(_edges_and_neighbours(edges)),
        st.integers(-2, 20),
    ))
    assert band_for(value, edges) == band_for_loop(value, edges)


@pytest.mark.parametrize("edges", _DEFAULT_EDGES)
def test_band_for_every_edge_and_the_infinities(edges):
    for value in (*_edges_and_neighbours(edges), math.inf, -math.inf, math.nan):
        assert band_for(value, edges) == band_for_loop(value, edges)
    assert [band_for(edge, edges) for edge in edges] == [1, 2, 3, 4]


@pytest.mark.parametrize("bands, message", [
    ((0, None, None), "probability_band must be in 1..5, got 0"),
    ((3, 6, None), "cost_band must be in 1..5, got 6"),
    ((None, 2, 1.5), "schedule_band must be in 1..5, got 1.5"),
    ((math.nan, 7, None), "probability_band must be in 1..5, got nan"),
    ((1, math.inf, None), "cost_band must be in 1..5, got inf"),
    ((1, 2, -math.inf), "schedule_band must be in 1..5, got -inf"),
    (([3], None, None), "probability_band must be in 1..5, got [3]"),
    ((1, {2: 2}, [3]), "cost_band must be in 1..5, got {2: 2}"),
    (("3", None, None), "probability_band must be in 1..5, got '3'"),
])
def test_assessment_names_the_first_bad_band(bands, message):
    with pytest.raises(CorpusError) as excinfo:
        Assessment(*bands)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("bands", [(None, None, None), (1, 5, None), (3.0, True, 2)])
def test_assessment_accepts_bands_equal_to_1_to_5(bands):
    assessment = Assessment(*bands)
    assert (assessment.probability_band, assessment.cost_band, assessment.schedule_band) == bands


# a set band, or none; 3.0 and True are accepted as bands equal to 3 and 1
BAND_VALUES = st.sampled_from([None, *BANDS, 3.0, True])


@given(st.lists(st.tuples(BAND_VALUES, BAND_VALUES, BAND_VALUES), max_size=8))
def test_band_mean_matches_each_engines_own_mean(triples):
    assessments = [Assessment(*bands) for bands in triples]
    # a template group's band average, one band field at a time
    for name in ("probability_band", "cost_band", "schedule_band"):
        present = [v for a in assessments if (v := getattr(a, name)) is not None]
        expected = sum(present) / len(present) if present else None
        assert repr(band_mean(getattr(a, name) for a in assessments)) == repr(expected)
    # a coverage report's impact means, over a register's band columns
    snapshot = RegisterSnapshot(0, [RiskItem(f"r{i}", "risk", assessment=a)
                                    for i, a in enumerate(assessments)])
    cost = [a.cost_band for a in assessments if a.cost_band is not None]
    schedule = [a.schedule_band for a in assessments if a.schedule_band is not None]
    for column, bands in ((snapshot.cost_bands, cost), (snapshot.schedule_bands, schedule)):
        assert repr(band_mean(column)) == repr(sum(bands) / len(bands) if bands else None)


# a risk's name, and its description: unset, empty (which no parse keeps) or set
_NAMES = st.text("ab \u00e9", min_size=1, max_size=6).filter(str.strip)
_DESCRIPTIONS = st.one_of(st.none(), st.just(""), st.text("cd \u00e9", min_size=1, max_size=6))


@given(st.lists(st.tuples(_NAMES, _DESCRIPTIONS), max_size=6))
def test_matching_texts_are_each_records_matching_text(rows):
    items = [RiskItem(f"r{i}", name, description) for i, (name, description) in enumerate(rows)]
    payload = [{"risk_id": item.risk_id, "name": item.name, "description": item.description}
               for item in items]
    for snapshot in (RegisterSnapshot(0, items),
                     parse_register(json.dumps(payload).encode(), "json")):
        for use_description in (False, True):
            assert snapshot.matching_texts(use_description) == [
                item.matching_text(use_description) for item in snapshot.items]


@pytest.mark.parametrize("field, value", [
    ("raw_cost", math.inf), ("raw_cost", math.nan), ("raw_cost", -math.inf),
    ("raw_schedule", math.inf), ("raw_schedule", math.nan), ("raw_schedule", -math.inf),
])
def test_non_finite_raw_impact_is_rejected(field, value):
    with pytest.raises(CorpusError) as excinfo:
        Assessment(**{field: value})
    assert str(excinfo.value) == f"{field} must be a finite number, got {value!r}"
    key = {"raw_cost": "cost_impact", "raw_schedule": "schedule_impact"}[field]
    items = [{"risk_id": "r0", "name": "B"}, {"risk_id": "r1", "name": "A", key: value}]
    with pytest.raises(ParseError) as excinfo:
        parse_register(json.dumps({"items": items}).encode(), "json", source="r.json")
    assert str(excinfo.value) == f"r.json, item 1: {field} must be a finite number, got {value!r}"


def test_normalize_probability_extremes():
    cfg = default_scale_config()
    low = normalize_assessment(Assessment(raw_probability=0.0), None, cfg)
    high = normalize_assessment(Assessment(raw_probability=1.0), None, cfg)
    assert low.probability_band == 1
    assert high.probability_band == 5


def test_normalize_cost_at_edge():
    cfg = default_scale_config()
    out = normalize_assessment(Assessment(raw_cost=5.0), 1000.0, cfg)
    assert out.cost_band == 2


def test_normalize_requires_project_value_for_cost():
    cfg = default_scale_config()
    with pytest.raises(NormalizeError, match="project value"):
        normalize_assessment(Assessment(raw_cost=1.0), None, cfg)


def test_normalize_nothing_to_normalize():
    cfg = default_scale_config()
    with pytest.raises(NormalizeError):
        normalize_assessment(Assessment(probability_band=3), None, cfg)


def test_normalize_fills_qualitative_from_matrix():
    cfg = default_scale_config()
    out = normalize_assessment(
        Assessment(raw_probability=0.95, cost_band=4, schedule_band=1), None, cfg
    )
    assert out.probability_band == 5
    assert out.qualitative_cost is Qualitative.HIGH  # 5*4 = 20 >= 15
    assert out.qualitative_schedule is Qualitative.LOW  # 5*1 = 5 < 6


@given(
    a=st.floats(min_value=0, max_value=1),
    b=st.floats(min_value=0, max_value=1),
)
def test_normalize_probability_monotone(a, b):
    cfg = default_scale_config()
    if a > b:
        a, b = b, a
    band_a = normalize_assessment(Assessment(raw_probability=a), None, cfg).probability_band
    band_b = normalize_assessment(Assessment(raw_probability=b), None, cfg).probability_band
    assert band_a <= band_b
    assert 1 <= band_a <= 5 and 1 <= band_b <= 5


@given(
    months=st.floats(min_value=0, max_value=100),
    cost=st.floats(min_value=0, max_value=1000),
)
def test_normalize_bands_always_in_range(months, cost):
    cfg = default_scale_config()
    out = normalize_assessment(
        Assessment(raw_schedule=months, raw_cost=cost), 1000.0, cfg
    )
    assert out.schedule_band in (1, 2, 3, 4, 5)
    assert out.cost_band in (1, 2, 3, 4, 5)


def test_assessment_band_validation():
    with pytest.raises(CorpusError):
        Assessment(probability_band=0)
    with pytest.raises(CorpusError):
        Assessment(raw_probability=1.5)


def test_size_band_consistency():
    assert SizeBand.for_value(166) is SizeBand.UNDER_500M
    assert SizeBand.for_value(814) is SizeBand.M500_TO_1B
    assert SizeBand.for_value(4922) is SizeBand.OVER_1B


def test_load_corpus_empty_manifest(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"projects": []}')
    corpus = load_corpus(manifest)
    assert corpus.projects == ()


def test_load_corpus_missing_register_names_path(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "projects": [{
            "id": "p1", "jurisdiction": "CA", "delivery_method": "DB",
            "project_type": "Highway", "size_band": "under_500M",
            "registers": [{"ordinal": 0, "path": "nope.csv"}],
        }]
    }))
    with pytest.raises(CorpusError, match="nope.csv"):
        load_corpus(manifest)


def test_load_corpus_size_band_inconsistency(tmp_path):
    register = tmp_path / "r.csv"
    register.write_text(CSV_HEADER + "r1,A,,,,,,,\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "projects": [{
            "id": "p1", "jurisdiction": "CA", "delivery_method": "DB",
            "project_type": "Highway", "size_band": "under_500M",
            "contract_value_musd": 2000,
            "registers": [{"ordinal": 0, "path": "r.csv"}],
        }]
    }))
    with pytest.raises(CorpusError, match="size_band"):
        load_corpus(manifest)


def test_load_corpus_table19_fixture(expost_manifest):
    corpus = load_corpus(expost_manifest)
    assert [p.project_id for p in corpus.projects] == [str(i) for i in range(1, 12)]
    project_1 = corpus.projects[0]
    assert len(project_1.snapshots) == 5
    assert len(project_1.register.items) == 32  # ex-ante register


def test_load_corpus_normalizes_raw_values(tmp_path):
    register = tmp_path / "r.csv"
    register.write_text(CSV_HEADER + "r1,A,,,0.95,12.0,4.0,,\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "projects": [{
            "id": "p1", "jurisdiction": "CA", "delivery_method": "DB",
            "project_type": "Highway", "size_band": "over_1B",
            "contract_value_musd": 1200,
            "registers": [{"ordinal": 0, "path": "r.csv"}],
        }]
    }))
    item = load_corpus(manifest).projects[0].register.items[0]
    assert item.assessment.probability_band == 5
    assert item.assessment.cost_band == 3  # 12/1200 is exactly the 1% edge
    assert item.assessment.schedule_band == 3  # 4 months -> (3, 6]
    assert item.assessment.qualitative_cost is Qualitative.HIGH


def test_load_scale_config_round_trip(tmp_path):
    cfg = default_scale_config()
    path = tmp_path / "scales.json"
    path.write_text(json.dumps({
        "probability_band_edges": list(cfg.probability_band_edges),
        "cost_band_edges": list(cfg.cost_band_edges),
        "schedule_band_edges": list(cfg.schedule_band_edges),
        "risk_matrix": {f"{p},{i}": q.value for (p, i), q in cfg.risk_matrix.items()},
    }))
    assert load_scale_config(path) == cfg


# ----------------------------------------------------------- manifest faults


def _project(**overrides):
    entry = {
        "id": "p1", "jurisdiction": "CA", "delivery_method": "DB",
        "project_type": "Highway", "size_band": "under_500M",
        "registers": [{"ordinal": 0, "path": "r.csv"}],
    }
    entry.update(overrides)
    return entry


# a JSON integer past Python's limit on int-to-text digits, which json.loads
# rejects with a ValueError that is not a JSONDecodeError
LONG_INT = "1" * (sys.get_int_max_str_digits() + 1)
# JSON arrays nested far past the depth at which json.loads raises RecursionError
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000
MANIFEST_FAULTS = {
    "int past the digit limit": (
        f'{{"projects": [{LONG_INT}]}}', "not valid JSON (Exceeds the limit"),
    "nested too deeply": (f'{{"projects": {DEEP_ARRAY}}}', ": JSON nested too deeply to read ("),
    "register without path": (
        json.dumps({"projects": [_project(), _project(id="p2", registers=[{"ordinal": 0}])]}),
        "projects[1].registers[0].path is missing",
    ),
    "register not an object": (
        json.dumps({"projects": [_project(registers=["r.csv"])]}),
        "projects[0].registers[0] must be an object, got 'r.csv'",
    ),
    "project not an object": (
        json.dumps({"projects": ["p1"]}), "projects[0] must be an object, got 'p1'"),
    "registers not a list": (
        json.dumps({"projects": [_project(registers={"path": "r.csv"})]}),
        "projects[0].registers must be an array, got {'path': 'r.csv'}",
    ),
    "not utf-8": (
        json.dumps({"projects": [_project(jurisdiction="Québec")]}, ensure_ascii=False),
        "not valid UTF-8",
    ),
    "ordinal a string": (
        json.dumps({"projects": [_project(registers=[{"ordinal": "0", "path": "r.csv"}])]}),
        "projects[0].registers[0].ordinal must be an integer, got '0'",
    ),
    "ordinal a bool": (
        json.dumps({"projects": [_project(registers=[{"ordinal": True, "path": "r.csv"}])]}),
        "projects[0].registers[0].ordinal must be an integer, got True",
    ),
    "ordinal negative": (
        json.dumps({"projects": [_project(), _project(
            id="p2", registers=[{"ordinal": -1, "path": "r.csv"}])]}),
        "project 1, register 0: 'ordinal' must be a non-negative integer",
    ),
    "contract value a string": (
        json.dumps({"projects": [_project(contract_value_musd="12")]}),
        "projects[0].contract_value_musd must be a finite number or null, got '12'",
    ),
    "contract value a bool": (
        json.dumps({"projects": [_project(contract_value_musd=False)]}),
        "projects[0].contract_value_musd must be a finite number or null, got False",
    ),
    "contract value NaN": (
        json.dumps({"projects": [_project(contract_value_musd=12), _project(
            id="p2", contract_value_musd=math.nan)]}),
        "projects[1].contract_value_musd must be a finite number or null, got nan",
    ),
    "contract value Infinity": (
        json.dumps({"projects": [_project(contract_value_musd=math.inf)]}),
        "projects[0].contract_value_musd must be a finite number or null, got inf",
    ),
    "award year a string": (
        json.dumps({"projects": [_project(award_year="2013")]}),
        "projects[0].award_year must be an integer or null, got '2013'",
    ),
    "award year a float": (
        json.dumps({"projects": [_project(award_year=2013.0)]}),
        "projects[0].award_year must be an integer or null, got 2013.0",
    ),
    "id a list": (
        json.dumps({"projects": [_project(id=["x"])]}),
        "projects[0].id must be a string, got ['x']",
    ),
    "id empty": (
        json.dumps({"projects": [_project(), _project(id="")]}),
        "project 1: 'id' must be a non-empty string, not ''",
    ),
    "id missing": (
        json.dumps({"projects": [{"size_band": "under_500M", "registers": []}]}),
        "projects[0].id is missing",
    ),
    "project type a number": (
        json.dumps({"projects": [_project(project_type=3)]}),
        "projects[0].project_type must be a string, got 3",
    ),
    "jurisdiction null": (
        json.dumps({"projects": [_project(jurisdiction=None)]}),
        "projects[0].jurisdiction must be a string, got None",
    ),
    "delivery method an object": (
        json.dumps({"projects": [_project(delivery_method={"a": 1})]}),
        "projects[0].delivery_method must be a string, got {'a': 1}",
    ),
    "size band a list": (
        json.dumps({"projects": [_project(size_band=["over_1B"])]}),
        "projects[0].size_band must be a string, got ['over_1B']",
    ),
}


def write_manifest_fault(directory: Path, fault: str) -> Path:
    (directory / "r.csv").write_text(CSV_HEADER + "r1,A,,,,,,,\n")
    manifest = directory / "manifest.json"
    text, _ = MANIFEST_FAULTS[fault]
    manifest.write_bytes(text.encode("latin-1" if fault == "not utf-8" else "utf-8"))
    return manifest


@pytest.mark.parametrize("fault", sorted(MANIFEST_FAULTS))
def test_load_corpus_manifest_fault_is_a_parse_error(tmp_path, fault):
    manifest = write_manifest_fault(tmp_path, fault)
    with pytest.raises(ParseError) as excinfo:
        load_corpus(manifest)
    assert str(excinfo.value).startswith(f"{manifest}")
    assert MANIFEST_FAULTS[fault][1] in str(excinfo.value)


def test_manifest_value_types_that_load(tmp_path):
    (tmp_path / "r.csv").write_text(CSV_HEADER + "r1,A,,,,,,,\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"projects": [
        _project(contract_value_musd=12, award_year=None),
        _project(id="p2", contract_value_musd=12.5, award_year=2013,
                 registers=[{"ordinal": 3, "path": "r.csv"}]),
    ]}))
    corpus = load_corpus(manifest)
    assert [p.contract_value_musd for p in corpus.projects] == [12, 12.5]
    assert [p.award_year for p in corpus.projects] == [None, 2013]
    assert corpus.projects[1].register.ordinal == 3


@pytest.mark.parametrize("field, value, kind", [
    ("risk_id", 5, "a string"),
    ("name", ["A"], "a string"),
    ("description", 1.5, "a string or null"),
    ("category", {"a": 1}, "a string or null"),
    ("status", True, "a string or null"),
    ("probability", "high", "numeric"),
    ("cost_impact", True, "numeric"),
])
def test_json_register_text_field_types(tmp_path, field, value, kind):
    record = {"risk_id": "r1", "name": "A", "description": None, "category": "c",
              "status": None, field: value}
    data = json.dumps({"items": [{"risk_id": "r0", "name": "B"}, record]}).encode()
    # the shape names a text field by its JSON path; `_row` names a measure by its item
    where = (f"<register>, item 1: {field}" if kind == "numeric"
             else f"<register>: items[1].{field}")
    expected = f"{where} must be {kind}, got {value!r}"
    with pytest.raises(ParseError) as excinfo:
        parse_register(data, "json")
    assert str(excinfo.value) == expected
    (tmp_path / "r.json").write_bytes(data)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"projects": [
        _project(registers=[{"ordinal": 0, "path": "r.json"}])]}))
    with pytest.raises(ParseError) as excinfo:
        load_corpus(manifest)
    assert str(excinfo.value) == expected.replace("<register>", str(tmp_path / "r.json"))


def test_json_register_int_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError, match=r"^<register>: not valid JSON \(Exceeds the limit"):
        parse_register(f'{{"items": [{LONG_INT}]}}'.encode(), "json")


def test_load_corpus_keeps_digests_of_the_bytes_parsed(expost_manifest):
    corpus = load_corpus(expost_manifest)
    manifest = json.loads(Path(expost_manifest).read_text(encoding="utf-8"))
    paths = [r["path"] for p in manifest["projects"] for r in p["registers"]]
    assert list(corpus.digests) == ["manifest", *paths]
    base = Path(expost_manifest).parent
    for key, digest in corpus.digests.items():
        source = Path(expost_manifest) if key == "manifest" else base / key
        assert digest == hashlib.sha256(source.read_bytes()).hexdigest()
    # digests are not part of a corpus's value
    assert corpus == replace(corpus, digests={})
    assert hash(corpus) == hash(replace(corpus, digests={}))


# --------------------------------------------------- loader against its oracle
#
# load_corpus parses each register once and builds each item already
# normalized. The reference below is the composition it replaces: the public
# parse_register, then normalize_assessment (raw values present) or its own
# band-pair fill per item, then a snapshot with the manifest's ordinal. The
# generated inputs may carry a `label`, which both ignore. Both must give the
# same corpus or raise the same error. parse_register rejects a non-finite raw
# cost or schedule, as the loader does, so the reference applies that rule too.


def reference_fill(a: Assessment, cfg) -> Assessment:
    """A band-only assessment with each level the risk matrix gives its
    (probability, impact) band pair, when both bands are set."""
    if a.probability_band is None:
        return a
    levels = {f"qualitative_{name}": cfg.risk_matrix[(a.probability_band, band)]
              for name, band in (("cost", a.cost_band), ("schedule", a.schedule_band))
              if band is not None}
    return replace(a, **levels)


def reference_load(manifest_path) -> Corpus:
    cfg = default_scale_config()
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    projects = []
    for index, entry in enumerate(manifest["projects"]):
        value = entry.get("contract_value_musd")
        snapshots = []
        for register in entry.get("registers", []):
            path = manifest_path.parent / register["path"]
            fmt = "json" if path.suffix.lower() == ".json" else "csv"
            snapshot = parse_register(path.read_bytes(), fmt, source=str(path))
            items = []
            for item in snapshot.items:
                a = item.assessment
                try:
                    if a.raw_probability is None and a.raw_cost is None and a.raw_schedule is None:
                        a = reference_fill(a, cfg)
                    else:
                        a = normalize_assessment(a, value, cfg)
                except NormalizeError as exc:
                    raise CorpusError(f"{path}:{item.risk_id}: {exc}") from exc
                items.append(replace(item, assessment=a))
            snapshots.append(RegisterSnapshot(
                ordinal=register.get("ordinal", snapshot.ordinal),
                items=tuple(items),
            ))
        try:
            projects.append(ProjectRecord(
                project_id=entry["id"],
                jurisdiction=entry.get("jurisdiction", ""),
                delivery_method=entry.get("delivery_method", ""),
                project_type=entry.get("project_type", ""),
                size_band=SizeBand(entry["size_band"]),
                contract_value_musd=value,
                award_year=entry.get("award_year"),
                snapshots=tuple(sorted(snapshots, key=lambda s: s.ordinal)),
            ))
        except CorpusError as exc:
            raise CorpusError(f"{manifest_path}, project {index}: {exc}") from exc
    ids = [project.project_id for project in projects]
    for index, project_id in enumerate(ids):
        if project_id in ids[:index]:
            raise CorpusError(f"{manifest_path}, project {index}: duplicate project_id {project_id!r}")
    return Corpus(projects=tuple(projects))


def _outcome(load, manifest):
    """The loaded corpus's repr (NaN never equals itself), or the error raised."""
    try:
        return repr(load(manifest)), None
    except (ParseError, CorpusError) as exc:
        return None, (type(exc).__name__, str(exc))


def _pick(draw, usual, rare):
    """One of the usual values, or about one draw in 32 one of the rare ones."""
    return draw(st.sampled_from(rare if draw(st.integers(0, 31)) == 13 else usual))


# Cells on and next to the default band edges (probability 0.1/0.3/0.5/0.7;
# cost 0.1/0.5/1/5% of a 1000 M$ contract; schedule 1/3/6/12 months), bands,
# "3" against "3.0", extremes and blanks; the rare ones fail to parse or to
# normalize somewhere.
PROBABILITY_CELLS = (
    ["", "1", "3", "5", "3.0", " 2 ", "0.1", "0.10", "0.3", "0.5", "0.7", "0.70000001", "0.95",
     "1.0", "0.0", "1e-300"],
    [" ", "0", "7", "1.5", "nan", "inf", "x"],
)
IMPACT_CELLS = (
    ["", "1", "4", "3.0", "1.0", "5.0", "10.0", "50.0", "50.000001", "6.0", "12.0", "0.5",
     "1e-300", "1e3"],
    ["0", "8", "inf", "nan", "-inf", "x"],
)
TEXT_CELLS = (["", "Utility relocation", "  design changes ", "right of way, delays"], [" "])
STATUS_CELLS = (["", "Reg", "Hap", " Clo "], ["closed"])
SNAPSHOT_CELLS = (["", "0", " 0"], ["1", "-1", "a"])
NAME_CELLS = (TEXT_CELLS[0][1:], ["", " "])


@st.composite
def csv_registers(draw) -> bytes:
    extra = draw(st.lists(st.sampled_from([*REGISTER_CSV_COLUMNS, "extra"]), max_size=9))
    required = [c for c in ("risk_id", "name") if _pick(draw, [True], [False])]
    header = draw(st.permutations(required + extra))
    lines = [header]
    for number in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 8)) == 0:
            lines.append([])  # a blank line
            continue
        cells = {
            "risk_id": _pick(draw, [f"r{number}"], ["", " ", "r0"]),
            "name": _pick(draw, *NAME_CELLS),
            "description": _pick(draw, *TEXT_CELLS),
            "category": _pick(draw, *TEXT_CELLS),
            "probability": _pick(draw, *PROBABILITY_CELLS),
            "cost_impact": _pick(draw, *IMPACT_CELLS),
            "schedule_impact": _pick(draw, *IMPACT_CELLS),
            "status": _pick(draw, *STATUS_CELLS),
            "snapshot": _pick(draw, *SNAPSHOT_CELLS),
            "extra": "x",
        }
        row = [cells[name] for name in header]
        cut = _pick(draw, [0], [-2, -1, 1, 2])  # short rows and extra columns
        row = row[:cut] if cut < 0 else row + ["spare"] * cut
        lines.append(row)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(lines)
    return buffer.getvalue().encode("utf-8")


JSON_PROBABILITIES = ([None, 1, 3, 5, 0.1, 0.5, 0.7, 0.0, 1.0, 1e-300], [0, 7, 1.5, float("nan"), True, "3"])
JSON_IMPACTS = (
    [None, 1, 3, 5, 1.0, 3.0, 5.0, 50.0, 1e-300],
    [0, 7, float("inf"), float("nan"), float("-inf"), True, "3"],
)


@st.composite
def json_registers(draw) -> bytes:
    items = []
    for number in range(draw(st.integers(0, 5))):
        record = {
            "risk_id": _pick(draw, [f"r{number}"], ["", "r0"]),
            "name": _pick(draw, *NAME_CELLS),
            "description": _pick(draw, [None, *TEXT_CELLS[0]], TEXT_CELLS[1]),
            "category": _pick(draw, [None, *TEXT_CELLS[0]], TEXT_CELLS[1]),
            "status": _pick(draw, [None, *STATUS_CELLS[0]], STATUS_CELLS[1]),
            "probability": _pick(draw, *JSON_PROBABILITIES),
            "cost_impact": _pick(draw, *JSON_IMPACTS),
            "schedule_impact": _pick(draw, *JSON_IMPACTS),
        }
        dropped = draw(st.lists(st.sampled_from(sorted(record)), unique=True, max_size=3))
        if "risk_id" in dropped or "name" in dropped:
            dropped = _pick(draw, [[]], [dropped])
        items.append({key: value for key, value in record.items() if key not in dropped})
    payload = {"items": items}
    if draw(st.booleans()):
        payload["ordinal"] = _pick(draw, [0, 1, 2], [-1])
    if draw(st.booleans()):
        payload["label"] = draw(st.sampled_from(["year 0", None]))
    return json.dumps(payload).encode("utf-8")


@st.composite
def manifests(draw) -> tuple[dict, dict[str, bytes]]:
    files: dict[str, bytes] = {}
    projects = []
    for index in range(draw(st.integers(1, 2))):
        value = _pick(draw, [1000, 1000.0, 250.5], [None, 0])
        registers = []
        for ordinal in range(_pick(draw, [1, 2], [0, 3])):
            fmt = draw(st.sampled_from(["csv", "json"]))
            name = f"p{index}_s{ordinal}.{fmt}"
            files[name] = draw(csv_registers() if fmt == "csv" else json_registers())
            register = {"path": name}
            if _pick(draw, [True], [False]):
                register["ordinal"] = ordinal
            if draw(st.booleans()):
                register["label"] = f"year {ordinal}"
            registers.append(register)
        projects.append({
            "id": f"p{index}",
            "size_band": SizeBand.for_value(value if value is not None else 1).value,
            "contract_value_musd": value,
            "registers": registers,
        })
    return {"projects": projects}, files


@settings(deadline=None)
@given(case=manifests())
def test_load_corpus_matches_parse_then_normalize(case):
    manifest, files = case
    with tempfile.TemporaryDirectory() as directory:
        for name, data in files.items():
            Path(directory, name).write_bytes(data)
        path = Path(directory, "manifest.json")
        path.write_text(json.dumps(manifest))
        cache_dir = Path(directory, "cache")
        with mock.patch.dict(os.environ, XDG_CACHE_HOME=str(cache_dir)):
            miss = _outcome(load_corpus, path)
            # a load that returns is stored, and the next one is a hit; one
            # that raises leaves no entry and no temp file
            entries = sorted(cache_dir.rglob("*"))
            assert [entry.suffix for entry in entries[1:]] == ([".marshal"] if miss[0] else [])
            assert _outcome(load_corpus, path) == miss == _outcome(reference_load, path)


def test_load_corpus_matches_parse_then_normalize_on_fixture(expost_manifest):
    corpus = load_corpus(expost_manifest)
    assert corpus == reference_load(expost_manifest)
    assert repr(corpus) == repr(reference_load(expost_manifest))


# ------------------------------------------------------- corpus cache entries


def _counted_parses(monkeypatch) -> list[str]:
    """The sources of the registers the loader parses from here on."""
    parsed = []
    original = riskbench.corpus._register_rows
    monkeypatch.setattr(riskbench.corpus, "_register_rows",
                        lambda data, fmt, source: parsed.append(source) or original(data, fmt, source))
    return parsed


def _corpus_entries(cache_dir: Path) -> list[Path]:
    """The files in a cache, without the markers of the entries' last use."""
    return sorted(path for path in (cache_dir / "riskbench").glob("*") if path.suffix != ".used")


def _texts(corpus: Corpus) -> list[str]:
    return [text for project in corpus.projects for snapshot in project.snapshots
            for item in snapshot.items
            for text in (item.risk_id, item.name, item.description, item.category_label,
                         item.status_note) if text is not None]


@pytest.fixture
def expost_copy(tmp_path, monkeypatch, expost_manifest) -> Path:
    """A copy of the fixture corpus, and a private, empty parse cache."""
    shutil.copytree(Path(expost_manifest).parent, tmp_path / "expost")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "expost" / "manifest.json"


def test_corpus_cache_hit_equals_the_miss(expost_copy, tmp_path, monkeypatch):
    parsed = _counted_parses(monkeypatch)
    miss = load_corpus(expost_copy)
    registers = len(miss.digests) - 1
    assert len(parsed) == registers
    [entry] = _corpus_entries(tmp_path / "cache")
    assert entry.name.startswith("corpus-") and entry.suffix == ".marshal"
    hit = load_corpus(expost_copy)
    assert len(parsed) == registers  # served from the entry
    assert hit == miss == reference_load(expost_copy)
    assert repr(hit) == repr(miss)
    assert list(hit.digests.items()) == list(miss.digests.items())
    # one str object per distinct text, as a parse makes
    texts = _texts(hit)
    assert len({id(text) for text in texts}) == len(set(texts))
    assert _corpus_entries(tmp_path / "cache") == [entry]


def test_a_hit_equals_the_miss_when_registers_are_listed_out_of_order(tmp_path, monkeypatch):
    # the entry holds a project's snapshots sorted by ordinal, so a hit hands
    # the loop the manifest's registers in another order than a miss does
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    for ordinal in range(3):
        (tmp_path / f"s{ordinal}.csv").write_text(
            CSV_HEADER + f"r{ordinal},risk {ordinal},,,0.{ordinal}5,2,{ordinal + 1},,\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"projects": [_project(
        registers=[{"path": f"s{ordinal}.csv", "ordinal": ordinal} for ordinal in (2, 0, 1)])]}))
    parsed = _counted_parses(monkeypatch)
    miss = load_corpus(manifest)
    hit = load_corpus(manifest)
    assert len(parsed) == 3  # the second load was a hit
    assert repr(hit) == repr(miss)
    snapshots = hit.projects[0].snapshots
    assert [(s.ordinal, s.items[0].risk_id) for s in snapshots] == [(0, "r0"), (1, "r1"), (2, "r2")]


# ---------------------------------------------------- records built on demand
#
# A snapshot holds columns and builds its RiskItems on first access. The
# oracle is the loader's former per-row construction: one RiskItem and one
# Assessment per row as `_row` returns it, each text shared.


def oracle_items(rows, share) -> tuple[RiskItem, ...]:
    return tuple([
        RiskItem(share(r, r), share(n, n), share(d, d), share(c, c),
                 Assessment(p, cb, sb, Qualitative(qc), Qualitative(qs), rp, rc, rs), share(st, st))
        for r, n, d, c, st, p, cb, sb, qc, qs, rp, rc, rs in rows
    ])


def assert_same_records(items, expected) -> None:
    """Field for field, each value of the same type."""
    assert len(items) == len(expected)
    for item, oracle in zip(items, expected):
        for record, other in ((item, oracle), (item.assessment, oracle.assessment)):
            for name in (f.name for f in fields(record)):
                value, wanted = getattr(record, name), getattr(other, name)
                assert type(value) is type(wanted) and value == wanted, (name, value, wanted)


def test_loaded_items_match_the_per_row_oracle_on_fixture(expost_copy):
    cfg = default_scale_config()
    manifest = json.loads(expost_copy.read_text(encoding="utf-8"))
    expected = {}
    for entry in manifest["projects"]:
        for register in entry["registers"]:
            path = expost_copy.parent / register["path"]
            rows, ordinal = riskbench.corpus._register_rows(path.read_bytes(), "csv", str(path))
            value = entry.get("contract_value_musd")
            rows = [row[:5] + riskbench.corpus._assessment(cfg, value, *row[5:]) for row in rows]
            expected[entry["id"], register.get("ordinal", ordinal)] = oracle_items(rows, {}.setdefault)
    for load in ("miss", "hit"):
        corpus = load_corpus(expost_copy)
        snapshots = {(p.project_id, s.ordinal): s for p in corpus.projects for s in p.snapshots}
        assert snapshots.keys() == expected.keys(), load
        for key, snapshot in snapshots.items():
            assert_same_records(snapshot.items, expected[key])


@settings(deadline=None)
@given(data=csv_registers())
def test_parsed_items_match_the_per_row_oracle(data):
    try:
        rows, ordinal = riskbench.corpus._register_rows(data, "csv", "<register>")
    except ParseError:
        return
    snapshot = parse_register(data, "csv")
    assert snapshot.ordinal == ordinal
    assert_same_records(snapshot.items, oracle_items(rows, {}.setdefault))
    assert snapshot == RegisterSnapshot(ordinal, oracle_items(rows, {}.setdefault))


def test_snapshots_compare_and_hash_by_ordinal_and_items(expost_copy):
    miss, hit = load_corpus(expost_copy), load_corpus(expost_copy)
    for before, after in zip(miss.projects, hit.projects):
        for built, read in zip(before.snapshots, after.snapshots):
            rebuilt = RegisterSnapshot(read.ordinal, read.items)
            assert built == read == rebuilt
            assert hash(built) == hash(read) == hash(rebuilt)
            assert read != RegisterSnapshot(read.ordinal + 1, read.items)
            changed = (replace(read.items[0], name=read.items[0].name + "!"), *read.items[1:])
            assert read != RegisterSnapshot(read.ordinal, changed)
            assert read != RegisterSnapshot(read.ordinal, read.items[:-1])
    assert len({*miss.projects[0].snapshots, *hit.projects[0].snapshots}) == len(
        hit.projects[0].snapshots)


def test_items_are_equal_from_threads_and_built_once(expost_copy):
    from concurrent.futures import ThreadPoolExecutor

    expected = [s.items for p in load_corpus(expost_copy).projects for s in p.snapshots]
    # a hit: no snapshot has built its records yet
    snapshots = [s for p in load_corpus(expost_copy).projects for s in p.snapshots]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        with ThreadPoolExecutor(4) as pool:
            assert list(pool.map(lambda s: s.items, snapshots * 8, timeout=60)) == expected * 8
    finally:
        sys.setswitchinterval(interval)
    for snapshot in snapshots:
        assert snapshot.items is snapshot.items


def _entry_snapshots(entry: Path) -> list[tuple]:
    """The (ordinal, columns) of each snapshot a corpus entry holds."""
    return marshal.loads(entry.read_bytes()[:-cache.TRAILER.size])


def _damage_corpus_entry(entry: Path, how: str) -> None:
    data = entry.read_bytes()
    if how == "truncated":
        entry.write_bytes(data[: len(data) // 2])
    elif how == "flipped-bit":  # only the stored CRC-32 can tell
        entry.write_bytes(data[: len(data) // 2] + bytes([data[len(data) // 2] ^ 0x10])
                          + data[len(data) // 2 + 1:])
    elif how == "garbage":
        entry.write_bytes(b"not a cache entry\n" * 64)
    else:
        # an entry the cache's own writer makes, CRC and all, that does not
        # decode, or whose list of snapshots holds a column value no check
        # accepts, one snapshot more than the manifest's registers, or one fewer
        snapshots = _entry_snapshots(entry)
        if how in INVALID_VALUES:
            ordinal, columns = snapshots[0]
            column, value = INVALID_VALUES[how]
            row = 1 if how == "duplicate-risk_id" else 0
            columns = [list(values) for values in columns]
            columns[column][row] = columns[0][0] if value is None else value
            snapshots[0] = (ordinal, tuple(map(tuple, columns)))
        elif how == "leftover-chunk":
            snapshots.append(snapshots[-1])
        elif how == "missing-chunk":
            snapshots.pop()
        kind, key = entry.name.split("-", 1)
        body = b"\xff" * 16 if how == "undecodable" else marshal.dumps(snapshots)
        cache.store(kind, key, lambda out: out.write(body))


# the column (by its index in a snapshot's columns) and the value a damaged
# entry holds in the first row, or None for the second row's risk_id
# repeating the first's
INVALID_VALUES = {
    "invalid-record": (5, 9),
    "raw-probability": (10, 1.5),
    "raw-cost": (11, math.inf),
    "empty-name": (1, " "),
    "duplicate-risk_id": (0, None),
}
# what the record constructors raise for each invalid value
INVALID_MESSAGES = {
    "invalid-record": "probability_band must be in 1..5, got 9",
    "raw-probability": "raw_probability must be a fraction in [0, 1], got 1.5",
    "raw-cost": "raw_cost must be a finite number, got inf",
    "empty-name": "has an empty name",
    "duplicate-risk_id": "duplicate risk_id",
}
# why a damaged entry that passes its CRC is a miss: what reading it raises,
# or None for a corpus that leaves a snapshot unread
DECODE_FAILURES = {
    "undecodable": (ValueError, "bad marshal data"),
    **{how: (CorpusError, message) for how, message in INVALID_MESSAGES.items()},
    "leftover-chunk": None,
    "missing-chunk": (EOFError, "fewer snapshots than the manifest has registers"),
}


@pytest.mark.parametrize("how", [
    "truncated", "flipped-bit", "garbage", "undecodable", *INVALID_VALUES, "leftover-chunk",
    "missing-chunk", "other-interpreter"])
def test_invalid_corpus_entry_is_a_miss_and_rewritten(expost_copy, tmp_path, monkeypatch, how):
    cache_dir = tmp_path / "cache"
    if how == "other-interpreter":  # an entry another interpreter stored
        with monkeypatch.context() as patch:
            patch.setattr(riskbench.corpus, "sys", SimpleNamespace(
                implementation=SimpleNamespace(cache_tag="other-99")))
            expected = load_corpus(expost_copy)
        [other] = _corpus_entries(cache_dir)
    else:
        expected = load_corpus(expost_copy)
        [entry] = _corpus_entries(cache_dir)
        _damage_corpus_entry(entry, how)
    parsed = _counted_parses(monkeypatch)
    decoded = []  # what each read of an entry that passed its CRC returned or raised
    from_entry = riskbench.corpus._from_entry

    def recorded(handle, size, build):
        try:
            decoded.append(from_entry(handle, size, build))
        except Exception as exc:
            decoded.append(exc)
            raise
        return decoded[-1]

    monkeypatch.setattr(riskbench.corpus, "_from_entry", recorded)
    assert repr(load_corpus(expost_copy)) == repr(expected)
    assert len(parsed) == len(expected.digests) - 1
    if how in DECODE_FAILURES:
        [outcome] = decoded
        if DECODE_FAILURES[how] is None:
            assert outcome is None
        else:
            error, message = DECODE_FAILURES[how]
            assert type(outcome) is error and message in str(outcome)
    else:  # a failed CRC, or no entry under this interpreter's key
        assert decoded == []
    if how == "other-interpreter":
        [entry] = [path for path in _corpus_entries(cache_dir) if path != other]
    assert repr(load_corpus(expost_copy)) == repr(expected)
    assert len(parsed) == len(expected.digests) - 1  # the rewritten entry serves the next load
    assert isinstance(decoded[-1], Corpus)
    assert len(_corpus_entries(cache_dir)) == 1 + (how == "other-interpreter")


# each invalid value of INVALID_VALUES, put through the public constructors
# with the values of the first two rows of the register below
PUBLIC_CONSTRUCTORS = {
    "invalid-record": lambda: Assessment(probability_band=9),
    "raw-probability": lambda: Assessment(raw_probability=1.5),
    "raw-cost": lambda: Assessment(raw_cost=math.inf),
    "empty-name": lambda: RiskItem("r1", " "),
    "duplicate-risk_id": lambda: RegisterSnapshot(0, (RiskItem("r1", "A"), RiskItem("r1", "B"))),
}


@pytest.mark.parametrize("how", INVALID_VALUES)
def test_column_checks_raise_what_the_constructors_raise(tmp_path, monkeypatch, how):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    manifest = _one_register_manifest(tmp_path, "r1,A,,,0.5,,2,,\nr2,B,,,0.25,,,,\n")
    load_corpus(manifest)
    [entry] = _corpus_entries(tmp_path / "cache")
    _damage_corpus_entry(entry, how)
    with pytest.raises(CorpusError) as public:
        PUBLIC_CONSTRUCTORS[how]()
    assert INVALID_MESSAGES[how] in str(public.value)
    data = entry.read_bytes()[:-cache.TRAILER.size]  # its one snapshot, read as a hit reads it
    with pytest.raises(CorpusError) as read:
        riskbench.corpus._from_entry(io.BytesIO(data), len(data), lambda registers: (
            riskbench.corpus._snapshot(*registers())))
    assert str(read.value) == str(public.value)


def test_old_names_and_other_code_are_never_read_and_age_out_by_count(
        expost_copy, tmp_path, monkeypatch):
    # An entry named by an old format number, or keyed by another tree's
    # source digest, is never read; a store deletes it only as one of the
    # oldest of its kind once the kind holds more than cache.ENTRIES.
    root = tmp_path / "cache" / "riskbench"
    expected = load_corpus(expost_copy)
    [entry] = root.glob("corpus-*")
    with monkeypatch.context() as patch:  # what another tree's corpus.py stores
        patch.setattr(cache, "source_digest", lambda *files: "0" * 64)
        load_corpus(expost_copy)
    [other] = set(_stored(root)) - {entry}
    data = entry.read_bytes()
    entry.unlink()
    _, key = entry.name.split("-", 1)
    foreign = [other, root / f"corpus-v1-{key}"] + [
        root / f"corpus-v1-{index:064x}.marshal" for index in range(cache.ENTRIES - 3)]
    words = root / f"word_average-v4-{'0' * 64}.npy"  # another kind, never pruned by this one
    for age, path in enumerate([words, *foreign]):
        if path != other:
            path.write_bytes(data)
        os.utime(path, ns=(0, (1_000_000 + age) * 10**9))
    parsed = _counted_parses(monkeypatch)
    assert repr(load_corpus(expost_copy)) == repr(expected)
    assert len(parsed) == len(expected.digests) - 1  # a miss: no foreign entry was read
    assert _stored(root) == sorted([*foreign, entry])  # ENTRIES of its kind
    assert repr(load_corpus(expost_copy)) == repr(expected)
    assert len(parsed) == len(expected.digests) - 1  # the stored entry serves the next load
    with monkeypatch.context() as patch:  # one more store, by other code
        patch.setattr(cache, "source_digest", lambda *files: "1" * 64)
        load_corpus(expost_copy)
    [newest] = set(_stored(root)) - {*foreign, entry}
    assert _stored(root) == sorted([*foreign[1:], entry, newest])
    assert words.exists()


def _stored(root: Path) -> list[Path]:
    """The corpus entries in a cache directory, without their markers."""
    return sorted(path for path in root.glob("corpus-*") if path.suffix != ".used")


def test_a_warm_entry_is_not_served_to_a_changed_parser(expost_manifest, tmp_path):
    # a copy of the package whose row check rejects every row: a warm ingest
    # must fail as a cold one does, whatever an unchanged parser stored
    src = Path(riskbench.__file__).resolve().parent
    mutant = tmp_path / "mutant" / "riskbench"
    shutil.copytree(src, mutant, ignore=shutil.ignore_patterns("__pycache__"))
    parser = mutant / "corpus.py"
    check = ("    risk_id, name, description, category, probability, cost, schedule, status, _"
             " = fields\n")
    assert parser.read_text(encoding="utf-8").count(check) == 1
    parser.write_text(parser.read_text(encoding="utf-8").replace(
        check, '    raise ParseError(f"{where}: rejected")\n' + check), encoding="utf-8")

    def ingest(package: Path, cache_home: Path):
        env = dict(os.environ, PYTHONPATH=str(package.parent), XDG_CACHE_HOME=str(cache_home))
        return subprocess.run([sys.executable, "-m", "riskbench.cli", "ingest", "--manifest",
                               str(expost_manifest), "--out", str(tmp_path / "ingest.json")],
                              env=env, capture_output=True, text=True, timeout=120)

    assert ingest(src, tmp_path / "warm").returncode == 0  # stores the corpus entry
    cold, warm = ingest(mutant, tmp_path / "cold"), ingest(mutant, tmp_path / "warm")
    assert cold.returncode == warm.returncode == 1
    assert warm.stderr == cold.stderr
    assert cold.stderr.startswith("error: ") and cold.stderr.endswith(": rejected\n")


def test_unwritable_cache_dir_still_loads_and_says_nothing(expost_copy, tmp_path, monkeypatch,
                                                           capsys):
    expected = load_corpus(expost_copy)
    [entry] = _corpus_entries(tmp_path / "cache")
    # an entry path taken by a directory can be neither read nor replaced
    entry.unlink()
    entry.mkdir()
    assert load_corpus(expost_copy) == expected
    assert _corpus_entries(tmp_path / "cache") == [entry]  # no temp file left behind
    # a cache home that is a file: the cache dir cannot be created
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    for _ in range(2):
        assert load_corpus(expost_copy) == expected
    assert capsys.readouterr() == ("", "")


def _changed_scales(path: Path, change: str) -> Path:
    """The default scale config with raised probability edges, or with the
    (1, 1) cell of its risk matrix raised from Low to Medium."""
    cfg = default_scale_config()
    matrix = {f"{p},{i}": q.value for (p, i), q in cfg.risk_matrix.items()}
    edges = list(cfg.probability_band_edges)
    if change == "scales":
        edges = [0.2, 0.4, 0.6, 0.8]
    else:
        assert matrix["1,1"] == Qualitative.LOW.value
        matrix["1,1"] = Qualitative.MEDIUM.value
    path.write_text(json.dumps({
        "probability_band_edges": edges,
        "cost_band_edges": list(cfg.cost_band_edges),
        "schedule_band_edges": list(cfg.schedule_band_edges),
        "risk_matrix": matrix,
    }))
    return path


@pytest.mark.parametrize("change", ["register byte", "contract value", "scales", "risk matrix"])
def test_changed_input_is_a_corpus_cache_miss(expost_copy, tmp_path, monkeypatch, change):
    first = load_corpus(expost_copy)
    scales = None
    if change == "register byte":  # a name's letter, in the last register
        register = expost_copy.parent / list(first.digests)[-1]
        data = register.read_bytes()
        at = data.index(b"\n") + data[data.index(b"\n"):].index(b",") + 1
        register.write_bytes(data[:at] + bytes([data[at] ^ 0x20]) + data[at + 1:])
    elif change == "contract value":  # within the project's size band
        manifest = json.loads(expost_copy.read_text(encoding="utf-8"))
        manifest["projects"][0]["contract_value_musd"] += 1
        expost_copy.write_text(json.dumps(manifest), encoding="utf-8")
    else:  # the same edges and another risk matrix cell, or other edges
        scales = load_scale_config(_changed_scales(tmp_path / "scales.json", change))
    parsed = _counted_parses(monkeypatch)
    load_corpus(expost_copy, scales)
    assert len(parsed) == len(first.digests) - 1
    assert len(_corpus_entries(tmp_path / "cache")) == 2


def test_loaded_records_are_slotted(expost_manifest):
    corpus = load_corpus(expost_manifest)
    project = corpus.projects[0]
    item = project.snapshots[-1].items[-1]
    for record in (corpus, project, project.snapshots[-1], item, item.assessment):
        assert not hasattr(record, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(record, fields(record)[0].name, None)
        # a frozen slotted class has no room for a new attribute; Python 3.11
        # reports it as a TypeError from the frozen __setattr__'s super() call
        with pytest.raises((AttributeError, TypeError)):
            record.note = "x"
        with pytest.raises(TypeError):
            weakref.ref(record)


def test_load_corpus_keeps_one_object_per_distinct_text(tmp_path):
    (tmp_path / "a.csv").write_text(
        CSV_HEADER + "r1,Utility relocation,Late permits,design,0.5,-0.0,1.0,Reg,0\n"
        "r2,Design changes,,design,0.5,0.0,1.0,Reg,0\n")
    (tmp_path / "b.csv").write_text(
        CSV_HEADER + "r1, Utility relocation ,Late permits,design,0.5,0.0,-0.0, Reg,1\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"projects": [
        _project(contract_value_musd=100, registers=[{"path": "a.csv"}, {"path": "b.csv"}]),
        _project(id="p2", contract_value_musd=100, registers=[{"path": "b.csv"}]),
    ]}))
    corpus = load_corpus(manifest)
    assert corpus == reference_load(manifest)
    (r1, r2), (later,) = (s.items for s in corpus.projects[0].snapshots)
    other = corpus.projects[1].register.items[0]
    for text in ("risk_id", "name", "description", "category_label", "status_note"):
        assert getattr(r1, text) is getattr(later, text) is getattr(other, text)
    assert r1.category_label is r2.category_label
    # numbers are never shared by equality: each -0.0 keeps its sign
    assert [math.copysign(1, value) for value in (
        r1.assessment.raw_cost, r2.assessment.raw_cost, later.assessment.raw_schedule)] == [-1, 1, -1]


_PEAK_SCRIPT = """
import hashlib
import sys

from riskbench import corpus

if len(sys.argv) > 1:
    loaded = corpus.load_corpus(sys.argv[1])
with open("/proc/self/status", encoding="ascii") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_loaded_corpus_peak_per_row(tmp_path):
    # yearly snapshots that repeat each risk's id, name, category and status,
    # with raw values distinct per row
    projects, snapshots, risks = 6, 5, 400
    names = [f"risk {a} near {b} during works" for a in range(30) for b in range(10)]
    categories = ["design", "construction", "utilities", "right-of-way", "environment",
                  "third party", "management"]
    entries = []
    for p in range(projects):
        registers = []
        for s in range(snapshots):
            rows = (f"p{p}-R{r:04d},{names[(p + r) % len(names)]},,{categories[r % 7]},"
                    f"0.{(r * 7 + s) % 1000:03d},{(p * r + s) % 997 / 100:.2f},"
                    f"{(r + s * 13) % 1200 / 100:.2f},{('Reg', 'Hap', 'Clo')[s % 3]},{s}\n"
                    for r in range(risks))
            (tmp_path / f"p{p}_s{s}.csv").write_text(CSV_HEADER + "".join(rows))
            registers.append({"path": f"p{p}_s{s}.csv"})
        entries.append(_project(id=f"p{p}", contract_value_musd=600, size_band="500M_to_1B",
                                registers=registers))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"projects": entries}))
    src = str(Path(riskbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, XDG_CACHE_HOME=str(tmp_path / "cache"))

    def peak_bytes(*args):
        result = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, *args], env=env,
                                capture_output=True, text=True, timeout=120, check=True)
        return int(result.stdout) * 1024

    baseline = peak_bytes()
    # a miss, which parses and stores the corpus, then a hit
    for case in ("miss", "hit"):
        loaded = peak_bytes(str(manifest))
        assert len(_corpus_entries(tmp_path / "cache")) == 1
        # about 680 bytes a row with a __dict__ per record and a str per cell,
        # about 310 with slotted records and one str per distinct text
        assert (loaded - baseline) / (projects * snapshots * risks) < 450, case


def _one_register_manifest(directory: Path, rows: str, value=None) -> Path:
    (directory / "r.csv").write_text(CSV_HEADER + rows)
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({"projects": [_project(contract_value_musd=value)]}))
    return manifest


@pytest.mark.parametrize("rows, error, message", [
    # the whole file parses before any row normalizes
    ("r1,A,,,,1.0,,,\nr2,B,,,7,,,,\n", ParseError, "r.csv, row 3: probability band 7 outside 1..5"),
    ("r1,A,,,,1.0,,,\nr2,B,,,,,,,\n", CorpusError,
     "r.csv:r1: a positive project value is required to normalize a raw cost impact"),
    # within a row: measures, then risk_id, then name, then the raw
    # probability, cost and schedule
    (",A,,,x,,,,\n", ParseError, "r.csv, row 2: probability value 'x' is not numeric"),
    (",A,,,1,0,,,\n", ParseError, "r.csv, row 2: cost_impact band 0 outside 1..5"),
    (" , ,,,1.5,,,,\n", ParseError, "r.csv, row 2: missing risk_id"),
    ("r1, ,,,1.5,,,,\n", ParseError, "r.csv, row 2: risk 'r1' has an empty name"),
    ("r1,A,,,1.5,,,,\n", ParseError,
     "r.csv, row 2: raw_probability must be a fraction in [0, 1], got 1.5"),
    (" ,A,,,,nan,,,\n", ParseError, "r.csv, row 2: missing risk_id"),
    ("r1,A,,,1.5,inf,,,\n", ParseError,
     "r.csv, row 2: raw_probability must be a fraction in [0, 1], got 1.5"),
    ("r1,A,,,,nan,,,\n", ParseError, "r.csv, row 2: raw_cost must be a finite number, got nan"),
    ("r1,A,,,,inf,-inf,,\n", ParseError,
     "r.csv, row 2: raw_cost must be a finite number, got inf"),
    ("r1,A,,,,,-inf,,\n", ParseError,
     "r.csv, row 2: raw_schedule must be a finite number, got -inf"),
    # rows parse before the snapshot column is checked
    ("r1,A,,,,,,,0\nr2,B,,,,,,,1\nr3,C,,,9,,,,\n", ParseError,
     "r.csv, row 4: probability band 9 outside 1..5"),
    ("r1,A,,,,,,,-1\n", ParseError, "r.csv: snapshot column must be >= 0, got -1"),
])
def test_load_corpus_error_precedence(tmp_path, monkeypatch, rows, error, message):
    # the cache holds the corpus of a clean register at the same path
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    load_corpus(_one_register_manifest(tmp_path, "r1,A,,,,,,,\n"))
    [entry] = _corpus_entries(tmp_path / "cache")
    manifest = _one_register_manifest(tmp_path, rows)
    with pytest.raises(error) as excinfo:
        load_corpus(manifest)
    assert type(excinfo.value) is error
    assert str(excinfo.value).endswith(message)
    assert _outcome(reference_load, manifest)[1] == (error.__name__, str(excinfo.value))
    assert _corpus_entries(tmp_path / "cache") == [entry]  # no entry, no temp file
