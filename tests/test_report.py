from __future__ import annotations

import importlib.util
import json
import math
import os
import stat
import sys
import threading
from enum import Enum, IntEnum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskbench import report as report_module
from riskbench.report import (
    PairRows,
    PairScore,
    atomic_output,
    canonical_json,
    emit_report,
    file_digest,
    write_heatmap_csv,
)

from .conftest import assert_same_text


def _round_floats(value):
    """The rounded copy the writer once made before `json.dumps`, with pair
    rows as their list of objects."""
    if isinstance(value, PairRows):
        value = [{"a": p.a, "b": p.b, "score": p.score} for p in value]
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"reports must not contain non-finite floats: {value!r}")
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {str(key): _round_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(item) for item in value]
    return value


def oracle_json(payload) -> str:
    """The canonical text as the standard library prints it."""
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def pair_rows(scores, labels=("p1:r1", "p1:r2", "p2:é\"1")):
    scores = np.asarray(scores, dtype=float)
    rows = np.arange(len(scores)) % len(labels)
    return PairRows(list(labels), rows, (rows + 1) % len(labels), scores)


class Color(str, Enum):
    RED = "red"
    BLUE = "blue"


class Rank(IntEnum):
    LOW = 1
    HIGH = 3


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 1 / 3, 0.7333335,
                     123456.5, 1e300, -1e-300]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**64) - 1, 10**40, Rank.LOW, Rank.HIGH]),
    FLOATS,
    st.text(),
    st.text(alphabet="\x00\x01\x1f\x7f\"\\/\u00e9\u2028\u2029\U0001f600\ud800 \t\n"),
    st.sampled_from(list(Color)),
    st.lists(FLOATS, max_size=3).map(pair_rows),
)
# small alphabets and ints so that keys such as 1 and "1", or True and "True", collide
KEYS = st.one_of(st.text(alphabet="1Tru", max_size=4), st.integers(-2, 2), st.booleans(),
                 st.none(), st.sampled_from([0.5, -0.0, Color.RED, Rank.HIGH]))
PAYLOADS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(PAYLOADS)
def test_canonical_json_equals_the_standard_library(payload):
    assert_same_text(canonical_json(payload), oracle_json(payload))


@pytest.mark.parametrize("payload", [
    {}, [], (), "", 0, -0.0, {"a": {}, "b": [], "c": [[], {}, ()]}, [[[[{"x": [()]}]]]],
    {1: "int", "1": "str"}, {"1": "str", 1: "int"}, {True: 1, "True": 2, None: 3, "None": 4},
    {Color.RED: Color.BLUE, "Color.RED": 1}, [True, 1, 1.0, False, 0, 0.0],
    {"big": 10**30, "tiny": 5e-324, "e16": 1e16, "e-7": 1e-7, "neg": -0.0},
    {"s": "\x00\u00e9\u2028\ud800\"\\"},
])
def test_canonical_json_equals_the_standard_library_on_edge_payloads(payload):
    assert_same_text(canonical_json(payload), oracle_json(payload))


def test_canonical_json_float_formatting():
    text = canonical_json({"x": 0.7333333333333})
    assert '"x": 0.733333' in text
    assert text.endswith("\n")


def test_canonical_json_sorted_keys():
    text = canonical_json({"b": 1, "a": {"z": 1, "y": 2}})
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"y"') < text.index('"z"')


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [
    lambda x: {"x": x},
    lambda x: [1, [2, {"y": (x,)}]],
    lambda x: {"pairs": pair_rows([0.5, x, 0.25])},
])
def test_canonical_json_rejects_non_finite_anywhere(bad, where):
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json(where(bad))


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_json({"x": {1, 2}})


@pytest.mark.parametrize("count", [0, 1, 3, 2 * report_module._PAIR_CHUNK + 5])
def test_pair_rows_write_as_their_list_of_objects(count):
    rng = np.random.default_rng(count)
    scores = np.round(rng.uniform(-1, 1, count), 2)
    scores[::7] = -0.0
    scores[1::7] = 0.0
    scores[2::7] = 5e-324
    rows = pair_rows(scores)
    listed = [{"a": p.a, "b": p.b, "score": p.score} for p in rows]
    assert len(listed) == len(rows) == count
    payload = {"result": {"aggregates": {"n": count}, "pairs": rows, "z": [rows]}}
    expected = {"result": {"aggregates": {"n": count}, "pairs": listed, "z": [listed]}}
    assert_same_text(canonical_json(payload), oracle_json(expected))


def test_pair_rows_are_a_sequence_of_pair_scores():
    rows = pair_rows([0.5, 1.0])
    listed = [PairScore("p1:r1", "p1:r2", 0.5), PairScore("p1:r2", 'p2:é"1', 1.0)]
    assert list(rows) == listed
    assert [rows[0], rows[-1]] == listed and type(rows[0].score) is float
    assert list(rows[1:]) == listed[1:] and listed[0] in rows
    with pytest.raises(IndexError):
        rows[2]
    same = pair_rows([0.5, 1.0])
    assert rows == same and hash(rows) == hash(same) and rows != pair_rows([0.5, 0.75])


def test_report_module_loads_standalone():
    path = Path(report_module.__file__)
    spec = importlib.util.spec_from_file_location("_standalone_riskbench_report", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        payload = {"b": [1.0 / 3, {"c": None}], "a": "é"}
        assert_same_text(module.canonical_json(payload), canonical_json(payload))
        rows = module.PairRows(["x", "y"], np.array([0, 1]), np.array([1, 0]),
                               np.array([0.5, 0.25]))
        assert_same_text(module.canonical_json(rows),
                         canonical_json(pair_rows([0.5, 0.25], ("x", "y"))))
    finally:
        del sys.modules[spec.name]


def test_canonical_json_deterministic():
    payload = {"scores": [0.1, 0.2, 1 / 3], "meta": {"n": 3}}
    assert_same_text(canonical_json(payload), canonical_json(json.loads(json.dumps(payload))))


def test_emit_report_byte_identical(tmp_path):
    report = {
        "command": "riskbench test",
        "config": {"threshold": 0.6},
        "version": "0.1.0",
        "inputs": {"manifest": "ab" * 32},
        "result": {"value": 2 / 3},
    }
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(report, first)
    emit_report(report, second)
    assert_same_text(first.read_bytes(), second.read_bytes())
    payload = json.loads(first.read_text())
    assert payload["result"]["value"] == 0.666667
    assert payload["command"] == "riskbench test"


def test_file_digest_stable(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("content")
    assert file_digest(path) == file_digest(path)
    assert len(file_digest(path)) == 64


def test_heatmap_csv_shape(tmp_path):
    path = tmp_path / "h.csv"
    write_heatmap_csv(path, ["a", "b"], ["a", "b"], [[1.0, 0.25], [None, 1.0]])
    assert path.read_bytes() == b",a,b\na,1,0.25\nb,,1\n"
    assert path.stat().st_mode == plain_write_mode(tmp_path)
    assert os.listdir(tmp_path) == ["h.csv"]


def test_heatmap_csv_rejects_ragged(tmp_path):
    path = tmp_path / "h.csv"
    path.write_bytes(b"old")
    with pytest.raises(ValueError):
        write_heatmap_csv(path, ["a"], ["a", "b"], [[1.0]])
    with pytest.raises(ValueError):
        write_heatmap_csv(path, ["a"], ["a"], [["not a number"]])
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["h.csv"]


def report_of(result):
    return {"command": "riskbench test", "config": {}, "version": "0.1.0", "inputs": {},
            "result": result}


def plain_write_mode(directory: Path) -> int:
    plain = directory / "plain"
    plain.write_bytes(b"")
    mode = plain.stat().st_mode
    plain.unlink()
    return mode


def test_emit_report_streams_and_counts_bytes(tmp_path):
    rows = pair_rows(np.linspace(0, 1, 3 * report_module._PAIR_CHUNK))
    path = tmp_path / "new" / "dir" / "report.json"
    written = emit_report(report_of({"pairs": rows}), path)
    data = path.read_bytes()
    assert written == len(data)
    assert_same_text(data.decode("utf-8"), canonical_json(report_of({"pairs": rows})))
    assert path.stat().st_mode == plain_write_mode(path.parent)
    assert os.listdir(path.parent) == ["report.json"]


@pytest.mark.parametrize("existing", [None, b"old report\n"])
def test_emit_report_failing_mid_stream_leaves_the_path_as_it_was(tmp_path, existing):
    path = tmp_path / "report.json"
    if existing is not None:
        path.write_bytes(existing)
        path.chmod(0o640)
    # the first pair list is written to the file before the second one fails
    rows = pair_rows(np.linspace(0, 1, 3 * report_module._PAIR_CHUNK))
    with pytest.raises(ValueError, match="non-finite"):
        emit_report(report_of({"a": rows, "b": pair_rows([0.5, math.nan])}), path)
    assert os.listdir(tmp_path) == ([] if existing is None else ["report.json"])
    if existing is not None:
        assert path.read_bytes() == existing
        assert path.stat().st_mode & 0o777 == 0o640


def test_atomic_output_keeps_the_mode_of_a_replaced_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old")
    path.chmod(0o604)
    with atomic_output(path) as handle:
        handle.write(b"new")
    assert path.read_bytes() == b"new"
    assert path.stat().st_mode & 0o777 == 0o604
    assert os.listdir(tmp_path) == ["out.csv"]


def test_atomic_output_writes_through_a_symbolic_link(tmp_path):
    target = tmp_path / "target.json"
    target.write_bytes(b"old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    emit_report(report_of(1), link)
    assert link.is_symlink()
    assert_same_text(target.read_text(), canonical_json(report_of(1)))


@pytest.mark.parametrize("write, expected", [
    (lambda path: emit_report(report_of({"pairs": pair_rows([0.5, 0.25])}), path),
     canonical_json(report_of({"pairs": pair_rows([0.5, 0.25])})).encode()),
    (lambda path: write_heatmap_csv(path, ["a"], ["a"], [[1.0]]), b",a\na,1\n"),
], ids=["report", "csv"])
def test_outputs_write_into_a_path_that_is_not_a_regular_file(tmp_path, write, expected):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write(fifo)
    reader.join(timeout=10)
    assert received == [expected]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]
