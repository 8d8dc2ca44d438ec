"""Bundled data files, checked reads of input files, their JSON shapes and
their CSV rows.

RISKBENCH_DATA overrides the packaged data directory.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import reprlib
from importlib import resources
from pathlib import Path
from typing import Iterator, Sequence

from .errors import ParseError

_ENV_VAR = "RISKBENCH_DATA"

# defaults and choices that the command line offers before it loads an engine
DEFAULT_MATCH_THRESHOLD = 0.7  # template grouping
DEFAULT_LABEL_THRESHOLD = 0.6  # template evaluation
DEFAULT_COVERAGE_THRESHOLD = 0.6  # rbs coverage
# each template sort key and the RiskGroup field it ranks by
SORT_KEYS = {"prevalence": "prevalence", "cost": "avg_cost_band", "schedule": "avg_schedule_band"}
# the ProjectRecord fields a report can group projects by
GROUP_FIELDS = ("project_id", "jurisdiction", "delivery_method", "project_type", "size_band",
                "contract_value_musd", "award_year")


def data_root() -> Path:
    override = os.environ.get(_ENV_VAR)
    if override:
        return Path(override)
    return Path(str(resources.files("riskbench").joinpath("data")))


def data_path(*parts: str) -> Path:
    path = data_root().joinpath(*parts)
    if not path.exists():
        raise FileNotFoundError(f"bundled data file not found: {path}")
    return path


def input_text(data: bytes, source: str, what: str = "") -> str:
    """An input file's text, without the UTF-8 byte-order mark that
    spreadsheets and some editors write first; every input is decoded here.
    When it is not valid UTF-8, ParseError names `source`, then `what` the
    file holds if given, and the position counted in the file's bytes."""
    # decoding a view past the mark (EF BB BF) makes the text the only copy
    skip = 3 if data.startswith(b"\xef\xbb\xbf") else 0
    try:
        return str(memoryview(data)[skip:], "utf-8")
    except UnicodeDecodeError as exc:
        exc.object, exc.start, exc.end = data, exc.start + skip, exc.end + skip
        subject = f"{what} is " if what else ""
        raise ParseError(f"{source}: {subject}not valid UTF-8 ({exc})") from exc


def json_value(data: bytes | str, source: str, what: str = ""):
    """The JSON value of an input file's bytes, read by `input_text` with
    universal newlines so that the decoder counts lines as a text-mode read
    does, or of text already decoded from them, such as one line. ParseError
    names `source`, then `what` the file holds if given, and the position."""
    if isinstance(data, bytes):
        data = input_text(data, source, what).replace("\r\n", "\n").replace("\r", "\n")
    subject = f"{what} is " if what else ""
    try:
        return json.loads(data)
    except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
        raise ParseError(f"{source}: {subject}not valid JSON ({exc})") from exc
    except RecursionError as exc:  # arrays or objects nested about 1,000 deep
        raise ParseError(f"{source}: {subject}JSON nested too deeply to read ({exc})") from exc


def read_json_checked(path: str | Path, what: str, shape):
    """The JSON value of a UTF-8 input file, as `json_value` reads it,
    checked against `shape` by `check_shape`."""
    value = json_value(Path(path).read_bytes(), str(path), what)
    check_shape(value, shape, str(path))
    return value


def read_result(path: str | Path, what: str, shape):
    """The "result" of a report file, or the bare result a file holds, read
    as `read_json_checked` reads a file of `shape`."""
    value = json_value(Path(path).read_bytes(), str(path), what)
    wrapped = isinstance(value, dict) and "result" in value
    check_shape(value, {"result": shape} if wrapped else shape, str(path))
    return value["result"] if wrapped else value


def csv_rows(data: bytes, source: str, columns: Sequence[str],
             required: Sequence[str]) -> Iterator[tuple[str, list]]:
    """Each row of a CSV input file, as `input_text` reads it: the row's
    location "<source>, row N", N the line the row ends on, and its cells in
    `columns` order. The last column of a repeated header name wins, a
    column the header lacks or a short row does not reach reads None, and a
    blank line is skipped. ParseError names `source` and a `required` column
    the header lacks, or the row of a csv.Error, such as a cell past the csv
    module's limit of 131,072 characters."""
    reader = csv.reader(io.StringIO(input_text(data, source)))
    try:
        header = next(reader, [])
        for name in required:
            if name not in header:
                raise ParseError(f"{source}: header is missing required column {name!r}")
        width = len(header)
        index = {name: position for position, name in enumerate(header)}
        positions = [index.get(name, width) for name in columns]  # `width`: the None added below
        for cells in reader:
            if not cells:
                continue
            if len(cells) != width:
                cells = (cells + [None] * width)[:width]
            cells.append(None)
            yield f"{source}, row {reader.line_num}", [cells[position] for position in positions]
    except csv.Error as exc:
        raise ParseError(f"{source}, row {reader.line_num}: {exc}") from exc


# ------------------------------------------------------------ JSON shapes
#
# A shape declares what a JSON input holds: str, int (not a bool), bool, or
# float (a finite number: an int or a float, not a bool); [item], an array of
# `item`; {str: item}, an object used as a map; {"key": item, "key?": item},
# an object with fixed keys, "?" marking an optional one and keys the shape
# does not name ignored; or (item, None), `item` or null.


def is_int(value) -> bool:
    """An int, not a bool."""
    return isinstance(value, int) and type(value) is not bool


def is_number(value) -> bool:
    """An int or a float, finite or not; not a bool."""
    return isinstance(value, (int, float)) and type(value) is not bool


def is_finite(value) -> bool:
    """An int or a float that is finite as a float; not a bool."""
    try:  # a float is tested first: it is the kind nearly every vector component has
        return (isinstance(value, float) or is_int(value)) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


_KINDS = {
    str: ("a string", lambda value: isinstance(value, str)),
    int: ("an integer", is_int),
    float: ("a finite number", is_finite),
    bool: ("true or false", lambda value: isinstance(value, bool)),
    list: ("an array", lambda value: isinstance(value, list)),
    dict: ("an object", lambda value: isinstance(value, dict)),
}


def check_shape(value, shape, source: str) -> None:
    """Check a parsed JSON value against its declared shape; ParseError names
    `source` and the JSON path of the first part, in document order, that does
    not fit: `rbs.json: categories[2].items[0].text must be a string, got 5`."""
    _check(value, shape, source, "")


def _check(value, shape, source: str, path: str) -> None:
    nullable = type(shape) is tuple
    if nullable:
        if value is None:
            return
        shape = shape[0]
    what, fits = _KINDS.get(type(shape)) or _KINDS[shape]
    if not fits(value):
        raise ParseError(f"{source}: {path.removeprefix('.') or 'the top level'} must be "
                         f"{what}{' or null' if nullable else ''}, got {reprlib.repr(value)}")
    if type(shape) is list:
        item = shape[0]
        if type(item) is type and all(map(_KINDS[item][1], value)):
            return  # an array of scalars that all fit, such as a vector
        for index, element in enumerate(value):
            _check(element, item, source, f"{path}[{index}]")
    elif type(shape) is dict and str in shape:
        for key, element in value.items():
            _check(element, shape[str], source, f"{path}.{key}")
    elif type(shape) is dict:
        for key, item in shape.items():
            name = key.removesuffix("?")
            if name in value:
                _check(value[name], item, source, f"{path}.{name}")
            elif name == key:
                raise ParseError(f"{source}: {f'{path}.{name}'.removeprefix('.')} is missing")
