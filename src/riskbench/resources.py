"""Bundled data files, checked reads of input files and their JSON shapes.

RISKBENCH_DATA overrides the packaged data directory.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from importlib import resources
from pathlib import Path

from .errors import ParseError

_ENV_VAR = "RISKBENCH_DATA"


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
    try:
        return json.loads(data)
    except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
        subject = f"{what} is " if what else ""
        raise ParseError(f"{source}: {subject}not valid JSON ({exc})") from exc


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
