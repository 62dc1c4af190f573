"""JSON report assembly with a fixed caveat footer and atomic writes.

Every report carries the library version, the full run configuration
(seeds and thresholds included), SHA-256 digests of the input files, and a
fixed caveat string.  Reports are byte-deterministic for identical inputs;
the wall-clock timestamp goes to a separate ``report.meta.json`` sidecar so
it never perturbs the main file.  The packaged
``schemas/report.schema.json`` states the report's shape.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path

from . import __version__
from .dataset import format_rows

CAVEAT = (
    "Caveat: statistical screening cannot deliver final answers. These "
    "indicators quantify how surprising the reported figures are under an "
    "explicit null model; they are diagnostics to be weighed together with "
    "observation reports and other evidence, not standalone proof of fraud."
)

REPORT_FILENAME = "report.json"
META_FILENAME = "report.meta.json"

# The mode a plain open() gives a new file.  The umask can only be read by
# setting it, so it is read once at import rather than on each write, where
# another thread could create a file while it is briefly changed.
_UMASK = os.umask(0o022)
os.umask(_UMASK)
_FILE_MODE = 0o666 & ~_UMASK
WRITE_SLICE = 1 << 20  # characters of text encoded and written at a time


def input_digest(path: str | Path, data: bytes) -> dict:
    """The report's record of an input file: its path and the sha256 of ``data``, the bytes read from it."""
    return {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}


def build_report(command: str, config: dict, inputs: list[dict], results: dict) -> dict:
    return {
        "tool": {"name": "election-forensics", "version": __version__},
        "command": command,
        "config": config,
        "inputs": inputs,
        "results": results,
        "caveat": CAVEAT,
    }


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in its directory, renamed over it when complete.

    The file gets the mode ``open()`` would create it with, not
    ``mkstemp``'s 0600.  The text is written ``WRITE_SLICE`` characters at
    a time, so only one slice's encoded copy is held at once.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            os.fchmod(handle.fileno(), _FILE_MODE)
            for start in range(0, len(text), WRITE_SLICE):
                handle.write(text[start : start + WRITE_SLICE])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


INDENT = "  "
_MAX_DEPTH = 64  # deeper values, circular ones included, are left to ``json``
_BOOL_TEXT = {True: "true", False: "false"}


class _General(Exception):
    """A value the templated renderer leaves to ``json``'s encoder."""


def render_report(report: dict) -> str:
    """``json.dumps(report, indent=2, ensure_ascii=False, sort_keys=True)`` and a newline.

    A list of two or more flat dicts with one key set, such as a report's
    per-precinct rows, goes through ``dataset.format_rows`` with one row
    template; everything else is rendered piece by piece the way ``json``
    renders it.  Every piece goes into one list, joined once.  A report holding a
    value this renderer does not know is rendered, or refused, by ``json``
    itself.
    """
    pieces: list[str] = []
    try:
        _render(report, 0, pieces)
    except _General:
        pieces = [json.dumps(report, indent=2, ensure_ascii=False, sort_keys=True)]
    pieces.append("\n")
    return "".join(pieces)


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _scalar(value) -> str | None:
    """``json``'s text of a str, None, bool, int or float; None for any other value."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    return None


def _key(key) -> str:
    """A dict key as ``json`` writes it: a str, or the text of a float, bool, None or int, quoted."""
    text = key if isinstance(key, str) else _scalar(key)
    if text is None:
        raise _General
    return encode_basestring(text)


def _render(value, level: int, out: list[str]) -> None:
    text = _scalar(value)
    if text is not None:
        out.append(text)
    elif level > _MAX_DEPTH:
        raise _General
    elif type(value) is list or type(value) is tuple:
        _render_list(value, level, out)
    elif type(value) is dict:
        _render_dict(value, level, out)
    else:
        raise _General


def _render_dict(value: dict, level: int, out: list[str]) -> None:
    if not value:
        out.append("{}")
        return
    try:
        items = sorted(value.items())
    except TypeError:  # keys of types that do not compare
        raise _General from None
    inner = "\n" + INDENT * (level + 1)
    out.append("{")
    for i, (key, item) in enumerate(items):
        out.append(("," + inner if i else inner) + _key(key) + ": ")
        _render(item, level + 1, out)
    out.append("\n" + INDENT * level + "}")


def _render_list(items: list | tuple, level: int, out: list[str]) -> None:
    if not items:
        out.append("[]")
        return
    inner = "\n" + INDENT * (level + 1)
    sep = "," + inner
    out.append("[" + inner)
    if not _render_rows(items, level + 1, sep, out):
        for i, item in enumerate(items):
            if i:
                out.append(sep)
            _render(item, level + 1, out)
    out.append("\n" + INDENT * level + "]")


def _render_rows(rows: list | tuple, level: int, sep: str, out: list[str]) -> bool:
    """Render ``rows``, if two or more flat dicts with one key set, through ``format_rows`` with one row template.

    Flat means str keys and scalar values.  The template has one
    conversion per column: ``%r`` for a column of finite floats, ``%d``
    for one of ints, and ``%s`` of each cell's text otherwise.  Returns
    False, having written nothing, for any other list.
    """
    first = rows[0]
    if len(rows) < 2 or type(first) is not dict or not first or set(map(type, first)) != {str}:
        return False
    width = len(first)
    if set(map(type, rows)) != {dict} or set(map(len, rows)) != {width}:
        return False
    keys = sorted(first)  # a row of ``width`` keys that holds all of these has this key set
    inner = "\n" + INDENT * (level + 1)
    fields, columns = [], []
    for key in keys:
        try:
            converted = _column(list(map(itemgetter(key), rows)))
        except KeyError:
            return False
        if converted is None:
            return False
        fields.append(inner + encode_basestring(key).replace("%", "%%") + ": " + converted[0])
        columns.append(converted[1])
    row = sep + "{" + ",".join(fields) + "\n" + INDENT * level + "}"
    out.append(format_rows(row, columns)[len(sep) :])  # the first row loses its leading separator
    return True


def _column(column: list | tuple) -> tuple[str, list | tuple] | None:
    """A column's ``%`` conversion and the cells it takes, or None if a cell is not a scalar."""
    kinds = set(map(type, column))
    if kinds == {float} and math.isfinite(sum(column)):  # a finite sum has no non-finite term
        return "%r", column
    if kinds == {int}:
        return "%d", column
    if kinds == {str}:
        return "%s", list(map(encode_basestring, column))
    if kinds == {bool}:
        return "%s", list(map(_BOOL_TEXT.__getitem__, column))
    texts = list(map(_scalar, column))
    return None if None in texts else ("%s", texts)


def write_report(out_dir: str | Path, report: dict) -> Path:
    out = Path(out_dir)
    target = out / REPORT_FILENAME
    atomic_write_text(target, render_report(report))
    meta = {"written_at_unix": time.time(), "report": REPORT_FILENAME}
    atomic_write_text(out / META_FILENAME, json.dumps(meta, indent=2) + "\n")
    return target
