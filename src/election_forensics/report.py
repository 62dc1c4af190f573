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
_ROWS = "\x00rows"  # stands in the skeleton for a list of rows that format_rows writes


def render_report(report: dict) -> str:
    """``json.dumps(report, indent=2, ensure_ascii=False, sort_keys=True)`` and a newline.

    ``json`` renders a skeleton of the report in which each list of rows,
    such as a report's per-precinct rows, is the string ``_ROWS``.  The
    text of each is then replaced by its rows, which
    ``dataset.format_rows`` writes with one row template.  If that text
    occurs more often than there are lists of rows, the report itself
    holds it, and ``json`` renders the whole report.  A value too deep for
    the walk, a circular one included, is ``json``'s to render or refuse.
    """
    rows: list[list[str]] = []
    try:
        skeleton = _lift_rows(report, 0, rows)
    except RecursionError:
        skeleton, rows = report, []
    pieces = json.dumps(skeleton, indent=2, ensure_ascii=False, sort_keys=True).split(json.dumps(_ROWS))
    if len(pieces) != len(rows) + 1:
        pieces, rows = [json.dumps(report, indent=2, ensure_ascii=False, sort_keys=True)], []
    out = [pieces[0]]
    for blocks, piece in zip(rows, pieces[1:]):
        out.extend(blocks)
        out.append(piece)
    out.append("\n")
    return "".join(out)


def _lift_rows(value, level: int, rows: list[list[str]]):
    """``value``, at depth ``level``, with each list of rows in it replaced by ``_ROWS``.

    The rows' blocks go to ``rows`` in the order ``json`` writes them, a
    dict's items sorted by key.  A dict whose keys do not sort is left as
    it is, and so is every value but a dict, list or tuple.
    """
    if type(value) is dict:
        try:
            items = sorted(value.items())
        except TypeError:  # keys of types that do not compare, which json refuses
            return value
        return {key: _lift_rows(item, level + 1, rows) for key, item in items}
    if type(value) is not list and type(value) is not tuple:
        return value
    converted = _column(value, level + 1) if len(value) > 1 and type(value[0]) is dict else None
    if converted is None:
        return [_lift_rows(item, level + 1, rows) for item in value]
    item = "\n" + INDENT * (level + 1)
    blocks = format_rows("," + item + converted[0], converted[1])
    blocks[0] = "[" + item + blocks[0][1 + len(item) :]  # the first row's separator opens the list
    blocks.append("\n" + INDENT * level + "]")
    rows.append(blocks)
    return _ROWS


def _column(column: list | tuple, level: int) -> tuple[str, list[list]] | None:
    """The ``%`` template of a column of values at depth ``level``, and the columns of cells it takes.

    A column of finite floats takes ``%r``, of ints ``%d``, and of strs or
    bools ``%s`` of each cell's text.  A column of dicts with one set of
    str keys, or of lists of one length, takes a template with one column
    per key or position.  Any other column is None.
    """
    kinds = set(map(type, column))
    if kinds == {float} and math.isfinite(sum(column)):  # a finite sum has no non-finite term
        return "%r", [column]
    if kinds == {int}:
        return "%d", [column]
    if kinds == {str}:
        return "%s", [list(map(encode_basestring, column))]
    if kinds == {bool}:
        return "%s", [list(map(("false", "true").__getitem__, column))]
    if kinds == {dict} and set(map(type, column[0])) == {str}:
        keys, brackets = sorted(column[0]), "{}"
    elif kinds == {list}:
        keys, brackets = range(len(column[0])), "[]"
    else:
        return None
    if not keys or set(map(len, column)) != {len(keys)}:
        return None
    inner = "\n" + INDENT * (level + 1)
    templates, columns = [], []
    for key in keys:  # a dict of len(keys) keys that holds all of these has this key set
        try:
            converted = _column(list(map(itemgetter(key), column)), level + 1)
        except KeyError:
            return None
        if converted is None:
            return None
        label = encode_basestring(key).replace("%", "%%") + ": " if brackets == "{}" else ""
        templates.append(inner + label + converted[0])
        columns.extend(converted[1])
    return brackets[0] + ",".join(templates) + "\n" + INDENT * level + brackets[1], columns


def write_report(out_dir: str | Path, report: dict) -> Path:
    out = Path(out_dir)
    target = out / REPORT_FILENAME
    atomic_write_text(target, render_report(report))
    meta = {"written_at_unix": time.time(), "report": REPORT_FILENAME}
    atomic_write_text(out / META_FILENAME, json.dumps(meta, indent=2) + "\n")
    return target
