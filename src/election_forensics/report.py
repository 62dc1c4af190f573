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
import os
import tempfile
import time
from itertools import islice
from pathlib import Path

from . import __version__
from .dataset import ROW_BLOCK

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


def render_report(report: dict) -> str:
    """``json.dumps(report, indent=2, ensure_ascii=False, sort_keys=True)`` and a newline.

    The encoder's small pieces are joined ROW_BLOCK at a time, and then the
    blocks: joined all at once, their list took about five times the text
    of a report of 16,000 rows.
    """
    pieces = json.JSONEncoder(indent=2, ensure_ascii=False, sort_keys=True).iterencode(report)
    blocks = []
    while block := list(islice(pieces, ROW_BLOCK)):
        blocks.append("".join(block))
    blocks.append("\n")
    return "".join(blocks)


def write_report(out_dir: str | Path, report: dict) -> Path:
    out = Path(out_dir)
    target = out / REPORT_FILENAME
    atomic_write_text(target, render_report(report))
    meta = {"written_at_unix": time.time(), "report": REPORT_FILENAME}
    atomic_write_text(out / META_FILENAME, json.dumps(meta, indent=2) + "\n")
    return target
