"""JSON report assembly with a fixed caveat footer and atomic writes.

Every report carries the library version, the full run configuration
(seeds and thresholds included), SHA-256 digests of the input files, and a
fixed caveat string.  Reports are byte-deterministic for identical inputs;
the wall-clock timestamp goes to a separate ``report.meta.json`` sidecar so
it never perturbs the main file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from importlib import resources
from pathlib import Path

from . import __version__

CAVEAT = (
    "Caveat: statistical screening cannot deliver final answers. These "
    "indicators quantify how surprising the reported figures are under an "
    "explicit null model; they are diagnostics to be weighed together with "
    "observation reports and other evidence, not standalone proof of fraud."
)

REPORT_FILENAME = "report.json"
META_FILENAME = "report.meta.json"


def input_digest(path: str | Path) -> dict:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return {"path": str(path), "sha256": digest}


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
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def write_report(out_dir: str | Path, report: dict) -> Path:
    out = Path(out_dir)
    target = out / REPORT_FILENAME
    atomic_write_text(target, render_report(report))
    meta = {"written_at_unix": time.time(), "report": REPORT_FILENAME}
    atomic_write_text(out / META_FILENAME, json.dumps(meta, indent=2) + "\n")
    return target


REPORT_SCHEMA = json.loads(
    resources.files(__package__).joinpath("schemas/report.schema.json").read_text(encoding="utf-8")
)


_JSON_TYPES = {"object": dict, "array": list, "string": str}


def _schema_problems(value, schema: dict, where: str) -> list[str]:
    """Problems of ``value`` against the subset of JSON Schema that REPORT_SCHEMA uses."""
    if not isinstance(value, _JSON_TYPES[schema["type"]]):
        return [f"{where} must be of type {schema['type']}"]
    problems = [f"missing key {key!r} in {where}" for key in schema.get("required", ()) if key not in value]
    for key, sub in schema.get("properties", {}).items():
        if key in value:
            problems += _schema_problems(value[key], sub, f"{where}.{key}")
    for i, item in enumerate(value if "items" in schema else ()):
        problems += _schema_problems(item, schema["items"], f"{where}[{i}]")
    if "pattern" in schema and not re.search(schema["pattern"], value):
        problems.append(f"{where} does not match {schema['pattern']}")
    return problems


def validate_report(report: dict) -> list[str]:
    """Check against REPORT_SCHEMA plus the exact caveat; returns a list of problems."""
    problems = _schema_problems(report, REPORT_SCHEMA, "report")
    if isinstance(report, dict) and report.get("caveat") != CAVEAT:
        problems.append("caveat footer missing or altered")
    return problems
