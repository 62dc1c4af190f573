import json
from pathlib import Path

import jsonschema
import pytest

from election_forensics.report import (
    CAVEAT,
    build_report,
    input_digest,
    render_report,
    write_report,
)

from conftest import REPORT_SCHEMA


def _sample(tmp_path: Path) -> dict:
    source = tmp_path / "in.csv"
    source.write_text("x\n1\n")
    return build_report(
        command="validate",
        config={"seed": 3, "alpha": 0.01},
        inputs=[input_digest(source, source.read_bytes())],
        results={"records": 1},
    )


def test_report_carries_caveat_and_validates(tmp_path):
    report = _sample(tmp_path)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["caveat"] == CAVEAT
    report["inputs"][0]["sha256"] = "XYZ"  # the packaged schema's digest pattern applies
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, REPORT_SCHEMA)


def test_write_report_is_atomic_and_deterministic(tmp_path):
    report = _sample(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    write_report(out1, report)
    write_report(out2, report)
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert not list(out1.glob("*.tmp"))
    meta = json.loads((out1 / "report.meta.json").read_text())
    assert "written_at_unix" in meta


def test_render_report_stable_key_order(tmp_path):
    report = _sample(tmp_path)
    text = render_report(report)
    assert text == render_report(dict(reversed(list(report.items()))))
    assert text.endswith("\n")


def test_input_digest_matches_manual_hash(tmp_path):
    import hashlib

    f = tmp_path / "data.bin"
    f.write_bytes(b"abc123")
    assert input_digest(f, f.read_bytes()) == {"path": str(f), "sha256": hashlib.sha256(b"abc123").hexdigest()}
