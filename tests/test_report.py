import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import election_forensics
from election_forensics.dataset import ROW_BLOCK
from election_forensics.report import (
    CAVEAT,
    WRITE_SLICE,
    atomic_write_text,
    build_report,
    input_digest,
    render_report,
    write_report,
)

from conftest import REPORT_SCHEMA, traced_peak


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


# Run in a child that sets its umask before the report module reads it: prints the octal modes
# of a file written by atomic_write_text and of one written by Path.write_text.
_MODE_SCRIPT = """
import os, sys
from pathlib import Path
os.umask(int(sys.argv[1], 8))
from election_forensics.report import atomic_write_text
out = Path(sys.argv[2])
atomic_write_text(out / "atomic.txt", "x")
(out / "plain.txt").write_text("x")
print(*(oct((out / name).stat().st_mode & 0o777) for name in ("atomic.txt", "plain.txt")))
"""


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_atomic_write_text_creates_files_with_the_umask_mode(tmp_path, umask, mode):
    env = dict(os.environ, PYTHONPATH=str(Path(election_forensics.__file__).parents[1]))
    ran = subprocess.run([sys.executable, "-c", _MODE_SCRIPT, oct(umask), str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert ran.stdout.split() == [oct(mode), oct(mode)]


def test_atomic_write_text_encodes_one_slice_at_a_time(tmp_path):
    # multi-byte characters on both sides of each slice boundary
    text = ("ж" + "a" * (WRITE_SLICE - 2) + "й") * 3 + "ё\n"
    atomic_write_text(tmp_path / "wide.txt", text)
    assert (tmp_path / "wide.txt").read_bytes() == text.encode("utf-8")
    long = "0123456789abcde\n" * (WRITE_SLICE // 2)  # 8 MiB
    _, peak = traced_peak(lambda: atomic_write_text(tmp_path / "long.txt", long))
    # a slice and its encoding, 2 MiB; encoded whole, the text took 8 MiB more
    assert peak < 3 * WRITE_SLICE, peak
    assert (tmp_path / "long.txt").read_text() == long


def _json(report) -> str:
    return json.dumps(report, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


_texts = st.one_of(st.text(max_size=8), st.sampled_from(["%", "%s", "%%d", "é\u2028", "\x00\x1f\"\\", "\ud800"]))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats().map(np.float64),
    _texts,
)


@st.composite
def _row_lists(draw, values):
    """Lists of dicts over one key set, some rows with a key dropped or added."""
    keys = draw(st.lists(_texts, max_size=4, unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        row = {key: draw(values) for key in keys}
        change = draw(st.integers(0, 9))
        if change == 0 and row:
            row.pop(next(iter(row)))
        elif change == 1:
            row[draw(_texts)] = draw(values)
        rows.append(row)
    return rows


_reports = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_texts, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(st.floats(), children, max_size=3),
        _row_lists(st.one_of(_scalars, _scalars, children)),
    ),
    max_leaves=30,
)


@given(st.dictionaries(_texts, _reports, max_size=5))
@settings(max_examples=400, deadline=None)
def test_render_report_is_json_dumps_with_indent_and_sorted_keys(report):
    assert render_report(report) == _json(report)


def test_render_report_templated_rows_across_blocks_match_json_dumps():
    """Rows past one ROW_BLOCK, with columns whose kinds change between blocks, are rendered as json renders them."""
    n = 2 * ROW_BLOCK + 3
    rows = [
        {
            "id": f"p{i}",
            "share": i / 7 if i != ROW_BLOCK + 1 else float("nan"),
            "count": i if i < ROW_BLOCK else float(i),
            "flag": i % 3 == 0,
            "note": None if i % 5 else "é%s",
            "xy": [i / 3, -i / 9 if i != 2 * ROW_BLOCK + 1 else -float("inf")],
        }
        for i in range(n)
    ]
    report = {"rows": rows, "one": rows[:1], "infinite": [{"v": float("inf")}, {"v": -float("inf")}]}
    assert render_report(report) == _json(report)
    # every column of these rows takes a template: [x, y], nested list and dict cells included
    cells = [{"id": f"p{i}", "xy": [i / 3, -i / 9], "pair": [[i, "é%s"], [i % 2 == 0]], "at": {"n%": i, "m": [i]}}
             for i in range(n)]
    report = {"cells": cells, "nested": {"cells": cells[:5]}}
    assert render_report(report) == _json(report)


def test_render_report_leaves_other_values_to_json():
    deep: list = []
    for _ in range(100):
        deep = [deep]
    assert render_report({"deep": deep}) == _json({"deep": deep})
    circular: list = []
    circular.append(circular)
    with pytest.raises(ValueError, match="Circular reference"):
        render_report({"c": circular})
    with pytest.raises(TypeError, match="int64"):
        render_report({"rows": [{"a": 1}, {"a": np.int64(2)}]})
    with pytest.raises(TypeError):
        render_report({"keys": {1: 1, "a": 2}})


_MARKER_TEXT = json.dumps("\x00rows")  # the text a list of rows stands as in the renderer's skeleton


@pytest.mark.parametrize(
    "report",
    [
        {"value": "\x00rows", "rows": [{"a": 1}, {"a": 2}]},
        {"\x00rows": [{"a": 1}, {"a": 2}]},
        {"value": 'end"\x00rows', "rows": [{"a": 1.5}, {"a": 2.5}]},
        {"value": _MARKER_TEXT, "rows": [{"a": "x"}, {"a": "y"}]},
        {"value": "\x00rows"},
    ],
    ids=["string", "key", "quote-then-marker", "marker-text", "no-rows"],
)
def test_render_report_of_a_report_holding_the_row_marker_is_json_dumps(report):
    assert render_report(report) == _json(report)
