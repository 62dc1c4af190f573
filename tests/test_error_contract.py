"""The CLI's error contract under generated inputs and options, for every subcommand.

Whatever the files and option values, ``cli.main`` returns 0, 1 or 2; a
run that fails prints exactly one ``ERROR <CODE>: <message>`` line and no
traceback; and a run that exits 1 leaves no file in ``--out``.  Each file
holds at most 40 rows, so each example runs in milliseconds.  Most files
and options are valid, so that most runs get past parsing: a file is
faulty one time in three, and an option odd one time in six.
"""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import election_forensics
from election_forensics.cli import main

MAX_ROWS = 40
ERROR_LINE = re.compile(r"ERROR [A-Z_]+: ")
HEADER = ["precinct_id", "region", "territory", "registered", "ballots_cast", "invalid", "machine_counted",
          "votes_A", "votes_B"]
ODD_HEADERS = (HEADER[:-1], HEADER[:6] + HEADER[7:], HEADER[:-1] + ["votes_A"], ["id", *HEADER[1:]], [])
# cells no count column accepts, or accepts only at its edge
ODD_CELLS = ("", "x", "-1", "1.5", " 7 ", "+5", "٣", "1e3", "nan", str(10**12), str(10**12 + 1), "0" * 20 + "1")
TIMES = ("08:00", "10:00", "12:00", "15:00", "18:00")


def _csv(rows: list[list]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _odd(good: tuple, bad: tuple) -> st.SearchStrategy:
    """One of ``good`` five times in six, else one of ``bad``; each as its text."""
    good_text, bad_text = st.sampled_from([str(v) for v in good]), st.sampled_from([str(v) for v in bad])
    return st.integers(0, 5).flatmap(lambda k: bad_text if k == 5 else good_text)


@st.composite
def _counts(draw) -> list[int]:
    """registered, ballots_cast, invalid, votes_A, votes_B of a precinct that keeps every invariant."""
    cast = draw(st.integers(0, 3000))
    a = draw(st.integers(0, cast))
    b = draw(st.integers(0, cast - a))
    invalid = draw(st.integers(0, cast - a - b))
    return [cast + draw(st.integers(0 if cast else 1, 1500)), cast, invalid, a, b]


@st.composite
def _stuffed(draw, counts: list[int]) -> list[int]:
    """``counts`` with up to all its registered non-voters added as ballots for A."""
    registered, cast, invalid, a, b = counts
    extra = draw(st.integers(0, registered - cast))
    return [registered, cast + extra, invalid, a + extra, b]


@st.composite
def _table(draw, header: list[str], rows: list[list]) -> str:
    """The CSV of ``header`` and ``rows``, or, one time in three, of a header and rows with faults."""
    if draw(st.integers(0, 2)) < 2:
        return _csv([header, *rows])
    header = draw(st.sampled_from((header, header, *ODD_HEADERS)))
    faulty = []
    for row in rows:
        row = [str(cell) for cell in row]
        fault = draw(st.integers(0, 9))
        if fault == 9 and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif fault == 8:
            row = row[: draw(st.integers(0, max(len(row) - 1, 0)))]
        elif fault == 7 and faulty:
            row = faulty[-1]  # a repeated row
        faulty.append(row)
    return _csv([header, *faulty] if header else faulty)


@st.composite
def _files(draw) -> dict[str, str]:
    """The text of every file a command may read, drawn from one election of up to MAX_ROWS precincts."""
    election = draw(st.lists(_counts(), max_size=MAX_ROWS))
    pids = [f"p{i}" for i in range(len(election))]

    def precinct_rows(counts):
        return [[pid, "R", draw(st.sampled_from(("T1", "T2"))), *c[:3], draw(st.sampled_from("01")), *c[3:]]
                for pid, c in zip(pids, counts)]

    intraday = []
    for pid, (_, cast, *_) in list(zip(pids, election))[: MAX_ROWS // 4]:
        reports = draw(st.integers(1, 4))  # a single report is a fault the reader names
        times = sorted(draw(st.lists(st.sampled_from(TIMES), min_size=reports, max_size=reports, unique=True)))
        voted = sorted(draw(st.lists(st.integers(0, cast), min_size=reports, max_size=reports)))
        intraday += [[pid, time, count] for time, count in zip(times, voted)]
    official = [draw(_stuffed(c)) for c in election[: MAX_ROWS // 2]]
    protocols = [[pid, "observer", *c] for pid, c in zip(pids, election[: MAX_ROWS // 2])]
    protocols += [[pid, "official", *c] for pid, c in zip(pids, official)]
    percent = st.sampled_from(("0", "7", "47.25", "100"))
    delta = [[pid, *(draw(percent) for _ in range(4))] for pid in pids[:10]]
    return {
        "precincts": draw(_table(HEADER, precinct_rows(election))),
        "precincts_b": draw(_table(HEADER, precinct_rows([draw(_stuffed(c)) for c in election]))),
        "intraday": draw(_table(["precinct_id", "time", "cumulative_voted"], intraday)),
        "protocols": draw(_table(["precinct_id", "source", *HEADER[3:6], *HEADER[7:]], protocols)),
        "delta": draw(_table(["unit", "share_b", "share_a", "turnout_b", "turnout_a"], delta)),
        "model": draw(_json(MODEL_FIELDS, required=("precincts", "parties", "baseline_shares", "leader"))),
        "scenario": draw(_json(SCENARIO_FIELDS, required=("seed",))),
    }


# The values each JSON field may take: the first of each list keeps a document valid.  No
# precinct count lies between MAX_ROWS and MAX_PRECINCTS, so no example makes a large election.
ODD_JSON = (None, "x", [], {}, -1, 2.5, True)
MODEL_FIELDS = {
    "precincts": ([0, 1, 7, MAX_ROWS], [10**13]),
    "parties": ([["A", "B"]], [["A"], ["A", "A"], []]),
    "baseline_shares": ([[0.6, 0.3], [0.5, 0.5]], [[0.7, 0.4], [-0.1, 0.2], [1, 0]]),
    "leader": (["A", "B"], ["Z"]),
    "registered": ([{"median": 800, "sigma": 0.4, "min": 100, "max": 3000}],
                   [{"median": 800, "sigma": -1, "min": 100, "max": 3000}, {"min": 3000, "max": 100}]),
    "turnout_components": ([[{"mean": 0.5, "sd": 0.1, "weight": 1.0}]],
                           [[{"mean": 0.5, "sd": 0.1, "weight": 0.5}], [{"mean": 1.5, "sd": 0.1, "weight": 1.0}],
                            [{"mean": 0.5}], []]),
    "machine_fraction": ([0.0, 0.3], [1.5]),
    "territories": ([1, 3], [0]),
    "report_times": ([["10:00", "18:00"], []], [["18:00", "10:00"], ["10:00", "10:00"], ["25:00"]]),
}
SCENARIO_FIELDS = {
    "stuffing": ([{"fraction": 0.3, "intensity": 0.1}], [{"fraction": 1.5, "intensity": 0.1}]),
    "transfer": ([{"fraction": 0.3, "amount": 0.5}], [{"fraction": 0.3, "amount": -1}]),
    "target_rounding": ([{"fraction": 0.3, "targets": [70, 80], "quantity": "leader_share"}],
                        [{"fraction": 0.3, "targets": [170]}, {"fraction": 0.3, "targets": [70], "quantity": "x"}]),
    "intraday_jump": ([{"fraction": 0.2, "size": 0.2}], [{"fraction": 0.2, "size": 2}]),
    "seed": ([3], [-1]),
}


@st.composite
def _json(draw, fields: dict, required: tuple[str, ...]) -> str:
    """A valid document, or, one time in three, one with fields left out or of odd values and types."""
    faulty = draw(st.integers(0, 2)) == 2
    doc = {}
    for key, (good, bad) in fields.items():
        if key in required and not faulty or draw(st.booleans()):
            doc[key] = draw(st.sampled_from(good + bad + list(ODD_JSON) if faulty else good))
    return draw(st.sampled_from(("{", "[]"))) if faulty and draw(st.integers(0, 5)) == 5 else json.dumps(doc)


LEADER = _odd(("A", "B"), ("Z",))
SEED = _odd((0, 7, 2**70), (-1,))
QUANTITY = _odd(("turnout", "leader_share", "share:B"), ("share:Z", "x"))
WEIGHT_MODE = _odd(("precincts", "ballots"), ("x",))
BIN_WIDTH = _odd((0.01, 0.05, 0.5), (0, -0.1, 1e-5, "nan", "x"))
FLAG = st.just(None)

# Each subcommand's options and the values each may take; a file option names the file it reads.
COMMANDS = {
    "validate": {"--in": "precincts", "--leader": LEADER},
    "scatter": {"--in": "precincts", "--leader": LEADER,
                "--parties": _odd(("", "A", "A,others", "A,,B"), ("Z", "../x")),
                "--y-mode": _odd(("share_of_registered", "share_of_cast"), ("x",)),
                "--weighting": _odd(("uniform", "by_registered"), ("x",)), "--no-plots": FLAG},
    "hist": {"--in": "precincts", "--leader": LEADER, "--quantity": QUANTITY, "--weight-mode": WEIGHT_MODE,
             "--no-plots": FLAG},
    "bins": {"--in": "precincts", "--leader": LEADER, "--bin-width": BIN_WIDTH},
    "peaks": {"--in": "precincts", "--leader": LEADER, "--quantity": QUANTITY, "--weight-mode": WEIGHT_MODE,
              "--targets": _odd(("", "75,80", "0,100"), ("101", "x", "50.5")),
              "--replicates": _odd((100, 130), (99, 100_001, "x")), "--seed": SEED,
              "--alpha": _odd((0.01, 0.5), (0, 1, "nan")), "--no-plots": FLAG},
    "stuffing": {"--in": "precincts", "--leader": LEADER, "--bin-width": BIN_WIDTH,
                 "--window": _odd(("0.15:0.35", "0:1"), ("0.5:0.1", "0.2", "x:y", "nan:1"))},
    "clusters": {"--in": "precincts", "--leader": LEADER, "--seed": SEED,
                 "--restarts": _odd((1, 3), (0, 1001)), "--no-plots": FLAG},
    "contrast": {"--in": "precincts", "--leader": LEADER,
                 "--by": _odd(("machine", "territory=T1", "tag=a"), ("x",))},
    "delta": {"--in": "delta"},
    "protocol-diff": {"--in": "protocols", "--leader": LEADER, "--no-plots": FLAG},
    "paired-scan": {"--in-a": "precincts", "--in-b": "precincts_b", "--leader": LEADER,
                    "--party": _odd(("A", "B"), ("Z",)), "--threshold": _odd((0, 50), (-1, "x"))},
    "hyperactive": {"--in": "precincts", "--leader": LEADER, "--series": "intraday",
                    "--threshold": _odd((0.13, 0.5), (0, 1, -1, "nan")), "--no-plots": FLAG},
    "synth": {"--model": "model", "--scenario": "scenario", "--seed": SEED},
}
PROB_ARGUMENTS = {"odds": 4, "run": 2, "coincidence": 3, "sigma": 2}
PROB_VALUE = _odd((0, 1, 0.5, 3, 10, 40), (1e6, -2, "nan", "inf"))


@st.composite
def invocations(draw) -> tuple[list[str], dict[str, str]]:
    """An argv for one subcommand, with ``{dir}`` in each path, and the text of each file it names."""
    command = draw(st.sampled_from(sorted(COMMANDS) + ["prob"]))
    if command == "prob":
        op = draw(_odd(tuple(PROB_ARGUMENTS), ("x",)))
        count = PROB_ARGUMENTS.get(op, 2) + draw(_odd((0,), (-1, 1)).map(int))
        values = [draw(PROB_VALUE) for _ in range(count)]
        flags = draw(st.sampled_from(([], ["--exact"], ["--out", "{dir}/out"], ["--exact", "--out", "{dir}/out"])))
        return ["prob", op, *values, *flags], {}
    files = draw(_files())
    argv, read = [command], {}
    for option, values in COMMANDS[command].items():
        if draw(st.integers(0, 19)) == 19:  # leave out an option, required or not, now and then
            continue
        if isinstance(values, str):
            read[values] = files[values]
            argv += [option, "{dir}/" + values]
            continue
        value = draw(values)
        argv += [option] if value is None else [option, value]
    return argv + ["--out", "{dir}/out"], read


@given(invocations())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_every_run_keeps_the_error_contract(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        argv = [arg.replace("{dir}", tmp) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        errors = [line for line in stderr.getvalue().splitlines() if ERROR_LINE.match(line)]
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in stderr.getvalue()
        assert len(errors) == (0 if code == 0 else 1), (argv, stderr.getvalue())
        out = Path(tmp, "out")
        if code == 1:
            assert not out.exists() or not any(out.iterdir()), (argv, stderr.getvalue(), sorted(out.iterdir()))


def _io_fault_argv(tmp: Path, case: str) -> list[str]:
    """``ef validate`` of a valid file, with ``--out`` or ``--in`` naming a path the system cannot use so."""
    precincts = tmp / "precincts.csv"
    precincts.write_text(_csv([HEADER, ["p1", "R", "T1", 100, 50, 0, 0, 30, 20]]), encoding="utf-8")
    regular = tmp / "regular"
    regular.write_text("x", encoding="utf-8")
    source, out = str(precincts), str(tmp / "out")
    if case == "out-is-a-file":  # [Errno 17] File exists
        out = str(regular)
    elif case == "out-under-a-file":  # [Errno 20] Not a directory
        out = str(regular / "out")
    elif case == "in-is-a-directory":  # [Errno 21] Is a directory
        source = str(tmp)
    elif case == "in-is-a-symlink-loop":  # [Errno 40] Too many levels of symbolic links
        (tmp / "a").symlink_to(tmp / "b")
        (tmp / "b").symlink_to(tmp / "a")
        source = str(tmp / "a")
    return ["validate", "--in", source, "--leader", "A", "--out", out]


def _assert_one_io_error(code: int, stderr: str) -> None:
    errors = [line for line in stderr.splitlines() if ERROR_LINE.match(line)]
    assert code == 2, stderr
    assert "Traceback" not in stderr
    assert len(errors) == 1 and errors[0].startswith("ERROR IO: "), stderr


@pytest.mark.parametrize("case", ["out-is-a-file", "out-under-a-file", "in-is-a-directory", "in-is-a-symlink-loop"])
def test_a_path_the_system_refuses_exits_two_with_one_io_error(tmp_path, case):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(_io_fault_argv(tmp_path, case))
    _assert_one_io_error(code, stderr.getvalue())


def test_the_process_exits_two_with_one_io_error(tmp_path):
    """The same through ``cli.run()``, the entry of ``python -m election_forensics.cli`` and the ``ef`` script."""
    env = dict(os.environ, PYTHONPATH=str(Path(election_forensics.__file__).parents[1]))
    ran = subprocess.run([sys.executable, "-m", "election_forensics.cli", *_io_fault_argv(tmp_path, "out-under-a-file")],
                         env=env, capture_output=True, text=True, timeout=60)
    _assert_one_io_error(ran.returncode, ran.stderr)
