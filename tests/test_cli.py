import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import election_forensics
from election_forensics import anomaly, synth
from election_forensics.anomaly import MAX_RESTARTS
from election_forensics.cli import main
from election_forensics.dataset import serialize_dataset
from election_forensics.dynamics import serialize_intraday
from election_forensics.peaks import MAX_REPLICATES, MIN_REPLICATES
from election_forensics.report import CAVEAT

from conftest import FIXTURES, REPORT_SCHEMA, child_peak_mb, traced_peak

PRECINCTS = (
    "precinct_id,region,territory,registered,ballots_cast,invalid,machine_counted,votes_A,votes_B\n"
    "p1,R,T1,1000,500,10,0,300,190\n"
    "p2,R,T1,800,400,0,1,150,250\n"
    "p3,R,T2,1200,900,20,0,600,280\n"
)


@pytest.fixture
def precincts_csv(tmp_path) -> Path:
    path = tmp_path / "precincts.csv"
    path.write_text(PRECINCTS)
    return path


def _report(out_dir: Path) -> dict:
    return json.loads((out_dir / "report.json").read_text())


# Modules a command must not import at start: each costs start-up time in
# every ``ef`` process, and nothing on these paths needs them.
NOT_AT_STARTUP = ("logging", "concurrent.futures", "numpy.ma")


@pytest.mark.parametrize(
    "command",
    [
        [],
        ["validate", "--leader", "A", "--in", "{precincts}"],
        # a precinct-weighted null, drawn from each target's exact law
        ["peaks", "--leader", "UNITY", "--seed", "7", "--no-plots", "--in", "{fixtures}/round_targets_precincts.csv"],
        # turnout weighted by ballots, whose null draws every precinct as a binomial
        ["peaks", "--leader", "UNITY", "--seed", "7", "--quantity", "turnout", "--weight-mode", "ballots",
         "--no-plots", "--in", "{fixtures}/round_targets_precincts.csv"],
    ],
    ids=["import", "validate", "peaks", "peaks-ballots"],
)
def test_startup_imports_no_logging_futures_or_masked_arrays(precincts_csv, fixtures_dir, tmp_path, command):
    if command:
        command = [arg.format(precincts=precincts_csv, fixtures=fixtures_dir) for arg in command]
        command += ["--out", str(tmp_path / "o")]
    script = (
        "import sys\n"
        "from election_forensics.cli import main\n"
        "if sys.argv[1:]:\n"
        "    assert main(sys.argv[1:]) == 0\n"
        f"print(sorted(set({NOT_AT_STARTUP!r}) & set(sys.modules)))\n"
    )
    package_root = Path(election_forensics.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    ran = subprocess.run([sys.executable, "-c", script, *command], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert ran.stdout == "[]\n"


def _ef_process(argv: list[str], buffered: bool = False, **kwargs) -> subprocess.CompletedProcess:
    """``python -m election_forensics.cli argv`` in a child; ``buffered`` clears PYTHONUNBUFFERED."""
    env = dict(os.environ, PYTHONPATH=str(Path(election_forensics.__file__).parents[1]))
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "election_forensics.cli", *argv], env=env, text=True,
                          timeout=60, **kwargs)


MAINS_CODES = pytest.mark.parametrize(
    "argv,code",
    [
        (["prob", "run", "0.5", "10"], 0),
        (["prob", "run", "2", "10"], 1),
        (["frobnicate"], 1),
        (["validate", "--in", "{missing}", "--leader", "A", "--out", "{out}"], 2),
    ],
    ids=["ok", "bad-value", "usage", "io"],
)


@MAINS_CODES
def test_process_exits_with_mains_code(tmp_path, argv, code):
    argv = [arg.format(missing=tmp_path / "missing.csv", out=tmp_path / "o") for arg in argv]
    ran = _ef_process(argv, capture_output=True)
    assert ran.returncode == code == main(argv)
    assert "Traceback" not in ran.stderr
    assert len([line for line in ran.stderr.splitlines() if line.startswith("ERROR ")]) == (code != 0)


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_piped_stdout_arrives_complete(buffered):
    ran = _ef_process(["prob", "run", "0.5", "10", "--exact"], buffered=buffered, capture_output=True)
    assert (ran.returncode, ran.stdout, ran.stderr) == (0, "0.0009765625 = 1/1024\n", "")


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_stdout_into_a_closed_pipe_exits_two_with_one_error_line(buffered):
    """``ef prob run 0.5 10 | true`` once ``true`` has exited: exit 2, one ERROR IO line, no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        ran = _ef_process(["prob", "run", "0.5", "10"], buffered=buffered, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert ran.returncode == 2
    assert ran.stderr.startswith("ERROR IO: ") and ran.stderr.count("\n") == 1, ran.stderr


@MAINS_CODES
def test_process_started_with_stdout_closed_exits_with_mains_code(tmp_path, argv, code):
    """``ef ... >&-``: Python sets ``sys.stdout`` to None; the exit code is still ``main``'s."""
    argv = [arg.format(missing=tmp_path / "missing.csv", out=tmp_path / "o") for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(election_forensics.__file__).parents[1]))
    command = ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "election_forensics.cli", *argv]
    ran = subprocess.run(command, env=env, stderr=subprocess.PIPE, text=True, timeout=60)
    assert ran.returncode == code == main(argv)
    assert "Traceback" not in ran.stderr


def test_process_started_with_stdout_closed_writes_its_outputs(precincts_csv, tmp_path):
    out = tmp_path / "o"
    argv = ["validate", "--leader", "A", "--in", str(precincts_csv), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(election_forensics.__file__).parents[1]))
    command = ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "election_forensics.cli", *argv]
    ran = subprocess.run(command, env=env, stderr=subprocess.PIPE, text=True, timeout=60)
    assert (ran.returncode, ran.stderr) == (0, "")
    assert _report(out)["command"] == "validate"


def test_process_exit_skips_atexit_handlers():
    script = (
        "import atexit, sys\n"
        "atexit.register(print, 'atexit ran')\n"
        "sys.argv = ['ef', 'prob', 'run', '0.5', '10']\n"
        "from election_forensics.cli import run\n"
        "run()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(election_forensics.__file__).parents[1]))
    ran = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert (ran.returncode, ran.stdout) == (0, "0.0009765625\n")


def test_ef_script_runs_the_hard_exit_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"ef": "election_forensics.cli:run"}


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_validate_happy_path(precincts_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["validate", "--in", str(precincts_csv), "--leader", "A", "--out", str(out)]) == 0
    report = _report(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["caveat"] == CAVEAT
    assert report["results"]["records"] == 3
    assert report["results"]["parties"] == ["A", "B"]


def test_validate_invariant_violation_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "precinct_id,region,territory,registered,ballots_cast,invalid,machine_counted,votes_A,votes_B\n"
        "p1,R,T,100,90,0,0,80,20\n"
    )
    rc = main(["validate", "--in", str(bad), "--leader", "A", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR INVARIANT_VIOLATION:")


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(precincts_csv, tmp_path, enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        out = str(tmp_path / "o")
        assert main(["validate", "--in", str(precincts_csv), "--leader", "A", "--out", out]) == 0
        assert gc.isenabled() is enabled
        assert main(["validate", "--in", str(tmp_path / "nope.csv"), "--leader", "A", "--out", out]) == 2
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_missing_input_file_exits_two(tmp_path, capsys):
    rc = main(["validate", "--in", str(tmp_path / "nope.csv"), "--leader", "A", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("ERROR IO:")


def test_scatter_writes_points_and_svg(precincts_csv, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "scatter", "--in", str(precincts_csv), "--leader", "A",
        "--parties", "A,others", "--out", str(out),
    ])
    assert rc == 0
    points = (out / "scatter_A.csv").read_text().splitlines()
    assert points[0] == "precinct_id,x,y,weight"
    assert len(points) == 4
    assert (out / "scatter.svg").exists()
    assert "fits" in _report(out)["results"]


def test_hist_and_bins_outputs(precincts_csv, tmp_path):
    out_h = tmp_path / "h"
    assert main(["hist", "--in", str(precincts_csv), "--leader", "A", "--quantity", "turnout",
                 "--out", str(out_h)]) == 0
    lines = (out_h / "hist.csv").read_text().splitlines()
    assert lines[0] == "quantity,bin,weight"
    assert len(lines) == 102

    out_b = tmp_path / "b"
    assert main(["bins", "--in", str(precincts_csv), "--leader", "A", "--bin-width", "0.05",
                 "--out", str(out_b)]) == 0
    header = (out_b / "bins.csv").read_text().splitlines()[0]
    assert header == "bin_lo,bin_hi,party,votes,precincts"


# sha256 of each CSV on the round-targets fixture, recorded with the f-string and unquoted-cell writers.
ROW_WRITER_DIGESTS = {
    ("hist", "hist.csv"): "9aa26695576f9a3bbe0444277ad7c0cba770cca48b211ef6c0efdf8a59cf1a8b",
    ("hist-turnout-ballots", "hist.csv"): "6364e2497001a817105d736418c898edbf96ad2fa3b2e018c382781f87b2a11c",
    ("bins-0.01", "bins.csv"): "7a0afd6b365ab7810a22cb357f2243d8f38a37dc5e9a4ff51a0bf719f13002f3",
    ("bins-0.0001", "bins.csv"): "31c75d79b2ef742a0bb90fb0e877b67be45b1b8c5759abab6281f5c640be9d9f",
    ("scatter", "scatter_OPP_A.csv"): "cdede3c6a1e28f8fba3b1279d74100f36bbc95926ffff5d0876bb919de1b5e05",
    ("scatter", "scatter_OPP_B.csv"): "70e8580706fa26b3133b6cc9f1b359f36b399077db3bf7bad2639ba2b45d954e",
    ("scatter", "scatter_OPP_C.csv"): "bfe6ecb77b336afade8dc82306b162508c9deefe01992045eb39d41da5734c0c",
    ("scatter", "scatter_UNITY.csv"): "57b72e1e147b13c747388c4e78557fb180277698232798aed79921a08bb56ed0",
    ("scatter", "scatter_others.csv"): "fb669dca04c956ee11c1f63ffc3c39ac75f73272e1c8792dc873428d19042cb0",
}


def test_hist_bins_and_scatter_csvs_match_recorded_digests(fixtures_dir, tmp_path):
    source = ["--in", str(fixtures_dir / "round_targets_precincts.csv"), "--leader", "UNITY"]
    runs = {
        "hist": ["hist"],
        "hist-turnout-ballots": ["hist", "--quantity", "turnout", "--weight-mode", "ballots"],
        "bins-0.01": ["bins", "--bin-width", "0.01"],
        "bins-0.0001": ["bins", "--bin-width", "0.0001"],
        "scatter": ["scatter", "--no-plots"],
    }
    for run, argv in runs.items():
        assert main([*argv, *source, "--out", str(tmp_path / run)]) == 0, run
    assert sorted(p.name for p in (tmp_path / "scatter").glob("*.csv")) == sorted(
        name for run, name in ROW_WRITER_DIGESTS if run == "scatter"
    )
    for (run, name), digest in ROW_WRITER_DIGESTS.items():
        assert hashlib.sha256((tmp_path / run / name).read_bytes()).hexdigest() == digest, (run, name)


def test_csv_text_cells_with_a_comma_read_back_unchanged(tmp_path):
    table = tmp_path / "precincts.csv"
    table.write_text(
        'precinct_id,region,territory,registered,ballots_cast,invalid,machine_counted,"votes_A,B",votes_C\n'
        '"p,1",R,T1,1000,500,10,0,300,190\n'
        "p2,R,T1,800,400,0,1,150,250\n"
        "p3,R,T2,1200,900,20,0,600,280\n"
    )
    source = ["--in", str(table), "--leader", "A,B"]
    assert main(["scatter", *source, "--no-plots", "--out", str(tmp_path / "s")]) == 0
    assert main(["hist", *source, "--quantity", "share:A,B", "--no-plots", "--out", str(tmp_path / "h")]) == 0
    assert main(["bins", *source, "--bin-width", "0.25", "--out", str(tmp_path / "b")]) == 0

    def rows(path: Path) -> list[list[str]]:
        parsed = list(csv.reader(io.StringIO(path.read_text(), newline="")))
        assert all(len(row) == len(parsed[0]) for row in parsed), path.name
        return parsed[1:]

    written = sorted(p.name for p in (tmp_path / "s").glob("*.csv"))
    assert written == ["scatter_A,B.csv", "scatter_C.csv", "scatter_others.csv"]
    for name in written:
        assert [row[0] for row in rows(tmp_path / "s" / name)] == ["p,1", "p2", "p3"], name
    assert {row[0] for row in rows(tmp_path / "h" / "hist.csv")} == {"share:A,B"}
    assert [row[2] for row in rows(tmp_path / "b" / "bins.csv")] == ["A,B", "C"] * 4


@pytest.mark.parametrize(
    "header_party,parties",
    [("../../../escaped", ""), ("B", "../escaped")],
    ids=["party-from-the-header", "party-from-the-option"],
)
def test_scatter_refuses_a_party_that_names_a_path(tmp_path, capsys, header_party, parties):
    table = tmp_path / "precincts.csv"
    table.write_text(PRECINCTS.replace("votes_B", f"votes_{header_party}"))
    out = tmp_path / "a" / "b" / "out"
    rc = main(["scatter", "--in", str(table), "--leader", "A", "--parties", parties, "--out", str(out)])
    assert rc == 1
    party = parties or header_party
    err = capsys.readouterr().err.splitlines()
    assert err == [f"ERROR INVALID: party {party!r} does not make a plain file name; pick parties with --parties"]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["precincts.csv"]


@pytest.mark.parametrize("width", [str(2**-30), "1e-300", "5e-324"])
def test_bins_finer_than_the_bin_limit_exit_one(precincts_csv, tmp_path, capsys, width):
    rc = main(["bins", "--in", str(precincts_csv), "--leader", "A", "--bin-width", width,
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"ERROR BAD_BIN_WIDTH: bin_width {float(width)} gives more than 10000 bins"]
    assert not (tmp_path / "o").exists()


def test_peaks_requires_seed(precincts_csv, tmp_path, capsys):
    rc = main(["peaks", "--in", str(precincts_csv), "--leader", "A", "--out", str(tmp_path / "o")])
    assert rc == 1


def test_peaks_on_shipped_fixture_flags_all_four_targets(fixtures_dir, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "peaks", "--in", str(fixtures_dir / "round_targets_precincts.csv"),
        "--leader", "UNITY", "--seed", "7", "--replicates", "400", "--out", str(out),
        "--no-plots",
    ])
    assert rc == 0
    report = _report(out)
    assert set(report["results"]["flagged_targets"]) >= {70, 75, 80, 85}
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["caveat"] == CAVEAT


def test_delta_on_shipped_district_fixture(fixtures_dir, tmp_path):
    out = tmp_path / "out"
    rc = main(["delta", "--in", str(fixtures_dir / "nn_districts_2007_2011.csv"), "--out", str(out)])
    assert rc == 0
    rows = {r["unit"]: r for r in _report(out)["results"]["rows"]}
    assert rows["Kanavinsky"]["d_share"] == "-3.68"
    assert rows["Kanavinsky"]["d_turnout"] == "19.82"
    assert rows["Moskovsky"]["d_share"] == "-14.30"


def test_contrast_by_machine(precincts_csv, tmp_path):
    out = tmp_path / "out"
    rc = main(["contrast", "--in", str(precincts_csv), "--leader", "A", "--by", "machine",
               "--out", str(out)])
    assert rc == 0
    results = _report(out)["results"]
    assert results["labels"] == ["machine_counted", "hand_counted"]


@pytest.mark.parametrize("by", ["region=R", "machine_counted", "territory"])
def test_contrast_with_an_unknown_split_exits_one(precincts_csv, tmp_path, capsys, by):
    rc = main(["contrast", "--in", str(precincts_csv), "--leader", "A", "--by", by, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"ERROR INVALID: --by must be machine, territory=<v>, or tag=<v>, got {by!r}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "rows,by",
    [
        (PRECINCTS, "territory=T9"),
        (PRECINCTS, "tag=koib"),
        (PRECINCTS.replace(",10,0,", ",10,1,").replace(",20,0,", ",20,1,"), "machine"),
    ],
    ids=["no-precinct-in-the-territory", "no-precinct-with-the-tag", "all-machine-counted"],
)
def test_contrast_with_an_empty_side_exits_one(tmp_path, capsys, rows, by):
    table = tmp_path / "precincts.csv"
    table.write_text(rows)
    rc = main(["contrast", "--in", str(table), "--leader", "A", "--by", by, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"ERROR EMPTY_SELECTION: split {by!r} left an empty subset"]
    assert not (tmp_path / "o").exists()


def test_protocol_diff_and_paired_scan(tmp_path):
    protocols = tmp_path / "protocols.csv"
    protocols.write_text(
        "precinct_id,source,registered,ballots_cast,invalid,votes_A,votes_B\n"
        "u1,observer,1200,1000,0,482,518\n"
        "u1,official,1200,1000,0,617,383\n"
    )
    out = tmp_path / "pd"
    rc = main(["protocol-diff", "--in", str(protocols), "--leader", "A", "--out", str(out)])
    assert rc == 0
    results = _report(out)["results"]
    assert results["mean_d_leader_share"] == pytest.approx(0.135)

    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(PRECINCTS)
    b.write_text(PRECINCTS.replace("600,280", "100,280"))
    out2 = tmp_path / "ps"
    rc = main(["paired-scan", "--in-a", str(a), "--in-b", str(b), "--leader", "A",
               "--threshold", "300", "--out", str(out2)])
    assert rc == 0
    results = _report(out2)["results"]
    assert results["counts"] == {"a_over_b": 1, "b_over_a": 0}


def test_paired_scan_with_a_negative_threshold_exits_one(precincts_csv, tmp_path, capsys):
    rc = main(["paired-scan", "--in-a", str(precincts_csv), "--in-b", str(precincts_csv), "--leader", "A",
               "--threshold", "-5", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["ERROR INVALID: threshold must be >= 0, got -5"]
    assert not (tmp_path / "o").exists()


def test_hyperactive_cli(precincts_csv, tmp_path):
    series = tmp_path / "intraday.csv"
    series.write_text(
        "precinct_id,time,cumulative_voted\n"
        "p1,10:00,100\np1,18:00,200\n"
        "p2,10:00,100\np2,18:00,390\n"
        "p3,10:00,300\np3,18:00,880\n"
    )
    out = tmp_path / "out"
    rc = main(["hyperactive", "--in", str(precincts_csv), "--leader", "A",
               "--series", str(series), "--threshold", "0.13", "--out", str(out)])
    assert rc == 0
    results = _report(out)["results"]
    assert results["flagged"] == ["p1"]  # (500-200)/1000 = 0.30 > 0.13


# One cell longer than csv.field_size_limit() (131072 characters by default).
HUGE_CELL = "R" * 200_000


@pytest.mark.parametrize(
    "rows,line",
    [
        (f"p1,R,T1,1000,500,10,0,300,190\np2,{HUGE_CELL},T1,800,400,0,1,150,250\n", 3),
        (f'p1,"R\nX",T1,1000,500,10,0,300,190\np2,{HUGE_CELL},T1,800,400,0,1,150,250\n', 4),
        (f"p1,R,T1,1000,500,10,0,300,190\np2,{HUGE_CELL},T1,800,400,0,1\n", 3),
    ],
    ids=["second-row", "after-multiline-cell", "short-row"],
)
def test_validate_oversized_cell_is_one_malformed_row_error(tmp_path, capsys, rows, line):
    table = tmp_path / "precincts.csv"
    table.write_text(PRECINCTS.splitlines(keepends=True)[0] + rows)
    rc = main(["validate", "--in", str(table), "--leader", "A", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"ERROR MALFORMED_ROW: line {line}: field larger than field limit (131072)"]
    assert not (tmp_path / "o" / "report.json").exists()


def test_validate_oversized_header_cell_is_a_malformed_header(tmp_path, capsys):
    table = tmp_path / "precincts.csv"
    table.write_text(f"precinct_id,{HUGE_CELL}\n" + PRECINCTS.splitlines(keepends=True)[1])
    rc = main(["validate", "--in", str(table), "--leader", "A", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "ERROR MALFORMED_ROW: line 1: field larger than field limit (131072)"
    ]


def test_hyperactive_oversized_series_cell_is_one_malformed_row_error(precincts_csv, tmp_path, capsys):
    series = tmp_path / "intraday.csv"
    series.write_text(
        f"precinct_id,time,cumulative_voted\np1,10:00,100\np1,18:00,200\n{HUGE_CELL},10:00,100\n"
    )
    rc = main(["hyperactive", "--in", str(precincts_csv), "--leader", "A",
               "--series", str(series), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["ERROR MALFORMED_ROW: line 4: field larger than field limit (131072)"]
    assert not (tmp_path / "o" / "report.json").exists()


def test_prob_subcommands(tmp_path, capsys):
    assert main(["prob", "odds", "0.9", "1e-6", "0.1", "1e-3", "--exact"]) == 0
    out = capsys.readouterr().out
    assert "111.11111111111111" in out and "1000/9" in out
    assert main(["prob", "run", "0.5", "20"]) == 0
    assert "9.5367431640625e-07" in capsys.readouterr().out
    assert main(["prob", "coincidence", "42", "6", "6"]) == 0
    assert main(["prob", "sigma", "0.5", "1000"]) == 0


@pytest.mark.parametrize(
    "values,name",
    [
        (["run", "0.5", "2.7"], "n"),
        (["run", "0.5", "inf"], "n"),
        (["coincidence", "42.5", "6", "6"], "total"),
        (["coincidence", "42", "6.5", "6"], "marked"),
        (["coincidence", "42", "6", "6.5"], "size"),
        (["sigma", "0.5", "2.7"], "n"),
    ],
    ids=["run-n", "run-n-inf", "coincidence-total", "coincidence-marked", "coincidence-size", "sigma-n"],
)
def test_prob_count_arguments_must_be_whole_numbers(capsys, values, name):
    assert main(["prob", *values]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ERROR BAD_COUNTS: {name} must be a whole number")
    assert captured.out == ""


@pytest.mark.parametrize(
    "values,shown",
    [(["run", "inf", "3"], "inf"), (["odds", "inf", "1", "1", "1"], "inf"), (["run", "1e400", "2"], "inf")],
    ids=["run-p-inf", "odds-inf", "run-p-overflow"],
)
def test_prob_non_finite_values_exit_one_without_a_traceback(capsys, values, shown):
    assert main(["prob", *values]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"ERROR NON_POSITIVE_INPUT: {shown} is not a finite number"]
    assert captured.out == ""


def test_prob_run_with_huge_n_gives_a_decimal_only(tmp_path, capsys):
    assert main(["prob", "run", "0.5", "1e30", "--exact", "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out == "0.0\n"
    assert "exact" not in _report(tmp_path / "o")["results"]
    assert main(["prob", "run", "0.99999", "1e6"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(math.exp(1e6 * math.log(0.99999)), rel=1e-12)


def test_prob_coincidence_with_huge_total_keeps_its_precision(capsys):
    assert main(["prob", "coincidence", "1e30", "6", "6"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(720 / 1e180, rel=1e-12)


def test_prob_with_the_wrong_number_of_values_exits_one(capsys):
    assert main(["prob", "run", "0.5"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["ERROR INVALID: prob run takes 2 values (p n), got 1"]


def test_synth_cli_writes_dataset_and_truth(fixtures_dir, tmp_path):
    out = tmp_path / "synth"
    rc = main([
        "synth", "--model", str(fixtures_dir / "round_targets_model.json"),
        "--scenario", str(fixtures_dir / "round_targets_scenario.json"),
        "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "precincts.csv").exists()
    assert (out / "ground_truth.csv").exists()
    report = _report(out)
    assert report["results"]["total_rounding_delta"] != 0


def test_reports_validate_against_packaged_schema(precincts_csv, tmp_path):
    out = tmp_path / "out"
    main(["validate", "--in", str(precincts_csv), "--leader", "A", "--out", str(out)])
    jsonschema.validate(_report(out), REPORT_SCHEMA)


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("unit,share_b,share_a,turnout_b,turnout_a\nA,50.1,40.2,60.0\n", 2),
        ("unit,share_b,share_a,turnout_b,turnout_a\nA,50.1,40.2,60.0,55.5\nB,5O.1,40.2,60.0,55.5\n", 3),
        ("unit,share_b,share_a,turnout_b,turnout_a\nA,NaN,40.2,60.0,55.5\n", 2),
        ("unit,share_b,share_a,turnout_b,turnout_a\nA,50,40,60,55\nA,10,10,10,10\n", 3),
        ('unit,share_b,share_a,turnout_b,turnout_a\n"A\nB",50,40,60,55\nC,5x,40,60,55\n', 4),
    ],
    ids=["missing-header", "short-row", "non-numeric", "nan", "duplicate-unit", "after-multiline-cell"],
)
def test_delta_rejects_malformed_tables_without_traceback(tmp_path, capsys, text, line):
    table = tmp_path / "delta.csv"
    table.write_text(text)
    rc = main(["delta", "--in", str(table), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [err[0]] and err[0].startswith(f"ERROR MALFORMED_ROW: line {line}:")
    assert not (tmp_path / "o" / "report.json").exists()


def test_peaks_alpha_out_of_range_exits_one(precincts_csv, tmp_path, capsys):
    rc = main(["peaks", "--in", str(precincts_csv), "--leader", "A", "--seed", "1",
               "--replicates", "100", "--alpha", "5", "--no-plots", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR INVALID: alpha must be in (0, 1)")


@pytest.mark.parametrize("targets", ["150", "-5", "101", "70,150", "7.5", ","])
def test_peaks_targets_outside_integer_percents_exit_one(fixtures_dir, tmp_path, capsys, targets):
    rc = main(["peaks", "--in", str(fixtures_dir / "round_targets_precincts.csv"), "--leader", "UNITY",
               "--seed", "1", "--replicates", "100", "--targets", targets, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR INVALID: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command,option,value",
    [("peaks", "--seed", "-1"), ("clusters", "--seed", "-1"), ("synth", "--seed", "-1"), ("peaks", "--targets", "50.5"),
     ("stuffing", "--window", "0.2"), ("stuffing", "--window", "x:y")],
    ids=["peaks-seed", "clusters-seed", "synth-seed", "peaks-targets", "stuffing-window-one-number",
         "stuffing-window-not-numbers"],
)
def test_a_bad_option_value_is_named_in_the_one_error_line(fixtures_dir, tmp_path, capsys, command, option, value):
    if command == "synth":
        source = ["--model", str(fixtures_dir / "round_targets_model.json")]
    else:
        source = ["--in", str(fixtures_dir / "round_targets_precincts.csv"), "--leader", "UNITY"]
    seed = [] if option == "--seed" or command == "stuffing" else ["--seed", "1"]  # stuffing draws nothing
    rc = main([command, *source, *seed, option, value, "--out", str(tmp_path / "o")])
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("ERROR ")]
    assert len(errors) == 1 and option in errors[0], errors
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("replicates", [MIN_REPLICATES - 1, MAX_REPLICATES + 1])
def test_peaks_replicates_outside_their_range_exit_one(tmp_path, capsys, replicates):
    table = tmp_path / "precincts.csv"
    rows = "".join(f"p{i},R,T,1000,{500 + i},0,0,300,{200 + i}\n" for i in range(50))
    table.write_text(PRECINCTS.splitlines(keepends=True)[0] + rows)
    rc = main(["peaks", "--in", str(table), "--leader", "A", "--seed", "1", "--replicates", str(replicates),
               "--no-plots", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"ERROR INVALID: replicates must be in {MIN_REPLICATES}..{MAX_REPLICATES}, got {replicates}"
    ]
    assert not (tmp_path / "o" / "report.json").exists()


def test_peaks_with_no_included_precinct_exits_one(tmp_path, capsys):
    table = tmp_path / "precincts.csv"
    rows = "".join(f"p{i},R,T,1000,0,0,0,0,0\n" for i in range(30))
    table.write_text(PRECINCTS.splitlines(keepends=True)[0] + rows)
    rc = main(["peaks", "--in", str(table), "--leader", "A", "--quantity", "leader_share", "--seed", "1",
               "--replicates", "100", "--no-plots", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR EMPTY_SELECTION:")
    assert not (tmp_path / "o" / "report.json").exists()


def test_clusters_report_carries_em_iterations_and_convergence(tmp_path):
    table = tmp_path / "precincts.csv"
    rows = "".join(f"p{i},R,T,1000,{300 + 13 * i},0,0,{100 + 7 * i},{200 + 6 * i}\n" for i in range(40))
    table.write_text(PRECINCTS.splitlines(keepends=True)[0] + rows)
    out = tmp_path / "o"
    rc = main(["clusters", "--in", str(table), "--leader", "A", "--seed", "1", "--restarts", "3",
               "--no-plots", "--out", str(out)])
    assert rc == 0
    results = _report(out)["results"]
    assert len(results["em_iterations"]) == 3
    assert all(isinstance(it, int) and it >= 1 for it in results["em_iterations"])
    assert isinstance(results["converged"], bool)


@pytest.mark.parametrize("restarts", ["0", "-1"])
def test_clusters_with_fewer_than_one_restart_exits_one(fixtures_dir, tmp_path, capsys, restarts):
    rc = main(["clusters", "--in", str(fixtures_dir / "round_targets_precincts.csv"), "--leader", "UNITY",
               "--seed", "1", "--restarts", restarts, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"ERROR INVALID: restarts must be >= 1, got {restarts}"]
    assert not (tmp_path / "o").exists()


def test_clusters_with_too_many_restarts_exits_one_before_any_fit(fixtures_dir, tmp_path, capsys, monkeypatch):
    def no_fit(*args):
        raise AssertionError("an EM fit started")

    monkeypatch.setattr(anomaly, "_em_batch", no_fit)
    rc = main(["clusters", "--in", str(fixtures_dir / "round_targets_precincts.csv"), "--leader", "UNITY",
               "--seed", "1", "--restarts", "100000000", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"ERROR INVALID: restarts must be <= {MAX_RESTARTS}, got 100000000"
    ]
    assert not (tmp_path / "o").exists()


def test_scatter_with_an_unknown_party_writes_no_file(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["scatter", "--in", str(fixtures_dir / "round_targets_precincts.csv"), "--leader", "UNITY",
               "--parties", "UNITY,NOPE", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("ERROR UNKNOWN_PARTY:")
    assert not out.exists()


def test_hist_with_nothing_to_draw_writes_no_file(tmp_path, capsys):
    table = tmp_path / "precincts.csv"
    rows = "".join(f"p{i},R,T,1000,0,0,0,0,0\n" for i in range(5))
    table.write_text(PRECINCTS.splitlines(keepends=True)[0] + rows)
    out = tmp_path / "o"
    assert main(["hist", "--in", str(table), "--leader", "A", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["ERROR EMPTY_PLOT: no histogram mass to draw"]
    assert not out.exists()


# A 600-precinct election with four intraday reports and all four fraud
# mechanisms, written by ``ef synth --seed 11``.
SYNTH_MODEL = {
    "precincts": 600,
    "parties": ["LEAD", "OPA", "OPB", "OPC"],
    "baseline_shares": [0.52, 0.22, 0.13, 0.08],
    "leader": "LEAD",
    "registered": {"median": 1200, "sigma": 0.45, "min": 150, "max": 5000},
    "turnout_components": [
        {"mean": 0.25, "sd": 0.05, "weight": 0.25},
        {"mean": 0.50, "sd": 0.08, "weight": 0.55},
        {"mean": 0.68, "sd": 0.06, "weight": 0.20},
    ],
    "machine_fraction": 0.30,
    "territories": 8,
    "report_times": ["10:00", "12:00", "15:00", "18:00"],
}
SYNTH_SCENARIO = {
    "stuffing": {"fraction": 0.08, "intensity": 0.10},
    "transfer": {"fraction": 0.08, "amount": 0.50},
    "target_rounding": {
        "fraction": 0.05, "targets": [75, 80, 85], "quantity": "leader_share", "max_adjustment": 0.05,
    },
    "intraday_jump": {"fraction": 0.01, "size": 0.20},
}
# sha256 of each written file, recorded with the per-row csv.writer loops.
SYNTH_DIGESTS = {
    "precincts.csv": "b7f5310fae3ebc9439497d303e149d5e297615dda0c2f31ac565213ffe48cee3",
    "ground_truth.csv": "24cf234f4ea6d77495e78e5eb73acd52657c98fd1130a4782861605ea8fd8c8c",
    "intraday.csv": "917e5cc426c0ae55697d14e60cdb2c8d62b066d2646177a0233e3ec7c9690aa3",
}


def test_synth_files_match_recorded_digests(tmp_path):
    model = tmp_path / "model.json"
    scenario = tmp_path / "scenario.json"
    model.write_text(json.dumps(SYNTH_MODEL))
    scenario.write_text(json.dumps(SYNTH_SCENARIO))
    out = tmp_path / "o"
    rc = main(["synth", "--model", str(model), "--scenario", str(scenario), "--seed", "11", "--out", str(out)])
    assert rc == 0
    assert sorted(_report(out)["results"]["files"]) == sorted(SYNTH_DIGESTS)
    for name, digest in SYNTH_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_synth_writers_peak_below_five_times_their_output():
    model = synth.model_from_json(json.dumps(dict(SYNTH_MODEL, precincts=20_000)))
    generated = synth.synthesize(model, synth.scenario_from_json(json.dumps(SYNTH_SCENARIO)), 11)
    # the blocks and their one join are two copies of the text (2.3 times it); a second join with the
    # header took 2.76 times it, whole-column cell lists 9-10 times, and the intraday writer's
    # whole-table id, label and inverse columns 3.5 times
    writers = {
        "serialize_dataset": (lambda: serialize_dataset(generated.dataset), 2.5),
        "GroundTruth.to_csv": (generated.truth.to_csv, 2.5),
        "serialize_intraday": (lambda: serialize_intraday(generated.intraday), 2.5),
    }
    for name, (write, bound) in writers.items():
        text, peak = traced_peak(write)
        assert peak < bound * len(text), (name, peak / len(text))
    table = generated.intraday
    shuffled = table.take(np.random.default_rng(0).permutation(len(table)))
    assert serialize_intraday(shuffled) == serialize_intraday(table)


def test_synth_writes_its_files_within_half_a_mb_of_the_generation_peak(tmp_path):
    model = tmp_path / "model.json"
    scenario = tmp_path / "scenario.json"
    model.write_text(json.dumps(dict(SYNTH_MODEL, precincts=20_000)))
    scenario.write_text(json.dumps(SYNTH_SCENARIO))
    _, generation = traced_peak(
        lambda: synth.synthesize(synth.model_from_json(model.read_text()),
                                 synth.scenario_from_json(scenario.read_text()), 11)
    )
    argv = ["synth", "--model", str(model), "--scenario", str(scenario), "--seed", "11", "--out", str(tmp_path / "o")]
    rc, whole = traced_peak(lambda: main(argv))
    assert rc == 0
    # ground_truth.csv is written first and the truth freed, then precincts.csv and the dataset freed,
    # and intraday.csv, the largest file, last: written while both were held, it took the run 1.7 MB
    # above the generation peak
    assert whole <= generation + 500_000, (whole, generation)


@pytest.mark.parametrize("times", [["10:00", "10:00", "15:00"], ["10:00"], ["10:00", "24:00"]])
def test_synth_with_bad_report_times_exits_one(tmp_path, capsys, times):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(dict(SYNTH_MODEL, precincts=20, report_times=times)))
    rc = main(["synth", "--model", str(model), "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR INVALID_MODEL: report_times")
    assert not (tmp_path / "o").exists()


def test_synth_builds_names_only_for_territories_in_use(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(dict(SYNTH_MODEL, precincts=3, territories=2_000_000)))
    rc, peak = traced_peak(lambda: main(["synth", "--model", str(model), "--seed", "1", "--out", str(tmp_path / "o")]))
    assert rc == 0
    # names for all 2,000,000 territories would take over 100 MB
    assert peak < 10_000_000
    rows = (tmp_path / "o" / "precincts.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["T1", "T2", "T3"]


def test_synth_with_too_many_precincts_exits_one(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(dict(SYNTH_MODEL, precincts=10_000_000_000_000)))
    rc = main(["synth", "--model", str(model), "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR INVALID_MODEL: precincts"), lines
    assert not (tmp_path / "o").exists()


_NO_SD = [{"mean": 0.5, "weight": 1.0}]


@pytest.mark.parametrize(
    "model,scenario",
    [
        (dict(SYNTH_MODEL, parties=5), None),
        (dict(SYNTH_MODEL, registered=[]), None),
        (dict(SYNTH_MODEL, turnout_components=_NO_SD), None),
        ([SYNTH_MODEL], None),
        (SYNTH_MODEL, dict(SYNTH_SCENARIO, stuffing=5)),
        (SYNTH_MODEL, [SYNTH_SCENARIO]),
        (SYNTH_MODEL, dict(SYNTH_SCENARIO, seed=1.5)),
        (SYNTH_MODEL, dict(SYNTH_SCENARIO, seed="7")),
        (dict(SYNTH_MODEL, share_noise_sd=math.nan), None),
        (SYNTH_MODEL, dict(SYNTH_SCENARIO, exempt_machine_counted="false")),
    ],
    ids=["parties-int", "registered-list", "component-no-sd", "model-list",
         "stuffing-int", "scenario-list", "seed-float", "seed-string", "noise-nan", "exempt-string"],
)
def test_synth_with_mistyped_json_exits_one(tmp_path, capsys, model, scenario):
    paths = {"--model": model, "--scenario": scenario}
    argv = ["synth", "--seed", "1", "--out", str(tmp_path / "o")]
    for flag, doc in paths.items():
        if doc is not None:
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(json.dumps(doc))
            argv += [flag, str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR INVALID_MODEL: "), lines
    assert not (tmp_path / "o").exists()


def _forensics_inputs(directory: Path) -> None:
    """A seeded 300-precinct election: observer protocols, stuffed official copy, intraday series."""
    from election_forensics import synth
    from election_forensics.dataset import serialize_dataset
    from election_forensics.dynamics import serialize_intraday

    model = synth.HonestModel(
        precincts=300,
        parties=("LEAD", "OPA", "OPB"),
        baseline_shares=(0.5, 0.3, 0.15),
        leader="LEAD",
        report_times=(600, 720, 900, 1080),
    )
    honest = synth.generate_honest(model, seed=31)
    scenario = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=0.3, intensity=0.08),
        intraday_jump=synth.JumpSpec(fraction=0.1, size=0.2),
        seed=32,
    )
    official, _ = synth.apply_fraud(honest.dataset, scenario)
    (directory / "precincts.csv").write_text(serialize_dataset(official))
    (directory / "intraday.csv").write_text(serialize_intraday(honest.intraday))
    lines = ["precinct_id,source,registered,ballots_cast,invalid,votes_LEAD,votes_OPA,votes_OPB"]
    # official rows first and in reverse, so the reader has to pair and sort
    for source, dataset in (("official", official), ("observer", honest.dataset)):
        c = dataset.counts()
        rows = zip(c.precinct_ids.tolist(), c.registered.tolist(), c.ballots_cast.tolist(),
                   c.invalid.tolist(), c.votes.tolist())
        ordered = list(rows)[::-1] if source == "official" else rows
        lines += [f"{pid},{source},{reg},{cast},{inv},{','.join(map(str, votes))}"
                  for pid, reg, cast, inv, votes in ordered]
    (directory / "protocols.csv").write_text("\n".join(lines) + "\n")


# sha256 of each output, recorded before the commands' results were kept as columns.
FORENSICS_DIGESTS = {
    ("protocol-diff", "report.json"): "51ab627f7a5b30d340cb04f25e716bc686fa3e399448350228925cf1c0f86f1e",
    ("protocol-diff", "protocol_diff.svg"): "7fdcb67fee70bfb9939d19923366ef2d49296b66d4d71ef56b5d51fe44337c51",
    ("hyperactive", "report.json"): "9c454bf00fcee1ffa484a471e20678a482949466e2825581a27da8ebca39a78e",
    ("hyperactive", "hyperactive.svg"): "a624cc15064b42c5aa232c7120f9bb37af032ef5d920ec0d1b0f55844ec77f53",
}


def test_protocol_diff_and_hyperactive_outputs_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths keep report.json free of the temporary directory
    _forensics_inputs(tmp_path)
    assert main(["protocol-diff", "--in", "protocols.csv", "--leader", "LEAD", "--out", "protocol-diff"]) == 0
    assert main(["hyperactive", "--in", "precincts.csv", "--leader", "LEAD", "--series", "intraday.csv",
                 "--out", "hyperactive"]) == 0
    assert _report(tmp_path / "hyperactive")["results"]["flagged"]
    for (command, name), digest in FORENSICS_DIGESTS.items():
        assert hashlib.sha256((tmp_path / command / name).read_bytes()).hexdigest() == digest, (command, name)


# Every other command's outputs on the shipped fixtures (and on ``ef synth``'s election from
# SYNTH_MODEL, whose precincts differ in machine counting), recorded before the report renderer
# handed its rows to ``format_rows``.
REPORT_RUNS = {
    "validate": ["validate", "--in", "precincts.csv", "--leader", "UNITY"],
    "contrast": ["contrast", "--in", "fraud/precincts.csv", "--leader", "LEAD", "--by", "machine"],
    "scatter": ["scatter", "--in", "precincts.csv", "--leader", "UNITY", "--no-plots"],
    "scatter-registered": ["scatter", "--in", "precincts.csv", "--leader", "UNITY", "--no-plots",
                           "--weighting", "by_registered", "--y-mode", "share_of_cast"],
    "hist": ["hist", "--in", "precincts.csv", "--leader", "UNITY", "--no-plots"],
    "bins": ["bins", "--in", "precincts.csv", "--leader", "UNITY"],
    "peaks": ["peaks", "--in", "precincts.csv", "--leader", "UNITY", "--seed", "7", "--replicates", "200"],
    "peaks-turnout-ballots": ["peaks", "--in", "precincts.csv", "--leader", "UNITY", "--seed", "7",
                              "--replicates", "200", "--quantity", "turnout", "--weight-mode", "ballots",
                              "--no-plots"],
    "stuffing": ["stuffing", "--in", "precincts.csv", "--leader", "UNITY", "--window", "0.3:0.5"],
    "clusters": ["clusters", "--in", "precincts.csv", "--leader", "UNITY", "--seed", "3", "--restarts", "4"],
    "delta": ["delta", "--in", "nn_districts_2007_2011.csv"],
    "paired-scan": ["paired-scan", "--in-a", "fraud/precincts.csv", "--in-b", "honest/precincts.csv",
                    "--leader", "LEAD", "--threshold", "40"],
    "prob": ["prob", "coincidence", "100", "10", "10", "--exact"],
}
REPORT_DIGESTS = {
    ("validate", "report.json"): "82e52511bbf594c2bbfa519cb3596a074e4173ef673470b5bcb4d46ccf8b7bc9",
    ("contrast", "report.json"): "e86366f4d27f1de6fa71f3d400ed0b0df1e09b6021ef5ddffa260b2c58eea28c",
    ("scatter", "report.json"): "f43ff65334bd77a2842bb4e630152043d7346cb765cbcfc57d439da7174df672",
    ("scatter-registered", "report.json"): "558d119e7361ea5eec1936e8811980bc730f5f7cfa1d278463675123e0c7bd80",
    ("hist", "report.json"): "cac295a0f14e87a998056c20da482c26af910a1f98c74a90d05dd601f4de892d",
    ("bins", "report.json"): "af09e43a05203536a169c786bbbf503fd05122653b50ae3b29f14ef52d0e0db0",
    ("peaks", "report.json"): "68d32dd22dcde4aa47c762a7d01f03777f7ead749edeea6743ba9e0f6879ea03",
    ("peaks", "peaks.svg"): "87149b33442015b168923832cdb4479de17703278d33a9163074577f5234f343",
    ("peaks-turnout-ballots", "report.json"): "b00fa1b12ee6bc7c55365b8f47cd756e488e4a437995664d042ee24475b0a83c",
    ("stuffing", "report.json"): "be1053a9e08de0559f76e6de4cf69361d90398df4ea23c1a4b80460fea0291d5",
    ("clusters", "report.json"): "d6dbfe40dd5d40aa0934e609ef3dec48558db0661d82d4061fb6e28d0818ab3c",
    ("clusters", "clusters.svg"): "0bf6ccc161ad70caed3bb48bbc0ba4503f44c8cbf3915f811e7979b1bab8e18d",
    ("delta", "report.json"): "ebf0e825857d114b0c1ecca5f47fb184e07f764e876a3f397d11445b50457b4a",
    ("paired-scan", "report.json"): "e2860bd88895d2e741390091973e8f7df124b366dc7082d65bd904d6975765c1",
    ("prob", "report.json"): "3ac17403f1472f5a26c2b9f4678dc28ba7c2871e933ee2649281d2454bf422e7",
}


def test_every_other_commands_outputs_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths keep report.json free of the temporary directory
    (tmp_path / "precincts.csv").write_bytes((FIXTURES / "round_targets_precincts.csv").read_bytes())
    (tmp_path / "nn_districts_2007_2011.csv").write_bytes((FIXTURES / "nn_districts_2007_2011.csv").read_bytes())
    (tmp_path / "model.json").write_text(json.dumps(SYNTH_MODEL))
    (tmp_path / "scenario.json").write_text(json.dumps(SYNTH_SCENARIO))
    assert main(["synth", "--model", "model.json", "--seed", "11", "--out", "honest"]) == 0
    assert main(["synth", "--model", "model.json", "--scenario", "scenario.json", "--seed", "11",
                 "--out", "fraud"]) == 0
    for run, argv in REPORT_RUNS.items():
        assert main([*argv, "--out", run]) == 0, run
    assert _report(tmp_path / "paired-scan")["results"]["counts"]["a_over_b"]
    for (run, name), digest in REPORT_DIGESTS.items():
        assert hashlib.sha256((tmp_path / run / name).read_bytes()).hexdigest() == digest, (run, name)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_crlf_file_with_a_cell_spanning_lines_reads_as_its_lf_copy(tmp_path, capsys):
    lf = PRECINCTS.replace("p2,R,", 'p2,"R\nX",')
    for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
        for suffix, text in (("", lf), ("_bad", lf + "p4,R,T2,1000,5x0,0,0,1,2\n")):
            (tmp_path / f"{name}{suffix}.csv").write_bytes(text.replace("\n", newline).encode())
            code = main(["validate", "--in", str(tmp_path / f"{name}{suffix}.csv"), "--leader", "A",
                         "--out", str(tmp_path / f"{name}{suffix}")])
            assert code == (1 if suffix else 0)
    lf_report, crlf_report = _report(tmp_path / "lf"), _report(tmp_path / "crlf")
    assert crlf_report["results"] == lf_report["results"]
    assert crlf_report["inputs"][0]["sha256"] == _digest(tmp_path / "crlf.csv")
    # the quoted cell takes lines 3 and 4, so the bad row is on line 6 either way
    bad_cell = "ERROR MALFORMED_ROW: line 6: column 'ballots_cast': '5x0' is not a non-negative integer"
    assert capsys.readouterr().err.splitlines() == [bad_cell, bad_cell]


INTRADAY = "precinct_id,time,cumulative_voted\np1,10:00,100\np1,15:00,300\np2,10:00,50\np2,15:00,350\n"
TINY_MODEL = json.dumps({"precincts": 20, "parties": ["A", "B"], "baseline_shares": [0.6, 0.3], "leader": "A"})


@pytest.mark.parametrize("kind", ["precincts", "intraday", "model"])
def test_a_leading_utf8_bom_reads_as_the_file_without_it(tmp_path, kind):
    (tmp_path / "precincts.csv").write_text(PRECINCTS)
    content = {"precincts": PRECINCTS, "intraday": INTRADAY, "model": TINY_MODEL}[kind].encode()
    reports = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path = tmp_path / f"{kind}{len(bom)}"
        path.write_bytes(bom + content)
        out = tmp_path / f"out{len(bom)}"
        argv = {
            "precincts": ["validate", "--in", str(path), "--leader", "A"],
            "intraday": ["hyperactive", "--in", str(tmp_path / "precincts.csv"), "--leader", "A", "--series", str(path)],
            "model": ["synth", "--model", str(path), "--seed", "1"],
        }[kind]
        assert main([*argv, "--out", str(out)]) == 0
        reports.append(_report(out))
        assert reports[-1]["inputs"][-1]["sha256"] == _digest(path)
    plain, with_bom = reports
    assert with_bom["results"] == plain["results"]


def test_synth_child_peaks_within_45_mb_of_its_imports_at_100k_precincts(tmp_path):
    model = tmp_path / "model.json"
    scenario = tmp_path / "scenario.json"
    model.write_text(json.dumps(dict(SYNTH_MODEL, precincts=100_000)))
    scenario.write_text(json.dumps(SYNTH_SCENARIO))
    baseline, peak = child_peak_mb(["synth", "--model", str(model), "--scenario", str(scenario), "--seed", "11",
                                    "--out", str(tmp_path / "o")])
    # 39.8-40.4 MB in five runs.  The writers' second join, of the header and the joined rows, took
    # it to about 43 MB; whole-election curve and fraud temporaries, copied zero columns and writing
    # the ground truth after the dataset to about 47.5 MB
    assert peak - baseline < 42, (baseline, peak)


def test_plotted_peaks_child_peaks_within_23_mb_of_its_imports(tmp_path):
    model = synth.model_from_json(json.dumps(dict(SYNTH_MODEL, precincts=16_000)))
    generated = synth.synthesize(model, synth.scenario_from_json(json.dumps(SYNTH_SCENARIO)), 41)
    (tmp_path / "precincts.csv").write_text(serialize_dataset(generated.dataset))
    baseline, peak = child_peak_mb(["peaks", "--in", str(tmp_path / "precincts.csv"), "--leader", "LEAD", "--seed", "41",
                                    "--out", str(tmp_path / "o")])
    # the plot's 101-bin alias-table null sets the peak: 23.3 MB above the baseline when the
    # targets' null drew from alias tables too, 21.9-22.6 MB with the targets' null exact
    assert peak - baseline < 23.4, (baseline, peak)


def test_hyperactive_child_peaks_within_25_mb_of_its_imports(tmp_path):
    model = synth.model_from_json(json.dumps(dict(SYNTH_MODEL, precincts=16_000)))
    generated = synth.synthesize(model, synth.scenario_from_json(json.dumps(SYNTH_SCENARIO)), 41)
    (tmp_path / "precincts.csv").write_text(serialize_dataset(generated.dataset))
    (tmp_path / "intraday.csv").write_text(serialize_intraday(generated.intraday))
    baseline, peak = child_peak_mb(["hyperactive", "--in", str(tmp_path / "precincts.csv"), "--leader", "LEAD",
                                    "--series", str(tmp_path / "intraday.csv"), "--out", str(tmp_path / "o")])
    # whole-file readers and a joined list of JSON pieces took it about 37 MB above the baseline
    assert peak - baseline < 25, (baseline, peak)
