"""The library's result and spec records: cheap to define, immutable, and never turned into array rows."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import election_forensics
from election_forensics import anomaly, compare, dataset, dynamics, histograms, peaks, probkit, scatter, synth
from election_forensics.cli import main

# Records defined as ``typing.NamedTuple``: a class costs a fraction of a
# frozen dataclass's creation, which every ``ef`` process pays at import.
RECORDS = (
    anomaly.StuffingEstimate,
    anomaly.SuperlinearityResult,
    anomaly.ClusterSplit,
    anomaly._EMFit,
    compare.SubsetContrast,
    compare.DeltaRow,
    compare.PairedScanResult,
    dataset.PrecinctRecord,
    dynamics.IntradaySeries,
    histograms.IntegerPercentHistogram,
    histograms.TurnoutBinTable,
    peaks.NullDistribution,
    peaks.PeakReport,
    probkit.OddsResult,
    probkit.CoincidenceResult,
    scatter.ScatterPoint,
    scatter.TrendFit,
    synth.TurnoutComponent,
    synth.StuffingSpec,
    synth.TransferSpec,
    synth.RoundingSpec,
    synth.JumpSpec,
    synth.FraudScenario,
    synth.SyntheticElection,
)

_COUNT_DATACLASSES = """
import dataclasses
made = []
process_class = dataclasses._process_class
def counted(cls, *args, **kwargs):
    made.append(cls.__qualname__)
    return process_class(cls, *args, **kwargs)
dataclasses._process_class = counted
import election_forensics.cli
print(len(made), *made)
"""


def test_importing_the_cli_creates_at_most_ten_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(Path(election_forensics.__file__).parents[1]))
    ran = subprocess.run([sys.executable, "-c", _COUNT_DATACLASSES], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    count, *names = ran.stdout.split()
    assert int(count) <= 10, names


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_records_refuse_attribute_assignment(record):
    instance = record(*[None] * len(record._fields))
    with pytest.raises(AttributeError):
        setattr(instance, record._fields[0], 1)
    with pytest.raises(AttributeError):
        instance.extra = 1


def test_records_keep_the_constructions_the_gate_and_bench_use():
    point = scatter.ScatterPoint("p1", 0.5, 0.25, 1200)
    assert (point.precinct_id, point.x, point.y, point.weight) == ("p1", 0.5, 0.25, 1200)
    scenario = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=0.15, intensity=0.15),
        transfer=synth.TransferSpec(fraction=0.15, amount=0.30),
        target_rounding=synth.RoundingSpec(fraction=0.05, targets=(75, 80), max_adjustment=0.05),
        intraday_jump=synth.JumpSpec(fraction=0.01, size=0.2),
        exempt_machine_counted=True,
        seed=7,
    )
    assert scenario.stuffing.jitter == 1 / 3 and scenario.target_rounding.quantity == "leader_share"
    assert scenario.seed == 7 and scenario.exempt_machine_counted
    assert synth.FraudScenario() == synth.scenario_from_json("{}")
    assert synth.TurnoutComponent(0.5, 0.08, 1.0).sd == 0.08


_ARRAY_MAKERS = ("array", "asarray", "asanyarray", "ascontiguousarray", "stack", "vstack", "hstack", "column_stack",
                 "concatenate")


def _holds_records(value) -> bool:
    if isinstance(value, RECORDS):
        return True
    return isinstance(value, (list, tuple)) and len(value) > 0 and isinstance(value[0], RECORDS)


@pytest.fixture
def array_makers_refusing_records(monkeypatch):
    """Every numpy array maker the library calls, recording each call given a record or a sequence of them.

    A record is a tuple, so numpy would make it, or a list of them, into
    rows of its fields.
    """
    calls = []
    for name in _ARRAY_MAKERS:
        original = getattr(np, name)

        def checked(*args, _original=original, _name=name, **kwargs):
            if args and _holds_records(args[0]):
                calls.append((_name, type(args[0]).__name__))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, checked)
    return calls


def test_no_array_maker_receives_records(array_makers_refusing_records, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(
        '{"precincts": 1200, "parties": ["A", "B", "C"], "baseline_shares": [0.5, 0.3, 0.1], "leader": "A",'
        ' "machine_fraction": 0.3, "territories": 3, "report_times": ["10:00", "14:00", "18:00"],'
        ' "turnout_components": [{"mean": 0.4, "sd": 0.06, "weight": 0.6}, {"mean": 0.75, "sd": 0.05, "weight": 0.4}]}'
    )
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        '{"stuffing": {"fraction": 0.1, "intensity": 0.1}, "transfer": {"fraction": 0.1, "amount": 0.3},'
        ' "target_rounding": {"fraction": 0.05, "targets": [70, 75]}, "intraday_jump": {"fraction": 0.02, "size": 0.2}}'
    )
    data = tmp_path / "synth"
    assert main(["synth", "--model", str(model), "--scenario", str(scenario), "--seed", "3", "--out", str(data)]) == 0
    common = ["--in", str(data / "precincts.csv"), "--leader", "A"]
    commands = [
        ["validate", *common],
        ["scatter", *common, "--weighting", "by_registered"],
        ["hist", *common],
        ["bins", *common],
        ["peaks", *common, "--seed", "1", "--replicates", "200"],
        ["stuffing", *common],
        ["clusters", *common, "--seed", "1", "--restarts", "3"],
        ["contrast", *common],
        ["hyperactive", *common, "--series", str(data / "intraday.csv")],
        ["paired-scan", "--in-a", str(data / "precincts.csv"), "--in-b", str(data / "precincts.csv"), "--leader", "A"],
    ]
    for i, command in enumerate(commands):
        assert main([*command, "--out", str(tmp_path / str(i))]) == 0, command
    election = synth.generate_honest(synth.model_from_json(model.read_text()), 3)
    rows = election.dataset.records
    dataset.make_dataset("rows", election.dataset.roster, rows, "A")
    points = list(scatter.build_points(election.dataset, "A", y_mode="share_of_cast"))
    anomaly.superlinearity_check(points)
    anomaly.split_two_clusters(points, seed=2, restarts=2)
    scatter.slope_standard_error(points, scatter.fit_trend(points, weighting="by_registered"))
    anomaly.estimate_stuffing(histograms.turnout_bin_table(election.dataset))
    assert array_makers_refusing_records == []
