"""Micro-layer timings recorded with pytest-benchmark.

Each test times one library layer on a fixed, seeded input and checks the
result, so a run records the layer's time without changing what the suite
verifies.  Save a record with ``pytest tests/test_microbench.py
--benchmark-autosave``; skip the timing with ``--benchmark-skip``.
"""

import gc
import json

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from election_forensics import synth  # noqa: E402
from election_forensics.anomaly import split_two_clusters  # noqa: E402
from election_forensics.compare import parse_protocols, protocol_displacements  # noqa: E402
from election_forensics.dataset import format_rows, parse_dataset, serialize_dataset  # noqa: E402
from election_forensics.dynamics import flag_hyperactive, parse_intraday, serialize_intraday  # noqa: E402
from election_forensics.peaks import simulate_null  # noqa: E402
from election_forensics.report import build_report, render_report  # noqa: E402
from election_forensics.scatter import ScatterPoint, build_points, fit_trend  # noqa: E402
from election_forensics.svgplot import svg_scatter  # noqa: E402

import reference_loops as reference  # noqa: E402


@pytest.fixture(autouse=True)
def _collector_off():
    """Run each benchmark with the cyclic garbage collector off, as ``cli.main`` runs every command."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _national_16k():
    """A 16k-precinct, four-party election with four intraday reports per precinct."""
    model = synth.HonestModel(
        precincts=16_000,
        parties=("A", "B", "C", "D"),
        baseline_shares=(0.52, 0.22, 0.13, 0.08),
        leader="A",
        machine_fraction=0.3,
        territories=8,
        report_times=(600, 720, 900, 1080),
    )
    return synth.generate_honest(model, 0)


def test_split_two_clusters_2k_points(benchmark):
    rng = np.random.default_rng(0)
    xy = np.vstack(
        [rng.normal((0.45, 0.30), 0.03, (1000, 2)), rng.normal((0.75, 0.65), 0.03, (1000, 2))]
    )
    points = [ScatterPoint(str(i), float(x), float(y), 1) for i, (x, y) in enumerate(xy)]
    split = benchmark.pedantic(split_two_clusters, args=(points,), kwargs={"seed": 0}, rounds=3)
    assert split.decision == "two"
    assert split.converged


def test_split_two_clusters_16k_points(benchmark):
    """The (turnout, leader share of cast) points of a 16k-precinct election with fraud."""
    component = synth.TurnoutComponent
    model = synth.HonestModel(
        precincts=16_000,
        parties=("A", "B", "C", "D"),
        baseline_shares=(0.52, 0.22, 0.13, 0.08),
        leader="A",
        registered_median=1200,
        registered_sigma=0.45,
        registered_min=150,
        registered_max=5000,
        turnout_components=(component(0.25, 0.05, 0.25), component(0.50, 0.08, 0.55), component(0.68, 0.06, 0.20)),
        machine_fraction=0.3,
        territories=8,
    )
    scenario = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=0.08, intensity=0.10),
        transfer=synth.TransferSpec(fraction=0.08, amount=0.50),
    )
    ds = synth.synthesize(model, scenario, seed=0).dataset
    points = build_points(ds, "A", y_mode="share_of_cast")
    split = benchmark.pedantic(split_two_clusters, args=(points,), kwargs={"seed": 0}, rounds=3)
    assert split.decision == "two"
    assert split.converged


def test_split_two_clusters_1k_calibration_points(benchmark):
    """The split of a calibration trial: the first 1,000 precincts of a 1,500-precinct election with fraud."""
    component = synth.TurnoutComponent
    model = synth.HonestModel(
        precincts=1500,
        parties=("LEAD", "OPA", "OPB", "OPC"),
        baseline_shares=(0.60, 0.20, 0.10, 0.05),
        leader="LEAD",
        registered_median=1200,
        registered_min=200,
        registered_max=5000,
        turnout_components=(component(0.30, 0.06, 0.35), component(0.55, 0.07, 0.65)),
    )
    scenario = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=0.15, intensity=0.15),
        transfer=synth.TransferSpec(fraction=0.15, amount=0.30),
        target_rounding=synth.RoundingSpec(fraction=0.30, targets=(70, 75, 80, 85), max_adjustment=0.05),
    )
    ds = synth.synthesize(model, scenario, seed=0).dataset
    points = build_points(ds, "LEAD", y_mode="share_of_cast").take(np.arange(1000))
    split = benchmark.pedantic(split_two_clusters, args=(points,), kwargs={"seed": 0}, rounds=5)
    assert len(split.assignments) == 1000
    assert len(split.em_iterations) == 20


def test_simulate_null_3k_precincts(benchmark):
    model = synth.HonestModel(
        precincts=3000, parties=("A", "B", "C"), baseline_shares=(0.55, 0.3, 0.1), leader="A"
    )
    ds = synth.generate_honest(model, 0).dataset
    null = benchmark.pedantic(simulate_null, args=(ds, "leader_share", 200, 1), rounds=3)
    assert null.weights.shape == (200, 11)
    assert null.weights.sum() > 0


def test_simulate_null_16k_precincts(benchmark):
    model = synth.HonestModel(
        precincts=16_000, parties=("A", "B", "C"), baseline_shares=(0.55, 0.3, 0.1), leader="A"
    )
    ds = synth.generate_honest(model, 0).dataset
    null = benchmark.pedantic(simulate_null, args=(ds, "leader_share", 200, 1), rounds=3)
    assert null.weights.shape == (200, 11)
    assert null.weights.sum() > 0


def test_simulate_null_16k_turnout_ballots(benchmark):
    """Turnout weighted by ballots: every precinct drawn as a binomial, on the calling thread."""
    model = synth.HonestModel(
        precincts=16_000, parties=("A", "B", "C"), baseline_shares=(0.55, 0.3, 0.1), leader="A"
    )
    ds = synth.generate_honest(model, 0).dataset
    null = benchmark.pedantic(
        simulate_null, args=(ds, "turnout", 200, 1), kwargs={"weight_mode": "ballots"}, rounds=3
    )
    assert null.weights.shape == (200, 11)
    assert null.weights.sum() > 0


@pytest.mark.parametrize("replicates", [200, 1000])
def test_simulate_null_16k_precincts_101_bins(benchmark, replicates):
    """The plot null: every integer percent, as ``ef peaks`` draws it for its envelope (1000 replicates by default)."""
    model = synth.HonestModel(
        precincts=16_000, parties=("A", "B", "C"), baseline_shares=(0.55, 0.3, 0.1), leader="A"
    )
    ds = synth.generate_honest(model, 0).dataset
    null = benchmark.pedantic(
        simulate_null, args=(ds, "leader_share", replicates, 1), kwargs={"targets": tuple(range(101))}, rounds=3
    )
    assert null.weights.shape == (replicates, 101)
    assert (null.weights.sum(axis=1) == len(ds)).all()


def test_serialize_intraday_20k_precincts(benchmark):
    model = synth.HonestModel(
        precincts=20_000,
        parties=("A", "B"),
        baseline_shares=(0.55, 0.4),
        leader="A",
        report_times=(600, 720, 900, 1080),
    )
    table = synth.generate_honest(model, 0).intraday
    text = benchmark.pedantic(serialize_intraday, args=(table,), rounds=3)
    assert text.count("\n") == 1 + 4 * 20_000
    assert text.startswith("precinct_id,time,cumulative_voted\np00000,10:00,")


def _national_100k():
    """A 100k-precinct, four-party election with stuffing and transfer."""
    model = synth.HonestModel(
        precincts=100_000,
        parties=("A", "B", "C", "D"),
        baseline_shares=(0.52, 0.22, 0.13, 0.08),
        leader="A",
        machine_fraction=0.3,
        territories=8,
    )
    scenario = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=0.08, intensity=0.10),
        transfer=synth.TransferSpec(fraction=0.08, amount=0.50),
    )
    return synth.synthesize(model, scenario, seed=0)


def test_apply_fraud_100k_precincts_national_scenario(benchmark):
    """All four mechanisms, 5% of precincts rounded to a leader share of 75, 80 or 85%."""
    model = synth.HonestModel(
        precincts=100_000,
        parties=("A", "B", "C", "D"),
        baseline_shares=(0.52, 0.22, 0.13, 0.08),
        leader="A",
        registered_median=1200,
        registered_sigma=0.45,
        registered_min=150,
        registered_max=5000,
        turnout_components=(
            synth.TurnoutComponent(0.25, 0.05, 0.25),
            synth.TurnoutComponent(0.50, 0.08, 0.55),
            synth.TurnoutComponent(0.68, 0.06, 0.20),
        ),
        machine_fraction=0.3,
        territories=8,
    )
    scenario = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=0.08, intensity=0.10),
        transfer=synth.TransferSpec(fraction=0.08, amount=0.50),
        target_rounding=synth.RoundingSpec(fraction=0.05, targets=(75, 80, 85), max_adjustment=0.05),
        intraday_jump=synth.JumpSpec(fraction=0.01, size=0.20),
        seed=0,
    )
    honest = synth.generate_honest(model, 0)
    _, truth = benchmark.pedantic(synth.apply_fraud, args=(honest.dataset, scenario), rounds=3)
    assert np.count_nonzero(truth.rounding_delta) > 4000
    assert len(truth.rounding_skipped) < 100


def test_serialize_dataset_100k_precincts(benchmark):
    ds = _national_100k().dataset
    text = benchmark.pedantic(serialize_dataset, args=(ds,), rounds=3)
    assert text.count("\n") == 1 + 100_000
    assert text.startswith("precinct_id,region,territory,registered,ballots_cast,invalid,machine_counted,")


def test_ground_truth_to_csv_100k_precincts(benchmark):
    truth = _national_100k().truth
    text = benchmark.pedantic(truth.to_csv, rounds=3)
    assert text.count("\n") == 1 + 100_000
    assert text.startswith("precinct_id,component,turnout_prob,")


def test_parse_dataset_16k_precincts(benchmark):
    ds = _national_16k().dataset
    text = serialize_dataset(ds)
    parsed = benchmark.pedantic(parse_dataset, args=(text, "A"), rounds=3)
    assert parsed.columns == ds.columns


def test_parse_dataset_16k_precincts_one_zero_padded_count(benchmark):
    """One valid count zero-padded past 13 digits, which the column check leaves to the row check."""
    ds = _national_16k().dataset
    header, first, rest = serialize_dataset(ds).split("\n", 2)
    cells = first.split(",")
    cells[4] = "0" * 14 + cells[4]  # ballots_cast
    text = "\n".join([header, ",".join(cells), rest])
    parsed = benchmark.pedantic(parse_dataset, args=(text, "A"), rounds=3)
    assert parsed.columns == ds.columns


def test_parse_protocols_16k_precincts(benchmark):
    """An observer and an official row per precinct: 32k rows."""
    c = _national_16k().dataset.counts()
    columns = [c.precinct_ids.tolist(), c.registered.tolist(), c.ballots_cast.tolist(), c.invalid.tolist(),
               *c.votes.T.tolist()]
    text = "precinct_id,source,registered,ballots_cast,invalid,votes_A,votes_B,votes_C,votes_D\n" + "".join(
        block
        for source in ("official", "observer")
        for block in format_rows(f"%s,{source},%s,%s,%s,%s,%s,%s,%s\n", columns)
    )
    observer, official = benchmark.pedantic(parse_protocols, args=(text, "A"), rounds=3)
    for parsed in (observer, official):
        assert parsed.counts().precinct_ids.tolist() == c.precinct_ids.tolist()
        assert np.array_equal(parsed.counts().votes, c.votes)
        assert np.array_equal(parsed.counts().ballots_cast, c.ballots_cast)


def test_parse_intraday_16k_precincts(benchmark):
    table = _national_16k().intraday
    text = serialize_intraday(table)
    parsed = benchmark.pedantic(parse_intraday, args=(text,), rounds=3)
    assert parsed == table


def test_scatter_path_16k_precincts(benchmark):
    ds = _national_16k().dataset

    def scatter_path():
        series = []
        for party in ("A", "B", "C", "D", "others"):
            points = build_points(ds, party)
            fit = fit_trend(points)
            series.append((party, points.xy(), (fit.slope, fit.intercept)))
        return svg_scatter(series)

    svg = benchmark.pedantic(scatter_path, rounds=3)
    assert svg.count("<circle") == 5 * 16_000


def test_render_report_hyperactive_16k_rows(benchmark):
    """The ``report.json`` of ``ef hyperactive`` on 16k precincts: one row dict per precinct."""
    generated = _national_16k()
    flags = flag_hyperactive(generated.dataset, generated.intraday)
    report = build_report("hyperactive", {"threshold": flags.threshold}, [], flags.as_dict())
    text = benchmark.pedantic(render_report, args=(report,), rounds=3)
    assert len(report["results"]["rows"]) == 16_000
    assert text == json.dumps(report, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def test_render_report_protocol_diff_16k_rows(benchmark):
    """The ``report.json`` of ``ef protocol-diff`` on 16k precincts: rows of ``[x, y]`` list cells."""
    ds = _national_16k().dataset
    diff = protocol_displacements(ds, ds)
    report = build_report("protocol-diff", {}, [], diff.as_dict())
    text = benchmark.pedantic(render_report, args=(report,), rounds=3)
    assert len(report["results"]["displacements"]) == 16_000
    assert text == json.dumps(report, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def test_fit_trend_16k_points(benchmark):
    """The five trend fits of ``ef scatter`` on 16k precincts."""
    ds = _national_16k().dataset
    clouds = [build_points(ds, party) for party in ("A", "B", "C", "D", "others")]
    fits = benchmark.pedantic(lambda: [fit_trend(cloud) for cloud in clouds], rounds=3)
    assert fits == [reference.fit_trend_by_point(cloud) for cloud in clouds]
