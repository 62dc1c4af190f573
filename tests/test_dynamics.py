import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from election_forensics import synth
from election_forensics.dataset import ROW_BLOCK
from election_forensics.dynamics import (
    IntradaySeries,
    IntradayTable,
    flag_hyperactive,
    format_time,
    parse_intraday,
    serialize_intraday,
)
from election_forensics.errors import EmptySeries, InvariantViolation, MalformedRow
from conftest import quick_dataset, record


def _series(pid="p1", reports=((600, 100), (900, 450))):
    return IntradaySeries(pid, tuple(reports))


def _one_precinct(cast):
    return quick_dataset([record(pid="p1", registered=1000, cast=cast, votes=(cast, 0))])


def test_final_increment_arithmetic():
    report = flag_hyperactive(_one_precinct(800), {"p1": _series()})
    assert report.increment.tolist() == [pytest.approx(0.35)]
    assert report.turnout.tolist() == [0.8] and report.leader_share_of_cast.tolist() == [1.0]
    assert not report.increment.flags.writeable and not report.hot.flags.writeable


def test_final_increment_zero_when_official_matches_last_report():
    report = flag_hyperactive(_one_precinct(450), {"p1": _series()})
    assert report.increment.tolist() == [0.0]
    assert report.flagged == () and report.hot.tolist() == [False]


def test_series_validation_rules():
    def check(reports, official):
        IntradayTable.from_series({"p1": _series(reports=reports)}).check(np.array([official]))

    with pytest.raises(InvariantViolation):
        check(((600, 300), (900, 200)), 400)
    with pytest.raises(InvariantViolation):
        check(((900, 100), (600, 200)), 400)
    with pytest.raises(InvariantViolation):
        check(((600, 100), (900, 450)), 440)
    check(((600, 100), (900, 450)), 450)


def test_parse_and_serialize_intraday_round_trip():
    text = (
        "precinct_id,time,cumulative_voted\n"
        "p1,10:00,100\np1,15:00,450\n"
        "p2,10:00,50\np2,15:00,90\n"
    )
    series = parse_intraday(text)
    assert series["p1"].reports == ((600, 100), (900, 450))
    assert parse_intraday(serialize_intraday(series)) == series
    with pytest.raises(MalformedRow):
        parse_intraday("precinct_id,time,cumulative_voted\np1,25:00,10\n")
    with pytest.raises(MalformedRow):
        parse_intraday("bad,header\n")


def test_honest_generator_final_increments_stay_small():
    model = synth.HonestModel(
        precincts=1000,
        parties=("A", "B"),
        baseline_shares=(0.5, 0.45),
        leader="A",
        turnout_components=(synth.TurnoutComponent(0.5, 0.07, 1.0),),
        report_times=(600, 720, 900, 1080),
    )
    gen = synth.generate_honest(model, seed=13)
    report = flag_hyperactive(gen.dataset, gen.intraday)
    assert len(report.increment) == len(gen.dataset)
    assert np.count_nonzero(report.increment <= 0.05) / len(gen.dataset) >= 0.99


def test_flagging_threshold_is_strict():
    ds = quick_dataset(
        [
            record(pid="over", registered=1000, cast=800, votes=(400, 400)),
            record(pid="exact", registered=1000, cast=580, votes=(290, 290)),
        ]
    )
    series = {
        "over": _series("over", reports=((600, 100), (900, 450))),  # increment 0.35
        "exact": _series("exact", reports=((600, 100), (900, 450))),  # increment 0.13 exactly
    }
    report = flag_hyperactive(ds, series, threshold=0.13)
    assert report.flagged == ("over",)
    exact = report.precinct_ids.tolist().index("exact")
    assert report.increment[exact] == pytest.approx(0.13)
    assert not report.hot[exact]


def test_missing_series_skipped_and_counted():
    ds = quick_dataset(
        [record(pid="a", cast=500, votes=(250, 250)), record(pid="b", cast=500, votes=(250, 250))]
    )
    series = {"a": _series("a", reports=((600, 100), (900, 480)))}
    report = flag_hyperactive(ds, series)
    assert report.skipped_missing_series == ("b",)
    assert report.precinct_ids.tolist() == ["a"]


def test_flag_set_monotone_in_threshold():
    model = synth.HonestModel(
        precincts=400,
        parties=("A", "B"),
        baseline_shares=(0.5, 0.45),
        leader="A",
        report_times=(600, 900, 1080),
    )
    gen = synth.generate_honest(model, seed=5)
    scenario = synth.FraudScenario(
        intraday_jump=synth.JumpSpec(fraction=0.3, size=0.25), seed=6
    )
    ds, _ = synth.apply_fraud(gen.dataset, scenario)
    previous = None
    for threshold in (0.05, 0.13, 0.2, 0.3):
        flagged = set(flag_hyperactive(ds, gen.intraday, threshold).flagged)
        if previous is not None:
            assert flagged <= previous
        previous = flagged


def test_injected_jumps_recovered_exactly():
    model = synth.HonestModel(
        precincts=200,
        parties=("A", "B"),
        baseline_shares=(0.5, 0.45),
        leader="A",
        turnout_components=(synth.TurnoutComponent(0.45, 0.05, 1.0),),
        report_times=(600, 780, 960, 1080),
    )
    gen = synth.generate_honest(model, seed=3)
    scenario = synth.FraudScenario(intraday_jump=synth.JumpSpec(fraction=0.2, size=0.2), seed=9)
    ds, truth = synth.apply_fraud(gen.dataset, scenario)
    report = flag_hyperactive(ds, gen.intraday, threshold=0.13)
    expected = {pid for pid, j in zip(truth.precinct_ids, truth.jump) if j > 0}
    assert set(report.flagged) == expected
    assert len(expected) == 40


@pytest.mark.parametrize(
    "reports",
    [
        ((900, 100), (600, 450)),  # times out of order
        ((600, 450), (900, 100)),  # counts fall
        ((600, -5), (900, 100)),  # negative count
        ((600, 100),),  # too short
    ],
)
def test_flag_hyperactive_validates_unvalidated_series(reports):
    ds = quick_dataset([record(pid="p1", registered=1000, cast=800, votes=(400, 400))])
    with pytest.raises((InvariantViolation, EmptySeries)):
        flag_hyperactive(ds, {"p1": _series("p1", reports=reports)})


def test_generated_series_are_columns_with_series_views():
    model = synth.HonestModel(
        precincts=5, parties=("A", "B"), baseline_shares=(0.5, 0.4), leader="A", report_times=(900, 600, 1080)
    )
    gen = synth.generate_honest(model, seed=1)
    table = gen.intraday
    assert isinstance(table, IntradayTable)
    assert list(table) == gen.dataset.counts().precinct_ids.tolist()
    assert table.starts.tolist() == [0, 3, 6, 9, 12, 15]
    assert table.minutes.tolist() == [600, 900, 1080] * 5
    pid = list(table)[2]
    assert pid in table and "nope" not in table
    series = table[pid]
    assert series.precinct_id == pid
    assert series.reports == tuple(zip(table.minutes[6:9].tolist(), table.cumulative[6:9].tolist()))
    assert IntradayTable.from_series(dict(table.items())) == table
    assert len(synth.generate_honest(dataclasses.replace(model, report_times=()), seed=1).intraday) == 0


def _reference_intraday_csv(series_map) -> str:
    """The per-row csv.writer loop that wrote intraday.csv before the columnar writer."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["precinct_id", "time", "cumulative_voted"])
    for pid in sorted(series_map):
        for minutes, count in series_map[pid].reports:
            writer.writerow([pid, format_time(minutes), count])
    return out.getvalue()


_ID_ALPHABET = 'ab1 ,"'


@st.composite
def intraday_tables(draw):
    pids = draw(
        st.lists(
            st.text(_ID_ALPHABET, max_size=5).filter(lambda pid: pid == pid.strip()), max_size=20, unique=True
        )
    )
    series = {}
    for pid in pids:
        times = sorted(draw(st.sets(st.integers(0, 23 * 60 + 59), min_size=2, max_size=6)))
        counts = sorted(draw(st.lists(st.integers(0, 10**6), min_size=len(times), max_size=len(times))))
        series[pid] = IntradaySeries(pid, tuple(zip(times, counts)))
    return IntradayTable.from_series(series)


@given(intraday_tables(), st.data())
@settings(max_examples=80, deadline=None)
def test_intraday_reader_and_writer_property(table, data):
    text = serialize_intraday(table)
    assert text == _reference_intraday_csv(table)
    assert parse_intraday(text) == table
    position = data.draw(st.integers(0, len(text)))
    inserted = data.draw(st.text("0123456789:,\n\" a-", max_size=2))
    removed = data.draw(st.integers(0, 3))
    mutated = text[:position] + inserted + text[position + removed :]
    try:
        parse_intraday(mutated)
    except (MalformedRow, EmptySeries, InvariantViolation):
        pass


def test_intraday_writer_matches_reference_across_block_edges():
    rng = np.random.default_rng(5)
    n = 3 * ROW_BLOCK + 77
    ids = [f"p{k:05d}" for k in rng.permutation(n)]
    ids[0] = f'p{2 * ROW_BLOCK:05d},"b'  # one id that needs quoting, in the third block once sorted
    series = {}
    for pid, reports in zip(ids, rng.integers(0, 6, size=n)):  # ragged: 0 to 5 reports per precinct
        times = np.sort(rng.choice(24 * 60, size=reports, replace=False)).tolist()
        counts = np.sort(rng.integers(0, 3000, size=reports)).tolist()
        series[pid] = IntradaySeries(pid, tuple(zip(times, counts)))
    table = IntradayTable.from_series(series)
    assert serialize_intraday(table) == _reference_intraday_csv(table)


def test_first_faulty_precinct_in_file_order_is_reported():
    text = (
        "precinct_id,time,cumulative_voted\n"
        "ok,10:00,5\nb,15:00,100\nok,15:00,9\na,10:00,50\nb,10:00,200\n"
    )
    with pytest.raises(InvariantViolation) as exc:
        parse_intraday(text)
    assert exc.value.message == "precinct 'b': cumulative counts must be non-decreasing"


def test_first_faulty_precinct_in_dataset_order_is_reported():
    ds = quick_dataset(
        [
            record(pid="p1", registered=1000, cast=800, votes=(400, 400)),
            record(pid="p2", registered=1000, cast=800, votes=(400, 400)),
        ]
    )
    series = {
        "x": _series("x", reports=((600, 5),)),  # not in the dataset: never checked
        "p2": _series("p2", reports=((900, 1), (600, 2))),
        "p1": _series("p1", reports=((600, 100), (900, 850))),
    }
    with pytest.raises(InvariantViolation) as exc:
        flag_hyperactive(ds, series)
    assert exc.value.message == "precinct 'p1': last intraday count 850 exceeds official ballots_cast 800"
