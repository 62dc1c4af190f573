import numpy as np
import pytest

from election_forensics import synth
from election_forensics.peaks import simulate_null
from election_forensics.errors import BadBinWidth
from election_forensics.histograms import (
    MAX_TURNOUT_BINS,
    integer_percent_histogram,
    percent_bins,
    turnout_bin_table,
)
from conftest import quick_dataset, record


def test_two_precincts_at_exact_75_percent():
    records = [
        record(pid="a", registered=1000, cast=400, votes=(300, 100)),
        record(pid="b", registered=1000, cast=800, votes=(600, 200)),
    ]
    hist = integer_percent_histogram(quick_dataset(records), "leader_share")
    assert hist.bins[75] == 2
    assert sum(hist.bins) == 2


def test_one_of_three_votes_rounds_to_33():
    records = [record(registered=10, cast=3, votes=(1, 2))]
    hist = integer_percent_histogram(quick_dataset(records), "leader_share")
    assert hist.bins[33] == 1


def test_half_boundary_rounds_up():
    # 149/200 = 74.5% exactly -> bin 75 under half-up rounding
    records = [record(registered=400, cast=200, votes=(149, 51))]
    hist = integer_percent_histogram(quick_dataset(records), "leader_share")
    assert hist.bins[75] == 1


def test_percent_bins_integer_exactness():
    numer = np.array([1, 149, 57, 0, 333])
    denom = np.array([3, 200, 100, 7, 1000])
    expected = [round(100 * n / d + 1e-9) for n, d in zip(numer, denom)]  # all safely off .5
    expected[1] = 75  # the exact .5 case rounds up
    assert percent_bins(numer, denom).tolist() == expected


def test_zero_cast_excluded_from_share_but_in_turnout_bin_zero():
    records = [record(pid="a", cast=0, votes=(0, 0)), record(pid="b", cast=500, votes=(250, 250))]
    ds = quick_dataset(records)
    share_hist = integer_percent_histogram(ds, "leader_share")
    assert sum(share_hist.bins) == 1
    turnout_hist = integer_percent_histogram(ds, "turnout")
    assert turnout_hist.bins[0] == 1
    assert sum(turnout_hist.bins) == 2


def test_weight_modes_conserve_mass():
    records = [
        record(pid=f"p{i}", registered=1000 + i, cast=600, votes=(400, 200)) for i in range(7)
    ]
    ds = quick_dataset(records)
    assert sum(integer_percent_histogram(ds, "turnout", "precincts").bins) == 7
    assert sum(integer_percent_histogram(ds, "turnout", "registered").bins) == sum(
        r.registered for r in ds.records
    )
    assert sum(integer_percent_histogram(ds, "turnout", "ballots").bins) == 7 * 600


def test_weighted_counts_are_exact_near_max_count():
    # 10,000 x (10**12 - 1) is past 2**53, where a float64 running sum drops units
    big = 10**12 - 1
    ds = quick_dataset([record(pid=f"p{i}", registered=big, cast=big, votes=(big, 0)) for i in range(10_000)])
    total = 10_000 * big
    assert integer_percent_histogram(ds, "turnout", "ballots").total() == total
    assert integer_percent_histogram(ds, "turnout", "registered").total() == total
    assert turnout_bin_table(ds, 0.01).ballots_total() == total
    for weight_mode in ("registered", "ballots"):
        null = simulate_null(ds, "turnout", replicates=100, seed=0, targets=(100,), weight_mode=weight_mode)
        assert (null.weights == total).all()


def test_single_precinct_turnout_bin_placement():
    records = [record(registered=1000, cast=550, votes=(370, 180))]
    table = turnout_bin_table(quick_dataset(records), 0.01)
    assert table.bin_bounds(55) == (0.55, 0.56)
    assert table.votes[55][0] == 370
    assert table.precinct_counts[55] == 1
    assert table.ballots[55] == 550


def test_turnout_bin_table_conserves_totals():
    model = synth.HonestModel(
        precincts=500,
        parties=("A", "B", "C"),
        baseline_shares=(0.5, 0.3, 0.15),
        leader="A",
    )
    ds = synth.generate_honest(model, seed=3).dataset
    table = turnout_bin_table(ds, 0.02)
    arrays = ds.counts()
    for j in range(3):
        assert sum(row[j] for row in table.votes) == int(arrays.votes[:, j].sum())
    assert sum(table.precinct_counts) == len(ds)
    assert table.ballots_total() == int(arrays.ballots_cast.sum())


def test_full_turnout_joins_last_bin():
    records = [record(registered=500, cast=500, votes=(250, 250))]
    table = turnout_bin_table(quick_dataset(records), 0.01)
    assert table.precinct_counts[99] == 1


def test_bad_bin_width_rejected():
    ds = quick_dataset([record()])
    with pytest.raises(BadBinWidth):
        turnout_bin_table(ds, 0.03)
    with pytest.raises(BadBinWidth):
        turnout_bin_table(ds, 0.0)
    with pytest.raises(BadBinWidth, match="must be in"):
        turnout_bin_table(ds, float("nan"))
    with pytest.raises(BadBinWidth, match="more than 10000 bins"):
        turnout_bin_table(ds, 2**-30)
    with pytest.raises(BadBinWidth, match="more than 10000 bins"):
        turnout_bin_table(ds, 1 / 10_001)
    assert turnout_bin_table(ds, 1 / 10_000).n_bins == MAX_TURNOUT_BINS


def test_histogram_deterministic_across_runs():
    model = synth.HonestModel(
        precincts=400, parties=("A", "B"), baseline_shares=(0.6, 0.35), leader="A"
    )
    ds = synth.generate_honest(model, seed=9).dataset
    h1 = integer_percent_histogram(ds, "leader_share")
    h2 = integer_percent_histogram(ds, "leader_share")
    assert h1 == h2


def test_stuffed_dataset_grows_high_turnout_leader_tail():
    # leader vote mass above 0.60 turnout should grow at least 3x more,
    # relative to the others, than below 0.60
    model = synth.HonestModel(
        precincts=4000,
        parties=("LEAD", "OPA", "OPB"),
        baseline_shares=(0.5, 0.3, 0.15),
        leader="LEAD",
        turnout_components=(synth.TurnoutComponent(0.40, 0.07, 1.0),),
    )
    gen = synth.generate_honest(model, seed=21)
    scenario = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=0.30, intensity=0.55, jitter=0.15), seed=4
    )
    stuffed, _ = synth.apply_fraud(gen.dataset, scenario)
    table = turnout_bin_table(stuffed, 0.01)
    leader_idx = table.parties.index("LEAD")
    hi = slice(60, 100)
    lo = slice(0, 60)

    def ratio(rows_slice):
        votes = np.asarray(table.votes)
        leader = votes[rows_slice, leader_idx].sum()
        others = votes[rows_slice].sum() - leader
        return leader / max(others, 1)

    assert ratio(hi) >= 3 * ratio(lo)
