import csv
import io
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from election_forensics import synth
from election_forensics.dataset import MAX_COUNT, check_invariants, parse_dataset, serialize_dataset
from election_forensics.errors import InvalidModel
from election_forensics.peaks import detect_round_peaks
import reference_loops as reference
from conftest import quick_dataset, record


def small_model(**overrides):
    base = dict(
        precincts=500,
        parties=("LEAD", "OPA", "OPB"),
        baseline_shares=(0.5, 0.3, 0.15),
        leader="LEAD",
    )
    base.update(overrides)
    return synth.HonestModel(**base)


def test_zero_precincts_gives_empty_dataset():
    gen = synth.generate_honest(small_model(precincts=0), seed=1)
    assert len(gen.dataset) == 0


@pytest.mark.parametrize("times", [(600, 720, 900, 1080), ()], ids=["intraday", "no_intraday"])
@pytest.mark.parametrize("n", [1, synth.BLOCK - 1, synth.BLOCK, synth.BLOCK + 1, 2 * synth.BLOCK + 17])
def test_blockwise_curves_match_the_whole_election_formula_bit_for_bit(n, times):
    model = small_model(precincts=n, report_times=times, machine_fraction=0.3, territories=7)
    got = synth.generate_honest(model, seed=31)
    want = reference.generate_honest_whole_election(model, seed=31)
    for column in ("precinct_ids", "starts", "minutes", "cumulative"):
        assert np.array_equal(getattr(got.intraday, column), getattr(want.intraday, column)), column
    assert len(got.intraday) == (n if times else 0)
    assert got.dataset == want.dataset
    for f in fields(synth.GroundTruth):
        mine, theirs = getattr(got.truth, f.name), getattr(want.truth, f.name)
        if isinstance(theirs, np.ndarray):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), f.name
        else:
            assert mine == theirs, f.name


def test_pre_fraud_truth_shares_one_read_only_zero_column_that_fraud_leaves_at_zero():
    gen = synth.generate_honest(small_model(precincts=300), seed=4)
    truth = gen.truth
    zeros = truth.stuffed
    assert all(getattr(truth, name) is zeros for name in ("transferred", "rounding_delta", "jump"))
    assert not zeros.flags.writeable and not np.any(zeros)
    with pytest.raises(ValueError):
        zeros[0] = 1
    assert truth.honest_ballots_cast is gen.dataset.counts().ballots_cast
    scenario = synth.FraudScenario(
        stuffing=synth.StuffingSpec(0.2, 0.1),
        transfer=synth.TransferSpec(0.2, 0.5),
        target_rounding=synth.RoundingSpec(0.1, targets=(60, 70)),
        intraday_jump=synth.JumpSpec(0.05, 0.1),
    )
    _, after = synth.apply_fraud(gen.dataset, scenario, seed=4, truth=truth)
    mechanisms = [getattr(after, name) for name in ("stuffed", "transferred", "rounding_delta", "jump")]
    assert all(column is not zeros for column in mechanisms)
    assert len({id(column) for column in mechanisms}) == 4
    assert all(np.any(column) for column in mechanisms)
    assert not np.any(zeros)
    # a second round adds to the first round's counts
    _, again = synth.apply_fraud(gen.dataset, scenario, seed=4, truth=after)
    assert all(np.array_equal(getattr(again, name), 2 * getattr(after, name)) for name in ("stuffed", "jump"))


def test_generation_is_deterministic_bytes():
    a = synth.generate_honest(small_model(), seed=42)
    b = synth.generate_honest(small_model(), seed=42)
    assert serialize_dataset(a.dataset) == serialize_dataset(b.dataset)
    c = synth.generate_honest(small_model(), seed=43)
    assert serialize_dataset(c.dataset) != serialize_dataset(a.dataset)


def test_every_generated_record_satisfies_invariants():
    gen = synth.generate_honest(small_model(precincts=2000), seed=7)
    arrays = gen.dataset.counts()
    check_invariants(arrays)  # raises on violation
    assert np.all(small_model().registered_min <= arrays.registered)
    assert np.all(arrays.registered <= small_model().registered_max)


def test_degenerate_model_reproduces_fixed_share_split():
    model = small_model(
        precincts=400,
        parties=("A", "B"),
        baseline_shares=(0.6, 0.4),
        leader="A",
        share_noise_sd=0.0,
        turnout_components=(synth.TurnoutComponent(0.5, 0.0, 1.0),),
        registered_median=2000,
        registered_sigma=0.1,
    )
    gen = synth.generate_honest(model, seed=5)
    arrays = gen.dataset.counts()
    share_reg_a = arrays.votes[:, 0].sum() / arrays.registered.sum()
    share_reg_b = arrays.votes[:, 1].sum() / arrays.registered.sum()
    assert share_reg_a == pytest.approx(0.30, abs=0.01)
    assert share_reg_b == pytest.approx(0.20, abs=0.01)


def test_invalid_models_rejected():
    with pytest.raises(InvalidModel):
        small_model(baseline_shares=(0.9, 0.3, 0.2)).validate()
    with pytest.raises(InvalidModel):
        small_model(leader="NOPE").validate()
    with pytest.raises(InvalidModel):
        synth.HonestModel(
            precincts=10,
            parties=("A",),
            baseline_shares=(0.5,),
            leader="A",
            turnout_components=(synth.TurnoutComponent(0.5, 0.05, 0.7),),
        ).validate()
    for times in ((600, 600, 900), (600,), (600, 1440), (-1, 600)):
        with pytest.raises(InvalidModel):
            small_model(report_times=times).validate()
    small_model(report_times=()).validate()
    small_model(report_times=(0, 1439)).validate()


@pytest.mark.parametrize("time", ["25:00", "10-00", "10:0x", "", 600])
def test_model_json_with_a_bad_report_time_is_an_invalid_model(time):
    text = '{"precincts": 5, "parties": ["X"], "baseline_shares": [0.5], "leader": "X", "report_times": ["10:00", %s]}'
    with pytest.raises(InvalidModel):
        synth.model_from_json(text % json.dumps(time))


def test_model_and_scenario_json_round_trip():
    model = synth.model_from_json(
        """
        {"precincts": 50, "parties": ["X", "Y"], "baseline_shares": [0.5, 0.4],
         "leader": "X", "registered": {"median": 900, "sigma": 0.3, "min": 50, "max": 2000},
         "turnout_components": [{"mean": 0.4, "sd": 0.05, "weight": 1.0}],
         "report_times": ["10:00", "18:00"]}
        """
    )
    assert model.report_times == (600, 1080)
    scenario = synth.scenario_from_json(
        """
        {"seed": 3,
         "stuffing": {"fraction": 0.5, "intensity": 0.2},
         "target_rounding": {"fraction": 0.1, "targets": [75], "quantity": "turnout",
                             "max_adjustment": 0.08}}
        """
    )
    assert scenario.stuffing.fraction == 0.5
    assert scenario.target_rounding.targets == (75,)
    assert scenario.seed == 3


def test_zero_intensity_scenario_is_identity():
    gen = synth.generate_honest(small_model(), seed=9)
    ds, truth = synth.apply_fraud(gen.dataset, synth.FraudScenario(), truth=gen.truth)
    assert serialize_dataset(ds) == serialize_dataset(gen.dataset)
    assert truth.stuffed.sum() == 0


def test_single_precinct_stuffing_arithmetic():
    from election_forensics.dataset import PartyRoster, PrecinctRecord, make_dataset

    rec = PrecinctRecord("p0", "R", "T", 1000, 500, 0, False, (300, 200))
    ds = make_dataset("one", PartyRoster(("L", "O")), (rec,), "L")
    scenario = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=1.0, intensity=0.2, jitter=0.0), seed=1
    )
    out, truth = synth.apply_fraud(ds, scenario)
    new = out.records[0]
    assert new.ballots_cast == 700
    assert new.votes == (500, 200)
    assert truth.stuffed[0] == 200


def test_stuffing_ground_truth_matches_leader_delta_exactly():
    gen = synth.generate_honest(small_model(precincts=1500), seed=10)
    scenario = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=0.4, intensity=0.18), seed=2
    )
    out, truth = synth.apply_fraud(gen.dataset, scenario, truth=gen.truth)
    pre = gen.dataset.counts()
    post = out.counts()
    leader_idx = gen.dataset.leader_index
    assert int(post.votes[:, leader_idx].sum() - pre.votes[:, leader_idx].sum()) == int(
        truth.stuffed.sum()
    )
    assert int(post.ballots_cast.sum() - pre.ballots_cast.sum()) == int(truth.stuffed.sum())
    assert np.all(post.ballots_cast <= post.registered)


def test_transfer_conserves_ballots_and_total_votes():
    gen = synth.generate_honest(small_model(precincts=1200), seed=11)
    scenario = synth.FraudScenario(
        transfer=synth.TransferSpec(fraction=0.6, amount=0.4), seed=3
    )
    out, truth = synth.apply_fraud(gen.dataset, scenario, truth=gen.truth)
    pre = gen.dataset.counts()
    post = out.counts()
    assert int(post.ballots_cast.sum()) == int(pre.ballots_cast.sum())
    assert int(post.votes.sum()) == int(pre.votes.sum())
    leader_idx = gen.dataset.leader_index
    gained = post.votes[:, leader_idx] - pre.votes[:, leader_idx]
    assert np.array_equal(gained, truth.transferred)
    assert truth.transferred.sum() > 0


def test_rounding_lands_quantity_on_targets():
    model = small_model(
        precincts=800,
        baseline_shares=(0.72, 0.18, 0.08),
        share_noise_sd=0.04,
        registered_median=1500,
    )
    gen = synth.generate_honest(model, seed=12)
    scenario = synth.FraudScenario(
        target_rounding=synth.RoundingSpec(
            fraction=1.0, targets=(70, 75, 80), quantity="leader_share", max_adjustment=0.06
        ),
        seed=4,
    )
    out, truth = synth.apply_fraud(gen.dataset, scenario, truth=gen.truth)
    adjusted = 0
    for rec, delta in zip(out.records, truth.rounding_delta):
        if rec.precinct_id in truth.rounding_skipped:
            continue
        share_pct = 100 * rec.votes[0] / rec.ballots_cast
        assert min(abs(share_pct - t) for t in (70, 75, 80)) <= 0.5 + 1e-9
        adjusted += delta != 0
    assert adjusted > 400
    # votes totals conserved: rounding by transfer moves votes, never creates them
    assert int(out.counts().votes.sum()) == int(gen.dataset.counts().votes.sum())


def test_turnout_rounding_stuffs_upward_only():
    model = small_model(precincts=600, turnout_components=(synth.TurnoutComponent(0.57, 0.04, 1.0),))
    gen = synth.generate_honest(model, seed=14)
    scenario = synth.FraudScenario(
        target_rounding=synth.RoundingSpec(
            fraction=1.0, targets=(60, 65), quantity="turnout", max_adjustment=0.08
        ),
        seed=5,
    )
    out, truth = synth.apply_fraud(gen.dataset, scenario, truth=gen.truth)
    assert np.all(truth.rounding_delta >= 0)
    skipped = set(truth.rounding_skipped)
    hits = 0
    for rec in out.records:
        if rec.precinct_id in skipped:
            continue
        pct = 100 * rec.ballots_cast / rec.registered
        assert min(abs(pct - 60), abs(pct - 65)) <= 0.5 + 1e-9
        hits += 1
    assert hits > 400


@st.composite
def _rounding_rows(draw):
    """Precinct counts, the order their rows are rounded in, a leader column, targets and a cap.

    Small counts put many leader shares midway between two targets; some
    parties get no votes; counts up to MAX_COUNT pass int64 in amount * total.
    """
    parties = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([12, 2_000, MAX_COUNT]))
    registered, cast, votes = [], [], []
    for _ in range(draw(st.integers(0, 8))):
        registered.append(draw(st.integers(1, scale)))
        cast.append(draw(st.integers(0, registered[-1])))
        row, left = [], cast[-1]
        for _ in range(parties):
            row.append(draw(st.one_of(st.just(0), st.integers(0, left))))
            left -= row[-1]
        votes.append(draw(st.permutations(row)))
    order = draw(st.permutations(range(len(cast))))
    leader = draw(st.integers(0, parties - 1))
    targets = tuple(draw(st.lists(st.sampled_from([0, 25, 50, 60, 70, 75, 80, 100]), min_size=1, max_size=5)))
    cap = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    return registered, cast, np.array(votes, dtype=np.int64).reshape(-1, parties), order, leader, targets, cap


@pytest.mark.parametrize("quantity", ["leader_share", "turnout"])
@given(case=_rounding_rows())
# a leader share of 75% between the targets 70 and 80, with a zero-vote party
@example(case=([40, 40], [20, 0], np.array([[15, 5, 0], [0, 0, 0]]), [1, 0], 0, (80, 70), 1.0))
# counts near MAX_COUNT: amount * total reaches ~5e21, taken from the others and given to them
@example(case=(
    [MAX_COUNT, MAX_COUNT],
    [MAX_COUNT, MAX_COUNT - 7],
    np.array([[730_000_000_000, 100_000_000_000, 0, 90_000_000_003], [769_999_999_999, 0, 229_999_999_994, 0]]),
    [0, 1], 0, (75, 85), 0.05,
))
@settings(max_examples=150, deadline=None)
def test_rounding_matches_the_row_by_row_loop(quantity, case):
    registered, cast, votes, order, leader, targets, cap = case
    spec = synth.RoundingSpec(fraction=1.0, targets=targets, quantity=quantity, max_adjustment=cap)
    rows = np.array(order, dtype=np.int64)
    counts = (np.array(registered, dtype=np.int64), np.array(cast, dtype=np.int64), votes)
    got_counts = tuple(c.copy() for c in counts)
    want_counts = tuple(c.copy() for c in counts)
    got = synth._round_to_targets(spec, rows, *got_counts, leader)
    want = reference.round_to_targets_by_row(spec, rows, *want_counts, leader)
    for g, w in zip(got + got_counts, want + want_counts):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_fraud_is_deterministic_and_nested_by_propensity():
    gen = synth.generate_honest(small_model(precincts=1000), seed=20)
    scenario = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=0.4, intensity=0.2),
        transfer=synth.TransferSpec(fraction=0.2, amount=0.5),
        seed=6,
    )
    out1, truth1 = synth.apply_fraud(gen.dataset, scenario, truth=gen.truth)
    out2, truth2 = synth.apply_fraud(gen.dataset, scenario, truth=gen.truth)
    assert serialize_dataset(out1) == serialize_dataset(out2)
    # transfer precincts are a subset of stuffed precincts (shared propensity)
    stuffed_ids = {p for p, s in zip(truth1.precinct_ids, truth1.stuffed) if s > 0}
    transfer_ids = {p for p, t in zip(truth1.precinct_ids, truth1.transferred) if t > 0}
    assert transfer_ids <= stuffed_ids


def test_ground_truth_csv_shape():
    gen = synth.generate_honest(small_model(precincts=20), seed=2)
    text = gen.truth.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("precinct_id,component,turnout_prob")
    assert len(lines) == 21


def test_ground_truth_csv_quotes_ids_as_csv_writer_does():
    ids = ["a,b", 'say "hi"', "plain", 'x,"y"']
    ds = quick_dataset([record(pid=pid) for pid in ids])
    _, truth = synth.apply_fraud(ds, synth.FraudScenario())
    rows = list(csv.reader(io.StringIO(truth.to_csv())))
    assert len(rows) == len(ids) + 1
    assert all(len(row) == 9 for row in rows)
    assert [row[0] for row in rows[1:]] == ids


def test_honest_generator_rarely_triggers_peak_detector():
    model = small_model(
        precincts=4000,
        registered_median=1400,
        turnout_components=(synth.TurnoutComponent(0.52, 0.07, 1.0),),
        share_noise_sd=0.05,
    )
    flagged = 0
    for seed in range(20):
        ds = synth.generate_honest(model, seed=seed).dataset
        rep = detect_round_peaks(ds, "turnout", replicates=300, seed=seed + 500)
        flagged += bool(rep.flagged)
    assert flagged <= 2


_MODEL = {"precincts": 5, "parties": ["X"], "baseline_shares": [0.5], "leader": "X"}


@pytest.mark.parametrize(
    "change",
    [
        {"precincts": 20.7},
        {"precincts": 20.0},
        {"precincts": "12"},
        {"precincts": True},
        {"registered": {"min": 1.5}},
        {"registered": {"max": "6000"}},
        {"territories": True},
        {"territories": 2.5},
    ],
)
def test_model_json_integer_fields_take_only_json_integers(change):
    with pytest.raises(InvalidModel):
        synth.model_from_json(json.dumps(dict(_MODEL, **change)))


@pytest.mark.parametrize("targets", [[75.5], [75.0], ["75"], [True], [70, False]])
def test_scenario_json_rounding_targets_take_only_json_integers(targets):
    with pytest.raises(InvalidModel):
        synth.scenario_from_json(json.dumps({"target_rounding": {"targets": targets}}))


def test_model_json_integer_fields_keep_their_values():
    model = synth.model_from_json(
        json.dumps(dict(_MODEL, precincts=7, registered={"min": 10, "max": 20}, territories=3))
    )
    assert (model.precincts, model.registered_min, model.registered_max, model.territories) == (7, 10, 20, 3)
    scenario = synth.scenario_from_json('{"target_rounding": {"targets": [70, 85]}}')
    assert scenario.target_rounding.targets == (70, 85)


def test_model_registered_max_is_capped_at_max_count():
    at_cap = dict(
        _MODEL,
        parties=["X", "Y"],
        baseline_shares=[0.5, 0.4],
        registered={"median": 5e13, "max": MAX_COUNT},
        report_times=["10:00", "18:00"],
    )
    gen = synth.generate_honest(synth.model_from_json(json.dumps(at_cap)), seed=1)
    assert gen.dataset.counts().registered.tolist() == [MAX_COUNT] * 5
    assert parse_dataset(serialize_dataset(gen.dataset), "X").counts() == gen.dataset.counts()
    over = dict(at_cap, registered={"median": 5e13, "max": MAX_COUNT + 1})
    with pytest.raises(InvalidModel, match=f"registered_max <= {MAX_COUNT}"):
        synth.model_from_json(json.dumps(over))
