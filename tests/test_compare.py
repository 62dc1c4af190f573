import math
import random
from decimal import Decimal

import pytest

from election_forensics import compare, synth
from election_forensics.compare import (
    cross_election_delta,
    ks_statistic,
    paired_contest_scan,
    parse_protocols,
    protocol_displacements,
    subset_contrast,
)
from election_forensics.dataset import partition
from election_forensics.errors import PairMismatch, RosterMismatch, UnitMismatch
from conftest import quick_dataset, record
from reference_loops import _sum_left_to_right


def brute_force_ks(xs, ys):
    """O(n*m) oracle: evaluate both empirical CDFs at every sample point."""
    best = 0.0
    for v in list(xs) + list(ys):
        fa = sum(1 for x in xs if x <= v) / len(xs)
        fb = sum(1 for y in ys if y <= v) / len(ys)
        best = max(best, abs(fa - fb))
    return best


def test_ks_matches_brute_force_on_random_instances():
    rng = random.Random(123)
    for trial in range(50):
        nx = rng.randint(1, 200)
        ny = rng.randint(1, 200)
        xs = [rng.choice([rng.random(), round(rng.random(), 2)]) for _ in range(nx)]
        ys = [rng.choice([rng.random(), round(rng.random(), 2)]) for _ in range(ny)]
        assert ks_statistic(xs, ys) == brute_force_ks(xs, ys)


def test_ks_against_scipy():
    from scipy.stats import ks_2samp

    rng = random.Random(5)
    xs = [rng.gauss(0.5, 0.1) for _ in range(150)]
    ys = [rng.gauss(0.6, 0.12) for _ in range(130)]
    assert ks_statistic(xs, ys) == pytest.approx(ks_2samp(xs, ys).statistic, abs=1e-12)


def test_identical_subsets_contrast_to_zero():
    ds = quick_dataset([record(pid=f"p{i}", cast=500 + i, votes=(300, 150)) for i in range(20)])
    contrast = subset_contrast(ds, ds)
    assert contrast.turnout_ks == 0.0
    assert all(d == 0.0 for d in contrast.share_diff_points)


def test_disjoint_turnout_supports_give_ks_one():
    low = quick_dataset([record(pid=f"a{i}", cast=300, votes=(200, 100)) for i in range(10)])
    high = quick_dataset([record(pid=f"b{i}", cast=700, votes=(400, 300)) for i in range(10)])
    assert subset_contrast(low, high).turnout_ks == 1.0


def test_roster_mismatch_rejected():
    a = quick_dataset([record()], parties=("A", "B"))
    b = quick_dataset([record()], parties=("A", "C"), leader="A")
    with pytest.raises(RosterMismatch):
        subset_contrast(a, b)


def test_fraud_on_one_subset_shows_up_in_contrast():
    model = synth.HonestModel(
        precincts=3000,
        parties=("LEAD", "OPA", "OPB"),
        baseline_shares=(0.45, 0.35, 0.15),
        leader="LEAD",
        machine_fraction=0.4,
        turnout_components=(synth.TurnoutComponent(0.5, 0.06, 1.0),),
    )
    gen = synth.generate_honest(model, seed=31)
    scenario = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=0.75, intensity=0.22, jitter=0.25),
        transfer=synth.TransferSpec(fraction=0.5, amount=0.35),
        exempt_machine_counted=True,
        seed=17,
    )
    fraudulent, _ = synth.apply_fraud(gen.dataset, scenario)
    machine, hand = partition(fraudulent, fraudulent.counts().machine_counted)
    contrast = subset_contrast(machine, hand, label_a="machine", label_b="hand")
    leader_idx = fraudulent.roster.index("LEAD")
    assert contrast.share_diff_points[leader_idx] >= 10.0
    assert contrast.turnout_ks >= 0.3

    # honest/honest split shows no such gap
    m0, h0 = partition(gen.dataset, gen.dataset.counts().machine_counted)
    honest = subset_contrast(m0, h0)
    assert abs(honest.share_diff_points[leader_idx]) <= 2.0


TABLE_NEW = [
    ("Kanavinsky", "50.93", "69.47"),
    ("Moskovsky", "39.78", "63.79"),
    ("Sormovsky", "30.10", "45.89"),
    ("Avtozavodskoy-Sever", "33.74", "47.83"),
    ("Avtozavodskoy-Yug", "34.56", "45.78"),
    ("Leninsky", "30.20", "43.77"),
    ("Nizhegorodsky", "27.49", "50.15"),
    ("Prioksky", "46.38", "63.23"),
    ("Sovetsky", "38.06", "56.91"),
]
TABLE_OLD = [
    ("Kanavinsky", "54.61", "49.65"),
    ("Moskovsky", "54.08", "48.83"),
    ("Sormovsky", "56.54", "51.73"),
    ("Avtozavodskoy-Sever", "59.48", "53.39"),
    ("Avtozavodskoy-Yug", "58.89", "51.39"),
    ("Leninsky", "55.02", "49.84"),
    ("Nizhegorodsky", "49.71", "51.63"),
    ("Prioksky", "53.01", "52.63"),
    ("Sovetsky", "49.61", "52.83"),
]
EXPECTED_DELTAS = {
    "Kanavinsky": ("-3.68", "19.82"),
    "Moskovsky": ("-14.30", "14.96"),
    "Sormovsky": ("-26.44", "-5.84"),
    "Avtozavodskoy-Sever": ("-25.74", "-5.56"),
    "Avtozavodskoy-Yug": ("-24.33", "-5.61"),
    "Leninsky": ("-24.82", "-6.07"),
    "Nizhegorodsky": ("-22.22", "-1.48"),
    "Prioksky": ("-6.63", "10.60"),
    "Sovetsky": ("-11.55", "4.08"),
}


def test_cross_election_delta_reproduces_district_table():
    rows = cross_election_delta(TABLE_OLD, TABLE_NEW)
    assert len(rows) == 9
    for row in rows:
        d_share, d_turnout = EXPECTED_DELTAS[row.unit]
        assert abs(row.d_share - Decimal(d_share)) <= Decimal("0.005")
        assert abs(row.d_turnout - Decimal(d_turnout)) <= Decimal("0.005")


def test_delta_of_identical_tables_is_zero():
    rows = cross_election_delta(TABLE_OLD, TABLE_OLD)
    assert all(r.d_share == 0 and r.d_turnout == 0 for r in rows)


def test_delta_antisymmetry():
    forward = {r.unit: (r.d_share, r.d_turnout) for r in cross_election_delta(TABLE_OLD, TABLE_NEW)}
    backward = {r.unit: (r.d_share, r.d_turnout) for r in cross_election_delta(TABLE_NEW, TABLE_OLD)}
    for unit, (ds, dt) in forward.items():
        assert backward[unit] == (-ds, -dt)


def test_delta_unit_mismatch():
    with pytest.raises(UnitMismatch):
        cross_election_delta(TABLE_OLD[:-1], TABLE_NEW)


def test_delta_rejects_a_unit_repeated_within_a_table():
    with pytest.raises(UnitMismatch, match="appears more than once in table B"):
        cross_election_delta(TABLE_OLD, TABLE_NEW + TABLE_NEW[:1])


def test_protocol_displacement_zero_when_identical():
    ds = quick_dataset([record()])
    diff = protocol_displacements(ds, ds)
    assert diff.displacement.tolist() == [[0.0, 0.0]]
    assert diff.mean_d_turnout == 0.0


def test_protocol_displacement_known_increase():
    observer = quick_dataset([record(pid="u1", registered=1200, cast=1000, votes=(482, 518))], ("LEAD", "REST"), "LEAD")
    official = quick_dataset([record(pid="u1", registered=1200, cast=1000, votes=(617, 383))], ("LEAD", "REST"), "LEAD")
    diff = protocol_displacements(observer, official)
    assert diff.displacement[0, 1] == pytest.approx(0.135)
    assert diff.displacement[0, 0] == 0.0
    assert diff.mean_d_leader_share == pytest.approx(0.135)


def test_protocol_displacement_mismatch_rejected():
    with pytest.raises(PairMismatch, match="disagree on id: 'x' vs 'y'"):
        protocol_displacements(quick_dataset([record(pid="x")]), quick_dataset([record(pid="y")]))
    with pytest.raises(PairMismatch, match=r"registered differs \(1000 vs 999\)"):
        protocol_displacements(
            quick_dataset([record(pid="x", registered=1000)]),
            quick_dataset([record(pid="x", registered=999, cast=500)]),
        )
    with pytest.raises(PairMismatch, match="1 observer precincts vs 0 official"):
        protocol_displacements(quick_dataset([record()]), quick_dataset([]))


def _reference_displacements(observer, official):
    """The per-record loop that computed displacements before they were kept as columns."""
    lead = observer.leader_index
    rows = []
    for src, dst in zip(observer.records, official.records):
        points = [
            (r.ballots_cast / r.registered, r.votes[lead] / r.ballots_cast if r.ballots_cast else 0.0)
            for r in (src, dst)
        ]
        rows.append((src.precinct_id, *points, (points[1][0] - points[0][0], points[1][1] - points[0][1])))
    n = len(rows)
    return rows, _sum_left_to_right([r[3][0] for r in rows]) / n, _sum_left_to_right([r[3][1] for r in rows]) / n


def test_protocol_displacements_all_positive_under_stuffing():
    model = synth.HonestModel(
        precincts=300, parties=("LEAD", "OPP"), baseline_shares=(0.5, 0.45), leader="LEAD"
    )
    gen = synth.generate_honest(model, seed=8)
    scenario = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=1.0, intensity=0.15, jitter=0.0), seed=2
    )
    official, _ = synth.apply_fraud(gen.dataset, scenario)
    diff = protocol_displacements(gen.dataset, official)
    assert (diff.displacement > 0).all()
    rows, mean_d_turnout, mean_d_share = _reference_displacements(gen.dataset, official)
    columns = (diff.observer, diff.official, diff.displacement)
    assert list(zip(diff.precinct_ids.tolist(), *(map(tuple, c.tolist()) for c in columns))) == rows
    assert (diff.mean_d_turnout, diff.mean_d_leader_share) == (mean_d_turnout, mean_d_share)


def test_protocol_means_add_left_to_right_whatever_the_builtin_sum(monkeypatch):
    # math.fsum rounds once, as Python 3.12's compensated builtin sum nearly does
    model = synth.HonestModel(precincts=300, parties=("LEAD", "OPP"), baseline_shares=(0.5, 0.45), leader="LEAD")
    gen = synth.generate_honest(model, seed=8)
    scenario = synth.FraudScenario(stuffing=synth.StuffingSpec(fraction=0.5, intensity=0.15), seed=2)
    official, _ = synth.apply_fraud(gen.dataset, scenario)
    _, mean_d_turnout, mean_d_share = _reference_displacements(gen.dataset, official)
    columns = protocol_displacements(gen.dataset, official).displacement.T.tolist()
    assert [math.fsum(c) / len(c) for c in columns] != [mean_d_turnout, mean_d_share]  # the rules differ here
    monkeypatch.setattr(compare, "sum", math.fsum, raising=False)
    diff = protocol_displacements(gen.dataset, official)
    assert (diff.mean_d_turnout, diff.mean_d_leader_share) == (mean_d_turnout, mean_d_share)


def test_parse_protocols_round_trip_pairing():
    text = (
        "precinct_id,source,registered,ballots_cast,invalid,votes_L,votes_O\n"
        "u2,official,800,400,0,100,300\n"
        "u1,observer,1000,500,10,300,190\n"
        "u1,official,1000,700,10,500,190\n"
        "u2,observer,800,400,0,100,300\n"
    )
    observer, official = parse_protocols(text, "L")
    assert observer.roster == official.roster and observer.roster.ids == ("L", "O")
    assert observer.designated_leader == official.designated_leader == "L"
    assert observer.counts().precinct_ids.tolist() == official.counts().precinct_ids.tolist() == ["u1", "u2"]
    assert observer.counts().ballots_cast.tolist() == [500, 400]
    assert official.counts().votes.tolist() == [[500, 190], [100, 300]]
    with pytest.raises(PairMismatch):
        parse_protocols(text + "u3,observer,500,100,0,50,50\n", "L")


def test_paired_scan_identical_contests_empty():
    ds = quick_dataset([record(pid=f"p{i}", votes=(200, 300)) for i in range(10)])
    result = paired_contest_scan(ds, ds)
    assert result.a_over_b == () and result.b_over_a == ()


def test_paired_scan_flags_big_gap_with_direction():
    federal = quick_dataset(
        [record(pid="1445", registered=2000, cast=1193, votes=(262, 931))],
        parties=("LEAD", "REST"),
        leader="LEAD",
    )
    local = quick_dataset(
        [record(pid="1445", registered=2000, cast=1688, votes=(1576, 101))],
        parties=("LEAD", "REST"),
        leader="LEAD",
    )
    result = paired_contest_scan(federal, local, threshold=300)
    assert result.b_over_a == (("1445", 1314),)
    assert result.a_over_b == ()


def test_paired_scan_infinite_threshold_empty():
    a = quick_dataset([record(pid="p", votes=(500, 0))])
    b = quick_dataset([record(pid="p", votes=(0, 0))])
    result = paired_contest_scan(a, b, threshold=float("inf"))
    assert result.a_over_b == () and result.b_over_a == ()
