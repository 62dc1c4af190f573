import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from election_forensics.compare import parse_protocols
from election_forensics.dataset import (
    MAX_COUNT,
    DatasetArrays,
    ElectionDataset,
    PartyRoster,
    PrecinctRecord,
    check_invariants,
    make_dataset,
    parse_dataset,
    partition,
    serialize_dataset,
)
from election_forensics.dynamics import parse_intraday
from election_forensics.errors import InvariantViolation, MalformedRow, UnknownLeader
from election_forensics.scatter import build_points
from conftest import quick_dataset, record

HEADER = "precinct_id,region,territory,registered,ballots_cast,invalid,machine_counted,votes_A,votes_B"


def test_parse_single_row_maps_fields():
    csv_text = HEADER + "\np1,R,T,1000,500,0,0,300,200\n"
    ds = parse_dataset(csv_text, leader="A")
    assert len(ds) == 1
    rec = ds.records[0]
    assert (rec.registered, rec.ballots_cast, rec.votes) == (1000, 500, (300, 200))
    assert ds.counts().ballots_cast.tolist() == [500]


def test_parse_rejects_votes_exceeding_ballots():
    csv_text = HEADER + "\np1,R,T,1000,400,0,0,300,200\n"
    with pytest.raises(InvariantViolation):
        parse_dataset(csv_text, leader="A")


def test_parse_rejects_zero_registered():
    csv_text = HEADER + "\np1,R,T,0,0,0,0,0,0\n"
    with pytest.raises(InvariantViolation):
        parse_dataset(csv_text, leader="A")


def test_parse_rejects_unknown_leader():
    with pytest.raises(UnknownLeader):
        parse_dataset(HEADER + "\n", leader="Z")


def test_parse_rejects_malformed_counts_and_short_rows():
    with pytest.raises(MalformedRow):
        parse_dataset(HEADER + "\np1,R,T,10x0,500,0,0,300,200\n", leader="A")
    with pytest.raises(MalformedRow):
        parse_dataset(HEADER + "\np1,R,T,1000\n", leader="A")
    with pytest.raises(MalformedRow):
        parse_dataset(HEADER + "\np1,R,T,1000,500,0,2,300,200\n", leader="A")


def test_parse_rejects_duplicate_precinct_ids():
    rows = HEADER + "\np1,R,T,1000,500,0,0,300,200\np1,R,T,1000,500,0,0,300,200\n"
    with pytest.raises(InvariantViolation):
        parse_dataset(rows, leader="A")


def _random_record(rng: random.Random, i: int) -> PrecinctRecord:
    registered = rng.randint(1, 5000)
    cast = rng.randint(0, registered)
    v1 = rng.randint(0, cast)
    v2 = rng.randint(0, cast - v1)
    invalid = rng.randint(0, cast - v1 - v2)
    return PrecinctRecord(
        precinct_id=f"p{i}",
        region=f"R{rng.randint(1, 5)}",
        territory=f"T{rng.randint(1, 12)}",
        registered=registered,
        ballots_cast=cast,
        invalid=invalid,
        machine_counted=rng.random() < 0.3,
        votes=(v1, v2),
        tags=("koib",) if rng.random() < 0.1 else (),
    )


def test_round_trip_on_10000_random_valid_rows():
    rng = random.Random(20240212)
    records = [_random_record(rng, i) for i in range(10_000)]
    ds = make_dataset("rt", PartyRoster(("A", "B")), records, "A")
    text = serialize_dataset(ds)
    again = parse_dataset(text, leader="A", election_id="rt")
    assert again == ds
    assert serialize_dataset(again) == text


record_strategy = st.builds(
    lambda reg_extra, cast, v1_frac, v2_frac, inv_frac, mc, i: _build_bounded_record(
        reg_extra, cast, v1_frac, v2_frac, inv_frac, mc, i
    ),
    reg_extra=st.integers(min_value=0, max_value=3000),
    cast=st.integers(min_value=0, max_value=3000),
    v1_frac=st.floats(min_value=0, max_value=1),
    v2_frac=st.floats(min_value=0, max_value=1),
    inv_frac=st.floats(min_value=0, max_value=1),
    mc=st.booleans(),
    i=st.integers(min_value=0, max_value=10_000_000),
)


def _build_bounded_record(reg_extra, cast, v1_frac, v2_frac, inv_frac, mc, i):
    registered = cast + reg_extra + 1
    v1 = int(cast * v1_frac)
    v2 = int((cast - v1) * v2_frac)
    invalid = int((cast - v1 - v2) * inv_frac)
    return PrecinctRecord(
        precinct_id=f"h{i}",
        region="R",
        territory="T",
        registered=registered,
        ballots_cast=cast,
        invalid=invalid,
        machine_counted=mc,
        votes=(v1, v2),
    )


@given(st.lists(record_strategy, min_size=0, max_size=30, unique_by=lambda r: r.precinct_id))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(records):
    ds = make_dataset("h", PartyRoster(("A", "B")), records, "A")
    assert parse_dataset(serialize_dataset(ds), leader="A", election_id="h") == ds


def test_share_ordering_invariant():
    rng = random.Random(7)
    records = [_random_record(rng, i) for i in range(200)]
    ds = make_dataset("s", PartyRoster(("A", "B")), records, "A")
    for party in ("A", "B"):
        assert all(p.y <= p.x + 1e-12 for p in build_points(ds, party))
    of_cast = [build_points(ds, party, y_mode="share_of_cast") for party in ("A", "B")]
    for rec, a, b in zip(records, *of_cast):
        total = a.y + b.y + (rec.invalid / rec.ballots_cast if rec.ballots_cast else 0)
        assert total <= 1 + 1e-9


def test_partition_by_flag_sizes_sum():
    records = [record(pid=f"p{i}", machine=i % 3 == 0) for i in range(30)]
    ds = quick_dataset(records)
    hit, miss = partition(ds, ds.counts().machine_counted)
    assert len(hit) + len(miss) == len(ds)
    assert all(r.machine_counted for r in hit.records)
    assert {r.precinct_id for r in hit.records} | {r.precinct_id for r in miss.records} == {
        r.precinct_id for r in ds.records
    }


def test_partition_always_true_returns_original_and_empty():
    ds = quick_dataset([record(pid=f"p{i}") for i in range(5)])
    hit, miss = partition(ds, [True] * len(ds))
    assert len(hit) == 5 and len(miss) == 0
    assert hit.roster == ds.roster and hit.designated_leader == ds.designated_leader


def test_partition_by_territory_on_synthetic_three_territories():
    from election_forensics import synth

    model = synth.HonestModel(
        precincts=300,
        parties=("A", "B"),
        baseline_shares=(0.5, 0.4),
        leader="A",
        territories=3,
    )
    ds = synth.generate_honest(model, seed=1).dataset
    hit, miss = partition(ds, ds.counts().territory == "T2")
    assert len(hit) == 100
    assert all(r.territory == "T2" for r in hit.records)
    assert not any(r.territory == "T2" for r in miss.records)


def test_roster_validation():
    with pytest.raises(InvariantViolation):
        PartyRoster(())
    with pytest.raises(InvariantViolation):
        PartyRoster(("A", "A"))


PROTOCOLS_HEADER = "precinct_id,source,registered,ballots_cast,invalid,votes_A,votes_B"
INTRADAY_HEADER = "precinct_id,time,cumulative_voted"


def _precincts_with(cell):
    return f"{HEADER}\np1,R,T,1000,500,0,0,300,200\np2,R,T,1000,{cell},0,0,300,200\n"


def _protocols_with(cell):
    return f"{PROTOCOLS_HEADER}\nu1,observer,1000,500,0,300,200\nu1,official,1000,500,0,{cell},200\n"


def _intraday_with(cell):
    return f"{INTRADAY_HEADER}\np1,10:00,100\np1,15:00,{cell}\n"


def _intraday_time_with(cell):
    return f"{INTRADAY_HEADER}\np1,10:00,100\np1,{cell}:00,200\n"


READERS = {
    "precincts": lambda text: parse_dataset(text, leader="A"),
    "protocols": lambda text: parse_protocols(text, "A"),
    "intraday": parse_intraday,
}


@pytest.mark.parametrize(
    "cell",
    ["\u0663\u0660\u0660", "\u00b2", "1_000", "+5", "-5", "", str(MAX_COUNT + 1), str(2**63)],
)
@pytest.mark.parametrize(
    "reader,build",
    [
        ("precincts", _precincts_with),
        ("protocols", _protocols_with),
        ("intraday", _intraday_with),
        ("intraday", _intraday_time_with),
    ],
    ids=["precincts", "protocols", "intraday", "intraday-time"],
)
def test_count_cells_outside_ascii_digits_are_malformed_rows(reader, build, cell):
    with pytest.raises(MalformedRow) as exc:
        READERS[reader](build(cell))
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "reader,text",
    [
        ("precincts", f'{HEADER}\np1,"R\nX",T,1000,500,0,0,300,200\np2,R,T,1000,5x0,0,0,300,200\n'),
        ("protocols", f'{PROTOCOLS_HEADER}\n"u\n1",observer,1000,500,0,300,200\nu2,official,1000,5x0,0,300,200\n'),
        ("intraday", f'{INTRADAY_HEADER}\n"p\n1",10:00,100\np2,15:00,2x0\n'),
    ],
    ids=["precincts", "protocols", "intraday"],
)
def test_rows_after_a_multiline_cell_report_their_physical_line(reader, text):
    with pytest.raises(MalformedRow) as exc:
        READERS[reader](text)
    assert exc.value.line == 4


M = MAX_COUNT


@pytest.mark.parametrize(
    "registered,cast,invalid,votes",
    [
        (M, M, 1, (M, 0)),
        (M, M, 0, (M, M)),
        (M, M, M, (M, M)),
        (10, 10, 1, (M, 0)),
    ],
)
@pytest.mark.parametrize("reader", ["precincts", "protocols"])
def test_counts_within_cap_whose_sum_exceeds_ballots_are_invariant_violations(
    reader, registered, cast, invalid, votes
):
    a, b = votes
    if reader == "precincts":
        text = f"{HEADER}\np1,R,T,1000,500,0,0,300,200\np2,R,T,{registered},{cast},{invalid},0,{a},{b}\n"
        bad = "p2"
    else:
        text = f"{PROTOCOLS_HEADER}\nu1,observer,1000,500,0,300,200\nu2,official,{registered},{cast},{invalid},{a},{b}\n"
        bad = "u2"
    with pytest.raises(InvariantViolation) as exc:
        READERS[reader](text)
    assert bad in str(exc.value)


def _columns_with(registered=1000, votes=((300, 200),), ids=("p1",)):
    n = len(ids)
    return DatasetArrays(
        precinct_ids=np.array(ids, dtype=object),
        region=np.array(["R"] * n, dtype=object),
        territory=np.array(["T"] * n, dtype=object),
        registered=np.full(n, registered, dtype=np.int64),
        ballots_cast=np.full(n, 500, dtype=np.int64),
        invalid=np.zeros(n, dtype=np.int64),
        machine_counted=np.zeros(n, dtype=bool),
        votes=np.array(votes, dtype=np.int64),
        tags=np.fromiter([()] * n, dtype=object, count=n),
    )


def test_check_invariants_rejects_counts_above_cap_without_overflow():
    check_invariants(_columns_with())
    huge = np.iinfo(np.int64).max
    for columns in (_columns_with(votes=((huge, 0),)), _columns_with(registered=huge)):
        with pytest.raises(InvariantViolation, match="at most"):
            check_invariants(columns)


def test_dataset_rejects_columns_that_do_not_match_roster():
    roster = PartyRoster(("A", "B"))
    ElectionDataset("e", roster, _columns_with(), "A")
    with pytest.raises(InvariantViolation, match="does not match roster"):
        ElectionDataset("e", roster, _columns_with(votes=((300, 200, 0),)), "A")
    with pytest.raises(InvariantViolation, match="does not match roster"):
        ElectionDataset("e", roster, _columns_with(votes=((300, 200),) * 2), "A")
    two = _columns_with(ids=("p1", "p2"), votes=((300, 200),) * 2)
    short = dataclasses.replace(two, territory=np.array(["T"], dtype=object))
    with pytest.raises(InvariantViolation, match="territory does not have 2 rows"):
        ElectionDataset("e", roster, short, "A")
