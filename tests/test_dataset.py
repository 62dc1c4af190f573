import csv
import dataclasses
import gc
import io
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from election_forensics import synth
from election_forensics.compare import parse_delta_table, parse_protocols
from election_forensics.dataset import (
    MAX_COUNT,
    ROW_BLOCK,
    DatasetArrays,
    ElectionDataset,
    PartyRoster,
    PrecinctRecord,
    check_invariants,
    format_rows,
    make_dataset,
    parse_dataset,
    partition,
    serialize_dataset,
)
from election_forensics.dynamics import parse_intraday, serialize_intraday
from election_forensics.errors import (
    EmptySeries,
    ForensicsError,
    InvariantViolation,
    MalformedRow,
    PairMismatch,
    UnknownLeader,
)
from election_forensics.scatter import build_points
import reference_readers as reference
from conftest import quick_dataset, record, traced_peak

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
    with pytest.raises(MalformedRow, match="line 3: duplicate precinct_id 'p1'"):
        parse_dataset(rows, leader="A")


def test_a_repeated_precinct_id_is_reported_before_a_later_bad_cell():
    rows = f"{HEADER}\np1,R,T,{ROW}\np2,R,T,{ROW}\np1,R,T,{ROW}\np3,R,T,1000,x,0,0,300,200\n"
    with pytest.raises(MalformedRow, match="line 4: duplicate precinct_id 'p1'"):
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


def _one_shot_rows(row, columns):
    """``format_rows`` as one ``%`` call: a template of n rows over every cell interleaved row by row."""
    n = len(columns[0]) if columns else 0
    cells = [None] * (n * len(columns))
    for j, column in enumerate(columns):
        cells[j :: len(columns)] = column.tolist() if isinstance(column, np.ndarray) else column
    return (row * n) % tuple(cells)


def _column(rng, n, dtype, conversion):
    if dtype == "int64":
        return rng.integers(-(10**12), 10**12, n)
    if dtype == "float64":
        return rng.normal(0.0, 10.0 ** rng.integers(-3, 7), n)
    # object: strings for %s, Python ints for the numeric templates
    if conversion == "%s":
        return np.array([f"id{v}" for v in rng.integers(0, 10**6, n)], dtype=object)
    return np.array(rng.integers(0, 10**9, n).tolist(), dtype=object)


@given(
    n=st.sampled_from([0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 7]),
    specs=st.lists(
        st.tuples(
            st.sampled_from(["%s", "%d", "%.6f", "%.9f", "%.2f"]),
            st.sampled_from(["int64", "float64", "object"]),
            st.booleans(),  # the column as a list rather than an ndarray
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_block_wise_format_rows_equals_one_shot(n, specs, seed):
    rng = np.random.default_rng(seed)
    columns = []
    for conversion, dtype, as_list in specs:
        column = _column(rng, n, dtype, conversion)
        columns.append(column.tolist() if as_list else column)
    row = "<" + ",".join(conversion for conversion, _, _ in specs) + ">\n"
    assert "".join(format_rows(row, columns)) == _one_shot_rows(row, columns)


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


def test_make_dataset_rejects_a_repeated_precinct_id_after_the_count_invariants():
    roster = PartyRoster(("A", "B"))
    with pytest.raises(InvariantViolation, match="'p1': duplicate precinct_id"):
        make_dataset("e", roster, [record(pid="p1"), record(pid="p2"), record(pid="p1")], "A")
    with pytest.raises(InvariantViolation, match="'p2': registered must be positive"):
        make_dataset("e", roster, [record(pid="p1"), record(pid="p1"), record(pid="p2", registered=0)], "A")
    with pytest.raises(InvariantViolation, match="'p1': ballots_cast 500 exceeds registered 400"):
        make_dataset("e", roster, [record(pid="p1"), record(pid="p1", registered=400)], "A")
    with pytest.raises(UnknownLeader):
        make_dataset("e", roster, [record(pid="p1"), record(pid="p1")], "C")


# ---- the column readers against the row-at-a-time reference readers


def _outcome(read, text):
    """What ``read`` makes of ``text``: its result, or its error's type, line and message."""
    try:
        return read(text)
    except ForensicsError as exc:
        return type(exc), getattr(exc, "line", None), exc.message


def _by_column_and_by_row(read, reference, text):
    """The outcome as the library reads ``text``, and as the reference reads it."""
    return _outcome(read, text), _outcome(reference, text)


def _precincts_both_ways(text):
    return _by_column_and_by_row(READERS["precincts"], lambda t: reference.parse_dataset(t, leader="A"), text)


def _intraday_both_ways(text):
    return _by_column_and_by_row(parse_intraday, reference.parse_intraday, text)


def _protocols_both_ways(text):
    return _by_column_and_by_row(READERS["protocols"], lambda t: reference.parse_protocols(t, "A"), text)


ROW = "1000,500,0,0,300,200"


@pytest.mark.parametrize(
    "body,expected",
    [
        (
            f"p1,R,T,{ROW}\np2,R,T,1000,5x0,0,0,300,200\n",
            (MalformedRow, 3, "line 3: column 'ballots_cast': '5x0' is not a non-negative integer"),
        ),
        (f"p1,R,T,{ROW}\np2,R,T,1000\n", (MalformedRow, 3, "line 3: expected 9 fields, got 4")),
        (
            f"p1,R,T,{ROW}\np2,R,T,1000,500,0,2,300,200\n",
            (MalformedRow, 3, "line 3: machine_counted must be 0 or 1, got '2'"),
        ),
        (
            f"p1,R,T,1000,1500,0,0,300,200\np2,R,T,1000,5x0,0,0,300,200\n",
            (InvariantViolation, None, "precinct 'p1': ballots_cast 1500 exceeds registered 1000"),
        ),
        (
            f"p1,R,T,1000,5x0,0,0,300,200\np2,R,T,1000,1500,0,0,300,200\n",
            (MalformedRow, 2, "line 2: column 'ballots_cast': '5x0' is not a non-negative integer"),
        ),
        (f"p1,R,T,{ROW}\np1,R,T,{ROW}\n", (MalformedRow, 3, "line 3: duplicate precinct_id 'p1'")),
        (
            f'p1,"R\nX",T,{ROW}\np2,R,T,1000,,0,0,300,200\n',
            (MalformedRow, 4, "line 4: column 'ballots_cast': '' is not a non-negative integer"),
        ),
        (
            f"p1,R,T,{ROW}\np2,R,T,1000,{10**13},0,0,300,200\n",
            (MalformedRow, 3, f"line 3: column 'ballots_cast': '{10**13}' exceeds {MAX_COUNT}"),
        ),
        (
            f'p1,"R\r\nX",T,{ROW}\r\n\r\np2,R,T,1000,5x0,0,0,300,200\r\n',
            (MalformedRow, 5, "line 5: column 'ballots_cast': '5x0' is not a non-negative integer"),
        ),
        (f"\n\np1,R,T,{ROW}\n\np2,R,T,{ROW}\n\np3,R,T,1000\n", (MalformedRow, 8, "line 8: expected 9 fields, got 4")),
        (
            f'p1,"R\n\nX",T,{ROW}\np2,R,T,{ROW}\np3,R,T,1000,500,0,7,300,200\n',
            (MalformedRow, 6, "line 6: machine_counted must be 0 or 1, got '7'"),
        ),
        (
            f'p1,"R\nX",T,{ROW}\n\np2,"{"x" * (csv.field_size_limit() + 1)}",T,{ROW}\n',
            (MalformedRow, 5, f"line 5: field larger than field limit ({csv.field_size_limit()})"),
        ),
    ],
    ids=[
        "bad-cell", "short-row", "bad-machine", "invariant-before-bad-line", "bad-line-before-invariant",
        "duplicate-id", "after-multiline-cell", "over-cap", "crlf", "blank-lines", "blank-line-in-a-quoted-cell",
        "cell-over-the-size-limit",
    ],
)
def test_corrupt_precinct_files_fail_alike_by_column_and_by_row(body, expected):
    by_column, by_row = _precincts_both_ways(f"{HEADER}\n{body}")
    assert by_column == by_row == expected


def test_cells_the_column_check_declines_still_parse_by_row():
    padded = "0" * 14 + "500"  # 17 characters: past the column check, within the grammar
    text = f"{HEADER}\n p1 ,R,T, 1000 ,{padded},0, 1 ,300,200\n\np2,R,T,{ROW}\n"
    by_column, by_row = _precincts_both_ways(text)
    assert by_column == by_row
    assert by_column.counts().ballots_cast.tolist() == [500, 500]
    assert by_column.counts().precinct_ids.tolist() == ["p1", "p2"]
    assert by_column.counts().machine_counted.tolist() == [True, False]


@pytest.mark.parametrize(
    "body,expected",
    [
        (
            "p1,10:00,100\np1,15:00,2x0\n",
            (MalformedRow, 3, "line 3: column 'cumulative_voted': '2x0' is not a non-negative integer"),
        ),
        ("p1,10:00,100\np1,15:00\n", (MalformedRow, 3, "line 3: expected 3 fields, got 2")),
        ("p1,10:00,100\np1,25:00,200\n", (MalformedRow, 3, "line 3: time out of range: '25:00'")),
        (
            '"p\n1",10:00,100\np2,15:0x,200\n',
            (MalformedRow, 4, "line 4: column 'time': '0x' is not a non-negative integer"),
        ),
        (
            "p1,15:00,100\np1,10:00,200\n",
            (InvariantViolation, None, "precinct 'p1': cumulative counts must be non-decreasing"),
        ),
        (
            "p1,10:00,100\np2,10:00,5\np1,10:00,200\n",
            (InvariantViolation, None, "precinct 'p1': report times must strictly increase"),
        ),
        ("p1,10:00,100\n", (EmptySeries, None, "precinct 'p1': need at least 2 reports")),
    ],
    ids=["bad-count", "short-row", "bad-time", "after-multiline-cell", "falling", "repeated-time", "one-report"],
)
def test_corrupt_intraday_files_fail_alike_by_column_and_by_row(body, expected):
    by_column, by_row = _intraday_both_ways(f"{INTRADAY_HEADER}\n{body}")
    assert by_column == by_row == expected


_PADS = ("", " ", "\xa0", "\t", " \xa0")
_BAD_CELLS = ("", "x", "-1", "1_0", "+5", "\u0663", str(MAX_COUNT + 1), "0" * 20 + "1")


@st.composite
def _count_cell(draw, value, long_zeros):
    """``value`` with optional padding and leading zeros, with ``long_zeros`` past 13 characters too."""
    zeros = draw(st.sampled_from((0, 0, 1, 3, 9, 15) if long_zeros else (0, 0, 1, 3, 9)))
    return draw(st.sampled_from(_PADS)) + "0" * zeros + str(value) + draw(st.sampled_from(_PADS))


@st.composite
def _precinct_files(draw):
    """Precinct files with padded, zero-filled and quoted cells; half of them with faults as well."""
    tags = draw(st.booleans())
    long_zeros = draw(st.booleans())  # counts zero-padded past what the column check takes
    faulty = draw(st.booleans())  # bad cells, short rows, bad machine flags and repeated ids
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER.split(",") + (["tags"] if tags else []))
    for i in range(draw(st.integers(0, 8))):
        cast = draw(st.integers(0, 2000))
        a = draw(st.integers(0, cast))
        b = draw(st.integers(0, cast - a))
        invalid = draw(st.integers(0, cast - a - b))
        registered = cast + draw(st.integers(1 if cast == 0 else 0, 500))
        counts = [draw(_count_cell(v, long_zeros)) for v in (registered, cast, invalid)]
        votes = [draw(_count_cell(v, long_zeros)) for v in (a, b)]
        pids = (f"p{i}", f" p{i}", f"p,{i}", f'p"{i}', f"p\n{i}") + (("dup",) if faulty else ())
        pid = draw(st.sampled_from(pids))
        machine = draw(st.sampled_from(("0", "1", " 1", "0 ") + (("2",) if faulty else ())))
        row = [pid, "R", draw(st.sampled_from(("T", " T ", "T,1"))), *counts, machine, *votes]
        if tags:
            row.append(draw(st.sampled_from(("", " ", "a;b", ";a;", "a ;b"))))
        if faulty and draw(st.integers(0, 4)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_BAD_CELLS))
        if faulty and draw(st.integers(0, 9)) == 0:
            row = row[: draw(st.integers(1, len(row) - 1))]
        writer.writerow(row)
    return out.getvalue()


@given(_precinct_files())
@settings(max_examples=150, deadline=None)
def test_precinct_files_read_alike_by_column_and_by_row(text):
    by_column, by_row = _precincts_both_ways(text)
    assert by_column == by_row


@st.composite
def _intraday_files(draw):
    """Intraday files with padded, zero-filled and quoted cells; half of them with faults as well."""
    long_zeros = draw(st.booleans())
    faulty = draw(st.booleans())
    times = ("10:00", "12:00", " 9:05", "09:5 ", "15:00") + (("24:00", "10-00", "1:2:3") if faulty else ())
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(INTRADAY_HEADER.split(","))
    for _ in range(draw(st.integers(0, 10))):
        pid = draw(st.sampled_from(("p1", " p1", "p2", "p,3", 'p"4')))
        row = [pid, draw(st.sampled_from(times)), draw(_count_cell(draw(st.integers(0, 5000)), long_zeros))]
        if faulty and draw(st.integers(0, 4)) == 0:
            row[draw(st.integers(0, 2))] = draw(st.sampled_from(_BAD_CELLS))
        if faulty and draw(st.integers(0, 9)) == 0:
            row = row[:2]
        writer.writerow(row)
    return out.getvalue()


@given(_intraday_files())
@settings(max_examples=150, deadline=None)
def test_intraday_files_read_alike_by_column_and_by_row(text):
    by_column, by_row = _intraday_both_ways(text)
    assert by_column == by_row


@pytest.mark.parametrize(
    "body,expected",
    [
        (
            "u1,observer,1000,500,0,300,200\nu1,observer,1000,500,0,300,200\n",
            (MalformedRow, 3, "line 3: duplicate observer row for 'u1'"),
        ),
        (
            "u1,observer,1000,500,0,300,200\n u1 ,observer,1000,1500,0,300,200\n",
            (InvariantViolation, None, "precinct 'u1': ballots_cast 1500 exceeds registered 1000"),
        ),
        (
            "u1,observer,1000,500,0,300,200\nu1,observer,1000,1500,0,3x0,200\n",
            (MalformedRow, 3, "line 3: column 'votes_A': '3x0' is not a non-negative integer"),
        ),
        (
            "u1,observer,1000,1500,0,300,200\nu2,observr,1000,500,0,300,200\n",
            (InvariantViolation, None, "precinct 'u1': ballots_cast 1500 exceeds registered 1000"),
        ),
        (
            f'"u\n1",observer,1000,500,0,300,200\nu1,official,1000,{"0" * 14}500,0,300,200\nu2,official,9\n',
            (MalformedRow, 5, "line 5: expected 7 fields, got 3"),
        ),
        (
            "u1,observer,1000,500,0,300,200\nu2,official,1000,500,0,300,200\n",
            (PairMismatch, None, "precincts missing a counterpart: ['u1', 'u2']"),
        ),
    ],
    ids=["repeated-row", "repeated-row-breaking-an-invariant", "bad-cell-in-a-repeated-row",
         "invariant-before-bad-source", "after-multiline-cell", "unpaired"],
)
def test_corrupt_protocol_files_fail_alike_by_column_and_by_row(body, expected):
    """A repeated row's own counts are checked before the repeat is reported."""
    by_column, by_row = _protocols_both_ways(f"{PROTOCOLS_HEADER}\n{body}")
    assert by_column == by_row == expected


@st.composite
def _protocol_files(draw):
    """Protocol files with padded, zero-filled and quoted cells; half of them with faults as well."""
    long_zeros = draw(st.booleans())
    faulty = draw(st.booleans())  # bad cells and sources, short rows, broken invariants and repeated rows
    pids = draw(st.lists(st.sampled_from(("u1", " u1", "u,2", 'u"3', "u\n4")), max_size=4, unique_by=str.strip))
    entries = [(pid, source) for pid in pids for source in ("observer", " official ")]
    if faulty:
        entries += draw(st.lists(st.sampled_from(entries or [("u5", "observer")]), max_size=2))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PROTOCOLS_HEADER.split(","))
    for pid, source in draw(st.permutations(entries)):
        cast = draw(st.integers(0, 2000))
        a = draw(st.integers(0, cast))
        b = draw(st.integers(0, cast - a))
        invalid = draw(st.integers(0, cast - a - b))
        registered = cast + draw(st.integers(1 if cast == 0 else 0, 500))
        if faulty and draw(st.integers(0, 9)) == 0:
            registered = draw(st.integers(0, cast))  # at most cast: over-registered, or no voters
        counts = [draw(_count_cell(v, long_zeros)) for v in (registered, cast, invalid, a, b)]
        if faulty and draw(st.integers(0, 9)) == 0:
            source = draw(st.sampled_from(("", "Observer", "both")))
        row = [pid, source, *counts]
        if faulty and draw(st.integers(0, 4)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_BAD_CELLS))
        if faulty and draw(st.integers(0, 9)) == 0:
            row = row[: draw(st.integers(1, len(row) - 1))]
        writer.writerow(row)
    return out.getvalue()


@given(_protocol_files())
@settings(max_examples=150, deadline=None)
def test_protocol_files_read_alike_by_column_and_by_row(text):
    by_column, by_row = _protocols_both_ways(text)
    assert by_column == by_row


DELTA_HEADER = "unit,share_b,share_a,turnout_b,turnout_a"


@st.composite
def _delta_files(draw):
    """Delta files with padded, zero-filled and quoted cells; half of them with faults as well."""
    faulty = draw(st.booleans())  # bad percents, short rows, repeated units and cells spanning lines
    units = draw(st.lists(st.sampled_from(("A", " B", "C,1", 'D"2', "E\n3")), max_size=5, unique_by=str.strip))
    if faulty:
        units += draw(st.lists(st.sampled_from(units or ["F"]), max_size=2))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(DELTA_HEADER.split(","))
    for unit in draw(st.permutations(units)):
        percents = [
            draw(st.sampled_from(_PADS)) + "0" * draw(st.sampled_from((0, 0, 1, 15)))
            + draw(st.sampled_from(("0", "7", "47", "47.25", "100.0"))) + draw(st.sampled_from(_PADS))
            for _ in range(4)
        ]
        row = [unit, *percents]
        if faulty and draw(st.integers(0, 4)) == 0:
            row[draw(st.integers(1, 4))] = draw(st.sampled_from(("", "x", "-1", "1e3", "NaN", ".5", "5.", "4\n7")))
        if faulty and draw(st.integers(0, 9)) == 0:
            row = row[: draw(st.integers(1, 4))]
        writer.writerow(row)
    return out.getvalue()


@given(_delta_files())
@settings(max_examples=150, deadline=None)
def test_delta_files_read_alike_by_column_and_by_row(text):
    by_column, by_row = _by_column_and_by_row(parse_delta_table, reference.parse_delta_table, text)
    assert by_column == by_row


REFERENCE = {
    "precincts": lambda text: reference.parse_dataset(text, leader="A"),
    "protocols": lambda text: reference.parse_protocols(text, "A"),
    "intraday": reference.parse_intraday,
    "delta": reference.parse_delta_table,
}
PADDED = "0" * 14 + "500"  # past the column check, within the grammar


@pytest.mark.parametrize(
    "reader,text",
    [
        ("precincts", f"{HEADER}\np1,R,T,{ROW}\np2,R,T,{ROW}\n"),
        ("precincts", f"{HEADER}\np1,R,T,1000,{PADDED},0,0,300,200\np2,R,T,{ROW}\n"),
        ("precincts", f"{HEADER}\np1,R,T,{ROW}\np2,R,T,1000,5x0,0,0,300,200\n"),
        ("protocols", f"{PROTOCOLS_HEADER}\nu1,observer,1000,500,0,300,200\nu1,official,1000,500,0,300,200\n"),
        ("protocols", f"{PROTOCOLS_HEADER}\nu1,observer,1000,{PADDED},0,300,200\nu1,official,1000,500,0,300,200\n"),
        ("protocols", f"{PROTOCOLS_HEADER}\nu1,observer,1000,500,0,300,200\nu1,official,1000,5x0,0,300,200\n"),
        ("intraday", f"{INTRADAY_HEADER}\np1,10:00,100\np1,15:00,200\n"),
        ("intraday", f"{INTRADAY_HEADER}\np1,10:00,100\np1,15:00,{PADDED}\n"),
        ("intraday", f"{INTRADAY_HEADER}\np1,10:00,100\np1,15:00,2x0\n"),
        ("delta", f"{DELTA_HEADER}\nA,50.1,40.2,60.0,55.5\nB,50,40,60,55\n"),
        ("delta", f"{DELTA_HEADER}\nA,{'0' * 14}50.1,40.2,60.0,55.5\nB,50,40,60,55\n"),
        ("delta", f"{DELTA_HEADER}\nA,50.1,40.2,60.0,55.5\nB,5O,40,60,55\n"),
    ],
    ids=[f"{reader}-{kind}" for reader in ("precincts", "protocols", "intraday", "delta")
         for kind in ("clean", "zero-padded", "bad-last-row")],
)
def test_each_reader_makes_one_csv_reader(reader, text):
    read = READERS.get(reader, parse_delta_table)
    with mock.patch("csv.reader", wraps=csv.reader) as made:
        outcome = _outcome(read, text)
    assert made.call_count == 1
    assert outcome == _outcome(REFERENCE[reader], text)


def test_serialize_dataset_writes_as_csv_writer_does():
    records = [
        record(pid="plain"),
        record(pid='say "hi"', region="a,b"),
        PrecinctRecord("multi\nline", "R", "T", 1000, 500, 0, True, (300, 200), ("koib", "x,y")),
    ]
    ds = quick_dataset(records)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER.split(",") + ["tags"])
    for r in ds.records:
        writer.writerow([r.precinct_id, r.region, r.territory, r.registered, r.ballots_cast, r.invalid,
                         int(r.machine_counted), *r.votes, ";".join(r.tags)])
    assert serialize_dataset(ds) == out.getvalue()
    assert parse_dataset(out.getvalue(), leader="A", election_id="test") == ds


# ---- faults at the edge of a ROW_BLOCK block, against the reference readers

# (header, row i's cells, a count cell's index, a text cell's index, a row edit that breaks an invariant)
BLOCK_FORMATS = {
    "precincts": (HEADER, lambda i: [f"p{i}", "R", "T", "1000", "500", "0", "0", "300", "200"], 4, 1,
                  lambda row: row.__setitem__(4, "1500")),
    "protocols": (PROTOCOLS_HEADER,
                  lambda i: [f"u{i // 2}", ("observer", "official")[i % 2], "1000", "500", "0", "300", "200"], 3, 0,
                  lambda row: row.__setitem__(3, "1500")),
    "intraday": (INTRADAY_HEADER, lambda i: [f"p{i // 2}", ("10:00", "15:00")[i % 2], str(100 * (1 + i % 2))], 2, 0,
                 lambda row: row.__setitem__(2, "0" if row[1] == "15:00" else "999")),
    "delta": (DELTA_HEADER, lambda i: [f"U{i}", "50", "40", "60", "55"], 1, 0, None),
}
BLOCK_FAULTS = (
    "none", "bad-count", "wrong-field-count", "oversize-cell", "repeated-key", "far-repeated-key", "broken-invariant"
)


@st.composite
def _block_edge_files(draw, kind, block):
    """A file of three blocks of ``block`` rows with a fault in the row before, at or after a block's start.

    A far repeated key copies a row of the first block into the third
    one's first two rows or its last; a protocols file may instead lose a
    row, whose precinct is then left with one source.  Before the fault
    there may also be a quoted cell spanning lines, a broken invariant and
    blank lines, each within a few rows of it.
    """
    header, make_row, count_cell, text_cell, break_invariant = BLOCK_FORMATS[kind]
    rows = [make_row(i) for i in range(3 * block)]
    at = draw(st.sampled_from((block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1)))
    faults = BLOCK_FAULTS if break_invariant else BLOCK_FAULTS[:-1]
    fault = draw(st.sampled_from(faults + ("unpaired",) if kind == "protocols" else faults))
    if fault == "bad-count":
        rows[at][count_cell] = "5x0"
    elif fault == "wrong-field-count":
        rows[at] = rows[at][:2]
    elif fault == "oversize-cell":
        rows[at][text_cell] = "x" * (csv.field_size_limit() + 1)
    elif fault == "repeated-key":
        rows[at] = list(rows[at - 2])
    elif fault == "far-repeated-key":
        at = 2 * block + at % block
        rows[at] = list(rows[draw(st.integers(0, block - 1))])
    elif fault == "unpaired":
        del rows[at]
    elif fault == "broken-invariant":
        break_invariant(rows[at])
    before = st.integers(max(0, at - 3), at - 1)
    if draw(st.booleans()):
        rows[draw(before)][text_cell] += "\nspans"
    if break_invariant and draw(st.booleans()):
        break_invariant(rows[draw(before)])
    for blank in sorted(draw(st.lists(st.integers(max(0, at - 3), at + 1), max_size=3)), reverse=True):
        rows.insert(blank, [])
    out = io.StringIO()
    out.write(header + "\n")
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _read_alike_in_blocks_of(kind, block, text):
    with mock.patch("election_forensics.dataset.ROW_BLOCK", block):
        by_block, by_row = _by_column_and_by_row(READERS.get(kind, parse_delta_table), REFERENCE[kind], text)
    assert by_block == by_row


@pytest.mark.parametrize("kind", list(BLOCK_FORMATS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_faults_at_a_block_edge_read_as_the_reference_reads_them(kind, data):
    """Small blocks put each fault next to a block's edge, and text slices of a few characters."""
    block = data.draw(st.sampled_from((3, 4, 5, 8)))
    _read_alike_in_blocks_of(kind, block, data.draw(_block_edge_files(kind, block)))


@pytest.mark.parametrize("kind", list(BLOCK_FORMATS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_faults_at_the_edge_of_a_full_block_read_as_the_reference_reads_them(kind, data):
    text = data.draw(_block_edge_files(kind, ROW_BLOCK))
    _read_alike_in_blocks_of(kind, ROW_BLOCK, text)


@pytest.mark.parametrize("kind", ["precincts", "protocols", "delta"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_faults_at_a_block_edge_read_as_the_reference_reads_them_when_every_key_hashes_alike(kind, data):
    """Every key of a reader that checks repeats collides, within a block and with every earlier block's."""
    block = data.draw(st.sampled_from((3, 4, 5, 8)))
    text = data.draw(_block_edge_files(kind, block))
    with mock.patch("election_forensics.dataset.hash", lambda key: 0, create=True):
        _read_alike_in_blocks_of(kind, block, text)


def _national_texts(precincts: int) -> tuple[str, str]:
    """precincts.csv and intraday.csv of a four-party election with four intraday reports per precinct."""
    model = synth.HonestModel(
        precincts=precincts,
        parties=("A", "B", "C", "D"),
        baseline_shares=(0.52, 0.22, 0.13, 0.08),
        leader="A",
        machine_fraction=0.3,
        territories=8,
        report_times=(600, 720, 900, 1080),
    )
    generated = synth.generate_honest(model, 0)
    return serialize_dataset(generated.dataset), serialize_intraday(generated.intraday)


def _transient_bytes(parse, text) -> int:
    """The parse's tracemalloc peak less what its result keeps, with the cyclic collector off."""
    def parse_and_kept():
        result = parse(text)
        return result, tracemalloc.get_traced_memory()[0]

    collecting = gc.isenabled()
    gc.disable()
    try:
        (result, kept), peak = traced_peak(parse_and_kept)
    finally:
        if collecting:
            gc.enable()
    assert len(result)
    return peak - kept


def test_readers_hold_one_block_of_cells_whatever_the_file_size():
    small, large = _national_texts(16_000), _national_texts(64_000)
    # the whole-file readers held 10.1 MB and 19.6 MB beyond their results at 16k precincts
    for parse, text_of, whole_file in ((READERS["precincts"], 0, 10.1e6), (parse_intraday, 1, 19.6e6)):
        at_16k = _transient_bytes(parse, small[text_of])
        at_64k = _transient_bytes(parse, large[text_of])
        assert at_16k < whole_file / 2, (parse, at_16k)
        assert at_64k - at_16k < 1e6, (parse, at_16k, at_64k)
