"""Row-at-a-time readers of the four CSV formats, kept as a test reference.

These readers define each grammar one row at a time: a row is checked
cell by cell, and the first faulty row in file order is the one
reported.  The library reads each file in one column pass instead; the
tests in ``test_dataset.py`` require both to give every file the same
result, or the same error type, line and message.
"""

from __future__ import annotations

import csv
import io
from typing import Iterator

import numpy as np

from election_forensics.compare import DELTA_COLUMNS, UnitEntry, _parse_percent
from election_forensics.dataset import (
    FIXED_COLUMNS,
    TAGS_COLUMN,
    VOTES_PREFIX,
    DatasetArrays,
    ElectionDataset,
    PartyRoster,
    _tags,
    check_invariants,
    parse_count,
    row_columns,
)
from election_forensics.dynamics import IntradayTable, _sort_keys, _table, parse_time
from election_forensics.errors import MalformedRow, PairMismatch, UnknownLeader, UnknownParty


def open_csv(csv_text: str) -> tuple[list[str], Iterator[list[str]]]:
    """The stripped header and a ``csv.reader`` positioned after it."""
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise MalformedRow(1, "missing header row") from None
    except csv.Error as exc:
        raise MalformedRow(1, str(exc)) from None
    return header, reader


def read_csv(csv_text: str) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The stripped header and (line number, row) for each non-empty row after it.

    A row's line number is the physical line it starts on, so a quoted
    cell that spans lines does not shift the numbers of later rows.  A
    row that ``csv`` rejects, such as one with a cell longer than
    ``csv.field_size_limit()``, is a MalformedRow at that line.
    """
    header, reader = open_csv(csv_text)

    def rows() -> Iterator[tuple[int, list[str]]]:
        start = reader.line_num + 1
        try:
            for row in reader:
                if row:
                    yield start, row
                start = reader.line_num + 1
        except csv.Error as exc:
            raise MalformedRow(start, str(exc)) from None

    return header, rows()


def _columns_by_row(csv_text: str, party_cols: list[str], has_tags: bool) -> DatasetArrays:
    """The columns read a row at a time: the grammar's one definition.

    Raises the first MalformedRow in file order, a repeated precinct_id
    included, after InvariantViolation for any row up to it that breaks a
    count invariant.
    """
    header, rows = read_csv(csv_text)
    expected = len(header)
    count_cells = [(3, "registered"), (4, "ballots_cast"), (5, "invalid")]
    count_cells += [(7 + j, col) for j, col in enumerate(party_cols)]
    ids: list[str] = []
    regions: list[str] = []
    territories: list[str] = []
    counts: list[list[int]] = []
    machine: list[bool] = []
    tags: list[tuple[str, ...]] = []
    seen: set[str] = set()

    def columns() -> DatasetArrays:
        return row_columns(ids, regions, territories, counts, machine, tags, len(party_cols))

    try:
        for line_no, row in rows:
            if len(row) != expected:
                raise MalformedRow(line_no, f"expected {expected} fields, got {len(row)}")
            mc_raw = row[6].strip()
            if mc_raw not in ("0", "1"):
                raise MalformedRow(line_no, f"machine_counted must be 0 or 1, got {mc_raw!r}")
            counts.append([parse_count(row[i], line_no, col) for i, col in count_cells])
            ids.append(row[0].strip())
            regions.append(row[1].strip())
            territories.append(row[2].strip())
            machine.append(mc_raw == "1")
            tags.append(_tags(row[-1]) if has_tags else ())
            if ids[-1] in seen:
                raise MalformedRow(line_no, f"duplicate precinct_id {ids[-1]!r}")
            seen.add(ids[-1])
    except MalformedRow:
        check_invariants(columns())  # an invariant broken on an earlier line is reported first
        raise
    return columns()


def parse_dataset(csv_text: str, leader: str, election_id: str = "dataset") -> ElectionDataset:
    header, _ = open_csv(csv_text)
    has_tags = bool(header) and header[-1] == TAGS_COLUMN
    core = header[:-1] if has_tags else header
    if tuple(core[: len(FIXED_COLUMNS)]) != FIXED_COLUMNS:
        raise MalformedRow(1, f"header must start with {','.join(FIXED_COLUMNS)}")
    party_cols = core[len(FIXED_COLUMNS) :]
    if not party_cols or not all(c.startswith(VOTES_PREFIX) for c in party_cols):
        raise MalformedRow(1, "expected one or more votes_<party> columns")
    roster = PartyRoster(tuple(c[len(VOTES_PREFIX) :] for c in party_cols))
    if leader not in roster.ids:
        raise UnknownLeader(f"leader {leader!r} not among parties {roster.ids}")
    data = _columns_by_row(csv_text, party_cols, has_tags)
    check_invariants(data)
    return ElectionDataset(election_id, roster, data, leader)


def _reports_by_row(csv_text: str) -> tuple[list[str], list[int], list[int]]:
    """Each row's (stripped id, minutes, count), read a row at a time: the grammar's one definition.

    Raises the first MalformedRow in file order.
    """
    _, lines = read_csv(csv_text)
    ids: list[str] = []
    minutes: list[int] = []
    cumulative: list[int] = []
    minutes_of: dict[str, int] = {}  # each distinct time cell is parsed once
    for line_no, row in lines:
        if len(row) != 3:
            raise MalformedRow(line_no, f"expected 3 fields, got {len(row)}")
        time_cell = row[1]
        minute = minutes_of.get(time_cell)
        if minute is None:
            minute = minutes_of[time_cell] = parse_time(time_cell, line_no)
        minutes.append(minute)
        cumulative.append(parse_count(row[2], line_no, "cumulative_voted"))
        ids.append(row[0].strip())
    return ids, minutes, cumulative


def parse_intraday(csv_text: str) -> IntradayTable:
    header, _ = open_csv(csv_text)
    if header != ["precinct_id", "time", "cumulative_voted"]:
        raise MalformedRow(1, "header must be precinct_id,time,cumulative_voted")
    ids, minutes, cumulative = _reports_by_row(csv_text)
    index: dict[str, int] = {}
    keys = _sort_keys(index, ids, np.array(minutes, dtype=np.int64))
    return _table(index, keys, np.array(cumulative, dtype=np.int64))


PROTOCOL_SOURCES = ("observer", "official")


def parse_protocols(csv_text: str, leader: str) -> tuple[ElectionDataset, ElectionDataset]:
    header, lines = read_csv(csv_text)
    fixed = ("precinct_id", "source", "registered", "ballots_cast", "invalid")
    if tuple(header[: len(fixed)]) != fixed:
        raise MalformedRow(1, f"header must start with {','.join(fixed)}")
    party_cols = header[len(fixed) :]
    if not party_cols or not all(c.startswith("votes_") for c in party_cols):
        raise MalformedRow(1, "expected one or more votes_<party> columns")
    roster = PartyRoster(tuple(c[len("votes_") :] for c in party_cols))
    if leader not in roster.ids:
        raise UnknownParty(f"leader {leader!r} not among parties {roster.ids}")

    ids: list[str] = []
    counts: list[list[int]] = []
    is_official: list[bool] = []
    seen: dict[str, set[str]] = {s: set() for s in PROTOCOL_SOURCES}

    def columns() -> DatasetArrays:
        n = len(ids)
        return row_columns(ids, [""] * n, [""] * n, counts, [False] * n, [()] * n, len(roster))

    try:
        for line_no, row in lines:
            if len(row) != len(header):
                raise MalformedRow(line_no, f"expected {len(header)} fields, got {len(row)}")
            source = row[1].strip()
            if source not in PROTOCOL_SOURCES:
                raise MalformedRow(line_no, f"source must be observer or official, got {source!r}")
            counts.append([parse_count(cell, line_no, col) for cell, col in zip(row[2:], header[2:])])
            pid = row[0].strip()
            ids.append(pid)
            if pid in seen[source]:
                raise MalformedRow(line_no, f"duplicate {source} row for {pid!r}")
            seen[source].add(pid)
            is_official.append(source == "official")
    except MalformedRow:
        check_invariants(columns())  # an earlier broken row is reported first
        raise
    data = columns()
    check_invariants(data)

    if seen["observer"] != seen["official"]:
        missing = sorted(seen["observer"] ^ seen["official"])
        raise PairMismatch(f"precincts missing a counterpart: {missing}")
    by_id = np.argsort(data.precinct_ids)
    official_rows = np.array(is_official, dtype=bool)[by_id]
    return (
        ElectionDataset("observer", roster, data.take(by_id[~official_rows]), leader),
        ElectionDataset("official", roster, data.take(by_id[official_rows]), leader),
    )


def parse_delta_table(csv_text: str) -> tuple[list[UnitEntry], list[UnitEntry]]:
    header, rows = read_csv(csv_text)
    if tuple(header) != DELTA_COLUMNS:
        raise MalformedRow(1, f"header must be {','.join(DELTA_COLUMNS)}")
    table_a: list[UnitEntry] = []
    table_b: list[UnitEntry] = []
    seen: set[str] = set()
    for line_no, row in rows:
        if len(row) != len(DELTA_COLUMNS):
            raise MalformedRow(line_no, f"expected {len(DELTA_COLUMNS)} fields, got {len(row)}")
        share_b, share_a, turnout_b, turnout_a = (
            _parse_percent(cell, line_no, col) for cell, col in zip(row[1:], DELTA_COLUMNS[1:])
        )
        unit = row[0].strip()
        if unit in seen:
            raise MalformedRow(line_no, f"duplicate unit {unit!r}")
        seen.add(unit)
        table_b.append((unit, share_b, turnout_b))
        table_a.append((unit, share_a, turnout_a))
    return table_a, table_b
