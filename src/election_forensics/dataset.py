"""Precinct-level data model and CSV parsing/serialization.

File format (``precincts.csv``, UTF-8, comma separated, header required)::

    precinct_id,region,territory,registered,ballots_cast,invalid,machine_counted,votes_<party1>,...,votes_<partyK>

``machine_counted`` is 0 or 1; every count cell is ASCII digits ``[0-9]+``
with optional surrounding whitespace (no sign, no thousands separators,
no other digit scripts), at most ``MAX_COUNT``.  An optional trailing
``tags`` column holds semicolon-joined free-form tags; it is written only
when a record carries tags, and absent columns parse as "no tags".

Per-record invariants enforced at parse time:

* ``sum(votes) + invalid <= ballots_cast <= registered``
* ``registered > 0`` (a precinct with an empty voter list has no defined
  turnout, so such rows are rejected outright)
* every count is at most ``MAX_COUNT``

Official tallies count ballots found in boxes, not ballots issued; the
``ballots_cast`` column is interpreted as ballots counted.  A dataset is
stored as numpy columns (``DatasetArrays``), one entry per precinct in
file order; all arithmetic downstream works on exact integer counts, and
percentages appear only when a histogram is built.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvariantViolation, MalformedRow, UnknownLeader

FIXED_COLUMNS = (
    "precinct_id",
    "region",
    "territory",
    "registered",
    "ballots_cast",
    "invalid",
    "machine_counted",
)
VOTES_PREFIX = "votes_"
TAGS_COLUMN = "tags"
# Far above any real precinct, and low enough that a row's int64 sums of
# counts (``check_invariants``, the percent bins) cannot overflow.
MAX_COUNT = 10**12


@dataclass(frozen=True)
class PartyRoster:
    """Ordered, immutable list of party identifiers.

    Order is fixed for the lifetime of a dataset; vote vectors are aligned
    positionally to it.
    """

    ids: tuple[str, ...]

    def __post_init__(self):
        if not self.ids:
            raise InvariantViolation("<roster>", "party roster must be non-empty")
        if len(set(self.ids)) != len(self.ids):
            raise InvariantViolation("<roster>", "party identifiers must be unique")

    def __len__(self) -> int:
        return len(self.ids)

    def index(self, party: str) -> int:
        try:
            return self.ids.index(party)
        except ValueError:
            from .errors import UnknownParty

            raise UnknownParty(f"party {party!r} not in roster {self.ids}") from None


@dataclass(frozen=True)
class PrecinctRecord:
    """One polling station's protocol line, as a row (see ``make_dataset``)."""

    precinct_id: str
    region: str
    territory: str
    registered: int
    ballots_cast: int
    invalid: int
    machine_counted: bool
    votes: tuple[int, ...]
    tags: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class DatasetArrays:
    """A dataset's columns, one entry per precinct in file order.

    ``precinct_ids``, ``region`` and ``territory`` are object arrays of
    ``str`` and ``tags`` one of ``tuple[str, ...]``; the counts are int64,
    ``votes`` with shape (precincts, parties); ``machine_counted`` is bool.
    Field order matches ``PrecinctRecord``.  The arrays are made read-only,
    because datasets derived from one another share them.
    """

    precinct_ids: np.ndarray
    region: np.ndarray
    territory: np.ndarray
    registered: np.ndarray
    ballots_cast: np.ndarray
    invalid: np.ndarray
    machine_counted: np.ndarray
    votes: np.ndarray
    tags: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.registered)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DatasetArrays):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def take(self, rows: np.ndarray) -> "DatasetArrays":
        """The columns restricted to ``rows`` (a boolean mask or index array)."""
        return DatasetArrays(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass(frozen=True)
class ElectionDataset:
    """Precinct columns plus roster and designated leader."""

    election_id: str
    roster: PartyRoster
    columns: DatasetArrays
    designated_leader: str

    def __post_init__(self):
        if self.designated_leader not in self.roster.ids:
            raise UnknownLeader(f"leader {self.designated_leader!r} not in roster")
        c = self.columns
        n = len(c.precinct_ids)
        for f in fields(c):
            if f.name != "votes" and getattr(c, f.name).shape != (n,):
                raise InvariantViolation("<columns>", f"column {f.name} does not have {n} rows")
        if c.votes.shape != (n, len(self.roster)):
            raise InvariantViolation("<columns>", "votes vector does not match roster")
        ids = c.precinct_ids.tolist()
        if len(set(ids)) != n:
            seen: set[str] = set()
            for pid in ids:
                if pid in seen:
                    raise InvariantViolation(pid, "duplicate precinct_id")
                seen.add(pid)

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def leader_index(self) -> int:
        return self.roster.index(self.designated_leader)

    def counts(self) -> DatasetArrays:
        """The dataset's columns, as stored."""
        return self.columns

    @property
    def records(self) -> tuple[PrecinctRecord, ...]:
        """The rows, built from the columns on each access."""
        c = self.columns
        return tuple(
            PrecinctRecord(pid, region, territory, reg, cast, inv, machine, tuple(votes), tags)
            for pid, region, territory, reg, cast, inv, machine, votes, tags in zip(
                *(getattr(c, f.name).tolist() for f in fields(c))
            )
        )


def check_invariants(columns: DatasetArrays) -> None:
    """Raise InvariantViolation for the first row, in order, that breaks a count invariant."""
    scalars = np.column_stack((columns.registered, columns.ballots_cast, columns.invalid))
    negative = (scalars < 0).any(axis=1) | (columns.votes < 0).any(axis=1)
    too_large = (scalars > MAX_COUNT).any(axis=1) | (columns.votes > MAX_COUNT).any(axis=1)
    # exact for rows within MAX_COUNT; rows outside it are reported above
    vote_sum = columns.votes.sum(axis=1)
    no_voters = columns.registered == 0
    over_registered = columns.ballots_cast > columns.registered
    over_cast = vote_sum + columns.invalid > columns.ballots_cast
    bad = np.flatnonzero(negative | too_large | no_voters | over_registered | over_cast)
    if bad.size == 0:
        return
    i = bad[0]
    pid = columns.precinct_ids[i]
    if negative[i]:
        raise InvariantViolation(pid, "all counts must be non-negative")
    if too_large[i]:
        raise InvariantViolation(pid, f"all counts must be at most {MAX_COUNT}")
    if no_voters[i]:
        raise InvariantViolation(pid, "registered must be positive")
    if over_registered[i]:
        raise InvariantViolation(
            pid,
            f"ballots_cast {columns.ballots_cast[i]} exceeds registered {columns.registered[i]}",
        )
    raise InvariantViolation(
        pid,
        f"votes {vote_sum[i]} + invalid {columns.invalid[i]} exceed ballots_cast {columns.ballots_cast[i]}",
    )


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


# A cell holding none of these is written as it is; csv.writer quotes only cells with one.
_QUOTE_TRIGGERS = re.compile('[,"\r\n]')


def csv_cells(cells: list[str]) -> list[str]:
    """Each cell as ``csv.writer`` writes it in a row of two or more cells."""
    if not _QUOTE_TRIGGERS.search("".join(cells)):
        return cells
    written = []
    for cell in cells:
        if _QUOTE_TRIGGERS.search(cell):
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerow([cell, ""])
            cell = out.getvalue()[: -len(",\n")]
        written.append(cell)
    return written


def format_rows(row: str, columns: Sequence[list]) -> str:
    """``row % cells`` for each row of the equal-length ``columns``, joined.

    The rows are written by one ``%`` call over the cells interleaved row
    by row, not by one call per row.
    """
    n = len(columns[0]) if columns else 0
    cells: list = [None] * (n * len(columns))
    for j, column in enumerate(columns):
        cells[j :: len(columns)] = column
    return (row * n) % tuple(cells)


def parse_count(cell: str, line: int, column: str) -> int:
    """A count cell: ASCII digits ``[0-9]+``, surrounding whitespace ignored, at most MAX_COUNT."""
    text = cell.strip()
    if not (text.isascii() and text.isdigit()):
        raise MalformedRow(line, f"column {column!r}: {cell!r} is not a non-negative integer")
    value = int(text)
    if value > MAX_COUNT:
        raise MalformedRow(line, f"column {column!r}: {cell!r} exceeds {MAX_COUNT}")
    return value


# Every count up to MAX_COUNT fits in this many digits, and any such string fits int64.
_COUNT_DIGITS = len(str(MAX_COUNT))
_PLACE_VALUES = 10 ** np.arange(_COUNT_DIGITS, dtype=np.int64)


def count_column(cells: Sequence[str]) -> np.ndarray | None:
    """The cells as int64 counts, or None unless each one is an easy ``parse_count`` cell.

    An easy cell is 1 to 13 ASCII digits once stripped, at most MAX_COUNT.
    None leaves the cells to ``parse_count``: a reader then goes row by row
    to reject the first bad cell, or to accept what this check is too
    narrow for, such as a count zero-padded past 13 digits.
    """
    joined = "".join(cells)
    if not (joined.isascii() and joined.isdigit()):  # some cell is padded, or not a count
        cells = list(map(str.strip, cells))
        joined = "".join(cells)
        if not (joined.isascii() and joined.isdigit()):
            return None
    lengths = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
    if lengths.min() == 0 or lengths.max() > _COUNT_DIGITS:
        return None
    # each digit times its place value, summed cell by cell
    ends = np.cumsum(lengths)
    places = np.repeat(ends, lengths) - np.arange(1, len(joined) + 1)
    digits = np.frombuffer(joined.encode("ascii"), dtype=np.uint8) - ord("0")
    counts = np.add.reduceat(digits * _PLACE_VALUES[places], ends - lengths)
    return None if (counts > MAX_COUNT).any() else counts


def data_rows(reader: Iterator[list[str]]) -> list[list[str]] | None:
    """The reader's non-empty rows, or None when ``csv`` rejects the text.

    None leaves the text to the row-by-row reader, which reports any bad
    row before the one ``csv`` rejects.
    """
    try:
        return list(filter(None, reader))
    except csv.Error:
        return None


def row_columns(
    ids: Sequence[str],
    regions: Sequence[str],
    territories: Sequence[str],
    counts: Sequence[Sequence[int]],
    machine: Sequence[bool],
    tags: Sequence[tuple[str, ...]],
    parties: int,
) -> DatasetArrays:
    """Columns from per-row values; ``counts`` rows are (registered, ballots_cast, invalid, *votes)."""
    n = len(ids)
    table = np.array(counts, dtype=np.int64).reshape(n, 3 + parties)
    return DatasetArrays(
        precinct_ids=np.array(ids, dtype=object),
        region=np.array(regions, dtype=object),
        territory=np.array(territories, dtype=object),
        registered=table[:, 0],
        ballots_cast=table[:, 1],
        invalid=table[:, 2],
        machine_counted=np.array(machine, dtype=bool),
        votes=table[:, 3:],
        tags=np.fromiter(tags, dtype=object, count=n),
    )


def make_dataset(
    election_id: str,
    roster: PartyRoster,
    records: Iterable[PrecinctRecord],
    leader: str,
) -> ElectionDataset:
    """Check every row's invariants and assemble a dataset from the rows."""
    rows = tuple(records)
    columns = row_columns(
        [r.precinct_id for r in rows],
        [r.region for r in rows],
        [r.territory for r in rows],
        [(r.registered, r.ballots_cast, r.invalid, *r.votes) for r in rows],
        [r.machine_counted for r in rows],
        [r.tags for r in rows],
        len(roster),
    )
    check_invariants(columns)
    return ElectionDataset(election_id, roster, columns, leader)


def _tags(cell: str) -> tuple[str, ...]:
    return tuple(t for t in cell.split(";") if t) if cell.strip() else ()


def no_tags(n: int) -> np.ndarray:
    """A ``tags`` column of ``n`` empty tuples."""
    tags = np.empty(n, dtype=object)
    tags.fill(())
    return tags


def _columns_by_column(
    rows: list[list[str]], width: int, parties: int, has_tags: bool
) -> DatasetArrays | None:
    """The columns of ``rows``, checked a column at a time; None if any cell needs the row reader."""
    if set(map(len, rows)) != {width}:
        return None
    cells = list(zip(*rows))
    machine = list(map(str.strip, cells[6]))
    if not set(machine) <= {"0", "1"}:
        return None
    n = len(rows)
    # one table, laid out as the row reader lays it out, holds every count column
    table = np.empty((n, 3 + parties), dtype=np.int64)
    for j, i in enumerate((3, 4, 5, *range(7, 7 + parties))):
        counts = count_column(cells[i])
        if counts is None:
            return None
        table[:, j] = counts
    if has_tags:
        tags = np.fromiter(map(_tags, cells[-1]), dtype=object, count=n)
    else:
        tags = no_tags(n)
    return DatasetArrays(
        precinct_ids=np.array(list(map(str.strip, cells[0])), dtype=object),
        region=np.array(list(map(str.strip, cells[1])), dtype=object),
        territory=np.array(list(map(str.strip, cells[2])), dtype=object),
        registered=table[:, 0],
        ballots_cast=table[:, 1],
        invalid=table[:, 2],
        machine_counted=np.array(machine) == "1",
        votes=table[:, 3:],
        tags=tags,
    )


def _columns_by_row(csv_text: str, party_cols: list[str], has_tags: bool) -> DatasetArrays:
    """The columns read a row at a time: the grammar's one definition.

    Raises the first MalformedRow in file order, after InvariantViolation
    for any row before it that breaks a count invariant.
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
    except MalformedRow:
        check_invariants(columns())  # an invariant broken on an earlier line is reported first
        raise
    return columns()


def parse_dataset(csv_text: str, leader: str, election_id: str = "dataset") -> ElectionDataset:
    """Parse ``precincts.csv`` content into a validated dataset.

    Raises MalformedRow for structural problems, InvariantViolation for
    rows that fail count invariants, and UnknownLeader when ``leader`` is
    not among the vote columns.  The error reported is the first one in
    file order.  Well-formed files are read a column at a time; any file
    with a cell the column check declines is read again row by row, so
    the row reader alone decides what is an error and where.
    """
    header, reader = open_csv(csv_text)
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

    rows = data_rows(reader)
    data = _columns_by_column(rows, len(header), len(roster), has_tags) if rows else None
    if data is None:
        data = _columns_by_row(csv_text, party_cols, has_tags)
    check_invariants(data)
    return ElectionDataset(election_id, roster, data, leader)


def serialize_dataset(dataset: ElectionDataset) -> str:
    """Render a dataset back to CSV text; parse(serialize(d)) == d field-for-field.

    Cells are written as ``csv.writer`` writes them.
    """
    c = dataset.counts()
    any_tags = any(c.tags)
    header = list(FIXED_COLUMNS) + [VOTES_PREFIX + p for p in dataset.roster.ids]
    columns = [
        csv_cells(c.precinct_ids.tolist()),
        csv_cells(c.region.tolist()),
        csv_cells(c.territory.tolist()),
        c.registered.tolist(),
        c.ballots_cast.tolist(),
        c.invalid.tolist(),
        c.machine_counted.astype(np.int64).tolist(),
        *c.votes.T.tolist(),
    ]
    if any_tags:
        header.append(TAGS_COLUMN)
        columns.append(csv_cells([";".join(tags) for tags in c.tags.tolist()]))
    row = ",".join(["%s"] * len(columns)) + "\n"
    return ",".join(csv_cells(header)) + "\n" + format_rows(row, columns)


def partition(
    dataset: ElectionDataset,
    mask: np.ndarray,
) -> tuple[ElectionDataset, ElectionDataset]:
    """Split into (rows where ``mask`` is true, the rest), sharing roster and leader."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (len(dataset),):
        raise ValueError(f"mask must have shape ({len(dataset)},), got {mask.shape}")
    columns = dataset.counts()
    return (
        ElectionDataset(dataset.election_id + "/in", dataset.roster, columns.take(mask), dataset.designated_leader),
        ElectionDataset(dataset.election_id + "/out", dataset.roster, columns.take(~mask), dataset.designated_leader),
    )
