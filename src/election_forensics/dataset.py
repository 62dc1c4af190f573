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
from functools import cached_property
from typing import Callable, Iterable, Sequence

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


def _start_lines(records: list[list[str]], first: int) -> np.ndarray:
    """The physical line each record starts on, then the line after the last one.

    ``records[0]`` starts on line ``first``.  A record takes one line plus
    one for each ``\\n`` inside its quoted cells, so a quoted cell that
    spans lines does not shift the numbers of later records.
    """
    spans = np.fromiter(("".join(r).count("\n") + 1 for r in records), dtype=np.int64, count=len(records))
    starts = np.full(len(records) + 1, first, dtype=np.int64)
    starts[1:] += np.cumsum(spans)
    return starts


@dataclass(frozen=True, eq=False)
class CsvTable:
    """A CSV text read in one pass, up to its first structural fault.

    ``rows`` are the non-empty rows after the stripped ``header``, each with
    as many fields as the header.  ``fault`` is the MalformedRow of the
    first row with another field count or one that ``csv`` rejects, such
    as a cell longer than ``csv.field_size_limit()``; the rows stop before
    it, and it is raised only if no earlier row has a fault of its own.
    ``lines``, the physical line each row starts on, is worked out only
    when some row is checked on its own.
    """

    header: list[str]
    rows: list[list[str]]
    fault: MalformedRow | None
    records: list[list[str]]  # the rows and the empty records among them
    first_line: int  # the physical line of records[0]

    @cached_property
    def lines(self) -> np.ndarray:
        """The physical line each row starts on."""
        starts = _start_lines(self.records, self.first_line)[:-1]
        return starts if len(self.rows) == len(self.records) else starts[list(map(bool, self.records))]


def read_table(csv_text: str) -> CsvTable:
    """The text read by one ``csv.reader``; a missing or unreadable header is a MalformedRow."""
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise MalformedRow(1, "missing header row") from None
    except csv.Error as exc:
        raise MalformedRow(1, str(exc)) from None
    first = reader.line_num + 1
    records: list[list[str]] = []
    error = None
    try:
        records.extend(reader)  # keeps the records read before a csv.Error
    except csv.Error as exc:
        error = str(exc)
    widths = np.fromiter(map(len, records), dtype=np.int64, count=len(records))
    misfits = np.flatnonzero((widths != 0) & (widths != len(header)))
    fault = None
    if misfits.size:
        end = int(misfits[0])
        error = f"expected {len(header)} fields, got {widths[end]}"
        records, widths = records[:end], widths[:end]
    if error is not None:
        fault = MalformedRow(int(_start_lines(records, first)[-1]), error)
    rows = records if widths.all() else list(filter(None, records))
    return CsvTable(header, rows, fault, records, first)


def raise_first_fault(
    table: CsvTable,
    flagged: Iterable[int],
    check_row: Callable[[int, int], None],
    columns: Callable[[int], DatasetArrays] | None = None,
) -> None:
    """Check the flagged rows in order, then raise the table's pending fault.

    ``check_row(i, line)`` takes a row the column pass could not settle:
    it fills the row's slots or raises MalformedRow.  The first fault, the
    one a flagged row raises or else the pending one, is raised after
    ``check_invariants(columns(i))`` reports any of the ``i`` rows before
    it that breaks a count invariant.
    """
    faulty, fault = len(table.rows), table.fault
    for i in flagged:
        try:
            check_row(i, int(table.lines[i]))
        except MalformedRow as exc:
            faulty, fault = i, exc
            break
    if fault is None:
        return
    if columns is not None:
        check_invariants(columns(faulty))  # an invariant broken on an earlier line is reported first
    raise fault


# A cell holding none of these is written as it is; csv.writer quotes only cells with one.
_QUOTE_TRIGGERS = re.compile('[,"\r\n]')


def csv_cells(cells: Sequence[str]) -> Sequence[str]:
    """Each cell as ``csv.writer`` writes it in a row of two or more cells.

    Cells that need no quoting, the usual case, are returned as given.
    """
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


# Rows written per ``%`` call by ``format_rows``.
ROW_BLOCK = 4096


def format_rows(row: str, columns: Sequence[Sequence | np.ndarray]) -> str:
    """``row % cells`` for each row of the equal-length ``columns``, joined.

    A column is a list, tuple or 1-d ndarray.  The rows are written
    ROW_BLOCK (4,096) at a time: one ``%`` call per block over its cells
    interleaved row by row, an ndarray column's slice turned into Python
    scalars by ``tolist`` block by block.  The blocks are joined once, so
    the peak memory is about two copies of the output plus one block.
    """
    n = len(columns[0]) if columns else 0
    width = len(columns)
    blocks = []
    for start in range(0, n, ROW_BLOCK):
        rows = min(ROW_BLOCK, n - start)
        cells: list = [None] * (rows * width)
        for j, column in enumerate(columns):
            part = column[start : start + rows]
            cells[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
        blocks.append((row * rows) % tuple(cells))
    return "".join(blocks)


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


def count_column(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The cells as int64 counts, and a mask of the cells left to ``parse_count``.

    A cell is taken here if it is 1 to 13 ASCII digits once stripped, at
    most MAX_COUNT.  Any other cell is masked and holds 0: ``parse_count``
    then rejects it, or accepts what this check is too narrow for, such
    as a count zero-padded past 13 digits.
    """
    n = len(cells)
    joined = "".join(cells)
    if not (joined.isascii() and joined.isdigit()):  # some cell is padded, or not a count
        cells = list(map(str.strip, cells))
        joined = "".join(cells)
    lengths = np.fromiter(map(len, cells), dtype=np.int64, count=n)
    masked = (lengths == 0) | (lengths > _COUNT_DIGITS)
    if not (joined.isascii() and joined.isdigit()):
        digits_only = np.fromiter(map(str.isdigit, cells), dtype=bool, count=n)
        masked |= ~(digits_only & np.fromiter(map(str.isascii, cells), dtype=bool, count=n))
    if masked.any():
        cells = ["0" if bad else cell for cell, bad in zip(cells, masked.tolist())]
        joined = "".join(cells)
        lengths[masked] = 1
    # each digit times its place value, summed cell by cell
    ends = np.cumsum(lengths)
    places = np.repeat(ends, lengths) - np.arange(1, len(joined) + 1)
    digits = np.frombuffer(joined.encode("ascii"), dtype=np.uint8) - ord("0")
    counts = np.add.reduceat(digits * _PLACE_VALUES[places], ends - lengths)
    masked |= counts > MAX_COUNT
    counts[masked] = 0
    return counts, masked


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


def parse_dataset(csv_text: str, leader: str, election_id: str = "dataset") -> ElectionDataset:
    """Parse ``precincts.csv`` content into a validated dataset.

    Raises MalformedRow for structural problems, InvariantViolation for
    rows that fail count invariants, and UnknownLeader when ``leader`` is
    not among the vote columns.  The error reported is the first one in
    file order.  The text is read once and checked a column at a time;
    only the rows with a cell the column check leaves open are checked
    again, one at a time, by the scalar rules.
    """
    table = read_table(csv_text)
    header = table.header
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

    rows = table.rows
    n = len(rows)
    cells = list(zip(*rows)) or [()] * len(header)
    machine = list(map(str.strip, cells[6]))
    machine_cells = np.array(machine, dtype=object)
    machine_counted = machine_cells == "1"
    bad_machine = ~machine_counted & (machine_cells != "0")
    # one table, registered, ballots_cast, invalid and the votes, holds every count column
    count_at = (3, 4, 5, *range(7, 7 + len(roster)))
    counts = np.empty((n, len(count_at)), dtype=np.int64)
    masked = np.empty((n, len(count_at)), dtype=bool)
    for j, i in enumerate(count_at):
        counts[:, j], masked[:, j] = count_column(cells[i])
    ids = list(map(str.strip, cells[0]))
    tags = np.fromiter(map(_tags, cells[-1]), dtype=object, count=n) if has_tags else no_tags(n)

    def check_row(r: int, line: int) -> None:
        if bad_machine[r]:
            raise MalformedRow(line, f"machine_counted must be 0 or 1, got {machine[r]!r}")
        for j in np.flatnonzero(masked[r]).tolist():
            counts[r, j] = parse_count(rows[r][count_at[j]], line, header[count_at[j]])

    def columns(end: int) -> DatasetArrays:
        return DatasetArrays(
            precinct_ids=np.array(ids[:end], dtype=object),
            region=np.array(list(map(str.strip, cells[1][:end])), dtype=object),
            territory=np.array(list(map(str.strip, cells[2][:end])), dtype=object),
            registered=counts[:end, 0],
            ballots_cast=counts[:end, 1],
            invalid=counts[:end, 2],
            machine_counted=machine_counted[:end],
            votes=counts[:end, 3:],
            tags=tags[:end],
        )

    raise_first_fault(table, np.flatnonzero(bad_machine | masked.any(axis=1)).tolist(), check_row, columns)
    data = columns(n)
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
        csv_cells(c.precinct_ids),
        csv_cells(c.region),
        csv_cells(c.territory),
        c.registered,
        c.ballots_cast,
        c.invalid,
        c.machine_counted.view(np.uint8),
        *c.votes.T,
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
