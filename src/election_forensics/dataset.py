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
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ForensicsError, InvariantViolation, MalformedRow, UnknownLeader, UnknownParty

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
# Rows read at a time by ``read_blocks``, and written per ``%`` call by ``format_rows``.
ROW_BLOCK = 4096


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
            raise UnknownParty(f"party {party!r} not in roster {self.ids}") from None


class PrecinctRecord(NamedTuple):
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
        repeats = np.flatnonzero(first_repeats(c.precinct_ids.tolist()))
        if repeats.size:
            raise InvariantViolation(c.precinct_ids[repeats[0]], "duplicate precinct_id")

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
    negative = (columns.votes < 0).any(axis=1)
    too_large = (columns.votes > MAX_COUNT).any(axis=1)
    for count in (columns.registered, columns.ballots_cast, columns.invalid):
        negative |= count < 0
        too_large |= count > MAX_COUNT
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
    """A CSV text's stripped header and the ``csv.reader`` of the rows after it.

    ``max_rows``, the text's count of ``\\n``, bounds its rows, since each
    takes at least one line.
    """

    header: list[str]
    reader: Iterator[list[str]]
    max_rows: int


def _line_slices(text: str) -> Iterator[io.StringIO]:
    """The text in slices of ROW_BLOCK characters or more, each but the last ending at a line end.

    Read in turn, the slices give the lines one ``io.StringIO`` of the
    whole text gives, but only one slice is held as its 4-byte characters.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + ROW_BLOCK) + 1 or len(text)
        yield io.StringIO(text[start:end])
        start = end


def read_table(csv_text: str) -> CsvTable:
    """The text's header and reader; a missing or unreadable header is a MalformedRow."""
    reader = csv.reader(chain.from_iterable(_line_slices(csv_text)))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise MalformedRow(1, "missing header row") from None
    except csv.Error as exc:
        raise MalformedRow(1, str(exc)) from None
    return CsvTable(header, reader, csv_text.count("\n"))


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


def format_rows(row: str, columns: Sequence[Sequence | np.ndarray]) -> list[str]:
    """``row % cells`` for each row of the equal-length ``columns``, as blocks of text.

    A column is a list, tuple or 1-d ndarray.  The rows are written
    ROW_BLOCK (4,096) at a time: one ``%`` call per block over its cells
    interleaved row by row, an ndarray column's slice turned into Python
    scalars by ``tolist`` block by block.  The blocks are returned, not
    joined: each caller joins them once, with its header, so the peak
    memory is about two copies of the output plus one block.
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
    return blocks


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
    # each digit times its place value, summed cell by cell; a place (12 down to 0 within
    # a cell) is an int8 running sum, so the scratch holds one int64 per character
    starts = np.cumsum(lengths) - lengths
    steps = np.full(len(joined), -1, dtype=np.int8)
    steps[starts] = lengths - 1
    terms = _PLACE_VALUES[np.cumsum(steps, dtype=np.int8)]
    terms *= np.frombuffer(joined.encode("ascii"), dtype=np.uint8) - ord("0")
    counts = np.add.reduceat(terms, starts)
    masked |= counts > MAX_COUNT
    counts[masked] = 0
    return counts, masked


# A column's rule: ``read_all(cells)`` gives the column's values and a mask
# of the cells it leaves open, and ``read_one(cell, line, column)`` gives one
# open cell's value or raises MalformedRow.
Rule = tuple[Callable[[Sequence[str]], tuple], Callable[[str, int, str], object]]

COUNT: Rule = (count_column, parse_count)


def two_valued(a: str, b: str) -> Rule:
    """The rule of a cell that is ``a`` or ``b`` once stripped; its value is True for ``b``."""

    def read_all(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        stripped = np.array(list(map(str.strip, cells)), dtype=object)
        is_b = stripped == b
        return is_b, ~is_b & (stripped != a)

    def read_one(cell: str, line: int, column: str) -> bool:
        text = cell.strip()
        if text not in (a, b):
            raise MalformedRow(line, f"{column} must be {a} or {b}, got {text!r}")
        return text == b

    return read_all, read_one


def any_cell(read: Callable[[str], object]) -> Rule:
    """The rule of a column that takes any cell, whose value is ``read(cell)`` in an object array."""

    def read_all(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        return np.fromiter(map(read, cells), dtype=object, count=len(cells)), np.zeros(len(cells), dtype=bool)

    return read_all, lambda cell, line, column: read(cell)


def _tags(cell: str) -> tuple[str, ...]:
    return tuple(t for t in cell.split(";") if t) if cell.strip() else ()


TEXT: Rule = any_cell(str.strip)
TAGS: Rule = any_cell(_tags)


def first_repeats(keys: Sequence) -> np.ndarray:
    """A mask of the keys equal to an earlier key."""
    repeated = np.zeros(len(keys), dtype=bool)
    # equal keys hash alike, so sorted hashes that all differ rule out a repeat in 8 bytes a key
    hashes = np.fromiter(map(hash, keys), dtype=np.int64, count=len(keys))
    hashes.sort()
    if (hashes[1:] == hashes[:-1]).any():
        seen = set()
        for i, key in enumerate(keys):
            repeated[i] = key in seen
            seen.add(key)
    return repeated


# Rules keyed by a column index, or by a tuple of them whose values form the
# columns of one 2-d array.
Rules = dict[int | tuple[int, ...], Rule]


def read_blocks(
    table: CsvTable,
    rules: Rules,
    repeat: tuple[tuple[int, ...], str] | None = None,
    columns: Callable[[list, int], DatasetArrays] | None = None,
) -> Iterator[list[np.ndarray]]:
    """The values ``rules`` read from each block of ROW_BLOCK records, one array per rule in rule order.

    ``rules`` gives the columns in the order a row's cells are checked (a
    rule made by ``any_cell`` leaves no cell open).  Empty records are
    skipped.  Only rows with a cell left open, or whose stripped ``repeat``
    key cells repeat an earlier row's, are read again, cell by cell; a
    repeat is reported after the row's cells, as its message formatted with
    the key.  A record with another field count than the header, or one
    that ``csv`` rejects, such as a cell longer than
    ``csv.field_size_limit()``, is a MalformedRow that ends the rows.  The
    first fault in file order is raised after
    ``check_invariants(columns(values, end))`` of the block's rows before
    it (a repeated row's included); with ``columns``, every block yielded
    has passed that check.  At least one block is yielded, an empty one
    for a table without rows.
    """
    header, reader = table.header, table.reader
    width = len(header)
    # (column, rule) in the order a row's cells are checked
    checks = [(index, rule) for key, rule in rules.items() for index in (key if isinstance(key, tuple) else (key,))]
    # Each earlier block's repeat keys sorted by hash, with the hashes: 16 bytes a key, where a set took
    # over 60.  A key is a str for one key column and a tuple for more.
    seen: list[tuple[np.ndarray, np.ndarray]] = []

    def block(records: list[list[str]], first: int, error: str | None) -> list[np.ndarray]:
        """The values of the records read from line ``first`` on, up to ``error``; raises their first fault."""
        widths = np.fromiter(map(len, records), dtype=np.int64, count=len(records))
        misfits = np.flatnonzero((widths != 0) & (widths != width))
        if misfits.size:
            end = int(misfits[0])
            error = f"expected {width} fields, got {widths[end]}"
            records, widths = records[:end], widths[:end]
        fault = None if error is None else MalformedRow(int(_start_lines(records, first)[-1]), error)
        rows = records if widths.all() else list(filter(None, records))
        # strided slices of the flattened rows: far faster than zip(*rows) for many rows of few cells
        flat = list(chain.from_iterable(rows))
        cells = [flat[j::width] for j in range(width)]
        del flat  # before the column reads add their scratch arrays
        read = [read_all(cells[index]) for index, (read_all, _) in checks]
        flagged = np.zeros(len(rows), dtype=bool)
        for _, open_cells in read:
            flagged |= open_cells
        if repeat is not None:
            key_columns, message = repeat
            stripped = [map(str.strip, cells[j]) for j in key_columns]
            keys = list(stripped[0] if len(stripped) == 1 else zip(*stripped))
            hashes = np.fromiter(map(hash, keys), dtype=np.int64, count=len(keys))
            order = np.argsort(hashes, kind="stable")
            hashes = hashes[order]
            # equal keys hash alike, so sorted hashes that all differ rule out a repeat within the block
            repeated = first_repeats(keys) if (hashes[1:] == hashes[:-1]).any() else np.zeros(len(keys), dtype=bool)
            for earlier_hashes, earlier_keys in seen:
                # and only keys whose hash an earlier block has can repeat one of its keys
                lo = np.searchsorted(earlier_hashes, hashes)
                hi = np.searchsorted(earlier_hashes, hashes, side="right")
                for j in np.flatnonzero(hi > lo).tolist():
                    i = int(order[j])
                    repeated[i] |= keys[i] in earlier_keys[lo[j] : hi[j]].tolist()
            seen.append((hashes, np.fromiter(keys, dtype=object, count=len(keys))[order]))
            flagged |= repeated
        end = len(rows)
        if flagged.any():
            lines = _start_lines(records, first)[:-1][widths != 0]
        for i in np.flatnonzero(flagged).tolist():
            line = int(lines[i])
            try:
                for (index, (_, read_one)), (column_values, open_cells) in zip(checks, read):
                    if open_cells[i]:
                        column_values[i] = read_one(rows[i][index], line, header[index])
            except MalformedRow as exc:
                end, fault = i, exc
                break
            if repeat is not None and repeated[i]:
                key = keys[i] if isinstance(keys[i], tuple) else (keys[i],)
                end, fault = i + 1, MalformedRow(line, message.format(*key))
                break
        in_order = iter([column_values for column_values, _ in read])
        values = [
            np.column_stack([next(in_order) for _ in key]) if isinstance(key, tuple) else next(in_order)
            for key in rules
        ]
        if columns is not None:
            check_invariants(columns(values, end))  # an invariant broken earlier is reported first
        if fault is not None:
            raise fault
        return values

    while True:
        first = reader.line_num + 1  # the physical line of the block's first record
        records: list[list[str]] = []
        error = None
        try:
            records.extend(islice(reader, ROW_BLOCK))  # keeps the records read before a csv.Error
        except csv.Error as exc:
            error = str(exc)
        # the cells die with block()'s locals, so a block's cells are freed before the next one is read
        yield block(records, first, error)
        if len(records) < ROW_BLOCK:
            return


def read_columns(
    table: CsvTable,
    rules: Rules,
    repeat: tuple[tuple[int, ...], str] | None = None,
    columns: Callable[[list, int], DatasetArrays] | None = None,
) -> list[np.ndarray]:
    """Every row's values that ``rules`` read, one array per rule in rule order (see ``read_blocks``).

    Each block's values are copied, as the block is read, into arrays of
    ``table.max_rows`` rows, so only one block of cells is held at a time.
    """
    stored: list[np.ndarray] = []
    n = 0
    for values in read_blocks(table, rules, repeat, columns):
        if not stored:
            stored = [np.empty((table.max_rows, *v.shape[1:]), dtype=v.dtype) for v in values]
        for out, block in zip(stored, values):
            out[n : n + len(block)] = block
        n += len(values[0])
    return [out[:n] for out in stored]


def vote_roster(
    header: Sequence[str], fixed: Sequence[str], leader: str, unknown: type[ForensicsError]
) -> PartyRoster:
    """The roster of a header of ``fixed`` columns then ``votes_<party>`` ones; ``unknown`` without ``leader``."""
    if tuple(header[: len(fixed)]) != tuple(fixed):
        raise MalformedRow(1, f"header must start with {','.join(fixed)}")
    party_cols = header[len(fixed) :]
    if not party_cols or not all(c.startswith(VOTES_PREFIX) for c in party_cols):
        raise MalformedRow(1, "expected one or more votes_<party> columns")
    roster = PartyRoster(tuple(c[len(VOTES_PREFIX) :] for c in party_cols))
    if leader not in roster.ids:
        raise unknown(f"leader {leader!r} not among parties {roster.ids}")
    return roster


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
    file order, as ``read_blocks`` finds it.
    """
    table = read_table(csv_text)
    has_tags = bool(table.header) and table.header[-1] == TAGS_COLUMN
    roster = vote_roster(table.header[:-1] if has_tags else table.header, FIXED_COLUMNS, leader, UnknownLeader)
    # registered, ballots_cast, invalid and the votes, checked after machine_counted, as one array
    count_columns = (3, 4, 5, *range(7, 7 + len(roster)))
    rules: Rules = {0: TEXT, 1: TEXT, 2: TEXT, 6: two_valued("0", "1"), count_columns: COUNT}
    if has_tags:
        rules[len(table.header) - 1] = TAGS

    def columns(values: list, end: int) -> DatasetArrays:
        ids, regions, territories, machine_counted, counts, *tags = (v[:end] for v in values)
        return DatasetArrays(
            ids, regions, territories, counts[:, 0], counts[:, 1], counts[:, 2], machine_counted, counts[:, 3:],
            tags=tags[0] if has_tags else no_tags(end),
        )

    values = read_columns(table, rules, repeat=((0,), "duplicate precinct_id {!r}"), columns=columns)
    return ElectionDataset(election_id, roster, columns(values, len(values[0])), leader)


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
    return "".join([",".join(csv_cells(header)) + "\n", *format_rows(row, columns)])


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
