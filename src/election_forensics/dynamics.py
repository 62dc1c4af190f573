"""Intraday turnout trajectories and hyperactive-precinct flagging.

Commissions report cumulative voter counts several times during election
day.  A precinct whose final official ballot count sits far above its last
intraday report acquired most of that excess in the unobserved closing
interval; precincts where this final increment exceeds a threshold
(default 13% of registered voters) are flagged as hyperactive.  The
threshold is measured against registered voters, not against final
turnout, and the comparison is strict: an increment exactly at the
threshold is not flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .dataset import (
    COUNT,
    ROW_BLOCK,
    TEXT,
    ElectionDataset,
    Rule,
    csv_cells,
    format_rows,
    parse_count,
    read_blocks,
    read_table,
)
from .errors import EmptySeries, InvariantViolation, MalformedRow
from .scatter import build_points

DEFAULT_HYPERACTIVE_THRESHOLD = 0.13
MINUTES_PER_DAY = 24 * 60
INTRADAY_HEADER = ["precinct_id", "time", "cumulative_voted"]


class IntradaySeries(NamedTuple):
    """One precinct's intraday reports, in order."""

    precinct_id: str
    reports: tuple[tuple[int, int], ...]  # (minutes since midnight, cumulative voters)


@dataclass(frozen=True, eq=False)
class IntradayTable(Mapping[str, IntradaySeries]):
    """Intraday reports of many precincts as columns.

    Precinct ``k`` (id ``precinct_ids[k]``) owns the report rows
    ``starts[k]:starts[k + 1]`` of ``minutes`` (since midnight) and
    ``cumulative`` (voters so far), in the order its reports were given.
    ``table[pid]`` builds that precinct's ``IntradaySeries``.  The arrays
    are made read-only; ``check`` validates the series.
    """

    precinct_ids: np.ndarray  # object array of str
    starts: np.ndarray  # int64, one more than there are precincts
    minutes: np.ndarray  # int64, one per report
    cumulative: np.ndarray  # int64, one per report

    def __post_init__(self):
        n = len(self.precinct_ids)
        if self.starts.shape != (n + 1,) or self.starts[0] != 0 or np.any(np.diff(self.starts) < 0):
            raise ValueError("starts must rise from 0, one offset per precinct plus one")
        if self.minutes.shape != self.cumulative.shape or self.minutes.shape != (self.starts[-1],):
            raise ValueError("minutes and cumulative need one entry per report")
        for column in (self.precinct_ids, self.starts, self.minutes, self.cumulative):
            column.flags.writeable = False

    @classmethod
    def from_series(cls, series_map: Mapping[str, IntradaySeries]) -> "IntradayTable":
        """A table of the series as given, keyed as in the mapping; a table is returned as is."""
        if isinstance(series_map, IntradayTable):
            return series_map
        ids = list(series_map)
        reports = [series_map[pid].reports for pid in ids]
        pairs = np.array([pair for r in reports for pair in r], dtype=np.int64).reshape(-1, 2)
        starts = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in reports], out=starts[1:])
        return cls(np.array(ids, dtype=object), starts, pairs[:, 0], pairs[:, 1])

    @cached_property
    def _index(self) -> dict[str, int]:
        return {pid: k for k, pid in enumerate(self.precinct_ids.tolist())}

    def __len__(self) -> int:
        return len(self.precinct_ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self.precinct_ids.tolist())

    def __getitem__(self, pid: str) -> IntradaySeries:
        k = self._index[pid]
        rows = slice(self.starts[k], self.starts[k + 1])
        return IntradaySeries(pid, tuple(zip(self.minutes[rows].tolist(), self.cumulative[rows].tolist())))

    def positions(self, precinct_ids: np.ndarray) -> np.ndarray:
        """Each id's precinct index in the table, -1 for an id it does not hold."""
        index = self._index
        return np.fromiter(
            (index.get(pid, -1) for pid in precinct_ids.tolist()), dtype=np.int64, count=len(precinct_ids)
        )

    def take(self, precincts: np.ndarray) -> "IntradayTable":
        """The table of the precincts at these indices, in this order."""
        lengths = np.diff(self.starts)[precincts]
        starts = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        rows = np.repeat(self.starts[:-1][precincts] - starts[:-1], lengths) + np.arange(starts[-1])
        return IntradayTable(self.precinct_ids[precincts], starts, self.minutes[rows], self.cumulative[rows])

    def check(self, official: np.ndarray | None = None) -> None:
        """Raise the error of the first faulty precinct, in table order.

        A series needs at least 2 reports, strictly increasing times and
        non-decreasing, non-negative counts; with ``official`` (final
        ballots, one per precinct) its last count may not exceed it.
        """
        n = len(self)
        short = np.diff(self.starts) < 2
        begins = np.zeros(len(self.minutes) + 1, dtype=bool)
        begins[self.starts] = True  # the reports where a precinct's reports begin, and the end
        same = ~begins[1:-1]  # report i + 1 belongs to the precinct of report i

        def any_by_precinct(report_fault: np.ndarray, offset: int = 0) -> np.ndarray:
            # a report belongs to the last precinct starting at or before it
            reports = np.flatnonzero(report_fault) + offset
            found = np.zeros(n, dtype=bool)
            found[np.searchsorted(self.starts, reports, side="right") - 1] = True
            return found

        unordered = any_by_precinct(same & (self.minutes[1:] <= self.minutes[:-1]), 1)
        falling = any_by_precinct(same & (self.cumulative[1:] < self.cumulative[:-1]), 1)
        negative = any_by_precinct(self.cumulative < 0)
        over = np.zeros(n, dtype=bool)
        if official is not None:
            over[~short] = self.cumulative[self.starts[1:][~short] - 1] > official[~short]
        bad = np.flatnonzero(short | unordered | falling | negative | over)
        if bad.size == 0:
            return
        k = bad[0]
        pid = self.precinct_ids[k]
        if short[k]:
            raise EmptySeries(f"precinct {pid!r}: need at least 2 reports")
        if unordered[k]:
            raise InvariantViolation(pid, "report times must strictly increase")
        if falling[k]:
            raise InvariantViolation(pid, "cumulative counts must be non-decreasing")
        if negative[k]:
            raise InvariantViolation(pid, "cumulative counts must be non-negative")
        raise InvariantViolation(
            pid,
            f"last intraday count {int(self.cumulative[self.starts[k + 1] - 1])} "
            f"exceeds official ballots_cast {int(official[k])}",
        )


def parse_time(text: str, line_no: int) -> int:
    parts = text.split(":")
    if len(parts) != 2:
        raise MalformedRow(line_no, f"time must be HH:MM, got {text!r}")
    hh, mm = (parse_count(part, line_no, "time") for part in parts)
    if hh > 23 or mm > 59:
        raise MalformedRow(line_no, f"time out of range: {text!r}")
    return hh * 60 + mm


def _time_column(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The cells as minutes since midnight, and a mask of the cells that are not times, which hold -1."""
    minutes_of: dict[str, int] = {}  # each distinct time cell is parsed once
    for cell in set(cells):
        try:
            minutes_of[cell] = parse_time(cell, 0)
        except MalformedRow:
            minutes_of[cell] = -1
    minutes = np.fromiter(map(minutes_of.__getitem__, cells), dtype=np.int64, count=len(cells))
    return minutes, minutes < 0


TIME: Rule = (_time_column, lambda cell, line, column: parse_time(cell, line))


def format_time(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def parse_intraday(csv_text: str) -> IntradayTable:
    """Parse ``intraday.csv`` (precinct_id,time,cumulative_voted) into a checked table.

    Precincts keep the order of their first row, and each one's reports
    are sorted by time.  The first malformed row (see ``read_blocks``)
    is reported first; then the first faulty series, in precinct order.
    The rows are read ROW_BLOCK at a time; a row keeps its precinct and
    time as one sort key, not its id cell.
    """
    table = read_table(csv_text)
    if table.header != INTRADAY_HEADER:
        raise MalformedRow(1, "header must be precinct_id,time,cumulative_voted")
    index: dict[str, int] = {}
    keys = np.empty(table.max_rows, dtype=np.int64)
    counts = np.empty(table.max_rows, dtype=np.int64)
    n = 0
    for ids, minutes, cumulative in read_blocks(table, {0: TEXT, 1: TIME, 2: COUNT}):
        end = n + len(ids)
        keys[n:end] = _sort_keys(index, ids, minutes)
        counts[n:end] = cumulative
        n = end
    return _table(index, keys[:n], counts[:n])


def _sort_keys(index: dict[str, int], ids: Sequence[str], minutes: np.ndarray) -> np.ndarray:
    """Each report's precinct times MINUTES_PER_DAY plus its minutes; ``index`` numbers new ids in turn."""
    ids = np.asarray(ids, dtype=object)
    starts_run = np.ones(len(ids), dtype=bool)  # each run of one id is looked up once
    starts_run[1:] = ids[1:] != ids[:-1]
    runs = np.flatnonzero(starts_run)
    numbers = np.fromiter((index.setdefault(pid, len(index)) for pid in ids[runs].tolist()), dtype=np.int64,
                          count=len(runs))
    return np.repeat(numbers, np.diff(runs, append=len(ids))) * MINUTES_PER_DAY + minutes


def _table(index: dict[str, int], keys: np.ndarray, counts: np.ndarray) -> IntradayTable:
    """The checked table of the reports with these sort keys and counts; ``index`` numbers the ids.

    ``keys`` becomes the table's minutes in place.
    """
    # rows grouped by precinct and timed in order, as serialize_intraday writes them, need no sort
    if not (keys[1:] > keys[:-1]).all():
        order = np.lexsort((counts, keys))
        keys, counts = keys[order], counts[order]
    starts = np.searchsorted(keys, np.arange(len(index) + 1) * MINUTES_PER_DAY)
    minutes = np.remainder(keys, MINUTES_PER_DAY, out=keys)
    table = IntradayTable(np.fromiter(index, dtype=object, count=len(index)), starts, minutes, counts)
    table.__dict__["_index"] = index  # the ids numbered in order are the table's id index
    table.check()
    return table


def serialize_intraday(series_map: Mapping[str, IntradaySeries]) -> str:
    """``intraday.csv`` text: precincts sorted by id, each one's reports in its order.

    The rows are formatted ROW_BLOCK precincts at a time from slices of
    the table's arrays, so no temporary spans the whole table; the blocks
    are joined once.
    """
    table = IntradayTable.from_series(series_map)
    ids = table.precinct_ids
    if not (ids[1:] > ids[:-1]).all():  # a generated table is already in order
        order = sorted(range(len(ids)), key=ids.tolist().__getitem__)
        table = table.take(np.array(order, dtype=np.int64))
    blocks = [",".join(INTRADAY_HEADER) + "\n"]
    for first in range(0, len(table), ROW_BLOCK):
        blocks.extend(_intraday_rows(table, first))
    return "".join(blocks)


def _intraday_rows(table: IntradayTable, first: int) -> list[str]:
    """The rows of the ROW_BLOCK precincts from ``first``.

    The block's temporaries die on return, so none is alive while the
    blocks are joined.
    """
    starts = table.starts[first : first + ROW_BLOCK + 1]
    rows = slice(starts[0], starts[-1])
    quoted = np.asarray(csv_cells(table.precinct_ids[first : first + ROW_BLOCK].tolist()), dtype=object)
    distinct, which = np.unique(table.minutes[rows], return_inverse=True)  # a day has 1,440 minutes
    labels = np.array([format_time(m) for m in distinct.tolist()], dtype=object)
    return format_rows("%s,%s,%s\n", [np.repeat(quoted, np.diff(starts)), labels[which], table.cumulative[rows]])


@dataclass(frozen=True, eq=False)
class HyperactiveReport:
    """Final-increment flags of the precincts with intraday data, as columns in dataset order.

    ``increment`` is (final ballots - last intraday count) / registered and
    ``hot`` is ``increment > threshold``; the arrays are made read-only.
    """

    threshold: float
    skipped_missing_series: tuple[str, ...]
    precinct_ids: np.ndarray  # object array of str
    increment: np.ndarray  # float64
    turnout: np.ndarray  # float64
    leader_share_of_cast: np.ndarray  # float64, 0.0 where no ballot was cast
    hot: np.ndarray  # bool

    def __post_init__(self):
        for column in (self.precinct_ids, self.increment, self.turnout, self.leader_share_of_cast, self.hot):
            column.flags.writeable = False

    @property
    def flagged(self) -> tuple[str, ...]:
        """The hot precincts' ids, in dataset order."""
        return tuple(self.precinct_ids[self.hot].tolist())

    def as_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "flagged": list(self.flagged),
            "skipped_missing_series": list(self.skipped_missing_series),
            "rows": [
                {
                    "precinct_id": pid,
                    "increment": increment,
                    "turnout": turnout,
                    "leader_share_of_cast": share,
                    "flagged": hot,
                }
                for pid, increment, turnout, share, hot in zip(
                    self.precinct_ids.tolist(),
                    self.increment.tolist(),
                    self.turnout.tolist(),
                    self.leader_share_of_cast.tolist(),
                    self.hot.tolist(),
                )
            ],
        }


def flag_hyperactive(
    dataset: ElectionDataset,
    series_map: Mapping[str, IntradaySeries],
    threshold: float = DEFAULT_HYPERACTIVE_THRESHOLD,
) -> HyperactiveReport:
    """Flag precincts whose final increment strictly exceeds the threshold.

    Precincts without intraday data are skipped (and reported as such), not
    treated as errors: real feeds are incomplete.
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    c = dataset.counts()
    table = IntradayTable.from_series(series_map)
    at = table.positions(c.precinct_ids)
    has = at >= 0
    joined = table.take(at[has])
    cast = c.ballots_cast[has]
    registered = c.registered[has]
    joined.check(official=cast)  # raises the first faulty series' error, in dataset order
    last = joined.cumulative[joined.starts[1:] - 1]  # every checked series has 2+ reports
    increment = (cast - last) / registered
    # (turnout, leader share of cast), the share 0.0 where no ballot was cast
    points = build_points(dataset, dataset.designated_leader, "share_of_cast")
    return HyperactiveReport(
        threshold=threshold,
        skipped_missing_series=tuple(c.precinct_ids[~has].tolist()),
        precinct_ids=c.precinct_ids[has],
        increment=increment,
        turnout=points.x[has],
        leader_share_of_cast=points.y[has],
        hot=increment > threshold,
    )
