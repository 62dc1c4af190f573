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

import csv
import io
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dataset import ElectionDataset, parse_count, read_csv
from .errors import EmptySeries, InvariantViolation, MalformedRow

DEFAULT_HYPERACTIVE_THRESHOLD = 0.13


@dataclass(frozen=True)
class IntradaySeries:
    """Ordered intraday reports plus the final official ballot count, when joined."""

    precinct_id: str
    reports: tuple[tuple[int, int], ...]  # (minutes since midnight, cumulative voters)
    official_cast: int | None = None

    def validate(self) -> None:
        if len(self.reports) < 2:
            raise EmptySeries(f"precinct {self.precinct_id!r}: need at least 2 reports")
        times = [t for t, _ in self.reports]
        counts = [c for _, c in self.reports]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvariantViolation(self.precinct_id, "report times must strictly increase")
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise InvariantViolation(self.precinct_id, "cumulative counts must be non-decreasing")
        if any(c < 0 for c in counts):
            raise InvariantViolation(self.precinct_id, "cumulative counts must be non-negative")
        if self.official_cast is not None and counts[-1] > self.official_cast:
            raise InvariantViolation(
                self.precinct_id,
                f"last intraday count {counts[-1]} exceeds official ballots_cast {self.official_cast}",
            )

    def with_official(self, official_cast: int) -> "IntradaySeries":
        series = IntradaySeries(self.precinct_id, self.reports, official_cast)
        series.validate()
        return series


def parse_time(text: str, line_no: int) -> int:
    parts = text.split(":")
    if len(parts) != 2:
        raise MalformedRow(line_no, f"time must be HH:MM, got {text!r}")
    hh, mm = (parse_count(part, line_no, "time") for part in parts)
    if hh > 23 or mm > 59:
        raise MalformedRow(line_no, f"time out of range: {text!r}")
    return hh * 60 + mm


def format_time(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def parse_intraday(csv_text: str) -> dict[str, IntradaySeries]:
    """Parse ``intraday.csv`` (precinct_id,time,cumulative_voted) into series."""
    header, lines = read_csv(csv_text)
    if header != ["precinct_id", "time", "cumulative_voted"]:
        raise MalformedRow(1, "header must be precinct_id,time,cumulative_voted")
    rows: dict[str, list[tuple[int, int]]] = {}
    for line_no, row in lines:
        if len(row) != 3:
            raise MalformedRow(line_no, f"expected 3 fields, got {len(row)}")
        minutes = parse_time(row[1], line_no)
        voted = parse_count(row[2], line_no, "cumulative_voted")
        rows.setdefault(row[0].strip(), []).append((minutes, voted))
    out: dict[str, IntradaySeries] = {}
    for pid, reports in rows.items():
        reports.sort()
        series = IntradaySeries(pid, tuple(reports))
        series.validate()
        out[pid] = series
    return out


def serialize_intraday(series_map: Mapping[str, IntradaySeries]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["precinct_id", "time", "cumulative_voted"])
    for pid in sorted(series_map):
        for minutes, count in series_map[pid].reports:
            writer.writerow([pid, format_time(minutes), count])
    return out.getvalue()


def final_increment(series: IntradaySeries, registered: int) -> float:
    """Fraction of registered voters appearing only in the final official count."""
    if len(series.reports) < 2:
        raise EmptySeries(f"precinct {series.precinct_id!r}: need at least 2 reports")
    if series.official_cast is None:
        raise EmptySeries(f"precinct {series.precinct_id!r}: official ballot count not joined")
    last = series.reports[-1][1]
    return (series.official_cast - last) / registered


@dataclass(frozen=True)
class HyperactiveRow:
    precinct_id: str
    increment: float
    turnout: float
    leader_share_of_cast: float
    flagged: bool


@dataclass(frozen=True)
class HyperactiveReport:
    threshold: float
    flagged: tuple[str, ...]
    skipped_missing_series: tuple[str, ...]
    rows: tuple[HyperactiveRow, ...]

    def as_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "flagged": list(self.flagged),
            "skipped_missing_series": list(self.skipped_missing_series),
            "rows": [
                {
                    "precinct_id": r.precinct_id,
                    "increment": r.increment,
                    "turnout": r.turnout,
                    "leader_share_of_cast": r.leader_share_of_cast,
                    "flagged": r.flagged,
                }
                for r in self.rows
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
    has = np.fromiter((pid in series_map for pid in c.precinct_ids.tolist()), dtype=bool, count=len(c))
    ids = c.precinct_ids[has].tolist()
    series = [series_map[pid] for pid in ids]
    cast = c.ballots_cast[has]
    registered = c.registered[has]
    for s, official in zip(series, cast.tolist()):
        s.with_official(official)  # raises the first faulty series' validation error
    last = np.fromiter((s.reports[-1][1] for s in series), dtype=np.int64, count=len(series))
    increment = (cast - last) / registered
    turnout = cast / registered
    share = np.divide(c.votes[has, dataset.leader_index], cast, out=np.zeros(len(ids)), where=cast > 0)
    hot = increment > threshold
    return HyperactiveReport(
        threshold=threshold,
        flagged=tuple(pid for pid, is_hot in zip(ids, hot.tolist()) if is_hot),
        skipped_missing_series=tuple(c.precinct_ids[~has].tolist()),
        rows=tuple(
            HyperactiveRow(*row)
            for row in zip(ids, increment.tolist(), turnout.tolist(), share.tolist(), hot.tolist())
        ),
    )
