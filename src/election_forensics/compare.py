"""Matched-subset contrasts and cross-source consistency checks.

Covers four comparisons analysts run on precinct data:

* machine-counted vs hand-counted subsets (aggregate shares, turnout, and a
  two-sample KS distance between the turnout distributions),
* the same units across two elections (delta table in percent points),
* observer-protocol copies vs officially published numbers (displacement
  in the (turnout, leader share) plane),
* two simultaneous contests at the same precincts (large vote gaps).

Aggregate shares are totals over the subset (total votes / total ballots),
matching how observers quote subset results, not means of per-precinct
shares.  Delta-table percents are carried as exact decimals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .dataset import (
    COUNT,
    TEXT,
    DatasetArrays,
    ElectionDataset,
    Rule,
    Rules,
    no_tags,
    read_columns,
    read_table,
    two_valued,
    vote_roster,
)
from .errors import (
    MalformedRow,
    PairMismatch,
    RosterMismatch,
    UnitMismatch,
    UnknownParty,
)
from .scatter import build_points, sum_left_to_right


def ks_statistic(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov distance: sup |F_x - F_y| over the data.

    Both empirical CDFs are evaluated at every pooled sample value, each a
    count of the values at or below it divided by the sample size.
    """
    nx, ny = len(xs), len(ys)
    if nx == 0 or ny == 0:
        raise ValueError("both samples must be non-empty")
    sx = np.sort(np.asarray(xs, dtype=np.float64))
    sy = np.sort(np.asarray(ys, dtype=np.float64))
    pooled = np.concatenate((sx, sy))
    fx = np.searchsorted(sx, pooled, side="right") / nx
    fy = np.searchsorted(sy, pooled, side="right") / ny
    return float(np.abs(fx - fy).max())


class SubsetContrast(NamedTuple):
    label_a: str
    label_b: str
    parties: tuple[str, ...]
    share_of_cast_a: tuple[float, ...]
    share_of_cast_b: tuple[float, ...]
    turnout_a: float
    turnout_b: float
    share_diff_points: tuple[float, ...]  # (b - a) * 100 per party
    turnout_ks: float

    def as_dict(self) -> dict:
        return {
            "labels": [self.label_a, self.label_b],
            "turnout": {self.label_a: self.turnout_a, self.label_b: self.turnout_b},
            "share_of_cast": {
                self.label_a: dict(zip(self.parties, self.share_of_cast_a)),
                self.label_b: dict(zip(self.parties, self.share_of_cast_b)),
            },
            "share_diff_points": dict(zip(self.parties, self.share_diff_points)),
            "turnout_ks": self.turnout_ks,
        }


def _aggregate(dataset: ElectionDataset) -> tuple[tuple[float, ...], float, np.ndarray]:
    arrays = dataset.counts()
    total_cast = int(arrays.ballots_cast.sum())
    total_reg = int(arrays.registered.sum())
    votes = arrays.votes.sum(axis=0)
    shares = tuple((int(v) / total_cast if total_cast else 0.0) for v in votes)
    turnout = total_cast / total_reg if total_reg else 0.0
    return shares, turnout, arrays.ballots_cast / arrays.registered


def subset_contrast(
    a: ElectionDataset,
    b: ElectionDataset,
    label_a: str = "a",
    label_b: str = "b",
) -> SubsetContrast:
    """Aggregate share/turnout contrast plus KS distance of turnout distributions."""
    if a.roster.ids != b.roster.ids:
        raise RosterMismatch(f"rosters differ: {a.roster.ids} vs {b.roster.ids}")
    shares_a, turnout_a, turnouts_a = _aggregate(a)
    shares_b, turnout_b, turnouts_b = _aggregate(b)
    ks = ks_statistic(turnouts_a, turnouts_b) if len(turnouts_a) and len(turnouts_b) else 0.0
    return SubsetContrast(
        label_a=label_a,
        label_b=label_b,
        parties=a.roster.ids,
        share_of_cast_a=shares_a,
        share_of_cast_b=shares_b,
        turnout_a=turnout_a,
        turnout_b=turnout_b,
        share_diff_points=tuple((sb - sa) * 100.0 for sa, sb in zip(shares_a, shares_b)),
        turnout_ks=ks,
    )


class DeltaRow(NamedTuple):
    """Share/turnout change for one unit between elections A (older) and B (newer)."""

    unit: str
    share_b: Decimal
    share_a: Decimal
    turnout_b: Decimal
    turnout_a: Decimal
    d_share: Decimal
    d_turnout: Decimal

    def as_dict(self) -> dict:
        return {name: str(value) for name, value in self._asdict().items()}


UnitEntry = tuple[str, Decimal | str | float, Decimal | str | float]


def _as_decimal(v) -> Decimal:
    if isinstance(v, Decimal):
        return v
    return Decimal(str(v))


def _unit_map(table: Iterable[UnitEntry], name: str) -> dict[str, tuple[Decimal, Decimal]]:
    out: dict[str, tuple[Decimal, Decimal]] = {}
    for unit, share, turnout in table:
        if unit in out:
            raise UnitMismatch(f"unit {unit!r} appears more than once in table {name}")
        out[unit] = (_as_decimal(share), _as_decimal(turnout))
    return out


def cross_election_delta(
    table_a: Iterable[UnitEntry],
    table_b: Iterable[UnitEntry],
) -> list[DeltaRow]:
    """Join two (unit, share%, turnout%) tables by unit and compute B - A deltas."""
    a_map = _unit_map(table_a, "A")
    b_map = _unit_map(table_b, "B")
    if set(a_map) != set(b_map):
        only_a = sorted(set(a_map) - set(b_map))
        only_b = sorted(set(b_map) - set(a_map))
        raise UnitMismatch(f"units differ: only in A {only_a}, only in B {only_b}")
    rows = []
    for unit in a_map:
        sa, ta = a_map[unit]
        sb, tb = b_map[unit]
        rows.append(
            DeltaRow(
                unit=unit,
                share_b=sb,
                share_a=sa,
                turnout_b=tb,
                turnout_a=ta,
                d_share=sb - sa,
                d_turnout=tb - ta,
            )
        )
    rows.sort(key=lambda r: r.unit)
    return rows


DELTA_COLUMNS = ("unit", "share_b", "share_a", "turnout_b", "turnout_a")
_PERCENT = re.compile(r"[0-9]+(\.[0-9]+)?")


def _parse_percent(cell: str, line: int, column: str) -> Decimal:
    text = cell.strip()
    if not _PERCENT.fullmatch(text):
        raise MalformedRow(line, f"column {column!r}: {cell!r} is not a percent like 12 or 12.34")
    return Decimal(text)


def _percent_column(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The cells as Decimals, and a mask of the cells that are not percents, which hold None."""
    values = [Decimal(text) if _PERCENT.fullmatch(text) else None for text in map(str.strip, cells)]
    return np.array(values, dtype=object), np.array([value is None for value in values], dtype=bool)


PERCENT: Rule = (_percent_column, _parse_percent)


def parse_delta_table(csv_text: str) -> tuple[list[UnitEntry], list[UnitEntry]]:
    """Parse ``unit,share_b,share_a,turnout_b,turnout_a`` rows (percents) into tables A and B."""
    table = read_table(csv_text)
    if tuple(table.header) != DELTA_COLUMNS:
        raise MalformedRow(1, f"header must be {','.join(DELTA_COLUMNS)}")
    rules = {0: TEXT, **dict.fromkeys(range(1, len(DELTA_COLUMNS)), PERCENT)}
    values = read_columns(table, rules, repeat=((0,), "duplicate unit {!r}"))
    units, share_b, share_a, turnout_b, turnout_a = (v.tolist() for v in values)
    return list(zip(units, share_a, turnout_a)), list(zip(units, share_b, turnout_b))


@dataclass(frozen=True, eq=False)
class ProtocolDisplacements:
    """Official-minus-observer displacement in the (turnout, leader share of cast) plane.

    Row k of each read-only ``(precincts, 2)`` array belongs to precinct
    ``precinct_ids[k]``.  The means are the rows added in order
    (``sum_left_to_right``), divided by their count (0.0 with no rows).
    """

    precinct_ids: np.ndarray  # object array of str
    observer: np.ndarray  # float64 (turnout, leader share of cast) per observer copy
    official: np.ndarray  # the same per official data
    displacement: np.ndarray  # official - observer
    mean_d_turnout: float
    mean_d_leader_share: float

    def __post_init__(self):
        for column in (self.precinct_ids, self.observer, self.official, self.displacement):
            column.flags.writeable = False

    def as_dict(self) -> dict:
        return {
            "pairs": len(self.precinct_ids),
            "mean_d_turnout": self.mean_d_turnout,
            "mean_d_leader_share": self.mean_d_leader_share,
            "displacements": [
                {"precinct_id": pid, "observer": src, "official": dst, "displacement": d}
                for pid, src, dst, d in zip(
                    self.precinct_ids.tolist(),
                    self.observer.tolist(),
                    self.official.tolist(),
                    self.displacement.tolist(),
                )
            ],
        }


def protocol_displacements(observer: ElectionDataset, official: ElectionDataset) -> ProtocolDisplacements:
    """Displacement official-minus-observer per precinct, plus the mean vector.

    Row k of ``observer`` is paired with row k of ``official``: both must
    hold the same precinct ids in the same order, with the same registered
    counts.  Each side's leader share uses its own leader.
    """
    a, b = observer.counts(), official.counts()
    n = len(a)
    if len(b) != n:
        raise PairMismatch(f"{n} observer precincts vs {len(b)} official ones")
    apart = np.flatnonzero(a.precinct_ids != b.precinct_ids)
    if apart.size:
        k = apart[0]
        raise PairMismatch(f"paired records disagree on id: {a.precinct_ids[k]!r} vs {b.precinct_ids[k]!r}")
    differs = np.flatnonzero(a.registered != b.registered)
    if differs.size:
        k = differs[0]
        raise PairMismatch(
            f"precinct {a.precinct_ids[k]!r}: registered differs ({a.registered[k]} vs {b.registered[k]})"
        )
    # (turnout, leader share of cast), the share 0.0 where no ballot was cast
    src, dst = (build_points(d, d.designated_leader, "share_of_cast").xy() for d in (observer, official))
    displacement = dst - src
    # the rows added in order: numpy's pairwise sum rounds differently
    d_turnout, d_share = (sum_left_to_right(column) / n if n else 0.0 for column in displacement.T)
    return ProtocolDisplacements(a.precinct_ids, src, dst, displacement, d_turnout, d_share)


PROTOCOL_COLUMNS = ("precinct_id", "source", "registered", "ballots_cast", "invalid")


def parse_protocols(csv_text: str, leader: str) -> tuple[ElectionDataset, ElectionDataset]:
    """Parse protocols.csv into (observer, official) datasets.

    Format: ``precinct_id,source,registered,ballots_cast,invalid,votes_<party>...``
    with source in {observer, official}; each precinct must appear once per
    source.  The two datasets share one roster and leader and hold the same
    precincts, sorted by id.  The error reported is the first one in file
    order, as ``read_blocks`` finds it; a repeated row is a MalformedRow,
    and a precinct with one source's row only a PairMismatch.
    """
    table = read_table(csv_text)
    roster = vote_roster(table.header, PROTOCOL_COLUMNS, leader, UnknownParty)
    rules: Rules = {0: TEXT, 1: two_valued("observer", "official"), tuple(range(2, len(table.header))): COUNT}

    def columns(values: list, end: int) -> DatasetArrays:
        ids, _, counts = (v[:end] for v in values)
        blank = np.full(end, "", dtype=object)
        return DatasetArrays(ids, blank, blank, *counts.T[:3], np.zeros(end, dtype=bool), counts[:, 3:], no_tags(end))

    values = read_columns(table, rules, repeat=((1, 0), "duplicate {} row for {!r}"), columns=columns)
    data = columns(values, len(values[0]))
    official = values[1]

    pids = data.precinct_ids
    # Python's sort of the ids; a numpy argsort of an object array compares far more slowly
    by_id = np.array(sorted(range(len(pids)), key=pids.tolist().__getitem__), dtype=np.int64)
    # a (source, id) never repeats, so a precinct's two rows are neighbours once sorted
    sorted_ids = pids[by_id]
    same = sorted_ids[1:] == sorted_ids[:-1]
    paired = np.zeros(len(pids), dtype=bool)
    paired[1:] = same
    paired[:-1] |= same
    if not paired.all():
        raise PairMismatch(f"precincts missing a counterpart: {sorted_ids[~paired].tolist()}")
    official_rows = official[by_id]
    return (
        ElectionDataset("observer", roster, data.take(by_id[~official_rows]), leader),
        ElectionDataset("official", roster, data.take(by_id[official_rows]), leader),
    )


class PairedScanResult(NamedTuple):
    party: str
    threshold: int
    a_over_b: tuple[tuple[str, int], ...]  # (precinct_id, gap)
    b_over_a: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict:
        return {
            "party": self.party,
            "threshold": self.threshold,
            "a_over_b": [{"precinct_id": p, "gap": g} for p, g in self.a_over_b],
            "b_over_a": [{"precinct_id": p, "gap": g} for p, g in self.b_over_a],
            "counts": {"a_over_b": len(self.a_over_b), "b_over_a": len(self.b_over_a)},
        }


def paired_contest_scan(
    records_a: ElectionDataset,
    records_b: ElectionDataset,
    threshold: int = 300,
    party: str | None = None,
) -> PairedScanResult:
    """Precincts where one contest's party total beats the other's by > threshold >= 0.

    Defaults to the leader of dataset A; both contests must field that party.
    Only precinct ids present in both datasets are scanned.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    party = party or records_a.designated_leader
    ia = records_a.roster.index(party)
    ib = records_b.roster.index(party)
    a, b = records_a.counts(), records_b.counts()
    common, rows_a, rows_b = np.intersect1d(
        a.precinct_ids, b.precinct_ids, assume_unique=True, return_indices=True
    )
    gap = a.votes[rows_a, ia] - b.votes[rows_b, ib]
    a_over = gap > threshold
    b_over = -gap > threshold
    return PairedScanResult(
        party,
        threshold,
        tuple(zip(common[a_over].tolist(), gap[a_over].tolist())),
        tuple(zip(common[b_over].tolist(), (-gap[b_over]).tolist())),
    )
