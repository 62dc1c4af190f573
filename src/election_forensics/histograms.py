"""Integer-percent histograms and the per-party vote mass by turnout bin.

Percent binning is done in exact integer arithmetic: the percentage of a
count pair (numer, denom) lands in bin ``floor((200*numer + denom) / (2*denom))``,
which is round-half-up of ``100*numer/denom`` without any floating-point
step.  Peak tests are sensitive to the rounding rule, so it is fixed here
and used identically by the observed histogram and the Monte-Carlo null.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dataset import ElectionDataset
from .errors import BadBinWidth, UnknownParty

N_PERCENT_BINS = 101  # integer percents 0..100
# Finer turnout bins than 1/10,000 hold no more information for any real
# precinct, and a table of many millions of bins exhausts memory.
MAX_TURNOUT_BINS = 10_000

WEIGHT_MODES = ("precincts", "registered", "ballots")

QUANTITY_TURNOUT = "turnout"
QUANTITY_LEADER_SHARE = "leader_share"
SHARE_PREFIX = "share:"


def percent_bins(numer: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Integer percent bin of numer/denom, rounded half-up, exact; ``denom`` broadcasts against ``numer``."""
    numer = np.asarray(numer, dtype=np.int64)
    denom = np.asarray(denom, dtype=np.int64)
    bins = numer * 200
    bins += denom
    bins //= 2 * denom
    return bins


def resolve_quantity(dataset: ElectionDataset, quantity: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (numerators, denominators, included mask) for a histogram quantity.

    Quantities: ``turnout`` (ballots_cast / registered; zero-cast precincts
    included at bin 0), ``leader_share`` or ``share:<party>`` (votes /
    ballots_cast; zero-cast precincts excluded).
    """
    arrays = dataset.counts()
    if quantity == QUANTITY_TURNOUT:
        return arrays.ballots_cast, arrays.registered, np.ones(len(dataset), dtype=bool)
    if quantity == QUANTITY_LEADER_SHARE:
        party_idx = dataset.leader_index
    elif quantity.startswith(SHARE_PREFIX):
        party_idx = dataset.roster.index(quantity[len(SHARE_PREFIX) :])
    else:
        raise UnknownParty(f"unknown quantity {quantity!r}")
    mask = arrays.ballots_cast > 0
    denom = np.where(mask, arrays.ballots_cast, 1)  # placeholder for excluded rows
    return arrays.votes[:, party_idx], denom, mask


class IntegerPercentHistogram(NamedTuple):
    quantity: str
    weight_mode: str
    bins: tuple[int, ...]  # length 101, index = integer percent

    def total(self) -> int:
        return sum(self.bins)


def weights_for(dataset: ElectionDataset, weight_mode: str) -> np.ndarray:
    arrays = dataset.counts()
    if weight_mode == "precincts":
        return np.ones(len(dataset), dtype=np.int64)
    if weight_mode == "registered":
        return arrays.registered
    if weight_mode == "ballots":
        return arrays.ballots_cast
    raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}, got {weight_mode!r}")


def bincount_percent(
    bins: np.ndarray, weights: np.ndarray | None = None, length: int = N_PERCENT_BINS
) -> np.ndarray:
    """Total weight in each of the bins 0..length-1, summed exactly in int64.

    ``bins`` is 1-D; ``weights``, when given, is an int64 array of the same
    length, and without it every entry counts one.
    """
    if weights is None:
        return np.bincount(bins, minlength=length)
    counts = np.zeros(length, dtype=np.int64)
    np.add.at(counts, bins, weights)
    return counts


def integer_percent_histogram(
    dataset: ElectionDataset,
    quantity: str,
    weight_mode: str = "precincts",
) -> IntegerPercentHistogram:
    """Histogram over integer percents 0..100 weighted by precincts/voters."""
    numer, denom, mask = resolve_quantity(dataset, quantity)
    weights = weights_for(dataset, weight_mode)
    bins = percent_bins(numer[mask], denom[mask])
    counts = bincount_percent(bins, weights[mask])
    return IntegerPercentHistogram(quantity, weight_mode, tuple(int(c) for c in counts))


class TurnoutBinTable(NamedTuple):
    """Per-party vote totals aggregated in fixed-width turnout bins.

    All the votes of a precinct land in the single bin containing its
    turnout, so every per-party column sums exactly to the dataset total.
    """

    bin_width: float
    parties: tuple[str, ...]
    leader: str
    votes: tuple[tuple[int, ...], ...]  # [bin][party]
    precinct_counts: tuple[int, ...]
    ballots: tuple[int, ...]  # total ballots cast per bin

    @property
    def n_bins(self) -> int:
        return len(self.precinct_counts)

    def bin_bounds(self, b: int) -> tuple[float, float]:
        return b * self.bin_width, (b + 1) * self.bin_width

    def ballots_total(self) -> int:
        return sum(self.ballots)


def turnout_bin_index(cast: np.ndarray, registered: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin of turnout = cast/registered in exact integers; turnout 1.0 joins the last bin."""
    idx = (np.asarray(cast, dtype=np.int64) * n_bins) // np.asarray(registered, dtype=np.int64)
    return np.minimum(idx, n_bins - 1)


def turnout_bin_table(dataset: ElectionDataset, bin_width: float = 0.01) -> TurnoutBinTable:
    if not 0 < bin_width <= 1:  # NaN too
        raise BadBinWidth(f"bin_width must be in (0, 1], got {bin_width}")
    n_bins_f = 1.0 / bin_width
    if n_bins_f > MAX_TURNOUT_BINS + 0.5:
        raise BadBinWidth(f"bin_width {bin_width} gives more than {MAX_TURNOUT_BINS} bins")
    n_bins = round(n_bins_f)
    if abs(n_bins_f - n_bins) > 1e-9:
        raise BadBinWidth(f"bin_width {bin_width} does not divide 1.0 evenly")
    arrays = dataset.counts()
    idx = turnout_bin_index(arrays.ballots_cast, arrays.registered, n_bins)
    n_parties = len(dataset.roster)
    votes = np.zeros((n_bins, n_parties), dtype=np.int64)
    np.add.at(votes, idx, arrays.votes)
    precincts = np.bincount(idx, minlength=n_bins).astype(np.int64)
    ballots = np.zeros(n_bins, dtype=np.int64)
    np.add.at(ballots, idx, arrays.ballots_cast)
    return TurnoutBinTable(
        bin_width=bin_width,
        parties=dataset.roster.ids,
        leader=dataset.designated_leader,
        votes=tuple(tuple(int(v) for v in row) for row in votes),
        precinct_counts=tuple(int(c) for c in precincts),
        ballots=tuple(int(b) for b in ballots),
    )
