"""Turnout-vs-share point clouds and their linear trends.

Each precinct contributes one point per party: x is turnout, y is either
the party's share of registered voters (the default, which makes stuffing
show up as motion along the 45-degree direction) or its share of ballots
cast.  The pseudo-party ``others`` aggregates every non-leader party.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import ElectionDataset
from .errors import DegenerateX, UnknownParty

OTHERS = "others"

Y_MODES = ("share_of_registered", "share_of_cast")


@dataclass(frozen=True)
class ScatterPoint:
    precinct_id: str
    x: float
    y: float
    weight: int  # registered voters


@dataclass(frozen=True)
class TrendFit:
    slope: float
    intercept: float
    residual_rms: float
    point_count: int


def build_points(
    dataset: ElectionDataset,
    party: str,
    y_mode: str = "share_of_registered",
) -> list[ScatterPoint]:
    """One point per precinct for ``party`` (or ``others``).

    For y_mode="share_of_cast" a precinct with no ballots contributes y=0.
    """
    if y_mode not in Y_MODES:
        raise ValueError(f"y_mode must be one of {Y_MODES}, got {y_mode!r}")
    if party == OTHERS:
        idxs = [i for i, p in enumerate(dataset.roster.ids) if p != dataset.designated_leader]
    elif party in dataset.roster.ids:
        idxs = [dataset.roster.index(party)]
    else:
        raise UnknownParty(f"party {party!r} not in roster and not {OTHERS!r}")

    c = dataset.counts()
    votes = c.votes[:, idxs].sum(axis=1)
    x = c.ballots_cast / c.registered
    if y_mode == "share_of_registered":
        y = votes / c.registered
    else:
        y = np.divide(votes, c.ballots_cast, out=np.zeros(len(c)), where=c.ballots_cast > 0)
    return [
        ScatterPoint(pid, xi, yi, weight)
        for pid, xi, yi, weight in zip(c.precinct_ids.tolist(), x.tolist(), y.tolist(), c.registered.tolist())
    ]


def fit_trend(points: Sequence[ScatterPoint], weighting: str = "uniform") -> TrendFit:
    """Least-squares line y = slope*x + intercept over the cloud.

    weighting="by_registered" weights each point by its registered count,
    so large precincts dominate the fit.
    """
    if weighting not in ("uniform", "by_registered"):
        raise ValueError(f"unknown weighting {weighting!r}")
    n = len(points)
    if n < 2:
        raise DegenerateX("need at least 2 points to fit a trend")
    if weighting == "uniform":
        w = [1.0] * n
    else:
        w = [float(p.weight) for p in points]
    sw = sum(w)
    mx = sum(wi * p.x for wi, p in zip(w, points)) / sw
    my = sum(wi * p.y for wi, p in zip(w, points)) / sw
    sxx = sum(wi * (p.x - mx) ** 2 for wi, p in zip(w, points))
    if sxx == 0.0:
        raise DegenerateX("all x values identical; slope undefined")
    sxy = sum(wi * (p.x - mx) * (p.y - my) for wi, p in zip(w, points))
    slope = sxy / sxx
    intercept = my - slope * mx
    rss = sum(wi * (p.y - (slope * p.x + intercept)) ** 2 for wi, p in zip(w, points))
    return TrendFit(slope, intercept, math.sqrt(rss / sw), n)


def slope_standard_error(points: Sequence[ScatterPoint], fit: TrendFit) -> float:
    """Classical OLS standard error of the slope (uniform weights)."""
    n = len(points)
    if n <= 2:
        return float("inf")
    mx = sum(p.x for p in points) / n
    sxx = sum((p.x - mx) ** 2 for p in points)
    rss = sum((p.y - (fit.slope * p.x + fit.intercept)) ** 2 for p in points)
    return math.sqrt(rss / (n - 2) / sxx)
