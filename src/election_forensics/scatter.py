"""Turnout-vs-share point clouds and their linear trends.

Each precinct contributes one point per party: x is turnout, y is either
the party's share of registered voters (the default, which makes stuffing
show up as motion along the 45-degree direction) or its share of ballots
cast.  The pseudo-party ``others`` aggregates every non-leader party.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .dataset import ElectionDataset
from .errors import DegenerateX, UnknownParty

OTHERS = "others"

Y_MODES = ("share_of_registered", "share_of_cast")


class ScatterPoint(NamedTuple):
    precinct_id: str
    x: float
    y: float
    weight: int  # registered voters


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Points as read-only columns, one entry per point.

    ``precinct_ids`` is an object array of ``str``, ``x`` and ``y`` are
    float64 and ``weight`` (registered voters) is int64.  Iterating a
    cloud builds its ``ScatterPoint``s one at a time.
    """

    precinct_ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        for column in (self.precinct_ids, self.x, self.y, self.weight):
            if column.shape != self.x.shape or column.ndim != 1:
                raise ValueError("point columns must be 1-D and of one length")
            column.flags.writeable = False

    @classmethod
    def of(cls, points: "PointCloud | Sequence[ScatterPoint]") -> "PointCloud":
        """A cloud of the points; a cloud is returned as is."""
        if isinstance(points, PointCloud):
            return points
        n = len(points)
        return cls(
            np.fromiter((p.precinct_id for p in points), dtype=object, count=n),
            np.fromiter((p.x for p in points), dtype=np.float64, count=n),
            np.fromiter((p.y for p in points), dtype=np.float64, count=n),
            np.fromiter((p.weight for p in points), dtype=np.int64, count=n),
        )

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self) -> Iterator[ScatterPoint]:
        columns = (self.precinct_ids, self.x, self.y, self.weight)
        return map(ScatterPoint, *(column.tolist() for column in columns))

    def take(self, rows: np.ndarray) -> "PointCloud":
        """The cloud of the points at ``rows`` (an index array or boolean mask), in that order."""
        return PointCloud(self.precinct_ids[rows], self.x[rows], self.y[rows], self.weight[rows])

    def xy(self) -> np.ndarray:
        """The ``(n, 2)`` array of (x, y) rows."""
        return np.column_stack((self.x, self.y))


class TrendFit(NamedTuple):
    slope: float
    intercept: float
    residual_rms: float
    point_count: int


def build_points(
    dataset: ElectionDataset,
    party: str,
    y_mode: str = "share_of_registered",
) -> PointCloud:
    """One point per precinct for ``party`` (or ``others``), in dataset order.

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
    return PointCloud(c.precinct_ids, x, y, c.registered)


def _pow2(d: np.ndarray) -> np.ndarray:
    """Each element's ``math.pow(d, 2.0)``: libm ``pow``, as Python's ``d ** 2`` computes it.

    numpy's ``d ** 2`` and ``d * d`` differ from libm in the last bit of
    some elements.
    """
    return np.fromiter(map(math.pow, d.tolist(), repeat(2.0)), dtype=np.float64, count=len(d))


def sum_left_to_right(a: np.ndarray) -> float:
    """The elements added one by one, left to right, from 0.0: the library's one rule for a float total.

    A sequential ``cumsum``; adding 0.0 turns its -0.0 into the 0.0 that
    ``0.0 + -0.0`` gives.  This is how the builtin ``sum`` adds floats up
    to Python 3.11; from 3.12 on ``sum`` compensates its rounding, so its
    totals would change with the Python version, and these do not.
    """
    return float(np.cumsum(a)[-1]) + 0.0 if len(a) else 0.0


def fit_trend(points: PointCloud | Sequence[ScatterPoint], weighting: str = "uniform") -> TrendFit:
    """Least-squares line y = slope*x + intercept over the cloud.

    weighting="by_registered" weights each point by its registered count,
    so large precincts dominate the fit.  The results are bit for bit those
    of loops over Python floats (``tests/reference_loops.py``): products
    and differences elementwise, squares by libm ``pow`` and sums added
    left to right (``_pow2``, ``sum_left_to_right``), on every Python version.
    """
    if weighting not in ("uniform", "by_registered"):
        raise ValueError(f"unknown weighting {weighting!r}")
    n = len(points)
    if n < 2:
        raise DegenerateX("need at least 2 points to fit a trend")
    cloud = PointCloud.of(points)
    x, y = cloud.x, cloud.y
    w = np.ones(n) if weighting == "uniform" else cloud.weight.astype(np.float64)
    sw = sum_left_to_right(w)
    mx = sum_left_to_right(w * x) / sw
    my = sum_left_to_right(w * y) / sw
    dx = x - mx
    sxx = sum_left_to_right(w * _pow2(dx))
    if sxx == 0.0:
        raise DegenerateX("all x values identical; slope undefined")
    sxy = sum_left_to_right(w * dx * (y - my))
    slope = sxy / sxx
    intercept = my - slope * mx
    rss = sum_left_to_right(w * _pow2(y - (slope * x + intercept)))
    return TrendFit(slope, intercept, math.sqrt(rss / sw), n)


def slope_standard_error(points: PointCloud | Sequence[ScatterPoint], fit: TrendFit) -> float:
    """Classical OLS standard error of the slope (uniform weights).

    Raises DegenerateX when the x values' uniform spread sxx is 0, which a
    fit by registered weight can miss.
    """
    n = len(points)
    if n <= 2:
        return float("inf")
    cloud = PointCloud.of(points)
    x, y = cloud.x, cloud.y
    sxx = sum_left_to_right(_pow2(x - sum_left_to_right(x) / n))
    if sxx == 0.0:
        raise DegenerateX("all x values identical; slope undefined")
    rss = sum_left_to_right(_pow2(y - (fit.slope * x + fit.intercept)))
    return math.sqrt(rss / (n - 2) / sxx)
