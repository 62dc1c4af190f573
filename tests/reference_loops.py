"""Earlier or plainer forms of five array computations, kept as a test reference.

``em_batch_by_restart`` fits a split's EM restarts one after another, each
on its own (2, n) rows, where the library fits a batch of them together
as (r, 2, n) arrays.  ``round_to_targets_by_row`` walks the rounded
precincts one at a time in exact Python integers, where the library lays
their candidate targets out as a matrix.  ``generate_honest_whole_election``
draws the intraday curves' parameters into whole-election arrays and
computes every curve at once, where the library computes each block's
curves inside its draw loop.  ``fit_trend_by_point`` and
``slope_standard_error_by_point`` sum over the points as Python floats,
where the library sums arrays.  The tests in ``test_anomaly.py``,
``test_synth.py`` and ``test_scatter.py`` require both forms to give the
same bits.  ``poisson_binomial_by_factor`` multiplies a Poisson-binomial
law out one Bernoulli factor at a time, over every count, where the
library inverts its characteristic function on a window; the tests in
``test_poisson_binomial.py`` and ``test_peaks.py`` compare the two.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from typing import Sequence

import numpy as np

from election_forensics import anomaly
from election_forensics.errors import DegenerateX
from election_forensics.dataset import DatasetArrays, ElectionDataset, PartyRoster, no_tags
from election_forensics.dynamics import IntradayTable
from election_forensics.histograms import QUANTITY_LEADER_SHARE
from election_forensics.scatter import PointCloud, ScatterPoint, TrendFit
from election_forensics.synth import BLOCK, GroundTruth, HonestModel, RoundingSpec, SyntheticElection, _block_rng


def em_two_spherical(xy: np.ndarray, rng: np.random.Generator, tol: float) -> anomaly._EMFit:
    """EM for a two-component spherical Gaussian mixture from a k-means++ start, on (2, n) rows."""
    n = xy.shape[0]
    coords = np.ascontiguousarray(xy.T)
    x, y = coords
    mu = anomaly._kmeanspp_init(xy, rng)
    var = np.full(2, max(float(xy.var()), anomaly._VAR_FLOOR))
    w = np.full(2, 0.5)
    d2 = anomaly._sq_dists(x, y, mu)
    prev_ll = -math.inf
    for iterations in range(1, anomaly._MAX_EM_ITER + 1):
        logdens = (np.log(w) - np.log(2 * math.pi * var))[:, None] - d2 * (0.5 / var)[:, None]
        lse, resp = anomaly._e_step(logdens)
        ll = float(lse.sum())
        totals = resp.sum(axis=1)
        nk = np.maximum(totals, 1e-12)
        w = nk / n
        mu = np.einsum("kn,jn->kj", resp, coords) / nk[:, None]
        d2 = anomaly._sq_dists(x, y, mu)
        var = np.maximum(np.einsum("kn,kn->k", resp, d2) / (2 * nk), anomaly._VAR_FLOOR)
        delta_ll = abs(ll - prev_ll)
        prev_ll = ll
        if delta_ll < tol:
            break
    return anomaly._EMFit(ll, mu, resp, iterations, delta_ll)


def em_batch_by_restart(
    xy: np.ndarray, coords: np.ndarray, seed: int, restarts: range, tol: float
) -> list[anomaly._EMFit]:
    """``anomaly._em_batch`` with each restart fitted alone."""
    return [
        em_two_spherical(xy, np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, r]))), tol)
        for r in restarts
    ]


def _half_up(numer: int, denom: int) -> int:
    """round-half-up of numer/denom for positive denom, in exact integers."""
    return (2 * numer + denom) // (2 * denom)


def _distribute(amount: int, weights: Sequence[int]) -> list[int]:
    """Split ``amount`` over non-negative integer weights, proportionally,
    largest-remainder, deterministic.  A negative amount is split as its
    magnitude and each share negated.  No share's magnitude exceeds its
    weight when ``abs(amount) <= sum(weights)``."""
    sign = -1 if amount < 0 else 1
    amount *= sign
    total = sum(weights)
    if total == 0 or amount == 0:
        return [0] * len(weights)
    shares = [amount * w // total for w in weights]
    leftover = amount - sum(shares)
    order = sorted(range(len(weights)), key=lambda j: (-(amount * weights[j] % total), j))
    for j in order:
        if leftover == 0:
            break
        if weights[j] > shares[j]:
            shares[j] += 1
            leftover -= 1
    # any residue (all weights saturated) stays unassigned; callers cap amount first
    return [sign * share for share in shares]


def round_to_targets_by_row(
    spec: RoundingSpec,
    rows: np.ndarray,
    registered: np.ndarray,
    cast: np.ndarray,
    votes: np.ndarray,
    leader_idx: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``synth._round_to_targets``, one row at a time in Python integers."""
    targets = sorted(spec.targets)
    cap = spec.max_adjustment + 1e-12
    other_idx = [j for j in range(votes.shape[1]) if j != leader_idx]
    added = np.zeros(len(rows), dtype=np.int64)
    rounded = np.zeros(len(rows), dtype=bool)
    for row, i in enumerate(rows):
        c = int(cast[i])
        if spec.quantity == QUANTITY_LEADER_SHARE:
            if c == 0:
                continue
            v = int(votes[i, leader_idx])
            others = [int(votes[i, j]) for j in other_idx]
            current = 100.0 * v / c
            for t in sorted(targets, key=lambda t: (abs(t - current), t)):
                delta = _half_up(c * t, 100) - v
                if abs(delta) / c <= cap and delta <= sum(others):
                    break
            else:
                continue
            # signed: taken from the others, or given to them (zero-vote parties too)
            moved = _distribute(delta, others if delta > 0 else [o + 1 for o in others])
            for j, m in zip(other_idx, moved):
                votes[i, j] -= m
            votes[i, leader_idx] += sum(moved)
            added[row] = sum(moved)
        else:  # turnout: stuff up to the nearest reachable target at or above
            reg = int(registered[i])
            for t in targets:
                delta = _half_up(reg * t, 100) - c
                if 0 <= delta and delta / reg <= cap and c + delta <= reg:
                    break
            else:
                continue
            cast[i] += delta
            votes[i, leader_idx] += delta
            added[row] = delta
        rounded[row] = True
    return added, rounded


def generate_honest_whole_election(model: HonestModel, seed: int) -> SyntheticElection:
    """``synth.generate_honest`` with the intraday curves computed for the whole election at once."""
    n = model.precincts
    k = len(model.parties)
    s_base = _sum_left_to_right(model.baseline_shares)
    base = np.asarray(model.baseline_shares, dtype=np.float64)
    comp_means = np.array([c.mean for c in model.turnout_components])
    comp_sds = np.array([c.sd for c in model.turnout_components])
    comp_weights = np.array([c.weight for c in model.turnout_components])

    registered = np.empty(n, dtype=np.int64)
    component = np.empty(n, dtype=np.int64)
    turnout_prob = np.empty(n, dtype=np.float64)
    cast = np.empty(n, dtype=np.int64)
    votes = np.empty((n, k), dtype=np.int64)
    machine = np.zeros(n, dtype=bool)
    tail = np.empty(n, dtype=np.float64)
    mid = np.empty(n, dtype=np.float64)
    width = np.empty(n, dtype=np.float64)

    for b_start in range(0, n, BLOCK):
        b_end = min(b_start + BLOCK, n)
        m = b_end - b_start
        rng = _block_rng(seed, b_start // BLOCK)
        reg = rng.lognormal(math.log(model.registered_median), model.registered_sigma, m)
        reg = np.clip(np.rint(reg), model.registered_min, model.registered_max).astype(np.int64)
        comp = rng.choice(len(comp_weights), size=m, p=comp_weights)
        t = np.clip(rng.normal(comp_means[comp], comp_sds[comp]), 0.0, 1.0)
        c = rng.binomial(reg, t)
        eps = rng.normal(0.0, model.share_noise_sd, (m, k))
        raw = np.maximum(base[None, :] + eps, 1e-9)
        probs = raw * (s_base / raw.sum(axis=1))[:, None]
        v = np.zeros((m, k), dtype=np.int64)
        remaining = c.copy()
        used_p = np.zeros(m)
        for j in range(k):
            denom = np.maximum(1.0 - used_p, 1e-12)
            q = np.clip(probs[:, j] / denom, 0.0, 1.0)
            v[:, j] = rng.binomial(remaining, q)
            remaining -= v[:, j]
            used_p += probs[:, j]
        machine[b_start:b_end] = rng.random(m) < model.machine_fraction
        tail[b_start:b_end] = rng.uniform(0.02, 0.06, m)
        mid[b_start:b_end] = rng.uniform(13 * 60, 15 * 60, m)
        width[b_start:b_end] = rng.uniform(150, 210, m)

        registered[b_start:b_end] = reg
        component[b_start:b_end] = comp
        turnout_prob[b_start:b_end] = t
        cast[b_start:b_end] = c
        votes[b_start:b_end] = v

    pad = max(5, len(str(max(n - 1, 0))))
    precinct_ids = np.array([f"p{i:0{pad}d}" for i in range(n)], dtype=object)
    used = min(model.territories, max(n, 1))
    columns = DatasetArrays(
        precinct_ids=precinct_ids,
        region=np.full(n, "R1", dtype=object),
        territory=np.array([f"T{i % used + 1}" for i in range(n)], dtype=object),
        registered=registered,
        ballots_cast=cast,
        invalid=cast - votes.sum(axis=1),
        machine_counted=machine,
        votes=votes,
        tags=no_tags(n),
    )
    dataset = ElectionDataset(f"synthetic-{seed}", PartyRoster(model.parties), columns, model.leader)

    intraday = IntradayTable.from_series({})
    if model.report_times and n:
        times = np.asarray(sorted(model.report_times), dtype=np.int64)
        f = 1.0 / (1.0 + np.exp(-(times[None, :] - mid[:, None]) / width[:, None]))
        scale = (1.0 - tail)[:, None] / f[:, -1][:, None]
        cum = np.floor(cast[:, None] * f * scale).astype(np.int64)
        cum = np.maximum.accumulate(cum, axis=1)  # guard against float non-monotonicity
        intraday = IntradayTable(
            columns.precinct_ids, np.arange(0, cum.size + 1, len(times)), np.tile(times, n), cum.ravel()
        )

    truth = GroundTruth(
        precinct_ids=tuple(precinct_ids.tolist()),
        component=component,
        turnout_prob=turnout_prob,
        honest_ballots_cast=cast.copy(),
        honest_leader_votes=votes[:, dataset.leader_index].copy(),
        stuffed=np.zeros(n, dtype=np.int64),
        transferred=np.zeros(n, dtype=np.int64),
        rounding_delta=np.zeros(n, dtype=np.int64),
        jump=np.zeros(n, dtype=np.int64),
    )
    return SyntheticElection(dataset=dataset, truth=truth, intraday=intraday)


def _sum_left_to_right(terms: Sequence[float]) -> float:
    """The terms added one by one, left to right, from 0.0.

    Not the builtin ``sum``: from Python 3.12 on it adds floats with
    Neumaier compensation, which is not the rule ``scatter`` follows.
    """
    return reduce(operator.add, terms, 0.0)


def fit_trend_by_point(points: PointCloud | Sequence[ScatterPoint], weighting: str = "uniform") -> TrendFit:
    """``scatter.fit_trend`` as sums over Python floats, left to right; ``d ** 2`` is libm ``pow``."""
    n = len(points)
    if n < 2:
        raise DegenerateX("need at least 2 points to fit a trend")
    cloud = PointCloud.of(points)
    xs, ys = cloud.x.tolist(), cloud.y.tolist()
    if weighting == "uniform":
        w = [1.0] * n
    else:
        w = cloud.weight.astype(np.float64).tolist()
    sw = _sum_left_to_right(w)
    mx = _sum_left_to_right([wi * x for wi, x in zip(w, xs)]) / sw
    my = _sum_left_to_right([wi * y for wi, y in zip(w, ys)]) / sw
    sxx = _sum_left_to_right([wi * (x - mx) ** 2 for wi, x in zip(w, xs)])
    if sxx == 0.0:
        raise DegenerateX("all x values identical; slope undefined")
    sxy = _sum_left_to_right([wi * (x - mx) * (y - my) for wi, x, y in zip(w, xs, ys)])
    slope = sxy / sxx
    intercept = my - slope * mx
    rss = _sum_left_to_right([wi * (y - (slope * x + intercept)) ** 2 for wi, x, y in zip(w, xs, ys)])
    return TrendFit(slope, intercept, math.sqrt(rss / sw), n)


def slope_standard_error_by_point(points: PointCloud | Sequence[ScatterPoint], fit: TrendFit) -> float:
    """``scatter.slope_standard_error`` as sums over Python floats, left to right."""
    n = len(points)
    if n <= 2:
        return float("inf")
    cloud = PointCloud.of(points)
    xs, ys = cloud.x.tolist(), cloud.y.tolist()
    mx = _sum_left_to_right(xs) / n
    sxx = _sum_left_to_right([(x - mx) ** 2 for x in xs])
    rss = _sum_left_to_right([(y - (fit.slope * x + fit.intercept)) ** 2 for x, y in zip(xs, ys)])
    return math.sqrt(rss / (n - 2) / sxx)


def poisson_binomial_by_factor(q: Sequence[float]) -> np.ndarray:
    """The pmf of a sum of Bernoulli(q[i]) over counts 0 .. len(q), by the O(m^2) recurrence, one factor at a time."""
    law = np.zeros(len(q) + 1)
    law[0] = 1.0
    for i, qi in enumerate(q):
        law[1 : i + 2] = law[1 : i + 2] * (1 - qi) + law[: i + 1] * qi
        law[0] *= 1 - qi
    return law
