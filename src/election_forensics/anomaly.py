"""Comet-tail decomposition, super-linear growth check, and cluster split.

The stuffing estimate treats non-leader votes as a proxy for genuine
turnout: their vote mass per turnout bin is roughly flat when results are
clean, so the leader-to-others ratio in a low-turnout reference window
predicts how many leader votes each bin should hold.  Votes above that
prediction form the anomalous excess.  This proxy is an assumption and is
restated in every report.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EmptyReferenceWindow
from .histograms import TurnoutBinTable
from .scatter import PointCloud, ScatterPoint, TrendFit, fit_trend, slope_standard_error

DEFAULT_REFERENCE_WINDOW = (0.15, 0.35)
MIN_WINDOW_OTHER_SHARE = 0.05

PROXY_ASSUMPTION = (
    "Assumes non-leader vote mass per turnout bin tracks genuine turnout; "
    "the excess is measured against the leader/others ratio in the "
    "reference window, not against any external truth."
)


class StuffingEstimate(NamedTuple):
    reference_ratio: float
    reference_window: tuple[float, float]
    anomalous_by_bin: tuple[float, ...]
    total_anomalous: float
    leader_total: int
    ballots_total: int
    adjusted_leader_share: float
    assumption: str = PROXY_ASSUMPTION

    def as_dict(self) -> dict:
        return {
            "reference_ratio": self.reference_ratio,
            "reference_window": list(self.reference_window),
            "total_anomalous_votes": self.total_anomalous,
            "leader_total": self.leader_total,
            "ballots_total": self.ballots_total,
            "raw_leader_share": self.leader_total / self.ballots_total if self.ballots_total else 0.0,
            "adjusted_leader_share": self.adjusted_leader_share,
            "assumption": self.assumption,
        }


def estimate_stuffing(
    table: TurnoutBinTable,
    reference_window: tuple[float, float] = DEFAULT_REFERENCE_WINDOW,
) -> StuffingEstimate:
    """Excess leader votes per turnout bin relative to the reference-window ratio.

    Requires the window to hold at least 5% of all non-leader votes, so the
    ratio is estimated from real mass rather than stray precincts.
    """
    lo, hi = reference_window
    if not 0 <= lo < hi <= 1:
        raise EmptyReferenceWindow(f"bad reference window [{lo}, {hi}]")
    n_bins = table.n_bins
    votes = np.asarray(table.votes, dtype=np.int64)
    leader_idx = table.parties.index(table.leader)
    leader = votes[:, leader_idx].astype(np.float64)
    others = (votes.sum(axis=1) - votes[:, leader_idx]).astype(np.float64)

    lo_idx = math.ceil(lo * n_bins - 1e-9)
    hi_idx = math.floor(hi * n_bins + 1e-9)
    window = slice(max(lo_idx, 0), min(hi_idx, n_bins))
    others_total = float(others.sum())
    window_others = float(others[window].sum())
    if others_total == 0 or window_others < MIN_WINDOW_OTHER_SHARE * others_total:
        raise EmptyReferenceWindow(
            f"window [{lo}, {hi}] holds {window_others:.0f} of {others_total:.0f} "
            "non-leader votes (< 5%)"
        )
    k = float(leader[window].sum()) / window_others
    anomalous = np.maximum(0.0, leader - k * others)
    total = float(anomalous.sum())
    leader_total = int(leader.sum())
    ballots_total = int(table.ballots_total())
    denom = ballots_total - total
    adjusted = (leader_total - total) / denom if denom > 0 else 0.0
    return StuffingEstimate(
        reference_ratio=k,
        reference_window=(lo, hi),
        anomalous_by_bin=tuple(float(a) for a in anomalous),
        total_anomalous=total,
        leader_total=leader_total,
        ballots_total=ballots_total,
        adjusted_leader_share=adjusted,
    )


class SuperlinearityResult(NamedTuple):
    verdict: str  # "linear" | "superlinear"
    lower_fit: TrendFit
    upper_fit: TrendFit
    lower_se: float
    upper_se: float
    split_x: float

    @property
    def slope_gap(self) -> float:
        return self.upper_fit.slope - self.lower_fit.slope

    @property
    def combined_se(self) -> float:
        return math.hypot(self.lower_se, self.upper_se)

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "split_turnout": self.split_x,
            "lower_slope": self.lower_fit.slope,
            "upper_slope": self.upper_fit.slope,
            "slope_gap": self.slope_gap,
            "combined_se": self.combined_se,
        }


def superlinearity_check(points: PointCloud | Sequence[ScatterPoint]) -> SuperlinearityResult:
    """Compare trend slopes on the lower and upper turnout halves.

    Declares "superlinear" when the upper-half slope exceeds the lower-half
    slope by more than two combined standard errors; growth explainable by a
    single straight line stays "linear".  The halves split the points
    ordered by (x, precinct_id).
    """
    if len(points) < 50:
        raise ValueError(f"need at least 50 points, got {len(points)}")
    cloud = PointCloud.of(points)
    order = np.lexsort((cloud.precinct_ids, cloud.x))
    half = len(order) // 2
    lower, upper = cloud.take(order[:half]), cloud.take(order[half:])
    split_x = float(upper.x[0])
    lower_fit = fit_trend(lower)
    upper_fit = fit_trend(upper)
    lower_se = slope_standard_error(lower, lower_fit)
    upper_se = slope_standard_error(upper, upper_fit)
    gap = upper_fit.slope - lower_fit.slope
    verdict = "superlinear" if gap > 2.0 * math.hypot(lower_se, upper_se) else "linear"
    return SuperlinearityResult(verdict, lower_fit, upper_fit, lower_se, upper_se, split_x)


class ClusterSplit(NamedTuple):
    assignments: tuple[int, ...]
    centroids: tuple[tuple[float, float], tuple[float, float]]
    weights: tuple[float, float]
    bic_one: float
    bic_two: float
    decision: str  # "one" | "two"
    em_iterations: tuple[int, ...]  # EM iterations run by each restart, in restart order
    stop_rule: str  # the EM stopping rule, e.g. "|delta loglik| < 0.001"
    last_delta_ll: float  # the winning restart's |delta loglik| at its last iteration
    converged: bool  # the winning restart met the stopping rule within _MAX_EM_ITER

    @property
    def separation_score(self) -> float:
        """BIC improvement of the 2-cluster model over a single cluster."""
        return self.bic_one - self.bic_two

    def as_dict(self) -> dict:
        return {
            "decision": self.decision,
            "centroids": [list(c) for c in self.centroids],
            "weights": list(self.weights),
            "bic_one": self.bic_one,
            "bic_two": self.bic_two,
            "separation_score": self.separation_score,
            "em_iterations": list(self.em_iterations),
            "stop_rule": self.stop_rule,
            "last_delta_ll": self.last_delta_ll,
            "converged": self.converged,
        }


_VAR_FLOOR = 1e-10
_MAX_EM_ITER = 250  # a non-converged 2-component fit only loses likelihood
BIC_DECISION_MARGIN = 10.0
# Far below BIC_DECISION_MARGIN / 2, the margin in log-likelihood units.
DEFAULT_EM_TOL = 1e-3
MAX_RESTARTS = 1000  # each restart is one EM fit


def _spherical_loglik_one(xy: np.ndarray) -> tuple[float, np.ndarray, float]:
    n = xy.shape[0]
    mu = xy.mean(axis=0)
    var = max(float(((xy - mu) ** 2).sum()) / (2 * n), _VAR_FLOOR)
    ll = -n * math.log(2 * math.pi * var) - float(((xy - mu) ** 2).sum()) / (2 * var)
    return ll, mu, var


def _kmeanspp_init(xy: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = xy.shape[0]
    first = int(rng.integers(n))
    d2 = ((xy - xy[first]) ** 2).sum(axis=1)
    total = float(d2.sum())
    if total <= 0:
        second = int(rng.integers(n))
    else:
        second = int(rng.choice(n, p=d2 / total))
    return np.stack([xy[first], xy[second]])


def _sq_dists(x: np.ndarray, y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """(..., 2, n): each point's squared distance to each component's mean, for (..., 2, 2) means."""
    return (x - mu[..., 0:1]) ** 2 + (y - mu[..., 1:2]) ** 2


def _e_step(logdens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point, lse = log(e^a + e^b) and the responsibilities e^(a - lse), e^(b - lse).

    ``logdens`` holds the rows a and b on its second-to-last axis, (2, n)
    for one fit or (r, 2, n) for r fits; the responsibilities have its
    shape.  One ``exp`` and one ``log1p`` per point: with t = e^-|a-b|,
    the larger term's responsibility is 1/(1+t) and the smaller one's
    t/(1+t), so neither underflows before its true value does.
    """
    a, b = logdens[..., 0, :], logdens[..., 1, :]
    diff = a - b
    t = np.exp(-np.abs(diff))
    lse = np.maximum(a, b) + np.log1p(t)
    larger_first = np.empty_like(logdens)
    larger, smaller = larger_first[..., 0, :], larger_first[..., 1, :]
    np.add(t, 1.0, out=larger)
    np.divide(1.0, larger, out=larger)
    np.multiply(t, larger, out=smaller)
    return lse, np.where((diff >= 0)[..., None, :], larger_first, larger_first[..., ::-1, :])


class _EMFit(NamedTuple):
    ll: float
    mu: np.ndarray  # (2, 2): one (x, y) mean per component
    resp: np.ndarray  # (2, n): each component's responsibilities
    iterations: int
    delta_ll: float  # |delta loglik| at the last iteration


# The restarts of a split run together as (r, 2, n) arrays of at most this
# many elements: 8 restarts at 1,000 points, one at 16,000.  Wider batches
# add resident memory for no speed at 1,000 points and are slower at 16,000.
_EM_BATCH_ELEMENTS = 2**14


def _em_batch(xy: np.ndarray, coords: np.ndarray, seed: int, restarts: range) -> list[_EMFit]:
    """EM fits of a two-component spherical Gaussian mixture, one per restart, in restart order.

    Restart r starts from k-means++ on stream (seed, r).  The restarts run
    together as (r, 2, n) arrays, one row per fit and component; a fit
    leaves the batch once the total log-likelihood changes by less than
    ``DEFAULT_EM_TOL``, or after ``_MAX_EM_ITER`` iterations.  The M step
    takes each component's weighted sums of the coordinate rows ``coords``
    (x and y) and of its squared distances as dot products with its
    responsibility row.  The sums use ``einsum``, whose order of addition does not depend
    on the core count or on the batch, where BLAS splits a long dot product
    over its threads, so each fit is the one it would be alone.  Each
    component's squared distances are computed once per iteration and
    serve both the variance update and the next E step.
    """
    n = xy.shape[0]
    x, y = coords
    streams = (np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, r]))) for r in restarts)
    mu = np.stack([_kmeanspp_init(xy, rng) for rng in streams])
    var = np.full((len(restarts), 2), max(float(xy.var()), _VAR_FLOOR))
    w = np.full((len(restarts), 2), 0.5)
    d2 = _sq_dists(x, y, mu)
    prev_ll = np.full(len(restarts), -math.inf)
    live = np.arange(len(restarts))  # each batch row's position in ``restarts``
    fits: list[_EMFit] = [None] * len(restarts)
    for iterations in range(1, _MAX_EM_ITER + 1):
        logdens = (np.log(w) - np.log(2 * math.pi * var))[..., None] - d2 * (0.5 / var)[..., None]
        lse, resp = _e_step(logdens)
        ll = lse.sum(axis=-1)
        totals = resp.sum(axis=-1)
        nk = np.maximum(totals, 1e-12)
        w = nk / n
        mu = np.einsum("rkn,jn->rkj", resp, coords) / nk[..., None]
        d2 = _sq_dists(x, y, mu)
        var = np.maximum(np.einsum("rkn,rkn->rk", resp, d2) / (2 * nk), _VAR_FLOOR)
        delta_ll = np.abs(ll - prev_ll)
        prev_ll = ll
        done = (delta_ll < DEFAULT_EM_TOL) | (iterations == _MAX_EM_ITER)
        if not done.any():
            continue
        going = ~done
        # Fits leaving while others go on copy their rows, so that the batch arrays
        # can be freed; the last ones out keep views (a copy of the (2, n) rows at
        # 16k points would fault in fresh pages for every restart).
        take = np.copy if going.any() else np.asarray
        for i in np.flatnonzero(done):
            fits[live[i]] = _EMFit(float(ll[i]), take(mu[i]), take(resp[i]), iterations, float(delta_ll[i]))
        if not going.any():
            break
        live, w, mu, var, d2, prev_ll = live[going], w[going], mu[going], var[going], d2[going], prev_ll[going]
    return fits


def split_two_clusters(
    points: PointCloud | Sequence[ScatterPoint],
    seed: int = 0,
    restarts: int = 20,
) -> ClusterSplit:
    """Two-component spherical Gaussian mixture versus one, decided by BIC.

    The 2-component fit uses EM from k-means++ starts, one independent
    seeded restart stream per index; the winner is the restart with the
    lowest BIC (ties by restart index).  "two" requires a BIC improvement
    of at least BIC_DECISION_MARGIN over the single-Gaussian model.  Each EM
    run stops once its log-likelihood changes by less than DEFAULT_EM_TOL
    (1e-3), far below BIC_DECISION_MARGIN / 2, the margin in
    log-likelihood units.  The result records each restart's EM iteration
    count, the stopping rule, the winner's last change in log-likelihood
    and whether it met the rule before the iteration cap.  The restarts
    are fitted in batches of _EM_BATCH_ELEMENTS // (2 n) (at least one),
    in restart order.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if restarts > MAX_RESTARTS:
        raise ValueError(f"restarts must be <= {MAX_RESTARTS}, got {restarts}")
    if len(points) < 20:
        raise ValueError(f"need at least 20 points, got {len(points)}")
    raw = PointCloud.of(points).xy()
    n = raw.shape[0]
    # canonical point order makes the result exactly permutation-invariant
    order = np.lexsort((raw[:, 1], raw[:, 0]))
    xy = raw[order]

    ll1, _, _ = _spherical_loglik_one(xy)
    bic_one = -2 * ll1 + 3 * math.log(n)

    coords = np.ascontiguousarray(xy.T)
    per_batch = max(1, _EM_BATCH_ELEMENTS // (2 * n))
    best = None
    iterations = []
    for first in range(0, restarts, per_batch):
        for fit in _em_batch(xy, coords, seed, range(first, min(first + per_batch, restarts))):
            iterations.append(fit.iterations)
            bic_two = -2 * fit.ll + 7 * math.log(n)
            if best is None or bic_two < best[0]:
                best = (bic_two, fit)
    bic_two, fit = best
    mu = fit.mu
    weights = fit.resp.sum(axis=1) / n
    assignments_arr = np.empty(n, dtype=np.int64)
    assignments_arr[order] = fit.resp[1] > fit.resp[0]  # a tie goes to component 0
    decision = "two" if (bic_one - bic_two) >= BIC_DECISION_MARGIN else "one"
    return ClusterSplit(
        assignments=tuple(assignments_arr.tolist()),
        centroids=((float(mu[0, 0]), float(mu[0, 1])), (float(mu[1, 0]), float(mu[1, 1]))),
        weights=(float(weights[0]), float(weights[1])),
        bic_one=float(bic_one),
        bic_two=float(bic_two),
        decision=decision,
        em_iterations=tuple(iterations),
        stop_rule=f"|delta loglik| < {DEFAULT_EM_TOL:g}",
        last_delta_ll=fit.delta_ll,
        converged=fit.delta_ll < DEFAULT_EM_TOL,
    )
