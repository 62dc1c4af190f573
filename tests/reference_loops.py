"""One-at-a-time forms of two array computations, kept as a test reference.

``em_batch_by_restart`` fits a split's EM restarts one after another, each
on its own (2, n) rows, where the library fits a batch of them together
as (r, 2, n) arrays.  ``round_to_targets_by_row`` walks the rounded
precincts one at a time in exact Python integers, where the library lays
their candidate targets out as a matrix.  The tests in ``test_anomaly.py``
and ``test_synth.py`` require both forms to give the same bits.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from election_forensics import anomaly
from election_forensics.histograms import QUANTITY_LEADER_SHARE
from election_forensics.synth import RoundingSpec


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
