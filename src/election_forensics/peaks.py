"""Monte-Carlo detector for spikes at round percentages.

The histogram of precinct results in whole percents develops spikes at
multiples of five when results are steered toward target figures.  But a
spike at a simple fraction such as 50% also arises for free from the
discreteness of k/n with small n, so comparing a bin against its smooth
neighborhood over-flags.  The null model here keeps every precinct's size
and observed proportion fixed and redraws only the counting noise:

* quantity ``turnout``: ballots ~ Binomial(registered, observed turnout)
* quantity ``leader_share`` / ``share:<party>``: votes ~ Binomial(ballots_cast,
  observed share of cast)

and rebuilds the histogram with the identical half-up integer rounding.
That reproduces every discreteness artifact, so surviving excess mass at a
target is evidence the reported values cluster there beyond counting noise.

One refinement is required for the null to actually reproduce the
artifact: redrawing at the raw observed proportion double-counts sampling
noise (the observed share is itself one binomial draw), which smears the
simulated shares and *undershoots* the discreteness atoms of small
precincts, turning the test anticonservative exactly where it must not be.
Each proportion is therefore shrunk toward the cross-precinct mean with an
empirical-Bayes factor v / (v + p(1-p)/n), where v is the across-precinct
share variance in excess of average sampling noise.  Shrinkage vanishes
when real spread dominates (large precincts, real clustering) and restores
the latent concentration when sampling noise dominates (the small-precinct
regime), so honest discreteness bumps survive in the null while genuine
target clustering still stands out.

The test is one-sided (excess only), with add-one smoothing on the
Monte-Carlo p-value: p = (1 + #{null >= observed}) / (replicates + 1).
Replicates are drawn in blocks of ``BLOCK`` = 10: block k holds replicates
10k .. 10k + 9 and draws them from one generator seeded by (seed, k).
The block is drawn precinct by precinct, each precinct's ten draws in a
row, so the binomial sampler sets up once per precinct instead of once
per draw.  The last block is always drawn in full and trimmed, so a
replicate's draws depend only on the seed and its own index: the null for
R replicates is the first R rows of the null for any larger R.  The
blocks run on every core the process may use: the binomial draws release
the GIL, and each block writes only its own rows, so the null is
bit-identical on any number of cores.  This stream layout replaced one
generator per replicate, so nulls, p-values and null moments differ from
earlier versions by Monte-Carlo noise; observed counts do not.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .dataset import ElectionDataset
from .errors import EmptySelection
from .histograms import (
    N_PERCENT_BINS,
    QUANTITY_TURNOUT,
    bincount_percent,
    percent_bins,
    resolve_quantity,
    weights_for,
)

DEFAULT_TARGETS = tuple(range(50, 101, 5))
MIN_REPLICATES = 100
MAX_REPLICATES = 100_000  # the null holds replicates x targets int64 weights in memory
BLOCK = 10  # replicates drawn from one random stream

DIAGNOSTIC_NOTE = (
    "Round-percent excess is a statistical diagnostic, not proof: it measures "
    "how unlikely the observed bin mass is under resampled counting noise, "
    "and says nothing about the cause of any excess."
)


@dataclass(frozen=True)
class NullDistribution:
    quantity: str
    weight_mode: str
    targets: tuple[int, ...]
    weights: np.ndarray  # (replicates, len(targets)) bin weights under the null
    seed: int

    @property
    def replicates(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class PeakReport:
    quantity: str
    weight_mode: str
    targets: tuple[int, ...]
    observed: tuple[int, ...]
    null_mean: tuple[float, ...]
    null_sd: tuple[float, ...]
    z_scores: tuple[float, ...]
    p_values: tuple[float, ...]
    flagged: tuple[int, ...]
    replicates: int
    seed: int
    alpha: float
    note: str = DIAGNOSTIC_NOTE

    def as_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "weight_mode": self.weight_mode,
            "replicates": self.replicates,
            "seed": self.seed,
            "alpha": self.alpha,
            "targets": [
                {
                    "percent": t,
                    "observed": o,
                    "null_mean": m,
                    "null_sd": s,
                    "z": z,
                    "p_value": p,
                    "flagged": t in self.flagged,
                }
                for t, o, m, s, z, p in zip(
                    self.targets,
                    self.observed,
                    self.null_mean,
                    self.null_sd,
                    self.z_scores,
                    self.p_values,
                )
            ],
            "flagged_targets": list(self.flagged),
            "note": self.note,
        }


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, block])))


def _cores() -> int:
    """Number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def shrunken_proportions(numer: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Empirical-Bayes estimate of each precinct's latent proportion.

    Shrinks the observed proportion toward the cross-precinct mean by
    v / (v + mu(1-mu)/n), with v the observed share variance minus the
    average binomial sampling variance (floored at zero).
    """
    share = numer / denom
    if share.size < 2:
        return share
    mu = float(share.mean())
    mu_var = mu * (1.0 - mu)
    sampling = mu_var / denom
    v_latent = max(float(share.var(ddof=1)) - float(sampling.mean()), 0.0)
    lam = v_latent / (v_latent + sampling) if v_latent > 0 else np.zeros_like(sampling)
    return np.clip(mu + lam * (share - mu), 0.0, 1.0)


def _selected(dataset: ElectionDataset, quantity: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quantity's numerators and denominators over its included precincts, and the mask.

    Raises EmptySelection when the quantity includes no precinct, where
    the null would be all zeros and every p-value 1.
    """
    numer, denom, mask = resolve_quantity(dataset, quantity)
    if not mask.any():
        raise EmptySelection(f"quantity {quantity!r} includes none of the {len(dataset)} precincts")
    return numer[mask], denom[mask], mask


def simulate_null(
    dataset: ElectionDataset,
    quantity: str,
    replicates: int,
    seed: int,
    targets: tuple[int, ...] = DEFAULT_TARGETS,
    weight_mode: str = "precincts",
) -> NullDistribution:
    """Per-target bin weights under the size-and-proportion-preserving null.

    Block k draws an (m, BLOCK) matrix of binomial counts for the m
    included precincts from the stream (seed, k); column j is replicate
    k * BLOCK + j.  The block is binned in place and counted in one call,
    with column j's bins shifted by 101 * j.  Weighted modes sum exactly in
    int64.  The blocks are strided over one thread per available core (at
    most one per block): worker w runs blocks w, w + workers, ..., and the
    calling thread is worker 0.  A worker's error is raised here once every
    worker has stopped.

    Raises EmptySelection when the quantity includes no precinct, and
    ValueError unless replicates is in MIN_REPLICATES..MAX_REPLICATES and
    there are targets, each an integer percent in 0..100.
    """
    if not MIN_REPLICATES <= replicates <= MAX_REPLICATES:
        raise ValueError(f"replicates must be in {MIN_REPLICATES}..{MAX_REPLICATES}, got {replicates}")
    if not targets or not all(isinstance(t, (int, np.integer)) and 0 <= t < N_PERCENT_BINS for t in targets):
        raise ValueError(f"targets must be integer percents in 0..{N_PERCENT_BINS - 1}, got {list(targets)}")
    numer, denom, mask = _selected(dataset, quantity)
    base_weights = weights_for(dataset, weight_mode)[mask]
    p_hat = shrunken_proportions(numer, denom)
    target_arr = np.asarray(targets, dtype=np.int64)

    # Precinct-major: row i repeats precinct i's (n, p) across the block.
    shape = (denom.size, BLOCK)
    n_col, p_col = denom[:, None], p_hat[:, None]
    shift = N_PERCENT_BINS * np.arange(BLOCK)
    # Turnout weighted by ballots weighs each replicate by its own simulated ballots.
    own_ballots = quantity == QUANTITY_TURNOUT and weight_mode == "ballots"
    fixed_weights = None if weight_mode == "precincts" or own_ballots else np.repeat(base_weights, BLOCK)

    blocks = -(-replicates // BLOCK)
    weights = np.empty((blocks * BLOCK, len(targets)), dtype=np.int64)
    workers = min(_cores(), blocks)

    def draw(k: int) -> None:
        sim = _block_rng(seed, k).binomial(n_col, p_col, size=shape)
        if own_ballots:
            bins, block_weights = percent_bins(sim, n_col), sim.ravel()
        else:
            bins, block_weights = percent_bins(sim, n_col, out=sim), fixed_weights
        bins += shift
        counts = bincount_percent(bins.ravel(), block_weights, N_PERCENT_BINS * BLOCK)
        weights[k * BLOCK : (k + 1) * BLOCK] = counts.reshape(BLOCK, N_PERCENT_BINS)[:, target_arr]

    def run(first: int) -> None:
        for k in range(first, blocks, workers):
            draw(k)

    # Imported here, not at the top: it loads logging, which no command that
    # skips the null needs.  An executor starts no thread until a task is
    # submitted, so one core means no thread at all.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        others = [pool.submit(run, w) for w in range(1, workers)]
        run(0)
        for future in others:
            future.result()
    return NullDistribution(quantity, weight_mode, tuple(targets), weights[:replicates], seed)


def mc_p_value(null_weights: np.ndarray, observed: int) -> float:
    """One-sided add-one Monte-Carlo p-value for an observed bin weight."""
    r = null_weights.shape[0]
    return (1 + int(np.count_nonzero(null_weights >= observed))) / (r + 1)


def detect_round_peaks(
    dataset: ElectionDataset,
    quantity: str,
    targets: tuple[int, ...] = DEFAULT_TARGETS,
    replicates: int = 1000,
    seed: int = 0,
    alpha: float = 0.01,
    weight_mode: str = "precincts",
) -> PeakReport:
    """Flag targets whose observed bin mass exceeds the Monte-Carlo null at level alpha.

    Raises EmptySelection when the quantity includes no precinct.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    null = simulate_null(dataset, quantity, replicates, seed, targets, weight_mode)
    numer, denom, mask = _selected(dataset, quantity)
    bins = percent_bins(numer, denom)
    counts = bincount_percent(bins, weights_for(dataset, weight_mode)[mask])
    observed = counts[np.asarray(targets, dtype=np.int64)]

    mean = null.weights.mean(axis=0)
    sd = null.weights.std(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sd > 0, (observed - mean) / sd, np.where(observed > mean, np.inf, 0.0))
    p = np.array([mc_p_value(null.weights[:, j], int(observed[j])) for j in range(len(targets))])
    flagged = tuple(int(t) for t, pj in zip(targets, p) if pj < alpha)
    return PeakReport(
        quantity=quantity,
        weight_mode=weight_mode,
        targets=tuple(targets),
        observed=tuple(int(o) for o in observed),
        null_mean=tuple(float(m) for m in mean),
        null_sd=tuple(float(s) for s in sd),
        z_scores=tuple(float(v) for v in z),
        p_values=tuple(float(v) for v in p),
        flagged=flagged,
        replicates=replicates,
        seed=seed,
        alpha=alpha,
    )
