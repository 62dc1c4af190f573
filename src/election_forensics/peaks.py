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
10k .. 10k + 9 and draws them from one generator seeded by (seed, k).  The
last block is always drawn in full and trimmed, so a replicate's draws
depend only on the seed and its own index: the null for R replicates is
the first R rows of the null for any larger R.

Every draw starts from q_ib, precinct i's exact probability of landing in
requested bin b under Bin(n_i, p_i).  Once per call, each pmf comes from
the ratio recurrence (n - k) / (k + 1) * p / (1 - p) (over failures where
p > 1/2) across a count window n p -/+ t, normalised over it, with t from
Bernstein's inequality so that the window leaves out less than
``TAIL_MASS`` = 1e-18, and is summed between the bin edges
ceil(n (2b - 1) / 200) that percent_bins' half-up rounding implies.  Then
one of two methods draws the null, and the null and the report name it:

* ``exact_marginal``, where every precinct weighs one, every count window
  is at most ``WINDOW_CAP`` counts wide and some bin is not requested.
  Bin b's count is then Poisson-binomial, a sum of independent
  Bernoulli(q_ib), whose pmf ``poisson_binomial.pmf`` inverts from its
  characteristic function prod_i (1 - q_ib + q_ib e^{-iw}) once per call.
  Block k draws a (BLOCK, bins) matrix of uniforms and inverts each
  through its bin's cdf.  Each target's count has exactly the law that
  drawing every precinct gives it; only the dependence between targets
  within one replicate is not drawn, and every statistic of the null is
  per target.
* ``per_precinct_draws`` otherwise: weighted modes, windows wider than
  ``WINDOW_CAP`` (n around 1.8e5 at p = 1/2), and nulls over all 101
  bins, whose replicates are whole histograms of every precinct drawn
  (``ef peaks`` plots its envelope from one).  The requested bins of
  positive mass and "none of them" form an alias table (Walker's method)
  per precinct.  Block k draws one (m, BLOCK) matrix of uniforms, precinct
  by precinct, for the m precincts whose window reaches a requested bin,
  and inverts each to its bin in constant time; every draw of the other
  precincts lands in no requested bin.  Two cases draw binomial counts
  from the same block stream, after the uniforms: turnout weighted by
  ballots, where the weight is the draw itself, and the precincts whose
  window is too wide.  Weighted counts sum exactly in int64.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import poisson_binomial
from .dataset import ElectionDataset
from .errors import EmptySelection
from .histograms import (
    N_PERCENT_BINS,
    QUANTITY_TURNOUT,
    bincount_percent,
    integer_percent_histogram,
    percent_bins,
    resolve_quantity,
    weights_for,
)
from .poisson_binomial import TAIL_MASS

DEFAULT_TARGETS = tuple(range(50, 101, 5))
MIN_REPLICATES = 100
MAX_REPLICATES = 100_000  # the null holds replicates x targets int64 weights in memory
BLOCK = 10  # replicates drawn from one random stream
WINDOW_CAP = 4096  # widest count window tabulated; wider precincts draw binomials
CHUNK = 1 << 14  # pmf entries per table-building step; at least WINDOW_CAP
SLICE = 1024  # table rows drawn per pass
BATCH = 512  # table rows built per pass
_TAIL_LOG = math.log(2 / TAIL_MASS)

# How a null drew its replicates: each target's count from its exact law,
# or every precinct's bin in every replicate.
EXACT_MARGINAL = "exact_marginal"
PER_PRECINCT_DRAWS = "per_precinct_draws"

DIAGNOSTIC_NOTE = (
    "Round-percent excess is a statistical diagnostic, not proof: it measures "
    "how unlikely the observed bin mass is under resampled counting noise, "
    "and says nothing about the cause of any excess."
)


class NullDistribution(NamedTuple):
    quantity: str
    weight_mode: str
    targets: tuple[int, ...]
    weights: np.ndarray  # (replicates, len(targets)) bin weights under the null
    seed: int
    null_method: str  # EXACT_MARGINAL or PER_PRECINCT_DRAWS

    @property
    def replicates(self) -> int:
        return self.weights.shape[0]


class PeakReport(NamedTuple):
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
    null_method: str
    note: str = DIAGNOSTIC_NOTE

    def as_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "weight_mode": self.weight_mode,
            "replicates": self.replicates,
            "seed": self.seed,
            "alpha": self.alpha,
            "null_method": self.null_method,
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


def count_windows(n: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and width of each count window [lo, lo + width) of Bin(n, p).

    The window is n*p -/+ t, clipped to 0..n, with t from Bernstein's
    inequality 2 exp(-t^2 / (2 (n p (1-p) + t/3))) = TAIL_MASS, so less
    than TAIL_MASS of the distribution lies outside it.
    """
    mean = n * p
    half = _TAIL_LOG / 3 + np.sqrt(_TAIL_LOG**2 / 9 + 2 * _TAIL_LOG * mean * (1 - p))
    lo = np.maximum(np.floor(mean - half), 0).astype(np.int64)
    hi = np.minimum(np.ceil(mean + half), n).astype(np.int64)
    return lo, hi - lo + 1


def _distinct(values) -> np.ndarray:
    """The distinct integers among a few values, ascending.

    np.unique without return_inverse imports numpy.ma on its first call,
    about 18 ms of a command's run.
    """
    return np.array(sorted({int(v) for v in values}), dtype=np.int64)


def _ragged(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For rows of these lengths laid end to end: each entry's row, and its index in the row."""
    index = np.arange(int(lengths.sum()))
    index -= np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.repeat(np.arange(lengths.size), lengths), index


def _reached_masses(n, p, lo, width, edges, cut, cuts, at, reached, reach, work) -> tuple:
    """(row, label, masses): the masses of the bins each row reaches, row after row.

    Entry e is the mass row[e] puts on bins[label[e]].  Row i is
    Bin(n[i], p[i]) over its count window (count_windows) from lo[i],
    width[i] counts wide; rows of similar width should be neighbours,
    since a chunk pads its windows to its widest.  Row i reaches
    bins[reached[i] + r] for r below reach[i], where at[j] is the index of
    bins[j] among the ascending ``edges``; edges[cut[i]] ..
    edges[cut[i] + cuts[i] - 1] must hold both edges of each of them.
    Count k lands in bin b iff L(b) <= k < L(b + 1), L(b) =
    ceil(n (2b - 1) / 200), so each window is cut at L of its edges and
    summed between cuts.  The pmf comes from the ratio recurrence over the
    window and is normalised over it; where p > 1/2 it runs over failures,
    from the top of the window down, so that its odds never exceed one.
    ``work`` is a float array of CHUNK + 1 entries; no window may be wider
    than CHUNK.
    """
    flip = p > 0.5
    start = np.where(flip, n - (lo + width - 1), lo).astype(float)
    odds = np.minimum(p, 1 - p)
    odds /= 1 - odds
    # Row i's cuts in pmf order: 0, its edges' L - lo and its width.  Over
    # failures count k sits at hi - k: edge L cuts at hi + 1 - L, last edge first.
    length = cuts + 2
    row, j = _ragged(length)
    over = np.repeat(flip, length)
    top = np.repeat(cuts - 1, length)
    pos = j - 1
    np.clip(pos, 0, top, out=pos)
    np.subtract(top, pos, out=pos, where=over)
    pos += np.repeat(cut, length)
    pos = edges[pos]
    pos *= 2
    pos -= 1
    pos *= np.repeat(n, length)
    pos += 199
    pos //= 200
    np.subtract(pos, np.repeat(lo, length), out=pos, where=~over)
    np.subtract(np.repeat(lo + width, length), pos, out=pos, where=over)
    del over, top
    np.clip(pos, 0, np.repeat(width, length), out=pos)
    pos[j == 0] = 0
    last = j == np.repeat(length - 1, length)
    del j
    pos[last] = width

    # In a chunk of rows, pmf[:, c] / pmf[:, c - 1] = (n - k) / (k + 1) * odds
    # = (n + 1) * odds / (k + 1) - odds, with k = start + c - 1.  One spare
    # zero lets the last window's end be a reduceat index.
    pieces = np.empty(pos.size)
    begins = np.cumsum(length) - length
    first = 0
    while first < n.size:
        ahead = width[first : first + CHUNK // int(width[first])]
        stop = min(first + CHUNK // int(ahead.max()), n.size)
        c = slice(first, stop)
        steps = np.arange(1.0, int(width[c].max()))
        flat = work[: (stop - first) * (steps.size + 1) + 1]
        flat[-1] = 0.0
        pmf = flat[:-1].reshape(stop - first, steps.size + 1)
        ratio = pmf[:, 1:]
        np.add(start[c, None], steps, out=ratio)
        np.divide(((n[c] + 1) * odds[c])[:, None], ratio, out=ratio)
        ratio -= odds[c, None]
        pmf[:, 0] = 1.0
        np.cumprod(pmf, axis=1, out=pmf)
        f = slice(begins[first], begins[stop - 1] + length[stop - 1])
        pieces[f] = np.add.reduceat(flat, pos[f] + pmf.shape[1] * (row[f] - first))
        first = stop
    # A piece runs from its cut to the next; reduceat gives one entry for
    # an empty piece, and a row's last cut starts none.
    pieces[np.append(pos[1:] == pos[:-1], True) | last] = 0.0
    total = np.add.reduceat(pieces, begins)

    # Bin b's piece starts at the cut of L(b), or of L(b + 1) over failures.
    row, r = _ragged(reach)
    label = np.repeat(reached, reach) + r
    edge = at[label] - np.repeat(cut, reach)
    edge = np.where(np.repeat(flip, reach), np.repeat(cuts - 1, reach) - edge, edge + 1)
    masses = pieces[np.repeat(begins, reach) + edge]
    masses /= np.repeat(total, reach)
    return row, label, masses


def bin_masses(n: np.ndarray, p: np.ndarray, bins) -> np.ndarray:
    """masses[i, j]: probability that Bin(n[i], p[i]) lands in percent bin bins[j].

    Bins follow percent_bins' half-up rounding.  Each row's pmf comes from
    the ratio recurrence (n - k) / (k + 1) * p / (1 - p) over its count
    window (count_windows) and is normalised over it; a bin the window
    does not reach gets zero.  Every window must be at most WINDOW_CAP
    counts wide.
    """
    n, p = np.asarray(n, dtype=np.int64), np.asarray(p, dtype=float)
    if count_windows(n, p)[1].max(initial=1) > WINDOW_CAP:
        raise ValueError(f"a count window is wider than {WINDOW_CAP}")
    cols = _distinct(bins)
    _, tabulated, _, _, batches = _reaching(n, p, cols)
    masses = np.zeros((n.size, cols.size))
    for b, row, label, batch in batches:
        masses[tabulated[b][row], label] = batch
    return masses[:, np.searchsorted(cols, bins)]


def _pair(prob, own, alias, small, split, end) -> None:
    """Vose's pairing, one bucket per row per pass, in every row at once.

    A row's slots from small to split hold scaled masses under one, the
    rest up to end one or more.  Small slot s keeps its mass and takes the
    rest of its bucket from the current large slot g; once g falls under
    one, its own bucket takes the rest from g + 1.  A slot left when either
    kind runs out is full up to rounding.  The last slot of prob, own and
    alias is scratch, written by rows that are done.
    """
    scratch = prob.size - 1
    small, large = small.copy(), split.copy()
    left = np.where(large < end, prob[large], 0.0)
    while small.size:
        full = left >= 1
        give = full & (small < split)
        drop = ~full & (large + 1 < end)
        busy = give | drop
        bucket = np.where(give, small, np.where(drop, large, scratch))
        donor = large + drop
        bucket_mass, donor_mass = prob[bucket], prob[donor]
        prob[bucket] = np.where(give, bucket_mass, left)
        alias[bucket] = own[donor]
        left += np.where(give, bucket_mass, donor_mass) - 1
        small += give
        large += drop
        if not busy.all():
            small, split, large, end, left = (a[busy] for a in (small, split, large, end, left))


def _reaching(n: np.ndarray, p: np.ndarray, bins: np.ndarray) -> tuple:
    """The rows whose count window reaches a requested bin, and their masses BATCH rows at a time.

    Returns (index, tabulated, reached, reach, batches).  ``index`` holds
    those rows ascending and ``tabulated`` the same rows in tabulation
    order: runs of SLICE rows, narrowest window first within a run, so that
    a chunk pads its windows little and the slots one draw pass reads lie
    together.  Row tabulated[i] reaches bins[reached[i]] ..
    bins[reached[i] + reach[i] - 1].  ``batches`` yields (rows, row, label,
    masses): a slice of ``tabulated``, then _reached_masses' three arrays
    for those rows, ``row`` counting from the slice's start.
    """
    edges = _distinct([*bins, *(bins + 1)])
    lo, width = count_windows(n, p)
    lowest, highest = percent_bins(lo, n), percent_bins(lo + width - 1, n)
    # Row i's bins have their edges among edges[cut[i]] .. edges[cut[i] + cuts[i] - 1].
    reached = np.searchsorted(bins, lowest)
    reach = np.searchsorted(bins, highest, side="right") - reached
    cut = np.searchsorted(edges, lowest)
    cuts = np.searchsorted(edges, highest + 1, side="right") - cut
    del lowest, highest
    index = np.flatnonzero(reach)
    tabulated = index[np.lexsort((width[index], np.arange(index.size) // SLICE))]
    n, p, lo, width, cut, cuts, reached, reach = (a[tabulated] for a in (n, p, lo, width, cut, cuts, reached, reach))
    at = np.searchsorted(edges, bins)

    def batches():
        work = np.empty(CHUNK + 1)
        for b0 in range(0, tabulated.size, BATCH):
            b = slice(b0, b0 + BATCH)
            yield b, *_reached_masses(n[b], p[b], lo[b], width[b], edges, cut[b], cuts[b], at, reached[b], reach[b], work)

    return index, tabulated, reached, reach, batches()


def _exact_marginal_draws(n: np.ndarray, p: np.ndarray, bins: np.ndarray, replicates: int, seed: int) -> np.ndarray:
    """(replicates, bins) precinct counts, each column drawn from its bin's exact Poisson-binomial law.

    Bin b's count is a sum of independent Bernoulli(q_ib), q_ib the mass
    precinct i puts on it.  The masses come BATCH rows at a time, each
    batch's grouped by bin into one array, and each bin's law comes from
    poisson_binomial.pmf.  Block k draws a (BLOCK, bins) matrix of
    uniforms from the stream (seed, k), and each is inverted through its
    bin's cdf: row j is replicate k * BLOCK + j.
    """
    _, _, reached, reach, batches = _reaching(n, p, bins)
    # A row reaches bins reached .. reached + reach - 1.  Bin b's masses fill
    # masses[bounds[b] : bounds[b + 1]], in tabulation order.
    starts = np.bincount(reached, minlength=bins.size + 1) - np.bincount(reached + reach, minlength=bins.size + 1)
    bounds = np.append(0, np.cumsum(np.cumsum(starts)[:-1]))
    masses, filled = np.empty(int(bounds[-1])), bounds[:-1].copy()
    for _, _, label, batch in batches:
        order = np.argsort(label, kind="stable")
        label = label[order]
        count = np.bincount(label, minlength=bins.size)
        # an entry goes after its bin's earlier entries, those of earlier batches first
        masses[(filled - np.cumsum(count) + count)[label] + np.arange(label.size)] = batch[order]
        filled += count

    blocks = -(-replicates // BLOCK)
    uniforms = np.empty((blocks * BLOCK, bins.size))
    for k in range(blocks):
        _block_rng(seed, k).random(out=uniforms[k * BLOCK : (k + 1) * BLOCK])
    counts = np.zeros((replicates, bins.size), dtype=np.int64)
    for column in range(bins.size):
        lo, law = poisson_binomial.pmf(masses[bounds[column] : bounds[column + 1]])
        cdf = np.cumsum(law)
        cdf /= cdf[-1]
        counts[:, column] = np.searchsorted(cdf, uniforms[:replicates, column], side="right")
        counts[:, column] += lo
    return counts


class _AliasTable:
    """Per-precinct alias tables (Walker's method), in CSR layout.

    The table holds the precincts whose count window reaches a requested
    bin, at positions ``index`` of those it was built from; every draw of
    the others lands in no requested bin.  Row i's outcomes are the
    requested bins of positive mass under Bin(n_i, p_i) and ``none``
    (every other bin), where that has positive mass: K_i outcomes, one per
    slot from first_i on.  A uniform u picks slot first_i + floor(u K_i),
    which yields its own outcome when the fraction of u K_i is below the
    slot's prob, and its alias otherwise.
    """

    def __init__(self, n: np.ndarray, p: np.ndarray, bins: np.ndarray) -> None:
        none = bins.size
        self.index, tabulated, _, reach, batches = _reaching(n, p, bins)
        self.rows = self.index.size
        count = np.empty(tabulated.size, dtype=np.int64)
        smalls = np.empty(tabulated.size, dtype=np.int64)
        # A row has at most reach + 1 outcomes; the slots fill from the front.
        prob = np.empty(int(reach.sum()) + tabulated.size + 1)
        own = np.empty(prob.size, dtype=np.uint8)
        filled = 0
        for b, owner, label, masses in batches:
            # Each row's outcomes: its bins of positive mass, and none where
            # that has positive mass; scaled to mean one, each below one first.
            rest = np.maximum(1 - np.add.reduceat(masses, np.cumsum(reach[b]) - reach[b]), 0.0)
            kept, left = masses > 0, rest > 0
            owner = np.concatenate([owner[kept], np.flatnonzero(left)])
            value = np.concatenate([masses[kept], rest[left]])
            label = np.concatenate([label[kept], np.full(np.count_nonzero(left), none)])
            count[b] = np.bincount(owner, minlength=reach[b].size)
            value *= count[b][owner]
            large = value >= 1
            smalls[b] = np.bincount(owner[~large], minlength=reach[b].size)
            order = np.argsort((2 * owner + large).astype(np.int16), kind="stable")
            prob[filled : filled + value.size] = value[order]
            own[filled : filled + value.size] = label[order]
            filled += value.size

        # Draw order is index order; the slot after the last is scratch for _pair.
        offsets = np.concatenate([[0], np.cumsum(count)])
        at_row = np.searchsorted(self.index, tabulated)
        self.count, self.first = np.empty((self.rows, 1)), np.empty((self.rows, 1))
        self.count[at_row, 0], self.first[at_row, 0] = count, offsets[:-1]
        self.prob, own = prob[: filled + 1], own[: filled + 1]
        alias = own.copy()  # an unpaired slot is full, up to rounding
        _pair(self.prob, own, alias, offsets[:-1], offsets[:-1] + smalls, offsets[1:])
        # Slot s yields outcome[2 s + 1], its own, when its fraction is below prob[s], else outcome[2 s].
        self.outcome = np.stack([alias, own], axis=1).ravel()

    def draw(self, streams, counts, weights, shift) -> None:
        """Adds the weight of each row's BLOCK draws from each stream to its counts, at outcome + shift.

        ``streams`` and ``counts`` pair one generator with one 1-D int64
        array.  A stream's (rows, BLOCK) uniforms come in slices of SLICE
        rows, the same numbers as one (rows, BLOCK) draw; every stream
        draws a slice before the next slice, so its table rows stay in
        cache.  ``weights`` is None (each draw counts one) or one int64
        weight per draw, row-major.
        """
        shape = (min(self.rows, SLICE), BLOCK)
        work = np.empty(shape), np.empty(shape), np.empty(shape, dtype=np.int64), np.empty(shape, dtype=np.uint8)
        for lo in range(0, self.rows, SLICE):
            rows = slice(lo, min(lo + SLICE, self.rows))
            u, whole, slot, outcome = (a[: rows.stop - lo] for a in work)
            block_weights = None if weights is None else weights[lo * BLOCK : rows.stop * BLOCK]
            for rng, total in zip(streams, counts):
                rng.random(out=u)
                # u <= 1 - 2**-53, so floor(u K) < K for every K this small.
                u *= self.count[rows]
                np.floor(u, out=whole)
                u -= whole
                np.add(whole, self.first[rows], out=slot, casting="unsafe")
                # Every slot is in range; "clip" lets take write straight into out.
                np.take(self.prob, slot, out=whole, mode="clip")
                slot <<= 1
                slot += u < whole
                np.take(self.outcome, slot, out=outcome, mode="clip")
                np.add(outcome, shift, out=slot)
                total += bincount_percent(slot.ravel(), block_weights, total.size)


def simulate_null(
    dataset: ElectionDataset,
    quantity: str,
    replicates: int,
    seed: int,
    targets: tuple[int, ...] = DEFAULT_TARGETS,
    weight_mode: str = "precincts",
) -> NullDistribution:
    """Per-target bin weights under the size-and-proportion-preserving null.

    Block k holds replicates k * BLOCK .. k * BLOCK + BLOCK - 1, drawn
    from the stream (seed, k).  The exact-marginal null (see the module
    docstring) inverts a (BLOCK, bins) matrix of uniforms through each
    bin's cdf, row j being replicate k * BLOCK + j.  The per-precinct null
    draws first an (m, BLOCK) matrix of uniforms for the m precincts in the
    alias tables, inverted to bins, then an (m', BLOCK) matrix of binomial
    counts for the m' precincts drawn as binomials.  The precincts in
    neither never land in a requested bin.  Column j of either is
    replicate k * BLOCK + j.  Weighted modes sum exactly in int64.

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
    bins = _distinct(targets)
    column = np.searchsorted(bins, targets)
    none = bins.size  # column of every bin not requested
    width = none + 1

    # Turnout weighted by ballots weighs each replicate by its own simulated
    # ballots, so it draws them all; so do precincts whose window is too wide.
    own_ballots = quantity == QUANTITY_TURNOUT and weight_mode == "ballots"
    tabled = np.zeros(denom.size, dtype=bool) if own_ballots else count_windows(denom, p_hat)[1] <= WINDOW_CAP
    # A null over every bin is one of whole histograms, each row summing to
    # the precincts drawn, which independent draws per bin would not keep.
    if weight_mode == "precincts" and tabled.all() and bins.size < N_PERCENT_BINS:
        weights = _exact_marginal_draws(denom, p_hat, bins, replicates, seed)[:, column]
        return NullDistribution(quantity, weight_mode, tuple(targets), weights, seed, EXACT_MARGINAL)
    table = _AliasTable(denom[tabled], p_hat[tabled], bins)
    wide_n, wide_p = denom[~tabled][:, None], p_hat[~tabled][:, None]
    fixed = None if weight_mode == "precincts" or own_ballots else base_weights
    table_weights = None if fixed is None else np.repeat(fixed[tabled][table.index], BLOCK)
    wide_weights = None if fixed is None else np.repeat(fixed[~tabled], BLOCK)
    column_of_bin = np.full(N_PERCENT_BINS, none)
    column_of_bin[bins] = np.arange(none)
    shift = width * np.arange(BLOCK)

    blocks = -(-replicates // BLOCK)
    counts = np.zeros((blocks, BLOCK * width), dtype=np.int64)
    streams = [_block_rng(seed, k) for k in range(blocks)]
    if table.rows:
        table.draw(streams, counts, table_weights, shift)
    for rng, total in zip(streams, counts) if wide_n.size else ():
        sim = rng.binomial(wide_n, wide_p, size=(wide_n.size, BLOCK))
        at = column_of_bin[percent_bins(sim, wide_n)]
        at += shift
        total += bincount_percent(at.ravel(), sim.ravel() if own_ballots else wide_weights, total.size)
    weights = counts.reshape(blocks * BLOCK, width)[:replicates, column]
    return NullDistribution(quantity, weight_mode, tuple(targets), weights, seed, PER_PRECINCT_DRAWS)


def mc_p_value(null_weights: np.ndarray, observed: np.ndarray | int) -> np.ndarray:
    """One-sided add-one Monte-Carlo p-value of each column's observed bin weight, one null row per replicate."""
    r = null_weights.shape[0]
    return (1 + np.count_nonzero(null_weights >= observed, axis=0)) / (r + 1)


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
    hist = integer_percent_histogram(dataset, quantity, weight_mode)
    observed = np.array(hist.bins, dtype=np.int64)[np.asarray(targets, dtype=np.int64)]

    mean = null.weights.mean(axis=0)
    sd = null.weights.std(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sd > 0, (observed - mean) / sd, np.where(observed > mean, np.inf, 0.0))
    p = mc_p_value(null.weights, observed)
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
        null_method=null.null_method,
    )
