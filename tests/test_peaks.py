import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import election_forensics
from election_forensics import peaks, synth
from election_forensics.peaks import (
    DEFAULT_TARGETS,
    detect_round_peaks,
    mc_p_value,
    simulate_null,
)
from election_forensics.errors import EmptySelection
from election_forensics.histograms import percent_bins, weights_for
from conftest import quick_dataset, record, traced_peak
from reference_loops import poisson_binomial_by_factor


def test_two_ballot_precincts_null_mass_only_at_0_50_100():
    records = [
        record(pid=f"p{i}", registered=10, cast=2, votes=(1, 1)) for i in range(40)
    ]
    ds = quick_dataset(records)
    null = simulate_null(ds, "leader_share", replicates=150, seed=5, targets=tuple(range(101)))
    weights = null.weights.sum(axis=0)
    support = {t for t, w in zip(range(101), weights) if w > 0}
    assert support <= {0, 50, 100}
    assert weights[50] > 0


def test_null_is_deterministic_for_fixed_seed():
    ds = quick_dataset([record(pid=f"p{i}", cast=400, votes=(250, 150)) for i in range(50)])
    a = simulate_null(ds, "leader_share", replicates=120, seed=9)
    b = simulate_null(ds, "leader_share", replicates=120, seed=9)
    assert np.array_equal(a.weights, b.weights)
    c = simulate_null(ds, "leader_share", replicates=120, seed=10)
    assert not np.array_equal(a.weights, c.weights)


def test_replicate_floor_enforced():
    ds = quick_dataset([record()])
    with pytest.raises(ValueError):
        simulate_null(ds, "leader_share", replicates=50, seed=1)


def test_everyone_at_75_is_extreme():
    records = [
        record(pid=f"p{i}", registered=1000, cast=400, votes=(300, 100)) for i in range(60)
    ]
    report = detect_round_peaks(quick_dataset(records), "leader_share", replicates=400, seed=2)
    by_target = dict(zip(report.targets, report.z_scores))
    assert max(by_target, key=by_target.get) == 75
    assert dict(zip(report.targets, report.p_values))[75] <= 1 / 401
    assert 75 in report.flagged


def test_p_value_monotone_in_observed_weight():
    rng = np.random.default_rng(0)
    null_weights = rng.integers(0, 50, size=500)
    previous = 1.0
    for obs in range(0, 60, 3):
        p = mc_p_value(null_weights, obs)
        assert p <= previous + 1e-15
        previous = p


def test_p_values_super_uniform_under_self_generation():
    # datasets drawn from the null itself: the detector's p-value should be
    # stochastically >= uniform (empirical CDF under the diagonal + 3 sigma)
    base_model = synth.HonestModel(
        precincts=800,
        parties=("A", "B"),
        baseline_shares=(0.55, 0.4),
        leader="A",
        turnout_components=(synth.TurnoutComponent(0.55, 0.06, 1.0),),
        share_noise_sd=0.03,
    )
    runs = 200
    p_at_55 = []
    for seed in range(runs):
        ds = synth.generate_honest(base_model, seed=seed).dataset
        rep = detect_round_peaks(ds, "leader_share", replicates=120, seed=seed + 999)
        p_at_55.append(dict(zip(rep.targets, rep.p_values))[55])
    p = np.array(p_at_55)
    for alpha in (0.02, 0.05, 0.1, 0.25, 0.5):
        ecdf = float((p <= alpha).mean())
        band = 3 * np.sqrt(alpha * (1 - alpha) / runs)
        assert ecdf <= alpha + band, f"alpha={alpha}: ecdf={ecdf}"


def test_report_is_deterministic_and_carries_config():
    ds = quick_dataset([record(pid=f"p{i}", cast=400, votes=(260, 140)) for i in range(60)])
    a = detect_round_peaks(ds, "leader_share", replicates=150, seed=4)
    b = detect_round_peaks(ds, "leader_share", replicates=150, seed=4)
    assert a == b
    assert a.targets == DEFAULT_TARGETS
    assert a.seed == 4 and a.replicates == 150
    assert all(0 < p <= 1 for p in a.p_values)
    assert "diagnostic" in a.note


def test_turnout_quantity_supported_with_weights():
    records = [
        record(pid=f"p{i}", registered=200, cast=100 + i, votes=(60, 40)) for i in range(40)
    ]
    ds = quick_dataset(records)
    rep = detect_round_peaks(ds, "turnout", replicates=120, seed=6, weight_mode="registered")
    assert rep.quantity == "turnout"
    assert sum(rep.observed) >= 0


def test_empty_selection_is_a_typed_error():
    ds = quick_dataset([record(pid=f"p{i}", cast=0, votes=(0, 0)) for i in range(30)])
    with pytest.raises(EmptySelection):
        simulate_null(ds, "leader_share", replicates=100, seed=1)
    with pytest.raises(EmptySelection):
        detect_round_peaks(ds, "leader_share", replicates=100, seed=1)
    assert detect_round_peaks(ds, "turnout", replicates=100, seed=1).observed[0] == 0


def _null_dataset():
    model = synth.HonestModel(
        precincts=1500,
        parties=("LEAD", "OPA", "OPB"),
        baseline_shares=(0.6, 0.25, 0.1),
        leader="LEAD",
        registered_median=800,
        registered_min=50,
    )
    return synth.generate_honest(model, 3).dataset


def test_null_is_a_prefix_of_any_longer_null():
    # the last block is drawn in full and trimmed, so replicate r depends on (seed, r) alone
    ds = _null_dataset()
    short = simulate_null(ds, "turnout", replicates=101, seed=8, targets=tuple(range(101)))
    long = simulate_null(ds, "turnout", replicates=250, seed=8, targets=tuple(range(101)))
    assert short.replicates == 101 and long.replicates == 250
    assert np.array_equal(short.weights, long.weights[:101])


def _per_replicate_null(ds, quantity, replicates, seed, weight_mode):
    """The null as one generator and one binomial draw per replicate, over all 101 bins."""
    numer, denom, mask = peaks._selected(ds, quantity)
    base_weights = weights_for(ds, weight_mode)[mask].astype(float)
    p_hat = peaks.shrunken_proportions(numer, denom)
    own = quantity == "turnout" and weight_mode == "ballots"
    weights = np.empty((replicates, 101))
    for rep in range(replicates):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, rep])))
        sim = rng.binomial(denom, p_hat)
        weights[rep] = np.bincount(percent_bins(sim, denom), weights=sim if own else base_weights, minlength=101)
    return weights


@pytest.mark.parametrize("quantity", ["turnout", "leader_share"])
@pytest.mark.parametrize("weight_mode", ["precincts", "registered", "ballots"])
def test_block_null_matches_per_replicate_null_in_distribution(quantity, weight_mode):
    # independent seeds on the two sides; every bin's mean agrees within 5 standard errors
    ds = _null_dataset()
    replicates = 2000
    new = simulate_null(ds, quantity, replicates, seed=21, targets=tuple(range(101)), weight_mode=weight_mode)
    old = _per_replicate_null(ds, quantity, replicates, seed=1021, weight_mode=weight_mode)
    new_w = new.weights.astype(float)
    se = np.sqrt((new_w.var(axis=0, ddof=1) + old.var(axis=0, ddof=1)) / replicates)
    gap = np.abs(new_w.mean(axis=0) - old.mean(axis=0))
    assert np.all(gap <= 5 * se), np.flatnonzero(gap > 5 * se)


# sha256 of the null weights' bytes, drawn from the (seed, block) streams.
# ("turnout", "ballots") draws binomials; the others invert uniforms through the bin tables.
NULL_DIGESTS = {
    ("turnout", "precincts"): "38c7167b0a4cc2264e8ed4efd96ebdacc11fa1e1385ef644c0c935726be47ffc",
    ("turnout", "registered"): "4742824ed459d09b3cbf93329ddcd472bf9befb4a587ad2f5f3f8a0d666cc6fe",
    ("turnout", "ballots"): "b3ab56a2fc0624050a0a8cc781bcd981f879536ac1cdc18cdca3cd852109825c",
    ("leader_share", "precincts"): "2bd5b5a23a081d0c07369b0b9e6c7a1183c6aa36a90d82d5736842af850137b7",
    ("leader_share", "registered"): "95fcb86e7e3ea229a884122f7cce4c096462e6826755ef2f019e41fc0eed4c3e",
    ("leader_share", "ballots"): "b4c522f8d96a5847c1b5dc295e674aaf35e3464d361f7c483ea2937bfd5ecbbf",
}


@pytest.mark.parametrize("quantity,weight_mode", sorted(NULL_DIGESTS))
def test_null_weights_match_recorded_digest(quantity, weight_mode):
    null = simulate_null(
        _null_dataset(), quantity, replicates=101, seed=42, targets=tuple(range(101)), weight_mode=weight_mode
    )
    assert null.weights.dtype == np.int64 and null.weights.shape == (101, 101)
    assert hashlib.sha256(null.weights.tobytes()).hexdigest() == NULL_DIGESTS[quantity, weight_mode]


@pytest.mark.parametrize("failing", [1, 3])
def test_null_worker_error_reaches_caller(monkeypatch, failing):
    # a block's error leaves simulate_null as it was raised, and no thread is left behind
    real_rng = peaks._block_rng

    def failing_rng(seed, block):
        if block == failing:
            raise RuntimeError(f"block {block} failed")
        return real_rng(seed, block)

    monkeypatch.setattr(peaks, "_block_rng", failing_rng)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"block {failing} failed"):
        simulate_null(_null_dataset(), "leader_share", replicates=101, seed=1)
    assert threading.active_count() == before


def _scipy_bin_masses(n, p, bins):
    """P(Bin(n, p) lands in each percent bin) from scipy's cdf, with percent_bins' edges."""
    from scipy.stats import binom

    low_edge = (n * (2 * np.asarray(bins) - 1) + 199) // 200
    high_edge = (n * (2 * np.asarray(bins) + 1) + 199) // 200
    return binom.cdf(high_edge - 1, n, p) - binom.cdf(low_edge - 1, n, p)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5000), p=st.floats(0, 1), bins=st.lists(st.integers(0, 100), min_size=1, unique=True))
@example(n=1, p=0.0, bins=[0, 100])
@example(n=1, p=1.0, bins=[0, 100])
@example(n=2, p=0.5, bins=[0, 50, 100])
@example(n=2, p=1e-300, bins=[0])
@example(n=5000, p=0.5, bins=[0, 100])
@example(n=4999, p=0.999999, bins=[100])
def test_bin_masses_match_scipy(n, p, bins):
    everything = peaks.bin_masses(np.array([n]), np.array([p]), np.arange(101))[0]
    assert np.abs(everything - _scipy_bin_masses(n, p, np.arange(101))).max() <= 1e-12
    assert abs(everything.sum() - 1) <= 1e-12
    chosen = peaks.bin_masses(np.array([n]), np.array([p]), np.array(bins))[0]
    assert np.abs(chosen - everything[bins]).max() <= 1e-14


def _widest_n(p):
    """The largest n whose count window at p is at most WINDOW_CAP wide."""

    def fits(n):
        return peaks.count_windows(np.array([n]), np.array([p]))[1][0] <= peaks.WINDOW_CAP

    lo, hi = 1, 2
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("p", [0.5, 0.37, 0.93])
def test_bin_masses_match_scipy_just_under_the_window_cap(p):
    n = _widest_n(p)
    assert peaks.count_windows(np.array([n]), np.array([p]))[1][0] > peaks.WINDOW_CAP - 4
    masses = peaks.bin_masses(np.array([n]), np.array([p]), np.arange(101))[0]
    assert np.abs(masses - _scipy_bin_masses(n, p, np.arange(101))).max() <= 1e-12
    assert abs(masses.sum() - 1) <= 1e-12
    with pytest.raises(ValueError, match="wider than"):
        peaks.bin_masses(np.array([n + 1000]), np.array([p]), np.arange(101))


def test_count_window_leaves_out_less_than_the_tail_bound():
    from scipy.stats import binom

    n = np.array([1, 7, 50, 1000, 20000, 150000])
    for p in (0.0, 1e-6, 0.03, 0.5, 0.81, 1.0):
        lo, width = peaks.count_windows(n, np.full(n.size, p))
        outside = binom.cdf(lo - 1, n, p) + binom.sf(lo + width - 1, n, p)
        assert np.all(outside < peaks.TAIL_MASS), (p, outside)


def _exact_moments(ds, quantity, weight_mode):
    """Each bin's exact null mean, variance and variance of the sample variance's limit."""
    numer, denom, mask = peaks._selected(ds, quantity)
    p_hat = peaks.shrunken_proportions(numer, denom)
    w = weights_for(ds, weight_mode)[mask].astype(float)[:, None]
    q = peaks.bin_masses(denom, p_hat, np.arange(101))
    bernoulli_var = q * (1 - q)
    mean = (w * q).sum(axis=0)
    var = (w**2 * bernoulli_var).sum(axis=0)
    fourth_cumulant = (w**4 * bernoulli_var * (1 - 6 * bernoulli_var)).sum(axis=0)
    return mean, var, fourth_cumulant + 2 * var**2


def _assert_moments(weights, mean, var, var_of_var, weight_max):
    # 5 standard errors, plus one draw's weight over R for bins whose mass
    # is so small that a single hit is a many-sigma event
    r = weights.shape[0]
    slack = weight_max / r
    got_mean = weights.mean(axis=0)
    gap = np.abs(got_mean - mean)
    assert np.all(gap <= 5 * np.sqrt(var / r) + slack), np.flatnonzero(gap > 5 * np.sqrt(var / r) + slack)
    got_var = weights.var(axis=0, ddof=1)
    gap = np.abs(got_var - var)
    bound = 5 * np.sqrt(var_of_var / r) + weight_max**2 / r
    assert np.all(gap <= bound), np.flatnonzero(gap > bound)


@pytest.mark.parametrize(
    "quantity,weight_mode",
    [("leader_share", "precincts"), ("leader_share", "registered"), ("leader_share", "ballots"),
     ("turnout", "precincts"), ("turnout", "registered")],
)
def test_null_matches_exact_bin_moments(quantity, weight_mode):
    ds = _null_dataset()
    null = simulate_null(ds, quantity, 2000, seed=17, targets=tuple(range(101)), weight_mode=weight_mode)
    mean, var, var_of_var = _exact_moments(ds, quantity, weight_mode)
    weight_max = float(weights_for(ds, weight_mode).max())
    _assert_moments(null.weights.astype(float), mean, var, var_of_var, weight_max)


def _mixed_dataset():
    """300 ordinary precincts and one of 10**12 registered voters, whose window is far too wide to tabulate."""
    rng = np.random.default_rng(3)
    records = []
    for i in range(300):
        registered = int(rng.integers(100, 2000))
        cast = int(rng.binomial(registered, 0.55))
        lead = int(rng.binomial(cast, 0.6))
        records.append(record(pid=f"p{i}", registered=registered, cast=cast, votes=(lead, cast - lead)))
    cast = 55 * 10**10 + 12345
    records.append(record(pid="big", registered=10**12, cast=cast, votes=(33 * 10**10, cast - 33 * 10**10)))
    return quick_dataset(records)


@pytest.mark.parametrize("quantity,bin_of_big", [("turnout", 55), ("leader_share", 60)])
@pytest.mark.parametrize("weight_mode", ["precincts", "registered"])
def test_null_adds_binomial_and_table_draws(quantity, bin_of_big, weight_mode):
    # the big precinct is drawn as a binomial; its share sits thousands of
    # standard deviations inside one bin, so it adds its weight there in
    # every replicate, and the other bins follow the tabulated precincts
    ds = _mixed_dataset()
    numer, denom, mask = peaks._selected(ds, quantity)
    p_hat = peaks.shrunken_proportions(numer, denom)
    assert peaks.count_windows(denom, p_hat)[1][-1] > peaks.WINDOW_CAP
    assert peaks.count_windows(denom, p_hat)[1][:-1].max() <= peaks.WINDOW_CAP
    w = weights_for(ds, weight_mode)[mask]
    null = simulate_null(ds, quantity, 2000, seed=5, targets=tuple(range(101)), weight_mode=weight_mode)
    weights = null.weights.copy()
    assert np.all(weights[:, bin_of_big] >= w[-1])
    weights[:, bin_of_big] -= w[-1]

    q = peaks.bin_masses(denom[:-1], p_hat[:-1], np.arange(101))
    wf = w[:-1].astype(float)[:, None]
    bernoulli_var = q * (1 - q)
    var = (wf**2 * bernoulli_var).sum(axis=0)
    var_of_var = (wf**4 * bernoulli_var * (1 - 6 * bernoulli_var)).sum(axis=0) + 2 * var**2
    _assert_moments(weights.astype(float), (wf * q).sum(axis=0), var, var_of_var, float(w[:-1].max()))


# sha256 of the mixed null's weights: 300 tabled precincts and one drawn as a binomial, one stream per block.
MIXED_NULL_DIGEST = "e7e7ec914695b138807247b36c0eb35d5e3732ad29ab9596bda3136790d1fa7d"


def test_mixed_null_matches_recorded_digest():
    null = simulate_null(_mixed_dataset(), "turnout", 101, 8, tuple(range(101)), "registered")
    assert null.weights.dtype == np.int64 and null.weights.shape == (101, 101)
    assert hashlib.sha256(null.weights.tobytes()).hexdigest() == MIXED_NULL_DIGEST


@pytest.mark.parametrize("workers", [2, 3])
def test_mixed_null_does_not_depend_on_worker_count(workers):
    # callers may run nulls on one dataset from several threads at once; a
    # short switch interval interleaves them as often as the interpreter
    # allows, and each still gets the recorded bits
    ds = _mixed_dataset()
    args = (ds, "turnout", 101, 8, tuple(range(101)), "registered")
    results = [None] * workers

    def run(i):
        results[i] = simulate_null(*args).weights

    threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for weights in results:
        assert weights is not None
        assert hashlib.sha256(weights.tobytes()).hexdigest() == MIXED_NULL_DIGEST


def test_repeated_and_unsorted_targets_get_their_own_columns():
    ds = _null_dataset()
    ordered = simulate_null(ds, "leader_share", 120, seed=3, targets=(0, 60, 65))
    picked = simulate_null(ds, "leader_share", 120, seed=3, targets=(65, 60, 65, 0))
    assert np.array_equal(picked.weights, ordered.weights[:, [2, 1, 2, 0]])


def test_null_memory_stays_small():
    # a calibration-sized election: 3000 precincts, registered ~1200
    model = synth.HonestModel(
        precincts=3000,
        parties=("LEAD", "OPA", "OPB", "OPC"),
        baseline_shares=(0.60, 0.20, 0.10, 0.05),
        leader="LEAD",
        registered_median=1200,
        registered_sigma=0.4,
        registered_min=200,
        registered_max=5000,
        turnout_components=(synth.TurnoutComponent(0.30, 0.06, 0.35), synth.TurnoutComponent(0.55, 0.07, 0.65)),
        share_noise_sd=0.04,
    )
    ds = synth.generate_honest(model, 0).dataset
    # a first call caches the count arrays and makes the imports, which are not the null's memory
    simulate_null(ds, "turnout", 100, 2)
    _, peak = traced_peak(lambda: simulate_null(ds, "turnout", 1000, 1))
    assert peak < 1_500_000


def test_precinct_weighted_null_inverts_each_bins_exact_cdf():
    # column j of block k's uniforms goes through the cdf of bin j's exact law
    ds = _null_dataset()
    numer, denom, _ = peaks._selected(ds, "leader_share")
    q = peaks.bin_masses(denom, peaks.shrunken_proportions(numer, denom), np.arange(101))
    null = simulate_null(ds, "leader_share", 105, seed=4, targets=tuple(range(100)))
    assert null.null_method == "exact_marginal"
    uniforms = np.vstack([peaks._block_rng(4, k).random((peaks.BLOCK, 100)) for k in range(11)])[:105]
    for b in range(100):
        # a factor of zero changes no law
        law = poisson_binomial_by_factor(q[q[:, b] > 0, b])
        cdf = np.cumsum(law) / law.sum()
        assert np.array_equal(null.weights[:, b], np.searchsorted(cdf, uniforms[:, b], side="right")), b


def test_exact_null_leaves_numpy_fft_unimported():
    # numpy.fft costs a process about 0.8 MB of resident memory on import and first use; the
    # exact law needs none of it, and only a fresh child shows whether it was loaded
    script = (
        "import sys\n"
        "from election_forensics import peaks, synth\n"
        "model = synth.HonestModel(precincts=1500, parties=('LEAD', 'OPA', 'OPB'), baseline_shares=(0.6, 0.25, 0.1),\n"
        "                          leader='LEAD', registered_median=800, registered_min=50)\n"
        "null = peaks.simulate_null(synth.generate_honest(model, 3).dataset, 'leader_share', 100, 4)\n"
        "assert null.null_method == peaks.EXACT_MARGINAL\n"
        "print('numpy.fft' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(election_forensics.__file__).parents[1]))
    ran = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60,
                         check=True)
    assert ran.stdout == "False\n"


@pytest.mark.parametrize(
    "weight_mode,dataset,method",
    [("precincts", _null_dataset, "exact_marginal"), ("registered", _null_dataset, "per_precinct_draws"),
     ("ballots", _null_dataset, "per_precinct_draws"), ("precincts", _mixed_dataset, "per_precinct_draws")],
    ids=["precincts", "registered", "ballots", "wide-window"],
)
def test_null_and_report_name_the_method_that_drew_them(weight_mode, dataset, method):
    ds = dataset()
    assert simulate_null(ds, "turnout", 100, 1, weight_mode=weight_mode).null_method == method
    report = detect_round_peaks(ds, "turnout", replicates=100, seed=1, weight_mode=weight_mode)
    assert report.null_method == method and report.as_dict()["null_method"] == method


def test_exact_null_where_no_precinct_reaches_a_target_is_all_zero():
    ds = quick_dataset([record(pid=f"p{i}", cast=0, votes=(0, 0)) for i in range(30)])
    null = simulate_null(ds, "turnout", 100, 1)
    assert null.null_method == "exact_marginal"
    assert null.weights.shape == (100, len(DEFAULT_TARGETS)) and not null.weights.any()


# sha256 of the exact-marginal null's weights over bins 0..99: each bin's count inverted through its exact cdf.
EXACT_NULL_DIGESTS = {
    "turnout": "4351b1f1df73328cca79fc1e3d20c8b37883e9fb31a91c8a12a1811e25141b62",
    "leader_share": "17b2368749126e88cfab1ce54e9592ab441aec44341cfa55b282f0896085cdd7",
}


@pytest.mark.parametrize("quantity", sorted(EXACT_NULL_DIGESTS))
def test_exact_marginal_null_matches_recorded_digest(quantity):
    null = simulate_null(_null_dataset(), quantity, replicates=101, seed=42, targets=tuple(range(100)))
    assert null.null_method == "exact_marginal"
    assert null.weights.dtype == np.int64 and null.weights.shape == (101, 100)
    assert hashlib.sha256(null.weights.tobytes()).hexdigest() == EXACT_NULL_DIGESTS[quantity]


@pytest.mark.parametrize("quantity", ["leader_share", "turnout"])
def test_exact_marginal_null_matches_exact_bin_moments(quantity):
    ds = _null_dataset()
    null = simulate_null(ds, quantity, 2000, seed=17, targets=tuple(range(100)))
    assert null.null_method == "exact_marginal"
    mean, var, var_of_var = _exact_moments(ds, quantity, "precincts")
    _assert_moments(null.weights.astype(float), mean[:100], var[:100], var_of_var[:100], 1.0)


def test_a_null_over_every_bin_draws_whole_histograms():
    # each replicate row is a histogram of every included precinct, which per-bin draws would not keep
    ds = _null_dataset()
    null = simulate_null(ds, "leader_share", 120, seed=2, targets=tuple(range(101)))
    assert null.null_method == "per_precinct_draws"
    assert (null.weights.sum(axis=1) == len(ds)).all()
