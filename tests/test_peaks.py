import hashlib
import sys
import threading

import numpy as np
import pytest

from election_forensics import peaks, synth
from election_forensics.peaks import (
    DEFAULT_TARGETS,
    detect_round_peaks,
    mc_p_value,
    simulate_null,
)
from election_forensics.errors import EmptySelection
from election_forensics.histograms import percent_bins, weights_for
from conftest import quick_dataset, record


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


@pytest.mark.parametrize("workers", [2, 3, 7])
def test_null_weights_do_not_depend_on_worker_count(monkeypatch, workers):
    # 101 replicates make 11 blocks, which stride unevenly over every worker
    # count; a short switch interval interleaves the workers as often as the
    # interpreter allows
    ds = _null_dataset()
    monkeypatch.setattr(peaks, "_cores", lambda: 1)
    serial = simulate_null(ds, "leader_share", replicates=101, seed=8, targets=tuple(range(101)))
    monkeypatch.setattr(peaks, "_cores", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = simulate_null(ds, "leader_share", replicates=101, seed=8, targets=tuple(range(101)))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(threaded.weights, serial.weights)


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


# sha256 of the null weights' bytes, recorded with one worker from the (seed, block) streams.
NULL_DIGESTS = {
    ("turnout", "precincts"): "638d6f66b65134d81d28126f1f3e7f56e81bdd51358daaa27f46e6f08c19da16",
    ("turnout", "registered"): "af4d3af59e3a4b1954c6d5a9246d71b56b6ed0e867c71976c7176a41d14473d8",
    ("turnout", "ballots"): "b3ab56a2fc0624050a0a8cc781bcd981f879536ac1cdc18cdca3cd852109825c",
    ("leader_share", "precincts"): "1b15323d34cff4dd224a9528dd1e443b3db621281a4bc768c5f5fa0f379c651b",
    ("leader_share", "registered"): "d25c715744120540c060e5e1908c7fa23411e98617aafdd9ee24d0bdeb634438",
    ("leader_share", "ballots"): "1af972d7c6a46884c0f0e9c21c46b1dd4d63b5416ed08c98253d99f891680859",
}


@pytest.mark.parametrize("quantity,weight_mode", sorted(NULL_DIGESTS))
def test_null_weights_match_recorded_digest(quantity, weight_mode):
    null = simulate_null(
        _null_dataset(), quantity, replicates=101, seed=42, targets=tuple(range(101)), weight_mode=weight_mode
    )
    assert null.weights.dtype == np.int64 and null.weights.shape == (101, 101)
    assert hashlib.sha256(null.weights.tobytes()).hexdigest() == NULL_DIGESTS[quantity, weight_mode]


@pytest.mark.parametrize("workers", [1, 3])
def test_null_worker_error_reaches_caller(monkeypatch, workers):
    real_rng = peaks._block_rng

    def failing_rng(seed, block):
        if block == 5:
            raise RuntimeError("block 5 failed")
        return real_rng(seed, block)

    monkeypatch.setattr(peaks, "_block_rng", failing_rng)
    monkeypatch.setattr(peaks, "_cores", lambda: workers)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block 5 failed"):
        simulate_null(_null_dataset(), "leader_share", replicates=101, seed=1)
    assert threading.active_count() == before
