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
    # 101 replicates stride unevenly over every worker count; a short switch
    # interval interleaves the workers as often as the interpreter allows
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


# sha256 of the null weights' bytes, recorded with the single-threaded replicate loop.
NULL_DIGESTS = {
    ("turnout", "precincts"): "139ded553014c961939e28b945754f57da00ff8a9ec6144bbc4d633f4432f921",
    ("turnout", "registered"): "300ac0eda743f480161d435df717622dc1de934609a25fa2ca2fc22169dc69bf",
    ("turnout", "ballots"): "9a2f719734d43dde9a3c37341347d71cea6f93821a862755c9f310e879e353fa",
    ("leader_share", "precincts"): "1eedea22eec58c286e0e6f8e964b6aebaa9221dbe1c3ea753ed607a670298690",
    ("leader_share", "registered"): "2e0ea8b09fb7992a16326d26dabc9e5b37aacff0c90988e0e715aa85d5e25fb8",
    ("leader_share", "ballots"): "42cf85fbeacdf6778f38db57d770962f44165229e523b62cc7efd5ee09a0c235",
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
    real_rng = peaks._replicate_rng

    def failing_rng(seed, index):
        if index == 5:
            raise RuntimeError("replicate 5 failed")
        return real_rng(seed, index)

    monkeypatch.setattr(peaks, "_replicate_rng", failing_rng)
    monkeypatch.setattr(peaks, "_cores", lambda: workers)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="replicate 5 failed"):
        simulate_null(_null_dataset(), "leader_share", replicates=101, seed=1)
    assert threading.active_count() == before
