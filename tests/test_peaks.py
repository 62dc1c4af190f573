import numpy as np
import pytest

from election_forensics import synth
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
