import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from election_forensics import anomaly, scatter, synth
from election_forensics.anomaly import (
    estimate_stuffing,
    split_two_clusters,
    superlinearity_check,
)
from election_forensics.errors import EmptyReferenceWindow
from election_forensics.histograms import TurnoutBinTable, turnout_bin_table
from election_forensics.scatter import ScatterPoint
import reference_loops as reference
from conftest import quick_dataset, record


def _table(leader_by_bin, others_by_bin, bin_width=0.01):
    n = len(leader_by_bin)
    return TurnoutBinTable(
        bin_width=bin_width,
        parties=("L", "O"),
        leader="L",
        votes=tuple((l, o) for l, o in zip(leader_by_bin, others_by_bin)),
        precinct_counts=tuple(1 if l + o else 0 for l, o in zip(leader_by_bin, others_by_bin)),
        ballots=tuple(l + o for l, o in zip(leader_by_bin, others_by_bin)),
    )


def test_exactly_proportional_table_gives_zero():
    others = [0] * 100
    leader = [0] * 100
    for b in range(10, 90):
        others[b] = 500 + b
        leader[b] = 2 * (500 + b)  # leader = 2x others in every bin
    est = estimate_stuffing(_table(leader, others))
    assert est.reference_ratio == pytest.approx(2.0)
    assert est.total_anomalous == 0.0
    assert est.adjusted_leader_share == pytest.approx(est.leader_total / est.ballots_total)


def test_estimate_never_exceeds_leader_votes_and_share_in_unit_interval():
    rng = random.Random(5)
    leader = [rng.randint(0, 4000) for _ in range(100)]
    others = [rng.randint(1, 3000) for _ in range(100)]
    est = estimate_stuffing(_table(leader, others))
    assert 0 <= est.total_anomalous <= sum(leader)
    assert 0 <= est.adjusted_leader_share <= 1
    assert all(a >= 0 for a in est.anomalous_by_bin)


def test_empty_reference_window_rejected():
    leader = [0] * 100
    others = [0] * 100
    leader[80] = 1000
    others[80] = 500
    with pytest.raises(EmptyReferenceWindow):
        estimate_stuffing(_table(leader, others))


def test_window_bounds_respected():
    leader = [0] * 100
    others = [0] * 100
    for b in range(15, 35):
        leader[b] = 100
        others[b] = 100
    for b in range(60, 80):
        leader[b] = 500
        others[b] = 100
    est = estimate_stuffing(_table(leader, others), reference_window=(0.15, 0.35))
    assert est.reference_ratio == pytest.approx(1.0)
    assert est.total_anomalous == pytest.approx(400 * 20)
    assert "non-leader" in est.assumption.lower() or "others" in est.assumption.lower()


def test_superlinearity_exact_affine_is_linear():
    points = [
        ScatterPoint(str(i), x, 0.2 + 0.5 * x, 1)
        for i, x in enumerate(np.linspace(0.1, 0.9, 120))
    ]
    assert superlinearity_check(points).verdict == "linear"


def test_superlinearity_square_law_is_superlinear():
    points = [
        ScatterPoint(str(i), x, x * x, 1) for i, x in enumerate(np.linspace(0.2, 0.9, 120))
    ]
    result = superlinearity_check(points)
    assert result.verdict == "superlinear"
    assert result.upper_fit.slope > result.lower_fit.slope


def test_superlinearity_requires_50_points():
    points = [ScatterPoint(str(i), i / 49, i / 49, 1) for i in range(49)]
    with pytest.raises(ValueError):
        superlinearity_check(points)


def test_superlinearity_type_one_error_rate_on_affine_plus_noise():
    failures = 0
    runs = 200
    for seed in range(runs):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.2, 0.8, 300)
        y = 0.1 + 0.6 * x + rng.normal(0, 0.05, 300)
        points = [ScatterPoint(str(i), float(a), float(b), 1) for i, (a, b) in enumerate(zip(x, y))]
        if superlinearity_check(points).verdict == "superlinear":
            failures += 1
    assert failures / runs <= 0.05


def _blob_points(rng, center, sigma, n, start=0):
    xy = rng.normal(center, sigma, (n, 2))
    return [ScatterPoint(str(start + i), float(x), float(y), 1) for i, (x, y) in enumerate(xy)]


def test_two_well_separated_blobs_split_correctly():
    rng = np.random.default_rng(14)
    pts = _blob_points(rng, (0.45, 0.30), 0.03, 500) + _blob_points(rng, (0.75, 0.65), 0.03, 500, 500)
    split = split_two_clusters(pts, seed=7)
    assert split.decision == "two"
    assert split.separation_score >= 10
    # match centroids to truth irrespective of component order
    cents = sorted(split.centroids)
    assert cents[0] == pytest.approx((0.45, 0.30), abs=0.02)
    assert cents[1] == pytest.approx((0.75, 0.65), abs=0.02)
    labels = np.array(split.assignments)
    truth = np.array([0] * 500 + [1] * 500)
    accuracy = max((labels == truth).mean(), (labels != truth).mean())
    assert accuracy >= 0.95


def test_single_tight_blob_stays_one_cluster():
    rng = np.random.default_rng(3)
    pts = _blob_points(rng, (0.5, 0.45), 0.01, 600)
    assert split_two_clusters(pts, seed=1).decision == "one"


def test_duplicated_points_keep_centroids_and_decision():
    rng = np.random.default_rng(8)
    pts = _blob_points(rng, (0.4, 0.3), 0.03, 300) + _blob_points(rng, (0.7, 0.6), 0.03, 300, 300)
    base = split_two_clusters(pts, seed=5)
    doubled = split_two_clusters(pts + pts, seed=5)
    assert doubled.decision == base.decision
    for c_base, c_dup in zip(sorted(base.centroids), sorted(doubled.centroids)):
        assert c_dup == pytest.approx(c_base, abs=5e-3)


def test_cluster_split_invariant_under_permutation_and_seeded():
    rng = np.random.default_rng(4)
    pts = _blob_points(rng, (0.45, 0.35), 0.04, 200) + _blob_points(rng, (0.72, 0.62), 0.04, 200, 200)
    base = split_two_clusters(pts, seed=11)
    again = split_two_clusters(pts, seed=11)
    assert base == again
    shuffled = pts[:]
    random.Random(0).shuffle(shuffled)
    perm = split_two_clusters(shuffled, seed=11)
    assert sorted(perm.centroids) == sorted(base.centroids)
    assert perm.decision == base.decision


def test_cluster_split_requires_20_points():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        split_two_clusters(_blob_points(rng, (0.5, 0.5), 0.02, 19), seed=0)


def test_split_reports_em_iterations_and_convergence():
    rng = np.random.default_rng(14)
    pts = _blob_points(rng, (0.45, 0.30), 0.03, 200) + _blob_points(rng, (0.75, 0.65), 0.03, 200, 200)
    split = split_two_clusters(pts, seed=3, restarts=5)
    assert len(split.em_iterations) == 5
    assert all(1 < it < anomaly._MAX_EM_ITER for it in split.em_iterations)
    assert split.converged is True
    assert split.stop_rule == "|delta loglik| < 0.001"
    assert 0 <= split.last_delta_ll < anomaly.DEFAULT_EM_TOL
    d = split.as_dict()
    assert d["em_iterations"] == list(split.em_iterations)
    assert d["stop_rule"] == "|delta loglik| < 0.001"
    assert d["last_delta_ll"] == split.last_delta_ll
    assert d["converged"] is True


def test_split_capped_below_convergence_reports_not_converged(monkeypatch):
    monkeypatch.setattr(anomaly, "_MAX_EM_ITER", 2)
    rng = np.random.default_rng(14)
    pts = _blob_points(rng, (0.45, 0.30), 0.03, 200) + _blob_points(rng, (0.75, 0.65), 0.03, 200, 200)
    split = split_two_clusters(pts, seed=3, restarts=4)
    assert split.em_iterations == (2, 2, 2, 2)
    assert split.converged is False
    assert split.last_delta_ll >= anomaly.DEFAULT_EM_TOL
    assert split.as_dict()["converged"] is False


def _max_shift_e_step(a, b):
    """The E step as it was before the one-exp form: three exp and one log per point."""
    m = np.maximum(a, b)
    lse = m + np.log(np.exp(a - m) + np.exp(b - m))
    return lse, np.exp(a - lse), np.exp(b - lse)


# A log-density, the gap to the other one (past 800, exp of it underflows), and which is larger.
_log_density_pairs = st.lists(
    st.tuples(st.floats(-1000, 1000), st.floats(0, 1500), st.booleans()), min_size=1, max_size=40
)


@given(_log_density_pairs)
@example([(0.0, 0.0, True), (-3.5, 800.5, True), (12.0, 1200.0, False), (-0.6931471805599453, 0.0, True)])
@settings(max_examples=200, deadline=None)
def test_e_step_matches_max_shift_three_exp_formula(pairs):
    a = np.array([level for level, _, _ in pairs])
    b = np.array([level - gap if above else level + gap for level, gap, above in pairs])
    lse, resp = anomaly._e_step(np.stack([a, b]))
    old_lse, old_r0, old_r1 = _max_shift_e_step(a, b)
    # relative, except where lse itself is within rounding of zero
    np.testing.assert_allclose(lse, old_lse, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(resp[0], old_r0, rtol=1e-12, atol=0)
    np.testing.assert_allclose(resp[1], old_r1, rtol=1e-12, atol=0)


def _c10_inputs(seed):
    """The two-blob and single-blob point sets of acceptance criterion 10 for one seed."""
    rng = np.random.default_rng(seed)
    xy = np.vstack(
        [rng.normal((0.45, 0.30), 0.03, (500, 2)), rng.normal((0.75, 0.65), 0.03, (500, 2))]
    )
    two = [ScatterPoint(str(i), float(x), float(y), 1) for i, (x, y) in enumerate(xy)]
    blob = rng.normal((0.55, 0.42), 0.03, (1000, 2))
    one = [ScatterPoint(str(i), float(x), float(y), 1) for i, (x, y) in enumerate(blob)]
    return two, one


def test_c10_seed0_two_blobs_converge_under_the_stop_rule():
    two, _ = _c10_inputs(0)
    split = split_two_clusters(two, seed=0)
    assert split.decision == "two"
    assert split.converged is True
    assert split.last_delta_ll < anomaly.DEFAULT_EM_TOL
    assert max(split.em_iterations) < anomaly._MAX_EM_ITER


def _national_points():
    """3000 (turnout, leader share of cast) points of a seeded four-party election with fraud."""
    component = synth.TurnoutComponent
    model = synth.HonestModel(
        precincts=3000,
        parties=("LEAD", "OPA", "OPB", "OPC"),
        baseline_shares=(0.52, 0.22, 0.13, 0.08),
        leader="LEAD",
        registered_median=1200,
        registered_sigma=0.45,
        registered_min=150,
        registered_max=5000,
        turnout_components=(component(0.25, 0.05, 0.25), component(0.50, 0.08, 0.55), component(0.68, 0.06, 0.20)),
        share_noise_sd=0.04,
        machine_fraction=0.30,
        territories=8,
    )
    scenario = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=0.08, intensity=0.10),
        transfer=synth.TransferSpec(fraction=0.08, amount=0.50),
        target_rounding=synth.RoundingSpec(
            fraction=0.05, targets=(75, 80, 85), quantity="leader_share", max_adjustment=0.05
        ),
    )
    ds = synth.synthesize(model, scenario, seed=1).dataset
    return scatter.build_points(ds, ds.designated_leader, y_mode="share_of_cast")


# Recorded from the EM with the one-exp E step, dot-product M step and
# |delta loglik| < 1e-3 stopping rule.  Any change to the EM's arithmetic
# that moves one bit of these fails here; a different numpy build or CPU
# code path for exp/log1p may also move them.
GOLDEN_SPLITS = {
    "c10-two-blobs": (
        "two",
        "-0x1.725112f6e29f5p+10",
        "-0x1.b08d982246d2bp+12",
        (("0x1.806dd4f0de73ap-1", "0x1.4c1fdfa35c341p-1"), ("0x1.ca1a36e940408p-2", "0x1.32f25db408a3ep-2")),
        ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
        "5819e39211bce17d29429c28a8abdee763619d221268aee840c6bcb6f360b8d7",
    ),
    "c10-single-blob": (
        "one",
        "-0x1.04cab478f2b56p+13",
        "-0x1.0414e8609074dp+13",
        (("0x1.163bd812ce757p-1", "0x1.ba780d3e6090ap-2"), ("0x1.1b53a0f8c392fp-1", "0x1.a6b83b93cadc0p-2")),
        ("0x1.940150f93a445p-2", "0x1.35ff578362dddp-1"),
        "fc5457c0733395a6303611c6ebdd1876ea22602f88a2bdeb822574460949e29e",
    ),
    "national-3000": (
        "two",
        "-0x1.ce7152f18b501p+12",
        "-0x1.1af722eb4c108p+13",
        (("0x1.1a7087bcc9145p-1", "0x1.19b2086d354c7p-1"), ("0x1.034ba7b7c558ep-2", "0x1.0a2898d1263b7p-1")),
        ("0x1.8ce1b8d8d8b3fp-1", "0x1.cc791c9c9d2ffp-3"),
        "0fa0483de7873082937b6351efccc924ce21afa5495c7ad88a2d4e0f5cb2ce2e",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SPLITS))
def test_split_two_clusters_is_bit_identical_to_recorded_values(case):
    if case == "national-3000":
        points, seed = _national_points(), 1
    else:
        two, one = _c10_inputs(0)
        points, seed = (two if case == "c10-two-blobs" else one), 0
    split = split_two_clusters(points, seed=seed)
    decision, bic_one, bic_two, centroids, weights, digest = GOLDEN_SPLITS[case]
    assert split.decision == decision
    assert split.bic_one.hex() == bic_one
    assert split.bic_two.hex() == bic_two
    assert tuple(tuple(c.hex() for c in centroid) for centroid in split.centroids) == centroids
    assert tuple(w.hex() for w in split.weights) == weights
    assert hashlib.sha256(bytes(split.assignments)).hexdigest() == digest


def _split_with(monkeypatch, em_batch, points, seed, restarts):
    """The split, the sizes of the batches its restarts ran in, and every restart's fit, when ``em_batch`` fits them."""
    sizes, fits = [], []

    def recorded(xy, coords, seed, batch):
        sizes.append(len(batch))
        fits.extend(em_batch(xy, coords, seed, batch))
        return fits[-len(batch):]

    monkeypatch.setattr(anomaly, "_em_batch", recorded)
    return split_two_clusters(points, seed=seed, restarts=restarts), sizes, fits


def _assert_same_split(monkeypatch, points, seed, restarts, sizes):
    """The batched restarts give the split, and every restart the fit, of each restart fitted alone, bit for bit."""
    batched, batch_sizes, fits = _split_with(monkeypatch, anomaly._em_batch, points, seed, restarts)
    alone, _, alone_fits = _split_with(monkeypatch, reference.em_batch_by_restart, points, seed, restarts)
    assert batch_sizes == sizes
    assert batched == alone
    assert len(fits) == len(alone_fits) == restarts
    for fit, expected in zip(fits, alone_fits):
        assert (fit.ll, fit.iterations, fit.delta_ll) == (expected.ll, expected.iterations, expected.delta_ll)
        for got, want in ((fit.mu, expected.mu), (fit.resp, expected.resp)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return batched


# (points, restarts, batch sizes): each restart count passes a batch edge,
# at 2**14 // (2 * points) restarts per batch.
@pytest.mark.parametrize(
    "n,restarts,sizes", [(20, 3, [3]), (777, 11, [10, 1]), (1000, 9, [8, 1]), (1000, 17, [8, 8, 1]), (16_000, 2, [1, 1])]
)
def test_batched_em_restarts_match_each_restart_fitted_alone(monkeypatch, n, restarts, sizes):
    rng = np.random.default_rng(n)
    points = _blob_points(rng, (0.45, 0.30), 0.03, n // 2) + _blob_points(rng, (0.75, 0.65), 0.03, n - n // 2, n // 2)
    _assert_same_split(monkeypatch, points, 5, restarts, sizes)


def test_batched_em_keeps_a_restart_that_hits_the_iteration_cap(monkeypatch):
    """c10's single blob at seed 4: restarts 4 and 5 stop at the cap while the rest of their batch converges, and 8 alone."""
    _, one = _c10_inputs(4)
    split = _assert_same_split(monkeypatch, one, 4, 9, [8, 1])
    assert [r for r, it in enumerate(split.em_iterations) if it == anomaly._MAX_EM_ITER] == [4, 5, 8]


def test_stuffing_then_transfer_scenarios_behave_as_expected_end_to_end():
    model = synth.HonestModel(
        precincts=2500,
        parties=("LEAD", "OPA", "OPB", "OPC"),
        baseline_shares=(0.50, 0.22, 0.15, 0.08),
        leader="LEAD",
        turnout_components=(synth.TurnoutComponent(0.45, 0.03, 1.0),),
        share_noise_sd=0.04,
    )
    gen = synth.generate_honest(model, seed=77)
    stuffing_only = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=1.0, intensity=0.25, jitter=1 / 3), seed=1
    )
    both = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=1.0, intensity=0.25, jitter=1 / 3),
        transfer=synth.TransferSpec(fraction=0.35, amount=0.5),
        seed=1,
    )
    from election_forensics.scatter import build_points

    ds1, _ = synth.apply_fraud(gen.dataset, stuffing_only)
    ds2, _ = synth.apply_fraud(gen.dataset, both)
    pts1 = build_points(ds1, "LEAD", y_mode="share_of_cast")
    pts2 = build_points(ds2, "LEAD", y_mode="share_of_cast")
    assert superlinearity_check(pts1).verdict == "linear"
    assert superlinearity_check(pts2).verdict == "superlinear"
