import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from election_forensics.errors import DegenerateX, UnknownParty
from election_forensics.anomaly import split_two_clusters, superlinearity_check
from election_forensics.scatter import (
    OTHERS,
    PointCloud,
    ScatterPoint,
    build_points,
    fit_trend,
    slope_standard_error,
)
import reference_loops as reference
from conftest import quick_dataset, record


def test_everyone_votes_one_party_lies_on_diagonal():
    records = [
        record(pid=f"p{i}", registered=1000, cast=c, votes=(c, 0))
        for i, c in enumerate((100, 400, 700, 1000))
    ]
    points = build_points(quick_dataset(records), "A")
    for p in points:
        assert p.y == pytest.approx(p.x, abs=1e-12)


def test_everyone_takes_ballot_away_lies_on_x_axis():
    records = [
        record(pid=f"p{i}", registered=1000, cast=c, votes=(0, 0), invalid=0)
        for i, c in enumerate((100, 500, 900))
    ]
    points = build_points(quick_dataset(records), "A")
    assert all(p.y == 0.0 for p in points)


def test_fixed_turnout_stacks_points_vertically():
    records = [
        record(pid=f"p{i}", registered=1000, cast=500, votes=(v, 500 - v))
        for i, v in enumerate((100, 250, 400))
    ]
    points = build_points(quick_dataset(records), "A")
    assert all(p.x == 0.5 for p in points)


def test_point_count_and_share_bound():
    rng = random.Random(3)
    records = []
    for i in range(300):
        reg = rng.randint(100, 3000)
        cast = rng.randint(0, reg)
        v1 = rng.randint(0, cast)
        records.append(record(pid=f"p{i}", registered=reg, cast=cast, votes=(v1, cast - v1)))
    ds = quick_dataset(records)
    for party in ("A", "B", OTHERS):
        points = build_points(ds, party)
        assert len(points) == len(ds)
        assert all(0 <= p.y <= p.x <= 1 + 1e-12 for p in points)


def test_others_pseudo_party_sums_non_leader():
    ds = quick_dataset(
        [record(votes=(300, 150), invalid=50)], parties=("A", "B"), leader="A"
    )
    (point,) = build_points(ds, OTHERS)
    assert point.y == pytest.approx(150 / 1000)


def test_unknown_party_raises():
    with pytest.raises(UnknownParty):
        build_points(quick_dataset([record()]), "nope")


def test_fit_exact_diagonal():
    points = [ScatterPoint(str(i), x, x, 1) for i, x in enumerate((0.1, 0.4, 0.8))]
    fit = fit_trend(points)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)


def test_fit_flat_cloud():
    points = [ScatterPoint(str(i), x, 0.15, 1) for i, x in enumerate((0.2, 0.5, 0.6, 0.9))]
    fit = fit_trend(points)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.15, abs=1e-12)


def test_fit_invariant_under_permutation_and_duplication():
    rng = random.Random(11)
    points = [
        ScatterPoint(str(i), rng.random(), rng.random(), rng.randint(100, 2000))
        for i in range(50)
    ]
    base = fit_trend(points)
    shuffled = points[:]
    rng.shuffle(shuffled)
    assert fit_trend(shuffled).slope == pytest.approx(base.slope, rel=1e-12)
    doubled = fit_trend(points + points)
    assert doubled.slope == pytest.approx(base.slope, rel=1e-12)
    assert doubled.intercept == pytest.approx(base.intercept, rel=1e-12)
    assert doubled.point_count == 2 * base.point_count


def test_fit_weighted_by_registered_moves_toward_big_precincts():
    points = [
        ScatterPoint("small", 0.2, 0.9, 10),
        ScatterPoint("big1", 0.5, 0.25, 5000),
        ScatterPoint("big2", 0.8, 0.40, 5000),
    ]
    uniform = fit_trend(points, weighting="uniform")
    weighted = fit_trend(points, weighting="by_registered")
    assert weighted.slope == pytest.approx(0.5, abs=0.05)  # the two big points dominate
    assert uniform.slope < 0  # dragged negative by the tiny outlier


def test_fit_degenerate_x_raises():
    points = [ScatterPoint(str(i), 0.5, y, 1) for i, y in enumerate((0.1, 0.2, 0.3))]
    with pytest.raises(DegenerateX):
        fit_trend(points)
    with pytest.raises(DegenerateX):
        fit_trend(points[:1])


def test_slope_standard_error_of_identical_x_raises_degenerate_x():
    # the weighted mean of these x values is off by an ulp, so the fit by registered weight succeeds
    x = 0.6763800723825303
    points = [ScatterPoint(str(i), x, 0.0, w) for i, w in enumerate((1, 1, 31))]
    fit = fit_trend(points, weighting="by_registered")
    with pytest.raises(DegenerateX, match="all x values identical"):
        slope_standard_error(points, fit)


def _cloud_dataset(precincts=400, seed=5):
    from election_forensics import synth

    model = synth.HonestModel(
        precincts=precincts, parties=("A", "B", "C"), baseline_shares=(0.5, 0.3, 0.1), leader="A"
    )
    return synth.generate_honest(model, seed=seed).dataset


def test_points_are_read_only_columns_that_iterate_as_scatter_points():
    ds = _cloud_dataset()
    cloud = build_points(ds, "A", y_mode="share_of_cast")
    assert isinstance(cloud, PointCloud) and len(cloud) == len(ds)
    c = ds.counts()
    assert cloud.precinct_ids.tolist() == c.precinct_ids.tolist()
    assert cloud.weight.tolist() == c.registered.tolist()
    points = list(cloud)
    assert all(type(p) is ScatterPoint for p in points)
    assert [p.x for p in points] == (c.ballots_cast / c.registered).tolist()
    assert all(type(p.x) is float and type(p.weight) is int for p in points)
    assert PointCloud.of(points).xy().tolist() == cloud.xy().tolist()
    assert PointCloud.of(cloud) is cloud
    with pytest.raises(ValueError):
        cloud.x[0] = 0.5


@pytest.mark.parametrize("weighting", ["uniform", "by_registered"])
def test_fit_trend_is_equal_on_a_cloud_and_on_its_points(weighting):
    ds = _cloud_dataset()
    for party in ("A", "B", OTHERS):
        cloud = build_points(ds, party)
        assert fit_trend(cloud, weighting=weighting) == fit_trend(list(cloud), weighting=weighting)
        fit = fit_trend(cloud)
        assert slope_standard_error(cloud, fit) == slope_standard_error(list(cloud), fit)


def test_superlinearity_and_cluster_split_are_equal_on_a_cloud_and_on_its_points():
    ds = _cloud_dataset()
    cloud = build_points(ds, "A", y_mode="share_of_cast")
    assert superlinearity_check(cloud) == superlinearity_check(list(cloud))
    split = split_two_clusters(cloud, seed=3, restarts=4)
    assert split == split_two_clusters(list(cloud), seed=3, restarts=4)


def test_superlinearity_halves_follow_x_then_precinct_id():
    rng = random.Random(4)
    points = [
        ScatterPoint(f"p{rng.randint(0, 10**6)}-{i}", rng.choice((0.3, 0.5, 0.7)), rng.random(), 1)
        for i in range(80)
    ]
    ordered = sorted(points, key=lambda p: (p.x, p.precinct_id))
    lower, upper = ordered[:40], ordered[40:]
    result = superlinearity_check(points)
    assert result.split_x == upper[0].x
    assert result.lower_fit == fit_trend(lower)
    assert result.upper_fit == fit_trend(upper)


def _bits(*values: float) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def _assert_fits_match_the_loops(points, weighting: str) -> None:
    """``fit_trend`` and ``slope_standard_error`` give the reference loops' bits, or raise DegenerateX as they do."""
    try:
        expected = reference.fit_trend_by_point(points, weighting)
    except DegenerateX:
        with pytest.raises(DegenerateX):
            fit_trend(points, weighting=weighting)
        return
    fit = fit_trend(points, weighting=weighting)
    assert fit.point_count == expected.point_count
    assert _bits(*fit[:3]) == _bits(*expected[:3])
    try:  # x values all equal, for a fit by weight that did not see them as equal
        se = reference.slope_standard_error_by_point(points, expected)
    except ZeroDivisionError:
        with pytest.raises(DegenerateX):
            slope_standard_error(points, fit)
        return
    assert _bits(slope_standard_error(points, fit)) == _bits(se)


def _seeded_cloud(seed: int, n: int, scale: float) -> PointCloud:
    rng = np.random.default_rng(seed)
    x = rng.random(n) * scale
    y = np.clip(0.3 * x / scale + rng.normal(0.4, 0.1, n), 0.0, 1.0)
    if seed % 3 == 0:
        x[: n // 4] = -0.0  # repeated and signed zeros
    ids = np.array([f"p{i}" for i in range(n)], dtype=object)
    return PointCloud(ids, x, y, rng.integers(1, 6000, n))


@pytest.mark.parametrize("weighting", ["uniform", "by_registered"])
@pytest.mark.parametrize("seed,n,scale", [(0, 2, 1.0), (1, 3, 1.0), (2, 57, 1e-6), (3, 1000, 1.0), (4, 16_000, 1.0),
                                          (5, 4097, 1e6), (6, 333, 1.0)])
def test_fit_trend_gives_the_point_loops_bits_on_seeded_clouds(weighting, seed, n, scale):
    cloud = _seeded_cloud(seed, n, scale)
    _assert_fits_match_the_loops(cloud, weighting)
    _assert_fits_match_the_loops(list(cloud), weighting)


@pytest.mark.parametrize("weighting", ["uniform", "by_registered"])
def test_fit_trend_raises_degenerate_x_as_the_point_loops_do(weighting):
    for points in ([ScatterPoint("a", 0.5, 0.1, 3)],
                   [ScatterPoint(str(i), 0.5, y, 9) for i, y in enumerate((0.1, 0.2, 0.3))],
                   [ScatterPoint(str(i), -0.0, y, 9) for i, y in enumerate((0.1, 0.2))]):
        _assert_fits_match_the_loops(points, weighting)
        with pytest.raises(DegenerateX):
            fit_trend(points, weighting=weighting)


_unit = st.floats(0.0, 1.0)


@given(
    st.lists(st.tuples(_unit, _unit, st.integers(1, 10**6)), min_size=2, max_size=60),
    st.sampled_from(["uniform", "by_registered"]),
)
@example([(0.6763800723825303, 0.0, 1), (0.6763800723825303, 0.0, 1), (0.6763800723825303, 0.0, 31)], "by_registered")
@settings(max_examples=200, deadline=None)
def test_fit_trend_gives_the_point_loops_bits_on_any_cloud(cells, weighting):
    points = [ScatterPoint(f"p{i}", x, y, w) for i, (x, y, w) in enumerate(cells)]
    _assert_fits_match_the_loops(points, weighting)
