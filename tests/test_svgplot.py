import hashlib

import pytest

from election_forensics.errors import EmptyPlot
from election_forensics.svgplot import svg_histogram, svg_scatter


def test_empty_scatter_rejected():
    with pytest.raises(EmptyPlot):
        svg_scatter([])
    with pytest.raises(EmptyPlot):
        svg_scatter([("a", [], None)])


def test_non_finite_coordinates_rejected():
    with pytest.raises(EmptyPlot):
        svg_scatter([("a", [(0.5, float("nan"))], None)])


def test_scatter_bytes_deterministic():
    series = [("party", [(0.1, 0.2), (0.5, 0.4), (0.9, 0.7)], (0.6, 0.05))]
    a = svg_scatter(series, title="demo")
    b = svg_scatter(series, title="demo")
    assert a == b
    assert a.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in a
    assert a.rstrip().endswith("</svg>")


def test_scatter_axes_labelled_in_percent():
    svg = svg_scatter([("p", [(0.25, 0.5)], None)])
    assert "50.00%" in svg and "100.00%" in svg


def test_scatter_caps_at_eight_series():
    series = [(f"s{i}", [(0.1 * i + 0.05, 0.1)], None) for i in range(12)]
    svg = svg_scatter(series)
    assert "s7" in svg and "s8" not in svg


def test_histogram_renders_envelope_and_highlights():
    values = [0] * 101
    values[70] = 40
    values[75] = 55
    lo = [0.0] * 101
    hi = [10.0] * 101
    svg = svg_histogram(values, envelope=(lo, hi), highlights=(75,))
    assert svg.count("#d62728") == 1  # only the flagged bar in red
    assert "#bbb" in svg


def test_histogram_empty_rejected():
    with pytest.raises(EmptyPlot):
        svg_histogram([0] * 101)
    with pytest.raises(EmptyPlot):
        svg_histogram([])


def test_stuffed_scatter_draws_leader_trend_above_others():
    from election_forensics import synth
    from election_forensics.scatter import build_points, fit_trend

    model = synth.HonestModel(
        precincts=1500,
        parties=("LEAD", "OPA", "OPB"),
        baseline_shares=(0.5, 0.3, 0.15),
        leader="LEAD",
        turnout_components=(synth.TurnoutComponent(0.45, 0.04, 1.0),),
    )
    gen = synth.generate_honest(model, seed=6)
    scenario = synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=1.0, intensity=0.22, jitter=1 / 3), seed=3
    )
    ds, _ = synth.apply_fraud(gen.dataset, scenario)
    lead_points = build_points(ds, "LEAD")
    lead = fit_trend(lead_points)
    others = fit_trend(build_points(ds, "others"))
    # within the cloud's turnout range the leader trend sits above the others'
    xs = [p.x for p in lead_points]
    for x in (min(xs), max(xs)):
        assert lead.slope * x + lead.intercept > others.slope * x + others.intercept
    series = [
        ("LEAD", [(p.x, p.y) for p in build_points(ds, "LEAD")], (lead.slope, lead.intercept)),
        ("others", [(p.x, p.y) for p in build_points(ds, "others")], (others.slope, others.intercept)),
    ]
    svg = svg_scatter(series)
    assert svg == svg_scatter(series)


def test_scatter_bytes_equal_for_an_array_and_for_a_list_of_pairs():
    import numpy as np

    rng = np.random.default_rng(2)
    xy = rng.random((500, 2))
    xy[:3] = [(0.0, 1.0), (-0.0, 0.0), (1.0, 0.123456789)]
    series = [("a", xy, (0.4, 0.1)), ("b", xy[:0], None), ("c", xy[::-1] * 0.5, None)]
    pairs = [(label, [tuple(p) for p in pts.tolist()], trend) for label, pts, trend in series]
    assert svg_scatter(series, title="t") == svg_scatter(pairs, title="t")


def test_non_finite_coordinate_named_alike_for_an_array_and_for_pairs():
    import numpy as np

    pairs = [(0.5, 0.5), (0.2, float("inf")), (float("nan"), 0.1)]
    with pytest.raises(EmptyPlot) as from_pairs:
        svg_scatter([("a", [(0.1, 0.1)], None), ("b", pairs, None)])
    with pytest.raises(EmptyPlot) as from_array:
        svg_scatter([("a", np.array([(0.1, 0.1)]), None), ("b", np.array(pairs), None)])
    assert from_pairs.value.message == from_array.value.message == "non-finite coordinate (0.2, inf)"


# sha256 of each document, recorded before the histogram shared the scatter plot's frame and labels.
SVG_DIGESTS = {
    "histogram": "1d5921441f394fa9237867819e9a4014b4125a1c29a34047103d879acee846c5",
    "histogram_plain": "7dfdee73d89550c5e0f3edaa061fbac4b040f2afb8eaf7335887a6c0442139e1",
    "scatter": "b4eff5544607c4d81afd2d2f84dc544c5784a765a6095a526505b1a0183a7c10",
}


def test_svg_bytes_match_recorded_digests():
    values = [((i * 37) % 23) * 1.5 for i in range(101)]
    envelope = ([v * 0.5 for v in values], [v * 1.2 + 1 for v in values])
    documents = {
        "histogram": svg_histogram(values, title="a <&> b", envelope=envelope, highlights=(70, 75)),
        "histogram_plain": svg_histogram(values[:40], x_label="x", y_label="y"),
        "scatter": svg_scatter(
            [("a", [(0.1, 0.2), (0.5, 0.9)], (0.3, 0.1)), ("b", [(0.7, 0.4)], None)],
            title="s",
            y_label="share",
        ),
    }
    for name, digest in SVG_DIGESTS.items():
        assert hashlib.sha256(documents[name].encode()).hexdigest() == digest, name
