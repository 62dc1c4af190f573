"""Spans and counts recorded around the library's public functions.

The library itself carries no instrumentation.  ``install`` wraps the
functions listed in ``TRACED`` from outside: each wrapper records a span
(name, start, end, parent) and, where a layer's work is countable, bumps a
counter from the call's arguments or result.  A function that another
module imported by name (``cli`` takes ``parse_dataset`` that way,
``peaks`` takes ``percent_bins``, ``anomaly`` takes ``fit_trend``) is
replaced in every loaded ``election_forensics`` module that holds it, so
the wrapper fires wherever the function is looked up.

A layer's self time is its spans' duration minus the part covered by
their child spans; ``layer_metrics`` turns spans and counts into the
``<module>.<what>`` metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _rows(counts, args, kwargs, result):
    counts["dataset.rows_parsed"] += len(result)


def _serialized(counts, args, kwargs, result):
    counts["dataset.bytes_serialized"] += len(result)


def _generated(counts, args, kwargs, result):
    counts["synth.precincts_generated"] += len(result.dataset)


def _fraud(counts, args, kwargs, result):
    dataset, scenario = args[0], args[1]
    truth_in = kwargs.get("truth", args[3] if len(args) > 3 else None)
    spec = scenario.target_rounding
    if spec.fraction <= 0 or not spec.targets:
        return
    eligible = len(dataset)
    if scenario.exempt_machine_counted:
        eligible -= int(dataset.counts().machine_counted.sum())
    attempted = round(spec.fraction * eligible)
    skipped_before = len(truth_in.rounding_skipped) if truth_in is not None else 0
    skipped = len(result[1].rounding_skipped) - skipped_before
    counts["synth.rounding_attempted"] += attempted
    counts["synth.rounding_applied"] += attempted - skipped


def _null(counts, args, kwargs, result):
    counts["peaks.simulate_null_calls"] += 1
    counts["peaks.null_replicates"] += result.replicates


def _points(counts, args, kwargs, result):
    counts["scatter.points_built"] += len(result)


def _written(counts, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["report.bytes_written"] += len(text.encode("utf-8"))


def _svg(counts, args, kwargs, result):
    counts["svgplot.bytes"] += len(result.encode("utf-8"))


# (module, attribute, counter); a dotted attribute names a method on a class.
TRACED = (
    ("dataset", "parse_dataset", _rows),
    ("dataset", "serialize_dataset", _serialized),
    ("dataset", "partition", None),
    ("dataset", "ElectionDataset.counts", None),
    ("synth", "generate_honest", _generated),
    ("synth", "apply_fraud", _fraud),
    ("synth", "GroundTruth.to_csv", None),
    ("histograms", "integer_percent_histogram", None),
    ("histograms", "turnout_bin_table", None),
    ("histograms", "percent_bins", None),
    ("histograms", "bincount_percent", None),
    ("peaks", "simulate_null", _null),
    ("peaks", "detect_round_peaks", None),
    ("anomaly", "estimate_stuffing", None),
    ("anomaly", "superlinearity_check", None),
    ("anomaly", "split_two_clusters", None),
    ("scatter", "build_points", _points),
    ("scatter", "fit_trend", None),
    ("compare", "subset_contrast", None),
    ("compare", "ks_statistic", None),
    ("dynamics", "parse_intraday", None),
    ("dynamics", "flag_hyperactive", None),
    ("dynamics", "serialize_intraday", None),
    ("report", "write_report", None),
    ("report", "atomic_write_text", _written),
    ("svgplot", "svg_scatter", _svg),
    ("svgplot", "svg_histogram", _svg),
)

# Span name of each traced function: "<module>.<function>".
SPAN_NAMES = tuple(f"{mod}.{attr.rsplit('.', 1)[-1]}" for mod, attr, _ in TRACED)
MAIN_SPAN = "cli.main"

# Per-layer metrics in output order: (name, unit).  "<span>_s" metrics are
# self times; the rest are counts or ratios derived below.
PER_LAYER = (
    ("cli.startup_s", "s"),
    ("cli.main_self_s", "s"),
    ("dataset.parse_dataset_s", "s"),
    ("dataset.rows_parsed", "count"),
    ("dataset.counts_s", "s"),
    ("dataset.serialize_dataset_s", "s"),
    ("dataset.bytes_serialized", "B"),
    ("dataset.partition_s", "s"),
    ("synth.generate_honest_s", "s"),
    ("synth.apply_fraud_s", "s"),
    ("synth.to_csv_s", "s"),
    ("synth.precincts_generated", "count"),
    ("synth.rounding_applied_ratio", "ratio"),
    ("histograms.integer_percent_histogram_s", "s"),
    ("histograms.turnout_bin_table_s", "s"),
    ("histograms.percent_bins_s", "s"),
    ("histograms.bincount_percent_s", "s"),
    ("peaks.simulate_null_s", "s"),
    ("peaks.detect_round_peaks_s", "s"),
    ("peaks.simulate_null_calls", "count"),
    ("peaks.null_replicates", "count"),
    ("peaks.replicates_per_s", "1/s"),
    ("anomaly.split_two_clusters_s", "s"),
    ("anomaly.estimate_stuffing_s", "s"),
    ("anomaly.superlinearity_check_s", "s"),
    ("scatter.build_points_s", "s"),
    ("scatter.fit_trend_s", "s"),
    ("scatter.points_built", "count"),
    ("compare.subset_contrast_s", "s"),
    ("compare.ks_statistic_s", "s"),
    ("dynamics.parse_intraday_s", "s"),
    ("dynamics.flag_hyperactive_s", "s"),
    ("dynamics.serialize_intraday_s", "s"),
    ("report.write_report_s", "s"),
    ("report.atomic_write_text_s", "s"),
    ("report.bytes_written", "B"),
    ("svgplot.svg_scatter_s", "s"),
    ("svgplot.svg_histogram_s", "s"),
    ("svgplot.bytes", "B"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span and count store; spans are [name, start, end, parent]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever a library module holds it."""
        importlib.import_module("election_forensics.cli")  # loads every module
        modules = [m for n, m in sys.modules.items() if n.startswith("election_forensics") and m]
        for (mod_name, attr, counter), span in zip(TRACED, SPAN_NAMES):
            module = sys.modules[f"election_forensics.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._swap(owner, meth, self.wrap(span, original, counter))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(span, original, counter)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._swap(holder, key, wrapped)

    def _swap(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans: list[list]) -> dict[str, float]:
    """Sum of each span name's duration minus the time its children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: defaultdict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] += (end - start) - child_time[i]
    return dict(totals)


def inclusive_times(spans: list[list]) -> dict[str, float]:
    totals: defaultdict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        totals[name] += end - start
    return dict(totals)


def span_counts(spans: list[list]) -> dict[str, int]:
    counts: defaultdict[str, int] = defaultdict(int)
    for name, *_ in spans:
        counts[name] += 1
    return dict(counts)


def layer_metrics(
    spans: list[list],
    counts: dict[str, int],
    cycles: int,
    startup_s: float,
    overhead_s: float,
) -> dict[str, dict]:
    """Per-layer metrics per cycle of the workload's fixed op schedule.

    Spans, counts, ``startup_s`` and ``overhead_s`` (traced minus untraced
    wall time) are totals over ``cycles`` traced cycles.
    """
    own = self_times(spans)
    incl = inclusive_times(spans)
    values: dict[str, float] = {
        "cli.startup_s": startup_s,
        "cli.main_self_s": own.get(MAIN_SPAN, 0.0),
        "trace.overhead_s": overhead_s,
    }
    for span in SPAN_NAMES:
        values[f"{span}_s"] = own.get(span, 0.0)
    for key, value in counts.items():
        values[key] = value
    attempted = counts.get("synth.rounding_attempted", 0)
    values["synth.rounding_applied_ratio"] = (
        counts.get("synth.rounding_applied", 0) / attempted if attempted else 0.0
    )
    null_s = incl.get("peaks.simulate_null", 0.0)
    values["peaks.replicates_per_s"] = (
        counts.get("peaks.null_replicates", 0) / null_s if null_s else 0.0
    )
    out = {}
    for name, unit in PER_LAYER:
        value = values.get(name, 0)
        if unit not in ("ratio", "1/s"):
            value = value / cycles
        out[name] = {"value": value, "unit": unit}
    return out


def run_traced_cli(spans_path: str, argv: list[str]) -> int:
    """Child entry: run ``cli.main`` under a tracer and dump its spans."""
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["election_forensics.cli"]
    index = tracer.begin(MAIN_SPAN)
    try:
        code = cli.main(argv)
    finally:
        tracer.end(index)
        Path(spans_path).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    # python3 bench/tracing.py <src dir> <spans.json> <ef arguments...>
    sys.path.insert(0, sys.argv[1])
    raise SystemExit(run_traced_cli(sys.argv[2], sys.argv[3:]))
