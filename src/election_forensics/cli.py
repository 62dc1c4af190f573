"""Command-line front end: batch diagnostics over CSV inputs.

Every subcommand writes a machine-readable ``report.json`` (plus CSV/SVG
artifacts) into ``--out``.  Randomized subcommands require an explicit
``--seed``; there is no wall-clock default, reruns must be reproducible.
Exit codes: 0 success, 1 validation/usage error, 2 I/O error.  Failures
appear on stderr as ``ERROR <code>: <message>`` lines.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, anomaly, compare, dynamics, peaks, probkit, scatter, synth
from . import histograms as hist_mod
from .dataset import csv_cells, format_rows, parse_dataset, partition, serialize_dataset
from .errors import BadCounts, EmptySelection, ForensicsError
from .report import build_report, atomic_write_text, input_digest, write_report
from .svgplot import svg_histogram, svg_scatter


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, per the CLI contract
        self.print_usage(sys.stderr)
        raise ForensicsError(message)


def _load(path: str, parse, *args) -> tuple:
    """``parse(text, *args)`` of the file's text, and the file's digest, from one read of its bytes.

    The bytes are decoded as UTF-8, a leading byte order mark dropped, with
    ``\\r\\n`` and ``\\r`` line ends read as ``\\n``, as ``Path.read_text`` reads them.
    """
    data = Path(path).read_bytes()
    text = data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
    return parse(text, *args), input_digest(path, data)


def _load_dataset(args) -> tuple:
    return _load(args.infile, parse_dataset, args.leader)


def _config(args) -> dict:
    # the output directory is not a semantic input; echoing it would break
    # byte-determinism of report.json across runs into different directories
    skip = {"func", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _parse_party_list(raw: str) -> list[str]:
    return [p for p in (s.strip() for s in raw.split(",")) if p]


def _seed(raw: str) -> int:
    """A ``--seed`` value: a non-negative integer in decimal digits, as numpy's generators take."""
    if not raw.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {raw!r}")
    return int(raw)


def _parse_window(raw: str) -> tuple[float, float]:
    lo, _, hi = raw.partition(":")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise ValueError(f"--window must be lo:hi, got {raw!r}") from None


def cmd_validate(args) -> dict:
    dataset, digest = _load_dataset(args)
    arrays = dataset.counts()
    results = {
        "records": len(dataset),
        "parties": list(dataset.roster.ids),
        "leader": dataset.designated_leader,
        "registered_total": int(arrays.registered.sum()),
        "ballots_total": int(arrays.ballots_cast.sum()),
        "votes_total": {
            p: int(arrays.votes[:, i].sum()) for i, p in enumerate(dataset.roster.ids)
        },
        "machine_counted": int(arrays.machine_counted.sum()),
    }
    return {"results": results, "inputs": [digest]}


def cmd_scatter(args) -> dict:
    dataset, digest = _load_dataset(args)
    if args.parties:
        parties = _parse_party_list(args.parties)
    else:
        parties = list(dataset.roster.ids[:7])
        if scatter.OTHERS not in parties and len(dataset.roster) > 1:
            parties.append(scatter.OTHERS)
    parties = parties[:8]
    for party in parties:  # each names a file in --out
        if Path(f"scatter_{party}.csv").name != f"scatter_{party}.csv":
            raise ValueError(f"party {party!r} does not make a plain file name; pick parties with --parties")
    out = Path(args.out)
    fits = {}
    series = []
    for party in parties:
        points = scatter.build_points(dataset, party, y_mode=args.y_mode)
        trend = None
        try:
            fit = scatter.fit_trend(points, weighting=args.weighting)
            trend = (fit.slope, fit.intercept)
            fits[party] = fit._asdict()
        except ForensicsError as exc:
            fits[party] = {"error": exc.message}
        series.append((party, points, trend))
    svg = None
    if not args.no_plots:  # every party's points and the plot are made before the first write
        svg_series = [(party, points.xy(), trend) for party, points, trend in series]
        svg = svg_scatter(svg_series, title=f"turnout vs {args.y_mode}", y_label=args.y_mode)
    for party, points, _ in series:  # one CSV text at a time
        columns = [csv_cells(points.precinct_ids), points.x, points.y, points.weight]
        rows = format_rows("%s,%.9f,%.9f,%d\n", columns)
        atomic_write_text(out / f"scatter_{party}.csv", "".join(["precinct_id,x,y,weight\n", *rows]))
    if svg is not None:
        atomic_write_text(out / "scatter.svg", svg)
    results = {
        "fits": fits,
        "y_mode": args.y_mode,
        "trend_method": f"ordinary least squares, {args.weighting} weighting",
    }
    return {"results": results, "inputs": [digest]}


def cmd_hist(args) -> dict:
    dataset, digest = _load_dataset(args)
    hist = hist_mod.integer_percent_histogram(dataset, args.quantity, args.weight_mode)
    out = Path(args.out)
    svg = None if args.no_plots else svg_histogram(hist.bins, title=f"{args.quantity} ({args.weight_mode})")
    n = len(hist.bins)
    rows = format_rows("%s,%d,%d\n", [csv_cells([hist.quantity] * n), range(n), hist.bins])
    atomic_write_text(out / "hist.csv", "".join(["quantity,bin,weight\n", *rows]))
    if svg is not None:
        atomic_write_text(out / "hist.svg", svg)
    return {
        "results": {
            "quantity": hist.quantity,
            "weight_mode": hist.weight_mode,
            "total_weight": hist.total(),
            "bins": list(hist.bins),
        },
        "inputs": [digest],
    }


def cmd_bins(args) -> dict:
    dataset, digest = _load_dataset(args)
    table = hist_mod.turnout_bin_table(dataset, args.bin_width)
    out = Path(args.out)
    k = len(table.parties)  # one row per bin and party
    lo, hi = np.repeat([table.bin_bounds(b) for b in range(table.n_bins)], k, axis=0).T
    columns = [lo, hi, list(csv_cells(table.parties)) * table.n_bins, np.ravel(table.votes),
               np.repeat(table.precinct_counts, k)]
    rows = format_rows("%.4f,%.4f,%s,%d,%d\n", columns)
    atomic_write_text(out / "bins.csv", "".join(["bin_lo,bin_hi,party,votes,precincts\n", *rows]))
    return {
        "results": {
            "bin_width": table.bin_width,
            "n_bins": table.n_bins,
            "parties": list(table.parties),
            "ballots_total": table.ballots_total(),
        },
        "inputs": [digest],
    }


def cmd_peaks(args) -> dict:
    dataset, digest = _load_dataset(args)
    try:
        targets = tuple(int(t) for t in _parse_party_list(args.targets)) if args.targets else peaks.DEFAULT_TARGETS
    except ValueError:
        raise ValueError(f"--targets must be comma-separated integer percents, got {args.targets!r}") from None
    report = peaks.detect_round_peaks(
        dataset,
        quantity=args.quantity,
        targets=targets,
        replicates=args.replicates,
        seed=args.seed,
        alpha=args.alpha,
        weight_mode=args.weight_mode,
    )
    if not args.no_plots:
        hist = hist_mod.integer_percent_histogram(dataset, args.quantity, args.weight_mode)
        null = peaks.simulate_null(
            dataset, args.quantity, args.replicates, args.seed,
            targets=tuple(range(hist_mod.N_PERCENT_BINS)), weight_mode=args.weight_mode,
        )
        lo = [float(v) for v in np.quantile(null.weights, 0.005, axis=0)]
        hi = [float(v) for v in np.quantile(null.weights, 0.995, axis=0)]
        atomic_write_text(
            Path(args.out) / "peaks.svg",
            svg_histogram(
                hist.bins,
                title=f"{args.quantity}: observed vs null envelope",
                envelope=(lo, hi),
                highlights=report.flagged,
            ),
        )
    return {"results": report.as_dict(), "inputs": [digest]}


def cmd_stuffing(args) -> dict:
    dataset, digest = _load_dataset(args)
    table = hist_mod.turnout_bin_table(dataset, args.bin_width)
    estimate = anomaly.estimate_stuffing(table, reference_window=_parse_window(args.window))
    points = scatter.build_points(dataset, dataset.designated_leader, y_mode="share_of_cast")
    results = {"stuffing": estimate.as_dict()}
    try:
        results["superlinearity"] = anomaly.superlinearity_check(points).as_dict()
    except (ForensicsError, ValueError) as exc:
        results["superlinearity"] = {"error": str(exc)}
    return {"results": results, "inputs": [digest]}


def cmd_clusters(args) -> dict:
    dataset, digest = _load_dataset(args)
    points = scatter.build_points(dataset, dataset.designated_leader, y_mode="share_of_cast")
    split = anomaly.split_two_clusters(points, seed=args.seed, restarts=args.restarts)
    if not args.no_plots:
        xy = points.xy()
        second = np.array(split.assignments) == 1
        atomic_write_text(
            Path(args.out) / "clusters.svg",
            svg_scatter(
                [
                    ("cluster 0", xy[~second], None),
                    ("cluster 1", xy[second], None),
                ],
                title="turnout vs leader share of cast",
                y_label="leader share of cast",
            ),
        )
    return {"results": split.as_dict(), "inputs": [digest]}


def cmd_contrast(args) -> dict:
    dataset, digest = _load_dataset(args)
    columns = dataset.counts()
    by = args.by
    if by == "machine":
        mask = columns.machine_counted
        label_a, label_b = "machine_counted", "hand_counted"
    elif by.startswith("territory="):
        value = by.split("=", 1)[1]
        mask = columns.territory == value
        label_a, label_b = f"territory {value}", "rest"
    elif by.startswith("tag="):
        value = by.split("=", 1)[1]
        mask = np.fromiter((value in tags for tags in columns.tags), dtype=bool, count=len(dataset))
        label_a, label_b = f"tag {value}", "rest"
    else:
        raise ValueError(f"--by must be machine, territory=<v>, or tag=<v>, got {by!r}")
    part_a, part_b = partition(dataset, mask)
    if len(part_a) == 0 or len(part_b) == 0:
        raise EmptySelection(f"split {by!r} left an empty subset")
    contrast = compare.subset_contrast(part_a, part_b, label_a=label_a, label_b=label_b)
    return {"results": contrast.as_dict(), "inputs": [digest]}


def cmd_delta(args) -> dict:
    (table_a, table_b), digest = _load(args.infile, compare.parse_delta_table)
    rows = compare.cross_election_delta(table_a, table_b)
    return {"results": {"rows": [r.as_dict() for r in rows]}, "inputs": [digest]}


def cmd_protocol_diff(args) -> dict:
    (observer, official), digest = _load(args.infile, compare.parse_protocols, args.leader)
    diff = compare.protocol_displacements(observer, official)
    if not args.no_plots and len(diff.precinct_ids):
        atomic_write_text(
            Path(args.out) / "protocol_diff.svg",
            svg_scatter(
                [("observer protocol", diff.observer, None), ("official", diff.official, None)],
                title="observer protocol vs official (turnout, leader share)",
                y_label="leader share of cast",
            ),
        )
    return {"results": diff.as_dict(), "inputs": [digest]}


def cmd_paired_scan(args) -> dict:
    dataset_a, digest_a = _load(args.in_a, parse_dataset, args.leader)
    dataset_b, digest_b = _load(args.in_b, parse_dataset, args.leader)
    result = compare.paired_contest_scan(
        dataset_a, dataset_b, threshold=args.threshold, party=args.party
    )
    return {
        "results": result.as_dict(),
        "inputs": [digest_a, digest_b],
    }


def cmd_hyperactive(args) -> dict:
    dataset, digest = _load_dataset(args)
    series_map, series_digest = _load(args.series, dynamics.parse_intraday)
    report = dynamics.flag_hyperactive(dataset, series_map, threshold=args.threshold)
    if not args.no_plots and len(report.precinct_ids):
        xy = np.column_stack((report.turnout, report.leader_share_of_cast))
        atomic_write_text(
            Path(args.out) / "hyperactive.svg",
            svg_scatter(
                [("steady", xy[~report.hot], None), ("hyperactive", xy[report.hot], None)],
                title=f"final-increment flags (threshold {args.threshold})",
                y_label="leader share of cast",
            ),
        )
    return {"results": report.as_dict(), "inputs": [digest, series_digest]}


def cmd_synth(args) -> dict:
    model, model_digest = _load(args.model, synth.model_from_json)
    inputs = [model_digest]
    scenario = None
    if args.scenario:
        scenario, scenario_digest = _load(args.scenario, synth.scenario_from_json)
        inputs.append(scenario_digest)
    election = synth.synthesize(model, scenario, args.seed)
    dataset, truth, intraday = election.dataset, election.truth, election.intraday
    del election
    results = {
        "precincts": len(dataset),
        "parties": list(dataset.roster.ids),
        "total_stuffed": int(truth.stuffed.sum()),
        "total_transferred": int(truth.transferred.sum()),
        "total_rounding_delta": int(truth.rounding_delta.sum()),
        "total_jump": int(truth.jump.sum()),
        "rounding_skipped": list(truth.rounding_skipped),
        "files": ["precincts.csv", "ground_truth.csv"] + (["intraday.csv"] if intraday else []),
    }
    out = Path(args.out)
    # Each file is written, and what only it needs freed, before the next:
    # the ground truth, the dataset, and last the largest, intraday.csv.
    atomic_write_text(out / "ground_truth.csv", truth.to_csv())
    del truth
    atomic_write_text(out / "precincts.csv", serialize_dataset(dataset))
    del dataset
    if intraday:
        atomic_write_text(out / "intraday.csv", dynamics.serialize_intraday(intraday))
    return {"results": results, "inputs": inputs}


_PROB_ARGUMENTS = {
    "odds": ("likelihood_a", "prior_a", "likelihood_b", "prior_b"),
    "run": ("p", "n"),
    "coincidence": ("total", "marked", "size"),
    "sigma": ("p", "n"),
}


def _whole(value: float, name: str) -> int:
    """A count argument as an int; BadCounts unless it is a whole number."""
    if not value.is_integer():
        raise BadCounts(f"{name} must be a whole number, got {value!r}")
    return int(value)


def cmd_prob(args) -> dict:
    names = _PROB_ARGUMENTS[args.op]
    if len(args.values) != len(names):
        raise ValueError(
            f"prob {args.op} takes {len(names)} values ({' '.join(names)}), got {len(args.values)}"
        )
    exact = None
    if args.op == "odds":
        res = probkit.posterior_odds(*args.values)
        decimal, exact = res.decimal, res.odds
        results = {"op": "odds", "decimal": decimal, "favored": res.favored}
    elif args.op == "run":
        value = probkit.run_probability(args.values[0], _whole(args.values[1], "n"))
        decimal = float(value)
        exact = value if isinstance(value, Fraction) else None
        results = {"op": "run", "decimal": decimal}
    elif args.op == "coincidence":
        res = probkit.subset_coincidence(*(_whole(v, k) for v, k in zip(args.values, names)))
        decimal, exact = res.decimal, res.probability
        results = {"op": "coincidence", "decimal": decimal}
    else:  # sigma; argparse's choices admit no other op
        decimal = probkit.proportion_sigma(args.values[0], _whole(args.values[1], "n"))
        results = {"op": "sigma", "decimal": decimal}
    if exact is not None:
        results["exact"] = str(exact)
    line = f"{decimal!r}"
    if args.exact and exact is not None:
        line += f" = {exact}"
    print(line)
    return {"results": results, "inputs": []}


def _add_common_out(sub, plots: bool = True):
    sub.add_argument("--out", required=True, help="output directory for report.json and artifacts")
    if plots:
        sub.add_argument("--no-plots", action="store_true", help="skip SVG output")


def _add_in_leader(sub):
    sub.add_argument("--in", dest="infile", required=True, help="precincts.csv path")
    sub.add_argument("--leader", required=True, help="designated leader party id")


def build_parser() -> _Parser:
    parser = _Parser(prog="ef", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ef {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("validate", help="parse and validate a precincts.csv")
    _add_in_leader(s)
    _add_common_out(s, plots=False)
    s.set_defaults(func=cmd_validate)

    s = subs.add_parser("scatter", help="turnout/share point clouds with trend fits")
    _add_in_leader(s)
    s.add_argument("--parties", default="", help="comma-separated party ids (default: first 7 + others)")
    s.add_argument("--y-mode", default="share_of_registered", choices=scatter.Y_MODES)
    s.add_argument("--weighting", default="uniform", choices=("uniform", "by_registered"))
    _add_common_out(s)
    s.set_defaults(func=cmd_scatter)

    s = subs.add_parser("hist", help="integer-percent histogram")
    _add_in_leader(s)
    s.add_argument("--quantity", default="leader_share")
    s.add_argument("--weight-mode", default="precincts", choices=hist_mod.WEIGHT_MODES)
    _add_common_out(s)
    s.set_defaults(func=cmd_hist)

    s = subs.add_parser("bins", help="per-party vote mass by turnout bin")
    _add_in_leader(s)
    s.add_argument("--bin-width", type=float, default=0.01)
    _add_common_out(s, plots=False)
    s.set_defaults(func=cmd_bins)

    s = subs.add_parser("peaks", help="Monte-Carlo round-percent peak detector")
    _add_in_leader(s)
    s.add_argument("--quantity", default="leader_share")
    s.add_argument("--weight-mode", default="precincts", choices=hist_mod.WEIGHT_MODES)
    s.add_argument("--targets", default="", help="comma-separated integer percents")
    s.add_argument("--replicates", type=int, default=1000)
    s.add_argument("--seed", type=_seed, required=True)
    s.add_argument("--alpha", type=float, default=0.01)
    _add_common_out(s)
    s.set_defaults(func=cmd_peaks)

    s = subs.add_parser("stuffing", help="anomalous-vote estimate from turnout bins")
    _add_in_leader(s)
    s.add_argument("--bin-width", type=float, default=0.01)
    s.add_argument("--window", default="0.15:0.35", help="reference turnout window lo:hi")
    _add_common_out(s, plots=False)
    s.set_defaults(func=cmd_stuffing)

    s = subs.add_parser("clusters", help="one-vs-two cluster split of (turnout, leader share)")
    _add_in_leader(s)
    s.add_argument("--seed", type=_seed, required=True)
    s.add_argument("--restarts", type=int, default=20)
    _add_common_out(s)
    s.set_defaults(func=cmd_clusters)

    s = subs.add_parser("contrast", help="subset contrast (e.g. machine vs hand counted)")
    _add_in_leader(s)
    s.add_argument("--by", default="machine", help="machine | territory=<v> | tag=<v>")
    _add_common_out(s, plots=False)
    s.set_defaults(func=cmd_contrast)

    s = subs.add_parser("delta", help="cross-election share/turnout deltas")
    s.add_argument("--in", dest="infile", required=True,
                   help="CSV with header unit,share_b,share_a,turnout_b,turnout_a (percent values)")
    _add_common_out(s, plots=False)
    s.set_defaults(func=cmd_delta)

    s = subs.add_parser("protocol-diff", help="observer protocol vs official displacement")
    s.add_argument("--in", dest="infile", required=True, help="protocols.csv path")
    s.add_argument("--leader", required=True)
    _add_common_out(s)
    s.set_defaults(func=cmd_protocol_diff)

    s = subs.add_parser("paired-scan", help="large per-precinct gaps between two contests")
    s.add_argument("--in-a", required=True, help="precincts.csv for contest A")
    s.add_argument("--in-b", required=True, help="precincts.csv for contest B")
    s.add_argument("--leader", required=True)
    s.add_argument("--party", default=None, help="party to compare (default: leader)")
    s.add_argument("--threshold", type=int, default=300)
    _add_common_out(s, plots=False)
    s.set_defaults(func=cmd_paired_scan)

    s = subs.add_parser("hyperactive", help="flag precincts with large final turnout jumps")
    _add_in_leader(s)
    s.add_argument("--series", required=True, help="intraday.csv path")
    s.add_argument("--threshold", type=float, default=dynamics.DEFAULT_HYPERACTIVE_THRESHOLD)
    _add_common_out(s)
    s.set_defaults(func=cmd_hyperactive)

    s = subs.add_parser("synth", help="generate a synthetic election (optional fraud scenario)")
    s.add_argument("--model", required=True, help="honest model JSON")
    s.add_argument("--scenario", default=None, help="fraud scenario JSON")
    s.add_argument("--seed", type=_seed, required=True)
    _add_common_out(s, plots=False)
    s.set_defaults(func=cmd_synth)

    s = subs.add_parser("prob", help="probability utilities (odds, run, coincidence, sigma)")
    s.add_argument("op", choices=tuple(_PROB_ARGUMENTS))
    s.add_argument("values", nargs="+", type=float)
    s.add_argument("--exact", action="store_true", help="also print the exact fraction")
    s.add_argument("--out", default=None, help="optional report directory")
    s.set_defaults(func=cmd_prob)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector off.

    A command builds many short-lived objects (``csv`` rows, report
    dicts) and no reference cycles besides the argument parser's, so
    collections find nothing; the parser's garbage is collected once,
    before the command runs.  The collector's previous state is restored
    on return, because tests and other callers run ``main`` in their own
    process.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(list(sys.argv[1:] if argv is None else argv))
    finally:
        if collecting:
            gc.enable()


def _run(argv: list[str]) -> int:
    parser = build_parser()
    gc.collect(0)  # argparse leaves its help formatters in reference cycles
    try:
        args = parser.parse_args(argv)
        payload = args.func(args)
        out_dir = getattr(args, "out", None)
        if out_dir:
            report = build_report(
                command=args.command,
                config=_config(args),
                inputs=payload["inputs"],
                results=payload["results"],
            )
            write_report(out_dir, report)
        return 0
    except ForensicsError as exc:
        print(f"ERROR {exc.code}: {exc.message}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"ERROR INVALID: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR IO: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry (the ``ef`` script, ``python -m election_forensics.cli``): ``main()``, then exit at once.

    The standard streams are flushed and the process ends with
    ``os._exit``, skipping the interpreter's teardown of every module and
    object, which takes longer than many commands.  So atexit handlers and
    finalizers do not run.  A flush that fails makes a run that succeeded
    exit 2 with one ``ERROR IO`` line; a run that failed keeps its code and
    its one error line.  A stream that is None (the process started with
    that descriptor closed) is skipped.  In-process callers use ``main``.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:
            continue
        try:
            stream.flush()
        except OSError as exc:
            if code == 0:
                code = 2
                if sys.stderr is not None:
                    try:
                        print(f"ERROR IO: {exc}", file=sys.stderr, flush=True)
                    except OSError:
                        pass
    os._exit(code)


if __name__ == "__main__":
    run()
