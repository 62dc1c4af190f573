"""Benchmark of the election-forensics toolkit.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the library is imported from
``src/`` and ``ef`` runs as ``python3 -m election_forensics.cli`` with
``PYTHONPATH=src`` and ``EF_THREADS`` unset (one worker).  Inputs are made
from ``--seed`` with the library's ``synth`` module during set-up.  Each
workload is a closed loop with one client: one operation at a time, no
pool.  The loop runs whole cycles of a fixed operation schedule: at least
two, so that every seeded operation is repeated and its outputs can be
compared byte for byte, and then more while another one fits in
``--seconds``.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``national_screen``: one op is one pass of the analyst's battery over a
  16k-precinct national election, one ``ef`` subprocess per command.
* ``calibration_sweep``: one op is one in-process library trial on a
  1.5k-3k precinct election; a cycle is one trial per size, and the run is
  split over three child processes in turn.
* ``synth_export``: one op is ``ef synth`` at 100k precincts; a cycle is
  three seeds.

Metrics, with ``--trace 0`` (the gated end-to-end set, same on every
workload): ``setup_s``, the median of three set-ups (input generation plus
a warm-up op); ``op_p50_s``, the median op latency; ``peak_rss_mb``, the
largest peak RSS of any child process.  The line before the result line
holds the details: per-command medians, the tail latency with its
percentile and sample count, the failed share of ops and the machine
facts.  With ``--trace 1`` the loop alternates an untraced and a traced
cycle and reports the per-layer metrics of ``tracing.PER_LAYER`` per
cycle; its spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3
CALIBRATION_CHILDREN = 3
OP_TIMEOUT_S = 170.0
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Spans each workload must fire in a traced run; a rename fails loudly.
EXPECTED_SPANS = {
    "national_screen": (
        "cli.main",
        "dataset.parse_dataset",
        "dataset.counts",
        "dataset.partition",
        "histograms.integer_percent_histogram",
        "histograms.turnout_bin_table",
        "histograms.percent_bins",
        "histograms.bincount_percent",
        "peaks.simulate_null",
        "peaks.detect_round_peaks",
        "anomaly.estimate_stuffing",
        "anomaly.superlinearity_check",
        "anomaly.split_two_clusters",
        "scatter.build_points",
        "scatter.fit_trend",
        "compare.subset_contrast",
        "compare.ks_statistic",
        "dynamics.parse_intraday",
        "dynamics.flag_hyperactive",
        "report.write_report",
        "report.atomic_write_text",
        "svgplot.svg_scatter",
        "svgplot.svg_histogram",
    ),
    "calibration_sweep": (
        "synth.generate_honest",
        "synth.apply_fraud",
        "dataset.counts",
        "peaks.simulate_null",
        "peaks.detect_round_peaks",
        "histograms.percent_bins",
        "histograms.bincount_percent",
        "histograms.turnout_bin_table",
        "anomaly.estimate_stuffing",
        "anomaly.split_two_clusters",
    ),
    "synth_export": (
        "cli.main",
        "synth.generate_honest",
        "synth.apply_fraud",
        "synth.to_csv",
        "dataset.counts",
        "dataset.serialize_dataset",
        "dynamics.serialize_intraday",
        "report.write_report",
        "report.atomic_write_text",
    ),
}


class Child(NamedTuple):
    code: int
    wall: float  # seconds from spawn to reaping
    rss_mb: float  # the child's own peak resident set


class Bench:
    """State of one benchmark run: paths, the ef environment, op records."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = Path(".bench_work") / f"{workload}-{os.getpid()}"  # relative to root
        self.env = {k: v for k, v in os.environ.items() if k != "EF_THREADS"}
        self.env["PYTHONPATH"] = str(self.src)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.details: dict = {}
        self.schema = json.loads(
            (self.src / "election_forensics" / "schemas" / "report.schema.json").read_text()
        )

    # -- child processes ---------------------------------------------------
    def spawn(self, argv: list[str], label: str) -> Child:
        """Run a child to completion and measure it.

        Peak RSS comes from the child's own rusage (``os.wait4``), not from
        RUSAGE_CHILDREN, which is a running maximum over every child reaped
        so far.
        """
        err_path = self.work / f"{label}.stderr"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        if child.code != 0:
            message = err_path.read_text(errors="replace").strip().splitlines()[-1:] or [""]
            self.note(f"{label}: exit code {child.code} {message[0]}")
        return child

    def ef(self, args: list[str], label: str, spans_path: Path | None = None) -> Child:
        if spans_path is None:
            argv = [sys.executable, "-m", "election_forensics.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracing.py"), str(self.src), str(spans_path), *args]
        return self.spawn(argv, label)

    # -- checks --------------------------------------------------------------
    def note(self, problem: str) -> None:
        self.failures.append(problem)

    def record_op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)

    def check_report(self, out_dir: Path, label: str, seen: dict) -> tuple[list[str], dict]:
        """Schema-valid report.json, byte-identical to the first run of the same op."""
        import jsonschema

        path = out_dir / "report.json"
        try:
            raw = path.read_bytes()
            report = json.loads(raw)
            jsonschema.validate(report, self.schema)
        except (OSError, ValueError, jsonschema.ValidationError) as exc:
            return [f"{label}: report.json unusable: {str(exc)[:200]}"], {}
        digest = hashlib.sha256(raw).hexdigest()
        if seen.setdefault(label, digest) != digest:
            return [f"{label}: report.json differs from an earlier run of the same op"], report
        return [], report

    def checked_op(self, args, label, out_dir, seen, verify, spans_path=None) -> Child:
        """One ef op plus its output checks."""
        shutil.rmtree(out_dir, ignore_errors=True)
        child = self.ef(args + ["--out", str(out_dir)], label, spans_path)
        if child.code != 0:
            self.record_op([f"{label}: failed"])
            return child
        problems, report = self.check_report(out_dir, label, seen)
        if report:
            problems += verify(label, report["results"], out_dir)
        self.record_op(problems)
        return child

    # -- loops ---------------------------------------------------------------
    def run_ops(self, ops, seen, verify, traced_ops=None) -> list[Child]:
        """One cycle: each (label, args) op in order, checked.

        When ``traced_ops`` is a list the ops run under the tracer and
        (label, wall, spans path, start) of each is appended to it.
        """
        children = []
        for label, args in ops:
            spans_path = None if traced_ops is None else self.work / f"spans-{label}.json"
            start = time.perf_counter()
            child = self.checked_op(args, label, self.work / "out" / label, seen, verify, spans_path)
            children.append(child)
            if traced_ops is not None:
                traced_ops.append((label, child.wall, spans_path, start))
        return children

    def run_timed(self, run_cycle) -> list[list[Child]]:
        """At least two whole cycles, then more while one fits in --seconds."""
        cycles = []
        begin = time.perf_counter()
        while len(cycles) < 2 or fits(begin, len(cycles), self.seconds):
            cycles.append(run_cycle(None))
        self.details["wall_s"] = time.perf_counter() - begin
        return cycles

    def run_traced(self, run_cycle) -> dict:
        """Pairs of an untraced and a traced cycle: one, then more while one fits."""
        spans: list[list] = []
        counts: dict[str, int] = {}
        startup = 0.0
        overheads = []
        per_command: dict[str, dict[str, int]] = {}
        cycles = 0
        begin = time.perf_counter()
        while cycles < 1 or fits(begin, cycles, self.seconds):
            plain = sum(c.wall for c in run_cycle(None))
            traced_ops = []
            traced = sum(c.wall for c in run_cycle(traced_ops))
            overheads.append(traced - plain)
            for label, wall, path, op_start in traced_ops:
                data = json.loads(path.read_text())
                offset = len(spans)
                op_span = [f"op.{label}", op_start, op_start + wall, None]
                spans.append(op_span)
                for name, start, end, parent in data["spans"]:
                    spans.append([name, start, end, offset if parent is None else parent + offset + 1])
                main = [s for s in data["spans"] if s[0] == tracing.MAIN_SPAN]
                startup += wall - sum(s[2] - s[1] for s in main)
                for key, value in data["counts"].items():
                    counts[key] = counts.get(key, 0) + value
                per_command.setdefault(label, tracing.span_counts(data["spans"]))
            cycles += 1
        self.details["spans_per_command"] = per_command
        return {
            "spans": spans,
            "counts": counts,
            "cycles": cycles,
            "startup_s": startup,
            "overhead_s": sum(overheads),
        }


# ---------------------------------------------------------------- helpers


def fits(begin: float, cycles: int, seconds: float) -> bool:
    """Whether one more cycle of average length ends within ``seconds`` of ``begin``."""
    elapsed = time.perf_counter() - begin
    return elapsed + elapsed / cycles <= seconds


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND samples no percentile at or above the
    median qualifies; the maximum is reported instead, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND  # 1-based nearest rank
    return ordered[rank - 1], 100.0 * rank / n, n


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(block.count(b"\n") for block in iter(lambda: handle.read(1 << 20), b""))


def timed_setup(make) -> tuple[float, object]:
    """Run set-up SETUP_REPEATS times; (median seconds, last result)."""
    times = []
    result = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


# ---------------------------------------------------------------- national_screen


def national_screen(b: Bench) -> dict:
    import numpy as np
    from election_forensics import synth
    from election_forensics.dataset import serialize_dataset
    from election_forensics.dynamics import DEFAULT_HYPERACTIVE_THRESHOLD as threshold
    from election_forensics.dynamics import serialize_intraday

    model, scenario = inputs.national()
    precincts = b.work / "precincts.csv"
    intraday = b.work / "intraday.csv"

    digests = set()

    def setup():
        generated = synth.synthesize(model, scenario, b.seed)
        precincts.write_text(serialize_dataset(generated.dataset), encoding="utf-8")
        intraday.write_text(serialize_intraday(generated.intraday), encoding="utf-8")
        child = b.ef(
            ["validate", "--in", str(precincts), "--leader", model.leader, "--out", str(b.work / "warm")],
            "warm-up",
        )
        if child.code != 0:
            b.note("set-up: ef validate warm-up failed")
        digests.add(sha256_file(precincts) + sha256_file(intraday))
        return generated

    setup_s, generated = timed_setup(setup)
    if len(digests) != 1:
        b.note("set-up: repeated generation from one seed gave different files")

    # Ground truth the detectors must recover.
    data = generated.dataset.counts()
    truth = generated.truth
    lead = generated.dataset.leader_index
    registered = data.registered
    rounded = truth.rounding_delta != 0
    cast = data.ballots_cast
    share_bins = (200 * data.votes[rounded, lead] + cast[rounded]) // (2 * cast[rounded])
    injected_targets = sorted(set(int(t) for t in share_bins) & set(inputs.NATIONAL_TARGETS))
    pids = np.asarray(data.precinct_ids)
    jumped = set(pids[truth.jump > threshold * registered])
    last_report = np.array([generated.intraday[p].reports[-1][1] for p in data.precinct_ids])
    increments = (cast - last_report) / registered
    hyperactive = set(pids[increments > threshold])
    b.details["ground_truth"] = {
        "injected_targets": injected_targets,
        "jump_precincts_over_threshold": len(jumped),
        "hyperactive_precincts": len(hyperactive),
    }
    if not injected_targets or not jumped:
        b.note("set-up: the national scenario injected no rounding targets or no jumps")

    def verify(label, results, out_dir):
        problems = []
        if label == "validate":
            if results["records"] != len(pids) or results["ballots_total"] != int(cast.sum()):
                problems.append("validate: record or ballot totals differ from the generated data")
        elif label.startswith("peaks"):
            missing = set(injected_targets) - set(results["flagged_targets"])
            if missing:
                problems.append(f"{label}: injected rounding targets {sorted(missing)} not flagged")
        elif label == "clusters" and results["decision"] != "two":
            problems.append("clusters: decided one cluster on a two-population election")
        elif label == "stuffing":
            if results["stuffing"]["leader_total"] != int(data.votes[:, lead].sum()):
                problems.append("stuffing: leader total differs from the generated data")
        elif label == "hyperactive":
            flagged = set(results["flagged"])
            if not jumped <= flagged:
                problems.append(f"hyperactive: {len(jumped - flagged)} jump precincts not flagged")
            if flagged != hyperactive:
                problems.append("hyperactive: flagged set differs from the ground-truth increments")
        return problems

    common = ["--in", str(precincts), "--leader", model.leader]
    seed = str(b.seed)
    commands = (
        ("validate", ["validate", *common]),
        ("scatter", ["scatter", *common]),
        ("stuffing", ["stuffing", *common]),
        ("peaks", ["peaks", *common, "--quantity", "leader_share", "--seed", seed]),
        ("peaks_noplot", ["peaks", *common, "--quantity", "leader_share", "--seed", seed, "--no-plots"]),
        ("clusters", ["clusters", *common, "--seed", seed]),
        ("contrast", ["contrast", *common, "--by", "machine"]),
        ("hyperactive", ["hyperactive", *common, "--series", str(intraday)]),
    )
    seen: dict[str, str] = {}

    def run_cycle(traced_ops):
        return b.run_ops(commands, seen, verify, traced_ops)

    if b.trace:
        return b.run_traced(run_cycle)

    # One op is one pass of the whole battery.
    passes = b.run_timed(run_cycle)
    b.details["per_command_median_s"] = {
        f"{label}_s": statistics.median([p[i].wall for p in passes]) for i, (label, _) in enumerate(commands)
    }
    return {"setup_s": setup_s, "latencies": [sum(c.wall for c in p) for p in passes]}


# ---------------------------------------------------------------- calibration_sweep


def calibration_sweep(b: Bench) -> dict:
    """Trials run in CALIBRATION_CHILDREN child processes in turn, pooled."""
    children = 1 if b.trace else CALIBRATION_CHILDREN
    setups: list[float] = []
    latencies: list[float] = []
    digests: dict[str, str] = {}
    begin = time.perf_counter()
    for k in range(children):
        result_path = b.work / f"calibration-{k}.json"
        argv = [
            sys.executable,
            str(BENCH_DIR / "calibration.py"),
            str(b.src),
            str(b.seed),
            str((b.seconds - (time.perf_counter() - begin)) / (children - k)),
            str(int(b.trace)),
            str(result_path),
        ]
        if b.spawn(argv, f"calibration-{k}").code != 0:
            raise RuntimeError("calibration child failed: " + b.failures[-1])
        out = json.loads(result_path.read_text())
        b.attempted += out["attempted"]
        b.failed += out["failed"]
        b.failures.extend(out["failures"])
        for j, digest in out["digests"].items():
            if digests.setdefault(j, digest) != digest:
                b.note(f"calibration trial {j} results differ between child processes")
        setups.append(out["setup_s"])
        latencies += out["latencies"]
    if b.trace:
        return {
            "spans": out["spans"],
            "counts": out["counts"],
            "cycles": out["cycles"],
            "startup_s": 0.0,
            "overhead_s": out["overhead_s"],
        }
    b.details["wall_s"] = time.perf_counter() - begin
    return {"setup_s": statistics.median(setups), "latencies": latencies}


# ---------------------------------------------------------------- synth_export


def synth_export(b: Bench) -> dict:
    model_path = b.work / "model.json"
    scenario_path = b.work / "scenario.json"
    warm_path = b.work / "warm_model.json"

    def setup():
        model_path.write_text(json.dumps(inputs.SYNTH_MODEL), encoding="utf-8")
        scenario_path.write_text(json.dumps(inputs.NATIONAL_SCENARIO), encoding="utf-8")
        warm_path.write_text(json.dumps(inputs.WARMUP_MODEL), encoding="utf-8")
        child = b.ef(
            ["synth", "--model", str(warm_path), "--scenario", str(scenario_path),
             "--seed", str(b.seed), "--out", str(b.work / "warm")],
            "warm-up",
        )
        if child.code != 0:
            b.note("set-up: ef synth warm-up failed")

    setup_s, _ = timed_setup(setup)
    n = inputs.SYNTH_PRECINCTS
    expected_lines = {
        "precincts.csv": n + 1,
        "ground_truth.csv": n + 1,
        "intraday.csv": n * len(inputs.REPORT_TIMES) + 1,
    }
    file_digests: dict[str, str] = {}

    def verify(label, results, out_dir):
        problems = []
        if results["precincts"] != n or sorted(results["files"]) != sorted(expected_lines):
            problems.append(f"{label}: report lists wrong precinct count or files")
        if min(results["total_stuffed"], results["total_transferred"], results["total_jump"]) <= 0:
            problems.append(f"{label}: a fraud mechanism injected nothing")
        for name, lines in expected_lines.items():
            path = out_dir / name
            if count_lines(path) != lines:
                problems.append(f"{label}: {name} has the wrong number of lines")
            digest = sha256_file(path)
            if file_digests.setdefault(f"{label}/{name}", digest) != digest:
                problems.append(f"{label}: {name} differs from an earlier run of the same seed")
        return problems

    seen: dict[str, str] = {}
    ops = [
        (f"synth-{s}", ["synth", "--model", str(model_path), "--scenario", str(scenario_path), "--seed", str(s)])
        for s in inputs.synth_seeds(b.seed)
    ]

    def run_cycle(traced_ops):
        return b.run_ops(ops, seen, verify, traced_ops)

    if b.trace:
        return b.run_traced(run_cycle)

    children = [c for cycle in b.run_timed(run_cycle) for c in cycle]
    latencies = [c.wall for c in children]
    b.details["per_command_median_s"] = {"synth_s": statistics.median(latencies)}
    return {"setup_s": setup_s, "latencies": latencies}


WORKLOADS = {
    "national_screen": national_screen,
    "calibration_sweep": calibration_sweep,
    "synth_export": synth_export,
}


# ---------------------------------------------------------------- entry point


def machine_facts(b: Bench) -> dict:
    import numpy

    commit = None
    if (b.root / ".git").exists():  # a plain source checkout has no commit to report
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=b.root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "EF_THREADS": b.env.get("EF_THREADS"),  # as the ef children see it
        "git_commit": commit,
        "workload": b.workload,
        "seed": b.seed,
        "seconds": b.seconds,
        "trace": int(b.trace),
    }


def end_to_end_metrics(b: Bench, result: dict) -> dict:
    latencies = result["latencies"]
    tail_value, tail_pct, n = tail(latencies)
    # Figures reported next to the gated ones.  The tail is not gated: with
    # fewer than 20 ops in a run it is the maximum of a few samples.
    extra = {name: (value, "s") for name, value in b.details.pop("per_command_median_s", {}).items()}
    extra["wall_s"] = (b.details.pop("wall_s"), "s")
    extra["ops_failed_frac"] = (b.failed / max(b.attempted, 1), "ratio")
    figures = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
    figures["op_tail_s"] = {"value": tail_value, "unit": "s", "percentile": tail_pct, "samples": n}
    b.details["workload_metrics"] = figures
    values = {
        "setup_s": result["setup_s"],
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mb": b.peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(b: Bench, result: dict) -> dict:
    fired = tracing.span_counts(result["spans"])
    for name in EXPECTED_SPANS[b.workload]:
        if not fired.get(name):  # a renamed or moved library function
            b.note(f"trace: declared span {name} never fired on {b.workload}")
    out_dir = b.root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{b.workload}-seed{b.seed}.json"
    trace_file.write_text(
        json.dumps({"spans": result["spans"], "counts": result["counts"], "cycles": result["cycles"]}),
        encoding="utf-8",
    )
    b.details.update(trace_file=str(trace_file.relative_to(b.root)), spans_fired=fired)
    return tracing.layer_metrics(
        result["spans"], result["counts"], result["cycles"], result["startup_s"], result["overhead_s"]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "election_forensics" / "__init__.py").is_file():
        print("bench: run from a checkout root; src/election_forensics not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    b = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    b.work.mkdir(parents=True, exist_ok=True)
    try:
        result = WORKLOADS[args.workload](b)
        metrics = per_layer_metrics(b, result) if b.trace else end_to_end_metrics(b, result)
    finally:
        shutil.rmtree(b.work, ignore_errors=True)
    b.details["machine"] = machine_facts(b)
    b.details["failures"] = b.failures[:20]
    print("details " + json.dumps(b.details, sort_keys=True))
    final = {
        "correct": not b.failures and b.attempted > 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
