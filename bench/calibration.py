"""calibration_sweep: an in-process library loop over small seeded elections.

Runs in a child process of its own, so that its peak RSS is its own; the
benchmark starts several such children in turn and pools their trials,
which spreads the run over more than one process.  Set-up is the child's
library import plus one warm-up trial.  One trial
is the acceptance-criteria loop in miniature: generate an honest election,
test turnout for round peaks, inject fraud, test the leader share, build
the turnout-bin table and estimate stuffing, then split about 1000 points
into one or two clusters.  One cycle is one trial at each size in
``CALIBRATION_SIZES``; cycles repeat with the same seeds, so a trial's
results must match the same trial in every other cycle and child.

    python3 bench/calibration.py <src dir> <seed> <seconds> <trace 0|1> <result.json>
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import tracing


def _percent_hist(numer: np.ndarray, denom: np.ndarray) -> np.ndarray:
    bins = (200 * numer + denom) // (2 * denom)
    return np.bincount(bins, minlength=101)


def _check_peaks(report, numer, denom, replicates) -> list[str]:
    problems = []
    observed = _percent_hist(numer, denom)[list(report.targets)]
    if tuple(int(o) for o in observed) != report.observed:
        problems.append(f"{report.quantity}: observed bin counts differ from the data")
    if report.replicates != replicates:
        problems.append(f"{report.quantity}: {report.replicates} replicates, asked {replicates}")
    if not all(0 < p <= 1 for p in report.p_values):
        problems.append(f"{report.quantity}: p-value outside (0, 1]")
    return problems


def trial(lib, size: int, seed: int) -> tuple[str, list[str]]:
    """One calibration trial; returns a digest of its results and any failed checks."""
    synth, peaks, histograms, anomaly, scatter = lib
    replicates = inputs.CALIBRATION_REPLICATES
    generated = synth.generate_honest(inputs.calibration_model(size), seed)
    honest = generated.dataset
    turnout = peaks.detect_round_peaks(honest, "turnout", replicates=replicates, seed=seed + 77)
    dataset, truth = synth.apply_fraud(
        honest, inputs.calibration_scenario(seed + 1000), truth=generated.truth
    )
    share = peaks.detect_round_peaks(dataset, "leader_share", replicates=replicates, seed=seed)
    estimate = anomaly.estimate_stuffing(histograms.turnout_bin_table(dataset))
    arrays = dataset.counts()
    lead = dataset.leader_index
    cast = arrays.ballots_cast
    first = slice(0, inputs.CLUSTER_POINTS)
    points = [
        scatter.ScatterPoint(pid, float(c / r), float(v / c) if c else 0.0, int(r))
        for pid, c, r, v in zip(
            arrays.precinct_ids[first], cast[first], arrays.registered[first], arrays.votes[first, lead]
        )
    ]
    split = anomaly.split_two_clusters(points, seed=seed)

    h = honest.counts()
    problems = []
    if len(honest) != size:
        problems.append(f"generated {len(honest)} precincts, asked {size}")
    problems += _check_peaks(turnout, h.ballots_cast, h.registered, replicates)
    mask = cast > 0
    problems += _check_peaks(share, arrays.votes[mask, lead], cast[mask], replicates)
    if not np.array_equal(
        arrays.votes[:, lead] - h.votes[:, lead],
        truth.stuffed + truth.transferred + truth.rounding_delta,
    ):
        problems.append("leader vote change differs from injected stuffing+transfer+rounding")
    if not np.array_equal(cast - h.ballots_cast, truth.stuffed):
        problems.append("ballot change differs from injected stuffing")
    if estimate.leader_total != int(arrays.votes[:, lead].sum()) or estimate.ballots_total != int(
        cast.sum()
    ):
        problems.append("turnout-bin table totals differ from the dataset")
    if not (estimate.total_anomalous >= 0 and 0 <= estimate.adjusted_leader_share <= 1):
        problems.append("stuffing estimate out of range")
    if len(split.assignments) != len(points) or split.decision not in ("one", "two"):
        problems.append("cluster split malformed")

    summary = {
        "turnout": turnout.as_dict(),
        "share": share.as_dict(),
        "stuffing": estimate.as_dict(),
        "split": split.as_dict(),
        "skipped": list(truth.rounding_skipped),
    }
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    return digest, problems


def main(src: str, seed: int, seconds: float, trace: bool, result_path: str) -> int:
    setup_start = time.perf_counter()
    sys.path.insert(0, src)
    from election_forensics import anomaly, histograms, peaks, scatter, synth

    lib = (synth, peaks, histograms, anomaly, scatter)
    schedule = [(size, seed * 10 + j) for j, size in enumerate(inputs.CALIBRATION_SIZES)]
    _, failures = trial(lib, inputs.CALIBRATION_SIZES[0], seed * 10 + 9)  # warm-up
    setup_s = time.perf_counter() - setup_start

    latencies: list[float] = []
    digests: dict[int, str] = {}
    attempted = failed = 0

    def cycle() -> float:
        nonlocal attempted, failed
        start = time.perf_counter()
        for j, (size, trial_seed) in enumerate(schedule):
            t0 = time.perf_counter()
            digest, problems = trial(lib, size, trial_seed)
            latencies.append(time.perf_counter() - t0)
            if digests.setdefault(j, digest) != digest:
                problems.append(f"trial {j} results differ from an earlier cycle")
            attempted += 1
            if problems:
                failed += 1
                failures.extend(problems)
        return time.perf_counter() - start

    out: dict = {"setup_s": setup_s}
    begin = time.perf_counter()
    # A first round, then more while one of average length fits in ``seconds``.
    def another(rounds: int) -> bool:
        return (time.perf_counter() - begin) * (rounds + 1) / rounds <= seconds

    if not trace:
        cycles = 1
        cycle()
        while another(cycles):
            cycle()
            cycles += 1
    else:
        tracer = tracing.Tracer()
        overheads = []
        while not overheads or another(len(overheads)):
            plain = cycle()
            tracer.install()
            try:
                traced = cycle()
            finally:
                tracer.uninstall()
            overheads.append(traced - plain)
        out.update(tracer.dump(), cycles=len(overheads), overhead_s=sum(overheads))
    out.update(
        latencies=latencies, digests=digests, attempted=attempted, failed=failed, failures=failures
    )
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    src_dir, seed_arg, seconds_arg, trace_arg, result_arg = sys.argv[1:6]
    raise SystemExit(
        main(src_dir, int(seed_arg), float(seconds_arg), trace_arg == "1", result_arg)
    )
