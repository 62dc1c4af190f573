"""Self-test of the benchmark's tracing: every declared span fires, counts are exact.

    python3 bench/selftest.py [workload ...]

Checks that ``BENCHMARK.json`` declares exactly the metrics the harness
prints.  Then runs each workload once with ``--trace 1 --seconds 1`` from
the current checkout root and checks the details it prints: each span
that ``run.EXPECTED_SPANS`` declares for the workload fired, the run
passed its output checks, and the per-cycle counts equal the values the
inputs fix.  A function renamed or moved in the library then fails here by name
instead of silently zeroing a layer.  Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

# Per-cycle counts each traced workload must report exactly.
EXPECTED_COUNTS = {
    "national_screen": {
        "dataset.rows_parsed": 8 * inputs.NATIONAL_PRECINCTS,  # every command parses the CSV
        "peaks.simulate_null_calls": 3,
        "peaks.null_replicates": 3 * 1000,
    },
    "calibration_sweep": {
        "synth.precincts_generated": sum(inputs.CALIBRATION_SIZES),
        "peaks.simulate_null_calls": 2 * len(inputs.CALIBRATION_SIZES),
        "peaks.null_replicates": 2 * len(inputs.CALIBRATION_SIZES) * inputs.CALIBRATION_REPLICATES,
    },
    "synth_export": {
        "synth.precincts_generated": 3 * inputs.SYNTH_PRECINCTS,
        "dataset.rows_parsed": 0,
    },
}

# Null simulations per national_screen command.  The plotted peaks command
# simulates the null twice today (once for the test, once for the plot).
NULL_CALLS_PER_COMMAND = {"peaks": 2, "peaks_noplot": 1}


def traced_run(workload: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=900, check=True,
    )
    details_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(details_line.removeprefix("details ")), json.loads(result_line)


def check(workload: str) -> list[str]:
    details, result = traced_run(workload)
    problems = [f"output check: {f}" for f in details["failures"]]
    if not result["correct"]:
        problems.append("run reported correct=false")
    fired = details["spans_fired"]
    for span in run.EXPECTED_SPANS[workload]:
        if not fired.get(span):
            problems.append(f"span {span} never fired")
    metrics = result["metrics"]
    for name, want in EXPECTED_COUNTS[workload].items():
        got = metrics[name]["value"]
        if got != want:
            problems.append(f"{name} = {got}, expected {want}")
    if workload == "national_screen":
        per_command = details["spans_per_command"]
        for command, want in NULL_CALLS_PER_COMMAND.items():
            got = per_command[command].get("peaks.simulate_null", 0)
            if got != want:
                problems.append(f"{command}: peaks.simulate_null fired {got} times, expected {want}")
    return problems


def check_declared() -> list[str]:
    """BENCHMARK.json names exactly the metrics the harness prints, with their units."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    problems = []
    for key, harness in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(harness):
            problems.append(f"BENCHMARK.json {key} differs from the harness: {declared} vs {list(harness)}")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the harness")
    return problems


def main(workloads: list[str]) -> int:
    problems = check_declared()
    failed = bool(problems)
    print(f"BENCHMARK.json: {'FAIL' if problems else 'ok'}")
    for problem in problems:
        print(f"  {problem}")
    for workload in workloads or list(run.WORKLOADS):
        problems = check(workload)
        failed |= bool(problems)
        print(f"{workload}: {'FAIL' if problems else 'ok'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
