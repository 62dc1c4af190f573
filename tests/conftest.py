"""Shared builders and the naive-baseline detector used by regression tests."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

import election_forensics
from election_forensics.dataset import ElectionDataset, PartyRoster, PrecinctRecord, make_dataset

FIXTURES = Path(__file__).parent.parent / "fixtures"
# The one statement of report.json's shape, read from the installed package data.
REPORT_SCHEMA = json.loads(
    resources.files("election_forensics").joinpath("schemas/report.schema.json").read_text(encoding="utf-8")
)


def record(
    pid: str = "p1",
    registered: int = 1000,
    cast: int = 500,
    votes: tuple[int, ...] = (300, 200),
    invalid: int = 0,
    territory: str = "T1",
    machine: bool = False,
    region: str = "R1",
) -> PrecinctRecord:
    return PrecinctRecord(
        precinct_id=pid,
        region=region,
        territory=territory,
        registered=registered,
        ballots_cast=cast,
        invalid=invalid,
        machine_counted=machine,
        votes=votes,
    )


def quick_dataset(records, parties=("A", "B"), leader="A", election_id="test") -> ElectionDataset:
    return make_dataset(election_id, PartyRoster(tuple(parties)), records, leader)


def naive_smooth_neighbor_flags(bins, targets, alpha: float = 0.01) -> list[int]:
    """Test-only baseline: Poisson z-test of a bin against its smooth neighborhood.

    This is the over-eager detector the Monte-Carlo null is designed to
    improve on: it flags any bin well above the mean of its six flanking
    bins, including bumps that are pure small-denominator discreteness.
    """
    from statistics import NormalDist

    z_crit = NormalDist().inv_cdf(1 - alpha)
    flagged = []
    for t in targets:
        neighbors = [bins[j] for j in range(t - 3, t + 4) if j != t and 0 <= j <= 100]
        expected = sum(neighbors) / len(neighbors)
        if expected > 0 and (bins[t] - expected) / math.sqrt(expected) > z_crit:
            flagged.append(t)
    return flagged


def traced_peak(fn):
    """``(fn(), peak)``: the call's result and the tracemalloc peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


# Run in a child: prints VmHWM (MB) after importing the CLI, VmHWM after the command, and its exit code.
_PEAK_SCRIPT = """
import sys
def high_water_mb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
from election_forensics.cli import main
baseline = high_water_mb()
code = main(sys.argv[1:])
print(baseline, high_water_mb(), code)
"""


def child_peak_mb(argv: list[str]) -> tuple[float, float]:
    """(after import, after the command) resident high-water marks, in MB, of ``ef argv`` run in a child.

    The child reads its own ``/proc/self/status``: the ``ru_maxrss`` that
    ``os.wait4`` reports for a child starts from its parent's high-water
    mark, so a large parent hides the child's own peak.  Skips the test
    where ``/proc`` is absent.
    """
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    env = dict(os.environ, PYTHONPATH=str(Path(election_forensics.__file__).parents[1]))
    ran = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, *argv], env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    baseline, peak, code = ran.stdout.split()
    assert code == "0", ran.stderr
    return float(baseline), float(peak)
