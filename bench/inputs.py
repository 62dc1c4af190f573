"""Synthetic inputs of the three workloads, all built with the library's ``synth``.

Every input is a function of the workload seed alone.  Model and scenario
parameters are fixed here; the seed only changes the draws.
"""

from __future__ import annotations

import json

NATIONAL_PRECINCTS = 16_000
SYNTH_PRECINCTS = 100_000
REPORT_TIMES = ("10:00", "12:00", "15:00", "18:00")
ROUNDING_TARGETS = (70, 75, 80, 85)
NATIONAL_TARGETS = (75, 80, 85)

# Four parties; a turnout mixture whose low-turnout component keeps the
# default stuffing reference window (0.15:0.35) well populated; 30% of
# precincts machine-counted over 8 territories; four intraday reports.
NATIONAL_MODEL = {
    "precincts": NATIONAL_PRECINCTS,
    "parties": ["LEAD", "OPA", "OPB", "OPC"],
    "baseline_shares": [0.52, 0.22, 0.13, 0.08],
    "leader": "LEAD",
    "registered": {"median": 1200, "sigma": 0.45, "min": 150, "max": 5000},
    "turnout_components": [
        {"mean": 0.25, "sd": 0.05, "weight": 0.25},
        {"mean": 0.50, "sd": 0.08, "weight": 0.55},
        {"mean": 0.68, "sd": 0.06, "weight": 0.20},
    ],
    "share_noise_sd": 0.04,
    "machine_fraction": 0.30,
    "territories": 8,
    "report_times": list(REPORT_TIMES),
}

# All four mechanisms.  The sets are nested by propensity, so the rounded
# precincts are also stuffed and transferred, which lifts their leader
# share into reach of the targets; each target then receives 100 or more
# rounded precincts.  The jump size (0.20 of registered) is above the 0.13
# hyperactive threshold.
NATIONAL_SCENARIO = {
    "stuffing": {"fraction": 0.08, "intensity": 0.10},
    "transfer": {"fraction": 0.08, "amount": 0.50},
    "target_rounding": {
        "fraction": 0.05,
        "targets": list(NATIONAL_TARGETS),
        "quantity": "leader_share",
        "max_adjustment": 0.05,
    },
    "intraday_jump": {"fraction": 0.01, "size": 0.20},
}

SYNTH_MODEL = dict(NATIONAL_MODEL, precincts=SYNTH_PRECINCTS)
WARMUP_MODEL = dict(NATIONAL_MODEL, precincts=1_000)

# calibration_sweep: one cycle is one trial at each of these sizes.
CALIBRATION_SIZES = (1500, 2000, 2500, 3000)
CALIBRATION_REPLICATES = 1000
CLUSTER_POINTS = 1000


def national():
    """The national election's (model, scenario); ``synth`` draws it from the workload seed."""
    from election_forensics import synth

    model = synth.model_from_json(json.dumps(NATIONAL_MODEL))
    scenario = synth.scenario_from_json(json.dumps(NATIONAL_SCENARIO))
    return model, scenario


def synth_seeds(seed: int) -> tuple[int, int, int]:
    """The ``ef synth`` seeds of one synth_export cycle."""
    return (seed * 3 + 1, seed * 3 + 2, seed * 3 + 3)


def calibration_model(precincts: int):
    from election_forensics import synth

    return synth.HonestModel(
        precincts=precincts,
        parties=("LEAD", "OPA", "OPB", "OPC"),
        baseline_shares=(0.60, 0.20, 0.10, 0.05),
        leader="LEAD",
        registered_median=1200,
        registered_sigma=0.4,
        registered_min=200,
        registered_max=5000,
        turnout_components=(
            synth.TurnoutComponent(0.30, 0.06, 0.35),
            synth.TurnoutComponent(0.55, 0.07, 0.65),
        ),
        share_noise_sd=0.04,
    )


def calibration_scenario(seed: int):
    from election_forensics import synth

    return synth.FraudScenario(
        stuffing=synth.StuffingSpec(fraction=0.15, intensity=0.15),
        transfer=synth.TransferSpec(fraction=0.15, amount=0.30),
        target_rounding=synth.RoundingSpec(
            fraction=0.30, targets=ROUNDING_TARGETS, quantity="leader_share", max_adjustment=0.05
        ),
        seed=seed,
    )
