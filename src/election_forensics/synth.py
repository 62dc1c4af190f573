"""Synthetic election generator with injectable fraud mechanisms.

The honest generator draws precinct sizes from a clamped log-normal,
turnout probabilities from a truncated Gaussian mixture (heterogeneous
electorates are mixtures, so a multi-component turnout model is the
honest-world baseline detectors must tolerate), ballots as a binomial of
registered voters, and votes as a multinomial over jittered baseline
shares with the remainder going to invalid ballots.

Fraud mechanisms share a single per-precinct propensity draw: a mechanism
with fraction f affects exactly round(f * n_eligible) precincts, those
with the lowest propensity, so the sets of a combined scenario are nested
(precincts willing to stuff are also the ones willing to move votes).
Mechanisms:

* stuffing - adds ballots credited to the leader, raising turnout and the
  leader's share of registered 1:1; per-precinct intensity is a Gaussian
  spread around the scenario intensity, largest where propensity is lowest.
* transfer - moves a fraction of every other party's votes to the leader
  at fixed turnout.
* target_rounding - minimally adjusts counts so turnout or leader share
  lands within half a point of the nearest listed percent target (stuffing
  moves turnout up; transfer moves leader share in either direction).
  Precincts where no target is reachable within the cap are skipped and
  recorded.
* intraday_jump - end-of-day stuffing, one fixed size, invisible to intraday reports.

Generation is deterministic for a fixed (model, scenario, seed): draws are
made in fixed-size precinct blocks, each from its own (seed, block) stream,
so a parallel map over blocks reproduces the sequential output exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dataset import (
    MAX_COUNT,
    ROW_BLOCK,
    DatasetArrays,
    ElectionDataset,
    PartyRoster,
    check_invariants,
    csv_cells,
    format_rows,
    no_tags,
)
from .dynamics import IntradayTable, parse_time
from .errors import InvalidModel, MalformedRow
from .histograms import QUANTITY_LEADER_SHARE, QUANTITY_TURNOUT
from .scatter import sum_left_to_right

BLOCK = 4096
MAX_PRECINCTS = 10_000_000  # the generator holds several arrays of this length
_FRAUD_STREAM = 1_000_003  # offset keeping fraud draws disjoint from generation blocks


class TurnoutComponent(NamedTuple):
    mean: float
    sd: float
    weight: float


@dataclass(frozen=True)
class HonestModel:
    precincts: int
    parties: tuple[str, ...]
    baseline_shares: tuple[float, ...]
    leader: str
    registered_median: float = 1500.0
    registered_sigma: float = 0.4
    registered_min: int = 100
    registered_max: int = 6000
    turnout_components: tuple[TurnoutComponent, ...] = (TurnoutComponent(0.5, 0.08, 1.0),)
    share_noise_sd: float = 0.04
    machine_fraction: float = 0.0
    territories: int = 1
    report_times: tuple[int, ...] = ()  # distinct minutes since midnight; empty = no intraday

    def validate(self) -> None:
        if not 0 <= self.precincts <= MAX_PRECINCTS:
            raise InvalidModel(f"precincts must be in 0..{MAX_PRECINCTS}, got {self.precincts}")
        if not self.parties or len(set(self.parties)) != len(self.parties):
            raise InvalidModel("parties must be non-empty and unique")
        if len(self.baseline_shares) != len(self.parties):
            raise InvalidModel("baseline_shares must align with parties")
        if any(s < 0 for s in self.baseline_shares):
            raise InvalidModel("baseline shares must be non-negative")
        share_total = sum_left_to_right(np.asarray(self.baseline_shares, dtype=np.float64))
        if share_total > 1 + 1e-12:
            raise InvalidModel(f"baseline shares sum to {share_total} > 1")
        if self.leader not in self.parties:
            raise InvalidModel(f"leader {self.leader!r} not among parties")
        if not self.turnout_components:
            raise InvalidModel("need at least one turnout component")
        wsum = sum_left_to_right(np.array([c.weight for c in self.turnout_components], dtype=np.float64))
        if abs(wsum - 1.0) > 1e-9:
            raise InvalidModel(f"turnout component weights sum to {wsum}, need 1")
        if any(c.sd < 0 or not 0 <= c.mean <= 1 for c in self.turnout_components):
            raise InvalidModel("turnout components need mean in [0,1] and sd >= 0")
        if not 1 <= self.registered_min <= self.registered_max <= MAX_COUNT:
            raise InvalidModel(f"need 1 <= registered_min <= registered_max <= {MAX_COUNT}")
        if not 0 <= self.machine_fraction <= 1:
            raise InvalidModel("machine_fraction must be in [0,1]")
        if self.territories < 1:
            raise InvalidModel("territories must be >= 1")
        if self.share_noise_sd < 0:
            raise InvalidModel("share_noise_sd must be >= 0")
        if len(self.report_times) == 1:
            raise InvalidModel("report_times needs at least 2 times, or none")
        if len(set(self.report_times)) != len(self.report_times):
            raise InvalidModel("report_times must not repeat a time")
        if any(not 0 <= t < 24 * 60 for t in self.report_times):
            raise InvalidModel("report_times must be minutes in 0..1439")


_REQUIRED = object()


def _document(text: str, what: str) -> dict:
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise InvalidModel(f"{what} JSON must be an object, got {type(raw).__name__}")
    return raw


def _field(raw: dict, key: str, convert, where: str = "", default=_REQUIRED):
    """``convert(raw[key])``, or ``default`` when the key is absent or null.

    A missing required key, or a value that ``convert`` rejects with
    TypeError or ValueError, raises InvalidModel naming ``where + key``.
    """
    value = raw.get(key)
    if value is None:
        if default is _REQUIRED:
            raise InvalidModel(f"{where}{key} is required")
        return default
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidModel(f"{where}{key}: invalid value {value!r}") from None


def _instance_of(kind: type):
    def read(value):
        if not isinstance(value, kind):
            raise TypeError(f"not a {kind.__name__}")
        return value

    return read


_object, _flag, _string = _instance_of(dict), _instance_of(bool), _instance_of(str)


def _list_of(convert):
    def read(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError("not a JSON list")
        return tuple(convert(v) for v in value)

    return read


def _number(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("not a finite number")
    return number


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not a JSON integer")
    return value


def _seed(value) -> int:
    if _integer(value) < 0:
        raise TypeError("not a non-negative JSON integer")
    return value


def _report_time(text) -> int:
    if not isinstance(text, str):
        raise InvalidModel(f"report_times: time must be an HH:MM string, got {text!r}")
    try:
        return parse_time(text, 0)
    except MalformedRow as exc:
        raise InvalidModel(f"report_times: {exc.reason}") from None


def _component(raw: dict, index: int) -> TurnoutComponent:
    where = f"turnout_components[{index}]."
    return TurnoutComponent(*(_field(raw, key, _number, where) for key in ("mean", "sd", "weight")))


def model_from_json(text: str) -> HonestModel:
    """Parse and validate a model JSON document; any fault raises InvalidModel."""
    raw = _document(text, "model")
    components = _field(raw, "turnout_components", _list_of(_object), default=None)
    registered = _field(raw, "registered", _object, default={})
    model = HonestModel(
        precincts=_field(raw, "precincts", _integer),
        parties=_field(raw, "parties", _list_of(_string)),
        baseline_shares=_field(raw, "baseline_shares", _list_of(_number)),
        leader=_field(raw, "leader", _string),
        registered_median=_field(registered, "median", _number, "registered.", HonestModel.registered_median),
        registered_sigma=_field(registered, "sigma", _number, "registered.", HonestModel.registered_sigma),
        registered_min=_field(registered, "min", _integer, "registered.", HonestModel.registered_min),
        registered_max=_field(registered, "max", _integer, "registered.", HonestModel.registered_max),
        turnout_components=(
            HonestModel.turnout_components
            if components is None
            else tuple(_component(c, i) for i, c in enumerate(components))
        ),
        share_noise_sd=_field(raw, "share_noise_sd", _number, default=HonestModel.share_noise_sd),
        machine_fraction=_field(raw, "machine_fraction", _number, default=HonestModel.machine_fraction),
        territories=_field(raw, "territories", _integer, default=HonestModel.territories),
        report_times=_field(raw, "report_times", _list_of(_report_time), default=HonestModel.report_times),
    )
    model.validate()
    return model


class StuffingSpec(NamedTuple):
    fraction: float = 0.0
    intensity: float = 0.0  # mean stuffed ballots as a fraction of registered
    jitter: float = 1 / 3  # relative sd of per-precinct intensity


class TransferSpec(NamedTuple):
    fraction: float = 0.0
    amount: float = 0.0  # fraction of each other party's votes moved to the leader


class RoundingSpec(NamedTuple):
    fraction: float = 0.0
    targets: tuple[int, ...] = (70, 75, 80, 85)
    quantity: str = QUANTITY_LEADER_SHARE  # or "turnout"
    max_adjustment: float = 0.05  # cap on the share/turnout change, as a fraction


class JumpSpec(NamedTuple):
    fraction: float = 0.0
    size: float = 0.0  # end-of-day stuffed ballots as a fraction of registered


MECHANISMS = ("stuffing", "transfer", "target_rounding", "intraday_jump")  # FraudScenario fields and JSON keys


class FraudScenario(NamedTuple):
    stuffing: StuffingSpec = StuffingSpec()
    transfer: TransferSpec = TransferSpec()
    target_rounding: RoundingSpec = RoundingSpec()
    intraday_jump: JumpSpec = JumpSpec()
    exempt_machine_counted: bool = False
    seed: int | None = None

    def validate(self) -> None:
        for name in MECHANISMS:
            frac = getattr(self, name).fraction
            if not 0 <= frac <= 1:
                raise InvalidModel(f"{name}.fraction must be in [0,1], got {frac}")
        if not 0 <= self.stuffing.intensity <= 1 or self.stuffing.jitter < 0:
            raise InvalidModel("stuffing intensity must be in [0,1] and jitter >= 0")
        if not 0 <= self.transfer.amount <= 1:
            raise InvalidModel("transfer amount must be in [0,1]")
        if self.target_rounding.quantity not in (QUANTITY_TURNOUT, QUANTITY_LEADER_SHARE):
            raise InvalidModel(f"unknown rounding quantity {self.target_rounding.quantity!r}")
        if any(not 0 <= t <= 100 for t in self.target_rounding.targets):
            raise InvalidModel("rounding targets must be integer percents in [0,100]")
        if not 0 <= self.target_rounding.max_adjustment <= 1:
            raise InvalidModel("max_adjustment must be in [0,1]")
        if not 0 <= self.intraday_jump.size <= 1:
            raise InvalidModel("jump size must be in [0,1]")


def _spec(cls, raw: dict, key: str, **convert):
    """``cls`` from the JSON object ``raw[key]``: each field ``name`` is
    ``convert[name]`` of its value, or the field's default when absent or null."""
    where = f"{key}."
    return cls(**{name: _field(raw[key], name, read, where, cls._field_defaults[name]) for name, read in convert.items()})


def scenario_from_json(text: str) -> FraudScenario:
    """Parse and validate a scenario JSON document; any fault raises InvalidModel."""
    raw = _document(text, "scenario")
    # each mechanism is checked to be an object before any mechanism's fields are read
    specs = {key: _field(raw, key, _object, default={}) for key in MECHANISMS}
    defaults = FraudScenario._field_defaults
    scenario = FraudScenario(
        stuffing=_spec(StuffingSpec, specs, "stuffing", fraction=_number, intensity=_number, jitter=_number),
        transfer=_spec(TransferSpec, specs, "transfer", fraction=_number, amount=_number),
        target_rounding=_spec(
            RoundingSpec, specs, "target_rounding",
            fraction=_number, targets=_list_of(_integer), quantity=_string, max_adjustment=_number,
        ),
        intraday_jump=_spec(JumpSpec, specs, "intraday_jump", fraction=_number, size=_number),
        exempt_machine_counted=_field(raw, "exempt_machine_counted", _flag, default=defaults["exempt_machine_counted"]),
        seed=_field(raw, "seed", _seed, default=defaults["seed"]),
    )
    scenario.validate()
    return scenario


@dataclass(frozen=True)
class GroundTruth:
    """Per-precinct generator bookkeeping, aligned with dataset record order."""

    precinct_ids: tuple[str, ...]
    component: np.ndarray
    turnout_prob: np.ndarray
    honest_ballots_cast: np.ndarray
    honest_leader_votes: np.ndarray
    stuffed: np.ndarray
    transferred: np.ndarray
    rounding_delta: np.ndarray
    jump: np.ndarray
    rounding_skipped: tuple[str, ...] = ()

    def to_csv(self) -> str:
        header = (
            "precinct_id,component,turnout_prob,honest_ballots_cast,honest_leader_votes,"
            "stuffed_votes,transferred_votes,rounding_delta,jump_votes\n"
        )
        columns = [
            csv_cells(self.precinct_ids),
            self.component,
            self.turnout_prob,
            self.honest_ballots_cast,
            self.honest_leader_votes,
            self.stuffed,
            self.transferred,
            self.rounding_delta,
            self.jump,
        ]
        return "".join([header, *format_rows("%s,%s,%.6f,%s,%s,%s,%s,%s,%s\n", columns)])


def _pre_fraud_truth(
    columns: DatasetArrays, leader_idx: int, component: np.ndarray, turnout_prob: np.ndarray
) -> GroundTruth:
    """Ground truth of a dataset no fraud has touched: its counts are the honest ones.

    The four fraud columns are one shared, read-only column of zeros, and
    ``honest_ballots_cast`` is the dataset's own read-only column.
    """
    zeros = np.zeros(len(columns), dtype=np.int64)
    zeros.flags.writeable = False
    return GroundTruth(
        precinct_ids=tuple(columns.precinct_ids.tolist()),
        component=component,
        turnout_prob=turnout_prob,
        honest_ballots_cast=columns.ballots_cast,
        honest_leader_votes=columns.votes[:, leader_idx].copy(),
        stuffed=zeros,
        transferred=zeros,
        rounding_delta=zeros,
        jump=zeros,
    )


class SyntheticElection(NamedTuple):
    dataset: ElectionDataset  # after fraud (the honest draw when there is no scenario)
    truth: GroundTruth
    intraday: IntradayTable  # honest series; empty when the model has no report times


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, block_index])))


def generate_honest(model: HonestModel, seed: int) -> SyntheticElection:
    """Draw an honest dataset plus ground truth; deterministic in (model, seed)."""
    model.validate()
    n = model.precincts
    k = len(model.parties)
    base = np.asarray(model.baseline_shares, dtype=np.float64)
    s_base = sum_left_to_right(base)
    comp_means = np.array([c.mean for c in model.turnout_components])
    comp_sds = np.array([c.sd for c in model.turnout_components])
    comp_weights = np.array([c.weight for c in model.turnout_components])

    registered = np.empty(n, dtype=np.int64)
    component = np.empty(n, dtype=np.int64)
    turnout_prob = np.empty(n, dtype=np.float64)
    cast = np.empty(n, dtype=np.int64)
    votes = np.empty((n, k), dtype=np.int64)
    machine = np.zeros(n, dtype=bool)
    times = np.asarray(sorted(model.report_times), dtype=np.int64)
    cum = np.empty((n, times.size), dtype=np.int64)  # cumulative voters at each report time

    for b_start in range(0, n, BLOCK):
        b_end = min(b_start + BLOCK, n)
        m = b_end - b_start
        rng = _block_rng(seed, b_start // BLOCK)
        reg = rng.lognormal(math.log(model.registered_median), model.registered_sigma, m)
        reg = np.clip(np.rint(reg), model.registered_min, model.registered_max).astype(np.int64)
        comp = rng.choice(len(comp_weights), size=m, p=comp_weights)
        t = np.clip(rng.normal(comp_means[comp], comp_sds[comp]), 0.0, 1.0)
        c = rng.binomial(reg, t)
        eps = rng.normal(0.0, model.share_noise_sd, (m, k))
        raw = np.maximum(base[None, :] + eps, 1e-9)
        probs = raw * (s_base / raw.sum(axis=1))[:, None]
        # sequential binomial decomposition of the multinomial over parties
        v = np.zeros((m, k), dtype=np.int64)
        remaining = c.copy()
        used_p = np.zeros(m)
        for j in range(k):
            denom = np.maximum(1.0 - used_p, 1e-12)
            q = np.clip(probs[:, j] / denom, 0.0, 1.0)
            v[:, j] = rng.binomial(remaining, q)
            remaining -= v[:, j]
            used_p += probs[:, j]
        machine[b_start:b_end] = rng.random(m) < model.machine_fraction
        tail = rng.uniform(0.02, 0.06, m)
        mid = rng.uniform(13 * 60, 15 * 60, m)
        width = rng.uniform(150, 210, m)
        if times.size:  # logistic curves, scaled so that a tail of the ballots comes after the last report
            f = 1.0 / (1.0 + np.exp(-(times[None, :] - mid[:, None]) / width[:, None]))
            scale = (1.0 - tail)[:, None] / f[:, -1][:, None]
            block_cum = np.floor(c[:, None] * f * scale).astype(np.int64)
            np.maximum.accumulate(block_cum, axis=1, out=cum[b_start:b_end])  # guard against float non-monotonicity

        registered[b_start:b_end] = reg
        component[b_start:b_end] = comp
        turnout_prob[b_start:b_end] = t
        cast[b_start:b_end] = c
        votes[b_start:b_end] = v

    pad = max(5, len(str(max(n - 1, 0))))
    precinct_ids = np.empty(n, dtype=object)
    id_row = f"p%0{pad}d\n"
    for start in range(0, n, ROW_BLOCK):  # a block at a time keeps the text and its split small
        stop = min(start + ROW_BLOCK, n)
        precinct_ids[start:stop] = ((id_row * (stop - start)) % tuple(range(start, stop))).split()
    # precinct i lies in territory i mod territories, so at most n names are used
    used = min(model.territories, max(n, 1))
    territory_names = np.array([f"T{t + 1}" for t in range(used)], dtype=object)
    region = np.empty(n, dtype=object)
    region.fill("R1")  # one shared str; np.full would make one per precinct
    columns = DatasetArrays(
        precinct_ids=precinct_ids,
        region=region,
        territory=territory_names[np.arange(n) % used],
        registered=registered,
        ballots_cast=cast,
        invalid=cast - votes.sum(axis=1),
        machine_counted=machine,
        votes=votes,
        tags=no_tags(n),
    )
    dataset = ElectionDataset(f"synthetic-{seed}", PartyRoster(model.parties), columns, model.leader)

    intraday = IntradayTable.from_series({})
    if times.size and n:
        intraday = IntradayTable(
            columns.precinct_ids, np.arange(0, cum.size + 1, times.size), np.tile(times, n), cum.ravel()
        )

    truth = _pre_fraud_truth(columns, dataset.leader_index, component, turnout_prob)
    return SyntheticElection(dataset=dataset, truth=truth, intraday=intraday)


_INT64_MAX = np.iinfo(np.int64).max


def _apportion(amount: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Split each row's ``amount`` >= 0 over its row of non-negative ``weights``, largest remainder.

    A row's shares are floor(amount * weight / total), then one more each,
    in order of the remainders amount * weight mod total (ties by column),
    to the columns whose share is still below its weight, until the amount
    is spent; any residue once every share has reached its weight stays
    unassigned.  A row of zero weights gets nothing.  The same expressions
    run on int64 rows, whose amount * total is below 2**63, and on object
    rows of Python integers.
    """
    total = weights.sum(axis=1)
    divisor = np.maximum(total, 1)[:, None]
    scaled = amount[:, None] * weights
    shares = scaled // divisor
    order = np.argsort(-(scaled % divisor), axis=1, kind="stable")
    open_by_rank = np.take_along_axis(weights > shares, order, axis=1)
    leftover = amount - shares.sum(axis=1)
    one_more = np.zeros(weights.shape, dtype=bool)
    np.put_along_axis(one_more, order, open_by_rank & (open_by_rank.cumsum(axis=1) <= leftover[:, None]), axis=1)
    return shares + one_more


def _first_feasible(candidates: np.ndarray, feasible: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first candidate where ``feasible`` holds, or 0 where it holds nowhere; and whether it holds."""
    found = feasible.any(axis=1)
    first = np.take_along_axis(candidates, feasible.argmax(axis=1)[:, None], axis=1)[:, 0]
    return np.where(found, first, 0), found


def _round_to_targets(
    spec: RoundingSpec,
    rows: np.ndarray,
    registered: np.ndarray,
    cast: np.ndarray,
    votes: np.ndarray,
    leader_idx: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Move each of ``rows`` to the nearest percent target reachable within the cap, in place.

    Returns the leader votes added to each row (negative when the leader
    loses votes) and whether each row was rounded.  Each row's targets form
    one row of a candidate matrix, in the order they are tried: by
    (distance, target) from the current leader share, or ascending for
    turnout, which only stuffing can move; a row takes its first feasible
    candidate.  A target percent t of a count n is round-half-up(n * t / 100).
    Leader share moves at fixed turnout: the votes it takes from the other
    parties, or gives to them, zero-vote parties too, are apportioned in
    proportion to their votes (plus one each when giving).
    """
    targets = np.sort(np.asarray(spec.targets, dtype=np.int64))
    cap = spec.max_adjustment + 1e-12
    c = cast[rows][:, None]
    if spec.quantity == QUANTITY_TURNOUT:
        reg = registered[rows][:, None]
        delta = (2 * reg * targets + 100) // 200 - c
        added, rounded = _first_feasible(delta, (0 <= delta) & (delta / reg <= cap) & (c + delta <= reg))
        cast[rows] += added
        votes[rows, leader_idx] += added
        return added, rounded
    v = votes[rows, leader_idx][:, None]
    others = np.delete(votes[rows], leader_idx, axis=1)
    counted = np.maximum(c, 1)  # a row with no ballots cast is never rounded
    candidates = targets[np.argsort(np.abs(targets - 100.0 * v / counted), axis=1, kind="stable")]
    delta = (2 * c * candidates + 100) // 200 - v
    delta, rounded = _first_feasible(
        delta, (c > 0) & (np.abs(delta) / counted <= cap) & (delta <= others.sum(axis=1, keepdims=True))
    )
    # taken from the others, or given to them with one extra vote of weight each
    weights = np.where(delta[:, None] > 0, others, others + 1)
    amount = np.abs(delta)
    exact = amount > _INT64_MAX // np.maximum(weights.sum(axis=1), 1)  # amount * total would pass int64
    moved = np.empty_like(weights)
    moved[~exact] = _apportion(amount[~exact], weights[~exact])
    moved[exact] = _apportion(amount[exact].astype(object), weights[exact].astype(object))
    moved *= np.sign(delta)[:, None]
    added = moved.sum(axis=1)
    votes[rows[:, None], np.delete(np.arange(votes.shape[1]), leader_idx)] -= moved
    votes[rows, leader_idx] += added
    return added, rounded


def apply_fraud(
    dataset: ElectionDataset,
    scenario: FraudScenario,
    seed: int | None = None,
    truth: GroundTruth | None = None,
) -> tuple[ElectionDataset, GroundTruth]:
    """Apply the scenario's mechanisms; returns the new dataset and ground truth.

    ``seed`` overrides ``scenario.seed``; one of them must be set unless the
    scenario is a no-op.  Ground-truth arrays record exact per-precinct
    stuffed, transferred, rounding, and jump vote counts, added to those of
    ``truth`` when given.
    """
    scenario.validate()
    n = len(dataset)
    leader_idx = dataset.leader_index
    eff_seed = seed if seed is not None else scenario.seed
    active = (
        scenario.stuffing.fraction * scenario.stuffing.intensity > 0
        or scenario.transfer.fraction * scenario.transfer.amount > 0
        or scenario.target_rounding.fraction > 0
        or scenario.intraday_jump.fraction * scenario.intraday_jump.size > 0
    )
    if active and eff_seed is None:
        raise InvalidModel("scenario with active mechanisms needs a seed")

    arrays = dataset.counts()
    if truth is None:
        turnout = arrays.ballots_cast / np.maximum(arrays.registered, 1)
        truth = _pre_fraud_truth(arrays, leader_idx, np.zeros(n, dtype=np.int64), turnout)
    if not active:
        return dataset, truth

    pids = arrays.precinct_ids
    registered = arrays.registered
    cast = arrays.ballots_cast.copy()
    votes = arrays.votes.copy()

    rng = _block_rng(eff_seed, _FRAUD_STREAM)
    propensity = rng.random(n)
    shape = rng.standard_normal(n)

    eligible = np.ones(n, dtype=bool)
    if scenario.exempt_machine_counted:
        eligible &= ~arrays.machine_counted
    eligible_idx = np.flatnonzero(eligible)
    by_propensity = eligible_idx[np.argsort(propensity[eligible_idx], kind="stable")]
    del propensity, eligible, eligible_idx

    def affected_set(fraction: float) -> np.ndarray:
        return by_propensity[: round(fraction * by_propensity.size)]

    def add_leader_ballots(affected: np.ndarray, per_registered) -> np.ndarray:
        """Add rint(per_registered * registered) leader ballots to each affected
        precinct, capped at its registered voters; returns the ballots added."""
        amounts = np.rint(per_registered * registered[affected]).astype(np.int64)
        amounts = np.maximum(np.minimum(amounts, registered[affected] - cast[affected]), 0)
        cast[affected] += amounts
        votes[affected, leader_idx] += amounts
        return amounts

    stuffed, transferred, rounding_delta, jump = (  # each mechanism adds its counts to the incoming truth's
        column.astype(np.int64) for column in (truth.stuffed, truth.transferred, truth.rounding_delta, truth.jump)
    )
    skipped: list[str] = []

    spec = scenario.stuffing
    if spec.fraction > 0 and spec.intensity > 0:
        affected = affected_set(spec.fraction)
        # Gaussian intensity spread, biggest where propensity is lowest:
        # rank-match a sorted normal sample against propensity order.
        z = np.sort(shape[affected])[::-1]
        rel = np.clip(1.0 + spec.jitter * np.clip(z, -3.0, 3.0), 0.0, None)
        stuffed[affected] += add_leader_ballots(affected, spec.intensity * rel)

    spec = scenario.transfer
    if spec.fraction > 0 and spec.amount > 0:
        affected = affected_set(spec.fraction)
        # truncation toward zero, as int() does; every count is non-negative
        take = (spec.amount * votes[affected]).astype(np.int64)
        take[:, leader_idx] = 0
        moved = take.sum(axis=1)
        votes[affected] -= take
        votes[affected, leader_idx] += moved
        transferred[affected] += moved

    spec = scenario.target_rounding
    if spec.fraction > 0 and spec.targets:
        affected = affected_set(spec.fraction)
        delta, rounded = _round_to_targets(spec, affected, registered, cast, votes, leader_idx)
        rounding_delta[affected] += delta
        skipped = pids[affected[~rounded]].tolist()

    spec = scenario.intraday_jump
    if spec.fraction > 0 and spec.size > 0:
        affected = affected_set(spec.fraction)
        jump[affected] += add_leader_ballots(affected, spec.size)

    columns = replace(arrays, ballots_cast=cast, votes=votes)
    check_invariants(columns)
    new_dataset = ElectionDataset(
        dataset.election_id, dataset.roster, columns, dataset.designated_leader
    )
    new_truth = replace(
        truth,
        stuffed=stuffed,
        transferred=transferred,
        rounding_delta=rounding_delta,
        jump=jump,
        rounding_skipped=truth.rounding_skipped + tuple(skipped),
    )
    return new_dataset, new_truth


def synthesize(model: HonestModel, scenario: FraudScenario | None, seed: int) -> SyntheticElection:
    """Honest generation followed by fraud injection; intraday series stay honest."""
    honest = generate_honest(model, seed)
    if scenario is None:
        return honest
    fraud_seed = scenario.seed if scenario.seed is not None else seed
    dataset, truth = apply_fraud(honest.dataset, scenario, seed=fraud_seed, truth=honest.truth)
    return honest._replace(dataset=dataset, truth=truth)
