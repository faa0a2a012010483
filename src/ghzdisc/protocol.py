"""Seeded Monte-Carlo harness for the discrimination experiment.

Sampling is driven by a counter-based SHA-256 stream split per
(trial, group, state), so parallel or re-ordered execution would
reproduce serial results bit for bit.  Outcome draws compare a 256-bit
uniform integer against exact rational thresholds: the rarest branch
probabilities are far below 64-bit resolution, so inverse-CDF decisions
must be taken in exact arithmetic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .engine import bob_distribution
from .plans import (
    BranchRecord,
    LeafClass,
    MeasurementPlan,
    PlanParams,
    cpm_plan,
    enumerate_branches,
    eta_state,
    spm_plan,
)

RESOLUTION_BITS = 256

# Stream domains keep independent uses of the same seed disjoint.
_DOMAIN_SAMPLE = 0
_DOMAIN_TRUTH = 1

_HALF = Fraction(1, 2)


class Strategy(Enum):
    CPM = "cpm"
    SPM = "spm"
    RANDOM_PER_STATE = "random"


class CounterStream:
    """Deterministic uniform stream: SHA-256 over (seed, path, counter)."""

    def __init__(self, seed: int, *path: int):
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self._prefix = seed.to_bytes(8, "big") + b"".join(p.to_bytes(8, "big") for p in path)
        self._counter = 0

    def next_int(self) -> int:
        """Uniform integer in [0, 2**RESOLUTION_BITS)."""
        digest = hashlib.sha256(self._prefix + self._counter.to_bytes(8, "big")).digest()
        self._counter += 1
        return int.from_bytes(digest, "big")

    def below(self, p: Fraction) -> bool:
        """True with probability p (up to 2**-RESOLUTION_BITS), exactly
        compared as rationals."""
        return self.next_int() * p.denominator < p.numerator << RESOLUTION_BITS


class LeafSampler:
    """Inverse-CDF sampler over the enumerated leaves of a plan.

    Thresholds are pre-scaled integers so the hot loop does single
    big-int multiplications instead of Fraction construction.
    """

    def __init__(self, plan: MeasurementPlan, params: PlanParams):
        self.plan = plan
        self.params = params
        self.records = enumerate_branches(plan, params)
        cumulative = Fraction(0)
        self._cum: list[tuple[int, int]] = []
        self._p0: list[tuple[int, int]] = []
        for record in self.records:
            cumulative += record.probability
            self._cum.append((cumulative.numerator << RESOLUTION_BITS, cumulative.denominator))
            p0, _ = bob_distribution(record.bob_state)
            self._p0.append((p0.numerator << RESOLUTION_BITS, p0.denominator))
        assert cumulative == 1

    def sample(self, stream: CounterStream) -> tuple[BranchRecord, int]:
        """Draw one leaf and the receiver's computational-basis bit."""
        k = stream.next_int()
        lo, hi = 0, len(self._cum) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            num, den = self._cum[mid]
            if k * den < num:
                hi = mid
            else:
                lo = mid + 1
        num, den = self._p0[lo]
        bob_bit = 0 if stream.next_int() * den < num else 1
        return self.records[lo], bob_bit


def w_statistic(l: int, params: PlanParams, per_group: int) -> Fraction:
    """Ratio statistic for l exceptional leaves among per_group states:
    l times the all-perp leaf weight over (per_group - l) times the
    level-1 leaf weight, as an exact rational."""
    if not 0 <= l <= per_group:
        raise ValueError(f"count must be in 0..{per_group}, got {l}")
    if l == per_group:
        raise ZeroDivisionError("every state hit the exceptional leaf; the ratio is infinite")
    eta_weight = eta_state(params).leaf.amp1.sq()
    return l * eta_weight / ((per_group - l) * params.x_sq / 2**params.m)


@dataclass(frozen=True)
class ProtocolConfig:
    seed: int
    n: int = 8
    x_sq: Fraction = Fraction(2, 3)
    per_group: int = 30
    groups: int = 20
    strategy: Strategy = Strategy.SPM
    trials: int = 1
    threshold: Fraction = Fraction(133, 100)

    def __post_init__(self) -> None:
        if self.per_group < 1 or self.groups < 1 or self.trials < 1:
            raise ValueError("per_group, groups and trials must all be at least 1")

    @property
    def params(self) -> PlanParams:
        return PlanParams(self.n, self.x_sq)


@dataclass(frozen=True)
class GroupResult:
    zeros: int
    ones: int
    ratio: float | None  # ones/zeros; None when zeros == 0
    decision: Strategy


@dataclass(frozen=True)
class TrialResult:
    groups: tuple[GroupResult, ...]
    eta_hits: int
    decision: Strategy


def _samplers(params: PlanParams) -> dict[Strategy, LeafSampler]:
    return {
        Strategy.CPM: LeafSampler(cpm_plan(params), params),
        Strategy.SPM: LeafSampler(spm_plan(params), params),
    }


def _run_trial(
    config: ProtocolConfig,
    samplers: dict[Strategy, LeafSampler],
    trial: int,
    strategy: Strategy,
) -> TrialResult:
    eta_hits = 0
    groups: list[GroupResult] = []
    for g in range(config.groups):
        zeros = ones = 0
        for s in range(config.per_group):
            stream = CounterStream(config.seed, _DOMAIN_SAMPLE, trial, g, s)
            if strategy is Strategy.RANDOM_PER_STATE:
                sampler = samplers[Strategy.SPM if stream.below(_HALF) else Strategy.CPM]
            else:
                sampler = samplers[strategy]
            record, bob_bit = sampler.sample(stream)
            if record.leaf_class is LeafClass.ETA:
                eta_hits += 1
            ones += bob_bit
            zeros += 1 - bob_bit
        if zeros == 0 or Fraction(ones, zeros) >= config.threshold:
            decision = Strategy.SPM
        else:
            decision = Strategy.CPM
        groups.append(GroupResult(zeros, ones, ones / zeros if zeros else None, decision))
    spm_votes = sum(1 for g in groups if g.decision is Strategy.SPM)
    overall = Strategy.SPM if 2 * spm_votes > config.groups else Strategy.CPM
    return TrialResult(tuple(groups), eta_hits, overall)


def run_protocol(config: ProtocolConfig) -> list[TrialResult]:
    """Deterministic given the config (seed included)."""
    samplers = _samplers(config.params)
    return [_run_trial(config, samplers, t, config.strategy) for t in range(config.trials)]


@dataclass(frozen=True)
class DiscriminationTrial:
    truth: Strategy
    result: TrialResult


@dataclass(frozen=True)
class DiscriminationReport:
    trials: tuple[DiscriminationTrial, ...]
    confusion: dict
    accuracy: float


def discriminate(config: ProtocolConfig) -> DiscriminationReport:
    """Per trial, a fair coin picks the sender's true strategy; the
    receiver's decision rule is scored against it."""
    samplers = _samplers(config.params)
    trials: list[DiscriminationTrial] = []
    confusion = {
        truth.value: {guess.value: 0 for guess in (Strategy.CPM, Strategy.SPM)}
        for truth in (Strategy.CPM, Strategy.SPM)
    }
    for t in range(config.trials):
        coin = CounterStream(config.seed, _DOMAIN_TRUTH, t)
        truth = Strategy.SPM if coin.below(_HALF) else Strategy.CPM
        result = _run_trial(config, samplers, t, truth)
        confusion[truth.value][result.decision.value] += 1
        trials.append(DiscriminationTrial(truth, result))
    correct = sum(1 for tr in trials if tr.result.decision is tr.truth)
    return DiscriminationReport(tuple(trials), confusion, correct / len(trials))
