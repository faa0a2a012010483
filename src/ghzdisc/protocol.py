"""Seeded Monte-Carlo harness for the discrimination experiment.

Sampling is driven by a counter-based SHA-256 stream split per
(trial, group, state), so parallel or re-ordered execution would
reproduce serial results bit for bit.  Each group packs its stream
prefix once; a state's stream extends it by the state index.  A draw
is a uniform 256-bit integer k: the rarest branch probabilities are far
below 64-bit resolution, so all 256 bits are kept.  For integer k and
rational p, k < p * 2**256 exactly when k < ceil(p * 2**256), so every
threshold is stored as that exact integer cut point and each inverse-CDF
decision is one comparison of ints of at most 257 bits.  A state's first
draw picks one of a plan's outcome classes, not one of its 2^m leaves.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .engine import bob_distribution, check_fractions
from .plans import (
    LeafClass,
    MeasurementPlan,
    OutcomeClass,
    PlanError,
    PlanParams,
    constants,
    cpm_plan,
    outcome_classes,
    spm_plan,
)

RESOLUTION_BITS = 256

# Stream domains keep independent uses of the same seed disjoint.
_DOMAIN_SAMPLE = 0
_DOMAIN_TRUTH = 1


class Strategy(Enum):
    CPM = "cpm"
    SPM = "spm"
    RANDOM_PER_STATE = "random"


def _cut(p: Fraction) -> int:
    """ceil(p * 2**RESOLUTION_BITS): a draw k is below p exactly when k < _cut(p)."""
    return -((-p.numerator << RESOLUTION_BITS) // p.denominator)


_HALF_CUT = _cut(Fraction(1, 2))  # the cut of a fair coin


def check_seed(seed: int, name: str = "seed") -> None:
    """The one seed domain: every seed is packed as 8 big-endian bytes."""
    if not isinstance(seed, int):
        raise ValueError(f"{name} must be an int, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got seed {seed}, not in [0, 2**64)")


class CounterStream:
    """Deterministic uniform stream: SHA-256 over (seed, path, counter)."""

    def __init__(self, seed: int, *path: int):
        check_seed(seed)
        self._prefix = seed.to_bytes(8, "big") + b"".join(p.to_bytes(8, "big") for p in path)
        self._counter = 0

    def next_int(self) -> int:
        """Uniform integer in [0, 2**RESOLUTION_BITS)."""
        digest = hashlib.sha256(self._prefix + self._counter.to_bytes(8, "big")).digest()
        self._counter += 1
        return int.from_bytes(digest, "big")

    def child(self, index: int) -> CounterStream:
        """The stream at path + (index,), without re-packing the path."""
        stream = CounterStream.__new__(CounterStream)
        stream._prefix = self._prefix + index.to_bytes(8, "big")
        stream._counter = 0
        return stream


class LeafSampler:
    """Inverse-CDF sampler over the outcome classes of a plan: per class,
    the cut points of the cumulative probability at its last leaf (a
    subset of the per-leaf cuts, so bisection picks the class holding the
    leaf per-leaf bisection would) and of the receiver's p0.  A draw feeds
    an output only through p0 and eta-ness, which a class's leaves share."""

    def __init__(self, plan: MeasurementPlan, params: PlanParams):
        self.classes = outcome_classes(plan, params)
        cumulative = Fraction(0)
        self._cuts: list[int] = []
        self._p0_cuts: list[int] = []
        for c in self.classes:
            if len({leaf_class is LeafClass.ETA for leaf_class in c.leaf_classes}) > 1:
                raise PlanError(f"cannot sample class {c.head!r}: it mixes eta and non-eta leaves")
            cumulative += c.summed(c.probability)
            self._cuts.append(_cut(cumulative))
            # a class's states differ only in amp1's sign, so they share p0
            self._p0_cuts.append(_cut(bob_distribution(c.states[0])[0]))
        assert cumulative == 1

    def sample(self, stream: CounterStream) -> tuple[OutcomeClass, int]:
        """Draw one outcome class and the receiver's computational-basis bit."""
        i = bisect_right(self._cuts, stream.next_int())
        bob_bit = 0 if stream.next_int() < self._p0_cuts[i] else 1
        return self.classes[i], bob_bit


def w_statistic(l: int, params: PlanParams, per_group: int) -> Fraction:
    """Ratio statistic for l exceptional leaves among per_group states:
    l times the all-perp leaf weight over (per_group - l) times the
    level-1 leaf weight, as an exact rational."""
    if not 0 <= l <= per_group:
        raise ValueError(f"count must be in 0..{per_group}, got {l}")
    if l == per_group:
        raise ZeroDivisionError("every state hit the exceptional leaf; the ratio is infinite")
    eta_weight = abs(constants(params).eta_leaf.amp1)
    return l * eta_weight / ((per_group - l) * params.x_sq / 2**params.m)


@dataclass(frozen=True)
class ProtocolConfig:
    """One run's settings; the field defaults are the paper's instance and the CLI's defaults."""

    seed: int
    params: PlanParams = PlanParams(8)
    per_group: int = 30
    groups: int = 20
    strategy: Strategy = Strategy.SPM
    trials: int = 1
    threshold: Fraction = Fraction(133, 100)

    def __post_init__(self) -> None:
        counts = (self.per_group, self.groups, self.trials)
        if not all(isinstance(k, int) for k in counts):
            raise ValueError(f"per_group, groups and trials must be ints, got {counts!r}")
        if min(counts) < 1:
            raise ValueError("per_group, groups and trials must all be at least 1")
        check_seed(self.seed)
        check_fractions(self, ValueError, "threshold")


PLANS = {Strategy.CPM: cpm_plan, Strategy.SPM: spm_plan}


def build_samplers(params: PlanParams) -> dict[Strategy, LeafSampler]:
    """The leaf samplers of both strategies, built once per run."""
    return {strategy: LeafSampler(plan(params), params) for strategy, plan in PLANS.items()}


def _run_trial(
    config: ProtocolConfig,
    samplers: dict[Strategy, LeafSampler],
    trial: int,
    strategy: Strategy,
) -> dict:
    """One trial as a `simulate` per-trial record: per group the
    receiver's zeros and ones, their ratio (None when zeros == 0) and
    its vote; the eta hits; and the majority vote.  Votes are
    `Strategy` values."""
    cpm, spm = samplers[Strategy.CPM], samplers[Strategy.SPM]
    fixed = None if strategy is Strategy.RANDOM_PER_STATE else samplers[strategy]
    half, eta = _HALF_CUT, LeafClass.ETA
    eta_hits = spm_votes = 0
    per_group: list[dict] = []
    for g in range(config.groups):
        group_stream = CounterStream(config.seed, _DOMAIN_SAMPLE, trial, g)
        ones = 0
        for s in range(config.per_group):
            stream = group_stream.child(s)
            sampler = fixed or (spm if stream.next_int() < half else cpm)
            drawn, bob_bit = sampler.sample(stream)
            if drawn.leaf_classes[0] is eta:
                eta_hits += 1
            ones += bob_bit
        zeros = config.per_group - ones
        vote = zeros == 0 or Fraction(ones, zeros) >= config.threshold
        spm_votes += vote
        per_group.append({
            "zeros": zeros,
            "ones": ones,
            "ratio": ones / zeros if zeros else None,
            "decision": (Strategy.SPM if vote else Strategy.CPM).value,
        })
    overall = Strategy.SPM if 2 * spm_votes > config.groups else Strategy.CPM
    return {"per_group": per_group, "eta_hits": eta_hits, "overall_decision": overall.value}


def run_protocol(config: ProtocolConfig, samplers: dict[Strategy, LeafSampler]) -> list[dict]:
    """The `simulate` per-trial records, deterministic given the config
    (seed included); `samplers` come from `build_samplers(config.params)`."""
    return [_run_trial(config, samplers, t, config.strategy) for t in range(config.trials)]


def discriminate(config: ProtocolConfig) -> dict:
    """Per trial, a fair coin picks the sender's true strategy; the
    receiver's decision rule is scored against it.  The report is the
    `discriminate` payload without its config."""
    samplers = build_samplers(config.params)
    trials: list[dict] = []
    confusion = {
        truth.value: {guess.value: 0 for guess in (Strategy.CPM, Strategy.SPM)}
        for truth in (Strategy.CPM, Strategy.SPM)
    }
    for t in range(config.trials):
        coin = CounterStream(config.seed, _DOMAIN_TRUTH, t)
        truth = Strategy.SPM if coin.next_int() < _HALF_CUT else Strategy.CPM
        result = _run_trial(config, samplers, t, truth)
        decision = result["overall_decision"]
        confusion[truth.value][decision] += 1
        trials.append({"truth": truth.value, "decision": decision, "eta_hits": result["eta_hits"]})
    correct = sum(1 for tr in trials if tr["decision"] == tr["truth"])
    return {"trials": trials, "confusion": confusion, "accuracy": correct / len(trials)}
