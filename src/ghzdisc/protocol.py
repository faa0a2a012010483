"""Seeded Monte-Carlo harness for the discrimination experiment.

Sampling is driven by counter-based streams keyed by their path, so
parallel or re-ordered execution would reproduce serial results bit for
bit.  A draw is a uniform 256-bit integer k: the rarest branch
probabilities are far below 64-bit resolution.  The stream layout:
value c of the stream at a path is byte c of SHAKE-256 over the packed
path (its lead message) times 2**248, plus as its low 248 bits 31 bytes
of SHAKE-256 over a tail message: the packed path, c, and a marker
byte.  A packed path is 8j bytes long and a tail message 8j + 9, so no
tail message is any stream's lead message.  k < p * 2**256 exactly when
k < ceil(p * 2**256), so every threshold is that exact integer cut, one
exact division of integer sums (of a part's own cut under `random`), and
each inverse-CDF decision is one comparison of ints of at most 257 bits.

The protocol loop decides state s of group g in trial t by one draw,
value s mod B of the stream at (seed, domain, t, g, s // B), B = `_BLOCK`:
one SHAKE-256 call reads a block's lead bytes, one byte per state.  A
draw picks a row (outcome class, receiver bit) of the table of the
strategy's `LeafSampler`: 2(m + 1) rows for a built-in strategy, and
4(m + 1) under `random`, both strategies' rows at half weight.  A pass
of the loop joins the lead bytes of block b of up to 64 groups and
translates them through the table's guide, to each draw's code, and its
bit guide, to the receiver's bit: one bounded `bytes.count` per group
counts its ones, and two the pass's eta hits.  That decides each draw
whose leading byte's range holds no cut; only the rest hash their tail
message and are bisected over all 256 bits.  A group's vote and
record depend only on its count of ones, so each distinct count is
decided once per run.  `discriminate`'s truth coin for trial t is the
lead byte of value 0 of the stream at (seed, truth domain, t): that
value is below 2**255 exactly when its lead byte is below 128.
`CounterStream` and `LeafSampler.sample` read the same values one draw
at a time; they are the reference for the loop and are on no command's
path.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property
from typing import NamedTuple

from .amplitude import fraction_str
from .engine import MeasurementError, Record, _text, check_fractions
from .plans import (
    CommonSums,
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
_BLOCK = 1024  # states per stream in the protocol loop
_PASS_GROUPS = 64  # groups per pass of the protocol loop: at most 64 blocks of lead bytes held at once
AMBIGUOUS = 4  # a guide code: the draw's row needs its 256-bit bisection

# Stream domains keep independent uses of the same seed disjoint.
_DOMAIN_SAMPLE = 0
_DOMAIN_TRUTH = 1


class Strategy(Enum):
    CPM = "cpm"
    SPM = "spm"
    RANDOM_PER_STATE = "random"


def _cut(num, den: int = 1) -> int:
    """ceil(num/den * 2**RESOLUTION_BITS): a draw k is below num/den exactly when k < _cut(num, den)."""
    return -(-num * (1 << RESOLUTION_BITS) // den)


def check_seed(seed: int, name: str = "seed") -> None:
    """The one seed domain: every seed is packed as 8 big-endian bytes."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"{name} must be an int, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got seed {_text(seed)}, not in [0, 2**64)")


def _pack(*values: int) -> bytes:
    """The stream's message format: each value as 8 big-endian bytes."""
    return b"".join(v.to_bytes(8, "big") for v in values)


_TAIL_BITS = RESOLUTION_BITS - 8  # the bits of a draw below its leading byte
_TAIL_MARK = b"\x01"  # ends every tail message


def _draw(message: bytes, lead: int, c: int) -> int:
    """Value c of the stream over the packed path `message`, whose lead
    byte c is `lead`; the layout is the module docstring's."""
    tail = hashlib.shake_256(message + c.to_bytes(8, "big") + _TAIL_MARK).digest(_TAIL_BITS // 8)
    return lead << _TAIL_BITS | int.from_bytes(tail, "big")


class CounterStream:
    """Deterministic uniform stream over the packed (seed, path), one
    value at a time, laid out as the module docstring describes."""

    def __init__(self, seed: int, *path: int):
        check_seed(seed)
        self._message = _pack(seed, *path)
        self._xof = hashlib.shake_256(self._message)
        self._leads = b""  # the lead bytes read so far, doubled when a value passes their end
        self._counter = 0

    def next_int(self) -> int:
        """Uniform integer in [0, 2**RESOLUTION_BITS)."""
        c = self._counter
        if c == len(self._leads):
            self._leads = self._xof.digest(2 * c + 2)
        self._counter = c + 1
        return _draw(self._message, self._leads[c], c)


class LeafSampler:
    """The exact law of one strategy over its plan's outcome classes,
    built on first use: `rows`, one (num, den, q, eta, bit) per class and
    bit, num/den = p(class) * p(bit | class) unreduced, q the class's step q;
    `cuts`, the `_cut` of each row's exact cumulative weight; `table`, the
    one-draw inverse CDF over them; and `marginal`, the exact p0 and p1."""

    def __init__(self, plan: MeasurementPlan, params: PlanParams):
        self.classes = outcome_classes(plan, params)
        for c in self.classes:
            if len({leaf_class is LeafClass.ETA for leaf_class in c.leaf_classes}) > 1:
                raise PlanError(f"cannot sample class {c.head!r}: it mixes eta and non-eta leaves")

    @cached_property
    def rows(self) -> list[tuple[int, int, int, bool, int]]:
        return [(abs(amp), c.den >> c.depth, c.q, c.leaf_classes[0] is LeafClass.ETA, bit)
                for c in self.classes for bit, amp in enumerate((c.a0, c.a1))]

    @cached_property
    def cuts(self) -> list[int]:
        cuts, cumulative = [], CommonSums()
        for num, den, q, _, _ in self.rows:
            cumulative.add(0, num, den, q)
            cuts.append(_cut(cumulative[0], cumulative.den))
        if cumulative[0] != cumulative.den:
            raise MeasurementError(f"the rows' weights sum to {fraction_str(cumulative.value())}, not 1")
        return cuts

    @cached_property
    def table(self) -> JointTable:
        cuts, codes = self.cuts, [2 * eta + bit for *_, eta, bit in self.rows]
        span = 1 << (RESOLUTION_BITS - 8)  # the draws that share a leading byte
        ends = [(bisect_right(cuts, b * span), bisect_right(cuts, (b + 1) * span - 1)) for b in range(256)]
        guide = bytes(codes[lo] if lo == hi else AMBIGUOUS for lo, hi in ends)
        return JointTable(cuts, codes, guide, bytes(c if c == AMBIGUOUS else c & 1 for c in guide))

    @cached_property
    def marginal(self) -> tuple[Fraction, Fraction]:
        sums = CommonSums()
        for num, den, q, _, bit in self.rows:
            sums.add(bit, num, den, q)
        return sums.value(0), sums.value(1)

    def sample(self, stream: CounterStream) -> tuple[OutcomeClass, int]:
        """Draw one outcome class and the receiver's computational-basis
        bit by one draw through `table`, as the protocol loop does."""
        row = bisect_right(self.table.cuts, stream.next_int())
        return self.classes[row // 2], self.table.codes[row] & 1


class MixtureSampler(LeafSampler):
    """The law drawing each state from one of k `parts` at equal weight: their classes
    and rows in order, each den times k.  Part i's cut c is ceil((i * 2**RESOLUTION_BITS + c) / k),
    as ceil((A + y) / k) = ceil((A + ceil(y)) / k) for integer A; the marginal is the parts' mean."""

    def __init__(self, *parts: LeafSampler):
        self.parts = parts
        self.classes = [c for part in parts for c in part.classes]
        self.rows = [(num, len(parts) * den, *row) for part in parts for num, den, *row in part.rows]

    @cached_property
    def cuts(self) -> list[int]:
        k = len(self.parts)
        return [-((-(i << RESOLUTION_BITS) - c) // k) for i, part in enumerate(self.parts) for c in part.cuts]

    @cached_property
    def marginal(self) -> tuple[Fraction, Fraction]:
        return tuple(sum(p) / len(self.parts) for p in zip(*(part.marginal for part in self.parts)))


def w_terms(l: int, params: PlanParams, per_group: int) -> tuple[int, int]:
    """Ratio statistic for l exceptional leaves among per_group states, as an unreduced
    num, den: l times the eta node's weight |a1| / den over (per_group - l) times the
    level-1 x^2 / 2^m.  num / den is its correctly rounded float, with no gcd."""
    if not 0 <= l <= per_group:
        raise ValueError(f"count must be in 0..{_text(per_group)}, got {_text(l)}")
    if l == per_group:
        raise ZeroDivisionError("every state hit the exceptional leaf; the ratio is infinite")
    _, a1, den = constants(params).eta_node
    return (l * abs(a1) << params.m) * params.x_sq.denominator, (per_group - l) * den * params.x_sq.numerator


def w_statistic(l: int, params: PlanParams, per_group: int) -> Fraction:
    """The ratio statistic of `w_terms`, exactly."""
    return Fraction(*w_terms(l, params, per_group))


class ProtocolConfig(Record):
    """One run's settings; the defaults, read on the class too, are the paper's instance and the CLI's."""

    _fields = ("seed", "params", "per_group", "groups", "strategy", "trials", "threshold")
    params = PlanParams(8)
    per_group = 30
    groups = 20
    strategy = Strategy.SPM
    trials = 1
    threshold = Fraction(133, 100)

    def __init__(self, seed: int, params: PlanParams = params, per_group: int = per_group, groups: int = groups,
                 strategy: Strategy = strategy, trials: int = trials, threshold: Fraction = threshold) -> None:
        super().__init__(seed, params, per_group, groups, strategy, trials, threshold)
        counts = (self.per_group, self.groups, self.trials)
        if not all(isinstance(k, int) and not isinstance(k, bool) for k in counts):
            raise ValueError(f"per_group, groups and trials must be ints, got {counts!r}")
        if min(counts) < 1:
            raise ValueError("per_group, groups and trials must all be at least 1")
        check_seed(self.seed)
        if not isinstance(self.params, PlanParams):
            raise ValueError(f"params must be a PlanParams, got {self.params!r}")
        if not isinstance(self.strategy, Strategy):
            raise ValueError(f"strategy must be a Strategy, got {self.strategy!r}")
        check_fractions(self, ValueError, "threshold")


PLANS = {Strategy.CPM: cpm_plan, Strategy.SPM: spm_plan}


def build_samplers(params: PlanParams) -> dict[Strategy, LeafSampler]:
    """The exact law of every strategy, built once per run: cpm's and spm's
    from their plans, and `random`'s from theirs, spm's or cpm's at half weight."""
    samplers = {strategy: LeafSampler(plan(params), params) for strategy, plan in PLANS.items()}
    samplers[Strategy.RANDOM_PER_STATE] = MixtureSampler(samplers[Strategy.SPM], samplers[Strategy.CPM])
    return samplers


class JointTable(NamedTuple):
    """Inverse CDF over a law's (outcome class, receiver bit) rows: a
    draw k picks row `bisect_right(cuts, k)`, and the outputs read only
    that row's code, 2 * eta + bit.  `guide[b]` is the code of the row
    that every draw with leading byte b picks, or AMBIGUOUS where a cut
    falls inside that byte's range; `bits[b]` is that code's receiver
    bit, or AMBIGUOUS."""

    cuts: list[int]
    codes: list[int]
    guide: bytes
    bits: bytes


class _Decider:
    """The decision rule of one run.  A group's vote and record depend
    only on its count of ones, so `vote` and `record` are cached per
    decider: each is built once per distinct count seen, and the groups
    of equal count share one record dict."""

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self.vote = cache(self._vote)
        self.record = cache(self._record)

    def _vote(self, ones: int) -> bool:
        """Whether a group of `ones` ones votes spm: ones / zeros reaches
        the threshold, or zeros == 0."""
        zeros = self.config.per_group - ones
        # ones / zeros >= threshold, in integers: zeros > 0 here
        threshold = self.config.threshold
        return zeros == 0 or ones * threshold.denominator >= threshold.numerator * zeros

    def _record(self, ones: int) -> dict:
        zeros = self.config.per_group - ones
        return {
            "zeros": zeros,
            "ones": ones,
            "ratio": ones / zeros if zeros else None,
            "decision": (Strategy.SPM if self.vote(ones) else Strategy.CPM).value,
        }

    def overall(self, ones_per_group: list[int]) -> str:
        """The majority vote: spm needs more than half the groups."""
        spm_votes = sum(map(self.vote, ones_per_group))
        return (Strategy.SPM if 2 * spm_votes > self.config.groups else Strategy.CPM).value

    def trial(self, ones_per_group: list[int], eta_hits: int) -> dict:
        """One trial as a `simulate` per-trial record: per group the
        receiver's zeros and ones, their ratio (None when zeros == 0) and
        its vote; the eta hits; and the majority vote.  Votes are
        `Strategy` values."""
        return {
            "per_group": list(map(self.record, ones_per_group)),
            "eta_hits": eta_hits,
            "overall_decision": self.overall(ones_per_group),
        }


def _run_trial(
    config: ProtocolConfig, table: JointTable, trial: int, group_paths: list[bytes]
) -> tuple[list[int], int]:
    """One trial's ones per group and its eta hits, given each group's
    packed path part (packed once per run), drawn in passes of one block
    of up to `_PASS_GROUPS` groups as the module docstring describes."""
    cuts, row_codes, guide, bit_guide = table
    prefix, shake = _pack(config.seed, _DOMAIN_SAMPLE, trial), hashlib.shake_256
    eta_hits = 0
    ones_per_group: list[int] = []
    for first in range(0, len(group_paths), _PASS_GROUPS):
        paths = group_paths[first:first + _PASS_GROUPS]
        ones = [0] * len(paths)
        for block, start in enumerate(range(0, config.per_group, _BLOCK)):
            size, packed = min(_BLOCK, config.per_group - start), block.to_bytes(8, "big")
            messages = [prefix + path + packed for path in paths]
            leads = b"".join([shake(m).digest(size) for m in messages])
            codes, bits = leads.translate(guide), leads.translate(bit_guide)
            ones = [n + bits.count(1, a, a + size) for n, a in zip(ones, range(0, len(leads), size))]
            eta_hits += codes.count(2) + codes.count(3)
            i = codes.find(AMBIGUOUS)
            while i >= 0:
                group, c = divmod(i, size)
                code = row_codes[bisect_right(cuts, _draw(messages[group], leads[i], c))]
                eta_hits += code >> 1
                ones[group] += code & 1
                i = codes.find(AMBIGUOUS, i + 1)
        ones_per_group += ones
    return ones_per_group, eta_hits


def run_protocol(config: ProtocolConfig, samplers: dict[Strategy, LeafSampler]) -> list[dict]:
    """The `simulate` per-trial records, deterministic given the config
    (seed included); `samplers` come from `build_samplers(config.params)`."""
    table = samplers[config.strategy].table
    decider, group_paths = _Decider(config), [_pack(g) for g in range(config.groups)]
    return [decider.trial(*_run_trial(config, table, t, group_paths)) for t in range(config.trials)]


def discriminate(config: ProtocolConfig) -> dict:
    """Per trial, a fair coin picks the sender's true strategy; the
    receiver's decision rule is scored against it.  The report is the
    `discriminate` payload without its config."""
    samplers = build_samplers(config.params)
    decider, group_paths = _Decider(config), [_pack(g) for g in range(config.groups)]
    trials: list[dict] = []
    confusion = {
        truth.value: {guess.value: 0 for guess in (Strategy.CPM, Strategy.SPM)}
        for truth in (Strategy.CPM, Strategy.SPM)
    }
    for t in range(config.trials):
        coin = hashlib.shake_256(_pack(config.seed, _DOMAIN_TRUTH, t)).digest(1)[0]
        truth = Strategy.SPM if coin < 128 else Strategy.CPM
        ones_per_group, eta_hits = _run_trial(config, samplers[truth].table, t, group_paths)
        decision = decider.overall(ones_per_group)
        confusion[truth.value][decision] += 1
        trials.append({"truth": truth.value, "decision": decision, "eta_hits": eta_hits})
    correct = sum(1 for tr in trials if tr["decision"] == tr["truth"])
    return {"trials": trials, "confusion": confusion, "accuracy": correct / len(trials)}
