"""The class pipeline on reduced `Fraction`s: the oracle for its integer form.

`outcome_classes`, `census`, a sampler's `rows`, `table` and `marginal`,
and `bob_marginal`, under the package's names, with every value a
reduced `Fraction`: each class holds its probability and receiver states
as `Fraction`s, `classify` compares `Fraction` slopes with those of mu+,
mu- and the closed-form eta leaf (`constants(params).eta_leaf`), and
every sum is a sum of `Fraction`s, with a gcd per operation.  The
walker, `_walk_numerators`, is shared: its own reference is
`measure_next` (tests/test_plans.py).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple

from ghzdisc.engine import ChainState, MeasurementError
from ghzdisc.plans import LeafClass, _walk_numerators, constants
from ghzdisc.protocol import AMBIGUOUS, RESOLUTION_BITS, JointTable


class OutcomeClass(NamedTuple):
    """The 2^depth leaves below `head`, each of probability `probability`;
    `states` and `leaf_classes` per parity of the 1s after `head`."""

    head: str
    depth: int
    level: int
    probability: Fraction
    states: tuple[ChainState, ...]
    leaf_classes: tuple[LeafClass, ...]

    def outcomes(self) -> Iterator[tuple[str, int]]:
        for i in range(2**self.depth):
            yield self.head + bin(i | 1 << self.depth)[3:], i.bit_count() & 1

    def summed(self, value: Fraction) -> Fraction:
        return value * 2**self.depth


def _slope(state: ChainState) -> Fraction | None:
    """amp1 / amp0 of the signed squares; None when amp0 = 0."""
    if state.amp0 == 0:
        return None
    return state.amp1 / state.amp0


def classify(state: ChainState, params) -> LeafClass:
    """mu+, mu- or eta by exact `Fraction` slopes, eta's from the closed form."""
    mu = params.y_sq / params.x_sq
    slope = _slope(state)
    for class_slope, leaf_class in (
        (mu, LeafClass.MU_PLUS),
        (-mu, LeafClass.MU_MINUS),
        (_slope(constants(params).eta_leaf), LeafClass.ETA),
    ):
        if slope == class_slope:
            return leaf_class
    return LeafClass.OTHER


def outcome_classes(plan, params) -> list[OutcomeClass]:
    classes = []
    for head, depth, a0, a1, den, _q in _walk_numerators(plan, params):
        den <<= depth
        state = ChainState(1, Fraction(a0, den), Fraction(a1, den))
        states = (state, ChainState(1, state.amp0, -state.amp1)) if depth else (state,)
        level = head.find("0") + 1 or params.m + 1
        leaf_classes = tuple(classify(leaf, params) for leaf in states)
        classes.append(OutcomeClass(head, depth, level, Fraction(abs(a0) + abs(a1), den), states, leaf_classes))
    return classes


def census(classes) -> tuple[Counter, Counter, Counter]:
    """Leaves per level, and leaves and total `Fraction` probability per leaf class."""
    levels, leaves, probability = Counter(), Counter(), Counter()
    for c in classes:
        levels[c.level] += 2**c.depth
        share = 2**c.depth // len(c.states)
        for leaf_class in c.leaf_classes:
            leaves[leaf_class] += share
            probability[leaf_class] += c.probability * share
    return levels, leaves, probability


def _cut(num: int, den: int = 1) -> int:
    """ceil(num/den * 2**RESOLUTION_BITS) by one exact division, whatever the length of den."""
    return -((-num << RESOLUTION_BITS) // den)


def _table(rows) -> JointTable:
    """The one-draw table over (weight, eta, bit) rows, cut at each row's
    `Fraction` cumulative weight."""
    cuts, codes = [], []
    cumulative = Fraction(0)
    for weight, eta, bit in rows:
        cumulative += weight
        cuts.append(_cut(cumulative.numerator, cumulative.denominator))
        codes.append(2 * eta + bit)
    if cumulative != 1:
        raise MeasurementError(f"the rows' weights sum to {cumulative}, not 1")
    span = 1 << (RESOLUTION_BITS - 8)
    ends = [(bisect_right(cuts, b * span), bisect_right(cuts, (b + 1) * span - 1)) for b in range(256)]
    guide = bytes(codes[lo] if lo == hi else AMBIGUOUS for lo, hi in ends)
    return JointTable(cuts, codes, guide, bytes(c if c == AMBIGUOUS else c & 1 for c in guide))


class LeafSampler:
    """A strategy's law on `Fraction` rows (2^depth * |amp_bit|, eta, bit)."""

    def __init__(self, plan, params):
        self.classes = outcome_classes(plan, params)

    @cached_property
    def rows(self) -> list[tuple[Fraction, bool, int]]:
        rows = []
        for c in self.classes:
            eta = c.leaf_classes[0] is LeafClass.ETA
            state = c.states[0]
            rows += ((c.summed(abs(amp)), eta, bit) for bit, amp in enumerate((state.amp0, state.amp1)))
        return rows

    @cached_property
    def table(self) -> JointTable:
        return _table(self.rows)

    @cached_property
    def marginal(self) -> tuple[Fraction, Fraction]:
        return sum(w for w, _, _ in self.rows[0::2]), sum(w for w, _, _ in self.rows[1::2])


class MixtureSampler(LeafSampler):
    """`random`'s law: spm's rows, then cpm's, each at half weight."""

    def __init__(self, spm: LeafSampler, cpm: LeafSampler):
        self.parts = spm, cpm
        self.classes = spm.classes + cpm.classes

    @cached_property
    def rows(self) -> list[tuple[Fraction, bool, int]]:
        return [(w / 2, eta, bit) for part in self.parts for w, eta, bit in part.rows]


def bob_marginal(plan, params) -> tuple[Fraction, Fraction]:
    """|a0| and |a1| summed per distinct denominator, then one `Fraction` per
    denominator, added."""
    sums: dict[int, list[int]] = {}
    for _head, _depth, a0, a1, den, _q in _walk_numerators(plan, params):
        pair = sums.setdefault(den, [0, 0])
        pair[0] += abs(a0)
        pair[1] += abs(a1)
    return (
        sum((Fraction(s0, den) for den, (s0, _) in sums.items()), Fraction(0)),
        sum((Fraction(s1, den) for den, (_, s1) in sums.items()), Fraction(0)),
    )
