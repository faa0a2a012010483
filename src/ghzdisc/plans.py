"""Measurement strategies over a shared GHZ chain.

Two built-in strategies:

* uniform plan: every sender qubit measured in the Hadamard basis
  {|+>, |->};
* cascade plan: an adaptive ladder whose basis exponents double at
  every stage while "perp" outcomes persist, switching to {|+>, |->}
  after the first "plus" outcome.

`constants(params)` is the one home of the cascade's closed forms: eager
F_k^2 and T_k^2, and lazily the stage bases, the all-perp (eta) leaf and
the class slopes.  Both strategies are spine plans: one basis per
all-"1" history, {|+>, |->} after the first "0".  `outcome_classes`
walks the tree into classes (a leaf, or the two-state subtree below a
spine plan's "0" child), each distinct state classified exactly against
those slopes; `enumerate_branches` expands them into one class of
depth 0 per leaf.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import mul
from typing import Callable, Iterator, NamedTuple

from .engine import PLUS_MINUS, Basis, ChainState, _coerce, ghz_state, measure_next


class PlanError(ValueError):
    """Invalid plan parameters or history."""


class LeafClass(Enum):
    MU_PLUS = "mu+"
    MU_MINUS = "mu-"
    ETA = "eta"
    OTHER = "other"


@dataclass(frozen=True)
class PlanParams:
    """Chain length and the squared first-stage coefficient."""

    n: int
    x_sq: Fraction = Fraction(2, 3)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int):
            raise PlanError(f"the chain length must be an int, got n={self.n!r}")
        if self.n < 3:
            raise PlanError(f"the cascade needs at least 2 sender qubits (n >= 3), got n={self.n}")
        _coerce(self, "x_sq")
        if not 0 < self.x_sq < 1:
            raise PlanError(f"x_sq must lie strictly between 0 and 1, got {self.x_sq}")

    @property
    def y_sq(self) -> Fraction:
        return 1 - self.x_sq

    @property
    def m(self) -> int:
        """Number of sender qubits."""
        return self.n - 1

    @property
    def ratio(self) -> Fraction:
        """r = x^2 / y^2, the quantity whose exponents double per stage."""
        return self.x_sq / self.y_sq


class MeasurementPlan:
    """Adaptive rule: outcome history (bit string) -> next basis.

    Bit 0 means the first basis vector fired, bit 1 the second.  Defined
    for every history of length 0 .. stages-1.  A plan is given either
    by a `chooser` over whole histories, or by a `spine`: the basis of
    each all-"1" history, with {|+>, |->} after the first "0".
    """

    def __init__(
        self,
        stages: int,
        chooser: Callable[[str], Basis] | None = None,
        name: str = "plan",
        spine: tuple[Basis, ...] | None = None,
    ):
        if (chooser is None) == (spine is None):
            raise PlanError("a plan needs exactly one of a chooser and a spine")
        if spine is not None and len(spine) != stages:
            raise PlanError(f"spine has {len(spine)} bases for {stages} stages")
        self.stages = stages
        self.name = name
        self._chooser = chooser
        self.spine = spine

    def basis_for(self, history: str) -> Basis:
        if len(history) >= self.stages:
            raise PlanError(f"history {history!r} already covers all {self.stages} stages")
        if any(c not in "01" for c in history):
            raise PlanError(f"history must be a bit string, got {history!r}")
        if self.spine is None:
            return self._chooser(history)
        return PLUS_MINUS if "0" in history else self.spine[len(history)]

    def __repr__(self) -> str:
        return f"MeasurementPlan({self.name}, stages={self.stages})"


@dataclass(frozen=True)
class CascadeConstants:
    """Squared stage normalizers F_1^2..F_m^2 and running products
    T_1^2..T_m^2 of `params`; the other closed forms are derived on first use."""

    params: PlanParams
    F_sq: tuple[Fraction, ...]
    T_sq: tuple[Fraction, ...]

    @cached_property
    def bases(self) -> tuple[Basis, ...]:
        """Basis of stage k = 0..m-1 on the all-perp spine: c0^2 = s/(1+s)
        with s = r^(2^k).  Stage 0 is {x|0>+y|1>, y|0>-x|1>}; the ladder's
        coefficients equal (r^e, r^-e)/F_{k+1} with e = 2^(k-1)."""
        r = self.params.ratio
        return tuple(
            Basis(s / (1 + s), 1 / (1 + s))
            for s in (r ** 2**k for k in range(self.params.m))
        )

    @cached_property
    def eta_leaf(self) -> ChainState:
        """Unnormalized all-perp leaf of the cascade."""
        m, x_sq, y_sq = self.params.m, self.params.x_sq, self.params.y_sq
        e = 2 ** (m - 1)
        two_t_sq = 2 * self.T_sq[-1]
        # the relative sign of the all-perp leaf alternates with the stage count
        amp1 = x_sq**e / (y_sq ** (e - 1) * two_t_sq)
        return ChainState(1, y_sq**e / (x_sq ** (e - 1) * two_t_sq), -amp1 if m % 2 else amp1)

    @cached_property
    def slopes(self) -> tuple[tuple[Fraction, LeafClass], ...]:
        """Exact slopes of mu+, mu- and eta, in that order: at x^2 = 1/2 the
        eta direction equals one of mu+ and mu-, and the mu class wins."""
        mu = self.params.y_sq / self.params.x_sq
        return (
            (mu, LeafClass.MU_PLUS),
            (-mu, LeafClass.MU_MINUS),
            (_slope(self.eta_leaf), LeafClass.ETA),
        )


@lru_cache(maxsize=None)
def constants(params: PlanParams) -> CascadeConstants:
    r = params.ratio
    f_sqs = [Fraction(1)]
    for k in range(2, params.m + 1):
        e = 2 ** (k - 2)
        f_sqs.append(r**e + r**-e)
    return CascadeConstants(params, tuple(f_sqs), tuple(accumulate(f_sqs, mul)))


def cpm_plan(params: PlanParams) -> MeasurementPlan:
    """Every sender qubit measured in {|+>, |->}."""
    return MeasurementPlan(params.m, name="cpm", spine=(PLUS_MINUS,) * params.m)


def spm_plan(params: PlanParams) -> MeasurementPlan:
    """The adaptive cascade: first qubit in {x|0>+y|1>, y|0>-x|1>}; while
    outcomes stay "perp" (bit 1), the ladder bases follow; after the
    first "plus" outcome everything is {|+>, |->}."""
    return MeasurementPlan(params.m, name="spm", spine=constants(params).bases)


class OutcomeClass(NamedTuple):
    """The 2^depth leaves below the history `head`, at one `level` and
    with one `probability` each.  `states` and `leaf_classes` hold the
    receiver state and its class for each parity of the 1s in the
    suffix after `head` (one entry when depth = 0); the two states
    differ only in amp1's sign.  `level` is 1 + the length of the
    leading run of perp outcomes (m + 1 for the all-perp leaf).  A
    chooser plan's walk builds one of depth 0 per leaf, and a named tuple
    is the cheapest immutable record to build."""

    head: str
    depth: int
    level: int
    probability: Fraction
    states: tuple[ChainState, ...]
    leaf_classes: tuple[LeafClass, ...]

    def outcomes(self) -> Iterator[tuple[str, int]]:
        """Each leaf's outcome string and parity, in lexicographic order."""
        for i in range(2**self.depth):
            # bin(2^depth + i) is "0b1" and then the suffix, padded to `depth` bits
            yield self.head + bin(i | 1 << self.depth)[3:], i.bit_count() & 1

    def summed(self, value: Fraction) -> Fraction:
        """`value` added over the class's 2^depth leaves."""
        return value * 2**self.depth if self.depth else value


def _slope(state: ChainState) -> Fraction | None:
    """Signed a1/a0 of a single-qubit state, squared (amp1 / amp0): equal
    slopes mean equal directions up to global sign; None when a0 = 0."""
    if state.amp0 == 0:
        return None
    return state.amp1 / state.amp0


def classify(state: ChainState, cascade: CascadeConstants) -> LeafClass:
    """Exact direction test for a single-qubit leaf, global sign ignored:
    one exact slope, compared with those of mu+, mu- and the exceptional
    leaf (which float comparison could not tell from mu-)."""
    slope = _slope(state)
    for class_slope, leaf_class in cascade.slopes:
        if slope == class_slope:
            return leaf_class
    return LeafClass.OTHER


def outcome_classes(plan: MeasurementPlan, params: PlanParams) -> list[OutcomeClass]:
    """The outcome tree as classes in lexicographic order: one per leaf,
    but a spine plan's walk stops at each "0" child.  Below it every basis
    is {|+>, |->}, which scales both amplitudes by sqrt(1/2) and negates
    amp1 on a "1", so the tail's even leaf is measured along "0"*d and
    the odd one is it with amp1 negated: m + 1 classes in all.  The same
    rule as a chooser is walked node by node: the reference."""
    if plan.stages != params.m:
        raise PlanError(f"plan covers {plan.stages} stages but params have m={params.m}")
    cascade = constants(params)
    spine = plan.spine is not None
    classes: list[OutcomeClass] = []

    def walk(state: ChainState, history: str) -> None:
        depth = state.remaining - 1
        if depth and not (spine and history.endswith("0")):
            first, second = measure_next(state, plan.basis_for(history))
            walk(first, history + "0")
            walk(second, history + "1")
            return
        for _ in range(depth):
            state = measure_next(state, PLUS_MINUS)[0]
        states = (state, ChainState(1, state.amp0, -state.amp1)) if depth else (state,)
        level = history.find("0") + 1 or params.m + 1
        leaf_classes = tuple([classify(leaf, cascade) for leaf in states])
        classes.append(OutcomeClass(history, depth, level, state.norm_sq(), states, leaf_classes))

    walk(ghz_state(params.n), "")
    return classes


def enumerate_branches(plan: MeasurementPlan, params: PlanParams) -> list[OutcomeClass]:
    """All 2^m leaves as classes of depth 0, in lexicographic order: the
    walk of the same rule given as a chooser, and the per-leaf test oracle."""
    return [
        OutcomeClass(outcomes, 0, c.level, c.probability, (c.states[parity],), (c.leaf_classes[parity],))
        for c in outcome_classes(plan, params)
        for outcomes, parity in c.outcomes()
    ]


def census(classes: list[OutcomeClass]) -> tuple[Counter[int], Counter[LeafClass], Counter[LeafClass]]:
    """Leaves per level, and leaves and total probability per leaf class:
    a class's parities split its 2^depth leaves evenly between its states."""
    levels: Counter[int] = Counter()
    leaves: Counter[LeafClass] = Counter()
    probability: Counter[LeafClass] = Counter()
    for c in classes:
        levels[c.level] += 2**c.depth
        share = 2**c.depth // len(c.states)
        for leaf_class in c.leaf_classes:
            leaves[leaf_class] += share
            probability[leaf_class] += c.probability * share
    return levels, leaves, probability
