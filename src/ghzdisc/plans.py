"""Measurement strategies over a shared GHZ chain.

Two built-in strategies:

* uniform plan: every sender qubit measured in the Hadamard basis
  {|+>, |->};
* cascade plan: an adaptive ladder whose basis exponents double at
  every stage while "perp" outcomes persist, switching to {|+>, |->}
  after the first "plus" outcome.

A plan's one rule is its integer step (n0, n1, q) at a history: the
basis c0 = n0/q, c1 = n1/q; `basis_for` turns it into a `Basis` for
the reference walk only.  `constants(params)` is the one home of the
cascade's closed forms, each derived on first use: the stage steps
(built by repeated squaring), F_k^2 and T_k^2, the all-perp (eta) leaf
and the class slopes.  Both strategies are spine plans: one step per
all-"1" history, {|+>, |->} after the first "0".  One walker visits
the tree on integer numerators: a node is (a0, a1, den), its signed
squares a0/den and a1/den, with no `Fraction`, gcd or state per node;
each step checks that the children's weights sum to the parent's.
`outcome_classes` turns its output into classes (a leaf, or the
two-state subtree below a spine plan's "0" child), each distinct state
classified exactly against those slopes; `oracle.bob_marginal` sums
the receiver's weights from it without classifying; and
`enumerate_branches` expands the classes into one class of depth 0 per
leaf.
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

from .engine import Basis, ChainState, MeasurementError, check_fractions


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
        check_fractions(self, PlanError, "x_sq")
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
    """Adaptive rule: outcome history (bit string) -> next basis, as the
    integer step (n0, n1, q) with c0 = n0/q and c1 = n1/q.

    Bit 0 means the first basis vector fired, bit 1 the second.  Defined
    for every history of length 0 .. stages-1.  A plan is given either
    by a `step` over whole histories, or by a `spine`: the step of each
    all-"1" history, with {|+>, |->} = (1, 1, 2) after the first "0".
    """

    def __init__(
        self,
        stages: int,
        step: Callable[[str], tuple[int, int, int]] | None = None,
        name: str = "plan",
        spine: tuple[tuple[int, int, int], ...] | None = None,
    ):
        if (step is None) == (spine is None):
            raise PlanError("a plan needs exactly one of a step and a spine")
        if spine is not None:
            if len(spine) != stages:
                raise PlanError(f"spine has {len(spine)} steps for {stages} stages")
            step = lambda history: (1, 1, 2) if "0" in history else spine[len(history)]
        self.stages = stages
        self.name = name
        self.step = step
        self.spine = spine

    def basis_for(self, history: str) -> Basis:
        """The step at a valid `history` as a `Basis`: the reference for `measure_next`."""
        if len(history) >= self.stages:
            raise PlanError(f"history {history!r} already covers all {self.stages} stages")
        if any(c not in "01" for c in history):
            raise PlanError(f"history must be a bit string, got {history!r}")
        n0, n1, q = self.step(history)
        return Basis(Fraction(n0, q), Fraction(n1, q))

    def __repr__(self) -> str:
        return f"MeasurementPlan({self.name}, stages={self.stages})"


@dataclass(frozen=True)
class CascadeConstants:
    """The cascade's closed forms for `params`, each derived on first use."""

    params: PlanParams

    @cached_property
    def steps(self) -> tuple[tuple[int, int, int], ...]:
        """Step of stage k = 0..m-1 on the all-perp spine: (u^E, v^E, u^E + v^E)
        for r = u/v in lowest terms and E = 2^k, so c0^2 = s/(1+s) with
        s = r^E; each triple is reduced, as gcd(u, v) = 1.  Stage 0 is
        {x|0>+y|1>, y|0>-x|1>}; the ladder's coefficients equal
        (r^e, r^-e)/F_{k+1} with e = 2^(k-1)."""
        u, v = self.params.ratio.numerator, self.params.ratio.denominator
        steps = [(u, v, u + v)]
        for _ in range(self.params.m - 1):
            u, v = u * u, v * v
            steps.append((u, v, u + v))
        return tuple(steps)

    @cached_property
    def F_sq(self) -> tuple[Fraction, ...]:
        """Squared stage normalizers F_1^2..F_m^2: F_1^2 = 1 and
        F_k^2 = r^e + r^-e with e = 2^(k-2)."""
        r = self.params.ratio
        return (Fraction(1),) + tuple(r**e + r**-e for e in (2**j for j in range(self.params.m - 1)))

    @cached_property
    def T_sq(self) -> tuple[Fraction, ...]:
        """Running products T_k^2 = F_1^2 ... F_k^2."""
        return tuple(accumulate(self.F_sq, mul))

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
    return CascadeConstants(params)


def cpm_plan(params: PlanParams) -> MeasurementPlan:
    """Every sender qubit measured in {|+>, |->}."""
    return MeasurementPlan(params.m, name="cpm", spine=((1, 1, 2),) * params.m)


def spm_plan(params: PlanParams) -> MeasurementPlan:
    """The adaptive cascade: first qubit in {x|0>+y|1>, y|0>-x|1>}; while
    outcomes stay "perp" (bit 1), the ladder bases follow; after the
    first "plus" outcome everything is {|+>, |->}."""
    return MeasurementPlan(params.m, name="spm", spine=constants(params).steps)


class OutcomeClass(NamedTuple):
    """The 2^depth leaves below the history `head`, at one `level` and
    with one `probability` each.  `states` and `leaf_classes` hold the
    receiver state and its class for each parity of the 1s in the
    suffix after `head` (one entry when depth = 0); the two states
    differ only in amp1's sign.  `level` is 1 + the length of the
    leading run of perp outcomes (m + 1 for the all-perp leaf).  A
    step plan's walk builds one of depth 0 per leaf, and a named tuple
    is the cheapest immutable record to build."""

    head: str
    depth: int
    level: int
    probability: Fraction
    states: tuple[ChainState, ...]
    leaf_classes: tuple[LeafClass, ...]

    def outcomes(self) -> Iterator[tuple[str, int]]:
        """Each leaf's outcome string and parity, in lexicographic order:
        the per-leaf reference for the CLI's table, which is written in runs."""
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


def _walk_numerators(plan: MeasurementPlan, params: PlanParams) -> Iterator[tuple[str, int, int, int, int]]:
    """The outcome tree's classes in lexicographic order, as (head, depth,
    a0, a1, den): the signed squares a0/den and a1/den of the state at
    `head`, before its {|+>, |->} tail of `depth` stages.

    A step is the plan's (n0, n1, q) at a node, c0 = n0/q and c1 = n1/q,
    and q need not be reduced.  One step is four integer products and
    both children get den * q; nothing is reduced.  Each step checks that
    both children keep a nonzero norm and that their norms sum to the
    parent's, exactly: the children's weights sum to
    (|a0| + |a1|)(|n0| + |n1|), so this also forces |n0| + |n1| = q."""
    if plan.stages != params.m:
        raise PlanError(f"plan covers {plan.stages} stages but params have m={params.m}")
    spine = plan.spine is not None
    step = plan.step
    m = params.m
    stack = [("", 1, 1, 2)]  # the GHZ state: both signed squares are 1/2
    while stack:
        history, a0, a1, den = stack.pop()
        depth = m - len(history)
        if not depth or spine and history.endswith("0"):
            yield history, depth, a0, a1, den
            continue
        n0, n1, q = step(history)
        f0, f1, g0, g1 = a0 * n0, a1 * n1, a0 * n1, -a1 * n0
        if not (f0 or f1) or not (g0 or g1) or abs(f0) + abs(f1) + abs(g0) + abs(g1) != (abs(a0) + abs(a1)) * q:
            raise MeasurementError(
                f"basis ({n0}/{q}, {n1}/{q}) at history {history!r} does not split the branch's weight"
            )
        den *= q
        stack.append((history + "1", g0, g1, den))
        stack.append((history + "0", f0, f1, den))


def outcome_classes(plan: MeasurementPlan, params: PlanParams) -> list[OutcomeClass]:
    """The outcome tree as classes in lexicographic order: one per leaf,
    but a spine plan's walk stops at each "0" child.  Below it every basis
    is {|+>, |->}, which scales both amplitudes by sqrt(1/2) and negates
    amp1 on a "1", so the tail's even leaf is the head's state over den
    * 2^d and the odd one is it with amp1 negated: m + 1 classes in all.
    The same rule as a step plan is walked node by node: the reference."""
    cascade = constants(params)
    classes: list[OutcomeClass] = []
    for head, depth, a0, a1, den in _walk_numerators(plan, params):
        den <<= depth
        state = ChainState(1, Fraction(a0, den), Fraction(a1, den))
        states = (state, ChainState(1, state.amp0, -state.amp1)) if depth else (state,)
        level = head.find("0") + 1 or params.m + 1
        leaf_classes = tuple([classify(leaf, cascade) for leaf in states])
        probability = Fraction(abs(a0) + abs(a1), den)
        classes.append(OutcomeClass(head, depth, level, probability, states, leaf_classes))
    return classes


def enumerate_branches(plan: MeasurementPlan, params: PlanParams) -> list[OutcomeClass]:
    """All 2^m leaves as classes of depth 0, in lexicographic order: the
    walk of the same rule given as a step plan, and the per-leaf test oracle."""
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
