"""Measurement strategies over a shared GHZ chain.

Two built-in strategies: the uniform plan measures every sender qubit
in the Hadamard basis {|+>, |->}; the cascade plan is an adaptive ladder
whose basis exponents double at every stage while "perp" outcomes
persist, switching to {|+>, |->} after the first "plus" outcome.

A plan's one rule is its integer step (n0, n1, q) at a history: the
basis c0 = n0/q, c1 = n1/q (`basis_for` builds the `Basis`, for the
reference walk only).  Both strategies are spine plans: one step per
all-"1" history, {|+>, |->} after the first "0".  One walker visits the
tree on integer numerators: a node is (a0, a1, den), its signed squares
a0/den and a1/den, and den is its parent's times the step's q.
`outcome_classes` keeps them as classes (a leaf, or the two-state
subtree below a spine plan's "0" child), classified by
cross-multiplication against the integer slopes of `constants(params)`;
`census`, the sampler and `oracle.bob_marginal` sum them over one common
denominator (`CommonSums`) that each node's q widens, Horner's rule along
a spine, and `Fraction`s are built only where printed.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd
from operator import mul
from typing import Callable, Iterator, NamedTuple

from .amplitude import fraction_str
from .engine import Basis, ChainState, MeasurementError, Record, _text, check_fractions


class PlanError(ValueError):
    """Invalid plan parameters or history."""


class LeafClass(Enum):
    MU_PLUS = "mu+"
    MU_MINUS = "mu-"
    ETA = "eta"
    OTHER = "other"


class PlanParams(Record):
    """Chain length and the squared first-stage coefficient."""

    __slots__ = _fields = ("n", "x_sq")

    def __init__(self, n: int, x_sq: Fraction = Fraction(2, 3)) -> None:
        super().__init__(n, x_sq)
        if not isinstance(self.n, int):
            raise PlanError(f"the chain length must be an int, got n={self.n!r}")
        if self.n < 3:
            raise PlanError(f"the cascade needs at least 2 sender qubits (n >= 3), got n={_text(self.n)}")
        check_fractions(self, PlanError, "x_sq")
        if not 0 < self.x_sq < 1:
            raise PlanError(f"x_sq must lie strictly between 0 and 1, got {fraction_str(self.x_sq)}")

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


class CascadeConstants(Record):
    """The cascade's values for `params`, each derived on first use; `verify` alone reads the closed forms."""

    _fields = ("params",)  # and no __slots__: each cached_property is kept in the instance __dict__

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
    def eta_node(self) -> tuple[int, int, int]:
        """The all-perp (eta) leaf as the walker's (a0, a1, den): the all-"1" node of `steps`."""
        a0, a1, den = 1, 1, 2
        for n0, n1, q in self.steps:
            a0, a1, den = a0 * n1, -a1 * n0, den * q
        return a0, a1, den

    @cached_property
    def slopes(self) -> tuple[tuple[int, int, LeafClass], ...]:
        """Slopes p/q of mu+, mu- and eta, in that order, as integer pairs:
        +-y^2/x^2 = +-v/u for r = u/v, and a1/a0 of `eta_node`.  At x^2 = 1/2
        the eta direction equals one of mu+ and mu-, and the mu class wins."""
        u, v = self.params.ratio.numerator, self.params.ratio.denominator
        a0, a1, _ = self.eta_node
        return (v, u, LeafClass.MU_PLUS), (-v, u, LeafClass.MU_MINUS), (a1, a0, LeafClass.ETA)

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
        """Unnormalized all-perp leaf of the cascade, from its closed form."""
        m, x_sq, y_sq = self.params.m, self.params.x_sq, self.params.y_sq
        e = 2 ** (m - 1)
        two_t_sq = 2 * self.T_sq[-1]
        # the relative sign of the all-perp leaf alternates with the stage count
        amp1 = x_sq**e / (y_sq ** (e - 1) * two_t_sq)
        return ChainState(1, y_sq**e / (x_sq ** (e - 1) * two_t_sq), -amp1 if m % 2 else amp1)


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
    """The 2^depth leaves below `head` at one `level` (1 + the length of
    the leading run of perp outcomes): each leaf's receiver state has the
    signed squares a0/den and a1/den, a1 negated for an odd suffix after
    `head`, and class `leaf_classes[parity]`; den >> depth is the walk's
    den, its parent's times q.  `probability` and the even `state` are
    built where read; a named tuple is the cheapest record to build."""

    head: str
    depth: int
    level: int
    a0: int
    a1: int
    den: int
    q: int
    leaf_classes: tuple[LeafClass, ...]

    @property
    def probability(self) -> Fraction:
        return Fraction(abs(self.a0) + abs(self.a1), self.den)

    @property
    def state(self) -> ChainState:
        return ChainState(1, Fraction(self.a0, self.den), Fraction(self.a1, self.den))


def classify(a0, a1, cascade: CascadeConstants) -> LeafClass:
    """Exact direction test, global sign ignored, of signed squares a0, a1
    (ints over one den, or `Fraction`s): a1/a0 equals a slope p/q of mu+,
    mu- or eta (which floats could not tell from mu-) when a1*q == p*a0."""
    for p, q, leaf_class in cascade.slopes:
        if a1 * q == p * a0:
            return leaf_class
    return LeafClass.OTHER


def _walk_numerators(plan: MeasurementPlan, params: PlanParams) -> Iterator[tuple[str, int, int, int, int, int]]:
    """The outcome tree's classes in lexicographic order, as (head, depth,
    a0, a1, den, q): the state at `head`, before its {|+>, |->} tail of
    `depth` stages.  A step (n0, n1, q), with q not necessarily reduced,
    is four integer products; both children get den * q, and that q.
    Each step checks that both children keep a nonzero norm and that
    their norms sum to the parent's: the children's weights sum to
    (|a0| + |a1|)(|n0| + |n1|), so this also forces |n0| + |n1| = q."""
    if plan.stages != params.m:
        raise PlanError(f"plan covers {plan.stages} stages but params have m={params.m}")
    spine = plan.spine is not None
    step = plan.step
    m = params.m
    stack = [("", 1, 1, 2, 2)]  # the GHZ state: both signed squares are 1/2
    while stack:
        history, a0, a1, den, q = stack.pop()
        depth = m - len(history)
        if not depth or spine and history.endswith("0"):
            yield history, depth, a0, a1, den, q
            continue
        n0, n1, q = step(history)
        f0, f1, g0, g1 = a0 * n0, a1 * n1, a0 * n1, -a1 * n0
        if not (f0 or f1) or not (g0 or g1) or abs(f0) + abs(f1) + abs(g0) + abs(g1) != (abs(a0) + abs(a1)) * q:
            raise MeasurementError(
                f"basis ({n0}/{q}, {n1}/{q}) at history {history!r} does not split the branch's weight"
            )
        den *= q
        stack.append((history + "1", g0, g1, den, q))
        stack.append((history + "0", f0, f1, den, q))


def outcome_classes(plan: MeasurementPlan, params: PlanParams) -> list[OutcomeClass]:
    """The outcome tree as classes in lexicographic order: one per leaf,
    but a spine plan's walk stops at each "0" child.  Below it every basis
    is {|+>, |->}, so the tail's even leaf is the head's state over
    den * 2^depth and the odd one that with amp1 negated: m + 1 classes."""
    cascade = constants(params)
    classes: list[OutcomeClass] = []
    for head, depth, a0, a1, den, q in _walk_numerators(plan, params):
        level = head.find("0") + 1 or params.m + 1
        leaf_classes = tuple([classify(a0, amp1, cascade) for amp1 in ((a1, -a1) if depth else (a1,))])
        classes.append(OutcomeClass(head, depth, level, a0, a1, den << depth, q, leaf_classes))
    return classes


def enumerate_branches(plan: MeasurementPlan, params: PlanParams) -> list[OutcomeClass]:
    """All 2^m leaves as classes of depth 0, in lexicographic order: the walk
    of the same rule as a step plan, and the per-leaf oracle for the CLI's table."""
    leaves = []
    for c in outcome_classes(plan, params):
        q = 2 if c.depth else c.q  # a tail's leaves come of its {|+>, |->} steps
        for i in range(2**c.depth):
            parity = i.bit_count() & 1  # bin(2^depth + i) is "0b1" and then the suffix, padded to depth bits
            outcomes, a1 = c.head + bin(i | 1 << c.depth)[3:], -c.a1 if parity else c.a1
            leaves.append(OutcomeClass(outcomes, 0, c.level, c.a0, a1, c.den, q, (c.leaf_classes[parity],)))
    return leaves


class CommonSums(Counter):
    """Exact sums of num/den per key over one common `den`, never reduced.
    A term's q hints that den is the common den times q, as a spine plan's
    nodes nest: a true hint is one Horner step, with no division, and any
    other den widens to the lcm, so a wrong hint never changes a value."""

    den = 1

    def add(self, key, num: int, den: int, q: int = 1) -> None:
        if den != self.den:
            factor = den if self.den == 1 else q  # the first term takes its own den
            if den != self.den * factor:
                g = gcd(self.den, den)
                factor, num = den // g, num * (self.den // g)
            self.den *= factor
            for other in self:
                self[other] *= factor
        self[key] += num

    def value(self, *keys) -> Fraction:
        """The sum over `keys`, or over every key when none is given, as a `Fraction`."""
        return Fraction(sum(map(self.__getitem__, keys)) if keys else self.total(), self.den)


def census(classes: list[OutcomeClass]) -> tuple[Counter[int], Counter[LeafClass], CommonSums]:
    """Leaves per level, and leaves and total probability per leaf class: a
    class's states split its leaves and its weight (|a0| + |a1|) / (den >> depth),
    summed over 2 * (den >> depth) so that the classes' dens nest by their q."""
    levels: Counter[int] = Counter()
    leaves: Counter[LeafClass] = Counter()
    probability = CommonSums()
    for c in classes:
        levels[c.level] += 2**c.depth
        states = len(c.leaf_classes)
        for leaf_class in c.leaf_classes:
            leaves[leaf_class] += 2**c.depth // states
            probability.add(leaf_class, (abs(c.a0) + abs(c.a1)) * (2 // states), 2 * (c.den >> c.depth), c.q)
    return levels, leaves, probability
