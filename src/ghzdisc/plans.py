"""Measurement strategies over a shared GHZ chain.

Two built-in strategies:

* uniform plan: every sender qubit measured in the Hadamard basis
  {|+>, |->};
* cascade plan: an adaptive ladder whose basis exponents double at
  every stage while "perp" outcomes persist, switching to {|+>, |->}
  after the first "plus" outcome.

`enumerate_branches` walks the full outcome tree and classifies every
leaf exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .amplitude import ExactAmplitude
from .engine import (
    PLUS_MINUS,
    Basis,
    ChainState,
    ghz_state,
    measure_next,
)


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
        if self.n < 3:
            raise PlanError(f"the cascade needs at least 2 sender qubits (n >= 3), got n={self.n}")
        if not isinstance(self.x_sq, Fraction):
            object.__setattr__(self, "x_sq", Fraction(self.x_sq))
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
    for every history of length 0 .. stages-1.
    """

    def __init__(self, stages: int, chooser: Callable[[str], Basis], name: str = "plan"):
        self.stages = stages
        self.name = name
        self._chooser = chooser

    def basis_for(self, history: str) -> Basis:
        if len(history) >= self.stages:
            raise PlanError(f"history {history!r} already covers all {self.stages} stages")
        if any(c not in "01" for c in history):
            raise PlanError(f"history must be a bit string, got {history!r}")
        return self._chooser(history)

    def __repr__(self) -> str:
        return f"MeasurementPlan({self.name}, stages={self.stages})"


@dataclass(frozen=True)
class CascadeConstants:
    """Per-stage normalizers F_1..F_m and their running products T_1..T_m."""

    F: tuple[ExactAmplitude, ...]
    T: tuple[ExactAmplitude, ...]


@lru_cache(maxsize=None)
def constants(params: PlanParams) -> CascadeConstants:
    r = params.ratio
    f_sqs = [Fraction(1)]
    for k in range(2, params.m + 1):
        e = 2 ** (k - 2)
        f_sqs.append(r**e + r**-e)
    running = Fraction(1)
    t_sqs = []
    for f in f_sqs:
        running *= f
        t_sqs.append(running)
    return CascadeConstants(
        tuple(ExactAmplitude.sqrt(f) for f in f_sqs),
        tuple(ExactAmplitude.sqrt(t) for t in t_sqs),
    )


def cpm_plan(params: PlanParams) -> MeasurementPlan:
    """Every sender qubit measured in {|+>, |->}."""
    return MeasurementPlan(params.m, lambda history: PLUS_MINUS, name="cpm")


def spm_basis(k: int, params: PlanParams) -> Basis:
    """Stage-k ladder basis; coefficients are (r^e, r^-e)/F_{k+1} with
    e = 2^(k-1), orthonormal by construction."""
    if not 1 <= k <= params.m - 1:
        raise PlanError(f"stage index must be in 1..{params.m - 1}, got {k}")
    e = 2 ** (k - 1)
    big = params.ratio ** (2 * e)
    return Basis(
        ExactAmplitude.sqrt(big / (big + 1)),
        ExactAmplitude.sqrt(Fraction(1) / (big + 1)),
    )


def spm_plan(params: PlanParams) -> MeasurementPlan:
    """The adaptive cascade: first qubit in {x|0>+y|1>, y|0>-x|1>}; while
    outcomes stay "perp" (bit 1), the ladder bases follow; after the
    first "plus" outcome everything is {|+>, |->}."""
    nu = Basis(ExactAmplitude.sqrt(params.x_sq), ExactAmplitude.sqrt(params.y_sq))

    def chooser(history: str) -> Basis:
        if not history:
            return nu
        if "0" in history:
            return PLUS_MINUS
        return spm_basis(len(history), params)

    return MeasurementPlan(params.m, chooser, name="spm")


@dataclass(frozen=True)
class BranchRecord:
    """One leaf of the outcome tree.

    `level` is 1 + the length of the leading run of perp outcomes
    (m + 1 for the all-perp leaf); `probability` equals the squared norm
    of the unnormalized final state.
    """

    outcomes: str
    probability: Fraction
    bob_state: ChainState
    leaf_class: LeafClass
    level: int


def classify(state: ChainState, params: PlanParams) -> LeafClass:
    """Exact direction test for a single-qubit leaf, global sign ignored.

    Cross products of exact amplitudes distinguish directions that float
    comparison never could (the exceptional leaf differs from mu- only
    by exponent-scale weights).
    """
    x = ExactAmplitude.sqrt(params.x_sq)
    y = ExactAmplitude.sqrt(params.y_sq)

    def proportional(b0: ExactAmplitude, b1: ExactAmplitude) -> bool:
        return state.amp0 * b1 == state.amp1 * b0

    if proportional(x, y):
        return LeafClass.MU_PLUS
    if proportional(x, -y):
        return LeafClass.MU_MINUS
    eta = eta_state(params).normalized
    if proportional(eta.amp0, eta.amp1):
        return LeafClass.ETA
    return LeafClass.OTHER


def enumerate_branches(plan: MeasurementPlan, params: PlanParams) -> list[BranchRecord]:
    """All 2^m leaves of the outcome tree, in lexicographic outcome order."""
    if plan.stages != params.m:
        raise PlanError(f"plan covers {plan.stages} stages but params have m={params.m}")
    records: list[BranchRecord] = []

    def walk(state: ChainState, history: str) -> None:
        if state.remaining == 1:
            level = history.index("0") + 1 if "0" in history else params.m + 1
            records.append(
                BranchRecord(history, state.norm_sq(), state, classify(state, params), level)
            )
            return
        first, second = measure_next(state, plan.basis_for(history))
        walk(first, history + "0")
        walk(second, history + "1")

    walk(ghz_state(params.n), "")
    return records


@dataclass(frozen=True)
class EtaLeaf:
    """The all-perp leaf: normalized direction, unnormalized leaf state,
    and the prefactor relating the two."""

    normalized: ChainState
    leaf: ChainState
    prefactor: ExactAmplitude


@lru_cache(maxsize=None)
def eta_state(params: PlanParams) -> EtaLeaf:
    """All-perp leaf of the cascade, derived once per params;
    `classify` and `w_statistic` both read it from here."""
    m = params.m
    big = 2**m - 1
    e = 2 ** (m - 1)
    # the relative sign of the all-perp leaf alternates with the stage count
    sign1 = -1 if m % 2 else 1
    x_sq, y_sq = params.x_sq, params.y_sq
    denom = x_sq**big + y_sq**big
    normalized = ChainState(
        1,
        ExactAmplitude.sqrt(y_sq**big / denom),
        ExactAmplitude(sign1, x_sq**big / denom),
    )
    t_sq = constants(params).T[-1].sq()
    leaf = ChainState(
        1,
        ExactAmplitude(1, y_sq**e / (x_sq ** (e - 1) * 2 * t_sq)),
        ExactAmplitude(sign1, x_sq**e / (y_sq ** (e - 1) * 2 * t_sq)),
    )
    prefactor = ExactAmplitude.sqrt(denom / (2 * t_sq * (x_sq * y_sq) ** (e - 1)))
    return EtaLeaf(normalized, leaf, prefactor)


def level_census(records: list[BranchRecord]) -> Counter[int]:
    """Number of leaves at each level."""
    return Counter(r.level for r in records)
