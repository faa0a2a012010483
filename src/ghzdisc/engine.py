"""GHZ-span states and single-qubit projective measurement.

States stay in the two-dimensional span {|0...0>, |1...1>} by
construction, so a state is just two exact amplitudes plus a qubit
count.  Amplitudes are kept unnormalized: the squared norm of a branch
equals the cumulative probability of the outcome history that produced
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .amplitude import ExactAmplitude, SQRT_HALF


class MeasurementError(ValueError):
    """Invalid state or basis for a measurement operation."""


@dataclass(frozen=True)
class Basis:
    """Orthonormal single-qubit pair: c0|0> + c1|1> and c1|0> - c0|1>."""

    c0: ExactAmplitude
    c1: ExactAmplitude

    def __post_init__(self) -> None:
        if self.c0.sq() + self.c1.sq() != 1:
            raise MeasurementError(
                f"basis is not normalized: c0^2 + c1^2 = {self.c0.sq() + self.c1.sq()}"
            )


PLUS_MINUS = Basis(SQRT_HALF, SQRT_HALF)


@dataclass(frozen=True)
class ChainState:
    """Unnormalized amp0|0...0> + amp1|1...1> over `remaining` qubits."""

    remaining: int
    amp0: ExactAmplitude
    amp1: ExactAmplitude

    def __post_init__(self) -> None:
        if self.remaining < 1:
            raise MeasurementError(f"need at least one qubit, got {self.remaining}")
        norm = self.amp0.sq() + self.amp1.sq()
        if not 0 < norm <= 1:
            raise MeasurementError(f"squared norm must be in (0, 1], got {norm}")

    def norm_sq(self) -> Fraction:
        return self.amp0.sq() + self.amp1.sq()


def ghz_state(n: int) -> ChainState:
    """(|0...0> + |1...1>)/sqrt(2) over n qubits."""
    if n < 2:
        raise MeasurementError(f"a shared chain needs at least 2 qubits, got {n}")
    return ChainState(n, SQRT_HALF, SQRT_HALF)


def measure_next(state: ChainState, basis: Basis) -> tuple[ChainState, ChainState]:
    """Measure the first remaining qubit; the last qubit is never measured
    here (it belongs to the receiver).  Returns the unnormalized branches
    for the first and second basis vector; their squared norms sum to the
    parent's."""
    if state.remaining < 2:
        raise MeasurementError("only the receiver's qubit remains")
    first = ChainState(state.remaining - 1, state.amp0 * basis.c0, state.amp1 * basis.c1)
    second = ChainState(state.remaining - 1, state.amp0 * basis.c1, -(state.amp1 * basis.c0))
    return first, second


def bob_distribution(state: ChainState) -> tuple[Fraction, Fraction]:
    """Computational-basis outcome probabilities for the last qubit."""
    if state.remaining != 1:
        raise MeasurementError(f"expected a single remaining qubit, got {state.remaining}")
    norm = state.norm_sq()
    return state.amp0.sq() / norm, state.amp1.sq() / norm
