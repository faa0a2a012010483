"""GHZ-span states and single-qubit projective measurement.

States stay in the two-dimensional span {|0...0>, |1...1>} by
construction, so a state is just two exact amplitudes, each held as its
signed square (see `amplitude`), plus a qubit count.  Amplitudes are
kept unnormalized: the squared norm of a branch equals the cumulative
probability of the outcome history that produced it.

`measure_next` is the reference step.  The tree walks in `plans`
carry each node as integer numerators over one denominator (the
product of the basis denominators along its history) and build states
only for the classes they emit; the tests compare them against
`measure_next` node by node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class MeasurementError(ValueError):
    """Invalid state or basis for a measurement operation."""


def check_fractions(record, error: type[ValueError], *fields: str) -> None:
    """The one rule for exact fields: each holds a Fraction, or `error` names it; nothing is converted."""
    for field in fields:
        if not isinstance(value := getattr(record, field), Fraction):
            raise error(f"{field} must be a Fraction, got {value!r}")


@dataclass(frozen=True)
class Basis:
    """Orthonormal pair c0|0> + c1|1>, c1|0> - c0|1> (as signed squares)."""

    c0: Fraction
    c1: Fraction

    def __post_init__(self) -> None:
        check_fractions(self, MeasurementError, "c0", "c1")
        norm = abs(self.c0) + abs(self.c1)
        if norm != 1:
            raise MeasurementError(f"basis is not normalized: c0^2 + c1^2 = {norm}")


PLUS_MINUS = Basis(Fraction(1, 2), Fraction(1, 2))


@dataclass(frozen=True)
class ChainState:
    """Unnormalized amp0|0...0> + amp1|1...1> over `remaining` qubits."""

    remaining: int
    amp0: Fraction
    amp1: Fraction

    def __post_init__(self) -> None:
        if self.remaining < 1:
            raise MeasurementError(f"need at least one qubit, got {self.remaining}")
        check_fractions(self, MeasurementError, "amp0", "amp1")
        norm = self.norm_sq()
        if not 0 < norm <= 1:
            raise MeasurementError(f"squared norm must be in (0, 1], got {norm}")

    def norm_sq(self) -> Fraction:
        return abs(self.amp0) + abs(self.amp1)


def ghz_state(n: int) -> ChainState:
    """(|0...0> + |1...1>)/sqrt(2) over n qubits."""
    if n < 2:
        raise MeasurementError(f"a shared chain needs at least 2 qubits, got {n}")
    return ChainState(n, Fraction(1, 2), Fraction(1, 2))


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
    return abs(state.amp0) / norm, abs(state.amp1) / norm
