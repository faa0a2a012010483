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
`measure_next` node by node.  `Record` is the one rule of the package's value records.
"""

from __future__ import annotations

from fractions import Fraction


class Record:
    """Immutable fields `_fields`, set in order by `__init__` (a subclass's validates them after):
    equal, and hashed, by class and field values, and shown as `Class(field=value, ...)`."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(self._fields, self._values())])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class MeasurementError(ValueError):
    """Invalid state or basis for a measurement operation."""


def check_fractions(record, error: type[ValueError], *fields: str) -> None:
    """The one rule for exact fields: each holds a Fraction, or `error` names it; nothing is converted."""
    for field in fields:
        if not isinstance(value := getattr(record, field), Fraction):
            raise error(f"{field} must be a Fraction, got {_text(value)}")


def _text(value) -> str:
    """An error message's value: an int or Fraction as str writes it, with every digit, else its repr."""
    from .amplitude import decimal_str, fraction_str  # not at the top: amplitude's records build on this module

    if isinstance(value, Fraction):
        return fraction_str(value)
    return decimal_str(value) if isinstance(value, int) else repr(value)


class Basis(Record):
    """Orthonormal pair c0|0> + c1|1>, c1|0> - c0|1> (as signed squares)."""

    __slots__ = _fields = ("c0", "c1")

    def __init__(self, c0: Fraction, c1: Fraction) -> None:
        super().__init__(c0, c1)
        check_fractions(self, MeasurementError, "c0", "c1")
        norm = abs(self.c0) + abs(self.c1)
        if norm != 1:
            raise MeasurementError(f"basis is not normalized: c0^2 + c1^2 = {_text(norm)}")


class ChainState(Record):
    """Unnormalized amp0|0...0> + amp1|1...1> over `remaining` qubits."""

    __slots__ = _fields = ("remaining", "amp0", "amp1")

    def __init__(self, remaining: int, amp0: Fraction, amp1: Fraction) -> None:
        super().__init__(remaining, amp0, amp1)
        if self.remaining < 1:
            raise MeasurementError(f"need at least one qubit, got {_text(self.remaining)}")
        check_fractions(self, MeasurementError, "amp0", "amp1")
        norm = self.norm_sq()
        if not 0 < norm <= 1:
            raise MeasurementError(f"squared norm must be in (0, 1], got {_text(norm)}")

    def norm_sq(self) -> Fraction:
        return abs(self.amp0) + abs(self.amp1)


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
        raise MeasurementError(f"expected a single remaining qubit, got {_text(state.remaining)}")
    norm = state.norm_sq()
    return abs(state.amp0) / norm, abs(state.amp1) / norm
