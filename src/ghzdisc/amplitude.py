"""Exact arithmetic for real numbers of the form sign * sqrt(rational).

Every amplitude the measurement cascade produces has this shape: basis
coefficients are square roots of rationals, and measurement only ever
multiplies amplitudes, so the form is closed.  Sums are only ever taken
over squared magnitudes, which are plain rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class AmplitudeError(ValueError):
    """Argument outside the sign * sqrt(rational) domain."""


@dataclass(frozen=True)
class ExactAmplitude:
    """Value sign * sqrt(mag_sq) with mag_sq a nonnegative rational.

    Immutable; mag_sq is kept in lowest terms (Fraction does this
    eagerly), and sign is 0 exactly when the value is 0.
    """

    sign: int
    mag_sq: Fraction

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise AmplitudeError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if not isinstance(self.mag_sq, Fraction):
            object.__setattr__(self, "mag_sq", Fraction(self.mag_sq))
        if self.mag_sq < 0:
            raise AmplitudeError(f"squared magnitude must be nonnegative, got {self.mag_sq}")
        if (self.sign == 0) != (self.mag_sq == 0):
            raise AmplitudeError("sign must be 0 exactly when the magnitude is 0")

    @classmethod
    def sqrt(cls, value) -> "ExactAmplitude":
        """Nonnegative square root of a nonnegative rational."""
        value = Fraction(value)
        return cls(0 if value == 0 else 1, value)

    def sq(self) -> Fraction:
        """Squared magnitude (the Born weight of this amplitude)."""
        return self.mag_sq

    def __mul__(self, other: "ExactAmplitude") -> "ExactAmplitude":
        if not isinstance(other, ExactAmplitude):
            return NotImplemented
        return ExactAmplitude(self.sign * other.sign, self.mag_sq * other.mag_sq)

    def __neg__(self) -> "ExactAmplitude":
        return ExactAmplitude(-self.sign, self.mag_sq)

    def __float__(self) -> float:
        # Reporting convenience only.  Scale into double range before the
        # square root; magnitudes like (1/3)**200 would otherwise lose
        # their exponent in the rational-to-float conversion.
        if self.sign == 0:
            return 0.0
        n, d = self.mag_sq.numerator, self.mag_sq.denominator
        e = n.bit_length() - d.bit_length()
        e -= e % 2
        if e >= 0:
            scaled = Fraction(n, d << e)
        else:
            scaled = Fraction(n << -e, d)
        return self.sign * math.ldexp(math.sqrt(float(scaled)), e // 2)

    def to_json(self) -> dict:
        """Exact fields are authoritative; the float is a convenience."""
        return {
            "sign": self.sign,
            "num": str(self.mag_sq.numerator),
            "den": str(self.mag_sq.denominator),
            "float": float(self),
        }


AMP_ZERO = ExactAmplitude(0, Fraction(0))
AMP_ONE = ExactAmplitude(1, Fraction(1))
SQRT_HALF = ExactAmplitude(1, Fraction(1, 2))


def fraction_float(value: Fraction) -> float:
    """Nearest double of an arbitrary rational, exponent-safe."""
    if value == 0:
        return 0.0
    n, d = abs(value.numerator), value.denominator
    e = n.bit_length() - d.bit_length()
    scaled = Fraction(n, d << e) if e >= 0 else Fraction(n << -e, d)
    result = math.ldexp(float(scaled), e)
    return -result if value < 0 else result


def fraction_json(value: Fraction) -> dict:
    return {
        "num": str(value.numerator),
        "den": str(value.denominator),
        "float": fraction_float(value),
    }
