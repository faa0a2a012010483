"""Exact amplitudes of the form sign * sqrt(q), q rational.

Every amplitude of the cascade has this shape, and the cascade only
multiplies and negates amplitudes and sums their squares, so it holds
each one as the signed rational sigma = sign * q: sigma1 * sigma2 is the
product, -sigma the negation and |sigma| the Born weight.
`ExactAmplitude` is the sign/magnitude form, the tests' reference.
Both renderers take a rational as num, den in lowest terms: its float is num / den,
correctly rounded at every exponent; `amplitude_json` renders sign * sqrt(|sigma|) by its own rule.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .engine import Record


class AmplitudeError(ValueError):
    """Argument outside the sign * sqrt(rational) domain."""


class ExactAmplitude(Record):
    """Value sign * sqrt(mag_sq) with mag_sq a nonnegative rational: the
    reference form of the signed rational sign * mag_sq.

    Immutable; mag_sq is kept in lowest terms (Fraction does this
    eagerly), and sign is 0 exactly when the value is 0.
    """

    __slots__ = _fields = ("sign", "mag_sq")

    def __init__(self, sign: int, mag_sq: Fraction) -> None:
        if sign not in (-1, 0, 1):
            raise AmplitudeError(f"sign must be -1, 0 or +1, got {sign!r}")
        super().__init__(sign, mag_sq if isinstance(mag_sq, Fraction) else Fraction(mag_sq))
        if self.mag_sq < 0:
            raise AmplitudeError(f"squared magnitude must be nonnegative, got {fraction_str(self.mag_sq)}")
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


def decimal_str(n: int) -> str:
    """str(n) with every digit under any int-to-str limit: str below 2**2000 (603 digits,
    the lowest limit being 640), else its halves by 10**k, k under half its digits, joined."""
    if n.bit_length() <= 2000:
        return str(n)
    k = n.bit_length() * 3 // 20
    hi, lo = divmod(abs(n), 10**k)
    return "-" * (n < 0) + decimal_str(hi) + decimal_str(lo).zfill(k)


def fraction_str(value: Fraction | tuple[Fraction, ...]) -> str:
    """str(value) with every digit: a Fraction's num/den, or num alone when den
    is 1; a tuple of Fractions as str writes it, from each one's repr."""
    if isinstance(value, tuple):
        return "(" + ", ".join(f"Fraction({decimal_str(q.numerator)}, {decimal_str(q.denominator)})" for q in value) + ")"
    return decimal_str(value.numerator) + ("" if value.denominator == 1 else "/" + decimal_str(value.denominator))


def fraction_json(num: int, den: int, text=decimal_str) -> dict:
    return {"num": text(num), "den": text(den), "float": num / den}


def amplitude_json(num: int, den: int, text=decimal_str) -> dict:
    """The amplitude sign(sigma) * sqrt(|sigma|), sigma = num/den in lowest terms with den > 0
    (the root's scale reads their bit lengths); `text` prints each int; the float is a convenience.

    |sigma| is scaled by 2**-e, e even, into [1/4, 2) before the root, so
    the root of a magnitude below the double range (2**-2100, say) is
    kept.  The float is the root of a correctly rounded quotient: within
    one unit in the last place of the nearest double, but not always the
    nearest (sigma = 1/15 gives 0.2581988897471611, the nearest double
    being 0.25819888974716115).  The pinned tables hold such floats."""
    sign, n = (num > 0) - (num < 0), abs(num)
    e = n.bit_length() - den.bit_length()
    e -= e % 2
    # int / int is correctly rounded, so no Fraction (and gcd) is needed
    scaled = n / (den << e) if e >= 0 else (n << -e) / den
    return {
        "sign": sign,
        "num": text(n),
        "den": text(den),
        "float": sign * math.ldexp(math.sqrt(scaled), e // 2),
    }
