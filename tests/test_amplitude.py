from fractions import Fraction

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ghzdisc import AMP_ONE, AMP_ZERO, SQRT_HALF, AmplitudeError, ExactAmplitude
from ghzdisc.amplitude import fraction_float

X = ExactAmplitude(1, Fraction(2, 3))
Y = ExactAmplitude(1, Fraction(1, 3))


def amps(max_den=50):
    mags = st.fractions(min_value=0, max_value=4, max_denominator=max_den)
    signs = st.sampled_from([-1, 1])

    def build(sign, mag):
        return AMP_ZERO if mag == 0 else ExactAmplitude(sign, mag)

    return st.builds(build, signs, mags)


class TestFromSq:
    """Construction from a sign and a squared magnitude."""

    def test_x(self):
        assert X.sign == 1
        assert X.mag_sq == Fraction(2, 3)

    def test_zero(self):
        assert ExactAmplitude(0, 0) == AMP_ZERO

    def test_ghz_coefficient(self):
        assert ExactAmplitude(1, Fraction(1, 2)) == SQRT_HALF

    def test_lowest_terms(self):
        a = ExactAmplitude(1, Fraction(4, 6))
        assert (a.mag_sq.numerator, a.mag_sq.denominator) == (2, 3)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(AmplitudeError):
            ExactAmplitude(1, Fraction(-1, 2))

    def test_sign_zero_mismatch_rejected(self):
        with pytest.raises(AmplitudeError):
            ExactAmplitude(0, Fraction(1, 2))
        with pytest.raises(AmplitudeError):
            ExactAmplitude(1, 0)

    def test_bad_sign_rejected(self):
        with pytest.raises(AmplitudeError):
            ExactAmplitude(2, Fraction(1, 2))


class TestMul:
    def test_x_times_y(self):
        assert X * Y == ExactAmplitude(1, Fraction(2, 9))

    def test_zero_absorbs(self):
        assert X * AMP_ZERO == AMP_ZERO

    def test_sqrt_half_squared(self):
        assert SQRT_HALF * SQRT_HALF == ExactAmplitude(1, Fraction(1, 4))

    def test_sign_product(self):
        assert (-X) * Y == ExactAmplitude(-1, Fraction(2, 9))
        assert (-X) * (-Y) == ExactAmplitude(1, Fraction(2, 9))


class TestSq:
    def test_x(self):
        assert X.sq() == Fraction(2, 3)

    def test_level_one_prefactor(self):
        assert ExactAmplitude(1, Fraction(1, 128)).sq() == Fraction(1, 128)

    def test_zero(self):
        assert AMP_ZERO.sq() == 0


def test_no_underflow_long_product():
    product = AMP_ONE
    for _ in range(200):
        product = product * Y
    assert product.sq().numerator == 1
    assert product.sq().denominator == 3**200


def test_float_accessor():
    assert float(ExactAmplitude(1, Fraction(1, 4))) == 0.5
    assert float(AMP_ZERO) == 0.0
    assert float(ExactAmplitude(-1, Fraction(1, 4))) == -0.5
    tiny = ExactAmplitude(1, Fraction(1, 3**200))
    assert abs(float(tiny) / 3.0**-100 - 1) < 1e-12
    tinier = ExactAmplitude(1, Fraction(1, 2**2000))
    assert float(tinier) > 0


def _fraction_float_reference(value):
    n, d = abs(value.numerator), value.denominator
    e = n.bit_length() - d.bit_length()
    scaled = Fraction(n, d << e) if e >= 0 else Fraction(n << -e, d)
    result = math.ldexp(float(scaled), e)
    return -result if value < 0 else result


def _amplitude_float_reference(sign, mag_sq):
    n, d = mag_sq.numerator, mag_sq.denominator
    e = n.bit_length() - d.bit_length()
    e -= e % 2
    scaled = Fraction(n, d << e) if e >= 0 else Fraction(n << -e, d)
    return sign * math.ldexp(math.sqrt(float(scaled)), e // 2)


def _outcome(f, *args):
    """The value of f(*args), or the exception type it raises."""
    try:
        return f(*args)
    except OverflowError as exc:
        return type(exc)


# 2**-2200 .. 2**1080 covers [2**-2148, 2**-1074), where the root is a
# normal double but the magnitude itself underflows, and magnitudes of
# 2**1024 and above, which have no double and must overflow as before
@example(1, 1, -2100, -1)
@example(3**40, 2**63 + 1, -1074, 1)
@example(151_115_718_444_629_920_579_180, 9_007_198_717_869_790, 1000, -1)
@given(
    st.integers(min_value=1, max_value=2**80),
    st.integers(min_value=1, max_value=2**80),
    st.integers(min_value=-2200, max_value=1000),
    st.sampled_from([-1, 1]),
)
def test_float_matches_reference(num, den, shift, sign):
    mag = Fraction(num, den) * Fraction(2) ** shift
    assert _outcome(fraction_float, sign * mag) == _outcome(
        _fraction_float_reference, sign * mag
    )
    assert float(ExactAmplitude(sign, mag)) == _amplitude_float_reference(sign, mag)
    assert fraction_float(mag, root=True) == _amplitude_float_reference(1, mag)


@given(amps(), amps())
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(amps(), amps(), amps())
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(amps(), amps())
def test_sq_multiplicative(a, b):
    assert (a * b).sq() == a.sq() * b.sq()


@given(amps())
def test_round_trip(a):
    assert ExactAmplitude(a.sign, a.sq()) == a
