from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzdisc import AMP_ONE, AMP_ZERO, SQRT_HALF, AmplitudeError, ExactAmplitude

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
