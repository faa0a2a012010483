import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ghzdisc import (
    Basis,
    ChainState,
    LeafSampler,
    MeasurementError,
    PlanError,
    PlanParams,
    ProtocolConfig,
    bob_distribution,
    cpm_plan,
    ghz_state,
    measure_next,
    no_signaling_suite,
    random_plan,
    spm_plan,
)
from ghzdisc.amplitude import (
    AmplitudeError,
    ExactAmplitude,
    amplitude_json,
    decimal_str,
    fraction_json,
    fraction_str,
)
from ghzdisc.plans import LeafClass, OutcomeClass
from ghzdisc.protocol import check_seed, w_terms

X = ExactAmplitude(1, Fraction(2, 3))
Y = ExactAmplitude(1, Fraction(1, 3))


def amps(max_den=50):
    mags = st.fractions(min_value=0, max_value=4, max_denominator=max_den)
    signs = st.sampled_from([-1, 1])

    def build(sign, mag):
        return ExactAmplitude(0, 0) if mag == 0 else ExactAmplitude(sign, mag)

    return st.builds(build, signs, mags)


class TestFromSq:
    """Construction from a sign and a squared magnitude."""

    def test_x(self):
        assert X.sign == 1
        assert X.mag_sq == Fraction(2, 3)

    def test_zero(self):
        zero = ExactAmplitude(0, 0)
        assert zero == ExactAmplitude(0, Fraction(0))
        assert type(zero.mag_sq) is Fraction

    def test_ghz_coefficient(self):
        assert ExactAmplitude.sqrt(Fraction(1, 2)) == ExactAmplitude(1, Fraction(1, 2))

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
        assert X * ExactAmplitude(0, 0) == ExactAmplitude(0, 0)

    def test_sqrt_half_squared(self):
        half = ExactAmplitude(1, Fraction(1, 2))
        assert half * half == ExactAmplitude(1, Fraction(1, 4))

    def test_sign_product(self):
        assert (-X) * Y == ExactAmplitude(-1, Fraction(2, 9))
        assert (-X) * (-Y) == ExactAmplitude(1, Fraction(2, 9))


class TestSq:
    def test_x(self):
        assert X.sq() == Fraction(2, 3)

    def test_level_one_prefactor(self):
        assert ExactAmplitude(1, Fraction(1, 128)).sq() == Fraction(1, 128)

    def test_zero(self):
        assert ExactAmplitude(0, 0).sq() == 0


def test_no_underflow_long_product():
    product = ExactAmplitude(1, 1)
    for _ in range(200):
        product = product * Y
    assert product.sq().numerator == 1
    assert product.sq().denominator == 3**200


def test_float_accessor():
    # the amplitude sign * sqrt(q) is held as the signed rational sign * q
    assert amplitude_json(Fraction(1, 4)) == {"sign": 1, "num": "1", "den": "4", "float": 0.5}
    assert amplitude_json(Fraction(0)) == {"sign": 0, "num": "0", "den": "1", "float": 0.0}
    assert amplitude_json(Fraction(-1, 4)) == {"sign": -1, "num": "1", "den": "4", "float": -0.5}
    tiny = amplitude_json(Fraction(1, 3**200))["float"]
    assert abs(tiny / 3.0**-100 - 1) < 1e-12
    assert amplitude_json(Fraction(1, 2**2000))["float"] > 0


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
# 2**1024 and above, which have no double and must overflow as before;
# 660033/919077 * 2**-1023 is a subnormal that a 53-bit quotient scaled
# by `ldexp` would round twice, one unit in the last place high
@example(1, 1, -2100, -1)
@example(3**40, 2**63 + 1, -1074, 1)
@example(151_115_718_444_629_920_579_180, 9_007_198_717_869_790, 1000, -1)
@example(660033, 919077, -1023, 1)
@given(
    st.integers(min_value=1, max_value=2**80),
    st.integers(min_value=1, max_value=2**80),
    st.integers(min_value=-2200, max_value=1000),
    st.sampled_from([-1, 1]),
)
def test_float_matches_reference(num, den, shift, sign):
    mag = Fraction(num, den) * Fraction(2) ** shift
    value = sign * mag
    # a rational's float is the correctly rounded quotient
    assert _outcome(lambda v: fraction_json(v)["float"], value) == _outcome(
        lambda v: v.numerator / v.denominator, value
    )
    assert amplitude_json(value)["float"] == _amplitude_float_reference(sign, mag)
    assert amplitude_json(mag)["float"] == _amplitude_float_reference(1, mag)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_json_keeps_digits_under_lowest_limit():
    # 2**2127 has 641 decimal digits, one more than the lowest limit allows
    value = -Fraction(1, 2**2127)
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        rendered = fraction_json(value), amplitude_json(value)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)
    assert [r["den"] for r in rendered] == [decimal_str(2**2127)] * 2
    assert rendered[0]["num"] == "-1" and rendered[1]["num"] == "1"


def _at_limit(limit: int, render, value) -> str:
    """render(value) under the int-to-str digit limit `limit` (0: none), restored after."""
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(limit)
        return render(value)
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
@example(0)
@example(1)
@example(-1)
@example(2**2000 - 1)
@example(2**2000)
@example(-(2**2000))
@given(st.integers(0, 40_000).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)))
def test_decimal_str_matches_str(n):
    # rendered under the lowest limit; the reference under none
    assert _at_limit(640, decimal_str, n) == _at_limit(0, str, n)


# 10**602 is below 2**2000 and 10**603 above it; 4300 digits is the default limit
@pytest.mark.parametrize("k", [602, 603, 4299, 4300, 4301, 10_000])
def test_decimal_str_at_powers_of_ten(k):
    assert decimal_str(10**k - 1) == "9" * k
    assert decimal_str(10**k) == "1" + "0" * k
    assert decimal_str(-(10**k)) == "-1" + "0" * k


def test_decimal_str_of_a_2_to_the_20_bit_int():
    # 123456789 repeated 35,074 times, built without str
    k = 35_074
    n = 123456789 * (10 ** (9 * k) - 1) // (10**9 - 1)
    assert n.bit_length() > 2**20
    assert decimal_str(-n) == "-" + "123456789" * k


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
@example(Fraction(-7, 3))
@example(Fraction(-5))
@example(Fraction(0))
@example(Fraction(-1, 3**1300))  # a 621-digit den: the split, with digits a repr still prints
@given(st.fractions())
def test_fraction_str_matches_str(q):
    # a Fraction prints num/den, or num alone when den is 1; a tuple prints each one's repr
    assert fraction_str(q) == _at_limit(0, str, q)
    assert fraction_str((q, -q)) == _at_limit(0, str, (q, -q))


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


def _reference(sigma):
    """The sign/magnitude form of the signed rational sigma."""
    return ExactAmplitude((sigma > 0) - (sigma < 0), abs(sigma))


def _reference_json(amp):
    """JSON of a sign/magnitude amplitude, as `amplitude_json` must give it."""
    return {
        "sign": amp.sign,
        "num": str(amp.mag_sq.numerator),
        "den": str(amp.mag_sq.denominator),
        "float": _amplitude_float_reference(amp.sign, amp.mag_sq),
    }


@pytest.mark.parametrize("n", range(3, 11))
def test_signed_squares_match_reference_walk(n):
    # every path of the tree, walked twice: through `measure_next` on signed
    # rationals, and in sign/magnitude arithmetic from the GHZ amplitudes
    params = PlanParams(n, Fraction(2, 3))
    half = ExactAmplitude.sqrt(Fraction(1, 2))

    def walk(plan, history, state, a0, a1):
        assert (_reference(state.amp0), _reference(state.amp1)) == (a0, a1)
        if state.remaining == 1:
            for sigma, amp in ((state.amp0, a0), (state.amp1, a1)):
                assert amplitude_json(sigma) == _reference_json(amp)
            return
        basis = plan.basis_for(history)
        c0, c1 = _reference(basis.c0), _reference(basis.c1)
        first, second = measure_next(state, basis)
        walk(plan, history + "0", first, a0 * c0, a1 * c1)
        walk(plan, history + "1", second, a0 * c1, -(a1 * c0))

    for plan in (cpm_plan(params), spm_plan(params), random_plan(params, n)):
        walk(plan, "", ghz_state(n), half, half)


def _weights_sum_to(total):
    sampler = LeafSampler(spm_plan(PlanParams(4)), PlanParams(4))
    sampler.classes = [OutcomeClass("", 0, 1, total.numerator, 0, total.denominator, 1, (LeafClass.OTHER,))]
    return sampler.table


_BIG = 10**5000  # 5001 digits, past the default int-to-str limit of 4300
_BIG_TEXT = "1" + "0" * 5000


# each message keeps its own text, every digit, where str would raise past the limit
@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: PlanParams(8, _BIG), PlanError, f"x_sq must be a Fraction, got {_BIG_TEXT}"),
        (lambda: Basis(Fraction(_BIG, 3), Fraction(1, 3)), MeasurementError,
         f"basis is not normalized: c0^2 + c1^2 = {_BIG_TEXT[:-1]}1/3"),
        (lambda: ChainState(1, Fraction(_BIG + 1, _BIG), Fraction(0)), MeasurementError,
         f"squared norm must be in (0, 1], got {_BIG_TEXT[:-1]}1/{_BIG_TEXT}"),
        (lambda: ExactAmplitude(-1, Fraction(-1, _BIG)), AmplitudeError,
         f"squared magnitude must be nonnegative, got -1/{_BIG_TEXT}"),
        (lambda: _weights_sum_to(Fraction(_BIG + 1, _BIG)), MeasurementError,
         f"the rows' weights sum to {_BIG_TEXT[:-1]}1/{_BIG_TEXT}, not 1"),
        (lambda: PlanParams(-_BIG), PlanError,
         f"the cascade needs at least 2 sender qubits (n >= 3), got n=-{_BIG_TEXT}"),
        (lambda: check_seed(_BIG), ValueError,
         f"seed must be an unsigned 64-bit integer, got seed {_BIG_TEXT}, not in [0, 2**64)"),
        (lambda: ProtocolConfig(seed=-_BIG), ValueError,
         f"seed must be an unsigned 64-bit integer, got seed -{_BIG_TEXT}, not in [0, 2**64)"),
        (lambda: w_terms(_BIG, PlanParams(8), _BIG - 1), ValueError,
         f"count must be in 0..{'9' * 5000}, got {_BIG_TEXT}"),
        (lambda: ghz_state(-_BIG), MeasurementError, f"a shared chain needs at least 2 qubits, got -{_BIG_TEXT}"),
        (lambda: ChainState(-_BIG, Fraction(1, 2), Fraction(1, 2)), MeasurementError,
         f"need at least one qubit, got -{_BIG_TEXT}"),
        (lambda: bob_distribution(ChainState(_BIG, Fraction(1, 2), Fraction(1, 2))), MeasurementError,
         f"expected a single remaining qubit, got {_BIG_TEXT}"),
        (lambda: no_signaling_suite(-_BIG, 1), ValueError,
         f"random plans per chain length must be nonnegative, got -{_BIG_TEXT}"),
    ],
    ids=["check_fractions", "basis-norm", "state-norm", "amplitude-magnitude", "rows-total", "chain-length",
         "seed", "config-seed", "w-count", "ghz-length", "state-remaining", "receiver-remaining", "plans-per-n"],
)
def test_error_messages_print_every_digit(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message
