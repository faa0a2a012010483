from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzdisc import (
    PLUS_MINUS,
    Basis,
    ChainState,
    ExactAmplitude,
    MeasurementError,
    bob_distribution,
    ghz_state,
    measure_next,
)

X_SQ = Fraction(2, 3)
Y_SQ = Fraction(1, 3)
NU = Basis(ExactAmplitude.sqrt(X_SQ), ExactAmplitude.sqrt(Y_SQ))


def bases():
    ts = st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64), max_denominator=64)
    signs = st.sampled_from([-1, 1])
    return st.builds(
        lambda t, s0, s1: Basis(ExactAmplitude(s0, t), ExactAmplitude(s1, 1 - t)),
        ts, signs, signs,
    )


def states(min_remaining=2):
    ts = st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64), max_denominator=64)
    scale = st.fractions(min_value=Fraction(1, 16), max_value=1, max_denominator=16)
    signs = st.sampled_from([-1, 1])
    return st.builds(
        lambda n, t, c, s0, s1: ChainState(
            n, ExactAmplitude(s0, t * c), ExactAmplitude(s1, (1 - t) * c)
        ),
        st.integers(min_value=min_remaining, max_value=8), ts, scale, signs, signs,
    )


class TestGhzState:
    @pytest.mark.parametrize("n", [2, 7, 8])
    def test_amplitudes(self, n):
        state = ghz_state(n)
        assert state.remaining == n
        assert state.amp0 == state.amp1 == ExactAmplitude.sqrt(Fraction(1, 2))

    def test_too_small(self):
        with pytest.raises(MeasurementError):
            ghz_state(1)


class TestBasis:
    def test_orthonormality_enforced(self):
        with pytest.raises(MeasurementError):
            Basis(ExactAmplitude.sqrt(Fraction(1, 2)), ExactAmplitude.sqrt(Fraction(1, 3)))


class TestChainState:
    def test_zero_norm_rejected(self):
        from ghzdisc import AMP_ZERO

        with pytest.raises(MeasurementError):
            ChainState(1, AMP_ZERO, AMP_ZERO)

    def test_norm_above_one_rejected(self):
        one = ExactAmplitude.sqrt(1)
        with pytest.raises(MeasurementError):
            ChainState(2, one, one)


class TestMeasureNext:
    def test_first_stage_plus_branch(self):
        parent = ghz_state(8)
        child, _ = measure_next(parent, NU)
        assert child.remaining == 7
        assert child.amp0 == ExactAmplitude.sqrt(X_SQ / 2)
        assert child.amp1 == ExactAmplitude.sqrt(Y_SQ / 2)
        assert child.norm_sq() / parent.norm_sq() == Fraction(1, 2)

    def test_first_stage_perp_branch(self):
        parent = ghz_state(8)
        _, child = measure_next(parent, NU)
        assert child.amp0 == ExactAmplitude.sqrt(Y_SQ / 2)
        assert child.amp1 == ExactAmplitude(-1, X_SQ / 2)
        assert child.norm_sq() / parent.norm_sq() == Fraction(1, 2)

    def test_second_stage_ladder_branch(self):
        # parent: (y|0...> - x|1...>)/sqrt(2); basis (x/y, y/x)/F_2
        parent = ChainState(
            7, ExactAmplitude.sqrt(Y_SQ / 2), ExactAmplitude(-1, X_SQ / 2)
        )
        f2_sq = X_SQ / Y_SQ + Y_SQ / X_SQ
        basis = Basis(
            ExactAmplitude.sqrt(X_SQ / Y_SQ / f2_sq),
            ExactAmplitude.sqrt(Y_SQ / X_SQ / f2_sq),
        )
        child, _ = measure_next(parent, basis)
        assert child.amp0 == ExactAmplitude.sqrt(X_SQ / (2 * f2_sq))
        assert child.amp1 == ExactAmplitude(-1, Y_SQ / (2 * f2_sq))
        assert child.norm_sq() / parent.norm_sq() == Fraction(2, 5)

    def test_receiver_qubit_protected(self):
        single = ChainState(1, ExactAmplitude.sqrt(Fraction(1, 2)), ExactAmplitude.sqrt(Fraction(1, 2)))
        with pytest.raises(MeasurementError):
            measure_next(single, PLUS_MINUS)


class TestBobDistribution:
    def test_uniform_leaf(self):
        state = ChainState(
            1, ExactAmplitude.sqrt(Fraction(1, 256)), ExactAmplitude.sqrt(Fraction(1, 256))
        )
        assert bob_distribution(state) == (Fraction(1, 2), Fraction(1, 2))

    def test_exceptional_leaf_bias(self):
        denom = X_SQ**127 + Y_SQ**127
        state = ChainState(
            1,
            ExactAmplitude.sqrt(Y_SQ**127 / denom),
            ExactAmplitude(-1, X_SQ**127 / denom),
        )
        p0, p1 = bob_distribution(state)
        assert p1 / p0 == (X_SQ / Y_SQ) ** 127 == 2**127

    def test_deterministic_leaf(self):
        from ghzdisc import AMP_ZERO

        state = ChainState(1, ExactAmplitude.sqrt(Fraction(1, 2)), AMP_ZERO)
        assert bob_distribution(state) == (1, 0)

    def test_wrong_remaining(self):
        with pytest.raises(MeasurementError):
            bob_distribution(ghz_state(2))


@given(states(), bases())
def test_branch_probabilities_complete(state, basis):
    first, second = measure_next(state, basis)
    assert first.norm_sq() / state.norm_sq() + second.norm_sq() / state.norm_sq() == 1


@given(states(), bases())
def test_norm_bookkeeping(state, basis):
    # each branch's squared norm is the parent's times the Born probability
    # of its basis vector: |amp0 c0|^2 + |amp1 c1|^2 for the first branch,
    # |amp0 c1|^2 + |amp1 c0|^2 for the second
    first, second = measure_next(state, basis)
    a0, a1 = state.amp0.sq(), state.amp1.sq()
    c0, c1 = basis.c0.sq(), basis.c1.sq()
    for branch, weight in ((first, a0 * c0 + a1 * c1), (second, a0 * c1 + a1 * c0)):
        assert branch.norm_sq() == weight


@given(states(), st.one_of(st.just(PLUS_MINUS), bases()))
def test_hadamard_split_preserves_norm(state, basis):
    # the Hadamard basis and arbitrary exact bases alike: the branches'
    # squared norms (the outcome weights) sum exactly to the parent's
    first, second = measure_next(state, basis)
    assert first.remaining == second.remaining == state.remaining - 1
    assert first.norm_sq() + second.norm_sq() == state.norm_sq()
