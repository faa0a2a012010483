from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzdisc import (
    Basis,
    ChainState,
    MeasurementError,
    PlanParams,
    bob_distribution,
    cpm_plan,
    measure_next,
    random_plan,
    spm_plan,
)
from reference import PLUS_MINUS, ghz_state

X_SQ = Fraction(2, 3)
Y_SQ = Fraction(1, 3)
# an amplitude sign * sqrt(q) is held as the signed rational sign * q
NU = Basis(X_SQ, Y_SQ)


def bases():
    ts = st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64), max_denominator=64)
    signs = st.sampled_from([-1, 1])
    return st.builds(
        lambda t, s0, s1: Basis(s0 * t, s1 * (1 - t)),
        ts, signs, signs,
    )


def states(min_remaining=2):
    ts = st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64), max_denominator=64)
    scale = st.fractions(min_value=Fraction(1, 16), max_value=1, max_denominator=16)
    signs = st.sampled_from([-1, 1])
    return st.builds(
        lambda n, t, c, s0, s1: ChainState(n, s0 * t * c, s1 * (1 - t) * c),
        st.integers(min_value=min_remaining, max_value=8), ts, scale, signs, signs,
    )


class TestGhzState:
    @pytest.mark.parametrize("n", [2, 7, 8])
    def test_amplitudes(self, n):
        state = ghz_state(n)
        assert state.remaining == n
        assert state.amp0 == state.amp1 == Fraction(1, 2)

    def test_too_small(self):
        with pytest.raises(MeasurementError):
            ghz_state(1)


class TestBasis:
    def test_orthonormality_enforced(self):
        with pytest.raises(MeasurementError):
            Basis(Fraction(1, 2), Fraction(1, 3))


class TestChainState:
    def test_zero_norm_rejected(self):
        with pytest.raises(MeasurementError):
            ChainState(1, Fraction(0), Fraction(0))

    def test_norm_above_one_rejected(self):
        with pytest.raises(MeasurementError):
            ChainState(2, Fraction(1), Fraction(1))
        with pytest.raises(MeasurementError):
            ChainState(2, Fraction(-1), Fraction(-1))


class TestExactFields:
    """An exact field holds the Fraction it is given; anything else is rejected by name."""

    def test_fraction_kept(self):
        half, third = Fraction(1, 2), Fraction(-1, 3)
        state = ChainState(2, half, third)
        assert state.amp0 is half and state.amp1 is third

    # a float would otherwise enter as its binary value, an int or str as whatever Fraction makes of it
    @pytest.mark.parametrize("make, field", [
        pytest.param(lambda: Basis(0.5, Fraction(1, 2)), "c0", id="basis-c0"),
        pytest.param(lambda: Basis(Fraction(1, 2), -0.5), "c1", id="basis-c1"),
        pytest.param(lambda: ChainState(1, 1, Fraction(0)), "amp0", id="state-amp0"),
        pytest.param(lambda: ChainState(1, Fraction(1), "0"), "amp1", id="state-amp1"),
    ])
    def test_non_fraction_rejected(self, make, field):
        with pytest.raises(MeasurementError, match=f"^{field} must be a Fraction, got "):
            make()


class TestMeasureNext:
    def test_first_stage_plus_branch(self):
        parent = ghz_state(8)
        child, _ = measure_next(parent, NU)
        assert child.remaining == 7
        assert child.amp0 == X_SQ / 2
        assert child.amp1 == Y_SQ / 2
        assert child.norm_sq() / parent.norm_sq() == Fraction(1, 2)

    def test_first_stage_perp_branch(self):
        parent = ghz_state(8)
        _, child = measure_next(parent, NU)
        assert child.amp0 == Y_SQ / 2
        assert child.amp1 == -X_SQ / 2
        assert child.norm_sq() / parent.norm_sq() == Fraction(1, 2)

    def test_second_stage_ladder_branch(self):
        # parent: (y|0...> - x|1...>)/sqrt(2); basis (x/y, y/x)/F_2
        parent = ChainState(7, Y_SQ / 2, -X_SQ / 2)
        f2_sq = X_SQ / Y_SQ + Y_SQ / X_SQ
        basis = Basis(X_SQ / Y_SQ / f2_sq, Y_SQ / X_SQ / f2_sq)
        child, _ = measure_next(parent, basis)
        assert child.amp0 == X_SQ / (2 * f2_sq)
        assert child.amp1 == -Y_SQ / (2 * f2_sq)
        assert child.norm_sq() / parent.norm_sq() == Fraction(2, 5)

    def test_receiver_qubit_protected(self):
        single = ChainState(1, Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(MeasurementError):
            measure_next(single, PLUS_MINUS)


class TestBobDistribution:
    def test_uniform_leaf(self):
        state = ChainState(1, Fraction(1, 256), Fraction(1, 256))
        assert bob_distribution(state) == (Fraction(1, 2), Fraction(1, 2))

    def test_exceptional_leaf_bias(self):
        denom = X_SQ**127 + Y_SQ**127
        state = ChainState(1, Y_SQ**127 / denom, -X_SQ**127 / denom)
        p0, p1 = bob_distribution(state)
        assert p1 / p0 == (X_SQ / Y_SQ) ** 127 == 2**127

    def test_deterministic_leaf(self):
        state = ChainState(1, Fraction(1, 2), Fraction(0))
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
    a0, a1 = abs(state.amp0), abs(state.amp1)
    c0, c1 = abs(basis.c0), abs(basis.c1)
    for branch, weight in ((first, a0 * c0 + a1 * c1), (second, a0 * c1 + a1 * c0)):
        assert branch.norm_sq() == weight


@given(states(), st.one_of(st.just(PLUS_MINUS), bases()))
def test_hadamard_split_preserves_norm(state, basis):
    # the Hadamard basis and arbitrary exact bases alike: the branches'
    # squared norms (the outcome weights) sum exactly to the parent's
    first, second = measure_next(state, basis)
    assert first.remaining == second.remaining == state.remaining - 1
    assert first.norm_sq() + second.norm_sq() == state.norm_sq()


def _internal_nodes(plan, params):
    """(parent, first child, second child) at every internal node of a plan's tree."""
    stack = [(ghz_state(params.n), "")]
    while stack:
        state, history = stack.pop()
        if state.remaining > 1:
            children = measure_next(state, plan.basis_for(history))
            yield state, children
            stack.extend(zip(children, (history + "0", history + "1")))


@pytest.mark.parametrize("n", range(3, 9))
def test_receiver_state_kept_at_every_node(n):
    # summed over the measured qubit's outcome, the children keep the parent's
    # diagonal weights and their off-diagonal terms cancel exactly, so what the
    # rest of the chain sees never changes.  Z-basis leaf sums cannot see a
    # dropped sign in `measure_next`; the cancellation can
    params = PlanParams(n)
    nodes = 0
    for plan in (cpm_plan(params), spm_plan(params), random_plan(params, n)):
        for parent, (first, second) in _internal_nodes(plan, params):
            assert abs(first.amp0) + abs(second.amp0) == abs(parent.amp0)
            assert abs(first.amp1) + abs(second.amp1) == abs(parent.amp1)
            assert first.amp0 * first.amp1 + second.amp0 * second.amp1 == 0
            nodes += 1
    assert nodes == 3 * (2**params.m - 1)
