"""The GHZ-span model against the full 2^n state vector, in floats.

Every other reference holds a state as two signed squares in the span of
|0...0> and |1...1>.  Here the n-qubit state is a plain list of 2^n real
amplitudes, qubit 0 the most significant bit of the index.  A sender
qubit is measured by contracting it with the outcome's basis vector
(c0, c1) or (c1, -c0), each component the root sign * sqrt(|c|) of the
plan's signed square: the projector on that vector, then the partial
trace over the measured qubit.  A leaf's probability is its remaining
vector's squared norm (the Born rule), and that vector is the
receiver's state.  Floats and no numpy: 2^10 entries need neither.
"""

import math
from fractions import Fraction

import pytest

from ghzdisc import PlanParams, cpm_plan, random_plan, spm_plan
from ghzdisc.plans import MeasurementPlan, enumerate_branches


def _root(signed_square: Fraction) -> float:
    """sign * sqrt(|q|), the amplitude whose signed square is q."""
    return math.copysign(math.sqrt(abs(signed_square.numerator) / signed_square.denominator), signed_square)


def _leaf_vectors(plan, n):
    """(outcomes, receiver vector) per leaf, in lexicographic order."""
    ghz = [0.0] * 2**n
    ghz[0] = ghz[-1] = math.sqrt(0.5)
    leaves, stack = [], [("", ghz)]
    while stack:
        history, psi = stack.pop()
        if len(history) == n - 1:
            leaves.append((history, psi))
            continue
        n0, n1, q = plan.step(history)
        c0, c1 = _root(Fraction(n0, q)), _root(Fraction(n1, q))
        half = len(psi) // 2
        children = [[b0 * x + b1 * y for x, y in zip(psi[:half], psi[half:])] for b0, b1 in ((c0, c1), (c1, -c0))]
        stack += [(history + "1", children[1]), (history + "0", children[0])]
    return leaves


_PLANS = {
    "cpm": cpm_plan,
    "spm": spm_plan,
    # the spine plan's rule as a step plan: its leaves come from the node-by-node walk
    "spm-steps": lambda params: MeasurementPlan(params.m, spm_plan(params).step),
    "random": lambda params: random_plan(params, params.n),
}


@pytest.mark.parametrize("kind", list(_PLANS))
@pytest.mark.parametrize("x_sq", [Fraction(2, 3), Fraction(3, 7), Fraction(1, 2)])
@pytest.mark.parametrize("n", range(3, 11))
def test_leaves_match_state_vector(n, x_sq, kind):
    params = PlanParams(n, x_sq)
    plan = _PLANS[kind](params)
    records = enumerate_branches(plan, params)
    leaves = _leaf_vectors(plan, n)
    assert [r.head for r in records] == [outcomes for outcomes, _ in leaves]
    rho = [[0.0, 0.0], [0.0, 0.0]]  # the receiver's density matrix, summed over every leaf
    for r, (outcomes, psi) in zip(records, leaves):
        probability = psi[0] ** 2 + psi[1] ** 2
        exact = float(r.probability)
        assert abs(probability - exact) <= 1e-12 * exact, outcomes
        state = r.state
        for amplitude, signed_square in zip(psi, (state.amp0, state.amp1)):
            assert abs(amplitude - _root(signed_square)) <= 1e-12 * math.sqrt(exact), outcomes
        for i in (0, 1):
            for j in (0, 1):
                rho[i][j] += psi[i] * psi[j]
    for i in (0, 1):
        for j in (0, 1):
            assert abs(rho[i][j] - (0.5 if i == j else 0.0)) <= 1e-12, (i, j, rho)
