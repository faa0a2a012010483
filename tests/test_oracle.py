import hashlib
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from ghzdisc import oracle
from ghzdisc.plans import MeasurementPlan
from ghzdisc import (
    Basis,
    LeafSampler,
    PlanParams,
    bob_marginal,
    checkpoint_report,
    cpm_plan,
    no_signaling_suite,
    random_plan,
    spm_plan,
)

P8 = PlanParams(8)
HALF = (Fraction(1, 2), Fraction(1, 2))


class TestBobMarginal:
    def test_uniform_plan(self):
        assert bob_marginal(cpm_plan(P8), P8) == HALF

    def test_cascade_plan(self):
        assert bob_marginal(spm_plan(P8), P8) == HALF

    @pytest.mark.parametrize("n", range(3, 9))
    def test_random_plans(self, n):
        params = PlanParams(n)
        for seed in range(5):
            assert bob_marginal(random_plan(params, seed), params) == HALF

    def test_nondegenerate_coefficient(self):
        params = PlanParams(6, Fraction(9, 10))
        assert bob_marginal(spm_plan(params), params) == HALF

    def test_classifies_nothing(self, monkeypatch):
        # the marginal reads only the receiver's weights
        monkeypatch.setattr("ghzdisc.plans.classify", lambda *args: pytest.fail("bob_marginal classified a leaf"))
        params = PlanParams(6)
        for plan in (cpm_plan(params), spm_plan(params), random_plan(params, 3)):
            assert bob_marginal(plan, params) == HALF

    def test_sums_each_bit_into_its_own_marginal(self, monkeypatch):
        # every plan's marginal is (1/2, 1/2), so hand-made nodes with uneven bits
        # stand in: a run of equal dens, as in a random plan; a den nested by its
        # q, as along a spine; and a den that q does not nest, summed at the lcm
        nodes = [("0", 0, 1, -2, 8, 2), ("1", 0, -3, 1, 8, 2), ("2", 0, 5, 7, 24, 3), ("3", 0, 1, -2, 10, 7)]
        monkeypatch.setattr(oracle, "_walk_numerators", lambda plan, params: iter(nodes))
        p0 = Fraction(1 + 3, 8) + Fraction(5, 24) + Fraction(1, 10)
        p1 = Fraction(2 + 1, 8) + Fraction(7, 24) + Fraction(2, 10)
        assert bob_marginal(cpm_plan(P8), P8) == (p0, p1) == (Fraction(97, 120), Fraction(13, 15))

    def test_random_walk_builds_no_basis(self, monkeypatch):
        # a random plan's walk reads its integer steps straight from the hash
        params = PlanParams(6)
        plan = random_plan(params, 3)
        monkeypatch.setattr(Basis, "__init__", lambda self, *fields: pytest.fail("the walk built a Basis"))
        assert bob_marginal(plan, params) == HALF

    def test_spine_marginal_builds_no_records(self):
        # 2^17 leaves; one record each would take tens of MiB
        params = PlanParams(18)
        tracemalloc.start()
        try:
            assert bob_marginal(spm_plan(params), params) == HALF
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


_X_SQ = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=40)


# two integer sums of the same weights: the sampler's over its rows, per class
# and bit, and the walker's per distinct denominator, by Horner's rule on a spine
@settings(max_examples=30, deadline=None)
@given(_X_SQ, st.integers(min_value=3, max_value=14), st.sampled_from([cpm_plan, spm_plan]))
@example(Fraction(1, 2), 12, spm_plan)
@example(Fraction(2, 3), 14, spm_plan)
@example(Fraction(3, 7), 14, cpm_plan)
def test_sampler_marginal_matches_bob_marginal(x_sq, n, plan_for):
    params = PlanParams(n, x_sq)
    plan = plan_for(params)
    assert LeafSampler(plan, params).marginal == bob_marginal(plan, params)


@settings(max_examples=30, deadline=None)
@given(_X_SQ, st.integers(min_value=3, max_value=7), st.integers(min_value=0, max_value=2**64 - 1))
def test_sampler_marginal_matches_bob_marginal_random_plans(x_sq, n, seed):
    params = PlanParams(n, x_sq)
    plan = random_plan(params, seed)
    assert LeafSampler(plan, params).marginal == bob_marginal(plan, params)


# Horner's rule along a spine, and one common denominator for a step plan,
# against one `Fraction` per distinct denominator, added
@pytest.mark.parametrize("plan_for", [
    cpm_plan,
    spm_plan,
    lambda params: MeasurementPlan(params.m, spm_plan(params).step),
    lambda params: random_plan(params, params.n),
], ids=["cpm", "spm", "spm-steps", "random"])
@pytest.mark.parametrize("x_sq", [Fraction(2, 3), Fraction(1, 2), Fraction(3, 7), Fraction(9, 10), Fraction(1, 20)])
def test_bob_marginal_matches_per_denominator_reference(plan_for, x_sq):
    for n in (3, 4, 7, 10):
        params = PlanParams(n, x_sq)
        plan = plan_for(params)
        assert bob_marginal(plan, params) == reference.bob_marginal(plan, params) == HALF


# at x^2 = 1/2 the all-perp leaf, at level m + 1, is classified mu+ or mu-
@pytest.mark.parametrize("n", range(3, 10))
def test_checkpoint_passes_at_symmetric_coefficient(n):
    checks = checkpoint_report(PlanParams(n, Fraction(1, 2)))
    assert [c["check_name"] for c in checks if c["status"] == "FAIL"] == []


class TestRandomPlan:
    def test_bases_orthonormal_and_deterministic(self):
        plan = random_plan(P8, 17)
        for history in ("", "0", "10", "111", "0101010"[:6]):
            basis = plan.basis_for(history)
            assert abs(basis.c0) + abs(basis.c1) == 1
            assert basis == random_plan(P8, 17).basis_for(history)

    def test_bases_pinned(self):
        # every marginal is (1/2, 1/2), so verify's output cannot see a changed basis
        plan = random_plan(P8, 17)
        histories = [format(i, f"0{k}b") if k else "" for k in range(P8.m) for i in range(2**k)]
        text = "".join(repr(plan.basis_for(h)) for h in histories)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "df042a87c14c0e24db1e3e4c8c529a3f0995d7c44c10481adacc0badda28ecf6"
        )

    @pytest.mark.parametrize("n", range(3, 9))
    def test_steps_match_bases(self, n):
        # the walker's step, reduced, is the plan's basis at every history
        params = PlanParams(n)
        histories = [format(i, f"0{k}b") if k else "" for k in range(params.m) for i in range(2**k)]
        for seed in (0, 5, 2**64 - 1):
            plan = random_plan(params, seed)
            for history in histories:
                n0, n1, q = plan.step(history)
                assert q == 2**64 and n0 and n1 and abs(n0) + abs(n1) == q
                basis = plan.basis_for(history)
                assert (Fraction(n0, q), Fraction(n1, q)) == (basis.c0, basis.c1)

    def test_seeds_differ(self):
        assert random_plan(P8, 1).basis_for("") != random_plan(P8, 2).basis_for("")


class TestCheckpointReport:
    def test_all_pass(self):
        checks = checkpoint_report(P8)
        failing = [c for c in checks if c["status"] == "FAIL"]
        assert not failing, failing

    def test_includes_divergence_note(self):
        statuses = {c["check_name"]: c["status"] for c in checkpoint_report(P8)}
        assert statuses["claimed_outcome_skew"] == "INFO"

    def test_json_shape(self):
        entry = checkpoint_report(P8)[0]
        assert set(entry) == {
            "check_name", "computed_value", "expected_value", "tolerance", "status",
        }

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
    def test_deep_tree_under_default_digit_limit(self):
        # T^2 at n=16 has more than 4300 decimal digits: the report prints every
        # one under the limit and leaves the limit as it was, with no help from the CLI
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            checks = checkpoint_report(PlanParams(16))
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)
        assert [c["check_name"] for c in checks if c["status"] == "FAIL"] == []

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
    def test_failing_exact_check_prints_every_digit(self):
        # a marginal pair as `str` writes it, with a 4772-digit den, under the default limit
        computed = (Fraction(1, 3**10000), Fraction(1, 2))
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            check = oracle._exact("x", computed, oracle._HALVES)
            sys.set_int_max_str_digits(0)
            text = str(computed)
        finally:
            sys.set_int_max_str_digits(saved)
        assert check == {
            "check_name": "x",
            "computed_value": text,
            "expected_value": "(Fraction(1, 2), Fraction(1, 2))",
            "tolerance": "exact",
            "status": "FAIL",
        }

    def test_other_instance_subset(self):
        checks = checkpoint_report(PlanParams(6))
        names = {c["check_name"] for c in checks}
        assert "t5_sq_telescoping" in names
        assert "w_1" not in names  # printed targets only apply to the default instance
        assert all(c["status"] != "FAIL" for c in checks)


def test_random_plan_seeds_distinct(monkeypatch):
    plans = []  # in suite order: 101 plans at n=3, then 101 at n=4, ..., then 101 at n=8

    def recording(params, seed):
        plans.append(random_plan(params, seed))
        return plans[-1]

    monkeypatch.setattr(oracle, "random_plan", recording)
    # only the seeds are under test here: no plan is walked
    monkeypatch.setattr(oracle, "bob_marginal", lambda plan, params: HALF)
    no_signaling_suite(plans_per_n=101, seed=0)
    assert len({plan.name for plan in plans}) == len(plans) == 101 * 6
    # plan 100 at n=3 and plan 0 at n=4 once shared a seed, and so every basis
    assert plans[100].basis_for("") != plans[101].basis_for("")


def test_no_signaling_suite_passes():
    checks = no_signaling_suite(plans_per_n=2, seed=1)
    assert all(c["status"] != "FAIL" for c in checks)
    assert len(checks) == 6 * 4
