import re
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzdisc import (
    PLUS_MINUS,
    Basis,
    ChainState,
    LeafClass,
    LeafSampler,
    MeasurementError,
    PlanError,
    PlanParams,
    bob_distribution,
    bob_marginal,
    classify,
    constants,
    cpm_plan,
    ghz_state,
    measure_next,
    random_plan,
    spm_plan,
)
from ghzdisc.amplitude import ExactAmplitude
from ghzdisc.cli import _census_lines
from ghzdisc.plans import CommonSums, MeasurementPlan, _walk_numerators, census, enumerate_branches, outcome_classes

P8 = PlanParams(8)
X_SQ = Fraction(2, 3)
Y_SQ = Fraction(1, 3)


def f_sq(k, x_sq=X_SQ):
    # independent recomputation of the stage normalizers
    if k == 1:
        return Fraction(1)
    r = x_sq / (1 - x_sq)
    e = 2 ** (k - 2)
    return r**e + r**-e


def t_sq(k, x_sq=X_SQ):
    product = Fraction(1)
    for j in range(1, k + 1):
        product *= f_sq(j, x_sq)
    return product


class TestParams:
    def test_too_short(self):
        with pytest.raises(PlanError):
            PlanParams(2)

    # 8.0 == 8 hashes equal, so a float n would also share `constants`' cache entry
    @pytest.mark.parametrize("n", [8.0, Fraction(8), "8"], ids=["float", "Fraction", "str"])
    def test_non_int_length(self, n):
        with pytest.raises(PlanError, match=re.escape(f"the chain length must be an int, got n={n!r}")):
            PlanParams(n)

    # a float would otherwise enter as its binary value: 0.1 is not 1/10
    @pytest.mark.parametrize("x_sq", [0.1, "2/3", 1], ids=["float", "str", "int"])
    def test_non_fraction_coefficient(self, x_sq):
        with pytest.raises(PlanError, match=re.escape(f"x_sq must be a Fraction, got {x_sq!r}")):
            PlanParams(8, x_sq)

    @pytest.mark.parametrize("x_sq", [Fraction(0), Fraction(1), Fraction(3, 2)])
    def test_bad_coefficient(self, x_sq):
        with pytest.raises(PlanError):
            PlanParams(8, x_sq)


class TestConstants:
    def test_reference_values(self):
        cascade = constants(P8)
        expected = [
            Fraction(1),
            Fraction(5, 2),
            Fraction(17, 4),
            Fraction(257, 16),
            Fraction(65537, 256),
            Fraction(2**32 + 1, 2**16),
            Fraction(2**64 + 1, 2**32),
        ]
        assert list(cascade.F_sq) == expected
        assert cascade.T_sq[-1] == t_sq(7)

    def test_telescoping_identity(self):
        r = P8.ratio
        closed = (r**64 - r**-64) / (r - 1 / r)
        assert constants(P8).T_sq[-1] == closed


@given(
    st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=40),
    st.integers(min_value=3, max_value=10),
)
def test_telescoping_identity_general(x_sq, n):
    params = PlanParams(n, x_sq)
    r = params.ratio
    if r == 1:
        return  # closed form is singular in the symmetric case
    e = 2 ** (params.m - 1)
    assert constants(params).T_sq[-1] == (r**e - r**-e) / (r - 1 / r)


class TestSpmBasis:
    def test_stage_one(self):
        basis = spm_plan(P8).basis_for("1")
        assert basis.c0 == Fraction(4, 5)
        assert basis.c1 == Fraction(1, 5)

    def test_stage_two(self):
        assert spm_plan(P8).basis_for("11").c0 == Fraction(16, 17)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_orthonormal(self, k):
        basis = spm_plan(P8).basis_for("1" * k)
        assert abs(basis.c0) + abs(basis.c1) == 1

    def test_matches_normalizer_definition(self):
        # c0^2 = r^(2^(k-1)) / F_{k+1}^2
        for k in range(1, 7):
            e = 2 ** (k - 1)
            assert spm_plan(P8).basis_for("1" * k).c0 == P8.ratio**e / f_sq(k + 1)


# the spine's integer steps against the closed form they replace, c0^2 = s/(1+s) with s = r^(2^k)
@pytest.mark.parametrize("n", range(3, 17))
def test_spine_steps_match_closed_form(n):
    for x_sq in X_GRID:
        params = PlanParams(n, x_sq)
        steps = constants(params).steps
        assert len(steps) == params.m
        for k, (n0, n1, q) in enumerate(steps):
            s = params.ratio ** 2**k
            assert n0 + n1 == q and gcd(n0, n1) == 1
            assert Fraction(n0, q) == s / (1 + s) and Fraction(n1, q) == 1 / (1 + s)


def test_marginal_builds_no_normalizer():
    constants.cache_clear()  # other tests may have derived these params' normalizers already
    for x_sq in X_GRID:
        params = PlanParams(12, x_sq)
        assert bob_marginal(spm_plan(params), params) == (Fraction(1, 2), Fraction(1, 2))
        assert "T_sq" not in vars(constants(params)) and "F_sq" not in vars(constants(params))


def test_hinted_sum_takes_the_term_den():
    # a true q hint's one product is the new common den, so the sums keep the
    # term's own den object; a wrong hint widens the sums to the lcm instead
    sums, den = CommonSums(), 3**200
    sums.add(0, 1, den)
    assert sums.den is den
    for q in (5**90, 7**80):
        den *= q
        sums.add(1, 1, den, q)
        assert sums.den is den
    sums.add(0, 1, 2**10 * 3**5, 4)
    assert sums.den == den << 10
    assert sums.value(0) == Fraction(1, 3**200) + Fraction(1, 2**10 * 3**5)
    assert sums.value(1) == Fraction(1, 3**200 * 5**90) + Fraction(1, den)


@pytest.mark.parametrize("plan_for", [cpm_plan, spm_plan, lambda p: random_plan(p, 3)], ids=["cpm", "spm", "random"])
def test_classes_keep_the_walk_den(monkeypatch, plan_for):
    # a class holds the very den object its walk yielded, not a shifted copy of it
    params, yielded = PlanParams(10, Fraction(3, 7)), []

    def recorded(*args):
        for node in _walk_numerators(*args):
            yielded.append(node)
            yield node

    monkeypatch.setattr("ghzdisc.plans._walk_numerators", recorded)
    classes = outcome_classes(plan_for(params), params)
    assert len(classes) == len(yielded)
    for c, (head, depth, *_, den, q) in zip(classes, yielded):
        assert (c.head, c.depth, c.q) == (head, depth, q) and c.den is den, head


class TestCpmPlan:
    def test_every_history_hadamard(self):
        plan = cpm_plan(P8)
        for history in ("", "0", "1", "0101", "111111"):
            assert plan.basis_for(history) == PLUS_MINUS

    def test_leaves_uniform(self):
        records = enumerate_branches(cpm_plan(P8), P8)
        assert len(records) == 128
        sixteenth_sq = Fraction(1, 256)
        for record in records:
            assert record.probability == Fraction(1, 128)
            assert abs(record.state.amp0) == sixteenth_sq
            assert abs(record.state.amp1) == sixteenth_sq


class TestSpmPlan:
    def test_initial_basis(self):
        basis = spm_plan(P8).basis_for("")
        assert basis.c0 == X_SQ
        assert basis.c1 == Y_SQ

    def test_perp_history_uses_ladder(self):
        for k in (1, 5):
            n0, n1, q = constants(P8).steps[k]
            assert spm_plan(P8).basis_for("1" * k) == Basis(Fraction(n0, q), Fraction(n1, q))

    def test_plus_switches_to_hadamard(self):
        plan = spm_plan(P8)
        for history in ("0", "10", "110", "101"):
            assert plan.basis_for(history) == PLUS_MINUS

    def test_exhausted_history_rejected(self):
        with pytest.raises(PlanError):
            spm_plan(P8).basis_for("0000000")


class TestEnumeration:
    def test_census(self):
        records = enumerate_branches(spm_plan(P8), P8)
        assert len(records) == 128
        assert Counter(r.level for r in records) == {
            1: 64, 2: 32, 3: 16, 4: 8, 5: 4, 6: 2, 7: 1, 8: 1,
        }
        assert Counter(r.leaf_classes[0] for r in records) == {
            LeafClass.MU_PLUS: 64, LeafClass.MU_MINUS: 63, LeafClass.ETA: 1,
        }

    def test_probabilities_sum_to_one(self):
        for plan_maker in (cpm_plan, spm_plan):
            records = enumerate_branches(plan_maker(P8), P8)
            assert sum(r.probability for r in records) == 1

    def test_mu_prefactors(self):
        # level-k mu leaf squared norm is (1/2) / (2^(7-k) T_k^2)
        mu = [r for r in enumerate_branches(spm_plan(P8), P8)
              if r.leaf_classes[0] in (LeafClass.MU_PLUS, LeafClass.MU_MINUS)]
        assert len(mu) == 127
        for record in mu:
            expected = Fraction(1, 2) / (2 ** (7 - record.level) * t_sq(record.level))
            assert record.probability == expected

    def test_probability_split_exact(self):
        records = enumerate_branches(spm_plan(P8), P8)
        mu = sum(r.probability for r in records
                 if r.leaf_classes[0] in (LeafClass.MU_PLUS, LeafClass.MU_MINUS))
        eta = sum(r.probability for r in records if r.leaf_classes[0] is LeafClass.ETA)
        assert mu == Fraction(3, 4) - Fraction(3, 4 * (2**128 - 1))
        assert eta == Fraction(1, 4) + Fraction(3, 4 * (2**128 - 1))

    def test_stage_cumulative_probabilities(self):
        records = enumerate_branches(spm_plan(P8), P8)
        by_level = {}
        for r in records:
            by_level[r.level] = by_level.get(r.level, 0) + r.probability
        assert by_level[1] == Fraction(1, 2)
        assert by_level[2] == Fraction(1, 5)
        assert sum(by_level[k] for k in range(3, 9)) == Fraction(3, 10)

    @pytest.mark.parametrize("n,leaves", [(7, 64), (6, 32), (3, 4)])
    def test_other_chain_lengths(self, n, leaves):
        params = PlanParams(n)
        records = enumerate_branches(spm_plan(params), params)
        assert len(records) == leaves
        assert sum(r.probability for r in records) == 1
        assert sum(1 for r in records if r.leaf_classes[0] is LeafClass.ETA) == 1


# all-perp prefixes and the plus-child checkpoints, stated independently
# of the plan implementation: (history, sign0, a0_sq, sign1, a1_sq)
CHECKPOINTS = [
    ("0", 1, X_SQ / 2, 1, Y_SQ / 2),
    ("1", 1, Y_SQ / 2, -1, X_SQ / 2),
    ("10", 1, X_SQ / (2 * t_sq(2)), -1, Y_SQ / (2 * t_sq(2))),
    ("11", 1, Y_SQ**2 / X_SQ / (2 * t_sq(2)), 1, X_SQ**2 / Y_SQ / (2 * t_sq(2))),
    ("110", 1, X_SQ / (2 * t_sq(3)), 1, Y_SQ / (2 * t_sq(3))),
    ("111", 1, Y_SQ**4 / X_SQ**3 / (2 * t_sq(3)), -1, X_SQ**4 / Y_SQ**3 / (2 * t_sq(3))),
    ("1110", 1, X_SQ / (2 * t_sq(4)), -1, Y_SQ / (2 * t_sq(4))),
    ("1111", 1, Y_SQ**8 / X_SQ**7 / (2 * t_sq(4)), 1, X_SQ**8 / Y_SQ**7 / (2 * t_sq(4))),
    ("11110", 1, X_SQ / (2 * t_sq(5)), 1, Y_SQ / (2 * t_sq(5))),
    ("11111", 1, Y_SQ**16 / X_SQ**15 / (2 * t_sq(5)), -1, X_SQ**16 / Y_SQ**15 / (2 * t_sq(5))),
    ("111110", 1, X_SQ / (2 * t_sq(6)), -1, Y_SQ / (2 * t_sq(6))),
    ("111111", 1, Y_SQ**32 / X_SQ**31 / (2 * t_sq(6)), 1, X_SQ**32 / Y_SQ**31 / (2 * t_sq(6))),
    ("1111111", 1, Y_SQ**64 / X_SQ**63 / (2 * t_sq(7)), -1, X_SQ**64 / Y_SQ**63 / (2 * t_sq(7))),
]


@pytest.mark.parametrize("history,sign0,a0_sq,sign1,a1_sq", CHECKPOINTS)
def test_cascade_checkpoints(history, sign0, a0_sq, sign1, a1_sq):
    plan = spm_plan(P8)
    state = ghz_state(8)
    for depth, bit in enumerate(history):
        state = measure_next(state, plan.basis_for(history[:depth]))[int(bit)]
    assert state.amp0 == sign0 * a0_sq
    assert state.amp1 == sign1 * a1_sq


class TestEtaState:
    def test_bias(self):
        p0, p1 = bob_distribution(constants(P8).eta_leaf)
        assert p1 / p0 == 2**127

    def test_leaf_matches_enumeration(self):
        # odd and even stage counts: the leaf's relative sign alternates with m
        for n in range(3, 13):
            for x_sq in (Fraction(2, 3), Fraction(1, 2), Fraction(3, 7), Fraction(9, 10)):
                params = PlanParams(n, x_sq)
                cascade = constants(params)
                plan = spm_plan(params)
                records = enumerate_branches(plan, params)
                assert records[-1].head == "1" * params.m
                assert records[-1].state == cascade.eta_leaf
                assert cascade.steps == tuple(plan.step("1" * k) for k in range(params.m))

    def test_symmetric_case(self):
        eta = constants(PlanParams(8, Fraction(1, 2))).eta_leaf
        assert bob_distribution(eta) == (Fraction(1, 2), Fraction(1, 2))
        assert eta.amp1 < 0


class TestClassify:
    def test_eta_distinct_from_mu_minus(self):
        records = enumerate_branches(spm_plan(P8), P8)
        assert records[-1].leaf_classes[0] is LeafClass.ETA
        eta = records[-1].state
        assert classify(eta.amp0, eta.amp1, constants(P8)) is LeafClass.ETA

    def test_global_sign_ignored(self):
        flipped = ChainState(1, -X_SQ / 4, -Y_SQ / 4)
        assert classify(flipped.amp0, flipped.amp1, constants(P8)) is LeafClass.MU_PLUS

    def test_hadamard_leaf_is_other(self):
        records = enumerate_branches(cpm_plan(P8), P8)
        assert all(r.leaf_classes[0] is LeafClass.OTHER for r in records)


def _classify_reference(state, params):
    """Leaf classification with the all-perp direction rebuilt from its
    exponents on every call, in sign/magnitude arithmetic; the oracle for
    `classify`."""
    x = ExactAmplitude.sqrt(params.x_sq)
    y = ExactAmplitude.sqrt(params.y_sq)
    # the signed rational sign * q is the amplitude sign * sqrt(q)
    a0, a1 = (ExactAmplitude((s > 0) - (s < 0), abs(s)) for s in (state.amp0, state.amp1))

    def proportional(b0, b1):
        return a0 * b1 == a1 * b0

    if proportional(x, y):
        return LeafClass.MU_PLUS
    if proportional(x, -y):
        return LeafClass.MU_MINUS
    big = 2**params.m - 1
    eta1 = ExactAmplitude(-1 if params.m % 2 else 1, params.x_sq**big)
    if proportional(ExactAmplitude.sqrt(params.y_sq**big), eta1):
        return LeafClass.ETA
    return LeafClass.OTHER


def assert_classify_matches_reference(params, seed):
    for plan in (cpm_plan(params), spm_plan(params), random_plan(params, seed)):
        for record in enumerate_branches(plan, params):
            flipped = ChainState(1, -record.state.amp0, -record.state.amp1)
            assert record.leaf_classes[0] is _classify_reference(record.state, params)
            assert classify(flipped.amp0, flipped.amp1, constants(params)) is record.leaf_classes[0]
            assert classify(-record.a0, -record.a1, constants(params)) is record.leaf_classes[0]


@pytest.mark.parametrize("n", range(3, 11))
def test_classify_matches_reference(n):
    # at x^2 = 1/2 the eta direction equals mu+ (even m) or mu- (odd m); mu wins the tie
    for x_sq in (Fraction(2, 3), Fraction(1, 2)):
        assert_classify_matches_reference(PlanParams(n, x_sq), seed=n)


@settings(max_examples=30, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=40).filter(
        lambda x: x != Fraction(1, 2)
    ),
    st.integers(min_value=3, max_value=7),
    st.integers(min_value=0, max_value=2**16),
)
def test_classify_matches_reference_any_x(x_sq, n, seed):
    assert_classify_matches_reference(PlanParams(n, x_sq), seed)


X_GRID = (Fraction(2, 3), Fraction(1, 2), Fraction(3, 7), Fraction(9, 10))


def assert_spine_walk_matches_leaf_walk(params):
    for plan in (cpm_plan(params), spm_plan(params), random_plan(params, params.n)):
        sampler = LeafSampler(plan, params)
        classes = sampler.classes
        assert len(classes) == (params.m + 1 if plan.spine is not None else 2**params.m)
        # the same rule as a step plan has no spine, so it is walked node by node; its
        # classes, one per leaf, give plain per-leaf sums and counts
        chooser = MeasurementPlan(params.m, plan.step)
        records = outcome_classes(chooser, params)
        assert enumerate_branches(plan, params) == records
        assert enumerate_branches(chooser, params) == records
        marginal = (
            sum(abs(r.state.amp0) for r in records),
            sum(abs(r.state.amp1) for r in records),
        )
        assert sampler.marginal == marginal
        levels = Counter(r.level for r in records)
        probability: Counter = Counter()
        for r in records:
            probability[r.leaf_classes[0]] += r.probability
        class_levels, class_leaves, class_probability = census(classes)
        assert (class_levels, class_leaves) == (levels, Counter(r.leaf_classes[0] for r in records))
        assert {lc: class_probability.value(lc) for lc in class_probability} == probability
        counts = Counter(r.leaf_classes[0].value for r in records)
        assert _census_lines(classes) == (
            f"branches: {len(records)}\n"
            f"level census: {' '.join(f'{k}:{levels[k]}' for k in sorted(levels))}\n"
            f"class census: {' '.join(f'{k}:{counts[k]}' for k in sorted(counts))}\n"
            f"total probability: {sum(r.probability for r in records)} (exact)\n"
        )


@pytest.mark.parametrize("n", range(3, 13))
def test_spine_walk_matches_leaf_walk(n):
    for x_sq in X_GRID:
        assert_spine_walk_matches_leaf_walk(PlanParams(n, x_sq))


@settings(max_examples=30, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=40),
    st.integers(min_value=3, max_value=9),
)
@example(Fraction(1, 2), 8)
def test_spine_walk_matches_leaf_walk_any_x(x_sq, n):
    assert_spine_walk_matches_leaf_walk(PlanParams(n, x_sq))


def _leaf_walk(plan, params):
    """(outcomes, state) per leaf in lexicographic order, each node measured
    by `measure_next`: the reference for the walk on integer numerators."""
    leaves = []
    stack = [("", ghz_state(params.n))]
    while stack:
        history, state = stack.pop()
        if len(history) == params.m:
            leaves.append((history, state))
            continue
        first, second = measure_next(state, plan.basis_for(history))
        stack += [(history + "1", second), (history + "0", first)]
    return leaves


@settings(max_examples=25, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 12), max_value=Fraction(11, 12), max_denominator=12),
    st.integers(min_value=3, max_value=10),
    st.sampled_from(["cpm", "spm", "random"]),
    st.integers(min_value=0, max_value=2**16),
)
@example(Fraction(1, 2), 10, "spm", 0)
@example(Fraction(3, 7), 10, "random", 7)
def test_integer_walk_matches_measure_next(x_sq, n, kind, seed):
    params = PlanParams(n, x_sq)
    plan = random_plan(params, seed) if kind == "random" else {"cpm": cpm_plan, "spm": spm_plan}[kind](params)
    leaves = _leaf_walk(plan, params)
    cascade = constants(params)
    records = enumerate_branches(plan, params)
    assert [(r.head, r.state, r.probability, r.level, r.leaf_classes) for r in records] == [
        (head, state, state.norm_sq(), head.find("0") + 1 or params.m + 1, (classify(state.amp0, state.amp1, cascade),))
        for head, state in leaves
    ]
    assert bob_marginal(plan, params) == (
        sum(abs(state.amp0) for _, state in leaves),
        sum(abs(state.amp1) for _, state in leaves),
    )


@pytest.mark.parametrize(
    "bad_step,where",
    [
        ((3, 3, 4), ("01",)),
        ((1, -1, 4), ("01",)),
        ((0, 1, 1), ("", "0")),  # a valid step twice: the second child at "0" has zero norm
    ],
    ids=["weight-over-one", "weight-under-one", "vanishing-branch"],
)
def test_walk_checks_every_step(bad_step, where):
    # an invalid step at the histories `where`: the walk's local check stops at the last of them
    params = PlanParams(4)
    plan = MeasurementPlan(params.m, lambda h: bad_step if h in where else (1, 1, 2))
    for walk in (outcome_classes, bob_marginal):
        with pytest.raises(MeasurementError, match=f"history {where[-1]!r}"):
            walk(plan, params)


def assert_builtin_classes_agree_on_eta(params):
    for plan in (cpm_plan(params), spm_plan(params)):
        for c in outcome_classes(plan, params):
            assert len({lc is LeafClass.ETA for lc in c.leaf_classes}) == 1, (plan, c.head)


# the sampler draws a class, so a class's leaves must all be eta or all not be
@pytest.mark.parametrize("n", range(3, 17))
def test_builtin_classes_agree_on_eta(n):
    for x_sq in X_GRID:
        assert_builtin_classes_agree_on_eta(PlanParams(n, x_sq))


@settings(max_examples=30, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=40),
    st.integers(min_value=3, max_value=16),
)
@example(Fraction(1, 2), 8)
@example(Fraction(1, 2), 9)
def test_builtin_classes_agree_on_eta_any_x(x_sq, n):
    assert_builtin_classes_agree_on_eta(PlanParams(n, x_sq))


class TestPlanForm:
    def test_needs_one_rule(self):
        with pytest.raises(PlanError):
            MeasurementPlan(3)
        with pytest.raises(PlanError):
            MeasurementPlan(3, lambda history: (1, 1, 2), spine=((1, 1, 2),) * 3)

    def test_spine_length(self):
        with pytest.raises(PlanError):
            MeasurementPlan(3, spine=((1, 1, 2),) * 2)
