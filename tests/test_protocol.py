from fractions import Fraction

import pytest

from ghzdisc import (
    PLUS_MINUS,
    Basis,
    CounterStream,
    LeafClass,
    LeafSampler,
    PlanError,
    PlanParams,
    ProtocolConfig,
    Strategy,
    bob_distribution,
    build_samplers,
    constants,
    cpm_plan,
    discriminate,
    random_plan,
    run_protocol,
    spm_plan,
    w_statistic,
)
from ghzdisc.plans import MeasurementPlan, enumerate_branches, outcome_classes
from ghzdisc.protocol import RESOLUTION_BITS, _cut

P8 = PlanParams(8)


class TestCounterStream:
    def test_deterministic(self):
        a = CounterStream(7, 1, 2, 3)
        b = CounterStream(7, 1, 2, 3)
        assert [a.next_int() for _ in range(5)] == [b.next_int() for _ in range(5)]

    def test_paths_distinct(self):
        assert CounterStream(7, 0).next_int() != CounterStream(7, 1).next_int()
        assert CounterStream(7).next_int() != CounterStream(8).next_int()

    def test_below_edge_probabilities(self):
        # a draw k is below p exactly when k < _cut(p): always at p = 1, never at p = 0
        k = CounterStream(0).next_int()
        assert _cut(Fraction(1)) == 1 << RESOLUTION_BITS and k < _cut(Fraction(1))
        assert _cut(Fraction(0)) == 0 and not k < _cut(Fraction(0))

    def test_seed_range(self):
        with pytest.raises(ValueError):
            CounterStream(-1)
        with pytest.raises(ValueError):
            CounterStream(2**64)

    # a float seed would otherwise fail only at its first to_bytes, far from where it entered
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: CounterStream(2.0), id="stream"),
        pytest.param(lambda: ProtocolConfig(seed=1.5), id="config"),
        pytest.param(lambda: random_plan(P8, 3.0), id="random-plan"),
    ])
    def test_non_int_seed(self, make):
        with pytest.raises(ValueError, match="seed must be an int, got [0-9.]+$"):
            make()

    def test_child_matches_full_path(self):
        group = CounterStream(2**64 - 1, 0, 3, 7)
        for index in (0, 1, 29, 2**32, 2**64 - 1):
            child = group.child(index)
            full = CounterStream(2**64 - 1, 0, 3, 7, index)
            assert [child.next_int() for _ in range(3)] == [full.next_int() for _ in range(3)]
            group.next_int()  # the group's own draws do not move its children

    @pytest.mark.parametrize("index", [-1, 2**64])
    def test_child_index_range(self, index):
        with pytest.raises(OverflowError):
            CounterStream(5, 1, index)
        with pytest.raises(OverflowError):
            CounterStream(5, 1).child(index)


class TestWStatistic:
    def test_reference_value(self):
        w1 = w_statistic(1, P8, 30)
        assert abs(float(w1) - 1.655) < 1e-3
        # exact form: (2^126 / (2^128 - 1)) / (29 * (2/3) / 128)
        assert w1 == Fraction(2**126, 2**128 - 1) / (Fraction(29) * Fraction(2, 3) / 128)

    def test_two_hits(self):
        assert abs(float(w_statistic(2, P8, 30)) - 3.43) < 1e-2

    @pytest.mark.parametrize("n,target", [(7, 0.83), (6, 0.41)])
    def test_shorter_chains(self, n, target):
        assert abs(float(w_statistic(1, PlanParams(n), 30)) - target) < 1e-2

    def test_monotone_in_count(self):
        values = [w_statistic(l, P8, 30) for l in range(30)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_zero_hits(self):
        assert w_statistic(0, P8, 30) == 0

    def test_all_hits_is_infinite(self):
        with pytest.raises(ZeroDivisionError):
            w_statistic(30, P8, 30)

    def test_count_out_of_range(self):
        with pytest.raises(ValueError):
            w_statistic(31, P8, 30)


def _w_reference(l, params, per_group):
    """The closed form of the W statistic with its exponents written out;
    the oracle for `w_statistic`."""
    m = params.m
    big = 2**m - 1
    e = 2 ** (m - 1) - 1
    t_sq = constants(params).T_sq[-1]
    numerator = l * params.x_sq**big / (2 * t_sq * (params.x_sq * params.y_sq) ** e)
    denominator = (per_group - l) * params.x_sq / 2**m
    return numerator / denominator


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize(
    "x_sq", [Fraction(2, 3), Fraction(1, 2), Fraction(3, 7), Fraction(9, 10)]
)
def test_w_statistic_matches_closed_form(n, x_sq):
    params = PlanParams(n, x_sq)
    for l in (0, 1, 2, 29):
        assert w_statistic(l, params, 30) == _w_reference(l, params, 30)


class TestLeafSampler:
    def test_cdf_covers_unit_interval(self):
        sampler = LeafSampler(spm_plan(P8), P8)
        # one cut per outcome class: m + 1 for a spine plan, not 2^m
        assert len(sampler._cuts) == len(sampler._p0_cuts) == P8.m + 1
        assert sampler._cuts[-1] == 1 << RESOLUTION_BITS
        assert all(a <= b for a, b in zip(sampler._cuts, sampler._cuts[1:]))

    def test_outcome_distribution_smoke(self):
        sampler = LeafSampler(spm_plan(P8), P8)
        # level 1 has exact probability 1/2
        assert sum(c.summed(c.probability) for c in sampler.classes if c.level == 1) == Fraction(1, 2)
        hits = 0
        n = 4000
        for i in range(n):
            drawn, _ = sampler.sample(CounterStream(42, i))
            if drawn.level == 1:
                hits += 1
        assert abs(hits / n - 0.5) < 0.04

    def test_rejects_class_split_on_eta(self):
        # this first basis puts the even leaf below "0" on the eta direction and the odd one off it
        params = PlanParams(4)
        first = Basis(Fraction(1, 129), Fraction(-128, 129))
        plan = MeasurementPlan(3, spine=(first, PLUS_MINUS, PLUS_MINUS))
        assert outcome_classes(plan, params)[0].leaf_classes == (LeafClass.ETA, LeafClass.OTHER)
        with pytest.raises(PlanError, match="mixes eta and non-eta leaves"):
            LeafSampler(plan, params)

    def test_uniform_plan_bit_balance(self):
        sampler = LeafSampler(cpm_plan(P8), P8)
        ones = 0
        n = 4000
        for i in range(n):
            _, bit = sampler.sample(CounterStream(43, i))
            ones += bit
        assert abs(ones / n - 0.5) < 0.04


class _Draws:
    """Stands in for a CounterStream: returns the given draws in order."""

    def __init__(self, *draws):
        self._draws = iter(draws)

    def next_int(self):
        return next(self._draws)


def _reference_tables(records):
    """Scaled (numerator, denominator) thresholds of the cumulative
    probability and of the receiver's p0, per leaf."""
    cumulative, cum, p0s = Fraction(0), [], []
    for record in records:
        cumulative += record.probability
        cum.append((cumulative.numerator << RESOLUTION_BITS, cumulative.denominator))
        p0 = bob_distribution(record.states[0])[0]
        p0s.append((p0.numerator << RESOLUTION_BITS, p0.denominator))
    return cum, p0s


def _sample_reference(records, tables, stream):
    """Inverse-CDF draw by bisection over exact rational thresholds: a
    draw k is below num / (den * 2**256) when k * den < num."""
    cum, p0s = tables
    k = stream.next_int()
    lo, hi = 0, len(cum) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        num, den = cum[mid]
        if k * den < num:
            hi = mid
        else:
            lo = mid + 1
    num, den = p0s[lo]
    bob_bit = 0 if stream.next_int() * den < num else 1
    return records[lo], bob_bit


def _around(num, den):
    """Draws next to the scaled threshold num / den, kept in range."""
    x = num // den
    return [k for k in (x - 1, x, x + 1) if 0 <= k < 1 << RESOLUTION_BITS]


_EDGE_DRAWS = (0, (1 << RESOLUTION_BITS) - 1)


def _holds(c, record):
    """Whether outcome class `c` holds the leaf of `record`: the leaf has
    the class's head, level, probability and eta-ness, and one of its
    receiver states."""
    return (
        record.head.startswith(c.head)
        and record.level == c.level
        and record.probability == c.probability
        and all((lc is LeafClass.ETA) == (record.leaf_classes[0] is LeafClass.ETA) for lc in c.leaf_classes)
        and record.states[0] in c.states
    )


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("x_sq", [Fraction(2, 3), Fraction(3, 7)])
@pytest.mark.parametrize("plan_for", [cpm_plan, spm_plan, lambda p: random_plan(p, 11)],
                         ids=["cpm", "spm", "random"])
def test_sampler_matches_reference_at_every_cut(n, x_sq, plan_for):
    params = PlanParams(n, x_sq)
    plan = plan_for(params)
    sampler = LeafSampler(plan, params)
    # the same rule as a chooser is walked node by node, one class per leaf
    chooser = MeasurementPlan(params.m, plan.basis_for)
    records = outcome_classes(chooser, params)
    assert enumerate_branches(plan, params) == records
    assert enumerate_branches(chooser, params) == records
    tables = _reference_tables(records)
    cum, p0s = tables
    pairs = [(k, j) for k in _EDGE_DRAWS for j in _EDGE_DRAWS]
    for num, den in cum:
        pairs += [(k, j) for k in _around(num, den) for j in _EDGE_DRAWS]
    # pair each p0 cut with the smallest draw landing on its leaf, when
    # some draw does (leaves far below 2**-256 are never drawn)
    lowest = 0
    for (num, den), (cum_num, cum_den) in zip(p0s, cum):
        above = -(-cum_num // cum_den)
        if lowest < above:
            pairs += [(lowest, j) for j in _around(num, den) + list(_EDGE_DRAWS)]
        lowest = above
    for k, j in pairs:
        got, bit = sampler.sample(_Draws(k, j))
        want, want_bit = _sample_reference(records, tables, _Draws(k, j))
        assert _holds(got, want) and bit == want_bit, (k, j)


class TestRunProtocol:
    def test_deterministic(self):
        config = ProtocolConfig(seed=11, trials=2, per_group=10, groups=4)
        assert run_protocol(config, build_samplers(config.params)) == run_protocol(config, build_samplers(config.params))

    def test_counts_complete(self):
        config = ProtocolConfig(seed=5, trials=1, per_group=30, groups=20, strategy=Strategy.CPM)
        (trial,) = run_protocol(config, build_samplers(config.params))
        assert len(trial["per_group"]) == 20
        for group in trial["per_group"]:
            assert group["zeros"] + group["ones"] == 30
        assert trial["eta_hits"] == 0  # uniform plan never reaches the exceptional leaf

    def test_cascade_hits_exceptional_leaf(self):
        config = ProtocolConfig(seed=5, trials=1, per_group=100, groups=4, strategy=Strategy.SPM)
        (trial,) = run_protocol(config, build_samplers(config.params))
        # 400 states at ~1/4 each; grossly improbable to miss entirely
        assert trial["eta_hits"] > 50

    def test_random_per_state_runs(self):
        config = ProtocolConfig(
            seed=9, trials=1, per_group=20, groups=3, strategy=Strategy.RANDOM_PER_STATE
        )
        assert run_protocol(config, build_samplers(config.params)) == run_protocol(config, build_samplers(config.params))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ProtocolConfig(seed=1, per_group=0)

    def test_group_vote_boundary(self):
        # a group votes spm when ones/zeros reaches the threshold or zeros is 0;
        # the majority needs more than half the groups, so a tie goes to cpm
        drawn = outcome_classes(spm_plan(P8), P8)[0]
        assert LeafClass.ETA not in drawn.leaf_classes
        bits = iter([1, 1, 1, 1, 0, 0, 0] + [1] * 7 + [1, 1, 1, 0, 0, 0, 0] + [0] * 7)

        class Scripted:
            def sample(self, stream):
                return drawn, next(bits)

        s = Scripted()
        config = ProtocolConfig(seed=1, per_group=7, groups=4, threshold=Fraction(4, 3),
                                strategy=Strategy.SPM)
        (trial,) = run_protocol(config, {Strategy.CPM: s, Strategy.SPM: s})
        assert trial == {
            "per_group": [
                {"zeros": 3, "ones": 4, "ratio": 4 / 3, "decision": "spm"},
                {"zeros": 0, "ones": 7, "ratio": None, "decision": "spm"},
                {"zeros": 4, "ones": 3, "ratio": 3 / 4, "decision": "cpm"},
                {"zeros": 7, "ones": 0, "ratio": 0.0, "decision": "cpm"},
            ],
            "eta_hits": 0,
            "overall_decision": "cpm",
        }


class TestDiscriminate:
    def test_deterministic_and_scored(self):
        config = ProtocolConfig(seed=3, trials=20, per_group=30, groups=20)
        report = discriminate(config)
        again = discriminate(config)
        assert report["accuracy"] == again["accuracy"]
        assert report["confusion"] == again["confusion"]
        total = sum(v for row in report["confusion"].values() for v in row.values())
        assert total == 20
        assert len(report["trials"]) == 20
