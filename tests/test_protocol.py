from fractions import Fraction

import pytest

from ghzdisc import (
    CounterStream,
    LeafSampler,
    PlanParams,
    ProtocolConfig,
    Strategy,
    constants,
    cpm_plan,
    discriminate,
    run_protocol,
    spm_plan,
    w_statistic,
)

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
        stream = CounterStream(0)
        assert stream.below(Fraction(1)) is True
        assert stream.below(Fraction(0)) is False

    def test_seed_range(self):
        with pytest.raises(ValueError):
            CounterStream(-1)
        with pytest.raises(ValueError):
            CounterStream(2**64)


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
    t_sq = constants(params).T[-1].sq()
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
        num, den = sampler._cum[-1]
        assert Fraction(num, den << 256) == 1

    def test_outcome_distribution_smoke(self):
        sampler = LeafSampler(spm_plan(P8), P8)
        hits = 0
        n = 4000
        for i in range(n):
            record, _ = sampler.sample(CounterStream(42, i))
            if record.level == 1:
                hits += 1
        # level 1 has exact probability 1/2
        assert abs(hits / n - 0.5) < 0.04

    def test_uniform_plan_bit_balance(self):
        sampler = LeafSampler(cpm_plan(P8), P8)
        ones = 0
        n = 4000
        for i in range(n):
            _, bit = sampler.sample(CounterStream(43, i))
            ones += bit
        assert abs(ones / n - 0.5) < 0.04


class TestRunProtocol:
    def test_deterministic(self):
        config = ProtocolConfig(seed=11, trials=2, per_group=10, groups=4)
        assert run_protocol(config) == run_protocol(config)

    def test_counts_complete(self):
        config = ProtocolConfig(seed=5, trials=1, per_group=30, groups=20, strategy=Strategy.CPM)
        (trial,) = run_protocol(config)
        assert len(trial.groups) == 20
        for group in trial.groups:
            assert group.zeros + group.ones == 30
        assert trial.eta_hits == 0  # uniform plan never reaches the exceptional leaf

    def test_cascade_hits_exceptional_leaf(self):
        config = ProtocolConfig(seed=5, trials=1, per_group=100, groups=4, strategy=Strategy.SPM)
        (trial,) = run_protocol(config)
        # 400 states at ~1/4 each; grossly improbable to miss entirely
        assert trial.eta_hits > 50

    def test_random_per_state_runs(self):
        config = ProtocolConfig(
            seed=9, trials=1, per_group=20, groups=3, strategy=Strategy.RANDOM_PER_STATE
        )
        assert run_protocol(config) == run_protocol(config)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ProtocolConfig(seed=1, per_group=0)


class TestDiscriminate:
    def test_deterministic_and_scored(self):
        config = ProtocolConfig(seed=3, trials=20, per_group=30, groups=20)
        report = discriminate(config)
        again = discriminate(config)
        assert report.accuracy == again.accuracy
        assert report.confusion == again.confusion
        total = sum(v for row in report.confusion.values() for v in row.values())
        assert total == 20
        assert len(report.trials) == 20
