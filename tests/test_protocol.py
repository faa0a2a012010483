import hashlib
import math
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from ghzdisc import (
    CounterStream,
    LeafClass,
    LeafSampler,
    MeasurementError,
    PlanError,
    PlanParams,
    ProtocolConfig,
    Strategy,
    bob_distribution,
    constants,
    cpm_plan,
    discriminate,
    law,
    random_plan,
    run_protocol,
    spm_plan,
    w_statistic,
)
from ghzdisc.plans import CommonSums, MeasurementPlan, OutcomeClass, enumerate_branches, outcome_classes
from ghzdisc.protocol import (
    _BLOCK, AMBIGUOUS, RESOLUTION_BITS, _cut, _Decider, _pack, w_terms,
)
from reference import law_rows

P8 = PlanParams(8)


def _classes(*rows):
    """Hand-made depth-0 classes from (a0, a1, den, q, eta): rows |a0| / den and |a1| / den, hinted by q."""
    return [OutcomeClass("", 0, 1, a0, a1, den, q, (LeafClass.ETA if eta else LeafClass.OTHER,))
            for a0, a1, den, q, eta in rows]


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
        # a bool is an int to isinstance, and would be written as JSON true
        pytest.param(lambda: CounterStream(True), id="stream-bool"),
        pytest.param(lambda: ProtocolConfig(seed=True), id="config-bool"),
        pytest.param(lambda: random_plan(P8, False), id="random-plan-bool"),
    ])
    def test_non_int_seed(self, make):
        with pytest.raises(ValueError, match="seed must be an int, got ([0-9.]+|True|False)$"):
            make()

    def test_values_are_consecutive_shake_blocks(self):
        # value c is byte c of SHAKE-256 over the path, each part 8 big-endian
        # bytes, times 2^248, plus as its low bits 31 bytes of SHAKE-256 over
        # the tail message (path, c, 0x01); 70 values cross several growths of
        # the lead bytes read so far
        for path in ((2**64 - 1, 0, 3, 7, index) for index in (0, 1, 29, 2**32, 2**64 - 1)):
            stream = CounterStream(*path)
            message = b"".join(v.to_bytes(8, "big") for v in path)
            leads = hashlib.shake_256(message).digest(70)
            tails = [hashlib.shake_256(message + c.to_bytes(8, "big") + b"\x01").digest(31) for c in range(70)]
            assert [stream.next_int() for _ in range(70)] == [
                leads[c] << 248 | int.from_bytes(tails[c], "big") for c in range(70)
            ]

    def test_tail_messages_are_not_lead_messages(self, monkeypatch):
        # every message hashed is a lead message, a packed path of 8 bytes per
        # part, or a tail message: a lead message, an 8-byte index and one
        # marker byte, so 8j + 9 bytes long, the length of no lead message
        hashed = []
        shake_256 = hashlib.shake_256
        monkeypatch.setattr(hashlib, "shake_256", lambda message: hashed.append(message) or shake_256(message))
        seed = 2**64 - 1
        # cpm at n = 14 has draws whose leading byte's range holds a cut
        config = ProtocolConfig(seed=seed, params=PlanParams(14), per_group=1100, groups=2, trials=1,
                                strategy=Strategy.CPM)
        run_protocol(config, law(config.strategy, config.params))
        stream = CounterStream(seed, 5)
        for _ in range(3):
            stream.next_int()
        leads = {_pack(seed, 0, 0, g, block) for g in range(2) for block in range(2)} | {_pack(seed, 5)}
        tails = [m for m in hashed if m not in leads]
        assert set(hashed) - set(tails) == leads
        assert len(tails) > 3
        assert {len(m) % 8 for m in leads} == {0}
        assert {len(m) % 8 for m in tails} == {1}
        assert all(m[:-9] in leads and m[-1:] == b"\x01" for m in tails)

    @pytest.mark.parametrize("index", [-1, 2**64])
    def test_path_index_range(self, index):
        with pytest.raises(OverflowError):
            CounterStream(5, 1, index)


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
        # the unreduced terms' int division is correctly rounded: `simulate`'s float, with no gcd
        num, den = w_terms(l, params, 30)
        assert num / den == float(_w_reference(l, params, 30))


class TestLeafSampler:
    def test_cdf_covers_unit_interval(self):
        sampler = LeafSampler(spm_plan(P8), P8)
        # a sampler build only classifies: the sums and the table wait for first use
        assert not {"_sums", "table", "marginal"} & set(vars(sampler))
        # two cuts per outcome class, one per bit: 2(m + 1) for a spine plan, not 2^m
        cuts = sampler.table.cuts
        assert len(cuts) == 2 * (P8.m + 1)
        assert cuts[-1] == 1 << RESOLUTION_BITS
        assert all(a <= b for a, b in zip(cuts, cuts[1:]))

    def test_marginal_sums_rows_per_bit(self):
        # every plan's marginal is (1/2, 1/2), so uneven classes stand in to tell the bits apart;
        # the second den is the first's times its q, a true hint: one Horner step
        sampler = LeafSampler(spm_plan(P8), P8)
        sampler.classes = _classes((1, 2, 8, 1, False), (8, 2, 16, 2, True))
        assert sampler.marginal == (Fraction(5, 8), Fraction(3, 8))
        # a q that does not nest its class's den is a wrong hint: the sum widens to the lcm instead
        sampler = LeafSampler(spm_plan(P8), P8)
        sampler.classes = _classes((4, 1, 8, 5, True), (2, 4, 16, 5, False))
        assert sampler.marginal == (Fraction(5, 8), Fraction(3, 8))
        # a den that divides the common one, as 8 after 16, is taken to the common den
        sampler = LeafSampler(spm_plan(P8), P8)
        sampler.classes = _classes((2, 4, 16, 1, False), (4, 1, 8, 1, True))
        assert sampler.marginal == (Fraction(5, 8), Fraction(3, 8))

    def test_outcome_distribution_smoke(self):
        sampler = LeafSampler(spm_plan(P8), P8)
        # level 1 has exact probability 1/2
        assert sum(c.probability * 2**c.depth for c in sampler.classes if c.level == 1) == Fraction(1, 2)
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
        plan = MeasurementPlan(3, spine=((1, -128, 129), (1, 1, 2), (1, 1, 2)))
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


def _bisect_exact(cum, k):
    """Inverse-CDF pick by bisection over exact rational thresholds: the
    first i with k below cum[i] = (num, den), i.e. with k * den < num."""
    lo, hi = 0, len(cum) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        num, den = cum[mid]
        if k * den < num:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _scaled_cumulative(rows):
    """Scaled (numerator, denominator) thresholds of the rows' cumulative weight."""
    cumulative, cum = Fraction(0), []
    for weight, _, _ in rows:
        cumulative += weight
        cum.append((cumulative.numerator << RESOLUTION_BITS, cumulative.denominator))
    return cum


_EDGE_DRAWS = (0, (1 << RESOLUTION_BITS) - 1)


def _cut_draws(cum):
    """Both edge draws, and the draws at each scaled threshold's cut and
    either side of it, kept in range."""
    draws = set(_EDGE_DRAWS)
    for num, den in cum:
        cut = -(-num // den)
        draws.update(k for k in (cut - 1, cut, cut + 1) if 0 <= k < 1 << RESOLUTION_BITS)
    return sorted(draws)


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("x_sq", [Fraction(2, 3), Fraction(3, 7)])
@pytest.mark.parametrize("plan_for", [cpm_plan, spm_plan, lambda p: random_plan(p, 11)],
                         ids=["cpm", "spm", "random"])
def test_sampler_matches_reference_at_every_cut(n, x_sq, plan_for):
    params = PlanParams(n, x_sq)
    plan = plan_for(params)
    sampler = LeafSampler(plan, params)
    # the same rule as a step plan is walked node by node, one class per leaf
    chooser = MeasurementPlan(params.m, plan.step)
    records = outcome_classes(chooser, params)
    assert enumerate_branches(plan, params) == records
    assert enumerate_branches(chooser, params) == records
    # per class and bit, p(leaf) * p(bit | leaf) summed over the leaves below its head
    reference = []
    for c in sampler.classes:
        leaves = [r for r in records if r.head.startswith(c.head)]
        assert len(leaves) == 2**c.depth and {r.level for r in leaves} == {c.level}
        (eta,) = {r.leaf_classes[0] is LeafClass.ETA for r in leaves}
        for bit in (0, 1):
            weight = sum(r.probability * bob_distribution(r.state)[bit] for r in leaves)
            reference.append((weight, eta, bit))
    assert law_rows(sampler) == reference
    cum = _scaled_cumulative(reference)
    for k in _cut_draws(cum):
        row = _bisect_exact(cum, k)
        got, bit = sampler.sample(_Draws(k))
        assert got is sampler.classes[row // 2] and bit == reference[row][2], k


def _parts(sampler):
    """The laws a sampler draws from at equal weight: a mixture's parts, or itself."""
    return getattr(sampler, "parts", (sampler,))


def _reference_rows(sampler):
    """(weight, eta, bit) per joint row, in (part, class, bit) order,
    from the two-draw reference's factors: share * p(class) * p(bit | class)."""
    parts = _parts(sampler)
    share = Fraction(1, len(parts))
    return [
        (
            share * c.probability * 2**c.depth * bob_distribution(c.state)[bit],
            LeafClass.ETA in c.leaf_classes,
            bit,
        )
        for part in parts
        for c in part.classes
        for bit in (0, 1)
    ]


_JOINT_CASES = [
    pytest.param(Strategy.CPM, None, id="cpm"),
    pytest.param(Strategy.SPM, None, id="spm"),
    pytest.param(Strategy.SPM, lambda p: random_plan(p, 11), id="random-plan"),
    pytest.param(Strategy.RANDOM_PER_STATE, None, id="random-strategy"),
]


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("x_sq", [Fraction(2, 3), Fraction(3, 7)])
@pytest.mark.parametrize("strategy, plan_for", _JOINT_CASES)
def test_joint_table_matches_reference_at_every_cut(n, x_sq, strategy, plan_for):
    params = PlanParams(n, x_sq)
    # the table reads a sampler's classes, whatever plan built them
    sampler = law(strategy, params) if plan_for is None else LeafSampler(plan_for(params), params)
    reference = _reference_rows(sampler)
    assert law_rows(sampler) == reference
    table = sampler.table
    if plan_for is None:
        assert len(table.cuts) == (4 if strategy is Strategy.RANDOM_PER_STATE else 2) * (params.m + 1)
    assert table.codes == [2 * eta + bit for _, eta, bit in reference]
    assert table.cuts[-1] == 1 << RESOLUTION_BITS
    cum = _scaled_cumulative(reference)
    draws = set(_EDGE_DRAWS)
    for cut in table.cuts:
        draws.update(k for k in (cut - 1, cut, cut + 1) if 0 <= k < 1 << RESOLUTION_BITS)
    for k in sorted(draws):
        assert bisect_right(table.cuts, k) == _bisect_exact(cum, k), k
    if strategy is Strategy.RANDOM_PER_STATE:
        # the mixture is a law like the others: it samples the reference
        # (class, bit) at every cut, spm's classes first, and its marginal is
        # exactly the mean of the two strategies'
        spm, cpm = sampler.parts
        classes = spm.classes + cpm.classes
        for k in sorted(draws):
            row = _bisect_exact(cum, k)
            got, bit = sampler.sample(_Draws(k))
            assert got is classes[row // 2] and bit == reference[row][2], k
        assert sampler.marginal == tuple((a + b) / 2 for a, b in zip(cpm.marginal, spm.marginal))


def _retained(strategy, params):
    """Bytes a law still holds, by tracemalloc, once its table and marginal are read."""
    tracemalloc.start()
    try:
        sampler = law(strategy, params)
        sampler.table, sampler.marginal
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained


def test_mixture_retains_about_its_parts():
    # `random`'s law shares its parts' classes and copies no number: beyond spm's
    # law (0.34 MB here) it holds cpm's few shallow classes and its own cuts
    params = PlanParams(18, Fraction(3, 7))
    constants(params).slopes  # the plans' constants are cached once per params, outside either law
    spm, mixture = (_retained(strategy, params) for strategy in (Strategy.SPM, Strategy.RANDOM_PER_STATE))
    assert mixture - spm <= 64 << 10, (spm, mixture)


# an `if`, not an `assert`, so that `python -O` keeps the check; the marginal
# reads the same pass, so it is no sum of rows that are not a law either
@pytest.mark.parametrize(
    "total, read",
    [pytest.param(total, read, id=f"total{i}" if read == "table" else f"total{i}-{read}")
     for read in ("table", "marginal") for i, total in enumerate((Fraction(3, 4), Fraction(5, 4), Fraction(2, 3)))],
)
def test_table_rejects_rows_not_summing_to_one(total, read):
    den = 3 * total.denominator
    sampler = LeafSampler(spm_plan(P8), P8)
    sampler.classes = _classes((total.numerator, 0, den, 1, False), (0, 2 * total.numerator, den, 1, True))
    with pytest.raises(MeasurementError, match=f"^the rows' weights sum to {total}, not 1$"):
        getattr(sampler, read)


# the cuts and the marginal come of one pass: each row is added once
@pytest.mark.parametrize("n", [8, 14])
@pytest.mark.parametrize("x_sq", [Fraction(2, 3), Fraction(3, 7)])
@pytest.mark.parametrize("plan", [cpm_plan, spm_plan])
def test_table_and_marginal_add_each_row_once(monkeypatch, plan, x_sq, n):
    params, adds, add = PlanParams(n, x_sq), [], CommonSums.add

    def counted(self, *args):
        adds.append(args)
        add(self, *args)

    monkeypatch.setattr(CommonSums, "add", counted)
    sampler = LeafSampler(plan(params), params)
    assert sampler.table.cuts[-1] == 1 << RESOLUTION_BITS and sampler.marginal == (Fraction(1, 2), Fraction(1, 2))
    assert len(adds) == 2 * len(sampler.classes)


_BYTE_RANGE = 1 << (RESOLUTION_BITS - 8)  # the draws that share a leading byte


@pytest.mark.parametrize("n", [3, 8, 14, 20])
def test_guide_matches_exact_rows_at_both_ends_of_every_byte(n):
    # a byte's code is that of the exact row at its lowest and at its highest
    # draw, and AMBIGUOUS exactly where those two rows differ
    for strategy in Strategy:
        sampler = law(strategy, PlanParams(n))
        reference = _reference_rows(sampler)
        cum = _scaled_cumulative(reference)
        guide = sampler.table.guide
        assert len(guide) == 256
        for b, code in enumerate(guide):
            low, high = (_bisect_exact(cum, k) for k in (b * _BYTE_RANGE, (b + 1) * _BYTE_RANGE - 1))
            assert (code == AMBIGUOUS) == (low != high), (strategy, b)
            if code != AMBIGUOUS:
                for _, eta, bit in (reference[low], reference[high]):
                    assert code == 2 * eta + bit, (strategy, b)


_SEED = 2**64 - 1  # every seed byte set
_STATES = 1100  # two blocks, the second of 76 states


@cache
def _law(n, strategy):
    return law(strategy, PlanParams(n))


@cache
def _reference_law(n, strategy):
    """The reference rows at n, their exact scaled cumulative thresholds, and
    the leading bytes whose range holds a cut."""
    reference = _reference_rows(_law(n, strategy))
    cum = _scaled_cumulative(reference)
    ends = [(_bisect_exact(cum, b * _BYTE_RANGE), _bisect_exact(cum, (b + 1) * _BYTE_RANGE - 1)) for b in range(256)]
    cut_bytes = {b for b, (low, high) in enumerate(ends) if low != high}
    return reference, cum, cut_bytes


@cache
def _draws(trial, group):
    """The draws of the first `_STATES` states of `group` in `trial` under
    `_SEED`: state s is value s % 1024 of the stream (_SEED, 0, trial, group, s // 1024)."""
    streams = [CounterStream(_SEED, 0, trial, group, block) for block in range(2)]
    return [streams[s // 1024].next_int() for s in range(_STATES)]


@cache
def _reference_codes(n, strategy, trial, group):
    """The code 2 * eta + bit of each of `_draws(trial, group)`, picked by
    exact comparison against the reference rows; and per draw whether it
    falls in a byte whose range holds a cut."""
    reference, cum, cut_bytes = _reference_law(n, strategy)
    draws = _draws(trial, group)
    codes = bytes(2 * eta + bit for _, eta, bit in (reference[_bisect_exact(cum, k)] for k in draws))
    return codes, bytes(k >> 248 in cut_bytes for k in draws)


def _check_loop_against_reference(config):
    """`run_protocol` at `config` (seed `_SEED`, at most `_STATES` states per
    group) gives the records of the reference draws; returns how many of
    the groups' draws fall in a byte whose range holds a cut."""
    ambiguous, expected = 0, []
    for t in range(config.trials):
        eta_hits, ones = 0, []
        for g in range(config.groups):
            columns = _reference_codes(config.params.n, config.strategy, t, g)
            codes, cut = (column[:config.per_group] for column in columns)
            eta_hits += sum(code >> 1 for code in codes)
            ones.append(sum(code & 1 for code in codes))
            ambiguous += sum(cut)
        expected.append(_Decider(config).trial(ones, eta_hits))
    assert run_protocol(config, _law(config.params.n, config.strategy)) == expected
    return ambiguous


@pytest.mark.parametrize("strategy", list(Strategy))
def test_loop_draws_each_state_from_its_stream(strategy):
    # state s of group g in trial t is decided by value s % 1024 of the stream
    # (seed, 0, t, g, s // 1024), picked by exact comparison against the
    # reference rows; 1100 states per group take two blocks, and some draws
    # fall in a byte whose range holds a cut, so the loop's bisection runs
    # (at n = 14 for cpm, whose n = 8 cuts all lie on byte boundaries)
    ambiguous = 0
    for n in (8, 14):
        config = ProtocolConfig(seed=_SEED, params=PlanParams(n), per_group=_STATES, groups=2, trials=2,
                                strategy=strategy)
        ambiguous += _check_loop_against_reference(config)
    assert ambiguous > 0


@pytest.mark.parametrize("per_group", [1, 1023, 1024, 1025])
@pytest.mark.parametrize("groups", [1, 63, 64, 65])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_loop_passes_match_the_one_draw_reference(strategy, groups, per_group):
    # a pass reads one block of up to 64 groups: at and either side of the
    # edges of a pass and of a block, every state is still its own draw, and
    # from 1023 states per group some draws hash their tail
    ambiguous = 0
    for n in (8, 14):
        config = ProtocolConfig(seed=_SEED, params=PlanParams(n), per_group=per_group, groups=groups, trials=2,
                                strategy=strategy)
        ambiguous += _check_loop_against_reference(config)
    assert ambiguous > 0 or per_group == 1


def _chi2_critical(df, level):
    """The x with P(chi2 > x) = level at an even number df of degrees of
    freedom, where the survival function is exp(-x/2) times the sum of
    (x/2)^j / j! over j < df/2: bisected to the last double at which it
    still exceeds the level."""
    assert df % 2 == 0

    def survival(x):
        return math.exp(-x / 2) * sum((x / 2) ** j / math.factorial(j) for j in range(df // 2))

    lo, hi = 0.0, 1000.0
    while lo < (mid := (lo + hi) / 2) < hi:
        if survival(mid) > level:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("strategy", [Strategy.SPM, Strategy.RANDOM_PER_STATE])
def test_joint_table_level_and_bit_frequencies(strategy):
    # like acceptance criterion 9, over (part, level, bit) cells; levels
    # 4..m are pooled, and so are an eta class's two bits (p0 is about 2^-127)
    # so that every cell expects at least 5 states
    sampler = law(strategy, P8)
    cells = [
        (i, min(c.level, 4) if c.level <= P8.m else c.level, None if LeafClass.ETA in c.leaf_classes else bit)
        for i, part in enumerate(_parts(sampler))
        for c in part.classes
        for bit in (0, 1)
    ]
    exact = Counter()
    for cell, (weight, _, _) in zip(cells, law_rows(sampler)):
        exact[cell] += weight
    table = sampler.table
    samples = 10**5
    draws = (CounterStream(271828, i).next_int() for i in range(samples))
    observed = Counter(cells[bisect_right(table.cuts, k)] for k in draws)
    expected = {cell: float(p) * samples for cell, p in exact.items()}
    assert min(expected.values()) >= 5
    statistic = sum((observed[cell] - e) ** 2 / e for cell, e in expected.items())
    assert statistic <= _chi2_critical(len(expected) - 1, 0.001)


class TestRunProtocol:
    def test_deterministic(self):
        config = ProtocolConfig(seed=11, trials=2, per_group=10, groups=4)
        first, again = (run_protocol(config, law(config.strategy, config.params)) for _ in range(2))
        assert first == again

    def test_counts_complete(self):
        config = ProtocolConfig(seed=5, trials=1, per_group=30, groups=20, strategy=Strategy.CPM)
        (trial,) = run_protocol(config, law(config.strategy, config.params))
        assert len(trial["per_group"]) == 20
        for group in trial["per_group"]:
            assert group["zeros"] + group["ones"] == 30
        assert trial["eta_hits"] == 0  # uniform plan never reaches the exceptional leaf

    def test_cascade_hits_exceptional_leaf(self):
        config = ProtocolConfig(seed=5, trials=1, per_group=100, groups=4, strategy=Strategy.SPM)
        (trial,) = run_protocol(config, law(config.strategy, config.params))
        # 400 states at ~1/4 each; grossly improbable to miss entirely
        assert trial["eta_hits"] > 50

    def test_random_per_state_runs(self):
        config = ProtocolConfig(
            seed=9, trials=1, per_group=20, groups=3, strategy=Strategy.RANDOM_PER_STATE
        )
        first, again = (run_protocol(config, law(config.strategy, config.params)) for _ in range(2))
        assert first == again

    def test_memory_bounded_in_per_group(self):
        # one block of draws is held at a time, whatever the group's size
        config = ProtocolConfig(seed=4, per_group=10**5, groups=1, trials=1)
        sampler = law(config.strategy, config.params)
        tracemalloc.start()
        try:
            (trial,) = run_protocol(config, sampler)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trial["per_group"][0]["zeros"] + trial["per_group"][0]["ones"] == 10**5
        assert peak < 2**20, peak

    def test_memory_bounded_in_groups(self):
        # a pass holds one block of at most 64 groups, whatever the number
        # of groups (about 0.5 MB here); one pass over all 2000 groups of a
        # full block peaks at about 6.5 MB of lead bytes, codes and bits
        # (cpm at n = 8 has no ambiguous byte, so no tail is hashed)
        config = ProtocolConfig(seed=4, per_group=_BLOCK, groups=2000, trials=1, strategy=Strategy.CPM)
        sampler = law(config.strategy, config.params)
        tracemalloc.start()
        try:
            (trial,) = run_protocol(config, sampler)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(group["zeros"] + group["ones"] for group in trial["per_group"]) == 2000 * _BLOCK
        assert peak < 16 * 64 * _BLOCK, peak

    def test_each_count_decided_once(self, monkeypatch):
        # a group's vote and record depend only on its count of ones: each
        # distinct count is decided once per run, and equal counts share a record
        voted = []
        vote = _Decider._vote
        monkeypatch.setattr(_Decider, "_vote", lambda self, ones: voted.append(ones) or vote(self, ones))
        config = ProtocolConfig(seed=6, per_group=12, groups=20, trials=5)
        trials = run_protocol(config, law(config.strategy, config.params))
        records = [record for trial in trials for record in trial["per_group"]]
        assert sorted(voted) == sorted({record["ones"] for record in records})
        assert len({id(record) for record in records}) == len(voted) < len(records)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ProtocolConfig(seed=1, per_group=0)

    # a float count would otherwise fail only later, in `range`, and a bool would be written as JSON true
    @pytest.mark.parametrize("field, value", [
        ("per_group", 2.5), ("groups", 2.0), ("trials", "3"), ("per_group", True), ("trials", True),
    ])
    def test_non_int_count(self, field, value):
        with pytest.raises(ValueError, match="^per_group, groups and trials must be ints, got "):
            ProtocolConfig(seed=1, **{field: value})

    def test_non_fraction_threshold(self):
        with pytest.raises(ValueError, match=r"^threshold must be a Fraction, got 1\.33$"):
            ProtocolConfig(seed=1, threshold=1.33)

    # each would otherwise fail only in the run, as a KeyError or an AttributeError
    @pytest.mark.parametrize("field, value, message", [
        ("strategy", "spm", r"^strategy must be a Strategy, got 'spm'$"),
        ("params", 8, r"^params must be a PlanParams, got 8$"),
    ])
    def test_wrong_type_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ProtocolConfig(seed=1, **{field: value})

    def test_group_vote_boundary(self):
        # a group votes spm when ones/zeros reaches the threshold or zeros is 0;
        # the majority needs more than half the groups, so a tie goes to cpm
        config = ProtocolConfig(seed=1, per_group=7, groups=4, threshold=Fraction(4, 3),
                                strategy=Strategy.SPM)
        assert _Decider(config).trial([4, 7, 3, 0], 0) == {
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
    def test_votes_from_counts(self, monkeypatch):
        # a trial's decision needs only its groups' votes: no group record is built
        def no_record(self, ones):
            raise AssertionError(f"built a group record for count {ones}")

        monkeypatch.setattr(_Decider, "_record", no_record)
        config = ProtocolConfig(seed=12, trials=4, per_group=10, groups=4)
        assert len(discriminate(config)["trials"]) == 4

    def test_truth_coin_and_trials(self):
        # each trial's truth is the fair coin of its own truth stream, and its
        # states are those of the same trial under that fixed strategy
        settings = dict(seed=12, trials=8, per_group=10, groups=4)
        config = ProtocolConfig(**settings)
        report = discriminate(config)
        runs = {s: run_protocol(ProtocolConfig(**settings, strategy=s), law(s, config.params))
                for s in (Strategy.CPM, Strategy.SPM)}
        for t, trial in enumerate(report["trials"]):
            coin = CounterStream(config.seed, 1, t).next_int()
            truth = Strategy.SPM if coin < _cut(Fraction(1, 2)) else Strategy.CPM
            assert trial["truth"] == truth.value
            run = runs[truth][t]
            assert (trial["decision"], trial["eta_hits"]) == (run["overall_decision"], run["eta_hits"])

    def test_truth_coin_hashes_no_tail(self, monkeypatch):
        # value 0 of the truth stream is below 2^255 exactly when its lead
        # byte is below 128, so the coin hashes each truth path (seed, 1, t)
        # as a lead message and never one of its tail messages
        hashed = []
        shake_256 = hashlib.shake_256
        monkeypatch.setattr(hashlib, "shake_256", lambda message: hashed.append(message) or shake_256(message))
        config = ProtocolConfig(seed=12, trials=8, per_group=10, groups=4)
        discriminate(config)
        truth_paths = {_pack(config.seed, 1, t) for t in range(config.trials)}
        assert truth_paths <= set(hashed)
        assert [m for m in hashed if m not in truth_paths and m.startswith(tuple(truth_paths))] == []

    def test_deterministic_and_scored(self):
        config = ProtocolConfig(seed=3, trials=20, per_group=30, groups=20)
        report = discriminate(config)
        again = discriminate(config)
        assert report["accuracy"] == again["accuracy"]
        assert report["confusion"] == again["confusion"]
        total = sum(v for row in report["confusion"].values() for v in row.values())
        assert total == 20
        assert len(report["trials"]) == 20
