"""The integer class pipeline against its `Fraction` form (tests/reference.py)."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from ghzdisc import LeafSampler, PlanParams, bob_marginal, cpm_plan, law, random_plan, spm_plan
from ghzdisc.cli import _branch_row, _parity_rows, main
from ghzdisc.engine import ChainState
from ghzdisc.plans import CascadeConstants, MeasurementPlan, census, constants
from ghzdisc.protocol import RESOLUTION_BITS, Strategy, _cut

_X_SQ = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=40)


def _plan(kind, params, seed=0):
    """A built-in spine plan, the same rule as a step plan (walked node by
    node, one class per leaf), or a random plan."""
    if kind == "random":
        return random_plan(params, seed)
    plan = {"cpm": cpm_plan, "spm": spm_plan}[kind.removesuffix("-steps")](params)
    return MeasurementPlan(params.m, plan.step) if kind.endswith("-steps") else plan


def _reference_rows(c):
    """Each state's `_branch_row`, rendered from the `Fraction` class on its own."""
    return [_branch_row(c.head, c.probability, state, lc, c.level) for state, lc in zip(c.states, c.leaf_classes)]


def assert_matches_reference(kind, params, seed=0):
    plan = _plan(kind, params, seed)
    sampler, expected = LeafSampler(plan, params), reference.LeafSampler(plan, params)
    assert len(sampler.classes) == len(expected.classes)
    for c, r in zip(sampler.classes, expected.classes):
        assert (c.head, c.depth, c.level) == (r.head, r.depth, r.level)
        odd = (ChainState(1, c.state.amp0, -c.state.amp1),) if c.depth else ()
        assert (c.probability, (c.state, *odd), c.leaf_classes) == (r.probability, r.states, r.leaf_classes), c.head
        assert _parity_rows(c) == _reference_rows(r), c.head
    levels, leaves, probability = census(sampler.classes)
    expected_levels, expected_leaves, expected_probability = reference.census(expected.classes)
    assert (levels, leaves) == (expected_levels, expected_leaves)
    assert {lc: probability.value(lc) for lc in probability} == expected_probability
    assert probability.value() == sum(expected_probability.values()) == 1
    assert reference.law_rows(sampler) == expected.rows
    assert sampler.table == expected.table
    assert sampler.marginal == expected.marginal == reference.bob_marginal(plan, params)
    assert bob_marginal(plan, params) == expected.marginal


_KIND_AND_N = st.one_of(
    st.tuples(st.sampled_from(["cpm", "spm"]), st.integers(min_value=3, max_value=14)),
    # a step plan has one class per leaf, so its `Fraction` reference is walked at fewer qubits
    st.tuples(st.sampled_from(["cpm-steps", "spm-steps", "random"]), st.integers(min_value=3, max_value=11)),
)


@settings(max_examples=30, deadline=None)
@given(_X_SQ, _KIND_AND_N, st.integers(min_value=0, max_value=2**64 - 1))
@example(Fraction(1, 2), ("spm", 14), 0)
@example(Fraction(1, 2), ("spm", 9), 0)
@example(Fraction(1, 2), ("spm-steps", 8), 0)
@example(Fraction(2, 3), ("spm", 14), 0)
@example(Fraction(3, 7), ("random", 11), 5)
def test_integer_classes_match_fraction_reference(x_sq, kind_and_n, seed):
    kind, n = kind_and_n
    assert_matches_reference(kind, PlanParams(n, x_sq), seed)


@pytest.mark.parametrize("n", [3, 8, 14])
@pytest.mark.parametrize("x_sq", [Fraction(2, 3), Fraction(1, 2), Fraction(9, 10)])
def test_mixture_table_matches_reference(n, x_sq):
    params = PlanParams(n, x_sq)
    mixture = law(Strategy.RANDOM_PER_STATE, params)
    expected = reference.MixtureSampler(
        reference.LeafSampler(spm_plan(params), params), reference.LeafSampler(cpm_plan(params), params)
    )
    assert reference.law_rows(mixture) == expected.rows
    assert mixture.table == expected.table
    assert mixture.marginal == expected.marginal


@st.composite
def _cut_pairs(draw):
    """(num, den), 0 <= num <= den, den up to 3000 bits: a random pair; one whose cut
    num/den * 2**256 is an exact integer (num/den = p/q with q a power of 2, both times g);
    or one a unit of num off such a pair, within 2**256/den of an integer cut."""
    kind = draw(st.sampled_from(["random", "exact", "near"]))
    bits = draw(st.integers(min_value=1, max_value=2700))  # half of them past 320 bits in den
    if kind == "random":
        den = draw(st.integers(min_value=1 << bits, max_value=2 << bits))
        return draw(st.integers(min_value=0, max_value=den)), den
    p = Fraction(draw(st.integers(min_value=0, max_value=1 << RESOLUTION_BITS)), 1 << RESOLUTION_BITS)
    g = draw(st.integers(min_value=1 << bits, max_value=2 << bits))
    num, den = p.numerator * g, p.denominator * g
    if kind == "near":
        num = min(max(num + draw(st.sampled_from([-1, 1])), 0), den)
    return num, den


# the cut from leading bits, with its exactness check, equals the exact division
@settings(max_examples=300, deadline=None)
@given(_cut_pairs())
@example((3**700, 2 * 3**700))  # the mixture's half-way cut, 2**255
@example((3**700, 3**700))  # the last cut, 2**256
@example((3 * 3**700 - 1, 4 * 3**700))  # just below 3 * 2**254, as a cascade's deep rows
@example((3 * 3**700 + 1, 4 * 3**700))
@example((3 * 7**350 - 1, 4 * 7**350))  # its 320-bit n/d is above 3/4: (n + 1)/d is no lower bound
@example((1, 2**400))  # a cut of 1 from a lower bound of 0
@example((0, 2**400))
@example((2**400 - 1, 2**400 - 1))  # d + 1 overflows to 321 bits
def test_cut_matches_exact_division(pair):
    assert _cut(*pair) == reference._cut(*pair)


# nested and shared denominators take no gcd and no division: a spine plan's
# census, table and marginal, the `random` law's table and marginal, built from
# its parts', and the marginal of every built-in or random plan
def test_spine_and_random_sums_take_no_gcd(monkeypatch):
    monkeypatch.setattr("ghzdisc.plans.gcd", lambda *args: pytest.fail("a gcd was taken"))
    monkeypatch.setattr("ghzdisc.plans.divmod", lambda *args: pytest.fail("a division was made"), raising=False)
    for x_sq in (Fraction(2, 3), Fraction(3, 7), Fraction(1, 2)):
        params = PlanParams(12, x_sq)
        for plan in (cpm_plan(params), spm_plan(params)):
            sampler = LeafSampler(plan, params)
            assert census(sampler.classes)[2].value() == 1
            assert sampler.table.cuts[-1] == 1 << 256 and sampler.marginal == (Fraction(1, 2), Fraction(1, 2))
        mixture = law(Strategy.RANDOM_PER_STATE, params)
        assert mixture.table.cuts[-1] == 1 << 256 and mixture.marginal == (Fraction(1, 2), Fraction(1, 2))
        for plan in (cpm_plan(params), spm_plan(params), random_plan(params, 3)):
            assert bob_marginal(plan, params) == (Fraction(1, 2), Fraction(1, 2))


# the telescoped node is the spine's product and the closed-form leaf, for u > v,
# u = v (x^2 = 1/2, den 2^(m+1)) and u < v (x^2 = 1/20)
@pytest.mark.parametrize("x_sq", [Fraction(2, 3), Fraction(3, 7), Fraction(1, 2), Fraction(1, 20)])
def test_eta_node_is_closed_form_leaf(x_sq):
    for n in range(3, 15):
        params = PlanParams(n, x_sq)
        cascade = constants(params)
        a0, a1, den = cascade.eta_node
        assert (a0, a1, den) == reference.eta_node(params)
        assert (Fraction(a0, den), Fraction(a1, den)) == (cascade.eta_leaf.amp0, cascade.eta_leaf.amp1)


def test_eta_node_is_spine_product_at_n20():
    params = PlanParams(20, Fraction(3, 7))
    assert constants(params).eta_node == reference.eta_node(params)


# the commands walk, classify, sample and report without any closed form
def test_commands_read_no_closed_form(monkeypatch, tmp_path, capsys):
    def closed_form(self):
        raise AssertionError("a command read a closed form")

    constants.cache_clear()
    for name in ("F_sq", "T_sq", "eta_leaf"):
        monkeypatch.setattr(CascadeConstants, name, property(closed_form))
    assert main(["enumerate", "--strategy", "spm", "--qubits", "8", "--out", str(tmp_path / "t.json")]) == 0
    assert "class census: eta:1 mu+:64 mu-:63" in capsys.readouterr().out
    for strategy in ("spm", "random"):
        argv = ["simulate", "--seed", "1", "--qubits", "8", "--strategy", strategy]
        assert main([*argv, "--out", str(tmp_path / f"{strategy}.json")]) == 0
