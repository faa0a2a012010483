"""Exact verification.

`bob_marginal` sums the receiver's outcome weights (`receiver_marginal`)
over a plan's outcome classes (m + 1 for cpm and spm; one per leaf for a
random plan), giving the marginal as an exact rational.
`checkpoint_report` regenerates the reference quantities of the paper's
instance (`ProtocolConfig`'s defaults) from first principles and
compares each against its expected value at a stated tolerance.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from .amplitude import unlimited_int_digits
from .engine import Basis, bob_distribution
from .plans import (
    LeafClass,
    MeasurementPlan,
    PlanParams,
    census,
    constants,
    cpm_plan,
    outcome_classes,
    spm_plan,
)
from .protocol import ProtocolConfig, check_seed, w_statistic


def receiver_marginal(classes) -> tuple[Fraction, Fraction]:
    """Receiver's exact computational-basis marginal over the leaves of
    `classes`; the states of a class share both squared amplitudes."""
    return (
        sum((c.summed(abs(c.states[0].amp0)) for c in classes), Fraction(0)),
        sum((c.summed(abs(c.states[0].amp1)) for c in classes), Fraction(0)),
    )


def bob_marginal(plan: MeasurementPlan, params: PlanParams) -> tuple[Fraction, Fraction]:
    """Receiver's exact marginal, summed over the plan's outcome classes."""
    return receiver_marginal(outcome_classes(plan, params))


def random_plan(params: PlanParams, seed: int) -> MeasurementPlan:
    """Adaptive plan whose basis at every history is a hash-derived exact
    orthonormal pair; deterministic in (seed, history)."""
    check_seed(seed, "random plan seed")

    def chooser(history: str) -> Basis:
        digest = hashlib.sha256(
            b"random-basis" + seed.to_bytes(8, "big") + history.encode()
        ).digest()
        # keep both coefficients nonzero so branches never vanish
        t = Fraction(int.from_bytes(digest[:8], "big") % (2**64 - 1) + 1, 2**64)
        s0 = 1 if digest[8] & 1 else -1
        s1 = 1 if digest[9] & 1 else -1
        return Basis(s0 * t, s1 * (1 - t))

    return MeasurementPlan(params.m, chooser, name=f"random-{seed}")


def _check(name: str, computed: str, expected: str, tolerance: str, status: str) -> dict:
    """One `verify --json` entry; status is PASS, FAIL or INFO."""
    return {
        "check_name": name,
        "computed_value": computed,
        "expected_value": expected,
        "tolerance": tolerance,
        "status": status,
    }


def _exact(name: str, computed, expected) -> dict:
    status = "PASS" if computed == expected else "FAIL"
    return _check(name, str(computed), str(expected), "exact", status)


def _approx(name: str, computed: Fraction, expected: str, tolerance: str) -> dict:
    ok = abs(computed - Fraction(expected)) <= Fraction(tolerance)
    return _check(name, repr(float(computed)), expected, tolerance, "PASS" if ok else "FAIL")


_REFERENCE = ProtocolConfig.params

_F_SQ_EXPECTED = {
    2: Fraction(5, 2),
    3: Fraction(17, 4),
    4: Fraction(257, 16),
    5: Fraction(65537, 256),
    6: Fraction(2**32 + 1, 2**16),
    7: Fraction(2**64 + 1, 2**32),
}


_HALVES = (Fraction(1, 2), Fraction(1, 2))  # the receiver's marginal under every plan


@unlimited_int_digits()  # the exact fields of deep trees outgrow the int-to-str limit
def checkpoint_report(params: PlanParams) -> list[dict]:
    checks: list[dict] = []
    cascade = constants(params)
    classes = outcome_classes(spm_plan(params), params)
    m = params.m

    if params == _REFERENCE:
        for k, expected in _F_SQ_EXPECTED.items():
            checks.append(_exact(f"f{k}_sq", cascade.F_sq[k - 1], expected))

    r, e = params.ratio, 2 ** (m - 1)
    if r != 1:  # the closed form of T_m^2 is singular at x^2 = 1/2
        checks.append(_exact(f"t{m}_sq_telescoping", cascade.T_sq[-1], (r**e - r**-e) / (r - 1 / r)))

    levels, _, probability = census(classes)
    checks.append(
        _exact(
            "leaf_census",
            "/".join(str(levels[level]) for level in range(1, m + 2)),
            "/".join(str(2 ** (m - level)) for level in range(1, m + 1)) + "/1",
        )
    )
    checks.append(_exact("probability_total", sum(probability.values()), 1))

    mu = (LeafClass.MU_PLUS, LeafClass.MU_MINUS)
    # the all-perp leaf (level m + 1) has no stage prefactor, though at x^2 = 1/2 it is mu
    prefactors_ok = all(
        c.probability == Fraction(1, 2 ** (m - c.level + 1)) * 1 / cascade.T_sq[c.level - 1]
        for c in classes
        if c.level <= m and any(leaf_class in mu for leaf_class in c.leaf_classes)
    )
    checks.append(_exact("mu_leaf_prefactors", prefactors_ok, True))

    if params == _REFERENCE:
        checks.append(_approx("mu_probability", sum(probability[lc] for lc in mu), "0.75", "1e-37"))
        checks.append(_approx("eta_probability", probability[LeafClass.ETA], "0.25", "1e-37"))

        # the spine walk ends at the all-perp leaf, a class of depth 0
        checks.append(_exact("eta_leaf_matches_enumeration", classes[-1].states[0], cascade.eta_leaf))
        p0, p1 = bob_distribution(cascade.eta_leaf)
        checks.append(_approx("eta_bias_u", p1 / p0, "1.7e38", "1.7e36"))

        per_group = ProtocolConfig.per_group
        checks.append(_approx("w_1", w_statistic(1, params, per_group), "1.655", "1e-3"))
        checks.append(_approx("w_2", w_statistic(2, params, per_group), "3.43", "1e-2"))
        checks.append(_approx("w_1_n7", w_statistic(1, PlanParams(7), per_group), "0.83", "1e-2"))
        checks.append(_approx("w_1_n6", w_statistic(1, PlanParams(6), per_group), "0.41", "1e-2"))

    checks.append(_exact("marginal_uniform_plan", bob_marginal(cpm_plan(params), params), _HALVES))
    checks.append(_exact("marginal_cascade_plan", receiver_marginal(classes), _HALVES))

    checks.append(
        _check(
            "claimed_outcome_skew",
            "ones:zeros = 1:1 exactly under either strategy",
            "ones:zeros = W:1 with W >= 1.655 under the cascade",
            "n/a",
            "INFO",  # the exact marginal contradicts the claimed skew
        )
    )
    return checks


def no_signaling_suite(plans_per_n: int, seed: int) -> list[dict]:
    """Exact (1/2, 1/2) marginal for the built-in plans and random
    adaptive plans at chain lengths 3..8.  Random plan i at length n
    takes its seed from a SHA-256 of (seed, n, i)."""
    if plans_per_n < 0:
        raise ValueError(f"random plans per chain length must be nonnegative, got {plans_per_n}")
    check_seed(seed, "random plan seed")
    checks = []
    for n in range(3, 9):
        params = PlanParams(n)
        checks.append(_exact(f"marginal_uniform_n{n}", bob_marginal(cpm_plan(params), params), _HALVES))
        checks.append(_exact(f"marginal_cascade_n{n}", bob_marginal(spm_plan(params), params), _HALVES))
        for i in range(plans_per_n):
            packed = b"".join(v.to_bytes(8, "big") for v in (seed, n, i))
            plan = random_plan(params, int.from_bytes(hashlib.sha256(packed).digest()[:8], "big"))
            checks.append(_exact(f"marginal_random_n{n}_{i}", bob_marginal(plan, params), _HALVES))
    return checks
