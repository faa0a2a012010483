"""Brute-force exact verification.

`bob_marginal` sums the receiver's outcome weights over every branch of
an arbitrary adaptive plan, giving the marginal as an exact rational.
`checkpoint_report` regenerates the reference quantities of the default
instance (n=8, x^2=2/3) from first principles and compares each against
its expected value at a stated tolerance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

from .amplitude import ExactAmplitude, fraction_float
from .engine import Basis, bob_distribution
from .plans import (
    LeafClass,
    MeasurementPlan,
    PlanParams,
    constants,
    cpm_plan,
    enumerate_branches,
    eta_state,
    level_census,
    spm_plan,
)
from .protocol import w_statistic


def bob_marginal(plan: MeasurementPlan, params: PlanParams) -> tuple[Fraction, Fraction]:
    """Receiver's exact computational-basis marginal, summed over all of
    the sender's outcome branches."""
    p0 = Fraction(0)
    p1 = Fraction(0)
    for record in enumerate_branches(plan, params):
        p0 += record.bob_state.amp0.sq()
        p1 += record.bob_state.amp1.sq()
    return p0, p1


def random_plan(params: PlanParams, seed: int) -> MeasurementPlan:
    """Adaptive plan whose basis at every history is a hash-derived exact
    orthonormal pair; deterministic in (seed, history)."""

    def chooser(history: str) -> Basis:
        digest = hashlib.sha256(
            b"random-basis" + seed.to_bytes(8, "big") + history.encode()
        ).digest()
        # keep both coefficients nonzero so branches never vanish
        t = Fraction(int.from_bytes(digest[:8], "big") % (2**64 - 1) + 1, 2**64)
        s0 = 1 if digest[8] & 1 else -1
        s1 = 1 if digest[9] & 1 else -1
        return Basis(ExactAmplitude(s0, t), ExactAmplitude(s1, 1 - t))

    return MeasurementPlan(params.m, chooser, name=f"random-{seed}")


@dataclass(frozen=True)
class Check:
    name: str
    computed: str
    expected: str
    tolerance: str
    status: str  # PASS, FAIL or INFO

    @property
    def passed(self) -> bool:
        return self.status != "FAIL"

    def to_json(self) -> dict:
        return {
            "check_name": self.name,
            "computed_value": self.computed,
            "expected_value": self.expected,
            "tolerance": self.tolerance,
            "status": self.status,
        }


def _exact(name: str, computed, expected) -> Check:
    return Check(
        name,
        str(computed),
        str(expected),
        "exact",
        "PASS" if computed == expected else "FAIL",
    )


def _approx(name: str, computed: Fraction, expected: str, tolerance: str) -> Check:
    ok = abs(computed - Fraction(expected)) <= Fraction(tolerance)
    return Check(name, repr(fraction_float(computed)), expected, tolerance, "PASS" if ok else "FAIL")


_DEFAULT = PlanParams(8)

_F_SQ_EXPECTED = {
    2: Fraction(5, 2),
    3: Fraction(17, 4),
    4: Fraction(257, 16),
    5: Fraction(65537, 256),
    6: Fraction(2**32 + 1, 2**16),
    7: Fraction(2**64 + 1, 2**32),
}


def telescoping_t_sq(params: PlanParams) -> Fraction:
    """Closed form for the final product of stage normalizers, valid for
    ratio != 1 (the symmetric case needs the direct product)."""
    r = params.ratio
    if r == 1:
        raise ZeroDivisionError("closed form is singular at x^2 = 1/2")
    e = 2 ** (params.m - 1)
    return (r**e - r**-e) / (r - 1 / r)


def checkpoint_report(params: PlanParams = _DEFAULT) -> list[Check]:
    checks: list[Check] = []
    cascade = constants(params)
    records = enumerate_branches(spm_plan(params), params)
    m = params.m

    if params.n == 8 and params.x_sq == Fraction(2, 3):
        for k, expected in _F_SQ_EXPECTED.items():
            checks.append(_exact(f"f{k}_sq", cascade.F[k - 1].sq(), expected))

    if params.ratio != 1:
        checks.append(
            _exact(f"t{m}_sq_telescoping", cascade.T[-1].sq(), telescoping_t_sq(params))
        )

    census = level_census(records)
    checks.append(
        _exact(
            "leaf_census",
            "/".join(str(census[level]) for level in range(1, m + 2)),
            "/".join(str(2 ** (m - level)) for level in range(1, m + 1)) + "/1",
        )
    )
    checks.append(_exact("probability_total", sum(r.probability for r in records), Fraction(1)))

    prefactors_ok = all(
        record.probability == Fraction(1, 2 ** (m - record.level + 1)) * 1 / cascade.T[record.level - 1].sq()
        for record in records
        if record.leaf_class in (LeafClass.MU_PLUS, LeafClass.MU_MINUS)
    )
    checks.append(_exact("mu_leaf_prefactors", prefactors_ok, True))

    mu_total = sum(
        r.probability for r in records if r.leaf_class in (LeafClass.MU_PLUS, LeafClass.MU_MINUS)
    )
    eta_total = sum(r.probability for r in records if r.leaf_class is LeafClass.ETA)
    if params.n == 8 and params.x_sq == Fraction(2, 3):
        checks.append(_approx("mu_probability", mu_total, "0.75", "1e-37"))
        checks.append(_approx("eta_probability", eta_total, "0.25", "1e-37"))

        eta = eta_state(params)
        checks.append(
            _exact("eta_leaf_matches_enumeration", records[-1].bob_state, eta.leaf)
        )
        p0, p1 = bob_distribution(eta.normalized)
        checks.append(_approx("eta_bias_u", p1 / p0, "1.7e38", "1.7e36"))

        w1 = w_statistic(1, params, 30)
        w2 = w_statistic(2, params, 30)
        checks.append(_approx("w_1", w1, "1.655", "1e-3"))
        checks.append(_approx("w_2", w2, "3.43", "1e-2"))
        checks.append(_approx("w_1_n7", w_statistic(1, PlanParams(7), 30), "0.83", "1e-2"))
        checks.append(_approx("w_1_n6", w_statistic(1, PlanParams(6), 30), "0.41", "1e-2"))

    half = (Fraction(1, 2), Fraction(1, 2))
    checks.append(_exact("marginal_uniform_plan", bob_marginal(cpm_plan(params), params), half))
    checks.append(_exact("marginal_cascade_plan", bob_marginal(spm_plan(params), params), half))

    checks.append(
        Check(
            "claimed_outcome_skew",
            "ones:zeros = 1:1 exactly under either strategy",
            "ones:zeros = W:1 with W >= 1.655 under the cascade",
            "n/a",
            "INFO",  # the exact marginal contradicts the claimed skew
        )
    )
    return checks


def no_signaling_suite(
    plans_per_n: int = 5, seed: int = 0, ns: tuple[int, ...] = (3, 4, 5, 6, 7, 8)
) -> list[Check]:
    """Exact (1/2, 1/2) marginal for the built-in plans and random
    adaptive plans across chain lengths."""
    half = (Fraction(1, 2), Fraction(1, 2))
    checks = []
    for n in ns:
        params = PlanParams(n)
        checks.append(_exact(f"marginal_uniform_n{n}", bob_marginal(cpm_plan(params), params), half))
        checks.append(_exact(f"marginal_cascade_n{n}", bob_marginal(spm_plan(params), params), half))
        for i in range(plans_per_n):
            plan = random_plan(params, seed * 1000 + n * 100 + i)
            checks.append(_exact(f"marginal_random_n{n}_{i}", bob_marginal(plan, params), half))
    return checks
