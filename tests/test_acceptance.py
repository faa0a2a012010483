"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line."""

import json
import math
import time
from collections import Counter
from fractions import Fraction

import pytest

from ghzdisc import (
    CounterStream,
    LeafClass,
    LeafSampler,
    PlanParams,
    ProtocolConfig,
    Strategy,
    bob_distribution,
    bob_marginal,
    constants,
    cpm_plan,
    discriminate,
    law,
    measure_next,
    random_plan,
    run_protocol,
    spm_plan,
    w_statistic,
)
from ghzdisc.cli import main
from ghzdisc.plans import enumerate_branches
from reference import ghz_state

P8 = PlanParams(8)
X_SQ = Fraction(2, 3)
Y_SQ = Fraction(1, 3)


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def ladder_t_sq(k):
    # reference product of stage normalizers, independent of the library
    r = X_SQ / Y_SQ
    product = Fraction(1)
    for j in range(2, k + 1):
        e = 2 ** (j - 2)
        product *= r**e + r**-e
    return product


def test_criterion_1_collapse_table(tmp_path, capsys):
    out = tmp_path / "table.json"
    start = time.perf_counter()
    code = main(["enumerate", "--strategy", "spm", "--qubits", "8", "--out", str(out)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    rows = json.loads(out.read_text())
    census = Counter()
    prefactors_ok = True
    for row in rows:
        census[row["level"]] += 1
        prob = Fraction(int(row["probability"]["num"]), int(row["probability"]["den"]))
        if row["class"] in ("mu+", "mu-"):
            level = row["level"]
            # squared prefactor 1/(g_n T_n)^2 with g_n = 2^((7-n)/2), times
            # the 1/2 squared norm of the sub-normalized leaf direction
            expected = Fraction(1, 2) / (2 ** (7 - level) * ladder_t_sq(level))
            prefactors_ok = prefactors_ok and prob == expected
    ok = (
        code == 0
        and len(rows) == 128
        and [census[k] for k in range(1, 9)] == [64, 32, 16, 8, 4, 2, 1, 1]
        and prefactors_ok
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, ok, f"128 branches, census 64/32/16/8/4/2/1/1, {elapsed:.2f}s")


def test_criterion_2_cascade_checkpoints(capsys):
    t2, t3, t4, t5, t6, t7 = (ladder_t_sq(k) for k in range(2, 8))
    expected = {
        "0": (1, X_SQ / 2, 1, Y_SQ / 2),
        "1": (1, Y_SQ / 2, -1, X_SQ / 2),
        "10": (1, X_SQ / (2 * t2), -1, Y_SQ / (2 * t2)),
        "11": (1, Y_SQ**2 / X_SQ / (2 * t2), 1, X_SQ**2 / Y_SQ / (2 * t2)),
        "110": (1, X_SQ / (2 * t3), 1, Y_SQ / (2 * t3)),
        "111": (1, Y_SQ**4 / X_SQ**3 / (2 * t3), -1, X_SQ**4 / Y_SQ**3 / (2 * t3)),
        "1110": (1, X_SQ / (2 * t4), -1, Y_SQ / (2 * t4)),
        "1111": (1, Y_SQ**8 / X_SQ**7 / (2 * t4), 1, X_SQ**8 / Y_SQ**7 / (2 * t4)),
        "11110": (1, X_SQ / (2 * t5), 1, Y_SQ / (2 * t5)),
        "11111": (1, Y_SQ**16 / X_SQ**15 / (2 * t5), -1, X_SQ**16 / Y_SQ**15 / (2 * t5)),
        "111110": (1, X_SQ / (2 * t6), -1, Y_SQ / (2 * t6)),
        "111111": (1, Y_SQ**32 / X_SQ**31 / (2 * t6), 1, X_SQ**32 / Y_SQ**31 / (2 * t6)),
        "1111111": (1, Y_SQ**64 / X_SQ**63 / (2 * t7), -1, X_SQ**64 / Y_SQ**63 / (2 * t7)),
    }
    plan = spm_plan(P8)
    ok = True
    for history, (s0, a0, s1, a1) in expected.items():
        state = ghz_state(8)
        for depth, bit in enumerate(history):
            state = measure_next(state, plan.basis_for(history[:depth]))[int(bit)]
        ok = ok and state.amp0 == s0 * a0 and state.amp1 == s1 * a1
    with capsys.disabled():
        report(2, ok, f"{len(expected)} intermediate states match exactly, signs included")


def test_criterion_3_probability_split(capsys):
    records = enumerate_branches(spm_plan(P8), P8)
    mu = sum(
        r.probability for r in records if r.leaf_classes[0] in (LeafClass.MU_PLUS, LeafClass.MU_MINUS)
    )
    eta = sum(r.probability for r in records if r.leaf_classes[0] is LeafClass.ETA)
    correction = Fraction(3, 4 * (2**128 - 1))
    ok = (
        mu == Fraction(3, 4) - correction
        and eta == Fraction(1, 4) + correction
        and abs(mu - Fraction(3, 4)) < Fraction(1, 10**37)
        and abs(eta - Fraction(1, 4)) < Fraction(1, 10**37)
    )
    with capsys.disabled():
        report(3, ok, "P(mu) = 3/4 - 3/(4(2^128-1)), P(eta) = 1/4 + 3/(4(2^128-1)) exactly")


def test_criterion_4_eta_bias(capsys):
    p0, p1 = bob_distribution(constants(P8).eta_leaf)
    u = p1 / p0
    ok = u == 2**127 and abs(float(u) / 1.7e38 - 1) < 0.01
    with capsys.disabled():
        report(4, ok, f"p1/p0 = 2^127 exactly, float {float(u):.4g} within 1% of 1.7e38")


def test_criterion_5_w_values(capsys):
    w1 = float(w_statistic(1, P8, 30))
    w2 = float(w_statistic(2, P8, 30))
    w7 = float(w_statistic(1, PlanParams(7), 30))
    w6 = float(w_statistic(1, PlanParams(6), 30))
    ok = (
        abs(w1 - 1.655) < 1e-3
        and abs(w2 - 3.43) < 1e-2
        and abs(w7 - 0.83) < 1e-2
        and abs(w6 - 0.41) < 1e-2
    )
    with capsys.disabled():
        report(5, ok, f"w1={w1:.4f} w2={w2:.3f} n7={w7:.3f} n6={w6:.3f}")


def test_criterion_6_constants(capsys):
    cascade = constants(P8)
    expected = [
        Fraction(5, 2),
        Fraction(17, 4),
        Fraction(257, 16),
        Fraction(65537, 256),
        Fraction(2**32 + 1, 2**16),
        Fraction(2**64 + 1, 2**32),
    ]
    r = X_SQ / Y_SQ
    telescoped = (r**64 - r**-64) / (r - 1 / r)
    ok = list(cascade.F_sq[1:]) == expected and cascade.T_sq[-1] == telescoped
    with capsys.disabled():
        report(6, ok, "F_2^2..F_7^2 exact, telescoping identity for T_7^2 exact")


def test_criterion_7_no_signaling(capsys):
    half = (Fraction(1, 2), Fraction(1, 2))
    plans_checked = 0
    ok = True
    for n in range(3, 9):
        params = PlanParams(n)
        ok = ok and bob_marginal(cpm_plan(params), params) == half
        ok = ok and bob_marginal(spm_plan(params), params) == half
        for seed in range(17):
            ok = ok and bob_marginal(random_plan(params, seed), params) == half
            plans_checked += 1
    with capsys.disabled():
        report(7, ok and plans_checked >= 100,
               f"marginal (1/2, 1/2) exact for {plans_checked} random plans plus built-ins, n=3..8")


def test_criterion_8_claimed_skew_not_reproduced(capsys):
    # The claimed receiver-side 1:W outcome skew under the cascade would
    # contradict the exact marginal of criterion 7; the substitute check
    # is that sampling agrees with the marginal and the decision rule
    # performs at chance.
    start = time.perf_counter()
    sim = ProtocolConfig(seed=20260824, per_group=50000, groups=20, strategy=Strategy.SPM)
    ((ones_per_group, _),) = run_protocol(sim, law(sim.strategy, sim.params))
    ones = sum(ones_per_group)
    p1 = ones / 10**6
    disc = ProtocolConfig(seed=31337, trials=200, per_group=30, groups=20)
    accuracy = discriminate(disc)["accuracy"]
    elapsed = time.perf_counter() - start
    sigma_p = 0.0015  # 3 sigma for 10^6 Bernoulli(1/2) draws
    sigma_acc = 3 * 0.5 / 200**0.5
    ok = abs(p1 - 0.5) <= sigma_p and abs(accuracy - 0.5) <= sigma_acc and elapsed < 60.0
    with capsys.disabled():
        report(8, ok,
               f"empirical P(1)={p1:.6f} (|d|<=0.0015), accuracy={accuracy:.3f} "
               f"(chance +/- {sigma_acc:.3f}), {elapsed:.1f}s")


def _chi2_df4_critical(level):
    """The x with P(chi2 > x) = level at 4 degrees of freedom, where the
    survival function is exp(-x/2) * (1 + x/2): bisected to the last
    double at which it still exceeds the level."""
    lo, hi = 0.0, 100.0
    while lo < (mid := (lo + hi) / 2) < hi:
        if math.exp(-mid / 2) * (1 + mid / 2) > level:
            lo = mid
        else:
            hi = mid
    return lo


def test_criterion_9_sampler_oracle_agreement(capsys):
    params = P8
    sampler = LeafSampler(spm_plan(params), params)
    samples = 10**5
    observed = Counter()
    for i in range(samples):
        drawn, _ = sampler.sample(CounterStream(271828, i))
        observed[drawn.level] += 1
    exact = Counter()
    for c in sampler.classes:
        exact[c.level] += c.probability * 2**c.depth
    # pool levels 4..7 so every bin has expected count >= 5
    def pool(counter):
        return [
            counter[1],
            counter[2],
            counter[3],
            sum(counter[k] for k in range(4, 8)),
            counter[8],
        ]

    obs = pool(observed)
    exp = [float(p) * samples for p in pool(exact)]
    statistic = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    critical = _chi2_df4_critical(0.001)  # 5 bins, 4 degrees of freedom
    ok = statistic <= critical
    with capsys.disabled():
        report(9, ok, f"chi2={statistic:.2f} <= {critical:.2f} over {samples} samples, 5 bins")


def test_criterion_10_determinism(tmp_path, capsys):
    outputs = []
    for tag in ("a", "b"):
        files = {
            "enum": tmp_path / f"enum_{tag}.json",
            "sim": tmp_path / f"sim_{tag}.json",
            "disc": tmp_path / f"disc_{tag}.json",
            "verify": tmp_path / f"verify_{tag}.json",
        }
        main(["enumerate", "--strategy", "spm", "--out", str(files["enum"])])
        main(["simulate", "--seed", "12", "--groups", "5", "--per-group", "12",
              "--strategy", "random", "--out", str(files["sim"])])
        main(["discriminate", "--seed", "12", "--trials", "5", "--groups", "4",
              "--per-group", "10", "--out", str(files["disc"])])
        main(["verify", "--random-plans", "2", "--json", str(files["verify"])])
        capsys.readouterr()
        outputs.append({k: v.read_bytes() for k, v in files.items()})
    ok = outputs[0] == outputs[1]
    with capsys.disabled():
        report(10, ok, "enumerate/simulate/discriminate/verify byte-identical across reruns")
