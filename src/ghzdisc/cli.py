"""Command-line entry point.

Subcommands: enumerate, simulate, discriminate, marginal, verify.
Exact rationals appear in every output as decimal numerator/denominator
strings with a float convenience field; the exact fields are
authoritative.  Identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import Counter
from fractions import Fraction

from .amplitude import fraction_float, fraction_json
from .oracle import bob_marginal, checkpoint_report, no_signaling_suite
from .plans import PlanParams, PlanError, cpm_plan, enumerate_branches, level_census, spm_plan
from .protocol import ProtocolConfig, Strategy, discriminate, run_protocol, w_statistic

OUT_DIR_ENV = "GHZDISC_OUT_DIR"


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _plan_for(strategy: str, params: PlanParams):
    return cpm_plan(params) if strategy == "cpm" else spm_plan(params)


def _branch_row(r) -> dict:
    return {
        "outcomes": r.outcomes,
        "probability": fraction_json(r.probability),
        "class": r.leaf_class.value,
        "level": r.level,
        "bob_amp0": r.bob_state.amp0.to_json(),
        "bob_amp1": r.bob_state.amp1.to_json(),
    }


_CSV_HEADER = [
    "outcomes", "prob_num", "prob_den", "prob_float", "class", "level",
    "amp0_sign", "amp0_num", "amp0_den", "amp1_sign", "amp1_num", "amp1_den",
]


def _csv_row(row: dict) -> list:
    """Flat form of a `_branch_row`, without the amplitude floats."""
    p, a0, a1 = row["probability"], row["bob_amp0"], row["bob_amp1"]
    return [
        row["outcomes"], p["num"], p["den"], repr(p["float"]), row["class"], row["level"],
        a0["sign"], a0["num"], a0["den"], a1["sign"], a1["num"], a1["den"],
    ]


def _census_lines(records) -> str:
    levels = level_census(records)
    classes = Counter(r.leaf_class.value for r in records)
    level_text = " ".join(f"{k}:{levels[k]}" for k in sorted(levels))
    class_text = " ".join(f"{k}:{classes[k]}" for k in sorted(classes))
    total = sum(r.probability for r in records)
    return (
        f"branches: {len(records)}\n"
        f"level census: {level_text}\n"
        f"class census: {class_text}\n"
        f"total probability: {total} (exact)\n"
    )


def cmd_enumerate(args) -> int:
    params = PlanParams(args.qubits, args.x_sq)
    records = enumerate_branches(_plan_for(args.strategy, params), params)
    sys.stdout.write(_census_lines(records))
    rows = map(_branch_row, records)
    if args.format == "json":
        text = _json_text(list(rows))
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        writer.writerows(map(_csv_row, rows))
        text = buffer.getvalue()
    _write_text(_resolve_out(args.out), text)
    return 0


def _config_from_args(args) -> ProtocolConfig:
    return ProtocolConfig(
        seed=args.seed,
        n=args.qubits,
        x_sq=args.x_sq,
        per_group=args.per_group,
        groups=args.groups,
        strategy=Strategy(args.strategy),
        trials=args.trials,
        threshold=Fraction(str(args.threshold)),
    )


def _config_json(config: ProtocolConfig) -> dict:
    return {
        "seed": config.seed,
        "qubits": config.n,
        "x_sq": {"num": str(config.x_sq.numerator), "den": str(config.x_sq.denominator)},
        "per_group": config.per_group,
        "groups": config.groups,
        "strategy": config.strategy.value,
        "trials": config.trials,
        "threshold": float(config.threshold),
    }


def _trial_json(trial) -> dict:
    return {
        "per_group": [
            {"zeros": g.zeros, "ones": g.ones, "ratio": g.ratio, "decision": g.decision.value}
            for g in trial.groups
        ],
        "eta_hits": trial.eta_hits,
        "overall_decision": trial.decision.value,
    }


def _write_group_csv(path: str, trials) -> None:
    with open(path, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["trial", "group", "zeros", "ones", "ratio", "decision"])
        for t, trial in enumerate(trials):
            for g, group in enumerate(trial.groups):
                writer.writerow(
                    [t, g, group.zeros, group.ones,
                     "" if group.ratio is None else repr(group.ratio),
                     group.decision.value]
                )


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    trials = run_protocol(config)
    params = config.params
    ones = sum(g.ones for t in trials for g in t.groups)
    total = config.trials * config.groups * config.per_group
    cpm_p1 = bob_marginal(cpm_plan(params), params)[1]
    spm_p1 = bob_marginal(spm_plan(params), params)[1]
    oracle_p1 = {
        Strategy.CPM: cpm_p1,
        Strategy.SPM: spm_p1,
        Strategy.RANDOM_PER_STATE: (cpm_p1 + spm_p1) / 2,
    }[config.strategy]
    w_values = {}
    for l in (1, 2, 3):
        if l < config.per_group:
            w_values[str(l)] = fraction_float(w_statistic(l, params, config.per_group))
    payload = {
        "config": _config_json(config),
        "per_trial": [_trial_json(t) for t in trials],
        "summary": {
            "empirical_p1": ones / total,
            "oracle_p1": fraction_json(oracle_p1),
            "w_values": w_values,
        },
    }
    _write_text(_resolve_out(args.out), _json_text(payload))
    if args.csv:
        _write_group_csv(_resolve_out(args.csv), trials)
    return 0


def cmd_discriminate(args) -> int:
    config = _config_from_args(args)
    report = discriminate(config)
    payload = {
        "config": _config_json(config),
        "trials": [
            {
                "truth": tr.truth.value,
                "decision": tr.result.decision.value,
                "eta_hits": tr.result.eta_hits,
            }
            for tr in report.trials
        ],
        "confusion": report.confusion,
        "accuracy": report.accuracy,
    }
    _write_text(_resolve_out(args.out), _json_text(payload))
    sys.stderr.write(f"accuracy: {report.accuracy}\n")
    return 0


def cmd_marginal(args) -> int:
    params = PlanParams(args.qubits, args.x_sq)
    p0, p1 = bob_marginal(_plan_for(args.strategy, params), params)
    sys.stdout.write(f"p0 = {p0}\np1 = {p1}\n")
    return 0


def cmd_verify(args) -> int:
    params = PlanParams(args.qubits, args.x_sq)
    checks = checkpoint_report(params) + no_signaling_suite(
        plans_per_n=args.random_plans, seed=args.seed
    )
    width = max(len(c.name) for c in checks)
    for check in checks:
        sys.stdout.write(
            f"{check.status:<4} {check.name:<{width}} computed={check.computed} "
            f"expected={check.expected} tol={check.tolerance}\n"
        )
    failed = [c for c in checks if not c.passed]
    sys.stdout.write(f"{len(checks) - len(failed)}/{len(checks)} checks passed\n")
    if args.json:
        _write_text(_resolve_out(args.json), _json_text([c.to_json() for c in checks]))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzdisc",
        description="Exact simulator for adaptive measurement cascades on GHZ chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--qubits", type=int, default=8, help="qubits per shared state")
        p.add_argument("--x-sq", dest="x_sq", type=_parse_fraction, default=Fraction(2, 3),
                       help="squared first-stage coefficient, e.g. 2/3")

    p_enum = sub.add_parser("enumerate", help="write the full branch table")
    p_enum.add_argument("--strategy", choices=["cpm", "spm"], required=True)
    add_params(p_enum)
    p_enum.add_argument("--format", choices=["json", "csv"], default="json")
    p_enum.add_argument("--out", help="output path (default: stdout)")
    p_enum.set_defaults(func=cmd_enumerate)

    def add_protocol_flags(p):
        p.add_argument("--seed", type=int, required=True, help="64-bit RNG seed")
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--per-group", dest="per_group", type=int, default=30)
        p.add_argument("--groups", type=int, default=20)
        p.add_argument("--threshold", type=float, default=1.33,
                       help="ones/zeros ratio above which a group votes for the cascade")
        add_params(p)
        p.add_argument("--out", help="JSON output path (default: stdout)")

    p_sim = sub.add_parser("simulate", help="run the seeded sampling protocol")
    p_sim.add_argument("--strategy", choices=["cpm", "spm", "random"], default="spm")
    add_protocol_flags(p_sim)
    p_sim.add_argument("--csv", help="also write per-group counts as CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_disc = sub.add_parser(
        "discriminate", help="score the decision rule against coin-flipped true strategies"
    )
    p_disc.add_argument("--strategy", choices=["random"], default="random",
                        help="ground truth is always drawn per trial")
    add_protocol_flags(p_disc)
    p_disc.set_defaults(func=cmd_discriminate)

    p_marg = sub.add_parser("marginal", help="print the receiver's exact marginal")
    p_marg.add_argument("--strategy", choices=["cpm", "spm"], required=True)
    add_params(p_marg)
    p_marg.set_defaults(func=cmd_marginal)

    p_ver = sub.add_parser("verify", help="run the checkpoint and no-signaling suites")
    add_params(p_ver)
    p_ver.add_argument("--random-plans", dest="random_plans", type=int, default=5,
                       help="random adaptive plans per chain length")
    p_ver.add_argument("--seed", type=int, default=0, help="seed for random plan generation")
    p_ver.add_argument("--json", help="also write the machine-readable report")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PlanError, ValueError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
