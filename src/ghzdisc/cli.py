"""Command-line entry point.

Subcommands: enumerate, simulate, discriminate, marginal, verify.
Exact rationals appear in every output as decimal numerator/denominator
strings with a float convenience field; the exact fields are
authoritative.  Identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator

from .amplitude import amplitude_json, fraction_json, unlimited_int_digits
from .oracle import bob_marginal, checkpoint_report, no_signaling_suite, receiver_marginal
from .plans import PlanParams, census, outcome_classes
from .protocol import (
    PLANS, ProtocolConfig, Strategy, build_samplers, discriminate, run_protocol, w_statistic,
)

OUT_DIR_ENV = "GHZDISC_OUT_DIR"


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _output_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("an output path must not be empty")
    return text


def _is_stdout(path: str) -> bool:
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such path yet, or stdout has no file descriptor
        return False


@contextmanager
def _output(path: str | None):
    """Text handle for an output: stdout when `path` is None or names
    the file stdout is open on (so `--out /dev/stdout > f` keeps the
    census lines); a device, FIFO or /dev/fd/N is written through; a
    regular file (a symlink's target, not the link) is written to a
    temporary file beside it that replaces it only on success."""
    base = os.environ.get(OUT_DIR_ENV)
    if base and path is not None and not os.path.isabs(path):
        path = os.path.join(base, path)
    if path is None or _is_stdout(path):
        yield sys.stdout
        return
    if os.path.exists(path) and not os.path.isfile(path):
        target, tmp = path, None
    else:
        target = os.path.realpath(path)
        tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp or target, "w") as handle:
            yield handle
        if tmp:
            os.replace(tmp, target)
    except OSError as exc:  # an output path that cannot be written is a usage error
        raise ValueError(f"[Errno {exc.errno}] {exc.strerror}: {path!r}") from exc
    finally:
        if tmp and os.path.exists(tmp):
            os.remove(tmp)


def _branch_row(outcomes, probability, bob_state, leaf_class, level) -> dict:
    """The table row of one leaf: its outcome bits, exact probability,
    class and level, and the receiver's two exact amplitudes."""
    return {
        "outcomes": outcomes,
        "probability": fraction_json(probability),
        "class": leaf_class.value,
        "level": level,
        "bob_amp0": amplitude_json(bob_state.amp0),
        "bob_amp1": amplitude_json(bob_state.amp1),
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


def _json_tail(row: dict) -> str:
    """A row's JSON array element after its "outcomes" member: the
    element is '{\n    "outcomes": "<bits>",' + this text."""
    del row["outcomes"]
    return json.dumps(row, indent=2).replace("\n", "\n  ")[1:]


def _csv_tail(row: dict) -> str:
    """A row's CSV line after its outcomes cell and comma; no cell needs quoting."""
    return ",".join(map(str, _csv_row(row)[1:])) + "\n"


def _rendered(classes, tail) -> Iterator[tuple[str, str]]:
    """Each leaf's outcomes and `tail` of its row, with `tail`
    evaluated once per receiver state of a class."""
    for c in classes:
        rows = zip(c.states, c.leaf_classes)
        tails = [tail(_branch_row(c.head, c.probability, s, lc, c.level)) for s, lc in rows]
        for outcomes, parity in c.outcomes():
            yield outcomes, tails[parity]


def _census_lines(classes) -> str:
    levels, leaves, probability = census(classes)
    level_text = " ".join(f"{k}:{levels[k]}" for k in sorted(levels))
    class_text = " ".join(f"{k}:{v}" for k, v in sorted((lc.value, v) for lc, v in leaves.items()))
    return (
        f"branches: {sum(levels.values())}\n"
        f"level census: {level_text}\n"
        f"class census: {class_text}\n"
        f"total probability: {sum(probability.values())} (exact)\n"
    )


def cmd_enumerate(args, params: PlanParams) -> int:
    classes = outcome_classes(PLANS[Strategy(args.strategy)](params), params)
    sys.stdout.write(_census_lines(classes))
    # outcomes are bit strings, so neither format quotes or escapes them; the JSON
    # bytes equal json.dumps of the `_branch_row`s of `enumerate_branches`, indent=2, + "\n"
    with _output(args.out) as handle:
        if args.format == "csv":
            csv.writer(handle, lineterminator="\n").writerow(_CSV_HEADER)
            for outcomes, tail in _rendered(classes, _csv_tail):
                handle.write(f"{outcomes},{tail}")
        else:
            separator = "[\n  "
            for outcomes, tail in _rendered(classes, _json_tail):
                handle.write(f'{separator}{{\n    "outcomes": "{outcomes}",{tail}')
                separator = ",\n  "
            handle.write("\n]\n")
    return 0


def _config_from_args(args, params: PlanParams) -> ProtocolConfig:
    return ProtocolConfig(
        seed=args.seed,
        params=params,
        per_group=args.per_group,
        groups=args.groups,
        strategy=Strategy(args.strategy),
        trials=args.trials,
        threshold=args.threshold,
    )


def _config_json(config: ProtocolConfig) -> dict:
    return {
        "seed": config.seed,
        "qubits": config.params.n,
        "x_sq": {"num": str(config.params.x_sq.numerator), "den": str(config.params.x_sq.denominator)},
        "per_group": config.per_group,
        "groups": config.groups,
        "strategy": config.strategy.value,
        "trials": config.trials,
        "threshold": float(config.threshold),
    }


def _write_json(path: str | None, payload) -> None:
    with _output(path) as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")


def cmd_simulate(args, params: PlanParams) -> int:
    config = _config_from_args(args, params)
    samplers = build_samplers(params)
    trials = run_protocol(config, samplers)
    ones = sum(g["ones"] for t in trials for g in t["per_group"])
    total = config.trials * config.groups * config.per_group
    p1 = {s: receiver_marginal(sampler.classes)[1] for s, sampler in samplers.items()}
    p1[Strategy.RANDOM_PER_STATE] = (p1[Strategy.CPM] + p1[Strategy.SPM]) / 2
    oracle_p1 = p1[config.strategy]
    w_values = {}
    for l in (1, 2, 3):
        if l < config.per_group:
            w_values[str(l)] = float(w_statistic(l, params, config.per_group))
    payload = {
        "config": _config_json(config),
        "per_trial": trials,
        "summary": {
            "empirical_p1": ones / total,
            "oracle_p1": fraction_json(oracle_p1),
            "w_values": w_values,
        },
    }
    _write_json(args.out, payload)
    if args.csv:
        with _output(args.csv) as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["trial", "group", "zeros", "ones", "ratio", "decision"])
            writer.writerows(
                [t, g, c["zeros"], c["ones"], "" if c["ratio"] is None else repr(c["ratio"]),
                 c["decision"]]
                for t, trial in enumerate(trials)
                for g, c in enumerate(trial["per_group"])
            )
    return 0


def cmd_discriminate(args, params: PlanParams) -> int:
    config = _config_from_args(args, params)
    report = discriminate(config)
    _write_json(args.out, {"config": _config_json(config), **report})
    sys.stderr.write(f"accuracy: {report['accuracy']}\n")
    return 0


def cmd_marginal(args, params: PlanParams) -> int:
    p0, p1 = bob_marginal(PLANS[Strategy(args.strategy)](params), params)
    sys.stdout.write(f"p0 = {p0}\np1 = {p1}\n")
    return 0


def cmd_verify(args, params: PlanParams) -> int:
    # first, so that a bad --random-plans or --seed fails before any other work
    suite = no_signaling_suite(plans_per_n=args.random_plans, seed=args.seed)
    checks = checkpoint_report(params) + suite
    width = max(len(c["check_name"]) for c in checks)
    for c in checks:
        sys.stdout.write(
            f"{c['status']:<4} {c['check_name']:<{width}} computed={c['computed_value']} "
            f"expected={c['expected_value']} tol={c['tolerance']}\n"
        )
    failed = sum(c["status"] == "FAIL" for c in checks)
    sys.stdout.write(f"{len(checks) - failed}/{len(checks)} checks passed\n")
    if args.json:
        _write_json(args.json, checks)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzdisc",
        description="Exact simulator for adaptive measurement cascades on GHZ chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--qubits", type=int, default=ProtocolConfig.params.n, help="qubits per shared state")
        p.add_argument("--x-sq", dest="x_sq", type=_parse_fraction, default=ProtocolConfig.params.x_sq,
                       help="squared first-stage coefficient, e.g. 2/3")

    p_enum = sub.add_parser("enumerate", help="write the full branch table")
    p_enum.add_argument("--strategy", choices=["cpm", "spm"], required=True)
    add_params(p_enum)
    p_enum.add_argument("--format", choices=["json", "csv"], default="json")
    p_enum.add_argument("--out", type=_output_path, help="output path (default: stdout)")
    p_enum.set_defaults(func=cmd_enumerate)

    def add_protocol_flags(p):
        p.add_argument("--seed", type=int, required=True, help="64-bit RNG seed")
        p.add_argument("--trials", type=int, default=ProtocolConfig.trials)
        p.add_argument("--per-group", dest="per_group", type=int, default=ProtocolConfig.per_group)
        p.add_argument("--groups", type=int, default=ProtocolConfig.groups)
        p.add_argument("--threshold", type=_parse_fraction, default=ProtocolConfig.threshold,
                       help="ones/zeros ratio above which a group votes for the cascade")
        add_params(p)
        p.add_argument("--out", type=_output_path, help="JSON output path (default: stdout)")

    p_sim = sub.add_parser("simulate", help="run the seeded sampling protocol")
    p_sim.add_argument("--strategy", choices=["cpm", "spm", "random"],
                       default=ProtocolConfig.strategy.value)
    add_protocol_flags(p_sim)
    p_sim.add_argument("--csv", type=_output_path, help="also write per-group counts as CSV")
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
    p_ver.add_argument("--json", type=_output_path, help="also write the machine-readable report")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with unlimited_int_digits():
            code = args.func(args, PlanParams(args.qubits, args.x_sq))  # a bad chain is reported first
            sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
        return code
    except ValueError as exc:  # PlanError included
        parser.error(str(exc))
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): drop what is still buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
