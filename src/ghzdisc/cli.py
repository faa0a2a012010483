"""Command-line entry point.

Subcommands: enumerate, simulate, discriminate, marginal, verify.
Exact rationals appear in every output as decimal numerator/denominator
strings with a float convenience field; the exact fields are
authoritative.  Identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain, repeat
from math import gcd
from typing import Iterator

from .amplitude import amplitude_json, decimal_str, fraction_json, fraction_str
from .oracle import bob_marginal, checkpoint_report, no_signaling_suite
from .plans import PlanParams, census, outcome_classes
from .protocol import (
    PLANS, ProtocolConfig, Strategy, discriminate, group_vote, law, majority, run_protocol, w_terms,
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


def _destination(path: str | None) -> tuple[str | None, str | None]:
    """`path` (under $GHZDISC_OUT_DIR if relative and that is set), and the regular
    file `_output` replaces on success (a symlink's target), or None if it writes through."""
    base = os.environ.get(OUT_DIR_ENV)
    if base and path is not None and not os.path.isabs(path):
        path = os.path.join(base, path)
    through = path is None or _is_stdout(path) or os.path.exists(path) and not os.path.isfile(path)
    return path, None if through else os.path.realpath(path)


@contextmanager
def _output(path: str | None):
    """Text handle for an output: stdout when `path` is None or names the
    file stdout is open on (so `--out /dev/stdout > f` keeps the census
    lines); a device, FIFO or /dev/fd/N is written through; a regular file
    is written to a temporary file beside it that replaces it on success."""
    path, target = _destination(path)
    if target is None and (path is None or _is_stdout(path)):
        yield sys.stdout
        return
    tmp = target and f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp or path, "w") as handle:
            yield handle
        if tmp:
            os.replace(tmp, target)
    except OSError as exc:  # an output path that cannot be written is a usage error
        raise ValueError(f"[Errno {exc.errno}] {exc.strerror}: {path!r}") from exc
    finally:
        if tmp and os.path.exists(tmp):
            os.remove(tmp)


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num/den, den > 0, in lowest terms, as `Fraction(num, den)` holds it: the
    common power of two removed by shifts, then a division by the gcd of the
    odd parts only where it is not 1 (Stein's binary-gcd step)."""
    if not num:
        return 0, 1
    num_zeros, den_zeros = (num & -num).bit_length() - 1, (den & -den).bit_length() - 1
    g = gcd(num >> num_zeros, den >> den_zeros)
    shift = min(num_zeros, den_zeros)
    num, den = num >> shift, den >> shift
    return (num, den) if g == 1 else (num // g, den // g)


_CSV_HEADER = [
    "outcomes", "prob_num", "prob_den", "prob_float", "class", "level",
    "amp0_sign", "amp0_num", "amp0_den", "amp1_sign", "amp1_num", "amp1_den",
]


def _csv_row(row: dict) -> list:
    """Flat form of a `_parity_rows` row, without the amplitude floats."""
    p, a0, a1 = row["probability"], row["bob_amp0"], row["bob_amp1"]
    return [
        row["outcomes"], p["num"], p["den"], repr(p["float"]), row["class"], row["level"],
        a0["sign"], a0["num"], a0["den"], a1["sign"], a1["num"], a1["den"],
    ]


def _json_tail(row: dict) -> str:
    """A row's JSON array element after its outcome bits: the element is
    '{\n    "outcomes": "<bits>' + this text."""
    del row["outcomes"]
    return '",' + json.dumps(row, indent=2).replace("\n", "\n  ")[1:]


def _csv_tail(row: dict) -> str:
    """A row's CSV line after its outcome bits; no cell needs quoting."""
    return "," + ",".join(map(str, _csv_row(row)[1:])) + "\n"


# a class's rows are written in runs that share all outcome bits but the last
# _RUN_BITS, so at most 2^_RUN_BITS rows are joined at once whatever the depth:
# joining each spm n=16 class whole raises the command's peak RSS from 20 to 34 MB
_RUN_BITS = 7


@lru_cache(maxsize=None)
def _low_suffixes(k: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The 2^k suffixes of k bits in lexicographic order, and the parity of each one's 1s."""
    return tuple(bin(i | 1 << k)[3:] for i in range(2**k)), tuple(i.bit_count() & 1 for i in range(2**k))


def _parity_rows(c) -> list[dict]:
    """The table row of each state of class `c`: its outcome bits, exact
    probability, class and level, and the receiver's two exact amplitudes,
    rendered once from the class's integers over den << depth, each value
    in lowest terms and each distinct integer printed once.  The odd state
    differs only in amp1's sign, so its row flips amp1's sign and float
    (sign * root, as `amplitude_json` forms it) and takes its class."""
    den, text = c.den << c.depth, cache(decimal_str)  # digits per distinct int, for this class alone
    row = {
        "outcomes": c.head,
        "probability": fraction_json(*_lowest(abs(c.a0) + abs(c.a1), den), text),
        "class": c.leaf_classes[0].value,
        "level": c.level,
        "bob_amp0": amplitude_json(*_lowest(c.a0, den), text),
        "bob_amp1": amplitude_json(*_lowest(c.a1, den), text),
    }
    if not c.depth:
        return [row]
    amp1 = row["bob_amp1"]
    sign = -amp1["sign"]
    odd_amp1 = {**amp1, "sign": sign, "float": sign * abs(amp1["float"])}
    return [row, {**row, "class": c.leaf_classes[1].value, "bob_amp1": odd_amp1}]


def _rendered(classes, lead: str, tail) -> Iterator[str]:
    """The table's rows, each `lead` + outcome bits + `tail` of its row,
    in runs of at most 2^_RUN_BITS rows of one class.  `tail` is
    evaluated once per receiver state of a class; a run shares all but
    the last k = min(depth, _RUN_BITS) outcome bits, and its rows are
    joined in C from the cached k-bit suffixes and the tails they pick."""
    for c in classes:
        tails = [tail(row) for row in _parity_rows(c)]
        k = min(c.depth, _RUN_BITS)
        low, parities = _low_suffixes(k)
        # the tail of each low suffix, per parity of the bits above it
        picked = [[tails[p ^ q] for q in parities] for p in range(len(tails))]
        high_bits = c.depth - k
        for i in range(2**high_bits):
            lead_high = lead + c.head + bin(i | 1 << high_bits)[3:]
            yield "".join(chain.from_iterable(zip(repeat(lead_high), low, picked[i.bit_count() & 1])))


def _census_lines(classes) -> str:
    levels, leaves, probability = census(classes)
    level_text = " ".join(f"{k}:{levels[k]}" for k in sorted(levels))
    class_text = " ".join(f"{k}:{v}" for k, v in sorted((lc.value, v) for lc, v in leaves.items()))
    return (
        f"branches: {sum(levels.values())}\n"
        f"level census: {level_text}\n"
        f"class census: {class_text}\n"
        f"total probability: {fraction_str(probability.value())} (exact)\n"
    )


def cmd_enumerate(args, params: PlanParams) -> int:
    """The census lines on stdout, then the table: one write per run of
    at most 2^_RUN_BITS rows, each class's fields rendered once."""
    # outcomes are bit strings, so neither format quotes or escapes them; the JSON
    # bytes equal json.dumps of the rows of `enumerate_branches`, indent=2, + "\n"
    with _output(args.out) as handle:
        classes = outcome_classes(PLANS[Strategy(args.strategy)](params), params)
        sys.stdout.write(_census_lines(classes))
        if args.format == "csv":
            handle.write(",".join(_CSV_HEADER) + "\n")
            handle.writelines(_rendered(classes, "", _csv_tail))
        else:
            runs = _rendered(classes, ',\n  {\n    "outcomes": "', _json_tail)
            handle.write("[" + next(runs)[1:])  # the first row has no comma before it
            handle.writelines(runs)
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


def _num_den(q: Fraction) -> dict:
    return {"num": decimal_str(q.numerator), "den": decimal_str(q.denominator)}


def _config_json(config: ProtocolConfig) -> dict:
    return {
        "seed": config.seed,
        "qubits": config.params.n,
        "x_sq": _num_den(config.params.x_sq),
        "per_group": config.per_group,
        "groups": config.groups,
        "strategy": config.strategy.value,
        "trials": config.trials,
        "threshold": _num_den(config.threshold),
    }


# a `simulate` group record and trial record as json.dumps(payload, indent=2)
# writes them inside `per_trial`; every field is an int, a float, None or a
# Strategy value, so none needs escaping
_GROUP_JSON = (
    '        {{\n          "zeros": {zeros},\n          "ones": {ones},\n'
    '          "ratio": {ratio},\n          "decision": "{decision}"\n        }}'
)
_TRIAL_JSON = (
    '    {{\n      "per_group": [\n{groups}\n      ],\n'
    '      "eta_hits": {eta_hits},\n      "overall_decision": "{overall_decision}"\n    }}'
)


def _groups(config: ProtocolConfig):
    """A `simulate` group record per count of ones, built once per distinct count:
    its vote, its `_GROUP_JSON` text, and its CSV cells zeros,ones,ratio,decision.
    The ratio is ones / zeros, None (JSON null, an empty cell) when zeros == 0."""

    @cache
    def group(ones: int) -> tuple[bool, str, str]:
        zeros, vote = config.per_group - ones, group_vote(config, ones)
        ratio, decision = repr(ones / zeros) if zeros else "", (Strategy.SPM if vote else Strategy.CPM).value
        text = _GROUP_JSON.format(zeros=zeros, ones=ones, ratio=ratio or "null", decision=decision)
        return vote, text, f"{zeros},{ones},{ratio},{decision}"

    return group


def _simulate_json(payload: dict, trials, group) -> str:
    """`json.dumps(payload, indent=2)` of a `simulate` payload whose `per_trial` is None:
    the config and summary by json.dumps, and `per_trial` spliced in from templates,
    from each trial's (ones per group, eta hits) and each count's `group` record."""
    texts = []
    for ones_per_group, eta_hits in trials:
        votes, groups, _ = zip(*map(group, ones_per_group))
        decision = majority(votes).value
        texts.append(_TRIAL_JSON.format(groups=",\n".join(groups), eta_hits=eta_hits, overall_decision=decision))
    head, _, tail = json.dumps(payload, indent=2).partition('"per_trial": null')
    return head + '"per_trial": [\n' + ",\n".join(texts) + "\n  ]" + tail


def cmd_simulate(args, params: PlanParams) -> int:
    config = _config_from_args(args, params)
    target = _destination(args.out)[1]
    if target is not None and target == _destination(args.csv)[1]:  # both would write one temporary file
        raise ValueError(f"--out and --csv name the same file: {target!r}")
    with _output(args.out) as handle, (_output(args.csv) if args.csv else nullcontext()) as csv_handle:
        sampler = law(config.strategy, params)
        trials, group = run_protocol(config, sampler), _groups(config)
        ones = sum(sum(ones_per_group) for ones_per_group, _ in trials)
        total = config.trials * config.groups * config.per_group
        oracle_p1 = sampler.marginal[1]
        w_values = {}
        for l in (1, 2, 3):
            if l < config.per_group:
                num, den = w_terms(l, params, config.per_group)
                w_values[str(l)] = num / den
        payload = {
            "config": _config_json(config),
            "per_trial": None,
            "summary": {
                "empirical_p1": ones / total,
                "oracle_p1": fraction_json(oracle_p1.numerator, oracle_p1.denominator),
                "w_values": w_values,
            },
        }
        handle.write(_simulate_json(payload, trials, group) + "\n")
        if csv_handle is not None:
            csv_handle.write("trial,group,zeros,ones,ratio,decision\n")
            for t, (ones_per_group, _) in enumerate(trials):
                for g, count in enumerate(ones_per_group):
                    csv_handle.write(f"{t},{g},{group(count)[2]}\n")
    return 0


def cmd_discriminate(args, params: PlanParams) -> int:
    config = _config_from_args(args, params)
    with _output(args.out) as handle:
        report = discriminate(config)
        handle.write(json.dumps({"config": _config_json(config), **report}, indent=2) + "\n")
    sys.stderr.write(f"accuracy: {report['accuracy']}\n")
    return 0


def cmd_marginal(args, params: PlanParams) -> int:
    p0, p1 = bob_marginal(PLANS[Strategy(args.strategy)](params), params)
    sys.stdout.write(f"p0 = {fraction_str(p0)}\np1 = {fraction_str(p1)}\n")
    return 0


def cmd_verify(args, params: PlanParams) -> int:
    with _output(args.json) if args.json else nullcontext() as handle:
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
        if handle is not None:
            handle.write(json.dumps(checks, indent=2) + "\n")
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
