"""The benchmark's workloads: the CLI commands each one runs, and the
checks every command's output must pass.

Counts of work are fixed by each command's definition, not read from
the program, so a change that walks fewer leaves to give the same
answer shows as a higher rate:

* leaves: outcome-tree leaves whose exact weights the command resolves
  (2^(n-1) per tree; `verify` walks one spm tree and two marginals at
  n=8, then two built-in and K random plans per n=3..8; `simulate` builds
  both samplers and sums both oracle marginals; `discriminate` builds
  both samplers);
* states: receiver states the command yields (sampled shared states for
  `simulate`/`discriminate`; one exact receiver state per leaf for
  `enumerate`/`verify`).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable

# SHA-256 of the enumerate tables, fixed by the maths.  The spm n=16 table
# is what the package writes when Python's int-to-str digit limit does
# not stop it (the digits beyond 4300 are the point of the table).
PINNED_SHA256 = {
    "enumerate-cpm-14.csv": "db1f2922e7dec746debe0e1258490b8a3504275af27a95dcdbab474901e2cc8e",
    "enumerate-spm-16.json": "697d7d58d9bee4115adeb01379e05113572cf2feac02a67cdbad7851859d9367",
}

# |empirical - 1/2| is accepted up to this many standard errors of the
# exact oracle value 1/2 (false alarm ~6e-7 per check).
SIGMAS = 5


@dataclass
class OpRun:
    """What one command produced."""

    exit: int
    stdout: str
    files: dict[str, bytes] = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    output: str | None  # file written under GHZDISC_OUT_DIR
    leaves: int
    states: int
    # problems with a successful run's output (empty when correct)
    check: Callable[[Op, OpRun], list[str]]
    n: int
    size: int = 0  # trials for sampling commands, random plans for verify


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup_qubits: tuple[int, ...]
    setup_samplers: bool
    ops: tuple[Op, ...]


def _census(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def _check_tree(op: Op, run: OpRun) -> list[str]:
    problems = []
    m = op.n - 1
    census = _census(run.stdout)
    if census.get("branches") != str(2**m):
        problems.append(f"branches {census.get('branches')!r}, expected {2**m}")
    if census.get("total probability") != "1 (exact)":
        problems.append(f"total probability {census.get('total probability')!r}")
    data = run.files.get(op.output)
    if data is None:
        return problems + [f"no output file {op.output}"]
    digest = hashlib.sha256(data).hexdigest()
    if digest != PINNED_SHA256[op.output]:
        problems.append(f"{op.output} sha256 {digest} differs from the pinned table")
    return problems


def _check_spm(op: Op, run: OpRun) -> list[str]:
    m = op.n - 1
    levels = " ".join(f"{level}:{2 ** (m - level)}" for level in range(1, m + 1)) + f" {m + 1}:1"
    problems = _check_tree(op, run)
    if _census(run.stdout).get("level census") != levels:
        problems.append("spm level census is not 2^(m-L) .../1")
    return problems


def _check_cpm(op: Op, run: OpRun) -> list[str]:
    problems = _check_tree(op, run)
    if op.output in run.files:
        rows = list(csv.DictReader(io.StringIO(run.files[op.output].decode())))
        uniform = {("1", str(2 ** (op.n - 1)))}
        if {(r["prob_num"], r["prob_den"]) for r in rows} != uniform:
            problems.append("cpm leaf probabilities are not uniform")
    return problems


def _check_verify(op: Op, run: OpRun) -> list[str]:
    lines = run.stdout.splitlines()
    match = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1] if lines else "")
    if not match:
        return ["no 'N/N checks passed' line"]
    passed, total = int(match[1]), int(match[2])
    if passed != total or total < 6 * (2 + op.size):
        return [f"{passed}/{total} checks passed"]
    return []


def _near_half(name: str, value: float, samples: int) -> list[str]:
    sigma = math.sqrt(0.25 / samples)
    if abs(value - 0.5) > SIGMAS * sigma:
        return [f"{name} {value} is more than {SIGMAS} sigma ({sigma:.4g}) from 1/2"]
    return []


def _check_simulate(op: Op, run: OpRun) -> list[str]:
    payload = json.loads(run.files[op.output])
    config = payload["config"]
    problems = []
    if len(payload["per_trial"]) != op.size:
        problems.append(f"{len(payload['per_trial'])} trials, expected {op.size}")
    for t, trial in enumerate(payload["per_trial"]):
        groups = trial["per_group"]
        if len(groups) != config["groups"]:
            problems.append(f"trial {t}: {len(groups)} groups")
        problems += [
            f"trial {t} group {g}: counts sum to {c['zeros'] + c['ones']}"
            for g, c in enumerate(groups)
            if c["zeros"] + c["ones"] != config["per_group"]
        ]
    oracle = payload["summary"]["oracle_p1"]
    if (oracle["num"], oracle["den"]) != ("1", "2"):
        problems.append(f"oracle p1 {oracle['num']}/{oracle['den']}, expected 1/2")
    return problems + _near_half("empirical p1", payload["summary"]["empirical_p1"], op.states)


def _check_discriminate(op: Op, run: OpRun) -> list[str]:
    payload = json.loads(run.files[op.output])
    problems = []
    if len(payload["trials"]) != op.size:
        problems.append(f"{len(payload['trials'])} trials, expected {op.size}")
    total = sum(sum(row.values()) for row in payload["confusion"].values())
    if total != op.size:
        problems.append(f"confusion matrix sums to {total}, expected {op.size}")
    return problems + _near_half("accuracy", payload["accuracy"], op.size)


def derive_seed(seed: int, label: str) -> int:
    """Per-op seed below 2**32: `verify` scales its seed by 1000 inside a
    64-bit field, and the sampler streams take any unsigned 64-bit value."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _enumerate(strategy: str, n: int, fmt: str) -> Op:
    name = f"enumerate-{strategy}-{n}"
    output = f"{name}.{fmt}"
    argv = ("enumerate", "--strategy", strategy, "--qubits", str(n), "--format", fmt, "--out", output)
    leaves = 2 ** (n - 1)
    return Op(name, argv, output, leaves, leaves, _check_cpm if strategy == "cpm" else _check_spm, n)


def _verify(seed: int, plans: int) -> Op:
    ns = range(3, 9)
    leaves = 3 * 2**7 + (2 + plans) * sum(2 ** (n - 1) for n in ns)
    argv = ("verify", "--random-plans", str(plans), "--seed", str(derive_seed(seed, "verify")))
    return Op("verify", argv, None, leaves, leaves, _check_verify, 8, plans)


def _sampling(command: str, seed: int, n: int, trials: int, per_group: int = 30, groups: int = 20) -> Op:
    name = f"{command}-{n}"
    output = f"{name}.json"
    argv = (command, "--strategy", "random", "--qubits", str(n), "--trials", str(trials),
            "--per-group", str(per_group), "--groups", str(groups),
            "--seed", str(derive_seed(seed, name)), "--out", output)
    trees, check = (4, _check_simulate) if command == "simulate" else (2, _check_discriminate)
    return Op(name, argv, output, trees * 2 ** (n - 1), trials * groups * per_group, check, n, trials)


def workloads(seed: int) -> dict[str, Workload]:
    return {
        w.name: w
        for w in (
            Workload(
                "exact-deep",
                "deep cpm n=14 and spm n=16 trees: big-int multiplies, classify and serialising "
                "thousands-digit ints; spm n=16 fails on the int-to-str digit limit",
                (14, 16),
                False,
                (_enumerate("cpm", 14, "csv"), _enumerate("spm", 16, "json")),
            ),
            Workload(
                "verify-random",
                "verify walks 40 hash-derived random plans per n=3..8: many shallow trees, "
                "per-call cost, no doubling exponents",
                (8,),
                False,
                (_verify(seed, 40),),
            ),
            Workload(
                "sample-n8",
                "discriminate and simulate at n=8: stream construction, SHA-256 draws and sampler "
                "bisection dominate; tree walks are tiny",
                (8,),
                True,
                (_sampling("discriminate", seed, 8, 300), _sampling("simulate", seed, 8, 100)),
            ),
            Workload(
                "sample-n14",
                "simulate at n=14: two sampler builds over 8192 leaves with big-int thresholds "
                "dominate; the only workload timing sampler set-up at scale",
                (14,),
                True,
                (_sampling("simulate", seed, 14, 2, per_group=100),),
            ),
        )
    }
