"""ghzdisc benchmark runner.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs the workload's CLI commands (see workloads.py) from the checkout's
`src/`, one fresh interpreter per command and per set-up probe, one
child process at a time, in a seeded order that changes every repeat.
Repeats continue until S seconds (per workload) have passed and at
least MIN_REPEATS are done.  Every output is checked; a command fails
when it raises, exits nonzero or fails a check.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 alternates untraced passes with passes under the per-layer
tracer (tracer.py), checks that every count repeats exactly, and
reports the per-layer metrics plus the tracing overhead.

The last stdout line is the result JSON; the line before it, and
.perfbench-work/report-*.json, hold the full report: sample counts,
percentiles, load averages, error texts and the environment stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_names
from workloads import Op, OpRun, Workload, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

MIN_REPEATS = 4  # untraced: each repeat is set-up probing plus one pass over the ops
SETUP_PROBE_S = 0.25  # a repeat probes set-up until this long is spent (at least once)
MIN_ROUNDS = 2  # traced: each round is one untraced and one traced pass
OP_TIMEOUT_S = 150
PERCENTILES = (50, 75, 90, 95, 99)
# child.py's reference work takes this long on a nominal host; the gated
# timings are scaled to it (see `_scaled`)
REFERENCE_S = 0.03

END_TO_END = {"setup_s", "leaves_per_s", "states_per_s", "peak_rss_mb", "ops_ok_frac"}
# per-layer metrics made here rather than by the tracer's wrappers
LAYER_EXTRAS = {
    "plans.classify_slow_frac", "cli.self_s", "cli.bytes_out", "cli.enumerate_s", "cli.simulate_s",
    "cli.discriminate_s", "cli.verify_s", "run.cpu_s", "run.trace_overhead_frac", "run.ops_failed_frac",
    "run.reference_s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Runner:
    """Starts the child interpreters, one at a time, and collects what they wrote."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        env["GHZDISC_OUT_DIR"] = str(workdir)
        self.env = env

    def child(self, mode: str, args) -> tuple[dict, str, str]:
        result_path = self.workdir / "child-result.json"
        result_path.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(result_path), mode, *args],
                env=self.env, cwd=self.workdir, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
            )
            stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
        except subprocess.TimeoutExpired:
            stdout, stderr, code = "", f"timed out after {OP_TIMEOUT_S} s", 1
        wall = time.perf_counter() - start
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            result = {"exit": code or 1, "wall_s": wall, "rss_kb": 0, "cpu_s": 0.0}
        return result, stdout, stderr

    def env_stamp(self) -> dict:
        result, _, stderr = self.child("env", [])
        if "python" not in result:
            raise BenchError(f"cannot import ghzdisc from {ROOT / 'src'}: {_last_line(stderr)}")
        return {key: result[key] for key in ("python", "int_max_str_digits")}

    def setup(self, workload: Workload) -> dict:
        load1 = os.getloadavg()[0]
        samplers = "1" if workload.setup_samplers else "0"
        result, _, stderr = self.child("setup", [samplers, *map(str, workload.setup_qubits)])
        return {
            "setup_s": result.get("setup_s"),
            "reference_s": result.get("reference_s"),
            "load1": load1,
            "error": _last_line(stderr),
        }

    def op(self, op: Op, traced: bool) -> dict:
        load1 = os.getloadavg()[0]
        result, stdout, stderr = self.child("traced" if traced else "op", op.argv)
        files = {}
        if op.output and (self.workdir / op.output).exists():
            files[op.output] = (self.workdir / op.output).read_bytes()
            (self.workdir / op.output).unlink()
        run = OpRun(result["exit"], stdout, files)
        problems = []
        if run.exit == 0:
            try:
                problems = op.check(op, run)
            except Exception as exc:  # a malformed output is a failed check, not a crash
                problems = [f"output check raised {exc!r}"]
        digest = hashlib.sha256(f"{run.exit}\n{stdout}".encode())
        for name in sorted(files):
            digest.update(files[name])
        return {
            "op": op,
            "ok": run.exit == 0 and not problems,
            "problems": problems,
            "error": None if run.exit == 0 else _last_line(stderr),
            "digest": digest.hexdigest(),
            "bytes_out": len(stdout.encode()) + sum(map(len, files.values())),
            "load1": load1,
            **result,
        }


def _last_line(text: str) -> str | None:
    lines = [line for line in text.splitlines() if line.strip()]
    return lines[-1] if lines else None


class Tally:
    """What one run measured on one workload."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.setup: list[dict] = []
        self.passes: dict[str, list[list[dict]]] = {"plain": [], "traced": []}

    def records(self) -> list[dict]:
        return [r for passes in self.passes.values() for p in passes for r in p]

    def problems(self) -> list[str]:
        """Wrong outputs, outputs that differ between repeats of the same
        seed, failed set-up probes and counts that do not repeat."""
        out = [f"{r['op'].name}: {p}" for r in self.records() for p in r["problems"]]
        digests: dict[str, set[str]] = {}
        for r in self.records():
            digests.setdefault(r["op"].name, set()).add(r["digest"])
        out += [f"{name}: output differs between repeats of one seed" for name, d in digests.items() if len(d) > 1]
        out += [f"set-up probe failed: {s['error']}" for s in self.setup if s["setup_s"] is None]
        traced = [_pass_layers(p) for p in self.passes["traced"]]
        for name in sorted(set().union(*traced)):
            if not name.endswith(("_s", "_frac")) and len({t.get(name) for t in traced}) > 1:
                out.append(f"count {name} differs between traced passes: {[t.get(name) for t in traced]}")
        return out


def _pass_layers(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its commands."""
    layers: dict[str, float] = {"cli.bytes_out": 0}
    for r in records:
        layers["cli.bytes_out"] += r["bytes_out"]
        for name, value in r.get("layers", {}).items():
            if name == "amplitude.max_bits":
                layers[name] = max(layers.get(name, 0), value)
            else:
                layers[name] = layers.get(name, 0) + value
    calls = layers.get("plans.classify_calls", 0)
    layers["plans.classify_slow_frac"] = layers.get("plans.classify_slow", 0) / calls if calls else 0.0
    return layers


def _pass_wall(records: list[dict]) -> float:
    return sum(r["wall_s"] for r in records)


def _scaled(seconds: float, reference_s: float | None) -> float:
    """`seconds` as a nominal host would take them: the shared host's speed
    drifts by tens of percent over minutes, and the reference work timed
    in the same process right after the measured work drifts with it."""
    return seconds * REFERENCE_S / reference_s if reference_s else seconds


def _summary(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it."""
    out = {"median": statistics.median(values), "samples": len(values), "high": None}
    if len(values) >= 2:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for p in PERCENTILES:
            if sum(v > cuts[p - 1] for v in values) >= 10:
                out["high"] = {"percentile": p, "value": cuts[p - 1]}
    return out


def end_to_end(tally: Tally) -> tuple[dict[str, float], dict]:
    """Timings are scaled per command; the report keeps unscaled medians."""
    plain = tally.passes["plain"]
    walls = [sum(_scaled(r["wall_s"], r.get("reference_s")) for r in p) for p in plain]
    setups = [s for s in tally.setup if s["setup_s"] is not None]
    samples = {
        "leaves_per_s": [sum(r["op"].leaves for r in p if r["ok"]) / w for p, w in zip(plain, walls)],
        "states_per_s": [sum(r["op"].states for r in p if r["ok"]) / w for p, w in zip(plain, walls)],
        "setup_s": [_scaled(s["setup_s"], s["reference_s"]) for s in setups],
        "peak_rss_mb": [max(r["rss_kb"] for r in p) / 1024 for p in plain],
    }
    detail = {name: _summary(values) for name, values in samples.items() if values}
    metrics = {name: d["median"] for name, d in detail.items()}
    records = tally.records()
    metrics["ops_ok_frac"] = sum(r["ok"] for r in records) / len(records)
    references = [r["reference_s"] for r in records if r.get("reference_s")]
    detail["unscaled_medians"] = {
        "leaves_per_s": statistics.median(sum(r["op"].leaves for r in p if r["ok"]) / _pass_wall(p) for p in plain),
        "setup_s": statistics.median(s["setup_s"] for s in setups) if setups else None,
        "reference_s": statistics.median(references) if references else None,
    }
    return metrics, detail


def per_layer(tally: Tally) -> tuple[dict[str, float], dict]:
    traced = [_pass_layers(p) for p in tally.passes["traced"]]
    names = set().union(*traced)
    metrics = {
        name: statistics.median(t.get(name, 0) for t in traced) if name.endswith("_s") else traced[0].get(name, 0)
        for name in names
    }
    plain_walls = [_pass_wall(p) for p in tally.passes["plain"]]
    traced_walls = [_pass_wall(p) for p in tally.passes["traced"]]
    records = tally.records()
    metrics["run.trace_overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    metrics["run.cpu_s"] = statistics.median(sum(r["cpu_s"] for r in p) for p in tally.passes["plain"])
    metrics["run.ops_failed_frac"] = sum(not r["ok"] for r in records) / len(records)
    metrics["run.reference_s"] = statistics.median(r.get("reference_s") or 0 for r in records)
    detail = {"plain_pass_s": _summary(plain_walls), "traced_pass_s": _summary(traced_walls)}
    return metrics, detail


def measure(selected: list[Workload], seed: int, seconds: float, trace: bool, runner: Runner) -> dict[str, Tally]:
    """Interleaves set-up probes and passes of every selected workload in
    a seeded order that changes every round."""
    rng = random.Random(seed)
    tallies = {w.name: Tally(w) for w in selected}
    kinds = ("plain", "traced") if trace else ("setup", "plain")
    start = time.perf_counter()
    rounds = 0
    while rounds < (MIN_ROUNDS if trace else MIN_REPEATS) or time.perf_counter() - start < seconds * len(selected):
        steps = [(w, kind) for w in selected for kind in kinds]
        rng.shuffle(steps)
        for w, kind in steps:
            tally = tallies[w.name]
            if kind == "setup":
                spent = time.perf_counter()
                tally.setup.append(runner.setup(w))
                while time.perf_counter() - spent < SETUP_PROBE_S:
                    tally.setup.append(runner.setup(w))
            else:
                ops = rng.sample(w.ops, len(w.ops))
                tally.passes[kind].append([runner.op(op, kind == "traced") for op in ops])
        rounds += 1
    return tallies


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_spec() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc!r}")


def result_line(tally: Tally, trace: bool, spec: dict) -> tuple[dict, dict]:
    """The result object for one workload, and its detailed report."""
    if trace:
        computed, detail = per_layer(tally)
        wanted = spec["per_layer"]
    else:
        computed, detail = end_to_end(tally)
        wanted = spec["end_to_end"]
    # metrics of layers a workload never calls read 0
    metrics = {name: {"value": computed.get(name, 0), "unit": unit} for name, unit in wanted.items()}
    records = tally.records()
    problems = tally.problems()
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": metrics,
    }
    report = {
        "workload": tally.workload.name,
        "problems": problems,
        "errors": sorted({f"{r['op'].name}: {r['error']}" for r in records if r["error"]}),
        "timings": detail,
        "passes": [
            {"kind": kind, "wall_s": _pass_wall(p), "load1": [r["load1"] for r in p]}
            for kind, passes in tally.passes.items() for p in passes
        ],
        "setup": tally.setup,
        "spans": [{"op": r["op"].name, "spans": r.get("spans")} for r in tally.passes["traced"][-1]] if trace else None,
        "result": result,
    }
    return result, report


def main(argv=None) -> int:
    names = list(workloads(0))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ghzdisc" / "cli.py").is_file():
        raise BenchError(f"no ghzdisc sources under {ROOT / 'src'}")
    spec = load_spec()
    unknown = (set(spec["end_to_end"]) - END_TO_END) | (set(spec["per_layer"]) - metric_names() - LAYER_EXTRAS)
    if unknown:
        raise BenchError(f"BENCHMARK.json names metrics this benchmark does not measure: {sorted(unknown)}")

    all_workloads = workloads(args.seed)
    selected = list(all_workloads.values()) if args.workload == "all" else [all_workloads[args.workload]]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir)
        stamp = {
            **runner.env_stamp(),
            "cpu_count": os.cpu_count(),
            "commit": git_commit(),
            "seed": args.seed,
            "seconds": args.seconds,
        }
        tallies = measure(selected, args.seed, args.seconds, bool(args.trace), runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = {}
    for name, tally in tallies.items():
        result, report = result_line(tally, bool(args.trace), spec)
        report["environment"] = stamp
        path = WORK / f"report-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
        summary = {k: v for k, v in report.items() if k not in ("spans", "passes", "setup")}
        print(f"report {name}: {json.dumps(summary)}")
        results[name] = result
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
