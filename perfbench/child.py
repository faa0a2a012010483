"""One measured step in a fresh interpreter; run.py starts one at a time.

    python3 child.py RESULT.json env
    python3 child.py RESULT.json setup SAMPLERS N [N ...]
    python3 child.py RESULT.json op|traced CLI-ARG ...

`env` imports the CLI once and reports the interpreter's settings.
`setup` times, from before `import ghzdisc`, what a workload builds once
before its first result: `constants` for each N and, when SAMPLERS is 1,
both leaf samplers at the last N.  `op` times one `ghzdisc.cli.main`
call; `traced` does the same under the per-layer tracer.  The result is
written as JSON to RESULT.json; the command's own output stays on
stdout/stderr for run.py to check.

After the measured work (and after reading its peak memory), `setup`,
`op` and `traced` also time `_reference`: fixed interpretive work whose
speed tracks how fast the shared host was running this process.
"""

import sys
import time


def _reference() -> float:
    """Seconds for fixed work (calls, updates of a 64K-entry dict, a
    sort), median of three."""

    def key(i: int) -> int:
        return (i * 31 + 7) & 0xFFFF

    times = []
    for _ in range(3):
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(50000):
            k = key(i)
            counts[k] = counts.get(k, 0) + 1
        sorted(counts.items())
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def _usage(rusage) -> dict:
    # VmHWM is this interpreter's own high-water mark; on Linux ru_maxrss
    # also counts the parent's resident set at the moment it spawned us.
    peak_kb = rusage.ru_maxrss
    try:
        with open("/proc/self/status") as status:
            peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return {"rss_kb": peak_kb, "cpu_s": rusage.ru_utime + rusage.ru_stime}


def _setup(samplers: bool, qubits: list[int]) -> dict:
    start = time.perf_counter()
    import ghzdisc

    for n in qubits:
        params = ghzdisc.PlanParams(n)
        ghzdisc.constants(params)
    if samplers:
        ghzdisc.LeafSampler(ghzdisc.cpm_plan(params), params)
        ghzdisc.LeafSampler(ghzdisc.spm_plan(params), params)
    return {"setup_s": time.perf_counter() - start}


def _command(argv: list[str], traced: bool) -> dict:
    import traceback

    from ghzdisc import cli

    entry = cli.main
    tracer = None
    if traced:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
        entry = tracer.wrap("cli", cli.main, keep_span=True)
    start = time.perf_counter()
    try:
        code = entry(argv)
    except SystemExit as exc:  # argparse usage errors exit 2
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - start
    sys.stdout.flush()
    result = {"exit": code, "wall_s": wall}
    if tracer is not None:
        layers = tracer.metrics()
        layers.pop("cli_calls")
        layers["cli.self_s"] = layers.pop("cli_s")
        layers[f"cli.{argv[0]}_s"] = wall
        result["layers"] = layers
        result["spans"] = tracer.spans
    return result


def main() -> int:
    result_path, mode, *args = sys.argv[1:]
    if mode == "env":
        import ghzdisc.cli  # noqa: F401  (compiles the package once)

        result = {
            "python": sys.version.split()[0],
            "int_max_str_digits": sys.get_int_max_str_digits(),
        }
    elif mode == "setup":
        result = _setup(args[0] == "1", [int(n) for n in args[1:]])
    else:
        result = _command(args, traced=mode == "traced")
    import json
    import resource

    result.update(_usage(resource.getrusage(resource.RUSAGE_SELF)))
    if mode != "env":
        result["reference_s"] = _reference()
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
