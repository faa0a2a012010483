"""Per-layer tracing of ghzdisc from outside the package.

`instrument` replaces the public functions of each layer with wrappers
that count calls and accumulate self time: a call's duration minus the
full duration (wrapper cost included) of the traced calls it makes, so
the wrappers' own cost is charged to no layer.  Calls at layer
boundaries (commands, tree walks, sampler builds, oracle suites) also
keep a span record; the hot inner calls (multiplies, draws, bisections)
are aggregated only, because one span each would cost more memory than
the work they measure.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# (module, attribute, traced name, keeps spans).  A dotted attribute is a
# method on a class of that module.
TARGETS = (
    ("amplitude", "ExactAmplitude.__mul__", "amplitude.mul", False),
    ("engine", "measure_next", "engine.measure_next", False),
    ("plans", "MeasurementPlan.basis_for", "plans.basis_for", False),
    ("plans", "classify", "plans.classify", False),
    ("plans", "constants", "plans.constants", True),
    ("plans", "enumerate_branches", "plans.enumerate", True),
    ("protocol", "CounterStream.__init__", "protocol.stream_init", False),
    ("protocol", "CounterStream.next_int", "protocol.draw", False),
    ("protocol", "LeafSampler.sample", "protocol.sample", False),
    ("protocol", "LeafSampler.__init__", "protocol.sampler_build", True),
    ("protocol", "w_statistic", "protocol.w_statistic", True),
    ("protocol", "run_protocol", "protocol.loop", True),
    ("protocol", "discriminate", "protocol.loop", True),
    ("oracle", "bob_marginal", "oracle.bob_marginal", True),
    ("oracle", "checkpoint_report", "oracle.checkpoint", True),
    ("oracle", "no_signaling_suite", "oracle.no_signaling", True),
)

# Count metrics whose names read better than "<name>_calls".
RENAMED = {
    "protocol.sampler_build_calls": "protocol.sampler_builds",
    "protocol.stream_init_calls": "protocol.streams",
    "protocol.draw_calls": "protocol.draws",
}

# Observed by the wrappers rather than counted as calls.
OBSERVED = ("plans.leaves", "plans.classify_slow", "amplitude.max_bits")


def metric_names() -> set[str]:
    """Every per-call metric `Tracer.metrics` can report."""
    names = set(OBSERVED)
    for _, _, name, _ in TARGETS:
        for suffix in ("_calls", "_s"):
            names.add(RENAMED.get(name + suffix, name + suffix))
    return names


class Tracer:
    """Call counts, self times and boundary spans, kept in memory."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list = []
        self.leaves = 0
        self.classify_slow = 0
        self.max_bits = 0
        # one [child_seconds, span_id] frame per traced call in progress
        self._stack: list[list] = []

    def wrap(self, name: str, fn, keep_span: bool = False, observe=None):
        stack, calls, self_s, spans = self._stack, self.calls, self.self_s, self.spans

        def traced(*args, **kwargs):
            enter = perf_counter()
            parent_span = stack[-1][1] if stack else -1
            span_id = parent_span
            if keep_span:
                span_id = len(spans)
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            stop = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                stop = perf_counter()
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                if stop is None:
                    stop = perf_counter()
                stack.pop()
                calls[name] += 1
                self_s[name] += stop - start - frame[0]
                if keep_span:
                    spans[span_id] = (name, start, stop, parent_span)
                if stack:
                    stack[-1][0] += perf_counter() - enter

        return traced

    def note_bits(self, *values: int) -> None:
        for value in values:
            self.max_bits = max(self.max_bits, value.bit_length())

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {
            "plans.leaves": self.leaves,
            "plans.classify_slow": self.classify_slow,
            "amplitude.max_bits": self.max_bits,
        }
        for name, count in self.calls.items():
            out[RENAMED.get(name + "_calls", name + "_calls")] = count
            out[name + "_s"] = self.self_s[name]
        return out


def instrument(tracer: Tracer) -> None:
    """Route every reference to the TARGETS, in every ghzdisc module,
    through `tracer`."""
    import ghzdisc
    from ghzdisc import amplitude, cli, engine, oracle, plans, protocol

    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in (amplitude, engine, plans, protocol, oracle, cli)}

    def on_records(args, records) -> None:
        tracer.leaves += len(records)
        for r in records:
            tracer.note_bits(
                r.probability.numerator,
                r.probability.denominator,
                r.bob_state.amp0.sq().denominator,
                r.bob_state.amp1.sq().denominator,
            )

    def on_classify(args, leaf_class) -> None:
        # mu+ and mu- return before the eta test; everything else pays for it
        if leaf_class not in (plans.LeafClass.MU_PLUS, plans.LeafClass.MU_MINUS):
            tracer.classify_slow += 1

    def on_sampler(args, _) -> None:
        # the cumulative thresholds carry the largest denominators
        for _num, den in getattr(args[0], "_cum", ()):
            tracer.note_bits(den)

    observers = {
        "plans.enumerate": on_records,
        "plans.classify": on_classify,
        "protocol.sampler_build": on_sampler,
    }
    for module_name, attr, name, keep_span in TARGETS:
        owner = modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), keep_span, observers.get(name)))
            continue
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, keep_span, observers.get(name))
        for module in (ghzdisc, *modules.values()):
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, traced)
