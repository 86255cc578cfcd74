"""Outside-in span recorder for the benchmark's traced passes.

Spans are recorded around calls into the public functions of each
``dustlink`` module by rebinding module attributes from here; the package
itself is not modified. Every module that imported a name with
``from ... import`` holds its own reference, so each is rebound.

Per-packet random-stream set-up happens hundreds of thousands of times per
pass, so those calls are aggregated into a count and a summed time under
the enclosing span instead of becoming spans of their own.
"""

import importlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into SpanRecorder.spans, -1 for a root
    trace_id: int = 0         # one per job
    attrs: dict = field(default_factory=dict)
    # aggregated per-call timings: name -> [calls, seconds]
    aggregates: dict = field(default_factory=dict)


class SpanRecorder:
    """Keeps spans in memory; nesting follows the call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.trace_id = 0

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.clock(), parent=parent, trace_id=self.trace_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def add_aggregate(self, name: str, seconds: float) -> None:
        if not self._stack:
            return
        agg = self.spans[self._stack[-1]].aggregates.setdefault(name, [0, 0.0])
        agg[0] += 1
        agg[1] += seconds

    def span_fn(self, name, fn, on_result=None):
        """Wrap ``fn`` so that each call is one span named ``name``."""
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate_fn(self, name, fn):
        """Wrap ``fn`` so that calls add to a count and time on the parent."""
        clock = self.clock

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            self.add_aggregate(name, clock() - t0)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "trace_id": s.trace_id, "attrs": s.attrs,
                 "aggregates": s.aggregates} for s in self.spans]


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus what its children and aggregates cover.

    Children are clipped to the parent's interval. Aggregated calls carry
    no interval; they ran inside the span and outside its child spans, so
    their summed time is subtracted as well.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end)))
    out = []
    for i, s in enumerate(spans):
        covered = covered_length(children.get(i, []))
        agg = sum(seconds for _, seconds in s.aggregates.values())
        out.append(s.end - s.start - covered - agg)
    return out


# --- instrumentation of dustlink -------------------------------------------

def _on_transport(span, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    fates = result.fates
    span.attrs.update(
        packets=cfg.packet_count,
        events=round(result.mean_events * cfg.packet_count),
        reached=fates.reached, weight_killed=fates.weight_killed,
        backscatter_exit=fates.backscatter_exit,
        lateral_exit=fates.lateral_exit, guard_killed=fates.guard_killed)


def _on_extinction(span, args, kwargs, result):
    medium, f_hz = args[0], args[1]
    span.attrs["key"] = repr((medium.distribution, medium.permittivity, f_hz))


def _on_catalog(span, args, kwargs, result):
    span.attrs["lines"] = sum(len(v) for v in result.values())


def _on_absorption(span, args, kwargs, result):
    mixture, catalog = args[0], args[1]
    lines = sum(len(catalog.get(gas, ())) for gas, _ in mixture.species)
    span.attrs["line_points"] = lines * int(result.frequency_hz.size)


def _on_step(span, args, kwargs, result):
    span.attrs["particles"] = args[0].count()


def _on_csv(span, args, kwargs, result):
    span.attrs["bytes"] = Path(result).stat().st_size


# (span name, defining module, attribute, on_result). Each is rebound in
# every loaded dustlink module that holds the original object, which also
# catches a later ``from ... import`` of the name.
SPAN_TARGETS = (
    ("transport.estimate", "dustlink.transport", "estimate_transmittance",
     _on_transport),
    ("scatter.extinction", "dustlink.scatter", "ensemble_extinction",
     _on_extinction),
    ("atmosphere.catalog", "dustlink.atmosphere", "load_catalog_dir",
     _on_catalog),
    ("atmosphere.absorption", "dustlink.atmosphere", "absorption_coefficient",
     _on_absorption),
    ("storm.step", "dustlink.storm", "step_field", _on_step),
    ("storm.count", "dustlink.storm", "count_in_beam", None),
    ("link.scenario", "dustlink.link", "run_time_scenario", None),
    ("link.scenario", "dustlink.link", "run_distance_sweep", None),
    ("output.csv", "dustlink.output", "write_csv", _on_csv),
)

# Only the per-packet set-up inside transport; storm and link draw a
# handful of substreams per job, which stay inside their own spans.
AGGREGATE_TARGETS = (
    ("rng.substream", "dustlink.rng", "substream", ("dustlink.transport",)),
    ("rng.uniform_stream", "dustlink.rng", "UniformStream",
     ("dustlink.transport",)),
)


class Instrumentation:
    """Context manager that rebinds the targets to recording wrappers."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    @staticmethod
    def _holders(attr, original, modules):
        names = modules or sorted(
            n for n in sys.modules if n == "dustlink" or n.startswith("dustlink."))
        return [mod for mod in map(importlib.import_module, names)
                if vars(mod).get(attr) is original]

    def _rebind(self, defining, attr, modules, make_wrapper):
        original = getattr(importlib.import_module(defining), attr)
        holders = self._holders(attr, original, modules)
        if modules and len(holders) != len(modules):
            raise RuntimeError(f"{defining}.{attr} is not bound in all of {modules}")
        wrapper = make_wrapper(original)
        for mod in holders:
            self._saved.append((mod, attr, original))
            setattr(mod, attr, wrapper)

    def __enter__(self):
        rec = self.recorder
        for name, defining, attr, on_result in SPAN_TARGETS:
            self._rebind(defining, attr, None,
                         lambda fn, n=name, cb=on_result: rec.span_fn(n, fn, cb))
        for name, defining, attr, modules in AGGREGATE_TARGETS:
            self._rebind(defining, attr, modules,
                         lambda fn, n=name: rec.aggregate_fn(n, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer sums over one pass: self times, calls and span counters."""
    selfs = self_times(spans)
    totals: dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    ext_keys = set()
    for span, own in zip(spans, selfs):
        add(f"{span.name}.self_s", own)
        add(f"{span.name}.calls", 1)
        for key, value in span.attrs.items():
            if key == "key":
                ext_keys.add(value)
            else:
                add(f"{span.name}.{key}", value)
        for name, (calls, seconds) in span.aggregates.items():
            add(f"{name}.calls", calls)
            add(f"{name}.self_s", seconds)
    totals["scatter.extinction.distinct_keys"] = len(ext_keys)
    totals["self_sum_s"] = sum(selfs) + sum(
        seconds for s in spans for _, seconds in s.aggregates.values())
    return totals
