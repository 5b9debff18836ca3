"""Traced mode: spans around each layer's public entry points.

The wrappers live in the benchmark, not the program.  Each replaces the
entry point's attribute in its defining module *and* in every loaded
``repro`` module that bound it with ``from ... import``, since callers
look those names up in their own module (``repro.gsf.sizing`` calls its
own ``replay_on_engine`` binding, ``repro.allocation.fleet`` its own
``replay_columnar``).  Methods are replaced on their class.

A span records its name, start, end, parent span and the id of the op it
ran in.  Spans stay in memory and are written out when the run ends.  A
span's self time is its duration minus the time its child spans cover.
The carbon accountant's per-event hooks run once per placement and
departure (~10^4 times per op), so they are kept as per-parent totals
instead of one record per call; their time still counts as child time
of the enclosing span.

The binding self-test compares wrapped call counts with the program's
own telemetry counters, so a call site the wrappers missed fails loudly;
an entry point that no longer exists fails it too.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: (module, attribute, span name).  Attributes with a dot are methods.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.allocation.traces", "generate_trace", "trace.generate"),
    ("repro.allocation.store", "TraceStore.get", "trace.store_get"),
    ("repro.gsf.sizing", "right_size", "sizing.search/right_size"),
    ("repro.gsf.sizing", "size_mixed_cluster", "sizing.search/mixed"),
    ("repro.gsf.sizing", "size_generation_aware", "sizing.search/generation_aware"),
    ("repro.allocation.cluster", "simulate", "alloc.replay"),
    ("repro.allocation.cluster", "replay_columnar", "alloc.replay"),
    ("repro.allocation.cluster", "replay_on_engine", "alloc.replay"),
    ("repro.allocation.fleet", "simulate_fleet", "fleet.simulate"),
    ("repro.carbon.model", "CarbonModel.assess", "carbon.price"),
    ("repro.carbon.grid", "CarbonAccountant.on_place", "carbon.account"),
    ("repro.carbon.grid", "CarbonAccountant.on_remove", "carbon.account"),
    ("repro.carbon.grid", "CarbonAccountant.finalize", "carbon.account"),
    ("repro.perf.scaling", "scaling_factor", "perf.scaling_factors"),
    ("repro.perf.scaling", "scaling_table", "perf.scaling_factors"),
    ("repro.perf.latency", "latency_curve", "perf.latency_curves"),
    ("repro.perf.latency", "latency_curves", "perf.latency_curves"),
    ("repro.perf.queueing", "simulate_fcfs_batch", "queueing.grid"),
    ("repro.gsf.framework", "Gsf.evaluate", "gsf.evaluate"),
    ("repro.gsf.framework", "Gsf.evaluate_generation_aware", "gsf.evaluate"),
    ("repro.catalog.sweep", "run_sweep", "catalog.sweep"),
    ("repro.catalog.sweep", "_compute_point", "catalog.recompute"),
    ("repro.catalog.results", "ResultsCatalog.get", "catalog.read"),
    ("repro.catalog.results", "ResultsCatalog.put", "catalog.write"),
    ("repro.core.provenance", "ProvenanceLog.records", "provenance.read"),
    ("repro.core.provenance", "ProvenanceLog.record", "provenance.write"),
    ("repro.core.provenance", "invalidated", "provenance.diff"),
    ("repro.core.runner", "cached_map", "runner.map"),
    ("repro.core.resilience", "resilient_map", "runner.map"),
    ("repro.core.runner", "DiskCache.get", "runner.cache_read"),
    ("repro.core.runner", "DiskCache.put", "runner.cache_write"),
    ("repro.core.resilience", "CheckpointJournal.get", "journal.read"),
    ("repro.core.resilience", "CheckpointJournal.put", "journal.write"),
)

#: Targets recorded as per-parent totals rather than one span per call.
AGGREGATED = frozenset(
    {"CarbonAccountant.on_place", "CarbonAccountant.on_remove"}
)

#: Span-name prefix -> layer (the modules of ROADMAP's layer list).
LAYERS = {
    "op": "benchmark",
    "trace": "trace",
    "sizing": "sizing",
    "alloc": "alloc",
    "fleet": "alloc",
    "carbon": "carbon",
    "perf": "perf",
    "queueing": "perf",
    "gsf": "gsf",
    "catalog": "catalog",
    "provenance": "catalog",
    "runner": "runner",
    "journal": "runner",
}

#: Grids below this many points are "small" (the vectorized/scalar
#: break-even that ROADMAP item 2 measured).
SMALL_GRID_POINTS = 40


def layer_of(span_name: str) -> str:
    for sep in (".", "/"):
        head = span_name.split(sep, 1)[0]
        if head in LAYERS:
            return LAYERS[head]
    return "benchmark"


class Tracer:
    """In-memory span recorder plus the installed wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents: List[int] = []
        self.op_ids: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.stack: List[int] = []
        self.op_id = -1
        #: Grid points of each ``queueing.grid`` span, by span index.
        self.grid_points: Dict[int, int] = {}
        #: Aggregated hook time per parent span index (-1 = no parent).
        self.aggregated_under: Dict[int, float] = defaultdict(float)
        #: name -> [calls, total seconds] for aggregated hooks.
        self.aggregated: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        #: Wrapped calls per target ("module:attribute").
        self.calls: Counter = Counter()
        self.missing: List[str] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.op_ids.append(self.op_id)
        self.starts.append(time.perf_counter())
        self.ends.append(float("nan"))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        while self.stack:
            if self.stack.pop() == idx:
                break

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn: Callable, label: str, span: str, aggregated: bool) -> Callable:
        tracer = self
        clock = time.perf_counter
        calls = self.calls

        if aggregated:
            stats = self.aggregated[span]
            under = self.aggregated_under

            @functools.wraps(fn)
            def hook(*args, **kwargs):
                calls[label] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stats[0] += 1
                    stats[1] += dt
                    under[tracer.stack[-1] if tracer.stack else -1] += dt

            return hook

        sized = span == "queueing.grid"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[label] += 1
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if sized:
                tracer.grid_points[idx] = int(result.offered_qps.size)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target at its definition and its bindings."""
        for module_name, attr, span in TARGETS:
            label = f"{module_name}:{attr}"
            try:
                module = importlib.import_module(module_name)
                owner_name, _, name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[name]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(label)
                continue
            wrapped = self._wrap(original, label, span, attr in AGGREGATED)
            self._set(owner, name, wrapped)
            if owner_name:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is module or not mod_name.startswith("repro"):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, binding, wrapped)

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: duration minus the time its child spans cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        for parent, seconds in self.aggregated_under.items():
            if parent >= 0:
                own[parent] -= seconds
        return own

    def self_by_name(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, seconds in zip(self.names, self.self_times()):
            out[name] += seconds
        for name, (_, seconds) in self.aggregated.items():
            out[name] += seconds
        return dict(out)

    def total_by_name(self, name: str) -> float:
        """Inclusive time of ``name`` spans, counting only outermost ones."""
        total = 0.0
        for idx, span in enumerate(self.names):
            if span != name:
                continue
            parent = self.parents[idx]
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                total += self.ends[idx] - self.starts[idx]
        return total

    def layer_self_by_op_kind(self) -> Dict[str, Dict[str, float]]:
        """op kind -> layer -> self seconds, over the spans of those ops."""
        kind_of_op = {
            op: name[len("op/"):]
            for name, op, parent in zip(self.names, self.op_ids, self.parents)
            if parent < 0 and name.startswith("op/")
        }
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, op, seconds in zip(self.names, self.op_ids, self.self_times()):
            out[kind_of_op.get(op, "none")][layer_of(name)] += seconds
        for parent, seconds in self.aggregated_under.items():
            # Aggregated hooks are all carbon accounting.
            if parent >= 0:
                kind = kind_of_op.get(self.op_ids[parent], "none")
                out[kind]["carbon"] += seconds
        return {kind: dict(layers) for kind, layers in out.items()}

    def grid_self(self) -> Tuple[float, float]:
        """(small-grid, large-grid) self seconds of ``queueing.grid``."""
        small = large = 0.0
        for idx, seconds in enumerate(self.self_times()):
            points = self.grid_points.get(idx)
            if points is None:
                continue
            if points < SMALL_GRID_POINTS:
                small += seconds
            else:
                large += seconds
        return small, large

    def calls_of(self, *labels: str) -> int:
        return sum(self.calls[label] for label in labels)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fields": ["name", "parent", "op", "start_s", "end_s"],
            "spans": [
                [n, p, o, s, e]
                for n, p, o, s, e in zip(
                    self.names, self.parents, self.op_ids, self.starts, self.ends
                )
            ],
            "aggregated": {
                name: {"calls": int(c), "total_s": t}
                for name, (c, t) in self.aggregated.items()
            },
            "calls": dict(sorted(self.calls.items())),
            "missing_targets": list(self.missing),
        }


def binding_self_test(tracer: Tracer, counters: Dict[str, int]) -> List[str]:
    """Wrapped call counts against the program's own counters.

    Every target that could not be wrapped is a problem as well: its
    layer metrics would otherwise read 0 without a word.
    """
    c = counters.get
    pairs = [
        (
            "alloc.replay wrapper calls vs alloc.replays",
            tracer.calls_of(
                "repro.allocation.cluster:simulate",
                "repro.allocation.cluster:replay_columnar",
                "repro.allocation.cluster:replay_on_engine",
            ),
            c("alloc.replays", 0),
        ),
        (
            "right_size wrapper calls vs sizing.searches",
            tracer.calls_of("repro.gsf.sizing:right_size"),
            c("sizing.searches", 0),
        ),
        (
            "simulate_fcfs_batch wrapper calls vs queueing.batches",
            tracer.calls_of("repro.perf.queueing:simulate_fcfs_batch"),
            c("queueing.batches", 0),
        ),
        (
            "ResultsCatalog.get wrapper calls vs catalog.hits + catalog.misses",
            tracer.calls_of("repro.catalog.results:ResultsCatalog.get"),
            c("catalog.hits", 0) + c("catalog.misses", 0),
        ),
        (
            "accountant hook calls vs carbon.accounted_events",
            tracer.calls_of(
                "repro.carbon.grid:CarbonAccountant.on_place",
                "repro.carbon.grid:CarbonAccountant.on_remove",
            ),
            c("carbon.accounted_events", 0),
        ),
    ]
    return [f"entry point {label} not found" for label in tracer.missing] + [
        f"{what}: {wrapped} != {counted}"
        for what, wrapped, counted in pairs
        if wrapped != counted
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer, counters: Dict[str, int], overhead_ratio: float
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of ``BENCHMARK.json``: name -> (value, unit)."""
    own = tracer.self_by_name()
    s = lambda *names: sum(own.get(n, 0.0) for n in names)  # noqa: E731
    c = lambda *names: sum(counters.get(n, 0) for n in names)  # noqa: E731
    sizing_s = sum(
        (v for k, v in own.items() if k.startswith("sizing.search/")), 0.0
    )
    events = c("alloc.placements", "alloc.departures")
    small_s, large_s = tracer.grid_self()
    reads = c("catalog.hits", "catalog.misses")
    m: Dict[str, Tuple[float, str]] = {
        "trace.generate_s": (s("trace.generate"), "s"),
        "trace.generated_vms": (c("trace.generated_vms"), "count"),
        "trace.store_get_s": (s("trace.store_get"), "s"),
        "trace.store_hit_ratio": (
            _ratio(c("trace.store_hits"), c("trace.store_hits", "trace.store_misses")),
            "ratio",
        ),
        "sizing.self_s": (sizing_s, "s"),
        "sizing.searches": (c("sizing.searches"), "count"),
        "sizing.replays": (c("sizing.simulate_calls"), "count"),
        "sizing.replays_per_search": (
            _ratio(c("sizing.simulate_calls"), c("sizing.searches")),
            "ratio",
        ),
        "sizing.memo_hit_ratio": (
            _ratio(
                c("sizing.memo_hits"),
                c("sizing.memo_hits", "sizing.simulate_calls"),
            ),
            "ratio",
        ),
        "alloc.replay_s": (s("alloc.replay"), "s"),
        "alloc.replays": (c("alloc.replays"), "count"),
        "alloc.events": (events, "count"),
        "alloc.us_per_event": (_ratio(s("alloc.replay") * 1e6, events), "us"),
        "engine.probes_per_query": (
            _ratio(
                c("engine.bucket_probes", "engine.servers_scanned"),
                c("engine.queries"),
            ),
            "ratio",
        ),
        "alloc.rejections": (c("alloc.rejections"), "count"),
        "alloc.fallback_placements": (c("alloc.fallback_placements"), "count"),
        "placement.tier_probes": (c("placement.tier_probes"), "count"),
        "carbon.price_s": (s("carbon.price"), "s"),
        "carbon.price_calls": (
            tracer.calls_of("repro.carbon.model:CarbonModel.assess"),
            "count",
        ),
        "carbon.account_s": (s("carbon.account"), "s"),
        "carbon.accounted_events": (c("carbon.accounted_events"), "count"),
        "carbon.us_per_event": (
            _ratio(s("carbon.account") * 1e6, c("carbon.accounted_events")),
            "us",
        ),
        "perf.scaling_s": (s("perf.scaling_factors", "perf.latency_curves"), "s"),
        "queueing.grid_s": (s("queueing.grid"), "s"),
        "queueing.small_grid_s": (small_s, "s"),
        "queueing.large_grid_s": (large_s, "s"),
        "queueing.batches": (c("queueing.batches"), "count"),
        "queueing.grid_points": (c("queueing.grid_points"), "count"),
        "queueing.points_per_batch": (
            _ratio(c("queueing.grid_points"), c("queueing.batches")),
            "ratio",
        ),
        "queueing.events_simulated": (c("queueing.events_simulated"), "count"),
        "queueing.wide_core_fallback": (c("queueing.wide_core_fallback"), "count"),
        "gsf.evaluate_s": (tracer.total_by_name("gsf.evaluate"), "s"),
        "gsf.self_s": (s("gsf.evaluate"), "s"),
        "catalog.read_s": (s("catalog.read"), "s"),
        "catalog.write_s": (s("catalog.write"), "s"),
        "catalog.hits": (c("catalog.hits"), "count"),
        "catalog.misses": (c("catalog.misses"), "count"),
        "catalog.writes": (c("catalog.writes"), "count"),
        "catalog.hit_ratio": (_ratio(c("catalog.hits"), reads), "ratio"),
        "catalog.read_ms_per_entry": (_ratio(s("catalog.read") * 1e3, reads), "ms"),
        "provenance.s": (
            s("provenance.read", "provenance.write", "provenance.diff"),
            "s",
        ),
        "provenance.records": (c("provenance.records"), "count"),
        "runner.map_self_s": (s("runner.map"), "s"),
        "runner.tasks": (c("runner.tasks"), "count"),
        "runner.parallel_tasks": (c("runner.parallel_tasks"), "count"),
        "runner.cache_hit_ratio": (
            _ratio(
                c("runner.cache_hits"),
                c("runner.cache_hits", "runner.cache_misses"),
            ),
            "ratio",
        ),
        "resilience.checkpointed": (c("resilience.checkpointed"), "count"),
        "journal.write_s": (s("journal.write"), "s"),
        "trace_overhead_ratio": (overhead_ratio, "ratio"),
    }
    return m
