"""The four benchmark workloads: op streams, set-up, execution and digests.

Every workload is a closed loop with one caller: the next op starts when
the previous one returns, because GSF is a batch tool whose user waits on
each result.  A run is a fixed list of ops built from the workload seed
(``Workload.ops``); its length is a whole number of *rounds*, each round
being one copy of the workload's op mix.

Op inputs are drawn, by the seed, from a finite input universe whose
every output digest is pinned in ``pinned.json`` (``pin.py`` writes it
after checking the digests against the program's oracle backends).  So
any seed's outputs can be checked exactly, while different seeds still
see different inputs and orders.

The program is called through module attributes (``traces.generate_trace``
rather than a ``from`` import) so that the traced mode's wrappers, which
replace those attributes, see every call.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Op:
    """One call the workload's caller waits on.

    ``key`` names the op's input in the pinned-digest universe; ``args``
    are the inputs themselves.
    """

    kind: str
    key: str
    args: Tuple[Any, ...]


def sha(*parts: object) -> str:
    """sha256 over the ``repr`` of ``parts`` (floats repr exactly)."""
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


class Workload:
    """Interface of a workload; the subclasses below implement it."""

    name = ""
    #: Worker processes the untraced run uses (the traced run uses 1).
    jobs = 1
    #: Wall seconds one round took on the reference host (2 vCPU); the
    #: run's round count is ``seconds / nominal_round_s``, so it is a
    #: fixed function of ``--seconds`` and never of measured speed.
    nominal_round_s = 1.0
    #: Rounds needed for at least 11 ops, so a percentile with 10 ops
    #: beyond it exists.
    min_rounds = 1
    #: Repository modules the workload imports (timed as part of set-up).
    modules: Tuple[str, ...] = ()

    def rounds_for(self, seconds: float) -> int:
        return max(self.min_rounds, round(seconds / self.nominal_round_s))

    def ops(self, seed: int, rounds: int) -> List[Op]:
        raise NotImplementedError

    def setup(self, tmp: Path, seed: int) -> Any:
        """Build inputs and stores under ``tmp``, then run one warm-up op."""
        raise NotImplementedError

    def run(self, state: Any, op: Op, jobs: int) -> Any:
        raise NotImplementedError

    def observe(self, state: Any, op: Op, output: Any) -> Dict[str, Any]:
        """Pin-key -> value pairs that this op's output determines."""
        raise NotImplementedError

    def check(
        self, state: Any, op: Op, output: Any, pins: Dict[str, Any]
    ) -> Optional[str]:
        """``None`` when the output matches the pins, else the reason."""
        for key, value in self.observe(state, op, output).items():
            if key not in pins:
                return f"no pinned digest for {key}"
            if pins[key] != value:
                return f"{key}: got {value!r}, pinned {pins[key]!r}"
        return None

    def pin_groups(self) -> List[Tuple[int, List[Op]]]:
        """(seed, ops) groups whose outputs cover the whole universe."""
        raise NotImplementedError

    def before(self, state: Any, op: Op) -> None:
        """Untimed preparation for ``op`` (none by default)."""


# -- evaluate ------------------------------------------------------------------


class Evaluate(Workload):
    """``repro evaluate``: ``generate_trace`` plus ``Gsf.evaluate``."""

    name = "evaluate"
    nominal_round_s = 4.3
    modules = (
        "repro.allocation.traces",
        "repro.gsf.framework",
        "repro.hardware.sku",
    )

    #: Mean concurrent VMs of the generated traces: a 4x span.
    SIZES = (100, 160, 250, 400)
    SKUS = ("GreenSKU-Efficient", "GreenSKU-CXL", "GreenSKU-Full")
    TRACE_SEEDS = tuple(range(1, 9))
    #: Ops per round that run ``evaluate_generation_aware`` (one in four).
    AWARE_PER_ROUND = 3

    @staticmethod
    def _op(kind: str, vms: int, sku: str, trace_seed: int) -> Op:
        return Op(kind, f"{kind}/{sku}/{vms}/{trace_seed}", (vms, sku, trace_seed))

    def ops(self, seed: int, rounds: int) -> List[Op]:
        rng = random.Random(f"evaluate/{seed}")
        cells = [(vms, sku) for vms in self.SIZES for sku in self.SKUS]
        # Each cell cycles through its own seeded order of trace seeds,
        # so every run spreads its ops evenly over the pool.
        orders = [rng.sample(self.TRACE_SEEDS, len(self.TRACE_SEEDS)) for _ in cells]
        out: List[Op] = []
        for r in range(rounds):
            aware = set(rng.sample(range(len(cells)), self.AWARE_PER_ROUND))
            round_ops = [
                self._op(
                    "generation_aware" if i in aware else "evaluate",
                    vms,
                    sku,
                    orders[i][r % len(self.TRACE_SEEDS)],
                )
                for i, (vms, sku) in enumerate(cells)
            ]
            rng.shuffle(round_ops)
            out.extend(round_ops)
        return out

    def setup(self, tmp: Path, seed: int) -> Any:
        from repro.gsf.framework import Gsf
        from repro.hardware.sku import paper_skus

        state = SimpleNamespace(gsf=Gsf(), skus=paper_skus())
        self.run(state, self._op("evaluate", self.SIZES[0], self.SKUS[0], 1), 1)
        return state

    def run(self, state: Any, op: Op, jobs: int) -> Any:
        from repro.allocation import traces

        vms, sku, trace_seed = op.args
        trace = traces.generate_trace(
            trace_seed, traces.TraceParams(mean_concurrent_vms=vms)
        )
        if op.kind == "evaluate":
            return state.gsf.evaluate(state.skus[sku], trace)
        return state.gsf.evaluate_generation_aware(state.skus[sku], trace)

    def observe(self, state: Any, op: Op, output: Any) -> Dict[str, Any]:
        sizing = output.sizing
        if op.kind == "evaluate":
            triple = (
                sizing.baseline_only_servers,
                sizing.mixed_baseline_servers,
                sizing.mixed_green_servers,
            )
        else:
            triple = (
                sorted(sizing.reference_by_gen.items()),
                sorted(sizing.mixed_baselines_by_gen.items()),
                sizing.mixed_green_servers,
            )
        return {op.key: sha(triple, output.cluster_savings)}

    def pin_groups(self) -> List[Tuple[int, List[Op]]]:
        ops = [
            self._op(kind, vms, sku, trace_seed)
            for kind in ("evaluate", "generation_aware")
            for vms in self.SIZES
            for sku in self.SKUS
            for trace_seed in self.TRACE_SEEDS
        ]
        return [(0, ops)]


# -- fleet ---------------------------------------------------------------------


class Fleet(Workload):
    """``simulate_fleet`` over a few clusters read from the trace store."""

    name = "fleet"
    jobs = 2
    nominal_round_s = 0.8
    min_rounds = 4
    modules = (
        "repro.allocation.cluster",
        "repro.allocation.fleet",
        "repro.allocation.store",
        "repro.allocation.traces",
        "repro.core.resilience",
        "repro.hardware.sku",
    )

    POOL = 8
    CLUSTERS_PER_OP = 4
    #: Mean concurrent VMs per cluster before the +-10% jitter.
    CONCURRENT = 600
    #: (placement policy, grid signal) per op mode.
    MODES = (("blind", None), ("blind", "diurnal"), ("carbon_aware", "diurnal"))

    def tasks(self) -> list:
        """The cluster pool: 3-day traces, Gen3 + GreenSKU-Full at 20%
        headroom, sizes jittered without RNG (as ``bench_fleet``)."""
        from repro.allocation.cluster import ClusterSpec
        from repro.allocation.fleet import ClusterTask
        from repro.allocation.traces import TraceParams
        from repro.hardware.sku import baseline_gen3, greensku_full

        g3, green = baseline_gen3(), greensku_full()
        tasks = []
        for i in range(self.POOL):
            conc = int(self.CONCURRENT * (0.9 + 0.2 * (i % 5) / 4.0))
            total = max(int(conc * 5.23 / g3.cores * 1.20), 4)
            n_green = total // 3
            tasks.append(
                ClusterTask(
                    name=f"cluster-{i:02d}",
                    seed=1000 + i,
                    params=TraceParams(
                        duration_days=3.0, mean_concurrent_vms=conc
                    ),
                    cluster=ClusterSpec.of((g3, total - n_green), (green, n_green)),
                )
            )
        return tasks

    @staticmethod
    def _op(mode: Tuple[str, Optional[str]], members: Sequence[int]) -> Op:
        policy, signal = mode
        kind = policy if signal is None else f"{policy}+{signal}"
        ids = ",".join(str(i) for i in members)
        return Op(kind, f"{policy}+{signal}:{ids}", (policy, signal, tuple(members)))

    def ops(self, seed: int, rounds: int) -> List[Op]:
        rng = random.Random(f"fleet/{seed}")
        out: List[Op] = []
        for _ in range(rounds):
            modes = list(self.MODES)
            rng.shuffle(modes)
            for mode in modes:
                members = rng.sample(range(self.POOL), self.CLUSTERS_PER_OP)
                out.append(self._op(mode, members))
        return out

    def setup(self, tmp: Path, seed: int) -> Any:
        from repro.allocation import traces
        from repro.allocation.store import TraceStore

        os.environ["REPRO_TRACE_STORE"] = "1"
        os.environ["REPRO_TRACE_STORE_DIR"] = str(tmp / "store")
        state = SimpleNamespace(tasks=self.tasks(), tmp=tmp, journals=0, engine=None)
        store = TraceStore()
        for task in state.tasks:
            trace = traces.generate_trace(task.seed, task.params, name=task.name)
            store.put(task.seed, task.params, trace.columns)
        self.run(state, self._op(self.MODES[0], range(self.CLUSTERS_PER_OP)), self.jobs)
        return state

    def run(self, state: Any, op: Op, jobs: int) -> Any:
        from repro.allocation import fleet
        from repro.allocation.cluster import adopt_everything
        from repro.core.resilience import CheckpointJournal, ResiliencePolicy

        policy, signal, members = op.args
        # A fresh journal per op: every shard writes one entry and none
        # resumes from an earlier op.
        state.journals += 1
        journal = CheckpointJournal(state.tmp / f"journal-{state.journals}")
        spec = fleet.FleetSpec(clusters=tuple(state.tasks[i] for i in members))
        return fleet.simulate_fleet(
            spec,
            adopt_everything,
            engine=state.engine,
            jobs=jobs,
            policy=ResiliencePolicy(journal=journal),
            placement_policy=policy,
            grid_signal=signal,
        )

    def observe(self, state: Any, op: Op, output: Any) -> Dict[str, Any]:
        from repro.allocation.cluster import outcome_digest

        policy, signal, members = op.args
        entries = {}
        for i, outcome in zip(members, output.outcomes):
            kg = None if outcome is None or outcome.operational is None else (
                repr(outcome.operational.total_kg)
            )
            digest = None if outcome is None else outcome_digest(outcome)
            entries[f"cluster-{i:02d}/{policy}+{signal}"] = [digest, kg]
        return entries

    def check(
        self, state: Any, op: Op, output: Any, pins: Dict[str, Any]
    ) -> Optional[str]:
        reason = super().check(state, op, output, pins)
        if reason is not None:
            return reason
        if not output.feasible:
            return "fleet replay rejected VMs or lost a shard"
        # The fleet-level identities follow from the pinned shards: the
        # digest hashes (name, shard digest) in spec order, and the
        # operational total sums the shard totals in spec order.
        policy, signal, members = op.args
        h = hashlib.sha256()
        kg_sum = 0.0
        for i in members:
            digest, kg = pins[f"cluster-{i:02d}/{policy}+{signal}"]
            h.update(f"cluster-{i:02d}".encode("utf-8") + b"\x00")
            h.update(digest.encode("utf-8") + b"\x00")
            if kg is not None:
                kg_sum += float(kg)
        if output.digest() != h.hexdigest():
            return "fleet digest differs from the pinned shard digests"
        if output.operational_kg() != kg_sum:
            return (
                f"operational_kg {output.operational_kg()!r} != pinned "
                f"{kg_sum!r}"
            )
        return None

    def pin_groups(self) -> List[Tuple[int, List[Op]]]:
        chunks = [
            range(start, start + self.CLUSTERS_PER_OP)
            for start in range(0, self.POOL, self.CLUSTERS_PER_OP)
        ]
        return [(0, [self._op(mode, c) for mode in self.MODES for c in chunks])]


# -- perf-sim ------------------------------------------------------------------


class PerfSim(Workload):
    """The simulated-latency path of the perf layer."""

    name = "perf-sim"
    nominal_round_s = 3.4
    min_rounds = 4
    modules = (
        "repro.experiments.fig7_latency",
        "repro.perf.apps",
        "repro.perf.latency",
        "repro.perf.scaling",
    )

    SCALING_PER_ROUND = 2
    GENERATIONS = (1, 2, 3)
    #: Nominal seconds of the one ``scaling_table`` op per run.
    TABLE_S = 2.3

    def rounds_for(self, seconds: float) -> int:
        return super().rounds_for(max(seconds - self.TABLE_S, 0.0))

    def _pairs(self) -> List[Tuple[str, int]]:
        """(latency-critical app, generation) pairs that reach the simulator.

        Pairs whose analytic factor is ">1.5" saturate at every candidate
        core count and return without simulating a single grid, so they
        would only add near-zero ops.
        """
        from repro.perf.apps import APPLICATIONS
        from repro.perf.scaling import scaling_factor

        return [
            (app.name, gen)
            for app in APPLICATIONS
            if app.latency_critical
            for gen in self.GENERATIONS
            if math.isfinite(scaling_factor(app, gen).factor)
        ]

    @staticmethod
    def _fig7_apps() -> Tuple[str, ...]:
        from repro.experiments.fig7_latency import FIG7_APPS

        return FIG7_APPS

    def ops(self, seed: int, rounds: int) -> List[Op]:
        rng = random.Random(f"perf-sim/{seed}")
        # One seeded generation per app, apps in a seeded order, cycled:
        # a run's few ops then span the apps, whose simulations differ
        # most in cost, instead of a random handful of pairs.
        gens: Dict[str, List[int]] = {}
        for app, gen in self._pairs():
            gens.setdefault(app, []).append(gen)
        apps = rng.sample(sorted(gens), len(gens))
        pairs = [(app, rng.choice(gens[app])) for app in apps]
        fig7 = rng.sample(self._fig7_apps(), len(self._fig7_apps()))
        out: List[Op] = []
        for r in range(rounds):
            round_ops = []
            for i in range(self.SCALING_PER_ROUND):
                app, gen = pairs[(r * self.SCALING_PER_ROUND + i) % len(pairs)]
                round_ops.append(Op("scaling_factor", f"sf/{app}/{gen}", (app, gen)))
            # Alternate an 18-point curve with a 72-point panel, so grid
            # sizes fall on both sides of the 40-point break-even.
            kind = "latency_curve" if r % 2 == 0 else "latency_curves"
            app = fig7[(r // 2) % len(fig7)]
            round_ops.append(Op(kind, f"{kind}/{app}", (app,)))
            rng.shuffle(round_ops)
            out.extend(round_ops)
        out.insert(rng.randrange(len(out) + 1), Op("scaling_table", "table", ()))
        return out

    def setup(self, tmp: Path, seed: int) -> Any:
        state = SimpleNamespace()
        self.run(state, Op("scaling_factor", "", self._pairs()[0]), 1)
        return state

    def run(self, state: Any, op: Op, jobs: int) -> Any:
        from repro.experiments.fig7_latency import LOAD_FRACTIONS
        from repro.perf import latency, scaling
        from repro.perf.apps import get_app

        if op.kind == "scaling_factor":
            app, gen = op.args
            return scaling.scaling_factor(get_app(app), gen, method="sim")
        if op.kind == "scaling_table":
            return scaling.scaling_table(method="sim")
        app = get_app(op.args[0])
        if op.kind == "latency_curve":
            return latency.latency_curve(
                app, "gen3", 8, load_fractions=LOAD_FRACTIONS, method="sim"
            )
        peak = latency.peak_qps(app, "gen3", 8)
        specs = [latency.CurveSpec(platform="gen3", cores=8)] + [
            latency.CurveSpec(platform="bergamo", cores=cores, reference_peak_qps=peak)
            for cores in scaling.CANDIDATE_CORES
        ]
        return latency.latency_curves(
            app, specs, load_fractions=LOAD_FRACTIONS, method="sim"
        )

    def observe(self, state: Any, op: Op, output: Any) -> Dict[str, Any]:
        if op.kind == "scaling_table":
            output = sorted(
                (app, sorted(row.items())) for app, row in output.items()
            )
        return {op.key: sha(output)}

    def pin_groups(self) -> List[Tuple[int, List[Op]]]:
        ops = [
            Op("scaling_factor", f"sf/{app}/{gen}", (app, gen))
            for app, gen in self._pairs()
        ]
        for app in self._fig7_apps():
            for kind in ("latency_curve", "latency_curves"):
                ops.append(Op(kind, f"{kind}/{app}", (app,)))
        ops.append(Op("scaling_table", "table", ()))
        return [(0, ops)]


# -- sweep ---------------------------------------------------------------------


class Sweep(Workload):
    """Warm and incremental ``run_sweep`` calls over a populated catalog."""

    name = "sweep"
    nominal_round_s = 0.27
    modules = (
        "repro.catalog.results",
        "repro.catalog.sweep",
        "repro.core.provenance",
    )

    #: Synthetic-trace seed of the grid, chosen by the workload seed.
    TRACE_SEEDS = (7, 8, 9)
    GRID = dict(
        skus=("GreenSKU-CXL", "GreenSKU-Full"),
        adoption_rules=("carbon-aware", "always"),
        buffer_fractions=(0.1, 0.15, 0.2),
        cxl_dimm_counts=(None, 8),
    )
    #: Buffer fractions of the one-point sweeps (outside the grid's).
    INCREMENT_BUFFERS = (0.3, 0.35)
    OPS_PER_ROUND = 20
    #: One-point queries of grid points that set-up runs, each followed
    #: by a warm sweep of the whole grid, so that the provenance log
    #: every op reads holds a fixed history of re-recorded summaries.
    HISTORY_QUERIES = 50

    def _spec(self, trace_seed: int):
        from repro.catalog.sweep import SweepSpec

        return SweepSpec(seed=trace_seed, **self.GRID)

    def _increment_op(self, t: int, sku: str, rule: str, buffer: float) -> Op:
        key = f"increment/{t}/{sku}/{rule}/{buffer}"
        return Op("increment", key, (t, sku, rule, buffer))

    def _increment_ops(self, t: int) -> List[Op]:
        return [
            self._increment_op(t, sku, rule, buffer)
            for sku in self.GRID["skus"]
            for rule in self.GRID["adoption_rules"]
            for buffer in self.INCREMENT_BUFFERS
        ]

    def _trace_seed(self, seed: int) -> int:
        return self.TRACE_SEEDS[seed % len(self.TRACE_SEEDS)]

    def ops(self, seed: int, rounds: int) -> List[Op]:
        rng = random.Random(f"sweep/{seed}")
        t = self._trace_seed(seed)
        increments = self._increment_ops(t)
        increments = rng.sample(increments, len(increments))
        out: List[Op] = []
        for r in range(rounds):
            round_ops = [Op("warm", f"warm/{t}", (t,))] * (self.OPS_PER_ROUND - 1)
            round_ops.insert(
                rng.randrange(self.OPS_PER_ROUND), increments[r % len(increments)]
            )
            out.extend(round_ops)
        return out

    def _history(self) -> List[Tuple[str, str, float, Optional[int]]]:
        grid = [
            (sku, rule, buffer, dimms)
            for sku in self.GRID["skus"]
            for rule in self.GRID["adoption_rules"]
            for buffer in self.GRID["buffer_fractions"]
            for dimms in self.GRID["cxl_dimm_counts"]
        ]
        return [grid[i % len(grid)] for i in range(self.HISTORY_QUERIES)]

    def setup(self, tmp: Path, seed: int) -> Any:
        from repro.catalog.sweep import SweepSpec

        os.environ["REPRO_CACHE"] = "1"
        os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
        os.environ["REPRO_CATALOG_DIR"] = str(tmp / "catalog")
        t = self._trace_seed(seed)
        state = SimpleNamespace(
            catalog_dir=tmp / "catalog",
            cache_dir=tmp / "cache",
            log_path=tmp / "provenance.jsonl",
        )
        state.cold = self._sweep(state, self._spec(t), 1)
        for sku, rule, buffer, dimms in self._history():
            query = SweepSpec(
                skus=(sku,),
                adoption_rules=(rule,),
                buffer_fractions=(buffer,),
                cxl_dimm_counts=(dimms,),
                seed=t,
            )
            if self._sweep(state, query, 1).recomputed:
                raise RuntimeError("a history query of a grid point recomputed")
            self.run(state, Op("warm", f"warm/{t}", (t,)), 1)
        state.log_bytes = state.log_path.stat().st_size
        state.files = set(self._files(state))
        return state

    @staticmethod
    def _files(state: Any) -> List[Path]:
        return [
            path
            for directory in (state.catalog_dir, state.cache_dir)
            for path in directory.rglob("*")
            if path.is_file()
        ]

    def before(self, state: Any, op: Op) -> None:
        """Undo the previous one-point sweep before the next one.

        The provenance log is append-only and the catalog and disk cache
        only gain files, so truncating the log to its set-up length and
        deleting the new files restores the state set-up left.  Without
        this the log grows with every one-point sweep, and warm sweeps,
        which re-read it, slow down the longer a run lasts.
        """
        if op.kind != "increment":
            return
        with open(state.log_path, "r+b") as fh:
            fh.truncate(state.log_bytes)
        for path in self._files(state):
            if path not in state.files:
                path.unlink()

    def _sweep(self, state: Any, spec: Any, jobs: int) -> Any:
        from repro.catalog import sweep
        from repro.catalog.results import ResultsCatalog
        from repro.core.provenance import ProvenanceLog

        # Fresh store objects per op, as each CLI invocation makes them.
        return sweep.run_sweep(
            spec,
            ResultsCatalog(state.catalog_dir),
            ProvenanceLog(state.log_path),
            jobs=jobs,
        )

    def run(self, state: Any, op: Op, jobs: int) -> Any:
        from repro.catalog.sweep import SweepSpec

        if op.kind == "warm":
            return self._sweep(state, self._spec(op.args[0]), jobs)
        t, sku, rule, buffer = op.args
        spec = SweepSpec(
            skus=(sku,), adoption_rules=(rule,), buffer_fractions=(buffer,), seed=t
        )
        return self._sweep(state, spec, jobs)

    def observe(self, state: Any, op: Op, output: Any) -> Dict[str, Any]:
        """The summary key plus the bytes of every entry the sweep names."""
        from repro.catalog.results import ResultsCatalog

        catalog = ResultsCatalog(state.catalog_dir)
        h = hashlib.sha256(output.summary_key.encode("utf-8"))
        for key in list(output.keys) + [output.summary_key]:
            h.update(key.encode("utf-8"))
            h.update(catalog.entry_path(key).read_bytes())
        return {op.key: h.hexdigest()}

    def check(
        self, state: Any, op: Op, output: Any, pins: Dict[str, Any]
    ) -> Optional[str]:
        expect_fresh = 0 if op.kind == "warm" else 1
        if len(output.recomputed) != expect_fresh:
            return (
                f"{op.kind} sweep recomputed {len(output.recomputed)} "
                f"points, expected {expect_fresh}"
            )
        return super().check(state, op, output, pins)

    def pin_groups(self) -> List[Tuple[int, List[Op]]]:
        return [
            (seed, [Op("warm", f"warm/{t}", (t,))] + self._increment_ops(t))
            for seed, t in enumerate(self.TRACE_SEEDS)
        ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Evaluate(), Fleet(), PerfSim(), Sweep())
}


def tail_percentile(latencies: Sequence[float]) -> Tuple[float, int]:
    """(value, percentile): the highest percentile with 10 ops beyond it.

    Nearest rank: the value is the 11th largest latency, so exactly ten
    ops lie beyond it; its percentile is ``100 * (n - 10) / n`` rounded
    down.  Needs at least 11 latencies.
    """
    n = len(latencies)
    if n < 11:
        raise ValueError(f"need at least 11 ops for a tail, got {n}")
    return sorted(latencies)[n - 11], math.floor(100 * (n - 10) / n)
