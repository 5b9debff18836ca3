"""GSF's cluster sizing component (Section IV-D / V).

Determines how many baseline SKUs and GreenSKUs a cluster needs to host a
VM workload with no rejections:

1. Right-size a baseline-only cluster: the minimum server count that
   hosts every VM in the trace (the reference the savings are measured
   against).
2. Replace baseline SKUs with GreenSKUs: the paper incrementally swaps
   baseline servers for enough GreenSKUs until no more can be replaced —
   the fixed point is a cluster where baseline SKUs host exactly the VMs
   that cannot adopt (plus full-node VMs) and GreenSKUs host the rest.
   We reach the same fixed point directly by right-sizing each side of
   that partition, then verifying the mixed cluster end to end with the
   allocation simulator (adding GreenSKUs if fungible interleaving
   changed the picture).

Out-of-service maintenance overhead inflates each side's server count
(failed servers await repair, so extra capacity is deployed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..allocation.cluster import (
    AdoptionPolicy,
    ClusterSpec,
    _ReferenceBackend,
    adopt_nothing,
    replay_on_engine,
    resolve_engine,
    simulate,
)
from ..allocation.index import PlacementEngine
from ..allocation.scheduler import BestFitScheduler, Server
from ..allocation.traces import VmTrace
from ..core import telemetry
from ..core.errors import CapacityError, ConfigError, SizingError
from ..hardware.sku import ServerSKU

#: Hard cap on sizing; a trace needing more servers than this is
#: misconfigured for the simulator's scale.
MAX_SERVERS = 20_000


@dataclass
class SizingStats:
    """Feasibility-probe counters for the sizing searches.

    ``simulate_calls`` counts configurations actually replayed through
    the allocation simulator; ``memo_hits`` counts probes answered from
    the per-search memo — each hit is a duplicate ``simulate()`` the memo
    eliminated.  A module-wide aggregate (:func:`sizing_stats`) feeds the
    bench harness's hit/miss report.
    """

    simulate_calls: int = 0
    memo_hits: int = 0

    @property
    def probes(self) -> int:
        return self.simulate_calls + self.memo_hits

    def merge(self, other: "SizingStats") -> None:
        self.simulate_calls += other.simulate_calls
        self.memo_hits += other.memo_hits


_GLOBAL_SIZING_STATS = SizingStats()


def sizing_stats() -> SizingStats:
    """Process-wide probe counters (reset with :func:`reset_sizing_stats`)."""
    return _GLOBAL_SIZING_STATS


def reset_sizing_stats() -> SizingStats:
    global _GLOBAL_SIZING_STATS
    _GLOBAL_SIZING_STATS = SizingStats()
    return _GLOBAL_SIZING_STATS


class _FeasibilityMemo:
    """Memoizes one search's feasibility probes.

    Scoped to a single sizing search, where the trace and adoption policy
    are fixed, so a configuration key (server count, or a count tuple for
    mixed clusters) fully determines the simulator's verdict.  Guarantees
    no configuration is ever simulated twice within the search.
    """

    def __init__(self, probe: Callable[..., bool]):
        self._probe = probe
        self._seen: Dict[Hashable, bool] = {}
        self.stats = SizingStats()

    def __call__(self, *key: Hashable) -> bool:
        cached = self._seen.get(key)
        if cached is not None:
            self.stats.memo_hits += 1
            _GLOBAL_SIZING_STATS.memo_hits += 1
            return cached
        result = self._probe(*key)
        self.stats.simulate_calls += 1
        _GLOBAL_SIZING_STATS.simulate_calls += 1
        self._seen[key] = result
        return result


@dataclass(frozen=True)
class ClusterSizing:
    """Output of the sizing search.

    Attributes:
        baseline_only_servers: Right-sized all-baseline cluster.
        mixed_baseline_servers: Baseline SKUs in the mixed cluster.
        mixed_green_servers: GreenSKUs in the mixed cluster.
        oos_overhead_baseline / oos_overhead_green: Out-of-service server
            fractions applied on top of the counts when computing carbon.
    """

    baseline_only_servers: int
    mixed_baseline_servers: int
    mixed_green_servers: int
    oos_overhead_baseline: float = 0.0
    oos_overhead_green: float = 0.0

    @property
    def mixed_total(self) -> int:
        return self.mixed_baseline_servers + self.mixed_green_servers

    @property
    def deployed_baseline_only(self) -> float:
        """Baseline-only servers including out-of-service overhead."""
        return self.baseline_only_servers * (1 + self.oos_overhead_baseline)

    @property
    def deployed_mixed(self) -> Tuple[float, float]:
        """(baseline, green) deployed counts including OOS overhead."""
        return (
            self.mixed_baseline_servers * (1 + self.oos_overhead_baseline),
            self.mixed_green_servers * (1 + self.oos_overhead_green),
        )


class _EngineProber:
    """One reusable indexed engine for a whole sizing search.

    Every feasibility probe of a search replays the same trace against
    the same SKU slots with different counts.  Instead of rebuilding the
    cluster per probe, this keeps a single :class:`PlacementEngine` and
    applies server add/remove deltas between probes; each SKU slot owns a
    disjoint ascending id range so the relative server order always
    matches what ``ClusterSpec.build_servers`` would produce (ties in the
    placement rank keys resolve by pool order, which both schemes keep
    identical — and no id leaks into a :class:`SimOutcome`).  Probes
    replay with ``raise_on_reject``, which decides the verdict at the
    first rejection; :meth:`PlacementEngine.reset` restores pristine
    server state before every probe either way.
    """

    #: Id stride per SKU slot; must exceed any probed count (MAX_SERVERS).
    _STRIDE = 1 << 21

    def __init__(
        self,
        trace: VmTrace,
        skus: Sequence[ServerSKU],
        adoption: AdoptionPolicy,
    ):
        self._trace = trace
        self._skus = list(skus)
        self._adoption = adoption
        self._engine = PlacementEngine(policy="best-fit", track_stats=False)
        self._counts: List[int] = [0] * len(self._skus)

    def __call__(self, *counts: int) -> bool:
        if len(counts) != len(self._skus):
            raise ConfigError(
                f"prober takes {len(self._skus)} counts, got {len(counts)}"
            )
        engine = self._engine
        engine.reset()
        for slot, want in enumerate(counts):
            have = self._counts[slot]
            if want == have:
                continue
            if want > MAX_SERVERS:
                raise SizingError(f"probe count {want} exceeds {MAX_SERVERS}")
            base = slot * self._STRIDE
            sku = self._skus[slot]
            if want > have:
                for j in range(have, want):
                    engine.add_server(Server(base + j, sku))
            else:
                for j in range(want, have):
                    engine.remove_server(base + j)
            self._counts[slot] = want
        spec = ClusterSpec(
            skus=tuple(zip(self._skus, counts))
        )
        try:
            replay_on_engine(
                self._trace,
                spec,
                engine,
                adoption=self._adoption,
                snapshot_hours=1e9,
                raise_on_reject=True,
            )
        except CapacityError:
            return False
        return True


def _prober(
    trace: VmTrace, skus: Sequence[ServerSKU], adoption: AdoptionPolicy
) -> Callable[..., bool]:
    """Feasibility of ``trace`` on ``skus`` at given per-slot counts.

    The reference engine rebuilds the cluster per probe; the indexed
    engine probes on one reused :class:`_EngineProber`.
    """
    if resolve_engine() != "reference":
        return _EngineProber(trace, skus, adoption)

    def probe(*counts: int) -> bool:
        cluster = ClusterSpec(skus=tuple(zip(skus, counts)))
        outcome = simulate(
            trace, cluster, adoption=adoption, snapshot_hours=1e9
        )
        return outcome.feasible

    return probe


class _OnDemandPool:
    """One-SKU placement backend that opens servers as the replay needs them.

    Wraps a flat backend that starts with no servers.  When a choice finds
    no open server able to host the VM, the pool opens the next server
    (ids 0, 1, 2, ... in order) and asks again.  An empty server is the
    most room a one-SKU pool can offer, so a VM that does not fit the
    freshly opened server can never be placed: that raises
    :class:`SizingError` naming it.  ``opened`` counts the servers opened
    so far (see :func:`right_size` for why that is the minimum size).
    """

    def __init__(self, sku: ServerSKU, policy: str = "best-fit"):
        if policy != "best-fit":
            raise ConfigError(
                f"one-pass sizing is exact only under best-fit, "
                f"not {policy!r}"
            )
        if resolve_engine() == "reference":
            backend = _ReferenceBackend([], BestFitScheduler(policy))
        else:
            backend = PlacementEngine(policy=policy, track_stats=False)
        self._backend = backend
        self.place = backend.place
        self.remove = backend.remove
        self.snapshot = backend.snapshot
        self.telemetry_counters = backend.telemetry_counters
        self._sku = sku
        # From the SKU, not the server count: the pool is still empty
        # when the replay samples ``has_green`` at its start.
        self._is_green = sku.generation == 0
        self.opened = 0

    def has_green(self) -> bool:
        return self._is_green

    def choose_green(self, vm, cores: int, memory_gb: float):
        return self._choose(self._backend.choose_green, vm, cores, memory_gb)

    def choose_baseline(self, vm, cores: int, memory_gb: float):
        return self._choose(
            self._backend.choose_baseline, vm, cores, memory_gb
        )

    def _choose(self, choose, vm, cores: int, memory_gb: float):
        server = choose(vm, cores, memory_gb)
        if server is None:
            if self.opened == MAX_SERVERS:
                raise SizingError(
                    f"VM {vm.vm_id} needs more than {MAX_SERVERS} "
                    f"{self._sku.name} servers"
                )
            self._backend.add_server(Server(self.opened, self._sku))
            self.opened += 1
            server = choose(vm, cores, memory_gb)
            if server is None:
                raise SizingError(
                    f"VM {vm.vm_id} ({cores} cores, {memory_gb:g} GB) "
                    f"fits no empty {self._sku.name} server"
                )
        return server


def right_size(
    trace: VmTrace,
    sku: ServerSKU,
    adoption: AdoptionPolicy = adopt_nothing,
    lower: int = 1,
    stats: Optional[SizingStats] = None,
) -> int:
    """Minimum count of ``sku`` servers hosting ``trace`` with no rejection.

    One replay of the trace against a pool of ``sku`` servers that starts
    empty and opens server ``k`` only when no open server can host the
    arriving VM; the answer is the number of servers opened.

    Why this is exact (under best-fit, the production policy).  Best-fit
    tries busy servers first and takes an empty server only when no busy
    one fits; ties among empty servers go to the lowest id (see
    :mod:`repro.allocation.index`), and full-node VMs always take the
    lowest-id empty server.  In a replay against ``n`` servers, servers
    are therefore first used in id order, and the on-demand pool opens
    server ``k`` exactly when an ``n``-server replay would first use it.
    So the ``n``-server replay makes the same moves as the on-demand
    replay until the latter opens server ``n``.  That happens only when
    all ``n`` open servers are busy and none fits the VM, which is the
    moment the ``n``-server replay rejects.  Hence ``n`` servers suffice
    iff ``n >= opened``: feasibility is monotone in ``n``, and ``opened``
    (the peak count of non-empty servers) is the minimum.  First-fit and
    worst-fit may take an empty server while a busy one fits, which
    breaks the argument, so only best-fit is accepted.

    Args:
        lower: Minimum admissible count; the result never falls below it
            (an empty trace still needs 0).
        stats: When given, this search's replay is counted into it (on
            top of the module-wide aggregate).

    Raises:
        SizingError: A VM fits no empty ``sku`` server (or needs more
            than :data:`MAX_SERVERS`); raised as soon as the replay
            reaches it, naming the VM.
    """
    if lower < 0:
        raise ConfigError("lower bound must be >= 0")
    if not trace.vm_count:
        return 0
    pool = _OnDemandPool(sku)
    _GLOBAL_SIZING_STATS.simulate_calls += 1
    if stats is not None:
        stats.simulate_calls += 1
    tel = telemetry.active()
    if tel is not None:
        tel.count_many({"sizing.searches": 1, "sizing.simulate_calls": 1})
    replay_on_engine(
        trace,
        ClusterSpec.of((sku, 0)),
        pool,
        adoption=adoption,
        snapshot_hours=1e9,
    )
    return max(pool.opened, lower)


def _split_trace(
    trace: VmTrace, adoption: AdoptionPolicy
) -> Tuple[VmTrace, VmTrace]:
    """Partition a trace into (adopters scaled implicitly later, rest).

    The adoption policy is a pure function of ``(app_name, generation)``,
    so it is evaluated once per distinct pair appearing in the trace
    (full-node VMs never consult it — they are always "rest") and the
    partition masks come from a vectorized lookup over the columns.
    """
    columns = trace.columns
    pair_keys = columns.app_index * 8 + columns.generation
    candidate = ~columns.full_node
    adopts = np.zeros(columns.n, dtype=np.bool_)
    if candidate.any():
        unique_keys, inverse = np.unique(
            pair_keys[candidate], return_inverse=True
        )
        decisions = np.array(
            [
                adoption(columns.app_names[int(key) >> 3], int(key) & 7)
                is not None
                for key in unique_keys
            ],
            dtype=np.bool_,
        )
        adopts[candidate] = decisions[inverse]
    green_trace = trace.filter(adopts, name=f"{trace.name}-adopters")
    base_trace = trace.filter(~adopts, name=f"{trace.name}-rest")
    return green_trace, base_trace


def size_mixed_cluster(
    trace: VmTrace,
    baseline: ServerSKU,
    greensku: ServerSKU,
    adoption: AdoptionPolicy,
    oos_overhead_baseline: float = 0.0,
    oos_overhead_green: float = 0.0,
    verify: bool = True,
    stats: Optional[SizingStats] = None,
) -> ClusterSizing:
    """Size both the all-baseline reference and the mixed cluster.

    The mixed sizing starts from the per-partition right-sizes (adopters
    on GreenSKUs, the rest on baselines), verifies the combined cluster
    end to end, and then greedily trims servers while the full trace still
    fits — mirroring the paper's incremental baseline-replacement search,
    which keeps the statistical multiplexing that fungible fallback
    placement (adopters overflowing onto idle baseline capacity) buys.

    Each right-size is one replay (:func:`right_size`).  The verify and
    trim loops keep a search, because green-to-baseline fallback couples
    the two pools; every mixed-cluster configuration they probe is
    memoized, so no (baseline, green) count pair is simulated twice.

    Args:
        trace: The VM workload.
        baseline: Baseline SKU (reference and non-adopter host).
        greensku: The GreenSKU under evaluation.
        adoption: The adoption component's policy.
        oos_overhead_baseline / oos_overhead_green: Out-of-service server
            fractions (maintenance component output).
        verify: Run the end-to-end verification + trim passes (disable
            only for unit tests of the partition sizing itself).
        stats: When given, accumulates this sizing's probe counters.
    """
    n_reference = right_size(trace, baseline, adopt_nothing, stats=stats)
    green_trace, base_trace = _split_trace(trace, adoption)
    n_base = (
        right_size(base_trace, baseline, stats=stats)
        if base_trace.vm_count
        else 0
    )
    n_green = (
        right_size(green_trace, greensku, adoption, stats=stats)
        if green_trace.vm_count
        else 0
    )
    if verify and (n_base or n_green):
        prober = _prober(trace, (baseline, greensku), adoption)

        def probe(nb: int, ng: int) -> bool:
            if nb + ng == 0:
                return not trace.vm_count
            return prober(nb, ng)

        feasible = _FeasibilityMemo(probe)
        grow_steps = 0
        while not feasible(n_base, n_green):
            n_green += 1
            grow_steps += 1
            if n_base + n_green > MAX_SERVERS:
                raise SizingError(
                    f"mixed sizing for {trace.name} exceeded {MAX_SERVERS}"
                )
        # Greedy trim: prefer dropping baseline SKUs (the replacement the
        # paper's search performs), then try dropping GreenSKUs.
        trim_steps = 0
        trimmed = True
        while trimmed:
            trimmed = False
            while n_base > 0 and feasible(n_base - 1, n_green):
                n_base -= 1
                trim_steps += 1
                trimmed = True
            while n_green > 0 and feasible(n_base, n_green - 1):
                n_green -= 1
                trim_steps += 1
                trimmed = True
        if stats is not None:
            stats.merge(feasible.stats)
        tel = telemetry.active()
        if tel is not None:
            tel.count_many(
                {
                    "sizing.mixed_verifications": 1,
                    "sizing.grow_steps": grow_steps,
                    "sizing.trim_steps": trim_steps,
                    "sizing.simulate_calls": feasible.stats.simulate_calls,
                    "sizing.memo_hits": feasible.stats.memo_hits,
                }
            )
    return ClusterSizing(
        baseline_only_servers=n_reference,
        mixed_baseline_servers=n_base,
        mixed_green_servers=n_green,
        oos_overhead_baseline=oos_overhead_baseline,
        oos_overhead_green=oos_overhead_green,
    )


@dataclass(frozen=True)
class GenerationAwareSizing:
    """Sizing output when the reference fleet is generation-aware.

    The paper's traces pre-assign each VM to a baseline generation; a
    generation-aware reference hosts Gen-g VMs on Gen-g SKUs (old VM
    images keep running on their own hardware generation), and the mixed
    cluster keeps per-generation baseline pools for the non-adopters.

    Attributes:
        reference_by_gen: Generation -> servers in the all-baseline fleet.
        mixed_baselines_by_gen: Generation -> baseline servers kept in the
            mixed deployment.
        mixed_green_servers: GreenSKUs in the mixed deployment.
    """

    reference_by_gen: "dict[int, int]"
    mixed_baselines_by_gen: "dict[int, int]"
    mixed_green_servers: int

    @property
    def reference_total(self) -> int:
        return sum(self.reference_by_gen.values())

    @property
    def mixed_baseline_total(self) -> int:
        return sum(self.mixed_baselines_by_gen.values())


def size_generation_aware(
    trace: VmTrace,
    baselines: "dict[int, ServerSKU]",
    greensku: ServerSKU,
    adoption: AdoptionPolicy,
    verify: bool = True,
    stats: Optional[SizingStats] = None,
) -> GenerationAwareSizing:
    """Size reference and mixed clusters with per-generation pools.

    The reference hosts each generation's VMs on that generation's SKU;
    the mixed cluster adds GreenSKUs for adopters and trims greedily on
    the full trace with generation routing active.  Every per-pool
    right-size is one replay, and the verify/trim loops memoize every
    probed configuration.
    """
    generations = sorted(baselines)
    # Reference: per-generation right-size on that generation's sub-trace.
    reference: "dict[int, int]" = {}
    for gen in generations:
        sub = trace.filter(
            trace.columns.generation == gen, name=f"{trace.name}-g{gen}"
        )
        reference[gen] = (
            right_size(sub, baselines[gen], stats=stats) if sub.vm_count else 0
        )

    # Mixed: non-adopters per generation + greens for adopters.
    green_trace, base_trace = _split_trace(trace, adoption)
    mixed: "dict[int, int]" = {}
    for gen in generations:
        sub = base_trace.filter(
            base_trace.columns.generation == gen,
            name=f"{trace.name}-rest-g{gen}",
        )
        mixed[gen] = (
            right_size(sub, baselines[gen], stats=stats) if sub.vm_count else 0
        )
    n_green = (
        right_size(green_trace, greensku, adoption, stats=stats)
        if green_trace.vm_count
        else 0
    )

    if verify:
        slot_skus = [baselines[gen] for gen in generations] + [greensku]
        prober = _prober(trace, slot_skus, adoption)

        def probe(counts: Tuple[Tuple[int, int], ...], ng: int) -> bool:
            by_gen = dict(counts)
            return prober(*(by_gen.get(gen, 0) for gen in generations), ng)

        memo = _FeasibilityMemo(probe)

        def feasible(mixed_counts: "dict[int, int]", ng: int) -> bool:
            return memo(tuple(sorted(mixed_counts.items())), ng)

        grow_steps = 0
        while not feasible(mixed, n_green):
            n_green += 1
            grow_steps += 1
            if sum(mixed.values()) + n_green > MAX_SERVERS:
                raise SizingError(
                    f"generation-aware sizing for {trace.name} exceeded "
                    f"{MAX_SERVERS}"
                )
        trim_steps = 0
        trimmed = True
        while trimmed:
            trimmed = False
            for gen in generations:
                while mixed[gen] > 0:
                    candidate = dict(mixed)
                    candidate[gen] -= 1
                    if feasible(candidate, n_green):
                        mixed = candidate
                        trim_steps += 1
                        trimmed = True
                    else:
                        break
            while n_green > 0 and feasible(mixed, n_green - 1):
                n_green -= 1
                trim_steps += 1
                trimmed = True
        if stats is not None:
            stats.merge(memo.stats)
        tel = telemetry.active()
        if tel is not None:
            tel.count_many(
                {
                    "sizing.mixed_verifications": 1,
                    "sizing.grow_steps": grow_steps,
                    "sizing.trim_steps": trim_steps,
                    "sizing.simulate_calls": memo.stats.simulate_calls,
                    "sizing.memo_hits": memo.stats.memo_hits,
                }
            )
    return GenerationAwareSizing(
        reference_by_gen=reference,
        mixed_baselines_by_gen=mixed,
        mixed_green_servers=n_green,
    )
