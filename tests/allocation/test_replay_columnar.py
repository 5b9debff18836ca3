"""Streaming columnar replay: chunk-size and engine equivalence, digests."""

import pytest

from repro.allocation.cluster import (
    ClusterSpec,
    ENGINES,
    adopt_everything,
    adopt_nothing,
    outcome_digest,
    replay_columnar,
    simulate,
)
from repro.allocation.columnar import ColumnarTrace
from repro.allocation.traces import TraceParams, VmTrace, generate_trace
from repro.core import telemetry
from repro.core.errors import ConfigError
from repro.gsf.sizing import right_size
from repro.hardware.sku import baseline_gen2, baseline_gen3, greensku_full

PARAMS = TraceParams(duration_days=2.0, mean_concurrent_vms=120)

SEEDS = (1, 2, 3, 4, 5)

#: Chunk sizes the equivalence contract is stated over: degenerate
#: (every event its own chunk), interior, and whole-trace.
CHUNKS = (1, 64, 10**9)


def _cluster():
    return ClusterSpec.of(
        (baseline_gen3(), 10), (baseline_gen2(), 6), (greensku_full(), 6)
    )


def _tiny_cluster():
    # Small enough that rejections happen, exercising the skip-departure
    # path for VMs that never placed.
    return ClusterSpec.of((baseline_gen3(), 2), (greensku_full(), 1))


class TestChunkedVsRowEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_golden_digest_across_engines_and_chunks(self, seed):
        """``simulate`` on the reference oracle == every engine × chunk."""
        trace = generate_trace(seed, PARAMS)
        cluster = _cluster()
        golden = outcome_digest(
            simulate(
                trace,
                cluster,
                adopt_everything,
                snapshot_hours=5.0,
                engine="reference",
            )
        )
        for engine in ENGINES:
            for chunk in CHUNKS:
                digest = outcome_digest(
                    replay_columnar(
                        trace,
                        cluster,
                        adopt_everything,
                        snapshot_hours=5.0,
                        engine=engine,
                        chunk_events=chunk,
                    )
                )
                assert digest == golden, (seed, engine, chunk)

    def test_rejections_equivalent(self):
        trace = generate_trace(9, PARAMS)
        cluster = _tiny_cluster()
        golden = simulate(
            trace, cluster, adopt_nothing, snapshot_hours=5.0,
            engine="reference",
        )
        assert golden.rejected_vms, "fixture must actually reject VMs"
        for engine in ENGINES:
            for chunk in CHUNKS:
                outcome = replay_columnar(
                    trace, cluster, adopt_nothing, snapshot_hours=5.0,
                    engine=engine, chunk_events=chunk,
                )
                assert outcome_digest(outcome) == outcome_digest(golden)

    def test_rows_never_materialized(self):
        trace = generate_trace(1, PARAMS)
        assert trace._rows is None
        replay_columnar(trace, _cluster(), adopt_everything)
        assert trace._rows is None
        # Every entry point streams the same columns: ``simulate`` on
        # both engines and the one-pass sizing replay too.
        for engine in ENGINES:
            simulate(trace, _cluster(), adopt_everything, engine=engine)
            assert trace._rows is None, engine
        assert right_size(trace, baseline_gen3()) > 0
        assert trace._rows is None


class TestReplayColumnarApi:
    def test_unsorted_trace_rejected(self):
        trace = generate_trace(1, PARAMS)
        columns = trace.columns
        shuffled = ColumnarTrace(
            app_names=columns.app_names,
            vm_id=columns.vm_id,
            arrival_hours=columns.arrival_hours[::-1].copy(),
            lifetime_hours=columns.lifetime_hours,
            cores=columns.cores,
            memory_gb=columns.memory_gb,
            generation=columns.generation,
            app_index=columns.app_index,
            max_memory_fraction=columns.max_memory_fraction,
            full_node=columns.full_node,
        )
        bad = VmTrace(name="shuffled", params=PARAMS, columns=shuffled)
        with pytest.raises(ConfigError, match="sorted by arrival"):
            replay_columnar(bad, _cluster())

    def test_simulate_rejects_unsorted_row_trace(self):
        """A row-built trace out of arrival order is refused, not replayed.

        The grid would otherwise anchor at the first row rather than the
        earliest arrival, and departures would release out of order.
        """
        rows = generate_trace(1, PARAMS).vms
        bad = VmTrace(name="reversed", params=PARAMS, vms=rows[::-1])
        for engine in ENGINES:
            with pytest.raises(ConfigError, match="sorted by arrival"):
                simulate(bad, _cluster(), engine=engine)

    def test_bad_snapshot_interval_rejected(self):
        trace = generate_trace(1, PARAMS)
        with pytest.raises(ConfigError, match="snapshot interval"):
            replay_columnar(trace, _cluster(), snapshot_hours=0)

    def test_unknown_engine_rejected(self):
        trace = generate_trace(1, PARAMS)
        with pytest.raises(ConfigError, match="unknown allocation engine"):
            replay_columnar(trace, _cluster(), engine="gpu")

    def test_telemetry_counters(self):
        trace = generate_trace(1, PARAMS)
        with telemetry.capture() as tel:
            replay_columnar(
                trace, _cluster(), adopt_everything, chunk_events=64
            )
        assert tel.counters["alloc.replays"] == 1
        assert tel.counters["alloc.event_chunks"] >= 2
