"""Cluster-sizing search tests."""

import collections

import pytest

from repro.allocation.cluster import (
    ClusterSpec,
    adopt_everything,
    adopt_nothing,
    simulate,
)
from repro.allocation.traces import TraceParams, VmTrace
from repro.allocation.vm import VmRequest
from repro.core import telemetry
from repro.core.errors import ConfigError, SizingError
from repro.gsf import sizing as sizing_module
from repro.gsf.sizing import (
    ClusterSizing,
    SizingStats,
    _OnDemandPool,
    right_size,
    size_mixed_cluster,
)
from repro.hardware.sku import baseline_gen3, greensku_full

from .sizing_oracle import bisection_right_size


def make_vm(vm_id, cores=8, lifetime=24.0, app="Redis", gen=3):
    return VmRequest(
        vm_id=vm_id,
        arrival_hours=0.0,
        lifetime_hours=lifetime,
        cores=cores,
        memory_gb=cores * 4.0,
        generation=gen,
        app_name=app,
    )


def trace_of(vms):
    return VmTrace(
        name="t", params=TraceParams(duration_days=1), vms=tuple(vms)
    )


class TestRightSize:
    def test_empty_trace_needs_no_servers(self):
        assert right_size(trace_of([]), baseline_gen3()) == 0

    def test_exact_fit(self):
        # 10 concurrent 8-core VMs = 80 cores = exactly one server.
        trace = trace_of([make_vm(i) for i in range(10)])
        assert right_size(trace, baseline_gen3()) == 1

    def test_one_more_vm_needs_second_server(self):
        trace = trace_of([make_vm(i) for i in range(11)])
        assert right_size(trace, baseline_gen3()) == 2

    def test_result_is_feasible(self, small_trace):
        n = right_size(small_trace, baseline_gen3())
        out = simulate(
            small_trace, ClusterSpec.of((baseline_gen3(), n)),
            adoption=adopt_nothing,
        )
        assert out.feasible

    def test_result_is_minimal(self, small_trace):
        n = right_size(small_trace, baseline_gen3())
        assert n > 0
        out = simulate(
            small_trace, ClusterSpec.of((baseline_gen3(), n - 1)),
            adoption=adopt_nothing,
        )
        assert not out.feasible

    def test_greensku_needs_fewer_servers(self, small_trace):
        # 128 cores per server vs 80 (unscaled workload).  Full-node VMs
        # require baseline servers, so compare on the shared remainder.
        shared = trace_of(
            [vm for vm in small_trace.vms if not vm.full_node]
        )
        n_base = right_size(shared, baseline_gen3())
        # A green-only cluster needs a policy that routes VMs to greens.
        n_green = right_size(
            shared, greensku_full(), adoption=lambda app, gen: 1.0
        )
        assert n_green <= n_base

    def test_full_node_vm_on_greensku_fails_fast(self):
        # A GreenSKU pool can never host a full-node VM.  The search
        # must name the VM after one partial replay instead of probing
        # ever larger clusters first.
        full = VmRequest(
            vm_id=7,
            arrival_hours=1.0,
            lifetime_hours=24.0,
            cores=80,
            memory_gb=768.0,
            generation=3,
            app_name="Redis",
            full_node=True,
        )
        trace = trace_of([make_vm(i) for i in range(3)] + [full])
        with telemetry.capture() as tel:
            with pytest.raises(SizingError, match="VM 7"):
                right_size(trace, greensku_full(), adopt_everything)
        assert tel.counters["sizing.simulate_calls"] == 1
        assert tel.counters["alloc.replays"] == 1

    def test_one_pass_needs_best_fit(self):
        # The exactness argument holds for best-fit only.
        with pytest.raises(ConfigError, match="best-fit"):
            _OnDemandPool(baseline_gen3(), policy="first-fit")


class TestSearchEfficiency:
    """The memoized searches never simulate a configuration twice."""

    @pytest.fixture()
    def simulate_counter(self, monkeypatch):
        """Counts replay invocations per (trace, cluster) config.

        Instruments both probe entry points — ``simulate`` (the
        reference engine's path) and ``replay_on_engine`` (the indexed
        probe-reuse path) — so the no-resimulation guarantee is checked
        under whichever engine is active.
        """
        calls = collections.Counter()
        real_simulate = sizing_module.simulate
        real_replay_on_engine = sizing_module.replay_on_engine

        def key_of(trace, cluster):
            return (
                trace.name,
                tuple((sku.name, count) for sku, count in cluster.skus),
            )

        def counting_simulate(trace, cluster, **kwargs):
            calls[key_of(trace, cluster)] += 1
            return real_simulate(trace, cluster, **kwargs)

        def counting_replay_on_engine(trace, cluster, engine, **kwargs):
            calls[key_of(trace, cluster)] += 1
            return real_replay_on_engine(trace, cluster, engine, **kwargs)

        monkeypatch.setattr(sizing_module, "simulate", counting_simulate)
        monkeypatch.setattr(
            sizing_module, "replay_on_engine", counting_replay_on_engine
        )
        return calls

    def test_right_size_never_resimulates(
        self, small_trace, simulate_counter
    ):
        # The one-pass search replays the trace exactly once.
        right_size(small_trace, baseline_gen3())
        assert simulate_counter and max(simulate_counter.values()) == 1

    def test_mixed_sizing_never_resimulates(
        self, medium_trace, gsf, efficient_sku, simulate_counter
    ):
        # A scenario whose trim loop removes a server, so the loop's next
        # pass re-checks a configuration it already probed.  (When the
        # right-sized seeds are already minimal, nothing is re-checked.)
        policy = gsf.adoption_model(efficient_sku).policy()
        stats = SizingStats()
        size_mixed_cluster(
            medium_trace, baseline_gen3(), efficient_sku, policy, stats=stats
        )
        assert max(simulate_counter.values()) == 1
        # The memo must actually have absorbed repeat probes (the trim
        # loops re-check configurations), and every simulated config is
        # accounted for by the counters.
        assert stats.memo_hits > 0
        assert stats.simulate_calls >= sum(simulate_counter.values())

    def test_right_size_clamps_to_lower(self, small_trace):
        unconstrained = right_size(small_trace, baseline_gen3())
        constrained = right_size(
            small_trace, baseline_gen3(), lower=unconstrained + 3
        )
        assert constrained == unconstrained + 3

    @pytest.mark.parametrize("lower", (0, 1, 5, 40))
    def test_matches_bisection_oracle(self, small_trace, lower):
        expected = bisection_right_size(
            small_trace, baseline_gen3(), lower=lower
        )
        assert right_size(small_trace, baseline_gen3(), lower=lower) == (
            expected
        )

    def test_matches_bisection_oracle_on_greensku(self, small_trace):
        expected = bisection_right_size(
            small_trace, greensku_full(), adopt_everything
        )
        assert right_size(small_trace, greensku_full(), adopt_everything) == (
            expected
        )

    def test_empty_trace_ignores_lower(self):
        assert right_size(trace_of([]), baseline_gen3(), lower=5) == 0

    def test_stats_accumulate_across_searches(self, small_trace):
        stats = SizingStats()
        right_size(small_trace, baseline_gen3(), stats=stats)
        first = stats.simulate_calls
        assert first > 0
        right_size(
            small_trace,
            greensku_full(),
            adoption=lambda app, gen: 1.0,
            stats=stats,
        )
        assert stats.simulate_calls > first
        assert stats.probes == stats.simulate_calls + stats.memo_hits


class TestMixedSizing:
    def adoption_all(self, app, gen):
        return 1.0

    def adoption_none(self, app, gen):
        return None

    def test_all_adopt_empties_baseline(self, small_trace):
        sizing = size_mixed_cluster(
            small_trace, baseline_gen3(), greensku_full(), self.adoption_all
        )
        # Full-node VMs may pin a few baseline servers; everything else
        # moves to GreenSKUs.
        assert sizing.mixed_green_servers > 0
        assert sizing.mixed_baseline_servers <= sizing.baseline_only_servers

    def test_none_adopt_keeps_baseline_only(self, small_trace):
        sizing = size_mixed_cluster(
            small_trace, baseline_gen3(), greensku_full(), self.adoption_none
        )
        assert sizing.mixed_green_servers == 0
        assert (
            sizing.mixed_baseline_servers == sizing.baseline_only_servers
        )

    def test_mixed_cluster_is_feasible(self, small_trace, gsf, full_sku):
        policy = gsf.adoption_model(full_sku).policy()
        sizing = size_mixed_cluster(
            small_trace, baseline_gen3(), full_sku, policy
        )
        spec = ClusterSpec.of(
            (baseline_gen3(), sizing.mixed_baseline_servers),
            (full_sku, sizing.mixed_green_servers),
        )
        out = simulate(small_trace, spec, adoption=policy)
        assert out.feasible

    def test_oos_overheads_carried(self, small_trace):
        sizing = size_mixed_cluster(
            small_trace,
            baseline_gen3(),
            greensku_full(),
            self.adoption_none,
            oos_overhead_baseline=0.01,
            oos_overhead_green=0.02,
        )
        base, green = sizing.deployed_mixed
        assert base == pytest.approx(sizing.mixed_baseline_servers * 1.01)
        assert sizing.deployed_baseline_only == pytest.approx(
            sizing.baseline_only_servers * 1.01
        )


class TestClusterSizingRecord:
    def test_totals(self):
        sizing = ClusterSizing(
            baseline_only_servers=10,
            mixed_baseline_servers=4,
            mixed_green_servers=5,
        )
        assert sizing.mixed_total == 9
        assert sizing.deployed_baseline_only == 10
