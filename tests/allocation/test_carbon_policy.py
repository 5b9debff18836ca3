"""Carbon-aware placement: policy resolution, tiering, engine equivalence."""

import pytest

from repro.allocation.cluster import (
    CARBON_PLACEMENT_POLICIES,
    ClusterSpec,
    ENGINES,
    PlacementPolicy,
    adopt_everything,
    outcome_digest,
    replay_columnar,
    resolve_placement,
    simulate,
)
from repro.allocation.traces import TraceParams, generate_trace
from repro.carbon.grid import CarbonAccountant, carbon_aware_policy, diurnal_signal
from repro.core.errors import ConfigError
from repro.hardware.sku import baseline_gen2, baseline_gen3, greensku_full

PARAMS = TraceParams(duration_days=2.0, mean_concurrent_vms=150)


def _divergent_cluster():
    """Two baseline generations + green: blind and aware disagree here."""
    return ClusterSpec.of(
        (baseline_gen2(), 10), (baseline_gen3(), 10), (greensku_full(), 6)
    )


def _homogeneous_cluster():
    """One baseline generation: every server shares one carbon tier."""
    return ClusterSpec.of((baseline_gen3(), 16), (greensku_full(), 6))


def _run(cluster, engine, placement=None, accountant=None, chunk=None):
    trace = generate_trace(7, PARAMS)
    if chunk is None:
        return simulate(
            trace, cluster, adoption=adopt_everything, engine=engine,
            placement=placement, accountant=accountant,
        )
    return replay_columnar(
        trace, cluster, adopt_everything, engine=engine,
        chunk_events=chunk, placement=placement, accountant=accountant,
    )


class TestResolution:
    def test_blind_resolves_to_none(self):
        assert resolve_placement(None) is None
        assert resolve_placement("blind") is None
        assert resolve_placement(PlacementPolicy(name="blind")) is None

    def test_carbon_aware_needs_a_built_policy(self):
        with pytest.raises(ConfigError, match="named by string alone"):
            resolve_placement("carbon_aware")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown placement policy"):
            resolve_placement("greedy")

    def test_policy_validation(self):
        assert set(CARBON_PLACEMENT_POLICIES) == {"blind", "carbon_aware"}
        with pytest.raises(ConfigError, match="carbon_key"):
            PlacementPolicy(name="carbon_aware")
        with pytest.raises(ConfigError, match="unknown placement policy"):
            PlacementPolicy(name="random")

    def test_built_policy_passes_through(self):
        policy = carbon_aware_policy(diurnal_signal())
        assert resolve_placement(policy) is policy


class TestEquivalence:
    def test_carbon_aware_identical_across_engines_and_chunkings(self):
        policy = carbon_aware_policy(diurnal_signal())
        digests = set()
        for engine in ENGINES:
            for chunk in (None, 64, 4096):
                outcome = _run(
                    _divergent_cluster(), engine,
                    placement=carbon_aware_policy(diurnal_signal()),
                    chunk=chunk,
                )
                digests.add(outcome_digest(outcome))
        assert len(digests) == 1, digests
        assert policy.name == "carbon_aware"

    def test_aware_diverges_from_blind_on_two_generations(self):
        blind = _run(_divergent_cluster(), "reference")
        aware = _run(
            _divergent_cluster(), "reference",
            placement=carbon_aware_policy(diurnal_signal()),
        )
        assert outcome_digest(blind) != outcome_digest(aware)

    def test_homogeneous_tiers_reduce_to_blind(self):
        # One baseline generation -> a single carbon tier per pool, so
        # the tiered backend must reproduce blind placement exactly.
        blind = _run(_homogeneous_cluster(), "reference")
        aware = _run(
            _homogeneous_cluster(), "reference",
            placement=carbon_aware_policy(diurnal_signal()),
        )
        assert outcome_digest(blind) == outcome_digest(aware)

    def test_accountant_never_changes_the_outcome(self):
        bare = _run(_divergent_cluster(), "indexed")
        accounted = _run(
            _divergent_cluster(), "indexed",
            accountant=CarbonAccountant(diurnal_signal()),
        )
        assert outcome_digest(bare) == outcome_digest(accounted)


class TestAccounting:
    def test_operational_kg_engine_invariant(self):
        kgs = set()
        for engine in ENGINES:
            for chunk in (None, 64):
                outcome = _run(
                    _divergent_cluster(), engine,
                    placement=carbon_aware_policy(diurnal_signal()),
                    accountant=CarbonAccountant(diurnal_signal()),
                    chunk=chunk,
                )
                kgs.add(outcome.operational.total_kg)
        assert len(kgs) == 1, kgs

    def test_aware_saves_operational_carbon_here(self):
        results = {}
        for label, placement in (
            ("blind", None),
            ("aware", carbon_aware_policy(diurnal_signal())),
        ):
            outcome = _run(
                _divergent_cluster(), "indexed",
                placement=placement,
                accountant=CarbonAccountant(diurnal_signal()),
            )
            results[label] = outcome.operational
        # Same VMs either way: identical core-hours, different kg.
        assert results["aware"].total_core_hours == pytest.approx(
            results["blind"].total_core_hours
        )
        assert results["aware"].total_kg < results["blind"].total_kg

    def test_outcome_without_accountant_has_no_report(self):
        outcome = _run(_divergent_cluster(), "reference")
        assert outcome.operational is None
