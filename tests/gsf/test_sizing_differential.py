"""One-pass ``right_size`` against the bisection oracle (Hypothesis).

The one-pass search is exact by an argument about best-fit (see the
``right_size`` docstring); this suite checks the claim empirically over
generated traces, every baseline generation and GreenSKU, three adoption
policies, three kinds of ``lower`` bound and both placement engines.  A
trace that cannot be hosted at all must raise :class:`SizingError` on both
sides.
"""

import functools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.allocation.cluster import (
    ENGINE_ENV,
    adopt_everything,
    adopt_nothing,
)
from repro.allocation.traces import TraceParams, VmTrace, generate_trace
from repro.allocation.vm import VmRequest
from repro.core.errors import SizingError
from repro.gsf.framework import Gsf
from repro.gsf.sizing import right_size
from repro.hardware.sku import (
    all_greenskus,
    baseline_gen1,
    baseline_gen2,
    baseline_gen3,
    baseline_resized,
    greensku_full,
)
from repro.perf.apps import APPLICATIONS

from .sizing_oracle import bisection_right_size

SKUS = [baseline_gen1(), baseline_gen2(), baseline_gen3(), baseline_resized()]
SKUS += all_greenskus()

#: Full-node VMs request their generation's whole server shape, as the
#: trace generator's do: (cores, GB per core).
FULL_NODE_SHAPES = {1: (64, 6.0), 2: (64, 8.0), 3: (80, 9.6)}

APP_NAMES = [app.name for app in APPLICATIONS]


@functools.lru_cache(maxsize=None)
def _gsf_policy(greensku):
    return Gsf().adoption_model(greensku).policy()


def _policy(name, sku):
    if name == "nothing":
        return adopt_nothing
    if name == "everything":
        return adopt_everything
    # The GSF policy of the GreenSKU being sized (baseline pools never
    # consult the policy, so any GreenSKU's serves there).
    return _gsf_policy(sku if sku.generation == 0 else greensku_full())


@st.composite
def handmade_traces(draw):
    """Quarter-hour arrivals and lifetimes, so departures tie arrivals.

    Half the traces hold full-node VMs (about one VM in five); a GreenSKU
    pool can host none of them, so the rest keep that pool sizeable.
    Lifetimes are short (at most half the window, one in 49 infinite), so
    servers empty out and get reused mid-trace.
    """
    with_full_node = draw(st.booleans())
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 96),  # arrival, quarter hours
                st.integers(0, 48),  # lifetime, quarter hours; 0 = inf
                st.sampled_from((1, 2, 4, 8, 16, 32)),  # cores
                st.sampled_from((1.0, 2.0, 4.0, 8.0)),  # GB per core
                st.sampled_from((1, 2, 3)),  # generation
                st.sampled_from(APP_NAMES),
                st.integers(0, 4),  # 0 = full-node VM
            ),
            min_size=1,
            max_size=40,
        )
    )
    vms = []
    for vm_id, (arrival, life, cores, gb, gen, app, kind) in enumerate(
        sorted(rows, key=lambda row: row[0])
    ):
        full_node = with_full_node and kind == 0
        if full_node:
            cores, gb = FULL_NODE_SHAPES[gen]
        vms.append(
            VmRequest(
                vm_id=vm_id,
                arrival_hours=arrival / 4,
                lifetime_hours=life / 4 if life else math.inf,
                cores=cores,
                memory_gb=cores * gb,
                generation=gen,
                app_name=app,
                full_node=full_node,
            )
        )
    return VmTrace(
        name="handmade", params=TraceParams(duration_days=1), vms=vms
    )


@st.composite
def generator_traces(draw):
    """The production generator at small scale, full-node VMs boosted."""
    return generate_trace(
        seed=draw(st.integers(0, 10_000)),
        params=TraceParams(
            duration_days=draw(st.sampled_from((0.5, 1.0, 2.0))),
            mean_concurrent_vms=draw(st.integers(5, 150)),
            full_node_fraction=draw(st.sampled_from((0.0005, 0.05))),
        ),
    )


def _sized(search, trace, sku, adoption, lower, **kwargs):
    """A search's count, or the ``SizingError`` class when it raises."""
    try:
        return search(trace, sku, adoption, lower=lower, **kwargs)
    except SizingError:
        return SizingError


@pytest.fixture(params=("indexed", "reference"))
def engine(request, monkeypatch):
    # One engine for every example of a test run, so the fixture need not
    # be reset between examples.
    monkeypatch.setenv(ENGINE_ENV, request.param)


@given(
    trace=st.one_of(handmade_traces(), generator_traces()),
    sku=st.sampled_from(SKUS),
    policy=st.sampled_from(("nothing", "everything", "gsf")),
    lower=st.sampled_from(("zero", "one", "peak+3")),
)
@settings(
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_one_pass_equals_bisection(engine, trace, sku, policy, lower):
    adoption = _policy(policy, sku)
    if lower == "peak+3":
        peak = _sized(right_size, trace, sku, adoption, 0)
        bound = 3 if peak is SizingError else peak + 3
    else:
        bound = {"zero": 0, "one": 1}[lower]
    one_pass = _sized(right_size, trace, sku, adoption, bound)
    # Every VM that fits an empty server at all fits a cluster with one
    # server per VM, so the oracle's bracket can stop at twice the VM
    # count without changing any verdict (and stays fast on traces no
    # count can host).
    oracle = _sized(
        bisection_right_size,
        trace,
        sku,
        adoption,
        bound,
        max_servers=2 * max(trace.vm_count, bound),
    )
    assert one_pass == oracle
