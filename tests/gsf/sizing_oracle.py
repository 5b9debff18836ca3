"""Bisection oracle for :func:`repro.gsf.sizing.right_size`.

The search ``right_size`` used before it became a single replay: an
exponential bracket on the server count, a bisection, and a downward
verification pass, every probe a full feasibility replay (memoized per
search).  It assumes nothing about monotonicity beyond what it checks, so
it is the reference the one-pass search is tested against.  It honours
``REPRO_ALLOC_ENGINE`` the same way ``right_size`` does.
"""

from __future__ import annotations

from typing import Optional

from repro.allocation.cluster import AdoptionPolicy, adopt_nothing
from repro.allocation.traces import VmTrace
from repro.core.errors import ConfigError, SizingError
from repro.gsf.sizing import (
    MAX_SERVERS,
    SizingStats,
    _FeasibilityMemo,
    _prober,
)
from repro.hardware.sku import ServerSKU


def bisection_right_size(
    trace: VmTrace,
    sku: ServerSKU,
    adoption: AdoptionPolicy = adopt_nothing,
    lower: int = 1,
    stats: Optional[SizingStats] = None,
    max_servers: int = MAX_SERVERS,
) -> int:
    """Minimum count of ``sku`` servers hosting ``trace``, by bisection.

    Same contract as ``right_size``: the result never falls below
    ``lower``, an empty trace needs 0, and a trace that fits no count up
    to ``max_servers`` raises :class:`SizingError`.
    """
    if lower < 0:
        raise ConfigError("lower bound must be >= 0")
    if not trace.vm_count:
        return 0
    feasible = _FeasibilityMemo(_prober(trace, (sku,), adoption))
    floor = max(lower, 1)
    # Exponential bracket from the floor.  The invariant entering the
    # bisection: ``lo`` infeasible (or the floor's sentinel below it),
    # ``hi`` feasible.
    if feasible(floor):
        lo, hi = floor - 1, floor
    else:
        lo = floor
        hi = floor * 2
        while True:
            if hi > max_servers:
                raise SizingError(
                    f"trace {trace.name} does not fit {max_servers} "
                    f"{sku.name} servers"
                )
            if feasible(hi):
                break
            lo = hi
            hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    # Downward verification: ensure hi-1 truly infeasible.  When the
    # bisection just probed hi-1 (the common case), the memo answers.
    while hi > floor:
        if not feasible(hi - 1):
            break
        hi -= 1
    if stats is not None:
        stats.merge(feasible.stats)
    return max(hi, lower)
