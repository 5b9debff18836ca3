"""Regenerate ``perfbench/pinned.json``: the output digest of every op input.

Run from the repository root::

    python3 perfbench/pin.py             # every workload
    python3 perfbench/pin.py perf-sim    # one workload

Each workload's input universe (``Workload.pin_groups``) is computed with
the program's default backends.  Before anything is written the digests
are checked against the program's oracles: the scalar ``reference``
queueing backend for every perf-sim input, the ``reference`` placement
engine for the smallest evaluate size and for every fleet shard, and, for
the sweep, the cold sweep of set-up against the first warm one.  Any
mismatch aborts without writing.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from run import OUT, ROOT, SRC, fresh_setup, pin_environment, repro_env, source_digest

PINS = Path(__file__).resolve().parent / "pinned.json"


def collect(
    wl,
    tmp: Path,
    env: Dict[str, str],
    keep: Callable[[Any], bool] = lambda op: True,
    prepare: Optional[Callable[[Any], None]] = None,
) -> Dict[str, Any]:
    """Run every kept op of ``wl``'s universe; pin-key -> observed value."""
    entries: Dict[str, Any] = {}
    for seed, ops in wl.pin_groups():
        state = fresh_setup(wl, tmp / f"{wl.name}-{seed}", seed, env)
        if prepare is not None:
            prepare(state)
        for op in ops:
            if not keep(op):
                continue
            wl.before(state, op)
            output = wl.run(state, op, 1)
            observed = wl.observe(state, op, output)
            problem = wl.check(state, op, output, observed)
            if problem is not None:
                raise SystemExit(f"{wl.name} {op.key}: {problem}")
            entries.update(observed)
            if wl.name == "sweep" and op.kind == "warm":
                cold = wl.observe(state, op, state.cold)
                if cold != observed:
                    raise SystemExit(f"sweep {op.key}: cold and warm sweeps differ")
    return entries


def compare(name: str, pinned: Dict[str, Any], oracle: Dict[str, Any]) -> None:
    bad = [k for k in oracle if pinned.get(k) != oracle[k]]
    if bad or not oracle:
        raise SystemExit(
            f"{name}: {len(bad)} of {len(oracle)} oracle digests differ: {bad[:5]}"
        )
    print(f"  {name}: {len(oracle)} digests agree with the oracle")


def pin_workload(wl, tmp: Path, env: Dict[str, str]) -> Dict[str, Any]:
    t0 = time.perf_counter()
    pins = collect(wl, tmp, env)
    print(f"{wl.name}: {len(pins)} digests in {time.perf_counter() - t0:.1f} s")
    if wl.name == "perf-sim":
        from repro.perf import queueing

        queueing.set_default_backend("reference")
        try:
            compare("reference queueing backend", pins, collect(wl, tmp, env))
        finally:
            queueing.set_default_backend(None)
    elif wl.name == "evaluate":
        smallest = wl.SIZES[0]
        oracle = collect(
            wl,
            tmp,
            {**env, "REPRO_ALLOC_ENGINE": "reference"},
            keep=lambda op: op.args[0] == smallest,
        )
        compare(f"reference engine at {smallest} VMs", pins, oracle)
    elif wl.name == "fleet":

        def reference(state):
            state.engine = "reference"

        compare("reference engine", pins, collect(wl, tmp, env, prepare=reference))
    return pins


def main(argv) -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    tmp = OUT / "tmp" / f"pin-{os.getpid()}"
    pin_environment(tmp)
    from perfbench.workloads import WORKLOADS

    env = repro_env()
    names = argv or list(WORKLOADS)
    document = json.loads(PINS.read_text()) if PINS.exists() else {}
    try:
        for name in names:
            document[name] = pin_workload(WORKLOADS[name], tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    document["source_sha256"] = source_digest()
    PINS.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
