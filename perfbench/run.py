"""Repository benchmark: GSF workloads with end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # the four, one process
    python3 perfbench/run.py --workload fleet --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the traced mode: the same ops run once untraced and once
with the benchmark's layer wrappers and the program's telemetry on, both
with one worker, and the per-layer metrics are reported.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run (with its
spans, in traced mode) is written under ``.perfbench/records/``.

The baseline seed is 1 and the held-out seed is 2: a claimed gain must
hold on both.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

BASELINE_SEED = 1
HELD_OUT_SEED = 2
WORKLOAD_NAMES = ("evaluate", "fleet", "perf-sim", "sweep")
#: Seconds allowed for worker processes to exit after an op returns.
REAP_TIMEOUT_S = 60.0


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    # Internal: print the import time of a fresh interpreter and exit.
    parser.add_argument("--import-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_repro_env(env: Dict[str, str]) -> None:
    """Make ``env`` the whole set of ``REPRO_*`` variables."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    os.environ.update(env)


def repro_env() -> Dict[str, str]:
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


def pin_environment(tmp: Path) -> None:
    """Clear every ``REPRO_*`` variable, then pin the few the runs need.

    Engine, backend and generator selectors stay unset so the program's
    defaults are what is measured; every store, cache, catalog and
    journal lives under the per-run ``tmp``.
    """
    set_repro_env(
        {
            "REPRO_JOBS": "1",
            "REPRO_CACHE": "0",
            "REPRO_TRACE_STORE": "0",
            "REPRO_CACHE_DIR": str(tmp / "cache"),
            "REPRO_TRACE_STORE_DIR": str(tmp / "store"),
            "REPRO_CATALOG_DIR": str(tmp / "catalog"),
        }
    )


def reap_children() -> None:
    """Wait until every worker process this process started has exited.

    Pools shut down without waiting, so workers are reaped here, after
    the op's latency is taken and before its CPU time is read: a child's
    CPU time is visible only once it has been waited for.
    """
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("worker processes did not exit")
        time.sleep(0.002)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# -- run metadata --------------------------------------------------------------


def git_commit() -> str:
    """HEAD's commit when the checkout is a git repository, else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's sources (identifies code without git)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode("utf-8") + b"\x00")
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy

    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "cpu_model": cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "baseline_seed": BASELINE_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "environment": dict(sorted(repro_env().items())),
    }


# -- measurement ---------------------------------------------------------------


def fresh_setup(wl, tmp: Path, seed: int, base_env: Dict[str, str]) -> Any:
    """Pinned environment back, an empty ``tmp``, then the workload set-up."""
    set_repro_env(base_env)
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    state = wl.setup(tmp, seed)
    reap_children()
    return state


def setup_sample(wl, tmp: Path, seed: int, base_env: Dict[str, str]) -> float:
    """One set-up cost: a fresh interpreter's imports plus a set-up.

    The set-up goes to its own ``tmp`` and is thrown away; the
    environment the running ops use is put back afterwards.
    """
    probe = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            wl.name,
            "--import-only",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    imports = float(probe.stdout.split()[-1])
    saved = repro_env()
    t0 = time.perf_counter()
    fresh_setup(wl, tmp, seed, base_env)
    seconds = time.perf_counter() - t0
    set_repro_env(saved)
    shutil.rmtree(tmp, ignore_errors=True)
    return imports + seconds


def run_ops(
    wl, state, ops, jobs: int, pins, tracer=None, first: int = 0
) -> SimpleNamespace:
    """Run ``ops`` in a closed loop; check each output after its op.

    ``first`` is the index of ``ops[0]`` in the run (for failure reports).
    """
    latencies: List[float] = []
    failures: List[Tuple[int, str, str]] = []
    cpu = 0.0
    for i, op in enumerate(ops, start=first):
        wl.before(state, op)
        if tracer is not None:
            tracer.op_id = i
            root = tracer.open(f"op/{op.kind}")
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            output = wl.run(state, op, jobs)
            error = None
        except Exception as exc:  # a failed op is counted, never fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.close(root)
        reap_children()
        cpu += cpu_seconds() - cpu0
        if error is None:
            try:
                error = wl.check(state, op, output, pins)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append((i, op.key, error))
    return SimpleNamespace(
        latencies=latencies, failures=failures, cpu_s=cpu, wall_s=sum(latencies)
    )


def end_to_end(
    res, setups: List[float], tail: float
) -> Dict[str, Tuple[float, str]]:
    n = len(res.latencies)
    return {
        "wall_s": (res.wall_s, "s"),
        "op_p50_ms": (statistics.median(res.latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "cpu_s": (res.cpu_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_ratio": ((n - len(res.failures)) / n, "ratio"),
    }


def run_workload(
    wl, args, pins, tmp: Path, import_s: float, base_env: Dict[str, str]
) -> Dict[str, Any]:
    from perfbench.workloads import tail_percentile

    rounds = wl.rounds_for(args.seconds)
    record: Dict[str, Any] = {"workload": wl.name}
    if not args.trace:
        # Set-up is measured three times, at the start of the run, after
        # half the ops and after all of them, so that one slow phase of
        # a shared host does not set the median.
        ops = wl.ops(args.seed, rounds)
        t0 = time.perf_counter()
        state = fresh_setup(wl, tmp, args.seed, base_env)
        setups = [import_s + time.perf_counter() - t0]
        half = len(ops) // 2
        parts = []
        for first, part in ((0, ops[:half]), (half, ops[half:])):
            parts.append(run_ops(wl, state, part, wl.jobs, pins, first=first))
            sample_dir = tmp.with_name(tmp.name + "-setup")
            setups.append(setup_sample(wl, sample_dir, args.seed, base_env))
        res = SimpleNamespace(
            latencies=parts[0].latencies + parts[1].latencies,
            failures=parts[0].failures + parts[1].failures,
            cpu_s=parts[0].cpu_s + parts[1].cpu_s,
            wall_s=parts[0].wall_s + parts[1].wall_s,
        )
        tail, pct = tail_percentile(res.latencies)
        metrics = end_to_end(res, setups, tail)
        record.update(
            rounds=rounds,
            ops=len(ops),
            jobs=wl.jobs,
            import_s=import_s,
            setup_samples_s=setups,
            tail_percentile=pct,
            fail_ratio=len(res.failures) / len(ops),
            latencies_s=res.latencies,
        )
        attempted, failures, problems = len(ops), res.failures, []
    else:
        from perfbench.tracing import Tracer, binding_self_test, per_layer_metrics
        from repro.core import telemetry

        rounds = max(wl.min_rounds, math.ceil(rounds / 2))
        ops = wl.ops(args.seed, rounds)
        state = fresh_setup(wl, tmp, args.seed, base_env)
        plain = run_ops(wl, state, ops, 1, pins)
        state = fresh_setup(wl, tmp, args.seed, base_env)
        tracer = Tracer()
        tracer.install()
        try:
            with telemetry.capture() as tel:
                traced = run_ops(wl, state, ops, 1, pins, tracer=tracer)
        finally:
            tracer.uninstall()
        counters = dict(tel.counters)
        overhead = traced.wall_s / plain.wall_s
        metrics = per_layer_metrics(tracer, counters, overhead)
        problems = binding_self_test(tracer, counters)
        by_kind = tracer.layer_self_by_op_kind()
        layer_self: Dict[str, float] = {}
        for layers in by_kind.values():
            for layer, seconds in layers.items():
                layer_self[layer] = layer_self.get(layer, 0.0) + seconds
        record.update(
            rounds=rounds,
            ops=len(ops),
            jobs=1,
            untraced_wall_s=plain.wall_s,
            traced_wall_s=traced.wall_s,
            layer_self_s=layer_self,
            layer_self_by_op_kind_s=by_kind,
            self_by_span_s=tracer.self_by_name(),
            counters=counters,
            binding_self_test=problems or "passed",
            trace=tracer.to_dict(),
        )
        attempted = 2 * len(ops)
        failures = plain.failures + traced.failures
    # After the run, so the environment is the one the workload ran with.
    record.update(run_metadata(args))
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["failures"] = [
        {"op": i, "key": key, "error": err} for i, key, err in failures
    ]
    return {
        "record": record,
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failures),
        "problems": problems,
    }


# -- reporting -----------------------------------------------------------------


def print_report(result: Dict[str, Any]) -> None:
    rec = result["record"]
    mode = "traced" if rec["traced"] else "untraced"
    print(
        f"perfbench {rec['workload']}: seed {rec['seed']}, {mode}, "
        f"{rec['rounds']} rounds, {rec['ops']} ops, jobs {rec['jobs']}"
    )
    for name, (value, unit) in result["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{rec['tail_percentile']} of {rec['ops']} ops)"
        print(f"  {name:<28} {value:>14.6g} {unit}{note}")
    if not rec["traced"]:
        print(f"  {'fail_ratio':<28} {rec['fail_ratio']:>14.6g} ratio")
    else:
        groups = [("all ops", rec["layer_self_s"])]
        if len(rec["layer_self_by_op_kind_s"]) > 1:
            groups += sorted(rec["layer_self_by_op_kind_s"].items())
        for label, layers in groups:
            total = sum(layers.values())
            shares = ", ".join(
                f"{layer} {seconds / total:.1%}"
                for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1])
                if seconds / total >= 0.001
            )
            print(f"  self time, {label} ({total:.3f} s): {shares}")
        print(f"  binding self-test: {rec['binding_self_test']}")
    for failure in rec["failures"][:10]:
        print(f"  FAILED op {failure['op']} {failure['key']}: {failure['error']}")
    brief = {k: v for k, v in rec.items() if k not in ("trace", "latencies_s")}
    print("# record " + json.dumps(brief, sort_keys=True))


def write_record(rec: Dict[str, Any]) -> None:
    directory = OUT / "records"
    directory.mkdir(parents=True, exist_ok=True)
    mode = "traced" if rec["traced"] else "untraced"
    path = directory / f"{rec['workload']}-seed{rec['seed']}-{mode}.json"
    path.write_text(json.dumps(rec, sort_keys=True) + "\n")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {SRC / 'repro'} not found; run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    tmp = OUT / "tmp" / str(os.getpid())
    pin_environment(tmp)

    from perfbench.workloads import WORKLOADS

    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        for module in WORKLOADS[name].modules:
            __import__(module)
    import_s = time.perf_counter() - _T_START
    if args.import_only:
        print(import_s)
        return 0
    pins = json.loads((Path(__file__).parent / "pinned.json").read_text())
    base_env = repro_env()

    results = []
    try:
        for name in names:
            result = run_workload(
                WORKLOADS[name], args, pins[name], tmp / name, import_s, base_env
            )
            print_report(result)
            write_record(result["record"])
            results.append(result)
    finally:
        reap_children()
        shutil.rmtree(tmp, ignore_errors=True)

    problems = [p for r in results for p in r["problems"]]
    for problem in problems:
        print(f"perfbench: binding self-test failed: {problem}", file=sys.stderr)
    failed = sum(r["failed"] for r in results)

    def metric_name(result, name):
        return name if len(results) == 1 else f"{result['record']['workload']}.{name}"

    summary = {
        "correct": failed == 0 and not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {
            metric_name(r, name): {"value": value, "unit": unit}
            for r in results
            for name, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
