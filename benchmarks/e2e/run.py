"""End-to-end + per-layer benchmark of the platform over real sockets.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--repeat K]

Launches the server under test in its own process (``launcher.py``),
drives it from this single generator process, checks every reply
against an independent oracle, and prints every metric named in
``BENCHMARK.json`` with its unit.  With ``--workload`` the last line of
stdout is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without it, every workload runs in turn.
``--repeat K`` repeats the end-to-end set and exits non-zero when the
two halves disagree by more than a metric's bound.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT} is not a checkout of the platform: src/repro is missing")
sys.path[:0] = [str(HERE), str(ROOT / "src")]
# OpenBLAS starts one thread per core in *every* process; on two cores
# those fight the handler threads and the float32 paths come out bimodal
# from launch to launch (classify_batch: 14-19 ops/s against a steady 33).
# One BLAS thread per process, set before numpy loads and inherited by
# the server and its workers; export another value to override.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import layers  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    GENERATOR_CPU, OUT, SERVER_CPU, WORKLOADS, InvalidRun, Server,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

DEFAULT_SEED = 11
WARMUP_S = 1.0
#: Fresh servers per end-to-end run; every metric is their median.
LAUNCHES = 3
#: Printed per launch beside the bounded metrics, never gated.
INFORMATIONAL = ("mean_ops_per_s", "p95_ms", "p99_ms", "max_ms")


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    #: Printed, never gated: p99/max, sample counts, the first errors.
    info: dict = field(default_factory=dict)

    def contract_line(self) -> str:
        spec = PER_LAYER if self.trace else END_TO_END
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name],
                               "unit": spec[name]["unit"]} for name in spec},
        })


def environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')}-{blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True)
    sha = git.stdout.strip() if git.returncode == 0 else "none"
    return (f"nproc={os.cpu_count()} generator_cpu={GENERATOR_CPU} "
            f"server_cpu={SERVER_CPU} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} git={sha} "
            f"load1={os.getloadavg()[0]:.2f}")


def drive(workload, server: Server, seconds: float, warmup_s: float = WARMUP_S):
    """Closed loop: warm up, then measure for ``seconds``.  Returns the
    measured units and the launcher's stats before and after them."""
    workload.attach(server)
    try:
        i = 0
        deadline = time.perf_counter() + warmup_s
        while time.perf_counter() < deadline or i == 0:
            workload.step(i)
            i += 1
        before = server.stats()
        units = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not units:
            units.append(workload.step(i))
            i += 1
        after = server.stats()
    finally:
        workload.close()
    restarts = after["serving"].get("restarts", 0)
    if restarts:
        raise InvalidRun(f"{restarts} serving worker restart(s) during the run")
    return units, before, after


def latency_summary(units) -> dict:
    """``ops_per_s`` is operations per cycle over the *median* cycle time
    (start to next start, so generator think time counts): the rate the
    closed loop sustains when undisturbed.  The mean-based rate and the
    tail percentiles are reported beside it but not bounded — on a shared
    box they move by tens of percent between identical runs."""
    ms = np.array([l * 1e3 for u in units for l in u.latencies])
    starts = [u.start for u in units] + [units[-1].end]
    return {
        "samples": len(ms),
        "ops_per_s": len(units[0].latencies) / float(np.median(np.diff(starts))),
        "p50_ms": float(np.percentile(ms, 50)),
        "mean_ops_per_s": len(ms) / (units[-1].end - units[0].start),
        "p95_ms": float(np.percentile(ms, 95)),
        "p99_ms": float(np.percentile(ms, 99)),
        "max_ms": float(ms.max()),
    }


def failures(units) -> tuple[int, list[str]]:
    return (sum(u.failed for u in units),
            [e for u in units for e in u.errors][:3])


def run_end_to_end(name: str, seed: int, seconds: float, *,
                   warmup_s: float = WARMUP_S,
                   launches: int = LAUNCHES) -> Result:
    """``launches`` fresh servers, each warmed up and measured for an
    equal share of ``seconds``; every metric is the median over the
    launches, so neither a slow launch (thread and core placement differ
    from launch to launch) nor one interfered stretch on a shared box
    decides the run."""
    workload = WORKLOADS[name](seed)
    per_launch, units = [], []
    for _ in range(launches):
        with Server(**workload.server_args) as server:
            measured, _, after = drive(workload, server, seconds / launches,
                                       warmup_s)
        units += measured
        per_launch.append({**latency_summary(measured),
                           "setup_s": server.setup_s,
                           "peak_rss_mb": after["peak_rss_kb"] / 1024.0,
                           "processes": after["processes"]})
    metrics = {m: statistics.median(l[m] for l in per_launch)
               for m in END_TO_END}
    failed, errors = failures(units)
    attempted = sum(l["samples"] for l in per_launch)
    info = {
        "samples": attempted,
        "per_launch": {m: [round(l[m], 4) for l in per_launch]
                       for m in (*END_TO_END, *INFORMATIONAL, "samples")},
        "error_rate": failed / attempted,
        "processes": per_launch[-1]["processes"], "errors": errors,
    }
    return Result(name, seed, False, attempted, failed, metrics, info)


def run_traced(name: str, seed: int, seconds: float, *,
               warmup_s: float = WARMUP_S) -> Result:
    """Half the time untraced, half traced (a separate server each), so
    ``trace.overhead_pct`` compares like with like; then the probes."""
    workload = WORKLOADS[name](seed)
    half = seconds / 2.0
    with Server(**workload.server_args) as server:
        plain, _, _ = drive(workload, server, half, warmup_s)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{name}.json"
    with Server(**workload.server_args, trace_path=trace_path) as server:
        units, before, after = drive(workload, server, half, warmup_s)
    spans = tracing.load(trace_path)
    metrics = layers.compute(units, spans, before, after)
    untraced, traced = latency_summary(plain), latency_summary(units)
    metrics["trace.overhead_pct"] = (
        (traced["p50_ms"] - untraced["p50_ms"]) / untraced["p50_ms"] * 100.0)
    metrics["client.p95_ms"] = untraced["p95_ms"]
    metrics["client.p99_ms"] = untraced["p99_ms"]
    metrics.update(probes.run_all(seed, OUT))
    failed, errors = failures(plain + units)
    parts = sum(metrics[m] for m in layers.HANDLE_PARTS)
    info = {
        "samples": traced["samples"], "spans": len(spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "untraced_p50_ms": untraced["p50_ms"],
        "traced_p50_ms": traced["p50_ms"],
        "self_time_closure": parts / metrics["api.gateway.handle_ms"],
        "errors": errors,
    }
    attempted = sum(len(u.latencies) for u in plain + units)
    return Result(name, seed, True, attempted, failed, metrics, info)


def report(result: Result, seconds: float) -> None:
    spec = PER_LAYER if result.trace else END_TO_END
    print(f"== {result.workload}  seed={result.seed} "
          f"trace={int(result.trace)} seconds={seconds:g} ==")
    n = result.info["samples"]
    for name, meta in spec.items():
        note = f"  (n={n})" if name.endswith(("p50_ms", "p95_ms", "p99_ms")) else ""
        print(f"  {name:<40} {result.metrics[name]:>14.4f} {meta['unit']}{note}")
    for key, value in result.info.items():
        if key != "samples":
            print(f"  info {key} = {value}")
    print(f"  attempted={result.attempted} failed={result.failed}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> Result:
    print(f"env: {environment()}")
    run = run_traced if trace else run_end_to_end
    result = run(name, seed, seconds)
    report(result, seconds)
    return result


def repeatability(names, seed: int, seconds: float, repeat: int) -> bool:
    """Run the end-to-end set ``repeat`` times; per workload x metric
    print median, quartiles and the gap between the medians of the two
    halves against the metric's bound.  True when every gap is inside."""
    runs = {name: [] for name in names}
    for _ in range(repeat):
        for name in names:
            runs[name].append(run_one(name, seed, seconds, trace=False).metrics)
    ok = True
    print(f"== repeatability over {repeat} runs "
          f"(claims use medians over repeats) ==")
    for name in names:
        for metric, meta in END_TO_END.items():
            values = [r[metric] for r in runs[name]]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            first = statistics.median(values[:repeat // 2])
            second = statistics.median(values[repeat // 2:])
            gap = abs(second - first) / first
            inside = gap <= meta["bound"]
            ok &= inside
            print(f"  {name:<20} {metric:<12} median {q2:>10.3f} {meta['unit']:<4}"
                  f" q1 {q1:>10.3f} q3 {q3:>10.3f} spread {(q3 - q1) / q2:6.1%}"
                  f" half-gap {gap:6.1%} bound {meta['bound']:.0%}"
                  f" {'ok' if inside else 'EXCEEDED'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {GENERATOR_CPU})
    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    try:
        if args.repeat > 1:
            if args.repeat < 4:
                parser.error("--repeat needs at least 4 runs for quartiles")
            return 0 if repeatability(names, args.seed, args.seconds,
                                      args.repeat) else 1
        for name in names:
            result = run_one(name, args.seed, args.seconds, bool(args.trace))
            if not args.workload and not args.trace:
                run_one(name, args.seed, args.seconds, trace=True)
    except InvalidRun as exc:
        print(f"INVALID RUN: {exc}", file=sys.stderr)
        return 3
    except Exception:  # noqa: BLE001 - the generator's own fault, not the program's
        traceback.print_exc()
        print("INVALID RUN: generator exception (traceback above)",
              file=sys.stderr)
        return 3
    if args.workload:
        print(result.contract_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
