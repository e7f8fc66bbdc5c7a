"""lahbell benchmark: seeded closed-loop workloads, end to end or traced per layer.

    python3 benchmarks/run.py --workload verify-deep --seed 7 --seconds 40 --trace 0

Run it from the repository root; it needs `src/lahbell` and numpy, and
`jsonschema` for the output gate. Workloads, metrics and the layer map are
described in benchmarks/README.md.

--trace 0 measures the end-to-end metrics with tracing off. SETUP_SAMPLES - 1
set-up-only processes start first; then one worker runs the workload's ops
for --seconds and its own set-up time is the last sample. Throughput, p50
and p90 are taken over the whole rounds of ops completed, each op's latency
divided by its round's machine slowness (see calibration.py). --trace 1 runs the
ops for half of --seconds with every lahbell layer traced, then replays the
same ops untraced in a fresh process to measure the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. `correct` is false when
any op fails. An untraced `sampling` run also runs the known-defect probes
(classical Poisson at alpha 720-800, ROADMAP item 3(a)) once after its timed
loop and prints their outcome; they are not ops of the workload and are not
counted in attempted or failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from calibration import REFERENCE_S
from workloads import ROUND_OPS, WORKLOADS, op_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

DEFAULT_SEED = 7
HELD_OUT_SEED = 1009  # kept for confirming a claimed gain, never for tuning
SETUP_SAMPLES = 7
WORKER_TIMEOUT_PAD = 120
PINNED_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchmarkError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(PINNED_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list, timeout: float) -> tuple[dict, float]:
    """Run one worker to completion; returns its JSON result and raw set-up time."""
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=_worker_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args} did not finish within {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, result["ready"] - t0


def _quantile(values: list, q: int) -> float:
    """q-th percentile (inclusive method) for q in 10..90 by tens."""
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def measure(workload: str, seed: int, seconds: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    runs = [spawn(common + ["--setup-only"], WORKER_TIMEOUT_PAD)
            for _ in range(SETUP_SAMPLES - 1)]
    probe = ["--probe"] if workload == "sampling" else []
    runs.append(spawn(common + ["--seconds", str(seconds), *probe], seconds + WORKER_TIMEOUT_PAD))
    result = runs[-1][0]
    raw_setups = [setup for _, setup in runs]
    setups = [setup * REFERENCE_S / r["setup_reference"] for r, setup in runs]
    latencies = result["latencies"]
    size = ROUND_OPS[workload]
    rounds = len(latencies) // size
    if rounds < 2:
        raise BenchmarkError("fewer than two rounds of ops completed; raise --seconds")
    scaled = []
    slowness = []
    for i in range(0, rounds * size, size):
        slowness.append(statistics.median(result["references"][i:i + size]) / REFERENCE_S)
        scaled += [lat / slowness[-1] for lat in latencies[i:i + size]]
    raw = latencies[:rounds * size]
    p90 = _quantile(scaled, 90)
    failed = len(result["failures"])
    attempted = len(latencies)
    print(f"ops: {attempted} attempted, {failed} failed (failed_ratio {failed / attempted:.4f})")
    print(f"timed figures over {rounds} whole rounds: {len(scaled)} latency samples, "
          f"{sum(1 for lat in scaled if lat > p90)} above p90; machine slowness per round "
          f"min {min(slowness):.3f} median {statistics.median(slowness):.3f} max {max(slowness):.3f}")
    print(f"raw (unscaled): ops_per_s {len(raw) / sum(raw):.6g}, latency_p50_ms "
          f"{statistics.median(raw) * 1000:.6g}, latency_p90_ms {_quantile(raw, 90) * 1000:.6g}, "
          f"setup_s {statistics.median(raw_setups):.6g}")
    for failure in result["failures"][:10]:
        print(f"  failed op {failure['id']}: {failure['reason']}")
    if "probes" in result:
        print("known defect, ROADMAP 3(a), large-alpha classical Poisson probes "
              "(not workload ops, not counted): "
              + "; ".join(f"{p['id']} {'FAILS: ' + p['reason'] if p['reason'] else 'passes'}"
                          for p in result["probes"]))
    print("setup samples, raw -> scaled (s): "
          + ", ".join(f"{r:.4f} -> {s:.4f}" for r, s in zip(raw_setups, setups)))
    metrics = {
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["rss_kb"] / 1024, "MB"),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    traced, _ = spawn(common + ["--seconds", str(seconds / 2), "--trace"],
                      seconds + WORKER_TIMEOUT_PAD)
    count = len(traced["latencies"])
    plain, _ = spawn(common + ["--ops", str(count)], seconds + WORKER_TIMEOUT_PAD)
    values = dict(traced["trace"])
    values["trace.overhead_ratio"] = sum(traced["latencies"]) / sum(plain["latencies"])
    print(f"traced ops: {count}; traced op wall {sum(traced['latencies']):.4f} s, "
          f"untraced {sum(plain['latencies']):.4f} s")
    print("bucket <- parent: calls, total_s, self_s")
    for edge in traced["edges"]:
        print(f"  {edge['bucket']} <- {edge['parent']}: {edge['calls']}, "
              f"{edge['total_s']:.6f}, {edge['self_s']:.6f}")
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    for failure in traced["failures"][:10]:
        print(f"  failed op {failure['id']}: {failure['reason']}")
    return {"correct": not traced["failures"] and not plain["failures"], "attempted": count,
            "failed": len(traced["failures"]), "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_per_instance")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "lahbell", "__init__.py")):
        print("error: src/lahbell not found; run from a lahbell checkout", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed} (default {DEFAULT_SEED}, "
          f"held out {HELD_OUT_SEED}), "
          f"op digest {op_digest(args.workload, args.seed)}, "
          f"{PINNED_THREADS} numpy thread, closed loop, 1 client")
    try:
        if args.trace:
            report = measure_traced(args.workload, args.seed, args.seconds)
        else:
            report = measure(args.workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in report["metrics"].items():
        print(f"{name}: {value:.6g} {unit}")
    report["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in report["metrics"].items()}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
