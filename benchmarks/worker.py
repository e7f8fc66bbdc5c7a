"""One benchmark process: import lahbell, build the op stream, run a closed loop.

run.py starts each worker in a fresh interpreter, so the process-global
caches (TriangleCache rows, the CDF-table LRU cache) start empty every time.
One client, one thread: each op starts when the previous one has finished
and its output has been checked. Only the op itself is timed; the gate runs
between ops.

    python3 benchmarks/worker.py --workload W --seed S (--seconds X | --ops K | --setup-only) [--trace] [--probe]

prints one JSON object on stdout. Its "ready" field is the perf_counter
reading just before the first op, which run.py subtracts from its own reading
taken before the process was started (perf_counter is the system-wide
monotonic clock). "setup_reference" is the median of SETUP_REFERENCES
machine-speed reference passes right after that point, and "references" has
one reference pass after each op (see calibration.py). With --probe the
known-defect probes run once after the timed loop, untimed and outside the
op counts, and "probes" gives each one's gate outcome.
"""

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import lahbell  # noqa: E402  (imported first: set-up time covers it)
import lahbell.cli  # noqa: E402

from calibration import reference_seconds  # noqa: E402
from oracles import gate, load_validator  # noqa: E402
from workloads import KNOWN_DEFECT_PROBES, op_stream, run_op  # noqa: E402

SCHEMA = os.path.join(ROOT, "src", "lahbell", "schemas", "cli_output.schema.json")
SETUP_REFERENCES = 20


def _probe(workload: str, op: dict, validator):
    """Gate outcome of one known-defect probe: None if it passes, else why not."""
    try:
        return gate(workload, op, run_op(lahbell, workload, op), validator)
    except Exception as exc:
        return f"raised {exc!r}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--ops", type=int)
    limit.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    validator = load_validator(SCHEMA)
    stream = op_stream(args.workload, args.seed)
    op = next(stream)
    ready = perf_counter()
    setup_reference = statistics.median(reference_seconds() for _ in range(SETUP_REFERENCES))
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_reference": setup_reference}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(lahbell)
        cdf_before = tracer.cdf_cache_info()

    latencies = []
    references = []
    failures = []
    stdout_bytes = 0
    start = perf_counter()
    while True:
        if args.ops is not None and len(latencies) >= args.ops:
            break
        if args.seconds is not None and perf_counter() - start >= args.seconds:
            break
        if tracer:
            tracer.begin_op(op["id"])
        t0 = perf_counter()
        try:
            result = run_op(lahbell, args.workload, op)
            error = None
        except Exception as exc:  # a failed op is counted, never retried
            result = None
            error = f"raised {exc!r}"
        latencies.append(perf_counter() - t0)
        if tracer:
            tracer.end_op()
        reason = error or gate(args.workload, op, result, validator)
        if reason:
            failures.append({"id": op["id"], "reason": reason})
        if result and "stdout" in result:
            stdout_bytes += len(result["stdout"].encode())
        references.append(reference_seconds())
        op = next(stream)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {
        "ready": ready,
        "setup_reference": setup_reference,
        "latencies": latencies,
        "references": references,
        "failures": failures,
        "rss_kb": rss_kb,
    }
    if tracer:
        out["trace"] = tracer.metrics(cdf_before, stdout_bytes)
        out["edges"] = tracer.edge_table()
    if args.probe:
        out["probes"] = [{"id": probe["id"], "reason": _probe(args.workload, probe, validator)}
                         for probe in KNOWN_DEFECT_PROBES]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
