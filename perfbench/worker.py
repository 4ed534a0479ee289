"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace-out PATH]

run.py starts this with PYTHONPATH pointing at the checkout's src/, so the
package's caches start cold and the peak RSS read at the end of the timed
phase belongs to this round alone.  With --trace-out, spans are recorded
around the package's public functions and written to PATH.  Prints one JSON
object: per-op latencies, failures, peak RSS, check results and, when
traced, the per-module totals.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    import mzv_lab.cli  # noqa: F401  (the import is timed apart, as setup_s)

    src = os.path.realpath(os.environ["PYTHONPATH"])
    if not os.path.realpath(mzv_lab.cli.__file__).startswith(src + os.sep):
        print(f"mzv_lab was imported from {mzv_lab.cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    ops, checks = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    res: dict = {}
    lat_ns, failed = {}, {}
    timed_start = time.perf_counter_ns()
    for op in ops:
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                out = op.run(res)
            else:
                with tracer.root(op.label):
                    out = op.run(res)
        except Exception as exc:  # a failed op is counted, the round goes on
            failed[op.label] = f"{type(exc).__name__}: {str(exc)[:200]}"
        else:
            res[op.label] = out
        lat_ns[op.label] = time.perf_counter_ns() - t0
    timed_ns = time.perf_counter_ns() - timed_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    trace = None
    if tracer is not None:
        trace = tracer.metrics()
        tracer.dump(args.trace_out)

    check_failures = []
    for what, fn in checks:
        try:
            if not fn(res):
                check_failures.append(what)
        except KeyError as exc:
            # a check that reads the output of a failed op is skipped: the op is counted
            if not (exc.args and exc.args[0] in failed):
                check_failures.append(f"{what}: KeyError {exc}")
        except Exception as exc:
            check_failures.append(f"{what}: {type(exc).__name__}: {exc}")

    faults = {op.label for op in ops if op.fault}
    print(
        json.dumps(
            {
                "ops": [op.label for op in ops],
                "faults": sorted(faults),
                "failed": failed,
                "lat_ns": lat_ns,
                "timed_s": timed_ns / 1e9,
                "peak_rss_mb": peak_rss_mb,
                "check_failures": check_failures,
                "trace": trace,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
