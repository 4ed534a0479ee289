"""mzv-lab benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload {verify,algebra,qseries} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its src/.
Each round of the workload runs in a fresh worker interpreter (worker.py),
one process at a time and no threads.  With --trace 0 rounds are repeated
until S seconds have passed, and the end-to-end metrics are printed.  With
--trace 1 one untraced and one traced round run, and the per-module metrics
are printed.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_SAMPLES = 8  # before the rounds, and as many again after them
DEADLINE_S = 170  # every run ends within 180 s
IMPORT_PROBE = "import time; t = time.perf_counter(); import mzv_lab.cli; print(time.perf_counter() - t)"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def env() -> dict[str, str]:
    e = dict(os.environ)
    e.pop("MZV_LAB_THREADS", None)  # one process, no threads
    # numpy's OpenBLAS would start a thread pool per core at import; mzv_lab
    # makes no BLAS call, and the idle pool's wake-ups make the import noisy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        e[var] = "1"
    e["PYTHONPATH"] = SRC
    e["PYTHONHASHSEED"] = "0"
    return e


def python(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run the interpreter; subprocess.run kills and reaps it on timeout."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def setup_samples(n: int, deadline: float) -> list[float]:
    """CLI cold start: `import mzv_lab.cli` timed inside n fresh interpreters."""
    samples = []
    for _ in range(n):
        p = python(["-c", IMPORT_PROBE], deadline)
        if p.returncode != 0:
            raise RuntimeError(f"import mzv_lab.cli failed:\n{p.stderr}")
        samples.append(float(p.stdout.strip()))
    return samples


def import_split(deadline: float) -> dict[str, float]:
    """-X importtime: numpy's cumulative time and the self time of mzv_lab's
    own modules, each the median of three fresh interpreters."""
    numpy_s, own_s = [], []
    for _ in range(3):
        p = python(["-X", "importtime", "-c", "import mzv_lab.cli"], deadline)
        numpy_us, own_us = 0, 0
        for line in p.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = [f.strip() for f in line[len("import time:"):].split("|")]
            if not fields[0].isdigit():
                continue  # the header line
            self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2]
            if name == "numpy":
                numpy_us = cumulative_us
            elif name.startswith("mzv_lab"):
                own_us += self_us
        numpy_s.append(numpy_us / 1e6)
        own_s.append(own_us / 1e6)
    return {"import.numpy_s": statistics.median(numpy_s), "import.mzv_lab_s": statistics.median(own_s)}


def run_round(workload: str, seed: int, deadline: float, trace_out: str | None = None) -> dict:
    args = [os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace_out:
        args += ["--trace-out", trace_out]
    p = python(args, deadline)
    if p.returncode != 0:
        raise RuntimeError(f"worker exited {p.returncode}:\n{p.stderr[-4000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def tally(rounds: list[dict]) -> tuple[bool, int, int, list[str]]:
    """correct, attempted, failed, and what went wrong.  Only the named fault
    may fail; a check that reads a failed op's output is skipped."""
    problems, attempted, failed = [], 0, 0
    for r in rounds:
        attempted += len(r["ops"])
        failed += len(r["failed"])
        problems += [f"unexpected failure {k}: {v}" for k, v in r["failed"].items() if k not in r["faults"]]
        problems += [f"check failed: {c}" for c in r["check_failures"]]
    return not problems, attempted, failed, problems


def hd_median(xs: list[float]) -> float:
    """Harrell-Davis estimate of the median: the order statistics weighted by
    a Beta((n+1)/2, (n+1)/2) density over their ranks (Simpson's rule on
    each rank's interval).  A `verify` round has only 21 ops, so its sample
    median is the time of one 0.45 s suite, which moves 16 % with machine load;
    this estimate spreads the weight over the middle suites."""
    xs, n = sorted(xs), len(xs)
    a = (n + 1) / 2
    log_norm = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def density(t: float) -> float:
        return math.exp((a - 1) * math.log(t * (1 - t)) - log_norm) if 0 < t < 1 else 0.0

    steps, weights = 8, []
    for i in range(n):
        h = 1 / (steps * n)
        weights.append(sum((1 if j in (0, steps) else 4 if j % 2 else 2) * density(i / n + j * h)
                           for j in range(steps + 1)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(rounds: list[dict], setup_s: float) -> dict[str, tuple[float, str]]:
    done = [ns for r in rounds for k, ns in r["lat_ns"].items() if k not in r["failed"]]
    completed = len(done)
    timed_s = sum(r["timed_s"] for r in rounds)
    return {
        "ops_per_s": (completed / timed_s, "1/s"),
        "op_ms_p50": (hd_median(done) / 1e6, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "setup_s": (setup_s, "s"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify", "algebra", "qseries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "mzv_lab", "cli.py")):
        return fail(f"no package at {SRC}/mzv_lab; run from the root of an mzv-lab checkout")
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"

    try:
        if args.trace:
            imports = import_split(deadline)
            plain = run_round(args.workload, args.seed, deadline)
            traced = run_round(args.workload, args.seed, deadline, os.path.join(RESULTS, f"trace-{tag}.json"))
            rounds = [plain, traced]
            found = {**traced["trace"], **imports, "trace.overhead_s": traced["timed_s"] - plain["timed_s"]}
            # suite times come from the untraced round; other workloads run no suite
            found.update({f"{k}_s": ns / 1e9 for k, ns in plain["lat_ns"].items() if k.startswith("suite.")})
            unreachable = args.workload != "verify"
            missing = [m["name"] for m in per_layer()
                       if m["name"] not in found and not (unreachable and m["name"].startswith("suite."))]
            if missing:
                raise RuntimeError(f"the traced run did not produce {', '.join(missing)}")
            metrics = {m["name"]: (found.get(m["name"], 0.0), m["unit"]) for m in per_layer()}
        else:
            # the first import writes the bytecode cache, as a user's first run
            # would, and is not counted; the samples taken before and after the
            # rounds see the machine in more than one state
            setup = setup_samples(1 + SETUP_SAMPLES, deadline)[1:]
            rounds, start = [], time.monotonic()
            while not rounds or time.monotonic() - start < args.seconds:
                rounds.append(run_round(args.workload, args.seed, deadline))
            setup += setup_samples(SETUP_SAMPLES, deadline)
            metrics = end_to_end(rounds, statistics.median(setup))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    correct, attempted, failed, problems = tally(rounds)
    for p in problems:
        print(p, file=sys.stderr)
    width = max(len(k) for k in metrics)
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} round(s), "
          f"{attempted} ops attempted, {failed} failed, correct={correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(RESULTS, f"{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "rounds": rounds}, fh)
    print(json.dumps(result))
    return 0


def per_layer() -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


if __name__ == "__main__":
    sys.exit(main())
