"""ccgrav benchmark: one seeded closed-loop workload, end-to-end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client in one process sends its next op only after the previous one
returns; BLAS is pinned to one thread.  Every op's output is checked.

``--trace 0`` runs whole blocks of the workload's op list until ``--seconds``
have passed and reports the end-to-end metrics.  ``--trace 1`` repeats a
fixed prefix of the op list, alternating untraced and traced passes, and
reports per-layer metrics per traced pass, plus the tracing overhead.  The
last line of standard output is the result object; the line before it
records the run's facts (versions, thread counts, op counts, tail
percentile).  Failed checks are described on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata

from common import (
    BENCH_DIR,
    BLAS_THREADS,
    CheckoutError,
    add_src_path,
    check_imported,
    child_env,
    pin_threads,
)

SETUP_SAMPLES = 11
IMPORTTIME_SAMPLES = 3
TAIL_MIN_BEYOND = 10
MAX_REPORTED_FAILURES = 5


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest nearest-rank
    percentile with ten samples beyond it; the maximum if there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_MIN_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_MIN_BEYOND


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time (import plus fixtures) measured in one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs blocks of ops against one workload, timing each op and checking outputs."""

    def __init__(self, cc, workload):
        self.cc = cc
        self.workload = workload
        self.fixtures = workload.build_fixtures(cc)
        self.references = workload.build_references(cc, self.fixtures)
        self.failures = []

    def warm_up(self) -> None:
        """Run one op untimed so lazy imports and first-call set-up are done."""
        self.workload.run(self.cc, self.fixtures, self.workload.make_block(0)[0])

    def run_block(self, ops, keep_outputs=False) -> tuple[list[float], list, int]:
        """Run and check ops group by group; outputs are dropped once checked
        unless ``keep_outputs``, so they do not inflate the peak memory."""
        size = self.workload.group_size
        latencies, kept, failed = [], [], 0
        for first in range(0, len(ops), size):
            group = ops[first:first + size]
            outputs, raised = [], {}
            for i, op in enumerate(group):
                start = time.perf_counter()
                try:
                    outputs.append(self.workload.run(self.cc, self.fixtures, op))
                except Exception as exc:  # an op failure is counted, not fatal
                    outputs.append(None)
                    raised[i] = f"{type(exc).__name__}: {exc}"
                latencies.append(time.perf_counter() - start)
            checked = self.workload.check(self.references, group, outputs)
            for i, op in enumerate(group):
                problem = raised.get(i) or checked[i]
                if problem:
                    failed += 1
                    self.failures.append(f"{op!r:.200}: {problem}")
            if keep_outputs:
                kept += outputs
        return latencies, kept, failed


def end_to_end(runner: Runner, seconds: float, seed: int) -> tuple[dict, dict]:
    """Whole blocks until ``seconds`` have passed, with the set-up samples
    spread evenly over the run so that a slow spell of the machine does not
    hit all of them; their time counts toward ``seconds``."""
    workload = runner.workload
    latencies, block_rates, setup = [], [], []
    failed = 0
    start = time.perf_counter()
    while not block_rates or time.perf_counter() - start < seconds:
        if time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(setup_sample(workload.name, seed))
        ops = workload.make_block(len(block_rates))
        block_latencies, _outputs, block_failed = runner.run_block(ops)
        latencies += block_latencies
        block_rates.append((len(ops) - block_failed) / sum(block_latencies))
        failed += block_failed
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(workload.name, seed))
    attempted = len(latencies)
    tail, pct, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (statistics.median(block_rates), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    facts = {"blocks": len(block_rates), "attempted": attempted, "failed": failed,
             "tail_percentile": pct, "tail_samples_beyond": beyond}
    return metrics, facts


def traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    from tracing import Tracer, import_times

    workload = runner.workload
    prefix = [workload.make_block(i) for i in range(workload.trace_blocks)]
    tracer = Tracer(runner.cc)
    totals = Counter({"lattice_sums.bound_misses": 0})  # reported on every workload
    plain_s = traced_s = 0.0
    attempted = failed = passes = 0
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for tracing_on in (False, True):
            if tracing_on:
                tracer.reset()
                tracer.install()
            try:
                for ops in prefix:
                    latencies, outputs, block_failed = runner.run_block(
                        ops, keep_outputs=tracing_on
                    )
                    attempted += len(ops)
                    failed += block_failed
                    if tracing_on:
                        traced_s += sum(latencies)
                        totals.update(workload.counts(runner.references, ops, outputs))
                    else:
                        plain_s += sum(latencies)
            finally:
                tracer.uninstall()
        totals.update(tracer.layer_metrics())
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break  # another untraced-plus-traced pair would end after ``seconds``
    ops_per_pass = sum(len(ops) for ops in prefix)
    metrics = {
        name: (total / passes, "s" if name.endswith("_s") else "count")
        for name, total in sorted(totals.items())
    }
    for name, value in import_times(IMPORTTIME_SAMPLES).items():
        metrics[name] = (value, "s")
    metrics["trace.ops_per_s"] = (passes * ops_per_pass / traced_s, "1/s")
    metrics["trace.untraced_ops_per_s"] = (passes * ops_per_pass / plain_s, "1/s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    facts = {"trace_blocks": workload.trace_blocks, "ops_per_pass": ops_per_pass,
             "passes": passes, "attempted": attempted, "failed": failed}
    return metrics, facts


def main(argv=None) -> int:
    from workloads import WORKLOADS  # imports numpy, so only after pin_threads()

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    try:
        add_src_path()
        import ccgrav
        import ccgrav.cli

        check_imported(ccgrav)
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    runner = Runner(ccgrav, WORKLOADS[args.workload](args.seed))
    runner.warm_up()
    if args.trace == 0:
        metrics, facts = end_to_end(runner, args.seconds, args.seed)
    else:
        metrics, facts = traced(runner, args.seconds)
    for line in runner.failures[:MAX_REPORTED_FAILURES]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)

    run_facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "client_threads": 1, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
    } | facts
    print(json.dumps({"run": run_facts}, sort_keys=True))
    result = {
        "correct": facts["failed"] == 0,
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_threads()
    raise SystemExit(main())
