"""Run one workload in a fresh interpreter and write its result as JSON.

Usage: ``python3 perfbench/worker.py WORKLOAD --seed N --seconds S
--trace 0|1 --out FILE``.  Started by ``run.py`` (and ``record.py``) with
a fixed ``PYTHONHASHSEED`` and ``PYTHONPATH=src``; not meant to be run by
hand.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import statistics
import sys

import layers
from measure import quantile
from tracer import covered
from workloads import HERE, WORKLOADS, Run

MIN_COVERAGE = 0.95


def _exit_on_sigterm(signum, frame):
    raise SystemExit(143)  # unwinds finally blocks


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    # one CPU for the work, its threads and the kernel probes alike, so the
    # probes measure the CPU the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    with open(HERE / "spec.json") as fh:
        spec = json.load(fh)
    if args.trace:
        for module in layers.PRELOAD:
            importlib.import_module(module)
    run = Run(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    WORKLOADS[args.workload](run)

    values = run.values
    meter = run.meter
    factor = meter.factor
    if args.trace:
        for name, value in layers.layer_metrics(run.spans, factor).items():
            values.setdefault(name, value)  # serve sets its own serve.* values
        values.update(meter.evidence(run.plain_chunks))
        values["host.speed_factor"] = factor
        values["host.trace_overhead_frac"] = (
            1.0 - meter.throughput(run.work) / meter.throughput(run.plain_chunks))
        values["host.top_level_coverage"] = covered(run.spans, run.windows)
        fired = layers.fired(run.spans)
        for name in layers.declared_spans(args.workload):
            run.check(name in fired, f"declared span {name} never fired")
        run.check(values["host.top_level_coverage"] >= MIN_COVERAGE,
                  f"layer spans under the roots cover only "
                  f"{values['host.top_level_coverage']:.1%} of the timed phase")
        print(f"per-layer self time ({args.workload}, trace {run.trace_path.name}):")
        print(layers.format_table(values, run.spans, factor))
    else:
        ms = [meter.norm(s, f) * 1000.0 for s, f in run.latency]
        values.update(
            setup_s=statistics.median(meter.norm(c.raw_s, c.factor) for c in run.setups),
            loops_per_s=meter.throughput(run.work),
            p50_ms=quantile(ms, 0.50),
            p90_ms=quantile(ms, 0.90),
        )
        raw_ms = [s * 1000.0 for s, _ in run.latency]
        run.diag.update(
            host_factor=factor,
            probes=len(meter.kernels),
            p99_ms=quantile(ms, 0.99),
            raw_setup_s=statistics.median(c.raw_s for c in run.setups),
            raw_loops_per_s=sum(c.work for c in run.work) / sum(c.raw_s for c in run.work),
            raw_p50_ms=quantile(raw_ms, 0.50),
            raw_p90_ms=quantile(raw_ms, 0.90),
            raw_p99_ms=quantile(raw_ms, 0.99),
        )
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "mismatches": run.mismatches,
        "answers": run.answers,
        "values": values,
        "diag": run.diag,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
