"""Repository benchmark: user-path workloads of the ``repro`` pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``assemble-cold``, ``advise``, ``train`` and ``serve`` (see
``perfbench/spec.json`` for why each exists and which layers it stresses).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  Timed metrics are read at nominal host speed: each timed
sample is divided by the host speed factor the reference kernel measured
around it (see ``measure.py``).  A failed known-answer check exits 1 with
no result line; a missing ``src/repro`` exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = ("assemble-cold", "advise", "train", "serve")
CHILD_TIMEOUT_S = 170
HASH_SEED = "0"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = HASH_SEED
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_VERIFY_PASSES", None)
    return env


def run_worker(args, out: Path) -> int:
    cmd = [
        sys.executable, str(HERE / "worker.py"), args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(out),
    ]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=str(ROOT), start_new_session=True)
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload exceeded {CHILD_TIMEOUT_S}s", file=sys.stderr)
        for sig, grace in ((signal.SIGTERM, 15), (signal.SIGKILL, None)):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                proc.wait(timeout=grace)
                break
            except subprocess.TimeoutExpired:
                continue
        proc.wait()
        return 124
    finally:
        if proc.poll() is None:  # interrupted: take the whole group down
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: src/repro not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"result-{os.getpid()}.json"
    try:
        code = run_worker(args, out)
        if code != 0 or not out.is_file():
            print(f"error: workload {args.workload} failed (exit {code})", file=sys.stderr)
            return 1
        result = json.loads(out.read_text())
    finally:
        if out.exists():
            out.unlink()

    errors = result["errors"] + result["mismatches"]
    metrics = {}
    for metric in wanted:
        value = result["values"].get(metric["name"])
        bad = value is None or not math.isfinite(value)
        if not args.trace:
            bad = bad or value <= 0
        if bad:
            errors.append(f"metric {metric['name']} missing or invalid: {value}")
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    if errors:
        for line in errors[:20]:
            print(f"check failed: {line}", file=sys.stderr)
        return 1
    print("diagnostics: " + json.dumps(result["diag"], sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
