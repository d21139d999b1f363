"""Write the benchmark's known answers and kernel nominal into spec.json.

Usage (from the repository root)::

    python3 perfbench/record.py [kernel] [assemble-cold] [advise] [train] [serve]

With no arguments every part is recorded.  A workload part runs the
workload itself (``worker.py``, one short run per seed whose answers
differ) and stores the known answers it reports, so the answers are
derived in one place only.  Run it only on a commit whose outputs are
trusted: later commits are checked against what it writes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import CHILD_TIMEOUT_S, HERE, ROOT, WORK, child_env

SPEC = HERE / "spec.json"


def record_kernel(spec) -> None:
    from kernel import kernel_sample

    samples = [kernel_sample() for _ in range(100)]
    spec["kernel_nominal_s"] = statistics.median(samples)
    print(f"kernel nominal {spec['kernel_nominal_s'] * 1000:.3f} ms")


def answers(workload: str, seed: int) -> dict:
    """The known answers one short untraced run of ``workload`` reports."""
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"record-{workload}-{seed}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--out", str(out)]
    subprocess.run(cmd, env=child_env(), cwd=str(ROOT), check=True,
                   timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
    try:
        result = json.loads(out.read_text())
    finally:
        out.unlink()
    if result["errors"]:
        raise SystemExit(f"{workload} seed {seed}: {result['errors'][:3]}")
    return result["answers"]


def record_workload(spec, workload: str) -> None:
    cfg = spec["workloads"][workload]
    if workload == "assemble-cold":
        # the run seed picks the dataset seed: seed k runs dataset_seeds[k]
        cfg["golden"] = {
            str(dataset_seed): answers(workload, k)
            for k, dataset_seed in enumerate(cfg["dataset_seeds"])
        }
    else:
        cfg["golden"] = answers(workload, 0)
    print(f"{workload}: recorded {sorted(cfg['golden'])}")


def main(argv) -> int:
    parts = argv or ["kernel", *json.loads(SPEC.read_text())["workloads"]]
    for part in parts:
        spec = json.loads(SPEC.read_text())
        if part == "kernel":
            record_kernel(spec)
        else:
            record_workload(spec, part)
        SPEC.write_text(json.dumps(spec, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
