"""CI smoke for the serving stack: real process, real sockets, real signal.

Launches ``repro serve`` as a subprocess on an OS-picked port, waits for
/healthz, fetches a valid request shape from /v1/example, fires concurrent
``POST /v1/classify`` clients from OS threads, scrapes /metrics, and
asserts a healthy steady state:

* every request answered 200 with an integer label,
* ``serve_requests_total == serve_responses_total`` (nothing lost),
* zero load-shedding (``serve_shed_*_total == 0``),

then SIGTERMs the server and requires a clean exit with status 130.
``--workers N`` (N > 1) runs the same checks against a worker-pool server
(``repro serve --workers N``), whose /healthz must also report N workers.

Usage: ``python benchmarks/serve_smoke.py [--clients N] [--requests M]
[--workers N]``
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STARTUP_TIMEOUT_S = 120


def _start_server(workers):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--app", "fib",
         "--epochs", "0", "--port", "0", "--max-wait-ms", "2",
         "--deadline-ms", "30000", "--workers", str(workers)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited during startup (rc={process.wait()})"
            )
        print(f"  server: {line.rstrip()}")
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            return process, int(match.group(1))
    process.kill()
    raise SystemExit("server never announced its port")


def _get(port, path, timeout=30):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as resp:
        return resp.status, resp.read()


def _classify(port, payload, timeout=60):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/classify",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _metric(text, name):
    for line in text.splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    raise SystemExit(f"metric {name!r} missing from /metrics")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=5,
                        help="classify calls per client thread")
    parser.add_argument("--workers", type=int, default=1,
                        help="engine worker processes (1 = in process)")
    args = parser.parse_args(argv)
    total = args.clients * args.requests

    print("starting repro serve ...")
    process, port = _start_server(args.workers)
    try:
        status, raw = _get(port, "/healthz")
        health = json.loads(raw)
        assert status == 200 and health["status"] == "ok"
        if args.workers > 1:
            assert health["fleet_size"] == args.workers, health
        print(f"healthz ok on port {port}")

        # one example payload per client so requests differ
        examples = []
        for _ in range(args.clients):
            status, raw = _get(port, "/v1/example")
            assert status == 200
            examples.append(json.loads(raw))

        failures = []

        def client(pos):
            try:
                for _ in range(args.requests):
                    status, result = _classify(port, examples[pos])
                    if status != 200 or not isinstance(result["label"], int):
                        failures.append((pos, status, result))
            except Exception as exc:  # noqa: BLE001 - smoke must report all
                failures.append((pos, "exception", repr(exc)))

        threads = [
            threading.Thread(target=client, args=(pos,))
            for pos in range(args.clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if failures:
            raise SystemExit(f"client failures: {failures[:5]}")
        print(f"{total} concurrent classifies ok "
              f"({total / elapsed:.0f} req/sec across {args.clients} clients)")

        status, raw = _get(port, "/metrics")
        assert status == 200
        text = raw.decode()
        requests_total = _metric(text, "serve_requests_total")
        responses_total = _metric(text, "serve_responses_total")
        shed_queue = _metric(text, "serve_shed_queue_full_total")
        shed_deadline = _metric(text, "serve_shed_deadline_total")
        errors_total = _metric(text, "serve_errors_total")
        assert requests_total == responses_total == float(total), (
            f"lost requests: {requests_total} in, {responses_total} out, "
            f"{total} sent"
        )
        assert shed_queue == shed_deadline == errors_total == 0.0, (
            f"drops in smoke run: queue_full={shed_queue} "
            f"deadline={shed_deadline} errors={errors_total}"
        )
        mean_batch = (
            _metric(text, "serve_batch_size_sum")
            / _metric(text, "serve_batch_size_count")
        )
        print(f"metrics ok: {total:.0f} in == {total:.0f} out, zero drops, "
              f"mean batch size {mean_batch:.1f}")

        print("sending SIGTERM ...")
        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=30)
        tail = process.stdout.read()
        assert returncode == 130, f"expected exit 130, got {returncode}"
        assert "shut down cleanly" in tail, f"unclean shutdown: {tail!r}"
        print("server exited 130 with a clean shutdown message")
        print("serve smoke: PASS")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


if __name__ == "__main__":
    raise SystemExit(main())
