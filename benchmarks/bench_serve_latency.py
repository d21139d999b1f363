"""Serving latency/throughput: micro-batched vs batch-size-1 serving.

Drives the transport-independent service core (``repro.serve.MicroBatcher``
over a real ``Engine``) with two load shapes:

* **closed loop** — C concurrent clients, each submitting its next request
  as soon as the previous one resolves.  Run once with the production
  micro-batching configuration and once with ``max_batch_size=1`` (every
  request is its own forward pass) at the same concurrency; the ratio is
  the payoff of coalescing, asserted >= 2x in the full benchmark.
* **open loop** — requests arrive on a fixed interval regardless of
  completions, each carrying a deadline.  Because the batcher never serves
  late (late results are shed), the served-request p99 must stay under the
  deadline — asserted with slack for scheduler jitter.

Every closed-loop label is also checked against a direct
``Engine.predict_many`` call over the same inputs: serving must not change
predictions.

**Fleet mode** (``--fleet``) drives :class:`repro.serve.InferenceService`
instead, at ``fleet_workers`` 1, 2 and 4, over a content-diverse pool
(every item hashes to its own shard key).  The 1-worker row is the
in-process backend; the 2- and 4-worker rows run the supervisor +
sharded worker-process pool, so "vs 1w" reads as pool vs no pool.  Each
row's closed loop sends ``FLEET_REQUESTS`` requests (cycling over the
pool), enough for at least 1 s of wall time per row on a 2-core host.
Labels are again pinned to a direct ``Engine.predict_many``, the
open-loop served p99 must stay under the deadline, and with >= 4 cores
the 4-worker throughput must be near-linear over the in-process row
(gated off on smaller hosts and in ``--quick`` mode, where the table
still prints).

Runs two ways:

* ``pytest benchmarks/bench_serve_latency.py --benchmark-only`` — the full
  measurement with the >= 2x throughput floor (plus the fleet scaling
  assertion when the host has the cores for it).
* ``python benchmarks/bench_serve_latency.py --quick [--fleet]`` — small
  CI mode: verifies the differential and deadline properties, prints the
  speedup without gating on it (shared runners are too noisy to assert
  timing).
"""

import argparse
import asyncio
import os
import sys
import time
from collections import deque

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.dataset.extraction import extract_loop_samples  # noqa: E402
from repro.embeddings.anonwalk import AnonymousWalkSpace  # noqa: E402
from repro.embeddings.inst2vec import Inst2Vec  # noqa: E402
from repro.errors import DeadlineExceededError  # noqa: E402
from repro.models.dgcnn import DGCNNConfig  # noqa: E402
from repro.models.mvgnn import MVGNN, MVGNNConfig  # noqa: E402
from repro.runtime import Engine  # noqa: E402
from repro.runtime.engine import GraphInput  # noqa: E402
from repro.serve import InferenceService, MicroBatcher, ServeConfig  # noqa: E402

from tests.helpers import build_mixed_program, lower_and_verify  # noqa: E402

SPEEDUP_FLOOR = 2.0
CONCURRENCY = 32
DEADLINE_MS = 1000.0
#: served p99 may exceed the deadline only by scheduler jitter, not by
#: the batcher serving late (which it never does)
DEADLINE_SLACK = 1.25
FLEET_WORKER_COUNTS = (1, 2, 4)
#: closed-loop requests per fleet row (full mode): >= 1 s of wall time on
#: every row of a 2-core host, so no row is a warm-up-sized blip
FLEET_REQUESTS = 12288
#: 4 workers vs the in-process backend: near-linear minus supervisor/IPC
#: overhead; only asserted when the host actually has >= 4 cores
FLEET_SCALING_FLOOR = 2.4


def _pool_and_engine(pool_size):
    program = build_mixed_program()
    inst2vec = Inst2Vec(dim=25).train(
        [lower_and_verify(program)], epochs=1, rng=0
    )
    space = AnonymousWalkSpace(4)
    samples = extract_loop_samples(
        program, None, inst2vec, space,
        suite="bench", app="mixed", gamma=20, rng=0,
    )
    pool = [samples[i % len(samples)] for i in range(pool_size)]
    dim = samples[0].x_semantic.shape[1]
    config = MVGNNConfig(
        semantic_features=dim,
        walk_types=space.num_types,
        node_view=DGCNNConfig(in_features=dim, sortpool_k=8),
        struct_view=DGCNNConfig(in_features=200, sortpool_k=8),
    )
    model = MVGNN(config, rng=0)
    model.eval()
    return pool, Engine(model)


def _predict_fn(engine):
    return lambda items: [
        int(label)
        for label in engine.predict_many(items, batch_size=len(items))
    ]


async def _closed_loop(engine, config, items, concurrency):
    """C clients, next request on completion -> (elapsed_s, labels, pcts)."""
    batcher = MicroBatcher(_predict_fn(engine), config)
    await batcher.start()
    work = deque(enumerate(items))
    labels = [None] * len(items)

    async def client():
        while True:
            try:
                pos, item = work.popleft()
            except IndexError:
                return
            labels[pos] = await batcher.submit(item, deadline_ms=None)

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(concurrency)))
    elapsed = time.perf_counter() - started
    percentiles = batcher.metrics.e2e.percentiles()
    await batcher.stop()
    return elapsed, labels, percentiles


async def _open_loop(engine, config, items, interval_s, deadline_ms):
    """Fixed-rate arrivals -> (served, shed, served-p99 seconds)."""
    batcher = MicroBatcher(_predict_fn(engine), config)
    await batcher.start()
    tasks = []
    for item in items:
        tasks.append(asyncio.ensure_future(
            batcher.submit(item, deadline_ms=deadline_ms)
        ))
        await asyncio.sleep(interval_s)
    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    served = shed = 0
    for outcome in outcomes:
        if isinstance(outcome, DeadlineExceededError):
            shed += 1
        elif isinstance(outcome, BaseException):
            raise outcome
        else:
            served += 1
    # only successfully served requests observe the e2e histogram, so
    # this p99 is exactly the "served latency" the deadline bounds
    p99 = batcher.metrics.e2e.percentiles()["p99"]
    await batcher.stop()
    return served, shed, p99


def measure(quick=False, concurrency=CONCURRENCY):
    pool_size = 64 if quick else 256
    pool, engine = _pool_and_engine(pool_size)
    direct = [int(x) for x in engine.predict_many(pool)]

    batched_cfg = ServeConfig(
        max_batch_size=32, max_wait_ms=2.0, max_queue_depth=4096,
        default_deadline_ms=None,
    )
    unbatched_cfg = ServeConfig(
        max_batch_size=1, max_wait_ms=0.0, max_queue_depth=4096,
        default_deadline_ms=None,
    )

    # warm numpy/BLAS paths so neither arm pays first-call costs
    engine.predict_many(pool[:8])

    t_batched, labels_batched, p_batched = asyncio.run(
        _closed_loop(engine, batched_cfg, pool, concurrency)
    )
    t_unbatched, labels_unbatched, p_unbatched = asyncio.run(
        _closed_loop(engine, unbatched_cfg, pool, concurrency)
    )
    assert labels_batched == direct, "micro-batched serving changed labels"
    assert labels_unbatched == direct, "batch-1 serving changed labels"
    speedup = t_unbatched / t_batched

    # open loop at ~60% of measured micro-batched capacity
    interval_s = max(1e-4, 0.6 * t_batched / len(pool))
    open_items = pool if quick else pool[:128]
    served, shed, p99 = asyncio.run(
        _open_loop(engine, batched_cfg, open_items, interval_s, DEADLINE_MS)
    )
    return {
        "requests": len(pool),
        "t_batched": t_batched,
        "t_unbatched": t_unbatched,
        "speedup": speedup,
        "p_batched": p_batched,
        "p_unbatched": p_unbatched,
        "open_served": served,
        "open_shed": shed,
        "open_p99_s": p99,
    }


def _report(result, emit, concurrency=CONCURRENCY):
    requests = result["requests"]
    emit(f"{'serving mode':<18}{'wall s':>8}{'req/sec':>9}"
         f"{'p50 ms':>8}{'p99 ms':>8}{'speedup':>9}")
    for name, t_key, p_key in (
        ("batch-size-1", "t_unbatched", "p_unbatched"),
        ("micro-batched", "t_batched", "p_batched"),
    ):
        wall = result[t_key]
        pcts = result[p_key]
        speedup = result["t_unbatched"] / wall
        emit(f"{name:<18}{wall:>8.2f}{requests / wall:>9.0f}"
             f"{pcts['p50'] * 1000:>8.1f}{pcts['p99'] * 1000:>8.1f}"
             f"{speedup:>8.1f}x")
    emit(f"closed loop: {concurrency} clients, {requests} requests, "
         f"labels identical to direct Engine.predict_many")
    emit(f"open loop: {result['open_served']} served / "
         f"{result['open_shed']} shed, served p99 "
         f"{result['open_p99_s'] * 1000:.1f}ms "
         f"(deadline {DEADLINE_MS:.0f}ms)")


def _check_deadline(result):
    assert result["open_p99_s"] <= DEADLINE_MS / 1000.0 * DEADLINE_SLACK, (
        f"served p99 {result['open_p99_s'] * 1000:.1f}ms exceeds the "
        f"{DEADLINE_MS:.0f}ms deadline (+{DEADLINE_SLACK:.0%} slack)"
    )
    assert result["open_served"] > 0, "open loop served nothing"


# -- fleet mode --------------------------------------------------------------


def _fleet_pool(pool, engine):
    """A content-diverse GraphInput pool from the sample pool.

    The sample pool repeats a handful of unique loops, which would hash to
    a handful of shard keys and starve most workers.  Jittering the
    semantic features makes every item its own shard key; the differential
    check still holds exactly because it compares against the direct
    engine on the *same* jittered inputs.
    """
    rng = np.random.default_rng(7)
    diverse = []
    for pos, sample in enumerate(pool):
        diverse.append(GraphInput(
            x_semantic=sample.x_semantic + rng.normal(
                scale=1e-6, size=sample.x_semantic.shape
            ),
            x_structural=sample.x_structural,
            adjacency=sample.adjacency,
            graph_id=f"fleet{pos}",
        ))
    return diverse


async def _fleet_closed_loop(service, items, concurrency):
    """C clients against InferenceService.submit_graph -> (elapsed_s, labels)."""
    work = deque(enumerate(items))
    labels = [None] * len(items)

    async def client():
        while True:
            try:
                pos, item = work.popleft()
            except IndexError:
                return
            labels[pos] = await service.submit_graph(item, deadline_ms=None)

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(concurrency)))
    return time.perf_counter() - started, labels


async def _fleet_open_loop(service, items, interval_s, deadline_ms):
    """Fixed-rate arrivals -> (served, shed, served-p99 seconds)."""
    tasks = []
    for item in items:
        tasks.append(asyncio.ensure_future(
            service.submit_graph(item, deadline_ms=deadline_ms)
        ))
        await asyncio.sleep(interval_s)
    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    served = shed = 0
    for outcome in outcomes:
        if isinstance(outcome, DeadlineExceededError):
            shed += 1
        elif isinstance(outcome, BaseException):
            raise outcome
        else:
            served += 1
    return served, shed, service.metrics.e2e.percentiles()["p99"]


async def _fleet_pass(engine, n_workers, items, concurrency, open_items,
                      deadline_ms):
    config = ServeConfig(
        max_batch_size=32, max_wait_ms=2.0, max_queue_depth=4096,
        default_deadline_ms=None, fleet_workers=n_workers,
    )
    service = InferenceService(engine, config)
    await service.start()
    try:
        elapsed, labels = await _fleet_closed_loop(
            service, items, concurrency
        )
        # open loop at ~60% of this fleet's measured closed-loop capacity
        interval_s = max(1e-4, 0.6 * elapsed / len(items))
        served, shed, p99 = await _fleet_open_loop(
            service, open_items, interval_s, deadline_ms
        )
        if service.fleet_metrics is None:  # in process: one slot
            shards_hit = 1
        else:
            shards_hit = sum(
                1 for shard in range(n_workers)
                if service.fleet_metrics.shard_requests(shard).value > 0
            )
    finally:
        await service.stop()
    return {
        "workers": n_workers,
        "elapsed": elapsed,
        "labels": labels,
        "open_served": served,
        "open_shed": shed,
        "open_p99_s": p99,
        "shards_hit": shards_hit,
    }


def measure_fleet(quick=False, concurrency=CONCURRENCY,
                  worker_counts=FLEET_WORKER_COUNTS):
    pool_size = 64 if quick else 192
    pool, engine = _pool_and_engine(pool_size)
    items = _fleet_pool(pool, engine)
    direct = [int(x) for x in engine.predict_many(items)]
    n_requests = len(items) if quick else FLEET_REQUESTS
    requests = [items[pos % len(items)] for pos in range(n_requests)]
    expected = [direct[pos % len(items)] for pos in range(n_requests)]
    open_items = items if quick else items[:128]

    passes = []
    for n_workers in worker_counts:
        result = asyncio.run(_fleet_pass(
            engine, n_workers, requests, concurrency, open_items, DEADLINE_MS
        ))
        assert result["labels"] == expected, (
            f"fleet serving with {n_workers} worker(s) changed labels"
        )
        del result["labels"]
        passes.append(result)
    base = passes[0]["elapsed"]
    for result in passes:
        result["speedup"] = base / result["elapsed"]
    return {"requests": n_requests, "distinct": len(items), "passes": passes}


def _report_fleet(result, emit, concurrency=CONCURRENCY):
    requests = result["requests"]
    emit(f"{'fleet workers':<16}{'wall s':>8}{'req/sec':>9}"
         f"{'vs 1w':>7}{'shards hit':>12}{'open p99 ms':>13}{'shed':>6}")
    for row in result["passes"]:
        emit(f"{row['workers']:<16}{row['elapsed']:>8.2f}"
             f"{requests / row['elapsed']:>9.0f}"
             f"{row['speedup']:>6.1f}x"
             f"{row['shards_hit']:>12}"
             f"{row['open_p99_s'] * 1000:>13.1f}{row['open_shed']:>6}")
    emit(f"closed loop: {concurrency} clients, {requests} requests over "
         f"{result['distinct']} content-distinct graphs, labels identical to "
         f"direct Engine.predict_many; 1 worker = in-process backend")
    emit(f"open loop deadline {DEADLINE_MS:.0f}ms; host cores: "
         f"{os.cpu_count()}")


def _check_fleet(result, gate_scaling):
    for row in result["passes"]:
        assert row["open_served"] > 0, (
            f"{row['workers']}-worker open loop served nothing"
        )
        assert row["open_p99_s"] <= DEADLINE_MS / 1000.0 * DEADLINE_SLACK, (
            f"{row['workers']}-worker served p99 "
            f"{row['open_p99_s'] * 1000:.1f}ms exceeds the "
            f"{DEADLINE_MS:.0f}ms deadline (+{DEADLINE_SLACK:.0%} slack)"
        )
        assert row["shards_hit"] == row["workers"], (
            f"content routing starved shards: only {row['shards_hit']} of "
            f"{row['workers']} saw traffic"
        )
    if gate_scaling:
        top = result["passes"][-1]
        assert top["speedup"] >= FLEET_SCALING_FLOOR, (
            f"expected >={FLEET_SCALING_FLOOR}x from {top['workers']} "
            f"workers vs 1, got {top['speedup']:.2f}x"
        )


def _scaling_gate(quick):
    """Assert near-linear scaling only where it is physically possible."""
    cores = os.cpu_count() or 1
    return not quick and cores >= max(FLEET_WORKER_COUNTS)


def test_serve_latency(benchmark):
    from benchmarks.common import banner, emit

    result = measure()
    banner(f"Serving throughput: micro-batched vs batch-size-1 "
           f"({CONCURRENCY} closed-loop clients)")
    _report(result, emit)
    _check_deadline(result)

    # time one representative micro-batched closed-loop pass
    pool, engine = _pool_and_engine(64)
    config = ServeConfig(
        max_batch_size=32, max_wait_ms=2.0, max_queue_depth=4096,
        default_deadline_ms=None,
    )
    benchmark(
        lambda: asyncio.run(_closed_loop(engine, config, pool, 16))
    )

    assert result["speedup"] >= SPEEDUP_FLOOR, (
        f"expected >={SPEEDUP_FLOOR}x throughput from micro-batching at "
        f"concurrency {CONCURRENCY}, got {result['speedup']:.2f}x"
    )


def test_fleet_scaling(benchmark):
    from benchmarks.common import banner, emit

    result = measure_fleet()
    banner(f"Serving fleet: worker scaling over content-hash shards "
           f"({CONCURRENCY} closed-loop clients)")
    _report_fleet(result, emit)
    _check_fleet(result, gate_scaling=_scaling_gate(quick=False))

    pool, engine = _pool_and_engine(64)
    items = _fleet_pool(pool, engine)
    benchmark(
        lambda: asyncio.run(_fleet_pass(
            engine, 2, items, 16, items[:32], DEADLINE_MS
        ))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small CI mode: verify differential + deadline properties, "
             "print the speedup, no timing assertion",
    )
    parser.add_argument(
        "--fleet", action="store_true",
        help="benchmark InferenceService at fleet_workers 1/2/4 (1 = "
             "in process, >1 = worker pool) instead of the bare batcher",
    )
    parser.add_argument("--concurrency", type=int, default=CONCURRENCY)
    args = parser.parse_args(argv)

    if args.fleet:
        result = measure_fleet(quick=args.quick, concurrency=args.concurrency)
        _report_fleet(result, print, concurrency=args.concurrency)
        gate = _scaling_gate(args.quick)
        _check_fleet(result, gate_scaling=gate)
        if not gate:
            cores = os.cpu_count() or 1
            why = "quick mode" if args.quick else f"only {cores} core(s)"
            print(f"scaling floor not gated ({why}); "
                  f"4-worker speedup {result['passes'][-1]['speedup']:.2f}x")
        return 0

    result = measure(quick=args.quick, concurrency=args.concurrency)
    _report(result, print, concurrency=args.concurrency)
    _check_deadline(result)
    if args.quick:
        print(f"quick mode: labels identical; speedup "
              f"{result['speedup']:.2f}x (not gated)")
        return 0
    return 0 if result["speedup"] >= SPEEDUP_FLOOR else 1


if __name__ == "__main__":
    raise SystemExit(main())
