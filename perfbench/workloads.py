"""The four workloads, each on a real user path of the ``repro`` pipeline.

Each workload function takes a :class:`Run` and fills in its operation
counts, its known answers (each compared with the golden value in
``spec.json`` as it is reported), its timed samples (set-ups, work chunks,
latencies, each with its host factor) and diagnostics; the worker turns
the samples into end-to-end metrics.  Set-up runs several times
(once when traced) with a fresh cache directory each time; the timed
phase runs whole units of work until ``seconds`` have passed, with the
reference kernel probed all along.

A traced run does one traced set-up, the untraced timed phase and one
traced unit of the same work; the drop in throughput between the two is
the tracing overhead.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import layers
from measure import Chunk, HostMeter, quantile
from tracer import Span, Tracer, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.5
SETUP_MAX_REPEATS = 30


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.spec = spec
        self.cfg = spec["workloads"][workload]
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.meter = HostMeter(spec["kernel_nominal_s"])
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.golden: Dict[str, Any] = self.cfg.get("golden", {})
        self.answers: Dict[str, Any] = {}
        self.mismatches: List[str] = []
        self.values: Dict[str, float] = {}
        self.diag: Dict[str, object] = {}
        self.setups: List[Chunk] = []       # one per set-up
        self.work: List[Chunk] = []         # the timed phase, for loops_per_s
        self.latency: List[Tuple[float, float]] = []  # (raw s, host factor)
        self.tracer: Optional[Tracer] = None
        self.spans: List[Span] = []
        self.windows: List[Tuple[float, float]] = []
        self.plain_chunks: List[Chunk] = []
        self.trace_path = WORK / f"trace-{workload}-{seed}.json"

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def known(self, key: str, value: Any) -> None:
        """Report a known answer: kept for ``record.py``, and a mismatch
        with the golden value fails the run."""
        self.answers[key] = value
        golden = self.golden.get(key)
        if value != golden:
            self.mismatches.append(
                f"{key}: got {str(value)[:80]}, golden {str(golden)[:80]}")

    # -- set-up ---------------------------------------------------------------

    def setup(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` as the workload's set-up: once when traced, else at
        least ``SETUP_REPEATS`` times and until ``SETUP_BUDGET_S`` is spent."""
        box = {}

        def once():
            box["result"] = fn()

        while not self.setups or not self.trace and (
                len(self.setups) < SETUP_REPEATS
                or sum(c.raw_s for c in self.setups) < SETUP_BUDGET_S
                and len(self.setups) < SETUP_MAX_REPEATS):
            with fresh_cache(), self.sampling():
                self.setups.append(self.meter.chunk(once))
        return box["result"]

    def sampling(self):
        """Host probes for the block, unless it is traced (probes would
        land inside spans)."""
        return self.meter.sampling() if self.tracer is None else nullcontext()

    # -- tracing --------------------------------------------------------------

    @contextmanager
    def traced(self):
        """Wrappers installed and recording for the enclosed block."""
        if not self.trace:
            yield
            return
        if self.tracer is None:
            self.tracer = Tracer(f"{self.workload}-{self.seed}")
        inst = install(self.tracer, layers.install_declarations())
        try:
            yield
        finally:
            inst.uninstall()

    def timed_units(self, unit: Callable[[], List[Chunk]],
                    sampling: bool = True) -> List[Chunk]:
        """The timed phase: units until ``seconds`` pass, probed all along
        unless ``sampling`` is off (then each chunk probes after itself).
        A traced run takes that phase untraced, with at least 4 chunks for
        the normaliser evidence, as its baseline, then one more unit
        traced."""
        chunks: List[Chunk] = []
        start = self.meter.clock()
        with self.meter.sampling() if sampling else nullcontext():
            while (len(chunks) < (4 if self.trace else 1)
                   or self.meter.clock() - start < self.seconds):
                chunks.extend(unit())
                # the high-water mark of set-up and one unit: later units
                # may add to it, and how many run depends on host speed
                self.values.setdefault("peak_rss_mb", peak_rss_mb())
        if not self.trace:
            return chunks
        self.plain_chunks = chunks
        with self.traced():
            traced = unit()
        self.windows = [(c.start, c.end) for c in traced]
        return traced

    def finish_trace(self) -> None:
        if self.tracer is not None:
            self.tracer.write_chrome(str(self.trace_path))
            self.spans = self.tracer.spans


@contextmanager
def fresh_cache():
    """A private, empty ``REPRO_CACHE_DIR`` for the enclosed block."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = tempfile.mkdtemp(prefix="cache-", dir=WORK)
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = path
    try:
        yield path
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
        shutil.rmtree(path, ignore_errors=True)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# assemble-cold: the cold `repro dataset` path
# ---------------------------------------------------------------------------


def assemble_cold(run: Run) -> None:
    """Whole cold assemblies.  The set-up is each assembly's own serial
    stage (apps, inst2vec, task construction) as ``AssemblyStats`` times it:
    a cold ``repro dataset`` has no set-up before its first call."""
    from repro.dataset import assemble  # called through the module: the
    from repro.dataset.assemble import DatasetConfig  # traced run wraps it

    apps = tuple(run.cfg["apps"])
    seeds = run.cfg["dataset_seeds"]
    dataset_seed = seeds[run.seed % len(seeds)]
    run.golden = run.cfg.get("golden", {}).get(str(dataset_seed), {})

    def unit() -> List[Chunk]:
        config = DatasetConfig.fast(seed=dataset_seed)
        config.apps = apps
        box = {}

        def work():
            box["data"] = data = assemble.assemble_dataset(config)
            return len(data.benchmark) + len(data.generated)

        with fresh_cache():
            chunk = run.meter.chunk(work)
        data = box["data"]
        stats = data.stats
        run.setups.append(Chunk(0.0, stats.setup_seconds, chunk.factor,
                                chunk.start, chunk.start + stats.setup_seconds))
        run.attempted += stats.n_tasks
        run.failed += sum(
            1 for d in stats.drops if not d.reason.startswith("lint:")
        )
        run.check(not stats.cache_hit and stats.shard_hits == 0,
                  "assembly was not cold (dataset or shard cache hit)")
        run.check(stats.crossval.get("contradictions", -1) == 0,
                  f"crossval contradictions: {stats.crossval}")
        for split in ("benchmark", "generated", "train", "test"):
            run.known(split, getattr(data, split).fingerprint())
        return [chunk]

    run.work = run.timed_units(unit)
    run.finish_trace()
    run.latency = [(c.raw_s, c.factor) for c in run.work]
    run.diag.update(assemblies=len(run.work), dataset_seed=dataset_seed)


# ---------------------------------------------------------------------------
# advise: the `repro advise --no-model` path over all 14 apps
# ---------------------------------------------------------------------------

CHUNK_TARGET_S = 0.5


def advise(run: Run) -> None:
    from repro import advisor  # called through the module: the traced run wraps it
    from repro.benchsuite import app_names, build_app

    def setup():
        specs = [build_app(name) for name in app_names()]
        run.check(advisor.self_check().passed, "advisor self_check failed")
        return specs

    with run.traced():
        specs = run.setup(setup)
    programs = [(spec.name, program) for spec in specs for program in spec.programs]
    order = np.random.default_rng(run.seed).permutation(len(programs))
    per_program: List[Tuple[float, int]] = []   # (raw s, index of its chunk)

    def unit() -> List[Chunk]:
        counts: Dict[str, List[int]] = {}
        chunks: List[Chunk] = []
        queue = [programs[int(i)] for i in order]

        def work():
            loops = 0
            start = run.meter.clock()
            while queue and run.meter.clock() - start < CHUNK_TARGET_S:
                app, program = queue.pop(0)
                t0 = run.meter.clock()
                plans = advisor.advise_program(program, None)
                per_program.append((run.meter.clock() - t0, len(run.meter.chunks)))
                row = counts.setdefault(app, [0, 0, 0, 0])
                row[0] += len(plans)
                for plan in plans.values():
                    row[1] += plan.advised
                    row[2] += plan.validation.status == "validated"
                    row[3] += plan.validation.status == "refuted"
                loops += len(plans)
                run.attempted += 1
            return loops

        while queue:
            chunks.append(run.meter.chunk(work))
        run.known("counts", counts)
        return chunks

    run.work = run.timed_units(unit)
    run.finish_trace()
    chunks = run.meter.chunks
    run.latency = [(raw_s, chunks[i].factor) for raw_s, i in per_program]
    total = [sum(r[k] for r in run.answers["counts"].values()) for k in range(4)]
    run.diag.update(passes=len(per_program) // len(programs),
                    loops_advised_validated_refuted=total)


# ---------------------------------------------------------------------------
# train: the `repro train` path on a fixed draw of programs
# ---------------------------------------------------------------------------


def train(run: Run) -> None:
    from repro.benchsuite import app_names, build_app
    from repro.dataset.types import LoopDataset
    from repro.embeddings.anonwalk import AnonymousWalkSpace
    from repro.embeddings.inst2vec import Inst2Vec
    from repro.ir.lowering import lower_program
    from repro.ir.verify import verify_program
    from repro.models.dgcnn import DGCNNConfig
    from repro.models.mvgnn import MVGNNConfig
    from repro.runtime import FeatureCache
    from repro import train as repro_train  # train_model is wrapped when traced
    from repro.train import MVGNNAdapter, TrainConfig
    from repro.train.data import cached_samples_for_programs

    draw = run.cfg["draw"]
    pool = [(spec, program) for spec in map(build_app, app_names())
            for program in spec.programs]
    picks = np.random.default_rng(draw["rng"]).choice(
        len(pool), size=draw["programs"], replace=False)
    chosen = []
    for spec, program in (pool[int(i)] for i in sorted(picks)):
        labels = {
            lid: loop.label for lid, loop in spec.loops.items()
            if loop.program_name == program.name
        }
        chosen.append((program, labels))
    epochs = run.cfg["epochs"]
    batch_size = run.cfg["batch_size"]

    def setup():
        irs = []
        for program, _ in chosen:
            ir = lower_program(program)
            verify_program(ir)
            irs.append(ir)
        inst2vec = Inst2Vec(dim=48).train(irs, epochs=2, rng=0)
        walk_space = AnonymousWalkSpace(4)
        samples, hits, _ = cached_samples_for_programs(
            chosen, inst2vec, walk_space, FeatureCache(),
            suite="mixed", app="train-draw", gamma=20, walk_seed=0,
        )
        run.check(hits == 0, f"train set-up was not cold ({hits} cache hits)")
        return samples, walk_space

    with run.traced():
        samples, walk_space = run.setup(setup)
    run.known("fingerprint", LoopDataset(samples).fingerprint())
    labels = np.array([s.label for s in samples])
    prior = max(labels.mean(), 1.0 - labels.mean())
    semantic_dim = samples[0].x_semantic.shape[1]
    model_config = MVGNNConfig(
        semantic_features=semantic_dim,
        walk_types=walk_space.num_types,
        node_view=DGCNNConfig(in_features=semantic_dim, sortpool_k=8, dropout=0.3),
        struct_view=DGCNNConfig(in_features=200, sortpool_k=8, dropout=0.3),
    )
    steps_per_epoch = math.ceil(len(samples) / batch_size)
    accuracies: List[float] = []

    def unit() -> List[Chunk]:
        adapter = MVGNNAdapter(model_config, rng=run.seed)
        box = {}

        def work():
            box["curves"] = repro_train.train_model(
                adapter, LoopDataset(samples, name="train-draw"),
                TrainConfig(epochs=epochs, lr=2e-3, batch_size=batch_size,
                            sortpool_k=8, seed=run.seed),
            )
            return len(samples) * epochs

        chunk = run.meter.chunk(work)
        run.attempted += steps_per_epoch * epochs
        finite = all(math.isfinite(v) for v in box["curves"].loss)
        run.failed += 0 if finite else steps_per_epoch * epochs
        run.check(finite, "non-finite training loss")
        accuracy = float((adapter.predict(samples) == labels).mean())
        accuracies.append(accuracy)
        run.check(accuracy > prior,
                  f"train accuracy {accuracy:.3f} <= majority prior {prior:.3f}")
        return [chunk]

    run.work = run.timed_units(unit)
    run.finish_trace()
    run.latency = [(c.raw_s, c.factor) for c in run.work]
    run.diag.update(train_runs=len(run.work),
                    samples=len(samples), prior=prior,
                    accuracy=statistics.fmean(accuracies))


# ---------------------------------------------------------------------------
# serve: the service `repro serve --app BT` builds, driven in process
# ---------------------------------------------------------------------------


def _histograms(text: str) -> Dict[str, Dict[str, float]]:
    """Prometheus histogram buckets ``{name: {le: cumulative}}`` + sums."""
    out: Dict[str, Dict[str, float]] = {}
    for line in text.splitlines():
        if line.startswith("#") or "_bucket{" not in line and "_sum " not in line \
                and "_count " not in line:
            continue
        key, value = line.rsplit(" ", 1)
        if "_bucket{" in key:
            name, le = key.split("_bucket{le=\"")
            out.setdefault(name, {})[le.rstrip("\"}")] = float(value)
        else:
            name, kind = key.rsplit("_", 1)
            out.setdefault(name, {})[kind] = float(value)
    return out


def _hist_quantile(before: Dict[str, float], after: Dict[str, float], q: float) -> float:
    """Quantile of the observations between two scrapes (bucket-linear)."""
    bounds = sorted(
        (float(le), after[le] - before.get(le, 0.0))
        for le in after if le not in ("sum", "count", "+Inf")
    )
    total = after.get("count", 0.0) - before.get("count", 0.0)
    if total <= 0:
        return 0.0
    rank, prev_bound, prev_cum = q * total, 0.0, 0.0
    for bound, cum in bounds:
        if cum >= rank and cum > prev_cum:
            return prev_bound + (bound - prev_bound) * (rank - prev_cum) / (cum - prev_cum)
        prev_bound, prev_cum = bound, cum
    return prev_bound


def _hist_mean(before: Dict[str, float], after: Dict[str, float]) -> float:
    count = after.get("count", 0.0) - before.get("count", 0.0)
    return (after.get("sum", 0.0) - before.get("sum", 0.0)) / count if count else 0.0


SERVE_WINDOW_S = 0.25
SERVE_UNIT_WINDOWS = 8
SERVE_CLIENTS = 2


def serve(run: Run) -> None:
    """The ``InferenceService`` that ``repro serve --app BT`` builds, with
    its default config but a zero batching window, driven without sockets:
    each request is a JSON body that goes through ``wire.parse_json`` and
    ``InferenceService.classify`` (wire decode, the GR lint gate, the
    micro-batcher queue, tape forward at batch 1-2), as the HTTP front end
    routes it.  Two closed-loop clients on one event loop; requests are
    drawn seeded from the example pool.  The default 5 ms window would
    make every request sleep out the window (a timer, not work the host
    speed scales), so it is set to 0."""
    import asyncio

    from repro import cli
    from repro.benchsuite import build_app
    from repro.errors import ReproError
    from repro.serve import InferenceService, ServeConfig, wire

    args = cli.build_parser().parse_args(["serve", "--app", run.cfg["app"]])

    def setup():
        spec = build_app(args.app)
        engine, samples = cli._build_app_engine(
            spec, batch_size=args.max_batch_size, epochs=args.epochs,
            seed=args.seed, compile=not args.no_compile, precision=args.precision,
        )
        plans = cli._build_advisor_plan_index(spec, samples, engine)
        return engine, samples, plans

    with run.traced():
        engine, samples, plans = run.setup(setup)
    config = ServeConfig(
        max_batch_size=args.max_batch_size, max_wait_ms=0.0,
        max_queue_depth=args.queue_depth, default_deadline_ms=args.deadline_ms,
        default_precision=args.precision,
        downgrade_queue_depth=args.downgrade_queue_depth,
    )
    service = InferenceService(engine, config, examples=samples, advisor_plans=plans)
    pool: List[Tuple[str, bytes]] = []
    for _ in samples:
        payload = service.example_payload()
        pool.append((payload["id"], json.dumps(payload).encode()))
    rngs = [np.random.default_rng([run.seed, k]) for k in range(SERVE_CLIENTS)]
    labels: Dict[str, int] = {}

    async def request(body: bytes) -> int:
        return (await service.classify(wire.parse_json(body)))["label"]

    async def warm() -> None:
        for graph_id, body in pool:
            labels[graph_id] = await request(body)

    async def client(k: int, deadline: float, latencies: List[float]) -> None:
        while time.perf_counter() < deadline:
            graph_id, body = pool[int(rngs[k].integers(len(pool)))]
            run.attempted += 1
            start = time.perf_counter()
            try:
                label = await request(body)
            except ReproError as exc:
                run.failed += 1
                run.check(False, f"classify {graph_id}: {exc}")
                continue
            latencies.append(time.perf_counter() - start)
            if label != labels[graph_id]:
                run.failed += 1
                run.check(False, f"label {label} for {graph_id} != {labels[graph_id]}")

    async def window(latencies: List[float]) -> int:
        deadline = time.perf_counter() + SERVE_WINDOW_S
        await asyncio.gather(*(client(k, deadline, latencies)
                               for k in range(SERVE_CLIENTS)))
        return len(latencies)

    unit_latency: List[Tuple[float, float]] = []
    scrapes: List[Dict[str, Dict[str, float]]] = []

    def unit() -> List[Chunk]:
        scrapes[:] = [_histograms(service.metrics_text())]
        unit_latency.clear()
        chunks = []
        for _ in range(SERVE_UNIT_WINDOWS):
            latencies: List[float] = []
            chunk = run.meter.chunk(lambda: loop.run_until_complete(window(latencies)))
            unit_latency.extend((s, chunk.factor) for s in latencies)
            chunks.append(chunk)
        run.latency.extend(unit_latency)
        return chunks

    loop = asyncio.new_event_loop()
    loop.run_until_complete(service.start())
    try:
        loop.run_until_complete(warm())
        run.known("labels", dict(sorted(labels.items())))
        # probes between windows only: one inside would stall the event loop
        run.work = run.timed_units(unit, sampling=False)
        scrapes.append(_histograms(service.metrics_text()))
    finally:
        loop.run_until_complete(service.stop())
        loop.close()
    run.finish_trace()
    run.diag.update(pool=len(pool), requests=run.attempted)
    if not run.trace:
        return
    factor = run.meter.factor
    before, after = scrapes
    for name, metric in (("serve_queue_wait_seconds", "serve.queue_wait_p50_ms"),
                         ("serve_inference_seconds", "serve.inference_p50_ms"),
                         ("serve_request_seconds", "serve.request_p50_ms")):
        run.values[metric] = run.meter.norm(
            _hist_quantile(before[name], after[name], 0.5), factor) * 1000.0
    run.values["serve.batch_size_mean"] = _hist_mean(
        before["serve_batch_size"], after["serve_batch_size"])
    # client latency minus the server's own request time (submit to label)
    client_p50 = quantile([run.meter.norm(s, f) for s, f in unit_latency], 0.5)
    server_p50 = quantile([s.duration for s in run.spans if s.name == "serve.batcher"], 0.5)
    run.values["serve.wire_p50_ms"] = (
        client_p50 - run.meter.norm(server_p50, factor)) * 1000.0


WORKLOADS = {
    "assemble-cold": assemble_cold,
    "advise": advise,
    "train": train,
    "serve": serve,
}
