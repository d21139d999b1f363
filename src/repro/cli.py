"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``table2``
    Print Table II (loop counts per application) from the composed suite.
``classify --app NAME``
    Profile one benchmark application and print per-loop oracle verdicts,
    pattern classes, and tool votes.  With ``--batch`` an MV-GNN trained on
    the app's own loops classifies every sub-PEG through the batched
    inference runtime (:mod:`repro.runtime`) and a throughput/cache summary
    is appended.
``train --app NAME``
    Train an MV-GNN on an application's labeled loops (each minibatch one
    packed forward/backward through a recorded tape) and print the training
    curves plus epoch throughput.  Feature
    extraction goes through the runtime ``FeatureCache``, so a second run
    over the same app skips extraction entirely; ``--workers N`` fans the
    per-program extraction across processes.
``dataset [--workers N]``
    Assemble the full classification dataset (Section IV-A/IV-B) through
    the parallel fault-tolerant executor and print the assembly statistics:
    per-suite loop counts, drop reasons, retries, cache/shard hits, and the
    split summaries.  ``--tiny``/``--full`` select the configuration scale.
``serve [run] [--app NAME] [--port P] [--workers N]``
    Start the async micro-batching inference service (:mod:`repro.serve`):
    an MV-GNN trained on the app's labeled loops behind an HTTP API
    (``POST /v1/classify``, ``GET /metrics``, ...).  With ``--workers N``
    (N > 1) the service runs as a multi-process fleet — a supervisor
    pre-forks N engine workers, routes requests by content hash, respawns
    dead workers, and supports rolling restart / hot weight reload (see
    docs/OPERATIONS.md).  Runs until SIGINT or SIGTERM, then shuts down
    cleanly with exit code 130.  See docs/SERVING.md.
``serve reload [--host H] [--port P] [--checkpoint F]``
    Ask a running fleet server to hot-reload its model weights
    (``POST /admin/reload``), blue-green with zero dropped requests;
    ``--checkpoint`` names an npz from :func:`repro.nn.serialize.save_params`
    to load first.
``lint [--tiny|--fast|--full] [--strict] [--quick] [--json]``
    Run the :mod:`repro.lint` static consistency analyzer over the selected
    dataset configuration: IR rules on every program variant, PEG rules on
    the built graphs, dataset rules (duplicates, balance, structural
    validity) and the DS005 label cross-validation against the static
    dependence prover.  Exit code 0 = clean, 1 = findings at failing
    severity, 2 = the analyzer itself failed.  See docs/LINT.md.
``suggest --app NAME [--program N]``
    Print one program of an application as annotated C-like source with
    OpenMP pragma suggestions.
``patterns --app NAME``
    Summarize the parallel-pattern distribution of an application.
``advise [--app NAME | --tiny]``
    Run the execution-validated parallelization advisor
    (:mod:`repro.advisor`): fuse MV-GNN verdicts with the static prover
    and the dynamic oracle into per-loop advice plans, transform each
    advised loop into explicit thread chunks, and prove or refute the
    plan under simulated adversarial interleavings.  Prints a
    Table-IV-style per-app summary (advised / validated / refuted) plus
    the known-answer self-check (a planted race the scheduler must
    refute).  Exit 1 when the self-check fails.  See docs/ADVISOR.md.

Long-running commands (``serve``, ``train``, ``dataset``) map SIGTERM and
Ctrl-C to a clean shutdown with exit code 130 instead of a traceback.

Each command imports the layers it runs inside its handler, so ``--help``,
an argument error or a one-shot command loads only what it uses.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from collections import Counter
from typing import List, Optional

from repro.benchsuite.registry import app_names
from repro.errors import ReproError


def _cmd_table2(_args) -> int:
    from repro.experiments.table2 import format_table2, table2_dataset_statistics

    print(format_table2(table2_dataset_statistics()))
    return 0


def _build_app_engine(
    spec, batch_size: int, epochs: int, seed: int = 0, compile: bool = True,
    precision: str = "exact", calibration=None,
):
    """(engine, loop samples) for one application via the batched runtime.

    Extracts the app's loop samples once and optionally trains a small
    MV-GNN on them (the labels are the app's authored annotations).  Shared
    by ``classify --batch`` (one-shot predictions), ``serve`` (the
    long-lived service's model + example pool), and ``calibrate`` (the
    int8 scale recording pass).  ``precision``/``calibration`` configure
    the engine's default execution tier (see docs/RUNTIME.md).
    """
    from repro.dataset.extraction import extract_loop_samples
    from repro.dataset.types import LoopDataset
    from repro.embeddings.anonwalk import AnonymousWalkSpace
    from repro.embeddings.inst2vec import Inst2Vec
    from repro.ir.lowering import lower_program
    from repro.ir.verify import verify_program
    from repro.models.dgcnn import DGCNNConfig
    from repro.models.mvgnn import MVGNNConfig
    from repro.runtime import Engine
    from repro.train.adapters import MVGNNAdapter
    from repro.train.config import TrainConfig
    from repro.train.trainer import train_model

    irs = []
    for program in spec.programs:
        ir = lower_program(program)
        verify_program(ir)
        irs.append(ir)
    inst2vec = Inst2Vec(dim=48).train(irs, epochs=2, rng=seed)
    walk_space = AnonymousWalkSpace(4)

    samples = []
    for program, ir in zip(spec.programs, irs):
        labels = {
            loop_id: loop.label
            for loop_id, loop in spec.loops.items()
            if loop.program_name == program.name
        }
        samples.extend(
            extract_loop_samples(
                program, labels, inst2vec, walk_space,
                suite=spec.suite, app=spec.name, gamma=20,
                ir_program=ir, rng=seed,
            )
        )

    semantic_dim = samples[0].x_semantic.shape[1]
    config = MVGNNConfig(
        semantic_features=semantic_dim,
        walk_types=walk_space.num_types,
        node_view=DGCNNConfig(in_features=semantic_dim, sortpool_k=8, dropout=0.3),
        struct_view=DGCNNConfig(in_features=200, sortpool_k=8, dropout=0.3),
    )
    adapter = MVGNNAdapter(config, rng=seed)
    if epochs > 0:
        train_model(
            adapter,
            LoopDataset(samples, name=spec.name),
            TrainConfig(epochs=epochs, lr=2e-3, batch_size=16,
                        sortpool_k=8, seed=seed),
        )
    engine = Engine(
        adapter.model, batch_size=batch_size, compile=compile,
        precision=precision, calibration=calibration,
    )
    return engine, samples


def _batched_gnn_predictions(
    spec, batch_size: int, epochs: int, seed: int = 0, compile: bool = True,
    precision: str = "exact",
):
    """(loop_id -> MV-GNN label, engine) via the batched runtime."""
    engine, samples = _build_app_engine(
        spec, batch_size, epochs, seed, compile=compile, precision=precision
    )
    if precision == "fast" and engine.compile:
        # record per-layer scales from the app's own loops so the fast
        # tier runs calibrated rather than on dynamic per-call scales
        engine.calibrate(samples)
    predicted = engine.predict_many(samples)
    return (
        {s.loop_id: int(p) for s, p in zip(samples, predicted)},
        engine,
    )


def _install_sigterm_handler() -> None:
    """Map SIGTERM to KeyboardInterrupt so ``main`` exits 130 cleanly.

    Long-running commands (train, dataset) call this; ``serve`` installs
    its own asyncio signal handlers instead.  No-op off the main thread
    (signal handlers may only be set there).
    """
    if threading.current_thread() is not threading.main_thread():
        return

    def _raise(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _raise)
    except (OSError, ValueError):  # pragma: no cover - exotic platforms
        pass


def _cmd_serve_reload(args) -> int:
    """``repro serve reload``: POST /admin/reload on a running fleet."""
    import json as _json
    import urllib.error
    import urllib.request

    url = f"http://{args.host}:{args.port}/admin/reload"
    body = b""
    if args.checkpoint:
        body = _json.dumps({"checkpoint": args.checkpoint}).encode()
    request = urllib.request.Request(
        url, data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120.0) as response:
            result = _json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode(errors="replace")
        print(f"error: {url} -> {exc.code}: {detail}", file=sys.stderr)
        return 2
    except (urllib.error.URLError, OSError) as exc:
        print(f"error: cannot reach {url}: {exc}", file=sys.stderr)
        return 2
    swapped = result.get("swapped", result.get("workers", "?"))
    source = args.checkpoint if args.checkpoint else "current master weights"
    print(f"reloaded {swapped} worker(s) from {source}")
    return 0


def _build_advisor_plan_index(spec, samples, engine):
    """Wire-form advice plans for a served app, keyed by loop AND sample id.

    ``/v1/advise`` looks plans up by the request's graph id; clients send
    either a loop id (CLI-shaped requests) or a sample id (payloads from
    ``GET /v1/example``), so the index carries both keys.  Validation runs
    at T=2 with the default adversarial seeds — the cheap configuration;
    operators wanting the full sweep run ``repro advise`` offline.
    """
    from repro.advisor import advise_app

    verdicts = {
        s.loop_id: int(p) for s, p in zip(samples, engine.predict_many(samples))
    }
    advice = advise_app(spec, verdicts, threads=(2,))
    index = {lid: plan.to_wire() for lid, plan in advice.plans.items()}
    for sample in samples:
        plan = advice.plans.get(sample.loop_id)
        if plan is not None:
            index[sample.sample_id] = plan.to_wire()
    return index


def _cmd_serve(args) -> int:
    import asyncio

    from repro.benchsuite import build_app
    from repro.serve import InferenceService, ServeConfig, serve_forever

    if args.action == "reload":
        return _cmd_serve_reload(args)

    spec = build_app(args.app)
    print(f"building engine for {args.app} ({spec.suite}): "
          f"{spec.loop_count} loops, {args.epochs} training epochs")
    calibration = None
    if args.calibration:
        from repro.nn.serialize import load_calibration

        calibration = load_calibration(args.calibration)
        if calibration is None:
            print(f"warning: {args.calibration} carries no calibration "
                  "arrays; fast tier will use dynamic scales", file=sys.stderr)
        else:
            print(f"calibration: {calibration.summary()} "
                  f"(from {args.calibration})")
    engine, samples = _build_app_engine(
        spec, batch_size=args.max_batch_size, epochs=args.epochs,
        seed=args.seed, compile=not args.no_compile,
        precision=args.precision, calibration=calibration,
    )
    config = ServeConfig(
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        max_queue_depth=args.queue_depth,
        default_deadline_ms=args.deadline_ms if args.deadline_ms > 0 else None,
        host=args.host,
        port=args.port,
        fleet_workers=args.workers,
        default_precision=args.precision,
        downgrade_queue_depth=args.downgrade_queue_depth,
    )
    advisor_plans = None
    if not args.no_advisor:
        advisor_plans = _build_advisor_plan_index(spec, samples, engine)
        validated = sum(
            1 for p in advisor_plans.values()
            if p.get("validation", {}).get("status") == "validated"
        )
        print(f"advisor: {len(advisor_plans)} plan index entries, "
              f"{validated} execution-validated (POST /v1/advise)", flush=True)
    service = InferenceService(
        engine, config, examples=samples, advisor_plans=advisor_plans
    )
    if service.supervisor is not None:
        print(f"fleet: {args.workers} engine worker processes, "
              f"content-hash shard routing, "
              f"retries={config.worker_retries}", flush=True)
    print(f"micro-batcher: max_batch_size={config.max_batch_size}, "
          f"max_wait_ms={config.max_wait_ms}, "
          f"queue_depth={config.max_queue_depth}, "
          f"deadline_ms={config.default_deadline_ms}", flush=True)
    downgrade = config.effective_downgrade_depth
    print(f"precision: default={config.default_precision}, "
          f"downgrade-before-shed at queue depth "
          f"{downgrade if downgrade is not None else 'off'}", flush=True)
    return asyncio.run(serve_forever(service, config))


def _cmd_calibrate(args) -> int:
    """``repro calibrate``: record int8 scales and save them with weights."""
    _install_sigterm_handler()
    from repro.benchsuite import build_app
    from repro.nn.serialize import save_params

    spec = build_app(args.app)
    print(f"building engine for {args.app} ({spec.suite}): "
          f"{spec.loop_count} loops, {args.epochs} training epochs")
    engine, samples = _build_app_engine(
        spec, batch_size=args.batch_size, epochs=args.epochs, seed=args.seed,
    )
    # held-out shard: the tail fraction never influences the scales the
    # bulk was trained on; tiny apps fall back to the whole pool
    split = int(len(samples) * (1.0 - args.holdout))
    holdout = samples[split:] or samples
    print(f"calibrating on {len(holdout)} held-out sample(s) "
          f"(of {len(samples)})")
    calibration = engine.calibrate(holdout, batch_size=args.batch_size)
    print(f"recorded: {calibration.summary()}")
    save_params(engine.model, args.output, calibration=calibration)
    print(f"saved weights + calibration to {args.output}")
    return 0


def _cmd_train(args) -> int:
    _install_sigterm_handler()
    from repro.benchsuite import build_app
    from repro.dataset.types import LoopDataset
    from repro.embeddings.anonwalk import AnonymousWalkSpace
    from repro.embeddings.inst2vec import Inst2Vec
    from repro.ir.lowering import lower_program
    from repro.ir.verify import verify_program
    from repro.models.dgcnn import DGCNNConfig
    from repro.models.mvgnn import MVGNNConfig
    from repro.runtime import FeatureCache
    from repro.train import (
        MVGNNAdapter,
        TrainConfig,
        cached_loop_samples,
        train_model,
    )

    from repro.train.data import cached_samples_for_programs

    spec = build_app(args.app)
    irs = []
    for program in spec.programs:
        ir = lower_program(program)
        verify_program(ir)
        irs.append(ir)
    inst2vec = Inst2Vec(dim=48).train(irs, epochs=2, rng=args.seed)
    walk_space = AnonymousWalkSpace(4)
    cache = FeatureCache()

    items = []
    for program in spec.programs:
        labels = {
            loop_id: loop.label
            for loop_id, loop in spec.loops.items()
            if loop.program_name == program.name
        }
        items.append((program, labels))
    samples, hits, misses = cached_samples_for_programs(
        items, inst2vec, walk_space, cache,
        suite=spec.suite, app=spec.name, gamma=20,
        walk_seed=args.seed, n_workers=args.workers,
    )
    workers_note = f", {args.workers} workers" if args.workers > 1 else ""
    print(f"{args.app} ({spec.suite}): {len(samples)} loop samples, "
          f"feature cache {hits} hits / {misses} misses{workers_note}")

    semantic_dim = samples[0].x_semantic.shape[1]
    config = MVGNNConfig(
        semantic_features=semantic_dim,
        walk_types=walk_space.num_types,
        node_view=DGCNNConfig(in_features=semantic_dim, sortpool_k=8, dropout=0.3),
        struct_view=DGCNNConfig(in_features=200, sortpool_k=8, dropout=0.3),
    )
    adapter = MVGNNAdapter(config, rng=args.seed)
    train_config = TrainConfig(
        epochs=args.epochs, lr=args.lr, batch_size=args.batch_size,
        sortpool_k=8, seed=args.seed,
    )
    print(f"training MV-GNN: {train_config.epochs} epochs, "
          f"batch_size={train_config.batch_size}, path=batched (tape)")
    curves = train_model(
        adapter, LoopDataset(samples, name=spec.name), train_config,
        verbose=True,
    )
    print()
    print(f"wall time: {curves.wall_seconds:.2f}s "
          f"({train_config.epochs / curves.wall_seconds:.2f} epochs/sec)")
    print(f"best epoch: {curves.best_epoch}  "
          f"final loss: {curves.loss[-1]:.4f}  "
          f"final train accuracy: {curves.train_accuracy[-1]:.3f}")
    return 0


def _cmd_dataset(args) -> int:
    _install_sigterm_handler()
    from repro.dataset.assemble import DatasetConfig, assemble_dataset

    if args.full:
        config = DatasetConfig(seed=args.seed)
        scale = "full (paper)"
    elif args.tiny:
        config = DatasetConfig.tiny(seed=args.seed)
        scale = "tiny"
    else:
        config = DatasetConfig.fast(seed=args.seed)
        scale = "fast"
    config.n_workers = args.workers
    config.use_cache = not args.no_cache
    if args.timeout is not None:
        config.task_timeout_s = args.timeout if args.timeout > 0 else None
    config.max_retries = args.retries

    print(f"assembling {scale} dataset "
          f"(seed {config.seed}, {config.n_workers} worker(s), "
          f"cache {'on' if config.use_cache else 'off'})")
    data = assemble_dataset(config)
    if data.stats is not None:
        print(data.stats.summary())
    for split in (data.benchmark, data.generated, data.train, data.test):
        print(split.summary())
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.shared_analysis import analysis_scope

    with analysis_scope():  # IR rules, quarantine and DS005 share one analysis
        return _lint(args)


def _lint(args) -> int:
    _install_sigterm_handler()
    from repro.dataset.assemble import (
        DatasetConfig,
        assemble_dataset,
        programs_for_config,
    )
    from repro.dataset.types import LoopDataset
    from repro.errors import ReproError as _ReproError
    from repro.ir.lowering import lower_program
    from repro.ir.passes.pipeline import apply_pipeline
    from repro.ir.verify import verify_program
    from repro.lint import (
        LintConfig,
        LintReport,
        lint_dataset,
        lint_ir,
        lint_peg,
        lint_program,
        lint_quantized_consistency,
        lint_tape_consistency,
        program_analysis,
        render_json,
        render_text,
    )
    from repro.lint.dataset_rules import untransformed_variants
    from repro.peg.builder import build_peg
    from repro.peg.subgraph import all_loop_subpegs
    from repro.profiler import profile_program

    if args.full:
        config = DatasetConfig(seed=args.seed)
        scale = "full (paper)"
    elif args.tiny:
        config = DatasetConfig.tiny(seed=args.seed)
        scale = "tiny"
    else:
        config = DatasetConfig.fast(seed=args.seed)
        scale = "fast"
    config.use_cache = not args.no_cache
    config.n_workers = args.workers

    suppress = tuple(
        s for chunk in (args.suppress or []) for s in chunk.split(",") if s
    )
    lint_cfg = LintConfig(
        suppress=suppress, strict=args.strict, quick=args.quick
    )
    report = LintReport(lint_cfg)

    def note(msg: str) -> None:
        if not args.json:
            print(msg, flush=True)

    note(f"linting {scale} dataset configuration (seed {config.seed}, "
         f"{'quick' if args.quick else 'deep'} mode)")

    # -- IR + AST rules over every program variant the config builds ------
    programs = programs_for_config(config)
    plain = untransformed_variants()
    for name in sorted(programs):
        program = programs[name]
        report.extend(lint_program(program, lint_cfg))
        analysis = program_analysis(program)
        if analysis.ir is None:
            continue  # assembly drops unlowerable variants; not lint's call
        report.extend(lint_ir(analysis.ir, lint_cfg, ranges=analysis.ranges))
        if args.quick or "+" in name:
            continue  # deep mode: pipeline variants of base programs only
        for pipeline_name in config.pipelines:
            try:
                variant = apply_pipeline(analysis.ir, pipeline_name)
            except _ReproError:
                continue
            # a zero-pass pipeline is a plain copy: its ranges are the
            # shared analysis's
            ranges = analysis.ranges if pipeline_name in plain else None
            report.extend(lint_ir(variant, lint_cfg, ranges=ranges))
    note(f"  ir: {len(programs)} program(s) checked")

    # -- PEG rules over built graphs (deep mode: needs profiling) ----------
    if not args.quick:
        base = [n for n in sorted(programs) if "+" not in n]
        n_pegs = 0
        for name in base:
            try:
                ir = lower_program(programs[name])
                verify_program(ir)
                peg = build_peg(ir, profile_program(ir))
            except _ReproError:
                continue
            report.extend(lint_peg(peg, lint_cfg, full_graph=True))
            for sub in all_loop_subpegs(peg).values():
                report.extend(lint_peg(sub, lint_cfg, full_graph=False))
            n_pegs += 1
        note(f"  peg: {n_pegs} graph(s) + sub-PEGs checked")

    # -- dataset rules + DS005 label cross-validation ----------------------
    data = assemble_dataset(config)
    pool = LoopDataset(
        list(data.benchmark) + list(data.generated), name="pool"
    )
    report.extend(lint_dataset(pool, lint_cfg, programs=programs))
    crossval = report.stats.get("crossval", {})
    note(f"  dataset: {len(pool)} sample(s); label crossval judged "
         f"{crossval.get('judged', 0)} "
         f"({crossval.get('contradictions', 0)} contradiction(s))")

    # -- GR005: tape-compiled vs interpreted forward over real samples ----
    # cheap enough to run under --quick; compares the serving fleet's
    # compiled path against the reference interpreter on this dataset
    report.extend(lint_tape_consistency(pool, lint_cfg))
    tape_stats = report.stats.get("tape_consistency", {})
    note(f"  tape: compiled forward matched against interpreted on "
         f"{tape_stats.get('graphs', 0)} sample(s)")

    # -- GR006: quantized (fast-tier) vs float forward over real samples --
    report.extend(lint_quantized_consistency(pool, lint_cfg))
    quant_stats = report.stats.get("quantized_consistency", {})
    note(f"  quantize: fast-tier forward matched against float on "
         f"{quant_stats.get('graphs', 0)} sample(s) "
         f"({quant_stats.get('verdict_flips', 0)} verdict flip(s))")

    if args.json:
        print(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code()


def _cmd_classify(args) -> int:
    from repro.analysis.oracle import classify_all_loops
    from repro.analysis.patterns import classify_all_patterns
    from repro.benchsuite import build_app
    from repro.ir.lowering import lower_program
    from repro.ir.verify import verify_program
    from repro.profiler import profile_program
    from repro.tools import AutoParLite, DiscoPoPClassifier, PlutoLite

    spec = build_app(args.app)
    print(f"{args.app} ({spec.suite}): {spec.loop_count} loops, "
          f"{len(spec.programs)} programs")
    gnn_votes = None
    engine = None
    if args.batch:
        gnn_votes, engine = _batched_gnn_predictions(
            spec, batch_size=args.batch_size, epochs=args.epochs,
            compile=not args.no_compile, precision=args.precision,
        )
    header = (
        f"{'loop':<22}{'label':>6}{'oracle':>8}{'pattern':>12}"
        f"{'Pluto':>7}{'AutoPar':>9}{'DiscoPoP':>10}"
    )
    if gnn_votes is not None:
        header += f"{'MV-GNN':>8}"
    print(header)
    tools = (PlutoLite(), AutoParLite(), DiscoPoPClassifier())
    for program in spec.programs:
        ir = lower_program(program)
        verify_program(ir)
        report = profile_program(ir)
        oracle = classify_all_loops(ir, report)
        patterns = classify_all_patterns(program, ir, report)
        votes = {t.name: t.predict(program, ir, report) for t in tools}
        for loop_id, loop in spec.loops.items():
            if loop.program_name != program.name:
                continue
            short = "/".join(loop_id.split(":")[::2])
            row = (
                f"{short:<22}"
                f"{'P' if loop.label else '-':>6}"
                f"{'P' if oracle[loop_id].parallel else '-':>8}"
                f"{patterns[loop_id].pattern.value:>12}"
                f"{'P' if votes['Pluto'].get(loop_id) else '-':>7}"
                f"{'P' if votes['AutoPar'].get(loop_id) else '-':>9}"
                f"{'P' if votes['DiscoPoP'].get(loop_id) else '-':>10}"
            )
            if gnn_votes is not None:
                row += f"{'P' if gnn_votes.get(loop_id) else '-':>8}"
            print(row)
    if engine is not None:
        print()
        print(f"runtime: {engine.stats.summary()}")
    return 0


def _cmd_suggest(args) -> int:
    from repro.analysis.suggestions import render_report, suggest_parallelization
    from repro.benchsuite import build_app
    from repro.ir.lowering import lower_program
    from repro.ir.source_printer import program_to_source
    from repro.ir.verify import verify_program
    from repro.profiler import profile_program

    spec = build_app(args.app)
    if not 0 <= args.program < len(spec.programs):
        print(
            f"error: {args.app} has programs 0..{len(spec.programs) - 1}",
            file=sys.stderr,
        )
        return 2
    program = spec.programs[args.program]
    ir = lower_program(program)
    verify_program(ir)
    report = profile_program(ir)
    suggestions = suggest_parallelization(program, ir, report)
    print(render_report(suggestions))
    print()
    annotations = {lid: s.pragma for lid, s in suggestions.items() if s.pragma}
    print(program_to_source(program, annotations))
    return 0


def _cmd_patterns(args) -> int:
    from repro.analysis.patterns import classify_all_patterns
    from repro.benchsuite import build_app
    from repro.ir.lowering import lower_program
    from repro.profiler import profile_program

    spec = build_app(args.app)
    counts: Counter = Counter()
    for program in spec.programs:
        ir = lower_program(program)
        report = profile_program(ir)
        for result in classify_all_patterns(program, ir, report).values():
            counts[result.pattern.value] += 1
    print(f"{args.app}: parallel-pattern distribution over "
          f"{sum(counts.values())} loops")
    for pattern, count in counts.most_common():
        print(f"  {pattern:<12} {count:>4}")
    return 0


#: the tiny (CI/smoke) advisor roster, mirroring DatasetConfig.tiny
_ADVISE_TINY_APPS = ("EP", "IS", "fib", "nqueens")


def _parse_int_list(text: str, flag: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ReproError(f"{flag} expects comma-separated integers: {text!r}")
    if not values:
        raise ReproError(f"{flag} must name at least one value")
    return values


def _cmd_advise(args) -> int:
    import json as json_mod

    from repro.advisor import advise_app, render_table, self_check
    from repro.benchsuite import build_app

    threads = _parse_int_list(args.threads, "--threads")
    seeds = _parse_int_list(args.seeds, "--seeds")
    apps = list(_ADVISE_TINY_APPS) if args.tiny else [args.app]

    advices = []
    for name in apps:
        spec = build_app(name)
        verdicts = None
        if not args.no_model:
            verdicts, _ = _batched_gnn_predictions(
                spec, args.batch_size, args.epochs, seed=args.seed,
                compile=not args.no_compile,
            )
        advices.append(advise_app(
            spec, verdicts,
            threads=threads, seeds=seeds, max_ulp=args.max_ulp,
        ))

    check = self_check(threads=threads, seeds=seeds, max_ulp=args.max_ulp)

    if args.json:
        payload = {
            "apps": {
                a.app: {lid: p.to_wire() for lid, p in a.plans.items()}
                for a in advices
            },
            "self_check": {
                "passed": check.passed,
                "reduction_validated": check.reduction_validated,
                "privatization_validated": check.privatization_validated,
                "racy_refuted": check.racy_refuted,
                "details": list(check.details),
            },
        }
        print(json_mod.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_table(advices))
        print()
        print("self-check:", "PASS" if check.passed else "FAIL")
        for line in check.details:
            print(f"  {line}")
    return 0 if check.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MV-GNN parallelism-discovery reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table2", help="print Table II").set_defaults(
        fn=_cmd_table2
    )

    classify = sub.add_parser(
        "classify", help="per-loop verdicts for one application"
    )
    classify.add_argument("--app", required=True, choices=app_names())
    classify.add_argument(
        "--batch",
        action="store_true",
        help="add an MV-GNN column via the batched inference runtime",
    )
    classify.add_argument(
        "--batch-size", type=int, default=32,
        help="graphs packed per forward pass (with --batch)",
    )
    classify.add_argument(
        "--epochs", type=int, default=8,
        help="MV-GNN training epochs on the app's own labels "
             "(0 = untrained demo; with --batch)",
    )
    classify.add_argument(
        "--no-compile", action="store_true",
        help="disable the trace-compiled forward; use the layer-by-layer "
             "interpreted path (with --batch)",
    )
    classify.add_argument(
        "--precision", choices=["exact", "fast"], default="exact",
        help="execution tier for the MV-GNN column (with --batch): exact = "
             "float64 tape, fast = calibrated int8-grid float32 tape",
    )
    classify.set_defaults(fn=_cmd_classify)

    train = sub.add_parser(
        "train", help="train an MV-GNN on one application's labeled loops"
    )
    train.add_argument("--app", required=True, choices=app_names())
    train.add_argument(
        "--epochs", type=int, default=10, help="training epochs"
    )
    train.add_argument(
        "--batch-size", type=int, default=32,
        help="samples packed per forward/backward pass",
    )
    train.add_argument("--lr", type=float, default=2e-3)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--workers", type=int, default=1,
        help="processes for per-program feature extraction (1 = in-process)",
    )
    train.set_defaults(fn=_cmd_train)

    dataset = sub.add_parser(
        "dataset",
        help="assemble the classification dataset and print assembly stats",
    )
    scale = dataset.add_mutually_exclusive_group()
    scale.add_argument(
        "--full", action="store_true",
        help="paper-fidelity configuration (hours on CPU; default: fast)",
    )
    scale.add_argument(
        "--tiny", action="store_true",
        help="four small apps, seconds to assemble (CI/smoke scale)",
    )
    dataset.add_argument(
        "--workers", type=int, default=1,
        help="extraction worker processes (1 = serial reference path)",
    )
    dataset.add_argument("--seed", type=int, default=7)
    dataset.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk dataset/shard cache",
    )
    dataset.add_argument(
        "--timeout", type=float, default=None,
        help="per-task timeout in seconds (0 = no timeout; default 300)",
    )
    dataset.add_argument(
        "--retries", type=int, default=1,
        help="retries per failed extraction task before dropping it",
    )
    dataset.set_defaults(fn=_cmd_dataset)

    lint = sub.add_parser(
        "lint",
        help="run the static consistency analyzer (see docs/LINT.md)",
    )
    lint_scale = lint.add_mutually_exclusive_group()
    lint_scale.add_argument(
        "--full", action="store_true",
        help="lint the paper-fidelity configuration (slow; default: fast)",
    )
    lint_scale.add_argument(
        "--tiny", action="store_true",
        help="lint the tiny (CI/smoke) configuration",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="WARNING findings also fail (exit 1)",
    )
    lint.add_argument(
        "--quick", action="store_true",
        help="skip profiling-backed PEG checks and per-variant IR lint "
             "(the CI budget mode)",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable JSON report instead of text",
    )
    lint.add_argument(
        "--suppress", action="append", metavar="RULES", default=[],
        help="comma-separated rule IDs or layer prefixes to suppress "
             "(e.g. DS003 or PEG); repeatable",
    )
    lint.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk dataset/shard cache",
    )
    lint.add_argument(
        "--workers", type=int, default=1,
        help="extraction worker processes if assembly has to run",
    )
    lint.add_argument("--seed", type=int, default=7)
    lint.set_defaults(fn=_cmd_lint)

    serve = sub.add_parser(
        "serve",
        help="start the async micro-batching inference service "
             "(see docs/SERVING.md; fleet operations in docs/OPERATIONS.md)",
    )
    serve.add_argument(
        "action", nargs="?", default="run", choices=["run", "reload"],
        help="run = start a server (default); reload = ask a running fleet "
             "to hot-reload its weights via POST /admin/reload",
    )
    serve.add_argument(
        "--app", default="fib", choices=app_names(),
        help="application whose loops train/feed the served model",
    )
    serve.add_argument(
        "--epochs", type=int, default=0,
        help="MV-GNN training epochs on the app's labels before serving "
             "(0 = untrained demo weights)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8100,
        help="bind port (0 = let the OS pick; the chosen port is printed)",
    )
    serve.add_argument(
        "--max-batch-size", type=int, default=32,
        help="graphs coalesced per engine dispatch",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=5.0,
        help="batching window anchored to the oldest queued request",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=256,
        help="admission-control bound; beyond it requests get 429",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=1000.0,
        help="default per-request deadline (0 = no deadline)",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="engine worker processes: 1 = in-process single engine, "
             ">1 = multi-process fleet with content-hash shard routing",
    )
    serve.add_argument(
        "--checkpoint", default=None, metavar="NPZ",
        help="with the reload action: npz weight file "
             "(repro.nn.serialize.save_params) to load before the rolling "
             "swap",
    )
    serve.add_argument(
        "--no-compile", action="store_true",
        help="serve with the interpreted forward instead of the "
             "trace-compiled tape (workers then skip tape warm-up)",
    )
    serve.add_argument(
        "--precision", choices=["exact", "fast"], default="exact",
        help="default execution tier for unpinned requests; clients "
             "override per request with ?precision=exact|fast",
    )
    serve.add_argument(
        "--downgrade-queue-depth", type=int, default=None, metavar="N",
        help="degrade-before-shed threshold: unpinned requests arriving "
             "past this queue depth are served at the fast tier "
             "(default: queue-depth/2; 0 disables downgrading)",
    )
    serve.add_argument(
        "--no-advisor", action="store_true",
        help="skip building the advice-plan index at startup; "
             "POST /v1/advise then answers 409",
    )
    serve.add_argument(
        "--calibration", default=None, metavar="NPZ",
        help="checkpoint from `repro calibrate` whose int8 scales the fast "
             "tier uses (must match the served architecture); without it "
             "fast tapes use dynamic per-call scales",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(fn=_cmd_serve)

    calibrate = sub.add_parser(
        "calibrate",
        help="record per-layer int8 scales from a held-out shard and save "
             "them alongside the weights (see docs/RUNTIME.md)",
    )
    calibrate.add_argument("--app", required=True, choices=app_names())
    calibrate.add_argument(
        "--epochs", type=int, default=8,
        help="MV-GNN training epochs before the calibration pass",
    )
    calibrate.add_argument(
        "--batch-size", type=int, default=32,
        help="graphs packed per calibration forward pass",
    )
    calibrate.add_argument(
        "--holdout", type=float, default=0.25,
        help="tail fraction of the sample pool reserved for calibration",
    )
    calibrate.add_argument(
        "--output", "-o", required=True, metavar="NPZ",
        help="npz path for the weights + calibration "
             "(load with repro.nn.serialize.load_params/load_calibration)",
    )
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.set_defaults(fn=_cmd_calibrate)

    suggest = sub.add_parser(
        "suggest", help="OpenMP suggestions for one program"
    )
    suggest.add_argument("--app", required=True, choices=app_names())
    suggest.add_argument("--program", type=int, default=0)
    suggest.set_defaults(fn=_cmd_suggest)

    patterns = sub.add_parser(
        "patterns", help="pattern distribution of one application"
    )
    patterns.add_argument("--app", required=True, choices=app_names())
    patterns.set_defaults(fn=_cmd_patterns)

    advise = sub.add_parser(
        "advise",
        help="execution-validated parallelization advice "
             "(see docs/ADVISOR.md)",
    )
    advise_target = advise.add_mutually_exclusive_group(required=True)
    advise_target.add_argument(
        "--app", choices=app_names(),
        help="advise one application",
    )
    advise_target.add_argument(
        "--tiny", action="store_true",
        help="advise the tiny (CI/smoke) roster: EP, IS, fib, nqueens",
    )
    advise.add_argument(
        "--threads", default="2,4", metavar="T1,T2",
        help="logical thread counts to validate under (comma-separated)",
    )
    advise.add_argument(
        "--seeds", default="0,1,2", metavar="S1,S2",
        help="adversarial-schedule seeds (comma-separated); the "
             "systematic round-robin schedule always runs too",
    )
    advise.add_argument(
        "--max-ulp", type=float, default=4.0,
        help="tolerance in float64 ulps for reassociated reduction "
             "live-outs (everything else must match bitwise)",
    )
    advise.add_argument(
        "--epochs", type=int, default=6,
        help="MV-GNN training epochs per app before prediction "
             "(0 = untrained demo weights)",
    )
    advise.add_argument(
        "--batch-size", type=int, default=32,
        help="graphs packed per forward pass for the model verdicts",
    )
    advise.add_argument(
        "--no-model", action="store_true",
        help="skip the MV-GNN; plans fuse only the prover and the oracle",
    )
    advise.add_argument(
        "--no-compile", action="store_true",
        help="disable the trace-compiled forward for the model verdicts",
    )
    advise.add_argument(
        "--json", action="store_true",
        help="emit machine-readable advice plans (sorted keys; "
             "byte-identical to the /v1/advise wire form)",
    )
    advise.add_argument("--seed", type=int, default=0)
    advise.set_defaults(fn=_cmd_advise)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        # Ctrl-C or SIGTERM (see _install_sigterm_handler) on a
        # long-running command: report the conventional 128+SIGINT code
        # instead of dumping a traceback.
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
