"""Dataset assembly: benchmark + transformed pools, balancing, splitting.

Reproduces Section IV-A/IV-B: the 840 benchmark loops (authored labels) are
augmented with source transforms and six compiler-pipeline IR variants
(oracle labels), balanced to ``n_per_class`` parallel and non-parallel
examples, and split 75:25 with *no common objects* across the split — all
variants of one source program land on the same side.

Assembly is expensive (thousands of profiled interpretations).  The work is
expressed as a flat list of :class:`~repro.dataset.parallel.ExtractionTask`
— one per (program variant, compiler pipeline) — executed by
:func:`repro.dataset.parallel.run_extraction_tasks` either serially
(``n_workers=1``, the reference path) or across a process pool.  Every task
carries a pre-spawned RNG seed, so the assembled dataset is byte-identical
for any worker count and the :class:`~repro.utils.cache.DiskCache` key is
executor-independent.  Results are cached on disk at two granularities:
one entry per application shard (so a crashed or interrupted build resumes
where it stopped) and, for the finished dataset, a manifest of each split's
sample ids that a warm hit resolves against those shards, so no sample is
written twice.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, asdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.features import FEATURE_NAMES
from repro.benchsuite.base import AppSpec
from repro.benchsuite.registry import app_names, build_all_apps, build_app
from repro.dataset.parallel import (
    GENERATED_SUITE,
    AssemblyStats,
    DropRecord,
    ExtractionTask,
    WorkerContext,
    run_extraction_tasks,
)
from repro.dataset.transforms import apply_transform
from repro.dataset.types import LoopDataset, LoopSample
from repro.embeddings.anonwalk import AnonymousWalkSpace
from repro.embeddings.inst2vec import Inst2Vec
from repro.errors import DatasetError
from repro.ir.shared import analysis_scope, program_fingerprint, program_ir
from repro.lint.shared_analysis import program_analysis
from repro.utils.cache import DiskCache, stable_hash
from repro.utils.rng import ensure_rng, spawn_rngs, spawn_seeds

#: bump when extraction/assembly semantics change; invalidates disk caches
#: (v6: range-sharpened static prover + IR004–IR006 range quarantine;
#: v7: the dataset entry is a manifest over the app shards)
_PIPELINE_VERSION = 7

#: the dataset's splits, in the order the manifest lists their sample ids
_SPLITS = ("benchmark", "generated", "train", "test")

#: DatasetConfig knobs that tune the executor, not the dataset content —
#: excluded from the cache key so serial and parallel builds share entries.
#: (``task_timeout_s`` is a fault-tolerance backstop: keep it generous, a
#: timeout small enough to fire on healthy tasks would change content.)
_EXECUTOR_KNOBS = ("use_cache", "n_workers", "task_timeout_s", "max_retries")


@dataclass
class DatasetConfig:
    """Dataset pipeline configuration (paper defaults)."""

    seed: int = 7
    semantic_dim: int = 200            # inst2vec + 7 dynamic features
    walk_length: int = 4
    gamma: int = 30
    n_per_class: int = 3100
    pipelines: Tuple[str, ...] = (
        "O0", "O1-fold", "O1-dce", "O2-cse", "O2-licm", "O2-unroll",
    )
    transforms: Tuple[str, ...] = ("ops", "order", "dep", "dep")
    train_fraction: float = 0.75
    inst2vec_epochs: int = 3
    apps: Optional[Tuple[str, ...]] = None   # None = full Table II roster
    use_cache: bool = True
    # run repro.lint during assembly: quarantine structurally invalid
    # samples (ERROR findings become DropRecords) and cross-validate
    # oracle labels against the static dependence prover (DS005).
    # Content-affecting, so part of the cache key.
    lint: bool = True
    # executor knobs (content-neutral; see _EXECUTOR_KNOBS)
    n_workers: int = 1
    task_timeout_s: Optional[float] = 300.0
    max_retries: int = 1

    @classmethod
    def fast(cls, seed: int = 7, n_workers: int = 1) -> "DatasetConfig":
        """CPU-friendly configuration for tests and default benchmark runs."""
        return cls(
            seed=seed,
            gamma=12,
            n_per_class=400,
            pipelines=("O0", "O2-licm"),
            transforms=("ops", "dep"),
            inst2vec_epochs=2,
            n_workers=n_workers,
        )

    @classmethod
    def tiny(cls, seed: int = 7, n_workers: int = 1) -> "DatasetConfig":
        """Four small applications; seconds to assemble.  Differential and
        metamorphic tests and the CI smoke benchmark run on this."""
        return cls(
            seed=seed,
            semantic_dim=32,
            gamma=6,
            n_per_class=40,
            pipelines=("O0", "O1-dce"),
            transforms=("ops", "dep"),
            inst2vec_epochs=1,
            apps=("EP", "IS", "fib", "nqueens"),
            n_workers=n_workers,
        )

    @property
    def inst2vec_dim(self) -> int:
        return self.semantic_dim - len(FEATURE_NAMES)

    def cache_key(self) -> str:
        from repro.analysis.ranges import RANGE_ANALYSIS_VERSION

        payload = asdict(self)
        for knob in _EXECUTOR_KNOBS:
            payload.pop(knob)
        payload["pipeline_version"] = _PIPELINE_VERSION
        # range-backed DS005 verdicts and IR004–IR006 quarantine decisions
        # are baked into shards: an engine change must invalidate them
        payload["range_analysis_version"] = RANGE_ANALYSIS_VERSION
        return "dataset-" + stable_hash(payload)

    def shard_key(self, app_name: str) -> str:
        """Cache key of one application's extracted sample shard."""
        return f"{self.cache_key()}-shard-{app_name}"


@dataclass
class AssembledData:
    """Everything the training and evaluation harnesses consume."""

    config: DatasetConfig
    benchmark: LoopDataset          # the 840 Table II loops (authored labels)
    generated: LoopDataset          # transformed pool (oracle labels)
    train: LoopDataset              # balanced 75% split
    test: LoopDataset               # balanced 25% split
    inst2vec: Inst2Vec
    walk_space: AnonymousWalkSpace
    stats: Optional[AssemblyStats] = None

    def train_groups(self) -> set:
        """Base-program groups present in the training split."""
        return {_base_program_key(s) for s in self.train}

    def test_suite(self, suite: str) -> LoopDataset:
        """Test-split samples of one evaluation suite (Table III rows)."""
        return LoopDataset(
            [s for s in self.test if s.suite == suite], name=f"test/{suite}"
        )

    def benchmark_eval(self, suite: str) -> LoopDataset:
        """Held-out benchmark loops of one suite (Table III evaluation set):
        all Table II samples of the suite whose source program contributed
        nothing to training."""
        held = self.train_groups()
        return LoopDataset(
            [
                s
                for s in self.benchmark
                if s.suite == suite and _base_program_key(s) not in held
            ],
            name=f"eval/{suite}",
        )


def assemble_dataset(config: Optional[DatasetConfig] = None) -> AssembledData:
    """Build (or load from cache) the full classification dataset."""
    config = config or DatasetConfig()
    cache = DiskCache() if config.use_cache else None
    if cache is not None:
        cached = _from_manifest(cache, config)
        if cached is not None:
            return cached
    data = _assemble(config)
    if cache is not None:
        cache.put(config.cache_key(), _manifest(data))
    return data


def _manifest(data: AssembledData) -> Dict[str, object]:
    """The dataset cache entry: each split's sample ids in order, plus the
    parts no shard holds.  The samples themselves stay in the app shards."""
    manifest: Dict[str, object] = {
        split: [s.sample_id for s in getattr(data, split)] for split in _SPLITS
    }
    manifest.update(
        inst2vec=data.inst2vec, walk_space=data.walk_space, stats=data.stats
    )
    return manifest


def _from_manifest(cache: DiskCache, config: DatasetConfig) -> Optional[AssembledData]:
    """The cached dataset rebuilt from its manifest and the app shards, or
    ``None`` when the manifest is missing or malformed, or any shard is
    missing or fails :func:`_shard_valid`."""
    manifest = cache.get(config.cache_key())
    if not (isinstance(manifest, dict) and set(_SPLITS) <= set(manifest)):
        return None
    by_id: Dict[str, LoopSample] = {}
    for name in config.apps if config.apps is not None else app_names():
        payload = cache.get(config.shard_key(name))
        if not _shard_valid(payload):
            return None
        for sample in list(payload["benchmark"]) + list(payload["generated"]):
            by_id[sample.sample_id] = sample
    try:
        splits = {
            split: LoopDataset([by_id[i] for i in manifest[split]], name=split)
            for split in _SPLITS
        }
        stats = manifest["stats"]
        stats.cache_hit = True
        return AssembledData(
            config=config, inst2vec=manifest["inst2vec"],
            walk_space=manifest["walk_space"], stats=stats, **splits,
        )
    except (KeyError, TypeError, AttributeError):
        return None


def _selected_apps(config: DatasetConfig) -> List[AppSpec]:
    if config.apps is None:
        return build_all_apps()
    return [build_app(name) for name in config.apps]


def build_extraction_tasks(
    apps: Sequence[AppSpec],
    config: DatasetConfig,
    transform_rng,
) -> List[ExtractionTask]:
    """The deterministic task list: pure AST work, no profiling.

    Section one mirrors the benchmark pool (authored labels, O0 view of
    every source program); section two the generated pool (oracle labels:
    optimized pipeline variants of each source, then each source transform
    pushed through every pipeline).  Transform randomness comes from seeds
    pre-spawned in slot order, so the list — and therefore every task's
    extraction seed — is independent of which shards are later cached.
    """
    tasks: List[ExtractionTask] = []
    # every variant of one program object shares its content key
    keys: Dict[int, str] = {}

    def add(program, labels, suite, app_name, variant, required, quirks=()):
        key = keys.get(id(program))
        if key is None:
            key = keys[id(program)] = program_fingerprint(program)
        tasks.append(
            ExtractionTask(
                index=len(tasks),
                program=program,
                labels=labels,
                suite=suite,
                app=app_name,
                variant=variant,
                required=required,
                quirk_loops=tuple(quirks),
                program_key=key,
            )
        )

    # -- benchmark pool: authored labels, O0 variant -----------------------
    for app in apps:
        for program in app.programs:
            labels = {
                loop_id: loop.label
                for loop_id, loop in app.loops.items()
                if loop.program_name == program.name
            }
            quirks = sorted(
                loop_id
                for loop_id, loop in app.loops.items()
                if loop.program_name == program.name and loop.annotation_quirk
            )
            add(
                program, labels, app.suite, app.name, "O0",
                required=True, quirks=quirks,
            )

    # -- generated pool: pipeline variants + source transforms -------------
    n_slots = sum(
        len(app.programs) * len(config.transforms) for app in apps
    )
    transform_seeds = iter(spawn_seeds(transform_rng, n_slots))
    for app in apps:
        for program in app.programs:
            for pipeline_name in config.pipelines:
                if pipeline_name == "O0":
                    continue  # the O0 view of the source is the benchmark pool
                add(
                    program, None, GENERATED_SUITE, app.name, pipeline_name,
                    required=False,
                )
            for t_pos, transform_name in enumerate(config.transforms):
                t_rng = np.random.default_rng(next(transform_seeds))
                transformed = apply_transform(
                    program, transform_name, rng=t_rng
                )
                transformed.name = f"{program.name}+{transform_name}{t_pos}"
                # transformed sources also go through the compiler pipelines
                # ("six different LLVM-IR intermediary representations of
                # each source code", Section IV-A); a transform that fails
                # to lower is dropped per pipeline by the task runner
                for pipeline_name in config.pipelines:
                    add(
                        transformed, None, GENERATED_SUITE, app.name,
                        pipeline_name, required=False,
                    )
    return tasks


@analysis_scope()  # quarantine and crossval share one analysis per program
def _assemble(config: DatasetConfig) -> AssembledData:
    t_start = time.perf_counter()
    rng = ensure_rng(config.seed)
    extract_rng, balance_rng, split_rng, transform_rng, i2v_rng = spawn_rngs(
        rng, 5
    )

    apps = _selected_apps(config)

    # -- the deterministic task list, one pre-spawned seed per task --------
    tasks = build_extraction_tasks(apps, config, transform_rng)
    for task, seed in zip(tasks, spawn_seeds(extract_rng, len(tasks))):
        task.seed = seed

    inst2vec = _train_inst2vec(tasks, config, i2v_rng)
    walk_space = AnonymousWalkSpace(config.walk_length)

    stats = AssemblyStats(
        n_tasks=len(tasks),
        n_workers=max(1, config.n_workers),
        task_timeout_s=config.task_timeout_s,
        max_retries=config.max_retries,
    )
    t_setup = time.perf_counter()
    stats.setup_seconds = t_setup - t_start

    # -- execute missing shards, serially or across the pool ---------------
    ctx = WorkerContext(
        inst2vec=inst2vec,
        walk_space=walk_space,
        gamma=config.gamma,
        task_timeout_s=config.task_timeout_s,
    )
    shard_cache = DiskCache() if config.use_cache else None
    tasks_by_app: Dict[str, List[ExtractionTask]] = {
        app.name: [] for app in apps
    }
    for task in tasks:
        tasks_by_app[task.app].append(task)

    shards: Dict[str, Dict[str, object]] = {}
    missing: List[AppSpec] = []
    for app in apps:
        payload = (
            shard_cache.get(config.shard_key(app.name))
            if shard_cache is not None
            else None
        )
        if _shard_valid(payload):
            shards[app.name] = payload
            stats.shard_hits += 1
        else:
            missing.append(app)
            stats.shard_misses += 1

    if missing:
        live_tasks = [
            task for app in missing for task in tasks_by_app[app.name]
        ]
        run = run_extraction_tasks(
            live_tasks,
            ctx,
            n_workers=config.n_workers,
            max_retries=config.max_retries,
        )
        stats.n_retries = run.n_retries
        per_task = {
            task.index: samples
            for task, samples in zip(live_tasks, run.samples)
        }
        drops_by_app: Dict[str, List[DropRecord]] = {}
        for drop in run.drops:
            drops_by_app.setdefault(drop.app, []).append(drop)
        for app in missing:
            app_tasks = tasks_by_app[app.name]
            app_drops = drops_by_app.get(app.name, [])
            benchmark_clean: List[LoopSample] = []
            generated_clean: List[LoopSample] = []
            for task in app_tasks:
                samples = per_task[task.index]
                if config.lint:
                    samples = _quarantine(samples, task, stats, app_drops)
                (benchmark_clean if task.labels is not None
                 else generated_clean).extend(samples)
            payload = {
                "benchmark": benchmark_clean,
                "generated": generated_clean,
                "drops": app_drops,
                "range_analysis_version": _range_version(),
            }
            shards[app.name] = payload
            if shard_cache is not None:
                shard_cache.put(config.shard_key(app.name), payload)
    stats.extraction_seconds = time.perf_counter() - t_setup

    # -- reassemble pools in application order -----------------------------
    benchmark_samples: List[LoopSample] = []
    generated_samples: List[LoopSample] = []
    for app in apps:
        payload = shards[app.name]
        benchmark_samples.extend(payload["benchmark"])
        generated_samples.extend(payload["generated"])
        stats.drops.extend(payload["drops"])

    if config.lint:
        # DS005: cross-validate every label against the static dependence
        # prover; a contradicted label is a corrupted sample, not noise.
        from repro.lint.core import LintReport
        from repro.lint.dataset_rules import cross_validate_labels

        programs = {task.program.name: task.program for task in tasks}
        report = LintReport()
        stats.crossval = cross_validate_labels(
            report, benchmark_samples + generated_samples, programs
        )
        if report.errors:
            stats.lint_findings.extend(f.to_dict() for f in report.errors)
            bad_ids = {f.details.get("sample_id") for f in report.errors}
            for pool_list in (benchmark_samples, generated_samples):
                kept: List[LoopSample] = []
                for s in pool_list:
                    if s.sample_id in bad_ids:
                        stats.lint_quarantined += 1
                        stats.drops.append(DropRecord(
                            program_name=s.program_name,
                            app=s.app,
                            variant=str(s.meta.get("variant", "?")),
                            reason="lint:DS005",
                            attempts=0,
                            detail=f"label contradicts static verdict "
                                   f"(sample {s.sample_id})",
                        ))
                    else:
                        kept.append(s)
                pool_list[:] = kept

    benchmark = LoopDataset(benchmark_samples, name="benchmark")
    generated = LoopDataset(generated_samples, name="generated")

    pool = benchmark_samples + generated_samples
    stats.suite_counts = dict(Counter(s.suite for s in pool))
    stats.app_counts = dict(Counter(s.app for s in pool))

    train, test = _balance_and_split(
        benchmark, generated, config, balance_rng, split_rng
    )
    stats.wall_seconds = time.perf_counter() - t_start
    return AssembledData(
        config=config,
        benchmark=benchmark,
        generated=generated,
        train=train,
        test=test,
        inst2vec=inst2vec,
        walk_space=walk_space,
        stats=stats,
    )


def _train_inst2vec(
    tasks: Sequence[ExtractionTask], config: DatasetConfig, rng
) -> Inst2Vec:
    """inst2vec trained on the base-program IR corpus: the O0 lowering of
    each benchmark-pool task's program, in task order.  Inside the
    assembly's analysis scope these are the lowerings the program's
    extraction tasks and range analysis reuse, so the scope holds them
    until the assembly ends.  Each is verified by its benchmark-pool
    task, a required one: a base program that fails verification fails
    the assembly there."""
    base_irs = [
        program_ir(task.program, task.program_key or None, verify=False)
        for task in tasks
        if task.labels is not None
    ]
    return Inst2Vec(dim=config.inst2vec_dim).train(
        base_irs, epochs=config.inst2vec_epochs, rng=rng
    )


def _quarantine(
    samples: List[LoopSample],
    task: ExtractionTask,
    stats: AssemblyStats,
    drops: List[DropRecord],
) -> List[LoopSample]:
    """Drop samples with ERROR-level structural lint findings, plus
    samples from loops the value-range rules condemn (a provably
    out-of-bounds access or zero divisor means the loop's dynamic
    profile — and therefore its oracle label — is garbage).  The range
    verdicts come from the program's shared analysis, which DS005
    cross-validation reuses.

    Each quarantined sample becomes a ``DropRecord`` with reason
    ``lint:<RULEID>`` so broken extractions surface in
    :meth:`AssemblyStats.summary` exactly like crashed or timed-out
    variants do.
    """
    from repro.lint.runner import lint_samples

    condemned: Dict[str, str] = {}
    if samples:
        analysis = program_analysis(task.program, task.program_key or None)
        condemned = analysis.range_error_loops
    clean: List[LoopSample] = []
    for sample in samples:
        if sample.loop_id in condemned:
            rule_id = condemned[sample.loop_id]
            stats.lint_quarantined += 1
            drops.append(DropRecord(
                program_name=task.program.name,
                app=task.app,
                variant=task.variant,
                reason=f"lint:{rule_id}",
                attempts=0,
                detail=f"loop {sample.loop_id} condemned by range rule "
                       f"{rule_id}",
            ))
            continue
        report = lint_samples([sample])
        if not report.errors:
            clean.append(sample)
            continue
        stats.lint_quarantined += 1
        stats.lint_findings.extend(f.to_dict() for f in report.errors)
        rule_ids = sorted({f.rule_id for f in report.errors})
        drops.append(DropRecord(
            program_name=task.program.name,
            app=task.app,
            variant=task.variant,
            reason=f"lint:{rule_ids[0]}",
            attempts=0,
            detail="; ".join(f.message for f in report.errors[:3]),
        ))
    return clean


def _range_version() -> int:
    from repro.analysis.ranges import RANGE_ANALYSIS_VERSION

    return RANGE_ANALYSIS_VERSION


def _shard_valid(payload) -> bool:
    """A usable shard entry: well-shaped, current, *and* structurally clean.

    Cached shards are revalidated with the cheap structural lint rules
    before reuse — a shard written by an older/buggier extractor (or
    corrupted in a way that still unpickles) is treated as a miss and
    recomputed rather than poisoning the dataset.  Shards also record the
    range-analysis version they were quarantined under; a stale version
    means the IR004–IR006 decisions baked into the shard may no longer
    hold, so the shard is rebuilt.
    """
    if not (
        isinstance(payload, dict)
        and {"benchmark", "generated", "drops"} <= set(payload)
    ):
        return False
    if payload.get("range_analysis_version") != _range_version():
        return False
    try:
        from repro.lint.runner import lint_samples

        samples = list(payload["benchmark"]) + list(payload["generated"])
        report = lint_samples(samples)
    except Exception:
        return False  # entries that are not LoopSamples at all
    return not report.errors


def programs_for_config(config: DatasetConfig) -> Dict[str, object]:
    """Program name -> source AST for every task a config would build.

    Mirrors ``_assemble``'s RNG spawn order exactly, so transformed
    programs are byte-identical to the ones the assembly used — the map a
    caller needs to run DS005 label cross-validation against an already
    assembled dataset (the ``repro lint`` CLI path).
    """
    rng = ensure_rng(config.seed)
    _, _, _, transform_rng, _ = spawn_rngs(rng, 5)
    apps = _selected_apps(config)
    tasks = build_extraction_tasks(apps, config, transform_rng)
    return {task.program.name: task.program for task in tasks}


def _base_program_key(sample: LoopSample) -> str:
    """Group key: all variants of one source program share it."""
    return sample.program_name.split("+")[0]


def _balance_and_split(
    benchmark: LoopDataset,
    generated: LoopDataset,
    config: DatasetConfig,
    balance_rng: np.random.Generator,
    split_rng: np.random.Generator,
) -> Tuple[LoopDataset, LoopDataset]:
    pool = list(benchmark) + list(generated)
    positives = [s for s in pool if s.label == 1]
    negatives = [s for s in pool if s.label == 0]
    n = min(config.n_per_class, len(positives), len(negatives))
    if n == 0:
        raise DatasetError(
            f"dataset pool has an empty class "
            f"({len(positives)} parallel / {len(negatives)} non-parallel); "
            f"widen apps/transforms or lower n_per_class"
        )

    chosen = balanced_subset(positives, negatives, n, balance_rng)
    return train_test_split(
        chosen, config.train_fraction, split_rng, group_key=_base_program_key
    )


def balanced_subset(
    positives: Sequence[LoopSample],
    negatives: Sequence[LoopSample],
    n_per_class: int,
    rng: np.random.Generator,
) -> List[LoopSample]:
    """Deterministically sample n examples of each class."""
    if n_per_class > len(positives) or n_per_class > len(negatives):
        raise DatasetError(
            f"requested {n_per_class} per class but pools are "
            f"{len(positives)}/{len(negatives)}"
        )
    pos_idx = rng.choice(len(positives), size=n_per_class, replace=False)
    neg_idx = rng.choice(len(negatives), size=n_per_class, replace=False)
    return [positives[int(i)] for i in pos_idx] + [
        negatives[int(i)] for i in neg_idx
    ]


def train_test_split(
    samples: Sequence[LoopSample],
    train_fraction: float,
    rng: np.random.Generator,
    group_key=_base_program_key,
) -> Tuple[LoopDataset, LoopDataset]:
    """Grouped, app-stratified split.

    Every group (a source program and all its variants) lands entirely in
    train or test ("no common objects", Section IV-B), and the split is
    stratified per application so every Table III evaluation suite retains
    held-out loops.  Within each app, at least one group goes to test; apps
    with a single source program (the small BOTS codes) go entirely to test
    — their handful of loops contributes evaluation signal, not training
    signal, exactly as a held-out suite should.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DatasetError("train_fraction must be in (0, 1)")
    # app -> group name -> samples
    by_app: Dict[str, Dict[str, List[LoopSample]]] = {}
    for sample in samples:
        by_app.setdefault(sample.app, {}).setdefault(
            group_key(sample), []
        ).append(sample)

    train: List[LoopSample] = []
    test: List[LoopSample] = []
    for app in sorted(by_app):
        groups = by_app[app]
        names = sorted(groups)
        if len(names) == 1:
            test.extend(groups[names[0]])
            continue
        order = rng.permutation(len(names))
        app_total = sum(len(groups[n]) for n in names)
        target = train_fraction * app_total
        filled = 0
        sent_to_test = 0
        for rank, pos in enumerate(order):
            group = groups[names[int(pos)]]
            remaining = len(order) - rank
            # leave at least one group for the test side
            if filled < target and remaining > max(1 - sent_to_test, 0):
                train.extend(group)
                filled += len(group)
            else:
                test.extend(group)
                sent_to_test += 1
    if not train or not test:
        raise DatasetError(
            f"degenerate split: train={len(train)} test={len(test)} samples "
            f"across {sum(len(g) for g in by_app.values())} group(s); "
            f"need at least two groups with samples on both sides"
        )
    return (
        LoopDataset(train, name="train"),
        LoopDataset(test, name="test"),
    )
