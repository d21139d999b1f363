"""Parallel fault-tolerant assembly: runner semantics + differential
determinism of `assemble_dataset` across worker counts.

The fake-execute tests drive `run_extraction_tasks` directly (the execute
hook exists exactly so failure modes are injectable); the differential
tests assemble the tiny dataset end to end and assert serial and pooled
builds are byte-identical, including the failure-drop accounting.
"""

import time

import pytest

from repro.dataset.assemble import DatasetConfig, _assemble, assemble_dataset
from repro.dataset.parallel import (
    ExtractionTask,
    WorkerContext,
    run_extraction_tasks,
)
from repro.errors import DatasetError, InterpreterError, IRError

from tests.helpers import build_doall_program


def _task(index, variant="O0", required=False, program=None):
    return ExtractionTask(
        index=index,
        program=program or build_doall_program(),
        labels={"L": 1} if required else None,
        suite="T",
        app="APP",
        variant=variant,
        seed=index,
        required=required,
    )


def _ctx(timeout=None):
    # the fake-execute tests never touch the embedders
    return WorkerContext(
        inst2vec=None, walk_space=None, gamma=4, task_timeout_s=timeout
    )


# module-level so the process pool can pickle them (fork or spawn)
def _echo_index(task, ctx):
    return [task.index]


def _fail_bad_variant(task, ctx):
    if task.variant == "BAD":
        raise InterpreterError(f"boom on {task.describe()}")
    return [task.index]


def _sleep_forever(task, ctx):
    time.sleep(60)
    return [task.index]


class TestRunnerSerial:
    def test_results_in_task_order(self):
        tasks = [_task(i) for i in range(5)]
        run = run_extraction_tasks(tasks, _ctx(), execute=_echo_index)
        assert run.samples == [[0], [1], [2], [3], [4]]
        assert run.drops == [] and run.n_retries == 0

    def test_interpreter_error_retried_then_dropped(self):
        calls = []

        def execute(task, ctx):
            calls.append(task.index)
            raise InterpreterError("out of bounds")

        tasks = [_task(0)]
        run = run_extraction_tasks(
            tasks, _ctx(), max_retries=2, execute=execute
        )
        assert calls == [0, 0, 0]          # 1 attempt + 2 retries
        assert run.samples == [[]]
        assert run.n_retries == 2
        (drop,) = run.drops
        assert drop.reason == "interpreter"
        assert drop.attempts == 3
        assert drop.variant == "O0" and drop.app == "APP"

    def test_flaky_task_recovers_on_retry(self):
        attempts = {"n": 0}

        def execute(task, ctx):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise InterpreterError("transient")
            return [task.index]

        run = run_extraction_tasks(
            [_task(7)], _ctx(), max_retries=1, execute=execute
        )
        assert run.samples == [[7]]
        assert run.drops == []
        assert run.n_retries == 1

    def test_required_task_failure_raises(self):
        def execute(task, ctx):
            raise InterpreterError("boom")

        with pytest.raises(DatasetError, match="required variant"):
            run_extraction_tasks(
                [_task(0, required=True)], _ctx(), max_retries=1,
                execute=execute,
            )

    def test_lowering_failure_reason(self):
        def execute(task, ctx):
            raise IRError("bad verify")

        run = run_extraction_tasks([_task(0)], _ctx(), execute=execute)
        assert run.drops[0].reason == "lowering"

    def test_unexpected_error_reason_carries_type(self):
        def execute(task, ctx):
            raise ValueError("surprising")

        run = run_extraction_tasks([_task(0)], _ctx(), execute=execute)
        assert run.drops[0].reason == "error:ValueError"
        assert "surprising" in run.drops[0].detail

    def test_timeout_dropped_with_reason(self):
        def execute(task, ctx):
            time.sleep(5)
            return [task.index]

        t0 = time.monotonic()
        run = run_extraction_tasks(
            [_task(0)], _ctx(timeout=0.2), max_retries=1, execute=execute
        )
        elapsed = time.monotonic() - t0
        assert elapsed < 4.0               # both attempts were cut short
        (drop,) = run.drops
        assert drop.reason == "timeout"
        assert drop.attempts == 2
        assert run.n_retries == 1

    def test_mixed_failures_keep_ordering(self):
        tasks = [
            _task(0), _task(1, variant="BAD"), _task(2),
            _task(3, variant="BAD"), _task(4),
        ]
        run = run_extraction_tasks(
            tasks, _ctx(), max_retries=1, execute=_fail_bad_variant
        )
        assert run.samples == [[0], [], [2], [], [4]]
        assert [d.variant for d in run.drops] == ["BAD", "BAD"]


class TestRunnerPool:
    def test_pool_results_in_task_order(self):
        tasks = [_task(i) for i in range(8)]
        run = run_extraction_tasks(
            tasks, _ctx(), n_workers=2, execute=_echo_index
        )
        assert run.samples == [[i] for i in range(8)]
        assert run.drops == []

    def test_pool_drop_accounting_matches_serial(self):
        tasks = [
            _task(0), _task(1, variant="BAD"), _task(2), _task(3),
            _task(4, variant="BAD"), _task(5),
        ]
        serial = run_extraction_tasks(
            tasks, _ctx(), max_retries=1, execute=_fail_bad_variant
        )
        pooled = run_extraction_tasks(
            tasks, _ctx(), n_workers=2, max_retries=1,
            execute=_fail_bad_variant,
        )
        assert pooled.samples == serial.samples
        assert [
            (d.program_name, d.variant, d.reason, d.attempts)
            for d in pooled.drops
        ] == [
            (d.program_name, d.variant, d.reason, d.attempts)
            for d in serial.drops
        ]
        assert pooled.n_retries == serial.n_retries

    def test_pool_timeout_interrupts_worker(self):
        t0 = time.monotonic()
        run = run_extraction_tasks(
            [_task(0)], _ctx(timeout=0.3), n_workers=2, max_retries=0,
            execute=_sleep_forever,
        )
        assert time.monotonic() - t0 < 30.0
        assert run.drops[0].reason == "timeout"


def _tiny(seed, n_workers):
    config = DatasetConfig.tiny(seed=seed, n_workers=n_workers)
    config.use_cache = False
    return config


def _identity(a, b):
    """Full byte-level dataset equality, order included."""
    assert [s.sample_id for s in a.benchmark] == [
        s.sample_id for s in b.benchmark
    ]
    for view in ("benchmark", "generated", "train", "test"):
        assert getattr(a, view).fingerprint() == getattr(b, view).fingerprint(), view
    assert a.stats.drops == b.stats.drops
    assert a.stats.n_retries == b.stats.n_retries


class TestDifferentialDeterminism:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_parallel_assembly_matches_serial(self, seed):
        """ISSUE acceptance: n_workers=4 byte-identical to serial."""
        _identity(_assemble(_tiny(seed, 1)), _assemble(_tiny(seed, 4)))

    def test_serial_rerun_is_deterministic(self):
        _identity(_assemble(_tiny(3, 1)), _assemble(_tiny(3, 1)))

    def test_cache_key_is_executor_independent(self):
        assert _tiny(7, 1).cache_key() == _tiny(7, 4).cache_key()
        fast = DatasetConfig.fast()
        slow_retry = DatasetConfig.fast()
        slow_retry.task_timeout_s = 10.0
        slow_retry.max_retries = 5
        assert fast.cache_key() == slow_retry.cache_key()

    def test_different_seeds_differ(self):
        a = _assemble(_tiny(7, 1))
        b = _assemble(_tiny(8, 1))
        assert a.generated.fingerprint() != b.generated.fingerprint()


class TestShardCache:
    def _cached_config(self, monkeypatch, tmp_path, n_workers=1):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        return DatasetConfig.tiny(n_workers=n_workers)

    def test_shards_written_and_reused(self, monkeypatch, tmp_path):
        config = self._cached_config(monkeypatch, tmp_path)
        first = assemble_dataset(config)
        assert first.stats.shard_misses == 4 and first.stats.shard_hits == 0
        shard_files = list(tmp_path.glob("dataset-*-shard-*.pkl"))
        assert len(shard_files) == 4

        # drop the whole-dataset entry: the rebuild must come from shards
        from repro.utils.cache import DiskCache

        DiskCache(tmp_path).path_for(config.cache_key()).unlink()
        second = assemble_dataset(config)
        assert second.stats.shard_hits == 4 and second.stats.shard_misses == 0
        _identity(first, second)

    def test_corrupted_shard_recomputes(self, monkeypatch, tmp_path):
        """A corrupt shard entry is a miss, never an error or bad data."""
        config = self._cached_config(monkeypatch, tmp_path)
        first = assemble_dataset(config)

        from repro.utils.cache import DiskCache

        cache = DiskCache(tmp_path)
        cache.path_for(config.cache_key()).unlink()
        cache.path_for(config.shard_key("IS")).write_bytes(b"\x80garbage")
        second = assemble_dataset(config)
        assert second.stats.shard_hits == 3
        assert second.stats.shard_misses == 1
        _identity(first, second)

    def test_content_corrupt_shard_revalidated(self, monkeypatch, tmp_path):
        """A shard that unpickles fine but holds structurally invalid
        samples is caught by the lint revalidation and treated as a miss —
        never served back into the dataset."""
        config = self._cached_config(monkeypatch, tmp_path)
        first = assemble_dataset(config)

        from repro.utils.cache import DiskCache

        cache = DiskCache(tmp_path)
        cache.path_for(config.cache_key()).unlink()
        key = config.shard_key("IS")
        payload = cache.get(key)
        pool = list(payload["benchmark"]) + list(payload["generated"])
        assert pool
        pool[0].adjacency[0, 0] = float("nan")  # GR002 territory
        cache.put(key, payload)

        second = assemble_dataset(config)
        assert second.stats.shard_hits == 3
        assert second.stats.shard_misses == 1
        _identity(first, second)

    def test_shard_missing_section_is_a_miss(self, monkeypatch, tmp_path):
        config = self._cached_config(monkeypatch, tmp_path)
        first = assemble_dataset(config)

        from repro.utils.cache import DiskCache

        cache = DiskCache(tmp_path)
        cache.path_for(config.cache_key()).unlink()
        key = config.shard_key("EP")
        payload = cache.get(key)
        del payload["drops"]
        cache.put(key, payload)

        second = assemble_dataset(config)
        assert second.stats.shard_misses == 1
        _identity(first, second)

    def test_corrupted_dataset_entry_recomputes(self, monkeypatch, tmp_path):
        config = self._cached_config(monkeypatch, tmp_path)
        first = assemble_dataset(config)
        from repro.utils.cache import DiskCache

        cache = DiskCache(tmp_path)
        cache.path_for(config.cache_key()).write_bytes(b"not a pickle")
        second = assemble_dataset(config)
        _identity(first, second)

    def test_dataset_cache_hit_marked(self, monkeypatch, tmp_path):
        config = self._cached_config(monkeypatch, tmp_path)
        first = assemble_dataset(config)
        assert first.stats.cache_hit is False
        second = assemble_dataset(config)
        assert second.stats.cache_hit is True
        _identity(first, second)


class TestDatasetManifest:
    """The dataset entry lists each split's sample ids; the samples live
    only in the app shards, and a warm hit rebuilds the splits from them."""

    def _cold(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = DatasetConfig.tiny()
        first = assemble_dataset(config)
        from repro.utils.cache import DiskCache

        return config, first, DiskCache(tmp_path)

    def test_entry_holds_ids_not_samples(self, monkeypatch, tmp_path):
        config, first, cache = self._cold(monkeypatch, tmp_path)
        manifest = cache.get(config.cache_key())
        for split in ("benchmark", "generated", "train", "test"):
            assert manifest[split] == [s.sample_id for s in getattr(first, split)]
        assert manifest["stats"].cache_hit is False
        assert {"inst2vec", "walk_space"} <= set(manifest)

    def test_warm_hit_matches_cold(self, monkeypatch, tmp_path):
        config, first, _ = self._cold(monkeypatch, tmp_path)
        second = assemble_dataset(config)
        assert second.stats.cache_hit is True
        _identity(first, second)
        assert second.inst2vec.w_in.tobytes() == first.inst2vec.w_in.tobytes()
        assert second.walk_space.num_types == first.walk_space.num_types
        # the splits share the pools' sample objects, as a cold build does
        pool = {id(s) for s in list(second.benchmark) + list(second.generated)}
        assert all(id(s) in pool for s in list(second.train) + list(second.test))

    def test_deleted_shard_is_a_miss(self, monkeypatch, tmp_path):
        config, first, cache = self._cold(monkeypatch, tmp_path)
        cache.path_for(config.shard_key("EP")).unlink()
        second = assemble_dataset(config)
        assert second.stats.cache_hit is False
        assert (second.stats.shard_hits, second.stats.shard_misses) == (3, 1)
        _identity(first, second)
        third = assemble_dataset(config)  # the rebuilt manifest serves again
        assert third.stats.cache_hit is True
        _identity(first, third)

    def test_invalid_shard_is_a_miss(self, monkeypatch, tmp_path):
        config, first, cache = self._cold(monkeypatch, tmp_path)
        key = config.shard_key("IS")
        payload = cache.get(key)
        payload["range_analysis_version"] = -1  # fails _shard_valid
        cache.put(key, payload)
        second = assemble_dataset(config)
        assert second.stats.cache_hit is False
        assert second.stats.shard_misses == 1
        _identity(first, second)

    @pytest.mark.parametrize("corrupt", [
        lambda m: m.update(train=m["train"] + ["no/such/sample"]),
        lambda m: m.pop("test"),
        lambda m: m.update(stats=None),
        lambda m: m.clear(),
    ], ids=["unknown-id", "missing-split", "no-stats", "empty"])
    def test_corrupt_manifest_is_a_miss(self, monkeypatch, tmp_path, corrupt):
        config, first, cache = self._cold(monkeypatch, tmp_path)
        manifest = cache.get(config.cache_key())
        corrupt(manifest)
        cache.put(config.cache_key(), manifest)
        second = assemble_dataset(config)
        assert second.stats.cache_hit is False
        assert second.stats.shard_hits == 4  # the shards were still good
        _identity(first, second)
        assert assemble_dataset(config).stats.cache_hit is True
