"""Utilities: rng handling, disk cache."""

import numpy as np
import pytest

from repro.utils.cache import DiskCache, stable_hash
from repro.utils.rng import ensure_rng, spawn_rngs, spawn_seeds


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        assert ensure_rng(7).random() == ensure_rng(7).random()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_spawn_independent_children(self):
        children = spawn_rngs(3, 4)
        assert len(children) == 4
        draws = [c.random() for c in children]
        assert len(set(draws)) == 4

    def test_spawn_deterministic(self):
        a = [c.random() for c in spawn_rngs(3, 3)]
        b = [c.random() for c in spawn_rngs(3, 3)]
        assert a == b

    def test_spawn_seeds_deterministic_plain_ints(self):
        a = spawn_seeds(np.random.default_rng(3), 5)
        b = spawn_seeds(np.random.default_rng(3), 5)
        assert a == b
        assert all(type(s) is int and s >= 0 for s in a)
        assert len(set(a)) == 5

    def test_spawn_seeds_consistent_with_spawn_rngs(self):
        # spawn_rngs(parent, n) must be exactly default_rng over
        # spawn_seeds of the same parent — the parallel task runner relies
        # on this to rebuild a task's generator from its stored seed
        seeds = spawn_seeds(np.random.default_rng(11), 4)
        via_seeds = [np.random.default_rng(s).random() for s in seeds]
        via_rngs = [c.random() for c in spawn_rngs(11, 4)]
        assert via_seeds == via_rngs

    def test_spawn_seeds_prefix_stable(self):
        # the first k seeds do not depend on how many are drawn in total,
        # so shrinking a task list never reshuffles the surviving seeds
        assert (
            spawn_seeds(np.random.default_rng(5), 6)[:3]
            == spawn_seeds(np.random.default_rng(5), 3)
        )

    def test_spawn_seeds_zero(self):
        assert spawn_seeds(np.random.default_rng(0), 0) == []


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash({"a": 1}) == stable_hash({"a": 1})

    def test_key_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_different_payloads_differ(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("key", {"value": [1, 2, 3]})
        assert cache.get("key") == {"value": [1, 2, 3]}

    def test_missing_key_none(self, tmp_path):
        assert DiskCache(tmp_path).get("nope") is None

    def test_get_or_compute_caches(self, tmp_path):
        cache = DiskCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert cache.get_or_compute("k", compute) == 42
        assert cache.get_or_compute("k", compute) == 42
        assert len(calls) == 1

    def test_corrupt_entry_ignored(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.path_for("bad").write_bytes(b"not a pickle")
        assert cache.get("bad") is None

    def test_corrupt_entry_removed_and_overwritable(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.path_for("bad").write_bytes(b"not a pickle")
        assert cache.get("bad") is None
        assert not cache.path_for("bad").exists()
        cache.put("bad", 7)
        assert cache.get("bad") == 7

    def test_truncated_entry_is_miss(self, tmp_path):
        import pickle

        cache = DiskCache(tmp_path)
        payload = pickle.dumps({"value": list(range(100))})
        cache.path_for("cut").write_bytes(payload[: len(payload) // 2])
        assert cache.get("cut") is None
        assert not cache.path_for("cut").exists()

    def test_unresolvable_pickle_is_miss(self, tmp_path):
        # a pickle referencing a module that does not exist raises
        # ImportError, not UnpicklingError — still a miss, never a crash
        cache = DiskCache(tmp_path)
        cache.path_for("ref").write_bytes(b"cno_such_module\nNoSuchClass\n.")
        assert cache.get("ref") is None
        assert not cache.path_for("ref").exists()

    def test_get_or_compute_recovers_from_corruption(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k", 11)
        cache.path_for("k").write_bytes(b"\x80garbage")
        assert cache.get_or_compute("k", lambda: 12) == 12
        assert cache.get("k") == 12

    def test_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("a", 1)
        cache.clear()
        assert cache.get("a") is None

    @pytest.mark.parametrize("enabled", [True, False])
    def test_put_pickles_with_collection_paused(self, tmp_path, monkeypatch,
                                                enabled):
        """The pickler's memo keeps every tuple it writes alive until the
        dump returns, so the dump runs with cyclic collection off; the
        collector is left as it was found."""
        import gc
        import pickle

        real_dump = pickle.dump
        during = []

        def dump(*args, **kwargs):
            during.append(gc.isenabled())
            return real_dump(*args, **kwargs)

        monkeypatch.setattr(pickle, "dump", dump)
        cache = DiskCache(tmp_path)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            cache.put("k", {"a": np.arange(3)})
            after = gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert during == [False]
        assert after is enabled
        np.testing.assert_array_equal(cache.get("k")["a"], np.arange(3))
