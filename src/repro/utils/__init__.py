"""Shared utilities: deterministic RNG handling and caching."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.cache import DiskCache, stable_hash

__all__ = ["ensure_rng", "spawn_rngs", "DiskCache", "stable_hash"]
