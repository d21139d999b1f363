"""On-disk caching for expensive artefacts (datasets, trained embeddings).

The dataset pipeline profiles thousands of interpreted programs; caching the
assembled dataset keyed by a stable configuration hash keeps repeated test and
benchmark runs fast without compromising reproducibility.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional


def stable_hash(obj: Any) -> str:
    """Deterministic hex digest of a JSON-serializable configuration object."""
    payload = json.dumps(obj, sort_keys=True, default=_json_default)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def _json_default(obj: Any) -> Any:
    if hasattr(obj, "__dict__"):
        return {"__class__": type(obj).__name__, **vars(obj)}
    return repr(obj)


@contextmanager
def _collections_paused() -> Iterator[None]:
    """No cyclic garbage collection for the enclosed block.

    A pickler's memo holds every tuple it pickles until the dump returns.
    A large dump (a dataset shard pickles thousands of reduce tuples)
    therefore triggers young collections that traverse those tuples and
    promote them, which brings the next full collection of the whole heap
    forward, although reference counting frees them all when the dump
    returns.  Leaves collection off if it already was.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class DiskCache:
    """Pickle-backed cache directory with atomic writes.

    Writes go to a temporary file first and are renamed into place so a
    crashed process never leaves a truncated cache entry behind; reads
    treat any undecodable entry as a miss and remove it (see :meth:`get`).
    Keys are caller-chosen strings — pair with :func:`stable_hash` for
    content-addressed entries, as :class:`repro.runtime.FeatureCache` does.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        if root is None:
            root = os.environ.get(
                "REPRO_CACHE_DIR", os.path.join(tempfile.gettempdir(), "repro-cache")
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def get(self, key: str) -> Optional[Any]:
        """Cached value for ``key``, or None on a miss.

        A corrupt or truncated cache file — however it fails to unpickle —
        is treated as a miss: the bad file is deleted so the next
        :meth:`put` (or :meth:`get_or_compute`) overwrites it cleanly
        instead of every reader re-hitting the same broken entry.  This is
        what lets the inference runtime reuse the cache safely: a crashed
        or version-skewed writer can never wedge later readers.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except Exception:
            # unpickling arbitrary corruption can raise nearly anything
            # (UnpicklingError, EOFError, AttributeError, ImportError,
            # ValueError, UnicodeDecodeError, ...): any failure means the
            # entry is unusable
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, value: Any) -> None:
        path = self.path_for(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh, _collections_paused():
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get_or_compute(self, key: str, fn: Callable[[], Any]) -> Any:
        cached = self.get(key)
        if cached is not None:
            return cached
        value = fn()
        self.put(key, value)
        return value

    def clear(self) -> None:
        for path in self.root.glob("*.pkl"):
            path.unlink()
