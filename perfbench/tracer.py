"""In-memory span recorder and call-site wrappers for the traced run.

A :class:`Tracer` records one span per wrapped call: name, start, end,
parent span and thread, plus an optional ``meta`` dict a hook derives
from the call.  Parents are tracked through a :mod:`contextvars` stack,
so coroutines interleaved on one event loop keep separate stacks.
Spans stay in memory and are written once, as Chrome trace-event JSON.

:func:`install` wraps a function wherever it is bound: on its defining
module, on every loaded ``repro`` module that imported it by name, and
in the argument defaults of functions that captured it.  A wrapper only
on the defining module would miss callers that bound the name at import
time.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_STACK: contextvars.ContextVar = contextvars.ContextVar("perfbench_spans", default=())


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    tid: int
    meta: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


#: a hook: (args, kwargs) -> state, then (state, args, kwargs, result) -> meta
Hook = Tuple[Callable[..., Any], Callable[..., Optional[Dict[str, Any]]]]


class Tracer:
    """Collects spans from every wrapped call while enabled."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.enabled = True
        self._lock = threading.Lock()

    def _open(self) -> Tuple[int, int, contextvars.Token]:
        stack = _STACK.get()
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span("", 0.0, 0.0, -1, 0))
        token = _STACK.set(stack + (idx,))
        return idx, (stack[-1] if stack else -1), token

    def _close(self, idx, parent, token, name, start, meta) -> None:
        end = time.perf_counter()
        _STACK.reset(token)
        self.spans[idx] = Span(name, start, end, parent, threading.get_ident(), meta)

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        tracer = self
        pre, post = hook if hook is not None else (None, None)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                state = pre(args, kwargs) if pre else None
                idx, parent, token = tracer._open()
                start = time.perf_counter()
                result = meta = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    if post:
                        meta = post(state, args, kwargs, result)
                    tracer._close(idx, parent, token, name, start, meta)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = pre(args, kwargs) if pre else None
            idx, parent, token = tracer._open()
            start = time.perf_counter()
            result = meta = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if post:
                    meta = post(state, args, kwargs, result)
                tracer._close(idx, parent, token, name, start, meta)

        return wrapper

    # -- export ---------------------------------------------------------------

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (complete events, microseconds)."""
        events = []
        for idx, span in enumerate(self.spans):
            if not span.name:
                continue  # still open when written: nothing to report
            args: Dict[str, Any] = {
                "id": idx, "parent": span.parent, "run_id": self.run_id,
            }
            if span.meta:
                args["meta"] = span.meta
            events.append({
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": span.tid,
                "args": args,
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# ---------------------------------------------------------------------------
# installing wrappers
# ---------------------------------------------------------------------------


def _resolve(target: str):
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name, raw value)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Installation:
    """Every binding the wrappers replaced, so they can be put back."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []
        self.sites: Dict[str, int] = {}

    def _set(self, obj, attr, value) -> None:
        old = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
        setattr(obj, attr, value)
        self._undo.append(lambda: setattr(obj, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(
    tracer: Tracer,
    declarations: Sequence[Tuple[str, str, Optional[Hook]]],
) -> Installation:
    """Wrap every ``(span name, target, hook)`` at all its call sites."""
    inst = Installation()
    replacements: Dict[int, Tuple[Any, Any]] = {}
    target_of: Dict[int, str] = {}
    for name, target, hook in declarations:
        owner, attr, raw = _resolve(target)
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__, hook))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(tracer.wrap(name, raw.__func__, hook))
            else:
                wrapped = tracer.wrap(name, raw, hook)
            inst._set(owner, attr, wrapped)
            inst.sites[target] = 1
            continue
        wrapped = tracer.wrap(name, raw, hook)
        replacements[id(raw)] = (raw, wrapped)
        target_of[id(raw)] = target
        inst.sites[target] = 0

    # module-level functions: every repro module that binds the object
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and value is hit[0]:
                inst._set(module, key, hit[1])
                inst.sites[target_of[id(value)]] += 1
            elif inspect.isfunction(value) and value.__defaults__:
                _patch_defaults(inst, value, replacements)
            elif isinstance(value, type) and value.__module__ == mod_name:
                for member in vars(value).values():
                    func = getattr(member, "__func__", member)
                    if inspect.isfunction(func) and func.__defaults__:
                        _patch_defaults(inst, func, replacements)
    return inst


def _patch_defaults(inst: Installation, func, replacements) -> None:
    defaults = func.__defaults__
    if not any(id(d) in replacements and d is replacements[id(d)][0] for d in defaults):
        return
    new = tuple(
        replacements[id(d)][1]
        if id(d) in replacements and d is replacements[id(d)][0] else d
        for d in defaults
    )
    inst._set(func, "__defaults__", new)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.name and 0 <= span.parent < len(spans):
            child[span.parent] += span.duration
    return [
        max(span.duration - child[i], 0.0) if span.name else 0.0
        for i, span in enumerate(spans)
    ]


def covered(spans: Sequence[Span], windows: Sequence[Tuple[float, float]]) -> float:
    """Share of ``windows`` covered by the children of root spans.

    A root span (parent -1) wraps a whole unit of work and so covers its
    window by construction; the time its own body keeps, outside every
    layer span below it, is what this share leaves out."""
    total = sum(end - start for start, end in windows)
    if total <= 0:
        return 0.0
    roots = {i for i, s in enumerate(spans) if s.name and s.parent == -1}
    tops = sorted(
        (s.start, s.end) for s in spans if s.name and s.parent in roots
    )
    hit = 0.0
    for w_start, w_end in windows:
        cursor = w_start
        for start, end in tops:
            start, end = max(start, cursor), min(end, w_end)
            if end > start:
                hit += end - start
                cursor = end
    return hit / total
