"""JSON wire format for classification requests and responses.

A *loop object* is the JSON shape of one
:class:`~repro.runtime.engine.GraphInput`:

.. code-block:: json

    {
      "id": "BT/loop0",
      "x_semantic":   [[...], ...],
      "x_structural": [[...], ...],
      "adjacency":    [[...], ...],
      "deadline_ms":  200
    }

``x_semantic`` is ``(n, d_sem)``, ``x_structural`` is ``(n, walk_types)``,
``adjacency`` is the ``(n, n)`` undirected 0/1 matrix; ``id`` and
``deadline_ms`` are optional.  Arrays decode to float64 — Python's JSON
round-trips float64 exactly (shortest-repr), which is what lets the
differential tests pin served predictions byte-identical to direct
``Engine.predict_many`` output.

Failures split into two classes:

* **Undecodable** — not JSON, not an object, a required field missing or
  non-numeric: :class:`~repro.errors.WireError`, HTTP 400.
* **Decodable but structurally invalid** — wrong shapes, NaN/Inf, an
  asymmetric / non-binary / self-looped adjacency, too many nodes: the
  arrays are run through the GR lint rules
  (:mod:`repro.lint.graph_rules`) and failures raise
  :class:`~repro.errors.GraphValidationError`, HTTP 422 with the finding
  list in the response body.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphValidationError, WireError
from repro.runtime.engine import GraphInput

#: hard cap on nodes per graph — a wire-level sanity bound, far above any
#: real sub-PEG, protecting the server from accidental giant payloads
MAX_NODES = 4096

#: hard cap on loops per classify_batch request
MAX_BATCH_ITEMS = 1024


def parse_json(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"request body is not valid JSON: {exc}") from None


def _decode_matrix(obj: Mapping, key: str, where: str) -> np.ndarray:
    """Decode one array field; raises only for *undecodable* data (400).

    Shape / finiteness / content invariants are the GR lint rules' job
    (:func:`validate_graph_arrays`) so their diagnostics carry rule IDs.
    """
    if key not in obj:
        raise WireError(f"{where}: missing required field {key!r}")
    try:
        return np.asarray(obj[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise WireError(f"{where}: field {key!r} is not numeric: {exc}") from None


def validate_graph_arrays(
    adjacency: np.ndarray,
    x_semantic: np.ndarray,
    x_structural: np.ndarray,
    where: str,
) -> None:
    """Admission gate: run the GR lint rules over a decoded array triple.

    Raises :class:`GraphValidationError` (HTTP 422) when any ERROR-level
    finding fires; the exception carries the findings as plain dicts for
    the response payload.
    """
    from repro.lint.core import findings_to_wire
    from repro.lint.runner import lint_graph_arrays

    report = lint_graph_arrays(
        adjacency, x_semantic, x_structural, where=where, max_nodes=MAX_NODES
    )
    errors = report.errors
    if not errors:
        return
    shown = "; ".join(f.message for f in errors[:3])
    if len(errors) > 3:
        shown += f" (+{len(errors) - 3} more)"
    raise GraphValidationError(
        f"{where}: invalid graph: {shown}", findings_to_wire(errors)
    )


def decode_loop(obj: Any, pos: int = 0) -> GraphInput:
    """One wire loop object -> a validated :class:`GraphInput`."""
    where = f"loop #{pos}"
    if not isinstance(obj, Mapping):
        raise WireError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    adjacency = _decode_matrix(obj, "adjacency", where)
    x_semantic = _decode_matrix(obj, "x_semantic", where)
    x_structural = _decode_matrix(obj, "x_structural", where)
    graph_id = obj.get("id", "")
    if not isinstance(graph_id, str):
        raise WireError(f"{where}: id must be a string")
    validate_graph_arrays(adjacency, x_semantic, x_structural, where)
    return GraphInput(
        x_semantic=x_semantic,
        x_structural=x_structural,
        adjacency=adjacency,
        graph_id=graph_id or f"graph-{pos}",
    )


def decode_deadline_ms(
    obj: Mapping, default: Any = None, where: str = "request"
) -> Any:
    """The request's ``deadline_ms``: ``default`` when the field is absent.

    An explicit JSON ``null`` returns None — "no deadline for this
    request" — which is distinct from the field being absent (server
    default applies; callers pass :data:`repro.serve.batcher.USE_DEFAULT`).
    """
    if "deadline_ms" not in obj:
        return default
    value = obj["deadline_ms"]
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireError(f"{where}: deadline_ms must be a number or null")
    if value <= 0:
        raise WireError(f"{where}: deadline_ms must be positive, got {value}")
    return float(value)


#: Wire-accepted execution tiers (mirrors repro.nn.quantize.PRECISIONS).
PRECISIONS = ("exact", "fast")


def decode_precision(value: Any, where: str = "request") -> Optional[str]:
    """Validate a requested execution tier (query param or body field).

    ``None`` (absent) means "no preference": the service applies its
    configured default tier and the degrade-before-shed policy.
    """
    if value is None:
        return None
    if value not in PRECISIONS:
        raise WireError(
            f"{where}: precision must be one of {list(PRECISIONS)}, "
            f"got {value!r}"
        )
    return str(value)


def decode_batch(obj: Any) -> List[GraphInput]:
    """A classify_batch payload ``{"loops": [...]}`` -> GraphInputs."""
    if not isinstance(obj, Mapping):
        raise WireError(
            f"request: expected a JSON object, got {type(obj).__name__}"
        )
    loops = obj.get("loops")
    if not isinstance(loops, Sequence) or isinstance(loops, (str, bytes)):
        raise WireError('request: missing or non-array "loops" field')
    if not loops:
        raise WireError('request: "loops" is empty')
    if len(loops) > MAX_BATCH_ITEMS:
        raise WireError(
            f"request: {len(loops)} loops exceeds the "
            f"{MAX_BATCH_ITEMS} per-request limit"
        )
    return [decode_loop(item, pos) for pos, item in enumerate(loops)]


def encode_loop(
    x_semantic: np.ndarray,
    x_structural: np.ndarray,
    adjacency: np.ndarray,
    loop_id: str = "",
) -> Dict[str, Any]:
    """Feature arrays -> a wire loop object (the inverse of decode_loop)."""
    obj: Dict[str, Any] = {
        "x_semantic": np.asarray(x_semantic, dtype=np.float64).tolist(),
        "x_structural": np.asarray(x_structural, dtype=np.float64).tolist(),
        "adjacency": np.asarray(adjacency, dtype=np.float64).tolist(),
    }
    if loop_id:
        obj["id"] = loop_id
    return obj


def sample_to_wire(sample) -> Dict[str, Any]:
    """A :class:`~repro.dataset.types.LoopSample` -> wire loop object."""
    return encode_loop(
        sample.x_semantic, sample.x_structural, sample.adjacency,
        loop_id=sample.sample_id,
    )


# ---------------------------------------------------------------------------
# worker IPC protocol (the serving fleet)
# ---------------------------------------------------------------------------
#
# The multi-process fleet (:mod:`repro.serve.supervisor`) speaks a tiny
# framed protocol over ``multiprocessing.Connection`` pipes.  Every frame is
# a 3-tuple ``(kind, req_id, payload)``:
#
# ==============  =======================  ================================
# kind            payload (request)        payload (reply)
# ==============  =======================  ================================
# ``predict``     {"items": [...],         list of int labels
#                  "precision": tier or
#                  None (engine default)}
# ``ping``        None                     worker info dict (pid, shard...)
# ``reload``      {name: ndarray} params   worker info dict
# ``stats``       None                     EngineStats dict
# ``shutdown``    None                     None (worker exits after reply)
# ==============  =======================  ================================
#
# Replies use kind ``ok`` or ``err`` (payload = message string).  The pipe
# pickles frames, so arrays travel as numpy objects — no JSON round-trip on
# the hot path.  ``check_frame`` guards both directions: a malformed frame
# raises :class:`WireError` rather than crashing the peer's loop.

IPC_PREDICT = "predict"
IPC_PING = "ping"
IPC_RELOAD = "reload"
IPC_STATS = "stats"
IPC_SHUTDOWN = "shutdown"
IPC_OK = "ok"
IPC_ERR = "err"

#: frame kinds a worker accepts
IPC_REQUEST_KINDS = (IPC_PREDICT, IPC_PING, IPC_RELOAD, IPC_STATS,
                     IPC_SHUTDOWN)
#: frame kinds the supervisor-side handle accepts back
IPC_REPLY_KINDS = (IPC_OK, IPC_ERR)


def make_frame(kind: str, req_id: int, payload: Any = None) -> Tuple:
    """Build one IPC frame; the only constructor either peer uses."""
    return (kind, req_id, payload)


def check_frame(obj: Any, expect: Sequence[str]) -> Tuple[str, int, Any]:
    """Validate a received frame -> ``(kind, req_id, payload)``.

    ``expect`` is the set of kinds legal in this direction.  Raises
    :class:`WireError` on anything else — the receiving loop treats that as
    a protocol violation from a confused peer, not a crash.
    """
    if not isinstance(obj, tuple) or len(obj) != 3:
        raise WireError(
            f"ipc: expected a (kind, req_id, payload) frame, got "
            f"{type(obj).__name__}"
        )
    kind, req_id, payload = obj
    if kind not in expect:
        raise WireError(f"ipc: unexpected frame kind {kind!r}")
    if not isinstance(req_id, int):
        raise WireError(f"ipc: req_id must be int, got {type(req_id).__name__}")
    return kind, req_id, payload
