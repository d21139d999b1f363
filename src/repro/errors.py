"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Malformed MiniC AST or LinearIR (failed verification, bad operands)."""


class LoweringError(IRError):
    """The AST -> LinearIR lowering encountered an unsupported construct."""


class InterpreterError(ReproError):
    """Runtime failure while executing LinearIR (bad memory access, etc.)."""


class ProfilingError(ReproError):
    """Dynamic profiling could not produce a dependence report."""


class GraphError(ReproError):
    """Invalid PEG construction or query."""


class EmbeddingError(ReproError):
    """Vocabulary / embedding failure (unknown statement, bad dimensions)."""


class ModelError(ReproError):
    """Neural-network model misconfiguration or shape mismatch."""


class DatasetError(ReproError):
    """Dataset assembly failure (bad split, unbalanced classes, etc.)."""


class ToolError(ReproError):
    """A tool baseline (pluto_lite / autopar_lite / discopop_cls) failed."""


class ConfigError(ReproError):
    """Invalid experiment or training configuration."""


class EngineError(ReproError):
    """Batched inference runtime failure (bad input kind, bad batch size)."""


class AdvisorError(ReproError):
    """Advice-plan construction, transformation, or validation failure."""


class ServeError(ReproError):
    """Inference-service failure (batcher shutdown, internal error)."""


class WireError(ServeError):
    """Malformed request payload (maps to HTTP 400)."""


class GraphValidationError(WireError):
    """A decodable request whose graph fails structural validation.

    Distinct from :class:`WireError` (undecodable JSON / missing fields /
    non-numeric data, HTTP 400): the payload parsed fine but the decoded
    arrays violate a model-input invariant — wrong shapes, NaN/Inf, an
    asymmetric or non-binary adjacency, too many nodes.  Maps to HTTP 422;
    ``findings`` carries machine-readable lint findings (plain dicts,
    JSON-ready) for the response payload.
    """

    def __init__(self, message: str, findings=None) -> None:
        super().__init__(message)
        self.findings = list(findings or [])


class WorkerExitedError(ServeError):
    """An engine worker process died or hung mid-request.

    Raised supervisor-side (:mod:`repro.serve.supervisor`) when the pipe to
    a worker breaks, the worker's process is found dead, or an IPC request
    exceeds its timeout.  The fleet retries the affected batch on a
    replacement worker up to ``worker_retries`` times before letting this
    escape to the client as a 500 — the chaos suite asserts it never does
    for a single worker kill.
    """


class QueueFullError(ServeError):
    """Admission control rejected the request: the queue is at capacity.

    Maps to HTTP 429; ``retry_after_s`` is the suggested client back-off,
    surfaced as a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after_s: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DeadlineExceededError(ServeError):
    """The request's deadline expired before a response could be served.

    Raised both for requests shed while still queued and for requests whose
    batch finished after the deadline — a deadline is a promise to never
    serve late.  Maps to HTTP 504.
    """
