"""Batched sub-PEG inference runtime.

Serving-oriented layer over the paper's models: pack many loop sub-PEGs
into one block-diagonal forward pass (:class:`GraphBatch` + the models'
``forward_batch`` paths), memoize expensive feature extraction by content
hash (:class:`FeatureCache`), and expose both through
:meth:`Engine.predict_many`.  The forward itself is trace-compiled by
default (:mod:`repro.runtime.tape`): one recorded :class:`Tape` of
primitive ops per batch-shape class, executed by a fusing, buffer-reusing
interpreter that is byte-identical to the interpreted path.  See
``docs/RUNTIME.md`` for the API guide and measured throughput.
"""

from repro.runtime.batch import GraphBatch, iter_chunks
from repro.runtime.engine import Engine, EngineStats, GraphInput
from repro.runtime.features import FeatureCache, embedder_fingerprint
from repro.runtime.qtape import (
    QuantizedTape,
    quantize_tape,
    record_activation_maxima,
)
from repro.runtime.tape import (
    Tape,
    TapeExecutor,
    TapeOp,
    format_tape,
    record_tape,
)

__all__ = [
    "Engine",
    "EngineStats",
    "FeatureCache",
    "GraphBatch",
    "GraphInput",
    "QuantizedTape",
    "Tape",
    "TapeExecutor",
    "TapeOp",
    "embedder_fingerprint",
    "format_tape",
    "iter_chunks",
    "quantize_tape",
    "record_activation_maxima",
    "record_tape",
]
