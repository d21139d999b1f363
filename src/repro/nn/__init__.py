"""Minimal tape-based autograd + neural-network stack on numpy.

Stands in for PyTorch in the original pipeline: reverse-mode automatic
differentiation (:mod:`repro.nn.tensor`), layers (Dense, GraphConv, Conv1D,
SortPooling, Dropout, LSTM), optimizers (SGD, Adam), and parameter
serialization.  Gradient correctness is established by finite-difference
property tests in ``tests/nn``.
"""

from repro.nn.tensor import (
    Tensor,
    as_tensor,
    concat,
    stack,
    no_grad,
    is_sparse_matrix,
    sparse_matmul,
)
from repro.nn.batching import (
    block_diagonal_adjacency,
    pad_segments,
    segment_offsets,
)
from repro.nn.functional import (
    softmax,
    dropout_mask,
)
from repro.nn.layers import (
    Module,
    Parameter,
    Dense,
    GraphConv,
    Conv1D,
    MaxPool1D,
    Dropout,
    SortPooling,
    normalized_adjacency,
)
from repro.nn.rnn import LSTM
from repro.nn.optim import SGD, Adam
from repro.nn.init import glorot_uniform, zeros_init
from repro.nn.quantize import (
    PRECISIONS,
    Calibration,
    dequantize,
    fake_quantize,
    int8_matmul,
    quantize,
    symmetric_scale,
)
from repro.nn.serialize import save_params, load_params, load_calibration

__all__ = [
    "Tensor", "as_tensor", "concat", "stack", "no_grad",
    "is_sparse_matrix", "sparse_matmul",
    "block_diagonal_adjacency", "pad_segments", "segment_offsets",
    "softmax", "dropout_mask",
    "Module", "Parameter", "Dense", "GraphConv", "Conv1D", "MaxPool1D",
    "Dropout", "SortPooling", "normalized_adjacency",
    "LSTM",
    "SGD", "Adam",
    "glorot_uniform", "zeros_init",
    "save_params", "load_params", "load_calibration",
    "PRECISIONS", "Calibration",
    "symmetric_scale", "quantize", "dequantize", "fake_quantize",
    "int8_matmul",
]
