"""Classification metrics."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import DatasetError


def _validate(y_true, y_pred) -> Tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise DatasetError(
            f"shape mismatch: y_true {y_true.shape} vs y_pred {y_pred.shape}"
        )
    if y_true.size == 0:
        raise DatasetError("empty label arrays")
    return y_true, y_pred


def accuracy(y_true, y_pred) -> float:
    y_true, y_pred = _validate(y_true, y_pred)
    return float((y_true == y_pred).mean())
