"""NCC baseline: Neural Code Comprehension (Ben-Nun et al. 2018).

"NCC uses the inst2vec embedding with two stacked LSTM.  Each layer had 200
units [...].  We used the NCC model with dense layer size of 16 and training
batch size of 32." (Section IV-C)

Input: the loop's flat statement sequence embedded with inst2vec (one vector
per statement).  Two stacked 200-unit LSTMs, a 16-unit dense layer with
ReLU, and a 2-class head.  Sequences longer than ``max_length`` statements
are truncated (LLVM-IR loops in the original are similarly capped).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ModelError
from repro.nn.layers import Dense, Module
from repro.nn.rnn import LSTM
from repro.nn.tensor import Tensor
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


@dataclass
class NCCConfig:
    embedding_dim: int = 200
    lstm_units: int = 200
    dense_units: int = 16
    num_classes: int = 2
    max_length: int = 160


class NCC(Module):
    """inst2vec + 2xLSTM + dense classifier."""

    def __init__(self, config: NCCConfig, rng: RngLike = None) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        rngs = spawn_rngs(rng, 4)
        self.config = config
        self.lstm1 = LSTM(config.embedding_dim, config.lstm_units, rng=rngs[0])
        self.lstm2 = LSTM(config.lstm_units, config.lstm_units, rng=rngs[1])
        self.dense = Dense(
            config.lstm_units, config.dense_units, activation="relu", rng=rngs[2]
        )
        self.classifier = Dense(config.dense_units, config.num_classes, rng=rngs[3])

    def forward_batch(self, sequences: List[np.ndarray]) -> Tensor:
        """Class logits, (batch, classes), from variable-length sequences.

        Pads the batch to its longest (truncated) sequence and runs both
        LSTMs batched — the training-speed path (paper batch size 32).
        """
        if not sequences:
            raise ModelError("empty NCC batch")
        if any(np.ndim(s) != 2 for s in sequences):
            raise ModelError("NCC expects (time, dim) embedded sequences")
        clipped = [s[: self.config.max_length] for s in sequences]
        lengths = np.array([max(1, s.shape[0]) for s in clipped], dtype=np.int64)
        max_len = int(lengths.max())
        batch = len(clipped)
        padded = np.zeros((batch, max_len, self.config.embedding_dim))
        for pos, seq in enumerate(clipped):
            if seq.shape[0] == 0:
                continue
            padded[pos, : seq.shape[0]] = seq

        seq1, _h1 = self.lstm1.forward_batch(Tensor(padded), lengths)
        # seq1 is (time, batch, hidden) -> reorder for the second layer
        time_steps = seq1.shape[0]
        seq1_btf = seq1.reshape(time_steps * batch, self.config.lstm_units)
        # rebuild (batch, time, hidden) by gathering rows t*batch + b
        gather = (
            np.arange(time_steps)[None, :] * batch + np.arange(batch)[:, None]
        ).reshape(-1)
        seq1_bt = seq1_btf.take_rows(gather).reshape(
            batch, time_steps, self.config.lstm_units
        )
        _seq2, h_final = self.lstm2.forward_batch(seq1_bt, lengths)
        return self.classifier(self.dense(h_final))
