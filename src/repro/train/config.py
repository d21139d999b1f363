"""Training configuration.

The paper's settings (Section IV-B): 200 epochs, learning rate 1e-5,
softmax loss with temperature 0.5, SortPooling k = 135, NCC batch size 32.
``TrainConfig.paper()`` reproduces them; ``TrainConfig.fast()`` is the
CPU-friendly default used by the benchmark harness (fewer epochs, a higher
learning rate to converge within them, a smaller SortPooling k matched to
our sub-PEG sizes) — EXPERIMENTS.md records both.

The training route is not configurable: each adapter has one (see
:mod:`repro.train.adapters`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass
class TrainConfig:
    epochs: int = 30
    lr: float = 1e-3
    batch_size: int = 32
    temperature: float = 0.5
    sortpool_k: int = 16
    seed: int = 17
    max_train_samples: int = 0        # 0 = use everything
    eval_every: int = 1               # record curves every N epochs
    grad_clip: float = 5.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0.0 < self.lr:
            raise ConfigError("lr must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")

    @classmethod
    def paper(cls) -> "TrainConfig":
        """The paper-fidelity settings (hours on CPU; use on a beefy box)."""
        return cls(epochs=200, lr=1e-5, batch_size=32, sortpool_k=135)

    @classmethod
    def fast(cls, seed: int = 17) -> "TrainConfig":
        return cls(epochs=50, lr=1.5e-3, batch_size=32, sortpool_k=16, seed=seed)

    @classmethod
    def smoke(cls, seed: int = 17) -> "TrainConfig":
        """Minimal settings for unit tests."""
        return cls(epochs=2, lr=1e-3, batch_size=8, sortpool_k=8, seed=seed)
