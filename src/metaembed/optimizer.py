"""Training settings, training reports and seeded randomness.

Every fit in the package is closed-form.  ``TrainConfig`` holds the
settings the CLI and library accept, ``TrainReport`` the state a fit
returns, and ``seeded_rng`` with ``INIT_RANGE`` draws the vectors of the
``random`` fill strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INIT_RANGE = 0.05  # the random fill draws from uniform [-INIT_RANGE, INIT_RANGE]


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    ``train_latent`` and ``train_latent_union`` are closed forms that read
    no field; ``union_defaults`` keeps the values their former AdaGrad runs
    were tuned to.  ``projection_defaults`` gives the values for pairwise
    projections, whose closed-form fit reads only ``l2_weight``, and the
    ``random`` fill strategy reads only ``seed``.
    """

    batch_size: int = 200
    learning_rate: float = 0.005
    l2_weight: float = 5e-4
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be > 0 and finite, got {self.learning_rate}")
        if not 0 <= self.l2_weight < np.inf:
            raise ValueError(f"l2_weight must be >= 0 and finite, got {self.l2_weight}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")

    @classmethod
    def projection_defaults(cls, **overrides) -> "TrainConfig":
        """Defaults for pairwise cross-set projections."""
        params = dict(batch_size=200, learning_rate=0.01, l2_weight=5e-8)
        params.update(overrides)
        return cls(**params)

    @classmethod
    def union_defaults(cls, **overrides) -> "TrainConfig":
        """Defaults once tuned for AdaGrad training over the vocabulary union."""
        params = dict(batch_size=2000, learning_rate=0.005, l2_weight=5e-4)
        params.update(overrides)
        return cls(**params)


@dataclass
class TrainReport:
    """Per-word loss and state of one fit.

    The fits are closed-form, so ``epoch_losses`` stays empty and ``steps``
    0.  ``start`` names which rows fitted the union maps (``"shared"``, the
    words every set holds, or ``"union"``, every word with missing vectors
    as zeros); other fits leave it empty.
    """

    epoch_losses: list[float] = field(default_factory=list)
    final_loss: float = float("nan")
    steps: int = 0
    start: str = ""


def seeded_rng(seed: int, *streams: int) -> np.random.Generator:
    """Deterministic generator for ``seed`` plus optional sub-stream ids."""
    return np.random.default_rng([seed % 2**64, *streams])


# perfbench/child.py looks these names up in ``ensemble`` and ``oov`` to
# wrap them in traced runs, and never calls them.  The benchmark repair
# (ROADMAP item 1) deletes them together with their WRAPS entries.
adagrad_update = minibatches = loss_plateaued = None
