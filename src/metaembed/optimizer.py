"""Mini-batch AdaGrad machinery of the union meta-embedding trainer.

The trainer draws its randomness from a single seed, shuffles word
indices into batches once per epoch, and applies a per-parameter
AdaGrad rule.  Epoch-mean losses are tracked so training can stop
early once improvement stalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative improvement of the epoch-mean loss over this many epochs
# below which training stops.
EARLY_STOP_WINDOW = 5
EARLY_STOP_REL_TOL = 1e-5

INIT_RANGE = 0.05  # uniform [-INIT_RANGE, INIT_RANGE] parameter init


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    ``union_defaults`` gives the tuned values for union training, the
    one AdaGrad run.  ``train_latent`` is a closed form that reads no
    field, and ``projection_defaults`` gives the values for pairwise
    projections, whose closed-form fit reads only ``l2_weight``.
    """

    batch_size: int = 200
    learning_rate: float = 0.005
    l2_weight: float = 5e-4
    epochs: int = 100
    seed: int = 0
    adagrad_epsilon: float = 1e-8

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be > 0 and finite, got {self.learning_rate}")
        if not 0 <= self.l2_weight < np.inf:
            raise ValueError(f"l2_weight must be >= 0 and finite, got {self.l2_weight}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.adagrad_epsilon < np.inf:
            raise ValueError(
                f"adagrad_epsilon must be > 0 and finite, got {self.adagrad_epsilon}"
            )

    @classmethod
    def projection_defaults(cls, **overrides) -> "TrainConfig":
        """Defaults for pairwise cross-set projections."""
        params = dict(batch_size=200, learning_rate=0.01, l2_weight=5e-8)
        params.update(overrides)
        return cls(**params)

    @classmethod
    def union_defaults(cls, **overrides) -> "TrainConfig":
        """Defaults for joint training over the vocabulary union."""
        params = dict(batch_size=2000, learning_rate=0.005, l2_weight=5e-4)
        params.update(overrides)
        return cls(**params)


@dataclass
class TrainReport:
    """Per-epoch mean losses and final state of one training run.

    ``start`` names how the union trainer started (``"closed_form"`` or
    ``"random"``) and ``start_loss`` is its per-word loss there.
    """

    epoch_losses: list[float] = field(default_factory=list)
    final_loss: float = float("nan")
    steps: int = 0
    start: str = ""
    start_loss: float = float("nan")


def seeded_rng(seed: int, *streams: int) -> np.random.Generator:
    """Deterministic generator for ``seed`` plus optional sub-stream ids."""
    return np.random.default_rng([seed % 2**64, *streams])


def adagrad_update(
    params: np.ndarray,
    grads: np.ndarray,
    accum: np.ndarray,
    lr: float,
    eps: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One AdaGrad step; returns the updated (params, accum) pair.

    accum' = accum + grads^2
    params' = params - lr * grads / sqrt(accum' + eps)
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    accum = np.asarray(accum, dtype=np.float64)
    if not (params.shape == grads.shape == accum.shape):
        raise ValueError(f"shape mismatch: params {params.shape}, grads {grads.shape}, "
                         f"accum {accum.shape}")
    new_accum = grads * grads  # those operations, in that order, on three fresh arrays
    new_accum += accum  # float addition commutes exactly
    root = new_accum + eps
    np.sqrt(root, out=root)
    new_params = lr * grads
    new_params /= root
    return np.subtract(params, new_params, out=new_params), new_accum


def minibatches(n: int, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Shuffled index batches covering 0..n-1 exactly once.

    The permutation is a deterministic function of (seed, epoch); the
    last batch may be smaller than ``batch_size``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    perm = seeded_rng(seed, epoch).permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


def loss_plateaued(epoch_losses: list[float]) -> bool:
    """True once the epoch-mean loss has stopped improving."""
    if len(epoch_losses) <= EARLY_STOP_WINDOW:
        return False
    prev = epoch_losses[-1 - EARLY_STOP_WINDOW]
    cur = epoch_losses[-1]
    if prev <= 0.0:
        return True
    return (prev - cur) / prev < EARLY_STOP_REL_TOL
