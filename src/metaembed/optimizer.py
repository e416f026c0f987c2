"""Training settings, training reports, seeded randomness, and AdaGrad.

Every fit in the package is closed-form, so production code reads only
``TrainConfig``, ``TrainReport``, and ``seeded_rng`` and ``INIT_RANGE``
for the ``random`` fill strategy.  The mini-batch AdaGrad pieces
(``adagrad_update``, ``minibatches``, ``loss_plateaued``) have no
production caller; they stay importable from ``ensemble`` and ``oov``,
where the benchmark's tracer looks them up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative improvement of the epoch-mean loss over this many epochs
# below which training stops.
EARLY_STOP_WINDOW = 5
EARLY_STOP_REL_TOL = 1e-5

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
