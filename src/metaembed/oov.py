"""Extend embedding sets to the full vocabulary union.

A word missing from one set can be filled three ways:

* ``random``    -- a seeded uniform random vector
* ``average``   -- the mean of the set's known vectors
* ``projected`` -- the element-wise mean of the word's vectors from the
                   sets that know it, each mapped into the target space
                   by a learned linear projection

Projections are fitted per (source, target) pair on the two sets' shared
words as the ridge regression

    min_M ||X M^T - Y||^2 + l2 * ||M||^2

with X and Y the shared words' source and target rows.  The penalty
counts once over all shared words.  The objective is convex, so the fit
is its closed-form minimizer, from one least-squares solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import EmbeddingSet
from .optimizer import INIT_RANGE, TrainConfig, seeded_rng

# Not called here; perfbench/child.py wraps these names in this module.
from .optimizer import adagrad_update, loss_plateaued, minibatches  # noqa: F401
from .vocab import VocabAlignment, align

RANDOM = "random"
AVERAGE = "average"
PROJECTED = "projected"
STRATEGIES = (RANDOM, AVERAGE, PROJECTED)


@dataclass(frozen=True)
class ProjectionMap:
    """A learned linear map between two embedding spaces.

    ``matrix`` has shape (target dim, source dim), so a source vector v
    maps to ``matrix @ v``.
    """

    source_set: str
    target_set: str
    matrix: np.ndarray
    train_loss: float


def projection_loss_grad(
    m: np.ndarray, source_rows: np.ndarray, target_rows: np.ndarray, l2_weight: float
) -> tuple[float, np.ndarray]:
    """Summed squared error of ``source @ m.T`` against targets, plus
    its gradient in ``m`` (including the ``2*l2*m`` penalty term)."""
    residual = source_rows @ m.T - target_rows
    loss = float(np.sum(residual * residual))
    grad = 2.0 * (residual.T @ source_rows) + 2.0 * l2_weight * m
    return loss, grad


def train_projection(
    source: EmbeddingSet, target: EmbeddingSet, config: TrainConfig | None = None
) -> ProjectionMap:
    """Fit a linear map from ``source`` space to ``target`` space on the
    words the two sets share.

    Only ``config.l2_weight`` is read.  Stacking ``sqrt(l2) * I`` under
    the source rows (and zeros under the targets) turns the ridge
    problem into one least-squares solve, without forming ``X^T X``.
    ``train_loss`` is the per-word squared error at the solution.
    """
    if config is None:
        config = TrainConfig.projection_defaults()
    shared = sorted(set(source.words) & set(target.words))
    if len(shared) < source.dim:
        raise ValueError(
            f"sets {source.name!r} and {target.name!r} share {len(shared)} words; "
            f"need at least {source.dim} for a meaningful fit"
        )
    x = source.matrix[[source.index[w] for w in shared]]
    y = target.matrix[[target.index[w] for w in shared]]

    a = np.vstack([x, np.sqrt(config.l2_weight) * np.eye(source.dim)])
    b = np.vstack([y, np.zeros((source.dim, target.dim))])
    m = np.linalg.lstsq(a, b, rcond=None)[0].T
    loss, _ = projection_loss_grad(m, x, y, config.l2_weight)
    return ProjectionMap(
        source_set=source.name, target_set=target.name, matrix=m,
        train_loss=loss / len(shared),
    )


def fill_oov(
    target: EmbeddingSet,
    others: list[EmbeddingSet],
    projections: list[ProjectionMap],
    alignment: VocabAlignment,
    strategy: str,
    seed: int = 0,
) -> EmbeddingSet:
    """Extend ``target`` to the union vocabulary of ``alignment``.

    Known words keep their vectors bit for bit; rows are gathered
    through ``alignment.rows_for``, so every set passed must be one
    that was aligned.  For ``projected``, a missing word is filled with
    the mean of its projections from exactly the sets that contain it,
    so a projection into the target space is required for every other
    set; each source's rows are projected with one matrix product.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    by_source = {
        p.source_set: p for p in projections if p.target_set == target.name
    }
    if strategy == PROJECTED:
        missing = [o.name for o in others if o.name not in by_source]
        if missing:
            raise ValueError(
                f"no projection into {target.name!r} from: {missing}"
            )

    union = alignment.union
    rows = alignment.rows_for(target)
    known = rows >= 0
    out = np.empty((len(union), target.dim))
    out[known] = target.matrix[rows[known]]
    gaps = np.flatnonzero(~known)
    if strategy == RANDOM:
        out[gaps] = seeded_rng(seed).uniform(
            -INIT_RANGE, INIT_RANGE, (len(gaps), target.dim)
        )
    elif strategy == AVERAGE:
        out[gaps] = target.matrix.mean(axis=0)
    else:
        total = np.zeros((len(gaps), target.dim))
        count = np.zeros(len(gaps))
        for o in others:
            source_rows = alignment.rows_for(o)[gaps]
            has = source_rows >= 0
            total[has] += o.matrix[source_rows[has]] @ by_source[o.name].matrix.T
            count += has
        if (count == 0).any():
            word = union[gaps[np.flatnonzero(count == 0)[0]]]
            raise ValueError(f"{word!r} is in the union but known to no source set")
        out[gaps] = total / count[:, None]
    return EmbeddingSet(name=target.name, words=union, matrix=out)


def extend_all(
    sets: list[EmbeddingSet],
    config: TrainConfig | None = None,
    strategy: str = PROJECTED,
) -> list[EmbeddingSet]:
    """Extend every set to the vocabulary union.

    For ``projected`` this fits all pairwise projections first; the
    fits are independent of each other.
    """
    if config is None:
        config = TrainConfig.projection_defaults()
    alignment = align(sets)
    extended = []
    for target in sets:
        others = [s for s in sets if s.name != target.name]
        projections = []
        if strategy == PROJECTED:
            projections = [train_projection(s, target, config) for s in others]
        extended.append(
            fill_oov(target, others, projections, alignment, strategy, config.seed)
        )
    return extended
