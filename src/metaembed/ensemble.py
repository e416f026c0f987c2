"""The four meta-embedding constructions.

* ``concatenate``       -- weighted concatenation of per-set normalized vectors
* ``svd_reduce``        -- low-rank compression of that concatenation
* ``train_latent``      -- meta-vectors learned to predict every set through
                           one linear map per set, over the shared vocabulary
* ``train_latent_union``-- the same objective over the vocabulary union, with
                           each set's missing vectors learned as parameters

The two trained constructions share one objective: for word w with
meta-vector x and per-set targets t_i,

    sum_i gamma_i * ||M_i x - t_i||^2  +  l2 * sum_i ||M_i||_F^2

minimized by mini-batch AdaGrad.  Losses are summed within a batch and
reported as per-word means (excluding the penalty term).
"""

from __future__ import annotations

import numpy as np

from .io import EmbeddingSet
from .linalg import normalize_columns, normalize_rows, truncated_svd
from .optimizer import (
    INIT_RANGE,
    TrainConfig,
    TrainReport,
    adagrad_update,
    loss_plateaued,
    minibatches,
    seeded_rng,
)
from .vocab import VocabAlignment

CONCAT = "concat"
SVD = "svd"
LATENT = "latent"
LATENT_UNION = "latent_union"
METHODS = (CONCAT, SVD, LATENT, LATENT_UNION)

DEFAULT_DIM = 200


def _set_weight(weights: dict[str, float], name: str) -> float:
    if name not in weights:
        raise ValueError(f"no weight given for set {name!r}")
    w = float(weights[name])
    if w <= 0:
        raise ValueError(f"weight for set {name!r} must be positive, got {w}")
    return w


def _vocab_rows(name: str, index: dict[str, int], vocab: list[str]) -> list[int]:
    missing = [w for w in vocab if w not in index]
    if missing:
        raise ValueError(
            f"set {name!r} is missing {len(missing)} aligned word(s), "
            f"e.g. {missing[0]!r}"
        )
    return [index[w] for w in vocab]


def concatenate(
    sets: list[EmbeddingSet],
    weights: dict[str, float],
    alignment: VocabAlignment,
    column_normalize: list[str] = (),
) -> EmbeddingSet:
    """Weighted concatenation over the shared vocabulary, named ``concat``.

    Each set's matrix is optionally normalized per dimension (for sets
    named in ``column_normalize``), then each vector is L2-normalized
    and scaled by the set's weight.  The output dimensionality is the
    sum of the input dimensionalities, and the inner product of two
    output rows decomposes as sum_s weight_s^2 * <u_s, v_s> over the
    normalized per-set vectors.
    """
    unknown = [n for n in column_normalize if n not in {s.name for s in sets}]
    if unknown:
        raise ValueError(f"column_normalize names unknown sets: {unknown}")
    vocab = alignment.intersection
    if not vocab:
        raise ValueError("empty shared vocabulary")
    blocks = []
    for s in sets:
        matrix = s.matrix
        if s.name in column_normalize:
            matrix = normalize_columns(matrix)
        rows = normalize_rows(matrix[_vocab_rows(s.name, s.index, vocab)])
        blocks.append(_set_weight(weights, s.name) * rows)
    return EmbeddingSet(name=CONCAT, words=vocab, matrix=np.hstack(blocks))


def svd_reduce(conc: EmbeddingSet, dim: int = DEFAULT_DIM) -> EmbeddingSet:
    """Compress a concatenation into its leading left-singular subspace.

    Rows of the output, named ``svd``, are the L2-normalized rows of the
    top-``dim`` left-singular vectors of the concatenation matrix.
    """
    if conc.name != CONCAT:
        raise ValueError(f"expected a {CONCAT!r} input, got {conc.name!r}")
    result = truncated_svd(conc.matrix, dim)
    return EmbeddingSet(name=SVD, words=conc.words, matrix=normalize_rows(result.u_d))


def prediction_loss_grads(
    meta_rows: np.ndarray,
    maps: list[np.ndarray],
    target_rows: list[np.ndarray],
    gammas: list[float],
    l2_weight: float,
    trainable_rows: list[np.ndarray] | None = None,
):
    """Loss and gradients of the shared objective for one batch of words.

    Returns ``(data_loss, grad_meta, grad_maps, grad_targets)``.
    ``data_loss`` is the summed squared error over the batch (penalty
    excluded); ``grad_maps`` includes the penalty term ``2*l2*M``.
    When ``trainable_rows`` masks are given, ``grad_targets[i]`` holds
    the gradient for each set's trainable target rows (zero elsewhere);
    otherwise it is None.
    """
    data_loss = 0.0
    grad_meta = np.zeros_like(meta_rows)
    grad_maps = []
    grad_targets = [] if trainable_rows is not None else None
    for i, (m, targets) in enumerate(zip(maps, target_rows)):
        gamma = gammas[i]
        residual = meta_rows @ m.T - targets
        data_loss += gamma * float(np.sum(residual * residual))
        grad_meta += 2.0 * gamma * (residual @ m)
        grad_maps.append(2.0 * gamma * (residual.T @ meta_rows) + 2.0 * l2_weight * m)
        if grad_targets is not None:
            g = -2.0 * gamma * residual
            g[~trainable_rows[i]] = 0.0
            grad_targets.append(g)
    return data_loss, grad_meta, grad_maps, grad_targets


def _run_adagrad(
    meta: np.ndarray,
    maps: list[np.ndarray],
    targets: list[np.ndarray],
    gammas: list[float],
    config: TrainConfig,
    trainable: list[np.ndarray] | None = None,
) -> TrainReport:
    """Optimize meta, maps, and any trainable target rows in place."""
    n = meta.shape[0]
    meta_accum = np.zeros_like(meta)
    map_accums = [np.zeros_like(m) for m in maps]
    target_accums = None
    if trainable is not None:
        target_accums = [np.zeros_like(t) for t in targets]

    report = TrainReport()
    for epoch in range(config.epochs):
        epoch_loss = 0.0
        for batch in minibatches(n, config.batch_size, config.seed, epoch):
            batch_targets = [t[batch] for t in targets]
            batch_masks = None
            if trainable is not None:
                batch_masks = [mask[batch] for mask in trainable]
            loss, g_meta, g_maps, g_targets = prediction_loss_grads(
                meta[batch], maps, batch_targets, gammas, config.l2_weight, batch_masks
            )
            epoch_loss += loss
            meta[batch], meta_accum[batch] = adagrad_update(
                meta[batch], g_meta, meta_accum[batch],
                config.learning_rate, config.adagrad_epsilon,
            )
            for i in range(len(maps)):
                maps[i], map_accums[i] = adagrad_update(
                    maps[i], g_maps[i], map_accums[i],
                    config.learning_rate, config.adagrad_epsilon,
                )
            if trainable is not None:
                for i in range(len(targets)):
                    rows = batch[batch_masks[i]]
                    if rows.size == 0:
                        continue
                    grads = g_targets[i][batch_masks[i]]
                    targets[i][rows], target_accums[i][rows] = adagrad_update(
                        targets[i][rows], grads, target_accums[i][rows],
                        config.learning_rate, config.adagrad_epsilon,
                    )
            report.steps += 1
        report.epoch_losses.append(epoch_loss / n)
        if loss_plateaued(report.epoch_losses):
            break
    report.final_loss = report.epoch_losses[-1]
    return report


def train_latent(
    sets: list[EmbeddingSet],
    alignment: VocabAlignment,
    weights: dict[str, float],
    dim: int = DEFAULT_DIM,
    config: TrainConfig | None = None,
) -> tuple[EmbeddingSet, dict[str, np.ndarray], TrainReport]:
    """Learn meta-vectors over the shared vocabulary.

    Meta-vectors and per-set maps start from small random values and are
    trained to reproduce every set's vector for every shared word.
    Returns the meta-embeddings (named ``latent``), the learned maps
    from the meta space into each set's space keyed by set name (shape
    set dim x meta dim), and the training report.
    """
    if config is None:
        config = TrainConfig()
    vocab = alignment.intersection
    if not vocab:
        raise ValueError("empty shared vocabulary")
    gammas = [_set_weight(weights, s.name) for s in sets]
    targets = [s.matrix[_vocab_rows(s.name, s.index, vocab)] for s in sets]

    rng = seeded_rng(config.seed)
    meta = rng.uniform(-INIT_RANGE, INIT_RANGE, (len(vocab), dim))
    maps = [rng.uniform(-INIT_RANGE, INIT_RANGE, (s.dim, dim)) for s in sets]

    report = _run_adagrad(meta, maps, targets, gammas, config)
    maps_by_set = {s.name: m for s, m in zip(sets, maps)}
    return EmbeddingSet(name=LATENT, words=vocab, matrix=meta), maps_by_set, report


def train_latent_union(
    sets: list[EmbeddingSet],
    alignment: VocabAlignment,
    weights: dict[str, float],
    dim: int = DEFAULT_DIM,
    config: TrainConfig | None = None,
) -> tuple[EmbeddingSet, list[EmbeddingSet], dict[str, np.ndarray], TrainReport]:
    """Learn meta-vectors over the vocabulary union.

    Words missing from a set get randomly initialized vectors in that
    set's space which are updated jointly with the meta-vectors; vectors
    of known words are never modified.  Returns the meta-embeddings
    (named ``latent_union``), each input set extended to the union
    vocabulary, the learned maps as in ``train_latent``, and the
    training report.
    """
    if config is None:
        config = TrainConfig.union_defaults()
    if len(sets) < 2:
        raise ValueError(f"need at least 2 embedding sets, got {len(sets)}")
    vocab = alignment.union
    if not vocab:
        raise ValueError("empty vocabulary union")
    gammas = [_set_weight(weights, s.name) for s in sets]

    rng = seeded_rng(config.seed)
    meta = rng.uniform(-INIT_RANGE, INIT_RANGE, (len(vocab), dim))
    maps = [rng.uniform(-INIT_RANGE, INIT_RANGE, (s.dim, dim)) for s in sets]

    targets = []
    trainable = []
    for s in sets:
        present = alignment.presence[alignment.set_position(s.name)]
        t = np.zeros((len(vocab), s.dim))
        known = [s.index[w] for w, p in zip(vocab, present) if p]
        t[present] = s.matrix[known]
        n_missing = int((~present).sum())
        if n_missing:
            t[~present] = rng.uniform(-INIT_RANGE, INIT_RANGE, (n_missing, s.dim))
        targets.append(t)
        trainable.append(~present)

    report = _run_adagrad(meta, maps, targets, gammas, config, trainable)
    extended = [
        EmbeddingSet(name=s.name, words=vocab, matrix=t)
        for s, t in zip(sets, targets)
    ]
    maps_by_set = {s.name: m for s, m in zip(sets, maps)}
    meta_emb = EmbeddingSet(name=LATENT_UNION, words=vocab, matrix=meta)
    return meta_emb, extended, maps_by_set, report
