"""The four meta-embedding constructions.

* ``concatenate``       -- weighted concatenation of per-set normalized vectors
* ``svd_reduce``        -- low-rank compression of that concatenation
* ``train_latent``      -- meta-vectors that predict every set through one
                           linear map per set, over the shared vocabulary
* ``train_latent_union``-- the same objective over the vocabulary union, with
                           each set's missing vectors learned as parameters

The last two share one objective: for word w with meta-vector x and
per-set targets t_i,

    sum_i gamma_i * ||M_i x - t_i||^2  +  l2 * sum_i ||M_i||_F^2

Over the shared vocabulary its infimum is closed-form: scaling x up and
the maps down drives the penalty to 0, and the data term is a rank-dim
fit of [sqrt(gamma_1) T_1 ...] (Eckart-Young), which ``train_latent``
returns.  ``train_latent_union`` minimizes it by mini-batch AdaGrad.
Losses are reported as per-word means, excluding the penalty term.
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
    shared = alignment.presence.all(axis=0)
    blocks = []
    for s in sets:
        matrix = s.matrix
        if s.name in column_normalize:
            matrix = normalize_columns(matrix)
        rows = normalize_rows(matrix[alignment.rows_for(s)[shared]])
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


def train_latent(
    sets: list[EmbeddingSet],
    alignment: VocabAlignment,
    weights: dict[str, float],
    dim: int = DEFAULT_DIM,
    config: TrainConfig | None = None,
) -> tuple[EmbeddingSet, dict[str, np.ndarray], TrainReport]:
    """Meta-vectors over the shared vocabulary, in closed form.

    With ``u s v^T`` the rank-``dim`` truncated SVD of the
    sqrt(gamma)-weighted hstack of the sets' shared rows, returns the
    meta-embeddings ``u s`` (named ``latent``), the maps from the meta
    space into each set's space keyed by set name (the set's rows of
    ``v`` over sqrt(gamma); set dim x meta dim), and a report of the
    per-word loss with no epochs.  ``config`` is not read.  Raises
    ``ValueError`` when ``dim`` exceeds the rank of the hstack.
    """
    if not alignment.intersection:
        raise ValueError("empty shared vocabulary")
    shared = alignment.presence.all(axis=0)
    gammas = [_set_weight(weights, s.name) for s in sets]
    targets = [s.matrix[alignment.rows_for(s)[shared]] for s in sets]
    result = truncated_svd(np.hstack([np.sqrt(g) * t for g, t in zip(gammas, targets)]), dim)
    meta = result.u_d * result.singular_values
    bounds = np.cumsum([0, *(s.dim for s in sets)])
    maps = [result.v_d[a:b] / np.sqrt(g) for a, b, g in zip(bounds, bounds[1:], gammas)]
    loss, *_ = prediction_loss_grads(meta, maps, targets, gammas, 0.0)
    report = TrainReport(final_loss=loss / len(meta))
    maps_by_name = {s.name: m for s, m in zip(sets, maps)}
    return EmbeddingSet(LATENT, alignment.intersection, meta), maps_by_name, report


# A diverging run overflows to inf or nan; the epoch check names that
# instead of numpy's own warnings.
@np.errstate(over="ignore", invalid="ignore")
def train_latent_union(
    sets: list[EmbeddingSet],
    alignment: VocabAlignment,
    weights: dict[str, float],
    dim: int = DEFAULT_DIM,
    config: TrainConfig | None = None,
) -> tuple[EmbeddingSet, list[EmbeddingSet], dict[str, np.ndarray], TrainReport]:
    """Learn meta-vectors over the vocabulary union by mini-batch AdaGrad.

    Meta-vectors and maps start from small random values.  Words
    missing from a set get randomly initialized vectors in that set's
    space which are updated jointly with them; vectors of known words
    are never modified.  Raises ``ValueError`` at the first epoch whose
    loss is not finite.  Returns the meta-embeddings (named
    ``latent_union``), each input set extended to the union vocabulary,
    the learned maps as in ``train_latent``, and the training report.
    """
    if config is None:
        config = TrainConfig.union_defaults()
    if len(sets) < 2:
        raise ValueError(f"need at least 2 embedding sets, got {len(sets)}")
    gammas = [_set_weight(weights, s.name) for s in sets]
    vocab = alignment.union
    rng = seeded_rng(config.seed)
    meta = rng.uniform(-INIT_RANGE, INIT_RANGE, (len(vocab), dim))
    maps = [rng.uniform(-INIT_RANGE, INIT_RANGE, (s.dim, dim)) for s in sets]
    targets, trainable = [], []
    for s in sets:
        rows = alignment.rows_for(s)
        missing = rows < 0
        t = s.matrix[rows]  # rows of -1 are placeholders, drawn next
        t[missing] = rng.uniform(-INIT_RANGE, INIT_RANGE, (int(missing.sum()), s.dim))
        targets.append(t)
        trainable.append(missing)

    lr, eps, n = config.learning_rate, config.adagrad_epsilon, len(vocab)
    meta_accum = np.zeros_like(meta)
    map_accums = [np.zeros_like(m) for m in maps]
    target_accums = [np.zeros_like(t) for t in targets]
    report = TrainReport()
    for epoch in range(config.epochs):
        epoch_loss = 0.0
        for batch in minibatches(n, config.batch_size, config.seed, epoch):
            masks = [m[batch] for m in trainable]
            loss, g_meta, g_maps, g_targets = prediction_loss_grads(
                meta[batch], maps, [t[batch] for t in targets], gammas,
                config.l2_weight, masks,
            )
            epoch_loss += loss
            meta[batch], meta_accum[batch] = adagrad_update(
                meta[batch], g_meta, meta_accum[batch], lr, eps
            )
            for i in range(len(maps)):
                maps[i], map_accums[i] = adagrad_update(
                    maps[i], g_maps[i], map_accums[i], lr, eps
                )
            for i, mask in enumerate(masks):
                rows = batch[mask]
                if rows.size:
                    targets[i][rows], target_accums[i][rows] = adagrad_update(
                        targets[i][rows], g_targets[i][mask], target_accums[i][rows],
                        lr, eps,
                    )
            report.steps += 1
        report.epoch_losses.append(epoch_loss / n)
        if not np.isfinite(epoch_loss):
            raise ValueError(f"training diverged: epoch {epoch + 1} loss is {epoch_loss}")
        if loss_plateaued(report.epoch_losses):
            break
    report.final_loss = report.epoch_losses[-1]
    extended = [EmbeddingSet(s.name, vocab, t) for s, t in zip(sets, targets)]
    maps_by_name = {s.name: m for s, m in zip(sets, maps)}
    return EmbeddingSet(LATENT_UNION, vocab, meta), extended, maps_by_name, report
