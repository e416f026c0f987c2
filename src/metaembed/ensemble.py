"""The four meta-embedding constructions.

* ``concatenate``       -- weighted concatenation of per-set normalized vectors
* ``svd_reduce``        -- low-rank compression of that concatenation
* ``train_latent``      -- meta-vectors that predict every set through one
                           linear map per set, over the shared vocabulary
* ``train_latent_union``-- the same objective over the vocabulary union, with
                           each set's missing vectors derived from their
                           words' meta-vectors

The last two share one objective: for word w with meta-vector x and
per-set targets t_i,

    sum_i gamma_i * ||M_i x - t_i||^2  +  l2 * sum_i ||M_i||_F^2

Over the shared vocabulary its infimum is closed-form: scaling x up and
the maps down drives the penalty to 0, and the data term is a rank-dim
fit of [sqrt(gamma_1) T_1 ...] (Eckart-Young), which ``train_latent``
returns.  ``train_latent_union`` reads that fit as a Gaussian factor model
(Tipping & Bishop's probabilistic PCA): component variances s^2 / n, and
per-entry noise from the discarded spectrum.  It keeps the fit's maps and
gives every word the posterior mean of its meta-vector given the vectors
the sets hold for it: one ridge solve per presence pattern, shifted by
noise over component variance.  Each missing vector is its word's image
under the set's map, which is its conditional mean given the word's
known vectors.  There are no epochs, and no setting is read.  Losses are
reported as per-word means, excluding the penalty term.
"""

from __future__ import annotations

import numpy as np

from .io import EmbeddingSet
from .linalg import min_norm_solve, normalize_columns, normalize_rows, truncated_svd
from .optimizer import TrainConfig, TrainReport

# Not called here; perfbench/child.py wraps these names in this module.
from .optimizer import adagrad_update, loss_plateaued, minibatches, seeded_rng  # noqa: F401
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
    if not 0 < w < np.inf:
        raise ValueError(f"weight for set {name!r} must be positive and finite, got {w}")
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
    data_loss, grad_meta, grad_maps = 0.0, np.zeros_like(meta_rows), []
    grad_targets = None if trainable_rows is None else []
    for i, (m, targets, gamma) in enumerate(zip(maps, target_rows, gammas)):
        residual = meta_rows @ m.T - targets
        data_loss += gamma * float(np.sum(residual * residual))
        grad_meta += 2.0 * gamma * (residual @ m)
        grad_maps.append(2.0 * gamma * (residual.T @ meta_rows) + 2.0 * l2_weight * m)
        if grad_targets is not None:
            grad_targets.append(np.where(trainable_rows[i][:, None], -2.0 * gamma * residual, 0.0))
    return data_loss, grad_meta, grad_maps, grad_targets


def _loss(meta, maps, targets, col_weights):
    """The squared error of ``meta @ maps.T`` against stacked targets, summed
    with gamma as the columns' weight."""
    residual = meta @ maps.T
    residual -= targets
    return float(col_weights @ np.einsum("ij,ij->j", residual, residual))


def _stacking(sets, weights):
    """Each set's gamma, those repeated over its stacked columns, and its block of them."""
    gammas, dims = [_set_weight(weights, s.name) for s in sets], [s.dim for s in sets]
    ends = np.cumsum(dims)
    return gammas, np.repeat(gammas, dims), [slice(a, b) for a, b in zip([0, *ends], ends)]


def _shared_fit(targets, col_weights, dim):
    """``train_latent``'s meta-vectors ``u s`` and stacked maps
    ``v / sqrt(gamma)`` for the rows of ``targets``, and the shift
    sigma^2 n / s^2 of that fit read as a Gaussian factor model: component
    variances s^2 / n, and a noise variance sigma^2 per entry, the
    discarded spectrum's unbiased estimate (||sqrt(gamma) targets||_F^2 -
    sum s^2) / ((n - dim)(sum_i d_i - dim)), clipped at 0 (0 when no
    degree of freedom is left)."""
    root = np.sqrt(col_weights)
    weighted = targets * root
    result = truncated_svd(weighted, dim)
    s = result.singular_values
    n = len(targets)
    dof = (n - dim) * (len(col_weights) - dim)
    noise = max(np.vdot(weighted, weighted) - s @ s, 0.0) / dof if dof else 0.0
    return result.u_d * s, result.v_d / root[:, None], noise * n / (s * s)


def _posterior_means(present, gammas, blocks, maps, shift, targets, col_weights):
    """Each union word's posterior-mean meta-vector given the vectors the sets
    hold for it, the maps fixed: one ``min_norm_solve`` per presence pattern
    of the normal matrix sum_i gamma_i M_i^T M_i plus ``diag(shift)``, whose
    sum_i d_i rows set its rounding noise.  The right-hand sides are one
    product, as ``targets`` reads 0 for each vector a set lacks.  Words every
    set holds are the fit's own sample and take no shift: their normal matrix
    is ``v^T v``, the identity, so they get the fit's ``u s`` up to rounding.
    With no shift each word gets its minimum-norm least-squares meta-vector."""
    meta = targets @ (col_weights[:, None] * maps)
    grams = np.array([gamma * (maps[block].T @ maps[block]) for gamma, block in zip(gammas, blocks)])
    dims = [block.stop - block.start for block in blocks]  # the rows summed into each gram
    patterns, inverse = np.unique(present.T, axis=0, return_inverse=True)
    for j, pattern in enumerate(patterns):
        rows = inverse.reshape(-1) == j
        gram = grams[pattern].sum(axis=0)
        if not pattern.all():
            gram += np.diag(shift)
        meta[rows] = min_norm_solve(gram, meta[rows], pattern @ dims)
    return meta


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
    _, col_weights, blocks = _stacking(sets, weights)
    if not alignment.intersection:
        raise ValueError("empty shared vocabulary")
    shared = alignment.presence.all(axis=0)
    targets = np.hstack([s.matrix[alignment.rows_for(s)[shared]] for s in sets])
    meta, maps, _ = _shared_fit(targets, col_weights, dim)
    report = TrainReport(final_loss=_loss(meta, maps, targets, col_weights) / len(meta))
    maps_by_name = {s.name: maps[block] for s, block in zip(sets, blocks)}
    return EmbeddingSet(LATENT, alignment.intersection, meta), maps_by_name, report


def train_latent_union(
    sets: list[EmbeddingSet],
    alignment: VocabAlignment,
    weights: dict[str, float],
    dim: int = DEFAULT_DIM,
    config: TrainConfig | None = None,
) -> tuple[EmbeddingSet, list[EmbeddingSet], dict[str, np.ndarray], TrainReport]:
    """Meta-vectors over the vocabulary union, in closed form.

    Fits ``train_latent``'s maps to the words every set holds, and gives
    every union word the posterior mean of its meta-vector given the
    vectors the sets hold for it (shared words ``train_latent``'s, up to
    rounding).  Each vector a set is missing is its word's meta-vector
    mapped into the set's space, which is the Gaussian conditional mean of
    that vector given the word's known ones.  Where the shared words
    cannot support ``dim`` (none shared, or ``dim`` above their rank), the
    same fit is taken over every union word with missing vectors as zeros
    (``report.start`` is then ``"union"``, else ``"shared"``); either way the
    targets read 0 there, so the posterior means' right-hand sides are one
    product.  Known vectors are never modified (saved with their input set as
    ``source``, they keep its digits on disk, and missing ones get 9
    significant digits), and ``final_loss`` counts them alone.
    ``config`` is not read.  Raises ``ValueError`` unless ``1 <= dim <=
    min(union words, summed set dims)``, when ``dim`` exceeds the rank of
    the zero-filled union, or when its Gram matrix overflows.  Returns the
    meta-embeddings (named ``latent_union``), each input set extended to
    the union vocabulary, the maps as in ``train_latent``, and the report.
    """
    if len(sets) < 2:
        raise ValueError(f"need at least 2 embedding sets, got {len(sets)}")
    gammas, col_weights, blocks = _stacking(sets, weights)
    vocab = alignment.union
    bound = min(len(vocab), len(col_weights))
    if not 1 <= dim <= bound:
        raise ValueError(f"dim must be in [1, {bound}], the smaller of the union's words and "
                         f"the sets' summed dims; got {dim} (--dim defaults to {DEFAULT_DIM})")
    n, present = len(vocab), alignment.presence
    targets = np.zeros((n, len(col_weights)))  # each set's vectors over the union, 0 where missing
    for s, block, known in zip(sets, blocks, present):
        targets[known, block] = s.matrix[alignment.rows_for(s)[known]]
    start = "shared"
    try:
        _, maps, shift = _shared_fit(targets[present.all(axis=0)], col_weights, dim)
    except ValueError:  # no shared word, dim above their rank, or Gram overflow
        start = "union"
        _, maps, shift = _shared_fit(targets, col_weights, dim)  # overflow raises again
    meta = _posterior_means(present, gammas, blocks, maps, shift, targets, col_weights)
    known_loss = 0.0
    for block, known in zip(blocks, present):  # each set's known-vector loss, then its images
        known_loss += _loss(meta[known], maps[block], targets[known, block], col_weights[block])
        targets[~known, block] = meta[~known] @ maps[block].T
    report = TrainReport(final_loss=known_loss / n, start=start)
    extended = [EmbeddingSet(s.name, vocab, targets[:, block]) for s, block in zip(sets, blocks)]
    maps_by_name = {s.name: maps[block] for s, block in zip(sets, blocks)}
    return EmbeddingSet(LATENT_UNION, vocab, meta), extended, maps_by_name, report
