import numpy as np

from metaembed.io import EmbeddingSet


def central_difference(objective, array, step=1e-5):
    """Numeric gradient of ``objective()`` with respect to ``array``,
    perturbing entries in place."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + step
        plus = objective()
        array[idx] = orig - step
        minus = objective()
        array[idx] = orig
        grad[idx] = (plus - minus) / (2.0 * step)
    return grad


def max_relative_error(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def latent_linked_sets(
    seed=11, n=500, latent_dim=10, dims=(10, 15), scale=0.3, hide_fraction=0.0
):
    """Two embedding sets generated from shared latent vectors.

    Each set's matrix is ``z @ A_i.T`` for a random full-rank A_i.
    When ``hide_fraction`` is nonzero, that fraction of words is removed
    from the second set.  Returns (z, words, sets, full_matrices,
    hidden_indices).
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, latent_dim))
    words = [f"w{i:04d}" for i in range(n)]
    matrices = []
    for d_i in dims:
        a = rng.normal(size=(d_i, latent_dim)) / np.sqrt(latent_dim) * scale
        matrices.append(z @ a.T)

    sets = [EmbeddingSet("one", words, matrices[0])]
    hidden = None
    if hide_fraction:
        n_hide = int(n * hide_fraction)
        hidden = np.sort(rng.choice(n, size=n_hide, replace=False))
        keep = np.setdiff1d(np.arange(n), hidden)
        sets.append(EmbeddingSet("two", [words[i] for i in keep], matrices[1][keep]))
    else:
        sets.append(EmbeddingSet("two", words, matrices[1]))
    return z, words, sets, matrices, hidden


def quality_world(seed, n=6000, latent_dim=60, dims=(50, 100, 200, 300, 300)):
    """Five embedding sets of differing quality, seen through one latent space.

    Each of ``n`` words has a latent vector with a 1/sqrt(k) spectrum over
    ``latent_dim`` directions.  Set i sees the words along 20-60 random
    directions, mixes what it sees into ``dims[i]`` dimensions, adds
    Gaussian noise of sigma_i (0.15-0.9) times half its signal's RMS entry,
    and keeps a share of 0.3-0.9 of the words; common words are kept by
    more sets.  The gold similarity of two words is the cosine of their
    latent vectors.  Returns (words, latent, sets, truths, noise), where
    ``truths[i]`` holds set i's vector of every word, kept or not, and
    ``noise`` the sigmas.
    """
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((n, latent_dim)) / np.sqrt(np.arange(1, latent_dim + 1))
    words = [f"w{i:04d}" for i in range(n)]
    noise = rng.uniform(0.15, 0.9, len(dims))
    common = rng.standard_normal(n)
    sets, truths = [], []
    for i, (d, sigma) in enumerate(zip(dims, noise)):
        seen = rng.integers(20, latent_dim + 1)
        signal = latent @ rng.standard_normal((latent_dim, seen)) @ rng.standard_normal((seen, d))
        truths.append(signal + sigma / 2 * np.sqrt(np.mean(signal**2)) * rng.standard_normal((n, d)))
        rank = common + rng.standard_normal(n)
        keep = np.flatnonzero(rank < np.quantile(rank, rng.uniform(0.3, 0.9)))
        sets.append(EmbeddingSet(f"s{i}", [words[j] for j in keep], truths[i][keep]))
    return words, latent, sets, truths, noise


def regression_r2(features, targets):
    """R^2 of an affine least-squares fit from features to targets."""
    design = np.hstack([features, np.ones((len(features), 1))])
    beta, *_ = np.linalg.lstsq(design, targets, rcond=None)
    residual = targets - design @ beta
    total = targets - targets.mean(axis=0)
    return 1.0 - np.sum(residual**2) / np.sum(total**2)
