"""Seeded synthetic inputs for the benchmark.

Every word has a latent vector z.  Each of the five sets sees the words
through its own random linear map plus noise, x_i = A_i z + noise, and
keeps each word with the workload's coverage.  Latent vectors are drawn
around cluster centres, so similarity pairs span related and unrelated
words; their gold score is the cosine of the two latent vectors.
Analogy quadruples are planted exactly in the latent space: within a
category every pair (a, b) satisfies z_b = z_a + r_category, so
z_d = z_c + z_b - z_a for every question built from two pairs.  About
10% of the similarity pairs and analogy questions carry a word that no
set contains, so the program's skip path runs.  The latent space and
the evaluation files are fixed; the seed draws each set's map, noise,
coverage and row order.

The program reads only the text files written here.  The true vectors
of the words each set hides stay in memory, for scoring filled vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SET_DIMS = (50, 100, 200, 300, 300)  # the paper's five releases
SIMILARITY_SIZES = (("ws353", 353), ("simlex999", 999))
ANALOGY_SIZES = (("semantic", 8869, 5), ("syntactic", 10675, 9))  # questions, categories
PAIRS_PER_CATEGORY = 44  # 44 * 43 = 1892 questions available per category
OOV_SHARE = 0.10
WORLD_SEED = 20150812
VALUE_FORMAT = "%.6f"


@dataclass(frozen=True)
class Shape:
    """Size of one workload's inputs.

    ``eval_in_all_sets`` puts every analogy word in every set, for
    workloads that are scored on the shared vocabulary.
    """

    pool: int
    coverage: float
    eval_in_all_sets: bool
    set_dims: tuple[int, ...] = SET_DIMS
    latent_dim: int = 150
    clusters: int = 120
    noise: float = 0.15
    analogy_spread: float = 0.5
    similarity_sizes: tuple[tuple[str, int], ...] = SIMILARITY_SIZES
    analogy_sizes: tuple[tuple[str, int, int], ...] = ANALOGY_SIZES
    pairs_per_category: int = PAIRS_PER_CATEGORY


@dataclass
class Inputs:
    """Paths of the written files and the ground truth kept for scoring."""

    set_names: list[str]
    set_paths: list[Path]
    set_dims: list[int]
    similarity_paths: list[Path]
    similarity_sizes: list[int]
    analogy_path: Path
    analogy_sizes: dict[str, int]
    words: list[str]                 # the pool, sorted
    latent: np.ndarray               # pool x latent_dim
    membership: np.ndarray           # sets x pool, bool
    true_vectors: list[np.ndarray]   # per set, pool x d_i (hidden rows included)
    similarity_pairs: list[list[tuple[str, str, float]]]  # per dataset: word, word, gold
    analogy_questions: list[tuple[str, str, str, str]]

    @property
    def shared_words(self) -> list[str]:
        return [w for w, m in zip(self.words, self.membership.all(axis=0)) if m]

    @property
    def union_words(self) -> list[str]:
        return self.words

    def hidden(self, i: int) -> np.ndarray:
        """Pool indices of the words set ``i`` does not contain."""
        return np.flatnonzero(~self.membership[i])


def _write_vectors(path: Path, words: list[str], matrix: np.ndarray) -> None:
    fmt = "%s" + (" " + VALUE_FORMAT) * matrix.shape[1] + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for word, row in zip(words, matrix.tolist()):
            f.write(fmt % (word, *row))


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    return float(u @ v / np.sqrt((u @ u) * (v @ v)))


def generate(shape: Shape, seed: int, out_dir: Path) -> Inputs:
    """Draw one workload's inputs from ``seed`` and write them to ``out_dir``."""
    # The latent space and the evaluation items are the same for every
    # seed; the seed draws the sets seen through it and their coverage.
    world = np.random.default_rng(WORLD_SEED)
    rng = np.random.default_rng([seed, WORLD_SEED])
    out_dir.mkdir(parents=True, exist_ok=True)
    n_sets = len(shape.set_dims)
    k = shape.latent_dim
    pool = shape.pool

    # Cluster centres plus per-word variation, with a decaying spectrum
    # so a few directions carry most of the signal.
    spectrum = (1.0 + np.arange(k)) ** -0.5
    centres = world.standard_normal((shape.clusters, k)) * spectrum

    def draw(n: int) -> np.ndarray:
        labels = world.integers(0, shape.clusters, n)
        return centres[labels] + world.standard_normal((n, k)) * spectrum

    # Analogy pairs come first in the pool: b = a + r for each category.
    n_categories = sum(n_cat for _, _, n_cat in shape.analogy_sizes)
    m = shape.pairs_per_category
    n_analogy_words = 2 * m * n_categories
    if n_analogy_words >= pool:
        raise ValueError(f"pool of {pool} words is too small for {n_analogy_words} analogy words")
    latent = np.empty((pool, k))
    for c in range(n_categories):
        # One category's first words share a cluster and lie close
        # together, as country or verb-tense words do.
        centre = centres[world.integers(shape.clusters)]
        a = centre + shape.analogy_spread * world.standard_normal((m, k)) * spectrum
        offset = world.standard_normal(k) * spectrum
        latent[2 * m * c : 2 * m * c + m] = a
        latent[2 * m * c + m : 2 * m * (c + 1)] = a + offset
    latent[n_analogy_words:] = draw(pool - n_analogy_words)
    unseen = draw(max(200, pool // 20))  # words no set contains

    # Shuffle pool positions so analogy words are spread over the sorted vocabulary.
    order = world.permutation(pool)
    words = [f"w{i:06d}" for i in range(pool)]
    position = {int(j): i for i, j in enumerate(order)}  # latent row -> pool index
    latent = latent[order]  # pool index i holds latent row order[i]
    unseen_words = [f"x{i:06d}" for i in range(len(unseen))]
    analogy_words = np.array([position[r] for r in range(n_analogy_words)])

    # Evaluation items: similarity pairs among the analogy words, half of
    # them related (same nearest centre), and the analogy questions.
    labels_of = _nearest_centres(latent, centres)
    similarity_paths, similarity_pairs, similarity_sizes = [], [], []
    for ds_name, size in shape.similarity_sizes:
        pairs, lines = [], []
        seen = set()
        while len(pairs) < size:
            a = int(world.choice(analogy_words))
            if world.random() < 0.5:
                b = int(world.choice(analogy_words[labels_of[analogy_words] == labels_of[a]]))
            else:
                b = int(world.choice(analogy_words))
            if a == b or (a, b) in seen or (b, a) in seen:
                continue
            seen.add((a, b))
            wa, wb = words[a], words[b]
            za, zb = latent[a], latent[b]
            if world.random() < OOV_SHARE:
                u = int(world.integers(len(unseen)))
                wb, zb = unseen_words[u], unseen[u]
            gold = f"{10 * (1 + _cosine(za, zb)) / 2:.6f}"
            pairs.append((wa, wb, float(gold)))
            lines.append(f"{wa} {wb} {gold}\n")
        path = out_dir / f"{ds_name}.txt"
        path.write_text("".join(lines), encoding="utf-8")
        similarity_paths.append(path)
        similarity_pairs.append(pairs)
        similarity_sizes.append(size)

    questions, lines = [], []
    c = 0
    grid = [(p, q) for p in range(m) for q in range(m) if p != q]
    for category, size, n_cat in shape.analogy_sizes:
        prefix = "gram" if category == "syntactic" else "sem"
        for j in range(n_cat):
            base = 2 * m * c
            picks = world.choice(len(grid), size // n_cat + (j < size % n_cat), replace=False)
            lines.append(f": {prefix}{j + 1}-{category}\n")
            for g in np.sort(picks):
                p, q = grid[g]
                quad = [
                    words[position[base + p]], words[position[base + m + p]],
                    words[position[base + q]], words[position[base + m + q]],
                ]
                if world.random() < OOV_SHARE:
                    quad[int(world.integers(4))] = unseen_words[int(world.integers(len(unseen)))]
                questions.append(tuple(quad))
                lines.append(" ".join(quad) + "\n")
            c += 1
    analogy_path = out_dir / "analogy.txt"
    analogy_path.write_text("".join(lines), encoding="utf-8")

    # The seed's part: which words each set keeps, and the sets themselves.
    membership = rng.random((n_sets, pool)) < shape.coverage
    if shape.eval_in_all_sets:
        membership[:, analogy_words] = True
    orphan = np.flatnonzero(~membership.any(axis=0))
    membership[rng.integers(0, n_sets, len(orphan)), orphan] = True

    set_names, set_paths, true_vectors = [], [], []
    noise_scale = shape.noise * np.sqrt((spectrum**2).sum() / k)
    for i, d in enumerate(shape.set_dims):
        a = rng.standard_normal((d, k)) / np.sqrt(k)
        full = latent @ a.T + noise_scale * rng.standard_normal((pool, d))
        name = f"s{i + 1}d{d}"
        rows = np.flatnonzero(membership[i])
        rows = rows[rng.permutation(len(rows))]  # file order is not sorted
        path = out_dir / f"{name}.txt"
        _write_vectors(path, [words[r] for r in rows], full[rows])
        set_names.append(name)
        set_paths.append(path)
        true_vectors.append(full)

    return Inputs(
        set_names=set_names,
        set_paths=set_paths,
        set_dims=list(shape.set_dims),
        similarity_paths=similarity_paths,
        similarity_sizes=similarity_sizes,
        analogy_path=analogy_path,
        analogy_sizes={cat: size for cat, size, _ in shape.analogy_sizes},
        words=words,
        latent=latent,
        membership=membership,
        true_vectors=true_vectors,
        similarity_pairs=similarity_pairs,
        analogy_questions=questions,
    )


def _nearest_centres(latent: np.ndarray, centres: np.ndarray) -> np.ndarray:
    d2 = (latent**2).sum(1)[:, None] - 2 * latent @ centres.T + (centres**2).sum(1)
    return np.argmin(d2, axis=1)
