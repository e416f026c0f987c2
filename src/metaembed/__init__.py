"""metaembed: combine pre-trained word embedding sets into meta-embeddings.

Builds combined representations by weighted concatenation, low-rank
compression, or jointly fitted latent vectors; fills vocabulary gaps
with least-squares cross-set projections; and evaluates the results on
word similarity and word analogy benchmarks.
"""

from .ensemble import concatenate, svd_reduce, train_latent, train_latent_union
from .evaluate import (
    AnalogyDataset,
    EvalResult,
    SimilarityDataset,
    answer_analogy,
    eval_analogy,
    eval_similarity,
    load_analogy_dataset,
    load_similarity_dataset,
    spearman,
)
from .io import EmbeddingSet, load_embedding_set, save_embedding_set
from .linalg import SvdResult, normalize_columns, normalize_rows, truncated_svd
from .oov import ProjectionMap, extend_all, fill_oov, train_projection
from .optimizer import TrainConfig, TrainReport
from .vocab import VocabAlignment, align

__version__ = "0.1.0"

__all__ = [
    "AnalogyDataset",
    "EmbeddingSet",
    "EvalResult",
    "ProjectionMap",
    "SimilarityDataset",
    "SvdResult",
    "TrainConfig",
    "TrainReport",
    "VocabAlignment",
    "align",
    "answer_analogy",
    "concatenate",
    "eval_analogy",
    "eval_similarity",
    "extend_all",
    "fill_oov",
    "load_analogy_dataset",
    "load_embedding_set",
    "load_similarity_dataset",
    "normalize_columns",
    "normalize_rows",
    "save_embedding_set",
    "spearman",
    "svd_reduce",
    "train_latent",
    "train_latent_union",
    "train_projection",
    "truncated_svd",
]
