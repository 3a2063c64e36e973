"""Fine-grained legal case embeddings at desk scale.

Statute articles are expanded into unambiguous branches; BM25 scores of a
case's holding against those branches yield per-article similarity
vectors; article overlap plus branch agreement gives directional
relevance weights; those weights drive positive sampling and a weighted
circle loss trained jointly with masked-token prediction on a small
transformer encoder; trained embeddings are evaluated zero-shot with
graded NDCG.
"""

__version__ = "0.1.0"

from .articles import (
    ArticleBranch,
    ArticleCorpus,
    ArticleSpec,
    ArticleSpecError,
    build_corpus,
    expand_branches,
    load_article_specs,
    save_article_specs,
)
from .bm25 import (
    Bm25Error,
    Bm25Index,
    SimilarityProfile,
    bm25_score,
    build_index,
    compute_profiles,
    similarity_profile,
)
from .circle_loss import CircleLossParams, alpha_neg, alpha_pos, loss_gradient
from .encoder import (
    EncoderConfig,
    EncoderError,
    Vocab,
    encode,
    init_params,
    mlm_loss,
    mlm_mask,
)
from .evaluation import (
    CandidatePool,
    EvaluationError,
    QrelSet,
    QueryCase,
    RankedList,
    evaluate,
    export_embeddings,
    ndcg_at_k,
    pca_2d,
    rank,
)
from .relevance import (
    CaseDocument,
    RelevanceError,
    RelevanceWeight,
    WeightTable,
    load_cases,
    pairwise_weights,
    rel,
    save_cases,
    weight,
)
from .sampling import (
    BatchPartition,
    NoPositiveAvailable,
    Quadruple,
    SamplingError,
    build_batch,
    class_partition,
    sample_positive,
    sample_quadruples,
)
from .synth import SynthCorpus, SynthError, SynthSpec, generate, write_corpus
from .text import TokenizerConfig, tokenize
from .training import TrainConfig, TrainingDiverged, TrainLog, total_loss, train
