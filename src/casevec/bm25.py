"""Okapi BM25 over the branch corpus, and per-case similarity profiles.

The "documents" of the index are branch keyword sequences; the "query" is
a case's tokenized holding. Scores use the plus-one IDF variant
``ln((N - df + 0.5) / (df + 0.5) + 1)``, which is strictly positive, so
every score is nonnegative and downstream cosine similarities of score
vectors stay in [0, 1]. Query tokens contribute with multiplicity.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .articles import ArticleBranch, ArticleCorpus
from .text import TokenizerConfig, tokenize


# term-frequency saturation and length normalization of the scoring formula
DEFAULT_K1 = 1.5
DEFAULT_B = 0.75


class Bm25Error(ValueError):
    pass


@dataclass
class Bm25Index:
    """Immutable statistics of the branch corpus, ready for scoring."""

    k1: float
    b: float
    cfg: TokenizerConfig
    size: int = 0
    avgdl: float = 0.0
    doc_freq: dict[str, int] = field(default_factory=dict)
    term_counts: list[Counter] = field(default_factory=list)
    doc_lens: list[int] = field(default_factory=list)
    positions: dict[tuple[str, int], int] = field(default_factory=dict)

    def idf(self, token: str) -> float:
        df = self.doc_freq.get(token, 0)
        return math.log((self.size - df + 0.5) / (df + 0.5) + 1.0)

    def score_at(self, pos: int, query: list[str]) -> float:
        """BM25 score of the document at ``pos`` against a token query."""
        counts = self.term_counts[pos]
        dl = self.doc_lens[pos]
        denom_norm = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)
        score = 0.0
        for tok in query:
            tf = counts.get(tok)
            if not tf:
                continue
            score += self.idf(tok) * tf * (self.k1 + 1.0) / (tf + denom_norm)
        return score


@dataclass
class SimilarityProfile:
    """Per-article BM25 score vectors of one case's holding.

    ``vectors[article_id][t]`` is the score of branch ``t`` of that
    article; the vector length equals the article's branch count.
    """

    case_id: str
    vectors: dict[str, np.ndarray]

    def argmax_branch(self, article_id: str) -> int:
        """Index of the best-scoring branch; ties go to the lowest index."""
        return int(np.argmax(self.vectors[article_id]))


def build_index(
    corpus: ArticleCorpus,
    cfg: TokenizerConfig = TokenizerConfig(),
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> Bm25Index:
    """Count statistics of the branch corpus into an index.

    ``cfg`` is remembered so queries are tokenized into the same token
    space the branch sequences were produced with.
    """
    if len(corpus) == 0:
        raise Bm25Error("cannot build an index over an empty corpus")
    if k1 <= 0:
        raise Bm25Error(f"k1 must be positive, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise Bm25Error(f"b must be in [0, 1], got {b}")
    index = Bm25Index(k1=k1, b=b, cfg=cfg)
    for pos, branch in enumerate(corpus.branches):
        index.positions[(branch.article_id, branch.branch_index)] = pos
        counts = Counter(branch.keyword_sequence)
        index.term_counts.append(counts)
        index.doc_lens.append(len(branch.keyword_sequence))
        for tok in counts:
            index.doc_freq[tok] = index.doc_freq.get(tok, 0) + 1
    index.size = len(corpus)
    index.avgdl = sum(index.doc_lens) / index.size
    return index


def bm25_score(branch: ArticleBranch, query: list[str], index: Bm25Index) -> float:
    """Score one branch (document) against a token query."""
    key = (branch.article_id, branch.branch_index)
    if key not in index.positions:
        raise Bm25Error(f"branch {key!r} is not part of the indexed corpus")
    return index.score_at(index.positions[key], query)


def similarity_profile(case, corpus: ArticleCorpus, index: Bm25Index) -> SimilarityProfile:
    """Score a case's holding against every branch of every article.

    The profile is global: it carries one vector per corpus article, with
    per-article sub-vectors addressable by article id. Raises if the
    holding tokenizes to nothing, since such a case carries no usable
    signal.
    """
    query = tokenize(case.holding, index.cfg)
    if not query:
        raise Bm25Error(f"case {case.case_id!r}: holding tokenizes to an empty query")
    vectors: dict[str, np.ndarray] = {}
    for article_id, branches in corpus.by_article.items():
        v = np.empty(len(branches), dtype=np.float64)
        for t, branch in enumerate(branches):
            v[t] = index.score_at(index.positions[(article_id, branch.branch_index)], query)
        vectors[article_id] = v
    return SimilarityProfile(case_id=case.case_id, vectors=vectors)


def compute_profiles(cases, corpus: ArticleCorpus, index: Bm25Index) -> dict[str, SimilarityProfile]:
    """Similarity profiles for a list of cases, keyed by case id."""
    return {case.case_id: similarity_profile(case, corpus, index) for case in cases}
