"""Okapi BM25 over the branch corpus, and per-case similarity profiles.

The "documents" of the index are branch keyword sequences; the "query" is
a case's tokenized holding. Scores use the plus-one IDF variant
``ln((N - df + 0.5) / (df + 0.5) + 1)``, which is strictly positive, so
every score is nonnegative and downstream cosine similarities of score
vectors stay in [0, 1]. Query tokens contribute with multiplicity.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .articles import ArticleCorpus
from .text import TokenizerConfig, tokenize


# term-frequency saturation and length normalization of the scoring formula
DEFAULT_K1 = 1.5
DEFAULT_B = 0.75


class Bm25Error(ValueError):
    pass


@dataclass(frozen=True)
class Bm25Index:
    """The BM25 terms of the branch corpus, ready for scoring.

    ``terms[rows[tok], pos]`` is the term of token ``tok`` in the branch
    at column ``pos``; the last row, zeros, stands for every token no
    branch holds. ``terms`` is read-only. ``positions`` maps a branch's
    ``(article_id, branch_index)`` to its column.
    """

    cfg: TokenizerConfig
    rows: dict[str, int]
    terms: np.ndarray
    positions: dict[tuple[str, int], int]


@dataclass
class SimilarityProfile:
    """Per-article BM25 score vectors of one case's holding.

    ``vectors[article_id][t]`` is the score of branch ``t`` of that
    article; the vector length equals the article's branch count.
    """

    case_id: str
    vectors: dict[str, np.ndarray]


def build_index(
    corpus: ArticleCorpus,
    cfg: TokenizerConfig = TokenizerConfig(),
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> Bm25Index:
    """The token × branch table of BM25 terms of the branch corpus.

    The term of a token in branch ``pos`` is
    ``idf(tok) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))``,
    where ``tf`` is the token's count in the branch and ``dl`` its length.
    ``cfg`` is remembered so queries are tokenized into the same token
    space the branch sequences were produced with.
    """
    if len(corpus) == 0:
        raise Bm25Error("cannot build an index over an empty corpus")
    if not (math.isfinite(k1) and k1 > 0):
        raise Bm25Error(f"k1 must be positive and finite, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise Bm25Error(f"b must be in [0, 1], got {b}")
    size = len(corpus)
    counts = [Counter(branch.keyword_sequence) for branch in corpus.branches]
    doc_freq = Counter(itertools.chain.from_iterable(counts))  # a Counter iterates its tokens
    rows = {tok: r for r, tok in enumerate(doc_freq)}
    token_rows = [rows[tok] for c in counts for tok in c]
    cols = [pos for pos, c in enumerate(counts) for _ in c]
    idf = np.array([math.log((size - df + 0.5) / (df + 0.5) + 1.0)
                    for df in doc_freq.values()])[token_rows]
    tf = np.array([tf for c in counts for tf in c.values()], dtype=np.float64)
    doc_lens = [len(branch.keyword_sequence) for branch in corpus.branches]
    avgdl = sum(doc_lens) / size
    denom_norm = np.array([k1 * (1.0 - b + b * dl / avgdl) for dl in doc_lens])
    terms = np.zeros((len(rows) + 1, size), dtype=np.float64)
    terms[token_rows, cols] = idf * tf * (k1 + 1.0) / (tf + denom_norm[cols])
    terms.flags.writeable = False
    positions = {(branch.article_id, branch.branch_index): pos
                 for pos, branch in enumerate(corpus.branches)}
    return Bm25Index(cfg, rows, terms, positions)


def compute_profiles(cases, corpus: ArticleCorpus, index: Bm25Index) -> dict[str, SimilarityProfile]:
    """Similarity profiles for a list of cases, keyed by case id.

    The score of branch ``pos`` against a case's tokenized holding is the
    sum of the index's terms of its query tokens in that branch, in query
    order and with multiplicity. Every holding is tokenized first and its
    rows laid out in one cases × longest-query index array, padded with
    the zero row. Then all cases' scores are summed at once, one query
    position at a time from zeros, so each case still adds its terms one
    after another in query order and the scratch is one cases × branches
    array. Raises if a holding tokenizes to nothing, since such a case
    carries no usable signal, or if ``corpus`` holds a branch ``index``
    was not built from.
    """
    try:
        article_cols = {
            article_id: np.array([index.positions[(article_id, br.branch_index)]
                                  for br in branches], dtype=np.intp)
            for article_id, branches in corpus.by_article.items()
        }
    except KeyError as exc:
        raise Bm25Error(f"branch {exc.args[0]!r} is not part of the indexed corpus") from None
    queries = []
    for case in cases:
        query = tokenize(case.holding, index.cfg)
        if not query:
            raise Bm25Error(f"case {case.case_id!r}: holding tokenizes to an empty query")
        queries.append(query)
    absent = len(index.rows)
    query_rows = np.full((len(queries), max(map(len, queries), default=0)), absent, dtype=np.intp)
    for row, query in zip(query_rows, queries):
        row[:len(query)] = list(map(index.rows.get, query, itertools.repeat(absent)))
    # the terms are positive and x + 0.0 is x, so the zeros and the padding
    # leave every sum bit-equal to one from the first term to the last
    scores = np.zeros((len(queries), index.terms.shape[1]), dtype=np.float64)
    for column in query_rows.T:
        scores += index.terms[column]
    blocks = {article_id: scores[:, c] for article_id, c in article_cols.items()}
    return {
        case.case_id: SimilarityProfile(
            case.case_id, {article_id: block[i] for article_id, block in blocks.items()})
        for i, case in enumerate(cases)
    }
