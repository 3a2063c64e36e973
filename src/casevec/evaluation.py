"""Zero-shot retrieval with the trained encoder, and graded-gain NDCG.

Queries and candidates are embedded independently by the same encoder and
ranked by cosine similarity. Queries carry facts only; candidates are
encoded from their facts and holding concatenated. A candidate pool is
embedded once per encoder state and reused for every query ranked against
it, under a by-value key of everything the embeddings depend on; see
``rank``. NDCG uses gain 2^grade - 1 with a 1/log2(rank + 1) discount,
normalized by the ideal ordering of the candidate pool.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import encoder as enc
from .circle_loss import unit_rows
from .files import claim, open_output, read_json_objects, read_rows, write_json_lines, write_rows
from .relevance import CaseDocument
from .text import TokenizerConfig, tokenize


class EvaluationError(ValueError):
    pass


@dataclass
class QueryCase:
    query_id: str
    facts: str

    def validate(self) -> None:
        if not self.facts:
            raise EvaluationError(f"query {self.query_id!r}: facts must be nonempty")


@dataclass
class CandidatePool:
    query_id: str
    candidates: list[CaseDocument]

    def validate(self) -> None:
        if not self.candidates:
            raise EvaluationError(f"query {self.query_id!r}: candidate pool is empty")
        ids = [c.case_id for c in self.candidates]
        if len(set(ids)) != len(ids):
            raise EvaluationError(f"query {self.query_id!r}: duplicate candidate ids")


class QrelSet:
    """Graded relevance labels keyed by (query_id, case_id)."""

    def __init__(self, grades: dict[tuple[str, str], int] | None = None):
        self.grades = dict(grades or {})
        for key, grade in self.grades.items():
            if grade < 0:
                raise EvaluationError(f"negative grade for {key}")
        self._queries = {qid for qid, _ in self.grades}

    def grade(self, query_id: str, case_id: str) -> int:
        return self.grades.get((query_id, case_id), 0)

    def has_query(self, query_id: str) -> bool:
        return query_id in self._queries

    def to_tsv(self, path: str) -> None:
        write_rows(path, ((qid, cid, grade) for (qid, cid), grade in sorted(self.grades.items())),
                   delimiter="\t")

    @classmethod
    def from_tsv(cls, path: str) -> "QrelSet":
        grades = {}
        first_line: dict[tuple[str, str], int] = {}
        for lineno, row in read_rows(path, EvaluationError, delimiter="\t"):
            if not row:
                continue
            if len(row) != 3:
                raise EvaluationError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                grade = int(row[2])
            except ValueError:
                raise EvaluationError(
                    f"{path}:{lineno}: grade {row[2]!r} is not an integer") from None
            pair = (row[0], row[1])
            if grade < 0:
                raise EvaluationError(f"{path}:{lineno}: negative grade {grade} for {pair}")
            claim(first_line, pair, path, lineno, EvaluationError, "pair")
            grades[pair] = grade
        return cls(grades)


@dataclass
class RankedList:
    """Candidates of one query ordered by descending score."""

    query_id: str
    ranking: list[tuple[str, float]]


def candidate_text(case: CaseDocument) -> str:
    """The text a candidate is encoded from: facts plus holding."""
    return case.facts + " " + case.holding if case.holding else case.facts


def embed_texts(
    texts: list[str],
    params: enc.Params,
    enc_cfg: enc.EncoderConfig,
    vocab: enc.Vocab,
    tok_cfg: TokenizerConfig,
) -> np.ndarray:
    sequences = [enc.build_input_ids(tokenize(t, tok_cfg), vocab, enc_cfg) for t in texts]
    return enc.encode(sequences, params, enc_cfg)


# (key, read-only unit embeddings) of the last pool ranked against. The key
# holds copies of every input the embeddings depend on and is compared by
# value: the optimizer updates params in place, and callers build a new
# pool object per query. One tuple assigned whole, so concurrent callers
# read an old or new entry, never a mixed one.
_pool_memo: tuple[tuple, np.ndarray] | None = None


def rank(
    query: QueryCase,
    pool: CandidatePool,
    params: enc.Params,
    enc_cfg: enc.EncoderConfig,
    vocab: enc.Vocab,
    tok_cfg: TokenizerConfig,
) -> RankedList:
    """Order the pool by cosine to the query embedding, ties by case id.

    The query is embedded alone. The pool's unit embeddings are kept for
    the next call under a key that holds copies of the candidate texts,
    configs, vocabulary and param bytes, so ranking many queries against
    one pool embeds the pool once for each params state.
    """
    global _pool_memo
    query.validate()
    pool.validate()
    texts = [candidate_text(c) for c in pool.candidates]
    key = (texts, enc_cfg, tok_cfg, list(vocab.tokens),
           {name: (arr.dtype.str, arr.shape, arr.tobytes()) for name, arr in params.items()})
    memo = _pool_memo
    if memo is not None and memo[0] == key:
        cand_units = memo[1]
    else:
        cand_units = unit_rows(embed_texts(texts, params, enc_cfg, vocab, tok_cfg))[0]
        cand_units.setflags(write=False)
        _pool_memo = (key, cand_units)
    query_unit = unit_rows(embed_texts([query.facts], params, enc_cfg, vocab, tok_cfg))[0][0]
    sims = cand_units @ query_unit
    # (-score, case_id) pairs: negation is exact, so -neg gives the score
    # back, and the ids are distinct, so no two pairs compare equal
    order = sorted(zip((-sims).tolist(), (c.case_id for c in pool.candidates)))
    return RankedList(query_id=query.query_id,
                      ranking=[(case_id, -neg) for neg, case_id in order])


def ndcg_at_k(ranked: RankedList, qrels: QrelSet, k: int) -> float:
    """Graded NDCG truncated at rank k; 0.0 when no candidate is relevant."""
    if k < 1:
        raise EvaluationError(f"k must be at least 1, got {k}")

    def dcg(grades: list[int]) -> float:
        return sum((2.0**g - 1.0) / math.log2(r + 2.0) for r, g in enumerate(grades[:k]))

    grades = [qrels.grade(ranked.query_id, cid) for cid, _ in ranked.ranking]
    idcg = dcg(sorted(grades, reverse=True))
    if idcg == 0.0:
        return 0.0
    return dcg(grades) / idcg


def evaluate(
    runs: list[RankedList],
    qrels: QrelSet,
    ks: tuple[int, ...] = (10, 20, 30),
    skip_unjudged: bool = False,
) -> dict:
    """Mean NDCG at each cutoff, with per-query values retained.

    A query with no qrels is an error unless ``skip_unjudged`` is set;
    judged queries whose candidates are all grade 0 count as 0.
    """
    missing = [run.query_id for run in runs if not qrels.has_query(run.query_id)]
    if missing and not skip_unjudged:
        raise EvaluationError(f"queries without qrels: {missing}")
    scored = [run for run in runs if qrels.has_query(run.query_id)]
    if not scored:
        raise EvaluationError("no judged queries to evaluate")
    metrics: dict = {}
    for k in ks:
        per_query = {run.query_id: ndcg_at_k(run, qrels, k) for run in scored}
        metrics[f"ndcg@{k}"] = {
            "mean": sum(per_query.values()) / len(per_query),
            "per_query": per_query,
        }
    return metrics


# ---------------------------------------------------------------------------
# embedding export


def pca_2d(points: np.ndarray):
    """Exact 2D principal projection via covariance eigendecomposition.

    Components are sign-fixed so their largest-magnitude entry is
    positive. Returns (coords, components, explained variance share).
    """
    if points.shape[0] < 2:
        raise EvaluationError("pca_2d needs at least 2 rows")
    centered = points - points.mean(axis=0)
    cov = centered.T @ centered / (points.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:2]
    components = eigvecs[:, order].T
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    coords = centered @ components.T
    total = float(eigvals.sum())
    explained = float(eigvals[order].sum() / total) if total > 0 else 0.0
    return coords, components, explained


def export_embeddings(
    cases: list[CaseDocument],
    params: enc.Params,
    enc_cfg: enc.EncoderConfig,
    vocab: enc.Vocab,
    tok_cfg: TokenizerConfig,
    path: str,
    projection: str = "none",
    labels: dict[str, str] | None = None,
) -> None:
    """Write case embeddings as CSV, raw or projected to two dimensions.

    The label column uses the provided mapping, defaulting to the case's
    sorted article ids joined with '|'.
    """
    if projection not in ("none", "pca2d"):
        raise EvaluationError(f"unknown projection {projection!r}")
    embeddings = embed_texts(
        [candidate_text(c) for c in cases], params, enc_cfg, vocab, tok_cfg
    )

    def label_of(case: CaseDocument) -> str:
        if labels and case.case_id in labels:
            return labels[case.case_id]
        return "|".join(sorted(case.articles))

    if projection == "pca2d":
        header, values = ["x", "y"], pca_2d(embeddings)[0]
    else:
        header, values = [f"dim{i}" for i in range(enc_cfg.hidden_size)], embeddings
    write_rows(path, itertools.chain(
        [["case_id", "label"] + header],
        ([case.case_id, label_of(case)] + [repr(float(x)) for x in row]
         for case, row in zip(cases, values))))


# ---------------------------------------------------------------------------
# file formats


def load_queries(path: str) -> list[QueryCase]:
    """JSON lines with string fields query_id, unique, and facts."""
    queries = []
    first_line: dict[str, int] = {}
    for lineno, obj in read_json_objects(path, EvaluationError):
        for name in ("query_id", "facts"):
            if name not in obj:
                raise EvaluationError(f"{path}:{lineno}: missing field {name!r}")
        query = QueryCase(query_id=obj["query_id"], facts=obj["facts"])
        if not (isinstance(query.query_id, str) and isinstance(query.facts, str)):
            raise EvaluationError(f"{path}:{lineno}: query_id and facts must be strings")
        try:
            query.validate()
        except EvaluationError as exc:
            raise EvaluationError(f"{path}:{lineno}: {exc}") from None
        claim(first_line, query.query_id, path, lineno, EvaluationError, "query_id")
        queries.append(query)
    if not queries:
        raise EvaluationError(f"{path}: holds no query")
    return queries


def save_queries(queries: list[QueryCase], path: str) -> None:
    write_json_lines(path, map(asdict, queries))


def save_run(runs: list[RankedList], path: str) -> None:
    """TSV rows (query_id, rank, case_id, score), rank starting at 1."""
    write_rows(path, ((run.query_id, position, cid, repr(score))
                      for run in runs
                      for position, (cid, score) in enumerate(run.ranking, start=1)),
               delimiter="\t")


def load_run(path: str) -> list[RankedList]:
    by_query: dict[str, list[tuple[int, str, float]]] = {}
    first_line: dict[tuple[str, str], int] = {}
    for lineno, row in read_rows(path, EvaluationError, delimiter="\t"):
        if not row:
            continue
        if len(row) != 4:
            raise EvaluationError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
        qid, position, cid, score = row
        try:
            entry = (int(position), cid, float(score))
        except ValueError as exc:
            raise EvaluationError(f"{path}:{lineno}: bad row {row!r}: {exc}") from None
        claim(first_line, (qid, cid), path, lineno, EvaluationError, "pair")
        by_query.setdefault(qid, []).append(entry)
    return [RankedList(query_id=qid, ranking=[(cid, score) for _, cid, score in sorted(entries)])
            for qid, entries in by_query.items()]


def save_metrics(metrics: dict, path: str) -> None:
    with open_output(path, encoding="utf-8") as fh:
        json.dump(metrics, fh, sort_keys=True, indent=2)
        fh.write("\n")
