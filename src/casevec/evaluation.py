"""Zero-shot retrieval with the trained encoder, and graded-gain NDCG.

Queries and candidates are embedded independently by the same encoder and
ranked by cosine similarity. Queries carry facts only; candidates are
encoded from their facts and holding concatenated. A candidate pool is
embedded once per encoder state and reused for every query ranked against
it; see ``rank``. NDCG uses gain
2^grade - 1 with a 1/log2(rank + 1) discount, normalized by the ideal
ordering of the candidate pool.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import encoder as enc
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
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
            for (qid, cid), grade in sorted(self.grades.items()):
                writer.writerow([qid, cid, grade])

    @classmethod
    def from_tsv(cls, path: str) -> "QrelSet":
        grades = {}
        with open(path, encoding="utf-8", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh, delimiter="\t"), start=1):
                if not row:
                    continue
                if len(row) != 3:
                    raise EvaluationError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
                grades[(row[0], row[1])] = int(row[2])
        return cls(grades)


@dataclass
class RankedList:
    """Candidates of one query ordered by descending score."""

    query_id: str
    ranking: list[tuple[str, float]]

    def validate(self) -> None:
        scores = [s for _, s in self.ranking]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise EvaluationError(f"query {self.query_id!r}: scores must be non-increasing")


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


def _unit_rows(embeddings: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; zero rows stay zero."""
    norms = np.linalg.norm(embeddings, axis=1)
    return embeddings / np.where(norms == 0.0, 1.0, norms)[:, None]


def _pool_key(texts, params, enc_cfg, vocab, tok_cfg) -> bytes:
    """Digest of everything a pool's embeddings depend on. It reads the
    parameter bytes, never object identities: the optimizer updates params
    in place, and callers build a new pool object per query."""
    h = hashlib.sha256()
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name])
        h.update(json.dumps([name, arr.dtype.str, arr.shape]).encode("utf-8"))
        h.update(arr.data)
    h.update(json.dumps([enc_cfg.to_json(), asdict(tok_cfg), vocab.tokens, texts]).encode("utf-8"))
    return h.digest()


# (key, read-only unit embeddings) of the last pool ranked against. One
# tuple assigned whole, so concurrent callers read an old or new entry,
# never a mixed one.
_pool_memo: tuple[bytes, np.ndarray] | None = None


def _pool_units(texts, params, enc_cfg, vocab, tok_cfg) -> np.ndarray:
    global _pool_memo
    key = _pool_key(texts, params, enc_cfg, vocab, tok_cfg)
    memo = _pool_memo
    if memo is not None and memo[0] == key:
        return memo[1]
    units = _unit_rows(embed_texts(texts, params, enc_cfg, vocab, tok_cfg))
    units.setflags(write=False)
    _pool_memo = (key, units)
    return units


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
    the next call, keyed by the content of the params, configs, vocabulary
    and candidate texts, so ranking many queries against one pool embeds
    the pool once for each params state.
    """
    query.validate()
    pool.validate()
    cand_units = _pool_units(
        [candidate_text(c) for c in pool.candidates], params, enc_cfg, vocab, tok_cfg
    )
    query_unit = _unit_rows(embed_texts([query.facts], params, enc_cfg, vocab, tok_cfg))[0]
    sims = cand_units @ query_unit
    order = sorted(
        range(len(pool.candidates)),
        key=lambda i: (-sims[i], pool.candidates[i].case_id),
    )
    return RankedList(
        query_id=query.query_id,
        ranking=[(pool.candidates[i].case_id, float(sims[i])) for i in order],
    )


def ndcg_at_k(ranked: RankedList, qrels: QrelSet, k: int) -> float:
    """Graded NDCG truncated at rank k; 0.0 when no candidate is relevant."""
    if k < 1:
        raise EvaluationError(f"k must be at least 1, got {k}")
    grades = [qrels.grade(ranked.query_id, cid) for cid, _ in ranked.ranking]
    dcg = sum((2.0**g - 1.0) / math.log2(r + 2.0) for r, g in enumerate(grades[:k]))
    ideal = sorted(grades, reverse=True)
    idcg = sum((2.0**g - 1.0) / math.log2(r + 2.0) for r, g in enumerate(ideal[:k]))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


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

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if projection == "pca2d":
            coords, _, _ = pca_2d(embeddings)
            writer.writerow(["case_id", "label", "x", "y"])
            for case, row in zip(cases, coords):
                writer.writerow([case.case_id, label_of(case), repr(float(row[0])), repr(float(row[1]))])
        else:
            writer.writerow(["case_id", "label"] + [f"dim{i}" for i in range(enc_cfg.hidden_size)])
            for case, row in zip(cases, embeddings):
                writer.writerow([case.case_id, label_of(case)] + [repr(float(x)) for x in row])


# ---------------------------------------------------------------------------
# file formats


def load_queries(path: str) -> list[QueryCase]:
    """JSON lines with fields query_id and facts."""
    queries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                query = QueryCase(query_id=obj["query_id"], facts=obj["facts"])
            except json.JSONDecodeError as exc:
                raise EvaluationError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
            except KeyError as exc:
                raise EvaluationError(f"{path}:{lineno}: missing field {exc.args[0]!r}") from None
            query.validate()
            queries.append(query)
    return queries


def save_queries(queries: list[QueryCase], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for q in queries:
            fh.write(json.dumps({"facts": q.facts, "query_id": q.query_id}, sort_keys=True) + "\n")


def save_run(runs: list[RankedList], path: str) -> None:
    """TSV rows (query_id, rank, case_id, score), rank starting at 1."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        for run in runs:
            for position, (cid, score) in enumerate(run.ranking, start=1):
                writer.writerow([run.query_id, position, cid, repr(score)])


def load_run(path: str) -> list[RankedList]:
    by_query: dict[str, list[tuple[int, str, float]]] = {}
    order: list[str] = []
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh, delimiter="\t"), start=1):
            if not row:
                continue
            if len(row) != 4:
                raise EvaluationError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            qid, position, cid, score = row
            if qid not in by_query:
                by_query[qid] = []
                order.append(qid)
            by_query[qid].append((int(position), cid, float(score)))
    runs = []
    for qid in order:
        entries = sorted(by_query[qid])
        runs.append(RankedList(query_id=qid, ranking=[(cid, score) for _, cid, score in entries]))
    return runs


def save_metrics(metrics: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, sort_keys=True, indent=2)
        fh.write("\n")
