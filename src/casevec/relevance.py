"""Case documents and pairwise relevance weights.

The weight from case i to case j combines how much of i's article set j
covers with how similar the two cases look at the branch level:

    weight(i, j) = |A_i intersect A_j| / |A_i| * rel(i, j)

where rel is 1 when some shared article has both cases peaking on the
same branch (with nonzero score vectors), and otherwise the maximum
cosine similarity of the per-article score vectors over shared articles.
The weight is directional: the denominator is the source's article count.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .bm25 import SimilarityProfile


class RelevanceError(ValueError):
    pass


@dataclass
class CaseDocument:
    """A case with its three text components and the articles it cites."""

    case_id: str
    facts: str
    holding: str = ""
    decision: str = ""
    articles: frozenset[str] = field(default_factory=frozenset)

    def validate(self) -> None:
        if not self.case_id:
            raise RelevanceError("case_id must be nonempty")
        if not self.facts:
            raise RelevanceError(f"case {self.case_id!r}: facts must be nonempty")


@dataclass(frozen=True)
class RelevanceWeight:
    source_id: str
    target_id: str
    value: float


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, defined as 0 when either vector is zero."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def rel(
    profile_i: SimilarityProfile,
    profile_j: SimilarityProfile,
    articles_i: frozenset[str],
    articles_j: frozenset[str],
) -> float:
    """Branch-level agreement between two cases over their shared articles.

    Returns 1.0 if any shared article has both score vectors nonzero and
    peaking on the same branch (ties resolved to the lowest branch index);
    otherwise the maximum cosine over shared articles, 0.0 with no shared
    article. A zero vector never triggers the argmax rule and has cosine 0.
    """
    shared = articles_i & articles_j
    if not shared:
        return 0.0
    best = 0.0
    for article_id in sorted(shared):
        try:
            vi = profile_i.vectors[article_id]
            vj = profile_j.vectors[article_id]
        except KeyError:
            raise RelevanceError(
                f"profile of {profile_i.case_id!r} or {profile_j.case_id!r}"
                f" does not cover shared article {article_id!r}"
            ) from None
        if vi.any() and vj.any() and int(np.argmax(vi)) == int(np.argmax(vj)):
            return 1.0
        best = max(best, _cosine(vi, vj))
    return best


def weight(
    case_i: CaseDocument,
    case_j: CaseDocument,
    profiles: dict[str, SimilarityProfile],
) -> RelevanceWeight:
    """Directional relevance weight from case_i to case_j."""
    if not case_i.articles:
        raise RelevanceError(f"case {case_i.case_id!r} has an empty article set")
    overlap = len(case_i.articles & case_j.articles) / len(case_i.articles)
    r = rel(profiles[case_i.case_id], profiles[case_j.case_id], case_i.articles, case_j.articles)
    return RelevanceWeight(case_i.case_id, case_j.case_id, overlap * r)


class WeightTable:
    """Relevance weights for all ordered case pairs, with CSV round-trip."""

    def __init__(self, ids: list[str], matrix: np.ndarray):
        if matrix.shape != (len(ids), len(ids)):
            raise RelevanceError("weight matrix shape does not match the id list")
        self.ids = list(ids)
        self.matrix = matrix
        self._pos = {cid: i for i, cid in enumerate(self.ids)}

    def get(self, source_id: str, target_id: str) -> float:
        return float(self.matrix[self._pos[source_id], self._pos[target_id]])

    def positions(self, ids: list[str]) -> np.ndarray:
        """Row indices of the given case ids."""
        return np.array([self._pos[cid] for cid in ids], dtype=np.int64)

    def rows(self):
        for i, src in enumerate(self.ids):
            for j, tgt in enumerate(self.ids):
                yield RelevanceWeight(src, tgt, float(self.matrix[i, j]))

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["source_id", "target_id", "value"])
            for row in self.rows():
                writer.writerow([row.source_id, row.target_id, repr(row.value)])

    @classmethod
    def from_csv(cls, path: str) -> "WeightTable":
        values: dict[tuple[str, str], float] = {}
        ids: list[str] = []
        seen: set[str] = set()
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["source_id", "target_id", "value"]:
                raise RelevanceError(f"{path}: unexpected weight CSV header {header!r}")
            for row in reader:
                try:
                    src, tgt, val = row
                    value = float(val)
                except ValueError as exc:
                    raise RelevanceError(
                        f"{path}:{reader.line_num}: bad row {row!r}: {exc}"
                    ) from None
                # NaN fails both comparisons
                if not 0.0 <= value <= 1.0:
                    raise RelevanceError(
                        f"{path}:{reader.line_num}: weight {val!r} is not in [0, 1]"
                    )
                if src not in seen:
                    seen.add(src)
                    ids.append(src)
                if (src, tgt) in values:
                    raise RelevanceError(
                        f"{path}:{reader.line_num}: duplicate pair ({src!r}, {tgt!r})"
                    )
                values[(src, tgt)] = value
        matrix = np.zeros((len(ids), len(ids)), dtype=np.float64)
        for i, src in enumerate(ids):
            for j, tgt in enumerate(ids):
                try:
                    matrix[i, j] = values[(src, tgt)]
                except KeyError:
                    raise RelevanceError(f"{path}: missing pair ({src!r}, {tgt!r})") from None
        return cls(ids, matrix)


def pairwise_weights(
    cases: list[CaseDocument],
    profiles: dict[str, SimilarityProfile],
) -> WeightTable:
    """Weight table over all ordered pairs of the given cases.

    The diagonal equals 1 whenever a case's holding has lexical contact
    with at least one branch of one of its articles; a case with all-zero
    score vectors scores 0 even against itself.
    """
    ids = [case.case_id for case in cases]
    if len(set(ids)) != len(ids):
        raise RelevanceError("case ids must be unique")
    matrix = np.zeros((len(ids), len(ids)), dtype=np.float64)
    for i, ci in enumerate(cases):
        for j, cj in enumerate(cases):
            matrix[i, j] = weight(ci, cj, profiles).value
    return WeightTable(ids, matrix)


def load_cases(path: str) -> list[CaseDocument]:
    """Read cases from JSON lines with fields case_id, facts, holding,
    decision, articles[]."""
    cases = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RelevanceError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
            try:
                case = CaseDocument(
                    case_id=obj["case_id"],
                    facts=obj["facts"],
                    holding=obj.get("holding", ""),
                    decision=obj.get("decision", ""),
                    articles=frozenset(obj.get("articles", [])),
                )
            except KeyError as exc:
                raise RelevanceError(f"{path}:{lineno}: missing field {exc.args[0]!r}") from None
            case.validate()
            cases.append(case)
    return cases


def save_cases(cases: list[CaseDocument], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for case in cases:
            obj = {
                "case_id": case.case_id,
                "facts": case.facts,
                "holding": case.holding,
                "decision": case.decision,
                "articles": sorted(case.articles),
            }
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")
