"""Deterministic synthetic statute and case corpus with known structure.

Every branch of every synthetic article owns a disjoint set of keyword
tokens, and each case is written from exactly one branch: its holding is
built from that branch's keywords (optionally corrupted by off-branch
noise tokens) and its facts paraphrase the holding with filler tokens.
Ground-truth branch assignments ship with the corpus, which makes the
whole pipeline checkable end to end without real legal data.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .articles import ArticleSpec, save_article_specs
from .evaluation import QrelSet, QueryCase, save_queries
from .files import claim, read_rows, write_rows
from .relevance import CaseDocument, save_cases


class SynthError(ValueError):
    pass


@dataclass(frozen=True)
class SynthSpec:
    num_articles: int = 2
    branches_per_article: int = 3
    keywords_per_branch: int = 4
    vocab_size: int = 60  # total distinct tokens, keywords plus fillers
    cases_per_branch: int = 6
    queries_per_branch: int = 2
    facts_len: tuple[int, int] = (24, 40)
    holding_len: tuple[int, int] = (12, 20)
    facts_keyword_rate: float = 0.6  # share of facts tokens drawn from the branch keywords
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        counts = (
            self.num_articles, self.branches_per_article, self.keywords_per_branch,
            self.vocab_size, self.cases_per_branch,
        )
        if min(counts) < 1:
            raise SynthError("all corpus counts must be positive")
        if self.queries_per_branch < 0:
            raise SynthError(
                f"queries_per_branch must not be negative, got {self.queries_per_branch}")
        if not 0.0 <= self.noise_rate < 1.0:
            raise SynthError(f"noise_rate must be in [0, 1), got {self.noise_rate}")
        if not 0.0 < self.facts_keyword_rate <= 1.0:
            raise SynthError(
                f"facts_keyword_rate must be in (0, 1], got {self.facts_keyword_rate}"
            )
        for lo, hi in (self.facts_len, self.holding_len):
            if lo < 1 or hi < lo:
                raise SynthError(f"bad length range ({lo}, {hi})")


@dataclass
class SynthCorpus:
    article_specs: list[ArticleSpec]
    cases: list[CaseDocument]
    case_branches: dict[str, tuple[str, int]] = field(default_factory=dict)
    queries: list[QueryCase] = field(default_factory=list)
    query_branches: dict[str, tuple[str, int]] = field(default_factory=dict)
    qrels: QrelSet = field(default_factory=QrelSet)


def _grade(branch_a: tuple[str, int], branch_b: tuple[str, int]) -> int:
    if branch_a == branch_b:
        return 3
    if branch_a[0] == branch_b[0]:
        return 1
    return 0


def generate(spec: SynthSpec) -> SynthCorpus:
    """Build the synthetic corpus; identical for identical specs."""
    total_keywords = spec.num_articles * spec.branches_per_article * spec.keywords_per_branch
    if total_keywords >= spec.vocab_size:
        raise SynthError(
            f"vocab_size {spec.vocab_size} cannot keep {total_keywords} branch keywords"
            " distinct and still leave filler tokens"
        )
    tokens = [f"w{i:04d}" for i in range(spec.vocab_size)]
    fillers = tokens[total_keywords:]
    rng = np.random.default_rng(spec.seed)

    branch_keywords: dict[tuple[str, int], list[str]] = {}
    specs = []
    for a in range(spec.num_articles):
        article_id = f"art-{a:02d}"
        acts = []
        for b in range(spec.branches_per_article):
            start = (a * spec.branches_per_article + b) * spec.keywords_per_branch
            kws = tokens[start : start + spec.keywords_per_branch]
            branch_keywords[(article_id, b)] = kws
            # one act per branch, one single-phrase slot per keyword
            acts.append([[kw] for kw in kws])
        specs.append(ArticleSpec(article_id=article_id, acts=acts))

    def branch_text(branch: tuple[str, int], length: int) -> list[str]:
        kws = branch_keywords[branch]
        body = list(kws) + [kws[int(i)] for i in rng.integers(0, len(kws), max(0, length - len(kws)))]
        rng.shuffle(body)
        if spec.noise_rate > 0.0:
            off_branch = [t for t in tokens if t not in kws]
            noisy = rng.random(len(body)) < spec.noise_rate
            for i in np.flatnonzero(noisy):
                body[int(i)] = off_branch[int(rng.integers(0, len(off_branch)))]
        return body

    def facts_text(branch: tuple[str, int], length: int) -> list[str]:
        kws = branch_keywords[branch]
        body = []
        for _ in range(length):
            if rng.random() < spec.facts_keyword_rate:
                body.append(kws[int(rng.integers(0, len(kws)))])
            else:
                body.append(fillers[int(rng.integers(0, len(fillers)))])
        return body

    corpus = SynthCorpus(article_specs=specs, cases=[])
    branches = sorted(branch_keywords)
    for article_id, b in branches:
        for n in range(spec.cases_per_branch):
            case_id = f"case-{article_id}-b{b}-{n:03d}"
            holding_len = int(rng.integers(spec.holding_len[0], spec.holding_len[1] + 1))
            facts_len = int(rng.integers(spec.facts_len[0], spec.facts_len[1] + 1))
            case = CaseDocument(
                case_id=case_id,
                facts=" ".join(facts_text((article_id, b), facts_len)),
                holding=" ".join(branch_text((article_id, b), holding_len)),
                decision=f"decided under {article_id}",
                articles=frozenset({article_id}),
            )
            corpus.cases.append(case)
            corpus.case_branches[case_id] = (article_id, b)

    grades: dict[tuple[str, str], int] = {}
    for article_id, b in branches:
        for n in range(spec.queries_per_branch):
            query_id = f"query-{article_id}-b{b}-{n:03d}"
            facts_len = int(rng.integers(spec.facts_len[0], spec.facts_len[1] + 1))
            corpus.queries.append(
                QueryCase(query_id=query_id, facts=" ".join(facts_text((article_id, b), facts_len)))
            )
            corpus.query_branches[query_id] = (article_id, b)
            for case in corpus.cases:
                grade = _grade((article_id, b), corpus.case_branches[case.case_id])
                if grade > 0:
                    grades[(query_id, case.case_id)] = grade
    corpus.qrels = QrelSet(grades)
    return corpus


def write_corpus(corpus: SynthCorpus, outdir: str) -> dict[str, str]:
    """Write the corpus in the pipeline's file formats; returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "articles": os.path.join(outdir, "articles.json"),
        "cases": os.path.join(outdir, "cases.jsonl"),
        "queries": os.path.join(outdir, "queries.jsonl"),
        "qrels": os.path.join(outdir, "qrels.tsv"),
        "labels": os.path.join(outdir, "labels.csv"),
    }
    save_article_specs(corpus.article_specs, paths["articles"])
    save_cases(corpus.cases, paths["cases"])
    save_queries(corpus.queries, paths["queries"])
    corpus.qrels.to_tsv(paths["qrels"])
    labelled = [(c.case_id, corpus.case_branches[c.case_id]) for c in corpus.cases] + [
        (q.query_id, corpus.query_branches[q.query_id]) for q in corpus.queries]
    write_rows(paths["labels"], [("case_id", "label")] + [
        (item_id, f"{article_id}:b{b}") for item_id, (article_id, b) in labelled])
    return paths


def load_labels(path: str) -> dict[str, str]:
    labels = {}
    rows = read_rows(path, SynthError)
    header = next(rows, (0, None))[1]
    if header != ["case_id", "label"]:
        raise SynthError(f"{path}: unexpected labels header {header!r}")
    first_line: dict[str, int] = {}
    for lineno, row in rows:
        if len(row) != 2:
            raise SynthError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
        claim(first_line, row[0], path, lineno, SynthError, "case_id")
        labels[row[0]] = row[1]
    return labels
