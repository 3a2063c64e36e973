"""Synthetic corpus: counts, determinism, and ground-truth recovery."""

import numpy as np
import pytest

from casevec.articles import build_corpus
from casevec.bm25 import build_index, compute_profiles
from casevec.relevance import pairwise_weights
from casevec.sampling import class_partition
from casevec.synth import SynthError, SynthSpec, generate, load_labels, write_corpus
from casevec.text import TokenizerConfig

TOK = TokenizerConfig()


def pipeline(corpus):
    articles = build_corpus(corpus.article_specs, TOK)
    index = build_index(articles, TOK)
    profiles = compute_profiles(corpus.cases, articles, index)
    return articles, profiles, pairwise_weights(corpus.cases, profiles)


class TestGenerate:
    def test_counts(self):
        corpus = generate(SynthSpec(num_articles=2, branches_per_article=2,
                                    cases_per_branch=5, queries_per_branch=1, vocab_size=40))
        assert len(corpus.cases) == 2 * 2 * 5
        assert len(corpus.queries) == 2 * 2 * 1
        assert set(corpus.case_branches) == {c.case_id for c in corpus.cases}

    def test_article_specs_expand_to_requested_branches(self):
        corpus = generate(SynthSpec(num_articles=3, branches_per_article=4, vocab_size=80,
                                    cases_per_branch=1))
        articles = build_corpus(corpus.article_specs, TOK)
        assert [len(bs) for bs in articles.by_article.values()] == [4, 4, 4]

    def test_same_seed_same_corpus_bytes(self, tmp_path):
        spec = SynthSpec(seed=13)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        p1 = write_corpus(generate(spec), str(d1))
        p2 = write_corpus(generate(spec), str(d2))
        for key in p1:
            assert open(p1[key], "rb").read() == open(p2[key], "rb").read()

    def test_different_seed_differs(self):
        c1 = generate(SynthSpec(seed=1))
        c2 = generate(SynthSpec(seed=2))
        assert any(a.holding != b.holding for a, b in zip(c1.cases, c2.cases))

    def test_vocabulary_too_small_rejected(self):
        with pytest.raises(SynthError, match="vocab_size"):
            generate(SynthSpec(num_articles=3, branches_per_article=3,
                               keywords_per_branch=5, vocab_size=45))

    def test_noise_rate_bounds(self):
        with pytest.raises(SynthError, match="noise_rate"):
            SynthSpec(noise_rate=1.0)

    def test_queries_per_branch_not_negative(self):
        with pytest.raises(SynthError, match="queries_per_branch must not be negative, got -1"):
            SynthSpec(queries_per_branch=-1)
        assert generate(SynthSpec(queries_per_branch=0)).queries == []

    def test_qrels_grade_by_branch_and_article(self):
        corpus = generate(SynthSpec(num_articles=2, branches_per_article=2,
                                    cases_per_branch=2, queries_per_branch=1, vocab_size=40))
        query = corpus.queries[0]
        q_branch = corpus.query_branches[query.query_id]
        for case in corpus.cases:
            c_branch = corpus.case_branches[case.case_id]
            grade = corpus.qrels.grade(query.query_id, case.case_id)
            if c_branch == q_branch:
                assert grade == 3
            elif c_branch[0] == q_branch[0]:
                assert grade == 1
            else:
                assert grade == 0


class TestNoiselessGroundTruth:
    def setup_method(self):
        self.corpus = generate(SynthSpec(num_articles=2, branches_per_article=3,
                                         cases_per_branch=3, queries_per_branch=1,
                                         vocab_size=60, noise_rate=0.0, seed=21))
        self.articles, self.profiles, self.table = pipeline(self.corpus)

    def test_profile_argmax_recovers_true_branch(self):
        for case in self.corpus.cases:
            article_id, branch = self.corpus.case_branches[case.case_id]
            assert np.argmax(self.profiles[case.case_id].vectors[article_id]) == branch

    def test_weight_one_within_branch_zero_across_articles(self):
        for ci in self.corpus.cases:
            for cj in self.corpus.cases:
                bi = self.corpus.case_branches[ci.case_id]
                bj = self.corpus.case_branches[cj.case_id]
                w = self.table.get(ci.case_id, cj.case_id)
                if bi == bj:
                    assert w == pytest.approx(1.0)
                elif bi[0] != bj[0]:
                    assert w == 0.0

    def test_partition_recovers_branch_grouping(self):
        ids = [c.case_id for c in self.corpus.cases]
        part = class_partition(ids, self.table, 0.25)
        by_label: dict[int, set] = {}
        for cid, label in zip(ids, part.labels):
            by_label.setdefault(label, set()).add(self.corpus.case_branches[cid])
        # every class maps to exactly one true branch and vice versa
        assert all(len(branches) == 1 for branches in by_label.values())
        assert len(by_label) == 2 * 3


class TestLabelsFile:
    def test_round_trip(self, tmp_path):
        corpus = generate(SynthSpec(cases_per_branch=2, queries_per_branch=1))
        paths = write_corpus(corpus, str(tmp_path / "c"))
        labels = load_labels(paths["labels"])
        for case in corpus.cases:
            article_id, b = corpus.case_branches[case.case_id]
            assert labels[case.case_id] == f"{article_id}:b{b}"
        for query in corpus.queries:
            assert query.query_id in labels

    def test_repeated_case_id_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("case_id,label\nc1,a\nc2,a\nc1,b\n")
        with pytest.raises(SynthError) as excinfo:
            load_labels(str(path))
        assert str(excinfo.value) == f"{path}:4: case_id 'c1' repeats line 2"
