"""The BM25 term table and scores against a brute-force reference.

The expected values for the 3-document toy corpus were computed with
the reference implementation in _helpers before the module existed and
are frozen here.
"""

import math

import numpy as np
import pytest

from casevec.articles import ArticleBranch, ArticleCorpus, ArticleSpec, build_corpus
from casevec.bm25 import Bm25Error, build_index, compute_profiles
from casevec.relevance import CaseDocument
from casevec.text import TokenizerConfig

from _helpers import bm25_reference, bm25_scores


def corpus_from_sequences(sequences, article_id="art"):
    """One article whose branch t holds the t-th token sequence."""
    branches = [
        ArticleBranch(article_id, t, tuple(seq)) for t, seq in enumerate(sequences)
    ]
    return ArticleCorpus(branches=branches, by_article={article_id: branches})


TOY_DOCS = [["a", "b"], ["a", "c", "c"], ["b", "c", "d", "d"]]
TOY_QUERY = ["a", "c", "d"]
# frozen from bm25_reference(TOY_DOCS, TOY_QUERY, k1=1.5, b=0.75)
TOY_EXPECTED = [0.5529454461714537, 1.1414373853110722, 1.6742849409581266]


class TestIndexStatistics:
    def test_table_of_three_branch_corpus(self):
        """One row per token in order of first appearance, one column per
        branch, and a last row of zeros for every other token."""
        corpus = corpus_from_sequences(TOY_DOCS)
        index = build_index(corpus)
        assert index.rows == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert index.positions == {("art", 0): 0, ("art", 1): 1, ("art", 2): 2}
        assert index.terms.shape == (5, 3)
        assert index.terms.dtype == np.float64
        assert not index.terms[-1].any()

    def test_document_frequency(self):
        """A term is positive exactly where its token occurs, so each row
        holds its token's document frequency."""
        index = build_index(corpus_from_sequences(TOY_DOCS))
        assert {tok: np.count_nonzero(index.terms[r]) for tok, r in index.rows.items()} == (
            {"a": 2, "b": 2, "c": 2, "d": 1})

    def test_random_corpora_terms_match_reference(self):
        """Every term equals the one-token reference score bit for bit."""
        rng = np.random.default_rng(5)
        single_branch = 0
        for _ in range(100):
            corpus = random_corpus(rng)
            single_branch += len(corpus) == 1
            k1, b = float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.0, 1.0))
            index = build_index(corpus, k1=k1, b=b)
            docs = [list(br.keyword_sequence) for br in corpus.branches]
            assert set(index.rows) == {tok for d in docs for tok in d}
            assert sorted(index.rows.values()) == list(range(len(index.rows)))
            assert index.terms.shape == (len(index.rows) + 1, len(docs))
            for tok, r in index.rows.items():
                expected = bm25_reference(docs, [tok], k1=k1, b=b)
                assert index.terms[r].tobytes() == np.array(expected, dtype=np.float64).tobytes()
        assert single_branch >= 5

    def test_random_corpora_last_row_zero_and_table_read_only(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            index = build_index(random_corpus(rng), k1=float(rng.uniform(0.5, 2.5)),
                                b=float(rng.uniform(0.0, 1.0)))
            assert not index.terms[-1].any()
            assert not index.terms.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                index.terms[0, 0] = 1.0

    def test_random_corpora_terms_positive_where_token_occurs(self):
        """The plus-one idf keeps a term positive even when every branch
        holds the token; a token the branch lacks has a zero term."""
        rng = np.random.default_rng(7)
        single_branch = 0
        for _ in range(100):
            corpus = random_corpus(rng)
            single_branch += len(corpus) == 1
            index = build_index(corpus, k1=float(rng.uniform(0.5, 2.5)),
                                b=float(rng.uniform(0.0, 1.0)))
            for tok, r in index.rows.items():
                for pos, br in enumerate(corpus.branches):
                    assert (index.terms[r, pos] > 0.0) == (tok in br.keyword_sequence)
        assert single_branch >= 5

    def test_empty_corpus_rejected(self):
        with pytest.raises(Bm25Error, match="empty"):
            build_index(ArticleCorpus())

    def test_bad_parameters_rejected(self):
        corpus = corpus_from_sequences(TOY_DOCS)
        for k1 in (0.0, math.nan, math.inf):
            with pytest.raises(Bm25Error, match="k1"):
                build_index(corpus, k1=k1)
        with pytest.raises(Bm25Error, match="b must"):
            build_index(corpus, b=1.5)


class TestScores:
    def test_disjoint_query_scores_zero(self):
        corpus = corpus_from_sequences(TOY_DOCS)
        index = build_index(corpus)
        assert not bm25_scores(["z", "q"], corpus, index).any()

    def test_single_branch_corpus_idf_stays_positive(self):
        """With the plus-one idf, df = N = 1 gives ln(4/3), not zero, so an
        overlapping query scores above zero."""
        corpus = corpus_from_sequences([["a", "b"]])
        index = build_index(corpus)
        # tf = 1 and dl = avgdl, so the term is the idf itself
        assert index.terms[index.rows["a"], 0] == pytest.approx(math.log(4.0 / 3.0))
        (score,) = bm25_scores(["a"], corpus, index)
        assert score == pytest.approx(bm25_reference([["a", "b"]], ["a"])[0])
        assert score > 0.0

    def test_toy_corpus_frozen_values(self):
        corpus = corpus_from_sequences(TOY_DOCS)
        index = build_index(corpus, k1=1.5, b=0.75)
        assert list(bm25_scores(TOY_QUERY, corpus, index)) == pytest.approx(TOY_EXPECTED, abs=1e-9)

    def test_toy_corpus_matches_reference(self):
        corpus = corpus_from_sequences(TOY_DOCS)
        index = build_index(corpus)
        got = bm25_scores(TOY_QUERY, corpus, index)
        assert got.tolist() == bm25_reference(TOY_DOCS, TOY_QUERY)

    def test_duplicate_query_token_counts_twice(self):
        corpus = corpus_from_sequences(TOY_DOCS)
        index = build_index(corpus)
        single = bm25_scores(["a"], corpus, index)
        double = bm25_scores(["a", "a"], corpus, index)
        assert list(double) == pytest.approx(list(2 * single))

    def test_absent_token_never_changes_score(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            docs = [
                [f"t{rng.integers(0, 8)}" for _ in range(int(rng.integers(1, 10)))]
                for _ in range(int(rng.integers(1, 6)))
            ]
            corpus = corpus_from_sequences(docs)
            index = build_index(corpus)
            query = [f"t{rng.integers(0, 8)}" for _ in range(4)]
            doc_pos = int(rng.integers(0, len(docs)))
            base = bm25_scores(query, corpus, index)[doc_pos]
            assert bm25_scores(query + ["zz"], corpus, index)[doc_pos] == base

    def test_unindexed_branch_rejected(self):
        """Another corpus's index names the first branch it lacks."""
        index = build_index(corpus_from_sequences(TOY_DOCS))
        stranger = corpus_from_sequences([["a"], ["b"]], article_id="b")
        case = CaseDocument("c1", facts="f", holding="a")
        with pytest.raises(Bm25Error, match=r"^branch \('b', 0\) is not part of the indexed corpus$"):
            compute_profiles([case], stranger, index)


class TestRandomOracleEquivalence:
    def test_random_corpora_match_reference(self):
        """Module scores equal the brute-force reference on random corpora
        (relative 1e-9)."""
        rng = np.random.default_rng(123)
        for _ in range(30):
            n_docs = int(rng.integers(1, 21))
            docs = [
                [f"t{rng.integers(0, 25)}" for _ in range(int(rng.integers(1, 31)))]
                for _ in range(n_docs)
            ]
            k1 = float(rng.uniform(0.5, 2.5))
            b = float(rng.uniform(0.0, 1.0))
            corpus = corpus_from_sequences(docs)
            index = build_index(corpus, k1=k1, b=b)
            query = [f"t{rng.integers(0, 25)}" for _ in range(int(rng.integers(1, 12)))]
            expected = bm25_reference(docs, query, k1=k1, b=b)
            got = bm25_scores(query, corpus, index)
            assert list(got) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def profile_of(case, corpus, index):
    return compute_profiles([case], corpus, index)[case.case_id]


class TestSimilarityProfile:
    def make_two_article_corpus(self):
        specs = [
            ArticleSpec("art-a", [[["alpha beta"]], [["gamma delta"]]]),
            ArticleSpec("art-b", [[["epsilon"], ["zeta", "eta"]]]),
        ]
        return build_corpus(specs)

    def test_profile_lengths_match_branch_counts(self):
        corpus = self.make_two_article_corpus()
        index = build_index(corpus)
        case = CaseDocument("c1", facts="f", holding="alpha gamma", articles=frozenset({"art-a"}))
        profile = profile_of(case, corpus, index)
        assert set(profile.vectors) == {"art-a", "art-b"}
        assert len(profile.vectors["art-a"]) == len(corpus.by_article["art-a"]) == 2
        assert len(profile.vectors["art-b"]) == len(corpus.by_article["art-b"]) == 2

    def test_disjoint_holding_gives_zero_profile(self):
        corpus = self.make_two_article_corpus()
        index = build_index(corpus)
        case = CaseDocument("c1", facts="f", holding="nothing shared here")
        profile = profile_of(case, corpus, index)
        assert all(not v.any() for v in profile.vectors.values())

    def test_holding_equal_to_branch_maximizes_that_component(self):
        corpus = self.make_two_article_corpus()
        index = build_index(corpus)
        case = CaseDocument("c1", facts="f", holding="alpha beta")
        profile = profile_of(case, corpus, index)
        v = profile.vectors["art-a"]
        assert int(np.argmax(v)) == 0
        assert v[0] > v[1]
        docs = [list(br.keyword_sequence) for br in corpus.branches]
        expected = bm25_reference(docs, ["alpha", "beta"])
        assert list(np.concatenate([profile.vectors["art-a"], profile.vectors["art-b"]])) == (
            pytest.approx(expected, abs=1e-12)
        )

    def test_empty_holding_rejected(self):
        corpus = self.make_two_article_corpus()
        index = build_index(corpus)
        case = CaseDocument("c1", facts="f", holding="  . , ")
        with pytest.raises(Bm25Error, match="empty query"):
            profile_of(case, corpus, index)

    def test_profiles_deterministic(self):
        corpus = self.make_two_article_corpus()
        index = build_index(corpus)
        cases = [
            CaseDocument("c1", facts="f", holding="alpha zeta"),
            CaseDocument("c2", facts="f", holding="gamma epsilon eta"),
        ]
        p1 = compute_profiles(cases, corpus, index)
        p2 = compute_profiles(cases, corpus, index)
        for cid in p1:
            for art in p1[cid].vectors:
                assert np.array_equal(p1[cid].vectors[art], p2[cid].vectors[art])

    def test_char_unigram_configuration(self):
        specs = [ArticleSpec("a", [[["ab"], ["cd"]]])]
        cfg = TokenizerConfig(mode="char-unigram")
        corpus = build_corpus(specs, cfg)
        assert corpus.branches[0].keyword_sequence == ("a", "b", "c", "d")
        index = build_index(corpus, cfg)
        case = CaseDocument("c1", facts="f", holding="ax")
        profile = profile_of(case, corpus, index)
        assert profile.vectors["a"][0] > 0.0


def random_corpus(rng):
    """1-4 articles of 1-4 branches over tokens t0-t11, so some articles
    and some whole corpora have a single branch."""
    branches, by_article = [], {}
    for a in range(int(rng.integers(1, 5))):
        article_id = f"art-{a}"
        by_article[article_id] = [
            ArticleBranch(article_id, t, tuple(f"t{k}" for k in rng.integers(0, 12, rng.integers(1, 9))))
            for t in range(int(rng.integers(1, 5)))
        ]
        branches += by_article[article_id]
    return ArticleCorpus(branches=branches, by_article=by_article)


class TestComputeProfiles:
    def test_bit_equal_to_reference_on_random_corpora(self):
        """Holdings of 1-40 tokens repeat tokens and hold tokens t12-t15,
        which no branch holds."""
        rng = np.random.default_rng(2024)
        single_branch = 0
        for _ in range(150):
            corpus = random_corpus(rng)
            single_branch += len(corpus) == 1
            k1, b = float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.0, 1.0))
            index = build_index(corpus, k1=k1, b=b)
            cases = [
                CaseDocument(f"c{i}", facts="f", holding=" ".join(
                    f"t{k}" for k in rng.integers(0, 16, rng.integers(1, 41))))
                for i in range(int(rng.integers(1, 6)))
            ]
            profiles = compute_profiles(cases, corpus, index)
            assert list(profiles) == [case.case_id for case in cases]
            docs = [list(br.keyword_sequence) for br in corpus.branches]
            for case in cases:
                expected = bm25_reference(docs, case.holding.split(), k1=k1, b=b)
                got = profiles[case.case_id].vectors
                assert list(got) == list(corpus.by_article)
                for article_id, vector in got.items():
                    assert vector.dtype == np.float64
                    assert len(vector) == len(corpus.by_article[article_id])
                assert np.concatenate(list(got.values())).tobytes() == (
                    np.array(expected, dtype=np.float64).tobytes())
        assert single_branch >= 5

    def test_empty_holding_rejected(self):
        corpus = corpus_from_sequences(TOY_DOCS)
        cases = [CaseDocument("c1", facts="f", holding="a"),
                 CaseDocument("c2", facts="f", holding=" , ")]
        with pytest.raises(Bm25Error, match="case 'c2': holding tokenizes to an empty query"):
            compute_profiles(cases, corpus, build_index(corpus))
