"""Ranking, graded NDCG, and embedding export.

The NDCG hand example freezes the value derived from its own chain:
DCG = 3/log2(3) + 1/2 = 2.392789..., IDCG = 3 + 1/log2(3) = 3.630929...,
and their ratio 0.6590018..., cross-checked against the reference
implementation in _helpers.
"""

import csv
import dataclasses
import math

import numpy as np
import pytest

import casevec.evaluation as evaluation
from casevec import encoder as enc
from casevec.articles import build_corpus
from casevec.bm25 import build_index, compute_profiles
from casevec.circle_loss import CircleLossParams
from casevec.evaluation import (
    CandidatePool,
    EvaluationError,
    QrelSet,
    QueryCase,
    RankedList,
    candidate_text,
    embed_texts,
    evaluate,
    export_embeddings,
    load_queries,
    load_run,
    ndcg_at_k,
    pca_2d,
    rank,
    save_queries,
    save_run,
)
from casevec.relevance import CaseDocument, pairwise_weights
from casevec.synth import SynthSpec, generate
from casevec.text import TokenizerConfig, tokenize
from casevec.training import TrainConfig, train

from _helpers import ndcg_reference

TOK = TokenizerConfig()


def ranked(query_id, ids_scores):
    return RankedList(query_id=query_id, ranking=list(ids_scores))


def qrels_of(query_id, grades_by_id):
    return QrelSet({(query_id, cid): g for cid, g in grades_by_id.items()})


class TestNdcg:
    def test_ideal_ordering_scores_one(self):
        run = ranked("q", [("a", 3.0), ("b", 2.0), ("c", 1.0)])
        qr = qrels_of("q", {"a": 3, "b": 2, "c": 0})
        assert ndcg_at_k(run, qr, 3) == pytest.approx(1.0)

    def test_all_zero_grades_score_zero(self):
        run = ranked("q", [("a", 3.0), ("b", 2.0)])
        assert ndcg_at_k(run, QrelSet({}), 10) == 0.0

    def test_hand_example(self):
        """Grades [0, 2, 1] by rank at k = 3."""
        run = ranked("q", [("a", 3.0), ("b", 2.0), ("c", 1.0)])
        qr = qrels_of("q", {"a": 0, "b": 2, "c": 1})
        dcg = 3.0 / math.log2(3.0) + 0.5
        idcg = 3.0 + 1.0 / math.log2(3.0)
        assert dcg == pytest.approx(2.392789, abs=1e-6)
        assert idcg == pytest.approx(3.630929, abs=1e-6)
        got = ndcg_at_k(run, qr, 3)
        assert got == pytest.approx(dcg / idcg, abs=1e-12)
        assert got == pytest.approx(0.6590018048024133, abs=1e-9)
        assert got == pytest.approx(ndcg_reference([0, 2, 1], 3), abs=1e-12)

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            grades = rng.integers(0, 4, n).tolist()
            k = int(rng.integers(1, 15))
            run = ranked("q", [(f"c{i}", float(n - i)) for i in range(n)])
            qr = qrels_of("q", {f"c{i}": g for i, g in enumerate(grades)})
            assert ndcg_at_k(run, qr, k) == pytest.approx(ndcg_reference(grades, k), abs=1e-12)

    def test_k_must_be_positive(self):
        with pytest.raises(EvaluationError, match="k must"):
            ndcg_at_k(ranked("q", [("a", 1.0)]), QrelSet({}), 0)

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            grades = rng.integers(0, 4, n).tolist()
            run = ranked("q", [(f"c{i}", float(n - i)) for i in range(n)])
            qr = qrels_of("q", {f"c{i}": g for i, g in enumerate(grades)})
            value = ndcg_at_k(run, qr, 5)
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_grade_improvements_monotone_where_provable(self):
        """Improving any grade never lowers the unnormalized DCG, and
        improving the top-ranked item never lowers NDCG. The fully general
        claim is false: an improvement displayed below its ideal position
        can raise the normalizer faster than the achieved DCG (for
        example, grades [3, 3, 0, 1, 1] with the rank-4 grade raised at
        k = 4)."""
        worse = ndcg_reference([3, 3, 0, 2, 1], 4)
        better = ndcg_reference([3, 3, 0, 1, 1], 4)
        assert worse < better  # the documented counterexample
        rng = np.random.default_rng(17)
        for _ in range(80):
            n = int(rng.integers(2, 10))
            grades = rng.integers(0, 3, n).tolist()
            k = int(rng.integers(1, n + 1))
            run = ranked("q", [(f"c{i}", float(n - i)) for i in range(n)])
            improved_top = list(grades)
            improved_top[0] += 1
            before = ndcg_at_k(run, qrels_of("q", {f"c{i}": g for i, g in enumerate(grades)}), k)
            after = ndcg_at_k(
                run, qrels_of("q", {f"c{i}": g for i, g in enumerate(improved_top)}), k
            )
            assert after >= before - 1e-12

            def dcg(gs):
                return sum((2.0**g - 1.0) / math.log2(r + 2.0) for r, g in enumerate(gs[:k]))

            pos = int(rng.integers(0, n))
            improved_any = list(grades)
            improved_any[pos] += 1
            assert dcg(improved_any) >= dcg(grades) - 1e-12

    def test_permuting_equal_grade_tie_block_changes_nothing(self):
        qr = qrels_of("q", {"a": 2, "b": 1, "c": 1, "d": 0})
        run1 = ranked("q", [("a", 3.0), ("b", 2.0), ("c", 2.0), ("d", 1.0)])
        run2 = ranked("q", [("a", 3.0), ("c", 2.0), ("b", 2.0), ("d", 1.0)])
        assert ndcg_at_k(run1, qr, 4) == ndcg_at_k(run2, qr, 4)


class TestEvaluate:
    def test_single_ideal_run(self):
        run = ranked("q", [("a", 2.0), ("b", 1.0)])
        qr = qrels_of("q", {"a": 2, "b": 1})
        metrics = evaluate([run], qr)
        assert set(metrics) == {"ndcg@10", "ndcg@20", "ndcg@30"}
        for k in metrics:
            assert metrics[k]["mean"] == pytest.approx(1.0)

    def test_mean_over_queries(self):
        run1 = ranked("q1", [("a", 2.0), ("b", 1.0)])
        run2 = ranked("q2", [("a", 2.0), ("b", 1.0)])
        qr = QrelSet({("q1", "a"): 1, ("q2", "b"): 1})
        metrics = evaluate([run1, run2], qr, ks=(10,))
        assert metrics["ndcg@10"]["per_query"]["q1"] == pytest.approx(1.0)
        assert metrics["ndcg@10"]["per_query"]["q2"] < 1.0
        expected = (
            metrics["ndcg@10"]["per_query"]["q1"] + metrics["ndcg@10"]["per_query"]["q2"]
        ) / 2
        assert metrics["ndcg@10"]["mean"] == pytest.approx(expected)

    def test_means_match_per_query_calls(self):
        rng = np.random.default_rng(6)
        runs, grades = [], {}
        for q in range(4):
            ids = [f"c{q}{i}" for i in range(6)]
            runs.append(ranked(f"q{q}", [(cid, float(10 - i)) for i, cid in enumerate(ids)]))
            for cid in ids:
                grades[(f"q{q}", cid)] = int(rng.integers(0, 4))
        qr = QrelSet(grades)
        metrics = evaluate(runs, qr, ks=(5,))
        for run in runs:
            assert metrics["ndcg@5"]["per_query"][run.query_id] == pytest.approx(
                ndcg_at_k(run, qr, 5)
            )

    def test_missing_qrels_listed(self):
        runs = [ranked("q1", [("a", 1.0)]), ranked("q2", [("a", 1.0)])]
        qr = QrelSet({("q1", "a"): 1})
        with pytest.raises(EvaluationError, match="q2"):
            evaluate(runs, qr)
        metrics = evaluate(runs, qr, ks=(10,), skip_unjudged=True)
        assert list(metrics["ndcg@10"]["per_query"]) == ["q1"]


def build_encoder_fixture(texts):
    vocab = enc.Vocab.build([t.split() for t in texts])
    cfg = enc.EncoderConfig(vocab_size=len(vocab), hidden_size=12, num_layers=1,
                            num_heads=2, ffn_size=16, max_len=32, seed=2)
    return enc.init_params(cfg), cfg, vocab


class TestRank:
    def make_pool(self):
        candidates = [
            CaseDocument("c-same", facts="alpha beta gamma", holding=""),
            CaseDocument("c-near", facts="alpha beta delta", holding=""),
            CaseDocument("c-far", facts="epsilon zeta eta", holding=""),
        ]
        query = QueryCase(query_id="q", facts="alpha beta gamma")
        texts = [query.facts] + [candidate_text(c) for c in candidates]
        params, cfg, vocab = build_encoder_fixture(texts)
        return query, candidates, params, cfg, vocab

    def test_pool_of_one(self):
        query, candidates, params, cfg, vocab = self.make_pool()
        run = rank(query, CandidatePool("q", candidates[:1]), params, cfg, vocab, TOK)
        assert run.ranking[0][0] == "c-same"

    def test_identical_candidate_ranks_first_with_cosine_one(self):
        query, candidates, params, cfg, vocab = self.make_pool()
        run = rank(query, CandidatePool("q", candidates), params, cfg, vocab, TOK)
        assert run.ranking[0][0] == "c-same"
        assert run.ranking[0][1] == pytest.approx(1.0, abs=1e-12)
        scores = [score for _, score in run.ranking]
        assert scores == sorted(scores, reverse=True)

    def test_order_invariant_to_pool_order(self):
        query, candidates, params, cfg, vocab = self.make_pool()
        fwd = rank(query, CandidatePool("q", candidates), params, cfg, vocab, TOK)
        rev = rank(query, CandidatePool("q", candidates[::-1]), params, cfg, vocab, TOK)
        assert [cid for cid, _ in fwd.ranking] == [cid for cid, _ in rev.ranking]

    def test_empty_pool_rejected(self):
        query, _, params, cfg, vocab = self.make_pool()
        with pytest.raises(EvaluationError, match="empty"):
            rank(query, CandidatePool("q", []), params, cfg, vocab, TOK)

    def test_bit_reproducible(self):
        query, candidates, params, cfg, vocab = self.make_pool()
        a = rank(query, CandidatePool("q", candidates), params, cfg, vocab, TOK)
        b = rank(query, CandidatePool("q", candidates), params, cfg, vocab, TOK)
        assert a == b

    def test_tied_scores_order_by_case_id_code_points(self):
        """Two groups of four candidates with equal texts, so equal scores;
        each group orders its non-ASCII ids by code point."""
        query, _, params, cfg, vocab = self.make_pool()
        near, far = "alpha beta gamma", "epsilon zeta eta"
        pool = [CaseDocument(cid, facts=facts, holding="") for cid, facts in [
            ("é", near), ("ß", far), ("Z", near), ("案例", far),
            ("a", near), ("ö", far), ("Ä", near), ("z", far)]]
        run = rank(query, CandidatePool("q", pool), params, cfg, vocab, TOK)
        assert [cid for cid, _ in run.ranking] == ["Z", "a", "Ä", "é", "z", "ß", "ö", "案例"]
        scores = [score for _, score in run.ranking]
        assert len(set(scores[:4])) == len(set(scores[4:])) == 1
        assert scores[0] > scores[4]


def forward_embed_texts(texts, params, cfg, vocab, tok):
    """[CLS] rows of the training forward over one padded batch."""
    ids, valid = enc.pad_batch([enc.build_input_ids(tokenize(t, tok), vocab, cfg)
                                for t in texts])
    return enc.forward(ids, valid, params, cfg)[0][:, 0]


def joint_rank_reference(query, candidates, params, cfg, vocab, tok, embed=embed_texts):
    """Ranking by one joint batch of the query and every candidate, the
    path that embedded the whole pool again for each query."""
    texts = [query.facts] + [candidate_text(c) for c in candidates]
    embeddings = embed(texts, params, cfg, vocab, tok)
    norms = np.linalg.norm(embeddings, axis=1)
    unit = embeddings / np.where(norms == 0.0, 1.0, norms)[:, None]
    sims = unit[1:] @ unit[0]
    order = sorted(range(len(candidates)), key=lambda i: (-sims[i], candidates[i].case_id))
    return [(candidates[i].case_id, float(sims[i])) for i in order]


@pytest.fixture(scope="module")
def trained():
    """A synthetic corpus and params after a few training steps."""
    corpus = generate(SynthSpec(num_articles=2, branches_per_article=2, cases_per_branch=4,
                                queries_per_branch=2, vocab_size=44, seed=3))
    articles = build_corpus(corpus.article_specs, TOK)
    table = pairwise_weights(corpus.cases,
                             compute_profiles(corpus.cases, articles, build_index(articles, TOK)))
    vocab = enc.Vocab.build([tokenize(c.facts, TOK) + tokenize(c.holding, TOK)
                             for c in corpus.cases])
    cfg = enc.EncoderConfig(vocab_size=len(vocab), hidden_size=16, num_layers=1,
                            num_heads=2, ffn_size=24, max_len=64, seed=1)
    params, _ = train(corpus.cases, table, vocab, TOK, cfg,
                      TrainConfig(steps=4, batch_quadruples=2, seed=5),
                      hp=CircleLossParams(mix=1.0))
    return corpus, params, cfg, vocab


@pytest.fixture
def embedded_rows(monkeypatch):
    """Row count of every call rank makes to embed_texts, starting from an
    empty memo; the reference above calls the unwrapped function."""
    monkeypatch.setattr(evaluation, "_pool_memo", None)
    rows = []
    real = evaluation.embed_texts

    def counting(texts, *args):
        rows.append(len(texts))
        return real(texts, *args)

    monkeypatch.setattr(evaluation, "embed_texts", counting)
    return rows


def assert_matches_reference(run, query, candidates, params, cfg, vocab, tok=TOK,
                             embed=embed_texts):
    expected = joint_rank_reference(query, candidates, params, cfg, vocab, tok, embed)
    assert [cid for cid, _ in run.ranking] == [cid for cid, _ in expected]
    for (_, got), (_, want) in zip(run.ranking, expected):
        assert abs(got - want) <= 1e-12


class TestPoolMemo:
    def test_every_query_matches_the_joint_batch(self, trained, embedded_rows):
        corpus, params, cfg, vocab = trained
        n = len(corpus.cases)
        for query in corpus.queries:
            run = rank(query, CandidatePool(query.query_id, corpus.cases), params, cfg, vocab, TOK)
            assert_matches_reference(run, query, corpus.cases, params, cfg, vocab)
        assert embedded_rows == [n] + [1] * len(corpus.queries)

    def test_every_query_matches_the_training_forward(self, trained, embedded_rows):
        corpus, params, cfg, vocab = trained
        for query in corpus.queries:
            run = rank(query, CandidatePool(query.query_id, corpus.cases), params, cfg, vocab, TOK)
            assert_matches_reference(run, query, corpus.cases, params, cfg, vocab,
                                     embed=forward_embed_texts)

    def test_equal_content_hits_across_new_objects(self, trained, embedded_rows):
        corpus, params, cfg, vocab = trained
        query = corpus.queries[0]
        first = rank(query, CandidatePool("q", corpus.cases), params, cfg, vocab, TOK)
        copies = {k: v.copy() for k, v in params.items()}
        again = rank(query, CandidatePool("q", list(corpus.cases)), copies, cfg,
                     enc.Vocab(list(vocab.tokens)), TokenizerConfig())
        assert again == first
        assert embedded_rows == [len(corpus.cases), 1, 1]

    def test_in_place_param_change_recomputes(self, trained, embedded_rows):
        corpus, params, cfg, vocab = trained
        params = {k: v.copy() for k, v in params.items()}
        query = corpus.queries[0]
        rank(query, CandidatePool("q", corpus.cases), params, cfg, vocab, TOK)
        params["layers.0.ffn.b1"][3] += 0.05  # as Adam.step does, in place
        run = rank(query, CandidatePool("q", corpus.cases), params, cfg, vocab, TOK)
        assert embedded_rows == [len(corpus.cases), 1, len(corpus.cases), 1]
        assert_matches_reference(run, query, corpus.cases, params, cfg, vocab)

    def test_different_candidates_recompute(self, trained, embedded_rows):
        corpus, params, cfg, vocab = trained
        query = corpus.queries[1]
        rank(query, CandidatePool("q", corpus.cases), params, cfg, vocab, TOK)
        fewer = corpus.cases[1:]
        run = rank(query, CandidatePool("q", fewer), params, cfg, vocab, TOK)
        assert embedded_rows == [len(corpus.cases), 1, len(fewer), 1]
        assert_matches_reference(run, query, fewer, params, cfg, vocab)

    def test_different_tokenizer_config_recomputes(self, trained, embedded_rows):
        corpus, params, cfg, vocab = trained
        query = corpus.queries[2]
        rank(query, CandidatePool("q", corpus.cases), params, cfg, vocab, TOK)
        other = TokenizerConfig(mode="char-unigram")
        run = rank(query, CandidatePool("q", corpus.cases), params, cfg, vocab, other)
        assert embedded_rows == [len(corpus.cases), 1, len(corpus.cases), 1]
        assert_matches_reference(run, query, corpus.cases, params, cfg, vocab, other)

    def test_renamed_token_recomputes(self, trained, embedded_rows):
        corpus, params, cfg, vocab = trained
        query = corpus.queries[0]
        rank(query, CandidatePool("q", corpus.cases), params, cfg, vocab, TOK)
        renamed = enc.Vocab(vocab.tokens[:-1] + ["renamed"])
        assert len(renamed) == len(vocab)
        run = rank(query, CandidatePool("q", corpus.cases), params, cfg, renamed, TOK)
        assert embedded_rows == [len(corpus.cases), 1, len(corpus.cases), 1]
        assert_matches_reference(run, query, corpus.cases, params, cfg, renamed)

    def test_different_layer_norm_eps_recomputes(self, trained, embedded_rows):
        corpus, params, cfg, vocab = trained
        query = corpus.queries[1]
        rank(query, CandidatePool("q", corpus.cases), params, cfg, vocab, TOK)
        other = dataclasses.replace(cfg, layer_norm_eps=cfg.layer_norm_eps * 10)
        run = rank(query, CandidatePool("q", corpus.cases), params, other, vocab, TOK)
        assert embedded_rows == [len(corpus.cases), 1, len(corpus.cases), 1]
        assert_matches_reference(run, query, corpus.cases, params, other, vocab)

    def test_in_place_vocab_change_recomputes(self, trained, embedded_rows):
        corpus, params, cfg, vocab = trained
        vocab = enc.Vocab(vocab.tokens)
        query = corpus.queries[2]
        rank(query, CandidatePool("q", corpus.cases), params, cfg, vocab, TOK)
        vocab.tokens[-1] = "renamed"  # the caller's own list, changed in place
        rank(query, CandidatePool("q", corpus.cases), params, cfg, vocab, TOK)
        assert embedded_rows == [len(corpus.cases), 1, len(corpus.cases), 1]

    def test_memo_holds_one_pool(self, trained, embedded_rows):
        corpus, params, cfg, vocab = trained
        query = corpus.queries[0]
        pool_a, pool_b = corpus.cases[:6], corpus.cases[6:]
        for pool in (pool_a, pool_b, pool_a):
            rank(query, CandidatePool("q", pool), params, cfg, vocab, TOK)
        assert embedded_rows == [len(pool_a), 1, len(pool_b), 1, len(pool_a), 1]
        key, units = evaluation._pool_memo
        assert units.shape == (len(pool_a), cfg.hidden_size)
        assert not units.flags.writeable


class TestPca2d:
    def test_planar_points_keep_pairwise_distances(self):
        rng = np.random.default_rng(3)
        flat = rng.normal(0.0, 1.0, (10, 2))
        basis, _ = np.linalg.qr(rng.normal(0.0, 1.0, (6, 6)))
        points = flat @ basis[:2, :]  # rank-2 data in 6 dimensions
        coords, _, explained = pca_2d(points)
        d_before = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
        d_after = np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)
        assert np.allclose(d_before, d_after, atol=1e-9)
        assert explained == pytest.approx(1.0)

    def test_explained_variance_matches_eigen_oracle(self):
        rng = np.random.default_rng(4)
        points = rng.normal(0.0, 1.0, (40, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
        _, _, explained = pca_2d(points)
        centered = points - points.mean(axis=0)
        eigvals = sorted(np.linalg.eigvalsh(centered.T @ centered / 39), reverse=True)
        assert explained == pytest.approx((eigvals[0] + eigvals[1]) / sum(eigvals), abs=1e-12)

    def test_component_sign_is_fixed(self):
        rng = np.random.default_rng(5)
        points = rng.normal(0.0, 1.0, (12, 4))
        _, components, _ = pca_2d(points)
        for row in components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_needs_two_rows(self):
        with pytest.raises(EvaluationError, match="at least 2"):
            pca_2d(np.zeros((1, 4)))


class TestExportEmbeddings:
    def make_cases(self):
        cases = [
            CaseDocument(f"c{i}", facts=f"alpha beta w{i}", holding="gamma",
                         articles=frozenset({"art-a"}))
            for i in range(5)
        ]
        texts = [candidate_text(c) for c in cases]
        params, cfg, vocab = build_encoder_fixture(texts)
        return cases, params, cfg, vocab

    def test_raw_export_shape(self, tmp_path):
        """A raw export writes a header, then per case its id, its articles
        joined with '|' (empty for a case that cites none) and ``repr`` of
        each ``embed_texts`` value, so no digit of the vector is lost."""
        cases, params, cfg, vocab = self.make_cases()
        cases[1] = dataclasses.replace(cases[1], articles=frozenset())
        cases[2] = dataclasses.replace(cases[2], articles=frozenset({"art-b", "art-a"}))
        path = tmp_path / "emb.csv"
        export_embeddings(cases, params, cfg, vocab, TOK, str(path))
        embeddings = embed_texts([candidate_text(c) for c in cases], params, cfg, vocab, TOK)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["case_id", "label"] + [f"dim{i}" for i in range(cfg.hidden_size)]
        assert [row[:2] for row in rows[1:]] == [
            ["c0", "art-a"], ["c1", ""], ["c2", "art-a|art-b"], ["c3", "art-a"], ["c4", "art-a"]]
        assert [row[2:] for row in rows[1:]] == [[repr(float(x)) for x in e] for e in embeddings]

    def test_pca_export_columns(self, tmp_path):
        cases, params, cfg, vocab = self.make_cases()
        path = tmp_path / "emb2.csv"
        export_embeddings(cases, params, cfg, vocab, TOK, str(path), projection="pca2d",
                          labels={c.case_id: f"L{i}" for i, c in enumerate(cases)})
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["case_id", "label", "x", "y"]
        assert rows[1][1] == "L0"
        float(rows[1][2]), float(rows[1][3])

    def test_pca_needs_two_cases(self, tmp_path):
        cases, params, cfg, vocab = self.make_cases()
        with pytest.raises(EvaluationError, match="at least 2"):
            export_embeddings(cases[:1], params, cfg, vocab, TOK,
                              str(tmp_path / "x.csv"), projection="pca2d")
        assert not (tmp_path / "x.csv").exists()  # projected before the output is opened

    def test_unknown_projection_rejected(self, tmp_path):
        cases, params, cfg, vocab = self.make_cases()
        with pytest.raises(EvaluationError, match="projection"):
            export_embeddings(cases, params, cfg, vocab, TOK,
                              str(tmp_path / "x.csv"), projection="tsne")


class TestFileFormats:
    def test_query_round_trip(self, tmp_path):
        queries = [QueryCase("q1", "facts one"), QueryCase("q2", "facts two")]
        path = tmp_path / "queries.jsonl"
        save_queries(queries, str(path))
        assert load_queries(str(path)) == queries

    def test_file_of_blank_lines_holds_no_query(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n  \n")
        with pytest.raises(EvaluationError) as excinfo:
            load_queries(str(path))
        assert str(excinfo.value) == f"{path}: holds no query"

    def test_run_round_trip(self, tmp_path):
        runs = [ranked("q1", [("a", 0.9), ("b", 0.5)]), ranked("q2", [("b", 0.1)])]
        path = tmp_path / "run.tsv"
        save_run(runs, str(path))
        assert load_run(str(path)) == runs

    def test_qrels_round_trip(self, tmp_path):
        qr = QrelSet({("q1", "a"): 3, ("q1", "b"): 1, ("q2", "a"): 0})
        path = tmp_path / "qrels.tsv"
        qr.to_tsv(str(path))
        assert QrelSet.from_tsv(str(path)).grades == qr.grades

    @pytest.mark.parametrize("read, text, message", [
        (QrelSet.from_tsv, '"q\nx"\tc\t1\nq\td\t2\nq\te\tx\n', ":4: grade 'x' is not an integer"),
        (QrelSet.from_tsv, 'q\tc\t1\n"q\nx"\td\t2\nq\tc\t0\n',
         ":4: pair ('q', 'c') repeats line 1"),
        (load_run, '"q\nx"\t1\tc\t0.5\nq\t1\td\t0.4\nq\t2\te\t0.3\t9\n',
         ":4: expected 4 columns, got 5"),
        (load_run, '"q\nx"\t1\tc\t0.5\nq\t1\td\t0.4\n"q\nx"\t2\tc\t0.3\n',
         ":5: pair ('q\\nx', 'c') repeats line 2"),
    ], ids=["qrels-grade", "qrels-repeat", "run-columns", "run-repeat"])
    def test_errors_cite_the_line_a_row_ends_on(self, tmp_path, read, text, message):
        """A quoted id may span lines; an error cites the file line its
        row ends on, not the row's count."""
        path = tmp_path / "file.tsv"
        path.write_text(text)
        with pytest.raises(EvaluationError) as excinfo:
            read(str(path))
        assert str(excinfo.value) == f"{path}{message}"

    def test_repeated_query_id_rejected(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        save_queries([QueryCase("q1", "a"), QueryCase("q2", "b"), QueryCase("q1", "c")], str(path))
        with pytest.raises(EvaluationError) as excinfo:
            load_queries(str(path))
        assert str(excinfo.value) == f"{path}:3: query_id 'q1' repeats line 1"

    def test_negative_grade_rejected(self):
        with pytest.raises(EvaluationError, match="negative"):
            QrelSet({("q", "c"): -1})

