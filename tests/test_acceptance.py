"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints one PASS line on success (see conftest for the summary
block); a failing criterion fails its test. Every expected value is
either computed by an independent oracle from _helpers or frozen from a
hand derivation shown inline.
"""

import math
import time

import numpy as np
import pytest

import casevec as cv
from casevec import encoder as enc
from casevec.articles import ArticleBranch, ArticleCorpus, build_corpus, expand_branches, load_article_specs
from casevec.bm25 import bm25_score, build_index, compute_profiles
from casevec.circle_loss import CircleLossParams, loss_gradient
from casevec.cli import main as cli_main
from casevec.evaluation import (
    CandidatePool,
    QrelSet,
    RankedList,
    candidate_text,
    embed_texts,
    evaluate,
    ndcg_at_k,
    rank,
)
from casevec.relevance import CaseDocument, WeightTable, pairwise_weights, weight
from casevec.sampling import BatchPartition, class_partition
from casevec.text import TokenizerConfig, tokenize
from casevec.training import TrainConfig, train

from _helpers import (
    bm25_reference,
    branch_count_reference,
    central_difference,
    circle_loss_reference,
    closure_partition_reference,
    cosine_reference,
    max_relative_error,
    record_acceptance,
)

TOK = TokenizerConfig()
DATA = __file__.rsplit("/", 2)[0] + "/data"


def make_corpus(docs, article_id="art"):
    branches = [ArticleBranch(article_id, t, tuple(d)) for t, d in enumerate(docs)]
    return ArticleCorpus(branches=branches, by_article={article_id: branches})


def test_criterion_1_bm25_oracle_equivalence():
    """100 random corpora (<=20 docs, <=30 tokens): scores match the
    brute-force reference to 1e-9 relative, in under 10 seconds."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n_docs = int(rng.integers(1, 21))
        docs = [
            [f"t{rng.integers(0, 40)}" for _ in range(int(rng.integers(1, 31)))]
            for _ in range(n_docs)
        ]
        k1 = float(rng.uniform(0.5, 2.5))
        b = float(rng.uniform(0.0, 1.0))
        corpus = make_corpus(docs)
        index = build_index(corpus, TOK, k1=k1, b=b)
        query = [f"t{rng.integers(0, 40)}" for _ in range(int(rng.integers(1, 15)))]
        expected = bm25_reference(docs, query, k1=k1, b=b)
        for branch, exp in zip(corpus.branches, expected):
            got = bm25_score(branch, query, index)
            assert got == pytest.approx(exp, rel=1e-9, abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    record_acceptance(1, f"BM25 matches brute-force oracle on 100 corpora ({elapsed:.1f}s)")


def test_criterion_2_branch_count_law():
    """Sum-of-products law on 1000 random specs; the bundled statute
    reconstruction expands to exactly 7 branches."""
    rng = np.random.default_rng(7)
    alphabet = [f"p{i}" for i in range(12)]
    for _ in range(1000):
        acts = [
            [
                [alphabet[int(rng.integers(0, 12))] for _ in range(int(rng.integers(1, 4)))]
                for _ in range(int(rng.integers(1, 4)))
            ]
            for _ in range(int(rng.integers(1, 4)))
        ]
        spec = cv.ArticleSpec(article_id="r", acts=acts)
        assert len(expand_branches(spec)) == branch_count_reference(acts)
    (reconstruction,) = load_article_specs(f"{DATA}/dangerous_driving_article.json")
    assert len(expand_branches(reconstruction)) == 7
    record_acceptance(2, "branch-count law on 1000 random specs; reconstruction has 7 branches")


def test_criterion_3_relevance_weight_properties():
    """Weights stay in [0,1]; the directional 0.5 / 1.0 example holds
    exactly; the noiseless corpus gives 1 within branch and 0 across
    disjoint articles."""
    from casevec.bm25 import SimilarityProfile

    ci = CaseDocument("ci", facts="f", articles=frozenset({"k1", "k2"}))
    cj = CaseDocument("cj", facts="f", articles=frozenset({"k1"}))
    profiles = {
        "ci": SimilarityProfile("ci", {"k1": np.array([2.0, 0.1]), "k2": np.array([1.0])}),
        "cj": SimilarityProfile("cj", {"k1": np.array([0.9, 0.3]), "k2": np.array([0.0])}),
    }
    assert weight(ci, cj, profiles).value == 0.5
    assert weight(cj, ci, profiles).value == 1.0

    corpus = cv.generate(cv.SynthSpec(num_articles=2, branches_per_article=3,
                                      cases_per_branch=4, queries_per_branch=1,
                                      vocab_size=60, noise_rate=0.0, seed=3))
    articles = build_corpus(corpus.article_specs, TOK)
    index = build_index(articles, TOK)
    table = pairwise_weights(corpus.cases, compute_profiles(corpus.cases, articles, index))
    assert np.all(table.matrix >= 0.0) and np.all(table.matrix <= 1.0)
    for a in corpus.cases:
        for b in corpus.cases:
            ba, bb = corpus.case_branches[a.case_id], corpus.case_branches[b.case_id]
            w = table.get(a.case_id, b.case_id)
            if ba == bb:
                assert w == pytest.approx(1.0)
            elif ba[0] != bb[0]:
                assert w == 0.0
    record_acceptance(3, "weight range, directional 0.5/1.0 example, noiseless corpus structure")


def test_criterion_4_partition_equals_brute_force_closure():
    """Class partition equals transitive closure on 200 random weight
    tables with batches of size up to 16."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        size = int(rng.integers(2, 17))
        matrix = rng.uniform(0.0, 1.0, (size, size))
        np.fill_diagonal(matrix, 1.0)
        threshold = float(rng.uniform(0.05, 0.95))
        table = WeightTable([f"c{i}" for i in range(size)], matrix)
        part = class_partition(table.ids, table, threshold)
        expected = closure_partition_reference(size, lambda i, j: matrix[i, j] > threshold)
        assert part.labels == expected
    record_acceptance(4, "class partition equals brute-force closure on 200 random tables")


def test_criterion_5_reduction_to_circle_loss():
    """With unit pair weights the loss equals an independent plain circle
    loss on 100 random instances (default hyperparameters)."""
    hp = CircleLossParams(gamma=16.0, optimum_pos=1.25, optimum_neg=0.25,
                          margin_pos=0.75, margin_neg=0.25)
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(4, 10))
        h = int(rng.integers(3, 8))
        embeddings = rng.normal(0.0, 1.0, (n, h))
        labels = rng.integers(0, 3, n).tolist()
        ids = [f"c{i}" for i in range(n)]
        table = WeightTable(ids, np.ones((n, n)))
        partition = BatchPartition(ids, labels, hp.class_threshold)
        got = loss_gradient(embeddings, partition, table, hp)[0]
        terms = []
        for a in range(n):
            sims = [cosine_reference(embeddings[a].tolist(), embeddings[b].tolist())
                    for b in range(n)]
            pos = [sims[b] for b in range(n) if b != a and labels[b] == labels[a]]
            neg = [sims[b] for b in range(n) if labels[b] != labels[a]]
            if pos and neg:
                terms.append(circle_loss_reference(
                    pos, neg,
                    hp.gamma, hp.optimum_pos, hp.optimum_neg, hp.margin_pos, hp.margin_neg,
                ))
        expected = sum(terms) / len(terms) if terms else 0.0
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)
    record_acceptance(5, "unit-weight loss equals independent circle loss on 100 instances")


def test_criterion_6_gradient_checks():
    """Loss gradients with respect to embeddings and every encoder
    parameter match central finite differences below 1e-4 relative, at
    tiny scale, in under 2 minutes."""
    start = time.monotonic()
    hp = CircleLossParams()
    rng = np.random.default_rng(9)
    embeddings = rng.normal(0.0, 1.0, (6, 8))
    ids = [f"c{i}" for i in range(6)]
    table = WeightTable(ids, np.clip(rng.uniform(0.3, 1.0, (6, 6)), 0, 1))
    partition = BatchPartition(ids, [0, 0, 1, 1, 2, 2], hp.class_threshold)
    _, grad = loss_gradient(embeddings, partition, table, hp)
    numeric = central_difference(
        lambda: loss_gradient(embeddings, partition, table, hp)[0],
        embeddings, eps=1e-5,
    )
    emb_err = max_relative_error(grad, numeric)
    assert emb_err < 1e-4

    cfg = enc.EncoderConfig(vocab_size=12, hidden_size=8, num_layers=1, num_heads=2,
                            ffn_size=16, max_len=10, seed=3)
    params = enc.init_params(cfg)
    for name in params:
        if params[name].ndim >= 2 or "emb" in name:
            params[name] = rng.normal(0.0, 0.4, params[name].shape)
    seqs = [[enc.CLS_ID, 7, 8, 9, 5, enc.SEP_ID], [enc.CLS_ID, 10, 11, enc.SEP_ID]]
    ids_arr, valid = enc.pad_batch(seqs)
    rows = np.array([0, 0, 1])
    cols = np.array([1, 4, 2])
    targets = np.array([7, 5, 11])
    probe = rng.normal(0.0, 1.0, (2, cfg.hidden_size))

    def loss_only():
        hidden, _ = enc.forward(ids_arr, valid, params, cfg)
        logits, _ = enc.mlm_logits(hidden, rows, cols, params)
        return enc.mlm_loss(logits, targets) + float((hidden[:, 0, :] * probe).sum())

    hidden, cache = enc.forward(ids_arr, valid, params, cfg)
    logits, gathered = enc.mlm_logits(hidden, rows, cols, params)
    _, dlogits = enc.mlm_loss_and_grad(logits, targets)
    dgat, dw, db = enc.mlm_head_backward(dlogits, gathered, params)
    d_hidden = np.zeros_like(hidden)
    np.add.at(d_hidden, (rows, cols), dgat)
    d_hidden[:, 0, :] += probe
    grads = enc.backward(d_hidden, cache, params, cfg)
    grads["mlm.w"] += dw
    grads["mlm.b"] += db

    worst = emb_err
    for name in sorted(params):
        numeric = central_difference(loss_only, params[name], eps=1e-4)
        err = max_relative_error(grads[name], numeric)
        assert err < 1e-4, f"{name}: {err}"
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    record_acceptance(
        6, f"all gradients within 1e-4 of finite differences (worst {worst:.2e}, {elapsed:.0f}s)"
    )


@pytest.fixture(scope="module")
def training_run():
    spec = cv.SynthSpec(num_articles=3, branches_per_article=3, cases_per_branch=6,
                        queries_per_branch=2, vocab_size=90, facts_keyword_rate=0.2,
                        noise_rate=0.2, seed=77)
    corpus = cv.generate(spec)
    articles = build_corpus(corpus.article_specs, TOK)
    index = build_index(articles, TOK)
    table = pairwise_weights(corpus.cases, compute_profiles(corpus.cases, articles, index))
    vocab = enc.Vocab.build(
        [tokenize(c.facts, TOK) + tokenize(c.holding, TOK) for c in corpus.cases]
    )
    enc_cfg = enc.EncoderConfig(vocab_size=len(vocab), hidden_size=64, num_layers=2,
                                num_heads=4, ffn_size=128, max_len=128, seed=0)
    # desk-scale mixing: the circle term carries full weight in this run
    hp = CircleLossParams(mix=1.0)
    cfg = TrainConfig(steps=300, batch_quadruples=4, learning_rate=1e-3, seed=5)
    start = time.monotonic()
    params, log = train(corpus.cases, table, vocab, TOK, enc_cfg, cfg, hp=hp)
    elapsed = time.monotonic() - start
    return corpus, vocab, enc_cfg, params, log, elapsed


def _branch_cosine_gap(corpus, vocab, enc_cfg, params):
    embs = embed_texts([candidate_text(c) for c in corpus.cases], params, enc_cfg, vocab, TOK)
    unit = embs / np.linalg.norm(embs, axis=1, keepdims=True)
    sims = unit @ unit.T
    labels = [corpus.case_branches[c.case_id] for c in corpus.cases]
    within, between = [], []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            (within if labels[i] == labels[j] else between).append(sims[i, j])
    return float(np.mean(within) - np.mean(between))


def _mean_ndcg10(corpus, vocab, enc_cfg, params):
    runs = [
        rank(q, CandidatePool(q.query_id, corpus.cases), params, enc_cfg, vocab, TOK)
        for q in corpus.queries
    ]
    return evaluate(runs, corpus.qrels, ks=(10,))["ndcg@10"]["mean"]


def test_criterion_7_end_to_end_training(training_run):
    """Seeded 300-step run on the synthetic corpus: total loss falls by at
    least 30 percent, the within-minus-between branch cosine gap widens,
    and zero-shot NDCG@10 on held-out queries beats the untrained
    encoder."""
    corpus, vocab, enc_cfg, params, log, elapsed = training_run
    assert len(log.steps) <= 500
    assert elapsed < 15 * 60

    first, last = log.steps[0].total_loss, log.steps[-1].total_loss
    assert last <= 0.7 * first, f"loss fell only {100 * (1 - last / first):.1f}%"

    init = enc.init_params(enc_cfg)
    gap_before = _branch_cosine_gap(corpus, vocab, enc_cfg, init)
    gap_after = _branch_cosine_gap(corpus, vocab, enc_cfg, params)
    assert gap_after > gap_before

    ndcg_before = _mean_ndcg10(corpus, vocab, enc_cfg, init)
    ndcg_after = _mean_ndcg10(corpus, vocab, enc_cfg, params)
    assert ndcg_after > ndcg_before
    record_acceptance(
        7,
        f"training: loss -{100 * (1 - last / first):.0f}%, gap {gap_before:.3f}->"
        f"{gap_after:.3f}, ndcg@10 {ndcg_before:.3f}->{ndcg_after:.3f} ({elapsed:.0f}s)",
    )


def test_criterion_8_ndcg_hand_example():
    """Grades [0, 2, 1] at k = 3. The chain DCG = 3/log2(3) + 1/2 =
    2.392789 and IDCG = 3 + 1/log2(3) = 3.630929 is asserted directly
    along with its frozen ratio 0.6590018."""
    run = RankedList("q", [("a", 3.0), ("b", 2.0), ("c", 1.0)])
    qrels = QrelSet({("q", "a"): 0, ("q", "b"): 2, ("q", "c"): 1})
    dcg = 3.0 / math.log2(3.0) + 0.5
    idcg = 3.0 + 1.0 / math.log2(3.0)
    assert dcg == pytest.approx(2.392789, abs=1e-6)
    assert idcg == pytest.approx(3.630929, abs=1e-6)
    got = ndcg_at_k(run, qrels, 3)
    assert got == pytest.approx(dcg / idcg, abs=1e-12)
    assert got == pytest.approx(0.6590018048024133, abs=1e-6)
    record_acceptance(8, f"NDCG hand example = {got:.6f} (= 2.392789 / 3.630929)")


def test_criterion_9_pipeline_determinism(tmp_path):
    """Re-running the full pipeline with the same seed produces
    byte-identical weight tables, batch manifests, and metrics JSON."""

    def pipeline(base):
        corpus = base / "corpus"
        args = ["gen-corpus", "--out", str(corpus), "--num-articles", "2",
                "--branches-per-article", "2", "--cases-per-branch", "4",
                "--queries-per-branch", "1", "--vocab-size", "40", "--seed", "17"]
        assert cli_main(args) == 0
        weights = base / "weights.csv"
        assert cli_main(["weights", "--articles", str(corpus / "articles.json"),
                         "--cases", str(corpus / "cases.jsonl"), "--out", str(weights)]) == 0
        batches = base / "batches.jsonl"
        assert cli_main(["sample", "--weights", str(weights), "--out", str(batches),
                         "--num-batches", "4", "--batch-quadruples", "2", "--seed", "6"]) == 0
        run_dir = base / "run"
        assert cli_main(["pretrain", "--articles", str(corpus / "articles.json"),
                         "--cases", str(corpus / "cases.jsonl"), "--out", str(run_dir),
                         "--steps", "4", "--hidden-size", "16", "--num-layers", "1",
                         "--num-heads", "2", "--ffn-size", "24", "--max-len", "64",
                         "--seed", "8"]) == 0
        run_tsv = base / "run.tsv"
        assert cli_main(["rank", "--checkpoint", str(run_dir / "encoder.params"),
                         "--vocab", str(run_dir / "vocab.txt"),
                         "--queries", str(corpus / "queries.jsonl"),
                         "--cases", str(corpus / "cases.jsonl"), "--out", str(run_tsv)]) == 0
        metrics = base / "metrics.json"
        assert cli_main(["evaluate", "--run", str(run_tsv),
                         "--qrels", str(corpus / "qrels.tsv"), "--out", str(metrics)]) == 0
        return [weights.read_bytes(), batches.read_bytes(), metrics.read_bytes(),
                (run_dir / "weights.csv").read_bytes()]

    first = pipeline(tmp_path / "a")
    second = pipeline(tmp_path / "b")
    assert first == second
    record_acceptance(9, "re-run pipeline is byte-identical (weights, manifests, metrics)")
