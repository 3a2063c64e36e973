"""Training loop: combination rule, determinism, resume, divergence."""

import math

import numpy as np
import pytest

import casevec.training as training
from casevec import encoder as enc
from casevec.articles import build_corpus
from casevec.bm25 import build_index, compute_profiles
from casevec.circle_loss import (
    CircleLossDiverged,
    CircleLossError,
    CircleLossParams,
    loss_gradient,
)
from casevec.relevance import pairwise_weights
from casevec.sampling import build_batch, class_partition, sample_quadruples
from casevec.synth import SynthSpec, generate
from casevec.text import TokenizerConfig, tokenize
from casevec.training import (
    Adam,
    StepRecord,
    TrainConfig,
    TrainingDiverged,
    TrainingError,
    TrainLog,
    total_loss,
    train,
)


class TestTotalLoss:
    def test_zero_circle_component(self):
        assert total_loss(2.0, 0.0, 123.0) == 2.0

    def test_paper_style_mix(self):
        assert total_loss(1.0, 1.0, 2.71828e-6) == pytest.approx(1.00000271828, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(TrainingError, match="non-finite"):
            total_loss(float("nan"), 0.0, 1.0)
        with pytest.raises(TrainingError, match="non-finite"):
            total_loss(1.0, float("inf"), 1.0)


TOK = TokenizerConfig()


def make_setup(seed=0):
    corpus = generate(SynthSpec(num_articles=2, branches_per_article=2, cases_per_branch=4,
                                queries_per_branch=1, vocab_size=44, seed=seed))
    articles = build_corpus(corpus.article_specs, TOK)
    index = build_index(articles, TOK)
    profiles = compute_profiles(corpus.cases, articles, index)
    table = pairwise_weights(corpus.cases, profiles)
    vocab = enc.Vocab.build(
        [tokenize(c.facts, TOK) + tokenize(c.holding, TOK) for c in corpus.cases]
    )
    enc_cfg = enc.EncoderConfig(vocab_size=len(vocab), hidden_size=16, num_layers=1,
                                num_heads=2, ffn_size=24, max_len=64, seed=1)
    return corpus, table, vocab, enc_cfg


def run(steps, corpus, table, vocab, enc_cfg, hp=None, **cfg_overrides):
    cfg = TrainConfig(steps=steps, batch_quadruples=2, seed=7, **cfg_overrides)
    return train(corpus.cases, table, vocab, TOK, enc_cfg, cfg, hp=hp or CircleLossParams())


class TestTrainLoop:
    def test_zero_steps_returns_initialization(self):
        corpus, table, vocab, enc_cfg = make_setup()
        params, log = run(0, corpus, table, vocab, enc_cfg)
        init = enc.init_params(enc_cfg)
        assert log.steps == []
        assert all(np.array_equal(params[k], init[k]) for k in init)

    def test_seed_determinism(self):
        corpus, table, vocab, enc_cfg = make_setup()
        p1, log1 = run(4, corpus, table, vocab, enc_cfg)
        p2, log2 = run(4, corpus, table, vocab, enc_cfg)
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)
        for r1, r2 in zip(log1.steps, log2.steps):
            assert r1.step == r2.step
            assert r1.total_loss == r2.total_loss
            assert r1.mlm_loss == r2.mlm_loss
            assert r1.circle_loss == r2.circle_loss
            assert r1.grad_norm == r2.grad_norm

    def test_log_records_finite_monotone_steps(self):
        corpus, table, vocab, enc_cfg = make_setup()
        _, log = run(5, corpus, table, vocab, enc_cfg)
        assert [r.step for r in log.steps] == [1, 2, 3, 4, 5]
        for r in log.steps:
            assert math.isfinite(r.total_loss)
            assert math.isfinite(r.grad_norm)

    def test_zero_mix_matches_disabled_circle_path(self, monkeypatch):
        """With mix = 0 the circle gradient adds exactly nothing."""
        corpus, table, vocab, enc_cfg = make_setup()
        hp = CircleLossParams(mix=0.0)
        p1, _ = run(3, corpus, table, vocab, enc_cfg, hp=hp)

        def stubbed(embeddings, partition, table_, hp_):
            return 0.0, np.zeros_like(embeddings)

        monkeypatch.setattr(training, "loss_gradient", stubbed)
        p2, _ = run(3, corpus, table, vocab, enc_cfg, hp=hp)
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        corpus, table, vocab, enc_cfg = make_setup()
        full_params, full_log = run(6, corpus, table, vocab, enc_cfg)
        _, _ = run(3, corpus, table, vocab, enc_cfg,
                   checkpoint_dir=str(tmp_path), checkpoint_every=3)
        ckpt = tmp_path / "step-000003.ckpt"
        assert ckpt.exists()
        cfg = TrainConfig(steps=6, batch_quadruples=2, seed=7,
                          checkpoint_dir=None, checkpoint_every=0)
        resumed_params, resumed_log = train(
            corpus.cases, table, vocab, TOK, enc_cfg, cfg, resume_from=str(ckpt)
        )
        assert [r.step for r in resumed_log.steps] == [4, 5, 6]
        for r_full, r_res in zip(full_log.steps[3:], resumed_log.steps):
            assert r_full.total_loss == pytest.approx(r_res.total_loss, abs=1e-12)
            assert r_full.grad_norm == pytest.approx(r_res.grad_norm, abs=1e-12)
        for k in full_params:
            assert np.allclose(full_params[k], resumed_params[k], atol=1e-12)

    def test_resume_with_other_train_config_is_refused(self, tmp_path):
        corpus, table, vocab, enc_cfg = make_setup()
        run(2, corpus, table, vocab, enc_cfg, checkpoint_dir=str(tmp_path))
        ckpt = tmp_path / "step-000002.ckpt"
        cfg = TrainConfig(steps=4, batch_quadruples=3, seed=99, mask_rate=0.2)
        with pytest.raises(TrainingError) as excinfo:
            train(corpus.cases, table, vocab, TOK, enc_cfg, cfg, resume_from=str(ckpt))
        message = str(excinfo.value)
        assert message.startswith(f"{ckpt}: ")
        # steps and checkpoint_dir differ too, but a resume may change them
        assert message.endswith(
            "train config differs: batch_quadruples (checkpoint 2, requested 3); "
            "seed (checkpoint 7, requested 99); mask_rate (checkpoint 0.15, requested 0.2)"
        )

    def test_divergence_aborts_with_checkpoint_reference(self, tmp_path, monkeypatch):
        corpus, table, vocab, enc_cfg = make_setup()

        calls = {"n": 0}

        def exploding(embeddings, partition, table_, hp_):
            calls["n"] += 1
            if calls["n"] >= 2:
                return float("nan"), np.zeros_like(embeddings)
            return loss_gradient(embeddings, partition, table_, hp_)

        monkeypatch.setattr(training, "loss_gradient", exploding)
        with pytest.raises(TrainingDiverged) as excinfo:
            run(4, corpus, table, vocab, enc_cfg, hp=CircleLossParams(mix=1.0),
                checkpoint_dir=str(tmp_path), checkpoint_every=1)
        assert excinfo.value.step == 2
        assert excinfo.value.checkpoint is not None
        assert "step-000001" in excinfo.value.checkpoint

    @pytest.mark.parametrize("error", [CircleLossDiverged, CircleLossError])
    def test_only_circle_divergence_becomes_training_divergence(
        self, tmp_path, monkeypatch, error
    ):
        """A diverged circle loss at step 2 names the step-1 checkpoint;
        any other circle-loss error propagates unchanged."""
        corpus, table, vocab, enc_cfg = make_setup()
        calls = {"n": 0}

        def raising(embeddings, partition, table_, hp_):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise error("loss or gradient is not finite")
            return loss_gradient(embeddings, partition, table_, hp_)

        monkeypatch.setattr(training, "loss_gradient", raising)
        expected = TrainingDiverged if error is CircleLossDiverged else CircleLossError
        with pytest.raises(expected) as excinfo:
            run(4, corpus, table, vocab, enc_cfg,
                checkpoint_dir=str(tmp_path), checkpoint_every=1)
        if error is CircleLossDiverged:
            assert excinfo.value.step == 2
            assert "step-000001" in excinfo.value.checkpoint
        else:
            assert type(excinfo.value) is CircleLossError

    def test_fixed_quadruples_reuse_the_same_batch(self, monkeypatch):
        corpus, table, vocab, enc_cfg = make_setup()
        seen = []
        original = training.sample_quadruples

        def spy(*args, **kwargs):
            quads = original(*args, **kwargs)
            seen.append(tuple((q.anchor_id, q.positive_id) for q in quads))
            return quads

        monkeypatch.setattr(training, "sample_quadruples", spy)
        run(3, corpus, table, vocab, enc_cfg, resample_quadruples=False)
        assert len(seen) == 1
        seen.clear()
        run(3, corpus, table, vocab, enc_cfg, resample_quadruples=True)
        assert len(seen) == 3

    def test_single_small_step_decreases_loss_on_fixed_batch(self):
        """One plain gradient step with a tiny rate lowers the combined
        loss recomputed on the identical batch and masks."""
        corpus, table, vocab, enc_cfg = make_setup()
        hp = CircleLossParams(mix=1.0)
        params = enc.init_params(enc_cfg)
        rng = np.random.default_rng(5)
        quads = sample_quadruples(table, 2, rng)
        batch_ids = build_batch(quads)
        partition = class_partition(batch_ids, table, hp.class_threshold)
        facts = {c.case_id: c.facts for c in corpus.cases}
        masked = [
            enc.mlm_mask(enc.build_input_ids(tokenize(facts[cid], TOK), vocab, enc_cfg),
                         np.random.default_rng(11))
            for cid in batch_ids
        ]
        ids, valid = enc.pad_batch([m.input_ids for m in masked])
        rows = np.concatenate([np.full(len(m.positions), i) for i, m in enumerate(masked)])
        cols = np.concatenate([np.asarray(m.positions) for m in masked])
        targets = np.concatenate([np.asarray(m.target_ids) for m in masked])

        def loss_and_grads(p):
            hidden, cache = enc.forward(ids, valid, p, enc_cfg)
            logits, gathered = enc.mlm_logits(hidden, rows, cols, p)
            mlm_value, dlogits = enc.mlm_loss_and_grad(logits, targets, mean=True)
            circle_value, d_emb = loss_gradient(hidden[:, 0, :], partition, table, hp)
            dgat, dw, db = enc.mlm_head_backward(dlogits, gathered, p)
            dh = np.zeros_like(hidden)
            np.add.at(dh, (rows, cols), dgat)
            dh[:, 0, :] += hp.mix * d_emb
            grads = enc.backward(dh, cache, p, enc_cfg)
            grads["mlm.w"] += dw
            grads["mlm.b"] += db
            return total_loss(mlm_value, circle_value, hp.mix), grads

        before, grads = loss_and_grads(params)
        stepped = {k: params[k] - 1e-4 * grads[k] for k in params}
        after, _ = loss_and_grads(stepped)
        assert after < before


class TestAdam:
    def test_moves_toward_minimum(self):
        params = {"x": np.array([4.0])}
        opt = Adam(params, lr=0.1)
        for _ in range(200):
            opt.step(params, {"x": 2.0 * params["x"]})
        assert abs(params["x"][0]) < 0.05

    def test_clip_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = training.clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        clipped = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert clipped == pytest.approx(1.0)

    def test_clip_disabled_with_zero(self):
        grads = {"a": np.array([3.0, 4.0])}
        training.clip_global_norm(grads, 0.0)
        assert np.array_equal(grads["a"], np.array([3.0, 4.0]))


class TestTrainLogStructure:
    def test_monotone_steps_enforced(self):
        log = TrainLog()
        log.append(StepRecord(1, 1.0, 1.0, 1.0, 1.0, 0.1))
        with pytest.raises(TrainingError, match="increase"):
            log.append(StepRecord(1, 1.0, 1.0, 1.0, 1.0, 0.2))

    def test_jsonl_export(self, tmp_path):
        log = TrainLog()
        log.append(StepRecord(1, 1.5, 0.5, 1.5000005, 0.9, 0.01))
        path = tmp_path / "log.jsonl"
        log.to_jsonl(str(path))
        line = path.read_text().strip()
        assert '"step": 1' in line
        assert '"total_loss": 1.5000005' in line


class TestConfigValidation:
    def test_batch_size_floor(self):
        with pytest.raises(TrainingError):
            TrainConfig(batch_quadruples=0)

    def test_learning_rate_positive(self):
        with pytest.raises(TrainingError):
            TrainConfig(learning_rate=0.0)
