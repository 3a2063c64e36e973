"""Training loop: combination rule, determinism, resume, divergence."""

import dataclasses
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
    train,
)

from _helpers import assert_bit_equal, reference_kernels

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

    def test_reference_kernels_train_and_encode_to_the_same_bits(self):
        """Three steps of a two-layer encoder and the trained embeddings,
        on the package's in-place kernels and on the allocating ones in
        ``_helpers``."""
        corpus, table, vocab, enc_cfg = make_setup()
        enc_cfg = dataclasses.replace(enc_cfg, num_layers=2)
        seqs = [enc.build_input_ids(tokenize(c.facts, TOK), vocab, enc_cfg) for c in corpus.cases]

        def trained():
            params, log = run(3, corpus, table, vocab, enc_cfg, hp=CircleLossParams(mix=1.0))
            losses = [(r.mlm_loss, r.circle_loss, r.total_loss, r.grad_norm) for r in log.steps]
            return params, losses, enc.encode(seqs, params, enc_cfg)

        got = trained()
        with reference_kernels():
            want = trained()
        assert_bit_equal(got, want)

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
            assert r_full.total_loss == r_res.total_loss
            assert r_full.grad_norm == r_res.grad_norm
        assert list(resumed_params) == list(full_params)
        for k in full_params:
            assert np.array_equal(full_params[k], resumed_params[k])

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

    @pytest.mark.parametrize("broken", ["loss", "gradient"])
    def test_non_finite_masked_token_term_diverges(self, tmp_path, monkeypatch, broken):
        """A NaN masked-token loss, or a finite one whose gradient overflows,
        at step 2 stops training there and names the step-1 checkpoint."""
        corpus, table, vocab, enc_cfg = make_setup()
        original = enc.mlm_loss_and_grad
        calls = {"n": 0}

        def breaking(logits, targets):
            calls["n"] += 1
            value, dlogits = original(logits, targets)
            if calls["n"] >= 2:
                if broken == "loss":
                    value = float("nan")
                else:
                    dlogits = np.full_like(dlogits, np.inf)
            return value, dlogits

        monkeypatch.setattr(enc, "mlm_loss_and_grad", breaking)
        with pytest.raises(TrainingDiverged) as excinfo, np.errstate(all="ignore"):
            run(4, corpus, table, vocab, enc_cfg,
                checkpoint_dir=str(tmp_path), checkpoint_every=1)
        assert excinfo.value.step == 2
        assert excinfo.value.checkpoint == str(tmp_path / "step-000001.ckpt")
        assert str(excinfo.value) == (
            f"training diverged at step 2; last good checkpoint: {tmp_path / 'step-000001.ckpt'}"
        )

    @pytest.mark.parametrize("mix", [CircleLossParams().mix, 1.0, 0.0])
    def test_logged_total_is_the_mixed_sum(self, mix):
        corpus, table, vocab, enc_cfg = make_setup()
        _, log = run(3, corpus, table, vocab, enc_cfg, hp=CircleLossParams(mix=mix))
        for r in log.steps:
            assert r.total_loss == r.mlm_loss + mix * r.circle_loss

    def test_each_step_calls_encoder_forward_and_backward_once_with_rows(self, monkeypatch):
        """``train`` reaches the encoder through ``casevec.encoder.forward``
        and ``backward``, once each per step, and runs the last layer at
        [CLS] and the masked positions only. The benchmark's tracer times
        the step by wrapping these two names."""
        corpus, table, vocab, enc_cfg = make_setup()
        calls = {"forward": [], "backward": 0}
        forward, backward = enc.forward, enc.backward

        def spy_forward(ids, valid, params, cfg, rows=None):
            calls["forward"].append((ids.shape, rows))
            return forward(ids, valid, params, cfg, rows=rows)

        def spy_backward(*args, **kwargs):
            calls["backward"] += 1
            return backward(*args, **kwargs)

        monkeypatch.setattr(enc, "forward", spy_forward)
        monkeypatch.setattr(enc, "backward", spy_backward)
        run(3, corpus, table, vocab, enc_cfg)
        assert len(calls["forward"]) == 3
        assert calls["backward"] == 3
        for (batch, length), rows in calls["forward"]:
            assert rows is not None
            assert rows.shape[0] == batch and 1 < rows.shape[1] < length
            assert (rows[:, 0] == 0).all()

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
            mlm_value, dlogits = enc.mlm_loss_and_grad(logits, targets)
            circle_value, d_emb = loss_gradient(hidden[:, 0, :], partition, table, hp)
            dgat, dw, db = enc.mlm_head_backward(dlogits, gathered, p)
            dh = np.zeros_like(hidden)
            np.add.at(dh, (rows, cols), dgat)
            dh[:, 0, :] += hp.mix * d_emb
            grads = enc.backward(dh, cache, p, enc_cfg)
            grads["mlm.w"], grads["mlm.b"] = dw, db
            return mlm_value + hp.mix * circle_value, grads

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

    def test_in_place_update_matches_the_allocating_one_bit_for_bit(self):
        """Params and moments equal those of Adam written with one new array
        per expression, after several steps from a resumed state."""
        rng = np.random.default_rng(3)
        shapes = {"w": (5, 7), "b": (7,), "s": (1,)}
        params = {k: rng.normal(0.0, 1.0, s) for k, s in shapes.items()}
        ref = {k: v.copy() for k, v in params.items()}
        opt = Adam(params, lr=0.01)
        opt.m = {k: rng.normal(0.0, 0.1, s) for k, s in shapes.items()}
        opt.v = {k: rng.uniform(0.0, 0.1, s) for k, s in shapes.items()}
        opt.t = 3
        m = {k: v.copy() for k, v in opt.m.items()}
        v = {k: x.copy() for k, x in opt.v.items()}
        b1, b2, eps, lr = opt.beta1, opt.beta2, opt.eps, opt.lr
        for t in range(4, 12):
            grads = {k: rng.normal(0.0, 1.0, s) for k, s in shapes.items()}
            opt.step(params, grads)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                mhat = m[k] / (1.0 - b1**t)
                vhat = v[k] / (1.0 - b2**t)
                ref[k] -= lr * mhat / (np.sqrt(vhat) + eps)
        for k in shapes:
            assert np.array_equal(params[k], ref[k])
            assert np.array_equal(opt.m[k], m[k])
            assert np.array_equal(opt.v[k], v[k])

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

    def test_checkpoint_every_not_negative(self):
        with pytest.raises(TrainingError, match="checkpoint_every must not be negative, got -1"):
            TrainConfig(checkpoint_every=-1)
        assert TrainConfig(checkpoint_every=0).checkpoint_every == 0

    def test_steps_not_negative(self):
        with pytest.raises(TrainingError, match="steps must not be negative, got -1"):
            TrainConfig(steps=-1)
        assert TrainConfig(steps=0).steps == 0
