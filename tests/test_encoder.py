"""Encoder forward/backward, masking, and the parameter store.

The backward pass is validated against central finite differences over
every parameter of a tiny configuration, driving both output heads (the
masked-token logits and the first-position embedding).
"""

import math

import numpy as np
import pytest

from casevec import encoder as enc

from _helpers import max_relative_error


def tiny_config(**overrides):
    defaults = dict(vocab_size=9, hidden_size=4, num_layers=1, num_heads=2,
                    ffn_size=6, max_len=8, seed=3)
    defaults.update(overrides)
    return enc.EncoderConfig(**defaults)


class TestVocab:
    def test_build_puts_specials_first_then_sorted(self):
        vocab = enc.Vocab.build([["beta", "alpha"], ["alpha", "gamma"]])
        assert vocab.tokens[:5] == list(enc.SPECIAL_TOKENS)
        assert vocab.tokens[5:] == ["alpha", "beta", "gamma"]

    def test_encode_with_unknown(self):
        vocab = enc.Vocab.build([["alpha"]])
        assert vocab.encode(["alpha", "zzz"]) == [5, enc.UNK_ID]

    def test_save_load_round_trip(self, tmp_path):
        vocab = enc.Vocab.build([["x", "y"]])
        path = tmp_path / "vocab.txt"
        vocab.save(str(path))
        assert enc.Vocab.load(str(path)).tokens == vocab.tokens

    def test_specials_required(self):
        with pytest.raises(enc.EncoderError, match="must start"):
            enc.Vocab(["a", "b"])


class TestConfig:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(enc.EncoderError, match="divisible"):
            tiny_config(hidden_size=6, num_heads=4)

    def test_max_len_floor(self):
        with pytest.raises(enc.EncoderError, match="max_len"):
            tiny_config(max_len=1)

    def test_sizes_positive(self):
        with pytest.raises(enc.EncoderError, match="positive"):
            tiny_config(num_layers=0)


class TestForward:
    def test_identical_sequences_get_identical_rows(self):
        cfg = tiny_config()
        params = enc.init_params(cfg)
        seq = [enc.CLS_ID, 5, 6, enc.SEP_ID]
        out = enc.encode([seq, seq], params, cfg)
        assert np.array_equal(out[0], out[1])

    def test_embedding_dimension(self):
        cfg = tiny_config()
        out = enc.encode([[enc.CLS_ID, 5, enc.SEP_ID]], enc.init_params(cfg), cfg)
        assert out.shape == (1, cfg.hidden_size)

    def test_permuting_batch_permutes_rows(self):
        cfg = tiny_config()
        params = enc.init_params(cfg)
        seqs = [[enc.CLS_ID, 5, 6, enc.SEP_ID], [enc.CLS_ID, 7, enc.SEP_ID],
                [enc.CLS_ID, 8, 8, 5, enc.SEP_ID]]
        fwd = enc.encode(seqs, params, cfg)
        rev = enc.encode(seqs[::-1], params, cfg)
        assert np.allclose(fwd, rev[::-1], atol=1e-12)

    def test_init_is_seeded(self):
        cfg = tiny_config()
        p1, p2 = enc.init_params(cfg), enc.init_params(cfg)
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_attention_rows_sum_to_one(self):
        cfg = tiny_config()
        params = enc.init_params(cfg)
        ids, valid = enc.pad_batch([[enc.CLS_ID, 5, 6, enc.SEP_ID], [enc.CLS_ID, 7, enc.SEP_ID]])
        _, cache = enc.forward(ids, valid, params, cfg)
        for layer in cache["layers"]:
            sums = layer["attn"].sum(axis=-1)
            assert np.allclose(sums, 1.0, atol=1e-9)

    def test_padded_keys_get_no_attention(self):
        cfg = tiny_config()
        params = enc.init_params(cfg)
        ids, valid = enc.pad_batch([[enc.CLS_ID, 5, 6, enc.SEP_ID], [enc.CLS_ID, enc.SEP_ID]])
        _, cache = enc.forward(ids, valid, params, cfg)
        probs = cache["layers"][0]["attn"]
        assert np.all(probs[1, :, :, 2:] == 0.0)

    def test_over_length_input_truncates_keeping_specials(self, caplog):
        cfg = tiny_config(max_len=4)
        vocab = enc.Vocab.build([["a", "b", "c", "d", "e"]])
        cfg = tiny_config(max_len=4, vocab_size=len(vocab))
        with caplog.at_level("WARNING"):
            ids = enc.build_input_ids(["a", "b", "c", "d", "e"], vocab, cfg)
        assert len(ids) == 4
        assert ids[0] == enc.CLS_ID
        assert ids[-1] == enc.SEP_ID
        assert "truncating" in caplog.text

    def test_encode_truncates_over_length_sequences(self, caplog):
        cfg = tiny_config(max_len=4)
        params = enc.init_params(cfg)
        long_seq = [enc.CLS_ID, 5, 6, 7, 8, 5, enc.SEP_ID]
        with caplog.at_level("WARNING"):
            out = enc.encode([long_seq], params, cfg)
        assert out.shape == (1, cfg.hidden_size)
        assert "truncating" in caplog.text
        short = enc.encode([long_seq[:4]], params, cfg)
        assert np.array_equal(out, short)

    def test_layer_norm_standardizes_before_affine(self):
        rng = np.random.default_rng(0)
        # large input scale keeps the eps term in the variance below 1e-6
        x = rng.normal(0.0, 50.0, (3, 7, 16))
        _, (xhat, _) = enc.layer_norm(x, np.ones(16), np.zeros(16), eps=1e-5)
        assert np.abs(xhat.mean(axis=-1)).max() < 1e-6
        assert np.abs(xhat.var(axis=-1) - 1.0).max() < 1e-6


class TestMasking:
    def seq(self, n_content):
        return [enc.CLS_ID] + list(range(5, 5 + n_content)) + [enc.SEP_ID]

    def test_mask_count_is_rounded_rate(self):
        cfg_rng = np.random.default_rng(0)
        inst = enc.mlm_mask(self.seq(20) + [5] * 0, cfg_rng, rate=0.15)
        assert len(inst.positions) == 3

    def test_at_least_one_position(self):
        inst = enc.mlm_mask(self.seq(2), np.random.default_rng(0), rate=0.15)
        assert len(inst.positions) == 1

    def test_same_seed_same_mask(self):
        a = enc.mlm_mask(self.seq(20), np.random.default_rng(9))
        b = enc.mlm_mask(self.seq(20), np.random.default_rng(9))
        assert a == b

    def test_specials_never_masked(self):
        for seed in range(30):
            inst = enc.mlm_mask(self.seq(10), np.random.default_rng(seed))
            assert 0 not in inst.positions
            assert len(self.seq(10)) - 1 not in inst.positions

    def test_masked_positions_become_mask_id(self):
        inst = enc.mlm_mask(self.seq(10), np.random.default_rng(4))
        for pos, target in zip(inst.positions, inst.target_ids):
            assert inst.input_ids[pos] == enc.MASK_ID
            assert target == self.seq(10)[pos]

    def test_no_maskable_tokens_rejected(self):
        with pytest.raises(enc.EncoderError, match="maskable"):
            enc.mlm_mask([enc.CLS_ID, enc.SEP_ID], np.random.default_rng(0))


class TestMlmLoss:
    def test_certain_prediction_gives_zero(self):
        logits = np.full((2, 6), -1e3)
        logits[0, 3] = 1e3
        logits[1, 1] = 1e3
        assert enc.mlm_loss(logits, np.array([3, 1])) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_logits_give_m_log_v(self):
        m, v = 5, 12
        logits = np.zeros((m, v))
        targets = np.arange(m)
        assert enc.mlm_loss(logits, targets) == pytest.approx(m * math.log(v), abs=1e-12)
        assert enc.mlm_loss(logits, targets, mean=True) == pytest.approx(math.log(v), abs=1e-12)

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(0.0, 2.0, (6, 9))
        targets = rng.integers(0, 9, 6)
        expected = 0.0
        for row, t in zip(logits, targets):
            expected += math.log(sum(math.exp(x) for x in row)) - row[t]
        assert enc.mlm_loss(logits, targets) == pytest.approx(expected, rel=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(enc.EncoderError, match="logit row"):
            enc.mlm_loss(np.zeros((3, 5)), np.array([1, 2]))

    def test_gradient_of_certain_prediction_is_zero(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 50.0
        _, dlogits = enc.mlm_loss_and_grad(logits, np.array([2]))
        assert np.abs(dlogits).max() < 1e-15


def combined_loss(params, cfg, ids, valid, rows, cols, targets, probe):
    hidden, cache = enc.forward(ids, valid, params, cfg)
    logits, gathered = enc.mlm_logits(hidden, rows, cols, params)
    value, dlogits = enc.mlm_loss_and_grad(logits, targets)
    value += float((hidden[:, 0, :] * probe).sum())
    dgathered, dw, db = enc.mlm_head_backward(dlogits, gathered, params)
    d_hidden = np.zeros_like(hidden)
    np.add.at(d_hidden, (rows, cols), dgathered)
    d_hidden[:, 0, :] += probe
    grads = enc.backward(d_hidden, cache, params, cfg)
    grads["mlm.w"] += dw
    grads["mlm.b"] += db
    return value, grads


def combined_loss_value(params, cfg, ids, valid, rows, cols, targets, probe):
    hidden, _ = enc.forward(ids, valid, params, cfg)
    logits, _ = enc.mlm_logits(hidden, rows, cols, params)
    return enc.mlm_loss(logits, targets) + float((hidden[:, 0, :] * probe).sum())


def gradcheck_setup(cfg, scale=0.4, seed=5):
    params = enc.init_params(cfg)
    rng = np.random.default_rng(seed)
    for name in params:
        if params[name].ndim >= 2 or "emb" in name:
            params[name] = rng.normal(0.0, scale, params[name].shape)
    seqs = [[enc.CLS_ID, 5, 6, 7, enc.SEP_ID], [enc.CLS_ID, 8, 7, enc.SEP_ID]]
    ids, valid = enc.pad_batch(seqs)
    rows = np.array([0, 0, 1])
    cols = np.array([1, 3, 2])
    targets = np.array([5, 7, 7])
    probe = rng.normal(0.0, 1.0, (2, cfg.hidden_size))
    return params, (ids, valid, rows, cols, targets, probe)


class TestBackward:
    def test_all_parameter_gradients_match_finite_differences(self):
        cfg = tiny_config()
        params, inputs = gradcheck_setup(cfg)
        _, grads = combined_loss(params, cfg, *inputs)
        eps = 1e-5
        for name in sorted(params):
            numeric = np.zeros_like(params[name])
            it = np.nditer(params[name], flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = params[name][idx]
                params[name][idx] = orig + eps
                up = combined_loss_value(params, cfg, *inputs)
                params[name][idx] = orig - eps
                down = combined_loss_value(params, cfg, *inputs)
                params[name][idx] = orig
                numeric[idx] = (up - down) / (2 * eps)
            err = max_relative_error(grads[name], numeric)
            assert err < 1e-4, f"{name}: max relative error {err}"

    def test_pad_positions_get_zero_gradient(self):
        cfg = tiny_config()
        params, inputs = gradcheck_setup(cfg)
        _, grads = combined_loss(params, cfg, *inputs)
        assert np.array_equal(grads["tok_emb"][enc.PAD_ID], np.zeros(cfg.hidden_size))

    def test_unused_token_row_gets_zero_gradient(self):
        cfg = tiny_config()
        params, inputs = gradcheck_setup(cfg)
        _, grads = combined_loss(params, cfg, *inputs)
        # token id 4 ([MASK]) never occurs in the batch
        assert np.array_equal(grads["tok_emb"][4], np.zeros(cfg.hidden_size))

    def test_positions_beyond_batch_length_get_zero_gradient(self):
        cfg = tiny_config()
        params, inputs = gradcheck_setup(cfg)
        _, grads = combined_loss(params, cfg, *inputs)
        assert np.array_equal(grads["pos_emb"][5:], np.zeros_like(grads["pos_emb"][5:]))


class TestParameterStore:
    def test_save_load_round_trip(self, tmp_path):
        cfg = tiny_config()
        params = enc.init_params(cfg)
        path = tmp_path / "params.bin"
        enc.save_params(str(path), params, cfg)
        loaded, loaded_cfg = enc.load_params(str(path))
        assert loaded_cfg == cfg
        assert set(loaded) == set(params)
        assert all(np.array_equal(loaded[k], params[k]) for k in params)

    def test_save_is_byte_deterministic(self, tmp_path):
        cfg = tiny_config()
        params = enc.init_params(cfg)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        enc.save_params(str(p1), params, cfg)
        enc.save_params(str(p2), params, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a store\n")
        with pytest.raises(enc.EncoderError, match="bad magic"):
            enc.load_arrays(str(path))

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.bin"
        enc.save_arrays(str(path), {"x": np.zeros(2)}, {"kind": "something-else"})
        with pytest.raises(enc.EncoderError, match="does not hold encoder params"):
            enc.load_params(str(path))

    @pytest.mark.parametrize("damage", ["cut_header", "bad_header", "cut_payload", "trailing"])
    def test_damaged_store_names_path(self, tmp_path, damage):
        cfg = tiny_config()
        path = tmp_path / "params.bin"
        enc.save_params(str(path), enc.init_params(cfg), cfg)
        data = path.read_bytes()
        header_end = data.index(b"\n", len(enc.STORE_MAGIC)) + 1
        damaged = {
            "cut_header": data[: header_end - 10],
            "bad_header": enc.STORE_MAGIC + b"{not json}\n" + data[header_end:],
            "cut_payload": data[:-5],
            "trailing": data + b"\0",
        }[damage]
        path.write_bytes(damaged)
        with pytest.raises(enc.EncoderError, match="truncated or corrupt store") as excinfo:
            enc.load_params(str(path))
        assert str(excinfo.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("edit, detail", [
        (lambda m: m["config"].update(dropout=0.1),
         "does not match this version: unknown fields ['dropout'], missing fields []"),
        (lambda m: m["config"].pop("vocab_size"),
         "does not match this version: unknown fields [], missing fields ['vocab_size']"),
        (lambda m: m["config"].update(hidden_size=0), "is invalid: all encoder sizes"),
        (lambda m: m["config"].update(hidden_size="64"), "is invalid: "),
        (lambda m: m.pop("config"), "is not an object: None"),
    ], ids=["unknown", "missing", "zero-size", "str-size", "absent"])
    def test_stored_config_must_name_its_fields(self, tmp_path, edit, detail):
        cfg = tiny_config()
        path = tmp_path / "params.bin"
        enc.save_params(str(path), enc.init_params(cfg), cfg)
        arrays, meta = enc.load_arrays(str(path))
        edit(meta)
        enc.save_arrays(str(path), arrays, meta)
        with pytest.raises(enc.EncoderError) as excinfo:
            enc.load_params(str(path))
        assert str(excinfo.value).startswith(f"{path}: stored EncoderConfig ")
        assert detail in str(excinfo.value)
