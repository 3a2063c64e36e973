"""Encoder forward/backward, masking, and the parameter store.

The backward pass is validated against central finite differences over
every parameter of a tiny configuration, driving both output heads (the
masked-token logits and the first-position embedding).
"""

import copy
import json
import math
import tracemalloc

import numpy as np
import pytest

from casevec import encoder as enc

import _helpers
from _helpers import assert_bit_equal, max_relative_error, reference_kernels


def tiny_config(**overrides):
    defaults = dict(vocab_size=9, hidden_size=4, num_layers=1, num_heads=2,
                    ffn_size=6, max_len=8, seed=3)
    defaults.update(overrides)
    return enc.EncoderConfig(**defaults)


GELU_C = math.sqrt(2.0 / math.pi)
GELU_K = 0.044715


def gelu_pow_reference(x):
    """tanh-GELU of Hendrycks & Gimpel (arXiv:1606.08415), cube through pow."""
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + GELU_K * x**3)))


def gelu_grad_pow_reference(x):
    t = np.tanh(GELU_C * (x + GELU_K * x**3))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_K * x**2)


class TestGelu:
    # the named points plus a seeded spread over the curved part
    GRID = np.concatenate([
        [0.0, 1e-8, -1e-8, 1.0, -1.0, 3.0, -3.0, 30.0, -30.0],
        np.random.default_rng(5).normal(0.0, 2.0, 4000),
    ])

    @staticmethod
    def assert_within_a_few_ulp(actual, expected, x):
        # Relative 1e-15 of max(|expected|, |x|): below x ~ -2 the result is
        # 0.5*x*(1 + tanh) with 1 + tanh cancelling, so the 1-ulp change a
        # cube makes is large relative to the tiny result but not to x.
        scale = np.maximum(np.abs(expected), np.abs(x))
        assert np.all(np.abs(actual - expected) <= 1e-15 * scale)

    @staticmethod
    def grad(x):
        return enc.gelu_grad(x, enc.gelu(x)[1])

    def test_gelu_matches_pow_reference(self):
        x = self.GRID
        self.assert_within_a_few_ulp(enc.gelu(x)[0], gelu_pow_reference(x), x)
        assert enc.gelu(np.array([0.0]))[0][0] == 0.0
        assert enc.gelu(np.array([30.0]))[0][0] == 30.0

    def test_gelu_grad_matches_pow_reference(self):
        x = self.GRID
        self.assert_within_a_few_ulp(self.grad(x), gelu_grad_pow_reference(x), x)
        assert self.grad(np.array([0.0]))[0] == 0.5

    def test_gelu_grad_matches_finite_differences(self):
        x, h = self.GRID, 1e-5
        numeric = (enc.gelu(x + h)[0] - enc.gelu(x - h)[0]) / (2 * h)
        np.testing.assert_allclose(self.grad(x), numeric, rtol=1e-7, atol=1e-9)


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

    @pytest.mark.parametrize("text, message", [
        ("\n".join(enc.SPECIAL_TOKENS) + "\nx\n\ny\nx\n", ":9: token 'x' repeats line 6"),
        ("[PAD]\n\n[UNK]\n[SEP]\n", ":4: expected special token '[CLS]', got '[SEP]'"),
        ("[PAD]\n[UNK]\n\n", ":3: expected special token '[CLS]', got the end of the file"),
        ("", ":1: expected special token '[PAD]', got the end of the file"),
    ], ids=["repeated-token", "wrong-special", "missing-special", "empty"])
    def test_load_errors_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "vocab.txt"
        path.write_text(text)
        with pytest.raises(enc.EncoderError) as excinfo:
            enc.Vocab.load(str(path))
        assert str(excinfo.value) == f"{path}{message}"


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

    def test_encode_rejects_over_length_sequences(self):
        """Only ``build_input_ids`` truncates; ``encode`` refuses, like ``forward``."""
        cfg = tiny_config(max_len=4)
        params = enc.init_params(cfg)
        long_seq = [enc.CLS_ID, 5, 6, 7, 8, 5, enc.SEP_ID]
        with pytest.raises(enc.EncoderError, match="sequence length 7 exceeds max_len 4"):
            enc.encode([long_seq[:4], long_seq], params, cfg)

    def test_layer_norm_standardizes_before_affine(self):
        rng = np.random.default_rng(0)
        # large input scale keeps the eps term in the variance below 1e-6
        x = rng.normal(0.0, 50.0, (3, 7, 16))
        _, (xhat, _) = enc.layer_norm(x, np.ones(16), np.zeros(16), eps=1e-5)
        assert np.abs(xhat.mean(axis=-1)).max() < 1e-6
        assert np.abs(xhat.var(axis=-1) - 1.0).max() < 1e-6


def spread_params(cfg, seed=0):
    """Params drawn at a wide scale, so attention is far from uniform and
    the padding mask and every layer change the [CLS] state."""
    rng = np.random.default_rng(seed)
    return {name: rng.normal(0.0, 0.5, arr.shape) for name, arr in enc.init_params(cfg).items()}


def random_sequences(n, cfg, seed=0, lengths=None):
    """[CLS] body [SEP] sequences of mixed lengths in [2, max_len]."""
    rng = np.random.default_rng(seed)
    if lengths is None:
        lengths = rng.integers(2, cfg.max_len + 1, size=n)
    return [[enc.CLS_ID] + rng.integers(len(enc.SPECIAL_TOKENS), cfg.vocab_size,
                                        size=length - 2).tolist() + [enc.SEP_ID]
            for length in lengths]


def forward_cls_rows(sequences, params, cfg):
    """The oracle: the training forward over one padded batch, [CLS] rows."""
    ids, valid = enc.pad_batch(sequences)
    return enc.forward(ids, valid, params, cfg)[0][:, 0]


class TestEncode:
    """``encode`` against the [CLS] rows of the training ``forward``."""

    @staticmethod
    def config(**overrides):
        defaults = dict(vocab_size=23, hidden_size=8, num_layers=2, num_heads=2,
                        ffn_size=12, max_len=16, seed=4)
        defaults.update(overrides)
        return enc.EncoderConfig(**defaults)

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_matches_forward_for_every_depth(self, num_layers):
        cfg = self.config(num_layers=num_layers)
        params = spread_params(cfg, seed=num_layers)
        seqs = random_sequences(2 * enc.ENCODE_CHUNK + 1, cfg, seed=num_layers)
        expected = forward_cls_rows(seqs, params, cfg)
        assert np.abs(enc.encode(seqs, params, cfg) - expected).max() <= 1e-12

    def test_mixed_lengths_with_padding(self):
        cfg = self.config()
        params = spread_params(cfg)
        # every length from 2 to max_len, shuffled, so each chunk pads to
        # a different length and most rows carry padding
        lengths = np.random.default_rng(1).permutation(np.arange(2, cfg.max_len + 1))
        seqs = random_sequences(len(lengths), cfg, seed=1, lengths=lengths)
        out = enc.encode(seqs, params, cfg)
        assert np.abs(out - forward_cls_rows(seqs, params, cfg)).max() <= 1e-12
        # and each row equals the sequence embedded on its own, unpadded
        alone = np.concatenate([forward_cls_rows([seq], params, cfg) for seq in seqs])
        assert np.abs(out - alone).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, enc.ENCODE_CHUNK - 1, enc.ENCODE_CHUNK,
                                   enc.ENCODE_CHUNK + 1, 3 * enc.ENCODE_CHUNK + 2])
    def test_every_chunk_boundary(self, n):
        cfg = self.config()
        params = spread_params(cfg)
        seqs = random_sequences(n, cfg, seed=n)
        out = enc.encode(seqs, params, cfg)
        assert out.shape == (n, cfg.hidden_size)
        assert np.abs(out - forward_cls_rows(seqs, params, cfg)).max() <= 1e-12

    def test_repeat_calls_are_bit_identical(self):
        cfg = self.config()
        params = spread_params(cfg)
        seqs = random_sequences(3 * enc.ENCODE_CHUNK + 2, cfg)
        assert np.array_equal(enc.encode(seqs, params, cfg), enc.encode(seqs, params, cfg))

    def test_empty_list_rejected(self):
        cfg = self.config()
        with pytest.raises(enc.EncoderError, match="empty batch"):
            enc.encode([], enc.init_params(cfg), cfg)

    def test_peak_memory_does_not_grow_with_the_number_of_sequences(self):
        cfg = enc.EncoderConfig(vocab_size=40, seed=2)
        params = enc.init_params(cfg)
        lengths = [cfg.max_len] * (8 * enc.ENCODE_CHUNK)
        seqs = random_sequences(len(lengths), cfg, lengths=lengths)

        def peak_bytes(batch):
            tracemalloc.start()
            try:
                enc.encode(batch, params, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_chunk = peak_bytes(seqs[: enc.ENCODE_CHUNK])
        assert peak_bytes(seqs) <= 1.5 * one_chunk


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
        value, _ = enc.mlm_loss_and_grad(logits, np.array([3, 1]))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_uniform_logits_give_m_log_v(self):
        m, v = 5, 12
        logits = np.zeros((m, v))
        targets = np.arange(m)
        mean = enc.mlm_loss_and_grad(logits, targets)[0]
        assert mean == pytest.approx(math.log(v), abs=1e-12)

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(0.0, 2.0, (6, 9))
        targets = rng.integers(0, 9, 6)
        expected = 0.0
        for row, t in zip(logits, targets):
            expected += math.log(sum(math.exp(x) for x in row)) - row[t]
        expected /= len(targets)
        assert enc.mlm_loss_and_grad(logits, targets)[0] == pytest.approx(expected, rel=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(enc.EncoderError, match="logit row"):
            enc.mlm_loss_and_grad(np.zeros((3, 5)), np.array([1, 2]))

    def test_gradient_of_certain_prediction_is_zero(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 50.0
        _, dlogits = enc.mlm_loss_and_grad(logits, np.array([2]))
        assert np.abs(dlogits).max() < 1e-15


def masked_loss(params, cfg, ids, valid, positions, targets, probe, restricted=False):
    """Masked-token NLL at ``positions[b]`` of each sequence b plus
    <probe, [CLS] state>, and every gradient: through ``forward`` with
    ``read_rows`` when ``restricted``, else over every position. Returns
    (value, grads, hidden, rows)."""
    rows = enc.read_rows(positions, ids.shape[1]) if restricted else None
    seq = np.concatenate([np.full(len(pos), b) for b, pos in enumerate(positions)])
    col = np.concatenate([np.arange(1, len(pos) + 1) if restricted else np.asarray(pos)
                          for pos in positions])
    hidden, cache = enc.forward(ids, valid, params, cfg, rows=rows)
    logits, gathered = enc.mlm_logits(hidden, seq, col, params)
    value, dlogits = enc.mlm_loss_and_grad(logits, targets)
    value += float((hidden[:, 0, :] * probe).sum())
    dgathered, dw, db = enc.mlm_head_backward(dlogits, gathered, params)
    d_hidden = np.zeros_like(hidden)
    d_hidden[seq, col] = dgathered
    d_hidden[:, 0, :] += probe
    grads = enc.backward(d_hidden, cache, params, cfg)
    grads["mlm.w"], grads["mlm.b"] = dw, db
    return value, grads, hidden, rows


def assert_gradients_match_finite_differences(params, value, grads, eps=1e-5):
    """Central differences of ``value()`` in every entry of every param."""
    for name in sorted(params):
        numeric = np.zeros_like(params[name])
        it = np.nditer(params[name], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = params[name][idx]
            params[name][idx] = orig + eps
            up = value()
            params[name][idx] = orig - eps
            down = value()
            params[name][idx] = orig
            numeric[idx] = (up - down) / (2 * eps)
        err = max_relative_error(grads[name], numeric)
        assert err < 1e-4, f"{name}: max relative error {err}"


def gradcheck_setup(cfg, scale=0.4, seed=5):
    params = enc.init_params(cfg)
    rng = np.random.default_rng(seed)
    for name in params:
        if params[name].ndim >= 2 or "emb" in name:
            params[name] = rng.normal(0.0, scale, params[name].shape)
    seqs = [[enc.CLS_ID, 5, 6, 7, enc.SEP_ID], [enc.CLS_ID, 8, 7, enc.SEP_ID]]
    ids, valid = enc.pad_batch(seqs)
    positions = [[1, 3], [2]]
    targets = np.array([5, 7, 7])
    probe = rng.normal(0.0, 1.0, (2, cfg.hidden_size))
    return params, (ids, valid, positions, targets, probe)


class TestBackward:
    def test_all_parameter_gradients_match_finite_differences(self):
        cfg = tiny_config()
        params, inputs = gradcheck_setup(cfg)
        grads = masked_loss(params, cfg, *inputs)[1]
        assert_gradients_match_finite_differences(
            params, lambda: masked_loss(params, cfg, *inputs)[0], grads)

    def test_pad_positions_get_zero_gradient(self):
        cfg = tiny_config()
        params, inputs = gradcheck_setup(cfg)
        grads = masked_loss(params, cfg, *inputs)[1]
        assert np.array_equal(grads["tok_emb"][enc.PAD_ID], np.zeros(cfg.hidden_size))

    def test_unused_token_row_gets_zero_gradient(self):
        cfg = tiny_config()
        params, inputs = gradcheck_setup(cfg)
        grads = masked_loss(params, cfg, *inputs)[1]
        # token id 4 ([MASK]) never occurs in the batch
        assert np.array_equal(grads["tok_emb"][4], np.zeros(cfg.hidden_size))

    def test_positions_beyond_batch_length_get_zero_gradient(self):
        cfg = tiny_config()
        params, inputs = gradcheck_setup(cfg)
        grads = masked_loss(params, cfg, *inputs)[1]
        assert np.array_equal(grads["pos_emb"][5:], np.zeros_like(grads["pos_emb"][5:]))


class TestRestrictedRows:
    """``forward(..., rows=read_rows(...))``, which runs the last block at
    [CLS] and the masked positions only, against ``rows=None``, which runs
    it at every position."""

    # Lengths 6, 4 and 3, so the batch pads to 6. The sequences read 3, 2
    # and 1 masked positions, so the second and third are padded with rows
    # no loss reads; the second reads its last valid position (3) and its
    # first padded key (4).
    SEQS = [[enc.CLS_ID, 5, 6, 7, 8, enc.SEP_ID], [enc.CLS_ID, 8, 7, enc.SEP_ID],
            [enc.CLS_ID, 6, enc.SEP_ID]]
    POSITIONS = [[2, 3, 5], [3, 4], [1]]
    TARGETS = np.array([6, 7, 5, 7, 8, 6])

    @classmethod
    def tiny_case(cls, num_layers):
        cfg = tiny_config(num_layers=num_layers)
        params, _ = gradcheck_setup(cfg, seed=num_layers)
        ids, valid = enc.pad_batch(cls.SEQS)
        probe = np.random.default_rng(num_layers).normal(0.0, 1.0, (3, cfg.hidden_size))
        return params, cfg, (ids, valid, cls.POSITIONS, cls.TARGETS, probe)

    @staticmethod
    def random_case(num_layers):
        """Nine mixed-length sequences under a wide init, masked at rate 0.3."""
        cfg = TestEncode.config(num_layers=num_layers)
        params = spread_params(cfg, seed=num_layers)
        seqs = random_sequences(9, cfg, seed=num_layers,
                                lengths=[3, 16, 9, 4, 12, 16, 5, 7, 11])
        rng = np.random.default_rng(num_layers)
        masked = [enc.mlm_mask(seq, rng, rate=0.3) for seq in seqs]
        ids, valid = enc.pad_batch([m.input_ids for m in masked])
        targets = np.concatenate([m.target_ids for m in masked])
        probe = rng.normal(0.0, 1.0, (len(seqs), cfg.hidden_size))
        return params, cfg, (ids, valid, [m.positions for m in masked], targets, probe)

    def test_read_rows_puts_cls_then_positions_then_unread_padding(self):
        rows = enc.read_rows(self.POSITIONS, 6)
        assert rows.tolist() == [[0, 2, 3, 5], [0, 3, 4, 1], [0, 1, 2, 3]]

    @pytest.mark.parametrize("case", ["tiny", "random"])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_hidden_and_gradients_match_every_position(self, case, num_layers):
        params, cfg, inputs = getattr(self, case + "_case")(num_layers)
        value, grads, hidden, rows = masked_loss(params, cfg, *inputs, restricted=True)
        full_value, full_grads, full_hidden, _ = masked_loss(params, cfg, *inputs)
        at_rows = full_hidden[np.arange(len(rows))[:, None], rows]
        assert np.abs(hidden - at_rows).max() <= 1e-13
        assert abs(value - full_value) <= 1e-12
        assert list(grads) == list(full_grads)
        for name, grad in full_grads.items():
            assert np.abs(grads[name] - grad).max() <= 1e-12, name

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_all_parameter_gradients_match_finite_differences(self, num_layers):
        params, cfg, inputs = self.tiny_case(num_layers)
        grads = masked_loss(params, cfg, *inputs, restricted=True)[1]
        assert_gradients_match_finite_differences(
            params, lambda: masked_loss(params, cfg, *inputs, restricted=True)[0], grads)


class TestKernelsMatchReferences:
    """Each in-place kernel against the allocating expressions it replaced
    (``_helpers``), bit for bit, alone and inside ``forward`` and
    ``backward``."""

    def test_layer_norm_and_its_backward(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0.0, 3.0, (3, 7, 16))
        dy = rng.normal(0.0, 1.0, x.shape)
        gain, bias = rng.normal(1.0, 0.5, 16), rng.normal(0.0, 0.5, 16)
        # the second pair is strided, as the [CLS] rows ``encode`` normalizes
        for x_in, dy_in in ((x, dy), (x[:, 0], dy[:, 0])):
            out = enc.layer_norm(x_in, gain, bias, 1e-5)
            assert_bit_equal(out, _helpers.layer_norm_reference(x_in, gain, bias, 1e-5))
            assert_bit_equal(enc.layer_norm_backward(dy_in, out[1], gain),
                             _helpers.layer_norm_backward_reference(dy_in, out[1], gain))

    def test_gelu_and_its_grad(self):
        x = TestGelu.GRID[:4008].reshape(3, 8, 167)
        y, t = enc.gelu(x)
        assert_bit_equal((y, t), _helpers.gelu_reference(x))
        assert_bit_equal(enc.gelu_grad(x, t), _helpers.gelu_grad_reference(x))

    @pytest.mark.parametrize("query_rows", [9, 3], ids=["every-row", "restricted-rows"])
    def test_masked_softmax_and_its_backward(self, query_rows):
        rng = np.random.default_rng(query_rows)
        # the second sequence has one valid key: every other key is -inf
        valid = np.arange(9) < np.array([9, 1, 4, 7])[:, None]
        bias = np.where(valid[:, None, None, :], 0.0, -np.inf)
        scores = rng.normal(0.0, 3.0, (4, 2, query_rows, 9)) + bias
        probs = _helpers.softmax_masked_reference(scores)
        assert_bit_equal(enc._softmax_masked(scores.copy()), probs)
        assert np.all(probs[np.broadcast_to(~valid[:, None, None, :], probs.shape)] == 0.0)
        dprobs = rng.normal(0.0, 1.0, probs.shape)
        assert_bit_equal(enc._softmax_backward(dprobs.copy(), probs),
                         _helpers.softmax_backward_reference(dprobs, probs))

    def test_embedding_grad(self):
        rng = np.random.default_rng(14)
        ids = rng.integers(0, 6, (5, 8))  # 40 positions over six ids: every id repeats
        dx = rng.normal(0.0, 1.0, (5, 8, 4))
        assert_bit_equal(enc._embedding_grad(ids, dx, 9),
                         _helpers.embedding_grad_reference(ids, dx, 9))

    @pytest.mark.parametrize("restricted", [False, True], ids=["every-row", "read-rows"])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_forward_and_backward(self, num_layers, restricted):
        params, cfg, inputs = TestRestrictedRows.random_case(num_layers)
        got = masked_loss(params, cfg, *inputs, restricted=restricted)
        with reference_kernels():
            want = masked_loss(params, cfg, *inputs, restricted=restricted)
        assert_bit_equal(got, want)


class TestArgumentsStayUntouched:
    """The in-place kernels write only arrays they allocate: no argument,
    param or cached intermediate changes."""

    def test_layer_norm_and_gelu(self):
        rng = np.random.default_rng(15)
        x, dy = rng.normal(0.0, 2.0, (2, 5, 8)), rng.normal(0.0, 1.0, (2, 5, 8))
        gain, bias = rng.normal(1.0, 0.5, 8), rng.normal(0.0, 0.5, 8)
        before = copy.deepcopy((x, dy, gain, bias))
        _, cache = enc.layer_norm(x, gain, bias, 1e-5)
        _, t = enc.gelu(x)
        kept = copy.deepcopy((cache, t))
        enc.layer_norm_backward(dy, cache, gain)
        enc.gelu_grad(x, t)
        assert_bit_equal((x, dy, gain, bias), before)
        assert_bit_equal((cache, t), kept)

    @pytest.mark.parametrize("restricted", [False, True], ids=["every-row", "read-rows"])
    def test_forward_and_backward(self, restricted):
        params, cfg, (ids, valid, positions, _, _) = TestRestrictedRows.random_case(2)
        rows = enc.read_rows(positions, ids.shape[1]) if restricted else None
        before = copy.deepcopy((params, ids, valid, rows))
        hidden, cache = enc.forward(ids, valid, params, cfg, rows=rows)
        assert_bit_equal((params, ids, valid, rows), before)
        d_hidden = np.random.default_rng(16).normal(0.0, 1.0, hidden.shape)
        before = copy.deepcopy((params, d_hidden, cache))
        grads = enc.backward(d_hidden, cache, params, cfg)
        assert_bit_equal((params, d_hidden, cache), before)
        assert_bit_equal(enc.backward(d_hidden, cache, params, cfg), grads)

    def test_encode(self):
        cfg = TestEncode.config()
        params = spread_params(cfg)
        seqs = random_sequences(2 * enc.ENCODE_CHUNK + 1, cfg)
        before = copy.deepcopy((params, seqs))
        enc.encode(seqs, params, cfg)
        assert_bit_equal((params, seqs), before)


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

    @pytest.mark.parametrize("damage", ["cut_header", "bad_header", "cut_payload", "trailing",
                                        "object_dtype", "negative_shape"])
    def test_damaged_store_names_path(self, tmp_path, damage):
        cfg = tiny_config()
        path = tmp_path / "params.bin"
        enc.save_params(str(path), enc.init_params(cfg), cfg)
        data = path.read_bytes()
        header_end = data.index(b"\n", len(enc.STORE_MAGIC)) + 1
        header = json.loads(data[len(enc.STORE_MAGIC):header_end])

        def with_first_array(**entry):
            header["arrays"][0].update(entry)
            return enc.STORE_MAGIC + json.dumps(header).encode() + b"\n" + data[header_end:]

        damaged = {
            "cut_header": lambda: data[: header_end - 10],
            "bad_header": lambda: enc.STORE_MAGIC + b"{not json}\n" + data[header_end:],
            "cut_payload": lambda: data[:-5],
            "trailing": lambda: data + b"\0",
            "object_dtype": lambda: with_first_array(dtype="|O"),
            "negative_shape": lambda: with_first_array(shape=[-1]),
        }[damage]()
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
        (lambda m: m.pop("config"), "is missing: the metadata has no field 'config'"),
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
