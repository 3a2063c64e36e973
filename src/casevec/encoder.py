"""A small transformer encoder in numpy with hand-written backprop.

Pre-norm blocks with learned absolute position embeddings and tanh-GELU
activations, all in float64. The first position of every sequence is the
[CLS] token whose final hidden state serves as the case embedding; a
separate linear head produces masked-token logits. The backward pass is
analytic for every parameter and is checked against central finite
differences in the test suite.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .files import claim, decode_error, open_output

LOGGER = logging.getLogger(__name__)

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(len(SPECIAL_TOKENS))

Params = dict[str, np.ndarray]


class EncoderError(ValueError):
    pass


class Vocab:
    """Token list with fixed special tokens at the front; id = position."""

    def __init__(self, tokens: list[str]):
        if tuple(tokens[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise EncoderError(f"vocabulary must start with {SPECIAL_TOKENS}")
        if len(set(tokens)) != len(tokens):
            raise EncoderError("vocabulary tokens must be unique")
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}

    @classmethod
    def build(cls, token_lists) -> "Vocab":
        """Specials followed by the sorted unique tokens of the corpus."""
        seen: set[str] = set()
        for toks in token_lists:
            seen.update(toks)
        seen -= set(SPECIAL_TOKENS)
        return cls(list(SPECIAL_TOKENS) + sorted(seen))

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.index.get(tok, UNK_ID) for tok in tokens]

    def __len__(self) -> int:
        return len(self.tokens)

    def save(self, path: str) -> None:
        with open_output(path, encoding="utf-8") as fh:
            for tok in self.tokens:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        """One token a line, blank lines skipped. A file that does not
        start with the special tokens, or repeats a token, fails with
        ``<path>:<line>:``."""
        with open(path, encoding="utf-8") as fh:
            try:
                lines = [(n, tok) for n, line in enumerate(fh, start=1)
                         if (tok := line.rstrip("\n"))]
            except UnicodeDecodeError:
                raise decode_error(path, EncoderError) from None
        for (n, tok), special in zip(lines, SPECIAL_TOKENS):
            if tok != special:
                raise EncoderError(f"{path}:{n}: expected special token {special!r}, got {tok!r}")
        if len(lines) < len(SPECIAL_TOKENS):
            end = lines[-1][0] + 1 if lines else 1
            raise EncoderError(f"{path}:{end}: expected special token "
                               f"{SPECIAL_TOKENS[len(lines)]!r}, got the end of the file")
        first_line: dict[str, int] = {}
        for n, tok in lines:
            claim(first_line, tok, path, n, EncoderError, "token")
        return cls([tok for _, tok in lines])


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    hidden_size: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_size: int = 128
    max_len: int = 128
    seed: int = 0
    layer_norm_eps: float = 1e-5

    def __post_init__(self) -> None:
        if min(self.vocab_size, self.hidden_size, self.num_layers, self.num_heads, self.ffn_size) < 1:
            raise EncoderError("all encoder sizes must be positive")
        if self.hidden_size % self.num_heads != 0:
            raise EncoderError(
                f"hidden_size {self.hidden_size} is not divisible by num_heads {self.num_heads}"
            )
        if self.max_len < 2:
            raise EncoderError(f"max_len must be at least 2, got {self.max_len}")
        if self.vocab_size < len(SPECIAL_TOKENS):
            raise EncoderError("vocab_size must cover the special tokens")


INIT_STD = 0.02


def init_params(cfg: EncoderConfig) -> Params:
    """Seeded initialization: normal(0, 0.02) weights, zero biases, unit
    layer-norm gains. Draw order is fixed, so params are reproducible."""
    rng = np.random.default_rng(cfg.seed)
    h, f, v = cfg.hidden_size, cfg.ffn_size, cfg.vocab_size

    def normal(*shape):
        return rng.normal(0.0, INIT_STD, size=shape)

    params: Params = {
        "tok_emb": normal(v, h),
        "pos_emb": normal(cfg.max_len, h),
    }
    for i in range(cfg.num_layers):
        p = f"layers.{i}."
        params[p + "ln1.g"] = np.ones(h)
        params[p + "ln1.b"] = np.zeros(h)
        for name in ("wq", "wk", "wv", "wo"):
            params[p + "attn." + name] = normal(h, h)
        for name in ("bq", "bk", "bv", "bo"):
            params[p + "attn." + name] = np.zeros(h)
        params[p + "ln2.g"] = np.ones(h)
        params[p + "ln2.b"] = np.zeros(h)
        params[p + "ffn.w1"] = normal(h, f)
        params[p + "ffn.b1"] = np.zeros(f)
        params[p + "ffn.w2"] = normal(f, h)
        params[p + "ffn.b2"] = np.zeros(h)
    params["ln_f.g"] = np.ones(h)
    params["ln_f.b"] = np.zeros(h)
    params["mlm.w"] = normal(h, v)
    params["mlm.b"] = np.zeros(v)
    return params


# ---------------------------------------------------------------------------
# primitive layers


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Normalize the last axis to zero mean and unit variance, then affine.
    Returns the output and the (xhat, inv) cache ``layer_norm_backward``
    reads; writes only arrays it allocates."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    out = np.square(xhat)
    var = out.mean(axis=-1, keepdims=True)
    var += eps
    inv = 1.0 / np.sqrt(var, out=var)
    xhat *= inv
    np.multiply(xhat, gain, out=out)
    out += bias
    return out, (xhat, inv)


def layer_norm_backward(dy: np.ndarray, cache, gain: np.ndarray):
    """Gradients of the input, gain and bias; reads ``dy`` and the cache
    without writing them."""
    xhat, inv = cache
    h = xhat.shape[-1]
    scratch = dy * xhat
    dgain = scratch.reshape(-1, h).sum(axis=0)
    dbias = dy.reshape(-1, h).sum(axis=0)
    dx = dy * gain  # d xhat, then d x in place
    np.multiply(dx, xhat, out=scratch)
    proj = scratch.mean(axis=-1, keepdims=True)
    dx -= dx.mean(axis=-1, keepdims=True)
    np.multiply(xhat, proj, out=scratch)
    dx -= scratch
    dx *= inv
    return dx, dgain, dbias


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def gelu(x: np.ndarray):
    """tanh-GELU, 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))). Returns the
    activation and the tanh, which ``gelu_grad`` reads back. The cube is
    two multiplies: numpy sends ``x**3`` through ``pow``, about 50×
    slower, and the two differ by at most 1 ulp."""
    t = x * x
    t *= x
    t *= _GELU_K
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = x * 0.5
    out *= t + 1.0
    return out, t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu / dx at ``x``, given the tanh ``gelu(x)`` returned:
    0.5·(1 + t) + 0.5·x·(1 - t²)·√(2/π)·(1 + 3·0.044715·x²)."""
    out = x * 0.5
    scratch = t * t
    np.subtract(1.0, scratch, out=scratch)
    out *= scratch
    out *= _GELU_C
    np.multiply(x, 3.0 * _GELU_K, out=scratch)
    scratch *= x
    scratch += 1.0
    out *= scratch
    np.add(t, 1.0, out=scratch)
    scratch *= 0.5
    out += scratch
    return out


def _softmax_masked(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place; -inf entries come out exactly
    zero."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _softmax_backward(dprobs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """d loss / d scores of the softmax ``probs``, given d loss / d probs:
    probs * (dprobs - (dprobs * probs).sum(-1)), built in ``dprobs``."""
    dprobs -= (dprobs * probs).sum(axis=-1, keepdims=True)
    dprobs *= probs
    return dprobs


def _embedding_grad(ids: np.ndarray, dx: np.ndarray, vocab_size: int) -> np.ndarray:
    """The V×H sum of ``dx``'s rows per token id. One bincount over
    id·H + column: like ``np.add.at`` it adds in order of occurrence, so
    the bits are those of ``np.add.at(zeros, ids, dx)``."""
    h = dx.shape[-1]
    cells = (ids.reshape(-1, 1) * h + np.arange(h)).reshape(-1)
    return np.bincount(cells, weights=dx.reshape(-1),
                       minlength=vocab_size * h).reshape(vocab_size, h)


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b``, the bias added in place."""
    out = x @ w
    out += b
    return out


# ---------------------------------------------------------------------------
# forward / backward


def pad_batch(sequences: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id sequences to a common length; returns (ids, valid)."""
    if not sequences:
        raise EncoderError("empty batch")
    length = max(len(seq) for seq in sequences)
    ids = np.full((len(sequences), length), PAD_ID, dtype=np.int64)
    valid = np.zeros((len(sequences), length), dtype=bool)
    for i, seq in enumerate(sequences):
        ids[i, : len(seq)] = seq
        valid[i, : len(seq)] = True
    return ids, valid


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, l, h = x.shape
    return x.reshape(b, l, num_heads, h // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, nh, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, nh * dh)


def _embed(ids: np.ndarray, valid: np.ndarray, params: Params, cfg: EncoderConfig):
    """Token plus position embeddings of a padded batch, the attention scale,
    and the additive -inf bias that keeps padded keys out of attention."""
    l = ids.shape[1]
    if l > cfg.max_len:
        raise EncoderError(f"sequence length {l} exceeds max_len {cfg.max_len}")
    scale = 1.0 / math.sqrt(cfg.hidden_size // cfg.num_heads)
    bias = np.where(valid[:, None, None, :], 0.0, -np.inf)
    x = params["tok_emb"][ids]
    x += params["pos_emb"][:l]
    return x, scale, bias


def _at(x: np.ndarray, rows) -> np.ndarray:
    """``x`` (B×L×H) at each sequence's ``rows`` (B×R), or ``x`` itself
    when ``rows`` is None."""
    return x if rows is None else x[np.arange(len(x))[:, None], rows]


def _add_at(dst: np.ndarray, rows, values: np.ndarray) -> None:
    """``dst += values`` at each sequence's ``rows``, or everywhere when
    ``rows`` is None. Rows must be distinct within a sequence: a repeated
    row would keep only one of its values."""
    if rows is None:
        dst += values
    else:
        dst[np.arange(len(dst))[:, None], rows] += values


def _block(x, scale, bias, params: Params, cfg: EncoderConfig, i: int, rows=None):
    """Transformer block ``i``. Keys and values span every position of ``x``;
    queries, the residual, ``ln2`` and the FFN run at each sequence's
    ``rows`` (B×R, distinct within a sequence) only, or at every position
    when ``rows`` is None. Returns the output at ``rows`` and the
    intermediates ``backward`` reads. Writes only arrays it allocates;
    each in-place step keeps the grouping of ``x + ctx @ wo + bo`` and
    the like, so the bits are those of the allocating expressions."""
    p = f"layers.{i}."
    h1, ln1_cache = layer_norm(x, params[p + "ln1.g"], params[p + "ln1.b"], cfg.layer_norm_eps)
    h1q = _at(h1, rows)
    q = _split_heads(_linear(h1q, params[p + "attn.wq"], params[p + "attn.bq"]), cfg.num_heads)
    k = _split_heads(_linear(h1, params[p + "attn.wk"], params[p + "attn.bk"]), cfg.num_heads)
    v = _split_heads(_linear(h1, params[p + "attn.wv"], params[p + "attn.bv"]), cfg.num_heads)
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    scores += bias
    attn = _softmax_masked(scores)
    ctx = _merge_heads(attn @ v)
    x1 = ctx @ params[p + "attn.wo"]
    x1 += _at(x, rows)
    x1 += params[p + "attn.bo"]
    h2, ln2_cache = layer_norm(x1, params[p + "ln2.g"], params[p + "ln2.b"], cfg.layer_norm_eps)
    u = _linear(h2, params[p + "ffn.w1"], params[p + "ffn.b1"])
    g, t = gelu(u)
    x_out = g @ params[p + "ffn.w2"]
    x_out += x1
    x_out += params[p + "ffn.b2"]
    return x_out, {"rows": rows, "h1": h1, "h1q": h1q, "ln1": ln1_cache, "q": q, "k": k,
                   "v": v, "attn": attn, "ctx": ctx, "h2": h2, "ln2": ln2_cache, "u": u, "g": g,
                   "tanh": t}


def read_rows(positions: list[list[int]], length: int) -> np.ndarray:
    """The B×R ``rows`` of ``forward`` for a batch of padded length
    ``length`` whose losses read [CLS] and each sequence's ``positions``
    (ascending, distinct, nonzero). Row 0 of every sequence is position
    0 and rows 1 to len(positions[b]) are its positions in order; the
    rest, up to R = 1 + the most positions of any sequence, are the
    lowest positions the sequence does not read. That padding is distinct
    from the read rows, so their gradients do not collide in
    ``backward``."""
    read = np.zeros((len(positions), length), dtype=bool)
    read[:, 0] = True
    for b, pos in enumerate(positions):
        read[b, pos] = True
    width = 1 + max(len(pos) for pos in positions)
    return np.argsort(~read, axis=1, kind="stable")[:, :width]


def forward(ids: np.ndarray, valid: np.ndarray, params: Params, cfg: EncoderConfig,
            rows=None):
    """Forward pass; returns final hidden states and a backward cache.

    With ``rows`` (B×R, distinct within a sequence) the last block runs
    its queries and everything after them at those positions only, so
    ``hidden`` is B×R×H and its row r of sequence b is position
    ``rows[b, r]``; None gives every position (B×L×H)."""
    x, scale, bias = _embed(ids, valid, params, cfg)
    layers = []
    for i in range(cfg.num_layers):
        x, lay = _block(x, scale, bias, params, cfg, i,
                        rows if i == cfg.num_layers - 1 else None)
        layers.append(lay)
    hidden, lnf_cache = layer_norm(x, params["ln_f.g"], params["ln_f.b"], cfg.layer_norm_eps)
    return hidden, {"ids": ids, "scale": scale, "layers": layers, "lnf": lnf_cache}


def backward(d_hidden: np.ndarray, cache, params: Params, cfg: EncoderConfig) -> Params:
    """Analytic gradients of every parameter but the masked-token head's
    (``mlm_head_backward`` gives those), in ``params`` order, given
    d loss / d hidden at the rows ``forward`` returned. Writes neither
    ``d_hidden`` nor the cache, so it may run twice on one cache."""
    grads: Params = {}
    dx, grads["ln_f.g"], grads["ln_f.b"] = layer_norm_backward(
        d_hidden, cache["lnf"], params["ln_f.g"]
    )
    h = cfg.hidden_size
    for i in reversed(range(cfg.num_layers)):
        p = f"layers.{i}."
        lay = cache["layers"][i]
        # x_out = x1 + gelu(h2 @ w1 + b1) @ w2 + b2
        grads[p + "ffn.w2"] = lay["g"].reshape(-1, cfg.ffn_size).T @ dx.reshape(-1, h)
        grads[p + "ffn.b2"] = dx.reshape(-1, h).sum(axis=0)
        du = dx @ params[p + "ffn.w2"].T
        du *= gelu_grad(lay["u"], lay["tanh"])
        grads[p + "ffn.w1"] = lay["h2"].reshape(-1, h).T @ du.reshape(-1, cfg.ffn_size)
        grads[p + "ffn.b1"] = du.reshape(-1, cfg.ffn_size).sum(axis=0)
        dh2 = du @ params[p + "ffn.w1"].T
        dx1, grads[p + "ln2.g"], grads[p + "ln2.b"] = layer_norm_backward(
            dh2, lay["ln2"], params[p + "ln2.g"]
        )
        dx1 += dx
        # x1 = x_in[rows] + merge(attn @ v) @ wo + bo
        dctx = dx1 @ params[p + "attn.wo"].T
        grads[p + "attn.wo"] = lay["ctx"].reshape(-1, h).T @ dx1.reshape(-1, h)
        grads[p + "attn.bo"] = dx1.reshape(-1, h).sum(axis=0)
        dctx_h = _split_heads(dctx, cfg.num_heads)
        probs = lay["attn"]
        dv = probs.swapaxes(-1, -2) @ dctx_h
        dscores = _softmax_backward(dctx_h @ lay["v"].swapaxes(-1, -2), probs)
        dq = dscores @ lay["k"]
        dq *= cache["scale"]
        dk = dscores.swapaxes(-1, -2) @ lay["q"]
        dk *= cache["scale"]
        # queries read h1 at the rows only; keys and values read all of it
        dh1 = np.zeros_like(lay["h1"])
        for name, dmat, h_in, rows in (("wq", dq, lay["h1q"], lay["rows"]),
                                       ("wk", dk, lay["h1"], None),
                                       ("wv", dv, lay["h1"], None)):
            merged = _merge_heads(dmat)
            flat = merged.reshape(-1, h)
            grads[p + "attn." + name] = h_in.reshape(-1, h).T @ flat
            grads[p + "attn.b" + name[1]] = flat.sum(axis=0)
            _add_at(dh1, rows, merged @ params[p + "attn." + name].T)
        dx, grads[p + "ln1.g"], grads[p + "ln1.b"] = layer_norm_backward(
            dh1, lay["ln1"], params[p + "ln1.g"]
        )
        _add_at(dx, lay["rows"], dx1)
    ids = cache["ids"]
    grads["tok_emb"] = _embedding_grad(ids, dx, len(params["tok_emb"]))
    grads["pos_emb"] = np.zeros_like(params["pos_emb"])
    grads["pos_emb"][: ids.shape[1]] = dx.sum(axis=0)
    return {name: grads[name] for name in params if name in grads}


def _cls_states(ids: np.ndarray, valid: np.ndarray, params: Params, cfg: EncoderConfig):
    """Final [CLS] hidden states of one padded batch, keeping no backward
    cache. The last block runs for position 0 only: no other row reaches
    the embedding."""
    x, scale, bias = _embed(ids, valid, params, cfg)
    cls_rows = np.zeros((len(ids), 1), dtype=np.int64)
    for i in range(cfg.num_layers):
        x = _block(x, scale, bias, params, cfg, i,
                   cls_rows if i == cfg.num_layers - 1 else None)[0]
    return layer_norm(x[:, 0], params["ln_f.g"], params["ln_f.b"], cfg.layer_norm_eps)[0]


# Sequences per inference pass. Fixed, not an option: an embedding depends
# on its batch-mates at about 1e-15 (padding length, BLAS blocking), so a
# fixed chunk keeps re-runs byte-identical.
ENCODE_CHUNK = 4


def encode(sequences: list[list[int]], params: Params, cfg: EncoderConfig) -> np.ndarray:
    """Case embeddings: the final hidden state of each sequence's first
    ([CLS]) position. Deterministic for fixed params and inputs; a sequence
    over ``max_len`` raises ``EncoderError``, as in ``forward``. Runs
    ``ENCODE_CHUNK`` sequences at a time through ``_cls_states``, so memory
    does not grow with the number of sequences; the result equals
    ``forward(...)[0][:, 0]`` to about 1e-15."""
    if not sequences:
        raise EncoderError("empty batch")
    out = np.empty((len(sequences), cfg.hidden_size))
    for start in range(0, len(sequences), ENCODE_CHUNK):
        ids, valid = pad_batch(sequences[start:start + ENCODE_CHUNK])
        out[start:start + len(ids)] = _cls_states(ids, valid, params, cfg)
    return out


def build_input_ids(tokens: list[str], vocab: Vocab, cfg: EncoderConfig) -> list[int]:
    """[CLS] ids... [SEP], truncated to max_len keeping both specials."""
    body = vocab.encode(tokens)
    limit = cfg.max_len - 2
    if len(body) > limit:
        LOGGER.warning("truncating input of %d tokens to max_len %d", len(body), cfg.max_len)
        body = body[:limit]
    return [CLS_ID] + body + [SEP_ID]


# ---------------------------------------------------------------------------
# masked-token objective


@dataclass
class MaskedInstance:
    """An input sequence with some positions hidden for prediction."""

    input_ids: list[int]
    positions: list[int]
    target_ids: list[int]


def mlm_mask(
    token_ids: list[int],
    rng: np.random.Generator,
    rate: float = 0.15,
) -> MaskedInstance:
    """Hide a seeded random sample of the non-special positions.

    The number of positions is round(rate * maskable), at least 1, and
    every chosen position becomes [MASK].
    """
    if not token_ids:
        raise EncoderError("cannot mask an empty sequence")
    special = set(range(len(SPECIAL_TOKENS)))
    maskable = [i for i, tid in enumerate(token_ids) if tid not in special]
    if not maskable:
        raise EncoderError("sequence has no maskable (non-special) tokens")
    count = max(1, round(len(maskable) * rate))
    chosen = sorted(rng.choice(len(maskable), size=count, replace=False).tolist())
    positions = [maskable[i] for i in chosen]
    input_ids = list(token_ids)
    for pos in positions:
        input_ids[pos] = MASK_ID
    return MaskedInstance(input_ids=input_ids, positions=positions,
                          target_ids=[token_ids[pos] for pos in positions])


def mlm_logits(hidden: np.ndarray, rows: np.ndarray, cols: np.ndarray, params: Params):
    """Head logits at the masked positions (rows, cols) of the batch."""
    gathered = hidden[rows, cols]
    return gathered @ params["mlm.w"] + params["mlm.b"], gathered


def mlm_loss_and_grad(logits: np.ndarray, targets: np.ndarray):
    """Negative log-likelihood of the targets under softmax logits, averaged
    over the masked positions, which is steadier for optimization than the
    sum, and its gradient in the logits."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or logits.shape[0] != targets.shape[0]:
        raise EncoderError(
            f"need one logit row per masked position, got {logits.shape} vs {targets.shape}"
        )
    m = logits.max(axis=-1, keepdims=True)
    exp = np.exp(logits - m)
    total = exp.sum(axis=-1, keepdims=True)
    lse = np.log(total[:, 0]) + m[:, 0]
    picked = logits[np.arange(len(targets)), targets]
    losses = lse - picked
    dlogits = exp / total
    dlogits[np.arange(len(targets)), targets] -= 1.0
    return float(losses.mean()), dlogits / len(targets)


def mlm_head_backward(dlogits: np.ndarray, gathered: np.ndarray, params: Params):
    """Gradients of the head and of the gathered hidden rows."""
    dw = gathered.T @ dlogits
    db = dlogits.sum(axis=0)
    dgathered = dlogits @ params["mlm.w"].T
    return dgathered, dw, db


# ---------------------------------------------------------------------------
# parameter store: versioned binary with a JSON header


STORE_MAGIC = b"CASEVEC-STORE-1\n"


def save_arrays(path: str, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write named arrays plus JSON metadata; byte-deterministic."""
    names = sorted(arrays)
    entries = []
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        entries.append({"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps({"meta": meta, "arrays": entries}, sort_keys=True)
    with open_output(path, "wb") as fh:
        fh.write(STORE_MAGIC)
        fh.write(header.encode("utf-8") + b"\n")
        for blob in blobs:
            fh.write(blob)


def load_arrays(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a store written by ``save_arrays``. A store whose header is cut
    or unreadable or gives an array a shape or dtype no array can have,
    whose payload is shorter than the header's shapes need, or that has
    bytes after the last array raises ``EncoderError``."""

    def corrupt(detail: str) -> EncoderError:
        return EncoderError(f"{path}: truncated or corrupt store: {detail}")

    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != STORE_MAGIC:
            raise EncoderError(f"{path}: not a parameter store (bad magic {magic!r})")
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise corrupt(f"header ends after {len(line)} bytes without a newline")
        try:
            header = json.loads(line.decode("utf-8"))
            meta = header["meta"]
            layout = [(e["name"], np.dtype(e["dtype"]), [int(n) for n in e["shape"]])
                      for e in header["arrays"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise corrupt(f"unreadable header ({exc})") from None
        if not isinstance(meta, dict):
            raise corrupt(f"metadata is not an object: {meta!r}")
        arrays = {}
        for name, dtype, shape in layout:
            if min(shape, default=0) < 0:
                raise corrupt(f"array {name!r} has a negative dimension in shape {shape}")
            size = math.prod(shape) * dtype.itemsize
            data = fh.read(size)
            if len(data) != size:
                raise corrupt(f"array {name!r} needs {size} bytes, {len(data)} remain")
            try:
                arrays[name] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
            except ValueError as exc:  # a dtype no buffer holds, such as |O
                raise corrupt(f"array {name!r} of dtype {dtype.str}: {exc}") from None
        if fh.read(1):
            raise corrupt("bytes remain after the last array")
    return arrays, meta


def config_from_meta(cls, meta: dict, key: str, path: str, error: type[Exception]):
    """Rebuild the config dataclass ``cls`` from ``meta[key]`` of a store's
    metadata. The key must be present and its object must name exactly the
    fields of ``cls`` with valid values; anything else raises
    ``error("<path>: ...")``."""
    what = f"{path}: stored {cls.__name__}"
    if key not in meta:
        raise error(f"{what} is missing: the metadata has no field {key!r}")
    stored = meta[key]
    if not isinstance(stored, dict):
        raise error(f"{what} is not an object: {stored!r}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(stored) - set(names))
    missing = [name for name in names if name not in stored]
    if unknown or missing:
        raise error(f"{what} does not match this version: unknown fields {unknown}, "
                    f"missing fields {missing}")
    try:
        return cls(**stored)
    except (TypeError, ValueError, RuntimeError) as exc:
        raise error(f"{what} is invalid: {exc}") from None


def check_layout(path: str, arrays: dict[str, np.ndarray], expected: dict[str, np.ndarray],
                 error: type[Exception]) -> None:
    """Raise ``error("<path>: ...")`` naming the first array of ``expected``
    that ``arrays`` lacks or holds with another shape or dtype, or else
    the first array that ``expected`` does not name."""
    for name, want in expected.items():
        got = arrays.get(name)
        if got is None:
            raise error(f"{path}: array {name!r} is missing")
        if got.shape != want.shape or got.dtype != want.dtype:
            raise error(f"{path}: array {name!r} is {got.dtype} {got.shape}, "
                        f"expected {want.dtype} {want.shape}")
    extra = [name for name in arrays if name not in expected]
    if extra:
        raise error(f"{path}: unexpected array {extra[0]!r}")


def save_params(path: str, params: Params, cfg: EncoderConfig) -> None:
    save_arrays(path, params, {"kind": "encoder-params", "version": 1, "config": asdict(cfg)})


def load_params(path: str) -> tuple[Params, EncoderConfig]:
    arrays, meta = load_arrays(path)
    if meta.get("kind") != "encoder-params":
        raise EncoderError(f"{path}: store does not hold encoder params")
    cfg = config_from_meta(EncoderConfig, meta, "config", path, EncoderError)
    check_layout(path, arrays, init_params(cfg), EncoderError)
    return arrays, cfg
