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
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.tokens:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        with open(path, encoding="utf-8") as fh:
            return cls([line.rstrip("\n") for line in fh if line.rstrip("\n")])


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

    def to_json(self) -> dict:
        return asdict(self)


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


def zero_grads(params: Params) -> Params:
    return {name: np.zeros_like(arr) for name, arr in params.items()}


# ---------------------------------------------------------------------------
# primitive layers


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Normalize the last axis to zero mean and unit variance, then affine."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return gain * xhat + bias, (xhat, inv)


def layer_norm_backward(dy: np.ndarray, cache, gain: np.ndarray):
    xhat, inv = cache
    dgain = (dy * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0)
    dbias = dy.reshape(-1, xhat.shape[-1]).sum(axis=0)
    dxhat = dy * gain
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgain, dbias


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_K * x**3)))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    t = np.tanh(_GELU_C * (x + _GELU_K * x**3))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_K * x * x)


def _softmax_masked(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis; -inf entries come out exactly zero."""
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    return e / e.sum(axis=-1, keepdims=True)


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


def forward(ids: np.ndarray, valid: np.ndarray, params: Params, cfg: EncoderConfig):
    """Full forward pass; returns final hidden states and a backward cache.

    Padding positions are excluded from attention with an additive -inf
    bias, so they receive no weight and contribute no gradient.
    """
    b, l = ids.shape
    if l > cfg.max_len:
        raise EncoderError(f"sequence length {l} exceeds max_len {cfg.max_len}")
    scale = 1.0 / math.sqrt(cfg.hidden_size // cfg.num_heads)
    bias = np.where(valid[:, None, None, :], 0.0, -np.inf)
    x = params["tok_emb"][ids] + params["pos_emb"][:l]
    layers = []
    for i in range(cfg.num_layers):
        p = f"layers.{i}."
        h1, ln1_cache = layer_norm(x, params[p + "ln1.g"], params[p + "ln1.b"], cfg.layer_norm_eps)
        q = _split_heads(h1 @ params[p + "attn.wq"] + params[p + "attn.bq"], cfg.num_heads)
        k = _split_heads(h1 @ params[p + "attn.wk"] + params[p + "attn.bk"], cfg.num_heads)
        v = _split_heads(h1 @ params[p + "attn.wv"] + params[p + "attn.bv"], cfg.num_heads)
        attn_probs = _softmax_masked(q @ k.swapaxes(-1, -2) * scale + bias)
        ctx = _merge_heads(attn_probs @ v)
        x1 = x + ctx @ params[p + "attn.wo"] + params[p + "attn.bo"]
        h2, ln2_cache = layer_norm(x1, params[p + "ln2.g"], params[p + "ln2.b"], cfg.layer_norm_eps)
        u = h2 @ params[p + "ffn.w1"] + params[p + "ffn.b1"]
        g = gelu(u)
        x_out = x1 + g @ params[p + "ffn.w2"] + params[p + "ffn.b2"]
        layers.append(
            {"x_in": x, "h1": h1, "ln1": ln1_cache, "q": q, "k": k, "v": v,
             "attn": attn_probs, "ctx": ctx, "x1": x1, "h2": h2, "ln2": ln2_cache,
             "u": u, "g": g}
        )
        x = x_out
    hidden, lnf_cache = layer_norm(x, params["ln_f.g"], params["ln_f.b"], cfg.layer_norm_eps)
    cache = {"ids": ids, "scale": scale, "layers": layers, "lnf": lnf_cache, "length": l}
    return hidden, cache


def backward(d_hidden: np.ndarray, cache, params: Params, cfg: EncoderConfig) -> Params:
    """Analytic gradients of every parameter given d loss / d hidden."""
    grads = zero_grads(params)  # mlm head grads stay zero; it has its own backward
    dx, grads["ln_f.g"], grads["ln_f.b"] = layer_norm_backward(
        d_hidden, cache["lnf"], params["ln_f.g"]
    )
    h = cfg.hidden_size
    for i in reversed(range(cfg.num_layers)):
        p = f"layers.{i}."
        lay = cache["layers"][i]
        # x_out = x1 + gelu(h2 @ w1 + b1) @ w2 + b2
        dg = dx @ params[p + "ffn.w2"].T
        grads[p + "ffn.w2"] = lay["g"].reshape(-1, cfg.ffn_size).T @ dx.reshape(-1, h)
        grads[p + "ffn.b2"] = dx.reshape(-1, h).sum(axis=0)
        du = dg * gelu_grad(lay["u"])
        grads[p + "ffn.w1"] = lay["h2"].reshape(-1, h).T @ du.reshape(-1, cfg.ffn_size)
        grads[p + "ffn.b1"] = du.reshape(-1, cfg.ffn_size).sum(axis=0)
        dh2 = du @ params[p + "ffn.w1"].T
        dx1, grads[p + "ln2.g"], grads[p + "ln2.b"] = layer_norm_backward(
            dh2, lay["ln2"], params[p + "ln2.g"]
        )
        dx1 += dx
        # x1 = x_in + merge(attn @ v) @ wo + bo
        dctx = dx1 @ params[p + "attn.wo"].T
        grads[p + "attn.wo"] = lay["ctx"].reshape(-1, h).T @ dx1.reshape(-1, h)
        grads[p + "attn.bo"] = dx1.reshape(-1, h).sum(axis=0)
        dctx_h = _split_heads(dctx, cfg.num_heads)
        dprobs = dctx_h @ lay["v"].swapaxes(-1, -2)
        dv = lay["attn"].swapaxes(-1, -2) @ dctx_h
        probs = lay["attn"]
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dq = dscores @ lay["k"] * cache["scale"]
        dk = dscores.swapaxes(-1, -2) @ lay["q"] * cache["scale"]
        dh1 = np.zeros_like(lay["h1"])
        for name, dmat in (("wq", dq), ("wk", dk), ("wv", dv)):
            flat = _merge_heads(dmat).reshape(-1, h)
            grads[p + "attn." + name] = lay["h1"].reshape(-1, h).T @ flat
            grads[p + "attn.b" + name[1]] = flat.sum(axis=0)
            dh1 += flat.reshape(dh1.shape) @ params[p + "attn." + name].T
        dx_in, grads[p + "ln1.g"], grads[p + "ln1.b"] = layer_norm_backward(
            dh1, lay["ln1"], params[p + "ln1.g"]
        )
        dx = dx_in + dx1
    np.add.at(grads["tok_emb"], cache["ids"].reshape(-1), dx.reshape(-1, h))
    grads["pos_emb"][: cache["length"]] = dx.sum(axis=0)
    return grads


def encode(sequences: list[list[int]], params: Params, cfg: EncoderConfig) -> np.ndarray:
    """Case embeddings: the final hidden state of each sequence's first
    ([CLS]) position. Deterministic for fixed params and inputs;
    over-length sequences are truncated with a warning, keeping the
    leading position."""
    if any(len(seq) > cfg.max_len for seq in sequences):
        LOGGER.warning("truncating over-length sequences to max_len %d", cfg.max_len)
        sequences = [seq[: cfg.max_len] for seq in sequences]
    ids, valid = pad_batch(sequences)
    hidden, _ = forward(ids, valid, params, cfg)
    return hidden[:, 0, :]


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


def mlm_loss(logits: np.ndarray, targets: np.ndarray, mean: bool = False) -> float:
    """Negative log-likelihood of the targets under softmax logits.

    Summed over masked positions by definition; ``mean`` averages instead,
    which is steadier for optimization.
    """
    value, _ = mlm_loss_and_grad(logits, targets, mean=mean)
    return value


def mlm_loss_and_grad(logits: np.ndarray, targets: np.ndarray, mean: bool = False):
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or logits.shape[0] != targets.shape[0]:
        raise EncoderError(
            f"need one logit row per masked position, got {logits.shape} vs {targets.shape}"
        )
    m = logits.max(axis=-1, keepdims=True)
    shifted = logits - m
    lse = np.log(np.exp(shifted).sum(axis=-1)) + m[:, 0]
    picked = logits[np.arange(len(targets)), targets]
    losses = lse - picked
    dlogits = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
    dlogits[np.arange(len(targets)), targets] -= 1.0
    if mean:
        return float(losses.mean()), dlogits / len(targets)
    return float(losses.sum()), dlogits


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
    with open(path, "wb") as fh:
        fh.write(STORE_MAGIC)
        fh.write(header.encode("utf-8") + b"\n")
        for blob in blobs:
            fh.write(blob)


def load_arrays(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a store written by ``save_arrays``. A store whose header is cut
    or unreadable, whose payload is shorter than the header's shapes need,
    or that has bytes after the last array raises ``EncoderError``."""

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
            size = math.prod(shape) * dtype.itemsize
            data = fh.read(size)
            if len(data) != size:
                raise corrupt(f"array {name!r} needs {size} bytes, {len(data)} remain")
            arrays[name] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
        if fh.read(1):
            raise corrupt("bytes remain after the last array")
    return arrays, meta


def config_from_meta(cls, stored, path: str, error: type[Exception]):
    """Rebuild the config dataclass ``cls`` from a store's metadata. The
    stored object must name exactly the fields of ``cls`` with valid
    values; anything else raises ``error("<path>: ...")``."""
    what = f"{path}: stored {cls.__name__}"
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


def save_params(path: str, params: Params, cfg: EncoderConfig) -> None:
    save_arrays(path, params, {"kind": "encoder-params", "version": 1, "config": cfg.to_json()})


def load_params(path: str) -> tuple[Params, EncoderConfig]:
    arrays, meta = load_arrays(path)
    if meta.get("kind") != "encoder-params":
        raise EncoderError(f"{path}: store does not hold encoder params")
    return arrays, config_from_meta(EncoderConfig, meta.get("config"), path, EncoderError)
