"""Independent reference implementations used as test oracles.

Everything here is written directly from the mathematical definitions,
with plain loops and scalar arithmetic, deliberately sharing no code with
the package paths it checks. Two exceptions: ``bm25_scores`` is not an
oracle but calls the package's BM25 in the shape ``bm25_reference``
returns, and the encoder kernels below keep the allocating numpy
expressions the package's in-place kernels must match bit for bit.
"""

import csv
import math
from contextlib import contextmanager

import numpy as np

from casevec import encoder
from casevec.bm25 import compute_profiles
from casevec.relevance import CaseDocument
from casevec.text import tokenize


def bm25_reference(docs, query, k1=1.5, b=0.75):
    """Okapi BM25 scores of every document against a token query.

    idf(t) = ln((N - df + 0.5) / (df + 0.5) + 1); query tokens count with
    multiplicity.
    """
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n

    def df(tok):
        return sum(1 for d in docs if tok in d)

    def idf(tok):
        return math.log((n - df(tok) + 0.5) / (df(tok) + 0.5) + 1.0)

    scores = []
    for d in docs:
        s = 0.0
        for tok in query:
            tf = d.count(tok)
            if tf == 0:
                continue
            s += idf(tok) * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(d) / avgdl))
        scores.append(s)
    return scores


def bm25_scores(query, corpus, index):
    """BM25 scores of every branch against a token query, article by
    article in ``corpus.by_article`` order, from a one-case
    ``compute_profiles`` call whose holding tokenizes back to ``query``."""
    holding = " ".join(query)
    assert tokenize(holding, index.cfg) == list(query)
    case = CaseDocument("query", facts="f", holding=holding)
    return np.concatenate(list(compute_profiles([case], corpus, index)["query"].vectors.values()))


def cosine_reference(u, v):
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return sum(x * y for x, y in zip(u, v)) / (nu * nv)


def circle_loss_reference(sp, sn, gamma, o_pos, o_neg, d_pos, d_neg):
    """Plain circle loss for one anchor: alpha_p = [Op - sp]_+,
    alpha_n = [sn - On]_+."""
    pos_sum = sum(
        math.exp(-gamma * max(o_pos - s, 0.0) * (s - d_pos)) for s in sp
    )
    neg_sum = sum(
        math.exp(gamma * max(s - o_neg, 0.0) * (s - d_neg)) for s in sn
    )
    return math.log(1.0 + neg_sum * pos_sum)


def weighted_circle_reference(anchors, gamma, o_pos, o_neg, d_pos, d_neg):
    """Scalar recomputation of the weighted circle loss.

    ``anchors`` is a list of (pos_list, neg_list) where pos_list holds
    (similarity, weight) pairs and neg_list holds similarities. Anchors
    missing either kind of pair are skipped; the result is the mean over
    the rest, 0.0 if none qualify.
    """
    terms = []
    for pos_list, neg_list in anchors:
        if not pos_list or not neg_list:
            continue
        pos_sum = 0.0
        for s, w in pos_list:
            alpha = abs(math.exp(w - 1.0) * o_pos - s)
            pos_sum += math.exp(-gamma * alpha * (s - d_pos))
        neg_sum = 0.0
        for s in neg_list:
            alpha = max(s - o_neg, 0.0)
            neg_sum += math.exp(gamma * alpha * (s - d_neg))
        terms.append(math.log(1.0 + neg_sum * pos_sum))
    if not terms:
        return 0.0
    return sum(terms) / len(terms)


def branch_count_reference(acts):
    """Number of branches of an article: sum over acts of the product of
    slot sizes, counted by explicit enumeration."""
    total = 0
    for act in acts:
        combos = [[]]
        for slot in act:
            combos = [c + [p] for c in combos for p in slot]
        total += len(combos)
    return total


def closure_partition_reference(n, connected):
    """Connected components under a symmetric predicate, by fixpoint
    expansion of reachability; labels numbered by smallest member."""
    reach = [[i == j or connected(i, j) or connected(j, i) for j in range(n)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if reach[i][j]:
                    continue
                if any(reach[i][k] and reach[k][j] for k in range(n)):
                    reach[i][j] = True
                    changed = True
    labels = []
    seen = {}
    for i in range(n):
        root = min(j for j in range(n) if reach[i][j])
        if root not in seen:
            seen[root] = len(seen)
        labels.append(seen[root])
    return labels


def sample_batches_reference(table, n, rng, floor, threshold, batches, max_retries=20):
    """Training batches drawn from the definition, one per entry of the result.

    A positive of an anchor is any other case with weight >= floor, found
    by scanning ``table.ids`` in order with ``table.get``. Anchors come
    from the cases that have one; each anchor then draws a positive among
    those not yet in the batch, in proportion to weight. A batch whose
    anchor runs out of positives (or of positive weight) is redrawn, up to
    ``max_retries`` times. The rng calls are those of the package, so the
    draws can be compared one for one.

    Each entry is ``(tries, quads, labels)`` with quads as (anchor,
    positive, weight) and labels the closure partition of the batch at
    ``threshold``, or ``(tries, reason, None)`` where the draw fails.
    """

    def positives(anchor, exclude):
        out = []
        for other in table.ids:
            if other != anchor and other not in exclude and table.get(anchor, other) >= floor:
                out.append((other, table.get(anchor, other)))
        return out

    results = []
    for _ in range(batches):
        if n < 1:
            results.append((0, "no quadruple asked for", None))
            continue
        pool = [cid for cid in table.ids if positives(cid, set())]
        if len(pool) < n:
            results.append((0, "too few anchors", None))
            continue
        outcome = (max_retries, "no collision-free batch", None)
        for tries in range(1, max_retries + 1):
            anchors = [pool[i] for i in rng.choice(len(pool), size=n, replace=False)]
            used = set(anchors)
            quads = []
            for anchor in anchors:
                cands = positives(anchor, used)
                weights = np.array([w for _, w in cands], dtype=np.float64)
                if not cands or weights.sum() <= 0.0:
                    break
                positive, w = cands[int(rng.choice(len(cands), p=weights / weights.sum()))]
                used.add(positive)
                quads.append((anchor, positive, w))
            else:
                ids = [cid for quad in quads for cid in quad[:2]]
                labels = closure_partition_reference(
                    len(ids), lambda i, j: table.get(ids[i], ids[j]) > threshold
                )
                outcome = (tries, quads, labels)
                break
        results.append(outcome)
    return results


def weight_csv_reference(path):
    """``(ids, matrix)`` of a weight CSV, read one row at a time: every
    check runs as its row is read, and a file that fails one, or a line
    ``csv.reader`` cannot read, raises ``ValueError`` with the message
    ``WeightTable.from_csv`` gives."""
    values = {}
    sources = {}  # in order of first appearance
    pending = {}  # first line of each target read before it was a source
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != ["source_id", "target_id", "value"]:
                raise ValueError(f"{path}: unexpected weight CSV header {header!r}")
            for row in reader:
                try:
                    src, tgt, val = row
                    value = float(val)
                except ValueError as exc:
                    raise ValueError(f"{path}:{reader.line_num}: bad row {row!r}: {exc}") from None
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{path}:{reader.line_num}: weight {val!r} is not in [0, 1]")
                sources.setdefault(src)
                if tgt not in sources:
                    pending.setdefault(tgt, reader.line_num)
                if (src, tgt) in values:
                    raise ValueError(
                        f"{path}:{reader.line_num}: duplicate pair ({src!r}, {tgt!r})"
                    )
                values[(src, tgt)] = value
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not values:
        raise ValueError(f"{path}: holds no weight")
    for tgt, line in pending.items():
        if tgt not in sources:
            raise ValueError(f"{path}:{line}: target {tgt!r} is not a source id")
    ids = list(sources)
    matrix = np.zeros((len(ids), len(ids)), dtype=np.float64)
    for i, src in enumerate(ids):
        for j, tgt in enumerate(ids):
            if (src, tgt) not in values:
                raise ValueError(f"{path}: missing pair ({src!r}, {tgt!r})")
            matrix[i, j] = values[(src, tgt)]
    return ids, matrix


def ndcg_reference(grades_in_rank_order, k):
    """Graded NDCG with gain 2^g - 1 and log2(rank + 1) discount."""

    def dcg(grades):
        return sum((2.0**g - 1.0) / math.log2(r + 2.0) for r, g in enumerate(grades[:k]))

    ideal = sorted(grades_in_rank_order, reverse=True)
    denom = dcg(ideal)
    if denom == 0.0:
        return 0.0
    return dcg(grades_in_rank_order) / denom


# ---------------------------------------------------------------------------
# encoder kernels, one new array per expression, in the signatures of the
# package's in-place kernels

GELU_C = math.sqrt(2.0 / math.pi)
GELU_K = 0.044715


def layer_norm_reference(x, gain, bias, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return gain * xhat + bias, (xhat, inv)


def layer_norm_backward_reference(dy, cache, gain):
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


def _gelu_tanh_reference(x):
    return np.tanh(GELU_C * (x + GELU_K * (x * x * x)))


def gelu_reference(x):
    """The activation and its tanh, as the package's ``gelu`` returns them."""
    t = _gelu_tanh_reference(x)
    return 0.5 * x * (1.0 + t), t


def gelu_grad_reference(x, t=None):
    """Recomputes the tanh from ``x``; the one passed is ignored."""
    t = _gelu_tanh_reference(x)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_K * x * x)


def softmax_masked_reference(scores):
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward_reference(dprobs, probs):
    return probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))


def embedding_grad_reference(ids, dx, vocab_size):
    grad = np.zeros((vocab_size, dx.shape[-1]))
    np.add.at(grad, ids.reshape(-1), dx.reshape(-1, dx.shape[-1]))
    return grad


REFERENCE_KERNELS = {
    "layer_norm": layer_norm_reference,
    "layer_norm_backward": layer_norm_backward_reference,
    "gelu": gelu_reference,
    "gelu_grad": gelu_grad_reference,
    "_softmax_masked": softmax_masked_reference,
    "_softmax_backward": softmax_backward_reference,
    "_embedding_grad": embedding_grad_reference,
}


@contextmanager
def reference_kernels():
    """Run ``casevec.encoder`` on the reference kernels within the block."""
    saved = {name: getattr(encoder, name) for name in REFERENCE_KERNELS}
    try:
        for name, kernel in REFERENCE_KERNELS.items():
            setattr(encoder, name, kernel)
        yield
    finally:
        for name, kernel in saved.items():
            setattr(encoder, name, kernel)


def assert_bit_equal(got, want, where="result"):
    """``got`` has the structure of ``want`` (dicts in the same key order,
    lists, tuples), equal scalars, and arrays of the same shape, dtype and
    bytes."""
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_bit_equal(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_bit_equal(g, w, f"{where}[{i}]")
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), where
        assert (got.shape, got.dtype) == (want.shape, want.dtype), where
        assert got.tobytes() == want.tobytes(), where
    else:
        assert type(got) is type(want) and got == want, where


def central_difference(f, arr, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    grad = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + eps
        up = f()
        arr[idx] = orig - eps
        down = f()
        arr[idx] = orig
        grad[idx] = (up - down) / (2.0 * eps)
    return grad


def max_relative_error(analytic, numeric, floor=1e-7):
    """Elementwise |a - n| / max(|a|, |n|), absolute below the floor."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.where(scale > floor, np.abs(analytic - numeric) / np.maximum(scale, 1e-300),
                   np.abs(analytic - numeric))
    return float(err.max()) if err.size else 0.0


# registry filled by the acceptance suite and printed after the run
ACCEPTANCE_RESULTS: list[tuple[int, str]] = []


def record_acceptance(number: int, description: str) -> None:
    ACCEPTANCE_RESULTS.append((number, description))
    print(f"ACCEPTANCE {number} PASS: {description}")
