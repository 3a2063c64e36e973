"""Independent reference implementations used as test oracles.

Everything here is written directly from the mathematical definitions,
with plain loops and scalar arithmetic, deliberately sharing no code with
the package paths it checks.
"""

import math

import numpy as np


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


def ndcg_reference(grades_in_rank_order, k):
    """Graded NDCG with gain 2^g - 1 and log2(rank + 1) discount."""

    def dcg(grades):
        return sum((2.0**g - 1.0) / math.log2(r + 2.0) for r, g in enumerate(grades[:k]))

    ideal = sorted(grades_in_rank_order, reverse=True)
    denom = dcg(ideal)
    if denom == 0.0:
        return 0.0
    return dcg(grades_in_rank_order) / denom


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
