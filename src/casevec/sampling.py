"""Positive-pair sampling, batch assembly, and in-batch class structure.

Training batches hold N quadruples, each an anchor and a positive drawn in
proportion to its relevance weight, 2N cases total. Within a batch, any
two cases whose relevance weight exceeds a threshold in either direction
are merged into one class, and the merge is transitive, so classes are
the connected components of the thresholded weight graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .relevance import PositiveIndex, WeightTable

DEFAULT_POSITIVE_FLOOR = 0.5
DEFAULT_CLASS_THRESHOLD = 0.25
MAX_BATCH_TRIES = 20  # draws of a whole batch before a dead end is an error


class SamplingError(RuntimeError):
    pass


class NoPositiveAvailable(SamplingError):
    """The anchor has no eligible positive and is excluded from training."""


@dataclass(frozen=True)
class Quadruple:
    anchor_id: str
    positive_id: str
    weight: float


@dataclass
class BatchPartition:
    """Dense class labels for an ordered batch of case ids.

    Labels are canonical: components are numbered 0..C-1 in order of their
    smallest member position.
    """

    case_ids: list[str]
    labels: list[int]


def _draw_positive(
    index: PositiveIndex, i: int, anchor_id: str, used: np.ndarray, rng: np.random.Generator
) -> tuple[int, float]:
    """The position and weight of a positive of row ``i`` that ``used`` does
    not mark, drawn in proportion to weight with the generator calls of
    ``rng.choice(k, p=weights / weights.sum())`` over the k candidates."""
    targets, weights = index.row(i)
    free = ~used[targets]
    targets, weights = targets[free], weights[free]
    if not len(targets):
        raise NoPositiveAvailable(f"no positive available for anchor {anchor_id!r}")
    total = weights.sum()
    if total <= 0.0:
        raise NoPositiveAvailable(f"all candidate weights are zero for anchor {anchor_id!r}")
    # numpy's own steps for that call, without its checks of p, which
    # weights in [0, 1] with a positive sum always pass
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    pick = int(cdf.searchsorted(rng.random(), side="right"))
    return int(targets[pick]), float(weights[pick])


def sample_quadruples(
    table: WeightTable,
    n: int,
    rng: np.random.Generator,
    floor: float = DEFAULT_POSITIVE_FLOOR,
) -> list[Quadruple]:
    """Sample N quadruples with 2N distinct cases.

    Anchors are drawn without replacement from the cases that have at
    least one eligible positive; each positive is then drawn among the
    eligible cases not already in the batch. A draw can dead-end when
    earlier picks exhaust an anchor's positives, so the whole batch is
    resampled up to ``MAX_BATCH_TRIES`` times before giving up.
    """
    if n < 1:
        raise SamplingError(f"need at least one quadruple, got n={n}")
    if not math.isfinite(floor):
        raise SamplingError(f"positive_floor must be finite, got {floor}")
    index = table.positive_index(floor)
    pool = index.anchors
    if len(pool) < n:
        raise SamplingError(
            f"only {len(pool)} cases have an eligible positive; cannot draw {n} anchors"
        )
    ids = table.ids
    last_error: NoPositiveAvailable | None = None
    for _ in range(MAX_BATCH_TRIES):
        anchors = pool[rng.choice(len(pool), size=n, replace=False)].tolist()
        used = np.zeros(len(ids), dtype=bool)
        used[anchors] = True
        quads = []
        try:
            for i in anchors:
                j, w = _draw_positive(index, i, ids[i], used, rng)
                used[j] = True
                quads.append(Quadruple(anchor_id=ids[i], positive_id=ids[j], weight=w))
        except NoPositiveAvailable as exc:
            last_error = exc
            continue
        return quads
    raise SamplingError(
        f"could not assemble {n} collision-free quadruples in {MAX_BATCH_TRIES} tries"
    ) from last_error


def build_batch(quadruples: list[Quadruple]) -> list[str]:
    """Interleave quadruples into the batch order (a1, p1, a2, p2, ...)."""
    if not quadruples:
        raise SamplingError("a batch needs at least one quadruple")
    ids: list[str] = []
    for quad in quadruples:
        ids.extend((quad.anchor_id, quad.positive_id))
    if len(set(ids)) != len(ids):
        raise SamplingError(f"batch case ids collide: {ids}")
    return ids


def class_partition(
    batch_ids: list[str],
    table: WeightTable,
    threshold: float = DEFAULT_CLASS_THRESHOLD,
) -> BatchPartition:
    """Merge batch cases into classes by thresholded weight, transitively.

    Two cases connect when the weight strictly exceeds the threshold in
    either direction; labels are the connected components of that graph.
    """
    if not math.isfinite(threshold):
        raise SamplingError(f"class_threshold must be finite, got {threshold}")
    n = len(batch_ids)
    above = table.block(batch_ids) > threshold
    linked = above | above.T | np.eye(n, dtype=bool)
    # each case takes the lowest root among its links until nothing moves;
    # every component then carries its smallest member position
    roots = np.arange(n)
    while True:
        lowest = np.where(linked, roots, n).min(axis=1, initial=n)
        if np.array_equal(lowest, roots):
            break
        roots = lowest
    labels = np.unique(roots, return_inverse=True)[1]
    return BatchPartition(case_ids=list(batch_ids), labels=labels.tolist())
