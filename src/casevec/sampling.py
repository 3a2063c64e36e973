"""Positive-pair sampling, batch assembly, and in-batch class structure.

Training batches hold N quadruples, each an anchor and a positive drawn in
proportion to its relevance weight, 2N cases total. Within a batch, any
two cases whose relevance weight exceeds a threshold in either direction
are merged into one class, and the merge is transitive, so classes are
the connected components of the thresholded weight graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .relevance import WeightTable

DEFAULT_POSITIVE_FLOOR = 0.5
DEFAULT_CLASS_THRESHOLD = 0.25


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
    threshold: float


def _eligible(table: WeightTable, floor: float, rows=slice(None)) -> np.ndarray:
    """Eligible positives of the anchor rows (all by default): weight >=
    floor, not the anchor itself."""
    mask = table.matrix[rows] >= floor
    anchors = np.arange(len(table.ids))[rows]
    mask[np.arange(len(anchors)), anchors] = False
    return mask


def sample_positive(
    anchor_id: str,
    table: WeightTable,
    rng: np.random.Generator,
    floor: float = DEFAULT_POSITIVE_FLOOR,
    exclude: set[str] | None = None,
) -> tuple[str, float]:
    """Draw a positive for the anchor, proportional to weight.

    Only cases with weight >= floor are eligible; ``exclude`` removes ids
    already used in the batch. Candidates keep the order of ``table.ids``,
    so the draw is deterministic for a given generator state.
    """
    row = table.positions([anchor_id])
    cand = np.flatnonzero(_eligible(table, floor, row)[0])
    if exclude:
        cand = cand[np.array([table.ids[i] not in exclude for i in cand], dtype=bool)]
    if not len(cand):
        raise NoPositiveAvailable(f"no positive available for anchor {anchor_id!r}")
    weights = table.matrix[row[0], cand].astype(np.float64)
    total = weights.sum()
    if total <= 0.0:
        raise NoPositiveAvailable(f"all candidate weights are zero for anchor {anchor_id!r}")
    pick = int(rng.choice(len(cand), p=weights / total))
    return table.ids[cand[pick]], float(weights[pick])


def sample_quadruples(
    table: WeightTable,
    n: int,
    rng: np.random.Generator,
    floor: float = DEFAULT_POSITIVE_FLOOR,
    max_retries: int = 20,
) -> list[Quadruple]:
    """Sample N quadruples with 2N distinct cases.

    Anchors are drawn without replacement from the cases that have at
    least one eligible positive; each positive is then drawn among the
    eligible cases not already in the batch. A draw can dead-end when
    earlier picks exhaust an anchor's positives, so the whole batch is
    resampled a bounded number of times before giving up.
    """
    if n < 1:
        raise SamplingError(f"need at least one quadruple, got n={n}")
    pool = [table.ids[i] for i in np.flatnonzero(_eligible(table, floor).any(axis=1))]
    if len(pool) < n:
        raise SamplingError(
            f"only {len(pool)} cases have an eligible positive; cannot draw {n} anchors"
        )
    last_error: NoPositiveAvailable | None = None
    for _ in range(max_retries):
        anchors = [pool[i] for i in rng.choice(len(pool), size=n, replace=False)]
        used = set(anchors)
        quads = []
        try:
            for anchor in anchors:
                positive, w = sample_positive(anchor, table, rng, floor, exclude=used)
                used.add(positive)
                quads.append(Quadruple(anchor_id=anchor, positive_id=positive, weight=w))
        except NoPositiveAvailable as exc:
            last_error = exc
            continue
        return quads
    raise SamplingError(
        f"could not assemble {n} collision-free quadruples in {max_retries} tries"
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
    pos = table.positions(batch_ids)
    above = table.matrix[np.ix_(pos, pos)] > threshold
    linked = above | above.T | np.eye(len(pos), dtype=bool)
    # each case takes the lowest root among its links until nothing moves;
    # every component then carries its smallest member position
    roots = np.arange(len(pos))
    while True:
        lowest = np.where(linked, roots, len(pos)).min(axis=1, initial=len(pos))
        if np.array_equal(lowest, roots):
            break
        roots = lowest
    labels = np.unique(roots, return_inverse=True)[1]
    return BatchPartition(case_ids=list(batch_ids), labels=labels.tolist(), threshold=threshold)
