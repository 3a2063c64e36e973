"""Relevance-weighted circle loss over a batch of case embeddings.

For each anchor with K same-class and L other-class partners, the loss is

    log[1 + sum_j exp(g * an_j * (sn_j - dn)) * sum_i exp(-g * ap_i * (sp_i - dp))]

with cosine similarities sp (same class) and sn (other class), scale g,
margins dp and dn, and per-pair speeds

    ap_i = |exp(wp_i - 1) * Op - sp_i|        an_j = max(sn_j - On, 0)

where wp_i in [0, 1] is the pairwise relevance weight. At wp = 1 the
within-class optimum is Op, the plain circle loss setting; weaker
positives are pulled toward a lower effective optimum. The batch loss is
the mean over anchors that have both kinds of partner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .relevance import WeightTable
from .sampling import DEFAULT_CLASS_THRESHOLD, BatchPartition

# mixing coefficient of this loss in the combined objective, e * 1e-6
DEFAULT_MIX = math.e * 1e-6


class CircleLossError(ValueError):
    pass


class CircleLossDiverged(CircleLossError):
    """The loss or its gradient is not finite."""


@dataclass(frozen=True)
class CircleLossParams:
    """Hyperparameters of the weighted circle loss."""

    gamma: float = 16.0
    optimum_pos: float = 1.25
    optimum_neg: float = 0.25
    margin_pos: float = 0.75
    margin_neg: float = 0.25
    class_threshold: float = DEFAULT_CLASS_THRESHOLD
    mix: float = DEFAULT_MIX

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise CircleLossError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.gamma <= 0:
            raise CircleLossError(f"gamma must be positive, got {self.gamma}")
        if not self.margin_neg < self.margin_pos:
            raise CircleLossError(
                f"margin_neg must be below margin_pos, got {self.margin_neg} >= {self.margin_pos}"
            )


def cosine_matrix(embeddings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise cosines and row norms; rows with zero norm get cosine 0."""
    norms = np.linalg.norm(embeddings, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = embeddings / safe[:, None]
    sims = np.clip(unit @ unit.T, -1.0, 1.0)
    sims[norms == 0.0, :] = 0.0
    sims[:, norms == 0.0] = 0.0
    return sims, norms


def alpha_pos(weights, sims, hp: CircleLossParams) -> np.ndarray:
    """Within-class speed |exp(w - 1) * Op - s|."""
    return np.abs(np.exp(np.asarray(weights) - 1.0) * hp.optimum_pos - np.asarray(sims))


def alpha_neg(sims, hp: CircleLossParams) -> np.ndarray:
    """Between-class speed [s - On]_+."""
    return np.maximum(np.asarray(sims) - hp.optimum_neg, 0.0)


def _lse_rows(x: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each row; masked entries are -inf and every row has
    at least one finite entry."""
    m = x.max(axis=1)
    return m + np.log(np.exp(x - m[:, None]).sum(axis=1))


def loss_gradient(
    embeddings: np.ndarray,
    partition: BatchPartition,
    table: WeightTable,
    hp: CircleLossParams,
) -> tuple[float, np.ndarray]:
    """Loss value and its exact gradient with respect to the embeddings.

    The whole batch is one B×B computation: each anchor's loss is
    softplus(logsumexp(neg) + logsumexp(pos)) over its masked row, which
    never overflows, and the coefficients C = d loss / d cosine go back
    through the cosine Jacobian. Same-class pairs carry the symmetric
    relevance weight max(w_ab, w_ba), treated as a constant. The absolute
    value inside the within-class speed is subdifferentiated with
    sign(0) = 0, and the between-class hinge uses derivative 0 at its
    corner. A zero-norm row enters the value with cosine 0 and gets a zero
    gradient.
    """
    n = embeddings.shape[0]
    if n != len(partition.case_ids):
        raise CircleLossError("embedding rows do not match the partition")
    sims, norms = cosine_matrix(embeddings)
    labels = np.asarray(partition.labels)
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    neg_mask = ~same
    rows = pos_mask.any(axis=1) & neg_mask.any(axis=1)
    eligible = int(rows.sum())
    if eligible == 0:
        return 0.0, np.zeros_like(embeddings, dtype=np.float64)

    idx = table.positions(partition.case_ids)
    w = table.matrix[np.ix_(idx, idx)]
    w = np.maximum(w, w.T)
    ap = alpha_pos(w, sims, hp)
    an = alpha_neg(sims, hp)
    pos_exp = np.where(pos_mask, -hp.gamma * ap * (sims - hp.margin_pos), -np.inf)[rows]
    neg_exp = np.where(neg_mask, hp.gamma * an * (sims - hp.margin_neg), -np.inf)[rows]
    lse_pos = _lse_rows(pos_exp)
    lse_neg = _lse_rows(neg_exp)
    z = lse_pos + lse_neg
    terms = np.logaddexp(0.0, z)
    value = float(terms.sum()) / eligible

    # d exponent / d similarity, differentiating through the speeds
    sign_pos = np.sign(np.exp(w - 1.0) * hp.optimum_pos - sims)
    dpos_ds = hp.gamma * (sign_pos * (sims - hp.margin_pos) - ap)
    active = (sims > hp.optimum_neg).astype(np.float64)
    dneg_ds = hp.gamma * (active * (sims - hp.margin_neg) + an)
    # sigmoid(z) times the softmax within each logsumexp; masked entries are 0
    sig = np.exp(z - terms)[:, None] / eligible
    coeff = np.zeros((n, n))
    coeff[rows] = sig * (
        np.exp(pos_exp - lse_pos[:, None]) * dpos_ds[rows]
        + np.exp(neg_exp - lse_neg[:, None]) * dneg_ds[rows]
    )
    live = norms > 0.0
    coeff *= live[:, None] & live[None, :]

    # d cos(u_i, u_j) / d e_i = (u_j - s_ij u_i) / |e_i|, with both pair orders
    both = coeff + coeff.T
    safe = np.where(live, norms, 1.0)[:, None]
    unit = embeddings / safe
    grad = (both @ unit - (both * sims).sum(axis=1)[:, None] * unit) / safe
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise CircleLossDiverged("loss or gradient is not finite")
    return value, grad
