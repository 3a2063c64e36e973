"""Weighted circle loss: pair collection, speeds, value, and gradient.

Reference values come from the scalar reimplementation in _helpers and
from hand computation; the gradient is checked against central finite
differences at points away from the absolute-value and hinge corners.
Tests that need only the value take ``loss_gradient(...)[0]``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from casevec.circle_loss import (
    CircleLossParams,
    alpha_neg,
    alpha_pos,
    cosine_matrix,
    loss_gradient,
)
from casevec.relevance import WeightTable
from casevec.sampling import BatchPartition

from _helpers import (
    central_difference,
    circle_loss_reference,
    cosine_reference,
    max_relative_error,
    weighted_circle_reference,
)

HP = CircleLossParams()


def make_instance(n, h, labels, seed, weight_low=0.3):
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(0.0, 1.0, (n, h))
    ids = [f"c{i}" for i in range(n)]
    matrix = rng.uniform(weight_low, 1.0, (n, n))
    np.fill_diagonal(matrix, 1.0)
    table = WeightTable(ids, matrix)
    partition = BatchPartition(ids, list(labels))
    return embeddings, partition, table


def circle_value(embeddings, partition, table, hp=HP):
    return loss_gradient(embeddings, partition, table, hp)[0]


def reference_value(embeddings, partition, table, hp=HP):
    return weighted_circle_reference(
        reference_anchors(embeddings, partition, table),
        hp.gamma, hp.optimum_pos, hp.optimum_neg, hp.margin_pos, hp.margin_neg,
    )


def reference_anchors(embeddings, partition, table):
    """Rebuild the per-anchor pair lists with scalar arithmetic."""
    n = len(partition.case_ids)
    anchors = []
    for a in range(n):
        pos, neg = [], []
        for b in range(n):
            if b == a:
                continue
            s = cosine_reference(embeddings[a].tolist(), embeddings[b].tolist())
            if partition.labels[b] == partition.labels[a]:
                ida, idb = partition.case_ids[a], partition.case_ids[b]
                w = max(table.get(ida, idb), table.get(idb, ida))
                pos.append((s, w))
            else:
                neg.append(s)
        anchors.append((pos, neg))
    return anchors


class TestCollectPairs:
    """What the loss reads of each pair: its cosine and its weight."""

    def test_identical_embeddings_have_cosine_one(self):
        sims = cosine_matrix(np.ones((2, 5)))[0]
        assert sims[0, 1] == pytest.approx(1.0)

    def test_pair_weight_is_symmetric_max(self):
        """Only max(w_ab, w_ba) enters: W, its transpose and the symmetric
        max give the same loss and gradient."""
        embeddings, partition, table = make_instance(6, 4, [0, 0, 0, 1, 1, 2], seed=3)
        w = table.matrix
        value, grad = loss_gradient(embeddings, partition, table, HP)
        for other in (w.T, np.maximum(w, w.T)):
            v, g = loss_gradient(embeddings, partition, WeightTable(table.ids, other.copy()), HP)
            assert v == value
            assert np.array_equal(g, grad)


class TestAlphas:
    def test_alpha_pos_at_full_weight(self):
        assert alpha_pos([1.0], [0.5], HP)[0] == pytest.approx(0.75)

    def test_alpha_neg_hinge_boundary(self):
        assert alpha_neg([0.25], HP)[0] == 0.0
        assert alpha_neg([0.20], HP)[0] == 0.0
        assert alpha_neg([0.30], HP)[0] == pytest.approx(0.05)

    def test_alpha_pos_weighted_hand_value(self):
        """w = 0.25, s = 0.3: |e^(-0.75) * 1.25 - 0.3| = 0.2904581909...,
        frozen from the scalar formula."""
        got = alpha_pos([0.25], [0.3], HP)[0]
        assert got == pytest.approx(0.2904581909262684, abs=1e-12)
        assert got == pytest.approx(abs(math.exp(-0.75) * 1.25 - 0.3), abs=1e-15)


class TestLossValue:
    def test_no_eligible_anchor_gives_zero(self):
        embeddings, partition, table = make_instance(3, 4, [0, 0, 0], seed=4)
        assert circle_value(embeddings, partition, table) == 0.0

    def test_margin_boundary_gives_log_two(self):
        """Two same-class cases at cosine margin_pos, both at cosine
        margin_neg to a third case of another class: every exponent
        vanishes, and each of the two eligible anchors scores log 2."""
        gram = np.array([
            [1.0, HP.margin_pos, HP.margin_neg],
            [HP.margin_pos, 1.0, HP.margin_neg],
            [HP.margin_neg, HP.margin_neg, 1.0],
        ])
        embeddings = np.linalg.cholesky(gram)
        _, partition, _ = make_instance(3, 3, [0, 0, 1], seed=0)
        ones = WeightTable(partition.case_ids, np.ones((3, 3)))
        assert np.allclose(cosine_matrix(embeddings)[0], gram, atol=1e-15)
        assert circle_value(embeddings, partition, ones) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_scalar_reference_on_random_batches(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, 3, 6).tolist()
            embeddings, partition, table = make_instance(6, 4, labels, seed=seed + 100)
            got = circle_value(embeddings, partition, table)
            expected = reference_value(embeddings, partition, table)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_nonnegative_and_zero_only_without_pairs(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, 2, 6).tolist()
            embeddings, partition, table = make_instance(6, 5, labels, seed=seed)
            value = circle_value(embeddings, partition, table)
            eligible = len(set(labels)) > 1 and len(set(labels)) < len(labels)
            assert value >= 0.0
            assert (value > 0.0) == eligible

    def test_large_gamma_does_not_overflow(self):
        embeddings, partition, table = make_instance(6, 4, [0, 0, 0, 1, 1, 1], seed=6)
        hp = replace(HP, gamma=4096.0)
        value, grad = loss_gradient(embeddings, partition, table, hp)
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))

    def test_reduces_to_plain_circle_loss_at_unit_weights(self):
        """With every pair weight 1 the weighted loss is exactly circle
        loss, anchor by anchor."""
        for seed in range(20):
            rng = np.random.default_rng(seed + 500)
            labels = rng.integers(0, 2, 6).tolist()
            embeddings, partition, _ = make_instance(6, 4, labels, seed=seed)
            ones = WeightTable(partition.case_ids, np.ones((6, 6)))
            got = circle_value(embeddings, partition, ones)
            anchors = reference_anchors(embeddings, partition, ones)
            terms = [
                circle_loss_reference(
                    [s for s, _ in pos], neg,
                    HP.gamma, HP.optimum_pos, HP.optimum_neg, HP.margin_pos, HP.margin_neg,
                )
                for pos, neg in anchors
                if pos and neg
            ]
            expected = sum(terms) / len(terms) if terms else 0.0
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestLossGradient:
    def test_single_class_has_zero_gradient(self):
        embeddings, partition, table = make_instance(4, 4, [0, 0, 0, 0], seed=7)
        value, grad = loss_gradient(embeddings, partition, table, HP)
        assert value == 0.0
        assert np.array_equal(grad, np.zeros_like(embeddings))

    def assert_away_from_corners(self, embeddings, partition, table):
        for pos, neg in reference_anchors(embeddings, partition, table):
            for s, w in pos:
                assert abs(math.exp(w - 1.0) * HP.optimum_pos - s) > 1e-3
            for s in neg:
                assert abs(s - HP.optimum_neg) > 1e-3

    def test_matches_finite_differences(self):
        embeddings, partition, table = make_instance(6, 4, [0, 0, 1, 1, 2, 2], seed=42)
        self.assert_away_from_corners(embeddings, partition, table)
        value, grad = loss_gradient(embeddings, partition, table, HP)
        assert value > 0.0
        numeric = central_difference(
            lambda: circle_value(embeddings, partition, table),
            embeddings,
            eps=1e-5,
        )
        assert max_relative_error(grad, numeric) < 1e-4

    def test_zero_norm_row(self):
        """A zero embedding enters the value with cosine 0 and gets an
        all-zero gradient row; the other rows match central differences
        of the scalar reference."""
        embeddings, partition, table = make_instance(6, 4, [0, 0, 1, 1, 2, 2], seed=12)
        embeddings[2] = 0.0
        self.assert_away_from_corners(embeddings, partition, table)
        value, grad = loss_gradient(embeddings, partition, table, HP)
        assert np.isfinite(value)
        assert value == pytest.approx(reference_value(embeddings, partition, table), rel=1e-9)
        assert np.array_equal(grad[2], np.zeros(4))
        numeric = central_difference(
            lambda: reference_value(embeddings, partition, table), embeddings, eps=1e-5
        )
        live = [0, 1, 3, 4, 5]
        assert max_relative_error(grad[live], numeric[live]) < 1e-4

    def test_gamma_doubling_tracked_by_reference(self):
        embeddings, partition, table = make_instance(6, 4, [0, 0, 1, 1, 2, 2], seed=9)
        doubled = replace(HP, gamma=2 * HP.gamma)
        got = circle_value(embeddings, partition, table, doubled)
        expected = reference_value(embeddings, partition, table, doubled)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_rotation_invariance(self):
        embeddings, partition, table = make_instance(6, 5, [0, 0, 1, 1, 2, 2], seed=10)
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(0.0, 1.0, (5, 5)))
        base = circle_value(embeddings, partition, table)
        rotated = circle_value(embeddings @ q, partition, table)
        assert rotated == pytest.approx(base, abs=1e-10)


class TestHyperParams:
    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            CircleLossParams(gamma=0.0)

    def test_margins_must_be_ordered(self):
        with pytest.raises(ValueError, match="margin"):
            CircleLossParams(margin_pos=0.25, margin_neg=0.75)

    def test_defaults(self):
        assert (HP.gamma, HP.optimum_pos, HP.optimum_neg) == (16.0, 1.25, 0.25)
        assert (HP.margin_pos, HP.margin_neg, HP.class_threshold) == (0.75, 0.25, 0.25)
        assert HP.mix == pytest.approx(math.e * 1e-6)

