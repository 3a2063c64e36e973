"""Positive sampling, batch assembly, and the thresholded class partition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casevec.relevance import WeightTable
from casevec.sampling import (
    DEFAULT_POSITIVE_FLOOR,
    NoPositiveAvailable,
    Quadruple,
    SamplingError,
    _draw_positive,
    build_batch,
    class_partition,
    sample_quadruples,
)

from _helpers import closure_partition_reference, sample_batches_reference


def table_of(matrix, ids=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    ids = ids or [f"c{i}" for i in range(matrix.shape[0])]
    return WeightTable(ids, matrix)


def draw_positive(anchor_id, table, rng, floor=DEFAULT_POSITIVE_FLOOR, exclude=()):
    """One positive of ``anchor_id`` drawn by ``_draw_positive`` from the
    table's index at ``floor``, never one of ``exclude``, as its id and
    weight: the draw ``sample_quadruples`` makes for each anchor."""
    position = {cid: i for i, cid in enumerate(table.ids)}
    used = np.zeros(len(table.ids), dtype=bool)
    used[[position[cid] for cid in exclude]] = True
    j, w = _draw_positive(table.positive_index(floor), position[anchor_id], anchor_id, used, rng)
    return table.ids[j], w


class TestSamplePositive:
    def test_single_eligible_always_returned(self):
        table = table_of([[1.0, 0.9, 0.1], [0.9, 1.0, 0.0], [0.1, 0.0, 1.0]])
        rng = np.random.default_rng(0)
        for _ in range(10):
            cid, w = draw_positive("c0", table, rng)
            assert cid == "c1"
            assert w == 0.9

    def test_proportional_pick_ratio(self):
        """Weights 1.0 and 0.5 give an empirical 2:1 pick ratio over 10000
        seeded draws, within five percent."""
        table = table_of([[1.0, 1.0, 0.5], [1.0, 1.0, 0.0], [0.5, 0.0, 1.0]])
        rng = np.random.default_rng(2024)
        picks = {"c1": 0, "c2": 0}
        for _ in range(10000):
            cid, _ = draw_positive("c0", table, rng)
            picks[cid] += 1
        ratio = picks["c1"] / picks["c2"]
        assert 2.0 * 0.95 <= ratio <= 2.0 * 1.05

    def test_all_zero_weights_error(self):
        table = table_of([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NoPositiveAvailable, match="no positive available"):
            draw_positive("c0", table, np.random.default_rng(0))
        with pytest.raises(NoPositiveAvailable, match="all candidate weights are zero"):
            draw_positive("c0", table, np.random.default_rng(0), floor=0.0)

    def test_below_floor_excluded(self):
        table = table_of([[1.0, 0.4], [0.4, 1.0]])
        with pytest.raises(NoPositiveAvailable):
            draw_positive("c0", table, np.random.default_rng(0), floor=0.5)
        cid, _ = draw_positive("c0", table, np.random.default_rng(0), floor=0.3)
        assert cid == "c1"

    def test_deterministic_for_seed(self):
        table = table_of(np.full((6, 6), 0.8))
        a = [draw_positive("c0", table, np.random.default_rng(7))[0] for _ in range(5)]
        b = [draw_positive("c0", table, np.random.default_rng(7))[0] for _ in range(5)]
        assert a == b

    def test_anchor_never_returned(self):
        table = table_of(np.full((4, 4), 1.0))
        rng = np.random.default_rng(1)
        assert all(draw_positive("c2", table, rng)[0] != "c2" for _ in range(50))

    def test_used_cases_are_never_drawn(self):
        """Cases already in the batch are skipped; with every positive used
        up, the draw fails."""
        table = table_of([[1.0, 0.9, 0.6, 0.7], [0.9, 1.0, 0.0, 0.0],
                          [0.6, 0.0, 1.0, 0.0], [0.7, 0.0, 0.0, 1.0]])
        for seed in range(20):
            assert draw_positive("c0", table, np.random.default_rng(seed),
                                 exclude={"c1"})[0] in {"c2", "c3"}
        with pytest.raises(NoPositiveAvailable):
            draw_positive("c0", table, np.random.default_rng(0), exclude={"c1", "c2", "c3"})


def weight_vectors(count, seed):
    """Candidate weights in [0, 1] with a positive sum: uniform, skewed,
    all equal, with zeros, holding 1e-300, and single candidates."""
    rng = np.random.default_rng(seed)
    vectors = []
    for k in range(count):
        size = int(rng.integers(1, 40))
        kind = k % 6
        if kind == 0:
            w = rng.uniform(0.0, 1.0, size)
        elif kind == 1:
            w = rng.uniform(0.0, 1.0, size) ** 12
        elif kind == 2:
            w = np.full(size, rng.uniform(1e-3, 1.0))
        elif kind == 3:
            w = rng.uniform(0.0, 1.0, size) * (rng.random(size) < 0.5)
        elif kind == 4:
            w = np.where(rng.random(size) < 0.5, 1e-300, rng.uniform(0.0, 1.0, size))
        else:
            w = rng.uniform(0.0, 1.0, 1)
        if not w.sum() > 0.0:
            w[-1] = 1e-300
        vectors.append(w)
    return vectors


class TestDrawPinnedToChoice:
    def test_draw_equals_rng_choice(self):
        """A positive is drawn with the generator calls of
        ``rng.choice(k, p=weights / weights.sum())``: same pick, same state
        after, over 12,000 weight vectors."""
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        vectors = weight_vectors(12_000, 5)
        assert any(len(w) == 1 for w in vectors)
        assert any((w == 1e-300).all() for w in vectors)
        for weights in vectors:
            k = len(weights)
            matrix = np.zeros((k + 1, k + 1))
            matrix[0, 1:] = weights
            got = draw_positive("c0", table_of(matrix), rng, floor=0.0)
            pick = int(twin.choice(k, p=weights / weights.sum()))
            assert got == (f"c{pick + 1}", float(weights[pick]))
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_draw_on_a_cumulative_weight_takes_the_next_candidate(self):
        """A uniform draw equal to the first candidate's share picks the
        second, as ``choice``'s search from the right does."""
        hits = 0
        for seed in range(20):
            u = np.random.default_rng(seed).random()
            weights = np.array([u, 1.0 - u])
            if weights.sum() != 1.0:  # the share would not be u exactly
                continue
            hits += 1
            matrix = np.zeros((3, 3))
            matrix[0, 1:] = weights
            got = draw_positive("c0", table_of(matrix), np.random.default_rng(seed), floor=0.0)
            assert got == ("c2", 1.0 - u)
            twin = np.random.default_rng(seed)
            assert int(twin.choice(2, p=weights)) == 1
        assert hits >= 10


def quad(a, p, w=1.0):
    return Quadruple(anchor_id=a, positive_id=p, weight=w)


class TestBuildBatch:
    def test_single_quadruple(self):
        assert build_batch([quad("a", "b")]) == ["a", "b"]

    def test_interleaved_order(self):
        quads = [quad(f"a{i}", f"p{i}") for i in range(4)]
        assert build_batch(quads) == ["a0", "p0", "a1", "p1", "a2", "p2", "a3", "p3"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SamplingError, match="collide"):
            build_batch([quad("a", "b"), quad("b", "c")])

    def test_empty_rejected(self):
        with pytest.raises(SamplingError):
            build_batch([])


class TestSampleQuadruples:
    def test_batch_has_distinct_cases(self):
        table = table_of(np.full((12, 12), 0.9))
        rng = np.random.default_rng(3)
        quads = sample_quadruples(table, 4, rng)
        ids = build_batch(quads)
        assert len(ids) == 8
        assert len(set(ids)) == 8

    def test_weights_respect_floor(self):
        table = table_of(np.full((10, 10), 0.6))
        quads = sample_quadruples(table, 3, np.random.default_rng(0), floor=0.5)
        assert all(q.weight >= 0.5 for q in quads)

    def test_too_few_anchors_rejected(self):
        table = table_of([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(SamplingError, match="eligible positive"):
            sample_quadruples(table, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("floor, shown", [(math.nan, "nan"), (math.inf, "inf"),
                                              (-math.inf, "-inf")])
    def test_non_finite_floor_rejected(self, floor, shown):
        table = table_of(np.full((6, 6), 0.7))
        with pytest.raises(SamplingError) as info:
            sample_quadruples(table, 2, np.random.default_rng(0), floor=floor)
        assert str(info.value) == f"positive_floor must be finite, got {shown}"

    def test_deterministic(self):
        table = table_of(np.full((10, 10), 0.7))
        q1 = sample_quadruples(table, 3, np.random.default_rng(9))
        q2 = sample_quadruples(table, 3, np.random.default_rng(9))
        assert [(q.anchor_id, q.positive_id) for q in q1] == [
            (q.anchor_id, q.positive_id) for q in q2
        ]

    def test_anchor_shares_class_with_its_positive(self):
        """When the sampling floor exceeds the class threshold, each
        anchor lands in the same class as its sampled positive."""
        rng = np.random.default_rng(13)
        matrix = rng.uniform(0.0, 1.0, (12, 12))
        np.fill_diagonal(matrix, 1.0)
        table = table_of(matrix)
        for seed in range(10):
            quads = sample_quadruples(table, 3, np.random.default_rng(seed), floor=0.5)
            batch = build_batch(quads)
            part = class_partition(batch, table, 0.25)
            label = dict(zip(part.case_ids, part.labels))
            for q in quads:
                assert label[q.anchor_id] == label[q.positive_id]


class TestClassPartition:
    def test_all_below_threshold_gives_singletons(self):
        table = table_of(np.eye(4) + 0.2 - 0.2 * np.eye(4))
        part = class_partition([f"c{i}" for i in range(4)], table, 0.25)
        assert part.labels == [0, 1, 2, 3]

    def test_transitive_chain_merges(self):
        """a-b and b-c above threshold merge {a, b, c} even though a-c is
        below."""
        matrix = np.eye(3)
        matrix[0, 1] = matrix[1, 0] = 0.9
        matrix[1, 2] = matrix[2, 1] = 0.9
        part = class_partition(["a", "b", "c"], table_of(matrix, ["a", "b", "c"]), 0.25)
        assert part.labels == [0, 0, 0]

    def test_one_direction_suffices(self):
        matrix = np.eye(2)
        matrix[0, 1] = 0.9  # only a -> b exceeds
        part = class_partition(["a", "b"], table_of(matrix, ["a", "b"]), 0.25)
        assert part.labels == [0, 0]

    def test_strictly_greater_than_threshold(self):
        matrix = np.eye(2)
        matrix[0, 1] = matrix[1, 0] = 0.25
        part = class_partition(["a", "b"], table_of(matrix, ["a", "b"]), 0.25)
        assert part.labels == [0, 1]

    def test_two_quadruples_with_zero_cross_weights(self):
        """Each anchor stays with its positive: two classes of two."""
        matrix = np.eye(4)
        matrix[0, 1] = matrix[1, 0] = 0.8
        matrix[2, 3] = matrix[3, 2] = 0.7
        part = class_partition(["a", "p", "b", "q"], table_of(matrix, ["a", "p", "b", "q"]), 0.25)
        assert part.labels == [0, 0, 1, 1]
        assert closure_partition_reference(
            4, lambda i, j: matrix[i, j] > 0.25
        ) == part.labels

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        table = table_of(np.eye(2), ["a", "b"])
        with pytest.raises(SamplingError, match="class_threshold must be finite"):
            class_partition(["a", "b"], table, threshold)

    def test_missing_weight_rejected(self):
        table = table_of(np.eye(2), ["a", "b"])
        with pytest.raises(KeyError):
            class_partition(["a", "zz"], table, 0.25)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 2**31 - 1))
    def test_matches_brute_force_closure(self, size, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(0.0, 1.0, (size, size))
        np.fill_diagonal(matrix, 1.0)
        table = table_of(matrix)
        part = class_partition(table.ids, table, 0.25)
        expected = closure_partition_reference(size, lambda i, j: matrix[i, j] > 0.25)
        assert part.labels == expected

    def test_labels_are_canonical_and_dense(self):
        matrix = np.eye(5)
        matrix[1, 4] = matrix[4, 1] = 0.9
        part = class_partition([f"c{i}" for i in range(5)], table_of(matrix), 0.25)
        assert part.labels == [0, 1, 2, 3, 1]


# how the reference names each way a draw fails, and the package's message
FAILURES = {
    "no quadruple asked for": "need at least one quadruple",
    "too few anchors": "cases have an eligible positive",
    "no collision-free batch": "collision-free quadruples",
}


def random_table(size, density, seed):
    """Uniform weights, each kept with probability ``density``; unit diagonal."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0.0, 1.0, (size, size)) * (rng.uniform(0.0, 1.0, (size, size)) < density)
    np.fill_diagonal(matrix, 1.0)
    return table_of(matrix)


def check_against_reference(table, n, seed, floor, threshold, batches=3):
    """Draw ``batches`` batches from one generator through sample_quadruples,
    build_batch and class_partition, and from a twin generator through the
    reference; assert the two agree exactly. Returns the reference results."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = sample_batches_reference(table, n, ref_rng, floor, threshold, batches)
    for _, quads, labels in expected:
        if labels is None:
            with pytest.raises(SamplingError) as excinfo:
                sample_quadruples(table, n, rng, floor=floor)
            assert type(excinfo.value) is SamplingError
            assert FAILURES[quads] in str(excinfo.value)
            continue
        got = sample_quadruples(table, n, rng, floor=floor)
        assert [(q.anchor_id, q.positive_id, q.weight) for q in got] == quads
        batch = build_batch(got)
        assert class_partition(batch, table, threshold).labels == labels
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return expected


class TestAgainstReference:
    """The vectorized sampler against the loop-based one written from the
    definition: same ids, weights, labels, failures and generator state."""

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(2, 24),
        density=st.sampled_from([0.05, 0.15, 0.4, 1.0]),
        floor=st.sampled_from([0.3, 0.5, 0.8]),
        threshold=st.sampled_from([0.25, 0.5]),
        n=st.integers(0, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_draws_equal_the_reference(self, size, density, floor, threshold, n, seed):
        check_against_reference(random_table(size, density, seed), n, seed, floor, threshold)

    def test_sparse_tables_retry_and_dead_end(self):
        """Sparse tables where earlier picks often use up an anchor's
        positives: the sweep must see batches drawn after a retry, batches
        that exhaust their retries, and tables with too few anchors."""
        seen = set()
        for seed in range(60):
            for tries, quads, labels in check_against_reference(
                random_table(8, 0.2, seed), 3, seed, 0.3, 0.25
            ):
                if labels is None:
                    seen.add(quads)
                elif tries > 1:
                    seen.add("retried")
        assert {"retried", "no collision-free batch", "too few anchors"} <= seen
