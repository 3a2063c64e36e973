"""Per-layer timings taken from outside the package.

A traced run replaces each public function of interest with a timing
wrapper, installed at the name its caller looks up (``train`` calls
``casevec.training.loss_gradient``, not ``casevec.circle_loss``'s), and
restores every original afterwards. Each wrapper adds its inclusive time
to its key, and to the enclosing wrapper's child time, so self time is
inclusive minus child. Counts come from argument and result shapes at the
same boundary. Functions called once per pair or per token (``weight``,
``rel``, ``WeightTable.get``, ``Bm25Index.score_at``) are not wrapped;
their work shows as counts such as ``relevance.pairs``.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from casevec import (
    articles,
    bm25,
    circle_loss,
    encoder,
    evaluation,
    relevance,
    sampling,
    synth,
    text,
    training,
)

# name: (unit, better, end-to-end metric it should move, workloads that show it)
LAYER_METRICS = {
    "synth.generate.s": ("s", "lower", "setup_s", "all"),
    "articles.build_corpus.s": ("s", "lower", "setup_s", "all"),
    "bm25.build_index.s": ("s", "lower", "setup_s", "all"),
    "bm25.compute_profiles.s": ("s", "lower", "weights_s", "all, small at N of 96 and 120"),
    "bm25.compute_profiles.cases": ("count", "lower", "weights_s", "all, small at N of 96 and 120"),
    "relevance.pairwise_weights.s": ("s", "lower", "weights_s", "all, small at N of 96 and 120"),
    "relevance.pairs": ("count", "lower", "weights_s", "all, small at N of 96 and 120"),
    "relevance.to_csv.s": ("s", "lower", "table_io_s", "all, small at N of 96 and 120"),
    "relevance.from_csv.s": ("s", "lower", "table_io_s", "all, small at N of 96 and 120"),
    "relevance.table_bytes": ("bytes", "lower", "table_io_s", "all, small at N of 96 and 120"),
    "relevance.density_floor": ("share", "higher", "weights_s", "all, small at N of 96 and 120"),
    "relevance.density_threshold": ("share", "higher", "weights_s", "all, small at N of 96 and 120"),
    "sampling.sample_quadruples.s": ("s", "lower", "sample_batches_per_s, train_cases_per_s", "pretrain-b16 (16 anchors per batch)"),
    "sampling.sample_quadruples.calls": ("count", "lower", "sample_batches_per_s, train_cases_per_s", "pretrain-b16 (16 anchors per batch)"),
    "sampling.class_partition.s": ("s", "lower", "sample_batches_per_s, train_cases_per_s", "pretrain-b16 (16 anchors per batch)"),
    "sampling.build_batch.s": ("s", "lower", "sample_batches_per_s, train_cases_per_s", "pretrain-b16 (16 anchors per batch)"),
    "sampling.eligible_anchors": ("count", "higher", "sample_batches_per_s, train_cases_per_s", "pretrain-b16 (16 anchors per batch)"),
    "circle_loss.loss_gradient.s": ("s", "lower", "train_cases_per_s", "pretrain-b16 (992 pairs per step), not retrieve-long (56)"),
    "circle_loss.pairs": ("count", "lower", "train_cases_per_s", "pretrain-b16 (992 pairs per step), not retrieve-long (56)"),
    "encoder.forward.s": ("s", "lower", "train_cases_per_s", "pretrain-b16"),
    "encoder.forward.self_s": ("s", "lower", "train_cases_per_s", "pretrain-b16"),
    "encoder.forward.tokens": ("count", "lower", "train_cases_per_s", "pretrain-b16"),
    "encoder.backward.s": ("s", "lower", "train_cases_per_s", "pretrain-b16"),
    "encoder.backward.self_s": ("s", "lower", "train_cases_per_s", "pretrain-b16"),
    "encoder.gelu.s": ("s", "lower", "train_cases_per_s, rank_queries_per_s", "pretrain-b16; retrieve-long"),
    "encoder.gelu_grad.s": ("s", "lower", "train_cases_per_s", "pretrain-b16"),
    "encoder.layer_norm.s": ("s", "lower", "train_cases_per_s", "pretrain-b16"),
    "encoder.layer_norm_backward.s": ("s", "lower", "train_cases_per_s", "pretrain-b16"),
    "encoder.mlm_logits.s": ("s", "lower", "train_cases_per_s", "pretrain-b16"),
    "encoder.mlm_loss_and_grad.s": ("s", "lower", "train_cases_per_s", "pretrain-b16"),
    "encoder.mlm_head_backward.s": ("s", "lower", "train_cases_per_s", "pretrain-b16"),
    "encoder.mlm_mask.s": ("s", "lower", "train_cases_per_s", "pretrain-b16"),
    "encoder.pad_batch.s": ("s", "lower", "train_cases_per_s", "pretrain-b16"),
    "encoder.encode.s": ("s", "lower", "rank_queries_per_s, embed_cases_per_s, peak_rss_mb", "retrieve-long"),
    "encoder.encode.rows": ("count", "lower", "rank_queries_per_s, embed_cases_per_s", "retrieve-long"),
    "encoder.encode.tokens": ("count", "lower", "rank_queries_per_s, embed_cases_per_s", "retrieve-long"),
    "encoder.build_input_ids.s": ("s", "lower", "rank_queries_per_s, embed_cases_per_s", "retrieve-long"),
    "encoder.truncations": ("count", "lower", "rank_queries_per_s", "retrieve-long"),
    "training.train.self_s": ("s", "lower", "train_cases_per_s", "pretrain-b16"),
    "training.Adam.step.s": ("s", "lower", "train_cases_per_s", "pretrain-b16"),
    "training.clip_global_norm.s": ("s", "lower", "train_cases_per_s", "pretrain-b16"),
    "training.steps": ("count", "higher", "train_cases_per_s", "pretrain-b16"),
    "text.tokenize.s": ("s", "lower", "rank_queries_per_s", "retrieve-long"),
    "text.tokenize.calls": ("count", "lower", "rank_queries_per_s", "retrieve-long"),
    "evaluation.rank.s": ("s", "lower", "rank_queries_per_s, loop_s", "retrieve-long"),
    "evaluation.rank.self_s": ("s", "lower", "rank_queries_per_s, loop_s", "retrieve-long"),
    "evaluation.embed_texts.s": ("s", "lower", "rank_queries_per_s, embed_cases_per_s", "retrieve-long"),
    "evaluation.embed_texts.rows": ("count", "lower", "rank_queries_per_s, embed_cases_per_s", "retrieve-long"),
    "evaluation.evaluate.s": ("s", "lower", "loop_s", "retrieve-long"),
    "evaluation.export_embeddings.s": ("s", "lower", "embed_cases_per_s", "retrieve-long"),
    "evaluation.pca_2d.s": ("s", "lower", "embed_cases_per_s", "retrieve-long"),
    "evaluation.QrelSet.has_query.calls": ("count", "lower", "loop_s", "retrieve-long"),
    "trace.overhead_s": ("s", "lower", "none: traced loop_s minus untraced loop_s", "all"),
}


# Counts of work add up over calls; properties of the weight table (its
# densities, its CSV size, the anchors with a positive) keep the last value.


def _count_profiles(counts, args, kwargs, result):
    counts["bm25.compute_profiles.cases"] += len(args[0])


def _count_weights(counts, args, kwargs, table):
    off = table.matrix[~np.eye(len(table.ids), dtype=bool)]
    counts["relevance.pairs"] += len(table.ids) ** 2
    counts["relevance.density_floor"] = float(np.mean(off >= sampling.DEFAULT_POSITIVE_FLOOR))
    counts["relevance.density_threshold"] = float(
        np.mean(off > sampling.DEFAULT_CLASS_THRESHOLD)
    )


def _count_table_bytes(counts, args, kwargs, result):
    counts["relevance.table_bytes"] = os.path.getsize(args[1])


def _count_eligible(counts, args, kwargs, result):
    table = args[0]
    floor = kwargs.get("floor", sampling.DEFAULT_POSITIVE_FLOOR)
    above = table.matrix >= floor
    np.fill_diagonal(above, False)
    counts["sampling.eligible_anchors"] = int(above.any(axis=1).sum())


def _count_circle_pairs(counts, args, kwargs, result):
    b = args[0].shape[0]
    counts["circle_loss.pairs"] += b * (b - 1)


def _count_forward_tokens(counts, args, kwargs, result):
    counts["encoder.forward.tokens"] += args[0].size


def _count_encode(counts, args, kwargs, result):
    sequences, cfg = args[0], args[2]
    counts["encoder.encode.rows"] += len(sequences)
    counts["encoder.encode.tokens"] += sum(min(len(s), cfg.max_len) for s in sequences)


def _count_train_steps(counts, args, kwargs, result):
    counts["training.steps"] += len(result[1].steps)


def _count_embed_rows(counts, args, kwargs, result):
    counts["evaluation.embed_texts.rows"] += len(args[0])


# (owner, attribute, key, count): ``owner`` is the module or class whose
# attribute the caller looks up; several owners may share one key.
TARGETS = [
    (synth, "generate", "synth.generate", None),
    (articles, "build_corpus", "articles.build_corpus", None),
    (bm25, "build_index", "bm25.build_index", None),
    (bm25, "compute_profiles", "bm25.compute_profiles", _count_profiles),
    (relevance, "pairwise_weights", "relevance.pairwise_weights", _count_weights),
    (relevance.WeightTable, "to_csv", "relevance.to_csv", _count_table_bytes),
    (relevance.WeightTable, "from_csv", "relevance.from_csv", None),
    (sampling, "sample_quadruples", "sampling.sample_quadruples", _count_eligible),
    (training, "sample_quadruples", "sampling.sample_quadruples", _count_eligible),
    (sampling, "build_batch", "sampling.build_batch", None),
    (training, "build_batch", "sampling.build_batch", None),
    (sampling, "class_partition", "sampling.class_partition", None),
    (training, "class_partition", "sampling.class_partition", None),
    (training, "loss_gradient", "circle_loss.loss_gradient", _count_circle_pairs),
    (circle_loss, "loss_gradient", "circle_loss.loss_gradient", _count_circle_pairs),
    (encoder, "forward", "encoder.forward", _count_forward_tokens),
    (encoder, "backward", "encoder.backward", None),
    (encoder, "gelu", "encoder.gelu", None),
    (encoder, "gelu_grad", "encoder.gelu_grad", None),
    (encoder, "layer_norm", "encoder.layer_norm", None),
    (encoder, "layer_norm_backward", "encoder.layer_norm_backward", None),
    (encoder, "mlm_logits", "encoder.mlm_logits", None),
    (encoder, "mlm_loss_and_grad", "encoder.mlm_loss_and_grad", None),
    (encoder, "mlm_head_backward", "encoder.mlm_head_backward", None),
    (encoder, "mlm_mask", "encoder.mlm_mask", None),
    (encoder, "pad_batch", "encoder.pad_batch", None),
    (encoder, "encode", "encoder.encode", _count_encode),
    (encoder, "build_input_ids", "encoder.build_input_ids", None),
    (training, "train", "training.train", _count_train_steps),
    (training.Adam, "step", "training.Adam.step", None),
    (training, "clip_global_norm", "training.clip_global_norm", None),
    (text, "tokenize", "text.tokenize", None),
    (articles, "tokenize", "text.tokenize", None),
    (bm25, "tokenize", "text.tokenize", None),
    (training, "tokenize", "text.tokenize", None),
    (evaluation, "tokenize", "text.tokenize", None),
    (evaluation, "rank", "evaluation.rank", None),
    (evaluation, "embed_texts", "evaluation.embed_texts", _count_embed_rows),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (evaluation, "export_embeddings", "evaluation.export_embeddings", None),
    (evaluation, "pca_2d", "evaluation.pca_2d", None),
    (evaluation.QrelSet, "has_query", "evaluation.QrelSet.has_query", None),
]


class Tracer:
    """Inclusive time, child time, call counts and shape counts per key."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[float] = []  # child time of each open span

    def wrap(self, key, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.inclusive[key] += elapsed
                self.child[key] += self._open.pop()
                self.calls[key] += 1
                if self._open:
                    self._open[-1] += elapsed
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        traced.trace_key = key  # marks the wrapper, so tests can find one left behind
        return traced

    def snapshot(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``, for the
        calls made since the last reset."""
        out = {}
        for key in {key for _, _, key, _ in TARGETS}:
            out[f"{key}.s"] = self.inclusive[key]
            out[f"{key}.self_s"] = self.inclusive[key] - self.child[key]
            out[f"{key}.calls"] = float(self.calls[key])
        for key, value in self.counts.items():
            out[key] = float(value)
        return {name: out.get(name, 0.0) for name in LAYER_METRICS if name != "trace.overhead_s"}


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for owner, attr, key, count in TARGETS:
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(key, raw.__func__, count)))
            else:
                setattr(owner, attr, tracer.wrap(key, raw, count))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
