"""The casevec loop as a benchmark: set-up, stages, output checks, metrics.

The loop runs the CLI's commands in order, in process and through the
package's public functions: set-up (gen-corpus, article expansion, BM25
index, vocabulary and encoder init), weights, the weight-table CSV round
trip, the sample audit, pretrain, rank, evaluate and export-embeddings.
After one full pass the stages are called again, interleaved, until the
run's time is up. Each timing is the fastest of a stage's calls: on a
shared machine whose speed drifts by up to half over seconds to minutes,
that is the figure runs on different seeds and at different times agree
on, where a median follows the drift. Every output is checked, and a call
that raises or fails a check counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import os
import resource
import sys
import traceback
from dataclasses import dataclass
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

import tracing

# name: unit; the failure share is the result's failed / attempted.
END_TO_END = {
    "setup_s": "s",
    "weights_s": "s",
    "table_io_s": "s",
    "sample_batches_per_s": "batch/s",
    "train_cases_per_s": "case/s",
    "rank_queries_per_s": "query/s",
    "embed_cases_per_s": "case/s",
    "loop_s": "s",
    "peak_rss_mb": "MB",
    "ndcg_at_10": "score",
}

SAMPLE_BATCHES = 8  # the sample command's default
ORACLE_PAIRS = 64
TOKENIZER = text.TokenizerConfig()


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; the reason for each is in BENCHMARK.json."""

    articles: int
    branches: int
    cases_per_branch: int
    batch_quadruples: int
    steps: int
    queries: int
    facts_len: tuple[int, int] = (24, 40)


WORKLOADS = {
    "pretrain-b16": Workload(articles=3, branches=4, cases_per_branch=8,
                             batch_quadruples=16, steps=10, queries=12),
    "retrieve-long": Workload(articles=3, branches=4, cases_per_branch=10,
                              batch_quadruples=4, steps=4, queries=12,
                              facts_len=(96, 120)),
}


@dataclass
class Inputs:
    cases: list
    queries: list
    qrels: evaluation.QrelSet
    branches: articles.ArticleCorpus
    index: bm25.Bm25Index
    vocab: encoder.Vocab
    enc_cfg: encoder.EncoderConfig
    digest: str


class StageFailed(Exception):
    pass


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Generate the workload's inputs from the seed, then run set-up."""
    spec = synth.SynthSpec(
        num_articles=w.articles, branches_per_article=w.branches,
        cases_per_branch=w.cases_per_branch, queries_per_branch=1,
        vocab_size=200, noise_rate=0.1, facts_len=w.facts_len, seed=seed,
    )
    corpus = synth.generate(spec)
    cases = corpus.cases
    rng = np.random.default_rng([seed, 1])
    picked = sorted(rng.choice(len(corpus.queries), size=w.queries, replace=False).tolist())
    queries = [corpus.queries[i] for i in picked]

    branches = articles.build_corpus(corpus.article_specs, TOKENIZER)
    index = bm25.build_index(branches, TOKENIZER)
    vocab = encoder.Vocab.build(
        [text.tokenize(c.facts, TOKENIZER) + text.tokenize(c.holding, TOKENIZER)
         + text.tokenize(c.decision, TOKENIZER) for c in cases]
        + [list(b.keyword_sequence) for b in branches.branches]
    )
    enc_cfg = encoder.EncoderConfig(vocab_size=len(vocab), seed=seed)
    encoder.init_params(enc_cfg)  # the pretrain command's init; train() repeats it
    digest = _digest({
        "cases": [[c.case_id, c.facts, c.holding, sorted(c.articles)] for c in cases],
        "queries": [[q.query_id, q.facts] for q in queries],
        "qrels": sorted([q, c, g] for (q, c), g in corpus.qrels.grades.items()),
    })
    return Inputs(cases, queries, corpus.qrels, branches, index, vocab, enc_cfg, digest)


# ---------------------------------------------------------------------------
# output checks: each returns a list of failure messages


def check_weights(table, cases, profiles, seed) -> list[str]:
    rng = np.random.default_rng([seed, 2])
    n = len(cases)
    bad = []
    for i, j in rng.integers(0, n, size=(ORACLE_PAIRS, 2)):
        oracle = relevance.weight(cases[i], cases[j], profiles).value
        if abs(oracle - table.matrix[i, j]) > 1e-12:
            bad.append(f"weight({cases[i].case_id}, {cases[j].case_id}) = {table.matrix[i, j]}"
                       f" but the scalar oracle gives {oracle}")
    return bad


def check_round_trip(table, back) -> list[str]:
    bad = []
    if back.ids != table.ids or not np.array_equal(back.matrix, table.matrix):
        bad.append("weight CSV round trip changed the ids or the matrix")
    if not ((back.matrix >= 0.0) & (back.matrix <= 1.0)).all():
        bad.append("weight table has values outside [0, 1]")
    return bad


def closure_labels(batch_ids, table, threshold) -> list[int]:
    """Class labels by brute-force transitive closure of the thresholded graph."""
    pos = [table.ids.index(cid) for cid in batch_ids]
    w = table.matrix[np.ix_(pos, pos)]
    reach = (w > threshold) | (w.T > threshold) | np.eye(len(pos), dtype=bool)
    while True:
        wider = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if (wider == reach).all():
            break
        reach = wider
    roots = [int(np.argmax(row)) for row in reach]
    order = {root: label for label, root in enumerate(dict.fromkeys(roots))}
    return [order[root] for root in roots]


def check_batch(quads, batch_ids, partition, table, n) -> list[str]:
    bad = []
    if len(batch_ids) != 2 * n or len(set(batch_ids)) != 2 * n:
        bad.append(f"batch does not hold {2 * n} distinct ids")
    for q in quads:
        w = table.get(q.anchor_id, q.positive_id)
        if w < sampling.DEFAULT_POSITIVE_FLOOR or w != q.weight:
            bad.append(f"positive {q.positive_id} of {q.anchor_id} has weight {w}")
    if partition.labels != closure_labels(batch_ids, table, sampling.DEFAULT_CLASS_THRESHOLD):
        bad.append("class labels differ from the transitive closure")
    return bad


def check_training(log, steps) -> list[str]:
    bad = []
    if len(log.steps) != steps:
        bad.append(f"trained {len(log.steps)} steps, expected {steps}")
    for rec in log.steps:
        if not all(math.isfinite(v) for v in (rec.mlm_loss, rec.circle_loss, rec.total_loss)):
            bad.append(f"step {rec.step} has a non-finite loss")
    return bad


def check_ranking(run, pool_ids) -> list[str]:
    ids = [cid for cid, _ in run.ranking]
    bad = []
    if sorted(ids) != sorted(pool_ids):
        bad.append(f"ranking of {run.query_id} is not a permutation of the pool")
    keys = [(-score, cid) for cid, score in run.ranking]
    if any(a > b for a, b in zip(keys, keys[1:])):
        bad.append(f"ranking of {run.query_id} is not ordered by (-score, case_id)")
    return bad


def check_ndcg(metrics) -> list[str]:
    values = [v for m in metrics.values() for v in [m["mean"], *m["per_query"].values()]]
    return [] if all(0.0 <= v <= 1.0 for v in values) else ["an NDCG lies outside [0, 1]"]


def check_export(path, n) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    if rows[0] != "case_id,label,x,y" or len(rows) != n + 1:
        return [f"export has {len(rows) - 1} rows, expected {n}"]
    if not all(math.isfinite(float(v)) for row in rows[1:] for v in row.split(",")[2:]):
        return ["export has a non-finite coordinate"]
    return []


# ---------------------------------------------------------------------------
# stages


STAGES = ("setup", "weights", "table_io", "sample", "pretrain", "rank", "evaluate", "export")


class Loop:
    """The stages of the loop over one workload's inputs, callable in any
    order once a full pass has produced every stage's input.

    Each stage keeps its latest output, so a repeated call reads the same
    input as the first. Every call appends its time to ``samples``; a call
    that raises stops the run, and one whose output fails a check, or whose
    discrete outputs differ from the first call's, counts as failed.
    ``rank`` ranks one query per call.
    """

    def __init__(self, w: Workload, seed: int, workdir: str):
        self.w, self.seed, self.workdir = w, seed, workdir
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {name: [] for name in STAGES}
        self.digests: dict[str, str] = {}
        self.inputs: Inputs | None = None
        self.profiles = self.table = self.read_back = self.params = None
        self.runs: dict[str, evaluation.RankedList] = {}
        self.ndcg_at_10 = None
        self.peak_rss_mb = None
        self.csv_path = os.path.join(workdir, "weights.csv")
        self.export_path = os.path.join(workdir, "embeddings.csv")

    def call(self, name: str, query: int = 0) -> float:
        """Call one stage and check its output outside the timed region;
        returns the call's time."""
        fn = getattr(self, "_" + name)
        self.attempted += 1
        start = perf_counter()
        try:
            out = fn(query) if name == "rank" else fn()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            raise StageFailed(name) from None
        elapsed = perf_counter() - start
        problems, discrete = getattr(self, "_check_" + name)(out)
        if discrete is not None:
            key = f"{name} {query}" if name == "rank" else name
            digest = _digest(discrete)
            if self.digests.setdefault(key, digest) != digest:
                problems.append(f"{name} outputs differ from the first call's")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed in {name}: {p}", file=sys.stderr)
        self.samples[name].append(elapsed)
        return elapsed

    def full_pass(self) -> float:
        """Every stage once in CLI order, ranking every query; returns the
        pass's loop time, set-up excluded."""
        elapsed = 0.0
        for name in STAGES:
            if name == "rank":
                elapsed += sum(self.call(name, q) for q in range(self.w.queries))
            elif name == "setup":
                self.call(name)
            else:
                elapsed += self.call(name)
        return elapsed

    # -- stages and their checks; each check returns (problems, discrete outputs)

    def _setup(self):
        inputs = make_inputs(self.w, self.seed)
        self.inputs = self.inputs or inputs
        return inputs

    def _check_setup(self, inputs):
        return [], inputs.digest

    def _weights(self):
        inp = self.inputs
        self.profiles = bm25.compute_profiles(inp.cases, inp.branches, inp.index)
        self.table = relevance.pairwise_weights(inp.cases, self.profiles)
        return self.table

    def _check_weights(self, table):
        return check_weights(table, self.inputs.cases, self.profiles, self.seed), None

    def _table_io(self):
        self.table.to_csv(self.csv_path)
        self.read_back = relevance.WeightTable.from_csv(self.csv_path)
        return self.read_back

    def _check_table_io(self, back):
        return check_round_trip(self.table, back), None

    def _sample(self):
        batches = []
        for b in range(SAMPLE_BATCHES):
            rng = np.random.default_rng([self.seed, b + 1])
            quads = sampling.sample_quadruples(self.read_back, self.w.batch_quadruples, rng)
            batch_ids = sampling.build_batch(quads)
            batches.append((quads, batch_ids,
                            sampling.class_partition(batch_ids, self.read_back)))
        return batches

    def _check_sample(self, batches):
        bad = [p for quads, ids, part in batches
               for p in check_batch(quads, ids, part, self.read_back, self.w.batch_quadruples)]
        return bad, [[ids, part.labels] for _, ids, part in batches]

    def _pretrain(self):
        inp = self.inputs
        cfg = training.TrainConfig(steps=self.w.steps, batch_quadruples=self.w.batch_quadruples,
                                   seed=self.seed)
        self.params, log = training.train(inp.cases, self.read_back, inp.vocab, TOKENIZER,
                                          inp.enc_cfg, cfg,
                                          hp=circle_loss.CircleLossParams(mix=1.0))
        return log

    def _check_pretrain(self, log):
        return check_training(log, self.w.steps), None

    def _rank(self, i):
        inp = self.inputs
        q = inp.queries[i]
        run = evaluation.rank(q, evaluation.CandidatePool(q.query_id, inp.cases),
                              self.params, inp.enc_cfg, inp.vocab, TOKENIZER)
        self.runs[q.query_id] = run
        return run

    def _check_rank(self, run):
        pool = [c.case_id for c in self.inputs.cases]
        return check_ranking(run, pool), [c for c, _ in run.ranking]

    def _evaluate(self):
        metrics = evaluation.evaluate([self.runs[q.query_id] for q in self.inputs.queries],
                                      self.inputs.qrels)
        evaluation.save_metrics(metrics, os.path.join(self.workdir, "metrics.json"))
        self.ndcg_at_10 = metrics["ndcg@10"]["mean"]
        return metrics

    def _check_evaluate(self, metrics):
        return check_ndcg(metrics), None

    def _export(self):
        inp = self.inputs
        evaluation.export_embeddings(inp.cases, self.params, inp.enc_cfg, inp.vocab, TOKENIZER,
                                     self.export_path, projection="pca2d")

    def _check_export(self, _):
        return check_export(self.export_path, len(self.inputs.cases)), None

    def end_to_end(self) -> dict[str, float]:
        w = self.w
        best = {name: min(times) for name, times in self.samples.items()}
        return {
            "setup_s": best["setup"],
            "weights_s": best["weights"],
            "table_io_s": best["table_io"],
            "sample_batches_per_s": SAMPLE_BATCHES / best["sample"],
            "train_cases_per_s": 2 * w.batch_quadruples * w.steps / best["pretrain"],
            "rank_queries_per_s": 1.0 / best["rank"],
            "embed_cases_per_s": len(self.inputs.cases) / best["export"],
            "loop_s": (best["weights"] + best["table_io"] + best["sample"] + best["pretrain"]
                       + w.queries * best["rank"] + best["evaluate"] + best["export"]),
            "peak_rss_mb": self.peak_rss_mb,
            "ndcg_at_10": self.ndcg_at_10,
        }


# ---------------------------------------------------------------------------
# a run


class TruncationCounter(logging.Handler):
    """Counts the encoder's truncation warnings instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("truncating"):
            self.count += 1
        else:
            print(self.format(record), file=sys.stderr)


def _measure(loop: Loop, seconds: float) -> None:
    """Untraced: one full pass, whose high-water memory is the run's peak
    RSS, then sweeps that call every stage once in CLI order, ranking the
    next query, until time is up. Every stage is thus sampled across the
    whole run, in the machine's fast and slow spells alike."""
    start = perf_counter()
    loop.full_pass()
    loop.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    queries = itertools.cycle(range(loop.w.queries))
    while perf_counter() - start < seconds:
        for name in STAGES:
            loop.call(name, next(queries) if name == "rank" else 0)


def _measure_traced(loop: Loop, seconds: float, counter: TruncationCounter):
    """Full passes, alternately untraced and traced; returns the per-layer
    metrics, each the smallest over the traced passes."""
    tracer = tracing.Tracer()
    plain, traced, rows = [], [], []
    start = perf_counter()
    while not (traced and perf_counter() - start >= seconds):
        if len(plain) == len(traced):
            plain.append(loop.full_pass())
            continue
        tracer.reset()
        counter.count = 0
        with tracing.installed(tracer):
            traced.append(loop.full_pass())
        row = tracer.snapshot()
        row["encoder.truncations"] = float(counter.count)
        rows.append(row)
    metrics = {name: min(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = min(traced) - min(plain)
    return metrics


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: str):
    """Measure one workload for about ``seconds``. Returns the result
    object the command prints last, with the end-to-end metrics, or with
    ``trace`` the per-layer ones; and a dict of digests and call counts."""
    logger = logging.getLogger("casevec")
    counter = TruncationCounter()
    logger.addHandler(counter)
    propagate, logger.propagate = logger.propagate, False
    loop = Loop(w, seed, workdir)
    try:
        if trace:
            metrics = _measure_traced(loop, seconds, counter)
            units = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
        else:
            _measure(loop, seconds)
            metrics = loop.end_to_end()
            units = END_TO_END
    finally:
        logger.removeHandler(counter)
        logger.propagate = propagate
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    info = {"input_digest": loop.inputs.digest, "output_digest": _digest(loop.digests),
            "calls": {name: len(times) for name, times in loop.samples.items()}}
    return result, info
