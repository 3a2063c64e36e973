"""Command-line pipeline driver.

Subcommands cover the full flow: gen-corpus, expand-articles, weights,
sample, pretrain, rank, evaluate, export-embeddings. Option precedence
is CLI flag over --config file over built-in default. Once a command has
written its outputs, ``main`` echoes the effective configuration next to
them as ``<command>.config.json`` for provenance and prints the command's
one-line summary; a failed command exits 2 with one ``error:`` line and
writes no echo. All randomness is governed by --seed; outputs carry no
timestamps, so identical inputs and seed give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from . import encoder as enc
from .articles import build_corpus, load_article_specs
from .bm25 import DEFAULT_B, DEFAULT_K1, build_index, compute_profiles
from .circle_loss import CircleLossParams
from .evaluation import (
    CandidatePool,
    QrelSet,
    evaluate,
    export_embeddings,
    load_queries,
    load_run,
    rank,
    save_metrics,
    save_run,
)
from .files import decode_error, open_output, write_json_lines
from .relevance import WeightTable, load_cases, load_citing_cases, pairwise_weights
from .sampling import build_batch, class_partition, sample_quadruples
from .synth import SynthSpec, generate, load_labels, write_corpus
from .text import TokenizerConfig, tokenize
from .training import TrainConfig, load_checkpoint, train


class CliError(Exception):
    pass


class _Opt:
    """One subcommand option. An option bound to a field of the dataclass
    ``config`` (by default the field named like its dest) takes that field's
    default. The default also fixes how the flag parses: a bool makes a
    switch to the other value, a tuple takes that many values of its items'
    type, anything else takes one value of its own type."""

    def __init__(self, flag, help, default=None, config=None, field=None, dest=None):
        self.flag = flag
        self.help = help
        self.dest = dest or flag.lstrip("-").replace("-", "_")
        self.config = config
        self.field = field or self.dest
        self.default = default if config is None else {
            f.name: f.default for f in fields(config)}[self.field]


_TOKENIZER_OPTS = [
    _Opt("--tokenizer-mode", "token splitting: whitespace or char-unigram",
         config=TokenizerConfig, field="mode"),
    _Opt("--no-lowercase", "keep the original letter case",
         config=TokenizerConfig, dest="lowercase"),
    _Opt("--keep-punctuation", "do not strip punctuation",
         config=TokenizerConfig, dest="strip_punctuation"),
]

_BM25_OPTS = [
    _Opt("--k1", "BM25 term-frequency saturation", DEFAULT_K1),
    _Opt("--b", "BM25 length normalization", DEFAULT_B),
]

# options that pretrain and sample share
_CLASS_THRESHOLD = _Opt("--class-threshold", "weight above which cases share a class",
                        config=CircleLossParams)
_BATCH_QUADRUPLES = _Opt("--batch-quadruples", "anchor/positive pairs per batch",
                         config=TrainConfig)
_POSITIVE_FLOOR = _Opt("--positive-floor", "minimum weight for positive sampling",
                       config=TrainConfig)
_SEED = _Opt("--seed", "seed for all randomness of this command", config=TrainConfig)

_CIRCLE_OPTS = [
    _Opt("--gamma", "similarity scale factor", config=CircleLossParams),
    _Opt("--optimum-pos", "within-class optimum", config=CircleLossParams),
    _Opt("--optimum-neg", "between-class optimum", config=CircleLossParams),
    _Opt("--margin-pos", "within-class margin", config=CircleLossParams),
    _Opt("--margin-neg", "between-class margin", config=CircleLossParams),
    _CLASS_THRESHOLD,
    _Opt("--mix", "weight of the circle loss in the total", config=CircleLossParams),
]

_ENCODER_OPTS = [
    _Opt("--hidden-size", "embedding width", config=enc.EncoderConfig),
    _Opt("--num-layers", "transformer blocks", config=enc.EncoderConfig),
    _Opt("--num-heads", "attention heads", config=enc.EncoderConfig),
    _Opt("--ffn-size", "feed-forward width", config=enc.EncoderConfig),
    _Opt("--max-len", "maximum input length", config=enc.EncoderConfig),
    _Opt("--encoder-seed", "parameter initialization seed", config=enc.EncoderConfig,
         field="seed"),
]

_TRAIN_OPTS = [
    _Opt("--steps", "training steps", config=TrainConfig),
    _BATCH_QUADRUPLES,
    _Opt("--learning-rate", "Adam learning rate", config=TrainConfig),
    _Opt("--grad-clip", "global gradient-norm cap, 0 disables", config=TrainConfig),
    _Opt("--mask-rate", "fraction of tokens hidden for prediction", config=TrainConfig),
    _POSITIVE_FLOOR,
    _Opt("--checkpoint-every", "steps between checkpoints, 0 = final only", config=TrainConfig),
]

_SYNTH_OPTS = [
    _Opt("--num-articles", "synthetic articles", config=SynthSpec),
    _Opt("--branches-per-article", "branches per article", config=SynthSpec),
    _Opt("--keywords-per-branch", "keywords owned by each branch", config=SynthSpec),
    _Opt("--vocab-size", "distinct tokens, keywords plus fillers", config=SynthSpec),
    _Opt("--cases-per-branch", "training cases per branch", config=SynthSpec),
    _Opt("--queries-per-branch", "held-out queries per branch", config=SynthSpec),
    _Opt("--facts-len", "facts length range", config=SynthSpec),
    _Opt("--holding-len", "holding length range", config=SynthSpec),
    _Opt("--noise-rate", "fraction of off-branch holding tokens", config=SynthSpec),
    _Opt("--seed", _SEED.help, config=SynthSpec),
]

_PRETRAIN_OPTS = (_TOKENIZER_OPTS + _BM25_OPTS + _CIRCLE_OPTS + _ENCODER_OPTS + _TRAIN_OPTS
                  + [_SEED])

_SAMPLE_OPTS = [
    _Opt("--num-batches", "batches to draw", 8),
    _BATCH_QUADRUPLES,
    _POSITIVE_FLOOR,
    _CLASS_THRESHOLD,
    _SEED,
]

_EVALUATE_OPTS = [
    _Opt("--ks", "comma-separated NDCG cutoffs", "10,20,30"),
    _Opt("--skip-unjudged", "skip queries without qrels instead of failing", False),
]

_PROJECTION_OPTS = [
    _Opt("--projection", "none for raw vectors, pca2d for a 2D projection", "none"),
]


def _register(parser: argparse.ArgumentParser, opts: list[_Opt]) -> None:
    for opt in opts:
        kwargs: dict = {"dest": opt.dest, "default": argparse.SUPPRESS,
                        "help": f"{opt.help} (default: {_show(opt.default)})"}
        if isinstance(opt.default, bool):
            kwargs["action"] = "store_false" if opt.default else "store_true"
        elif isinstance(opt.default, tuple):
            kwargs.update(type=type(opt.default[0]), nargs=len(opt.default))
        else:
            kwargs["type"] = type(opt.default)
        parser.add_argument(opt.flag, **kwargs)
    parser.set_defaults(opts=opts)


def _show(value) -> str:
    return " ".join(str(v) for v in value) if isinstance(value, tuple) else str(value)


def _accepts(default, value) -> bool:
    """Whether ``value`` is one that the flag of an option with ``default``
    parses to; an int is a valid value for a float option."""
    if isinstance(default, tuple):
        return (isinstance(value, list) and len(value) == len(default)
                and all(_accepts(default[0], v) for v in value))
    if isinstance(default, float):
        return type(value) in (int, float)
    return type(value) is type(default)


def _kind(default) -> str:
    if isinstance(default, tuple):
        return f"a list of {len(default)} values, each {_kind(default[0])}"
    return {bool: "true or false", int: "an integer", float: "a number",
            str: "a string"}[type(default)]


def _read_config(path: str, opts: dict[str, _Opt]) -> dict:
    """The option values of a --config file, each checked as its flag is."""
    with open(path, encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except UnicodeDecodeError:
            raise decode_error(path, CliError) from None
        except ValueError as exc:
            raise CliError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise CliError(f"{path}: must hold a JSON object of option values")
    unknown = set(values) - set(opts)
    if unknown:
        raise CliError(f"{path}: unknown config keys {sorted(unknown)}")
    for key, value in values.items():
        default = opts[key].default
        if not _accepts(default, value):
            raise CliError(f"{path}: {key!r} must be {_kind(default)}, got {json.dumps(value)}")
    return values


def _effective(args: argparse.Namespace) -> dict:
    """Merge defaults, --config file values, and explicit CLI flags of ``args.opts``."""
    opts = {opt.dest: opt for opt in args.opts}
    merged = {dest: opt.default for dest, opt in opts.items()}
    if args.config:
        merged.update(_read_config(args.config, opts))
    merged.update((dest, getattr(args, dest)) for dest in opts if hasattr(args, dest))
    return merged


def _build(config, args: argparse.Namespace, opts: dict, **explicit):
    """Make ``config`` from the effective values of the options bound to its
    fields, plus the ``explicit`` field values."""
    for opt in args.opts:
        if opt.config is config:
            value = opts[opt.dest]
            explicit[opt.field] = tuple(value) if isinstance(value, list) else value
    return config(**explicit)


def _in_new_dirs(path: str) -> str:
    """``path``, once every directory above it exists."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _echo_config(command: str, options: dict, primary_out: str) -> None:
    outdir = primary_out if os.path.isdir(primary_out) else os.path.dirname(primary_out) or "."
    path = os.path.join(outdir, f"{command}.config.json")
    with open_output(path, encoding="utf-8") as fh:
        json.dump({"command": command, "options": options}, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_corpus(args, opts) -> str:
    corpus = generate(_build(SynthSpec, args, opts))
    write_corpus(corpus, args.out)
    return f"wrote {len(corpus.cases)} cases, {len(corpus.queries)} queries to {args.out}"


def _cmd_expand_articles(args, opts) -> str:
    corpus = build_corpus(load_article_specs(args.articles), _build(TokenizerConfig, args, opts))
    write_json_lines(_in_new_dirs(args.out), map(asdict, corpus.branches))
    return f"expanded {len(corpus.by_article)} articles into {len(corpus)} branches"


def _weight_table(args, opts, tok):
    """Branch corpus, cases and their weight table from --articles and --cases."""
    corpus = build_corpus(load_article_specs(args.articles), tok)
    cases = load_citing_cases(args.cases, args.articles, corpus.by_article, tok)
    index = build_index(corpus, tok, k1=opts["k1"], b=opts["b"])
    return corpus, cases, pairwise_weights(cases, compute_profiles(cases, corpus, index))


def _cmd_weights(args, opts) -> str:
    _, _, table = _weight_table(args, opts, _build(TokenizerConfig, args, opts))
    table.to_csv(_in_new_dirs(args.out))
    return f"wrote {len(table.ids)}x{len(table.ids)} weight table to {args.out}"


def _cmd_sample(args, opts) -> str:
    if opts["num_batches"] < 1:
        raise CliError(f"--num-batches must be at least 1, got {opts['num_batches']}")
    table = WeightTable.from_csv(args.weights)
    batches = []
    for b in range(opts["num_batches"]):
        rng = np.random.default_rng([opts["seed"], b + 1])
        quads = sample_quadruples(table, opts["batch_quadruples"], rng,
                                  floor=opts["positive_floor"])
        batch_ids = build_batch(quads)
        partition = class_partition(batch_ids, table, opts["class_threshold"])
        batches.append({
            "batch_index": b,
            "case_ids": batch_ids,
            "class_labels": partition.labels,
            "anchor_ids": [q.anchor_id for q in quads],
            "positive_ids": [q.positive_id for q in quads],
            "quadruple_weights": [q.weight for q in quads],
        })
    # every batch is drawn before --out is opened, so a failed draw leaves
    # an existing manifest as it was
    write_json_lines(_in_new_dirs(args.out), batches)
    return f"wrote {opts['num_batches']} batch manifests to {args.out}"


def _cmd_pretrain(args, opts) -> str:
    if opts["steps"] < 1:
        raise CliError(f"--steps must be at least 1, got {opts['steps']}")
    tok = _build(TokenizerConfig, args, opts)
    hp = _build(CircleLossParams, args, opts)
    train_cfg = _build(TrainConfig, args, opts,
                       checkpoint_dir=os.path.join(args.out, "checkpoints"))
    if args.resume:
        done = load_checkpoint(args.resume)[2]
        if done >= opts["steps"]:
            raise CliError(
                f"{args.resume} is already at step {done}; --steps {opts['steps']} leaves "
                "no step to run"
            )
    corpus, cases, table = _weight_table(args, opts, tok)
    vocab = enc.Vocab.build(
        [tokenize(c.facts, tok) + tokenize(c.holding, tok) + tokenize(c.decision, tok)
         for c in cases]
        + [list(br.keyword_sequence) for br in corpus.branches]
    )
    enc_cfg = _build(enc.EncoderConfig, args, opts, vocab_size=len(vocab))
    params, log = train(cases, table, vocab, tok, enc_cfg, train_cfg, hp=hp,
                        resume_from=args.resume)
    enc.save_params(_in_new_dirs(os.path.join(args.out, "encoder.params")), params, enc_cfg)
    vocab.save(os.path.join(args.out, "vocab.txt"))
    log.to_jsonl(os.path.join(args.out, "trainlog.jsonl"))
    table.to_csv(os.path.join(args.out, "weights.csv"))
    first, last = log.steps[0], log.steps[-1]
    count = len(log.steps)
    return (f"trained {count} step{'s' if count != 1 else ''}: "
            f"total loss {first.total_loss:.4f} -> {last.total_loss:.4f}")


def _load_encoder(args):
    params, enc_cfg = enc.load_params(args.checkpoint)
    vocab = enc.Vocab.load(args.vocab)
    if len(vocab) != enc_cfg.vocab_size:
        raise CliError(
            f"vocabulary size {len(vocab)} does not match checkpoint vocab {enc_cfg.vocab_size}"
        )
    return params, enc_cfg, vocab


def _cmd_rank(args, opts) -> str:
    params, enc_cfg, vocab = _load_encoder(args)
    tok = _build(TokenizerConfig, args, opts)
    queries = load_queries(args.queries)
    candidates = load_cases(args.cases)
    runs = [
        rank(q, CandidatePool(query_id=q.query_id, candidates=candidates),
             params, enc_cfg, vocab, tok)
        for q in queries
    ]
    save_run(runs, _in_new_dirs(args.out))
    return f"ranked {len(candidates)} candidates for {len(queries)} queries into {args.out}"


def _cmd_evaluate(args, opts) -> str:
    runs = load_run(args.run)
    qrels = QrelSet.from_tsv(args.qrels)
    try:
        ks = tuple(int(k) for k in opts["ks"].split(","))
    except ValueError:
        raise CliError(f"--ks must be comma-separated integers, got {opts['ks']!r}") from None
    metrics = evaluate(runs, qrels, ks=ks, skip_unjudged=opts["skip_unjudged"])
    save_metrics(metrics, _in_new_dirs(args.out))
    means = {k: round(v["mean"], 6) for k, v in metrics.items()}
    return f"metrics {means} written to {args.out}"


def _cmd_export_embeddings(args, opts) -> str:
    params, enc_cfg, vocab = _load_encoder(args)
    cases = load_cases(args.cases)
    labels = load_labels(args.labels) if args.labels else None
    export_embeddings(cases, params, enc_cfg, vocab, _build(TokenizerConfig, args, opts),
                      _in_new_dirs(args.out), projection=opts["projection"], labels=labels)
    return f"exported {len(cases)} embeddings ({opts['projection']}) to {args.out}"


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casevec",
        description="statute-branch relevance, weighted contrastive pre-training,"
                    " and zero-shot case retrieval",
    )
    parser.add_argument("--version", action="version", version=f"casevec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--config", default=None, help="JSON file with option overrides")
        return p

    p = command("gen-corpus", _cmd_gen_corpus, "generate a synthetic statute and case corpus")
    p.add_argument("--out", required=True, help="output directory")
    _register(p, _SYNTH_OPTS)

    p = command("expand-articles", _cmd_expand_articles, "expand article specs into branches")
    p.add_argument("--articles", required=True, help="article spec JSON file")
    p.add_argument("--out", required=True, help="branch JSONL output")
    _register(p, _TOKENIZER_OPTS)

    p = command("weights", _cmd_weights, "compute the pairwise relevance weight table")
    p.add_argument("--articles", required=True, help="article spec JSON file")
    p.add_argument("--cases", required=True, help="case JSONL file")
    p.add_argument("--out", required=True, help="weight CSV output")
    _register(p, _TOKENIZER_OPTS + _BM25_OPTS)

    p = command("sample", _cmd_sample, "draw training batches and their class labels")
    p.add_argument("--weights", required=True, help="weight CSV from the weights command")
    p.add_argument("--out", required=True, help="batch manifest JSONL output")
    _register(p, _SAMPLE_OPTS)

    p = command("pretrain", _cmd_pretrain, "train the encoder on the combined objective")
    p.add_argument("--articles", required=True, help="article spec JSON file")
    p.add_argument("--cases", required=True, help="case JSONL file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", default=None, help="resume from a training checkpoint")
    _register(p, _PRETRAIN_OPTS)

    p = command("rank", _cmd_rank, "rank candidates for each query by embedding cosine")
    p.add_argument("--checkpoint", required=True, help="encoder params file")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--queries", required=True, help="query JSONL file")
    p.add_argument("--cases", required=True, help="candidate case JSONL file")
    p.add_argument("--out", required=True, help="run TSV output")
    _register(p, _TOKENIZER_OPTS)

    p = command("evaluate", _cmd_evaluate, "score a run file with graded NDCG")
    p.add_argument("--run", required=True, help="run TSV from the rank command")
    p.add_argument("--qrels", required=True, help="graded relevance TSV")
    p.add_argument("--out", required=True, help="metrics JSON output")
    _register(p, _EVALUATE_OPTS)

    p = command("export-embeddings", _cmd_export_embeddings,
                "write labeled embeddings, raw or projected to 2D")
    p.add_argument("--checkpoint", required=True, help="encoder params file")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--cases", required=True, help="case JSONL file")
    p.add_argument("--labels", default=None, help="optional case_id,label CSV")
    p.add_argument("--out", required=True, help="embedding CSV output")
    _register(p, _TOKENIZER_OPTS + _PROJECTION_OPTS)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _effective(args)
        summary = args.fn(args, opts)
        _echo_config(args.command, opts, args.out)
        print(summary)
        return 0
    except (CliError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
