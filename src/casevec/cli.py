"""Command-line pipeline driver.

Subcommands cover the full flow: gen-corpus, expand-articles, weights,
sample, pretrain, encode, rank, evaluate, export-embeddings. Option
precedence is CLI flag over --config file over built-in default, and the
effective configuration is echoed next to each command's output for
provenance. All randomness is governed by --seed; outputs carry no
timestamps, so identical inputs and seed give identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from . import encoder as enc
from .articles import build_corpus, load_article_specs
from .bm25 import build_index, compute_profiles
from .circle_loss import DEFAULT_MIX, CircleLossParams
from .evaluation import (
    CandidatePool,
    QrelSet,
    candidate_text,
    embed_texts,
    evaluate,
    export_embeddings,
    load_queries,
    load_run,
    rank,
    save_metrics,
    save_run,
)
from .relevance import WeightTable, load_cases, pairwise_weights
from .sampling import build_batch, class_partition, sample_quadruples
from .synth import SynthSpec, generate, load_labels, write_corpus
from .text import TokenizerConfig, tokenize
from .training import TrainConfig, load_checkpoint, train


class CliError(Exception):
    pass


class _Opt:
    def __init__(self, flag, default, type=str, help="", nargs=None, action=None, dest=None):
        self.flag = flag
        self.dest = dest or flag.lstrip("-").replace("-", "_")
        self.default = default
        self.type = type
        self.help = help
        self.nargs = nargs
        self.action = action


_TOKENIZER_OPTS = [
    _Opt("--tokenizer-mode", "whitespace", help="token splitting: whitespace or char-unigram"),
    _Opt("--no-lowercase", True, action="store_false", dest="lowercase",
         help="keep the original letter case"),
    _Opt("--keep-punctuation", True, action="store_false", dest="strip_punctuation",
         help="do not strip punctuation"),
]

_BM25_OPTS = [
    _Opt("--k1", 1.5, type=float, help="BM25 term-frequency saturation"),
    _Opt("--b", 0.75, type=float, help="BM25 length normalization"),
]

_CIRCLE_OPTS = [
    _Opt("--gamma", 16.0, type=float, help="similarity scale factor"),
    _Opt("--optimum-pos", 1.25, type=float, help="within-class optimum"),
    _Opt("--optimum-neg", 0.25, type=float, help="between-class optimum"),
    _Opt("--margin-pos", 0.75, type=float, help="within-class margin"),
    _Opt("--margin-neg", 0.25, type=float, help="between-class margin"),
    _Opt("--class-threshold", 0.25, type=float, help="weight above which cases share a class"),
    _Opt("--mix", DEFAULT_MIX, type=float, help="weight of the circle loss in the total"),
]

_ENCODER_OPTS = [
    _Opt("--hidden-size", 64, type=int, help="embedding width"),
    _Opt("--num-layers", 2, type=int, help="transformer blocks"),
    _Opt("--num-heads", 4, type=int, help="attention heads"),
    _Opt("--ffn-size", 128, type=int, help="feed-forward width"),
    _Opt("--max-len", 128, type=int, help="maximum input length"),
    _Opt("--encoder-seed", 0, type=int, help="parameter initialization seed"),
]

_TRAIN_OPTS = [
    _Opt("--steps", 200, type=int, help="training steps"),
    _Opt("--batch-quadruples", 4, type=int, help="anchor/positive pairs per batch"),
    _Opt("--learning-rate", 1e-3, type=float, help="Adam learning rate"),
    _Opt("--grad-clip", 1.0, type=float, help="global gradient-norm cap, 0 disables"),
    _Opt("--mask-rate", 0.15, type=float, help="fraction of tokens hidden for prediction"),
    _Opt("--positive-floor", 0.5, type=float, help="minimum weight for positive sampling"),
    _Opt("--mlm-sum", False, action="store_true",
         help="sum the masked-token loss over positions instead of averaging"),
    _Opt("--fixed-quadruples", False, action="store_true",
         help="sample quadruples once and reuse them every step"),
    _Opt("--checkpoint-every", 0, type=int, help="steps between checkpoints, 0 = final only"),
]

_SYNTH_OPTS = [
    _Opt("--num-articles", 2, type=int, help="synthetic articles"),
    _Opt("--branches-per-article", 3, type=int, help="branches per article"),
    _Opt("--keywords-per-branch", 4, type=int, help="keywords owned by each branch"),
    _Opt("--vocab-size", 60, type=int, help="distinct tokens, keywords plus fillers"),
    _Opt("--cases-per-branch", 6, type=int, help="training cases per branch"),
    _Opt("--queries-per-branch", 2, type=int, help="held-out queries per branch"),
    _Opt("--facts-len", [24, 40], type=int, nargs=2, help="facts length range"),
    _Opt("--holding-len", [12, 20], type=int, nargs=2, help="holding length range"),
    _Opt("--noise-rate", 0.0, type=float, help="fraction of off-branch holding tokens"),
]

_SEED_OPT = _Opt("--seed", 0, type=int, help="seed for all randomness of this command")

_SAMPLE_OPTS = [
    _Opt("--num-batches", 8, type=int, help="batches to draw"),
    _Opt("--batch-quadruples", 4, type=int, help="anchor/positive pairs per batch"),
    _Opt("--positive-floor", 0.5, type=float, help="minimum weight for positive sampling"),
    _Opt("--class-threshold", 0.25, type=float, help="weight above which cases share a class"),
    _SEED_OPT,
]

_EVALUATE_OPTS = [
    _Opt("--ks", "10,20,30", help="comma-separated NDCG cutoffs"),
    _Opt("--skip-unjudged", False, action="store_true",
         help="skip queries without qrels instead of failing"),
]

_PROJECTION_OPTS = [
    _Opt("--projection", "none", help="none for raw vectors, pca2d for a 2D projection"),
]


def _register(parser: argparse.ArgumentParser, opts: list[_Opt]) -> None:
    for opt in opts:
        kwargs: dict = {"dest": opt.dest, "default": argparse.SUPPRESS,
                        "help": f"{opt.help} (default: {_show(opt.default)})"}
        if opt.action:
            kwargs["action"] = opt.action
        else:
            kwargs["type"] = opt.type
            if opt.nargs:
                kwargs["nargs"] = opt.nargs
        parser.add_argument(opt.flag, **kwargs)


def _show(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    return str(value)


def _effective(args: argparse.Namespace, opts: list[_Opt]) -> dict:
    """Merge defaults, --config file values, and explicit CLI flags."""
    defaults = {opt.dest: opt.default for opt in opts}
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise CliError(f"{config_path}: unknown config keys {sorted(unknown)}")
        merged.update(file_cfg)
    for key in defaults:
        if hasattr(args, key):
            merged[key] = getattr(args, key)
    return merged


def _echo_config(command: str, options: dict, primary_out: str) -> None:
    outdir = primary_out if os.path.isdir(primary_out) else os.path.dirname(primary_out) or "."
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{command}.config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"command": command, "options": options}, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _tok_cfg(opts: dict) -> TokenizerConfig:
    return TokenizerConfig(
        mode=opts["tokenizer_mode"],
        lowercase=opts["lowercase"],
        strip_punctuation=opts["strip_punctuation"],
    )


def _circle_params(opts: dict) -> CircleLossParams:
    return CircleLossParams(
        gamma=opts["gamma"],
        optimum_pos=opts["optimum_pos"],
        optimum_neg=opts["optimum_neg"],
        margin_pos=opts["margin_pos"],
        margin_neg=opts["margin_neg"],
        class_threshold=opts["class_threshold"],
        mix=opts["mix"],
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_corpus(args) -> int:
    opts = _effective(args, _SYNTH_OPTS + [_SEED_OPT])
    spec = SynthSpec(
        num_articles=opts["num_articles"],
        branches_per_article=opts["branches_per_article"],
        keywords_per_branch=opts["keywords_per_branch"],
        vocab_size=opts["vocab_size"],
        cases_per_branch=opts["cases_per_branch"],
        queries_per_branch=opts["queries_per_branch"],
        facts_len=tuple(opts["facts_len"]),
        holding_len=tuple(opts["holding_len"]),
        noise_rate=opts["noise_rate"],
        seed=opts["seed"],
    )
    corpus = generate(spec)
    write_corpus(corpus, args.out)
    _echo_config("gen-corpus", opts, args.out)
    print(f"wrote {len(corpus.cases)} cases, {len(corpus.queries)} queries to {args.out}")
    return 0


def _cmd_expand_articles(args) -> int:
    opts = _effective(args, _TOKENIZER_OPTS)
    corpus = build_corpus(load_article_specs(args.articles), _tok_cfg(opts))
    with open(args.out, "w", encoding="utf-8") as fh:
        for branch in corpus.branches:
            fh.write(json.dumps({
                "article_id": branch.article_id,
                "branch_index": branch.branch_index,
                "keyword_sequence": list(branch.keyword_sequence),
            }, sort_keys=True) + "\n")
    _echo_config("expand-articles", opts, args.out)
    print(f"expanded {len(corpus.by_article)} articles into {len(corpus)} branches")
    return 0


def _weight_table(args, opts):
    """Branch corpus, cases and their weight table from --articles and --cases."""
    tok = _tok_cfg(opts)
    corpus = build_corpus(load_article_specs(args.articles), tok)
    cases = load_cases(args.cases)
    index = build_index(corpus, tok, k1=opts["k1"], b=opts["b"])
    return corpus, cases, pairwise_weights(cases, compute_profiles(cases, corpus, index))


def _cmd_weights(args) -> int:
    opts = _effective(args, _TOKENIZER_OPTS + _BM25_OPTS)
    _, _, table = _weight_table(args, opts)
    table.to_csv(args.out)
    _echo_config("weights", opts, args.out)
    print(f"wrote {len(table.ids)}x{len(table.ids)} weight table to {args.out}")
    return 0


def _cmd_sample(args) -> int:
    opts = _effective(args, _SAMPLE_OPTS)
    table = WeightTable.from_csv(args.weights)
    with open(args.out, "w", encoding="utf-8") as fh:
        for b in range(opts["num_batches"]):
            rng = np.random.default_rng([opts["seed"], b + 1])
            quads = sample_quadruples(table, opts["batch_quadruples"], rng,
                                      floor=opts["positive_floor"])
            batch_ids = build_batch(quads)
            partition = class_partition(batch_ids, table, opts["class_threshold"])
            fh.write(json.dumps({
                "batch_index": b,
                "case_ids": batch_ids,
                "class_labels": partition.labels,
                "anchor_ids": [q.anchor_id for q in quads],
                "positive_ids": [q.positive_id for q in quads],
                "quadruple_weights": [q.weight for q in quads],
            }, sort_keys=True) + "\n")
    _echo_config("sample", opts, args.out)
    print(f"wrote {opts['num_batches']} batch manifests to {args.out}")
    return 0


def _cmd_pretrain(args) -> int:
    opts = _effective(
        args,
        _TOKENIZER_OPTS + _BM25_OPTS + _CIRCLE_OPTS + _ENCODER_OPTS + _TRAIN_OPTS + [_SEED_OPT],
    )
    if opts["steps"] < 1:
        raise CliError(f"--steps must be at least 1, got {opts['steps']}")
    if args.resume:
        done = load_checkpoint(args.resume)[2]
        if done >= opts["steps"]:
            raise CliError(
                f"{args.resume} is already at step {done}; --steps {opts['steps']} leaves "
                "no step to run"
            )
    tok = _tok_cfg(opts)
    corpus, cases, table = _weight_table(args, opts)
    vocab = enc.Vocab.build(
        [tokenize(c.facts, tok) + tokenize(c.holding, tok) + tokenize(c.decision, tok)
         for c in cases]
        + [list(br.keyword_sequence) for br in corpus.branches]
    )
    enc_cfg = enc.EncoderConfig(
        vocab_size=len(vocab),
        hidden_size=opts["hidden_size"],
        num_layers=opts["num_layers"],
        num_heads=opts["num_heads"],
        ffn_size=opts["ffn_size"],
        max_len=opts["max_len"],
        seed=opts["encoder_seed"],
    )
    os.makedirs(args.out, exist_ok=True)
    train_cfg = TrainConfig(
        steps=opts["steps"],
        batch_quadruples=opts["batch_quadruples"],
        learning_rate=opts["learning_rate"],
        grad_clip=opts["grad_clip"],
        seed=opts["seed"],
        mask_rate=opts["mask_rate"],
        positive_floor=opts["positive_floor"],
        mlm_mean=not opts["mlm_sum"],
        resample_quadruples=not opts["fixed_quadruples"],
        checkpoint_every=opts["checkpoint_every"],
        checkpoint_dir=os.path.join(args.out, "checkpoints"),
    )
    params, log = train(cases, table, vocab, tok, enc_cfg, train_cfg,
                        hp=_circle_params(opts), resume_from=args.resume)
    enc.save_params(os.path.join(args.out, "encoder.params"), params, enc_cfg)
    vocab.save(os.path.join(args.out, "vocab.txt"))
    log.to_jsonl(os.path.join(args.out, "trainlog.jsonl"))
    table.to_csv(os.path.join(args.out, "weights.csv"))
    _echo_config("pretrain", opts, args.out)
    first, last = log.steps[0], log.steps[-1]
    count = len(log.steps)
    print(f"trained {count} step{'s' if count != 1 else ''}: "
          f"total loss {first.total_loss:.4f} -> {last.total_loss:.4f}")
    return 0


def _load_encoder(args):
    params, enc_cfg = enc.load_params(args.checkpoint)
    vocab = enc.Vocab.load(args.vocab)
    if len(vocab) != enc_cfg.vocab_size:
        raise CliError(
            f"vocabulary size {len(vocab)} does not match checkpoint vocab {enc_cfg.vocab_size}"
        )
    return params, enc_cfg, vocab


def _cmd_encode(args) -> int:
    opts = _effective(args, _TOKENIZER_OPTS)
    params, enc_cfg, vocab = _load_encoder(args)
    cases = load_cases(args.cases)
    embeddings = embed_texts([candidate_text(c) for c in cases], params, enc_cfg, vocab,
                             _tok_cfg(opts))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["case_id"] + [f"dim{i}" for i in range(enc_cfg.hidden_size)])
        for case, row in zip(cases, embeddings):
            writer.writerow([case.case_id] + [repr(float(x)) for x in row])
    _echo_config("encode", opts, args.out)
    print(f"encoded {len(cases)} cases into {args.out}")
    return 0


def _cmd_rank(args) -> int:
    opts = _effective(args, _TOKENIZER_OPTS)
    params, enc_cfg, vocab = _load_encoder(args)
    tok = _tok_cfg(opts)
    queries = load_queries(args.queries)
    candidates = load_cases(args.cases)
    runs = [
        rank(q, CandidatePool(query_id=q.query_id, candidates=candidates),
             params, enc_cfg, vocab, tok)
        for q in queries
    ]
    save_run(runs, args.out)
    _echo_config("rank", opts, args.out)
    print(f"ranked {len(candidates)} candidates for {len(queries)} queries into {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    opts = _effective(args, _EVALUATE_OPTS)
    runs = load_run(args.run)
    qrels = QrelSet.from_tsv(args.qrels)
    ks = tuple(int(k) for k in str(opts["ks"]).split(","))
    metrics = evaluate(runs, qrels, ks=ks, skip_unjudged=opts["skip_unjudged"])
    save_metrics(metrics, args.out)
    _echo_config("evaluate", opts, args.out)
    means = {k: round(v["mean"], 6) for k, v in metrics.items()}
    print(f"metrics {means} written to {args.out}")
    return 0


def _cmd_export_embeddings(args) -> int:
    opts = _effective(args, _TOKENIZER_OPTS + _PROJECTION_OPTS)
    params, enc_cfg, vocab = _load_encoder(args)
    cases = load_cases(args.cases)
    labels = load_labels(args.labels) if args.labels else None
    export_embeddings(cases, params, enc_cfg, vocab, _tok_cfg(opts), args.out,
                      projection=opts["projection"], labels=labels)
    _echo_config("export-embeddings", opts, args.out)
    print(f"exported {len(cases)} embeddings ({opts['projection']}) to {args.out}")
    return 0


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
    _register(p, _SYNTH_OPTS + [_SEED_OPT])

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
    _register(p, _TOKENIZER_OPTS + _BM25_OPTS + _CIRCLE_OPTS + _ENCODER_OPTS + _TRAIN_OPTS
              + [_SEED_OPT])

    p = command("encode", _cmd_encode, "write raw case embeddings as CSV")
    p.add_argument("--checkpoint", required=True, help="encoder params file")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--cases", required=True, help="case JSONL file")
    p.add_argument("--out", required=True, help="embedding CSV output")
    _register(p, _TOKENIZER_OPTS)

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
        return args.fn(args)
    except (CliError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
