"""Joint pre-training loop: masked-token loss plus the weighted circle loss.

One step samples N quadruples, builds the 2N-case batch, masks the facts
of every case, runs a single forward pass, and combines the two losses as

    total = mlm + mix * circle

before one analytic backward pass and an Adam update. Every random draw
of step t comes from a generator seeded with (seed, t), so runs are
reproducible and a resumed run continues bit-for-bit.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import encoder as enc
from .circle_loss import CircleLossDiverged, CircleLossParams, loss_gradient
from .relevance import CaseDocument, WeightTable
from .sampling import (
    DEFAULT_POSITIVE_FLOOR,
    build_batch,
    class_partition,
    sample_quadruples,
)
from .text import TokenizerConfig, tokenize


class TrainingError(RuntimeError):
    pass


class TrainingDiverged(TrainingError):
    """Loss became non-finite; carries the last good checkpoint path."""

    def __init__(self, step: int, checkpoint: str | None):
        self.step = step
        self.checkpoint = checkpoint
        where = f"last good checkpoint: {checkpoint}" if checkpoint else "no checkpoint written"
        super().__init__(f"training diverged at step {step}; {where}")


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 200
    batch_quadruples: int = 4  # N anchors; the batch holds 2N cases
    learning_rate: float = 1e-3  # suits from-scratch training at this scale
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float = 1.0
    seed: int = 0
    mask_rate: float = 0.15
    positive_floor: float = DEFAULT_POSITIVE_FLOOR
    mlm_mean: bool = True  # mean-reduce the masked-token loss for stability
    resample_quadruples: bool = True  # fresh quadruples every batch; else fixed at step 1
    checkpoint_every: int = 0  # 0 = final checkpoint only
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise TrainingError(f"{f.name} must be finite, got {value}")
        if not 0.0 <= self.mask_rate <= 1.0:
            raise TrainingError(f"mask_rate must be in [0, 1], got {self.mask_rate}")
        if self.batch_quadruples < 1:
            raise TrainingError("batch_quadruples must be at least 1")
        if self.learning_rate <= 0:
            raise TrainingError("learning_rate must be positive")


# Fields a resumed run may change: how far it runs and where it writes
# checkpoints. Any other difference would change the steps still to run.
_RESUMABLE_FIELDS = ("steps", "checkpoint_every", "checkpoint_dir")


@dataclass
class StepRecord:
    step: int
    mlm_loss: float
    circle_loss: float
    total_loss: float
    grad_norm: float
    wall_time: float


@dataclass
class TrainLog:
    steps: list[StepRecord] = field(default_factory=list)

    def append(self, record: StepRecord) -> None:
        if self.steps and record.step <= self.steps[-1].step:
            raise TrainingError("step indices must increase")
        self.steps.append(record)

    def to_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.steps:
                fh.write(json.dumps(asdict(rec), sort_keys=True) + "\n")


def total_loss(mlm: float, circle: float, mix: float) -> float:
    """Linear combination of the two objectives."""
    if not (math.isfinite(mlm) and math.isfinite(circle)):
        raise TrainingError(f"non-finite loss inputs: mlm={mlm}, circle={circle}")
    return mlm + mix * circle


class Adam:
    """Adaptive-moment optimizer over a named parameter dict."""

    def __init__(self, params: enc.Params, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: enc.Params, grads: enc.Params) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name, g in grads.items():
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            mhat = self.m[name] / b1c
            vhat = self.v[name] / b2c
            params[name] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def clip_global_norm(grads: enc.Params, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def _step_rng(seed: int, step: int) -> np.random.Generator:
    return np.random.default_rng([seed, step])


def checkpoint_arrays(params, opt: Adam):
    arrays = dict(params)
    arrays.update({f"opt.m.{k}": v for k, v in opt.m.items()})
    arrays.update({f"opt.v.{k}": v for k, v in opt.v.items()})
    return arrays


def save_checkpoint(path, params, opt: Adam, step: int, enc_cfg, train_cfg) -> None:
    meta = {
        "kind": "train-checkpoint",
        "version": 1,
        "step": step,
        "config": enc_cfg.to_json(),
        "train_config": asdict(train_cfg),
    }
    enc.save_arrays(path, checkpoint_arrays(params, opt), meta)


def load_checkpoint(path):
    """Returns (params, opt_moments, step, encoder config, train config)."""
    arrays, meta = enc.load_arrays(path)
    if meta.get("kind") != "train-checkpoint":
        raise TrainingError(f"{path}: not a training checkpoint")
    params = {k: v for k, v in arrays.items() if not k.startswith("opt.")}
    m = {k[len("opt.m."):]: v for k, v in arrays.items() if k.startswith("opt.m.")}
    v = {k[len("opt.v."):]: v for k, v in arrays.items() if k.startswith("opt.v.")}
    enc_cfg = enc.config_from_meta(enc.EncoderConfig, meta.get("config"), path, TrainingError)
    train_cfg = enc.config_from_meta(TrainConfig, meta.get("train_config"), path, TrainingError)
    step = meta.get("step")
    if type(step) is not int or step < 0:
        raise TrainingError(f"{path}: stored step must be an integer >= 0, got {step!r}")
    return params, (m, v), step, enc_cfg, train_cfg


def train(
    cases: list[CaseDocument],
    table: WeightTable,
    vocab: enc.Vocab,
    tok_cfg: TokenizerConfig,
    enc_cfg: enc.EncoderConfig,
    cfg: TrainConfig,
    hp: CircleLossParams = CircleLossParams(),
    resume_from: str | None = None,
) -> tuple[enc.Params, TrainLog]:
    """Run the joint pre-training loop and return final params and the log."""
    facts_ids = {
        c.case_id: enc.build_input_ids(tokenize(c.facts, tok_cfg), vocab, enc_cfg) for c in cases
    }
    params = enc.init_params(enc_cfg)
    opt = Adam(params, cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    start_step = 0
    if resume_from is not None:
        params, (opt.m, opt.v), start_step, ck_enc, ck_train = load_checkpoint(resume_from)
        for what, stored, requested, skip in (
            ("encoder", ck_enc, enc_cfg, ()),
            ("train", ck_train, cfg, _RESUMABLE_FIELDS),
        ):
            differing = [
                f"{f.name} (checkpoint {getattr(stored, f.name)!r}, "
                f"requested {getattr(requested, f.name)!r})"
                for f in fields(stored)
                if f.name not in skip and getattr(stored, f.name) != getattr(requested, f.name)
            ]
            if differing:
                raise TrainingError(
                    f"{resume_from}: resuming would not continue the run exactly; "
                    f"{what} config differs: {'; '.join(differing)}"
                )
        opt.t = start_step
    log = TrainLog()
    last_checkpoint: str | None = None
    fixed_quads = None
    t0 = time.monotonic()

    for step in range(start_step + 1, cfg.steps + 1):
        rng = _step_rng(cfg.seed, step)
        if cfg.resample_quadruples:
            quads = sample_quadruples(table, cfg.batch_quadruples, rng, floor=cfg.positive_floor)
        else:
            # fixed quadruples come from their own stream so a resumed run
            # can recreate them at any step
            if fixed_quads is None:
                fixed_quads = sample_quadruples(
                    table, cfg.batch_quadruples, np.random.default_rng([cfg.seed, 0]),
                    floor=cfg.positive_floor,
                )
            quads = fixed_quads
        batch_ids = build_batch(quads)
        partition = class_partition(batch_ids, table, hp.class_threshold)

        masked = [
            enc.mlm_mask(facts_ids[cid], rng, rate=cfg.mask_rate) for cid in batch_ids
        ]
        ids, valid = enc.pad_batch([m.input_ids for m in masked])
        rows = np.concatenate(
            [np.full(len(m.positions), i, dtype=np.int64) for i, m in enumerate(masked)]
        )
        cols = np.concatenate([np.asarray(m.positions, dtype=np.int64) for m in masked])
        targets = np.concatenate([np.asarray(m.target_ids, dtype=np.int64) for m in masked])

        hidden, cache = enc.forward(ids, valid, params, enc_cfg)
        logits, gathered = enc.mlm_logits(hidden, rows, cols, params)
        mlm_value, dlogits = enc.mlm_loss_and_grad(logits, targets, mean=cfg.mlm_mean)
        embeddings = hidden[:, 0, :]
        try:
            circle_value, d_emb = loss_gradient(embeddings, partition, table, hp)
        except CircleLossDiverged as exc:
            raise TrainingDiverged(step, last_checkpoint) from exc
        if not (math.isfinite(mlm_value) and math.isfinite(circle_value)):
            raise TrainingDiverged(step, last_checkpoint)
        total = total_loss(mlm_value, circle_value, hp.mix)
        if not math.isfinite(total):
            raise TrainingDiverged(step, last_checkpoint)

        dgathered, dw_head, db_head = enc.mlm_head_backward(dlogits, gathered, params)
        d_hidden = np.zeros_like(hidden)
        np.add.at(d_hidden, (rows, cols), dgathered)
        d_hidden[:, 0, :] += hp.mix * d_emb
        grads = enc.backward(d_hidden, cache, params, enc_cfg)
        grads["mlm.w"] += dw_head
        grads["mlm.b"] += db_head

        grad_norm = clip_global_norm(grads, cfg.grad_clip)
        if not math.isfinite(grad_norm):
            raise TrainingDiverged(step, last_checkpoint)
        opt.step(params, grads)

        log.append(
            StepRecord(
                step=step,
                mlm_loss=mlm_value,
                circle_loss=circle_value,
                total_loss=total,
                grad_norm=grad_norm,
                wall_time=time.monotonic() - t0,
            )
        )
        if cfg.checkpoint_dir and (
            step == cfg.steps or (cfg.checkpoint_every and step % cfg.checkpoint_every == 0)
        ):
            os.makedirs(cfg.checkpoint_dir, exist_ok=True)
            last_checkpoint = os.path.join(cfg.checkpoint_dir, f"step-{step:06d}.ckpt")
            save_checkpoint(last_checkpoint, params, opt, step, enc_cfg, cfg)

    return params, log
