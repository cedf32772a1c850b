"""Training: target pretraining and draft distillation.

Both trainers run one AdamW loop; a divergence raises TrainingError
with the step index.  The target trains with plain next-token cross
entropy over packed windows.  The draft trains teacher-forced, in the pass
evaluation also uses: fused rows are built from the frozen target's
features (one step back) and the true next token's embedding; the logit
path is supervised by the teacher's shifted next-token distribution and
the autoregression path by the teacher's shifted feature, with
prompt-region positions excluded from both.
Composite objective: loss_weight * token_loss + feature_loss.
"""

from __future__ import annotations

import contextlib
import json
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, NumericError, TrainingError
from .model import ConfigSection, DraftModel, ModelConfig, TargetModel
from .tokenizer import BOS, EOS


@dataclass
class TrainConfig(ConfigSection):
    section = "training"

    learning_rate: float = 5e-5  # betas, weight decay and clip are AdamW's defaults
    loss_weight: float = 0.1     # weight on the token loss in the composite objective
    batch_size: int = 16
    steps: int = 3000
    draft_steps: int = 2000
    seq_len: int = 96
    seed: int = 0
    corpus_docs: int = 4000
    corpus_seed: int = 1234

    minimums = {"loss_weight": 0.0, "seed": 0, "corpus_seed": 0, "steps": 0, "draft_steps": 0,
                "batch_size": 1, "seq_len": 1, "corpus_docs": 1}

    def __post_init__(self):
        super().__post_init__()
        if not self.learning_rate > 0:
            raise ConfigError(f"training.learning_rate must be > 0, got {self.learning_rate!r}")


class TokenizedCorpus:
    """Tokenized documents with prompt/response boundaries, split train/eval."""

    def __init__(self, train_docs, eval_docs):
        if not train_docs or not eval_docs:
            raise ContractError("both corpus splits must be nonempty")
        self.train_docs = train_docs   # list of (tokens int array, prompt_len)
        self.eval_docs = eval_docs
        self.stream = np.concatenate([t for t, _ in train_docs]).astype(np.int64)

    @classmethod
    def build(cls, documents, tokenizer, max_seq_len, eval_frac=0.05, seed=0):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
        train_docs, eval_docs = [], []
        for doc in documents:
            prompt_ids = [BOS] + tokenizer.encode(doc.prompt_text + " ")
            response_ids = tokenizer.encode(doc.response_text) + [EOS]
            tokens = np.array(prompt_ids + response_ids, dtype=np.int64)[:max_seq_len]
            prompt_len = len(prompt_ids)
            if len(tokens) <= prompt_len + 1:
                continue  # truncation left no supervisable response
            entry = (tokens, prompt_len)
            (eval_docs if rng.random() < eval_frac else train_docs).append(entry)
        return cls(train_docs, eval_docs)


def _sample_windows(stream, n, length, rng):
    starts = rng.integers(0, len(stream) - length, size=n)
    return np.stack([stream[s: s + length] for s in starts])


def uniform_loss(vocab_size):
    return float(np.log(vocab_size))


def eval_stream_loss(target, stream, seq_len=96, batches=4, seed=123):
    rng = np.random.default_rng(seed)
    losses = []
    with T.no_grad():
        for _ in range(batches):
            w = _sample_windows(stream, 8, seq_len + 1, rng)
            logits, _ = target.forward(w[:, :-1])
            loss = T.cross_entropy_labels(logits, w[:, 1:])
            losses.append(loss.item())
    return float(np.mean(losses))


def _optimise(params, cfg, steps, batch_loss, label, log_path=None, progress=None):
    """AdamW at ``cfg.learning_rate`` over ``steps`` batches; ``batch_loss()`` draws
    one and returns (loss, log fields, progress note).  A None loss (a batch
    with nothing to learn from) leaves the parameters and the optimiser as
    they are; its step is still logged.

    A non-finite loss or a NumericError in step k raises TrainingError
    naming k, after the log is closed with one record per earlier step.
    """
    opt = T.AdamW(params, lr=cfg.learning_rate)
    with (open(log_path, "w", encoding="utf-8") if log_path else contextlib.nullcontext()) as log:
        for step in range(steps):
            t0 = time.perf_counter()
            T.clear_tape()
            try:
                loss, fields, note = batch_loss()
                if loss is not None:
                    if not np.isfinite(loss.item()):
                        raise NumericError(f"loss is {loss.item()}")
                    opt.zero_grad()
                    T.backward(loss)
                    opt.step()
            except NumericError as e:
                raise TrainingError(f"{label} diverged at step {step}: {e}") from e
            if log:
                record = {"step": step, **fields, "lr": cfg.learning_rate,
                          "wall_ms": (time.perf_counter() - t0) * 1000.0}
                log.write(json.dumps(record, sort_keys=True) + "\n")
            if progress and (step % 50 == 0 or step + 1 == steps):
                progress(f"{label} step {step + 1}/{steps} {note}")


def pretrain_target(corpus, train_config, model_config, log_path=None, progress=None):
    """Next-token pretraining from random init; returns the target model.

    Raises TrainingError with the step index if the loss diverges.
    """
    cfg = train_config
    target = TargetModel(model_config, seed=cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(3,)))

    def batch_loss():
        w = _sample_windows(corpus.stream, cfg.batch_size, cfg.seq_len + 1, rng)
        logits, _ = target.forward(w[:, :-1])
        loss = T.cross_entropy_labels(logits, w[:, 1:])
        value = loss.item()
        return loss, {"loss": value}, f"loss {value:.3f}"

    _optimise(target.parameters(), cfg, cfg.steps, batch_loss, "pretrain", log_path, progress)
    return target


def extract_teacher_trace(target, tokens):
    """Frozen-target features and logits for supervision; no gradients flow."""
    with T.no_grad():
        logits, feats = target.forward(tokens)
    return feats.data, logits.data


def shift_mask(seq_values, response_mask):
    """Drop position 0 so teacher values align with draft outputs one step back.

    The draft's output row i is supervised by the teacher at i + 1;
    prompt-region positions stay excluded via the shifted mask.
    """
    seq_values = np.asarray(seq_values)
    response_mask = np.asarray(response_mask)
    if seq_values.shape[:2] != response_mask.shape[:2]:
        raise ContractError("values and mask must agree on (batch, positions)")
    shifted = seq_values[:, 1:]
    mask = response_mask[:, 1:]
    if not mask.any():
        warnings.warn("shift_mask: nothing to supervise (all positions masked)")
    return shifted, mask


def _pad_batch(docs):
    """Right-pad a batch of (tokens, prompt_len) docs; returns arrays + masks."""
    n = len(docs)
    t_max = max(len(t) for t, _ in docs)
    tokens = np.zeros((n, t_max), dtype=np.int64)
    valid = np.zeros((n, t_max), dtype=bool)
    response = np.zeros((n, t_max), dtype=bool)
    for i, (toks, prompt_len) in enumerate(docs):
        tokens[i, : len(toks)] = toks
        valid[i, : len(toks)] = True
        response[i, prompt_len: len(toks)] = True
    return tokens, valid, response


def _teacher_forced(target, draft, tokens, valid, response):
    """The draft's (logits, features), teacher features, teacher logits and
    the mask of draft rows i supervised by a response position i + 1."""
    teacher_feats, teacher_logits = extract_teacher_trace(target, tokens)
    _, pair_mask = shift_mask(teacher_logits, response & valid)
    out = draft.forward(teacher_feats[:, :-1], tokens[:, 1:])
    return out, teacher_feats, teacher_logits, pair_mask & valid[:, :-1]


def draft_batch_losses(target, draft, tokens, valid, response, loss_weight):
    """Composite loss and diagnostics for one teacher-forced batch.

    Returns (loss, token_loss, feature_loss, top1_acc) as
    (Tensor, Tensor, Tensor, float).
    """
    (draft_logits, draft_feats), feats, logits, pair_mask = _teacher_forced(
        target, draft, tokens, valid, response)
    probs = T.KERNELS.softmax(logits[:, 1:].astype(np.float64)).astype(np.float32)

    token_loss = T.cross_entropy(draft_logits, T.Tensor(probs), pair_mask)
    feature_loss = T.smooth_l1(draft_feats, T.Tensor(feats[:, 1:]), pair_mask)
    loss = T.add(T.scale(token_loss, loss_weight), feature_loss)

    agree = np.argmax(draft_logits.data, axis=-1) == np.argmax(logits[:, 1:], axis=-1)
    top1 = float(agree[pair_mask].mean()) if pair_mask.any() else 0.0
    return loss, token_loss, feature_loss, top1


def train_draft(target, corpus, train_config, variant="fspad", log_path=None, progress=None):
    """Distill a draft model against the frozen target.

    Only the connector and the draft decoder layer train; the target's
    embedding, head, and final norm are shared read-only.  Per-step log
    records carry the composite loss, both components, and teacher-forced
    top-1 accuracy (the conflict-between-losses diagnostic).  A batch whose
    window holds no response position is drawn and logged with zero losses
    but trains nothing.  Raises TrainingError with the step index if the
    loss diverges.
    """
    cfg = train_config
    target.set_trainable(False)
    draft = DraftModel(target.config, target, variant=variant, seed=cfg.seed + 1)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(4,)))
    docs = corpus.train_docs
    n = cfg.seq_len + 1

    def batch_loss():
        picks = rng.integers(0, len(docs), size=cfg.batch_size)
        tokens, valid, response = (a[:, :n] for a in _pad_batch([docs[i] for i in picks]))
        if not response[:, 1:].any():  # no row i is supervised by a response position i + 1
            return None, {"L": 0.0, "L_t": 0.0, "L_f": 0.0, "top1_acc": 0.0}, "nothing to learn"
        loss, token_loss, feature_loss, top1 = draft_batch_losses(
            target, draft, tokens, valid, response, cfg.loss_weight)
        value = loss.item()
        fields = {"L": value, "L_t": token_loss.item(), "L_f": feature_loss.item(),
                  "top1_acc": top1}
        return loss, fields, f"L {value:.3f} top1 {top1:.2f}"

    _optimise(draft.parameters(), cfg, cfg.draft_steps, batch_loss, f"draft[{variant}]",
              log_path, progress)
    return draft


def eval_draft_accuracy(target, draft, eval_docs, top_k=(1,), max_docs=None):
    """Teacher-forced next-token agreement on response positions.

    Returns {k: fraction of positions where the teacher argmax is in the
    draft's top k}.
    """
    if not eval_docs:
        raise ContractError("evaluation split is empty")
    docs = eval_docs[:max_docs] if max_docs else eval_docs
    hits = {k: 0 for k in top_k}
    total = 0
    with T.no_grad():
        for i in range(0, len(docs), 8):
            (draft_logits, _), _, logits, pair_mask = _teacher_forced(
                target, draft, *_pad_batch(docs[i: i + 8]))
            teacher_top = np.argmax(logits[:, 1:], axis=-1)
            order = np.argsort(-draft_logits.data, axis=-1, kind="stable")
            for k in top_k:
                in_top = (order[..., :k] == teacher_top[..., None]).any(axis=-1)
                hits[k] += int(in_top[pair_mask].sum())
            total += int(pair_mask.sum())
    if total == 0:
        raise ContractError("evaluation split has no supervisable positions")
    return {k: hits[k] / total for k in top_k}
