"""Independent float64 reference for the target and the draft.

Reads the FSPD checkpoint format itself and recomputes whole sequences in
float64 without a KV cache, with plain numpy and none of the package's
code.  The benchmark checks the program's outputs against it:

* greedy tokens: each emitted token is the reference argmax at its
  position (``greedy_mismatches``);
* sampled tokens: per-token log-likelihood under the temperature-scaled
  reference (``token_loglik``);
* distillation: the composite loss of one teacher-forced batch
  (``draft_composite_loss``).

FSPD layout (little-endian): magic ``FSPD`` | u32 version (1) | u32 JSON
length | JSON ``{"kind", "config", ["variant"]}`` | u32 tensor count | per
tensor: u16 name length, UTF-8 name, u8 rank, u32 dims[rank], float32
row-major data.
"""

import json
import struct

import numpy as np

RMS_EPS = 1e-5


def read_fspd(path):
    """(meta, {name: float64 array}) from one checkpoint file."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"FSPD":
        raise ValueError(f"{path}: not an FSPD checkpoint")
    version, json_len = struct.unpack_from("<II", raw, 4)
    if version != 1:
        raise ValueError(f"{path}: unsupported FSPD version {version}")
    pos = 12
    meta = json.loads(raw[pos: pos + json_len].decode("utf-8"))
    pos += json_len
    (count,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    weights = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        pos += 2
        name = raw[pos: pos + name_len].decode("utf-8")
        pos += name_len
        rank = raw[pos]
        pos += 1
        dims = struct.unpack_from(f"<{rank}I", raw, pos)
        pos += 4 * rank
        n = int(np.prod(dims, dtype=np.int64))
        weights[name] = np.frombuffer(raw, dtype="<f4", count=n, offset=pos) \
            .reshape(dims).astype(np.float64)
        pos += 4 * n
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes")
    return meta, weights


def _rms_norm(x, w):
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS) * w


def _silu(x):
    return x / (1.0 + np.exp(-x))


def _log_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _rotate(x, positions, base):
    """Rotary embedding on (heads, T, head_dim); halves are the pairs."""
    half = x.shape[-1] // 2
    inv_freq = base ** (-np.arange(half, dtype=np.float64) * 2.0 / x.shape[-1])
    ang = np.asarray(positions, dtype=np.float64)[:, None] * inv_freq[None, :]
    cos, sin = np.cos(ang), np.sin(ang)
    a, b = x[..., :half], x[..., half:]
    return np.concatenate([a * cos - b * sin, b * cos + a * sin], axis=-1)


def _decoder_layer(w, p, x, config):
    """One pre-norm layer under a causal mask; returns (residual, mlp_out)."""
    t, c = x.shape
    h = config["n_heads"]
    dh = c // h
    pos = np.arange(t)
    xn = _rms_norm(x, w[p + "attn_norm.weight"])

    def heads(y):
        return y.reshape(t, h, dh).transpose(1, 0, 2)

    q = _rotate(heads(xn @ w[p + "attn.wq.weight"]), pos, config["rope_base"])
    k = _rotate(heads(xn @ w[p + "attn.wk.weight"]), pos, config["rope_base"])
    v = heads(xn @ w[p + "attn.wv.weight"])
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(dh)
    scores = np.where(np.tril(np.ones((t, t), dtype=bool)), scores, -np.inf)
    attn = np.exp(_log_softmax(scores))
    r = x + (attn @ v).transpose(1, 0, 2).reshape(t, c) @ w[p + "attn.wo.weight"]
    rn = _rms_norm(r, w[p + "mlp_norm.weight"])
    m = (_silu(rn @ w[p + "mlp.gate.weight"]) * (rn @ w[p + "mlp.up.weight"])) \
        @ w[p + "mlp.down.weight"]
    return r, m


def _head(tw, feats):
    return _rms_norm(feats, tw["final_norm.weight"]) @ tw["head.weight"]


def target_forward(tw, config, tokens):
    """(logits, features) for every position of one token sequence."""
    x = tw["embed.weight"][np.asarray(tokens)]
    for i in range(config["n_layers"]):
        r, m = _decoder_layer(tw, f"layers.{i}.", x, config)
        x = r + m
    return _head(tw, x), x


def draft_forward(dw, tw, config, variant, feats, tokens):
    """Draft (logits, next_feature) over fused rows of one sequence.

    Row i fuses ``feats[i]`` with the embedding of ``tokens[i]``.
    """
    emb = tw["embed.weight"][np.asarray(tokens)]
    if variant in ("fspad", "no_pad"):
        lifted = _silu(emb @ dw["connector.gate.weight"]) * (feats @ dw["connector.up.weight"])
        fused = feats + lifted @ dw["connector.down.weight"]
    else:
        fused = np.concatenate([feats, emb], axis=-1) @ dw["connector.weight"] \
            + dw["connector.bias"]
    r, m = _decoder_layer(dw, "layer.", fused, config)
    c = config["hidden_size"]
    if variant in ("fspad", "no_fs"):
        logit_feature, next_feature = r + m[:, :c], r + m[:, c:]
    else:
        logit_feature = next_feature = r + m
    return _head(tw, logit_feature), next_feature


def greedy_mismatches(tw, config, prompt, output, tie_tol):
    """Emitted tokens that are not the reference argmax at their position.

    Returns (mismatches, near_ties): a token whose reference logit lies
    within ``tie_tol`` of the maximum counts as a near tie, not a
    mismatch, because float32 and float64 may order such a pair either way.
    """
    seq = list(prompt) + list(output)
    logits, _ = target_forward(tw, config, seq[:-1])
    rows = logits[len(prompt) - 1:]
    out = np.asarray(output)
    best = rows.argmax(axis=-1)
    gap = rows.max(axis=-1) - rows[np.arange(len(out)), out]
    wrong = best != out
    return int((wrong & (gap > tie_tol)).sum()), int((wrong & (gap <= tie_tol)).sum())


def token_loglik(tw, config, prompt, output, temperature):
    """Per-token log-probability of ``output`` under the tempered reference."""
    seq = list(prompt) + list(output)
    logits, _ = target_forward(tw, config, seq[:-1])
    logp = _log_softmax(logits[len(prompt) - 1:] / temperature)
    return logp[np.arange(len(output)), np.asarray(output)]


def pad_batch(docs, seq_len):
    """Right-padded (tokens, valid, response) for (tokens, prompt_len) docs,
    cut to ``seq_len + 1`` columns as a distillation step does."""
    width = min(max(len(t) for t, _ in docs), seq_len + 1)
    tokens = np.zeros((len(docs), width), dtype=np.int64)
    valid = np.zeros_like(tokens, dtype=bool)
    response = np.zeros_like(tokens, dtype=bool)
    for i, (toks, prompt_len) in enumerate(docs):
        n = min(len(toks), width)
        tokens[i, :n] = toks[:n]
        valid[i, :n] = True
        response[i, prompt_len:n] = True
    return tokens, valid, response


def draft_composite_loss(tw, dw, config, variant, tokens, valid, response, loss_weight):
    """loss_weight * token loss + feature loss of one teacher-forced batch.

    Draft row i (teacher feature at i, embedding of token i + 1) is
    supervised by the teacher's distribution and feature at i + 1; rows
    whose target lies in the prompt or in padding are excluded.  The token
    loss averages over rows and the smooth-L1 feature loss over elements.
    """
    ce_sum = l1_sum = 0.0
    rows = 0
    for b in range(tokens.shape[0]):
        n = int(valid[b].sum())
        t_logits, t_feats = target_forward(tw, config, tokens[b, :n])
        d_logits, d_next = draft_forward(dw, tw, config, variant,
                                         t_feats[:-1], tokens[b, 1:n])
        keep = response[b, 1:n]
        probs = np.exp(_log_softmax(t_logits[1:]))
        ce_sum += float(-(probs * _log_softmax(d_logits)).sum(axis=-1)[keep].sum())
        d = d_next - t_feats[1:]
        huber = np.where(np.abs(d) < 1.0, 0.5 * d * d, np.abs(d) - 0.5)
        l1_sum += float(huber[keep].sum())
        rows += int(keep.sum())
    return loss_weight * ce_sum / rows + l1_sum / (rows * config["hidden_size"])
