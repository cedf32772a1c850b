"""Target and draft models.

The target is a small LLaMA-style decoder-only transformer that exposes,
alongside logits, the feature sequence: the hidden state entering the
final norm + output head.  The draft model is a single decoder layer
whose MLP can emit two hidden-size outputs sharing one residual: one
feeds the output head (logit path), the other feeds the next
autoregressive step.  The draft takes target (or carry) features and
token ids; its connector fuses feature row i with the embedding of token
i into the layer's input row.

Both forwards share one preamble: positions default to following the
cache, the boolean visibility mask defaults to causal and becomes an
additive bias once, and the rows of the rotary tables for those positions
are picked once per forward and handed to every layer.  The tables
themselves are built once per (max_seq_len, head_dim, base, dtype), so a
model builds them once.

Every forward picks its ops once (``tensor.forward_ops()``) and hands
them to every layer with the rotary rows and the bias: the tape ops
while gradients are recorded, and under ``tensor.no_grad()`` their own
kernels on bare arrays, so that inference builds Tensors only for what a
forward returns.  All inference paths are expected to run inside
``tensor.no_grad()``.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np

from . import tensor as T
from .errors import CapacityError, CheckpointFormatError, ConfigError, ContractError, DimensionError
from .tensor import Tensor

MASK_OFF = -1e9  # additive attention bias for disallowed positions


_ACCEPTED = {float: (int, float), tuple: (list, tuple)}


class ConfigSection:
    """Mixin for config dataclasses named by ``section``: ``from_dict``
    rejects undeclared keys and values whose type is not the default's
    (an int passes as a float and a list as a tuple; a bool is no int)."""

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.section} config must be a JSON object, got {type(d).__name__}")
        declared = {f.name: type(f.default) for f in fields(cls)}
        unknown = set(d) - set(declared)
        if unknown:
            raise ConfigError(f"unknown {cls.section} config keys: {sorted(unknown)}")
        for name, value in d.items():
            kind = declared[name]
            if not isinstance(value, _ACCEPTED.get(kind, kind)) or \
                    (isinstance(value, bool) and kind is not bool):
                raise ConfigError(f"{cls.section}.{name} must be {kind.__name__}, "
                                  f"got {type(value).__name__} {value!r}")
        return cls(**d)


@dataclass
class ModelConfig(ConfigSection):
    section = "model"

    vocab_size: int = 512
    hidden_size: int = 128
    intermediate_size: int = 384
    n_layers: int = 4
    n_heads: int = 4
    max_seq_len: int = 512
    rope_base: float = 10000.0

    def __post_init__(self):
        if self.hidden_size % self.n_heads != 0:
            raise ConfigError(
                f"hidden_size {self.hidden_size} not divisible by n_heads {self.n_heads}"
            )
        if (self.hidden_size // self.n_heads) % 2 != 0:
            raise ConfigError("head dimension must be even for rotary embedding")
        if self.intermediate_size < self.hidden_size:
            raise ConfigError(
                f"intermediate_size {self.intermediate_size} must be >= hidden_size "
                f"{self.hidden_size} (the connector samples in an expanded space)"
            )

    @property
    def head_dim(self):
        return self.hidden_size // self.n_heads

    def to_dict(self):
        return asdict(self)


def _init(rng, shape, scale=0.02):
    return Tensor(rng.normal(0.0, scale, size=shape).astype(np.float32), requires_grad=True)


class Linear:
    """Bias-free projection stored as (in_features, out_features)."""

    def __init__(self, rng, n_in, n_out, scale=0.02):
        self.weight = _init(rng, (n_in, n_out), scale)

    def __call__(self, x, ops=T.TAPE):
        return ops.matmul(x, ops.leaf(self.weight))


class RMSNorm:
    def __init__(self, size):
        self.weight = Tensor(np.ones(size, dtype=np.float32), requires_grad=True)

    def __call__(self, x, ops=T.TAPE):
        return ops.rms_norm(x, ops.leaf(self.weight))


def rope_tables(positions, head_dim, base, dtype=np.float32):
    """cos/sin tables, shape (len(positions), head_dim // 2)."""
    positions = np.asarray(positions, dtype=np.float64)
    inv_freq = base ** (-np.arange(0, head_dim // 2, dtype=np.float64) * 2.0 / head_dim)
    angles = positions[:, None] * inv_freq[None, :]
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


@lru_cache(maxsize=16)
def _rotary(max_seq_len, head_dim, base, dtype):
    cos, sin = rope_tables(np.arange(max_seq_len), head_dim, base, dtype)
    tables = np.concatenate([cos, cos], axis=-1), np.concatenate([-sin, sin], axis=-1)
    for table in tables:
        table.flags.writeable = False
    return tables


def rotary_rows(config, positions, dtype=np.float32):
    """(C, S), each (len(positions), head_dim): ``C = [cos, cos]`` and
    ``S = [-sin, sin]``, the rows of tables built once per (max_seq_len,
    head_dim, base, dtype).  Positions must lie in [0, max_seq_len)."""
    c, s = _rotary(config.max_seq_len, config.head_dim, float(config.rope_base), np.dtype(dtype))
    return c[positions], s[positions]


def _apply_rope(x, rope, ops):
    # x: (B, H, T, Dh); the (T, Dh) rows broadcast over batch and heads.
    # x * C + swap(x) * S is [x1*cos - x2*sin, x2*cos + x1*sin], bit for bit.
    c, s = rope
    half = x.shape[-1] // 2
    x1, x2 = ops.split_last(x, [half, half])
    return ops.add(ops.mul(x, c), ops.mul(ops.concat_last([x2, x1]), s))


class KvCache:
    """Per-layer cached keys/values for one sequence (batch 1).

    Each layer keeps its rows in buffers of shape (n_heads, capacity,
    head_dim) that ``append`` fills in place and doubles when full;
    ``keys[i]`` / ``values[i]`` are the filled (n_heads, length, head_dim)
    views (None before the layer's first append).  A view taken before a
    buffer grows goes stale.  The cache covers a committed prefix plus,
    transiently, an uncommitted tree region that ``truncate`` or ``keep``
    compacts away after verification.
    """

    def __init__(self, n_layers):
        self._k = [None] * n_layers
        self._v = [None] * n_layers
        self._len = [0] * n_layers

    @property
    def keys(self):
        return [None if b is None else b[:, :n] for b, n in zip(self._k, self._len)]

    @property
    def values(self):
        return [None if b is None else b[:, :n] for b, n in zip(self._v, self._len)]

    def __len__(self):
        return self._len[0]

    def append(self, layer, k, v):
        """Write (n_heads, rows, head_dim) keys and values after the layer's
        rows; returns the layer's filled key and value views."""
        n = self._len[layer]
        end = n + k.shape[1]
        for bufs, new in ((self._k, k), (self._v, v)):
            _reserve(bufs, layer, n, end, new)[:, n:end] = new
        self._len[layer] = end
        return self._k[layer][:, :end], self._v[layer][:, :end]

    def truncate(self, length):
        self._len = [min(n, length) for n in self._len]

    def keep(self, indices):
        """Compact the cache down to the given positions, in order.

        Rows before the first index that is not the identity stay where
        they are; only the rows from there on move.
        """
        idx = np.asarray(indices, dtype=np.intp)
        end = len(idx)
        if end and (idx.min() < 0 or idx.max() >= min(self._len)):
            raise ContractError(f"cache rows to keep fall outside [0, {min(self._len)})")
        moved = np.flatnonzero(idx != np.arange(end))
        if moved.size:
            start, tail = moved[0], idx[moved[0]:]
            for layer, n in enumerate(self._len):
                for bufs in (self._k, self._v):
                    rows = bufs[layer][:, tail]
                    _reserve(bufs, layer, n, end, rows)[:, start:end] = rows
        self._len = [end] * len(self._len)


def _reserve(bufs, layer, n, end, like):
    """``bufs[layer]`` with room for ``end`` rows and its first ``n`` rows
    kept; a buffer too small is replaced by one of twice ``n`` rows (at
    least ``end``) shaped and typed after ``like`` (n_heads, rows, head_dim)."""
    buf = bufs[layer]
    if buf is None or end > buf.shape[1]:
        grown = np.empty((like.shape[0], max(end, 2 * n), like.shape[2]), dtype=like.dtype)
        if n:
            grown[:, :n] = buf[:, :n]
        bufs[layer] = buf = grown
    return buf


class Attention:
    def __init__(self, rng, config):
        c = config.hidden_size
        self.config = config
        self.wq = Linear(rng, c, c)
        self.wk = Linear(rng, c, c)
        self.wv = Linear(rng, c, c)
        self.wo = Linear(rng, c, c)

    def __call__(self, x, rope, bias, cache=None, layer_idx=0, ops=T.TAPE):
        b, t, c = x.shape
        h, dh = self.config.n_heads, self.config.head_dim

        def heads(z):
            return ops.transpose(ops.reshape(z, (b, t, h, dh)), (0, 2, 1, 3))

        q = _apply_rope(heads(self.wq(x, ops)), rope, ops)
        k = _apply_rope(heads(self.wk(x, ops)), rope, ops)
        v = heads(self.wv(x, ops))

        if cache is not None:
            if b != 1:
                raise ContractError("cached attention supports batch size 1")
            k, v = cache.append(layer_idx, ops.value(k)[0], ops.value(v)[0])
            k, v = ops.const(k[None]), ops.const(v[None])

        scores = ops.matmul(q, ops.transpose(k, (0, 1, 3, 2)))
        scores = ops.scale_bias(scores, 1.0 / math.sqrt(dh), bias)  # into the fresh scores
        attn = ops.softmax(scores, axis=-1)
        out = ops.transpose(ops.matmul(attn, v), (0, 2, 1, 3))
        return self.wo(ops.reshape(out, (b, t, c)), ops)


class GatedMLP:
    """SiLU-gated MLP; ``out_mult`` widens the down projection output."""

    def __init__(self, rng, config, out_mult=1):
        c, i = config.hidden_size, config.intermediate_size
        self.gate = Linear(rng, c, i)
        self.up = Linear(rng, c, i)
        self.down = Linear(rng, i, c * out_mult)

    def __call__(self, x, ops=T.TAPE):
        return self.down(ops.mul(ops.silu(self.gate(x, ops)), self.up(x, ops)), ops)


class DecoderLayer:
    def __init__(self, rng, config, mlp_out_mult=1):
        self.attn_norm = RMSNorm(config.hidden_size)
        self.attn = Attention(rng, config)
        self.mlp_norm = RMSNorm(config.hidden_size)
        self.mlp = GatedMLP(rng, config, out_mult=mlp_out_mult)

    def residual_after_attention(self, x, rope, bias, cache=None, layer_idx=0, ops=T.TAPE):
        return ops.add(x, self.attn(self.attn_norm(x, ops), rope, bias, cache, layer_idx, ops))

    def __call__(self, x, rope, bias, cache=None, layer_idx=0, ops=T.TAPE):
        r = self.residual_after_attention(x, rope, bias, cache, layer_idx, ops)
        return ops.add(r, self.mlp(self.mlp_norm(r, ops), ops))

    def named_tensors(self, prefix):
        parts = {"attn_norm": self.attn_norm, "attn.wq": self.attn.wq, "attn.wk": self.attn.wk,
                 "attn.wv": self.attn.wv, "attn.wo": self.attn.wo, "mlp_norm": self.mlp_norm,
                 "mlp.gate": self.mlp.gate, "mlp.up": self.mlp.up, "mlp.down": self.mlp.down}
        return {f"{prefix}{name}.weight": part.weight for name, part in parts.items()}


def causal_mask(n_queries, n_keys):
    """Boolean visibility letting query i see keys 0..(n_keys - n_queries + i)."""
    offset = n_keys - n_queries
    if offset < 0:
        raise ContractError(f"more queries ({n_queries}) than keys ({n_keys})")
    return np.arange(n_keys)[None, :] <= np.arange(n_queries)[:, None] + offset


def _preamble(config, x, positions, mask, cache):
    """Rotary rows and additive bias for the rows of ``x`` (B, T, hidden).

    ``positions`` default to following the cache and ``mask``, a boolean
    (T, cached + T) visibility, to causal.  T must be at least 1.
    """
    t = x.shape[1]
    if t == 0:
        raise ContractError("a forward pass needs at least one row")
    past = len(cache) if cache is not None else 0
    positions = np.arange(past, past + t) if positions is None else np.asarray(positions)
    if positions.max(initial=0) >= config.max_seq_len:
        raise CapacityError(
            f"position {int(positions.max())} exceeds max_seq_len {config.max_seq_len}"
        )
    if positions.min(initial=0) < 0:
        raise ContractError(f"negative position {int(positions.min())}")
    if mask is None:
        mask = causal_mask(t, past + t)
    if mask.shape != (t, past + t):
        raise ContractError(
            f"attention mask shape {mask.shape} does not match (queries, keys) = ({t}, {past + t})"
        )
    bias = np.zeros(mask.shape, dtype=np.float32)
    bias[~mask] = MASK_OFF
    return rotary_rows(config, positions, x.dtype), bias


class TargetModel:
    """Decoder-only transformer exposing (logits, features) per position."""

    def __init__(self, config, seed=0):
        rng = np.random.default_rng(seed)
        self.config = config
        self.embed = _init(rng, (config.vocab_size, config.hidden_size))
        self.layers = [DecoderLayer(rng, config) for _ in range(config.n_layers)]
        self.final_norm = RMSNorm(config.hidden_size)
        self.head = Linear(rng, config.hidden_size, config.vocab_size)

    def forward(self, tokens, positions=None, mask=None, cache=None):
        """Run the stack over ``tokens``.

        tokens: int array (T,) or (B, T).  When ``cache`` is given the
        new keys/values are appended (batch must be 1) and ``positions``
        /``mask`` describe the new rows against the grown cache.
        Returns (logits, features), each with the batch layout of the
        input.
        """
        ops = T.forward_ops()
        tokens = np.asarray(tokens)
        squeeze = tokens.ndim == 1
        if squeeze:
            tokens = tokens[None]
        features = ops.embedding(ops.leaf(self.embed), tokens)
        rope, bias = _preamble(self.config, features, positions, mask, cache)
        for i, layer in enumerate(self.layers):
            features = layer(features, rope, bias, cache, i, ops)
        logits = self._logits(features, ops)
        if squeeze:
            logits = ops.reshape(logits, logits.shape[1:])
            features = ops.reshape(features, features.shape[1:])
        return ops.result(logits), ops.result(features)

    def logits_from_features(self, features):
        """Head applied to a feature Tensor (teacher supervision path)."""
        ops = T.forward_ops()
        return ops.result(self._logits(ops.leaf(features), ops))

    def _logits(self, features, ops):
        return self.head(self.final_norm(features, ops), ops)

    def new_cache(self):
        return KvCache(self.config.n_layers)

    def named_tensors(self):
        out = {"embed.weight": self.embed,
               "final_norm.weight": self.final_norm.weight,
               "head.weight": self.head.weight}
        for i, layer in enumerate(self.layers):
            out.update(layer.named_tensors(f"layers.{i}."))
        return out

    def parameters(self):
        return list(self.named_tensors().values())

    def set_trainable(self, flag):
        for p in self.parameters():
            p.requires_grad = flag


class FeatureSampler:
    """Gated fusion of a feature row with the next token's embedding.

    The feature is lifted to the intermediate space, gated elementwise by
    SiLU-activated projected embeddings, mapped back down, and added to
    the original feature.  Output shape always equals the feature input's.
    """

    def __init__(self, rng, config):
        c, i = config.hidden_size, config.intermediate_size
        self.up = Linear(rng, c, i)
        self.gate = Linear(rng, c, i)
        self.down = Linear(rng, i, c)

    def __call__(self, feats, embeds, ops=T.TAPE):
        sampled = ops.mul(ops.silu(self.gate(embeds, ops)), self.up(feats, ops))
        return ops.add(feats, self.down(sampled, ops))

    def named_tensors(self):
        return {"connector.up.weight": self.up.weight,
                "connector.gate.weight": self.gate.weight,
                "connector.down.weight": self.down.weight}


class LinearCombiner:
    """Affine map on concat(feature, embedding) -> hidden."""

    def __init__(self, rng, config):
        c = config.hidden_size
        self.weight = _init(rng, (2 * c, c))
        self.bias = Tensor(np.zeros(c, dtype=np.float32), requires_grad=True)

    def __call__(self, feats, embeds, ops=T.TAPE):
        return ops.add(ops.matmul(ops.concat_last([feats, embeds]), ops.leaf(self.weight)),
                       ops.leaf(self.bias))

    def named_tensors(self):
        return {"connector.weight": self.weight, "connector.bias": self.bias}


class DraftStepOutput:
    """Per-position draft outputs.

    ``logit_feature`` feeds the shared output head; ``next_feature``
    feeds the connector at the following autoregressive step.  Both
    include the same post-attention residual.
    """

    __slots__ = ("logit_feature", "next_feature", "logits")

    def __init__(self, logit_feature, next_feature, logits):
        self.logit_feature = logit_feature
        self.next_feature = next_feature
        self.logits = logits


VARIANTS = ("fspad", "no_fs", "no_pad", "neither")


class DraftModel:
    """One decoder layer over fused inputs, plus the connector.

    Shares the target's embedding table, final norm, and output head by
    reference; those stay frozen when the draft trains.  With
    ``dual_path`` the layer's MLP emits 2x hidden and the halves are
    split around one shared residual; otherwise both output roles are
    the same tensor.
    """

    def __init__(self, config, target, variant="fspad", seed=1):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown draft variant {variant!r}; expected one of {VARIANTS}")
        rng = np.random.default_rng(seed)
        self.config = config
        self.variant = variant
        self.target = target
        self.dual_path = variant in ("fspad", "no_fs")
        if variant in ("fspad", "no_pad"):
            self.connector = FeatureSampler(rng, config)
        else:
            self.connector = LinearCombiner(rng, config)
        self.layer = DecoderLayer(rng, config, mlp_out_mult=2 if self.dual_path else 1)

    def forward(self, feats, tokens, positions=None, mask=None, cache=None):
        """Run the draft layer over fused rows; returns DraftStepOutput.

        ``feats`` is a (B, T, hidden) array of target or carry features
        and ``tokens`` the (B, T) ids whose embeddings the connector fuses
        into them, row by row.  Outputs are (B, T, ...).
        """
        ops = T.forward_ops()
        feats, tokens = ops.const(feats), np.asarray(tokens)
        if tokens.ndim != 2 or feats.shape != tokens.shape + (self.config.hidden_size,):
            raise DimensionError(
                f"features {feats.shape} do not match tokens {tokens.shape} "
                f"and hidden size {self.config.hidden_size}"
            )
        fused = self.connector(feats, ops.embedding(ops.leaf(self.target.embed), tokens), ops)
        rope, bias = _preamble(self.config, fused, positions, mask, cache)
        r = self.layer.residual_after_attention(fused, rope, bias, cache, 0, ops)
        m = self.layer.mlp(self.layer.mlp_norm(r, ops), ops)
        if self.dual_path:
            m_logit, m_auto = ops.split_last(m, [self.config.hidden_size] * 2)
            logit_feature, next_feature = ops.add(r, m_logit), ops.add(r, m_auto)
        else:
            logit_feature = next_feature = ops.add(r, m)
        logits = ops.result(self.target._logits(logit_feature, ops))
        logit_out = ops.result(logit_feature)
        # a single-path draft returns one Tensor in both roles
        next_out = ops.result(next_feature) if self.dual_path else logit_out
        return DraftStepOutput(logit_out, next_out, logits)

    def new_cache(self):
        return KvCache(1)

    def named_tensors(self):
        return {**self.connector.named_tensors(), **self.layer.named_tensors("layer.")}

    def parameters(self):
        return list(self.named_tensors().values())

    def set_trainable(self, flag):
        for p in self.parameters():
            p.requires_grad = flag


# ---------------------------------------------------------------------------
# checkpoint format
#
# magic "FSPD" | u32 version=1 | u32 config-JSON length | config JSON UTF-8 |
# u32 tensor count | per tensor: u16 name length, name, u8 rank,
# u32 dims[rank], float32 little-endian row-major data.

MAGIC = b"FSPD"
VERSION = 1


def write_atomic(path, data):
    """Write bytes through a sibling temp file and ``os.replace``, so that a
    failed write leaves any earlier file at ``path`` whole."""
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_checkpoint(model, path):
    """Serialize a TargetModel or DraftModel bit-exactly."""
    if isinstance(model, TargetModel):
        meta = {"kind": "target", "config": model.config.to_dict()}
    elif isinstance(model, DraftModel):
        meta = {"kind": "draft", "config": model.config.to_dict(), "variant": model.variant}
    else:
        raise ContractError(f"cannot checkpoint object of type {type(model).__name__}")
    tensors = model.named_tensors()
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    buf.write(struct.pack("<I", len(meta_bytes)))
    buf.write(meta_bytes)
    buf.write(struct.pack("<I", len(tensors)))
    for name, t in tensors.items():
        nb = name.encode("utf-8")
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        arr = np.ascontiguousarray(t.data, dtype=np.float32)
        buf.write(struct.pack("<B", arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(arr.astype("<f4", copy=False).tobytes())
    write_atomic(path, buf.getvalue())


def _read_exact(f, n, what):
    data = f.read(n)
    if len(data) != n:
        raise CheckpointFormatError(f"truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path, target=None):
    """Rebuild a model from a checkpoint written by ``save_checkpoint``.

    Draft checkpoints need the live ``target`` whose embedding/head they
    share.  Every tensor is restored bit-exactly; any structural problem
    raises CheckpointFormatError naming the offender.
    """
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != MAGIC:
            raise CheckpointFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        (json_len,) = struct.unpack("<I", _read_exact(f, 4, "config length"))
        try:
            meta = json.loads(_read_exact(f, json_len, "config JSON").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointFormatError(f"unreadable config JSON: {e}") from e
        if not isinstance(meta, dict) or not isinstance(meta.get("config", {}), dict):
            raise CheckpointFormatError("checkpoint metadata and its config must be JSON objects")
        kind = meta.get("kind")
        try:
            config = ModelConfig.from_dict(meta.get("config", {}))
            if kind == "target":
                model = TargetModel(config, seed=0)
            elif kind == "draft":
                if target is None:
                    raise ContractError("loading a draft checkpoint requires the target model")
                model = DraftModel(config, target, variant=meta.get("variant", "fspad"), seed=0)
            else:
                raise CheckpointFormatError(f"unknown checkpoint kind {kind!r}")
        except ConfigError as e:
            raise CheckpointFormatError(f"stored {kind} config is invalid: {e}") from e
        expected = model.named_tensors()
        seen = set()
        (count,) = struct.unpack("<I", _read_exact(f, 4, "tensor count"))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "tensor name length"))
            name = _read_exact(f, name_len, "tensor name").decode("utf-8")
            if name not in expected:
                raise CheckpointFormatError(f"unknown tensor name {name!r}")
            if name in seen:
                raise CheckpointFormatError(f"duplicate tensor {name!r}")
            seen.add(name)
            (rank,) = struct.unpack("<B", _read_exact(f, 1, f"{name} rank"))
            dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, f"{name} dims"))
            t = expected[name]
            if tuple(dims) != t.data.shape:
                raise CheckpointFormatError(
                    f"tensor {name!r} has shape {dims}, config implies {t.data.shape}"
                )
            n_bytes = 4 * int(np.prod(dims, dtype=np.int64)) if rank else 4
            raw = _read_exact(f, n_bytes, f"{name} data")
            t.data = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float32)
        if seen != set(expected):
            missing = sorted(set(expected) - seen)
            raise CheckpointFormatError(f"checkpoint is missing tensors: {missing}")
        trailing = f.read(1)
        if trailing:
            raise CheckpointFormatError("trailing bytes after final tensor")
    return model
