"""Target and draft models.

The target is a small LLaMA-style decoder-only transformer that exposes,
alongside logits, the feature sequence: the hidden state entering the
final norm + output head.  The draft model is a single decoder layer
whose MLP can emit two hidden-size outputs sharing one residual: one
feeds the output head (logit path), the other feeds the next
autoregressive step.  The draft takes target (or carry) features and
token ids; its connector fuses feature row i with the embedding of token
i into the layer's input row.

Both forwards return (logits, features), the features being what the
next step reads, and share one preamble: the boolean visibility mask over
the last keys (every earlier, committed key is visible) defaults to
causal, places each row at the number of keys it sees less one, and
becomes an additive bias once (none at all when every row sees every key,
as in a 1-row decode); the rows of the rotary tables for those positions
are picked once per forward and handed to every layer.  The tables
themselves are built once per (max_seq_len, head_dim, base, dtype).

Each attention layer keeps its Q, K and V projections in one (3, hidden,
hidden) parameter, computed by one matmul and rotated by one RoPE; the
names ``attn.wq`` / ``attn.wk`` / ``attn.wv`` stay, each a live view of
its slab, so checkpoints still store one tensor per name.

Every forward picks its ops once and hands them to every layer: a forward
given a KV cache is an inference forward and runs ``tensor.KERNELS``, the
tape ops' own kernels on bare arrays, whatever the grad mode; any other
runs ``tensor.forward_ops()``, the tape ops unless under ``no_grad``.
Inference builds Tensors only for what a forward returns.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from . import tensor as T
from .errors import CapacityError, CheckpointFormatError, ConfigError, ContractError, DimensionError
from .tensor import Tensor

MASK_OFF = -1e9  # additive attention bias for disallowed positions


_ACCEPTED = {float: (int, float), tuple: (list, tuple)}


class ConfigSection:
    """Mixin for config dataclasses named by ``section``: ``from_dict``
    rejects undeclared keys and values whose type is not the default's
    (an int passes as a float and a list as a tuple; a bool is no int),
    and every construction checks each field named in ``minimums``
    against its least value (as ``not value >= least``, so NaN fails)."""

    minimums = {}

    def __post_init__(self):
        for name, least in self.minimums.items():
            value = getattr(self, name)
            if not value >= least:
                raise ConfigError(f"{self.section}.{name} must be >= {least}, got {value!r}")

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

    minimums = dict.fromkeys(("vocab_size", "hidden_size", "intermediate_size", "n_layers",
                              "n_heads", "max_seq_len"), 1)

    def __post_init__(self):
        super().__post_init__()
        if not self.rope_base > 0:
            raise ConfigError(f"model.rope_base must be > 0, got {self.rope_base}")
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
    """A trainable N(0, scale) draw from ``rng``, or zeros for a None ``rng``
    (a model whose every tensor is about to be overwritten)."""
    data = np.zeros(shape, np.float32) if rng is None else rng.normal(0.0, scale, size=shape)
    return Tensor(data.astype(np.float32, copy=False), requires_grad=True)


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


class KvCache:
    """Per-layer cached keys/values for one sequence (batch 1).

    Every layer's rows live in one (n_layers, 2, n_heads, capacity,
    head_dim) array, keys at ``[:, 0]`` and values at ``[:, 1]``, that
    ``append`` fills in place and reallocates at twice the rows when full;
    ``keys[i]`` / ``values[i]`` are layer i's filled (n_heads, length,
    head_dim) views (None before the first append).  A view taken before
    the array grows goes stale.  The cache covers a committed prefix plus,
    transiently, uncommitted tree rows, and ``keep`` is the one way rows
    leave it.
    """

    def __init__(self, n_layers):
        self._kv = None
        self._len = [0] * n_layers

    keys = property(lambda self: self._views(0))
    values = property(lambda self: self._views(1))

    def _views(self, kind):
        kv = self._kv
        return [None if kv is None else kv[i, kind, :, :n] for i, n in enumerate(self._len)]

    def __len__(self):
        return self._len[0]

    def append(self, layer, k, v):
        """Write (n_heads, rows, head_dim) keys and values after the layer's
        rows; returns the layer's filled key and value views."""
        n = self._len[layer]
        end = n + k.shape[1]
        if self._kv is None or end > self._kv.shape[3]:
            grown = np.empty((len(self._len), 2, k.shape[0], max(end, 2 * n), k.shape[2]),
                             dtype=k.dtype)
            if self._kv is not None:
                grown[:, :, :, :self._kv.shape[3]] = self._kv
            self._kv = grown
        kv = self._kv[layer]
        kv[0, :, n:end], kv[1, :, n:end] = k, v
        self._len[layer] = end
        return kv[0, :, :end], kv[1, :, :end]

    def keep(self, length, rows=()):
        """Cut every layer to its first ``length`` rows, where they stay,
        followed by the rows ``rows`` in order: one gather for all layers.
        A cut never lengthens the cache."""
        rows = np.asarray(rows, dtype=np.intp)
        have, end = min(self._len), length + len(rows)
        if not 0 <= length <= end <= have or ((rows < 0) | (rows >= have)).any():
            raise ContractError(f"cannot cut a cache of {have} rows to its first {length} "
                                f"and rows {rows.tolist()}")
        if len(rows):
            self._kv[:, :, :, length:end] = self._kv[:, :, :, rows]
        self._len = [end] * len(self._len)


class _Slab:
    """Slab ``index`` of a stacked parameter, standing in for a weight of
    its own: ``data`` reads the slab, assigning ``data`` copies into it,
    and ``grad`` reads the stack's gradient at the slab."""

    __slots__ = ("stack", "index")

    def __init__(self, stack, index):
        self.stack = stack
        self.index = index

    @property
    def data(self):
        return self.stack.data[self.index]

    @data.setter
    def data(self, value):
        self.stack.data[self.index] = value

    @property
    def grad(self):
        return None if self.stack.grad is None else self.stack.grad[self.index]


def _distinct(named):
    """The parameters behind ``named`` in order, a stack once for all its slabs."""
    return list(dict.fromkeys(t.stack if isinstance(t, _Slab) else t for t in named.values()))


class Attention:
    def __init__(self, rng, config):
        c = config.hidden_size
        self.config = config
        # drawn as three (c, c) projections, in the order the separate
        # layout drew them, so that every initialisation stays the same
        self.wqkv = Tensor(np.stack([_init(rng, (c, c)).data for _ in range(3)]),
                           requires_grad=True)
        self.wq, self.wk, self.wv = (SimpleNamespace(weight=_Slab(self.wqkv, i)) for i in range(3))
        self.wo = Linear(rng, c, c)

    def __call__(self, x, rope, bias, cache=None, layer_idx=0, ops=T.TAPE):
        b, t, c = x.shape
        h, dh = self.config.n_heads, self.config.head_dim

        # (1, b*t, c) @ (3, c, c): the three projections in one call, and
        # one rotation of q|k, (2, b, t, h, dh), by the (t, 1, dh) rows
        qkv = ops.matmul(ops.reshape(x, (1, b * t, c)), ops.leaf(self.wqkv))
        qkv = ops.reshape(qkv, (3, b, t, h, dh))
        qk = ops.rope(ops.index(qkv, slice(0, 2)), rope[0][:, None], rope[1][:, None])
        qk = ops.transpose(qk, (0, 1, 3, 2, 4))
        q, k = ops.index(qk, 0), ops.index(qk, 1)
        v = ops.transpose(ops.index(qkv, 2), (0, 2, 1, 3))

        if cache is not None:
            if b != 1:
                raise ContractError("cached attention supports batch size 1")
            # a forward given a cache runs on arrays: the model hands it KERNELS
            k, v = (a[None] for a in cache.append(layer_idx, k[0], v[0]))

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


def causal_mask(t):
    """Boolean (t, t) visibility letting row i see rows 0..i."""
    return np.arange(t)[None, :] <= np.arange(t)[:, None]


def _preamble(config, x, mask, cache):
    """Rotary rows and additive bias for the rows of ``x`` (B, T, hidden).

    ``mask`` is a boolean (T, K) visibility over the last K keys, T <= K <=
    cached + T, in which row r must see its own key, column K - T + r;
    every earlier key is visible to every row.  It defaults to causal over
    the T rows; a mask of any other dtype raises ``ContractError``.  A
    row's position is the number of keys it sees, less one.  The bias,
    (T, K), is None when every row sees every key.  T must be at least 1.
    """
    t = x.shape[1]
    if t == 0:
        raise ContractError("a forward pass needs at least one row")
    past = len(cache) if cache is not None else 0
    if mask is None:
        mask, positions = causal_mask(t), np.arange(past, past + t)
    else:
        if mask.dtype != bool:
            raise ContractError(f"attention mask must be boolean, got {mask.dtype}")
        if mask.ndim != 2 or mask.shape[0] != t or not t <= mask.shape[1] <= past + t:
            raise ContractError(f"attention mask shape {mask.shape} is not ({t}, K) for a K "
                                f"in [{t}, {past + t}], the queries and the last keys")
        own = mask[:, -t:].diagonal()
        if not own.all():
            raise ContractError(f"attention mask row {int(own.argmin())} does not see its own key")
        positions = past + t - mask.shape[1] - 1 + mask.sum(axis=1)
    if positions.max() >= config.max_seq_len:
        raise CapacityError(
            f"position {int(positions.max())} exceeds max_seq_len {config.max_seq_len}"
        )
    rope = rotary_rows(config, positions, x.dtype)
    if mask.all():
        return rope, None
    bias = np.zeros(mask.shape, dtype=np.float32)
    bias[~mask] = MASK_OFF
    return rope, bias


class TargetModel:
    """Decoder-only transformer exposing (logits, features) per position."""

    def __init__(self, config, seed=0):
        """Parameters drawn from ``seed``; all zeros for a None ``seed``."""
        rng = None if seed is None else np.random.default_rng(seed)
        self.config = config
        self.embed = _init(rng, (config.vocab_size, config.hidden_size))
        self.layers = [DecoderLayer(rng, config) for _ in range(config.n_layers)]
        self.final_norm = RMSNorm(config.hidden_size)
        self.head = Linear(rng, config.hidden_size, config.vocab_size)

    def forward(self, tokens, mask=None, cache=None):
        """Run the stack over ``tokens``.

        tokens: int array (T,) or (B, T).  ``mask`` is the rows' visibility
        over the last keys, which also places them (see ``_preamble``).
        When ``cache`` is given the new keys/values are appended (batch
        must be 1), and no gradient reaches the outputs.
        Returns (logits, features), each with the batch layout of the
        input.
        """
        ops = T.KERNELS if cache is not None else T.forward_ops()
        tokens = np.asarray(tokens)
        squeeze = tokens.ndim == 1
        if squeeze:
            tokens = tokens[None]
        features = ops.embedding(ops.leaf(self.embed), tokens)
        rope, bias = _preamble(self.config, features, mask, cache)
        for i, layer in enumerate(self.layers):
            features = layer(features, rope, bias, cache, i, ops)
        logits = self._logits(features, ops)
        if squeeze:
            logits = ops.reshape(logits, logits.shape[1:])
            features = ops.reshape(features, features.shape[1:])
        return ops.result(logits), ops.result(features)

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
        return _distinct(self.named_tensors())

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


VARIANTS = ("fspad", "no_fs", "no_pad", "neither")


class DraftModel:
    """One decoder layer over fused inputs, plus the connector.

    Shares the target's embedding table, final norm, and output head by
    reference; those stay frozen when the draft trains.  With
    ``dual_path`` the layer's MLP emits 2x hidden and the halves are
    split around one shared residual: the logit half feeds the head, the
    other is the feature the next autoregressive step reads.  Otherwise
    the head reads the returned feature itself.  The config must be the
    target's: a draft sized for another target raises ``ConfigError``.
    """

    def __init__(self, config, target, variant="fspad", seed=1):
        """Parameters drawn from ``seed``; all zeros for a None ``seed``."""
        if variant not in VARIANTS:
            raise ConfigError(f"unknown draft variant {variant!r}; expected one of {VARIANTS}")
        if config != target.config:
            raise ConfigError(f"draft config {config} is not its target's, {target.config}")
        rng = None if seed is None else np.random.default_rng(seed)
        self.config = config
        self.variant = variant
        self.target = target
        self.dual_path = variant in ("fspad", "no_fs")
        if variant in ("fspad", "no_pad"):
            self.connector = FeatureSampler(rng, config)
        else:
            self.connector = LinearCombiner(rng, config)
        self.layer = DecoderLayer(rng, config, mlp_out_mult=2 if self.dual_path else 1)

    def forward(self, feats, tokens, mask=None, cache=None):
        """Run the draft layer over fused rows; returns (logits, features).

        ``feats`` is a (B, T, hidden) array of target or carry features
        and ``tokens`` the (B, T) ids whose embeddings the connector fuses
        into them, row by row.  ``logits`` are the shared head's on the
        logit path and ``features`` the autoregression path's, the carry
        of the next step; both are (B, T, ...).  ``mask`` and ``cache``
        are as in ``TargetModel.forward``.
        """
        ops = T.KERNELS if cache is not None else T.forward_ops()
        feats, tokens = ops.const(feats), np.asarray(tokens)
        if tokens.ndim != 2 or feats.shape != tokens.shape + (self.config.hidden_size,):
            raise DimensionError(
                f"features {feats.shape} do not match tokens {tokens.shape} "
                f"and hidden size {self.config.hidden_size}"
            )
        fused = self.connector(feats, ops.embedding(ops.leaf(self.target.embed), tokens), ops)
        rope, bias = _preamble(self.config, fused, mask, cache)
        r = self.layer.residual_after_attention(fused, rope, bias, cache, 0, ops)
        m = self.layer.mlp(self.layer.mlp_norm(r, ops), ops)
        if self.dual_path:
            h = self.config.hidden_size
            m_logit, m_auto = ops.index(m, (..., slice(0, h))), ops.index(m, (..., slice(h, None)))
            logit_feature, features = ops.add(r, m_logit), ops.add(r, m_auto)
        else:
            logit_feature = features = ops.add(r, m)
        return ops.result(self.target._logits(logit_feature, ops)), ops.result(features)

    def new_cache(self):
        return KvCache(1)

    def named_tensors(self):
        return {**self.connector.named_tensors(), **self.layer.named_tensors("layer.")}

    def parameters(self):
        return _distinct(self.named_tensors())

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
                model = TargetModel(config, seed=None)
            elif kind == "draft":
                if target is None:
                    raise ContractError("loading a draft checkpoint requires the target model")
                model = DraftModel(config, target, variant=meta.get("variant", "fspad"),
                                   seed=None)
            else:
                raise CheckpointFormatError(f"unknown checkpoint kind {kind!r}")
        except ConfigError as e:
            raise CheckpointFormatError(f"stored {kind} config is invalid: {e}") from e
        expected = model.named_tensors()
        seen = set()
        (count,) = struct.unpack("<I", _read_exact(f, 4, "tensor count"))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "tensor name length"))
            raw_name = _read_exact(f, name_len, "tensor name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointFormatError(f"tensor name {raw_name!r} is not UTF-8") from e
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
