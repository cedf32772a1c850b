"""Target and draft models.

The target is a small LLaMA-style decoder-only transformer that exposes,
alongside logits, the feature sequence: the hidden state entering the
final norm + output head.  The draft model is a single decoder layer
whose MLP can emit two hidden-size outputs sharing one residual: one
feeds the output head (logit path), the other feeds the next
autoregressive step.  A connector fuses a feature with the next token's
embedding into the draft model's input row.

All inference paths are expected to run inside ``tensor.no_grad()``.
"""

from __future__ import annotations

import io
import json
import os
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .errors import CapacityError, CheckpointFormatError, ConfigError, ContractError, DimensionError
from .tensor import Tensor

MASK_OFF = -1e9  # additive attention bias for disallowed positions


class ConfigSection:
    """Mixin for config dataclasses named by ``section``: ``from_dict``
    rejects undeclared keys."""

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown {cls.section} config keys: {sorted(unknown)}")
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

    def __call__(self, x):
        return T.matmul(x, self.weight)


class RMSNorm:
    def __init__(self, size):
        self.weight = Tensor(np.ones(size, dtype=np.float32), requires_grad=True)

    def __call__(self, x):
        return T.rms_norm(x, self.weight)


def rope_tables(positions, head_dim, base, dtype=np.float32):
    """cos/sin tables, shape (len(positions), head_dim // 2)."""
    positions = np.asarray(positions, dtype=np.float64)
    inv_freq = base ** (-np.arange(0, head_dim // 2, dtype=np.float64) * 2.0 / head_dim)
    angles = positions[:, None] * inv_freq[None, :]
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


def _apply_rope(x, cos, sin):
    # x: (B, H, T, Dh); tables broadcast over batch and heads
    half = x.data.shape[-1] // 2
    x1, x2 = T.split_last(x, [half, half])
    c = cos[None, None, :, :]
    s = sin[None, None, :, :]
    return T.concat_last([
        T.sub(T.mul(x1, Tensor(c)), T.mul(x2, Tensor(s))),
        T.add(T.mul(x2, Tensor(c)), T.mul(x1, Tensor(s))),
    ])


class KvCache:
    """Per-layer cached keys/values for one sequence (batch 1).

    Arrays have shape (n_heads, length, head_dim).  The cache covers a
    committed prefix plus, transiently, an uncommitted tree region that
    ``keep`` compacts away after verification.
    """

    def __init__(self, n_layers):
        self.keys = [None] * n_layers
        self.values = [None] * n_layers

    def __len__(self):
        return 0 if self.keys[0] is None else self.keys[0].shape[1]

    def append(self, layer, k, v):
        if self.keys[layer] is None:
            self.keys[layer] = k
            self.values[layer] = v
        else:
            self.keys[layer] = np.concatenate([self.keys[layer], k], axis=1)
            self.values[layer] = np.concatenate([self.values[layer], v], axis=1)

    def truncate(self, length):
        for i in range(len(self.keys)):
            if self.keys[i] is not None:
                self.keys[i] = self.keys[i][:, :length]
                self.values[i] = self.values[i][:, :length]

    def keep(self, indices):
        """Compact the cache down to the given positions, in order."""
        idx = np.asarray(indices)
        for i in range(len(self.keys)):
            self.keys[i] = self.keys[i][:, idx]
            self.values[i] = self.values[i][:, idx]


class Attention:
    def __init__(self, rng, config):
        c = config.hidden_size
        self.config = config
        self.wq = Linear(rng, c, c)
        self.wk = Linear(rng, c, c)
        self.wv = Linear(rng, c, c)
        self.wo = Linear(rng, c, c)

    def __call__(self, x, positions, attn_bias, cache=None, layer_idx=0):
        b, t, c = x.data.shape
        h, dh = self.config.n_heads, self.config.head_dim
        cos, sin = rope_tables(positions, dh, self.config.rope_base, dtype=x.dtype)

        def heads(z):
            return T.transpose(T.reshape(z, (b, t, h, dh)), (0, 2, 1, 3))

        q = _apply_rope(heads(self.wq(x)), cos, sin)
        k = _apply_rope(heads(self.wk(x)), cos, sin)
        v = heads(self.wv(x))

        if cache is not None:
            if b != 1:
                raise ContractError("cached attention supports batch size 1")
            cache.append(layer_idx, k.data[0], v.data[0])
            k = Tensor(cache.keys[layer_idx][None])
            v = Tensor(cache.values[layer_idx][None])

        scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
        if attn_bias is not None:
            if attn_bias.shape != (t, k.data.shape[2]):
                raise ContractError(
                    f"attention bias shape {attn_bias.shape} does not match "
                    f"(queries, keys) = ({t}, {k.data.shape[2]})"
                )
            scores = T.add_const(scores, attn_bias[None, None])
        attn = T.softmax(scores, axis=-1)
        out = T.transpose(T.matmul(attn, v), (0, 2, 1, 3))
        return self.wo(T.reshape(out, (b, t, c)))


class GatedMLP:
    """SiLU-gated MLP; ``out_mult`` widens the down projection output."""

    def __init__(self, rng, config, out_mult=1):
        c, i = config.hidden_size, config.intermediate_size
        self.gate = Linear(rng, c, i)
        self.up = Linear(rng, c, i)
        self.down = Linear(rng, i, c * out_mult)

    def __call__(self, x):
        return self.down(T.mul(T.silu(self.gate(x)), self.up(x)))


class DecoderLayer:
    def __init__(self, rng, config, mlp_out_mult=1):
        self.attn_norm = RMSNorm(config.hidden_size)
        self.attn = Attention(rng, config)
        self.mlp_norm = RMSNorm(config.hidden_size)
        self.mlp = GatedMLP(rng, config, out_mult=mlp_out_mult)

    def residual_after_attention(self, x, positions, attn_bias, cache=None, layer_idx=0):
        return T.add(x, self.attn(self.attn_norm(x), positions, attn_bias, cache, layer_idx))

    def __call__(self, x, positions, attn_bias, cache=None, layer_idx=0):
        r = self.residual_after_attention(x, positions, attn_bias, cache, layer_idx)
        return T.add(r, self.mlp(self.mlp_norm(r)))

    def named_tensors(self, prefix):
        parts = {"attn_norm": self.attn_norm, "attn.wq": self.attn.wq, "attn.wk": self.attn.wk,
                 "attn.wv": self.attn.wv, "attn.wo": self.attn.wo, "mlp_norm": self.mlp_norm,
                 "mlp.gate": self.mlp.gate, "mlp.up": self.mlp.up, "mlp.down": self.mlp.down}
        return {f"{prefix}{name}.weight": part.weight for name, part in parts.items()}


def causal_bias(n_queries, n_keys, dtype=np.float32):
    """Additive mask letting query i see keys 0..(n_keys - n_queries + i)."""
    offset = n_keys - n_queries
    if offset < 0:
        raise ContractError(f"more queries ({n_queries}) than keys ({n_keys})")
    bias = np.zeros((n_queries, n_keys), dtype=dtype)
    cols = np.arange(n_keys)[None, :]
    rows = np.arange(n_queries)[:, None]
    bias[cols > rows + offset] = MASK_OFF
    return bias


def allowed_to_bias(allowed, dtype=np.float32):
    """Boolean visibility matrix -> additive attention bias."""
    bias = np.zeros(allowed.shape, dtype=dtype)
    bias[~allowed] = MASK_OFF
    return bias


class TargetModel:
    """Decoder-only transformer exposing (logits, features) per position."""

    def __init__(self, config, seed=0):
        rng = np.random.default_rng(seed)
        self.config = config
        self.embed = _init(rng, (config.vocab_size, config.hidden_size))
        self.layers = [DecoderLayer(rng, config) for _ in range(config.n_layers)]
        self.final_norm = RMSNorm(config.hidden_size)
        self.head = Linear(rng, config.hidden_size, config.vocab_size)

    def forward(self, tokens, positions=None, attn_bias=None, cache=None):
        """Run the stack over ``tokens``.

        tokens: int array (T,) or (B, T).  When ``cache`` is given the
        new keys/values are appended (batch must be 1) and ``positions``
        /``attn_bias`` describe the new rows against the grown cache.
        Returns (logits, features), each with the batch layout of the
        input.
        """
        tokens = np.asarray(tokens)
        squeeze = tokens.ndim == 1
        if squeeze:
            tokens = tokens[None]
        b, t = tokens.shape
        past = len(cache) if cache is not None else 0
        if positions is None:
            positions = np.arange(past, past + t)
        positions = np.asarray(positions)
        if positions.max(initial=0) >= self.config.max_seq_len:
            raise CapacityError(
                f"position {int(positions.max())} exceeds max_seq_len {self.config.max_seq_len}"
            )
        if attn_bias is None:
            attn_bias = causal_bias(t, past + t)

        x = T.embedding(self.embed, tokens)
        for i, layer in enumerate(self.layers):
            x = layer(x, positions, attn_bias, cache, i)
        features = x
        logits = self.head(self.final_norm(features))
        if squeeze:
            return T.reshape(logits, logits.data.shape[1:]), T.reshape(features, features.data.shape[1:])
        return logits, features

    def logits_from_features(self, features):
        """Head applied to a feature sequence (teacher supervision path)."""
        return self.head(self.final_norm(features))

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

    variant_label = "feature_sampler"

    def __init__(self, rng, config):
        c, i = config.hidden_size, config.intermediate_size
        self.up = Linear(rng, c, i)
        self.gate = Linear(rng, c, i)
        self.down = Linear(rng, i, c)

    def __call__(self, feats, embeds):
        if feats.data.shape != embeds.data.shape:
            raise DimensionError(
                f"feature shape {feats.data.shape} does not match embedding shape {embeds.data.shape}"
            )
        sampled = T.mul(T.silu(self.gate(embeds)), self.up(feats))
        return T.add(feats, self.down(sampled))

    def named_tensors(self):
        return {"connector.up.weight": self.up.weight,
                "connector.gate.weight": self.gate.weight,
                "connector.down.weight": self.down.weight}


class LinearCombiner:
    """Affine map on concat(feature, embedding) -> hidden."""

    variant_label = "linear_combiner"

    def __init__(self, rng, config):
        c = config.hidden_size
        self.weight = _init(rng, (2 * c, c))
        self.bias = Tensor(np.zeros(c, dtype=np.float32), requires_grad=True)

    def __call__(self, feats, embeds):
        if feats.data.shape != embeds.data.shape:
            raise DimensionError(
                f"feature shape {feats.data.shape} does not match embedding shape {embeds.data.shape}"
            )
        return T.add(T.matmul(T.concat_last([feats, embeds]), self.weight), self.bias)

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

    @property
    def embed(self):
        return self.target.embed

    def fuse(self, feats, embeds):
        return self.connector(feats, embeds)

    def forward(self, fused, positions=None, attn_bias=None, cache=None):
        """Run the draft layer over fused rows; returns DraftStepOutput.

        ``fused`` is (B, T, hidden) or (T, hidden).
        """
        squeeze = fused.data.ndim == 2
        if squeeze:
            fused = T.reshape(fused, (1,) + fused.data.shape)
        b, t, _ = fused.data.shape
        past = len(cache) if cache is not None else 0
        if positions is None:
            positions = np.arange(past, past + t)
        if attn_bias is None:
            attn_bias = causal_bias(t, past + t)
        r = self.layer.residual_after_attention(fused, positions, attn_bias, cache, 0)
        m = self.layer.mlp(self.layer.mlp_norm(r))
        if self.dual_path:
            m_logit, m_auto = T.split_last(m, [self.config.hidden_size] * 2)
            logit_feature = T.add(r, m_logit)
            next_feature = T.add(r, m_auto)
        else:
            logit_feature = next_feature = T.add(r, m)
        logits = self.target.logits_from_features(logit_feature)
        if squeeze:
            tied = logit_feature is next_feature
            logit_feature = T.reshape(logit_feature, logit_feature.data.shape[1:])
            next_feature = logit_feature if tied else T.reshape(next_feature, next_feature.data.shape[1:])
            logits = T.reshape(logits, logits.data.shape[1:])
        return DraftStepOutput(logit_feature, next_feature, logits)

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
        config = ModelConfig.from_dict(meta.get("config", {}))
        kind = meta.get("kind")
        if kind == "target":
            model = TargetModel(config, seed=0)
        elif kind == "draft":
            if target is None:
                raise ContractError("loading a draft checkpoint requires the target model")
            model = DraftModel(config, target, variant=meta.get("variant", "fspad"), seed=0)
        else:
            raise CheckpointFormatError(f"unknown checkpoint kind {kind!r}")
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
