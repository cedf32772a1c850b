"""Dense-tensor math with reverse-mode automatic differentiation.

Tensors wrap float32 numpy arrays (float64 is accepted everywhere for
oracle-grade math); reductions accumulate in float64 before casting back
to the storage dtype.  Differentiable ops append an entry to a global
tape; ``backward`` replays the tape once, in reverse recorded order.
The tape is rebuilt from scratch every training step, and inference code
runs inside ``no_grad()`` so the tape stays empty.

Each forward op is a private kernel (arrays in, an array out, with the
op's shape, range and NaN checks and its float64 accumulation; for
``add``, ``sub`` and ``mul`` the numpy ufunc itself) and a public tape op
that computes its value with the kernel and records the backward pass.
``forward_ops()`` hands a model forward either the tape ops (``TAPE``)
or, under ``no_grad``, the kernels themselves (``KERNELS``), so inference
builds no Tensor below the forward boundary and its values are
bit-identical to the tape's.
"""

from __future__ import annotations

import sys
import warnings
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from .errors import ContractError, DimensionError, NumericError


class Tensor:
    """A dense n-d array, optionally tracked for gradients.

    ``grad`` is allocated lazily and always matches ``data``'s shape.
    A tensor with ``requires_grad=False`` never accumulates gradient.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _float_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g):
        if g.shape != self.data.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _float_array(data, dtype=None):
    """``data`` as a float32 or float64 array; other dtypes become float32."""
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class _TapeEntry:
    __slots__ = ("out", "parents", "backward_fn")

    def __init__(self, out, parents, backward_fn):
        self.out = out
        self.parents = parents
        self.backward_fn = backward_fn


_TAPE: list[_TapeEntry] = []
_GRAD_ENABLED = True


def tape_size():
    return len(_TAPE)


def clear_tape():
    """Drop recorded ops and their intermediate gradients.

    Parameter data is untouched; only gradient state of recorded
    outputs is reset.
    """
    for entry in _TAPE:
        entry.out.grad = None
    _TAPE.clear()


@contextmanager
def no_grad():
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _record(out, parents, backward_fn):
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        _TAPE.append(_TapeEntry(out, parents, backward_fn))
    return out


def backward(loss):
    """Populate ``grad`` on every tensor the scalar ``loss`` depends on.

    Replays the global tape in reverse recorded order; each entry is
    visited exactly once.  Leaves unrelated to ``loss`` keep grad None,
    which reads as zero.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ContractError("loss is not on the tape (requires_grad is False)")
    loss.grad = np.ones_like(loss.data)
    for entry in reversed(_TAPE):
        g = entry.out.grad
        if g is None:
            continue
        parent_grads = entry.backward_fn(g)
        for parent, pg in zip(entry.parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            parent.accumulate_grad(pg)


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else np.float32
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)), dtype=np.float64)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True, dtype=np.float64)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise ops


def _scale_bias(x, s, bias):
    """``x * s + bias``, written into ``x``: pass a score array that
    nothing else reads.  ``s`` multiplies as a Python float, so a float32
    ``x`` stays float32; ``bias`` is cast to x's dtype first."""
    np.multiply(x, float(s), out=x)
    x += np.asarray(bias).astype(x.dtype, copy=False)
    return x


def _sigmoid(x):
    # 1 / (1 + exp(-x)), each step written into one buffer
    s = np.negative(x)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _silu(x):
    s = _sigmoid(x)
    return np.multiply(x, s, out=s)


def add(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data + b.data)

    def bw(g):
        return (
            _unbroadcast(g, a.data.shape).astype(a.dtype),
            _unbroadcast(g, b.data.shape).astype(b.dtype),
        )

    return _record(out, (a, b), bw)


def sub(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data - b.data)

    def bw(g):
        return (
            _unbroadcast(g, a.data.shape).astype(a.dtype),
            -_unbroadcast(g, b.data.shape).astype(b.dtype),
        )

    return _record(out, (a, b), bw)


def mul(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data * b.data)

    def bw(g):
        return (
            _unbroadcast(g * b.data, a.data.shape).astype(a.dtype),
            _unbroadcast(g * a.data, b.data.shape).astype(b.dtype),
        )

    return _record(out, (a, b), bw)


def scale(a, s):
    s = float(s)
    out = Tensor(a.data * s)

    def bw(g):
        return (g * s,)

    return _record(out, (a,), bw)


def scale_bias(x, s, bias):
    """``x * s + bias`` for a constant ``bias`` that broadcasts to x's
    shape (no gradient flows into it)."""
    s = float(s)
    out = Tensor(_scale_bias(x.data.copy(), s, bias))

    def bw(g):
        return (g * s,)

    return _record(out, (x,), bw)


def silu(x):
    s = _sigmoid(x.data)  # kept for the backward pass
    out = Tensor(x.data * s)  # _silu(x.data), without computing s twice

    def bw(g):
        return (g * (s * (1.0 + x.data * (1.0 - s))),)

    return _record(out, (x,), bw)


# ---------------------------------------------------------------------------
# shape ops


def _reshape(x, shape):
    return x.reshape(shape)


def _transpose(x, axes):
    return x.transpose(axes)


def _concat_last(arrays):
    return np.concatenate(arrays, axis=-1)


def _split_last(x, sizes):
    if sum(sizes) != x.shape[-1]:
        raise DimensionError(f"split sizes {sizes} do not cover last axis {x.shape[-1]}")
    pieces, lo = [], 0
    for n in sizes:
        pieces.append(x[..., lo: lo + n])
        lo += n
    return pieces


def reshape(x, shape):
    out = Tensor(_reshape(x.data, shape))

    def bw(g):
        return (g.reshape(x.data.shape),)

    return _record(out, (x,), bw)


def transpose(x, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(_transpose(x.data, axes))

    def bw(g):
        return (g.transpose(inv),)

    return _record(out, (x,), bw)


def concat_last(tensors):
    """Concatenate along the last axis."""
    datas = [t.data for t in tensors]
    out = Tensor(_concat_last(datas))
    sizes = [d.shape[-1] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        return tuple(g[..., offsets[i]: offsets[i + 1]] for i in range(len(sizes)))

    return _record(out, tuple(tensors), bw)


def split_last(x, sizes):
    """Split along the last axis into chunks of the given sizes."""
    outs, lo = [], 0
    for piece in _split_last(x.data, sizes):
        hi = lo + piece.shape[-1]

        def bw(g, lo=lo, hi=hi):
            full = np.zeros_like(x.data)
            full[..., lo:hi] = g
            return (full,)

        outs.append(_record(Tensor(piece), (x,), bw))
        lo = hi
    return outs


# ---------------------------------------------------------------------------
# matmul / lookup


def _matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    return np.matmul(a, b)


def _embedding(table, ids):
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"token id out of range [0, {table.shape[0]})")
    return table[ids]


def matmul(a, b):
    """Matrix product; rank 2 or batched rank 3 with broadcasting."""
    out = Tensor(_matmul(a.data, b.data))

    def bw(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return (
            _unbroadcast(ga, a.data.shape).astype(a.dtype),
            _unbroadcast(gb, b.data.shape).astype(b.dtype),
        )

    return _record(out, (a, b), bw)


def embedding(table, ids):
    """Row lookup: out[..., :] = table[ids[...]]."""
    ids = np.asarray(ids)
    out = Tensor(_embedding(table.data, ids))

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return (gt,)

    return _record(out, (table,), bw)


# ---------------------------------------------------------------------------
# reductions and normalizations (float64 accumulation, index order)


def sum_all(x):
    out = Tensor(np.array(x.data.sum(dtype=np.float64), dtype=x.dtype))

    def bw(g):
        return (np.full_like(x.data, g.reshape(-1)[0]),)

    return _record(out, (x,), bw)


def mean_all(x):
    n = x.data.size
    out = Tensor(np.array(x.data.sum(dtype=np.float64) / n, dtype=x.dtype))

    def bw(g):
        return (np.full_like(x.data, g.reshape(-1)[0] / n),)

    return _record(out, (x,), bw)


def _rms_inv(x, eps):
    # the sum and division np.mean does, without its Python-level wrapper
    ms = np.square(x, dtype=np.float64).sum(axis=-1, keepdims=True) / x.shape[-1]
    return (1.0 / np.sqrt(ms + eps)).astype(x.dtype)


def _rms_norm(x, weight, eps=1e-5):
    out = np.multiply(x, _rms_inv(x, eps))
    out *= weight
    return out


def _softmax(x, axis=-1):
    top = x.max(axis=axis, keepdims=True)
    if np.isnan(top).any():  # the max of a row holding a NaN is NaN
        raise NumericError("softmax input contains NaN")
    e = np.subtract(x, top)
    np.exp(e, out=e)
    # divides in float64 by the float64 row sums and rounds once into e
    return np.divide(e, e.sum(axis=axis, keepdims=True, dtype=np.float64), out=e,
                     casting="same_kind")


def rms_norm(x, weight, eps=1e-5):
    """Root-mean-square normalization over the last axis."""
    inv = _rms_inv(x.data, eps)  # kept for the backward pass
    normed = x.data * inv
    out = Tensor(normed * weight.data)  # _rms_norm(x.data, weight.data, eps), reusing inv
    n = x.data.shape[-1]

    def bw(g):
        gw_term = g * weight.data
        # d/dx of x * (mean(x^2)+eps)^-1/2
        dot = np.sum(gw_term * x.data, axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
        gx = gw_term * inv - x.data * (inv ** 3) * (dot / n)
        gw = np.sum(g * normed, axis=tuple(range(g.ndim - 1)), dtype=np.float64).astype(weight.dtype)
        return (gx, gw)

    return _record(out, (x, weight), bw)


def softmax(x, axis=-1):
    """Numerically stable softmax; rows sum to 1 within 1e-6."""
    out = Tensor(_softmax(x.data, axis))

    def bw(g):
        y = out.data
        dot = np.sum(g * y, axis=axis, keepdims=True, dtype=np.float64).astype(x.dtype)
        return (y * (g - dot),)

    return _record(out, (x,), bw)


def _log_softmax64(z):
    z = z.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# losses


def _prep_mask(mask, shape):
    if mask is None:
        return np.ones(shape, dtype=np.float64)
    m = np.asarray(mask)
    if m.shape != shape:
        raise DimensionError(f"mask shape {m.shape} does not match positions {shape}")
    return m.astype(np.float64)


def cross_entropy(logits, probs, mask=None):
    """Mean over masked-in positions of -sum(probs * log_softmax(logits)).

    ``probs`` rows are target distributions and receive no gradient;
    positions with mask 0 contribute exactly zero.  An all-masked batch
    yields zero loss and a warning.
    """
    if logits.data.shape != probs.data.shape:
        raise DimensionError(
            f"logits shape {logits.data.shape} does not match probs shape {probs.data.shape}"
        )
    m = _prep_mask(mask, logits.data.shape[:-1])
    count = m.sum()
    logp = _log_softmax64(logits.data)
    per_pos = -(probs.data.astype(np.float64) * logp).sum(axis=-1)
    if count == 0:
        warnings.warn("cross_entropy: every position is masked out; loss is 0")
        out = Tensor(np.zeros((), dtype=logits.dtype))
        return _record(out, (logits,), lambda g: (np.zeros_like(logits.data),))
    out = Tensor(np.asarray((per_pos * m).sum() / count, dtype=logits.dtype))
    soft = np.exp(logp)

    def bw(g):
        coeff = (m / count)[..., None] * g.reshape(-1)[0]
        return ((soft - probs.data.astype(np.float64)) * coeff,)

    return _record(out, (logits,), bw)


def cross_entropy_labels(logits, labels, mask=None):
    """cross_entropy against one-hot rows given as integer labels."""
    labels = np.asarray(labels)
    if labels.shape != logits.data.shape[:-1]:
        raise DimensionError(
            f"labels shape {labels.shape} does not match logits positions {logits.data.shape[:-1]}"
        )
    one_hot = np.eye(logits.data.shape[-1], dtype=logits.dtype)[labels]
    return cross_entropy(logits, Tensor(one_hot), mask)


def smooth_l1(a, b, mask=None):
    """Huber-style loss: 0.5*d^2 for |d|<1 else |d|-0.5, mean over masked-in elements.

    ``mask`` covers every axis but the last, as in ``cross_entropy``;
    every element under a masked-in position contributes.
    """
    if a.data.shape != b.data.shape:
        raise DimensionError(f"smooth_l1 operand shapes differ: {a.data.shape} vs {b.data.shape}")
    d = a.data.astype(np.float64) - b.data.astype(np.float64)
    per_elem = np.where(np.abs(d) < 1.0, 0.5 * d * d, np.abs(d) - 0.5)
    m = _prep_mask(mask, a.data.shape[:-1])[..., None]
    count = m.sum() * a.data.shape[-1]
    if count == 0:
        warnings.warn("smooth_l1: every position is masked out; loss is 0")
        out = Tensor(np.zeros((), dtype=a.dtype))
        return _record(out, (a, b), lambda g: (np.zeros_like(a.data), np.zeros_like(b.data)))
    out = Tensor(np.asarray((per_elem * m).sum() / count, dtype=a.dtype))

    def bw(g):
        ga = np.clip(d, -1.0, 1.0) * m / count * g.reshape(-1)[0]
        return (ga, -ga)

    return _record(out, (a, b), bw)


# ---------------------------------------------------------------------------
# forward ops: one model code path, on the tape or on bare arrays


class _TapeOps:
    """The tape ops over Tensors.  Ops are looked up on the module when
    called, so a wrapped module function is the one that runs.

    Besides the ops, both op sets carry four adapters: ``leaf`` takes a
    Tensor (a parameter or a caller's tensor) in, ``const`` an outside
    array, ``value`` gives an operand's array and ``result`` the Tensor a
    forward returns.
    """

    leaf = result = staticmethod(lambda x: x)
    const = Tensor
    value = staticmethod(lambda x: x.data)

    def __getattr__(self, name):
        return getattr(sys.modules[__name__], name)


TAPE = _TapeOps()
KERNELS = SimpleNamespace(
    add=np.add, sub=np.subtract, mul=np.multiply, scale_bias=_scale_bias, silu=_silu,
    reshape=_reshape, transpose=_transpose, concat_last=_concat_last, split_last=_split_last,
    matmul=_matmul, embedding=_embedding, rms_norm=_rms_norm, softmax=_softmax,
    leaf=lambda t: t.data, const=_float_array, value=lambda x: x, result=Tensor)


def forward_ops():
    """The ops a model forward computes with: ``TAPE`` while the tape
    records, else ``KERNELS``, the tape ops' own kernels on bare arrays."""
    return TAPE if _GRAD_ENABLED else KERNELS


# ---------------------------------------------------------------------------
# optimizer


class AdamW:
    """Decoupled-weight-decay Adam with global-norm gradient clipping."""

    def __init__(self, params, lr=5e-5, betas=(0.9, 0.95), eps=1e-8,
                 weight_decay=0.0, clip_norm=0.5):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def grad_norm(self):
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                total += float(np.sum(np.square(p.grad, dtype=np.float64)))
        return float(np.sqrt(total))

    def step(self):
        self.t += 1
        clip_scale = 1.0
        if self.clip_norm is not None:
            norm = self.grad_norm()
            if norm > self.clip_norm:
                clip_scale = self.clip_norm / (norm + 1e-12)
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            g = g * clip_scale
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * update.astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
