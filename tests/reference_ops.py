"""Unfused autodiff primitives: the reference the fused ops are tested against.

The model runs its memory stage on the kernels of ``cmntm.ntm``
(``lstm_cell``, ``head_mlp``, ``address``, ``memory_write`` and
``memory_read``), train-mode batch norm on ``autodiff.batch_norm``, and its
per-turn loss on ``cmntm.retrieval.batch_loss``. The primitives here are the
ones those ops fold together. Tests chain them to rebuild a stage step, a
batch norm (``batch_norm_chain``) or a turn's loss (``batch_loss_chain``) op
by op, and compare values and gradients with the fused ops bit for bit. Each
one records its node through ``autodiff._record`` and shares the package's
private numerics (``autodiff._as_tensors`` and ``_unbroadcast``,
``ntm._sigmoid_values``), so a chain evaluates the same numpy expressions the
fused ops replay.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from cmntm import autodiff as ad
from cmntm import ntm
from cmntm.autodiff import COSINE_EPS, Tensor
from cmntm.errors import DegenerateInputError, DomainError, ShapeError


def sub(a, b) -> Tensor:
    """Elementwise ``a - b`` with broadcasting; a scalar on either side takes the other's dtype."""
    if type(a) is not Tensor:
        a = Tensor(np.asarray(a, dtype=b.data.dtype))
    a, b = ad._as_tensors(a, b)
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError("sub", f"incompatible shapes {a.data.shape} and {b.data.shape}") from None

    def backward(g):
        return ad._unbroadcast(g, a.data.shape), ad._unbroadcast(-g, b.data.shape)

    return ad._record((a, b), out, backward)


def power(base, exponent) -> Tensor:
    """Elementwise ``base ** exponent`` with broadcasting; either side may be a scalar.

    Negative bases are rejected unless every exponent value is an integer;
    zero bases with negative exponents are rejected. The derivative w.r.t. the
    exponent uses the limit value 0 where the base is 0.
    """
    base, exponent = ad._as_tensors(base, exponent)
    bx, ex = base.data, exponent.data
    try:
        if bx.size and bx.min() <= 0:
            if np.any(bx < 0) and np.any(np.mod(ex, 1.0) != 0):
                raise DomainError("power: negative base with non-integer exponent")
            if np.any((bx == 0) & (ex < 0)):
                raise DomainError("power: zero base with negative exponent")
        out = bx ** ex
    except ValueError:
        raise ShapeError("power", f"incompatible shapes {bx.shape} and {ex.shape}") from None

    def backward(g):
        gb = g * ex * bx ** (ex - 1)
        safe = np.where(bx > 0, bx, 1.0)
        ge = g * out * np.where(bx > 0, np.log(safe), 0.0)
        return ad._unbroadcast(gb, bx.shape), ad._unbroadcast(ge, ex.shape)

    return ad._record((base, exponent), out, backward)


def div(a, b) -> Tensor:
    a, b = ad._as_tensors(a, b)
    # all() is false exactly when a zero is present; avoids a temporary bool array
    if not b.data.all():
        raise DomainError("div: division by zero")
    try:
        out = a.data / b.data
    except ValueError:
        raise ShapeError("div", f"incompatible shapes {a.data.shape} and {b.data.shape}") from None

    def backward(g):
        ga = ad._unbroadcast(g / b.data, a.data.shape)
        gb = ad._unbroadcast(-g * out / b.data, b.data.shape)
        return ga, gb

    return ad._record((a, b), out, backward)


def transpose(t: Tensor) -> Tensor:
    """Swap the axes of a 2-d tensor; the result is a view of ``t``'s values."""
    if t.data.ndim != 2:
        raise ShapeError("transpose", f"expected a 2-d operand, got {t.data.shape}")

    def backward(g):
        return (g.T,)

    return ad._record((t,), t.data.T, backward)


def reduce_sum(t: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = t.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, t.data.shape),)

    return ad._record((t,), out, backward)


def reduce_mean(t: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    count = t.data.size if axis is None else t.data.shape[axis]
    out = t.data.mean(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, t.data.shape) / count,)

    return ad._record((t,), out, backward)


def log(t: Tensor) -> Tensor:
    if t.data.size and not t.data.min() > 0:
        raise DomainError("log: non-positive input")
    out = np.log(t.data)

    def backward(g):
        return (g / t.data,)

    return ad._record((t,), out, backward)


def exp(t: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(t.data)
    if out.size:
        m = out.max()
        if m == np.inf or m != m:
            raise DomainError("exp: overflow or invalid input")

    def backward(g):
        return (g * out,)

    return ad._record((t,), out, backward)


def l2norm(t: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Euclidean norm; the subgradient at an exactly-zero vector is 0."""
    sq = (t.data * t.data).sum(axis=axis, keepdims=keepdims)
    out = np.sqrt(sq)

    def backward(g):
        gg, nn = g, out
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
            nn = np.expand_dims(nn, axis)
        safe = np.where(nn > 0, nn, 1.0)
        return (gg * t.data / safe,)

    return ad._record((t,), out, backward)


def batch_loss_chain(predictions: Tensor, targets: Tensor) -> Tensor:
    """``retrieval.batch_loss`` as 13 primitives, 10 when targets need no grad."""
    b = predictions.data.shape[0]
    pred_norms = l2norm(predictions, axis=1, keepdims=True)
    tar_norms = l2norm(targets, axis=1, keepdims=True)
    if np.any(pred_norms.data <= COSINE_EPS) or np.any(tar_norms.data <= COSINE_EPS):
        raise DegenerateInputError("batch_loss: zero-norm row")
    if b == 1:
        return Tensor(np.zeros((), dtype=predictions.data.dtype))
    pn = div(predictions, pred_norms)
    tn = div(targets, tar_norms)
    sims = ad.matmul(pn, transpose(tn))
    exp_sims = exp(sims)
    log_denom = log(reduce_sum(exp_sims, axis=1))
    eye = Tensor(np.eye(b, dtype=predictions.data.dtype))
    diag = reduce_sum(ad.mul(sims, eye), axis=1)
    return reduce_mean(sub(log_denom, diag))


def batch_norm_chain(x: Tensor, scale: Tensor, shift: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """``autodiff.batch_norm`` as nine primitives; ``mean`` and ``var`` stay (1, D)."""
    mean = reduce_mean(x, axis=0, keepdims=True)
    centered = sub(x, mean)
    var = reduce_mean(ad.mul(centered, centered), axis=0, keepdims=True)
    normalized = ad.mul(centered, power(ad.add(var, ad.BN_EPS), -0.5))
    return ad.add(ad.mul(normalized, scale), shift), mean, var


def clamp_min(t: Tensor, lo: float) -> Tensor:
    """Elementwise maximum with a constant floor; gradient passes where ``t > lo``."""
    out = np.maximum(t.data, np.asarray(lo, dtype=t.data.dtype))

    def backward(g):
        return (g * (t.data > lo),)

    return ad._record((t,), out, backward)


def take_slice(t: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice ``[start:stop]`` along one axis."""
    if axis < 0 or axis >= t.data.ndim:
        raise ShapeError("take_slice", f"axis {axis} out of range for shape {t.data.shape}")
    size = t.data.shape[axis]
    if not (0 <= start <= stop <= size):
        raise ShapeError("take_slice", f"bounds [{start}:{stop}] invalid for axis of size {size}")
    idx = [slice(None)] * t.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = t.data[idx].copy()

    def backward(g):
        gi = np.zeros_like(t.data)
        gi[idx] = g
        return (gi,)

    return ad._record((t,), out, backward)


def sigmoid(t: Tensor) -> Tensor:
    out = ntm._sigmoid_values(t.data)

    def backward(g):
        return (g * out * (1.0 - out),)

    return ad._record((t,), out, backward)


def tanh(t: Tensor) -> Tensor:
    out = np.tanh(t.data)

    def backward(g):
        return (g * (1.0 - out * out),)

    return ad._record((t,), out, backward)


def softplus(t: Tensor) -> Tensor:
    x = t.data
    # NaN inputs pass through; divergence is caught at the loss value
    with np.errstate(invalid="ignore"):
        out = np.logaddexp(np.asarray(0.0, dtype=x.dtype), x)

    def backward(g):
        return (g * ntm._sigmoid_values(x),)

    return ad._record((t,), out, backward)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax; output rows sum to 1."""
    x = t.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return ad._record((t,), out, backward)


def circular_convolution(w: Tensor, s: Tensor, offsets: Sequence[int] | None = None) -> Tensor:
    """Circularly shift weighting ``w`` by the kernel ``s``.

    ``out[i] = sum_k s[k] * w[(i - offsets[k]) mod P]``, so a one-hot kernel at
    offset +1 rotates the weighting forward by one slot. Works on vectors or
    on batched rows (shift applied along the last axis). Callers guarantee
    that ``w`` and ``s`` are simplex vectors; only shapes are checked here.
    """
    if w.data.ndim not in (1, 2) or s.data.ndim != w.data.ndim:
        raise ShapeError("circular_convolution",
                         f"expected matching 1-d or 2-d operands, got {w.data.shape} and {s.data.shape}")
    if w.data.ndim == 2 and w.data.shape[0] != s.data.shape[0]:
        raise ShapeError("circular_convolution",
                         f"batch dims differ: {w.data.shape} and {s.data.shape}")
    k = s.data.shape[-1]
    if offsets is None:
        if k % 2 == 0:
            raise ShapeError("circular_convolution", "even kernel length needs explicit offsets")
        half = k // 2
        offsets = tuple(range(-half, half + 1))
    offsets = tuple(int(o) for o in offsets)
    if len(offsets) != k:
        raise ShapeError("circular_convolution",
                         f"kernel length {k} does not match {len(offsets)} offsets")
    base, off = np.arange(w.data.shape[-1]), np.asarray(offsets)[:, None]
    fwd, inv = (base - off) % base.size, (base + off) % base.size
    out = np.zeros_like(w.data)
    for i in range(k):
        out += s.data[..., i:i + 1] * w.data[..., fwd[i]]

    def backward(g):
        gw = np.zeros_like(w.data)
        gs = np.zeros_like(s.data)
        for i in range(k):
            gw += s.data[..., i:i + 1] * g[..., inv[i]]
            gs[..., i] = (g * w.data[..., fwd[i]]).sum(axis=-1)
        return gw, gs

    return ad._record((w, s), out, backward)
