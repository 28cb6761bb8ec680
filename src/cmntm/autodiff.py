"""Tape-based reverse-mode automatic differentiation over dense numpy arrays.

Operations execute eagerly and append themselves to the active ``Tape``; eager
order is already topological, so ``Tape.backward`` visits each recorded node
exactly once in reverse. A node may have several outputs (``ntm``'s LSTM
and head kernels do); it is visited once, with one gradient per output.
Only leaves (tensors that require grad and that no node of the tape produced,
such as parameters) receive a ``Tensor.grad``; an intermediate's gradient lives
only until its producing node has used it. Gradients accumulate additively
into ``Tensor.grad``: running backward twice on the same tape doubles leaf
gradients, and the caller is responsible for resetting grads between
optimization steps.

A tape references its tensors and no tensor references its tape, so a tape
and everything it recorded are freed by reference counting as soon as the
caller drops them, without waiting for the cyclic garbage collector.

The module holds the tape, the general ops the model runs (``add``, ``mul``,
``matmul`` and ``concat``) and batch norm, whose train mode is one tape node,
``batch_norm``. The model's own kernels live beside their callers and record
through ``_record`` like the ops here: the memory-stage kernels in ``ntm``
and the per-turn loss, ``retrieval.batch_loss``.

Primitives take ``Tensor`` operands; ``add`` and ``mul`` also take a Python
scalar as their second operand, which runs in the first operand's dtype.

Values default to single precision. Construct tensors with
``dtype=numpy.float64`` when running finite-difference gradient checks.
"""
from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ShapeError

# Cosine denominators are clamped below at this value; vectors whose norm
# falls at or below it are rejected at API boundaries instead.
COSINE_EPS = 1e-8

_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)

_tls = threading.local()


def _stack() -> list:
    s = getattr(_tls, "tapes", None)
    if s is None:
        s = []
        _tls.tapes = s
    return s


class Tensor:
    """Dense array with an optional gradient slot.

    Values are float32 or float64 arrays, not always C-contiguous:
    ``ntm.head_mlp``'s strength and gate are column views of one array.
    ``grad`` is ``None`` until a backward pass reaches the tensor as a leaf,
    after which it matches ``data``'s shape.
    Tensors and tapes are single-owner: never mutate one from two threads.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        # np.dtype singletons make the common already-float case an identity check
        if dtype is None and isinstance(data, np.ndarray) and (
                data.dtype is _F32 or data.dtype is _F64):
            arr = data
        else:
            arr = np.asarray(data, dtype=dtype)
            if arr.dtype is not _F32 and arr.dtype is not _F64:
                arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("inputs", "output", "backward")

    def __init__(self, inputs: tuple, output: Tensor, backward: Callable):
        self.inputs = inputs
        self.output = output
        self.backward = backward


class Tape:
    """Ordered record of executed operations for one forward pass."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _stack().pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted: exited a tape that was not innermost")
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into the ``grad`` of every leaf reached.

        ``loss`` must be a scalar output of a node on this tape. Each node is
        visited once, in reverse recording order; because consumers are always
        recorded after producers, an output's pass gradient is complete when
        its node is visited, and it is dropped once that node has used it. What
        is left after the sweep belongs to leaves: tensors that require grad and
        that no node of this tape produced. Intermediates never get a ``grad``.
        Sums are done in place only in buffers this sweep allocated, since a
        node's backward may hand back an array it still holds.
        """
        if loss.data.size != 1:
            raise ShapeError("backward", f"loss must be scalar, got shape {loss.data.shape}")
        if not any(o is loss for node in reversed(self._nodes)
                   for o in (node.output if type(node.output) is tuple else (node.output,))):
            raise ValueError("backward: loss was not recorded on this tape")
        pass_grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        tensors: dict[int, Tensor] = {}
        owned: set[int] = set()
        for node in reversed(self._nodes):
            out = node.output
            if type(out) is tuple:
                g = tuple(pass_grads.pop(id(o), None) for o in out)
                if all(gi is None for gi in g):
                    continue
            else:
                g = pass_grads.pop(id(out), None)
                if g is None:
                    continue
            for t, gi in zip(node.inputs, node.backward(g)):
                if gi is None or not t.requires_grad:
                    continue
                key = id(t)
                prev = pass_grads.get(key)
                if prev is None:
                    pass_grads[key] = gi
                    tensors[key] = t
                elif key in owned and gi.dtype is prev.dtype:
                    prev += gi
                else:
                    total = prev + gi
                    pass_grads[key] = total
                    # a sum of 0-d arrays is a numpy scalar, not a buffer
                    if type(total) is np.ndarray:
                        owned.add(key)
        for key, g in pass_grads.items():
            t = tensors[key]
            if t.grad is not None:
                t.grad = t.grad + g
            else:
                t.grad = g if key in owned else np.array(g, copy=True)


class no_grad:
    """Context manager that disables gradient recording on the current thread."""

    def __enter__(self):
        _stack().append(None)
        return self

    def __exit__(self, exc_type, exc, tb):
        _stack().pop()
        return False


def _as_tensors(a: Tensor, b) -> tuple[Tensor, Tensor]:
    """A binary op's operands as Tensors; a scalar ``b`` takes ``a``'s dtype."""
    if type(b) is not Tensor:
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    return a, b


def _record(inputs: Sequence[Tensor], out_data, backward: Callable):
    """Wrap ``out_data`` in a Tensor and record its node on the active tape.

    ``out_data`` may be a tuple of arrays; the op then returns a tuple of
    Tensors, and ``backward`` receives a tuple with one gradient per output,
    ``None`` for an output that nothing downstream differentiated.
    """
    s = getattr(_tls, "tapes", None)
    tape = s[-1] if s else None
    multi = type(out_data) is tuple
    if tape is None:
        return tuple(map(Tensor, out_data)) if multi else Tensor(out_data)
    requires = False
    for t in inputs:
        if t.requires_grad:
            requires = True
            break
    if multi:
        out = tuple(Tensor(d, requires_grad=requires) for d in out_data)
    else:
        out = Tensor(out_data, requires_grad=requires)
    if requires:
        tape._nodes.append(_Node(tuple(inputs), out, backward))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensors(a, b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError("add", f"incompatible shapes {a.data.shape} and {b.data.shape}") from None

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record((a, b), out, backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensors(a, b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError("mul", f"incompatible shapes {a.data.shape} and {b.data.shape}") from None

    def backward(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _record((a, b), out, backward)


# ---------------------------------------------------------------------------
# structural ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul", f"expected 2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError("matmul", f"inner dimensions differ: {a.data.shape} x {b.data.shape}")
    out = a.data @ b.data

    def backward(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _record((a, b), out, backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = tuple(tensors)
    if not ts:
        raise ShapeError("concat", "empty input list")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise ShapeError("concat", f"cannot join shapes {[t.data.shape for t in ts]} "
                                   f"along axis {axis}") from None
    lead = (slice(None),) * (axis % out.ndim)
    edges = [0]
    for t in ts:
        edges.append(edges[-1] + t.data.shape[axis])

    def backward(g):
        return tuple(g[lead + (slice(lo, hi),)] for lo, hi in zip(edges, edges[1:]))

    return _record(ts, out, backward)


# ---------------------------------------------------------------------------
# batch normalization

# the variance floor, and the weight of each batch in the running statistics
BN_EPS, BN_MOMENTUM = 1e-5, 0.1


def batch_norm(x: Tensor, scale: Tensor, shift: Tensor) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Normalize a (B, D) batch by its own per-feature statistics.

    Returns ``(scale * (x - mean) / sqrt(var + BN_EPS) + shift, mean, var)``,
    where ``mean`` and the biased ``var`` are (D,) arrays; only the first
    output carries a gradient. ``scale`` and ``shift`` are (D,). A batch needs
    at least 2 rows, since a single row has no variance to normalize by. Like
    the memory-stage kernels of ``ntm``, it is one tape node that replays its
    unfused chain's expressions and adjoints.
    """
    xd, sc, sh = x.data, scale.data, shift.data
    if xd.ndim != 2 or not sc.shape == sh.shape == (xd.shape[1],):
        raise ShapeError("batch_norm", f"input {xd.shape} does not fit scale {sc.shape} "
                                       f"and shift {sh.shape}")
    count = xd.shape[0]
    if count < 2:
        raise DomainError("batch_norm: train mode needs a batch of at least 2 rows")
    eps, half = np.asarray(BN_EPS, dtype=xd.dtype), np.asarray(-0.5, dtype=xd.dtype)
    mean = xd.mean(axis=0, keepdims=True)
    centered = xd - mean
    var = (centered * centered).mean(axis=0, keepdims=True)
    floored = var + eps
    inv = floored ** half
    normalized = centered * inv
    out = normalized * sc + sh

    def backward(g):
        g_norm = g * sc
        g_centered = g_norm * inv
        g_inv = (g_norm * centered).sum(axis=0, keepdims=True)
        g_sq = np.broadcast_to(g_inv * half * floored ** (half - 1), xd.shape) / count
        # the square's two uses of centered, summed as the tape sums them
        g_sq_centered = g_sq * centered
        g_centered = g_centered + g_sq_centered
        g_centered += g_sq_centered
        g_mean = (-g_centered).sum(axis=0, keepdims=True)
        return (g.sum(axis=0), (g * normalized).sum(axis=0), g_centered,
                np.broadcast_to(g_mean, xd.shape) / count)

    return _record((shift, scale, x, x), out, backward), mean[0], var[0]


class BatchNorm:
    """Per-feature batch normalization with learnable scale and shift.

    Train mode normalizes by batch statistics (``batch_norm``) and updates
    running statistics with momentum ``BN_MOMENTUM``; eval mode normalizes by
    the running statistics, centering by adding the negated running mean
    (IEEE 754 defines ``x - y`` as ``x + (-y)``, so this is the subtraction).
    """

    def __init__(self, dim: int, dtype=np.float32):
        self.scale = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.shift = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(dim, dtype=dtype)
        self.running_var = np.ones(dim, dtype=dtype)
        self.training = True

    def parameters(self) -> dict[str, Tensor]:
        return {"scale": self.scale, "shift": self.shift}

    def buffers(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def __call__(self, x: Tensor) -> Tensor:
        dim = self.scale.data.shape[0]
        if x.data.ndim != 2 or x.data.shape[1] != dim:
            raise ShapeError("batch_norm", f"expected (batch, {dim}) input, got {x.data.shape}")
        if self.training:
            out, mean, var = batch_norm(x, self.scale, self.shift)
            m = BN_MOMENTUM
            # in place, so a buffers() dict stays live across train steps
            self.running_mean[...] = (1.0 - m) * self.running_mean + m * mean
            self.running_var[...] = (1.0 - m) * self.running_var + m * var
            return out
        inv = 1.0 / np.sqrt(self.running_var.astype(x.data.dtype) + BN_EPS)
        normalized = mul(add(x, Tensor(np.negative(self.running_mean, dtype=x.data.dtype))),
                         Tensor(inv))
        return add(mul(normalized, self.scale), self.shift)


# ---------------------------------------------------------------------------
# gradient checking


def gradient_check(f: Callable[[], Tensor], params: Sequence[Tensor], h: float = 1e-4) -> float:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must rebuild its forward pass on every call (the checker evaluates
    it repeatedly with perturbed parameters) and must be deterministic.
    Parameters must be double precision; the relative error for a coordinate
    is ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)`` and the
    maximum over all coordinates is returned.
    """
    params = list(params)
    for p in params:
        if p.data.dtype != np.float64:
            raise ValueError("gradient_check requires float64 parameters")
        if not p.requires_grad:
            raise ValueError("gradient_check: every parameter must require gradients")
    with Tape() as tape:
        loss = f()
    if loss.data.size != 1:
        raise ShapeError("gradient_check", f"f() must return a scalar, got shape {loss.data.shape}")
    for p in params:
        p.grad = None
    tape.backward(loss)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    max_rel = 0.0
    with no_grad():
        for p, ga in zip(params, analytic):
            flat = p.data.reshape(-1)
            gflat = ga.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(f().data.reshape(()))
                flat[i] = orig - h
                fm = float(f().data.reshape(()))
                flat[i] = orig
                numeric = (fp - fm) / (2.0 * h)
                rel = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-8)
                if rel > max_rel:
                    max_rel = rel
    return max_rel
