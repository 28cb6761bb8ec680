"""Tape-based reverse-mode automatic differentiation over dense numpy arrays.

Operations execute eagerly and append themselves to the active ``Tape``; eager
order is already topological, so ``Tape.backward`` visits each recorded node
exactly once in reverse. A node may have several outputs (the fused
memory-stage primitives do); it is visited once, with one gradient per output.
Only leaves (tensors that require grad and that no node of the tape produced,
such as parameters) receive a ``Tensor.grad``; an intermediate's gradient lives
only until its producing node has used it. Gradients accumulate additively
into ``Tensor.grad``: running backward twice on the same tape doubles leaf
gradients, and the caller is responsible for resetting grads between
optimization steps.

A tape references its tensors and no tensor references its tape, so a tape
and everything it recorded are freed by reference counting as soon as the
caller drops them, without waiting for the cyclic garbage collector.

The module holds only the primitives the model and its loss run. The
memory stage runs on fused primitives (``lstm_cell``, ``head_mlp``,
``ntm_address``, ``erase_add`` and ``weighted_read``), each one tape node.

Primitives take ``Tensor`` operands. The binary elementwise ops (``add``,
``sub``, ``mul``, ``div`` and ``power``) also take a Python scalar on either
side, which runs in the other operand's dtype.

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

    Values are stored row-major (C order), except that ``transpose`` returns
    a view of its input. ``grad`` is ``None`` until a backward pass reaches
    the tensor as a leaf, after which it matches ``data``'s shape.
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


def _as_tensors(a, b) -> tuple[Tensor, Tensor]:
    """A binary op's operands as Tensors; a scalar takes the other's dtype."""
    if type(a) is not Tensor:
        a = Tensor(np.asarray(a, dtype=b.data.dtype if type(b) is Tensor else None))
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


def sub(a, b) -> Tensor:
    a, b = _as_tensors(a, b)
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError("sub", f"incompatible shapes {a.data.shape} and {b.data.shape}") from None

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

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


def div(a, b) -> Tensor:
    a, b = _as_tensors(a, b)
    # all() is false exactly when a zero is present; avoids a temporary bool array
    if not b.data.all():
        raise DomainError("div: division by zero")
    try:
        out = a.data / b.data
    except ValueError:
        raise ShapeError("div", f"incompatible shapes {a.data.shape} and {b.data.shape}") from None

    def backward(g):
        ga = _unbroadcast(g / b.data, a.data.shape)
        gb = _unbroadcast(-g * out / b.data, b.data.shape)
        return ga, gb

    return _record((a, b), out, backward)


def power(base, exponent) -> Tensor:
    """Elementwise ``base ** exponent`` with broadcasting.

    Negative bases are rejected unless every exponent value is an integer;
    zero bases with negative exponents are rejected. The derivative w.r.t. the
    exponent uses the limit value 0 where the base is 0.
    """
    base, exponent = _as_tensors(base, exponent)
    bx, ex = base.data, exponent.data
    try:
        _check_power_domain("power", bx, ex)
        out = bx ** ex
    except ValueError:
        raise ShapeError("power", f"incompatible shapes {bx.shape} and {ex.shape}") from None

    def backward(g):
        gb = g * ex * bx ** (ex - 1)
        safe = np.where(bx > 0, bx, 1.0)
        ge = g * out * np.where(bx > 0, np.log(safe), 0.0)
        return _unbroadcast(gb, bx.shape), _unbroadcast(ge, ex.shape)

    return _record((base, exponent), out, backward)


def _check_power_domain(op: str, bx: np.ndarray, ex: np.ndarray) -> None:
    if bx.size and bx.min() <= 0:
        if np.any(bx < 0) and np.any(np.mod(ex, 1.0) != 0):
            raise DomainError(f"{op}: negative base with non-integer exponent")
        if np.any((bx == 0) & (ex < 0)):
            raise DomainError(f"{op}: zero base with negative exponent")


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


def transpose(t: Tensor) -> Tensor:
    """Swap the axes of a 2-d tensor; the result is a view of ``t``'s values."""
    if t.data.ndim != 2:
        raise ShapeError("transpose", f"expected a 2-d operand, got {t.data.shape}")

    def backward(g):
        return (g.T,)

    return _record((t,), t.data.T, backward)


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


def reduce_sum(t: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = t.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, t.data.shape),)

    return _record((t,), out, backward)


def reduce_mean(t: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    count = t.data.size if axis is None else t.data.shape[axis]
    out = t.data.mean(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, t.data.shape) / count,)

    return _record((t,), out, backward)


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function: 1/(1+e) or e/(1+e) with e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def log(t: Tensor) -> Tensor:
    if t.data.size and not t.data.min() > 0:
        raise DomainError("log: non-positive input")
    out = np.log(t.data)

    def backward(g):
        return (g / t.data,)

    return _record((t,), out, backward)


def exp(t: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(t.data)
    if out.size:
        m = out.max()
        if m == np.inf or m != m:
            raise DomainError("exp: overflow or invalid input")

    def backward(g):
        return (g * out,)

    return _record((t,), out, backward)


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

    return _record((t,), out, backward)


# ---------------------------------------------------------------------------
# contraction


# (forward, inverse) rows realizing np.roll along the last axis, one per offset
_ROLL_CACHE: dict[tuple[int, tuple[int, ...]], tuple[np.ndarray, np.ndarray]] = {}


def _roll_indices(size: int, offsets: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    key = (size, offsets)
    got = _ROLL_CACHE.get(key)
    if got is None:
        base = np.arange(size)
        off = np.asarray(offsets)[:, None]
        got = ((base - off) % size, (base + off) % size)
        _ROLL_CACHE[key] = got
    return got


def weighted_read(w: Tensor, memory: Tensor) -> Tensor:
    """Weighted sum of memory rows: (B, P) weights over (B, P, M) memory -> (B, M)."""
    wd, mem = w.data, memory.data
    if mem.ndim != 3 or wd.shape != mem.shape[:2]:
        raise ShapeError("weighted_read", f"weights {wd.shape} do not fit memory {mem.shape}")
    out = np.matmul(wd[:, None, :], mem)[:, 0, :]

    def backward(g):
        return (np.matmul(mem, g[:, :, None])[:, :, 0] if w.requires_grad else None,
                wd[:, :, None] * g[:, None, :] if memory.requires_grad else None)

    return _record((w, memory), out, backward)


# ---------------------------------------------------------------------------
# fused memory-stage primitives
#
# Each op below does the work of a chain of unfused primitives in one tape
# node; ``tests/reference_ops.py`` keeps those primitives as the reference.
# The forward evaluates the chain's own numpy expressions in the chain's
# order, and the backward replays the chain's per-op adjoints in reverse tape
# order, so values and gradients are bit-identical to the chain's. An input
# the chain uses more than once is listed once per use, in the order the tape
# would have visited those uses, so gradients still accumulate in
# ``Tape.backward`` in the same order. Slices fed to exp/log/tanh are copied
# first, as the chain's ``take_slice`` did, so those ufuncs see the same
# contiguous layout.


def lstm_cell(x: Tensor, wx: Tensor, hidden: Tensor, wh: Tensor, bias: Tensor,
              cell: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step; returns ``(new hidden, new cell)``.

    ``x`` is (B, D), ``wx`` (D, 4H), ``hidden`` and ``cell`` (B, H), ``wh``
    (H, 4H), ``bias`` (4H,). Gates ``x @ wx + hidden @ wh + bias`` are ordered
    [input, forget, cell, output]; the new cell is ``f * cell + i * tanh(g)``
    and the new hidden state ``o * tanh(new cell)``.
    """
    c = cell.data
    gates = None
    if x.data.ndim == wx.data.ndim == hidden.data.ndim == wh.data.ndim == c.ndim == 2:
        try:
            gates = (x.data @ wx.data + hidden.data @ wh.data) + bias.data
        except ValueError:
            pass
    if gates is None or gates.shape != (c.shape[0], 4 * c.shape[1]):
        raise ShapeError("lstm_cell", f"input {x.data.shape}, hidden {hidden.data.shape}, weights "
                                      f"{wx.data.shape} and {wh.data.shape}, bias "
                                      f"{bias.data.shape} do not fit cell state {c.shape}")
    h = c.shape[1]
    sig = _sigmoid_values(gates)
    i_gate, f_gate, o_gate = sig[:, :h], sig[:, h:2 * h], sig[:, 3 * h:]
    g_cand = np.tanh(gates[:, 2 * h:3 * h].copy())
    new_cell = f_gate * c + i_gate * g_cand
    tanh_cell = np.tanh(new_cell)
    new_hidden = o_gate * tanh_cell

    def backward(grads):
        g_hidden, g_cell = grads
        g_gates = np.zeros_like(gates)
        if g_hidden is not None:
            g_gates[:, 3 * h:] = g_hidden * tanh_cell * o_gate * (1.0 - o_gate)
            g_tanh = g_hidden * o_gate * (1.0 - tanh_cell * tanh_cell)
            g_cell = g_tanh if g_cell is None else g_cell + g_tanh
        g_i = g_cell * g_cand
        g_gates[:, 2 * h:3 * h] = g_cell * i_gate * (1.0 - g_cand * g_cand)
        g_gates[:, h:2 * h] = g_cell * c * f_gate * (1.0 - f_gate)
        g_gates[:, :h] = g_i * i_gate * (1.0 - i_gate)
        return (g_cell * f_gate, _unbroadcast(g_gates, bias.data.shape),
                g_gates @ wh.data.T, hidden.data.T @ g_gates,
                g_gates @ wx.data.T, x.data.T @ g_gates)

    return _record((cell, bias, hidden, wh, x, wx), (new_hidden, new_cell), backward)


def head_mlp(ctrl_out: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
             width: int, write: bool) -> tuple[Tensor, ...]:
    """A memory head: maps (B, H) controller output to addressing parameters.

    The read-out ``tanh(ctrl_out @ w1 + b1) @ w2 + b2`` has columns [key
    (width) | strength | gate | shift (3) | sharpen], then for a write head
    [erase (width) | add (width)]. Returns ``(key, softplus(strength),
    sigmoid(gate), softmax(shift), 1 + softplus(sharpen))`` and, for a write
    head, ``(sigmoid(erase), add)`` after them.
    """
    ctrl = ctrl_out.data
    m = width
    x = None
    if ctrl.ndim == w1.data.ndim == w2.data.ndim == 2:
        try:
            hidden = np.tanh(ctrl @ w1.data + b1.data)
            x = hidden @ w2.data + b2.data
        except ValueError:
            pass
    if x is None or x.shape != (ctrl.shape[0], m + 6 + (2 * m if write else 0)):
        raise ShapeError("head_mlp", f"controller output {ctrl.shape} with weights "
                                     f"{w1.data.shape} and {w2.data.shape} does not fit a "
                                     f"{'write' if write else 'read'} head of width {m}")
    # one elementwise pass each: sig covers the strength through erase columns
    # (the gate and erase activations and the softplus slopes); soft holds the
    # strength and sharpen softplus columns
    sig = _sigmoid_values(x[:, m:(2 * m if write else m) + 6])
    # NaN inputs pass through; divergence is caught at the loss value
    with np.errstate(invalid="ignore"):
        soft = np.logaddexp(np.asarray(0.0, dtype=x.dtype), x[:, m:m + 6:5].copy())
    shift_in = x[:, m + 2:m + 5]
    e = np.exp(shift_in - shift_in.max(axis=1, keepdims=True))
    shift = e / e.sum(axis=1, keepdims=True)
    gate = sig[:, 1:2]
    outs = (x[:, :m].copy(), soft[:, :1], gate, shift, soft[:, 1:] + 1.0)
    if write:
        outs += (sig[:, 6:], x[:, 2 * m + 6:].copy())

    def backward(grads):
        g_key, g_strength, g_gate, g_shift, g_sharpen = grads[:5]
        gx = np.zeros_like(x)
        if g_key is not None:
            gx[:, :m] = g_key
        if g_strength is not None:
            gx[:, m:m + 1] = g_strength * sig[:, :1]
        if g_gate is not None:
            gx[:, m + 1:m + 2] = g_gate * gate * (1.0 - gate)
        if g_shift is not None:
            dot = (g_shift * shift).sum(axis=1, keepdims=True)
            gx[:, m + 2:m + 5] = (g_shift - dot) * shift
        if g_sharpen is not None:
            gx[:, m + 5:m + 6] = g_sharpen * sig[:, 5:6]
        if write:
            g_erase, g_add = grads[5:]
            if g_erase is not None:
                erase = outs[5]
                gx[:, m + 6:2 * m + 6] = g_erase * erase * (1.0 - erase)
            if g_add is not None:
                gx[:, 2 * m + 6:] = g_add
        g_pre = (gx @ w2.data.T) * (1.0 - hidden * hidden)
        return (_unbroadcast(gx, b2.data.shape), hidden.T @ gx,
                _unbroadcast(g_pre, b1.data.shape), g_pre @ w1.data.T, ctrl.T @ g_pre)

    return _record((b2, w2, b1, ctrl_out, w1), outs, backward)


def ntm_address(memory: Tensor, key: Tensor, strength: Tensor, gate: Tensor, shift: Tensor,
                sharpen: Tensor, w_prev: Tensor, offsets: Sequence[int]) -> Tensor:
    """Content + location addressing over a (B, P, M) memory; returns (B, P) weights.

    Content weights are ``softmax(strength * cosine(key, row))`` with cosine
    denominators floored at ``COSINE_EPS``; ``gate`` interpolates them with
    ``w_prev``; the result is circularly shifted by the kernel ``shift`` over
    ``offsets`` (``out[i] = sum_k shift[k] * w[(i - offsets[k]) mod P]``),
    raised to ``sharpen`` and renormalized. ``key`` is (B, M); ``strength``,
    ``gate`` and ``sharpen`` are (B, 1); ``shift`` is (B, len(offsets)).
    """
    mem, k, wp = memory.data, key.data, w_prev.data
    st, gt, s, ex = strength.data, gate.data, shift.data, sharpen.data
    if mem.ndim != 3:
        raise ShapeError("ntm_address", f"expected (B, P, M) memory, got {mem.shape}")
    b, p, m = mem.shape
    if (k.shape != (b, m) or wp.shape != (b, p) or s.shape != (b, len(offsets))
            or not st.shape == gt.shape == ex.shape == (b, 1)):
        raise ShapeError("ntm_address", f"memory {mem.shape} with key {k.shape}, strength "
                                        f"{st.shape}, gate {gt.shape}, shift {s.shape}, sharpen "
                                        f"{ex.shape}, previous weights {wp.shape}")
    dots = np.matmul(mem, k[:, :, None])[:, :, 0]
    key_norm = np.sqrt((k * k).sum(axis=1, keepdims=True))
    row_norm = np.sqrt((mem * mem).sum(axis=2))
    prod = key_norm * row_norm
    denom = np.maximum(prod, COSINE_EPS)
    sim = dots / denom
    scaled = st * sim
    e = np.exp(scaled - scaled.max(axis=1, keepdims=True))
    content = e / e.sum(axis=1, keepdims=True)
    one_minus = 1.0 - gt
    gated = gt * content + one_minus * wp
    # np.take returns the (B, K, P) gather in C order, keeping every array
    # below in the chain's layout; reductions over another layout can sum in
    # another order
    fwd, inv = _roll_indices(p, tuple(offsets))
    rolled = np.take(gated, fwd, axis=1)
    terms = s[:, :, None] * rolled
    shifted = terms[:, 0]
    for i in range(1, len(fwd)):
        shifted = shifted + terms[:, i]
    _check_power_domain("ntm_address", shifted, ex)
    powered = shifted ** ex
    total = powered.sum(axis=1, keepdims=True)
    if not total.all():
        raise DomainError("ntm_address: sharpened weights sum to zero")
    w = powered / total

    def backward(g):
        g_powered = g / total + _unbroadcast(-g * w / total, total.shape)
        g_shifted = g_powered * ex * shifted ** (ex - 1)
        safe = np.where(shifted > 0, shifted, 1.0)
        g_sharpen = _unbroadcast(g_powered * powered * np.where(shifted > 0, np.log(safe), 0.0),
                                 ex.shape)
        g_terms = s[:, :, None] * np.take(g_shifted, inv, axis=1)
        g_gated = g_terms[:, 0]
        for i in range(1, len(inv)):
            g_gated = g_gated + g_terms[:, i]
        g_shift = (g_shifted[:, None, :] * rolled).sum(axis=2)
        g_one_minus = _unbroadcast(g_gated * wp, one_minus.shape)
        g_content = g_gated * gt
        dot = (g_content * content).sum(axis=1, keepdims=True)
        g_scaled = (g_content - dot) * content
        g_sim = g_scaled * st
        g_dots = g_sim / denom
        g_prod = (-g_sim * sim / denom) * (prod > COSINE_EPS)
        g_key_norm = _unbroadcast(g_prod * row_norm, key_norm.shape)
        g_mem_norm = g_mem_dots = None
        if memory.requires_grad:
            g_mem_norm = (g_prod * key_norm)[:, :, None] * mem / np.where(
                row_norm > 0, row_norm, 1.0)[:, :, None]
            g_mem_dots = g_dots[:, :, None] * k[:, None, :]
        return (g_sharpen, g_shift, g_gated * one_minus, -g_one_minus,
                _unbroadcast(g_gated * content, gt.shape), _unbroadcast(g_scaled * sim, st.shape),
                g_mem_norm, g_key_norm * k / np.where(key_norm > 0, key_norm, 1.0),
                np.matmul(g_dots[:, None, :], mem)[:, 0, :], g_mem_dots)

    return _record((sharpen, shift, w_prev, gate, gate, strength, memory, key, key, memory),
                   w, backward)


def erase_add(memory: Tensor, w: Tensor, erase: Tensor, add_vec: Tensor) -> Tensor:
    """NTM memory write: row_i <- row_i * (1 - w_i * erase) + w_i * add.

    ``memory`` is (B, P, M), ``w`` is (B, P), ``erase`` and ``add_vec`` are
    (B, M); evaluated as ``memory - memory * (w erase^T) + w add^T``.
    """
    mem, wd, ed, av = memory.data, w.data, erase.data, add_vec.data
    if (mem.ndim != 3 or wd.shape != mem.shape[:2]
            or not ed.shape == av.shape == (mem.shape[0], mem.shape[2])):
        raise ShapeError("erase_add", f"memory {mem.shape} with weights {wd.shape}, "
                                      f"erase {ed.shape}, add {av.shape}")
    we = wd[:, :, None] * ed[:, None, :]
    wa = wd[:, :, None] * av[:, None, :]
    out = (mem - mem * we) + wa

    def backward(g):
        g_erased = -g
        g_we = g_erased * mem
        return (g, g_erased * we,
                np.matmul(g, av[:, :, None])[:, :, 0], np.matmul(wd[:, None, :], g)[:, 0, :],
                np.matmul(g_we, ed[:, :, None])[:, :, 0], np.matmul(wd[:, None, :], g_we)[:, 0, :])

    return _record((memory, memory, w, add_vec, w, erase), out, backward)


# ---------------------------------------------------------------------------
# batch normalization

# the variance floor, and the weight of each batch in the running statistics
BN_EPS, BN_MOMENTUM = 1e-5, 0.1


class BatchNorm:
    """Per-feature batch normalization with learnable scale and shift.

    Train mode normalizes by batch statistics (biased variance) and updates
    running statistics with momentum ``BN_MOMENTUM``; eval mode normalizes by
    the running statistics. Train mode needs a batch of at least 2 rows, since
    a single row has no variance to normalize by.
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
            if x.data.shape[0] < 2:
                raise DomainError("batch_norm: train mode needs a batch of at least 2 rows")
            mean = reduce_mean(x, axis=0, keepdims=True)
            centered = sub(x, mean)
            var = reduce_mean(mul(centered, centered), axis=0, keepdims=True)
            m = BN_MOMENTUM
            # in place, so a buffers() dict stays live across train steps
            self.running_mean[...] = (1.0 - m) * self.running_mean + m * mean.data[0]
            self.running_var[...] = (1.0 - m) * self.running_var + m * var.data[0]
            inv = power(add(var, BN_EPS), -0.5)
            normalized = mul(centered, inv)
        else:
            inv = 1.0 / np.sqrt(self.running_var.astype(x.data.dtype) + BN_EPS)
            normalized = mul(sub(x, Tensor(self.running_mean.astype(x.data.dtype))),
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
