"""One memory stage: LSTM controller, parameter heads, and the addressed memory.

All model-facing functions are batch-first. Shapes use B for batch, P for
memory locations, M for memory width, and H for controller hidden size.

The stage runs on five kernels, each recorded as one tape node through
``autodiff._record``: ``lstm_cell`` (run by ``LSTMCell.step``), ``head_mlp``
(run by ``HeadMLP.__call__``), ``address``, ``memory_write`` and
``memory_read``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import COSINE_EPS, Tensor
from .errors import DomainError, ShapeError

# Shift kernel offsets for location addressing: one slot back, stay, one forward.
SHIFT_OFFSETS = (-1, 0, 1)

# (forward, inverse) rows realizing np.roll by each of SHIFT_OFFSETS, by memory size P
_ROLLS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def uniform_init(rng: np.random.Generator | None, fan_in: int, shape: tuple, dtype) -> Tensor:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weight initialization; zeros without ``rng``."""
    if rng is None:
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)


def prefixed(groups: Iterable[tuple[str, dict]]) -> dict:
    """One dict of ``(prefix, {name: value})`` groups, keyed ``prefix.name`` in group order."""
    return {f"{prefix}.{n}": v for prefix, entries in groups for n, v in entries.items()}


class Linear:
    """Affine map ``x @ w + b`` with zero-initialized bias."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None,
                 dtype=np.float32):
        self.w = uniform_init(rng, in_dim, (in_dim, out_dim), dtype)
        self.b = Tensor(np.zeros(out_dim, dtype=dtype), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        return {"w": self.w, "b": self.b}

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add(ad.matmul(x, self.w), self.b)


# ---------------------------------------------------------------------------
# memory-stage kernels
#
# Each kernel below does the work of a chain of unfused primitives in one tape
# node; ``tests/reference_ops.py`` keeps those primitives as the reference.
# The forward evaluates the chain's own numpy expressions in the chain's
# order, and the backward replays the chain's per-op adjoints in reverse tape
# order, so values and gradients are bit-identical to the chain's. An input
# the chain uses more than once is listed once per use, in the order the tape
# would have visited those uses, so gradients still accumulate in
# ``Tape.backward`` in the same order. Slices fed to exp/log/tanh are copied
# first, as the chain's ``take_slice`` did, so those ufuncs see the same
# contiguous layout.


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function: 1/(1+e) or e/(1+e) with e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
        return (g_cell * f_gate, ad._unbroadcast(g_gates, bias.data.shape),
                g_gates @ wh.data.T, hidden.data.T @ g_gates,
                g_gates @ wx.data.T, x.data.T @ g_gates)

    return ad._record((cell, bias, hidden, wh, x, wx), (new_hidden, new_cell), backward)


class LSTMCell:
    """Single-layer LSTM cell; gate order is [input, forget, cell, output].

    The forget-gate bias starts at +1 so early training does not wipe the
    cell state.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator | None,
                 dtype=np.float32):
        self.wx = uniform_init(rng, input_size, (input_size, 4 * hidden_size), dtype)
        self.wh = uniform_init(rng, hidden_size, (hidden_size, 4 * hidden_size), dtype)
        bias = np.zeros(4 * hidden_size, dtype=dtype)
        bias[hidden_size:2 * hidden_size] = 1.0
        self.bias = Tensor(bias, requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        return {"wx": self.wx, "wh": self.wh, "bias": self.bias}

    def step(self, x: Tensor, hidden: Tensor, cell: Tensor) -> tuple[Tensor, Tensor]:
        """One recurrence step; returns (new_hidden, new_cell)."""
        return lstm_cell(x, self.wx, hidden, self.wh, self.bias, cell)


@dataclass
class HeadParams:
    """Addressing parameters emitted by one head for one step.

    key: (B, M) content lookup key, unconstrained.
    strength: (B, 1) content sharpness, >= 0 (softplus).
    gate: (B, 1) content/location interpolation, in [0, 1] (sigmoid).
    shift: (B, 3) simplex over SHIFT_OFFSETS (softmax).
    sharpen: (B, 1) final sharpening exponent, >= 1 (1 + softplus).
    erase, add: (B, M) write-head vectors; erase in [0, 1], add unconstrained.
    """

    key: Tensor
    strength: Tensor
    gate: Tensor
    shift: Tensor
    sharpen: Tensor
    erase: Tensor | None = None
    add: Tensor | None = None


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
        return (ad._unbroadcast(gx, b2.data.shape), hidden.T @ gx,
                ad._unbroadcast(g_pre, b1.data.shape), g_pre @ w1.data.T, ctrl.T @ g_pre)

    return ad._record((b2, w2, b1, ctrl_out, w1), outs, backward)


class HeadMLP:
    """Maps controller output to head parameters.

    One tanh hidden layer of the controller's width, then a linear read-out
    sliced per parameter with each slice pushed through its range-enforcing
    activation.
    """

    def __init__(self, hidden_size: int, mem_width: int, write: bool,
                 rng: np.random.Generator | None, dtype=np.float32):
        self.write = write
        out_dim = mem_width + 6 + (2 * mem_width if write else 0)
        self.w1 = uniform_init(rng, hidden_size, (hidden_size, hidden_size), dtype)
        self.b1 = Tensor(np.zeros(hidden_size, dtype=dtype), requires_grad=True)
        self.w2 = uniform_init(rng, hidden_size, (hidden_size, out_dim), dtype)
        self.b2 = Tensor(np.zeros(out_dim, dtype=dtype), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    @property
    def mem_width(self) -> int:
        """M, from the read-out width: M + 6 for a read head, 3M + 6 for a write head."""
        return (self.w2.data.shape[1] - 6) // (3 if self.write else 1)

    def __call__(self, ctrl_out: Tensor) -> HeadParams:
        return HeadParams(*head_mlp(ctrl_out, self.w1, self.b1, self.w2, self.b2,
                                    self.mem_width, self.write))


def address(memory: Tensor, params: HeadParams, w_prev: Tensor) -> Tensor:
    """Content + location addressing over a (B, P, M) memory; returns (B, P) simplex weights.

    Content weights are ``softmax(strength * cosine(key, row))`` with cosine
    denominators floored at ``COSINE_EPS``, so an all-zero row scores 0
    rather than erroring; ``gate`` interpolates them with ``w_prev``; the
    result is circularly shifted by the kernel ``shift`` over
    ``SHIFT_OFFSETS`` (``out[i] = sum_k shift[k] * w[(i - SHIFT_OFFSETS[k]) mod P]``),
    raised to ``sharpen`` and renormalized. ``w_prev`` is (B, P).
    """
    key, strength, gate = params.key, params.strength, params.gate
    shift, sharpen = params.shift, params.sharpen
    mem, k, wp = memory.data, key.data, w_prev.data
    st, gt, s, ex = strength.data, gate.data, shift.data, sharpen.data
    if mem.ndim != 3:
        raise ShapeError("address", f"expected (B, P, M) memory, got {mem.shape}")
    b, p, m = mem.shape
    if (k.shape != (b, m) or wp.shape != (b, p) or s.shape != (b, len(SHIFT_OFFSETS))
            or not st.shape == gt.shape == ex.shape == (b, 1)):
        raise ShapeError("address", f"memory {mem.shape} with key {k.shape}, strength "
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
    rolls = _ROLLS.get(p)
    if rolls is None:
        base, off = np.arange(p), np.asarray(SHIFT_OFFSETS)[:, None]
        rolls = _ROLLS[p] = ((base - off) % p, (base + off) % p)
    fwd, inv = rolls
    rolled = np.take(gated, fwd, axis=1)
    terms = s[:, :, None] * rolled
    shifted = terms[:, 0]
    for i in range(1, len(fwd)):
        shifted = shifted + terms[:, i]
    if shifted.size and shifted.min() <= 0:
        if np.any(shifted < 0) and np.any(np.mod(ex, 1.0) != 0):
            raise DomainError("address: negative base with non-integer exponent")
        if np.any((shifted == 0) & (ex < 0)):
            raise DomainError("address: zero base with negative exponent")
    powered = shifted ** ex
    total = powered.sum(axis=1, keepdims=True)
    if not total.all():
        raise DomainError("address: sharpened weights sum to zero")
    w = powered / total

    def backward(g):
        g_powered = g / total + ad._unbroadcast(-g * w / total, total.shape)
        g_shifted = g_powered * ex * shifted ** (ex - 1)
        safe = np.where(shifted > 0, shifted, 1.0)
        g_sharpen = ad._unbroadcast(
            g_powered * powered * np.where(shifted > 0, np.log(safe), 0.0), ex.shape)
        g_terms = s[:, :, None] * np.take(g_shifted, inv, axis=1)
        g_gated = g_terms[:, 0]
        for i in range(1, len(inv)):
            g_gated = g_gated + g_terms[:, i]
        g_shift = (g_shifted[:, None, :] * rolled).sum(axis=2)
        g_one_minus = ad._unbroadcast(g_gated * wp, one_minus.shape)
        g_content = g_gated * gt
        dot = (g_content * content).sum(axis=1, keepdims=True)
        g_scaled = (g_content - dot) * content
        g_sim = g_scaled * st
        g_dots = g_sim / denom
        g_prod = (-g_sim * sim / denom) * (prod > COSINE_EPS)
        g_key_norm = ad._unbroadcast(g_prod * row_norm, key_norm.shape)
        g_mem_norm = g_mem_dots = None
        if memory.requires_grad:
            g_mem_norm = (g_prod * key_norm)[:, :, None] * mem / np.where(
                row_norm > 0, row_norm, 1.0)[:, :, None]
            g_mem_dots = g_dots[:, :, None] * k[:, None, :]
        return (g_sharpen, g_shift, g_gated * one_minus, -g_one_minus,
                ad._unbroadcast(g_gated * content, gt.shape),
                ad._unbroadcast(g_scaled * sim, st.shape),
                g_mem_norm, g_key_norm * k / np.where(key_norm > 0, key_norm, 1.0),
                np.matmul(g_dots[:, None, :], mem)[:, 0, :], g_mem_dots)

    return ad._record((sharpen, shift, w_prev, gate, gate, strength, memory, key, key, memory),
                      w, backward)


def memory_read(memory: Tensor, w: Tensor) -> Tensor:
    """Weighted sum of memory rows: (B, P, M) memory under (B, P) weights -> (B, M)."""
    wd, mem = w.data, memory.data
    if mem.ndim != 3 or wd.shape != mem.shape[:2]:
        raise ShapeError("memory_read", f"weights {wd.shape} do not fit memory {mem.shape}")
    out = np.matmul(wd[:, None, :], mem)[:, 0, :]

    def backward(g):
        return (np.matmul(mem, g[:, :, None])[:, :, 0] if w.requires_grad else None,
                wd[:, :, None] * g[:, None, :] if memory.requires_grad else None)

    return ad._record((w, memory), out, backward)


def memory_write(memory: Tensor, w: Tensor, erase: Tensor, add_vec: Tensor) -> Tensor:
    """Erase-then-add update: row_i <- row_i * (1 - w_i * erase) + w_i * add.

    ``memory`` is (B, P, M), ``w`` is (B, P), ``erase`` and ``add_vec`` are
    (B, M); evaluated as ``memory - memory * (w erase^T) + w add^T``.
    """
    mem, wd, ed, av = memory.data, w.data, erase.data, add_vec.data
    if (mem.ndim != 3 or wd.shape != mem.shape[:2]
            or not ed.shape == av.shape == (mem.shape[0], mem.shape[2])):
        raise ShapeError("memory_write", f"memory {mem.shape} with weights {wd.shape}, "
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

    return ad._record((memory, memory, w, add_vec, w, erase), out, backward)


@dataclass
class StageState:
    """Recurrent state of one stage for one transaction batch."""

    memory: Tensor         # (B, P, M)
    hidden: Tensor         # (B, H)
    cell: Tensor           # (B, H)
    prev_read: Tensor      # (B, M) read vector from the previous turn
    read_weights: Tensor   # (B, P)
    write_weights: Tensor  # (B, P)


class NTMStage:
    """Controller, heads, and memory update for one cascade stage."""

    def __init__(self, input_size: int, mem_width: int, hidden_size: int,
                 rng: np.random.Generator | None, dtype=np.float32):
        self.controller = LSTMCell(input_size, hidden_size, rng, dtype)
        self.read_head = HeadMLP(hidden_size, mem_width, write=False, rng=rng, dtype=dtype)
        self.write_head = HeadMLP(hidden_size, mem_width, write=True, rng=rng, dtype=dtype)

    def parameters(self) -> dict[str, Tensor]:
        return prefixed([("lstm", self.controller.parameters()),
                         ("read_head", self.read_head.parameters()),
                         ("write_head", self.write_head.parameters())])

    def step(self, state: StageState, inp: Tensor) -> StageState:
        """Advance one turn: write first, then read from the updated memory.

        Returns the new state; its ``prev_read`` is this turn's read vector
        and its ``hidden`` the controller output.
        """
        ctrl_out, cell = self.controller.step(inp, state.hidden, state.cell)
        write_params = self.write_head(ctrl_out)
        write_w = address(state.memory, write_params, state.write_weights)
        memory = memory_write(state.memory, write_w, write_params.erase, write_params.add)
        read_params = self.read_head(ctrl_out)
        read_w = address(memory, read_params, state.read_weights)
        return StageState(memory, ctrl_out, cell, memory_read(memory, read_w), read_w, write_w)
