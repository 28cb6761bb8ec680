"""One memory stage: LSTM controller, parameter heads, and the addressed memory.

All model-facing functions are batch-first. Shapes use B for batch, P for
memory locations, M for memory width, and H for controller hidden size.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

# Shift kernel offsets for location addressing: one slot back, stay, one forward.
SHIFT_OFFSETS = (-1, 0, 1)


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
        return ad.lstm_cell(x, self.wx, hidden, self.wh, self.bias, cell)


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
        return HeadParams(*ad.head_mlp(ctrl_out, self.w1, self.b1, self.w2, self.b2,
                                       self.mem_width, self.write))


def address(memory: Tensor, params: HeadParams, w_prev: Tensor) -> Tensor:
    """Content + location addressing; returns simplex weights of shape (B, P).

    Content weights are a softmax over strength-scaled cosine similarity
    between the key and every memory row (cosine denominators floored at
    ``COSINE_EPS``, so an all-zero row scores 0 rather than erroring). The
    gate interpolates with the previous weighting, the shift kernel rotates
    it, and the sharpening exponent renormalizes.
    """
    return ad.ntm_address(memory, params.key, params.strength, params.gate, params.shift,
                          params.sharpen, w_prev, SHIFT_OFFSETS)


def memory_read(memory: Tensor, w: Tensor) -> Tensor:
    """Weighted sum of memory rows: (B, P, M) x (B, P) -> (B, M)."""
    return ad.weighted_read(w, memory)


def memory_write(memory: Tensor, w: Tensor, erase: Tensor, add_vec: Tensor) -> Tensor:
    """Erase-then-add update: row_i <- row_i * (1 - w_i * e) + w_i * a."""
    return ad.erase_add(memory, w, erase, add_vec)


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
