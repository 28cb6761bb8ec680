"""Cascaded-memory model and the aggregation baselines it is compared against.

The cascade chains memory stages within each turn: stage c receives the read
vector handed forward by stage c-1, a stage-specific derived view of the turn's
query feature, and its own read vector from the previous turn. The first
stage's hand-forward input on turn n is the last stage's read vector from turn
n-1, which is what carries state across turns. The last stage sees the raw
query; earlier stages see batch-normalized linear projections of it. The final
controller output and read vector fuse through a learned linear map into the
modified query feature.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNorm, Tensor
from .errors import ShapeError
from .ntm import Linear, LSTMCell, NTMStage, StageState, prefixed

MEMORY_INIT_STD = 0.05


@dataclass(frozen=True)
class CascadeConfig:
    """Architecture hyperparameters for the cascaded-memory model."""

    num_stages: int = 2      # cascade depth; 1 recovers the single-memory machine
    mem_locations: int = 16  # rows per stage memory
    mem_width: int = 32      # row width
    hidden_size: int = 64    # controller hidden size
    feature_dim: int = 32    # query/candidate feature dimension

    def __post_init__(self):
        for name in ("num_stages", "mem_locations", "mem_width", "hidden_size", "feature_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"CascadeConfig.{name} must be >= 1")

    @property
    def stage_input_size(self) -> int:
        # hand-forward read + derived feature + own previous read
        return 2 * self.mem_width + self.feature_dim


class _Model:
    """The base of the cascade and its three baselines: one turn loop, which
    hands each turn's query to ``cascade_turn``, and one walk over the named
    ``parts``, from which the checkpoint's entry names and order follow. The
    defaults suit the turn aggregators: no parts, no state, float32 queries.
    """

    dtype = np.float32

    def parts(self) -> list[tuple[str, object]]:
        """``(name, part)`` pairs in checkpoint order; every part has ``parameters()``."""
        return []

    def parameters(self) -> dict[str, Tensor]:
        return prefixed((name, part.parameters()) for name, part in self.parts())

    def buffers(self) -> dict[str, np.ndarray]:
        """The live batch-norm running statistics; a restore writes into them."""
        return prefixed((name, part.buffers()) for name, part in self.parts()
                        if isinstance(part, BatchNorm))

    def set_training(self, flag: bool) -> None:
        """Put every batch norm in train (``True``) or eval (``False``) mode."""
        for _, part in self.parts():
            if isinstance(part, BatchNorm):
                part.training = flag

    def initial_state(self, rngs) -> object:
        return None

    def cascade_turn(self, state, query: Tensor) -> tuple[Tensor, object]:
        """One turn of a batch: the state before it and the (B, D) ``query``
        give (the (B, D) prediction, the state after it)."""
        raise NotImplementedError

    def forward_transaction(self, queries: np.ndarray, state) -> tuple[list[Tensor], object]:
        """Run every turn of (B, N, D) ``queries``; returns the per-turn
        predictions and the final state."""
        preds: list[Tensor] = []
        for n in range(queries.shape[1]):
            q = Tensor(np.ascontiguousarray(queries[:, n]).astype(self.dtype, copy=False))
            pred, state = self.cascade_turn(state, q)
            preds.append(pred)
        return preds, state


class CMNTM(_Model):
    """Cascade of memory stages producing a modified query feature per turn."""

    def __init__(self, config: CascadeConfig, rng: np.random.Generator | None,
                 dtype=np.float32):
        self.config = config
        self.dtype = dtype
        c, d = config.num_stages, config.feature_dim
        self.derive_fc = [Linear(d, d, rng, dtype) for _ in range(c - 1)]
        self.derive_bn = [BatchNorm(d, dtype=dtype) for _ in range(c - 1)]
        self.stages = [NTMStage(config.stage_input_size, config.mem_width,
                                config.hidden_size, rng, dtype)
                       for _ in range(c)]
        self.fusion = Linear(config.hidden_size + config.mem_width, d, rng, dtype)

    def parts(self) -> list[tuple[str, object]]:
        parts: list[tuple[str, object]] = []
        for i, (fc, bn) in enumerate(zip(self.derive_fc, self.derive_bn)):
            parts += [(f"derive{i}.fc", fc), (f"derive{i}.bn", bn)]
        parts += [(f"stage{i}", stage) for i, stage in enumerate(self.stages)]
        return parts + [("fusion", self.fusion)]

    def initial_state(self, rngs: Sequence[np.random.Generator]) -> list[StageState]:
        """One fresh StageState per stage for a batch of ``len(rngs)`` transactions.

        Each transaction's generator draws its own memory block, so state
        initialization is reproducible per transaction regardless of batch
        composition. Memory entries are Normal(0, 0.05^2); read vectors and
        controller state start at zero; head weightings start uniform.
        ``normal(0, s)`` is ``0.0 + s * z``, so each row is filled in place
        with ``z`` and the batch is scaled and added to ``0.0`` once: the
        same bits, signed zeros included.
        """
        cfg = self.config
        b, c, p, m, h = len(rngs), cfg.num_stages, cfg.mem_locations, cfg.mem_width, cfg.hidden_size
        mem = np.empty((b, c, p, m))
        for row, rng in zip(mem, rngs):
            rng.standard_normal(out=row)
        mem *= MEMORY_INIT_STD
        mem += 0.0
        mem = mem.astype(self.dtype)
        uniform = np.full((b, p), 1.0 / p, dtype=self.dtype)
        return [StageState(memory=Tensor(mem[:, i]),
                           hidden=Tensor(np.zeros((b, h), dtype=self.dtype)),
                           cell=Tensor(np.zeros((b, h), dtype=self.dtype)),
                           prev_read=Tensor(np.zeros((b, m), dtype=self.dtype)),
                           read_weights=Tensor(uniform.copy()),
                           write_weights=Tensor(uniform.copy()))
                for i in range(c)]

    def derive_features(self, query: Tensor) -> list[Tensor]:
        """Stage-specific views of the query for stages 1..C-1 (empty for C=1)."""
        return [bn(fc(query)) for fc, bn in zip(self.derive_fc, self.derive_bn)]

    def cascade_turn(self, state: list[StageState], query: Tensor) -> tuple[Tensor, list[StageState]]:
        """Process one turn's query through every stage; returns (prediction, new state)."""
        if query.data.ndim != 2 or query.data.shape[1] != self.config.feature_dim:
            raise ShapeError("cascade_turn",
                             f"expected (batch, {self.config.feature_dim}) query, got {query.data.shape}")
        features = self.derive_features(query) + [query]  # the last stage sees the raw query
        new_state: list[StageState] = []
        carry = state[-1].prev_read  # the last stage's read on the previous turn
        for stage, old, feat in zip(self.stages, state, features, strict=True):
            new = stage.step(old, ad.concat([carry, feat, old.prev_read], axis=1))
            new_state.append(new)
            carry = new.prev_read
        prediction = self.fusion(ad.concat([new.hidden, new.prev_read], axis=1))
        return prediction, new_state


# ---------------------------------------------------------------------------
# baselines


class MeanModel(_Model):
    """Prediction at turn n is the mean of query features 1..n.

    The state is the running sum of the turns so far and their count.
    """

    def cascade_turn(self, state, query):
        total, n = (query.data, 1) if state is None else (state[0] + query.data, state[1] + 1)
        # a Python int divisor keeps a float32 sum in float32
        return Tensor(total / n), (total, n)


class EwmaModel(_Model):
    """Prediction at turn n is the EWMA of query features 1..n.

    The first turn seeds the average; each later turn n updates it as
    ``alpha * f(n) + (1 - alpha) * previous``. The state is the average.
    """

    def __init__(self, alpha: float = 0.5):
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"EwmaModel: alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha

    def cascade_turn(self, state, query):
        f = query.data
        acc = f if state is None else self.alpha * f + (1.0 - self.alpha) * state
        return Tensor(acc), acc


class LstmBaseline(_Model):
    """Single-layer LSTM over turn features with a linear read-out to D."""

    def __init__(self, feature_dim: int, hidden_size: int, rng: np.random.Generator | None,
                 dtype=np.float32):
        self.dtype = dtype
        self.cell = LSTMCell(feature_dim, hidden_size, rng, dtype)
        self.proj = Linear(hidden_size, feature_dim, rng, dtype)

    def parts(self) -> list[tuple[str, object]]:
        return [("lstm", self.cell), ("proj", self.proj)]

    def initial_state(self, rngs) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((len(rngs), self.cell.wh.data.shape[0]), dtype=self.dtype)
        return Tensor(zeros.copy()), Tensor(zeros.copy())

    def cascade_turn(self, state, query):
        hidden, cell = self.cell.step(query, *state)
        return self.proj(hidden), (hidden, cell)
