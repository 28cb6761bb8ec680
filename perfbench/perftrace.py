"""Span tracer that instruments cmntm's public functions from outside.

Nothing under ``src/`` is edited: ``instrument`` swaps module and class
attributes for timed wrappers and puts the originals back on exit. A span
is (name, start, end, parent); each closed span adds its duration minus the
time its child spans cover (its self time) to a per-(phase, name) total, so
the self times inside a phase add up to the phase's own span. A span listed
in ``nested_phases`` moves itself and its children into a sub-phase, so
work a phase does on the side (validation inside training) is totalled
apart. Only the first SAMPLE_LIMIT spans opened are kept in full, to
bound memory on long runs; their ancestors are always among them.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

from cmntm import autodiff, cascade, checkpoint, harness, ntm, retrieval, synthdata

# The primitives the desk and scale models call; ones a later version drops
# report zero.
PRIMITIVES = ("add", "sub", "mul", "div", "power", "clamp_min", "matmul", "concat",
              "take_slice", "reduce_sum", "reduce_mean", "sigmoid", "tanh", "softplus",
              "softmax", "log", "exp", "l2norm", "einsum2", "circular_convolution")

# (span name, owner, attribute). Module functions are also replaced wherever
# another cmntm module imported them by name.
FUNCTIONS = (
    ("ntm.address", ntm, "address"),
    ("ntm.memory_write", ntm, "memory_write"),
    ("ntm.memory_read", ntm, "memory_read"),
    ("retrieval.transaction_loss", retrieval, "transaction_loss"),
    ("retrieval.similarity_scores", retrieval, "similarity_scores"),
    ("retrieval.rank", retrieval, "rank"),
    ("retrieval.recall_at_k", retrieval, "recall_at_k"),
    ("synthdata.gen_distractor", synthdata, "gen_distractor"),
    ("synthdata.save_dataset", synthdata, "save_dataset"),
    ("synthdata.load_dataset", synthdata, "load_dataset"),
    ("harness.stack_batch", harness, "stack_batch"),
    ("harness.clip_gradients", harness, "clip_gradients"),
    ("harness.predict_dataset", harness, "predict_dataset"),
    ("harness.evaluate_model", harness, "evaluate_model"),
    ("harness.restore_model", harness, "restore_model"),
    ("checkpoint.save", checkpoint, "save_entries"),
    ("checkpoint.load", checkpoint, "load_entries"),
)
METHODS = (
    ("ntm.lstm_step", ntm.LSTMCell, "step"),
    ("ntm.head_mlp", ntm.HeadMLP, "__call__"),
    ("ntm.stage_step", ntm.NTMStage, "step"),
    ("cascade.initial_state", cascade.CMNTM, "initial_state"),
    ("cascade.turn", cascade.CMNTM, "cascade_turn"),
    ("harness.adam_step", harness.Adam, "step"),
)
SAMPLE_LIMIT = 5000
# Largest share of a phase that may run outside every wrapper; measured
# shares are under 0.03 on both workloads.
GLUE_LIMIT = 0.25
LAYERS = ("autodiff", "ntm", "cascade", "retrieval", "synthdata", "harness", "checkpoint")


class Tracer:
    """Nested spans with per-phase self-time totals and counters."""

    def __init__(self, nested_phases: dict | None = None):
        # (phase, span name) -> sub-phase that span and its children count under
        self.nested_phases = dict(nested_phases or {})
        self.phase = None
        self.request = 0
        self.samples: list[list] = []    # [id, name, start, end, parent id, request]
        # open frames: [name, start, child time, id, phase, phase to restore, sample]
        self._stack: list[list] = []
        self._next_id = 0
        # (phase, name) -> [calls, self seconds, total seconds, errors]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counts = defaultdict(int)   # (phase, name) -> count

    def _open(self, name: str) -> list:
        self._next_id += 1
        outer = self.phase
        self.phase = self.nested_phases.get((outer, name), outer)
        sample = None
        if len(self.samples) < SAMPLE_LIMIT:
            parent = self._stack[-1][3] if self._stack else None
            sample = [self._next_id, name, None, None, parent, self.request]
            self.samples.append(sample)
        frame = [name, time.perf_counter(), 0.0, self._next_id, self.phase, outer, sample]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, ok: bool) -> None:
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        duration = end - frame[1]
        if self._stack:
            self._stack[-1][2] += duration
        rec = self.totals[(frame[4], frame[0])]
        rec[0] += 1
        rec[1] += duration - frame[2]
        rec[2] += duration
        if not ok:
            rec[3] += 1
        if frame[6] is not None:
            frame[6][2:4] = frame[1], end
        self.phase = frame[5]

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._open(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(frame, ok)

    @contextlib.contextmanager
    def phase_span(self, phase: str):
        """Root span of a benchmark phase; spans inside are totalled under it."""
        if self._stack:
            raise RuntimeError(f"phase {phase!r} opened inside span {self._stack[-1][0]!r}")
        self.phase = phase
        try:
            with self.span(f"phase.{phase}"):
                yield
        finally:
            self.phase = None

    def wrap(self, name: str, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_(name)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                close(frame, ok)

        return traced

    def count(self, name: str, n: int) -> None:
        self.counts[(self.phase, name)] += n

    # -- reading the totals --------------------------------------------------

    def calls(self, phase: str, name: str) -> int:
        return self.totals[(phase, name)][0] if (phase, name) in self.totals else 0

    def self_s(self, phase: str, name: str) -> float:
        return self.totals[(phase, name)][1] if (phase, name) in self.totals else 0.0

    def errors(self, layer: str) -> int:
        return sum(rec[3] for (_, name), rec in self.totals.items()
                   if name.startswith(layer + "."))

    def glue_shares(self, phases) -> dict:
        """Each of ``phases``' share of time that no wrapper covers (its root
        span's own self time). Raise if one exceeds GLUE_LIMIT: the per-layer
        figures would then miss that much of the phase, as when a refactor
        moves work out of the wrapped functions. Also raise unless the self
        times in each phase, its sub-phases' included, add up to its root
        span and no span ran outside a phase; that sum holds by construction,
        so it guards only the bookkeeping."""
        if self._stack:
            raise RuntimeError(f"span {self._stack[-1][0]!r} still open")
        owner = {sub: outer for (outer, _), sub in self.nested_phases.items()}
        parts: dict = defaultdict(float)
        for (phase, _), rec in self.totals.items():
            parts[owner.get(phase, phase)] += rec[1]
        for phase, total in parts.items():
            root = self.totals[(phase, f"phase.{phase}")][2]
            if abs(total - root) > 1e-6 * root:
                raise RuntimeError(f"phase {phase}: self times sum to {total:.9f} s, "
                                   f"root span is {root:.9f} s")
        roots = {sub: (sub, name) for (_, name), sub in self.nested_phases.items()}
        shares = {}
        for phase in phases:
            rec = self.totals[roots.get(phase, (phase, f"phase.{phase}"))]
            shares[phase] = rec[1] / rec[2]
            if shares[phase] > GLUE_LIMIT:
                raise RuntimeError(f"phase {phase}: {shares[phase]:.0%} of its time ran "
                                   f"outside every traced function (limit {GLUE_LIMIT:.0%})")
        return shares


def _replace_everywhere(original, replacement, undo: list) -> None:
    """Point every cmntm module attribute bound to ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "cmntm" or mod_name.startswith("cmntm.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route cmntm's public layer functions through ``tracer`` while active."""
    undo: list[tuple] = []
    try:
        for prim in PRIMITIVES:
            fn = getattr(autodiff, prim, None)
            if fn is not None:
                _replace_everywhere(fn, tracer.wrap(f"autodiff.{prim}", fn), undo)
        for name, module, attr in FUNCTIONS:
            fn = getattr(module, attr)
            _replace_everywhere(fn, tracer.wrap(name, fn), undo)
        for name, cls, attr in METHODS:
            undo.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, tracer.wrap(name, vars(cls)[attr]))
        backward = vars(autodiff.Tape)["backward"]

        def counted_backward(tape, loss):
            tracer.count("autodiff.tape_nodes", len(tape))
            return backward(tape, loss)

        undo.append((autodiff.Tape, "backward", backward))
        autodiff.Tape.backward = tracer.wrap("autodiff.backward", counted_backward)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
