"""Training, evaluation, checkpointing, and the scripted experiments.

Every random choice derives from the run seed through tagged SeedSequences,
so a (config, seed) pair fully determines parameter initialization, shuffle
order, per-transaction memory initialization, and therefore checkpoints and
metrics files byte-for-byte. Resuming from a checkpoint replays the same
derived streams and reproduces the uninterrupted run exactly. A stream is
seeded from the 32-bit words SeedSequence hashes for its list key, packed
once per batch (``synthdata.streams``), and a memory block is filled in
place with the values ``normal`` would return.
"""
from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import checkpoint as ckpt_io
from .autodiff import Tape, Tensor, gradient_check, no_grad
from .cascade import CMNTM, CascadeConfig, EwmaModel, LstmBaseline, MeanModel
from .config import TrainConfig, config_from_dict, config_json
from .errors import (CheckpointError, CmntmError, ConfigError, DomainError, ShapeError,
                     TimingMonotonicityError, TrainingDivergedError)
from .fileio import atomic_open
from .retrieval import (CandidateDB, rank_of, row_blocks, similarity_scores, top_k,
                        transaction_loss, unsettled)
from .synthdata import (SyntheticDataset, TaskConfig, block_slice, gen_distractor, key_words,
                        stream, streams)

RECALL_KS = (1, 5, 8, 10)
# the columns of metrics.csv after the epoch
_METRICS_COLUMNS = ("train_loss", *(f"r{k}" for k in RECALL_KS), "mean_r5_r8")
METRICS_HEADER = ",".join(("epoch",) + _METRICS_COLUMNS)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# the share by which a median time may drop with one more stage and still pass
TIMING_REL_TOL = 0.05

# Seed-derivation tags; one per independent random stream.
_MODEL_TAG = 201
_SHUFFLE_TAG = 202
_TRAIN_MEM_TAG = 203
_EVAL_MEM_TAG = 204
_TIMING_TAG = 205
_ORDER_TAG = 206


def _rng(*key: int) -> np.random.Generator:
    """The stream keyed by content: a tag, the seed, then indices such as the epoch."""
    return stream(key_words(*key))


def build_model(cfg: TrainConfig):
    """Instantiate the configured model kind with seed-derived initialization."""
    return _new_model(cfg, _rng(_MODEL_TAG, cfg.seed))


def _new_model(cfg: TrainConfig, rng: np.random.Generator | None):
    """The configured model kind, one of the four ``TrainConfig`` admits.

    Without ``rng`` every weight is zero: a restore or a resume copies a
    checkpoint over all of them, so drawing initial weights would be wasted.
    """
    if cfg.model == "cmntm":
        return CMNTM(cfg.cascade, rng)
    if cfg.model == "lstm":
        return LstmBaseline(cfg.cascade.feature_dim, cfg.cascade.hidden_size, rng)
    if cfg.model == "ewma":
        return EwmaModel(cfg.ewma_alpha)
    return MeanModel()


def stack_batch(dataset: SyntheticDataset, rows: np.ndarray) -> tuple[np.ndarray, list[Tensor]]:
    """The train batch of ``dataset``'s transactions ``rows``: their (B, N, D)
    queries and each turn's (B, D) target features."""
    features, targets = dataset.db.features, dataset.target_ids[rows]
    return dataset.queries[rows], [Tensor(features[targets[:, n]])
                                   for n in range(dataset.max_turns)]


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with bias correction; moments are float32 like the parameters."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            # in place, but each expression and its order as in
            # m = b1 * m + (1 - b1) * g; p -= lr * m_hat / (sqrt(v_hat) + eps)
            m, v = self.m[k], self.v[k]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            step = m / bc1
            step *= self.lr
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            p.data -= step


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total_sq = 0.0
    for p in params.values():
        if p.grad is not None:
            total_sq += float(np.sum(p.grad.astype(np.float64) ** 2))
    total = float(np.sqrt(total_sq))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params.values():
            if p.grad is not None:
                p.grad *= np.asarray(scale, dtype=p.grad.dtype)
    return total


# ---------------------------------------------------------------------------
# prediction / evaluation


def _predict(model, queries: np.ndarray, eval_batch_size: int, seed: int) -> np.ndarray:
    """Eval-mode per-turn predictions for (T, N, D) queries, shape (T, N, D).

    The model is left in eval mode. Row ``i``'s state is drawn from (seed, i)
    alone, so a prefix of the rows, a slice of the turns or rebuilt queries
    stay comparable with a full pass.
    """
    model.set_training(False)
    chunks = []
    for start in range(0, len(queries), eval_batch_size):
        stop = min(start + eval_batch_size, len(queries))
        state = model.initial_state(list(streams((_EVAL_MEM_TAG, seed), range(start, stop))))
        with no_grad():
            preds, _ = model.forward_transaction(queries[start:stop], state)
        chunks.append(np.stack([p.data for p in preds], axis=1))
    return np.concatenate(chunks, axis=0)


def predict_dataset(model, dataset: SyntheticDataset, eval_batch_size: int,
                    seed: int) -> np.ndarray:
    """Eval-mode per-turn predictions for every transaction, shape (T, N, D)."""
    return _predict(model, dataset.queries, eval_batch_size, seed)


def _recall_report(final_preds: np.ndarray, dataset: SyntheticDataset) -> dict:
    """Final-turn recall@k over the whole db, as one ``similarity_scores`` and
    ``rank_of`` per prediction would report it.

    Each chunk of predictions is scored by one GEMM; the rows ``unsettled``
    marks are ranked again by GEMV, where an unscorable prediction raises.

    The GEMM runs inside ``similarity_scores`` so that a trace times it
    there: perfbench's validation phase is rooted at ``evaluate_model``,
    whose own time may be at most a quarter of the phase.
    """
    db, finals = dataset.db, dataset.target_ids[:, -1]
    if len(finals) != len(final_preds):
        raise ShapeError("_recall_report", f"{len(final_preds)} predictions for "
                                           f"{len(finals)} transactions")
    ks = np.array(RECALL_KS)
    hits = np.zeros(len(ks), dtype=np.int64)
    for chunk in row_blocks(len(finals), final_preds.itemsize * len(db)):
        preds, targets = final_preds[chunk], finals[chunk]
        lo, exact = unsettled(similarity_scores(preds, db), targets, db.dim, ks)
        for j in np.flatnonzero(exact):
            lo[j] = rank_of(similarity_scores(preds[j], db), targets[j])
        hits += np.count_nonzero(lo[:, None] < ks, axis=0)
    report = {"count": len(finals)}
    for k, hit in zip(RECALL_KS, hits):
        report[f"r{k}"] = int(hit) / len(finals)
    report["mean_r5_r8"] = (report["r5"] + report["r8"]) / 2.0
    return report


def evaluate_model(model, dataset: SyntheticDataset, eval_batch_size: int, seed: int) -> dict:
    """Final-turn retrieval metrics over the whole candidate db."""
    preds = predict_dataset(model, dataset, eval_batch_size, seed)
    return _recall_report(preds[:, -1], dataset)


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    path: str
    cfg: TrainConfig
    epoch: int
    adam_step: int
    # every entry but meta.*, by its full name; adam.* only when loaded for a resume
    arrays: dict[str, np.ndarray]


def _state(model, opt: Adam | None = None) -> dict[str, np.ndarray]:
    """The live arrays a checkpoint holds, by entry name, in file order."""
    state = {f"param.{name}": p.data for name, p in model.parameters().items()}
    state.update({f"buffer.{name}": b for name, b in model.buffers().items()})
    if opt is not None:
        for name in model.parameters():
            state[f"adam.m.{name}"] = opt.m[name]
            state[f"adam.v.{name}"] = opt.v[name]
    return state


def save_checkpoint(path: str, model, opt: Adam, cfg: TrainConfig, epoch: int) -> None:
    ckpt_io.save_entries(path, {
        "meta.config": np.frombuffer(config_json(cfg).encode("utf-8"), dtype=np.uint8),
        "meta.epoch": np.asarray([epoch], dtype=np.int64),
        "meta.adam_step": np.asarray([opt.step_count], dtype=np.int64),
        **_state(model, opt)})


def load_checkpoint(path: str, _moments: bool = False) -> Checkpoint:
    """The checkpoint's config, counters and model state.

    A negative counter (``meta.epoch`` or ``meta.adam_step``) raises a
    ``CheckpointError`` naming the entry. The ``adam.*`` payloads are
    skipped unless ``_moments`` is set, which only a resume does.
    """
    entries = ckpt_io.load_entries(path, skip=() if _moments else ("adam.",))
    try:
        # a version-1 file holds the config as NUL-padded float32; JSON text holds no NUL
        cfg = config_from_dict(json.loads(entries["meta.config"].tobytes().rstrip(b"\0")))
        epoch = int(entries["meta.epoch"].reshape(-1)[0])
        adam_step = int(entries["meta.adam_step"].reshape(-1)[0])
    except KeyError as e:
        raise CheckpointError(f"{path}: missing meta entry {e}") from None
    except (IndexError, ValueError, OverflowError, ConfigError) as e:
        # ValueError covers text that is not UTF-8 or not JSON
        raise CheckpointError(f"{path}: corrupt meta entry: {e}") from None
    for name, value in (("meta.epoch", epoch), ("meta.adam_step", adam_step)):
        if value < 0:
            raise CheckpointError(f"{path}: entry {name!r} is {value}; a counter must be >= 0")
    arrays = {name: arr for name, arr in entries.items() if not name.startswith("meta.")}
    return Checkpoint(path, cfg, epoch, adam_step, arrays)


def _copy_state(path: str, live: dict[str, np.ndarray], saved: dict[str, np.ndarray]) -> None:
    """Copy ``saved`` into the ``live`` arrays in place; names, shapes and dtypes must match."""
    misshaped = [f"{name} {saved[name].shape} for {arr.shape}" for name, arr in live.items()
                 if name in saved and saved[name].shape != arr.shape]
    mistyped = [f"{name} {saved[name].dtype} for {arr.dtype}" for name, arr in live.items()
                if name in saved and saved[name].dtype != arr.dtype]
    if set(live) != set(saved) or misshaped or mistyped:
        raise CheckpointError(f"{path}: state mismatch: "
                              f"missing {sorted(set(live) - set(saved))}, "
                              f"unexpected {sorted(set(saved) - set(live))}, "
                              f"mis-shaped {misshaped}, mis-typed {mistyped}")
    for name, arr in live.items():
        arr[...] = saved[name]


def restore_model(ckpt: Checkpoint):
    """Rebuild the checkpointed model and load its parameters and buffers."""
    model = _new_model(ckpt.cfg, None)
    _copy_state(ckpt.path, _state(model), ckpt.arrays)
    return model


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    model: object
    metrics: list[dict]
    checkpoint_path: str | None
    metrics_path: str | None


def default_datasets(cfg: TrainConfig, train_ds: SyntheticDataset | None = None,
                     val_ds: SyntheticDataset | None = None
                     ) -> tuple[SyntheticDataset, SyntheticDataset]:
    """The given splits, generating each missing one as the config describes
    (every split shares the config's candidate db).

    A given split must have been drawn from ``cfg.task``, or a
    ``ConfigError`` names the split and the task keys that differ.
    """
    for split, ds in (("train", train_ds), ("val", val_ds)):
        if ds is not None:
            require_task(ds.task, cfg.task, ConfigError,
                         f"{split} split's task differs from config.task")
    if train_ds is None:
        train_ds = gen_distractor(cfg.task, cfg.train_count, split="train")
    if val_ds is None:
        val_ds = gen_distractor(cfg.task, cfg.val_count, split="val")
    return train_ds, val_ds


def _metrics_row_text(row: dict) -> str:
    return ",".join([str(row["epoch"])] + [f"{row[k]:.6f}" for k in _METRICS_COLUMNS])


def write_metrics_csv(rows: list[dict], path: str) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(METRICS_HEADER + "\n")
        for row in rows:
            fh.write(_metrics_row_text(row) + "\n")


def _read_metrics_csv(path: str) -> list[dict]:
    """Rows of a file ``write_metrics_csv`` wrote; they format back to the same text."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise CmntmError(f"{path}:1: expected metrics header {METRICS_HEADER!r}")
    fields = 1 + len(_METRICS_COLUMNS)
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        values = line.split(",")
        try:
            if len(values) != fields:
                raise ValueError(f"expected {fields} fields, got {len(values)}")
            rows.append({"epoch": int(values[0]),
                         **{k: float(v) for k, v in zip(_METRICS_COLUMNS, values[1:])}})
        except ValueError as e:
            raise CmntmError(f"{path}:{line_no}: {e}") from None
    return rows


def _diverged_message(epoch: int, batch_index: int, loss_value: float,
                      params: dict[str, Tensor]) -> str:
    norms = {name: float(np.linalg.norm(p.data)) for name, p in params.items()}
    worst = sorted(norms.items(), key=lambda kv: -kv[1])[:5]
    detail = ", ".join(f"{name}={value:.3e}" for name, value in worst)
    return (f"non-finite loss {loss_value!r} at epoch {epoch}, batch {batch_index}; "
            f"largest parameter norms: {detail}")


def require_task(task: TaskConfig, expected: TaskConfig, error: type[CmntmError],
                 message: str) -> None:
    """Raise ``error`` with ``message`` and the task keys that differ, unless
    ``task`` equals ``expected``."""
    if task != expected:
        differs = _differing_keys(dataclasses.asdict(task), dataclasses.asdict(expected))
        raise error(f"{message} in {differs}")


def _differing_keys(a: dict, b: dict, prefix: str = "") -> list[str]:
    """Dotted paths of the keys whose values differ between two nested dicts."""
    keys = []
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key), b.get(key)
        if isinstance(x, dict) and isinstance(y, dict):
            keys += _differing_keys(x, y, f"{prefix}{key}.")
        elif x != y:
            keys.append(prefix + key)
    return keys


def train(cfg: TrainConfig, out_dir: str | None = None,
          train_ds: SyntheticDataset | None = None,
          val_ds: SyntheticDataset | None = None,
          resume_from: str | None = None,
          log=None) -> TrainResult:
    """Train the configured model; returns the model, per-epoch metrics, paths.

    Each epoch shuffles transactions with an epoch-derived generator, steps
    Adam on every batch (trailing batches of one transaction are dropped:
    batch statistics and in-batch negatives need at least two rows), then
    evaluates final-turn recall on the validation split. Per-transaction
    memory initialization is re-drawn on every visit from (seed, epoch,
    transaction index).

    With ``out_dir``, ``metrics.csv`` is rewritten after every epoch. A
    resumed run keeps the rows of an existing ``metrics.csv`` up to the
    checkpoint's epoch, so the file ends as an uninterrupted run's would;
    the returned ``metrics`` hold only the epochs this call trained. A resume
    checkpoint whose epoch exceeds ``cfg.epochs`` raises ``CheckpointError``
    before anything is written.

    After at least one epoch the returned model is in eval mode, as its last
    validation left it; call ``set_training(True)`` before a train-mode forward.
    """
    train_ds, val_ds = default_datasets(cfg, train_ds, val_ds)
    ckpt = None
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from, _moments=True)
        saved, wanted = config_json(ckpt.cfg), config_json(cfg)
        if saved != wanted:
            differs = _differing_keys(json.loads(saved), json.loads(wanted))
            raise CheckpointError(f"{resume_from}: resume config does not match checkpoint "
                                  f"config; differs in {differs}")
        if ckpt.epoch > cfg.epochs:
            raise CheckpointError(f"{resume_from}: entry 'meta.epoch' is {ckpt.epoch}, past the "
                                  f"config's {cfg.epochs} epochs")
    model = build_model(cfg) if ckpt is None else _new_model(cfg, None)
    params = model.parameters()
    opt = Adam(params, cfg.learning_rate)
    start_epoch = 0
    if ckpt is not None:
        _copy_state(ckpt.path, _state(model, opt), ckpt.arrays)
        opt.step_count = ckpt.adam_step
        start_epoch = ckpt.epoch
    trainable = len(params) > 0
    metrics_rows: list[dict] = []
    count = len(train_ds.queries)
    metrics_path = None
    earlier_rows: list[dict] = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.csv")
        if resume_from is not None and os.path.exists(metrics_path):
            earlier_rows = [row for row in _read_metrics_csv(metrics_path)
                            if row["epoch"] <= start_epoch]
        write_metrics_csv(earlier_rows, metrics_path)
    for epoch in range(start_epoch + 1, cfg.epochs + 1):
        order = _rng(_SHUFFLE_TAG, cfg.seed, epoch).permutation(count)
        model.set_training(True)
        loss_sum, loss_batches = 0.0, 0
        for batch_index, start in enumerate(range(0, count, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            if len(idx) < 2:
                continue
            queries, targets = stack_batch(train_ds, idx)
            state = model.initial_state(list(streams((_TRAIN_MEM_TAG, cfg.seed, epoch), idx)))
            try:
                with Tape() as tape:
                    preds, _ = model.forward_transaction(queries, state)
                    loss = transaction_loss(preds, targets)
            except DomainError as e:
                raise TrainingDivergedError(
                    _diverged_message(epoch, batch_index, float("nan"), params)
                    + f"; forward failed: {e}") from e
            loss_value = float(loss.data.reshape(()))
            if not np.isfinite(loss_value):
                raise TrainingDivergedError(
                    _diverged_message(epoch, batch_index, loss_value, params))
            if trainable:
                opt.zero_grad()
                tape.backward(loss)
                # its nodes hold the step's activations; Adam and validation need none
                del tape
                grad_norm = clip_gradients(params, cfg.grad_clip)
                if not np.isfinite(grad_norm):
                    # NaN passes clip_gradients unscaled; Adam would write it into the weights
                    bad = [name for name, p in params.items()
                           if p.grad is not None and not np.isfinite(p.grad).all()]
                    raise TrainingDivergedError(
                        f"non-finite gradient norm {grad_norm!r} at epoch {epoch}, batch "
                        f"{batch_index}; non-finite gradients in {', '.join(bad) or 'none'}")
                opt.step()
            loss_sum += loss_value
            loss_batches += 1
        train_loss = loss_sum / max(loss_batches, 1)
        report = evaluate_model(model, val_ds, cfg.eval_batch_size, cfg.seed)
        row = {"epoch": epoch, "train_loss": train_loss,
               **{k: report[k] for k in _METRICS_COLUMNS[1:]}}
        metrics_rows.append(row)
        if metrics_path is not None:
            write_metrics_csv(earlier_rows + metrics_rows, metrics_path)
        if log is not None:
            log(_metrics_row_text(row))
        if out_dir is not None and cfg.checkpoint_every > 0 and epoch % cfg.checkpoint_every == 0:
            save_checkpoint(os.path.join(out_dir, f"checkpoint_epoch{epoch}.bin"),
                            model, opt, cfg, epoch)
    checkpoint_path = None
    if out_dir is not None:
        checkpoint_path = os.path.join(out_dir, "checkpoint.bin")
        save_checkpoint(checkpoint_path, model, opt, cfg, cfg.epochs)
    return TrainResult(model, metrics_rows, checkpoint_path, metrics_path)


# ---------------------------------------------------------------------------
# experiments


def _write_artifact(out_dir: str | None, name: str, content: str | dict) -> None:
    """Replace ``out_dir/name`` atomically with ``content``; a dict goes as JSON.
    Without ``out_dir`` nothing is written."""
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    with atomic_open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        if isinstance(content, str):
            fh.write(content)
        else:
            json.dump(content, fh, indent=2, sort_keys=True)
            fh.write("\n")


def full_model_gradient_check(num_stages: int = 2, mem_locations: int = 4, mem_width: int = 8,
                              feature_dim: int = 8, hidden_size: int = 16, turns: int = 3,
                              batch: int = 2, h: float = 1e-4, seed: int = 0) -> float:
    """Finite-difference check of a full transaction loss in double precision.

    Returns the maximum relative error over every parameter coordinate of a
    small but complete model (all stages, heads, batch norm, fusion, loss).
    """
    cc = CascadeConfig(num_stages=num_stages, mem_locations=mem_locations,
                       mem_width=mem_width, hidden_size=hidden_size, feature_dim=feature_dim)
    model = CMNTM(cc, _rng(_MODEL_TAG, seed), dtype=np.float64)
    data_rng = _rng(_TIMING_TAG, seed)
    queries = data_rng.normal(size=(batch, turns, feature_dim))
    raw_targets = data_rng.normal(size=(turns, batch, feature_dim))
    raw_targets /= np.linalg.norm(raw_targets, axis=2, keepdims=True)
    targets = [Tensor(raw_targets[n]) for n in range(turns)]
    state = model.initial_state(list(streams((_EVAL_MEM_TAG, seed), range(batch))))

    def f() -> Tensor:
        preds, _ = model.forward_transaction(queries, state)
        return transaction_loss(preds, targets)

    return gradient_check(f, list(model.parameters().values()), h=h)


def ablate_num_memories(cfg: TrainConfig, stage_counts: Sequence[int],
                        out_dir: str | None = None,
                        train_ds: SyntheticDataset | None = None,
                        val_ds: SyntheticDataset | None = None,
                        log=None) -> list[dict]:
    """Train and evaluate the cascade at several depths; report recall deltas.

    The first entry of ``stage_counts`` is the comparison baseline for the
    percentage column (a single-entry list reports 0% change).
    """
    if not stage_counts:
        raise ValueError("ablate_num_memories: need at least one stage count")
    if len(set(map(int, stage_counts))) < len(stage_counts):
        raise ValueError(f"ablate_num_memories: stage counts {list(stage_counts)} "
                         f"repeat a count")
    train_ds, val_ds = default_datasets(cfg, train_ds, val_ds)
    rows = []
    for c in stage_counts:
        cfg_c = dataclasses.replace(cfg, model="cmntm",
                                    cascade=dataclasses.replace(cfg.cascade, num_stages=int(c)))
        result = train(cfg_c, train_ds=train_ds, val_ds=val_ds, log=log)
        # train's last epoch already scored val with this batch size and seed
        report = (result.metrics[-1] if result.metrics
                  else evaluate_model(result.model, val_ds, cfg.eval_batch_size, cfg.seed))
        rows.append({"C": int(c), "r5": report["r5"], "r8": report["r8"],
                     "mean_r5_r8": report["mean_r5_r8"]})
    base = rows[0]["mean_r5_r8"]
    for row in rows:
        row["pct_change_vs_first"] = (0.0 if base == 0
                                      else (row["mean_r5_r8"] - base) / base * 100.0)
    lines = ["C,r5,r8,mean_r5_r8,pct_change_vs_first"]
    for row in rows:
        lines.append(f"{row['C']},{row['r5']:.6f},{row['r8']:.6f},"
                     f"{row['mean_r5_r8']:.6f},{row['pct_change_vs_first']:.2f}")
    _write_artifact(out_dir, "ablate_memories.csv", "\n".join(lines) + "\n")
    return rows


def _top5(pred: np.ndarray, db: CandidateDB) -> set[int]:
    """The ids of the five candidates in ``db`` that score best against ``pred``."""
    return {int(v) for v in top_k(similarity_scores(pred, db), 5)}


TURN_IMPORTANCE_PROTOCOL = (
    "history length k feeds the final k past turns as real input; the skipped "
    "prefix is granted via ground-truth state substitution: the model enters at "
    "turn N-k with the reference portion of that turn's query replaced by the "
    "turn-(N-k-1) ground-truth target feature")


def _suffix_queries(dataset: SyntheticDataset, entry_turn: int) -> np.ndarray:
    """Queries from ``entry_turn`` on, rebuilt around the previous turn's
    ground-truth target feature.

    Granting the history means the remaining turns refine the ground-truth
    feature instead of the original reference: each suffix turn keeps only its
    own revealed block from the recorded query.
    """
    queries = dataset.queries[:, entry_turn:]
    if entry_turn == 0:
        return queries
    block_len, db = dataset.task.block_len, dataset.db
    blocks = dataset.blocks[:, entry_turn:, None]
    # a block that ends past the feature raises here, as its slice would
    block_slice(int(blocks.max()), block_len, dataset.feature_dim)
    granted = db.features[dataset.target_ids[:, entry_turn - 1]]
    own = np.arange(dataset.feature_dim) // block_len == blocks
    return np.where(own, queries, granted[:, None])


def turn_importance(model, baseline_model, dataset: SyntheticDataset,
                    eval_batch_size: int, seed: int, out_dir: str | None = None) -> dict:
    """Recall as a function of how many past turns the model actually sees.

    k = N-1 feeds the full transaction (identical to standard evaluation);
    k = 0 enters at the final turn with a ground-truth-substituted query.
    Reports per-k recall for the memory model and the memory-less baseline,
    plus each model's spread (max - min over k).
    """
    n = dataset.max_turns
    # history length k enters at turn n - 1 - k
    suffixes = [_suffix_queries(dataset, n - 1 - k) for k in range(n)]
    rows = []
    spreads = {}
    for label, mdl in (("memory", model), ("memoryless", baseline_model)):
        values = []
        for k, queries in enumerate(suffixes):
            preds = _predict(mdl, queries, eval_batch_size, seed)
            report = _recall_report(preds[:, -1], dataset)
            rows.append({"model": label, "history_turns": k,
                         "r5": report["r5"], "r8": report["r8"],
                         "mean_r5_r8": report["mean_r5_r8"]})
            values.append(report["mean_r5_r8"])
        spreads[label] = max(values) - min(values)
    summary = {"protocol": TURN_IMPORTANCE_PROTOCOL, "rows": rows, "spread": spreads}
    _write_artifact(out_dir, "turn_importance.json", summary)
    return summary


def turn_order_experiment(model, dataset: SyntheticDataset, count: int,
                          eval_batch_size: int, seed: int,
                          out_dir: str | None = None) -> dict:
    """Compare final-turn retrievals under original and permuted turn order.

    Reports the mean top-5 overlap (|intersection| / 5) and the target
    retention rate: of the transactions whose original-order top-5 contains
    the target, the fraction that still contain it after permutation.
    """
    if count < 1:
        raise ValueError("turn_order_experiment: count must be >= 1")
    queries = dataset.queries[:count]
    originals = _predict(model, queries, eval_batch_size, seed)[:, -1]
    permuted_queries = np.stack([q[_rng(_ORDER_TAG, seed, i).permutation(len(q))]
                                 for i, q in enumerate(queries)])
    permuted = _predict(model, permuted_queries, eval_batch_size, seed)[:, -1]
    overlaps = []
    kept = retained = 0
    for i, target in enumerate(dataset.target_ids[:count, -1].tolist()):
        top_orig = _top5(originals[i], dataset.db)
        top_perm = _top5(permuted[i], dataset.db)
        overlaps.append(len(top_orig & top_perm) / 5.0)
        if target in top_orig:
            kept += 1
            if target in top_perm:
                retained += 1
    report = {"count": len(queries),
              "mean_top5_overlap": float(np.mean(overlaps)),
              "target_retention": (retained / kept) if kept else None}
    _write_artifact(out_dir, "turn_order.json", report)
    return report


BLOCK_MATCH_TOP_SHARE = 0.1


def memory_retention_experiment(model, dataset: SyntheticDataset,
                                eval_batch_size: int, seed: int,
                                out_dir: str | None = None) -> dict:
    """Does turn-1 information survive in later retrievals?

    A retrieved candidate "matches" turn 1 if it lies in the top 10% of the
    db ranked by similarity between its first revealed block and the values
    turn 1 actually revealed; chance level is therefore exactly that share.
    The stateful pass runs the transaction normally; the state-reset
    comparator re-initializes the model before every turn so only the current
    query can influence retrieval.
    """
    queries = dataset.queries
    count, n = len(queries), dataset.max_turns
    db = dataset.db
    top_l = max(1, round(BLOCK_MATCH_TOP_SHARE * len(db)))
    block_norms: dict[int, np.ndarray] = {}  # block -> row norms of that slice
    match_sets = []
    for block, first in zip(dataset.blocks[:, 0].tolist(), queries[:, 0]):
        sl = block_slice(block, dataset.task.block_len, dataset.feature_dim)
        revealed = first[sl]
        sub = db.features[:, sl]
        if block not in block_norms:
            block_norms[block] = np.linalg.norm(sub, axis=1)
        denom = np.maximum(block_norms[block] * max(np.linalg.norm(revealed), 1e-30), 1e-30)
        sims = sub @ revealed / denom
        match_sets.append(set(int(v) for v in top_k(sims, top_l)))
    stateful_preds = _predict(model, queries, eval_batch_size, seed)
    reset_preds = np.concatenate([_predict(model, queries[:, turn:turn + 1], eval_batch_size, seed)
                                  for turn in range(n)], axis=1)

    def rates(preds: np.ndarray) -> list[float]:
        out = []
        for turn in range(n):
            hits = [len(_top5(preds[i, turn], db) & match_sets[i]) / 5.0
                    for i in range(count)]
            out.append(float(np.mean(hits)))
        return out

    report = {"count": count,
              "chance_rate": top_l / len(db),
              "stateful": rates(stateful_preds),
              "state_reset": rates(reset_preds)}
    _write_artifact(out_dir, "memory_retention.json", report)
    return report


def timing_experiment(cascade_configs: Sequence[CascadeConfig], task: TaskConfig,
                      txn_count: int, warmup: int, seed: int,
                      checkpoint_path: str | None = None,
                      out_dir: str | None = None) -> list[dict]:
    """Median single-transaction inference time per architecture.

    Each configuration runs ``warmup`` unmeasured transactions, then at least
    ``txn_count`` measured ones on a monotonic clock. If a checkpoint is
    given, the matching configuration's row also reports its recall on the
    generated transactions, scored as ``evaluate_model`` scores it with the
    checkpoint's eval batch size and seed; a checkpoint trained on another
    task, or one that matches no row, is an error.
    """
    if txn_count < 1:
        raise ValueError("timing_experiment: txn_count must be >= 1")
    loaded = load_checkpoint(checkpoint_path) if checkpoint_path else None
    if loaded is not None:
        if loaded.cfg.model != "cmntm":
            raise CheckpointError(f"{checkpoint_path}: holds a {loaded.cfg.model!r} model; "
                                  f"timing needs a 'cmntm' checkpoint")
        if loaded.cfg.cascade not in cascade_configs:
            raise CheckpointError(f"{checkpoint_path}: its cascade {loaded.cfg.cascade} "
                                  f"matches no timed configuration")
        require_task(loaded.cfg.task, task, CheckpointError,
                     f"{checkpoint_path}: its task differs from the timed task")
    dataset = gen_distractor(task, max(txn_count, 32), split="val")
    rows = []
    for cc in cascade_configs:
        if cc.feature_dim != task.feature_dim:
            raise ValueError("timing_experiment: cascade feature_dim must match the task")
        if loaded is not None and loaded.cfg.cascade == cc:
            model = restore_model(loaded)
            recall = evaluate_model(model, dataset, loaded.cfg.eval_batch_size,
                                    loaded.cfg.seed)["mean_r5_r8"]
        else:
            model = CMNTM(cc, _rng(_MODEL_TAG, seed))
            recall = None
        model.set_training(False)
        times_ms = []
        for i in range(warmup + txn_count):
            state = model.initial_state([_rng(_TIMING_TAG, seed, i)])
            queries = dataset.queries[i % len(dataset.queries)][np.newaxis]
            start = time.perf_counter()
            with no_grad():
                model.forward_transaction(queries, state)
            elapsed = (time.perf_counter() - start) * 1e3
            if i >= warmup:
                times_ms.append(elapsed)
        rows.append({"C": cc.num_stages, "P": cc.mem_locations, "M": cc.mem_width,
                     "mean_r5_r8": recall,
                     "ms_per_txn": float(statistics.median(times_ms))})
    lines = ["C,P,M,mean_r5_r8,ms_per_txn"]
    for row in rows:
        recall_text = "" if row["mean_r5_r8"] is None else f"{row['mean_r5_r8']:.6f}"
        lines.append(f"{row['C']},{row['P']},{row['M']},{recall_text},{row['ms_per_txn']:.6f}")
    _write_artifact(out_dir, "timing.csv", "\n".join(lines) + "\n")
    return rows


def check_timing_monotone(rows: Sequence[dict]) -> None:
    """Verify median time is non-decreasing in stage count at fixed memory size.

    A small relative tolerance absorbs timer jitter; a genuine decrease
    beyond it raises ``TimingMonotonicityError``. Two rows of one (C, P, M)
    would compare a configuration with itself, so they raise ``ValueError``.
    """
    groups: dict[tuple, list[dict]] = {}
    seen = set()
    for row in rows:
        if (config := (row["C"], row["P"], row["M"])) in seen:
            raise ValueError(f"check_timing_monotone: two rows of C={config[0]}, "
                             f"P={config[1]}, M={config[2]}")
        seen.add(config)
        groups.setdefault((row["P"], row["M"]), []).append(row)
    for (p, m), group in groups.items():
        group = sorted(group, key=lambda r: r["C"])
        for prev, cur in zip(group, group[1:]):
            floor = prev["ms_per_txn"] * (1.0 - TIMING_REL_TOL)
            if cur["ms_per_txn"] < floor:
                raise TimingMonotonicityError(
                    f"P={p}, M={m}: median time dropped from {prev['ms_per_txn']:.4f} ms "
                    f"(C={prev['C']}) to {cur['ms_per_txn']:.4f} ms (C={cur['C']})")
