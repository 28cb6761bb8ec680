"""Synthetic multi-turn retrieval tasks.

Each transaction starts from a reference item and progressively reveals
disjoint coordinate blocks of a hidden target item, one block per turn. A
turn's query is the reference feature with that turn's block swapped for the
target's values (plus optional noise); the ground-truth item for turn n is the
database item nearest (by cosine) to the clean composite of everything
revealed through turn n. Memory is therefore required: no single turn
identifies the final target on its own.

``gen_distractor`` works a chunk of transactions at a time. Each transaction
draws from its own seeded generator, in a fixed order of calls; array
operations then build the whole chunk's queries and clean composites, a few
indexed writes per turn. A composite holds only db values, so one float32
GEMM screens the chunk's composites against ``db.features``, and each turn
takes its row's argmax. Where ``retrieval.unsettled`` finds another cosine
within the float32 gap of the best, the candidates inside the gap are
scored again in float64, and only a float64 near tie is searched again with
the per-turn GEMV (``_nearest_id``); every id thus equals a
one-float64-GEMV-per-turn search's, ties included. Chunks are cut by
``retrieval.row_blocks``, so that a chunk's float32 scores fit one score
block. ``make_db`` hands every split of a task the same read-only db for as
long as some dataset holds it, and ``load_dataset`` hands a split the live
db its file's db equals, so a process holds each task's db once.

A ``SyntheticDataset`` holds a split as stacked arrays, one row per
transaction. A dataset file is one ``checkpoint`` container of those same
arrays: a JSON ``header`` of the task and split, then one entry per array
(``_entries``). Arrays are stored as their raw bytes, so files round-trip
exactly and are byte-identical for a given task and count.
"""
from __future__ import annotations

import dataclasses
import json
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checkpoint import load_entries, save_entries
from .errors import CheckpointError, ConfigError, DatasetFormatError, DegenerateInputError
from .retrieval import CandidateDB, row_blocks, score_gap, unsettled

# Seed-derivation tags keep the independent random streams apart.
_DB_TAG = 101
_TXN_TAG = 102
_SPLIT_TAGS = {"train": 1, "val": 2, "test": 3}

# make_db's dbs by (seed, db_size, feature_dim); an entry lives while a caller holds its db
_DBS = weakref.WeakValueDictionary()
# the dbs load_dataset built, by the same key; kept apart so that make_db
# never returns a db read from a file
_LOADED_DBS = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class TaskConfig:
    """Generator parameters for the block-reveal task family."""

    feature_dim: int = 32
    blocks: int = 4          # coordinate blocks the feature space is cut into
    max_turns: int = 4       # turns per transaction (each reveals one block)
    db_size: int = 256
    noise_std: float = 0.05  # noise added to revealed block values
    distractor_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.max_turns < 1:
            raise ValueError("TaskConfig: max_turns must be >= 1")
        if self.blocks < self.max_turns:
            raise ValueError("TaskConfig: blocks must be >= max_turns so turns reveal disjoint blocks")
        if self.feature_dim % self.blocks != 0:
            raise ValueError("TaskConfig: feature_dim must be divisible by blocks")
        if self.db_size < 8:
            raise ValueError("TaskConfig: db_size must be >= 8")
        if self.noise_std < 0:
            raise ValueError("TaskConfig: noise_std must be >= 0")
        if not (0.0 <= self.distractor_prob <= 1.0):
            raise ValueError("TaskConfig: distractor_prob must be in [0, 1]")
        if self.seed < 0:
            raise ValueError("TaskConfig: seed must be >= 0")

    @property
    def block_len(self) -> int:
        return self.feature_dim // self.blocks


def block_slice(block: int, block_len: int, feature_dim: int) -> slice:
    """The coordinates of ``block``; a block that ends past the feature raises."""
    if (block + 1) * block_len > feature_dim:
        raise DegenerateInputError(
            f"block {block} of length {block_len} ends past feature dim {feature_dim}")
    return slice(block * block_len, (block + 1) * block_len)


class Transaction(NamedTuple):
    """Views of one dataset row: its (N, D) queries and (N,) target ids."""

    queries: np.ndarray
    target_ids: np.ndarray

    @property
    def num_turns(self) -> int:
        return len(self.queries)


@dataclass
class SyntheticDataset:
    """T transactions of the task's N turns each, as stacked arrays.

    An id is a row of the db: a turn's ground-truth feature is
    ``db.features[target_id]``, so every id must lie in ``[0, len(db))``.
    """

    task: TaskConfig        # the task the transactions were drawn from
    db: CandidateDB
    queries: np.ndarray     # (T, N, D) float32 query feature per turn
    target_ids: np.ndarray  # (T, N) int64 per-turn ground-truth id
    refs: np.ndarray        # (T,) int64 reference id each transaction starts from
    blocks: np.ndarray      # (T, N) int64 coordinate block each turn reveals
    distractor: np.ndarray  # (T, N) bool, True where the query is pure noise
    split: str

    def __post_init__(self):
        t, n, d = len(self.queries), self.task.max_turns, self.db.dim
        shapes = [a.shape for a in (self.queries, self.target_ids, self.refs, self.blocks,
                                    self.distractor)]
        if shapes != [(t, n, d), (t, n), (t,), (t, n), (t, n)]:
            raise DegenerateInputError(
                f"SyntheticDataset: queries, target ids, refs, blocks and distractor flags "
                f"of shapes {shapes} do not hold the same {t} transactions of {n} turns")
        for name, ids in (("target ids", self.target_ids), ("refs", self.refs)):
            outside = (ids < 0) | (ids >= len(self.db))
            if outside.any():
                raise DegenerateInputError(f"SyntheticDataset: {name} must lie in "
                                           f"[0, {len(self.db)}), got {ids[outside][0]}")

    @property
    def max_turns(self) -> int:
        return self.task.max_turns

    @property
    def feature_dim(self) -> int:
        return self.db.dim

    @property
    def transactions(self) -> list[Transaction]:
        """Each row's views, for readers that take one transaction at a time."""
        return [Transaction(q, t) for q, t in zip(self.queries, self.target_ids)]


def _db_key(config: TaskConfig) -> tuple[int, int, int]:
    return config.seed, config.db_size, config.feature_dim


def _db_features(config: TaskConfig) -> np.ndarray:
    """The task's unit-norm Gaussian rows, drawn and normalized a block at a
    time straight into float32.

    Consecutive ``normal`` calls continue one stream and each row's norm
    reduces that row alone, so the bytes are those of one full-size float64
    draw, without its temporaries.
    """
    rng = np.random.default_rng(np.random.SeedSequence([_DB_TAG, config.seed]))
    feats = np.empty((config.db_size, config.feature_dim), np.float32)
    # a float64 block and the norm's squares of it share one block's budget
    for rows in row_blocks(config.db_size, 16 * config.feature_dim):
        block = rng.normal(size=(rows.stop - rows.start, config.feature_dim))
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        feats[rows] = block
    return feats


def make_db(config: TaskConfig) -> CandidateDB:
    """I.i.d. unit-norm Gaussian candidate features, one db per task.

    The db depends only on the task's seed, size and feature width, so every
    split of a task gets the same read-only object for as long as some
    dataset holds it; once none does, the next call builds it afresh.
    """
    key = _db_key(config)
    db = _DBS.get(key)
    if db is None:
        db = _DBS[key] = CandidateDB(_db_features(config))
    return db


def _holds(db: CandidateDB, features: np.ndarray) -> bool:
    """Whether ``db``'s float32 features equal these, byte for byte.

    The caller found ``db`` by the task's ``_db_key``, so the shapes agree.
    The features are compared as int32 bit patterns, a block of rows at a
    time, so -0.0 differs from 0.0 and no full-size temporary is built.
    """
    return all(np.array_equal(db.features[rows].view(np.int32), features[rows].view(np.int32))
               for rows in row_blocks(len(features), 4 * db.dim))


def _nearest_id(db: CandidateDB, vector: np.ndarray) -> int:
    """Id of the candidate with the highest cosine similarity to the float64
    ``vector``, from one float64 GEMV over the whole db: the search every
    id of ``_nearest_ids`` equals. The db's float64 cast is built per call,
    as only a float64 near tie comes here.

    The floor is an ``np.float64``, so the denominators stay float64 under
    NEP 50 even below it.
    """
    norms = db.row_norms * np.maximum(np.linalg.norm(vector), 1e-30)
    return int(np.argmax(db.features.astype(np.float64) @ vector / norms))


def _nearest_ids(db: CandidateDB, composites: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``_nearest_id`` of every row of the float64 ``composites``, screened
    by one float32 GEMM.

    ``norms[j]`` is ``np.maximum(np.linalg.norm(composites[j]), 1e-30)``, a
    float64 array. A composite holds float32 db values, so its float32 cast
    is exact and the screen multiplies ``_nearest_id``'s own operands; a
    cast that rounded would add only u32 |f| |v|. Each screen cosine is a
    float32 dot product divided, in float64, by ``_nearest_id``'s own
    denominator ``db.row_norms * norm``, then rounded to float32, so it lies
    within 2 (D + 1) eps32 of the GEMV's (``unsettled``). The norm's floor
    and ``CandidateDB``'s keep every denominator above 1e-38, so float32
    underflow, at most D 2^-150 in a dot product, adds under 1.2 D u32 and
    stays inside that bound's margin too.

    A row the screen leaves unsettled has the GEMV's argmax among the
    candidates within the float32 gap of its best. Those are scored again
    by a float64 GEMV of their rows alone, which lies within
    2 (D + 1) eps64 of the full GEMV, and the same rule at float64's eps
    settles the row. A float64 near tie, or a non-finite screen score,
    falls back to ``_nearest_id``, so every id is the one it returns.
    """
    cosines = composites.astype(np.float32) @ db.features.T
    # 64 rows per division: the float64 denominators are the per-row ones,
    # in a temporary of 64 score rows (128 KB at desk)
    for i in range(0, len(cosines), 64):
        cosines[i:i + 64] /= norms[i:i + 64, None] * db.row_norms
    best = np.argmax(cosines, axis=1)
    _, near = unsettled(cosines, best, db.dim, (1,))
    gap = score_gap(np.float32, db.dim)
    for j in np.flatnonzero(near):
        row = cosines[j]
        if np.isfinite(row).all():
            cols = np.flatnonzero(row >= row[best[j]] - gap)
            rescored = (db.features[cols].astype(np.float64) @ composites[j]
                        / (norms[j] * db.row_norms[cols]))
            top = np.argmax(rescored)
            _, tie = unsettled(rescored[None], [top], db.dim, (1,))
            if not tie[0]:
                best[j] = cols[top]
                continue
        best[j] = _nearest_id(db, composites[j])
    return best


def _draw(ds: SyntheticDataset, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """Draw transactions ``rows`` of ``ds``.

    Their refs, blocks, distractor flags and distractor turns' queries are
    written into ``ds``. Returned are each one's target id, and the noise
    on each turn's revealed block (0 on a distractor), shaped
    (n, N, block_len). Each transaction draws from its own generator, keyed
    by its index, so generation order never affects content.
    """
    config = ds.task
    turns, dim = config.max_turns, config.feature_dim
    targets = np.empty(rows.stop - rows.start, np.int64)
    noise = np.zeros((len(targets), turns, config.block_len))
    for k, i in enumerate(range(rows.start, rows.stop)):
        rng = np.random.default_rng(
            np.random.SeedSequence([_TXN_TAG, config.seed, _SPLIT_TAGS[ds.split], i]))
        ds.refs[i], targets[k] = rng.choice(config.db_size, size=2, replace=False)
        ds.blocks[i] = rng.permutation(config.blocks)[:turns]
        for n in range(turns):
            if rng.random() < config.distractor_prob:
                ds.distractor[i, n] = True
                draw = rng.normal(size=dim)
                ds.queries[i, n] = draw / np.linalg.norm(draw)
            else:
                noise[k, n] = rng.normal(0.0, config.noise_std, size=config.block_len)
    return targets, noise


def _assemble(ds: SyntheticDataset, rows: slice, targets: np.ndarray, noise: np.ndarray,
              composites: np.ndarray) -> None:
    """Fill the revealing turns' queries of ``ds``'s ``rows``, and each
    turn's clean float64 composite.

    ``composites[k, n]`` is the chunk's transaction k's composite after turn
    n. An id is its row of ``ds.db.features``. Each value is the elementwise
    result one transaction at a time would give: a copied feature, or a
    float64 sum cast once to float32.
    """
    refs, blocks, distractor, queries = (ds.refs[rows], ds.blocks[rows], ds.distractor[rows],
                                         ds.queries[rows])
    features, block_len = ds.db.features, ds.task.block_len
    k = np.arange(len(refs))[:, None]
    composite = features[refs].astype(np.float64)
    for n in range(blocks.shape[1]):
        cols = blocks[:, n, None] * block_len + np.arange(block_len)
        revealed = features[targets[:, None], cols]
        query = features[refs]
        # float32 revealed values upcast exactly before the noise is added
        query[k, cols] = revealed + noise[:, n]
        live = ~distractor[:, n]
        np.copyto(queries[:, n], query, where=live[:, None])
        composite[k[live], cols[live]] = revealed[live]
        composites[:, n] = composite


def gen_distractor(config: TaskConfig, count: int, split: str = "train") -> SyntheticDataset:
    """Block-reveal transactions where turns become pure noise with
    probability ``config.distractor_prob``; ground truth ignores such turns.

    Transactions are made a chunk at a time, straight into the dataset's
    arrays: each draws from its own generator, then array operations build
    the whole chunk's queries and composites turn by turn, and one float32
    GEMM screens its ground truth (``_nearest_ids``).
    """
    if split not in _SPLIT_TAGS:
        raise ValueError(f"unknown split {split!r}; expected one of {sorted(_SPLIT_TAGS)}")
    if count < 1:
        raise ValueError("dataset must contain at least one transaction")
    db = make_db(config)
    turns, dim = config.max_turns, config.feature_dim
    # the ids start as 0, a row of the db, since the dataset checks them
    ds = SyntheticDataset(config, db, np.empty((count, turns, dim), np.float32),
                          np.zeros((count, turns), np.int64), np.zeros(count, np.int64),
                          np.empty((count, turns), np.int64), np.zeros((count, turns), bool),
                          split)
    # a chunk's float32 scores fit one score block
    chunks = row_blocks(count, 4 * len(db) * turns)
    buffer = np.empty((chunks[0].stop, turns, dim))
    for rows in chunks:
        targets, noise = _draw(ds, rows)
        composites = buffer[:len(targets)]
        _assemble(ds, rows, targets, noise, composites)
        composites = composites.reshape(-1, dim)
        # as np.linalg.norm computes a vector's: one dot per row, so the same
        # sum; a float64 array, so that db.row_norms * norm stays float64
        norms = np.maximum(np.sqrt([c.dot(c) for c in composites]), 1e-30)
        ds.target_ids[rows] = _nearest_ids(db, composites, norms).reshape(-1, turns)
    return ds


# ---------------------------------------------------------------------------
# serialization


def _entries(dataset: SyntheticDataset) -> dict[str, np.ndarray]:
    """The dataset's arrays by the name of the file entry that stores each, in file order."""
    return {"db.ids": dataset.db.ids, "db.features": dataset.db.features,
            "queries": dataset.queries, "target_ids": dataset.target_ids,
            "meta.ref": dataset.refs, "meta.block": dataset.blocks,
            "meta.distractor": dataset.distractor.view(np.uint8)}


def save_dataset(dataset: SyntheticDataset, path: str) -> None:
    """Write ``dataset`` as one checkpoint container (deterministic bytes).

    The file is replaced atomically: a failed write leaves ``path`` as it was.
    """
    header = json.dumps({"task": dataclasses.asdict(dataset.task), "split": dataset.split},
                        sort_keys=True, separators=(",", ":"))
    save_entries(path, {"header": np.frombuffer(header.encode("utf-8"), np.uint8),
                        **_entries(dataset)})


def load_dataset(path: str) -> SyntheticDataset:
    """Read a file ``save_dataset`` wrote.

    The container checks its own structure (magic, sizes, truncation,
    duplicate names). This checks what the entries mean: the header's task
    passes the checks a config file's task gets, every entry is present with
    the dtype and shape the task gives it, ``db.ids`` is 0..S-1 (an id is
    its row), values are finite, target and reference ids lie in
    ``[0, S)``, blocks in ``[0, task.blocks)``, and distractor flags are 0
    or 1. A failure raises ``DatasetFormatError`` naming the entry.

    The split takes a live db of its task whose features equal the file's
    byte for byte, ``make_db``'s or an earlier load's, so loaded
    splits hold one db. Otherwise it builds its own, which later loads may
    take and ``make_db`` never returns.
    """
    from .config import _TASK_KEYS, _section  # config imports this module

    def bad(entry: str, detail: str) -> DatasetFormatError:
        return DatasetFormatError(path, f"entry {entry!r} {detail}")

    try:
        entries = load_entries(path)
    except CheckpointError as e:
        # the container's messages start with the path already
        raise DatasetFormatError(path, str(e).removeprefix(f"{path}: ")) from None
    header = entries.get("header")
    if header is None or header.dtype != np.uint8 or header.ndim != 1:
        raise bad("header", "must be present as a uint8 vector")
    try:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors, as TaskConfig's are
        raw = json.loads(header.tobytes().decode("utf-8"))
        if not (isinstance(raw, dict) and raw.keys() == {"task", "split"}
                and raw["split"] in tuple(_SPLIT_TAGS)):
            raise ValueError(f'must be an object of "task" and a "split" in {tuple(_SPLIT_TAGS)}')
        fields = _section(raw["task"], TaskConfig, _TASK_KEYS, "task")
        if missing := sorted(_TASK_KEYS - fields.keys()):
            raise ValueError(f"task lacks {missing}")
        task = TaskConfig(**fields)
    except (ValueError, ConfigError) as e:
        raise bad("header", str(e)) from None
    s, n, d = task.db_size, task.max_turns, task.feature_dim
    t = entries["queries"].shape[:1] if "queries" in entries else ()  # (T,); () fails below
    layout = {"db.ids": (np.int64, (s,)), "db.features": (np.float32, (s, d)),
              "queries": (np.float32, (*t, n, d)), "target_ids": (np.int64, (*t, n)),
              "meta.ref": (np.int64, t), "meta.block": (np.int64, (*t, n)),
              "meta.distractor": (np.uint8, (*t, n))}
    if extra := sorted(entries.keys() - layout.keys() - {"header"}):
        raise bad(extra[0], "is not a dataset entry")
    for name, (dtype, shape) in layout.items():
        if name not in entries:
            raise bad(name, "is missing")
        got = entries[name]
        if got.dtype != dtype or got.shape != shape:
            raise bad(name, f"must be {np.dtype(dtype)} of shape {shape}, "
                            f"got {got.dtype} of shape {got.shape}")
    if t == (0,):
        raise bad("queries", "holds no transactions")
    blocks, targets, refs = entries["meta.block"], entries["target_ids"], entries["meta.ref"]
    for name, wrong, what in (
            ("db.ids", entries["db.ids"] != np.arange(s), "an id other than its row"),
            ("db.features", ~np.isfinite(entries["db.features"]), "a non-finite value"),
            ("queries", ~np.isfinite(entries["queries"]), "a non-finite value"),
            ("target_ids", (targets < 0) | (targets >= s), "an id not in the db"),
            ("meta.ref", (refs < 0) | (refs >= s), "an id not in the db"),
            ("meta.block", (blocks < 0) | (blocks >= task.blocks),
             f"a block outside [0, {task.blocks})"),
            ("meta.distractor", entries["meta.distractor"] > 1, "a flag other than 0 or 1")):
        if wrong.any():
            raise bad(name, f"holds {what}: {entries[name][wrong][0]}")
    features, key = entries["db.features"], _db_key(task)
    db = next((live for live in (_DBS.get(key), _LOADED_DBS.get(key))
               if live is not None and _holds(live, features)), None)
    if db is None:
        try:
            db = _LOADED_DBS[key] = CandidateDB(features)
        except DegenerateInputError as e:
            raise bad("db.features", f"makes no candidate db: {e}") from None
    # the flags were checked to be 0 or 1, so they view as bools
    return SyntheticDataset(task, db, entries["queries"], targets, refs, blocks,
                            entries["meta.distractor"].view(bool), raw["split"])


def datasets_equal(a: SyntheticDataset, b: SyntheticDataset) -> bool:
    """Structural equality over everything that serialization preserves."""
    return ((a.task, a.split) == (b.task, b.split)
            and all(np.array_equal(x, y) for x, y in zip(_entries(a).values(),
                                                          _entries(b).values())))
