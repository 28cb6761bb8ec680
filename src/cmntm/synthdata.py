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
block. ``make_db`` hands every split of a task, generated or loaded, the
same read-only db for as long as some dataset holds it, so a process holds
each task's db once.

A ``SyntheticDataset`` holds a split as stacked arrays, one row per
transaction. A dataset file is one ``checkpoint`` container of its
transactions' arrays: a JSON ``header`` of the task, the split and the
CRC32 of the db's features, then one entry per array (``_entries``). The db
is a pure function of the task, so the file names it by that CRC32 and a
load takes ``make_db``'s. Arrays are stored as their raw bytes, so files
round-trip exactly and are byte-identical for a given task and count.
"""
from __future__ import annotations

import dataclasses
import json
import weakref
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .checkpoint import load_entries, save_entries
from .errors import CheckpointError, ConfigError, DatasetFormatError, DegenerateInputError
from .retrieval import CandidateDB, row_blocks, score_gap, unsettled, vector_norms

# Seed-derivation tags keep the independent random streams apart.
_DB_TAG = 101
_TXN_TAG = 102
_SPLIT_TAGS = {"train": 1, "val": 2, "test": 3}

_WORD = 0xFFFFFFFF

# make_db's dbs by (seed, db_size, feature_dim); an entry lives while a caller holds its db
_DBS = weakref.WeakValueDictionary()


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


def key_words(*key: int) -> list[int]:
    """The 32-bit words ``np.random.SeedSequence`` hashes for the list key
    ``key``: each int split little-endian, 0 as one word, and a negative
    int a ``ValueError``, as there."""
    words = []
    for k in map(int, key):
        if k < 0:
            raise ValueError(f"a stream key holds {k}; its ints must be >= 0")
        words.append(k & _WORD)
        while k := k >> 32:
            words.append(k & _WORD)
    return words


def stream(words: list[int]) -> np.random.Generator:
    """``np.random.default_rng(np.random.SeedSequence(key))`` for the list
    key whose ``key_words`` are ``words``, seeded from the packed words."""
    return np.random.default_rng(np.random.SeedSequence(np.array(words, np.uint32)))


def streams(key: tuple[int, ...], indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """The ``stream`` of each list key ``(*key, i)`` in index order; ``key``
    is split into words once, and an index below 2^32 is one word."""
    words = key_words(*key)
    for i in map(int, indices):
        yield stream([*words, i] if 0 <= i <= _WORD else words + key_words(i))


def _db_features(config: TaskConfig) -> np.ndarray:
    """The task's unit-norm Gaussian rows, drawn and normalized a block at a
    time straight into float32.

    Consecutive draws continue one stream and each row's norm reduces that
    row alone, so the bytes are those of one full-size float64 ``normal``
    draw, without its temporaries. That draw is ``0.0 + 1.0 * z``, so a
    block filled in place with ``z`` has ``0.0`` added (-0.0 becomes 0.0).
    """
    rng = stream(key_words(_DB_TAG, config.seed))
    feats = np.empty((config.db_size, config.feature_dim), np.float32)
    # a float64 block and the norm's squares of it share one block's budget
    blocks = row_blocks(config.db_size, 16 * config.feature_dim)
    buffer = np.empty((blocks[0].stop, config.feature_dim))
    for rows in blocks:
        block = buffer[:rows.stop - rows.start]
        rng.standard_normal(out=block)
        block += 0.0
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        feats[rows] = block
    return feats


def make_db(config: TaskConfig) -> CandidateDB:
    """I.i.d. unit-norm Gaussian candidate features, one db per task.

    The db depends only on the task's seed, size and feature width, so every
    split of a task gets the same read-only object for as long as some
    dataset holds it; once none does, the next call builds it afresh.
    """
    key = config.seed, config.db_size, config.feature_dim
    db = _DBS.get(key)
    if db is None:
        db = _DBS[key] = CandidateDB(_db_features(config))
    return db


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

    ``normal(0, s)`` is ``0.0 + s * z``, so the noise is filled in place
    with ``z`` and scaled by ``s`` and added to ``0.0`` once per chunk: the
    same bits, signed zeros included.
    """
    config = ds.task
    turns, dim, prob = config.max_turns, config.feature_dim, config.distractor_prob
    picks = np.empty((rows.stop - rows.start, 2), np.int64)  # (ref, target) per transaction
    noise = np.zeros((len(picks), turns, config.block_len))
    blocks, distractor, queries = ds.blocks[rows], ds.distractor[rows], ds.queries[rows]
    key = (_TXN_TAG, config.seed, _SPLIT_TAGS[ds.split])
    for k, rng in enumerate(streams(key, range(rows.start, rows.stop))):
        picks[k] = rng.choice(config.db_size, size=2, replace=False)
        blocks[k] = rng.permutation(config.blocks)[:turns]
        for n in range(turns):
            if rng.random() < prob:
                distractor[k, n] = True
                draw = rng.normal(size=dim)
                queries[k, n] = draw / np.linalg.norm(draw)
            else:
                rng.standard_normal(out=noise[k, n])
    # a distractor's 0 times an infinite scale is a NaN that _assemble never
    # reads, and normal(0, inf) warns of nothing
    with np.errstate(invalid="ignore"):
        noise *= config.noise_std
    noise += 0.0
    ds.refs[rows] = picks[:, 0]
    return picks[:, 1], noise


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
        # as np.linalg.norm computes each row's; a float64 array, so that
        # db.row_norms * norm stays float64
        norms = np.maximum(vector_norms(composites), 1e-30)
        ds.target_ids[rows] = _nearest_ids(db, composites, norms).reshape(-1, turns)
    return ds


# ---------------------------------------------------------------------------
# serialization


def _entries(dataset: SyntheticDataset) -> dict[str, np.ndarray]:
    """The transactions' arrays by the name of the file entry that stores each, in file order."""
    return {"queries": dataset.queries, "target_ids": dataset.target_ids,
            "meta.ref": dataset.refs, "meta.block": dataset.blocks,
            "meta.distractor": dataset.distractor.view(np.uint8)}


def save_dataset(dataset: SyntheticDataset, path: str) -> None:
    """Write ``dataset`` as one checkpoint container (deterministic bytes).

    The header records the CRC32 of the db's features in place of the db,
    which ``make_db`` draws again from the task. The file is replaced
    atomically: a failed write leaves ``path`` as it was.
    """
    header = json.dumps({"task": dataclasses.asdict(dataset.task), "split": dataset.split,
                         "db_crc32": zlib.crc32(dataset.db.features)},
                        sort_keys=True, separators=(",", ":"))
    save_entries(path, {"header": np.frombuffer(header.encode("utf-8"), np.uint8),
                        **_entries(dataset)})


def load_dataset(path: str) -> SyntheticDataset:
    """Read a file ``save_dataset`` wrote.

    The container checks its own structure (magic, sizes, truncation,
    duplicate names). This checks what the entries mean: the header's task
    passes the checks a config file's task gets, every entry is present with
    the dtype and shape the task gives it, queries are finite, target and
    reference ids lie in ``[0, S)``, blocks in ``[0, task.blocks)``, and
    distractor flags are 0 or 1. A failure raises ``DatasetFormatError``
    naming the entry.

    Only then does the split take ``make_db(task)``, the live db of its
    task or a fresh draw, so loaded and generated splits hold one db. The
    header's task is trusted for the size of that draw, as a config file's
    task is. The db's CRC32 must be the one the header records, or the load
    fails on ``header``: a guard against accidents, such as a changed numpy
    generator or an edited header, not against an adversary. A file of the
    earlier layout, which stored the db and no CRC32, fails on its header.
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
        if not (isinstance(raw, dict) and raw.keys() == {"db_crc32", "split", "task"}
                and type(raw["db_crc32"]) is int and raw["split"] in tuple(_SPLIT_TAGS)):
            raise ValueError(f'must be an object of an integer "db_crc32", a "task" and a '
                             f'"split" in {tuple(_SPLIT_TAGS)}')
        fields = _section(raw["task"], TaskConfig, _TASK_KEYS, "task")
        if missing := sorted(_TASK_KEYS - fields.keys()):
            raise ValueError(f"task lacks {missing}")
        task = TaskConfig(**fields)
    except (ValueError, ConfigError) as e:
        raise bad("header", str(e)) from None
    s, n, d = task.db_size, task.max_turns, task.feature_dim
    t = entries["queries"].shape[:1] if "queries" in entries else ()  # (T,); () fails below
    layout = {"queries": (np.float32, (*t, n, d)), "target_ids": (np.int64, (*t, n)),
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
            ("queries", ~np.isfinite(entries["queries"]), "a non-finite value"),
            ("target_ids", (targets < 0) | (targets >= s), "an id not in the db"),
            ("meta.ref", (refs < 0) | (refs >= s), "an id not in the db"),
            ("meta.block", (blocks < 0) | (blocks >= task.blocks),
             f"a block outside [0, {task.blocks})"),
            ("meta.distractor", entries["meta.distractor"] > 1, "a flag other than 0 or 1")):
        if wrong.any():
            raise bad(name, f"holds {what}: {entries[name][wrong][0]}")
    db = make_db(task)
    if (crc := zlib.crc32(db.features)) != raw["db_crc32"]:
        raise bad("header", f"records db CRC32 {raw['db_crc32']}, but its task's db has {crc}")
    # the flags were checked to be 0 or 1, so they view as bools
    return SyntheticDataset(task, db, entries["queries"], targets, refs, blocks,
                            entries["meta.distractor"].view(bool), raw["split"])


def datasets_equal(a: SyntheticDataset, b: SyntheticDataset) -> bool:
    """Structural equality over everything that serialization preserves: the
    task, the split, the db's features and the transactions' arrays."""
    return ((a.task, a.split) == (b.task, b.split)
            and np.array_equal(a.db.features, b.db.features)
            and all(np.array_equal(x, y) for x, y in zip(_entries(a).values(),
                                                          _entries(b).values())))
