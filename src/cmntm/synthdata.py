"""Synthetic multi-turn retrieval tasks.

Each transaction starts from a reference item and progressively reveals
disjoint coordinate blocks of a hidden target item, one block per turn. A
turn's query is the reference feature with that turn's block swapped for the
target's values (plus optional noise); the ground-truth item for turn n is the
database item nearest (by cosine) to the clean composite of everything
revealed through turn n. Memory is therefore required: no single turn
identifies the final target on its own.

``gen_distractor`` draws each transaction from its own seeded generator, then
finds the ground truth of a chunk of transactions at once: the chunk's
composites fill one float64 block, one GEMM scores it against the db, and
each turn takes its row's argmax. GEMM and GEMV round differently, so a turn
whose best cosine lies within 8 * D * eps of another's is searched again
with the per-turn GEMV (``_nearest_id``); every id thus equals a
one-GEMV-per-turn search's, ties included. The chunk size follows
from the db size and turn count, keeping the score block near 5 MB.

Datasets serialize to JSON lines: one header object, one object per database
item, then one object per transaction. Floats are written as exact decimal
representations of their single-precision values, so files round-trip
losslessly and are byte-identical for a given seed.
"""
from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DatasetFormatError, DegenerateInputError
from .fileio import atomic_open
from .retrieval import SCORE_BLOCK_BYTES, CandidateDB

FILE_VERSION = 1

# Seed-derivation tags keep the independent random streams apart.
_DB_TAG = 101
_TXN_TAG = 102
_SPLIT_TAGS = {"train": 1, "val": 2, "test": 3}


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


@dataclass
class TurnMeta:
    block: int        # which coordinate block this turn addressed
    distractor: bool  # True if the query was replaced by pure noise


@dataclass
class TransactionMeta:
    """Generation-time facts needed by oracle baselines and probe experiments."""

    reference_id: int
    turns: list[TurnMeta]


@dataclass
class Transaction:
    """One multi-turn retrieval episode of exactly the dataset's N_max turns.

    A turn's ground-truth feature is the dataset db's row for its target id.
    """

    queries: np.ndarray     # (N, D) float32 query feature per turn
    target_ids: np.ndarray  # (N,) int64 per-turn ground-truth item id
    meta: TransactionMeta | None = None

    def __post_init__(self):
        self.queries = np.asarray(self.queries, dtype=np.float32)
        self.target_ids = np.asarray(self.target_ids, dtype=np.int64)
        if self.target_ids.shape != (self.queries.shape[0],):
            raise DegenerateInputError("Transaction: inconsistent turn counts")

    @property
    def num_turns(self) -> int:
        return self.queries.shape[0]


@dataclass
class SyntheticDataset:
    max_turns: int
    db: CandidateDB
    transactions: list[Transaction]
    split: str = "train"

    @property
    def feature_dim(self) -> int:
        return self.db.dim


def make_db(config: TaskConfig) -> CandidateDB:
    """I.i.d. unit-norm Gaussian candidate features, shared across splits."""
    rng = np.random.default_rng(np.random.SeedSequence([_DB_TAG, config.seed]))
    feats = rng.normal(size=(config.db_size, config.feature_dim))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    return CandidateDB(np.arange(config.db_size), feats.astype(np.float32))


def _nearest_id(db: CandidateDB, features64: np.ndarray, vector: np.ndarray) -> int:
    """Id of the candidate with the highest cosine similarity to ``vector``.

    ``features64`` is ``db.features`` cast to float64 once by the caller.
    """
    norms = db.row_norms * max(np.linalg.norm(vector), 1e-30)
    return int(db.ids[np.argmax(features64 @ vector / norms)])


# A float64 dot product of length D, summed in any order, is within
# gamma_D * sum|f_k v_k| <= gamma_D |f| |v| of the exact value, where
# gamma_D = D u / (1 - D u) and u = eps / 2 (Higham, "Accuracy and Stability
# of Numerical Algorithms", section 3.1). The cosine denominator is the same
# in both searches and within float32 rounding of |f| |v|, so a GEMM cosine
# and a GEMV cosine of the same row differ by at most 2 gamma_D plus two
# division roundings, just over D eps. When the GEMM's best cosine leads
# every other row's by more than twice that, the GEMV's argmax is the same
# row; a bound of 8 D eps leaves a margin of 4.
_NEAR_TIE_EPS = 8


def _chunk_txns(config: TaskConfig) -> int:
    """Transactions whose turns are resolved together by one GEMM: 16 of 4
    turns each fill the float64 score block at db 10k."""
    return max(1, SCORE_BLOCK_BYTES // (8 * config.db_size * config.max_turns))


def _nearest_ids(db: CandidateDB, features64: np.ndarray, composites: np.ndarray,
                 norms: list[float]) -> np.ndarray:
    """``_nearest_id`` of every row of ``composites``, from one GEMM.

    ``norms[j]`` is ``max(np.linalg.norm(composites[j]), 1e-30)``, the scalar
    ``_nearest_id`` scales the row norms by. GEMM and GEMV round differently,
    so a row whose best cosine is within the near-tie bound of another is
    resolved again with ``_nearest_id``; every id then equals its result.
    """
    cosines = composites @ features64.T
    for row, norm in zip(cosines, norms):
        row /= db.row_norms * norm
    rows = np.arange(len(cosines))
    best = np.argmax(cosines, axis=1)
    top = cosines[rows, best]
    cosines[rows, best] = -np.inf
    near = top - np.max(cosines, axis=1) <= _NEAR_TIE_EPS * db.dim * np.finfo(np.float64).eps
    ids = db.ids[best]
    for j in np.flatnonzero(near):
        ids[j] = _nearest_id(db, features64, composites[j])
    return ids


def gen_distractor(config: TaskConfig, count: int, split: str = "train") -> SyntheticDataset:
    """Block-reveal transactions where turns become pure noise with
    probability ``config.distractor_prob``; ground truth ignores such turns."""
    if split not in _SPLIT_TAGS:
        raise ValueError(f"unknown split {split!r}; expected one of {sorted(_SPLIT_TAGS)}")
    if count < 1:
        raise ValueError("dataset must contain at least one transaction")
    db = make_db(config)
    # one upcast per call; each chunk's GEMM then reads it directly
    features64 = db.features.astype(np.float64)
    split_tag = _SPLIT_TAGS[split]
    turns = config.max_turns
    chunk = _chunk_txns(config)
    composites = np.empty((min(chunk, count) * turns, config.feature_dim))
    transactions = []
    for start in range(0, count, chunk):
        drawn, norms = [], []
        for index in range(start, min(start + chunk, count)):
            # per-transaction generator: generation order never affects content
            rng = np.random.default_rng(
                np.random.SeedSequence([_TXN_TAG, config.seed, split_tag, index]))
            ref, tgt = (int(v) for v in rng.choice(config.db_size, size=2, replace=False))
            block_order = [int(b) for b in rng.permutation(config.blocks)[:turns]]
            composite = db.feature_of(ref).astype(np.float64)
            queries, metas = [], []
            for block in block_order:
                is_distractor = rng.random() < config.distractor_prob
                if is_distractor:
                    noise = rng.normal(size=config.feature_dim)
                    query = noise / np.linalg.norm(noise)
                else:
                    sl = block_slice(block, config.block_len, config.feature_dim)
                    query = db.feature_of(ref).astype(np.float64)
                    query[sl] = db.feature_of(tgt)[sl] + rng.normal(0.0, config.noise_std,
                                                                    size=config.block_len)
                    composite[sl] = db.feature_of(tgt)[sl]
                queries.append(query.astype(np.float32))
                composites[len(norms)] = composite
                norms.append(max(np.linalg.norm(composite), 1e-30))
                metas.append(TurnMeta(block=block, distractor=is_distractor))
            drawn.append((np.stack(queries), TransactionMeta(reference_id=ref, turns=metas)))
        target_ids = _nearest_ids(db, features64, composites[:len(norms)], norms)
        for k, (queries, meta) in enumerate(drawn):
            transactions.append(Transaction(queries=queries,
                                            target_ids=target_ids[k * turns:(k + 1) * turns],
                                            meta=meta))
    return SyntheticDataset(config.max_turns, db, transactions, split)


def gen_block_reveal(config: TaskConfig, count: int, split: str = "train") -> SyntheticDataset:
    """Progressive block-reveal transactions with no distractor turns."""
    return gen_distractor(dataclasses.replace(config, distractor_prob=0.0), count, split)


def oracle_features(txn: Transaction, db: CandidateDB,
                    block_len: int) -> np.ndarray:
    """Per-turn composites a construction-aware oracle would retrieve with.

    Starting from the reference feature, each non-distractor turn's revealed
    block values (as stored in the query, noise included) overwrite the
    composite. Requires generation metadata.
    """
    if txn.meta is None:
        raise DegenerateInputError("oracle_features: transaction has no generation metadata")
    composite = db.feature_of(txn.meta.reference_id).astype(np.float64).copy()
    out = np.empty_like(txn.queries, dtype=np.float64)
    for n, turn_meta in enumerate(txn.meta.turns):
        if not turn_meta.distractor:
            sl = block_slice(turn_meta.block, block_len, db.dim)
            composite[sl] = txn.queries[n][sl]
        out[n] = composite
    return out.astype(np.float32)


# ---------------------------------------------------------------------------
# serialization


def _float_list(arr: np.ndarray) -> list[float]:
    # float32 -> float64 is exact, and json round-trips doubles exactly, so
    # values survive save/load bit-for-bit
    return np.asarray(arr, np.float32).astype(np.float64).tolist()


def save_dataset(dataset: SyntheticDataset, path: str) -> None:
    """Write JSON lines: header, db items, transactions (deterministic bytes).

    The file is replaced atomically: a failed write leaves ``path`` as it was.
    """
    with atomic_open(path, "w", encoding="utf-8") as fh:
        header = {"version": FILE_VERSION, "D": dataset.feature_dim,
                  "N_max": dataset.max_turns, "db_size": len(dataset.db),
                  "split": dataset.split}
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for i in range(len(dataset.db)):
            item = {"id": int(dataset.db.ids[i]), "feature": _float_list(dataset.db.features[i])}
            fh.write(json.dumps(item, separators=(",", ":")) + "\n")
        for txn in dataset.transactions:
            obj = {
                # the file format keeps this field; it always equals N_max
                "original_len": dataset.max_turns,
                "turns": [{"qry": _float_list(txn.queries[n]),
                           "target_id": int(txn.target_ids[n])}
                          for n in range(txn.num_turns)],
            }
            if txn.meta is not None:
                obj["meta"] = {"ref": txn.meta.reference_id,
                               "turns": [{"block": t.block, "distractor": t.distractor}
                                         for t in txn.meta.turns]}
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _parse_line(path: str, line_no: int, line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DatasetFormatError(path, line_no, f"invalid JSON: {e.msg}") from None
    if not isinstance(obj, dict):
        raise DatasetFormatError(path, line_no, "expected a JSON object")
    return obj


def _require(obj: dict, key: str, path: str, line_no: int):
    try:
        return obj[key]
    except KeyError:
        raise DatasetFormatError(path, line_no, f"missing key {key!r}") from None
    except TypeError:
        raise DatasetFormatError(path, line_no,
                                 f"expected an object with key {key!r}, got {obj!r:.40}") from None


def _int(obj: dict, key: str, path: str, line_no: int) -> int:
    value = _require(obj, key, path, line_no)
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    # ids are stored as int64
    if number is None or abs(number) >= 2 ** 63:
        raise DatasetFormatError(path, line_no, f"{key} must be a 64-bit integer, got {value!r:.40}")
    return number


def _read_floats(obj: dict, key: str, out: np.ndarray, path: str, line_no: int) -> None:
    """Write the number list ``obj[key]`` into the float32 row ``out``.

    A null entry is stored as NaN; callers reject non-finite rows.
    """
    value = _require(obj, key, path, line_no)
    if isinstance(value, list) and len(value) == len(out):
        try:
            out[:] = value
            return
        except (TypeError, ValueError):
            pass
    raise DatasetFormatError(path, line_no, f"{key} must be a list of {len(out)} numbers")


def _turn_meta(obj: dict, feature_dim: int, path: str, line_no: int) -> TurnMeta:
    block = _int(obj, "block", path, line_no)
    if not 0 <= block < feature_dim:
        raise DatasetFormatError(path, line_no, f"block must be in [0, {feature_dim}), got {block}")
    distractor = _require(obj, "distractor", path, line_no)
    if not isinstance(distractor, bool):
        raise DatasetFormatError(path, line_no, f"distractor must be true or false, got {distractor!r:.40}")
    return TurnMeta(block, distractor)


def load_dataset(path: str) -> SyntheticDataset:
    """Parse a dataset file; malformed content raises with the line number.

    The file is read one line at a time, and db features are written straight
    into one preallocated array, so the file's text is never held whole.
    """
    with open(path, "r", encoding="utf-8") as fh:
        numbered = ((n, line.rstrip("\n")) for n, line in enumerate(fh, start=1))
        first = next(numbered, None)
        if first is None:
            raise DatasetFormatError(path, 1, "empty file")
        header = _parse_line(path, 1, first[1])
        version = _require(header, "version", path, 1)
        if version != FILE_VERSION:
            raise DatasetFormatError(path, 1, f"unsupported version {version}")
        feature_dim = _int(header, "D", path, 1)
        max_turns = _int(header, "N_max", path, 1)
        db_size = _int(header, "db_size", path, 1)
        if min(feature_dim, db_size) < 0 or max_turns < 1:
            raise DatasetFormatError(path, 1, "D and db_size must be non-negative, N_max positive")
        split = str(header.get("split", "train"))
        # A db line takes at least 2 * D + 20 bytes, so the file holds fewer
        # rows than this bound: a header that promises more fails on a missing
        # or bad line before the array is full, and never gets its promise
        # allocated.
        rows = min(db_size, os.fstat(fh.fileno()).st_size // (2 * feature_dim + 20) + 1)
        ids = np.empty(rows, dtype=np.int64)
        feats = np.empty((rows, feature_dim), dtype=np.float32)
        for i in range(db_size):
            line_no = 2 + i
            got = next(numbered, None)
            if got is None:
                raise DatasetFormatError(path, line_no,
                                         f"unexpected end of file: header promises {db_size} db items")
            obj = _parse_line(path, line_no, got[1])
            ids[i] = _int(obj, "id", path, line_no)
            _read_floats(obj, "feature", feats[i], path, line_no)
        finite = np.isfinite(feats).all(axis=1)
        if not finite.all():
            raise DatasetFormatError(path, 2 + int(np.argmin(finite)),
                                     f"feature must be a list of {feature_dim} finite numbers")
        try:
            db = CandidateDB(ids, feats)
        except DegenerateInputError as e:
            raise DatasetFormatError(path, 1 + db_size, f"candidate db: {e}") from None
        transactions = []
        line_no = 1 + db_size
        for line_no, line in numbered:
            obj = _parse_line(path, line_no, line)
            turns = _require(obj, "turns", path, line_no)
            original_len = _int(obj, "original_len", path, line_no)
            if original_len != max_turns:
                raise DatasetFormatError(path, line_no, f"original_len must be N_max = {max_turns}")
            if not isinstance(turns, list) or len(turns) != max_turns:
                raise DatasetFormatError(path, line_no, f"turns must be a list of N_max = {max_turns} turns")
            queries = np.empty((len(turns), feature_dim), dtype=np.float32)
            target_ids = []
            for n, turn in enumerate(turns):
                if not isinstance(turn, dict):
                    raise DatasetFormatError(path, line_no, "each turn must be an object")
                _read_floats(turn, "qry", queries[n], path, line_no)
                target_ids.append(_int(turn, "target_id", path, line_no))
            if not np.isfinite(queries).all():
                raise DatasetFormatError(path, line_no, f"qry must be a list of {feature_dim} finite numbers")
            for t in target_ids:
                try:
                    db.index_of(t)
                except KeyError:
                    raise DatasetFormatError(path, line_no,
                                             f"target_id {t} not in the candidate db") from None
            meta = None
            if "meta" in obj:
                raw = obj["meta"]
                meta_turns = _require(raw, "turns", path, line_no)
                if not isinstance(meta_turns, list) or len(meta_turns) != len(turns):
                    raise DatasetFormatError(path, line_no,
                                             f"meta turns must be a list of {len(turns)} turns")
                meta = TransactionMeta(
                    reference_id=_int(raw, "ref", path, line_no),
                    turns=[_turn_meta(t, feature_dim, path, line_no) for t in meta_turns])
            transactions.append(Transaction(queries, np.asarray(target_ids, dtype=np.int64), meta))
    if not transactions:
        raise DatasetFormatError(path, line_no + 1, "file contains no transactions")
    return SyntheticDataset(max_turns, db, transactions, split)


def datasets_equal(a: SyntheticDataset, b: SyntheticDataset) -> bool:
    """Structural equality over everything that serialization preserves."""
    if (a.max_turns, a.split) != (b.max_turns, b.split):
        return False
    if not (np.array_equal(a.db.ids, b.db.ids) and np.array_equal(a.db.features, b.db.features)):
        return False
    if len(a.transactions) != len(b.transactions):
        return False
    for ta, tb in zip(a.transactions, b.transactions):
        # the meta dataclasses compare field by field
        if not (np.array_equal(ta.queries, tb.queries)
                and np.array_equal(ta.target_ids, tb.target_ids) and ta.meta == tb.meta):
            return False
    return True
