"""Synthetic task generator and dataset file format tests."""

import dataclasses
import gc
import hashlib
import json
import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from cmntm import checkpoint as ckpt_io
from cmntm import retrieval, synthdata
from cmntm.errors import CheckpointError, DatasetFormatError, DegenerateInputError
from cmntm.retrieval import CandidateDB, rank, recall_at_k, row_blocks, similarity_scores
from cmntm.synthdata import (
    SyntheticDataset,
    TaskConfig,
    block_slice,
    datasets_equal,
    gen_distractor,
    load_dataset,
    make_db,
    save_dataset,
)


SMALL = TaskConfig(feature_dim=16, blocks=4, max_turns=4, db_size=32, seed=7)
# a db this large makes generation resolve 8 transactions per GEMM
CHUNKY = TaskConfig(feature_dim=16, blocks=4, max_turns=4, db_size=40000, seed=7)


# ----------------------------------------------------------------- TaskConfig

class TestTaskConfig:
    def test_block_geometry(self):
        cfg = TaskConfig(feature_dim=32, blocks=4)
        assert cfg.block_len == 8
        assert block_slice(0, cfg.block_len, cfg.feature_dim) == slice(0, 8)
        assert block_slice(3, cfg.block_len, cfg.feature_dim) == slice(24, 32)
        with pytest.raises(DegenerateInputError, match="ends past feature dim 32"):
            block_slice(4, cfg.block_len, cfg.feature_dim)

    @pytest.mark.parametrize("kwargs", [
        dict(blocks=3, max_turns=4),        # fewer blocks than turns
        dict(feature_dim=30, blocks=4),     # not divisible
        dict(db_size=7),
        dict(max_turns=0, blocks=4),
        dict(noise_std=-0.1),
        dict(distractor_prob=1.5),
        dict(distractor_prob=-0.1),
        dict(max_turns=0, blocks=0),        # no turns, checked before blocks divides
        dict(seed=-1),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            TaskConfig(**kwargs)


# ----------------------------------------------------------------- generation

class TestGeneration:
    def test_shapes_and_dtypes(self):
        ds = gen_distractor(SMALL, count=6)
        assert ds.feature_dim == 16 and ds.max_turns == 4
        assert {name: (str(a.dtype), a.shape) for name, a in _arrays(ds).items()} == {
            "queries": ("float32", (6, 4, 16)), "target_ids": ("int64", (6, 4)),
            "refs": ("int64", (6,)), "blocks": ("int64", (6, 4)),
            "distractor": ("bool", (6, 4))}

    def test_db_rows_unit_norm(self):
        db = make_db(SMALL)
        np.testing.assert_allclose(np.linalg.norm(db.features, axis=1), 1.0, atol=1e-6)

    def test_same_seed_reproduces(self):
        a = gen_distractor(SMALL, count=5)
        b = gen_distractor(SMALL, count=5)
        assert datasets_equal(a, b)

    def test_different_seed_differs(self):
        a = gen_distractor(SMALL, count=5)
        b = gen_distractor(TaskConfig(**{**SMALL.__dict__, "seed": 8}), count=5)
        assert not datasets_equal(a, b)

    def test_splits_share_db_but_not_transactions(self):
        # a task of its own, so that no other test's dataset holds its db
        cfg = dataclasses.replace(SMALL, db_size=40, seed=21)
        a = gen_distractor(cfg, count=5, split="train")
        b = gen_distractor(cfg, count=5, split="val")
        assert a.db is b.db is make_db(cfg)
        assert not np.array_equal(a.queries[0], b.queries[0])
        # shared, so nothing may write through it
        for array in (a.db.ids, a.db.features, a.db.row_norms):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        for change in (dict(seed=22), dict(db_size=41), dict(feature_dim=32)):
            assert make_db(dataclasses.replace(cfg, **change)) is not a.db
        # the task's db is held only as long as a dataset holds it
        held = weakref.ref(a.db)
        del a, b
        gc.collect()
        assert held() is None

    @pytest.mark.parametrize("db_size, feature_dim, block_bytes", [
        (10000, 768, None),  # 426 rows a block: 23 full blocks and one of 202 rows
        (10, 4, 3 * 16 * 4),  # blocks of 3, 3, 3 and 1 rows
    ])
    def test_db_bytes_equal_one_full_size_draw(self, monkeypatch, db_size, feature_dim,
                                               block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(retrieval, "SCORE_BLOCK_BYTES", block_bytes)
        cfg = TaskConfig(feature_dim=feature_dim, blocks=1, max_turns=1, db_size=db_size,
                         seed=31)
        rng = np.random.default_rng(np.random.SeedSequence([synthdata._DB_TAG, cfg.seed]))
        feats = rng.normal(size=(db_size, feature_dim))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        db = make_db(cfg)
        assert db.features.dtype == np.float32
        assert db.features.tobytes() == feats.astype(np.float32).tobytes()
        np.testing.assert_array_equal(db.ids, np.arange(db_size))

    def test_db_draw_builds_no_full_size_temporary(self):
        # a task of its own, so that no other test's dataset holds its db
        cfg = TaskConfig(feature_dim=768, blocks=4, max_turns=4, db_size=10000, seed=32)
        tracemalloc.start()
        try:
            db = make_db(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a full-size float64 draw and its norm's squares would peak near 4x
        assert peak <= 1.25 * db.features.nbytes

    def test_count_extension_is_a_prefix(self):
        # per-transaction seeding: asking for more data never rewrites
        # earlier transactions, also when the longer run adds a chunk
        chunk = _chunk(CHUNKY, 25)
        assert chunk == 8
        for cfg, short_count, long_count in [(SMALL, 4, 9), (CHUNKY, 4, 9),
                                             (CHUNKY, chunk, chunk + 1), (CHUNKY, 7, 25)]:
            short = gen_distractor(dataclasses.replace(cfg, distractor_prob=0.5), short_count)
            long = gen_distractor(dataclasses.replace(cfg, distractor_prob=0.5), long_count)
            assert datasets_equal(short, _head(long, short_count)), (cfg.db_size, short_count,
                                                                    long_count)

    def test_turn_blocks_are_disjoint(self):
        ds = gen_distractor(SMALL, count=20)
        for blocks in ds.blocks.tolist():
            assert len(set(blocks)) == len(blocks)
            assert all(0 <= b < SMALL.blocks for b in blocks)

    def test_reference_differs_from_final_target_feature_source(self):
        ds = gen_distractor(TaskConfig(feature_dim=16, blocks=4, max_turns=4,
                                         db_size=32, noise_std=0.0, seed=3), count=30)
        assert np.all(ds.refs != ds.target_ids[:, -1])

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            gen_distractor(SMALL, count=2, split="dev")

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            gen_distractor(SMALL, count=0)


# --------------------------------------------------------------------- oracle

def oracle_features(ds: SyntheticDataset, i: int) -> np.ndarray:
    """Per-turn composites a construction-aware oracle would retrieve with
    for transaction ``i``.

    Starting from the reference feature, each non-distractor turn's revealed
    block values (as stored in the query, noise included) overwrite the
    composite.
    """
    composite = ds.db.features[ds.refs[i]].astype(np.float64)
    out = np.empty_like(ds.queries[i], dtype=np.float64)
    for n, (block, distractor) in enumerate(zip(ds.blocks[i].tolist(), ds.distractor[i])):
        if not distractor:
            sl = block_slice(block, ds.task.block_len, ds.feature_dim)
            composite[sl] = ds.queries[i, n][sl]
        out[n] = composite
    return out.astype(np.float32)


class TestOracle:
    def test_noiseless_oracle_reaches_perfect_final_recall(self):
        cfg = TaskConfig(feature_dim=32, blocks=4, max_turns=4, db_size=256,
                         noise_std=0.0, seed=0)
        ds = gen_distractor(cfg, count=200)
        rankings = [rank(similarity_scores(oracle_features(ds, i)[-1], ds.db), ds.db.ids)
                    for i in range(len(ds.queries))]
        targets = ds.target_ids[:, -1]
        assert recall_at_k(rankings, targets, k=1) == 1.0

    def test_noisy_oracle_stays_near_perfect(self):
        cfg = TaskConfig(feature_dim=32, blocks=4, max_turns=4, db_size=256,
                         noise_std=0.1, seed=0)
        ds = gen_distractor(cfg, count=1000)
        rankings = [rank(similarity_scores(oracle_features(ds, i)[-1], ds.db), ds.db.ids)
                    for i in range(len(ds.queries))]
        targets = ds.target_ids[:, -1]
        assert recall_at_k(rankings, targets, k=1) > 0.95

    def test_oracle_first_turn_mixes_reference_and_query_block(self):
        ds = gen_distractor(SMALL, count=3)
        feats = oracle_features(ds, 0)
        sl = block_slice(int(ds.blocks[0, 0]), SMALL.block_len, SMALL.feature_dim)
        expected = ds.db.features[ds.refs[0]].copy()
        expected[sl] = ds.queries[0, 0][sl]
        np.testing.assert_allclose(feats[0], expected, atol=1e-7)

    def test_oracle_rejects_a_block_past_the_feature_end(self):
        # D=16 holds blocks 0-3 of length 4; block 5 is inside [0, D) but
        # ends past the feature
        ds = gen_distractor(SMALL, count=1)
        ds.blocks[0, 1] = 5
        with pytest.raises(DegenerateInputError, match="block 5 of length 4"):
            oracle_features(ds, 0)


# ---------------------------------------------------------- chunked ground truth

def _gemv_reference(cfg: TaskConfig, count: int, distractor_prob: float) -> dict:
    """The dataset's arrays drawn one transaction at a time, as generation
    draws them, with each turn's target found by its own float64 GEMV over
    the db."""
    db = make_db(cfg)
    features64 = db.features.astype(np.float64)
    queries, target_ids, refs, blocks, flags = [], [], [], [], []
    for index in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(
            [synthdata._TXN_TAG, cfg.seed, synthdata._SPLIT_TAGS["train"], index]))
        ref, tgt = (int(v) for v in rng.choice(cfg.db_size, size=2, replace=False))
        refs.append(ref)
        composite = db.features[ref].astype(np.float64)
        for block in rng.permutation(cfg.blocks)[:cfg.max_turns]:
            distractor = rng.random() < distractor_prob
            blocks.append(int(block))
            flags.append(distractor)
            if distractor:
                noise = rng.normal(size=cfg.feature_dim)
                query = noise / np.linalg.norm(noise)
            else:
                sl = block_slice(int(block), cfg.block_len, cfg.feature_dim)
                query = db.features[ref].astype(np.float64)
                query[sl] = db.features[tgt][sl] + rng.normal(0.0, cfg.noise_std,
                                                              size=cfg.block_len)
                composite[sl] = db.features[tgt][sl]
            queries.append(query.astype(np.float32))
            norms = db.row_norms * max(np.linalg.norm(composite), 1e-30)
            target_ids.append(int(db.ids[np.argmax(features64 @ composite / norms)]))
    shape = (count, cfg.max_turns)
    return {"queries": np.stack(queries).reshape(*shape, -1),
            "target_ids": np.array(target_ids).reshape(shape), "refs": np.array(refs),
            "blocks": np.array(blocks).reshape(shape), "distractor": np.array(flags).reshape(shape)}


def _assert_matches_gemv_reference(cfg: TaskConfig, count: int, distractor_prob: float):
    ds = gen_distractor(dataclasses.replace(cfg, distractor_prob=distractor_prob), count)
    reference = _gemv_reference(cfg, count, distractor_prob)
    # equal values of the dtypes the file writer takes
    for name, array in _arrays(ds).items():
        np.testing.assert_array_equal(array, reference[name], err_msg=name)
        assert array.dtype == reference[name].dtype, name


class TestChunkedGroundTruth:
    @pytest.mark.parametrize("distractor_prob", [0.0, 0.5])
    @pytest.mark.parametrize("count", [1, 7, 8, 9, 25])  # chunk 8: c-1, c, c+1, 3c+1
    def test_target_ids_equal_one_gemv_per_turn(self, count, distractor_prob):
        _assert_matches_gemv_reference(CHUNKY, count, distractor_prob)

    def test_scale_preset_past_one_chunk_equals_one_gemv_per_turn(self):
        cfg = TaskConfig(feature_dim=768, db_size=10000, max_turns=4, seed=3)
        chunk = _chunk(cfg, 33)
        assert chunk == 32
        _assert_matches_gemv_reference(cfg, chunk + 1, distractor_prob=0.3)

    def test_scale_screen_and_rescore_lie_within_their_bounds_of_the_gemv(self, monkeypatch):
        # unsettled's premises for generation at D=768 over a 10k db: the
        # chunk's float32 screen lies within B = 2 (D + 1) eps32 of each
        # turn's float64 GEMV, and a float64 re-score of a few rows within
        # 2 (D + 1) eps64
        cfg = TaskConfig(feature_dim=768, db_size=10000, max_turns=4, seed=3,
                         distractor_prob=0.3)
        [(db, composites, norms)] = _screened_chunks(monkeypatch, cfg, _chunk(cfg, 32))
        features64 = db.features.astype(np.float64)
        # as _nearest_ids and _nearest_id compute them
        screen = composites.astype(np.float32) @ db.features.T
        for row, norm in zip(screen, norms):
            row /= norm * db.row_norms
        gemv = np.stack([features64 @ c / (db.row_norms * max(np.linalg.norm(c), 1e-30))
                         for c in composites])
        assert screen.dtype == np.float32 and gemv.dtype == np.float64
        assert np.max(np.abs(screen - gemv)) <= 2 * (768 + 1) * np.finfo(np.float32).eps
        # each composite's 8 best screen rows, gathered in ascending order
        near = np.sort(np.argpartition(-screen, 8, axis=1)[:, :8], axis=1)
        rescored = np.stack([db.features[cols].astype(np.float64) @ c / (norm * db.row_norms[cols])
                             for cols, c, norm in zip(near, composites, norms)])
        gemv_near = np.take_along_axis(gemv, near, axis=1)
        assert np.max(np.abs(rescored - gemv_near)) <= 2 * (768 + 1) * np.finfo(np.float64).eps

    @pytest.mark.parametrize("cfg", [
        TaskConfig(distractor_prob=0.3),
        TaskConfig(feature_dim=768, db_size=10000, max_turns=4, seed=3, distractor_prob=0.3),
    ], ids=["desk", "scale"])
    def test_composites_round_trip_through_float32(self, monkeypatch, cfg):
        # the screen's premise: a composite holds db values only, so its
        # float32 cast loses nothing
        [(db, composites, norms)] = _screened_chunks(monkeypatch, cfg, _chunk(cfg, 10 ** 6))
        assert composites.dtype == np.float64
        assert len(composites) == _chunk(cfg, 10 ** 6) * cfg.max_turns
        np.testing.assert_array_equal(composites.astype(np.float32).astype(np.float64),
                                      composites)

    def test_rows_equal_nearest_id_on_a_db_of_unequal_norms(self):
        # generated dbs are unit-norm; this one makes the row norms matter
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(300, 16)) * rng.uniform(0.1, 10.0, size=(300, 1))
        db = CandidateDB(feats.astype(np.float32))
        composites = rng.normal(size=(40, 16))
        norms = np.array([max(np.linalg.norm(c), 1e-30) for c in composites])
        assert synthdata._nearest_ids(db, composites, norms).tolist() == [
            synthdata._nearest_id(db, c) for c in composites]

    def test_near_tie_keeps_the_lower_row_via_the_gemv(self, monkeypatch):
        # rows 2 and 5 are the same feature: np.argmax picks the lower row,
        # so the id is 2, whichever way the GEMM rounds
        feats = np.random.default_rng(3).normal(size=(8, 16))
        feats[5] = feats[2]
        db = CandidateDB(feats.astype(np.float32))
        composites = db.features[[2, 6]].astype(np.float64)
        norms = np.array([max(np.linalg.norm(c), 1e-30) for c in composites])
        fallbacks = []
        gemv = synthdata._nearest_id
        monkeypatch.setattr(synthdata, "_nearest_id",
                            lambda *args: fallbacks.append(args[1]) or gemv(*args))
        assert synthdata._nearest_ids(db, composites, norms).tolist() == [2, 6]
        # only the tied composite is searched again
        assert len(fallbacks) == 1
        np.testing.assert_array_equal(fallbacks[0], composites[0])

    def test_a_float32_near_tie_is_settled_by_the_float64_rescore(self, monkeypatch):
        # row 4 is row 1 turned by about 1e-3 rad, so the composite that is
        # row 4 scores rows 1 and 4 closer than the float32 gap but farther
        # apart than the float64 bound: the re-score decides, without a GEMV
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(8, 16)).astype(np.float32)
        feats[4] = feats[1] + np.float32(1.5e-3) * rng.normal(size=16).astype(np.float32)
        db = CandidateDB(feats)
        composites = db.features[[4, 6]].astype(np.float64)
        norms = np.array([max(np.linalg.norm(c), 1e-30) for c in composites])
        expected = [synthdata._nearest_id(db, c) for c in composites]
        assert expected == [4, 6]
        gemv = (db.features.astype(np.float64) @ composites[0]
                / (db.row_norms * np.linalg.norm(composites[0])))
        assert (2 * retrieval.score_gap(np.float64, 16) < gemv[4] - gemv[1]
                < retrieval.score_gap(np.float32, 16) / 4)
        # the screen marks the composite, as _nearest_ids computes it
        screen = composites.astype(np.float32) @ db.features.T
        screen /= norms[:, None] * db.row_norms
        _, near = retrieval.unsettled(screen, np.argmax(screen, axis=1), 16, (1,))
        assert near.tolist() == [True, False]

        def no_gemv(*args):
            raise AssertionError("_nearest_id was called")
        monkeypatch.setattr(synthdata, "_nearest_id", no_gemv)
        assert synthdata._nearest_ids(db, composites, norms).tolist() == expected


def _screened_chunks(monkeypatch, cfg: TaskConfig, count: int) -> list[tuple]:
    """The ``(db, composites, norms)`` of each chunk that generating ``count``
    transactions of ``cfg`` hands ``_nearest_ids``."""
    chunks = []
    nearest_ids = synthdata._nearest_ids
    monkeypatch.setattr(synthdata, "_nearest_ids",
                        lambda *args: chunks.append(args) or nearest_ids(*args))
    gen_distractor(cfg, count)
    return chunks


# ---------------------------------------------------------------- distractors

class TestDistractors:
    def test_all_distractor_turns_keep_ground_truth_at_reference(self):
        # pure-noise turns never update the composite, so every turn's
        # nearest candidate stays the reference itself
        cfg = TaskConfig(feature_dim=16, blocks=4, max_turns=4, db_size=32,
                         distractor_prob=1.0, seed=5)
        ds = gen_distractor(cfg, count=10)
        assert np.all(ds.distractor)
        np.testing.assert_array_equal(ds.target_ids, np.repeat(ds.refs[:, None], 4, axis=1))
        np.testing.assert_allclose(np.linalg.norm(ds.queries, axis=2), 1.0, atol=1e-5)

    def test_distractor_flags_mix_at_half_probability(self):
        cfg = TaskConfig(feature_dim=16, blocks=4, max_turns=4, db_size=32,
                         distractor_prob=0.5, seed=5)
        ds = gen_distractor(cfg, count=50)
        assert 0.3 < np.mean(ds.distractor) < 0.7


# ------------------------------------------------------------------- dataset

def _arrays(ds: SyntheticDataset) -> dict[str, np.ndarray]:
    """The dataset's per-transaction arrays by field name."""
    return {name: getattr(ds, name)
            for name in ("queries", "target_ids", "refs", "blocks", "distractor")}


def _head(ds: SyntheticDataset, count: int) -> SyntheticDataset:
    """The dataset's first ``count`` transactions."""
    return dataclasses.replace(ds, **{name: a[:count] for name, a in _arrays(ds).items()})


def _chunk(cfg: TaskConfig, count: int) -> int:
    """Transactions per chunk when ``gen_distractor`` makes ``count`` of ``cfg``'s:
    its float32 scores of every turn against the db fit one score block."""
    first = row_blocks(count, 4 * cfg.db_size * cfg.max_turns)[0]
    return first.stop - first.start


class TestDataset:
    @pytest.mark.parametrize("name, cut", [
        ("queries", np.s_[:, :-1]), ("queries", np.s_[:, :, :-1]), ("target_ids", np.s_[:-1]),
        ("target_ids", np.s_[:, :-1]), ("refs", np.s_[:-1]), ("blocks", np.s_[:, :-1]),
        ("distractor", np.s_[:-1]),
    ], ids=["queries-turns", "queries-width", "target_ids-rows", "target_ids-turns", "refs-rows",
            "blocks-turns", "distractor-rows"])
    def test_arrays_must_agree_in_transactions_and_turns(self, name, cut):
        ds = gen_distractor(SMALL, count=3)
        with pytest.raises(DegenerateInputError, match="do not hold the same 3 transactions "
                                                       "of 4 turns"):
            dataclasses.replace(ds, **{name: getattr(ds, name)[cut]})

    @pytest.mark.parametrize("name", ["target_ids", "refs"])
    @pytest.mark.parametrize("bad", [-1, 32])
    def test_ids_must_be_rows_of_the_db(self, name, bad):
        # an id indexes db.features, where -1 would wrap round to the last row
        ds = gen_distractor(SMALL, count=3)
        ids = getattr(ds, name).copy()
        ids.flat[1] = bad
        with pytest.raises(DegenerateInputError, match=rf"must lie in \[0, 32\), got {bad}$"):
            dataclasses.replace(ds, **{name: ids})

    @pytest.mark.parametrize("change", [
        "queries", "target_ids", "refs", "blocks", "distractor", "task", "split"])
    def test_one_changed_element_makes_datasets_unequal(self, change):
        ds = gen_distractor(dataclasses.replace(SMALL, distractor_prob=0.5), count=3)
        other = dataclasses.replace(ds, **{name: a.copy() for name, a in _arrays(ds).items()})
        assert datasets_equal(other, ds)
        if change == "task":
            other.task = dataclasses.replace(ds.task, noise_std=0.5)
        elif change == "split":
            other.split = "val"
        else:
            array = getattr(other, change)
            last = (-1,) * array.ndim
            array[last] = ~array[last] if array.dtype == bool else array[last] + 1
        assert not datasets_equal(other, ds)


# -------------------------------------------------------------- serialization

ENTRIES = ("header", "db.ids", "db.features", "queries", "target_ids", "meta.ref",
           "meta.block", "meta.distractor")


def _saved(tmp_path, ds=None, name="ds.bin") -> str:
    path = str(tmp_path / name)
    save_dataset(gen_distractor(SMALL, count=3) if ds is None else ds, path)
    return path


def _rewritten(path: str, edit) -> str:
    """``path``'s entries after ``edit`` changed them, saved beside it as ``bad.bin``."""
    entries = ckpt_io.load_entries(path)
    edit(entries)
    bad = os.path.join(os.path.dirname(path), "bad.bin")
    ckpt_io.save_entries(bad, entries)
    return bad


def _header_edited(edit):
    """An entries edit that changes the header's parsed JSON with ``edit``."""
    def apply(entries):
        raw = json.loads(entries["header"].tobytes())
        edit(raw)
        entries["header"] = np.frombuffer(json.dumps(raw).encode(), np.uint8)
    return apply


def _set(name, index, value):
    """An entries edit that writes ``value`` at ``index`` of entry ``name``."""
    def apply(entries):
        entries[name][index] = value
    return apply


_NOT_AN_OBJECT = re.escape("""must be an object of "task" and a "split" in ('train', 'val', 'test')""")


class TestSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        ds = gen_distractor(dataclasses.replace(SMALL, distractor_prob=0.5), count=6, split="val")
        loaded = load_dataset(_saved(tmp_path, ds))
        assert datasets_equal(loaded, ds)
        assert loaded.task == ds.task and loaded.split == "val"

    def test_same_dataset_saves_identical_bytes(self, tmp_path):
        p1 = _saved(tmp_path, gen_distractor(SMALL, count=4), "a.bin")
        p2 = _saved(tmp_path, gen_distractor(SMALL, count=4), "b.bin")
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = gen_distractor(SMALL, count=3)
        loaded = load_dataset(_saved(tmp_path, ds))
        for name, array in _arrays(ds).items():
            assert getattr(loaded, name).tobytes() == array.tobytes(), name

    def test_file_holds_the_task_and_the_stacked_arrays(self, tmp_path):
        ds = gen_distractor(SMALL, count=3, split="val")
        entries = ckpt_io.load_entries(_saved(tmp_path, ds))
        assert tuple(entries) == ENTRIES
        assert json.loads(entries["header"].tobytes()) == {
            "task": dataclasses.asdict(SMALL), "split": "val"}
        assert {name: (str(a.dtype), a.shape) for name, a in entries.items() if name != "header"} == {
            "db.ids": ("int64", (32,)), "db.features": ("float32", (32, 16)),
            "queries": ("float32", (3, 4, 16)), "target_ids": ("int64", (3, 4)),
            "meta.ref": ("int64", (3,)), "meta.block": ("int64", (3, 4)),
            "meta.distractor": ("uint8", (3, 4))}

    def test_failed_save_keeps_the_existing_file(self, tmp_path):
        path = tmp_path / "ds.bin"
        save_dataset(gen_distractor(SMALL, count=2), str(path))
        before = path.read_bytes()
        broken = gen_distractor(SMALL, count=3)
        # float64 queries: the container raises after the header and the db are written
        broken.queries = broken.queries.astype(np.float64)
        with pytest.raises(CheckpointError, match="'queries' must be float32"):
            save_dataset(broken, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ds.bin"]

    def test_a_line_format_file_fails_on_the_magic(self, tmp_path):
        path = tmp_path / "val.jsonl"
        path.write_text('{"version":1,"D":16,"N_max":4,"db_size":32,"split":"train"}\n' * 4)
        with pytest.raises(DatasetFormatError, match=r"val\.jsonl: bad magic b'\{\"ve'"):
            load_dataset(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(DatasetFormatError, match=r"empty\.bin: file too short"):
            load_dataset(str(path))

    def test_unsupported_version_rejected(self, tmp_path):
        path = _saved(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[4:8] = (99).to_bytes(4, "little")
        open(path, "wb").write(bytes(data))
        with pytest.raises(DatasetFormatError, match="unsupported version 99"):
            load_dataset(path)

    def test_truncated_db_section_rejected(self, tmp_path):
        path = _saved(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:data.index(b"db.features") + 200])
        with pytest.raises(DatasetFormatError,
                           match=r"ds\.bin: truncated while reading entry 'db\.features' payload"):
            load_dataset(path)

    def test_truncation_at_every_field_offset_is_rejected(self, tmp_path):
        # a one-transaction, one-turn split is short enough to cut at every byte
        tiny = TaskConfig(feature_dim=4, blocks=2, max_turns=1, db_size=8)
        path = _saved(tmp_path, gen_distractor(tiny, count=1))
        data = open(path, "rb").read()
        for size in range(len(data)):
            open(path, "wb").write(data[:size])
            with pytest.raises(DatasetFormatError, match=r"ds\.bin: (truncated|file too short)"):
                load_dataset(path)

    def test_load_streams_the_file(self, tmp_path):
        # the container reads each payload once, into its array: a load that
        # also held the file's bytes would peak near twice its size. The
        # queries are 90% of this file, so the db's norms add little.
        ds = gen_distractor(TaskConfig(feature_dim=768, db_size=200), count=500)
        path = _saved(tmp_path, ds, "big.bin")
        tracemalloc.start()
        try:
            loaded = load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * os.path.getsize(path)
        assert datasets_equal(loaded, ds)

    def test_loaded_splits_share_one_db(self, tmp_path):
        # a task of its own, so that no other test's dataset holds its db
        cfg = TaskConfig(feature_dim=768, blocks=4, max_turns=4, db_size=2000, seed=33)
        paths = [_saved(tmp_path, gen_distractor(cfg, count=4, split=split), f"{split}.bin")
                 for split in ("train", "val")]
        drawn = weakref.ref(make_db(cfg))
        gc.collect()
        assert drawn() is None
        tracemalloc.start()
        try:
            train, val = (load_dataset(path) for path in paths)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert train.db is val.db
        # a db per load would hold about 2.08x
        assert held <= 1.15 * train.db.features.nbytes
        # a db read from a file is never make_db's
        assert make_db(cfg) is not train.db
        assert make_db(cfg).features.tobytes() == train.db.features.tobytes()

    def test_a_load_takes_the_drawn_db_its_file_holds(self, tmp_path):
        ds = gen_distractor(SMALL, count=3)
        assert load_dataset(_saved(tmp_path, ds)).db is ds.db

    def test_a_file_with_another_db_value_gets_its_own_db(self, tmp_path):
        ds = gen_distractor(SMALL, count=3)
        features = ds.db.features.copy()
        features[3, 5] = np.nextafter(features[3, 5], np.float32(2))
        changed = load_dataset(_rewritten(_saved(tmp_path, ds), _set("db.features", (3, 5),
                                                                     features[3, 5])))
        assert changed.db is not ds.db
        assert changed.db.features.tobytes() == features.tobytes()
        assert make_db(SMALL) is ds.db
        # the next load of the file that holds the drawn db still takes it
        assert load_dataset(_saved(tmp_path, ds, "again.bin")).db is ds.db

    def test_missing_key_rejected(self, tmp_path):
        path = _saved(tmp_path)
        for name in ENTRIES:
            bad = _rewritten(path, lambda e: e.pop(name))
            detail = "must be present" if name == "header" else "is missing"
            with pytest.raises(DatasetFormatError, match=rf"bad\.bin: entry '{name}' {detail}"):
                load_dataset(bad)

    def test_an_entry_of_no_dataset_is_rejected(self, tmp_path):
        bad = _rewritten(_saved(tmp_path), lambda e: e.update(extra=np.zeros(1, np.uint8)))
        with pytest.raises(DatasetFormatError, match="entry 'extra' is not a dataset entry"):
            load_dataset(bad)

    @pytest.mark.parametrize("name", ENTRIES[1:])
    @pytest.mark.parametrize("change", ["dtype", "shape"])
    def test_an_entry_of_the_wrong_dtype_or_shape_is_rejected(self, tmp_path, name, change):
        def edit(entries):
            a = entries[name]
            entries[name] = (a.astype(np.float32 if a.dtype != np.float32 else np.int64)
                             if change == "dtype" else a[..., :-1])
        with pytest.raises(DatasetFormatError, match=rf"entry '{name}' must be \w+ of shape"):
            load_dataset(_rewritten(_saved(tmp_path), edit))

    @pytest.mark.parametrize("header", [np.zeros((2, 2), np.uint8), np.zeros(4, np.int64)],
                             ids=["matrix", "int64"])
    def test_a_header_that_is_not_a_byte_vector_is_rejected(self, tmp_path, header):
        bad = _rewritten(_saved(tmp_path), lambda e: e.update(header=header))
        with pytest.raises(DatasetFormatError, match="entry 'header' must be present as a uint8"):
            load_dataset(bad)

    def test_wrong_feature_width_rejected(self, tmp_path):
        def widen(entries):
            entries["db.features"] = np.pad(entries["db.features"], ((0, 0), (0, 1)))
        with pytest.raises(DatasetFormatError,
                           match=r"'db\.features' must be float32 of shape \(32, 16\), "
                                 r"got float32 of shape \(32, 17\)"):
            load_dataset(_rewritten(_saved(tmp_path), widen))

    def test_missing_transactions_rejected(self, tmp_path):
        def empty(entries):
            for name in ("queries", "target_ids", "meta.ref", "meta.block", "meta.distractor"):
                entries[name] = entries[name][:0]
        with pytest.raises(DatasetFormatError, match="entry 'queries' holds no transactions"):
            load_dataset(_rewritten(_saved(tmp_path), empty))

    @pytest.mark.parametrize("name, index", [("db.features", (3, 5)), ("queries", (2, 1, 0))])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_value_is_rejected(self, tmp_path, name, index, value):
        with pytest.raises(DatasetFormatError, match=rf"entry '{name}' holds a non-finite value: {value}"):
            load_dataset(_rewritten(_saved(tmp_path), _set(name, index, value)))

    def test_unknown_target_id_rejected(self, tmp_path):
        bad = _rewritten(_saved(tmp_path), _set("target_ids", (1, 2), 9999))
        with pytest.raises(DatasetFormatError,
                           match="entry 'target_ids' holds an id not in the db: 9999"):
            load_dataset(bad)

    def test_unknown_reference_id_rejected(self, tmp_path):
        # a reference outside the db would only fail where an experiment looks it up
        bad = _rewritten(_saved(tmp_path), _set("meta.ref", 2, 9999))
        with pytest.raises(DatasetFormatError,
                           match="entry 'meta.ref' holds an id not in the db: 9999"):
            load_dataset(bad)

    @pytest.mark.parametrize("ids, first", [
        (np.r_[:31, 0], 0), (np.arange(32)[::-1], 31), (np.arange(1, 33), 1),
    ], ids=["duplicate", "reversed", "shifted"])
    def test_db_ids_other_than_their_rows_are_rejected(self, tmp_path, ids, first):
        # an id is its row, so the file's db.ids must be 0..S-1
        bad = _rewritten(_saved(tmp_path), lambda e: e.update({"db.ids": ids.astype(np.int64)}))
        with pytest.raises(DatasetFormatError,
                           match=f"entry 'db.ids' holds an id other than its row: {first}$"):
            load_dataset(bad)

    def test_a_zero_db_feature_row_is_rejected(self, tmp_path):
        bad = _rewritten(_saved(tmp_path), _set("db.features", 3, 0.0))
        with pytest.raises(DatasetFormatError, match="entry 'db.features' makes no candidate "
                                                     "db: CandidateDB: zero-norm"):
            load_dataset(bad)

    @pytest.mark.parametrize("block", [-1, 4, 5], ids=["negative", "blocks", "past-blocks"])
    def test_a_block_outside_the_task_is_rejected(self, tmp_path, block):
        # SMALL cuts D=16 into 4 blocks: block 5 lies inside [0, D), but no
        # slice of the feature holds it
        bad = _rewritten(_saved(tmp_path), _set("meta.block", (0, 1), block))
        with pytest.raises(DatasetFormatError,
                           match=rf"entry 'meta.block' holds a block outside \[0, 4\): {block}$"):
            load_dataset(bad)

    def test_a_distractor_flag_other_than_0_or_1_is_rejected(self, tmp_path):
        bad = _rewritten(_saved(tmp_path), _set("meta.distractor", (1, 3), 2))
        with pytest.raises(DatasetFormatError,
                           match="entry 'meta.distractor' holds a flag other than 0 or 1: 2"):
            load_dataset(bad)

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["task"].update(seed=-1), "TaskConfig: seed must be >= 0"),
        (lambda raw: raw["task"].update(noise_std=float("nan")),
         "task.noise_std must be a finite number, got NaN"),
        (lambda raw: raw["task"].update(colour=1), r"unknown key\(s\) \['colour'\] in task"),
        (lambda raw: raw["task"].pop("seed"), r"task lacks \['seed'\]"),
        (lambda raw: raw.update(task=[1]), "task must be a JSON object"),
        (lambda raw: raw.update(split="dev"), _NOT_AN_OBJECT),
        (lambda raw: raw.update(split=[1]), _NOT_AN_OBJECT),
        (lambda raw: raw.pop("split"), _NOT_AN_OBJECT),
        (lambda raw: raw.update(extra=1), _NOT_AN_OBJECT),
    ], ids=["seed-negative", "noise-nan", "unknown-key", "missing-key", "task-list",
            "unknown-split", "split-list", "no-split", "extra-key"])
    def test_a_bad_header_task_is_rejected(self, tmp_path, edit, message):
        bad = _rewritten(_saved(tmp_path), _header_edited(edit))
        with pytest.raises(DatasetFormatError, match=rf"bad\.bin: entry 'header' {message}"):
            load_dataset(bad)

    @pytest.mark.parametrize("text", [b"", b"{", b"[1]", b"\xff"],
                             ids=["empty", "cut", "list", "not-utf8"])
    def test_a_header_that_is_not_a_json_object_is_rejected(self, tmp_path, text):
        bad = _rewritten(_saved(tmp_path),
                         lambda e: e.update(header=np.frombuffer(text, np.uint8)))
        with pytest.raises(DatasetFormatError, match=r"bad\.bin: entry 'header' "):
            load_dataset(bad)

    @pytest.mark.parametrize("value", [lambda v: v + 0.7, float, str, lambda v: True],
                             ids=["fraction", "integral-float", "text", "bool"])
    @pytest.mark.parametrize("key", ["feature_dim", "max_turns", "blocks", "db_size", "seed"],
                             ids=["D", "N_max", "blocks", "db_size", "seed"])
    def test_integer_field_must_be_a_json_integer(self, tmp_path, key, value):
        # json.loads keeps each of these apart from the int the writer emits
        bad = _rewritten(_saved(tmp_path),
                         _header_edited(lambda raw: raw["task"].update({key: value(raw["task"][key])})))
        with pytest.raises(DatasetFormatError,
                           match=rf"entry 'header' task\.{key} must be an integer, got "):
            load_dataset(bad)

    def test_a_header_promising_a_huge_db_fails_on_the_shape(self, tmp_path):
        # the entries are read as the file sizes them, then checked against
        # the task: nothing is allocated for the promise
        bad = _rewritten(_saved(tmp_path),
                         _header_edited(lambda raw: raw["task"].update(db_size=10 ** 12)))
        with pytest.raises(DatasetFormatError,
                           match=r"entry 'db\.ids' must be int64 of shape \(1000000000000,\)"):
            load_dataset(bad)


# ----------------------------------------------------------------- golden data

# Generation must stay bit-for-bit: a change to its arithmetic that flips a
# bit or a near-tie moves these digests, and the change is then wrong. The
# array digests pin what was generated; the file digests also pin the format.
DESK_FILE_SHA256 = "abc5ec6003aa1fa86023accffbef389daadf35a3d8b96fe6ab33479f52d5fea9"
DESK_ARRAYS_SHA256 = "89c15f8b46f80c44181e71e6f19027432d4eeb008127085d462627747dc80f56"
SCALE_TXN_SHA256 = "f3992cee0de47c6b9e424c553bfdf7d857ad2f0a6458d17293657aef58609985"
# 700 desk transactions span two chunks of 640, and their distractors pin the meta
DESK_DISTRACTOR_FILE_SHA256 = "ba616a0fe4e251c348b8cb8e987ccf7c6e8210ca8754bc5a4aa3e59780041800"
DESK_DISTRACTOR_ARRAYS_SHA256 = "8fda0b5f96932108b8b7575b3eed72080d575040af05787682a755e64ffdabbd"
NOISELESS_3_OF_8_FILE_SHA256 = "67e7621e2d84d348ffcb9c6d1f7ea6839563b239c2d8a6c1c2ae066c5d617f3e"
NOISELESS_3_OF_8_ARRAYS_SHA256 = "fb648ce66dec73ffdf4ee0d542877cbc427c905ca6309386d0f6b7444eeef155"


def _digests(dataset, path) -> tuple[str, str]:
    """The sha256 of the saved file, and of the db, queries, target ids and
    meta as stacked arrays."""
    save_dataset(dataset, str(path))
    with open(path, "rb") as fh:
        file_digest = hashlib.sha256(fh.read()).hexdigest()
    arrays = hashlib.sha256()
    for part in (dataset.db.ids, dataset.db.features, dataset.queries, dataset.target_ids,
                 dataset.refs, dataset.blocks, dataset.distractor.astype(np.uint8)):
        arrays.update(np.ascontiguousarray(part).tobytes())
    return file_digest, arrays.hexdigest()


class TestGoldenData:
    def test_desk_preset_file_bytes_are_pinned(self, tmp_path):
        assert _digests(gen_distractor(TaskConfig(), count=64), tmp_path / "desk.bin") == (
            DESK_FILE_SHA256, DESK_ARRAYS_SHA256)

    def test_desk_split_with_distractors_past_one_chunk_is_pinned(self, tmp_path, monkeypatch):
        # half the score block cuts the split at 640, as float64 scores did
        monkeypatch.setattr(retrieval, "SCORE_BLOCK_BYTES", retrieval.SCORE_BLOCK_BYTES // 2)
        cfg = TaskConfig(distractor_prob=0.3)
        assert _chunk(cfg, 700) == 640
        assert _digests(gen_distractor(cfg, count=700), tmp_path / "desk.bin") == (
            DESK_DISTRACTOR_FILE_SHA256, DESK_DISTRACTOR_ARRAYS_SHA256)

    def test_noiseless_three_of_eight_blocks_is_pinned(self, tmp_path):
        cfg = TaskConfig(feature_dim=64, blocks=8, max_turns=3, noise_std=0.0)
        assert _digests(gen_distractor(cfg, count=64), tmp_path / "noiseless.bin") == (
            NOISELESS_3_OF_8_FILE_SHA256, NOISELESS_3_OF_8_ARRAYS_SHA256)

    def test_scale_preset_transactions_are_pinned(self):
        ds = gen_distractor(TaskConfig(feature_dim=768, db_size=10000, max_turns=4), count=8)
        digest = hashlib.sha256(ds.queries.tobytes() + ds.target_ids.tobytes()).hexdigest()
        assert digest == SCALE_TXN_SHA256
