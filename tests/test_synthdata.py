"""Synthetic task generator and dataset file format tests."""

import dataclasses
import gc
import hashlib
import json
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from cmntm import synthdata
from cmntm.errors import DatasetFormatError, DegenerateInputError
from cmntm.retrieval import CandidateDB, block_rows, rank, recall_at_k, similarity_scores
from cmntm.synthdata import (
    TaskConfig,
    Transaction,
    TransactionMeta,
    TurnMeta,
    block_slice,
    datasets_equal,
    gen_block_reveal,
    gen_distractor,
    load_dataset,
    make_db,
    oracle_features,
    save_dataset,
)


SMALL = TaskConfig(feature_dim=16, blocks=4, max_turns=4, db_size=32, seed=7)
# a db this large makes generation resolve 8 transactions per GEMM
CHUNKY = TaskConfig(feature_dim=16, blocks=4, max_turns=4, db_size=20000, seed=7)


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
        ds = gen_block_reveal(SMALL, count=6)
        assert ds.feature_dim == 16 and ds.max_turns == 4
        assert len(ds.transactions) == 6
        for txn in ds.transactions:
            assert txn.queries.shape == (4, 16) and txn.queries.dtype == np.float32
            assert txn.target_ids.shape == (4,) and txn.target_ids.dtype == np.int64

    def test_db_rows_unit_norm(self):
        db = make_db(SMALL)
        np.testing.assert_allclose(np.linalg.norm(db.features, axis=1), 1.0, atol=1e-6)

    def test_same_seed_reproduces(self):
        a = gen_block_reveal(SMALL, count=5)
        b = gen_block_reveal(SMALL, count=5)
        assert datasets_equal(a, b)

    def test_different_seed_differs(self):
        a = gen_block_reveal(SMALL, count=5)
        b = gen_block_reveal(TaskConfig(**{**SMALL.__dict__, "seed": 8}), count=5)
        assert not datasets_equal(a, b)

    def test_splits_share_db_but_not_transactions(self):
        # a task of its own, so that no other test's dataset holds its db
        cfg = dataclasses.replace(SMALL, db_size=40, seed=21)
        a = gen_block_reveal(cfg, count=5, split="train")
        b = gen_block_reveal(cfg, count=5, split="val")
        assert a.db is b.db is make_db(cfg)
        assert not np.array_equal(a.transactions[0].queries, b.transactions[0].queries)
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

    def test_count_extension_is_a_prefix(self):
        # per-transaction seeding: asking for more data never rewrites
        # earlier transactions, also when the longer run adds a chunk
        chunk = block_rows(make_db(CHUNKY), 8) // CHUNKY.max_turns
        assert chunk == 8
        for cfg, short_count, long_count in [(SMALL, 4, 9), (CHUNKY, 4, 9),
                                             (CHUNKY, chunk, chunk + 1), (CHUNKY, 7, 25)]:
            short = gen_distractor(dataclasses.replace(cfg, distractor_prob=0.5), short_count)
            long = gen_distractor(dataclasses.replace(cfg, distractor_prob=0.5), long_count)
            long.transactions = long.transactions[:short_count]
            assert datasets_equal(short, long), (cfg.db_size, short_count, long_count)

    def test_turn_blocks_are_disjoint(self):
        ds = gen_block_reveal(SMALL, count=20)
        for txn in ds.transactions:
            blocks = [t.block for t in txn.meta.turns]
            assert len(set(blocks)) == len(blocks)
            assert all(0 <= b < SMALL.blocks for b in blocks)

    def test_reference_differs_from_final_target_feature_source(self):
        ds = gen_block_reveal(TaskConfig(feature_dim=16, blocks=4, max_turns=4,
                                         db_size=32, noise_std=0.0, seed=3), count=30)
        for txn in ds.transactions:
            assert txn.meta.reference_id != int(txn.target_ids[-1])

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            gen_block_reveal(SMALL, count=2, split="dev")

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            gen_block_reveal(SMALL, count=0)


# --------------------------------------------------------------------- oracle

class TestOracle:
    def test_noiseless_oracle_reaches_perfect_final_recall(self):
        cfg = TaskConfig(feature_dim=32, blocks=4, max_turns=4, db_size=256,
                         noise_std=0.0, seed=0)
        ds = gen_block_reveal(cfg, count=200)
        rankings, targets = [], []
        for txn in ds.transactions:
            feats = oracle_features(txn, ds.db, cfg.block_len)
            rankings.append(rank(similarity_scores(feats[-1], ds.db), ds.db.ids))
            targets.append(int(txn.target_ids[-1]))
        assert recall_at_k(rankings, targets, k=1) == 1.0

    def test_noisy_oracle_stays_near_perfect(self):
        cfg = TaskConfig(feature_dim=32, blocks=4, max_turns=4, db_size=256,
                         noise_std=0.1, seed=0)
        ds = gen_block_reveal(cfg, count=1000)
        rankings, targets = [], []
        for txn in ds.transactions:
            feats = oracle_features(txn, ds.db, cfg.block_len)
            rankings.append(rank(similarity_scores(feats[-1], ds.db), ds.db.ids))
            targets.append(int(txn.target_ids[-1]))
        assert recall_at_k(rankings, targets, k=1) > 0.95

    def test_oracle_first_turn_mixes_reference_and_query_block(self):
        ds = gen_block_reveal(SMALL, count=3)
        txn = ds.transactions[0]
        feats = oracle_features(txn, ds.db, SMALL.block_len)
        ref = ds.db.feature_of(txn.meta.reference_id)
        sl = block_slice(txn.meta.turns[0].block, SMALL.block_len, SMALL.feature_dim)
        expected = ref.copy()
        expected[sl] = txn.queries[0][sl]
        np.testing.assert_allclose(feats[0], expected, atol=1e-7)

    def test_oracle_requires_metadata(self):
        ds = gen_block_reveal(SMALL, count=1)
        txn = ds.transactions[0]
        bare = Transaction(txn.queries, txn.target_ids, meta=None)
        with pytest.raises(DegenerateInputError):
            oracle_features(bare, ds.db, SMALL.block_len)

    def test_oracle_rejects_a_block_past_the_feature_end(self):
        # D=16 holds blocks 0-3 of length 4; block 5 is inside [0, D) but
        # ends past the feature
        ds = gen_block_reveal(SMALL, count=1)
        txn = ds.transactions[0]
        txn.meta.turns[1].block = 5
        with pytest.raises(DegenerateInputError, match="block 5 of length 4"):
            oracle_features(txn, ds.db, SMALL.block_len)


# ---------------------------------------------------------- chunked ground truth

def _gemv_reference(cfg: TaskConfig, count: int, distractor_prob: float):
    """Queries, target ids and meta drawn one transaction at a time, as
    generation draws them, with each turn's target found by its own float64
    GEMV over the db."""
    db = make_db(cfg)
    features64 = db.features.astype(np.float64)
    queries, target_ids, metas = [], [], []
    for index in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(
            [synthdata._TXN_TAG, cfg.seed, synthdata._SPLIT_TAGS["train"], index]))
        ref, tgt = (int(v) for v in rng.choice(cfg.db_size, size=2, replace=False))
        composite = db.feature_of(ref).astype(np.float64)
        turns = []
        for block in rng.permutation(cfg.blocks)[:cfg.max_turns]:
            distractor = rng.random() < distractor_prob
            turns.append(TurnMeta(int(block), distractor))
            if distractor:
                noise = rng.normal(size=cfg.feature_dim)
                query = noise / np.linalg.norm(noise)
            else:
                sl = block_slice(int(block), cfg.block_len, cfg.feature_dim)
                query = db.feature_of(ref).astype(np.float64)
                query[sl] = db.feature_of(tgt)[sl] + rng.normal(0.0, cfg.noise_std,
                                                                size=cfg.block_len)
                composite[sl] = db.feature_of(tgt)[sl]
            queries.append(query.astype(np.float32))
            norms = db.row_norms * max(np.linalg.norm(composite), 1e-30)
            target_ids.append(int(db.ids[np.argmax(features64 @ composite / norms)]))
        metas.append(TransactionMeta(reference_id=ref, turns=turns))
    return np.stack(queries), target_ids, metas


def _assert_matches_gemv_reference(cfg: TaskConfig, count: int, distractor_prob: float):
    ds = gen_distractor(dataclasses.replace(cfg, distractor_prob=distractor_prob), count)
    queries, target_ids, metas = _gemv_reference(cfg, count, distractor_prob)
    np.testing.assert_array_equal(np.concatenate([t.queries for t in ds.transactions]), queries)
    assert [int(i) for t in ds.transactions for i in t.target_ids] == target_ids
    # the dataclasses compare field by field, and the types of the values
    # must be the ones the file writer accepts
    assert [t.meta for t in ds.transactions] == metas
    for meta in (t.meta for t in ds.transactions):
        assert type(meta.reference_id) is int
        assert all(type(t.block) is int and type(t.distractor) is bool for t in meta.turns)


class TestChunkedGroundTruth:
    @pytest.mark.parametrize("distractor_prob", [0.0, 0.5])
    @pytest.mark.parametrize("count", [1, 7, 8, 9, 25])  # chunk 8: c-1, c, c+1, 3c+1
    def test_target_ids_equal_one_gemv_per_turn(self, count, distractor_prob):
        _assert_matches_gemv_reference(CHUNKY, count, distractor_prob)

    def test_scale_preset_past_one_chunk_equals_one_gemv_per_turn(self):
        cfg = TaskConfig(feature_dim=768, db_size=10000, max_turns=4, seed=3)
        chunk = block_rows(make_db(cfg), 8) // cfg.max_turns
        assert chunk == 16
        _assert_matches_gemv_reference(cfg, chunk + 1, distractor_prob=0.3)

    def test_scale_cosines_lie_within_the_bound_of_gemv_cosines(self, monkeypatch):
        # unsettled's premise for generation: at D=768 over a 10k db, the
        # chunk's GEMM cosines lie within B = 2 (D + 1) eps of each turn's GEMV
        chunks = []
        nearest_ids = synthdata._nearest_ids
        monkeypatch.setattr(synthdata, "_nearest_ids",
                            lambda *args: chunks.append(args) or nearest_ids(*args))
        cfg = TaskConfig(feature_dim=768, db_size=10000, max_turns=4, seed=3,
                         distractor_prob=0.3)
        gen_distractor(cfg, block_rows(make_db(cfg), 8) // cfg.max_turns)
        [(db, features64, composites, norms)] = chunks
        # as _nearest_ids and _nearest_id compute them
        block = composites @ features64.T
        for row, norm in zip(block, norms):
            row /= db.row_norms * norm
        gemv = np.stack([features64 @ c / (db.row_norms * max(np.linalg.norm(c), 1e-30))
                         for c in composites])
        assert block.dtype == gemv.dtype == np.float64
        assert np.max(np.abs(block - gemv)) <= 2 * (768 + 1) * np.finfo(np.float64).eps

    def test_rows_equal_nearest_id_on_a_db_of_unequal_norms(self):
        # generated dbs are unit-norm; this one makes the row norms matter
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(300, 16)) * rng.uniform(0.1, 10.0, size=(300, 1))
        db = CandidateDB(np.arange(300), feats.astype(np.float32))
        features64 = db.features.astype(np.float64)
        composites = rng.normal(size=(40, 16))
        norms = [max(np.linalg.norm(c), 1e-30) for c in composites]
        assert synthdata._nearest_ids(db, features64, composites, norms).tolist() == [
            synthdata._nearest_id(db, features64, c) for c in composites]

    def test_near_tie_keeps_the_lower_row_via_the_gemv(self, monkeypatch):
        # rows 2 and 5 are the same feature under ids 50 and 10: np.argmax
        # picks the lower row, so the id is 50, whichever way the GEMM rounds
        feats = np.random.default_rng(3).normal(size=(8, 16))
        feats[5] = feats[2]
        db = CandidateDB(np.array([0, 1, 50, 3, 4, 10, 6, 7]), feats.astype(np.float32))
        features64 = db.features.astype(np.float64)
        composites = features64[[2, 6]]
        norms = [max(np.linalg.norm(c), 1e-30) for c in composites]
        fallbacks = []
        gemv = synthdata._nearest_id
        monkeypatch.setattr(synthdata, "_nearest_id",
                            lambda *args: fallbacks.append(args[2]) or gemv(*args))
        assert synthdata._nearest_ids(db, features64, composites, norms).tolist() == [50, 6]
        # only the tied composite is searched again
        assert len(fallbacks) == 1
        np.testing.assert_array_equal(fallbacks[0], composites[0])


# ---------------------------------------------------------------- distractors

class TestDistractors:
    def test_zero_probability_matches_block_reveal(self):
        cfg = TaskConfig(feature_dim=16, blocks=4, max_turns=4, db_size=32,
                         distractor_prob=0.0, seed=11)
        assert datasets_equal(gen_distractor(cfg, count=8), gen_block_reveal(cfg, count=8))

    def test_block_reveal_ignores_distractor_prob(self):
        base = TaskConfig(feature_dim=16, blocks=4, max_turns=4, db_size=32, seed=11)
        noisy = TaskConfig(**{**base.__dict__, "distractor_prob": 0.7})
        assert datasets_equal(gen_block_reveal(base, count=8), gen_block_reveal(noisy, count=8))

    def test_all_distractor_turns_keep_ground_truth_at_reference(self):
        # pure-noise turns never update the composite, so every turn's
        # nearest candidate stays the reference itself
        cfg = TaskConfig(feature_dim=16, blocks=4, max_turns=4, db_size=32,
                         distractor_prob=1.0, seed=5)
        ds = gen_distractor(cfg, count=10)
        for txn in ds.transactions:
            assert all(t.distractor for t in txn.meta.turns)
            assert all(int(i) == txn.meta.reference_id for i in txn.target_ids)
            np.testing.assert_allclose(np.linalg.norm(txn.queries, axis=1), 1.0, atol=1e-5)

    def test_distractor_flags_mix_at_half_probability(self):
        cfg = TaskConfig(feature_dim=16, blocks=4, max_turns=4, db_size=32,
                         distractor_prob=0.5, seed=5)
        ds = gen_distractor(cfg, count=50)
        flags = [t.distractor for txn in ds.transactions for t in txn.meta.turns]
        assert 0.3 < np.mean(flags) < 0.7


# --------------------------------------------------------------- transactions

class TestPadding:
    def test_transaction_validates_turn_counts(self, rng):
        q = rng.normal(size=(2, 4)).astype(np.float32)
        with pytest.raises(DegenerateInputError):
            Transaction(q, np.array([1]))
        with pytest.raises(DegenerateInputError):
            Transaction(q, np.array([1, 2, 3]))


# -------------------------------------------------------------- serialization

class TestSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        ds = gen_block_reveal(SMALL, count=6)
        path = str(tmp_path / "ds.jsonl")
        save_dataset(ds, path)
        assert datasets_equal(load_dataset(path), ds)

    def test_same_dataset_saves_identical_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        save_dataset(gen_block_reveal(SMALL, count=4), p1)
        save_dataset(gen_block_reveal(SMALL, count=4), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = gen_block_reveal(SMALL, count=3)
        path = str(tmp_path / "ds.jsonl")
        save_dataset(ds, path)
        loaded = load_dataset(path)
        for a, b in zip(ds.transactions, loaded.transactions):
            assert a.queries.tobytes() == b.queries.tobytes()

    def test_failed_save_keeps_the_existing_file(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        save_dataset(gen_block_reveal(SMALL, count=2), str(path))
        before = path.read_bytes()
        broken = gen_block_reveal(SMALL, count=3)
        # not JSON-serializable: raises after the db and two transactions are written
        broken.transactions[-1].meta.turns[0] = TurnMeta(block=object(), distractor=False)
        with pytest.raises(TypeError):
            save_dataset(broken, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ds.jsonl"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetFormatError, match=r":1:"):
            load_dataset(str(path))

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "v99.jsonl"
        path.write_text('{"version":99,"D":4,"N_max":1,"db_size":8,"split":"train"}\n')
        with pytest.raises(DatasetFormatError, match="version"):
            load_dataset(str(path))

    def test_invalid_json_cites_line(self, tmp_path):
        ds = gen_block_reveal(SMALL, count=2)
        path = str(tmp_path / "bad.jsonl")
        save_dataset(ds, path)
        lines = open(path).read().splitlines()
        lines[2] = '{"id": 1, "feature": [broken'
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=r"bad\.jsonl:3"):
            load_dataset(path)

    def test_truncated_db_section_rejected(self, tmp_path):
        ds = gen_block_reveal(SMALL, count=2)
        path = str(tmp_path / "cut.jsonl")
        save_dataset(ds, path)
        lines = open(path).read().splitlines()
        open(path, "w").write("\n".join(lines[:10]) + "\n")  # header + 9 of 32 db rows
        with pytest.raises(DatasetFormatError, match=r"cut\.jsonl:11: unexpected end of file"):
            load_dataset(path)

    def test_header_promising_more_rows_than_memory_fails_on_a_line(self, tmp_path):
        ds = gen_block_reveal(SMALL, count=1)
        path = str(tmp_path / "huge.jsonl")
        save_dataset(ds, path)
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["db_size"] = 10 ** 12  # 64 TB of features if allocated up front
        lines[0] = json.dumps(header, separators=(",", ":"))
        open(path, "w").write("\n".join(lines) + "\n")
        # the transaction on line 34 is read as a db row, not 10**12 rows allocated
        with pytest.raises(DatasetFormatError, match=r"huge\.jsonl:34: missing key 'id'"):
            load_dataset(path)

    def test_missing_transactions_rejected(self, tmp_path):
        ds = gen_block_reveal(SMALL, count=1)
        path = str(tmp_path / "notxn.jsonl")
        save_dataset(ds, path)
        lines = open(path).read().splitlines()
        open(path, "w").write("\n".join(lines[:33]) + "\n")  # header + full db only
        with pytest.raises(DatasetFormatError, match=r"notxn\.jsonl:34: file contains no transactions"):
            load_dataset(path)

    @pytest.mark.parametrize("line_no, corrupt", [
        (1, lambda o: o.update(D="x")),
        (1, lambda o: o.update(db_size=-1)),
        (2, lambda o: o["feature"].__setitem__(0, "x")),
        (3, lambda o: o["feature"].__setitem__(5, None)),
        (4, lambda o: o.update(id=10 ** 30)),
        (5, lambda o: o.update(id="x")),
        (33, lambda o: o.update(id=0)),  # the db now holds id 0 twice
        (34, lambda o: o["turns"][1]["qry"].__setitem__(3, "x")),
        (34, lambda o: o["turns"][2]["qry"].__setitem__(0, None)),
        (35, lambda o: o.update(original_len="x")),
        (35, lambda o: o.update(original_len=2)),
        (35, lambda o: o.update(meta=5)),
        (36, lambda o: o["turns"][0].update(target_id=None)),
        (36, lambda o: o["meta"]["turns"].__setitem__(0, 5)),
        (36, lambda o: o["meta"].update(turns=5)),
        (34, lambda o: o.update(turns=o["turns"][:2], original_len=2,
                                meta={"ref": o["meta"]["ref"], "turns": o["meta"]["turns"][:2]})),
        (35, lambda o: o["meta"]["turns"][1].update(distractor="no")),
        (35, lambda o: o["meta"].update(turns=o["meta"]["turns"][:2])),
        (36, lambda o: o["meta"]["turns"][2].update(block=99)),
        (36, lambda o: o["meta"]["turns"][0].update(block=-1)),
    ], ids=["header-D", "negative-db-size", "feature-text", "feature-null", "db-id-huge",
            "db-id-text", "duplicate-db-id", "qry-text", "qry-null", "original-len-text", "original-len-short",
            "meta-number", "target-id-null", "meta-turn-number", "meta-turns-number",
            "short-turns", "distractor-text", "short-meta-turns", "block-past-D",
            "block-negative"])
    def test_malformed_value_cites_line(self, tmp_path, line_no, corrupt):
        ds = gen_block_reveal(SMALL, count=3)
        path = str(tmp_path / "bad.jsonl")
        save_dataset(ds, path)
        lines = open(path).read().splitlines()
        obj = json.loads(lines[line_no - 1])
        corrupt(obj)
        lines[line_no - 1] = json.dumps(obj)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=rf"bad\.jsonl:{line_no}:"):
            load_dataset(path)

    @pytest.mark.parametrize("value", [lambda v: v + 0.7, float, str, lambda v: True],
                             ids=["fraction", "integral-float", "text", "bool"])
    @pytest.mark.parametrize("line_no, key, field", [
        (1, "version", lambda o: o),
        (1, "D", lambda o: o),
        (1, "N_max", lambda o: o),
        (1, "db_size", lambda o: o),
        (2, "id", lambda o: o),
        (34, "original_len", lambda o: o),
        (34, "target_id", lambda o: o["turns"][0]),
        (34, "ref", lambda o: o["meta"]),
        (34, "block", lambda o: o["meta"]["turns"][0]),
    ], ids=["version", "D", "N_max", "db_size", "id", "original_len", "target_id", "ref", "block"])
    def test_integer_field_must_be_a_json_integer(self, tmp_path, line_no, key, field, value):
        # json.loads keeps each of these apart from the int the writer emits
        ds = gen_block_reveal(SMALL, count=1)
        path = str(tmp_path / "bad.jsonl")
        save_dataset(ds, path)
        lines = open(path).read().splitlines()
        obj = json.loads(lines[line_no - 1])
        field(obj)[key] = value(field(obj)[key])
        lines[line_no - 1] = json.dumps(obj)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError,
                           match=rf"bad\.jsonl:{line_no}: {key} must be a 64-bit integer"):
            load_dataset(path)

    def test_crlf_line_endings_load_equal(self, tmp_path):
        ds = gen_distractor(dataclasses.replace(SMALL, distractor_prob=0.5), count=3)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, str(path))
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert datasets_equal(load_dataset(str(crlf)), ds)

    def test_missing_final_newline_loads_equal(self, tmp_path):
        ds = gen_block_reveal(SMALL, count=3)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, str(path))
        path.write_bytes(path.read_bytes()[:-1])
        assert datasets_equal(load_dataset(str(path)), ds)

    def test_load_streams_the_file(self, tmp_path):
        # the db alone is 6 MB of float32 in a ~33 MB file; a load that held
        # the text or a list of rows at once would peak well above half of it
        ds = gen_block_reveal(TaskConfig(feature_dim=768, db_size=2000), count=8)
        path = str(tmp_path / "big.jsonl")
        save_dataset(ds, path)
        tracemalloc.start()
        try:
            loaded = load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(path) / 2
        assert datasets_equal(loaded, ds)

    def test_missing_key_rejected(self, tmp_path):
        ds = gen_block_reveal(SMALL, count=1)
        path = str(tmp_path / "nokey.jsonl")
        save_dataset(ds, path)
        lines = open(path).read().splitlines()
        row = json.loads(lines[2])
        del row["feature"]
        lines[2] = json.dumps(row, separators=(",", ":"))
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="feature"):
            load_dataset(path)

    def test_wrong_feature_width_rejected(self, tmp_path):
        ds = gen_block_reveal(SMALL, count=1)
        path = str(tmp_path / "wide.jsonl")
        save_dataset(ds, path)
        lines = open(path).read().splitlines()
        row = json.loads(lines[2])
        row["feature"] = row["feature"] + [0.0]
        lines[2] = json.dumps(row, separators=(",", ":"))
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=r"wide\.jsonl:3"):
            load_dataset(path)

    def test_unknown_target_id_rejected(self, tmp_path):
        ds = gen_block_reveal(SMALL, count=1)
        path = str(tmp_path / "badtid.jsonl")
        save_dataset(ds, path)
        lines = open(path).read().splitlines()
        row = json.loads(lines[-1])
        row["turns"][0]["target_id"] = 9999
        lines[-1] = json.dumps(row, separators=(",", ":"))
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="9999"):
            load_dataset(path)


# ----------------------------------------------------------------- golden data

# Generation must stay bit-for-bit: a change to its arithmetic that flips a
# bit or a near-tie moves these digests, and the change is then wrong.
DESK_JSONL_SHA256 = "913a4b8f47a7218be0be55bb441a4af0194cc18445592d479f35e091329ed073"
SCALE_TXN_SHA256 = "f3992cee0de47c6b9e424c553bfdf7d857ad2f0a6458d17293657aef58609985"
# 700 desk transactions span two chunks of 640, and their distractors pin the meta
DESK_DISTRACTOR_JSONL_SHA256 = "9de14112729d775a4b47402a39d471379ada6869422ace4a180d019ae2b5a2e5"
NOISELESS_3_OF_8_JSONL_SHA256 = "642b8cbaf3b7ba7962282086e6e92c31a7cea3b3dbee487ce3ebb8e5e8c2c9e6"


def _file_sha256(dataset, path) -> str:
    save_dataset(dataset, str(path))
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestGoldenData:
    def test_desk_preset_file_bytes_are_pinned(self, tmp_path):
        assert _file_sha256(gen_distractor(TaskConfig(), count=64),
                            tmp_path / "desk.jsonl") == DESK_JSONL_SHA256

    def test_desk_split_with_distractors_past_one_chunk_is_pinned(self, tmp_path):
        cfg = TaskConfig(distractor_prob=0.3)
        assert block_rows(make_db(cfg), 8) // cfg.max_turns == 640
        assert _file_sha256(gen_distractor(cfg, count=700),
                            tmp_path / "desk.jsonl") == DESK_DISTRACTOR_JSONL_SHA256

    def test_noiseless_three_of_eight_blocks_is_pinned(self, tmp_path):
        cfg = TaskConfig(feature_dim=64, blocks=8, max_turns=3, noise_std=0.0)
        assert _file_sha256(gen_distractor(cfg, count=64),
                            tmp_path / "noiseless.jsonl") == NOISELESS_3_OF_8_JSONL_SHA256

    def test_scale_preset_transactions_are_pinned(self):
        ds = gen_distractor(TaskConfig(feature_dim=768, db_size=10000, max_turns=4), count=8)
        queries = np.stack([t.queries for t in ds.transactions])
        target_ids = np.stack([t.target_ids for t in ds.transactions])
        digest = hashlib.sha256(queries.tobytes() + target_ids.tobytes()).hexdigest()
        assert digest == SCALE_TXN_SHA256
