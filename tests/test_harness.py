"""Training loop, checkpoint format, config, and experiment protocol tests."""

import dataclasses
import gc
import json
import math
import os
import struct
import weakref

import numpy as np
import pytest

from cmntm import checkpoint as ckpt_io
from cmntm import harness, retrieval
from cmntm.autodiff import Tape, Tensor, no_grad
from cmntm.cascade import CMNTM, CascadeConfig, EwmaModel, LstmBaseline, MeanModel
from cmntm.config import (
    TrainConfig,
    config_from_dict,
    config_json,
    config_to_dict,
    load_config,
)
from cmntm.errors import (
    CheckpointError,
    CmntmError,
    ConfigError,
    DegenerateInputError,
    TimingMonotonicityError,
    TrainingDivergedError,
)
from cmntm.retrieval import (
    CandidateDB,
    rank,
    rank_of,
    recall_at_k,
    similarity_scores,
    top_k,
    transaction_loss,
)
from cmntm.synthdata import SyntheticDataset, TaskConfig, gen_distractor


# Epoch 1 of the CI smoke run (its tiny.json config and generated data, one
# BLAS thread), written in the float32-only checkpoint version 1.
V1_CHECKPOINT = os.path.join(os.path.dirname(__file__), "data", "tiny_v1_epoch1.bin")

TINY_TASK = TaskConfig(feature_dim=8, blocks=4, max_turns=2, db_size=16,
                       noise_std=0.05, seed=0)
TINY_CASCADE = CascadeConfig(num_stages=2, mem_locations=4, mem_width=4,
                             hidden_size=8, feature_dim=8)


def tiny_cfg(**overrides) -> TrainConfig:
    base = dict(model="cmntm", seed=0, cascade=TINY_CASCADE, task=TINY_TASK,
                epochs=2, batch_size=4, eval_batch_size=8, train_count=12,
                val_count=8)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_val():
    return gen_distractor(TINY_TASK, count=8, split="val")


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A one-epoch tiny run's config and final checkpoint path."""
    cfg = tiny_cfg(epochs=1)
    out = tmp_path_factory.mktemp("trained")
    return cfg, harness.train(cfg, out_dir=str(out)).checkpoint_path


def _batch(ds) -> tuple[np.ndarray, list[Tensor]]:
    """The dataset as one train batch: its queries and each turn's target features."""
    return harness.stack_batch(ds, np.arange(len(ds.queries)))


def _rows(ds, index) -> SyntheticDataset:
    """The dataset's transactions at ``index``."""
    return dataclasses.replace(ds, queries=ds.queries[index], target_ids=ds.target_ids[index],
                               refs=ds.refs[index], blocks=ds.blocks[index],
                               distractor=ds.distractor[index])


def _drop(*names):
    def corrupt(entries):
        for name in names:
            del entries[name]
    return corrupt


# -------------------------------------------------------- checkpoint file fmt

def _sample_entries():
    return {"a.w": np.arange(6, dtype=np.float32).reshape(2, 3),
            "b": np.array([1.5], dtype=np.float32),
            "c": np.array([[2**62 + 1, -(2**40)]], dtype=np.int64),
            "d": np.frombuffer(b'{"a": 1}', dtype=np.uint8)}


def _two_entry_file(tmp_path, keep: int) -> str:
    """The first ``keep`` of the 88 bytes of a checkpoint of {"a": (1,), "w.b": (2, 3)}."""
    path = str(tmp_path / "c.bin")
    ckpt_io.save_entries(path, {"a": np.zeros(1, dtype=np.float32),
                                "w.b": np.zeros((2, 3), dtype=np.float32)})
    blob = open(path, "rb").read()
    assert len(blob) == 88
    open(path, "wb").write(blob[:keep])
    return path


class TestCheckpointFormat:
    def test_round_trip_preserves_arrays_and_order(self, tmp_path):
        path = str(tmp_path / "c.bin")
        entries = _sample_entries()
        ckpt_io.save_entries(path, entries)
        loaded = ckpt_io.load_entries(path)
        assert list(loaded) == list(entries)
        for name in entries:
            assert loaded[name].tobytes() == entries[name].tobytes()
            assert loaded[name].shape == entries[name].shape
            assert loaded[name].dtype == entries[name].dtype

    def test_same_entries_same_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "1.bin"), str(tmp_path / "2.bin")
        ckpt_io.save_entries(p1, _sample_entries())
        ckpt_io.save_entries(p2, _sample_entries())
        assert open(p1, "rb").read() == open(p2, "rb").read()

    @pytest.mark.parametrize("dtype", [np.float64, np.int32], ids=["float64", "int32"])
    def test_rejects_dtypes_without_a_code(self, tmp_path, dtype):
        with pytest.raises(CheckpointError, match=f"int64 or uint8, got {np.dtype(dtype)}"):
            ckpt_io.save_entries(str(tmp_path / "c.bin"), {"x": np.arange(3, dtype=dtype)})

    def test_unknown_dtype_code_rejected(self, tmp_path):
        path = str(tmp_path / "c.bin")
        ckpt_io.save_entries(path, {"x": np.zeros(2, dtype=np.float32)})
        blob = bytearray(open(path, "rb").read())
        blob[17:21] = struct.pack("<I", 3)  # after magic, version, count, name length, name "x"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match=r"c\.bin: entry 'x' has unknown dtype code 3"):
            ckpt_io.load_entries(path)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "c.bin")
        ckpt_io.save_entries(path, _sample_entries())
        blob = open(path, "rb").read()
        open(path, "wb").write(b"XXXX" + blob[4:])
        with pytest.raises(CheckpointError, match="magic"):
            ckpt_io.load_entries(path)

    def test_bad_version(self, tmp_path):
        path = str(tmp_path / "c.bin")
        ckpt_io.save_entries(path, _sample_entries())
        blob = bytearray(open(path, "rb").read())
        blob[4:8] = struct.pack("<I", 99)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            ckpt_io.load_entries(path)

    # Entry 1 of {"a": (1,), "w.b": (2, 3)} float32: name length at 33, name at 37,
    # dtype code at 40, ndim at 44, dims at 48 and 52, payload at 56, length field at 80.
    @pytest.mark.parametrize("keep, message", [
        (2, "file too short to be a checkpoint"),
        (6, "file too short to be a checkpoint"),
        (10, "file too short to be a checkpoint"),
        (35, "truncated while reading entry 1 name length (need 4 bytes at offset 33)"),
        (38, "truncated while reading entry 1 name (need 3 bytes at offset 37)"),
        (42, "truncated while reading entry 'w.b' dtype code (need 4 bytes at offset 40)"),
        (46, "truncated while reading entry 'w.b' ndim (need 4 bytes at offset 44)"),
        (54, "truncated while reading entry 'w.b' dim 1 (need 4 bytes at offset 52)"),
        (70, "truncated while reading entry 'w.b' payload (need 24 bytes at offset 56)"),
        (84, "truncated while reading length field (need 8 bytes at offset 80)"),
    ], ids=["magic", "version", "count", "name-length", "name", "dtype-code", "ndim", "dim",
            "payload", "length-field"])
    def test_truncation_detected(self, tmp_path, keep, message):
        path = _two_entry_file(tmp_path, keep)
        with pytest.raises(CheckpointError) as excinfo:
            ckpt_io.load_entries(path)
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize("keep, message", [
        (42, "truncated while reading entry 'w.b' dtype code (need 4 bytes at offset 40)"),
        (70, "truncated while reading entry 'w.b' payload (need 24 bytes at offset 56)"),
    ], ids=["header", "payload"])
    def test_file_shorter_than_its_stated_size_is_truncated(self, tmp_path, monkeypatch,
                                                            keep, message):
        # a file cut after the loader took its size: the read itself comes up short
        path = _two_entry_file(tmp_path, keep)
        full_size = os.stat_result((0,) * 6 + (88,) + (0,) * 3)  # st_size is field 6
        monkeypatch.setattr(ckpt_io.os, "fstat", lambda fd: full_size)
        with pytest.raises(CheckpointError) as excinfo:
            ckpt_io.load_entries(path)
        monkeypatch.undo()
        assert str(excinfo.value) == f"{path}: {message}"

    def test_dims_whose_product_passes_int64_are_truncated(self, tmp_path):
        path = str(tmp_path / "c.bin")
        body = (ckpt_io.MAGIC + struct.pack("<III", 2, 1, 1) + b"x"
                + struct.pack("<4I", 0, 2, 2**32 - 1, 2**32 - 1))
        open(path, "wb").write(body + struct.pack("<Q", len(body)))
        with pytest.raises(CheckpointError) as excinfo:
            ckpt_io.load_entries(path)
        assert str(excinfo.value) == (f"{path}: truncated while reading entry 'x' payload "
                                      f"(need {4 * (2**32 - 1) ** 2} bytes at offset 33)")

    def test_loaded_arrays_are_separate_writable_buffers(self, tmp_path):
        path = str(tmp_path / "c.bin")
        entries = _sample_entries()
        ckpt_io.save_entries(path, entries)
        loaded = ckpt_io.load_entries(path)
        arrays = list(loaded.values())
        for arr in arrays:
            assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        loaded["a.w"][...] = -1
        for name in ("b", "c", "d"):
            assert loaded[name].tobytes() == entries[name].tobytes()

    def test_trailing_bytes_detected(self, tmp_path):
        path = str(tmp_path / "c.bin")
        ckpt_io.save_entries(path, _sample_entries())
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            ckpt_io.load_entries(path)

    def test_length_field_mismatch_detected(self, tmp_path):
        path = str(tmp_path / "c.bin")
        ckpt_io.save_entries(path, _sample_entries())
        blob = bytearray(open(path, "rb").read())
        blob[-8:] = struct.pack("<Q", 7)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="length field"):
            ckpt_io.load_entries(path)

    @pytest.mark.parametrize("keep", [42, 54, 70, 84])
    def test_skipped_entry_cut_short_fails_as_a_read_one(self, tmp_path, keep):
        path = _two_entry_file(tmp_path, keep)
        errors = []
        for skip in ((), ("w.",)):
            with pytest.raises(CheckpointError) as excinfo:
                ckpt_io.load_entries(path, skip=skip)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    def test_skip_returns_the_other_entries_and_checks_the_rest(self, tmp_path):
        path = str(tmp_path / "c.bin")
        entries = _sample_entries()
        ckpt_io.save_entries(path, entries)
        loaded = ckpt_io.load_entries(path, skip=("a.", "c"))
        assert list(loaded) == ["b", "d"]
        for name in loaded:
            assert loaded[name].tobytes() == entries[name].tobytes()
        blob = open(path, "rb").read()
        for bad, message in ((blob + b"\0\0", "2 trailing bytes"),
                             (blob[:-8] + struct.pack("<Q", 7), "length field says 7")):
            open(path, "wb").write(bad)
            with pytest.raises(CheckpointError, match=message):
                ckpt_io.load_entries(path, skip=("a.", "c"))

    def test_skipped_duplicate_entry_detected(self, tmp_path):
        path = str(tmp_path / "c.bin")
        ckpt_io.save_entries(path, {"x": np.zeros(2, dtype=np.float32)})
        blob = open(path, "rb").read()
        entry = blob[12:-8]  # after magic, version and count; before the length field
        body = ckpt_io.MAGIC + struct.pack("<II", 2, 2) + entry + entry
        open(path, "wb").write(body + struct.pack("<Q", len(body)))
        with pytest.raises(CheckpointError, match="duplicate entry 'x'"):
            ckpt_io.load_entries(path, skip=("x",))

    def test_skipped_payload_past_a_shrunk_file_still_fails(self, tmp_path, monkeypatch):
        # a file cut after the loader took its size: the seek succeeds, the next read does not
        path = _two_entry_file(tmp_path, 70)
        full_size = os.stat_result((0,) * 6 + (88,) + (0,) * 3)
        monkeypatch.setattr(ckpt_io.os, "fstat", lambda fd: full_size)
        with pytest.raises(CheckpointError, match="truncated while reading length field"):
            ckpt_io.load_entries(path, skip=("w.",))

    def test_entry_name_that_is_not_utf8_detected(self, tmp_path):
        path = str(tmp_path / "c.bin")
        ckpt_io.save_entries(path, {"x": np.zeros(2, dtype=np.float32)})
        blob = bytearray(open(path, "rb").read())
        blob[16] = 0xFF  # the name's one byte, after magic, version, count, length
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match=r"c\.bin: entry 0 name is not UTF-8"):
            ckpt_io.load_entries(path)


# -------------------------------------------------------- model checkpointing

class _NoUniform(np.random.Generator):
    """A generator whose uniform draw fails, so a test sees any weight initialization."""

    def uniform(self, *args, **kwargs):
        raise AssertionError("drew uniform numbers")


def _forbid_uniform(monkeypatch):
    """Make every ``default_rng`` stream refuse ``uniform``; other draws are unchanged."""
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: _NoUniform(np.random.PCG64(seed)))
    with pytest.raises(AssertionError, match="drew uniform"):
        harness.build_model(tiny_cfg())


def _assert_same_state(model, other) -> None:
    for name, p in model.parameters().items():
        assert p.data.tobytes() == other.parameters()[name].data.tobytes(), name
    for name, b in model.buffers().items():
        assert b.tobytes() == other.buffers()[name].tobytes(), name


def _stage_names(i):
    return ([f"stage{i}.lstm.{p}" for p in ("wx", "wh", "bias")]
            + [f"stage{i}.{head}.{p}" for head in ("read_head", "write_head")
               for p in ("w1", "b1", "w2", "b2")])


class TestModelCheckpoints:
    # the entry order is the checkpoint's file order
    @pytest.mark.parametrize("kind, stages, params, buffers", [
        ("cmntm", 1, [*_stage_names(0), "fusion.w", "fusion.b"], []),
        ("cmntm", 2, ["derive0.fc.w", "derive0.fc.b", "derive0.bn.scale", "derive0.bn.shift",
                      *_stage_names(0), *_stage_names(1), "fusion.w", "fusion.b"],
         ["derive0.bn.running_mean", "derive0.bn.running_var"]),
        ("lstm", 2, ["lstm.wx", "lstm.wh", "lstm.bias", "proj.w", "proj.b"], []),
    ], ids=["cmntm-C1", "cmntm-C2", "lstm"])
    def test_state_entry_names_and_order(self, kind, stages, params, buffers):
        model = harness.build_model(
            tiny_cfg(model=kind, cascade=dataclasses.replace(TINY_CASCADE, num_stages=stages)))
        opt = harness.Adam(model.parameters(), 1e-3)
        assert list(harness._state(model, opt)) == (
            [f"param.{n}" for n in params] + [f"buffer.{n}" for n in buffers]
            + [f"adam.{m}.{n}" for n in params for m in ("m", "v")])

    @pytest.mark.parametrize("kind", ["cmntm", "lstm"])
    def test_restore_draws_no_initial_weights(self, tmp_path, monkeypatch, kind):
        trained = harness.train(tiny_cfg(model=kind, epochs=1), out_dir=str(tmp_path))
        ckpt = harness.load_checkpoint(trained.checkpoint_path)
        _forbid_uniform(monkeypatch)
        _assert_same_state(trained.model, harness.restore_model(ckpt))

    def test_resume_draws_no_initial_weights(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(epochs=2, checkpoint_every=1)
        train_ds, val_ds = harness.default_datasets(cfg)
        full_dir, resumed_dir = str(tmp_path / "full"), str(tmp_path / "resumed")
        full = harness.train(cfg, out_dir=full_dir, train_ds=train_ds, val_ds=val_ds)
        _forbid_uniform(monkeypatch)
        resumed = harness.train(cfg, out_dir=resumed_dir, train_ds=train_ds, val_ds=val_ds,
                                resume_from=f"{full_dir}/checkpoint_epoch1.bin")
        _assert_same_state(full.model, resumed.model)
        assert (open(f"{full_dir}/checkpoint.bin", "rb").read()
                == open(f"{resumed_dir}/checkpoint.bin", "rb").read())

    def test_save_load_round_trip(self, tmp_path, tiny_val):
        cfg = tiny_cfg()
        model = harness.build_model(cfg)
        opt = harness.Adam(model.parameters(), cfg.learning_rate)
        path = str(tmp_path / "m.bin")
        harness.save_checkpoint(path, model, opt, cfg, epoch=3)
        ckpt = harness.load_checkpoint(path)
        assert ckpt.epoch == 3
        assert ckpt.adam_step == 0
        assert config_json(ckpt.cfg) == config_json(cfg)
        for name, p in model.parameters().items():
            assert ckpt.arrays[f"param.{name}"].tobytes() == p.data.tobytes()
        for name, b in model.buffers().items():
            assert ckpt.arrays[f"buffer.{name}"].tobytes() == b.tobytes()

    def test_counters_past_float32_precision_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        model = harness.build_model(cfg)
        opt = harness.Adam(model.parameters(), cfg.learning_rate)
        opt.step_count = 2**24 + 1
        path = str(tmp_path / "m.bin")
        harness.save_checkpoint(path, model, opt, cfg, epoch=2**31 + 3)
        ckpt = harness.load_checkpoint(path)
        assert (ckpt.epoch, ckpt.adam_step) == (2**31 + 3, 2**24 + 1)

    def test_restored_model_predicts_identically(self, tmp_path, tiny_val):
        cfg = tiny_cfg()
        model = harness.build_model(cfg)
        path = str(tmp_path / "m.bin")
        harness.save_checkpoint(path, model, harness.Adam(model.parameters(), cfg.learning_rate),
                                cfg, epoch=0)
        clone = harness.restore_model(harness.load_checkpoint(path))
        a = harness.predict_dataset(model, tiny_val, 8, seed=0)
        b = harness.predict_dataset(clone, tiny_val, 8, seed=0)
        assert a.tobytes() == b.tobytes()

    def test_version_1_checkpoint_loads_restores_and_resumes(self, tmp_path):
        ckpt = harness.load_checkpoint(V1_CHECKPOINT)
        assert (ckpt.epoch, ckpt.adam_step) == (1, 2)
        assert {arr.dtype for arr in ckpt.arrays.values()} == {np.dtype(np.float32)}
        cfg = ckpt.cfg
        full = str(tmp_path / "full")
        harness.train(cfg, out_dir=full)
        # the version-2 file of the same epoch holds the same entries and bits
        fresh = harness.load_checkpoint(f"{full}/checkpoint_epoch1.bin")
        assert (fresh.epoch, fresh.adam_step) == (ckpt.epoch, ckpt.adam_step)
        assert list(fresh.arrays) == list(ckpt.arrays)
        for name, arr in fresh.arrays.items():
            assert ckpt.arrays[name].tobytes() == arr.tobytes(), name
        model = harness.restore_model(ckpt)
        for name, p in model.parameters().items():
            assert p.data.tobytes() == ckpt.arrays[f"param.{name}"].tobytes(), name
        resumed = str(tmp_path / "resumed")
        harness.train(cfg, out_dir=resumed, resume_from=V1_CHECKPOINT)
        assert (open(f"{full}/checkpoint.bin", "rb").read()
                == open(f"{resumed}/checkpoint.bin", "rb").read())

    def test_eval_load_reads_no_moments(self, trained_run, monkeypatch):
        cfg, path = trained_run
        read = []
        real_array = ckpt_io._Reader.array
        monkeypatch.setattr(ckpt_io._Reader, "array",
                            lambda self, dims, dtype, what: read.append(what)
                            or real_array(self, dims, dtype, what))
        ckpt = harness.load_checkpoint(path)
        assert read and not [what for what in read if "adam." in what]
        assert not [name for name in ckpt.arrays if name.startswith("adam.")]
        resume = harness.load_checkpoint(path, _moments=True)
        params = list(harness.build_model(cfg).parameters())
        assert [name for name in resume.arrays if name.startswith("adam.")] == [
            f"adam.{m}.{n}" for n in params for m in ("m", "v")]
        for name, arr in ckpt.arrays.items():
            assert resume.arrays[name].tobytes() == arr.tobytes(), name

    def test_cut_inside_a_skipped_moment_names_it(self, trained_run, tmp_path):
        _, path = trained_run
        blob = open(path, "rb").read()
        bad = str(tmp_path / "bad.bin")
        open(bad, "wb").write(blob[:-12])  # the length field and 4 bytes of the last payload
        with pytest.raises(CheckpointError) as excinfo:
            harness.load_checkpoint(bad)
        # the last entry is adam.v.fusion.b, 8 float32 values
        assert str(excinfo.value) == (f"{bad}: truncated while reading entry 'adam.v.fusion.b' "
                                      f"payload (need 32 bytes at offset {len(blob) - 40})")
        with pytest.raises(CheckpointError) as full:
            ckpt_io.load_entries(bad)
        assert str(full.value) == str(excinfo.value)

    def test_missing_meta_rejected(self, tmp_path):
        path = str(tmp_path / "m.bin")
        ckpt_io.save_entries(path, _sample_entries())
        with pytest.raises(CheckpointError, match="meta"):
            harness.load_checkpoint(path)

    @pytest.mark.parametrize("corrupt, resume, message", [
        (_drop("buffer.derive0.bn.running_mean", "buffer.derive0.bn.running_var"), False,
         r"state mismatch: missing \['buffer.derive0.bn.running_mean', "
         r"'buffer.derive0.bn.running_var'\]"),
        (_drop("buffer.derive0.bn.running_var"), False,
         r"state mismatch: missing \['buffer.derive0.bn.running_var'\]"),
        (lambda e: e.update({"buffer.derive0.bn.running_mean": np.zeros(1, np.float32)}), False,
         r"state mismatch: .*mis-shaped \['buffer.derive0.bn.running_mean \(1,\) for \(8,\)'\]"),
        (_drop("param.fusion.b"), False, r"state mismatch: missing \['param.fusion.b'\]"),
        (lambda e: e.update({"param.extra": np.zeros(1, np.float32)}), False,
         r"state mismatch: .*unexpected \['param.extra'\]"),
        (lambda e: e.update({"param.fusion.b": e["param.fusion.b"].astype(np.int64)}), False,
         r"state mismatch: .*mis-typed \['param.fusion.b int64 for float32'\]"),
        (_drop("adam.m.stage1.lstm.wx"), True,
         r"state mismatch: missing \['adam.m.stage1.lstm.wx'\]"),
        (lambda e: e.update({"adam.v.fusion.w": np.zeros((8, 12), np.float32)}), True,
         r"state mismatch: .*mis-shaped \['adam.v.fusion.w \(8, 12\) for \(12, 8\)'\]"),
    ], ids=["all-buffers-dropped", "one-buffer-dropped", "buffer-shape-1", "param-dropped",
            "param-extra", "param-mistyped", "adam-m-dropped", "adam-v-misshaped"])
    def test_restore_requires_exactly_the_saved_names_and_shapes(self, trained_run, tmp_path,
                                                                corrupt, resume, message):
        cfg, path = trained_run
        entries = ckpt_io.load_entries(path)
        corrupt(entries)
        bad = str(tmp_path / "bad.bin")
        ckpt_io.save_entries(bad, entries)
        with pytest.raises(CheckpointError, match=message):
            if resume:
                harness.train(cfg, resume_from=bad)
            else:
                harness.restore_model(harness.load_checkpoint(bad))


# ------------------------------------------------------------------- training

class TestTraining:
    # task fields set to another value; a dataset records its whole task
    @pytest.mark.parametrize("split", ["train", "val"])
    @pytest.mark.parametrize("key, got", [("max_turns", 3), ("feature_dim", 12), ("db_size", 24),
                                          ("seed", 3)])
    @pytest.mark.parametrize("run", ["train", "ablate"])
    def test_a_split_of_another_task_is_rejected_before_writing(self, tmp_path, run, key, got,
                                                                split):
        cfg = tiny_cfg(epochs=1)
        task = dataclasses.replace(TINY_TASK, **{key: got})
        splits = {f"{split}_ds": gen_distractor(task, 4, split=split)}
        out = tmp_path / "out"
        message = rf"^{split} split's task differs from config\.task in \['{key}'\]$"
        with pytest.raises(ConfigError, match=message):
            if run == "train":
                harness.train(cfg, out_dir=str(out), **splits)
            else:
                harness.ablate_num_memories(cfg, [1], out_dir=str(out), **splits)
        assert not out.exists()

    def test_two_identical_runs_are_bitwise_equal(self, tmp_path):
        cfg = tiny_cfg()
        d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        harness.train(cfg, out_dir=d1)
        harness.train(cfg, out_dir=d2)
        assert (open(f"{d1}/checkpoint.bin", "rb").read()
                == open(f"{d2}/checkpoint.bin", "rb").read())
        assert (open(f"{d1}/metrics.csv").read()
                == open(f"{d2}/metrics.csv").read())

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        cfg = tiny_cfg(epochs=4, checkpoint_every=2)
        full_dir = str(tmp_path / "full")
        full = harness.train(cfg, out_dir=full_dir)
        resumed_dir = str(tmp_path / "resumed")
        resumed = harness.train(cfg, out_dir=resumed_dir,
                                resume_from=f"{full_dir}/checkpoint_epoch2.bin")
        assert (open(f"{full_dir}/checkpoint.bin", "rb").read()
                == open(f"{resumed_dir}/checkpoint.bin", "rb").read())
        assert resumed.metrics == full.metrics[2:]

    def test_resumed_metrics_file_matches_uninterrupted_run(self, tmp_path):
        cfg = tiny_cfg(epochs=3, checkpoint_every=1)
        full_dir, out = str(tmp_path / "full"), str(tmp_path / "stopped")
        harness.train(cfg, out_dir=full_dir)

        class Stop(Exception):
            pass

        def stop_at_epoch_3(line):
            if line.startswith("3,"):
                raise Stop

        with pytest.raises(Stop):
            harness.train(cfg, out_dir=out, log=stop_at_epoch_3)
        # epoch 3's row reached the file; its checkpoint did not
        assert len(open(f"{out}/metrics.csv").read().splitlines()) == 1 + 3
        assert not os.path.exists(f"{out}/checkpoint_epoch3.bin")
        resumed = harness.train(cfg, out_dir=out, resume_from=f"{out}/checkpoint_epoch2.bin")
        assert [row["epoch"] for row in resumed.metrics] == [3]
        assert (open(f"{out}/metrics.csv", "rb").read()
                == open(f"{full_dir}/metrics.csv", "rb").read())

    def test_resume_rejects_different_config(self, tmp_path):
        cfg = tiny_cfg(epochs=2, checkpoint_every=1)
        out = str(tmp_path / "run")
        harness.train(cfg, out_dir=out)
        other = tiny_cfg(epochs=3, checkpoint_every=1)
        with pytest.raises(CheckpointError, match="config"):
            harness.train(other, resume_from=f"{out}/checkpoint_epoch1.bin")

    def test_zero_epochs_keeps_initial_parameters(self, tmp_path):
        cfg = tiny_cfg(epochs=0)
        out = str(tmp_path / "init")
        result = harness.train(cfg, out_dir=out)
        assert result.metrics == []
        ckpt = harness.load_checkpoint(f"{out}/checkpoint.bin")
        fresh = harness.build_model(cfg)
        for name, p in fresh.parameters().items():
            assert ckpt.arrays[f"param.{name}"].tobytes() == p.data.tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_one_adam_step_reduces_batch_loss(self, seed):
        # allow the odd unlucky seed below, but the trend must hold
        cfg = tiny_cfg(seed=seed)
        model = harness.build_model(cfg)
        model.set_training(True)
        ds = gen_distractor(dataclasses.replace(TINY_TASK, seed=seed), count=4)
        queries, targets = _batch(ds)

        def loss_once(record: bool):
            state = model.initial_state(
                [np.random.default_rng(1000 + seed + i) for i in range(4)])
            if record:
                with Tape() as tape:
                    preds, _ = model.forward_transaction(queries, state)
                    loss = transaction_loss(preds, targets)
                return tape, loss
            with no_grad():
                preds, _ = model.forward_transaction(queries, state)
                return None, transaction_loss(preds, targets)

        tape, before = loss_once(record=True)
        tape.backward(before)
        harness.clip_gradients(model.parameters(), 10.0)
        harness.Adam(model.parameters(), 1e-3).step()
        _, after = loss_once(record=False)
        if not float(after.data) < float(before.data):
            pytest.xfail("loss rose on this seed")

    def test_non_finite_loss_aborts_with_diagnostics(self):
        cfg = tiny_cfg(epochs=1, batch_size=4, train_count=4, val_count=4)
        train_ds = gen_distractor(TINY_TASK, count=4, split="train")
        val_ds = gen_distractor(TINY_TASK, count=4, split="val")
        train_ds.queries[0, 0] = np.nan
        # the NaN reaches the loss's logits before any gradient is taken
        with pytest.raises(TrainingDivergedError,
                           match=r"parameter norms: .*; forward failed: batch_loss: non-finite logits$"):
            harness.train(cfg, train_ds=train_ds, val_ds=val_ds)

    def test_non_finite_gradient_aborts_before_the_adam_step(self, monkeypatch):
        models, steps = [], []
        build, backward, step = harness.build_model, Tape.backward, harness.Adam.step

        def capture_model(cfg):
            models.append(build(cfg))
            return models[-1]

        def nan_on_second_batch(tape, loss):
            backward(tape, loss)
            if len(steps) == 1:
                models[0].parameters()["fusion.w"].grad[0, 0] = np.nan

        def counted_step(opt):
            steps.append(opt.step_count)
            step(opt)

        monkeypatch.setattr(harness, "build_model", capture_model)
        monkeypatch.setattr(Tape, "backward", nan_on_second_batch)
        monkeypatch.setattr(harness.Adam, "step", counted_step)
        with pytest.raises(TrainingDivergedError) as e:
            harness.train(tiny_cfg(epochs=1))
        assert str(e.value) == ("non-finite gradient norm nan at epoch 1, batch 1; "
                                "non-finite gradients in fusion.w")
        assert steps == [0]
        assert np.isfinite(models[0].parameters()["fusion.w"].data).all()

    def test_each_step_tape_is_dead_before_clipping(self, monkeypatch):
        # a step's tape holds its activations, which clipping, Adam and
        # validation do not need
        tapes, alive = [], []

        class TrackedTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        clip = harness.clip_gradients

        def checked_clip(params, max_norm):
            alive.append(tapes[-1]() is not None)
            return clip(params, max_norm)

        monkeypatch.setattr(harness, "Tape", TrackedTape)
        monkeypatch.setattr(harness, "clip_gradients", checked_clip)
        harness.train(tiny_cfg(epochs=2))
        assert len(alive) == len(tapes) >= 2
        assert not any(alive)

    def test_desk_train_step_records_96_tape_nodes(self):
        cfg = TrainConfig()
        model = harness.build_model(cfg)
        model.set_training(True)
        ds = gen_distractor(cfg.task, count=cfg.batch_size, split="train")
        queries, targets = _batch(ds)
        state = model.initial_state([np.random.default_rng(i) for i in range(cfg.batch_size)])
        with Tape() as tape:
            preds, _ = model.forward_transaction(queries, state)
            transaction_loss(preds, targets)
        assert len(tape) == 96

    def test_single_transaction_batches_are_dropped(self):
        # in-batch negatives need >= 2 rows, so a lone trailing transaction
        # contributes no step
        cfg = tiny_cfg(epochs=1, train_count=1, val_count=4)
        result = harness.train(cfg)
        assert result.metrics[0]["train_loss"] == 0.0

    def test_stack_batch_takes_each_turns_target_features(self, tiny_val):
        ds, rows = tiny_val, np.array([5, 0, 2])
        queries, targets = harness.stack_batch(ds, rows)
        assert queries.tobytes() == np.stack([ds.queries[r] for r in rows]).tobytes()
        assert len(targets) == ds.max_turns
        for n, target in enumerate(targets):
            expected = np.stack([ds.db.features[ds.target_ids[r, n]] for r in rows])
            assert target.data.tobytes() == expected.tobytes()


# ----------------------------------------------------------- backward contract

def _model_step_tape(model, seed: int = 0):
    """Record one training forward of ``model`` on four tiny transactions."""
    ds = gen_distractor(dataclasses.replace(TINY_TASK, seed=seed), count=4)
    queries, targets = _batch(ds)
    state = model.initial_state([np.random.default_rng(seed + i) for i in range(4)])
    with Tape() as tape:
        preds, _ = model.forward_transaction(queries, state)
        loss = transaction_loss(preds, targets)
    return tape, loss


def _every_pass_gradient(tape, loss) -> dict:
    """d(loss)/d(t) for every tensor t reached, by a plain sweep that keeps
    every pass gradient and sums out of place; leaf gradients must match it."""
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape._nodes):
        multi = type(node.output) is tuple
        g = tuple(grads.get(id(o)) for o in (node.output if multi else (node.output,)))
        if all(gi is None for gi in g):
            continue
        for t, gi in zip(node.inputs, node.backward(g if multi else g[0])):
            if gi is not None and t.requires_grad:
                grads[id(t)] = gi if id(t) not in grads else grads[id(t)] + gi
    return grads


class TestBackwardContract:
    @pytest.mark.parametrize("kind", ["cmntm", "lstm"])
    def test_only_leaves_get_grads_equal_to_a_full_sweep(self, kind):
        model = harness.build_model(tiny_cfg(model=kind))
        model.set_training(True)
        tape, loss = _model_step_tape(model)
        expected = _every_pass_gradient(tape, loss)
        tape.backward(loss)
        for name, p in model.parameters().items():
            assert np.array_equal(p.grad, expected[id(p)]), name
        for node in tape._nodes:
            for out in (node.output if type(node.output) is tuple else (node.output,)):
                assert out.grad is None

    def test_finished_step_tape_is_freed_without_the_cycle_collector(self):
        cfg = tiny_cfg()
        model = harness.build_model(cfg)
        model.set_training(True)
        params = model.parameters()
        opt = harness.Adam(params, cfg.learning_rate)

        def step():
            tape, loss = _model_step_tape(model)
            opt.zero_grad()
            tape.backward(loss)
            harness.clip_gradients(params, cfg.grad_clip)
            opt.step()
            return weakref.ref(tape)

        gc.collect()
        gc.disable()
        try:
            assert step()() is None
        finally:
            gc.enable()


# ------------------------------------------------------------- optimizer bits

class TestOptimizer:
    def test_first_adam_step_moves_by_lr(self):
        p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        p.grad = np.array([2.0, -0.5], dtype=np.float32)
        harness.Adam({"p": p}, lr=0.1).step()
        # bias-corrected first step is lr * sign(grad) up to eps
        np.testing.assert_allclose(p.data, [0.9, -1.9], atol=1e-5)

    def test_in_place_step_matches_the_out_of_place_formula(self):
        rng = np.random.default_rng(3)
        shapes = {"w": (16, 8), "b": (8,)}
        # parameters start at zero, so each step's rounding shows in them
        params = {k: Tensor(np.zeros(s, dtype=np.float32), requires_grad=True)
                  for k, s in shapes.items()}
        opt = harness.Adam(params, lr=1e-2)
        ref_p = {k: p.data.copy() for k, p in params.items()}
        ref_m = {k: np.zeros_like(v) for k, v in ref_p.items()}
        ref_v = {k: np.zeros_like(v) for k, v in ref_p.items()}
        b1, b2 = harness.ADAM_BETA1, harness.ADAM_BETA2
        for t in range(1, 6):
            grads = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
            for k, p in params.items():
                p.grad = grads[k]
            opt.step()
            for k, g in grads.items():
                ref_m[k] = b1 * ref_m[k] + (1.0 - b1) * g
                ref_v[k] = b2 * ref_v[k] + (1.0 - b2) * (g * g)
                m_hat = ref_m[k] / (1.0 - b1 ** t)
                v_hat = ref_v[k] / (1.0 - b2 ** t)
                ref_p[k] -= opt.lr * m_hat / (np.sqrt(v_hat) + harness.ADAM_EPS)
        for k, p in params.items():
            assert p.data.dtype == np.float32
            assert np.array_equal(p.data, ref_p[k]), k
            assert np.array_equal(opt.m[k], ref_m[k]), k
            assert np.array_equal(opt.v[k], ref_v[k]), k

    def test_restored_optimizer_leaves_checkpoint_moments_alone(self, trained_run):
        cfg, path = trained_run
        ckpt = harness.load_checkpoint(path, _moments=True)  # as a resume loads it
        saved = {k: arr.copy() for k, arr in ckpt.arrays.items() if k.startswith("adam.")}
        assert saved
        model = harness.build_model(cfg)
        opt = harness.Adam(model.parameters(), cfg.learning_rate)
        harness._copy_state(ckpt.path, harness._state(model, opt), ckpt.arrays)
        for p in model.parameters().values():
            p.grad = np.ones_like(p.data)
        opt.step()
        for k, arr in saved.items():
            assert np.array_equal(ckpt.arrays[k], arr), k

    def test_none_grads_leave_parameters_alone(self):
        p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        opt = harness.Adam({"p": p}, lr=0.5)
        opt.step()
        assert opt.step_count == 1
        np.testing.assert_array_equal(p.data, np.ones(3))

    def test_zero_grad_clears(self):
        p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        p.grad = np.ones(2, dtype=np.float32)
        opt = harness.Adam({"p": p}, lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_clip_rescales_large_gradients(self):
        a = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        a.grad = np.array([3.0, 0.0], dtype=np.float32)
        b.grad = np.array([4.0], dtype=np.float32)
        returned = harness.clip_gradients({"a": a, "b": b}, max_norm=1.0)
        assert returned == pytest.approx(5.0, abs=1e-6)
        total = np.sqrt(np.sum(a.grad ** 2) + np.sum(b.grad ** 2))
        assert total == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(a.grad / b.grad[0], [0.75, 0.0], atol=1e-6)

    def test_clip_leaves_small_gradients_untouched(self):
        a = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        a.grad = np.array([0.3, 0.4], dtype=np.float32)
        before = a.grad.copy()
        returned = harness.clip_gradients({"a": a}, max_norm=10.0)
        assert returned == pytest.approx(0.5, abs=1e-7)
        np.testing.assert_array_equal(a.grad, before)


# ------------------------------------------------------------------ model zoo

class TestBuildModel:
    def test_kinds_map_to_classes(self):
        assert isinstance(harness.build_model(tiny_cfg(model="cmntm")), CMNTM)
        assert isinstance(harness.build_model(tiny_cfg(model="lstm")), LstmBaseline)
        assert isinstance(harness.build_model(tiny_cfg(model="ewma")), EwmaModel)
        assert isinstance(harness.build_model(tiny_cfg(model="mean")), MeanModel)

    def test_single_stage_cascade_is_num_stages_one(self):
        with pytest.raises(ConfigError, match="unknown model kind 'vntm'"):
            tiny_cfg(model="vntm")
        model = harness.build_model(
            tiny_cfg(cascade=dataclasses.replace(TINY_CASCADE, num_stages=1)))
        names = model.parameters()
        assert any(k.startswith("stage0.") for k in names)
        assert not any(k.startswith("stage1.") for k in names)

    def test_ewma_alpha_comes_from_config(self):
        model = harness.build_model(tiny_cfg(model="ewma", ewma_alpha=0.25))
        assert model.alpha == 0.25

    def test_same_seed_same_initialization(self):
        a = harness.build_model(tiny_cfg())
        b = harness.build_model(tiny_cfg())
        for (ka, pa), (kb, pb) in zip(a.parameters().items(), b.parameters().items()):
            assert ka == kb and pa.data.tobytes() == pb.data.tobytes()


# --------------------------------------------------------------------- config

class TestConfig:
    def test_round_trip_through_dict(self):
        train = dict(epochs=3, batch_size=5, eval_batch_size=7, learning_rate=5e-4,
                     ewma_alpha=0.3, grad_clip=2.5, checkpoint_every=2, train_count=11,
                     val_count=9)
        defaults = TrainConfig()
        assert set(train) == set(config_to_dict(defaults)["train"])
        assert all(value != getattr(defaults, name) for name, value in train.items())
        cfg = tiny_cfg(model="lstm", seed=4, **train)
        raw = config_to_dict(cfg)
        assert raw["train"] == train
        again = config_from_dict(raw)
        assert again == cfg
        assert config_json(again) == config_json(cfg)

    def test_file_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "cfg.json"
        path.write_text(config_json(cfg))
        assert config_json(load_config(str(path))) == config_json(cfg)

    def test_unknown_top_level_key_rejected(self):
        raw = config_to_dict(tiny_cfg())
        raw["momentum"] = 0.9
        with pytest.raises(ConfigError, match="momentum"):
            config_from_dict(raw)

    @pytest.mark.parametrize("section", ["cascade", "task", "train"])
    def test_unknown_section_key_rejected(self, section):
        raw = config_to_dict(tiny_cfg())
        raw[section]["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict(raw)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            tiny_cfg(model="transformer")
        with pytest.raises(ConfigError):
            tiny_cfg(batch_size=1)
        with pytest.raises(ConfigError):
            tiny_cfg(epochs=-1)
        with pytest.raises(ConfigError):
            tiny_cfg(ewma_alpha=0.0)
        with pytest.raises(ConfigError, match="feature_dim"):
            tiny_cfg(task=TaskConfig(feature_dim=16, blocks=4, max_turns=2, db_size=16))

    def test_absent_keys_take_the_config_defaults(self):
        assert config_from_dict({}) == TrainConfig()

    @pytest.mark.parametrize("section, key, value", [
        (None, "model", 5),
        (None, "seed", 1.7),
        (None, "seed", True),
        ("cascade", "num_stages", 2.0),
        ("task", "db_size", 16.5),
        ("task", "noise_std", "0.05"),
        ("train", "epochs", 1.5),
        ("train", "epochs", True),
        ("train", "learning_rate", False),
    ])
    def test_a_value_of_the_wrong_json_type_is_rejected(self, section, key, value):
        raw = config_to_dict(tiny_cfg())
        (raw if section is None else raw[section])[key] = value
        where = "config" if section is None else f"config.{section}"
        with pytest.raises(ConfigError, match=rf"^{where}\.{key} must be an? \w+, got "):
            config_from_dict(raw)

    def test_a_float_field_keeps_an_integer_as_given(self):
        raw = config_to_dict(tiny_cfg())
        raw["task"]["noise_std"] = 0
        raw["train"]["learning_rate"] = 1
        assert config_to_dict(config_from_dict(raw)) == raw

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -10**400],
                             ids=["nan", "inf", "-inf", "-1e400-int"])
    @pytest.mark.parametrize("section, key", [
        (section, f.name) for section, cls in (("task", TaskConfig), ("train", TrainConfig))
        for f in dataclasses.fields(cls) if type(f.default) is float])
    def test_a_non_finite_float_is_rejected(self, section, key, value):
        raw = config_to_dict(tiny_cfg())
        raw[section][key] = value
        # json writes and reads these as the NaN, Infinity and -Infinity
        # literals and a 401-digit integer, which no float can hold
        with pytest.raises(ConfigError, match=rf"^config\.{section}\.{key} must be a finite "
                                              rf"number, got {json.dumps(value)}$"):
            config_from_dict(json.loads(json.dumps(raw)))

    @pytest.mark.parametrize("section", [None, "task"])
    def test_a_negative_seed_is_rejected(self, section):
        raw = config_to_dict(tiny_cfg())
        (raw if section is None else raw[section])["seed"] = -1
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            config_from_dict(raw)


# -------------------------------------------------------------------- metrics

class TestMetrics:
    def test_header_and_row_format(self, tmp_path):
        assert harness.METRICS_HEADER == "epoch,train_loss,r1,r5,r8,r10,mean_r5_r8"
        rows = [{"epoch": 1, "train_loss": 0.5, "r1": 0.1, "r5": 0.2, "r8": 0.3,
                 "r10": 0.4, "mean_r5_r8": 0.25}]
        path = str(tmp_path / "m.csv")
        harness.write_metrics_csv(rows, path)
        lines = open(path).read().splitlines()
        assert lines[0] == harness.METRICS_HEADER
        assert lines[1] == "1,0.500000,0.100000,0.200000,0.300000,0.400000,0.250000"

    def test_read_returns_rows_that_write_back_identically(self, tmp_path):
        path = str(tmp_path / "m.csv")
        rows = [{"epoch": e, "train_loss": 3.1 / e, "r1": 0.01 * e, "r5": 0.2, "r8": 0.3,
                 "r10": 0.4, "mean_r5_r8": 0.25} for e in (1, 2)]
        harness.write_metrics_csv(rows, path)
        again = str(tmp_path / "again.csv")
        harness.write_metrics_csv(harness._read_metrics_csv(path), again)
        assert open(path, "rb").read() == open(again, "rb").read()

    def test_read_rejects_a_file_without_the_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("epoch,loss\n1,0.5\n")
        with pytest.raises(CmntmError, match=r"m\.csv:1: expected metrics header"):
            harness._read_metrics_csv(str(path))

    @pytest.mark.parametrize("row, detail", [
        ("1,0.5", "expected 7 fields, got 2"),
        ("one,0.5,0.1,0.2,0.3,0.4,0.25", "invalid literal for int"),
        ("1,0.5,0.1,0.2,0.3,0.4,x", "could not convert string to float"),
    ])
    def test_read_names_the_line_of_a_malformed_row(self, tmp_path, row, detail):
        path = tmp_path / "m.csv"
        path.write_text(f"{harness.METRICS_HEADER}\n1,0.5,0.1,0.2,0.3,0.4,0.25\n{row}\n")
        with pytest.raises(CmntmError, match=rf"m\.csv:3: {detail}"):
            harness._read_metrics_csv(str(path))

    def test_train_emits_one_row_per_epoch(self, tmp_path):
        cfg = tiny_cfg(epochs=3)
        out = str(tmp_path / "run")
        result = harness.train(cfg, out_dir=out)
        lines = open(f"{out}/metrics.csv").read().splitlines()
        assert lines[0] == harness.METRICS_HEADER
        assert len(lines) == 1 + 3
        assert [row["epoch"] for row in result.metrics] == [1, 2, 3]
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 7
            [float(v) for v in fields]


# ----------------------------------------------------------------- evaluation

def _gemv_report(final_preds: np.ndarray, dataset) -> dict:
    """``_recall_report`` by one ``similarity_scores`` GEMV and one ``rank_of`` per row."""
    db = dataset.db
    ranks = [rank_of(similarity_scores(pred, db), target)
             for pred, target in zip(final_preds, dataset.target_ids[:, -1], strict=True)]
    report = {"count": len(ranks)}
    for k in harness.RECALL_KS:
        report[f"r{k}"] = sum(r < k for r in ranks) / len(ranks)
    report["mean_r5_r8"] = (report["r5"] + report["r8"]) / 2.0
    return report


def _assert_matches_gemv(preds: np.ndarray, ds) -> None:
    """The batched report equals the GEMV loop's, over all rows and row by row."""
    assert harness._recall_report(preds, ds) == _gemv_report(preds, ds)
    for j in range(len(preds)):
        one = _rows(ds, slice(j, j + 1))
        assert harness._recall_report(preds[j:j + 1], one) == _gemv_report(preds[j:j + 1], one)


def _one_turn_dataset(db: CandidateDB, targets) -> SyntheticDataset:
    """Transactions of one turn over ``db``, ending on ``targets``; queries unused.

    The task only gives the db's shape and one turn: nothing here is drawn from it.
    """
    task = TaskConfig(feature_dim=db.dim, blocks=1, max_turns=1, db_size=len(db))
    targets = np.asarray(targets, np.int64)
    return SyntheticDataset(task, db, np.zeros((len(targets), 1, db.dim), np.float32),
                            targets[:, None], targets, np.zeros((len(targets), 1), np.int64),
                            np.zeros((len(targets), 1), bool), "val")


class TestEvaluation:
    def test_evaluate_twice_is_identical(self, tiny_val):
        model = harness.build_model(tiny_cfg())
        a = harness.evaluate_model(model, tiny_val, 8, seed=0)
        b = harness.evaluate_model(model, tiny_val, 8, seed=0)
        assert a == b

    def test_prefix_subset_predictions_match(self, tiny_val):
        # per-transaction eval state is keyed by index, so a prefix subset
        # sees the exact same draws
        model = harness.build_model(tiny_cfg())
        full = harness.predict_dataset(model, tiny_val, 8, seed=0)
        subset = _rows(tiny_val, slice(0, 3))
        part = harness.predict_dataset(model, subset, 8, seed=0)
        assert part.tobytes() == full[:3].tobytes()

    def test_chunk_size_does_not_change_predictions(self, tiny_val):
        model = harness.build_model(tiny_cfg())
        a = harness.predict_dataset(model, tiny_val, 3, seed=0)
        b = harness.predict_dataset(model, tiny_val, 64, seed=0)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_recall_report_matches_rank_and_recall_at_k(self, seed):
        # desk-sized db (256 x 32). Odd seeds use ternary rows, each twice,
        # in shuffled rows, and integer predictions, half of them copies of
        # the target row: exact score ties, the target's twin included.
        rng = np.random.default_rng(seed)
        ds = gen_distractor(TaskConfig(), count=40, split="val")
        targets = ds.target_ids[:, -1].tolist()
        if seed % 2:
            rows = rng.integers(-1, 2, size=(128, 32)).astype(np.float32)
            rows[np.all(rows == 0, axis=1), 0] = 1.0
            twins = np.repeat(rows, 2, axis=0)[rng.permutation(256)]
            ds = dataclasses.replace(ds, db=CandidateDB(twins))
            preds = rng.integers(-2, 3, size=(40, 32)).astype(np.float32)
            preds[np.all(preds == 0, axis=1), 0] = 1.0
            preds[::2] = ds.db.features[targets[::2]]
        else:
            preds = ds.db.features[targets]
            preds = preds + rng.normal(0.0, 0.25, size=preds.shape).astype(np.float32)
        rankings = [rank(similarity_scores(p, ds.db), ds.db.ids) for p in preds]
        if seed % 2:
            assert any(len(np.unique(r.scores)) < len(r.scores) for r in rankings)
        report = harness._recall_report(preds, ds)
        for k in harness.RECALL_KS:
            assert report[f"r{k}"] == recall_at_k(rankings, targets, k)
        assert 0.0 < report["r1"] < report["r10"]  # neither all misses nor all hits
        _assert_matches_gemv(preds, ds)
        _assert_matches_gemv(preds.astype(np.float64), ds)

    def test_block_scores_lie_within_the_bound_of_gemv_scores(self):
        rng = np.random.default_rng(0)
        db = CandidateDB(rng.normal(size=(2000, 768)).astype(np.float32))
        for dtype in (np.float32, np.float64):
            preds = rng.normal(size=(20, 768)).astype(dtype)
            block = similarity_scores(preds, db)
            gemv = np.stack([similarity_scores(p, db) for p in preds])
            assert block.dtype == gemv.dtype == dtype
            bound = 2 * (768 + 1) * np.finfo(dtype).eps
            assert np.max(np.abs(block - gemv)) <= bound

    @pytest.mark.parametrize("k", harness.RECALL_KS)
    def test_near_ties_at_ranks_k_minus_1_and_k_are_ranked_exactly(self, monkeypatch, k):
        # The target has clear winners above it and near-ties within the bound
        # around it: exact copies of it under lower and higher ids, and copies
        # nudged by under 1e-6 of its norm. Those rows cross k, so each is
        # ranked again with similarity_scores.
        rescored = []

        def counting(query, db):
            if np.ndim(query) == 1:
                rescored.append(query)
            return similarity_scores(query, db)

        monkeypatch.setattr(harness, "similarity_scores", counting)
        rng = np.random.default_rng(k)
        dim, places = 32, set()
        for trial in range(24):
            pred = rng.normal(size=dim)
            unit = pred / np.linalg.norm(pred)
            rest = rng.normal(size=(40, dim))
            rest -= np.outer(rest @ unit, unit)  # cosine about 0 with the prediction
            target = 0.6 * unit + 0.8 * rest[0] / np.linalg.norm(rest[0])
            above = max(k - 1 - trial % 2, 0)
            winners = unit + 0.05 * rng.normal(size=(above, dim))
            nudged = target + 1e-7 * rng.normal(size=(trial % 3, dim))
            rows = np.vstack([winners, [target] * 3, nudged, rest[1:]]).astype(np.float32)
            # the row built at p goes to row ids[p] of the db
            ids = rng.permutation(len(rows))
            if trial % 4 < 2:  # the target takes the lowest id of its exact copies
                ids[above:above + 3] = np.sort(ids[above:above + 3])
            db = CandidateDB(rows[np.argsort(ids)])
            ds = _one_turn_dataset(db, [int(ids[above])])
            preds = pred.astype(np.float32)[None]
            scores = similarity_scores(preds[0], db)
            places.add(rank_of(scores, ids[above]))
            before = len(rescored)
            assert harness._recall_report(preds, ds) == _gemv_report(preds, ds)
            assert len(rescored) == before + 1
        assert {k - 1, k} <= places

    def test_random_rows_over_a_10k_db(self):
        rng = np.random.default_rng(7)
        db = CandidateDB(rng.normal(size=(10_000, 768)).astype(np.float32))
        targets = rng.choice(len(db), size=300, replace=False)
        feats = db.features[targets]
        # noise from none to ten times the signal spreads the targets' ranks
        scale = np.geomspace(1e-3, 10.0, 300)[:, None]
        preds = (feats + scale * rng.normal(size=feats.shape)).astype(np.float32)
        ds = _one_turn_dataset(db, targets)
        report = harness._recall_report(preds, ds)
        assert 0.0 < report["r1"] < report["r10"] < 1.0
        _assert_matches_gemv(preds, ds)

    def test_counts_that_split_into_uneven_chunks(self, monkeypatch):
        rng = np.random.default_rng(3)
        ds = gen_distractor(TaskConfig(), count=40, split="val")
        preds = ds.db.features[ds.target_ids[:, -1]]
        preds = preds + rng.normal(0.0, 0.25, size=preds.shape).astype(np.float32)
        # a block holds 3 float32 rows of the 256-row db (13 chunks of 3 and one
        # of 1), or 1 float64 row
        monkeypatch.setattr(retrieval, "SCORE_BLOCK_BYTES", 3 * 4 * 256)
        for rows in (preds, preds.astype(np.float64)):
            assert harness._recall_report(rows, ds) == _gemv_report(rows, ds)

    @pytest.mark.parametrize("bad", [
        {3: np.nan}, {3: 0.0}, {3: np.inf}, {2: 0.0, 7: np.nan}, {2: np.nan, 7: 0.0},
    ], ids=["nan", "zero", "inf", "zero-then-nan", "nan-then-zero"])
    def test_unscorable_predictions_raise_as_the_gemv_loop_does(self, monkeypatch, bad):
        ds = gen_distractor(TaskConfig(), count=10, split="val")
        preds = ds.db.features[ds.target_ids[:, -1]]
        for row, value in bad.items():
            preds[row] = value
        monkeypatch.setattr(retrieval, "SCORE_BLOCK_BYTES", 5 * 4 * 256)  # two chunks of 5
        errors = []
        for report in (harness._recall_report, _gemv_report):
            with pytest.raises(DegenerateInputError) as excinfo:
                report(preds, ds)
            errors.append((type(excinfo.value), str(excinfo.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("k", [1, 5, 26, 256])
    def test_top_ids_match_the_rank_prefix_under_ties(self, k):
        # the turn-order and memory-retention experiments take their top-k from top_k,
        # whose rows are the ids of a db
        rng = np.random.default_rng(k)
        rows = np.arange(256)
        for _ in range(20):
            scores = (rng.integers(-3, 4, size=256) / 3).astype(np.float32)
            assert top_k(scores, k).tolist() == rank(scores, rows).ids[:k].tolist()

    def test_non_finite_prediction_raises(self, tiny_val):
        preds = np.full((len(tiny_val.queries), 8), np.nan, dtype=np.float32)
        with pytest.raises(DegenerateInputError, match="non-finite"):
            harness._recall_report(preds, tiny_val)

    def test_mean_model_matches_running_mean(self, tiny_val):
        preds = harness.predict_dataset(MeanModel(), tiny_val, 8, seed=0)
        queries = tiny_val.queries
        oracle = np.cumsum(queries, axis=1) / np.arange(1, 3).reshape(1, 2, 1)
        np.testing.assert_allclose(preds, oracle, atol=1e-6)

    def test_ewma_model_matches_recursion(self, tiny_val):
        alpha = 0.5
        preds = harness.predict_dataset(EwmaModel(alpha), tiny_val, 8, seed=0)
        queries = tiny_val.queries
        running = queries[:, 0]
        np.testing.assert_allclose(preds[:, 0], running, atol=1e-6)
        running = alpha * queries[:, 1] + (1 - alpha) * running
        np.testing.assert_allclose(preds[:, 1], running, atol=1e-6)


# ---------------------------------------------------------------- experiments

class TestExperiments:
    def test_ablation_single_depth_reports_zero_change(self, tmp_path, tiny_val):
        cfg = tiny_cfg(epochs=1, train_count=8)
        train_ds = gen_distractor(TINY_TASK, count=8, split="train")
        rows = harness.ablate_num_memories(cfg, [1], out_dir=str(tmp_path),
                                           train_ds=train_ds, val_ds=tiny_val)
        assert len(rows) == 1
        assert rows[0]["C"] == 1
        assert rows[0]["pct_change_vs_first"] == 0.0
        lines = open(tmp_path / "ablate_memories.csv").read().splitlines()
        assert lines[0] == "C,r5,r8,mean_r5_r8,pct_change_vs_first"
        assert len(lines) == 2

    def test_ablation_row_per_depth(self, tiny_val):
        cfg = tiny_cfg(epochs=1, train_count=8)
        train_ds = gen_distractor(TINY_TASK, count=8, split="train")
        rows = harness.ablate_num_memories(cfg, [1, 2], train_ds=train_ds, val_ds=tiny_val)
        assert [row["C"] for row in rows] == [1, 2]
        assert rows[0]["pct_change_vs_first"] == 0.0

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_ablation_scores_each_depth_once(self, monkeypatch, tiny_val, epochs):
        # train's last epoch already scored val; only an untrained depth needs a pass
        calls = []
        evaluate = harness.evaluate_model

        def counted(model, *args):
            calls.append(model)
            return evaluate(model, *args)

        monkeypatch.setattr(harness, "evaluate_model", counted)
        cfg = tiny_cfg(epochs=epochs, train_count=8)
        train_ds = gen_distractor(TINY_TASK, count=8, split="train")
        rows = harness.ablate_num_memories(cfg, [1, 2], train_ds=train_ds, val_ds=tiny_val)
        passes = max(epochs, 1)
        assert len(calls) == 2 * passes
        # each row is the last pass over its depth's final model
        for row, model in zip(rows, calls[passes - 1::passes]):
            report = evaluate(model, tiny_val, cfg.eval_batch_size, cfg.seed)
            for key in ("r5", "r8", "mean_r5_r8"):
                assert row[key] == report[key], key

    def test_turn_importance_full_history_equals_standard_eval(self, tmp_path, tiny_val):
        model = harness.build_model(tiny_cfg())
        baseline = harness.build_model(tiny_cfg(model="lstm"))
        report = harness.turn_importance(model, baseline, tiny_val, eval_batch_size=8,
                                         seed=0, out_dir=str(tmp_path))
        assert len(report["rows"]) == 2 * tiny_val.max_turns
        standard = harness.evaluate_model(model, tiny_val, 8, seed=0)
        full_row = next(r for r in report["rows"]
                        if r["model"] == "memory" and r["history_turns"] == tiny_val.max_turns - 1)
        assert full_row["r5"] == standard["r5"]
        assert full_row["mean_r5_r8"] == standard["mean_r5_r8"]
        for label in ("memory", "memoryless"):
            vals = [r["mean_r5_r8"] for r in report["rows"] if r["model"] == label]
            assert report["spread"][label] == pytest.approx(max(vals) - min(vals), abs=1e-12)
        saved = json.load(open(tmp_path / "turn_importance.json"))
        assert saved["spread"] == report["spread"]

    @pytest.mark.parametrize("experiment", ["turn_importance", "memory_retention"])
    def test_block_past_the_feature_end_raises(self, tiny_val, experiment):
        # block 4 of length 2 would slice coordinates 8:10 of an 8-dim feature
        ds = dataclasses.replace(tiny_val, blocks=np.full_like(tiny_val.blocks, 4))
        model = harness.build_model(tiny_cfg())
        with pytest.raises(DegenerateInputError, match="block 4 of length 2"):
            if experiment == "turn_importance":
                harness.turn_importance(model, harness.build_model(tiny_cfg(model="lstm")), ds,
                                        eval_batch_size=8, seed=0)
            else:
                harness.memory_retention_experiment(model, ds, eval_batch_size=8, seed=0)

    def test_failed_artifact_write_keeps_the_existing_file(self, tmp_path):
        path = tmp_path / "report.json"
        harness._write_artifact(str(tmp_path), "report.json", {"a": 1})
        before = path.read_bytes()
        # not JSON-serializable: raises after "a" has been written
        with pytest.raises(TypeError):
            harness._write_artifact(str(tmp_path), "report.json", {"a": 2, "z": object()})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["report.json"]

    def test_turn_order_single_turn_overlap_is_one(self):
        task = TaskConfig(feature_dim=8, blocks=4, max_turns=1, db_size=16, seed=0)
        ds = gen_distractor(task, count=6, split="val")
        model = harness.build_model(tiny_cfg())
        report = harness.turn_order_experiment(model, ds, count=6, eval_batch_size=8, seed=0)
        assert report["mean_top5_overlap"] == 1.0
        assert report["count"] == 6

    @pytest.mark.parametrize("count", [0, -5])
    def test_turn_order_rejects_a_count_below_one(self, tiny_val, count):
        model = harness.build_model(tiny_cfg())
        with pytest.raises(ValueError, match="count must be >= 1"):
            harness.turn_order_experiment(model, tiny_val, count=count, eval_batch_size=8,
                                          seed=0)

    def test_turn_order_report_shape(self, tmp_path, tiny_val):
        model = harness.build_model(tiny_cfg())
        report = harness.turn_order_experiment(model, tiny_val, count=5,
                                               eval_batch_size=8, seed=0,
                                               out_dir=str(tmp_path))
        assert report["count"] == 5
        assert 0.0 <= report["mean_top5_overlap"] <= 1.0
        assert report["target_retention"] is None or 0.0 <= report["target_retention"] <= 1.0
        assert os.path.exists(tmp_path / "turn_order.json")

    def test_memory_retention_first_turn_identical_across_modes(self, tmp_path, tiny_val):
        # before any history exists the stateful and reset passes see the
        # same query and the same initial state draw
        model = harness.build_model(tiny_cfg())
        report = harness.memory_retention_experiment(model, tiny_val, eval_batch_size=8,
                                                     seed=0, out_dir=str(tmp_path))
        assert report["stateful"][0] == report["state_reset"][0]
        assert len(report["stateful"]) == len(report["state_reset"]) == tiny_val.max_turns
        expected_chance = max(1, round(0.1 * 16)) / 16
        assert report["chance_rate"] == expected_chance
        assert os.path.exists(tmp_path / "memory_retention.json")

    def test_timing_row_schema_and_csv(self, tmp_path):
        rows = harness.timing_experiment([TINY_CASCADE], TINY_TASK,
                                         txn_count=3, warmup=1, seed=0,
                                         out_dir=str(tmp_path))
        assert len(rows) == 1
        row = rows[0]
        assert row["C"] == 2 and row["P"] == 4 and row["M"] == 4
        assert row["ms_per_txn"] > 0.0
        assert row["mean_r5_r8"] is None
        lines = open(tmp_path / "timing.csv").read().splitlines()
        assert lines[0] == "C,P,M,mean_r5_r8,ms_per_txn"
        assert len(lines) == 2

    def test_timing_reports_recall_only_on_the_checkpoint_row(self, trained_run):
        cfg, path = trained_run
        one_stage = dataclasses.replace(TINY_CASCADE, num_stages=1)
        # timed at another seed, the recall is still scored as the checkpoint's own eval does
        rows = harness.timing_experiment([one_stage, TINY_CASCADE], TINY_TASK, txn_count=2,
                                         warmup=0, seed=cfg.seed + 7, checkpoint_path=path)
        assert [row["C"] for row in rows] == [1, 2]
        assert rows[0]["mean_r5_r8"] is None
        restored = harness.restore_model(harness.load_checkpoint(path))
        dataset = gen_distractor(TINY_TASK, count=32, split="val")  # the transactions timed
        expected = harness.evaluate_model(restored, dataset, cfg.eval_batch_size, cfg.seed)
        assert rows[1]["mean_r5_r8"] == expected["mean_r5_r8"]

    @pytest.mark.parametrize("case", ["lstm-checkpoint", "no-matching-cascade", "other-task"])
    def test_timing_rejects_a_checkpoint_that_matches_no_row(self, trained_run, tmp_path, case):
        one_stage = dataclasses.replace(TINY_CASCADE, num_stages=1)
        task = TINY_TASK
        if case == "lstm-checkpoint":
            path = harness.train(tiny_cfg(model="lstm", epochs=1),
                                 out_dir=str(tmp_path / "lstm")).checkpoint_path
            configs, message = [one_stage, TINY_CASCADE], "'lstm' model"
        elif case == "no-matching-cascade":
            path = trained_run[1]
            configs, message = [one_stage], "matches no timed configuration"
        else:
            # the same cascade, timed on a db the checkpoint never saw
            path = trained_run[1]
            task = dataclasses.replace(TINY_TASK, seed=3)
            configs, message = [one_stage, TINY_CASCADE], r"timed task in \['seed'\]"
        out = tmp_path / "timing"
        with pytest.raises(CheckpointError, match=message) as e:
            harness.timing_experiment(configs, task, txn_count=2, warmup=0, seed=0,
                                      checkpoint_path=path, out_dir=str(out))
        assert str(e.value).startswith(f"{path}: ")
        assert not out.exists()

    def test_timing_rejects_mismatched_feature_dim(self):
        bad = dataclasses.replace(TINY_CASCADE, feature_dim=16)
        with pytest.raises(ValueError, match="feature_dim"):
            harness.timing_experiment([bad], TINY_TASK, txn_count=1, warmup=0, seed=0)

    def test_ablation_rejects_a_repeated_depth(self, tiny_val):
        cfg = tiny_cfg(epochs=1, train_count=8)
        train_ds = gen_distractor(TINY_TASK, count=8, split="train")
        with pytest.raises(ValueError, match="repeat a count"):
            harness.ablate_num_memories(cfg, [1, 2, 1], train_ds=train_ds, val_ds=tiny_val)

    def test_timing_monotone_checker_rejects_a_repeated_configuration(self):
        # the same configuration timed twice would be compared with itself
        rows = [{"C": 2, "P": 4, "M": 4, "ms_per_txn": 1.6},
                {"C": 2, "P": 4, "M": 8, "ms_per_txn": 1.7},
                {"C": 2, "P": 4, "M": 4, "ms_per_txn": 1.6}]
        with pytest.raises(ValueError, match="two rows of C=2, P=4, M=4"):
            harness.check_timing_monotone(rows)

    def test_timing_monotone_checker(self):
        ok = [{"C": 1, "P": 4, "M": 4, "ms_per_txn": 1.0},
              {"C": 2, "P": 4, "M": 4, "ms_per_txn": 1.5},
              {"C": 4, "P": 4, "M": 4, "ms_per_txn": 1.47}]  # inside 5% tolerance
        harness.check_timing_monotone(ok)
        bad = ok + [{"C": 8, "P": 4, "M": 4, "ms_per_txn": 0.5}]
        with pytest.raises(TimingMonotonicityError):
            harness.check_timing_monotone(bad)
