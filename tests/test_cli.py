"""End-to-end command line workflow on a tiny configuration."""

import json
import os
import shutil

import pytest

import numpy as np

from cmntm import checkpoint as ckpt_io
from cmntm.cascade import CascadeConfig
from cmntm.cli import main
from cmntm.config import TrainConfig, config_json
from cmntm.synthdata import TaskConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config file, generated data, and one trained checkpoint per model kind."""
    root = tmp_path_factory.mktemp("cli")
    task = TaskConfig(feature_dim=8, blocks=4, max_turns=2, db_size=16, seed=0)
    cascade = CascadeConfig(num_stages=2, mem_locations=4, mem_width=4,
                            hidden_size=8, feature_dim=8)
    cfg = TrainConfig(model="cmntm", cascade=cascade, task=task, epochs=1,
                      batch_size=4, eval_batch_size=8, train_count=8, val_count=6)
    cfg_path = root / "cfg.json"
    cfg_path.write_text(config_json(cfg))
    lstm_path = root / "lstm.json"
    raw = json.loads(config_json(cfg))
    raw["model"] = "lstm"
    lstm_path.write_text(json.dumps(raw))

    data_dir = str(root / "data")
    assert main(["gen-data", "--config", str(cfg_path), "--out", data_dir]) == 0

    run_dir = str(root / "run")
    assert main(["train", "--config", str(cfg_path), "--data", data_dir,
                 "--out", run_dir]) == 0
    lstm_dir = str(root / "lstm_run")
    assert main(["train", "--config", str(lstm_path), "--data", data_dir,
                 "--out", lstm_dir]) == 0
    return {"root": root, "cfg": str(cfg_path), "data": data_dir,
            "ckpt": f"{run_dir}/checkpoint.bin",
            "baseline_ckpt": f"{lstm_dir}/checkpoint.bin"}


def _gen_other_task(workspace, tmp_path, key: str, value) -> str:
    """A data directory generated from the workspace config with ``task.key`` set to ``value``."""
    raw = json.loads(open(workspace["cfg"]).read())
    raw["task"][key] = value
    other = tmp_path / "other.json"
    other.write_text(json.dumps(raw))
    data = str(tmp_path / "data")
    assert main(["gen-data", "--config", str(other), "--out", data]) == 0
    return data


class TestCli:
    def test_gen_data_wrote_both_splits(self, workspace):
        assert os.path.exists(f"{workspace['data']}/train.bin")
        assert os.path.exists(f"{workspace['data']}/val.bin")

    def test_train_wrote_artifacts(self, workspace):
        assert os.path.exists(workspace["ckpt"])
        assert os.path.exists(os.path.join(os.path.dirname(workspace["ckpt"]), "metrics.csv"))

    def test_eval_prints_recall_report(self, workspace, capsys):
        rc = main(["eval", "--checkpoint", workspace["ckpt"],
                   "--data", f"{workspace['data']}/val.bin"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) >= {"r1", "r5", "r8", "r10", "mean_r5_r8"}

    def test_gradcheck_passes_on_small_model(self, capsys):
        rc = main(["gradcheck", "--stages", "1", "--locations", "3", "--width", "3",
                   "--feature-dim", "4", "--hidden", "4", "--turns", "2", "--batch", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_gradcheck_fails_on_impossible_tolerance(self, capsys):
        rc = main(["gradcheck", "--stages", "1", "--locations", "3", "--width", "3",
                   "--feature-dim", "4", "--hidden", "4", "--turns", "2", "--batch", "2",
                   "--tol", "1e-15"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_turn_importance_command(self, workspace, capsys):
        out_dir = str(workspace["root"] / "ti")
        rc = main(["turn-importance", "--checkpoint", workspace["ckpt"],
                   "--baseline-checkpoint", workspace["baseline_ckpt"],
                   "--data", f"{workspace['data']}/val.bin", "--out", out_dir])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert "spread" in summary and set(summary["spread"]) == {"memory", "memoryless"}
        assert os.path.exists(f"{out_dir}/turn_importance.json")

    def test_turn_importance_rejects_a_baseline_trained_on_another_task(self, workspace,
                                                                        tmp_path, capsys):
        raw = json.loads(open(workspace["cfg"]).read())
        raw["model"], raw["task"]["seed"] = "lstm", 5
        cfg = tmp_path / "lstm_task5.json"
        cfg.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "lstm")]) == 0
        capsys.readouterr()
        baseline = str(tmp_path / "lstm" / "checkpoint.bin")
        out = tmp_path / "ti"
        rc = main(["turn-importance", "--checkpoint", workspace["ckpt"],
                   "--baseline-checkpoint", baseline,
                   "--data", f"{workspace['data']}/val.bin", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: {baseline}: its task differs from "
                                           f"{workspace['ckpt']}'s in ['seed']\n")
        assert not out.exists()

    def test_turn_order_command(self, workspace, tmp_path, capsys):
        rc = main(["turn-order", "--checkpoint", workspace["ckpt"],
                   "--data", f"{workspace['data']}/val.bin", "--count", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "mean_top5_overlap" in json.loads(printed)
        assert (tmp_path / "turn_order.json").read_text() == printed

    def test_memory_retention_command(self, workspace, tmp_path, capsys):
        rc = main(["memory-retention", "--checkpoint", workspace["ckpt"],
                   "--data", f"{workspace['data']}/val.bin", "--out", str(tmp_path)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert len(json.loads(printed)["stateful"]) == 2
        assert (tmp_path / "memory_retention.json").read_text() == printed

    def test_time_command(self, workspace, capsys):
        out_dir = str(workspace["root"] / "timing")
        rc = main(["time", "--config", workspace["cfg"], "--stages", "1",
                   "--sizes", "4x4", "--txns", "2", "--warmup", "1",
                   "--out", out_dir, "--no-check"])
        assert rc == 0
        assert "ms/txn" in capsys.readouterr().out
        assert os.path.exists(f"{out_dir}/timing.csv")

    def test_unknown_split_is_a_clean_error(self, workspace, tmp_path, capsys):
        rc = main(["gen-data", "--config", workspace["cfg"],
                   "--out", str(tmp_path), "--splits", "dev"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        # config bytes that are not UTF-8
        lambda e: e.update({"meta.config": np.frombuffer(b"\xff\xfe\xfd\xfc", dtype=np.uint8)}),
        lambda e: e.update({"meta.epoch": np.zeros(0, dtype=np.int64)}),
        lambda e: e.update({"meta.config": np.frombuffer(b"not json", dtype=np.uint8)}),
        lambda e: e.update({"meta.config": np.frombuffer(b"[1]", dtype=np.uint8)}),
        lambda e: e.update({"meta.adam_step": np.array([np.nan], dtype=np.float32)}),
        lambda e: e.update({"meta.epoch": np.array([-3], dtype=np.int64)}),
    ], ids=["config-not-utf8", "empty-epoch", "config-not-json", "config-not-object",
            "nan-adam-step", "negative-epoch"])
    def test_corrupt_checkpoint_meta_is_a_clean_error(self, workspace, tmp_path, capsys, corrupt):
        entries = ckpt_io.load_entries(workspace["ckpt"])
        corrupt(entries)
        bad = str(tmp_path / "bad.bin")
        ckpt_io.save_entries(bad, entries)
        rc = main(["eval", "--checkpoint", bad, "--data", f"{workspace['data']}/val.bin"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_checkpoint_missing_a_buffer_is_a_clean_error(self, workspace, tmp_path, capsys):
        entries = ckpt_io.load_entries(workspace["ckpt"])
        del entries["buffer.derive0.bn.running_var"]
        bad = str(tmp_path / "bad.bin")
        ckpt_io.save_entries(bad, entries)
        rc = main(["eval", "--checkpoint", bad, "--data", f"{workspace['data']}/val.bin"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: state mismatch: missing ['buffer.derive0.bn.running_var']")

    def test_resume_over_a_malformed_metrics_file_is_a_clean_error(self, workspace,
                                                                   tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.csv").write_text("garbage\n")
        rc = main(["train", "--config", workspace["cfg"], "--data", workspace["data"],
                   "--out", str(run), "--resume", workspace["ckpt"]])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {run}/metrics.csv:1: expected metrics header")

    @pytest.mark.parametrize("entry, value, message", [
        ("meta.epoch", -3, "entry 'meta.epoch' is -3; a counter must be >= 0"),
        ("meta.adam_step", -1, "entry 'meta.adam_step' is -1; a counter must be >= 0"),
        ("meta.epoch", 7, "entry 'meta.epoch' is 7, past the config's 1 epochs"),
    ], ids=["negative-epoch", "negative-adam-step", "epoch-past-config"])
    def test_resume_from_a_bad_counter_exits_2_and_writes_nothing(self, workspace, tmp_path,
                                                                  capsys, entry, value, message):
        entries = ckpt_io.load_entries(workspace["ckpt"])
        entries[entry] = np.array([value], dtype=np.int64)
        bad = str(tmp_path / "bad.bin")
        ckpt_io.save_entries(bad, entries)
        out = tmp_path / "out"
        rc = main(["train", "--config", workspace["cfg"], "--data", workspace["data"],
                   "--out", str(out), "--resume", bad])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("copied, replaced", [("train", "val"), ("val", "train")])
    def test_train_on_a_misnamed_split_exits_2_and_writes_nothing(self, workspace, tmp_path,
                                                                  capsys, copied, replaced):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        shutil.copy(data / f"{copied}.bin", data / f"{replaced}.bin")
        out = tmp_path / "out"
        rc = main(["train", "--config", workspace["cfg"], "--data", str(data),
                   "--out", str(out)])
        assert rc == 2
        assert (capsys.readouterr().err
                == f"error: {data}/{replaced}.bin: holds the {copied} split, not {replaced}\n")
        assert not out.exists()

    def test_resume_with_a_different_config_names_the_file_and_key(self, workspace,
                                                                   tmp_path, capsys):
        raw = json.loads(open(workspace["cfg"]).read())
        raw["train"]["epochs"] = 2
        other = tmp_path / "epochs2.json"
        other.write_text(json.dumps(raw))
        rc = main(["train", "--config", str(other), "--data", workspace["data"],
                   "--out", str(tmp_path / "run"), "--resume", workspace["ckpt"]])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {workspace['ckpt']}: resume config does not match")
        assert "differs in ['train.epochs']" in err

    def test_time_with_a_checkpoint_that_matches_no_row_is_a_clean_error(self, workspace,
                                                                         tmp_path, capsys):
        out = tmp_path / "timing"
        rc = main(["time", "--config", workspace["cfg"], "--stages", "1,2", "--sizes", "4x4",
                   "--txns", "3", "--warmup", "1", "--checkpoint", workspace["baseline_ckpt"],
                   "--no-check", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {workspace['baseline_ckpt']}: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["time", "--sizes", "16"],
        ["time", "--sizes", "4x0"],
        ["time", "--stages", "1,x"],
        ["ablate-memories", "--stages", "0"],
        ["gen-data", "--splits", "train,bogus"],
    ], ids=["sizes-without-x", "sizes-zero-width", "stages-text", "stages-zero",
            "one-bad-split"])
    def test_malformed_list_flag_is_a_usage_error(self, workspace, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = main(argv + ["--config", workspace["cfg"], "--out", str(out)])
        assert rc == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, item", [
        (["time", "--stages", "2,2", "--sizes", "4x4"], "'2'"),
        (["time", "--stages", "1,2,01"], "'01'"),
        (["time", "--sizes", "4x4,8x4,4x4"], "'4x4'"),
        (["ablate-memories", "--stages", "1,1"], "'1'"),
        (["gen-data", "--splits", "train,train"], "'train'"),
    ], ids=["stages", "stages-leading-zero", "sizes", "ablation-stages", "splits"])
    def test_a_repeated_list_item_is_a_usage_error(self, workspace, tmp_path, capsys, argv,
                                                   item):
        # a repeat would time, train or write one configuration or split twice
        out = tmp_path / "out"
        rc = main(argv + ["--config", workspace["cfg"], "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"{item} repeats an item of" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, expected", [
        (["turn-order", "--count", "0"], "an integer >= 1"),
        (["turn-order", "--count", "-5"], "an integer >= 1"),
        (["time", "--txns", "0"], "an integer >= 1"),
        (["gradcheck", "--stages", "0"], "an integer >= 1"),
        (["time", "--warmup", "-2"], "an integer >= 0"),
        (["gradcheck", "--batch", "1"], "an integer >= 2"),
        (["gradcheck", "--h", "0"], "a finite number > 0"),
        (["gradcheck", "--h", "nan"], "a finite number > 0"),
        (["gradcheck", "--h", "inf"], "a finite number > 0"),
        (["gradcheck", "--seed", "-1"], "an integer >= 0"),
        (["gradcheck", "--tol", "nan"], "a finite number >= 0"),
        (["gradcheck", "--tol", "-1"], "a finite number >= 0"),
        (["gradcheck", "--tol", "inf"], "a finite number >= 0"),
    ], ids=["count-zero", "count-negative", "txns-zero", "gradcheck-size-zero",
            "warmup-negative", "batch-one", "step-zero", "step-nan", "step-inf",
            "gradcheck-seed-negative", "tol-nan", "tol-negative", "tol-inf"])
    def test_out_of_range_flag_is_a_usage_error(self, workspace, capsys, argv, expected):
        if argv[0] == "turn-order":
            argv = argv + ["--checkpoint", workspace["ckpt"],
                           "--data", f"{workspace['data']}/val.bin"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"expected {expected}, got '{argv[2]}'" in err

    @pytest.mark.parametrize("command, edit, flags, message", [
        ("train", ("train", "epochs", 1.5), [], "config.train.epochs must be an integer, got 1.5"),
        ("train", ("train", "grad_clip", float("nan")), [],
         "config.train.grad_clip must be a finite number, got NaN"),
        ("train", (None, "seed", -1), [], "seed must be >= 0"),
        ("train", None, ["--seed", "-1"], "seed must be >= 0"),
        ("gen-data", ("task", "seed", -2), [], "TaskConfig: seed must be >= 0"),
    ], ids=["fractional-epochs", "nan-grad-clip", "negative-config-seed", "negative-seed-flag",
            "negative-task-seed"])
    def test_a_bad_config_value_exits_2_and_writes_nothing(self, workspace, tmp_path, capsys,
                                                           command, edit, flags, message):
        raw = json.loads(open(workspace["cfg"]).read())
        if edit is not None:
            section, key, value = edit
            (raw if section is None else raw[section])[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        data = ["--data", workspace["data"]] if command == "train" else []
        assert main([command, "--config", str(cfg), "--out", str(out), *data, *flags]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_config_file_that_is_not_utf8_exits_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b'{"seed": \xff}')
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: invalid JSON: 'utf-8' codec can't decode byte 0xff")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("max_turns", 3), ("db_size", 24), ("seed", 3)])
    def test_train_on_data_of_another_task_exits_2_and_writes_nothing(self, workspace, tmp_path,
                                                                      capsys, key, value):
        data = _gen_other_task(workspace, tmp_path, key, value)
        out = tmp_path / "out"
        assert main(["train", "--config", workspace["cfg"], "--data", data,
                     "--out", str(out)]) == 2
        assert (f"error: train split's task differs from config.task in ['{key}']"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("max_turns", 3), ("seed", 3), ("noise_std", 0.0)])
    def test_eval_on_data_of_another_task_exits_2(self, workspace, tmp_path, capsys, key, value):
        val = f"{_gen_other_task(workspace, tmp_path, key, value)}/val.bin"
        assert main(["eval", "--checkpoint", workspace["ckpt"], "--data", val]) == 2
        assert (f"error: {val}: its task differs from {workspace['ckpt']}'s in ['{key}']"
                in capsys.readouterr().err)

    # options that no code would read: the experiments run on the checkpoint's
    # config, and generated data follow task.seed
    @pytest.mark.parametrize("command, option", [
        ("gen-data", "--seed"),
        ("turn-importance", "--config"),
        ("turn-importance", "--seed"),
        ("turn-order", "--config"),
        ("turn-order", "--seed"),
        ("memory-retention", "--config"),
        ("memory-retention", "--seed"),
    ])
    def test_unread_option_is_a_usage_error(self, workspace, tmp_path, capsys, command, option):
        val = f"{workspace['data']}/val.bin"
        argv = {"gen-data": ["--out", str(tmp_path / "data")],
                "turn-importance": ["--checkpoint", workspace["ckpt"], "--data", val,
                                    "--baseline-checkpoint", workspace["baseline_ckpt"]],
                "turn-order": ["--checkpoint", workspace["ckpt"], "--data", val],
                "memory-retention": ["--checkpoint", workspace["ckpt"], "--data", val]}[command]
        value = workspace["cfg"] if option == "--config" else "1"
        assert main([command, *argv, option, value]) == 2
        assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_seed_flag_changes_initialization(self, workspace, tmp_path):
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["train", "--config", workspace["cfg"], "--data", workspace["data"],
                     "--out", d1, "--seed", "5"]) == 0
        assert main(["train", "--config", workspace["cfg"], "--data", workspace["data"],
                     "--out", d2, "--seed", "6"]) == 0
        assert (open(f"{d1}/checkpoint.bin", "rb").read()
                != open(f"{d2}/checkpoint.bin", "rb").read())
