"""Command line front end.

``gen-data``, ``train``, ``ablate-memories`` and ``time`` read ``--config``
(JSON, see ``config.py``); all but ``gen-data`` take ``--seed`` to override
the run seed. ``eval`` and the checkpoint experiments use the checkpoint's
config. Artifacts land under ``--out``. Set OMP_NUM_THREADS=1 (and the BLAS
equivalents) before invoking if you need bit-identical outputs across
machines with different thread counts.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import re
import sys

from . import harness
from .config import TrainConfig, load_config
from .errors import CheckpointError, CmntmError, ConfigError
from .synthdata import gen_distractor, load_dataset, save_dataset


def _resolve_config(args: argparse.Namespace) -> TrainConfig:
    cfg = load_config(args.config) if args.config else TrainConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# the config field that sets each split's transaction count
_SPLIT_COUNTS = {"train": "train_count", "val": "val_count", "test": "val_count"}


def _comma_list(pattern: str, what: str, convert=int):
    """An argparse ``type``: a comma list whose items all match ``pattern``."""
    def parse(text: str) -> list:
        items = [item.strip() for item in text.split(",")]
        if not all(re.fullmatch(pattern, item) for item in items):
            raise argparse.ArgumentTypeError(f"expected a comma list of {what}, got {text!r}")
        return [convert(item) for item in items]
    return parse


def _checked(convert, ok, what: str):
    """An argparse ``type``: ``convert(text)``, which must satisfy ``ok``."""
    def parse(text: str):
        with contextlib.suppress(ValueError):
            if ok(value := convert(text)):
                return value
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_NON_NEGATIVE = _checked(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE = r"\d*[1-9]\d*"
_SPLITS = _comma_list("|".join(_SPLIT_COUNTS), "train, val, test", str)
_STAGES = _comma_list(_POSITIVE, "positive integers")
_SIZES = _comma_list(f"{_POSITIVE}x{_POSITIVE}", "PxM sizes",
                     lambda t: tuple(map(int, t.split("x"))))


def _cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    for split in args.splits:
        dataset = gen_distractor(cfg.task, getattr(cfg, _SPLIT_COUNTS[split]), split=split)
        path = f"{args.out}/{split}.bin"
        os.makedirs(args.out, exist_ok=True)
        save_dataset(dataset, path)
        print(f"{split}: {len(dataset.queries)} transactions, "
              f"db {len(dataset.db)} items -> {path}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    train_ds = val_ds = None
    if args.data:
        train_ds, val_ds = (load_dataset(f"{args.data}/{split}.bin") for split in ("train", "val"))
        for split, ds in (("train", train_ds), ("val", val_ds)):
            if ds.split != split:
                raise ConfigError(f"{args.data}/{split}.bin: holds the {ds.split} split, "
                                  f"not {split}")
    result = harness.train(cfg, out_dir=args.out, train_ds=train_ds, val_ds=val_ds,
                           resume_from=args.resume, log=print)
    if result.metrics:
        last = result.metrics[-1]
        print(f"final: epoch {last['epoch']} train_loss {last['train_loss']:.6f} "
              f"mean_r5_r8 {last['mean_r5_r8']:.6f}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics: {result.metrics_path}")
    return 0


def _load_eval_dataset(args: argparse.Namespace, cfg: TrainConfig):
    """The ``--data`` split, which must be drawn from the checkpoint's task, or
    the val split that task generates."""
    if not args.data:
        return gen_distractor(cfg.task, cfg.val_count, split="val")
    dataset = load_dataset(args.data)
    harness.require_task(dataset.task, cfg.task, ConfigError,
                         f"{args.data}: its task differs from {args.checkpoint}'s")
    return dataset


def _restored(path: str):
    """The checkpoint at ``path`` and the model it holds."""
    ckpt = harness.load_checkpoint(path)
    return ckpt, harness.restore_model(ckpt)


def _cmd_eval(args: argparse.Namespace) -> int:
    ckpt, model = _restored(args.checkpoint)
    dataset = _load_eval_dataset(args, ckpt.cfg)
    report = harness.evaluate_model(model, dataset, ckpt.cfg.eval_batch_size, ckpt.cfg.seed)
    _print_json(report)
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    err = harness.full_model_gradient_check(
        num_stages=args.stages, mem_locations=args.locations, mem_width=args.width,
        feature_dim=args.feature_dim, hidden_size=args.hidden, turns=args.turns,
        batch=args.batch, h=args.h, seed=args.seed)
    ok = err <= args.tol
    print(f"max relative error {err:.3e} (tolerance {args.tol:.1e}): "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_ablate_memories(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    rows = harness.ablate_num_memories(cfg, args.stages, out_dir=args.out, log=print)
    for row in rows:
        print(f"C={row['C']}: mean_r5_r8 {row['mean_r5_r8']:.6f} "
              f"({row['pct_change_vs_first']:+.2f}% vs C={rows[0]['C']})")
    return 0


def _cmd_turn_importance(args: argparse.Namespace) -> int:
    ckpt, model = _restored(args.checkpoint)
    base_ckpt, baseline = _restored(args.baseline_checkpoint)
    harness.require_task(base_ckpt.cfg.task, ckpt.cfg.task, CheckpointError,
                         f"{args.baseline_checkpoint}: its task differs from "
                         f"{args.checkpoint}'s")
    dataset = _load_eval_dataset(args, ckpt.cfg)
    summary = harness.turn_importance(model, baseline, dataset, ckpt.cfg.eval_batch_size,
                                      ckpt.cfg.seed, out_dir=args.out)
    _print_json(summary)
    return 0


def _cmd_turn_order(args: argparse.Namespace) -> int:
    ckpt, model = _restored(args.checkpoint)
    dataset = _load_eval_dataset(args, ckpt.cfg)
    report = harness.turn_order_experiment(model, dataset, count=args.count,
                                           eval_batch_size=ckpt.cfg.eval_batch_size,
                                           seed=ckpt.cfg.seed, out_dir=args.out)
    _print_json(report)
    return 0


def _cmd_memory_retention(args: argparse.Namespace) -> int:
    ckpt, model = _restored(args.checkpoint)
    dataset = _load_eval_dataset(args, ckpt.cfg)
    report = harness.memory_retention_experiment(model, dataset, ckpt.cfg.eval_batch_size,
                                                 ckpt.cfg.seed, out_dir=args.out)
    _print_json(report)
    return 0


def _cmd_time(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    configs = [dataclasses.replace(cfg.cascade, num_stages=c, mem_locations=p, mem_width=m)
               for (p, m) in args.sizes for c in args.stages]
    rows = harness.timing_experiment(configs, cfg.task, txn_count=args.txns,
                                     warmup=args.warmup, seed=cfg.seed,
                                     checkpoint_path=args.checkpoint, out_dir=args.out)
    for row in rows:
        print(f"C={row['C']} P={row['P']} M={row['M']}: {row['ms_per_txn']:.3f} ms/txn")
    if args.check:
        harness.check_timing_monotone(rows)
        print("timing monotone in stage count: PASS")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cmntm",
                                     description="cascaded memory retrieval models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", required=out_required, help="output directory")

    data_help = "dataset file (defaults to the val split generated from the checkpoint's config)"

    p = sub.add_parser("gen-data", help="generate synthetic datasets")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--splits", default="train,val", type=_SPLITS, help="comma list: train,val,test")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    common(p, out_required=True)
    p.add_argument("--data", help="directory holding train.bin and val.bin")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help=data_help)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of a small full model")
    p.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    p.add_argument("--stages", type=_COUNT, default=2)
    p.add_argument("--locations", type=_COUNT, default=4)
    p.add_argument("--width", type=_COUNT, default=8)
    p.add_argument("--feature-dim", type=_COUNT, default=8)
    p.add_argument("--hidden", type=_COUNT, default=16)
    p.add_argument("--turns", type=_COUNT, default=3)
    p.add_argument("--batch", default=2, type=_checked(int, lambda v: v >= 2, "an integer >= 2"))
    p.add_argument("--h", default=1e-4,
                   type=_checked(float, lambda v: 0 < v < float("inf"), "a finite number > 0"))
    p.add_argument("--tol", default=1e-3,
                   type=_checked(float, lambda v: 0 <= v < float("inf"), "a finite number >= 0"))
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate-memories", help="train at several cascade depths")
    common(p, out_required=True)
    p.add_argument("--stages", default="1,2", type=_STAGES, help="comma list of stage counts")
    p.set_defaults(func=_cmd_ablate_memories)

    p = sub.add_parser("turn-importance", help="recall vs history length")
    p.add_argument("--out", help="output directory")
    p.add_argument("--checkpoint", required=True, help="memory model checkpoint")
    p.add_argument("--baseline-checkpoint", required=True, help="memory-less checkpoint")
    p.add_argument("--data", help=data_help)
    p.set_defaults(func=_cmd_turn_importance)

    p = sub.add_parser("turn-order", help="stability under permuted turn order")
    p.add_argument("--out", help="output directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help=data_help)
    p.add_argument("--count", type=_COUNT, default=500)
    p.set_defaults(func=_cmd_turn_order)

    p = sub.add_parser("memory-retention", help="turn-1 information in later retrievals")
    p.add_argument("--out", help="output directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help=data_help)
    p.set_defaults(func=_cmd_memory_retention)

    p = sub.add_parser("time", help="median inference time per transaction")
    common(p)
    p.add_argument("--stages", default="1,2,4,8", type=_STAGES, help="comma list of stage counts")
    p.add_argument("--sizes", default="16x32", type=_SIZES, help="comma list of PxM memory sizes")
    p.add_argument("--txns", type=_COUNT, default=100)
    p.add_argument("--warmup", type=_NON_NEGATIVE, default=10)
    p.add_argument("--checkpoint", help="report this checkpoint's recall alongside timings")
    p.add_argument("--check", action=argparse.BooleanOptionalAction, default=True,
                   help="fail if median time decreases with stage count")
    p.set_defaults(func=_cmd_time)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # a usage error (status 2) or --help returns its status like any command
        return e.code
    try:
        return args.func(args)
    except (CmntmError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
