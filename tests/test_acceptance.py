"""Acceptance gate: eight checks, one printed verdict line each.

The desk-scale training fixture is shared by the trainability, turn-importance,
and memory-retention checks, so this module trains the cascade and the LSTM
baseline exactly once (a couple of minutes on one core).
"""

import dataclasses
import time

import numpy as np
import pytest

import conftest
import test_autodiff

from cmntm import harness
from cmntm.autodiff import Tensor, gradient_check
from cmntm.cascade import CascadeConfig
from cmntm.config import TrainConfig
from cmntm.ntm import HeadParams, address
from cmntm.retrieval import CandidateDB, batch_loss, rank, recall_at_k, similarity_scores
from cmntm.synthdata import TaskConfig, gen_distractor


def _line(n: int, ok: bool, detail: str) -> None:
    text = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(text)
    conftest.record_criterion(text)  # shown in the end-of-run summary


@pytest.fixture(scope="session")
def desk_models():
    """Desk-defaults cascade and LSTM baseline trained on the block-reveal task."""
    cfg = TrainConfig()  # cmntm, C=2, 50 epochs, seed 0
    train_ds = gen_distractor(cfg.task, cfg.train_count, split="train")
    val_ds = gen_distractor(cfg.task, cfg.val_count, split="val")
    start = time.perf_counter()
    cascade = harness.train(cfg, train_ds=train_ds, val_ds=val_ds)
    cascade_secs = time.perf_counter() - start
    baseline = harness.train(dataclasses.replace(cfg, model="lstm"),
                             train_ds=train_ds, val_ds=val_ds)
    return {"cfg": cfg, "val_ds": val_ds, "cascade": cascade,
            "baseline": baseline, "cascade_secs": cascade_secs}


def test_criterion_1_gradient_fidelity():
    start = time.perf_counter()
    err = harness.full_model_gradient_check(num_stages=2, mem_locations=4,
                                            mem_width=8, feature_dim=8,
                                            hidden_size=16, turns=3, batch=2,
                                            h=1e-4)
    elapsed = time.perf_counter() - start
    worst_prim = 0.0
    for name, build in test_autodiff._primitive_cases().items():
        for seed in range(3):
            f, params = build(np.random.default_rng(seed))
            worst_prim = max(worst_prim, gradient_check(f, params))
    ok = err <= 1e-3 and worst_prim <= 1e-5 and elapsed < 60.0
    _line(1, ok, f"full model max rel err {err:.3e} (tol 1e-3) in {elapsed:.1f}s (budget 60s); "
                 f"primitives max {worst_prim:.3e} (tol 1e-5)")
    assert err <= 1e-3
    assert worst_prim <= 1e-5
    assert elapsed < 60.0


def test_criterion_2_addressing_invariants():
    def simplex(rng, *shape):
        w = rng.random(shape) + 1e-3
        return (w / w.sum(axis=-1, keepdims=True)).astype(np.float32)

    def t(x):
        return Tensor(np.asarray(x, dtype=np.float32))

    worst_sum = worst_neg = worst_bypass = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(1, 5))
        p = int(rng.integers(2, 9))
        m = int(rng.integers(2, 7))
        memory = t(rng.standard_normal((b, p, m)))
        w_prev = t(simplex(rng, b, p))
        params = HeadParams(
            key=t(rng.standard_normal((b, m))),
            strength=t(np.log1p(np.exp(rng.standard_normal((b, 1))))),
            gate=t(1.0 / (1.0 + np.exp(-rng.standard_normal((b, 1))))),
            shift=t(simplex(rng, b, 3)),
            sharpen=t(1.0 + np.log1p(np.exp(rng.standard_normal((b, 1))))),
            erase=None, add=None)
        w = address(memory, params, w_prev).data
        worst_neg = max(worst_neg, float(-w.min(initial=0.0)))
        worst_sum = max(worst_sum, float(np.abs(w.sum(axis=1) - 1.0).max()))
        bypass = HeadParams(key=params.key, strength=params.strength,
                            gate=t(np.zeros((b, 1))),
                            shift=t(np.tile([[0.0, 1.0, 0.0]], (b, 1))),
                            sharpen=t(np.ones((b, 1))), erase=None, add=None)
        w_b = address(memory, bypass, w_prev).data
        worst_bypass = max(worst_bypass, float(np.abs(w_b - w_prev.data).max()))
    ok = worst_neg <= 0.0 and worst_sum <= 1e-6 and worst_bypass <= 1e-7
    _line(2, ok, f"100 seeds: min weight >= {-worst_neg:.1e}, max |sum-1| "
                 f"{worst_sum:.2e} (tol 1e-6), bypass dev {worst_bypass:.2e} (tol 1e-7)")
    assert worst_neg <= 0.0
    assert worst_sum <= 1e-6
    assert worst_bypass <= 1e-7


def test_criterion_3_oracle_equivalence():
    worst_loss = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        preds = rng.normal(size=(5, 16)).astype(np.float32)
        tars = rng.normal(size=(5, 16)).astype(np.float32)
        sims = np.empty((5, 5))
        for i in range(5):
            for j in range(5):
                sims[i, j] = (preds[i] @ tars[j]) / (
                    np.linalg.norm(preds[i]) * np.linalg.norm(tars[j]))
        oracle = float(np.mean(np.log(np.sum(np.exp(sims), axis=1)) - np.diag(sims)))
        got = float(batch_loss(Tensor(preds), Tensor(tars)).data)
        worst_loss = max(worst_loss, abs(got - oracle))

    recall_exact = True
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        feats = rng.normal(size=(100, 12))
        db = CandidateDB(feats)
        queries = rng.normal(size=(25, 12))
        targets = rng.integers(0, 100, size=25)
        rankings = [rank(similarity_scores(q, db), db.ids) for q in queries]
        for k in (1, 5, 8, 10):
            hits = 0
            for q, tgt in zip(queries, targets):
                s = similarity_scores(q, db)
                st = s[int(tgt)]
                better = np.sum(s > st) + np.sum((s == st) & (db.ids < tgt))
                hits += int(better < k)
            if recall_at_k(rankings, targets, k) != hits / 25:
                recall_exact = False
    ok = worst_loss <= 1e-6 and recall_exact
    _line(3, ok, f"batch_loss vs double loop max |diff| {worst_loss:.2e} (tol 1e-6) "
                 f"on 20 B=5 batches; recall_at_k exact on 20 dbs of 100: {recall_exact}")
    assert worst_loss <= 1e-6
    assert recall_exact


def test_criterion_4_trainability(desk_models):
    final = desk_models["cascade"].metrics[-1]
    secs = desk_models["cascade_secs"]
    ok = final["r5"] >= 0.195 and secs <= 1800.0
    _line(4, ok, f"desk C=2 on block-reveal: final-turn R@5 {final['r5']:.3f} "
                 f"(bar 0.195 = 10x chance) after {final['epoch']} epochs "
                 f"in {secs:.0f}s (budget 1800s)")
    assert final["r5"] >= 0.195
    assert secs <= 1800.0


def test_criterion_5_turn_importance_trend(desk_models, tmp_path):
    report = harness.turn_importance(desk_models["cascade"].model,
                                     desk_models["baseline"].model,
                                     desk_models["val_ds"],
                                     eval_batch_size=256, seed=0,
                                     out_dir=str(tmp_path))
    cm = report["spread"]["memory"]
    ls = report["spread"]["memoryless"]
    ok = cm <= ls
    _line(5, ok, f"recall spread over history lengths: cascade {cm:.3f} vs "
                 f"LSTM baseline {ls:.3f} (need cascade <= baseline)")
    assert cm <= ls, (
        "cascade recall varies more with history length than the baseline at "
        "desk scale; spread ordering follows final-recall ordering here")


def test_criterion_6_memory_retention(desk_models):
    report = harness.memory_retention_experiment(desk_models["cascade"].model,
                                                 desk_models["val_ds"],
                                                 eval_batch_size=256, seed=0)
    gap = report["stateful"][1] - report["state_reset"][1]
    ok = gap >= 0.1
    _line(6, ok, f"turn-2 first-block match: stateful {report['stateful'][1]:.3f} "
                 f"vs reset {report['state_reset'][1]:.3f}, gap {gap:.3f} "
                 f"(bar 0.1, chance {report['chance_rate']:.3f})")
    assert gap >= 0.1


def test_criterion_7_timing_monotonicity(tmp_path):
    configs = [CascadeConfig(num_stages=c) for c in (1, 2, 4, 8)]
    rows = harness.timing_experiment(configs, TaskConfig(), txn_count=100,
                                     warmup=10, seed=0, out_dir=str(tmp_path))
    times = {row["C"]: row["ms_per_txn"] for row in rows}
    try:
        harness.check_timing_monotone(rows)
        ok = True
    except Exception:
        ok = False
    detail = ", ".join(f"C={c}: {times[c]:.2f}ms" for c in (1, 2, 4, 8))
    _line(7, ok, f"median per-transaction time {detail}; csv written")
    assert (tmp_path / "timing.csv").exists()
    harness.check_timing_monotone(rows)


def test_criterion_8_reproducibility(tmp_path):
    cfg = TrainConfig(epochs=3, train_count=200, val_count=100)
    d1, d2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    harness.train(cfg, out_dir=d1)
    harness.train(cfg, out_dir=d2)
    ckpt_same = (open(f"{d1}/checkpoint.bin", "rb").read()
                 == open(f"{d2}/checkpoint.bin", "rb").read())
    csv_same = open(f"{d1}/metrics.csv").read() == open(f"{d2}/metrics.csv").read()
    ok = ckpt_same and csv_same
    _line(8, ok, f"two identical runs: checkpoints bitwise equal: {ckpt_same}, "
                 f"metrics bitwise equal: {csv_same}")
    assert ckpt_same
    assert csv_same
