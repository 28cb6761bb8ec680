"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
import copy
import dataclasses
import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (puts src/ on the path)
import perftrace  # noqa: E402
from cmntm import retrieval  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def tiny(name: str) -> run.Workload:
    """The named workload's model shape with a 64-item db and a handful of txns."""
    workload = run.WORKLOADS[name]
    cfg = copy.deepcopy(workload.config)
    cfg["task"]["db_size"] = 64
    cfg["train"].update(epochs=1, batch_size=4, train_count=8, val_count=4)
    return dataclasses.replace(workload, config=cfg, setup_rounds=2, eval_reps=2)


def test_spec_names_the_benchmarked_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for metric in SPEC["end_to_end"]:
        assert run.END_TO_END[metric["name"]] == (metric["unit"], metric["better"])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_named_metric(name, trace, tmp_path):
    result = run.run(tiny(name), seed=3, seconds=0.2, trace=trace, run_dir=str(tmp_path))
    assert list(result.end_to_end) == list(run.END_TO_END)  # all ten are printed
    line = run.result_line(result, trace)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(line["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert np.isfinite(got["value"])
    if trace:
        assert line["metrics"]["autodiff.tape_nodes_per_step"]["value"] == 814
    else:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_oracle_rejects_a_corrupted_ranking():
    rng = np.random.default_rng(0)
    db = retrieval.CandidateDB(np.arange(40), rng.normal(size=(40, 8)))
    scores = retrieval.similarity_scores(rng.normal(size=8), db)
    top = retrieval.rank(scores, db.ids).ids[:run.TOP_K]
    assert run.top_k_matches_oracle(scores, db, top)
    swapped = top.copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    assert not run.top_k_matches_oracle(scores, db, swapped)
    assert not run.top_k_matches_oracle(scores, db, top[:-1])


def test_oracle_breaks_ties_by_id():
    db = retrieval.CandidateDB(np.asarray([7, 3, 5, 1]), np.ones((4, 2)))
    scores = np.asarray([0.5, 0.5, 0.9, 0.5])
    assert run.top_k_matches_oracle(scores, db, np.asarray([5, 1, 3, 7]))
    assert not run.top_k_matches_oracle(scores, db, np.asarray([5, 7, 3, 1]))


def test_corrupted_serving_ranking_fails_the_run(tmp_path, monkeypatch):
    honest = retrieval.rank

    def corrupted(scores, ids=None):
        out = honest(scores, ids)
        out.ids[[0, 1]] = out.ids[[1, 0]]
        return out

    monkeypatch.setattr(retrieval, "rank", corrupted)
    result = run.run(tiny("desk"), seed=3, seconds=0.2, trace=False, run_dir=str(tmp_path))
    line = run.result_line(result, trace=False)
    assert not line["correct"]
    assert result.tally.failed["turn"] == result.tally.attempted["turn"] > 0


def test_glue_check_fails_when_a_phase_runs_outside_the_wrappers():
    tracer = perftrace.Tracer()
    with tracer.phase_span("serve"):
        with tracer.span("retrieval.rank"):
            time.sleep(0.02)
    assert tracer.glue_shares(["serve"])["serve"] < perftrace.GLUE_LIMIT
    with tracer.phase_span("eval"):
        time.sleep(0.02)
    with pytest.raises(RuntimeError, match="outside every traced function"):
        tracer.glue_shares(["eval"])
