"""The package names and views the benchmark under ``perfbench/`` reads.

``perfbench/perftrace.py`` wraps functions and methods by name, and
``perfbench/run.py`` reads a split one transaction at a time. A rename here
would otherwise first fail in the benchmark's traced run.
"""

import importlib.util
import pathlib

import numpy as np

from cmntm.synthdata import TaskConfig, gen_distractor

PERFTRACE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "perftrace.py"


def test_every_traced_function_and_method_resolves():
    spec = importlib.util.spec_from_file_location("perftrace", PERFTRACE)
    perftrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perftrace)
    for name, owner, attr in perftrace.FUNCTIONS:
        assert callable(getattr(owner, attr, None)), name
    # instrument swaps a method in the class's own namespace
    for name, cls, attr in perftrace.METHODS:
        assert callable(vars(cls).get(attr)), name


def test_transactions_are_views_of_the_dataset_rows():
    ds = gen_distractor(TaskConfig(feature_dim=8, blocks=4, max_turns=3, db_size=16), count=5)
    txns = ds.transactions
    assert len(txns) == 5
    for i, txn in enumerate(txns):
        for view, row in ((txn.queries, ds.queries[i]), (txn.target_ids, ds.target_ids[i])):
            assert np.shares_memory(view, row) and np.array_equal(view, row)
        assert txn.num_turns == ds.max_turns
