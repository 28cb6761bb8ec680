"""Tests for the cascaded model and the baseline aggregators."""

import numpy as np
import pytest
import reference_ops as ref

from cmntm import autodiff as ad
from cmntm.autodiff import Tape, Tensor, gradient_check
from cmntm.cascade import (
    MEMORY_INIT_STD,
    CMNTM,
    CascadeConfig,
    EwmaModel,
    LstmBaseline,
    MeanModel,
)
from cmntm.errors import ShapeError


def _tiny_config(**overrides):
    base = dict(num_stages=2, mem_locations=4, mem_width=3, hidden_size=5, feature_dim=6)
    base.update(overrides)
    return CascadeConfig(**base)


def _rngs(batch, seed=0):
    return [np.random.default_rng([seed, i]) for i in range(batch)]


def _queries(rng, batch, turns, dim):
    return rng.standard_normal((batch, turns, dim)).astype(np.float32)


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        CascadeConfig(num_stages=0, mem_locations=4, mem_width=3, hidden_size=5, feature_dim=6)
    with pytest.raises(ValueError):
        _tiny_config(mem_width=0)


def test_stage_input_size_is_two_reads_plus_feature():
    cfg = _tiny_config()
    assert cfg.stage_input_size == 2 * 3 + 6


# ---------------------------------------------------------------------------
# model structure


def test_single_stage_model_has_no_derived_projections():
    model = CMNTM(_tiny_config(num_stages=1), np.random.default_rng(0))
    assert model.derive_fc == [] and model.derive_bn == []
    assert len(model.stages) == 1


def test_three_stage_model_has_two_derived_projections():
    model = CMNTM(_tiny_config(num_stages=3), np.random.default_rng(0))
    assert len(model.derive_fc) == 2 and len(model.derive_bn) == 2
    q = Tensor(np.random.default_rng(1).standard_normal((4, 6)).astype(np.float32))
    derived = model.derive_features(q)
    assert len(derived) == 2
    assert all(d.shape == (4, 6) for d in derived)


def test_every_stage_consumes_the_same_input_width():
    model = CMNTM(_tiny_config(num_stages=3), np.random.default_rng(0))
    widths = {s.controller.wx.shape[0] for s in model.stages}
    assert widths == {model.config.stage_input_size}


def test_parameter_names_cover_all_submodules():
    model = CMNTM(_tiny_config(), np.random.default_rng(0))
    names = set(model.parameters())
    assert "derive0.fc.w" in names and "derive0.bn.scale" in names
    assert "stage0.lstm.wx" in names and "stage1.write_head.w2" in names
    assert "fusion.w" in names and "fusion.b" in names


def test_single_stage_runs_exactly_one_stage_step_per_turn():
    model = CMNTM(_tiny_config(num_stages=1), np.random.default_rng(0))
    calls = []
    original = model.stages[0].step

    def counting(state, inp):
        calls.append(inp.shape)
        return original(state, inp)

    model.stages[0].step = counting
    state = model.initial_state(_rngs(2))
    model.forward_transaction(_queries(np.random.default_rng(1), 2, 3, 6), state)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# initial state


def test_initial_state_is_deterministic_per_rng_seed():
    model = CMNTM(_tiny_config(), np.random.default_rng(0))
    a = model.initial_state(_rngs(3, seed=7))
    b = model.initial_state(_rngs(3, seed=7))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.memory.data, sb.memory.data)


def test_initial_state_shapes_and_weights():
    model = CMNTM(_tiny_config(), np.random.default_rng(0))
    state = model.initial_state(_rngs(2))
    assert len(state) == 2
    for s in state:
        assert s.memory.shape == (2, 4, 3)
        assert np.allclose(s.read_weights.data, 0.25, atol=1e-7)
        assert np.allclose(s.write_weights.data, 0.25, atol=1e-7)
        assert np.array_equal(s.prev_read.data, np.zeros((2, 3), dtype=np.float32))
        assert np.array_equal(s.hidden.data, np.zeros((2, 5), dtype=np.float32))


def test_initial_memory_sample_statistics():
    cfg = _tiny_config(mem_locations=16, mem_width=32)
    model = CMNTM(cfg, np.random.default_rng(0))
    n = 16 * 32
    tol = 3.0 * MEMORY_INIT_STD / np.sqrt(n)
    for seed in range(5):
        state = model.initial_state(_rngs(1, seed=seed))
        for s in state:
            assert abs(float(s.memory.data.mean())) <= tol
            assert abs(float(s.memory.data.std()) - MEMORY_INIT_STD) <= 0.2 * MEMORY_INIT_STD


def test_per_transaction_memory_independent_of_batch_composition():
    model = CMNTM(_tiny_config(), np.random.default_rng(0))
    solo = model.initial_state([np.random.default_rng([9, 1])])
    batch = model.initial_state([np.random.default_rng([9, 0]), np.random.default_rng([9, 1])])
    assert np.array_equal(solo[0].memory.data[0], batch[0].memory.data[1])


# ---------------------------------------------------------------------------
# forward behaviour


def test_forward_output_shapes():
    for c, p, m in [(1, 4, 3), (2, 4, 3), (3, 5, 2)]:
        model = CMNTM(_tiny_config(num_stages=c, mem_locations=p, mem_width=m),
                      np.random.default_rng(0))
        model.set_training(False)
        state = model.initial_state(_rngs(3))
        preds, out_state = model.forward_transaction(
            _queries(np.random.default_rng(1), 3, 4, 6), state)
        assert len(preds) == 4
        assert all(pr.shape == (3, 6) for pr in preds)
        assert len(out_state) == c


def test_forward_is_deterministic():
    model = CMNTM(_tiny_config(), np.random.default_rng(0))
    model.set_training(False)
    q = _queries(np.random.default_rng(2), 2, 3, 6)
    p1, _ = model.forward_transaction(q, model.initial_state(_rngs(2)))
    p2, _ = model.forward_transaction(q, model.initial_state(_rngs(2)))
    for a, b in zip(p1, p2):
        assert np.array_equal(a.data, b.data)


def test_cascade_turn_rejects_bad_query_shape():
    model = CMNTM(_tiny_config(), np.random.default_rng(0))
    state = model.initial_state(_rngs(2))
    with pytest.raises(ShapeError):
        model.cascade_turn(state, Tensor(np.zeros((2, 5), dtype=np.float32)))


def test_state_threads_between_turns():
    """Zeroing an earlier turn's query must change later predictions."""
    changed = 0
    for seed in range(10):
        model = CMNTM(_tiny_config(), np.random.default_rng(seed))
        model.set_training(False)
        q = _queries(np.random.default_rng(seed + 100), 2, 3, 6)
        base, _ = model.forward_transaction(q, model.initial_state(_rngs(2)))
        q_cut = q.copy()
        q_cut[:, 0, :] = 0.0
        cut, _ = model.forward_transaction(q_cut, model.initial_state(_rngs(2)))
        if not np.allclose(base[-1].data, cut[-1].data, atol=1e-7):
            changed += 1
    assert changed == 10


def test_turn_order_changes_outputs():
    model = CMNTM(_tiny_config(), np.random.default_rng(3))
    model.set_training(False)
    q = _queries(np.random.default_rng(4), 1, 3, 6)
    fwd, _ = model.forward_transaction(q, model.initial_state(_rngs(1)))
    rev, _ = model.forward_transaction(q[:, ::-1], model.initial_state(_rngs(1)))
    assert not np.allclose(fwd[-1].data, rev[-1].data, atol=1e-7)


def test_identity_projection_of_identical_rows_is_zero():
    # identity FC keeps rows identical, so train-mode normalization zeroes them
    model = CMNTM(_tiny_config(num_stages=2), np.random.default_rng(0))
    model.derive_fc[0].w.data[:] = np.eye(6, dtype=np.float32)
    model.derive_fc[0].b.data[:] = 0.0
    q = Tensor(np.tile(np.arange(6, dtype=np.float32), (4, 1)))
    derived = model.derive_features(q)
    assert np.allclose(derived[0].data, 0.0, atol=1e-6)


def test_carry_crosses_turn_boundary():
    """Stage 0's hand-forward input at turn n+1 is the last stage's read at turn n;
    stage 1's is stage 0's read at the same turn."""
    model = CMNTM(_tiny_config(num_stages=2), np.random.default_rng(5))
    model.set_training(False)
    inputs = {0: [], 1: []}
    for c, stage in enumerate(model.stages):
        def capturing(state, inp, c=c, original=stage.step):
            inputs[c].append(inp.data.copy())
            return original(state, inp)
        stage.step = capturing
    q = _queries(np.random.default_rng(6), 1, 2, 6)
    _, turn1 = model.cascade_turn(model.initial_state(_rngs(1)), Tensor(q[:, 0]))
    _, turn2 = model.cascade_turn(turn1, Tensor(q[:, 1]))
    m = model.config.mem_width
    assert not np.array_equal(turn1[0].prev_read.data, turn1[1].prev_read.data)
    assert np.array_equal(inputs[0][0][:, :m], np.zeros((1, m), dtype=np.float32))
    assert np.array_equal(inputs[0][1][:, :m], turn1[1].prev_read.data)
    assert np.array_equal(inputs[1][0][:, :m], turn1[0].prev_read.data)
    assert np.array_equal(inputs[1][1][:, :m], turn2[0].prev_read.data)


def test_training_flag_propagates_to_batchnorm():
    model = CMNTM(_tiny_config(num_stages=3), np.random.default_rng(0))
    model.set_training(False)
    assert all(not bn.training for bn in model.derive_bn)
    model.set_training(True)
    assert all(bn.training for bn in model.derive_bn)


def test_buffers_stay_live_across_a_train_mode_forward():
    model = CMNTM(_tiny_config(num_stages=3), np.random.default_rng(0))
    held = model.buffers()
    before = {name: buf.copy() for name, buf in held.items()}
    model.set_training(True)
    queries = _queries(np.random.default_rng(1), 4, 2, 6)
    model.forward_transaction(queries, model.initial_state(_rngs(4)))
    now = model.buffers()
    assert list(now) == list(held)
    for name, buf in held.items():
        assert buf is now[name], name
        assert not np.array_equal(buf, before[name]), name


def test_full_model_gradients_on_one_turn():
    # batch of 4: two-point batch norm is scale invariant, which leaves
    # near-zero true gradients that finite differences cannot resolve
    cfg = _tiny_config(num_stages=2, mem_locations=3, mem_width=2, hidden_size=4,
                       feature_dim=4)
    model = CMNTM(cfg, np.random.default_rng(8), dtype=np.float64)
    state = model.initial_state(_rngs(4, seed=9))
    q = Tensor(np.random.default_rng(10).standard_normal((4, 4)), dtype=np.float64)
    w = np.random.default_rng(11).standard_normal((4, 4))

    def f():
        pred, _ = model.cascade_turn(state, q)
        return ref.reduce_sum(ad.mul(pred, Tensor(w, dtype=np.float64)))

    err = gradient_check(f, list(model.parameters().values()))
    assert err <= 1e-3


# ---------------------------------------------------------------------------
# aggregator baselines


def _ewma_last(turns, alpha):
    """EWMA prediction after the given (D,) turns, for a batch of one."""
    q = np.stack(turns)[None].astype(np.float32)
    preds, _ = EwmaModel(alpha).forward_transaction(q, None)
    assert len(preds) == len(turns)
    return preds[-1].data[0]


def _prefix_means(q):
    """Each turn's mean recomputed from the whole prefix, as numpy stacks it."""
    return [np.mean(np.stack([q[:, i] for i in range(n + 1)]), axis=0).astype(np.float32)
            for n in range(q.shape[1])]


def _prefix_ewmas(q, alpha):
    """Each turn's EWMA recomputed from the whole prefix."""
    out = []
    for n in range(q.shape[1]):
        acc = q[:, 0].copy()
        for i in range(1, n + 1):
            acc = alpha * q[:, i] + (1.0 - alpha) * acc
        out.append(acc.astype(np.float32))
    return out


def test_mean_model_matches_numpy_prefix_means():
    # the running sum must give the prefix mean bit for bit, at any scale
    rng = np.random.default_rng(0)
    for scale in (1e-3, 1.0, 1e3):
        q = (scale * rng.standard_normal((3, 6, 33))).astype(np.float32)
        preds, _ = MeanModel().forward_transaction(q, None)
        for pred, oracle in zip(preds, _prefix_means(q), strict=True):
            assert pred.data.dtype == np.float32
            assert np.array_equal(pred.data, oracle)


def test_ewma_model_matches_prefix_recursion():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((2, 5, 4)).astype(np.float32)
    for alpha in (0.3, 0.5, 1.0):
        preds, _ = EwmaModel(alpha).forward_transaction(q, None)
        for pred, oracle in zip(preds, _prefix_ewmas(q, alpha), strict=True):
            assert np.array_equal(pred.data, oracle)


def test_ewma_three_turn_example():
    feats = [np.array([0.0]), np.array([2.0]), np.array([4.0])]
    assert np.allclose(_ewma_last(feats, alpha=0.5), [2.5], atol=1e-7)


def test_ewma_alpha_one_keeps_last():
    feats = [np.array([1.0, 1.0]), np.array([-3.0, 5.0])]
    assert np.allclose(_ewma_last(feats, alpha=1.0), [-3.0, 5.0], atol=1e-7)


def test_ewma_single_turn_is_identity():
    f = np.array([1.5, -2.0])
    assert np.allclose(_ewma_last([f], alpha=0.3), f, atol=1e-7)


def test_ewma_rejects_bad_alpha():
    with pytest.raises(ValueError):
        EwmaModel(alpha=0.0)
    with pytest.raises(ValueError):
        EwmaModel(alpha=1.5)


def test_mean_model_per_turn_outputs():
    model = MeanModel()
    q = np.zeros((2, 3, 4), dtype=np.float32)
    q[:, 0] = 2.0
    q[:, 1] = 4.0
    q[:, 2] = 6.0
    preds, state = model.forward_transaction(q, model.initial_state([None, None]))
    total, count = state  # the running sum and the number of turns in it
    assert count == 3 and np.array_equal(total, np.full((2, 4), 12.0, dtype=np.float32))
    assert np.allclose(preds[0].data, 2.0, atol=1e-6)
    assert np.allclose(preds[1].data, 3.0, atol=1e-6)
    assert np.allclose(preds[2].data, 4.0, atol=1e-6)


def test_aggregator_models_have_no_parameters():
    assert MeanModel().parameters() == {}
    assert EwmaModel().parameters() == {}


# ---------------------------------------------------------------------------
# LSTM baseline


def test_lstm_baseline_zero_weights_zero_outputs():
    model = LstmBaseline(4, 3, np.random.default_rng(0))
    for p in model.parameters().values():
        p.data[:] = 0.0
    q = np.random.default_rng(1).standard_normal((2, 3, 4)).astype(np.float32)
    preds, _ = model.forward_transaction(q, model.initial_state(_rngs(2)))
    for pr in preds:
        assert np.array_equal(pr.data, np.zeros((2, 4), dtype=np.float32))


def test_lstm_baseline_deterministic():
    model = LstmBaseline(4, 3, np.random.default_rng(2))
    q = np.random.default_rng(3).standard_normal((2, 3, 4)).astype(np.float32)
    a, _ = model.forward_transaction(q, model.initial_state(_rngs(2)))
    b, _ = model.forward_transaction(q, model.initial_state(_rngs(2)))
    for x, y in zip(a, b):
        assert np.array_equal(x.data, y.data)


def test_lstm_baseline_parameter_names():
    model = LstmBaseline(4, 3, np.random.default_rng(0))
    assert set(model.parameters()) == {"lstm.wx", "lstm.wh", "lstm.bias", "proj.w", "proj.b"}


def test_lstm_baseline_gradients():
    rng = np.random.default_rng(4)
    model = LstmBaseline(3, 2, rng, dtype=np.float64)
    q = rng.standard_normal((2, 2, 3))
    w = rng.standard_normal((2, 3))

    def f():
        preds, _ = model.forward_transaction(q, model.initial_state(_rngs(2)))
        return ref.reduce_sum(ad.mul(preds[-1], Tensor(w, dtype=np.float64)))

    assert gradient_check(f, list(model.parameters().values())) <= 1e-5
