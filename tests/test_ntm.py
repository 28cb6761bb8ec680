"""Tests for the memory stage: controller, heads, addressing, read/write."""

import numpy as np
import pytest
import reference_ops as ref

from cmntm import autodiff as ad
from cmntm.autodiff import Tensor, gradient_check
from cmntm.errors import DomainError, ShapeError
from cmntm.ntm import (
    SHIFT_OFFSETS,
    HeadMLP,
    HeadParams,
    Linear,
    LSTMCell,
    NTMStage,
    StageState,
    address,
    memory_read,
    memory_write,
    uniform_init,
)


def _simplex(rng, *shape):
    w = rng.random(shape) + 1e-3
    return w / w.sum(axis=-1, keepdims=True)


def _head_params(key, strength, gate, shift, sharpen, erase=None, add=None):
    def t(x):
        return Tensor(np.asarray(x, dtype=np.float32))
    return HeadParams(
        key=t(key), strength=t(strength), gate=t(gate), shift=t(shift),
        sharpen=t(sharpen),
        erase=None if erase is None else t(erase),
        add=None if add is None else t(add),
    )


def _fresh_state(rng, batch, p, m, h, dtype=np.float32):
    return StageState(
        memory=Tensor(rng.normal(0, 0.5, (batch, p, m)).astype(dtype)),
        hidden=Tensor(np.zeros((batch, h), dtype=dtype)),
        cell=Tensor(np.zeros((batch, h), dtype=dtype)),
        prev_read=Tensor(np.zeros((batch, m), dtype=dtype)),
        read_weights=Tensor(np.full((batch, p), 1.0 / p, dtype=dtype)),
        write_weights=Tensor(np.full((batch, p), 1.0 / p, dtype=dtype)),
    )


# ---------------------------------------------------------------------------
# initialization and controller


def test_uniform_init_bounds():
    rng = np.random.default_rng(0)
    t = uniform_init(rng, 16, (100, 64), np.float32)
    bound = 1.0 / 4.0
    assert t.requires_grad
    assert float(np.abs(t.data).max()) <= bound


def test_uniform_init_deterministic():
    a = uniform_init(np.random.default_rng(5), 8, (4, 4), np.float32)
    b = uniform_init(np.random.default_rng(5), 8, (4, 4), np.float32)
    assert np.array_equal(a.data, b.data)


def test_linear_bias_starts_at_zero():
    lin = Linear(3, 2, np.random.default_rng(0))
    assert np.array_equal(lin.b.data, np.zeros(2, dtype=np.float32))
    x = np.ones((1, 3), dtype=np.float32)
    assert np.allclose(lin(Tensor(x)).data, x @ lin.w.data, atol=1e-6)


def test_lstm_forget_bias_starts_at_one():
    cell = LSTMCell(4, 3, np.random.default_rng(0))
    assert np.array_equal(cell.bias.data[3:6], np.ones(3, dtype=np.float32))
    assert np.array_equal(cell.bias.data[:3], np.zeros(3, dtype=np.float32))


def test_lstm_zero_weights_give_zero_output():
    cell = LSTMCell(4, 3, np.random.default_rng(0))
    cell.wx.data[:] = 0.0
    cell.wh.data[:] = 0.0
    cell.bias.data[:] = 0.0
    h = c = Tensor(np.zeros((2, 3), dtype=np.float32))
    new_h, new_c = cell.step(Tensor(np.random.default_rng(1).standard_normal((2, 4))), h, c)
    assert np.array_equal(new_h.data, np.zeros((2, 3), dtype=np.float32))
    assert np.array_equal(new_c.data, np.zeros((2, 3), dtype=np.float32))


def test_lstm_step_deterministic():
    cell = LSTMCell(4, 3, np.random.default_rng(2))
    x = Tensor(np.random.default_rng(3).standard_normal((2, 4)))
    h = Tensor(np.random.default_rng(4).standard_normal((2, 3)))
    c = Tensor(np.random.default_rng(5).standard_normal((2, 3)))
    out1 = cell.step(x, h, c)
    out2 = cell.step(x, h, c)
    assert np.array_equal(out1[0].data, out2[0].data)
    assert np.array_equal(out1[1].data, out2[1].data)


def test_lstm_rejects_wrong_input_width():
    cell = LSTMCell(4, 3, np.random.default_rng(0))
    state = Tensor(np.zeros((1, 3), dtype=np.float32))
    with pytest.raises(ShapeError):
        cell.step(Tensor(np.zeros((1, 5), dtype=np.float32)), state, state)


def test_lstm_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    cell = LSTMCell(3, 2, rng, dtype=np.float64)
    x = Tensor(rng.standard_normal((2, 3)), dtype=np.float64)
    h0 = Tensor(rng.standard_normal((2, 2)) * 0.1, dtype=np.float64)
    c0 = Tensor(rng.standard_normal((2, 2)) * 0.1, dtype=np.float64)
    w = rng.standard_normal((2, 2))

    def f():
        new_h, new_c = cell.step(x, h0, c0)
        return ref.reduce_sum(ad.mul(ad.add(new_h, new_c), Tensor(w, dtype=np.float64)))

    assert gradient_check(f, list(cell.parameters().values())) <= 1e-5


# ---------------------------------------------------------------------------
# head parameter emission


def test_head_ranges_hold_over_random_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        head = HeadMLP(8, 4, write=True, rng=rng)
        params = head(Tensor(rng.standard_normal((2, 8)) * 3.0))
        assert (params.strength.data >= 0).all()
        assert (params.gate.data >= 0).all() and (params.gate.data <= 1).all()
        assert (params.shift.data >= 0).all()
        assert np.abs(params.shift.data.sum(axis=1) - 1.0).max() <= 1e-6
        assert (params.sharpen.data >= 1).all()
        assert (params.erase.data >= 0).all() and (params.erase.data <= 1).all()


def test_head_zero_controller_output_gives_neutral_params():
    head = HeadMLP(8, 4, write=False, rng=np.random.default_rng(0))
    params = head(Tensor(np.zeros((1, 8), dtype=np.float32)))
    assert np.allclose(params.gate.data, 0.5, atol=1e-7)
    assert np.allclose(params.shift.data, [1 / 3] * 3, atol=1e-6)
    assert np.allclose(params.key.data, 0.0, atol=1e-7)


def test_read_head_has_no_write_vectors():
    head = HeadMLP(4, 3, write=False, rng=np.random.default_rng(0))
    params = head(Tensor(np.zeros((1, 4), dtype=np.float32)))
    assert params.erase is None and params.add is None


# ---------------------------------------------------------------------------
# addressing


def test_address_zero_strength_gives_uniform():
    rng = np.random.default_rng(0)
    memory = Tensor(rng.standard_normal((1, 4, 3)).astype(np.float32))
    params = _head_params(rng.standard_normal((1, 3)), [[0.0]], [[1.0]],
                          [[0.0, 1.0, 0.0]], [[1.0]])
    w = address(memory, params, Tensor(np.full((1, 4), 0.25, dtype=np.float32)))
    assert np.allclose(w.data, 0.25, atol=1e-6)


def test_address_bypass_returns_previous_weights():
    rng = np.random.default_rng(1)
    memory = Tensor(rng.standard_normal((2, 5, 3)).astype(np.float32))
    w_prev = Tensor(_simplex(rng, 2, 5).astype(np.float32))
    params = _head_params(rng.standard_normal((2, 3)), np.ones((2, 1)),
                          np.zeros((2, 1)), [[0.0, 1.0, 0.0]] * 2, np.ones((2, 1)))
    w = address(memory, params, w_prev)
    assert np.abs(w.data - w_prev.data).max() <= 1e-7


def test_address_sharp_key_selects_matching_row():
    memory = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]], dtype=np.float32))
    params = _head_params([[1.0, 0.0]], [[100.0]], [[1.0]], [[0.0, 1.0, 0.0]], [[1.0]])
    w = address(memory, params, Tensor(np.full((1, 2), 0.5, dtype=np.float32)))
    assert np.allclose(w.data, [[1.0, 0.0]], atol=1e-6)


def test_address_shift_rotates_weights():
    # content locks onto row 0, then a one-hot(+1) kernel moves it to row 1
    memory = Tensor(np.eye(4, dtype=np.float32)[None, :, :])
    params = _head_params([[1.0, 0.0, 0.0, 0.0]], [[100.0]], [[1.0]],
                          [[0.0, 0.0, 1.0]], [[1.0]])
    w = address(memory, params, Tensor(np.full((1, 4), 0.25, dtype=np.float32)))
    assert np.allclose(w.data, [[0.0, 1.0, 0.0, 0.0]], atol=1e-6)


def test_address_sharpening_concentrates_mass():
    rng = np.random.default_rng(3)
    memory = Tensor(rng.standard_normal((1, 4, 3)).astype(np.float32))
    w_prev = Tensor(np.array([[0.4, 0.3, 0.2, 0.1]], dtype=np.float32))
    soft = _head_params(rng.standard_normal((1, 3)), [[0.0]], [[0.0]],
                        [[0.0, 1.0, 0.0]], [[1.0]])
    sharp = _head_params(soft.key.data, [[0.0]], [[0.0]], [[0.0, 1.0, 0.0]], [[8.0]])
    w_soft = address(memory, soft, w_prev)
    w_sharp = address(memory, sharp, w_prev)
    assert w_sharp.data.max() > w_soft.data.max()
    assert abs(w_sharp.data.sum() - 1.0) <= 1e-6


def test_address_handles_zero_memory_row():
    memory = Tensor(np.array([[[0.0, 0.0], [1.0, 1.0]]], dtype=np.float32))
    params = _head_params([[1.0, 1.0]], [[5.0]], [[1.0]], [[0.0, 1.0, 0.0]], [[1.0]])
    w = address(memory, params, Tensor(np.full((1, 2), 0.5, dtype=np.float32)))
    assert np.isfinite(w.data).all()
    assert w.data[0, 1] > w.data[0, 0]


def test_address_outputs_simplex_for_random_inputs():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        memory = Tensor((rng.standard_normal((2, 6, 4)) * 2).astype(np.float32))
        head = HeadMLP(8, 4, write=False, rng=rng)
        params = head(Tensor(rng.standard_normal((2, 8)).astype(np.float32) * 2))
        w = address(memory, params, Tensor(_simplex(rng, 2, 6).astype(np.float32)))
        assert (w.data >= 0).all(), seed
        assert np.abs(w.data.sum(axis=1) - 1.0).max() <= 1e-6, seed


def test_address_sharpen_domain_errors():
    memory = _t(np.ones((1, 3, 2)))
    negative_base = _head_params([[1.0, 1.0]], [[1.0]], [[0.0]], [[0.0, 1.0, 0.0]], [[1.5]])
    with pytest.raises(DomainError, match="negative base"):
        address(memory, negative_base, _t([[-0.5, 1.0, 0.5]]))
    zero_base = _head_params([[1.0, 1.0]], [[1.0]], [[0.0]], [[0.0, 1.0, 0.0]], [[-1.0]])
    with pytest.raises(DomainError, match="zero base"):
        address(memory, zero_base, _t([[0.0, 1.0, 0.0]]))


def test_address_rejects_flat_memory():
    params = _head_params([[1.0, 0.0]], [[1.0]], [[1.0]], [[0.0, 1.0, 0.0]], [[1.0]])
    with pytest.raises(ShapeError):
        address(Tensor(np.ones((2, 2), dtype=np.float32)), params,
                Tensor(np.full((1, 2), 0.5, dtype=np.float32)))


# ---------------------------------------------------------------------------
# memory read/write


def _t(x):
    return Tensor(np.asarray(x, dtype=np.float32))


def test_write_full_erase_and_add():
    out = memory_write(_t([[[1.0, 1.0], [2.0, 2.0]]]), _t([[1.0, 0.0]]),
                       _t([[1.0, 1.0]]), _t([[3.0, 4.0]]))
    assert np.allclose(out.data, [[[3.0, 4.0], [2.0, 2.0]]], atol=1e-6)


def test_write_half_erase():
    out = memory_write(_t([[[2.0, 2.0], [4.0, 4.0]]]), _t([[0.5, 0.5]]),
                       _t([[1.0, 1.0]]), _t([[0.0, 0.0]]))
    assert np.allclose(out.data, [[[1.0, 1.0], [2.0, 2.0]]], atol=1e-6)


def test_write_noop_leaves_memory_unchanged():
    mem = np.random.default_rng(0).standard_normal((2, 3, 4)).astype(np.float32)
    out = memory_write(Tensor(mem), _t(_simplex(np.random.default_rng(1), 2, 3)),
                       _t(np.zeros((2, 4))), _t(np.zeros((2, 4))))
    assert np.array_equal(out.data, mem)


def test_write_full_erase_shrinks_magnitudes():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        mem = rng.standard_normal((1, 5, 3)).astype(np.float32)
        out = memory_write(Tensor(mem), _t(_simplex(rng, 1, 5)),
                           _t(np.ones((1, 3))), _t(np.zeros((1, 3))))
        assert (np.abs(out.data) <= np.abs(mem) + 1e-7).all()


def test_write_keeps_entries_finite():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        mem = Tensor((rng.standard_normal((2, 4, 3)) * 5).astype(np.float32))
        out = memory_write(mem, _t(_simplex(rng, 2, 4)),
                           _t(rng.random((2, 3))), _t(rng.standard_normal((2, 3)) * 5))
        assert np.isfinite(out.data).all()


def test_read_one_hot_returns_row():
    mem = np.random.default_rng(0).standard_normal((1, 4, 3)).astype(np.float32)
    out = memory_read(Tensor(mem), _t([[0.0, 0.0, 1.0, 0.0]]))
    assert np.allclose(out.data, mem[:, 2, :], atol=1e-6)


def test_read_even_blend():
    out = memory_read(_t([[[2.0, 0.0], [0.0, 2.0]]]), _t([[0.5, 0.5]]))
    assert np.allclose(out.data, [[1.0, 1.0]], atol=1e-6)


def test_read_matches_naive_loop():
    rng = np.random.default_rng(4)
    mem = rng.standard_normal((3, 5, 4)).astype(np.float32)
    w = _simplex(rng, 3, 5).astype(np.float32)
    out = memory_read(Tensor(mem), Tensor(w)).data
    for b in range(3):
        expected = sum(w[b, i] * mem[b, i] for i in range(5))
        assert np.allclose(out[b], expected, atol=1e-5)


# ---------------------------------------------------------------------------
# stage step


def test_stage_step_deterministic():
    rng = np.random.default_rng(0)
    stage = NTMStage(input_size=7, mem_width=3, hidden_size=5, rng=rng)
    state = _fresh_state(np.random.default_rng(1), 2, 4, 3, 5)
    inp = Tensor(np.random.default_rng(2).standard_normal((2, 7)).astype(np.float32))
    s1 = stage.step(state, inp)
    s2 = stage.step(state, inp)
    assert np.array_equal(s1.prev_read.data, s2.prev_read.data)
    assert np.array_equal(s1.hidden.data, s2.hidden.data)
    assert np.array_equal(s1.memory.data, s2.memory.data)


def test_stage_step_does_not_mutate_inputs():
    rng = np.random.default_rng(3)
    stage = NTMStage(input_size=7, mem_width=3, hidden_size=5, rng=rng)
    state = _fresh_state(np.random.default_rng(4), 1, 4, 3, 5)
    snapshots = {name: t.data.copy() for name, t in vars(state).items()}
    inp = Tensor(rng.standard_normal((1, 7)).astype(np.float32))
    inp_before = inp.data.copy()
    stage.step(state, inp)
    for name, before in snapshots.items():
        assert np.array_equal(getattr(state, name).data, before), name
    assert np.array_equal(inp.data, inp_before)


def test_stage_step_matches_documented_pipeline():
    # write params -> write -> read params -> address on the UPDATED memory
    rng = np.random.default_rng(5)
    stage = NTMStage(input_size=6, mem_width=3, hidden_size=5, rng=rng)
    state = _fresh_state(np.random.default_rng(6), 2, 4, 3, 5)
    inp = Tensor(rng.standard_normal((2, 6)).astype(np.float32))
    new_state = stage.step(state, inp)

    h, c = stage.controller.step(inp, state.hidden, state.cell)
    wp = stage.write_head(h)
    w_w = address(state.memory, wp, state.write_weights)
    mem = memory_write(state.memory, w_w, wp.erase, wp.add)
    rp = stage.read_head(h)
    w_r = address(mem, rp, state.read_weights)
    expected_r = memory_read(mem, w_r)

    assert np.array_equal(new_state.hidden.data, h.data)
    assert np.array_equal(new_state.cell.data, c.data)
    assert np.array_equal(new_state.memory.data, mem.data)
    assert np.array_equal(new_state.read_weights.data, w_r.data)
    assert np.array_equal(new_state.write_weights.data, w_w.data)
    assert np.array_equal(new_state.prev_read.data, expected_r.data)


def test_stage_step_with_disabled_write_reads_original_memory():
    rng = np.random.default_rng(8)
    stage = NTMStage(input_size=6, mem_width=3, hidden_size=5, rng=rng)
    # force erase ~ 0 and add = 0 so the write is a no-op
    m = stage.write_head.mem_width
    stage.write_head.w2.data[:, m + 6:] = 0.0
    stage.write_head.b2.data[m + 6:2 * m + 6] = -30.0
    state = _fresh_state(np.random.default_rng(9), 1, 4, 3, 5)
    new_state = stage.step(state, Tensor(rng.standard_normal((1, 6)).astype(np.float32)))
    assert np.allclose(new_state.memory.data, state.memory.data, atol=1e-6)
    assert np.allclose(new_state.prev_read.data,
                       memory_read(state.memory, new_state.read_weights).data, atol=1e-6)


def test_stage_parameters_are_namespaced():
    stage = NTMStage(input_size=6, mem_width=3, hidden_size=5,
                     rng=np.random.default_rng(0))
    names = set(stage.parameters())
    assert "lstm.wx" in names and "read_head.w2" in names and "write_head.b2" in names
    assert len(names) == 3 + 4 + 4


def test_stage_step_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    stage = NTMStage(input_size=5, mem_width=2, hidden_size=4,
                     rng=rng, dtype=np.float64)
    state = StageState(
        memory=Tensor(rng.normal(0, 0.5, (2, 3, 2)), dtype=np.float64),
        hidden=Tensor(rng.normal(0, 0.1, (2, 4)), dtype=np.float64),
        cell=Tensor(rng.normal(0, 0.1, (2, 4)), dtype=np.float64),
        prev_read=Tensor(rng.normal(0, 0.1, (2, 2)), dtype=np.float64),
        read_weights=Tensor(np.full((2, 3), 1 / 3), dtype=np.float64),
        write_weights=Tensor(np.full((2, 3), 1 / 3), dtype=np.float64),
    )
    inp = Tensor(rng.standard_normal((2, 5)), dtype=np.float64)
    w = rng.standard_normal((2, 2))

    def f():
        r_out = stage.step(state, inp).prev_read
        return ref.reduce_sum(ad.mul(r_out, Tensor(w, dtype=np.float64)))

    err = gradient_check(f, list(stage.parameters().values()))
    assert err <= 1e-3


# ---------------------------------------------------------------------------
# fused stage ops against the primitive chains they replace


def _chain_lstm(lstm, x, hidden, cell):
    h = lstm.wh.shape[0]
    gates = ad.add(ad.add(ad.matmul(x, lstm.wx), ad.matmul(hidden, lstm.wh)), lstm.bias)
    i_gate = ref.sigmoid(ref.take_slice(gates, 1, 0, h))
    f_gate = ref.sigmoid(ref.take_slice(gates, 1, h, 2 * h))
    g_cand = ref.tanh(ref.take_slice(gates, 1, 2 * h, 3 * h))
    o_gate = ref.sigmoid(ref.take_slice(gates, 1, 3 * h, 4 * h))
    new_cell = ad.add(ad.mul(f_gate, cell), ad.mul(i_gate, g_cand))
    return ad.mul(o_gate, ref.tanh(new_cell)), new_cell


def _chain_head(head, ctrl_out):
    hidden = ref.tanh(ad.add(ad.matmul(ctrl_out, head.w1), head.b1))
    raw = ad.add(ad.matmul(hidden, head.w2), head.b2)
    m = head.mem_width
    params = [ref.take_slice(raw, 1, 0, m),
              ref.softplus(ref.take_slice(raw, 1, m, m + 1)),
              ref.sigmoid(ref.take_slice(raw, 1, m + 1, m + 2)),
              ref.softmax(ref.take_slice(raw, 1, m + 2, m + 5)),
              ad.add(ref.softplus(ref.take_slice(raw, 1, m + 5, m + 6)), 1.0)]
    if head.write:
        params += [ref.sigmoid(ref.take_slice(raw, 1, m + 6, 2 * m + 6)),
                   ref.take_slice(raw, 1, 2 * m + 6, 3 * m + 6)]
    return HeadParams(*params)


def _row_dots(key, memory):
    """(B, M) key against (B, P, M) memory rows -> (B, P) dot products."""
    k, mem = key.data, memory.data

    def backward(g):
        return (np.matmul(g[:, None, :], mem)[:, 0, :] if key.requires_grad else None,
                g[:, :, None] * k[:, None, :] if memory.requires_grad else None)

    return ad._record((key, memory), np.matmul(mem, k[:, :, None])[:, :, 0], backward)


def _outer(w, v):
    """(B, P) and (B, M) -> (B, P, M) per-row outer products."""
    wd, vd = w.data, v.data

    def backward(g):
        return (np.matmul(g, vd[:, :, None])[:, :, 0] if w.requires_grad else None,
                np.matmul(wd[:, None, :], g)[:, 0, :] if v.requires_grad else None)

    return ad._record((w, v), wd[:, :, None] * vd[:, None, :], backward)


def _chain_address(memory, params, w_prev):
    dots = _row_dots(params.key, memory)
    key_norm = ref.l2norm(params.key, axis=1, keepdims=True)
    row_norm = ref.l2norm(memory, axis=2)
    denom = ref.clamp_min(ad.mul(key_norm, row_norm), ad.COSINE_EPS)
    content = ref.softmax(ad.mul(params.strength, ref.div(dots, denom)))
    gated = ad.add(ad.mul(params.gate, content), ad.mul(ref.sub(1.0, params.gate), w_prev))
    powered = ref.power(ref.circular_convolution(gated, params.shift, SHIFT_OFFSETS), params.sharpen)
    return ref.div(powered, ref.reduce_sum(powered, axis=1, keepdims=True))


def _chain_write(memory, w, erase, add_vec):
    we = _outer(w, erase)
    wa = _outer(w, add_vec)
    return ad.add(ref.sub(memory, ad.mul(memory, we)), wa)


def _chain_step(stage, state, inp):
    ctrl_out, cell = _chain_lstm(stage.controller, inp, state.hidden, state.cell)
    wp = _chain_head(stage.write_head, ctrl_out)
    write_w = _chain_address(state.memory, wp, state.write_weights)
    memory = _chain_write(state.memory, write_w, wp.erase, wp.add)
    read_w = _chain_address(memory, _chain_head(stage.read_head, ctrl_out), state.read_weights)
    return StageState(memory, ctrl_out, cell, memory_read(memory, read_w), read_w, write_w)


def test_fused_stage_step_is_bit_identical_to_primitive_chain():
    # three float32 steps, so memory, weights and cell state each feed several
    # ops; values and parameter gradients must match exactly, not to a tolerance.
    # 16 locations, as at desk scale, put the row sums on numpy's pairwise path.
    rng = np.random.default_rng(21)
    stage = NTMStage(input_size=9, mem_width=5, hidden_size=7, rng=rng)
    start = _fresh_state(np.random.default_rng(22), 4, 16, 5, 7)
    inputs = [Tensor(rng.standard_normal((4, 9)).astype(np.float32)) for _ in range(3)]
    weights = Tensor(rng.standard_normal((4, 12)).astype(np.float32))
    params = stage.parameters()

    def run(step):
        state, outs = start, []
        with ad.Tape() as tape:
            for inp in inputs:
                state = step(stage, state, inp)
                outs += [state.prev_read.data, state.hidden.data, state.memory.data]
            last = ad.concat([state.prev_read, state.hidden], axis=1)
            loss = ref.reduce_sum(ad.mul(last, weights))
        for p in params.values():
            p.grad = None
        tape.backward(loss)
        return outs, {name: p.grad for name, p in params.items()}

    fused_outs, fused_grads = run(NTMStage.step)
    chain_outs, chain_grads = run(_chain_step)
    for fused, chain in zip(fused_outs, chain_outs):
        assert np.array_equal(fused, chain)
    for name in params:
        assert np.array_equal(fused_grads[name], chain_grads[name]), name
