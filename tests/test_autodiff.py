"""Tests for the tape-based reverse-mode differentiation engine."""

import ast
import inspect
import pathlib

import numpy as np
import pytest
import reference_ops
from hypothesis import given, settings, strategies as st
from reference_ops import (
    batch_norm_chain,
    circular_convolution,
    clamp_min,
    div,
    exp,
    l2norm,
    log,
    power,
    reduce_mean,
    reduce_sum,
    sigmoid,
    softmax,
    softplus,
    sub,
    take_slice,
    tanh,
    transpose,
)

from cmntm import autodiff, ntm, retrieval
from cmntm.autodiff import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNorm,
    Tape,
    Tensor,
    add,
    batch_norm,
    concat,
    gradient_check,
    matmul,
    mul,
    no_grad,
)
from cmntm.errors import DomainError, ShapeError
from cmntm.ntm import HeadParams, address, head_mlp, lstm_cell, memory_read, memory_write
from cmntm.retrieval import batch_loss


def _param(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


def _weighted(out, weight):
    """Scalar loss with a non-uniform output gradient."""
    return reduce_sum(mul(out, Tensor(weight, dtype=np.float64)))


# ---------------------------------------------------------------------------
# tensor basics


def test_tensor_defaults_to_float32():
    t = Tensor([1, 2, 3])
    assert t.data.dtype == np.float32
    assert t.shape == (3,)


def test_tensor_preserves_float64():
    t = Tensor(np.array([1.0], dtype=np.float64))
    assert t.data.dtype == np.float64


# ---------------------------------------------------------------------------
# forward oracles


def test_matmul_identity_is_exact():
    a = np.array([[1.5, -2.0], [0.25, 7.0]], dtype=np.float32)
    out = matmul(Tensor(np.eye(2, dtype=np.float32)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_softmax_of_zeros_is_uniform():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-7)


def test_softmax_stable_for_large_inputs():
    out = softmax(Tensor([1000.0, 1000.0, -1000.0]))
    assert np.isfinite(out.data).all()
    assert np.allclose(out.data, [0.5, 0.5, 0.0], atol=1e-6)


def test_concat_slice_round_trip():
    a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    b = Tensor(np.arange(6, 10, dtype=np.float32).reshape(2, 2))
    joined = concat([a, b], axis=1)
    assert joined.shape == (2, 5)
    back = take_slice(joined, 1, 0, 3)
    assert np.array_equal(back.data, a.data)
    assert np.array_equal(take_slice(joined, 1, 3, 5).data, b.data)


def test_circular_conv_identity_kernel():
    w = Tensor([0.1, 0.2, 0.7])
    out = circular_convolution(w, Tensor([0.0, 1.0, 0.0]))
    assert np.allclose(out.data, w.data, atol=1e-7)


def test_circular_conv_shift_forward():
    out = circular_convolution(Tensor([0.1, 0.2, 0.7]), Tensor([0.0, 0.0, 1.0]))
    assert np.allclose(out.data, [0.7, 0.1, 0.2], atol=1e-7)


def test_circular_conv_blur():
    out = circular_convolution(Tensor([0.5, 0.5, 0.0]), Tensor([0.0, 0.5, 0.5]))
    assert np.allclose(out.data, [0.25, 0.5, 0.25], atol=1e-7)


def test_circular_conv_batched_matches_rows():
    rng = np.random.default_rng(3)
    w = rng.random((4, 7))
    s = rng.random((4, 3))
    batched = circular_convolution(Tensor(w), Tensor(s)).data
    for i in range(4):
        row = circular_convolution(Tensor(w[i]), Tensor(s[i])).data
        assert np.allclose(batched[i], row, atol=1e-6)


def test_contractions_match_numpy():
    rng = np.random.default_rng(7)
    w, mem = rng.standard_normal((2, 3)), rng.standard_normal((2, 3, 5))
    out = memory_read(Tensor(mem), Tensor(w))
    assert np.allclose(out.data, np.einsum("bp,bpm->bm", w, mem), atol=1e-12)
    a, b = rng.standard_normal((4, 6)), rng.standard_normal((3, 6))
    assert np.array_equal(transpose(Tensor(b)).data, b.T)
    out = matmul(Tensor(a), transpose(Tensor(b)))
    assert np.allclose(out.data, np.einsum("id,jd->ij", a, b), atol=1e-12)


def test_batchnorm_two_point_batch():
    bn = BatchNorm(1)
    out = bn(Tensor([[1.0], [3.0]]))
    assert np.allclose(out.data, [[-1.0], [1.0]], atol=1e-4)


def test_batchnorm_identical_rows_normalize_to_zero():
    bn = BatchNorm(3)
    out = bn(Tensor(np.ones((4, 3), dtype=np.float32) * 2.5))
    assert np.allclose(out.data, 0.0, atol=1e-6)


def test_batchnorm_rejects_single_row_in_train_mode():
    bn = BatchNorm(2)
    with pytest.raises(DomainError):
        bn(Tensor([[1.0, 2.0]]))


def test_batchnorm_eval_uses_running_stats():
    bn = BatchNorm(2)
    x = np.array([[0.0, 10.0], [2.0, 14.0]], dtype=np.float32)
    bn(Tensor(x))
    # one batch (mean [1, 12], biased variance [1, 4]) moves the running
    # statistics from mean 0, variance 1 by BN_MOMENTUM of the way
    m = BN_MOMENTUM
    mean, var = m * np.array([1.0, 12.0]), (1.0 - m) + m * np.array([1.0, 4.0])
    assert np.allclose(bn.running_mean, mean, atol=1e-5)
    bn.training = False
    out = bn(Tensor([mean + np.sqrt(var)]))  # singleton batch is fine in eval mode
    assert np.allclose(out.data, 1.0, atol=1e-5)


def test_batchnorm_zero_scale_outputs_shift():
    bn = BatchNorm(2)
    bn.scale.data[:] = 0.0
    bn.shift.data[:] = [3.0, -1.0]
    out = bn(Tensor(np.random.default_rng(0).standard_normal((5, 2))))
    assert np.allclose(out.data, [3.0, -1.0], atol=1e-6)


def test_train_mode_batchnorm_records_one_node():
    bn = BatchNorm(3)
    x = Tensor(np.random.default_rng(0).standard_normal((4, 3)), requires_grad=True)
    with Tape() as tape:
        bn(x)
    assert len(tape) == 1
    assert tape._nodes[0].backward.__qualname__.startswith("batch_norm.")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(3))
def test_batch_norm_is_bit_identical_to_primitive_chain(dtype, seed):
    # x comes out of a matmul and is used again after the batch norm, so its
    # gradient sums a later use with both of the batch norm's uses
    rng = np.random.default_rng(seed)

    def arr(*shape):
        return rng.standard_normal(shape).astype(dtype)

    x0, w, scale, shift = arr(32, 16), arr(16, 32), arr(32), arr(32)
    w_out, w_x = arr(32, 32), arr(32, 32)
    results = []
    for op in (batch_norm, batch_norm_chain):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (x0, w, scale, shift)]
        with Tape() as tape:
            x = matmul(leaves[0], leaves[1])
            out, mean, var = op(x, leaves[2], leaves[3])
            loss = add(reduce_sum(mul(out, Tensor(w_out))), reduce_sum(mul(x, Tensor(w_x))))
        tape.backward(loss)
        stats = [(t.data if isinstance(t, Tensor) else t).reshape(-1) for t in (mean, var)]
        results.append([out.data, *stats] + [leaf.grad for leaf in leaves])
    fused, chain = results
    for name, a, b in zip(["out", "mean", "var", "x0", "w", "scale", "shift"], fused, chain):
        assert a.dtype == b.dtype == dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_batchnorm_is_bit_identical_to_sub_chain(dtype):
    # eval mode centers by adding the negated running mean; IEEE 754 defines
    # x - y as x + (-y), so every bit matches the subtraction, signed zeros
    # included: a -0 shift keeps the sign of a zero in the output
    rng = np.random.default_rng(6)
    bn = BatchNorm(6, dtype=dtype)
    bn.training = False
    bn.running_mean[:] = rng.standard_normal(6)
    bn.running_var[:] = rng.uniform(0.5, 2.0, 6)
    bn.scale.data[:] = rng.uniform(0.5, 2.0, 6)
    bn.shift.data[:] = rng.standard_normal(6)
    x0 = rng.standard_normal((8, 6)).astype(dtype)
    bn.running_mean[:2] = 0.0, -0.0
    bn.shift.data[:2] = -0.0
    x0[:2, :2] = [[0.0, 0.0], [-0.0, -0.0]]
    w_out = rng.standard_normal((8, 6)).astype(dtype)

    def chain(x):
        inv = 1.0 / np.sqrt(bn.running_var.astype(dtype) + BN_EPS)
        normalized = mul(sub(x, Tensor(bn.running_mean.astype(dtype))), Tensor(inv))
        return add(mul(normalized, bn.scale), bn.shift)

    results = []
    for op in (bn, chain):
        x = Tensor(x0.copy(), requires_grad=True)
        bn.scale.grad = bn.shift.grad = None
        with Tape() as tape:
            out = op(x)
            loss = reduce_sum(mul(out, Tensor(w_out)))
        tape.backward(loss)
        results.append([out.data, x.grad, bn.scale.grad, bn.shift.grad])
    assert np.signbit(results[0][0][1, 0])
    for name, a, b in zip(["out", "x", "scale", "shift"], *results):
        assert a.dtype == b.dtype == dtype, name
        assert a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# tape semantics


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(ShapeError):
        tape.backward(y)


def test_backward_rejects_loss_from_other_tape():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape_a:
        y = reduce_sum(mul(x, x))
    with Tape() as tape_b:
        reduce_sum(x)
        with pytest.raises(ValueError):
            tape_b.backward(y)
    del tape_a


def test_backward_twice_doubles_accumulated_gradients():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        y = reduce_sum(mul(x, x))
    tape.backward(y)
    first = x.grad.copy()
    tape.backward(y)
    assert np.allclose(x.grad, 2.0 * first)
    assert np.allclose(first, [6.0])


def test_gradients_accumulate_across_tapes_until_zeroed():
    x = Tensor([2.0], requires_grad=True)
    for _ in range(2):
        with Tape() as tape:
            y = reduce_sum(mul(x, x))
        tape.backward(y)
    assert np.allclose(x.grad, [8.0])
    # resetting is the caller's job; the next pass then starts from zero
    x.grad = None
    with Tape() as tape:
        y = reduce_sum(mul(x, x))
    tape.backward(y)
    assert np.allclose(x.grad, [4.0])


def test_fan_out_sums_pass_gradients():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        y = add(mul(x, 2.0), mul(x, 3.0))
        loss = reduce_sum(y)
    tape.backward(loss)
    assert np.allclose(x.grad, [5.0])


def test_no_grad_records_nothing():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        with no_grad():
            y = mul(x, x)
        assert len(tape) == 0
        assert not y.requires_grad
        z = reduce_sum(mul(x, 2.0))
    tape.backward(z)
    assert np.allclose(x.grad, [2.0])


def test_nested_tapes_record_independently():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as outer:
        mul(x, 1.0)
        with Tape() as inner:
            y = reduce_sum(mul(x, x))
        inner.backward(y)
    assert len(outer) == 1
    assert np.allclose(x.grad, [4.0])


def test_broadcast_add_gradient_reduces():
    a = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
    b = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        loss = reduce_sum(add(a, b))
    tape.backward(loss)
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (3,)
    assert np.allclose(b.grad, [2.0, 2.0, 2.0])


def test_intermediates_get_no_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
        z = mul(y, 3.0)
        loss = reduce_sum(z)
    tape.backward(loss)
    assert y.grad is None and z.grad is None and loss.grad is None
    assert np.array_equal(x.grad, np.array([6.0, 12.0], dtype=np.float32))


def test_leaf_grads_are_separate_buffers():
    # add hands one gradient array to both inputs; each leaf must still own
    # its grad, since the optimizer and clipping update grads in place
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        loss = reduce_sum(mul(add(a, b), 2.0))
    tape.backward(loss)
    assert not np.shares_memory(a.grad, b.grad)
    assert np.array_equal(a.grad, b.grad)


def test_leaf_from_an_earlier_tape_gets_grad():
    x = Tensor([2.0], requires_grad=True)
    with Tape():
        y = mul(x, x)
    with Tape() as tape:
        loss = reduce_sum(mul(y, 3.0))
    tape.backward(loss)
    assert np.array_equal(y.grad, np.array([3.0], dtype=np.float32))
    assert x.grad is None


@pytest.mark.parametrize("op", ["matmul", "memory_read"])
@pytest.mark.parametrize("constant", [0, 1])
def test_constant_contraction_operand_gets_no_gradient(op, constant):
    rng = np.random.default_rng(5)
    b_shape = (4, 5) if op == "matmul" else (3, 4, 5)
    a_data, b_data, w_data = (rng.standard_normal(shape).astype(np.float32)
                              for shape in ((3, 4), b_shape, (3, 5)))

    def run(a_grad, b_grad):
        a = Tensor(a_data, requires_grad=a_grad)
        b = Tensor(b_data, requires_grad=b_grad)
        with Tape() as tape:
            out = matmul(a, b) if op == "matmul" else memory_read(b, a)
            loss = reduce_sum(mul(out, Tensor(w_data)))
        tape.backward(loss)
        return tape, (a.grad, b.grad)

    _, both = run(True, True)
    tape, grads = run(constant != 0, constant != 1)
    # the node computes no adjoint for the constant operand ...
    assert tape._nodes[0].backward(w_data)[constant] is None
    assert grads[constant] is None
    # ... and the other operand's is the one it gets when both need gradients
    assert np.array_equal(grads[1 - constant], both[1 - constant])


# ---------------------------------------------------------------------------
# domain and shape errors


def test_log_rejects_nonpositive_and_nan():
    with pytest.raises(DomainError):
        log(Tensor([1.0, 0.0]))
    with pytest.raises(DomainError):
        log(Tensor([-1.0]))
    with pytest.raises(DomainError):
        log(Tensor([np.nan]))


def test_div_rejects_zero_denominator():
    with pytest.raises(DomainError):
        div(Tensor([1.0]), Tensor([0.0]))


def test_exp_rejects_overflow():
    with pytest.raises(DomainError):
        exp(Tensor([1000.0]))


def test_power_domain_errors():
    with pytest.raises(DomainError):
        power(Tensor([-1.0]), Tensor([0.5]))
    with pytest.raises(DomainError):
        power(Tensor([0.0]), Tensor([-1.0]))


def test_matmul_shape_error():
    with pytest.raises(ShapeError) as e:
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert e.value.op == "matmul"


def test_contraction_rejects_mismatched_summed_axis():
    with pytest.raises(ShapeError) as e:
        memory_read(Tensor(np.ones((2, 3, 5))), Tensor(np.ones((2, 4))))
    assert e.value.op == "memory_read"


def test_contraction_rejects_wrong_rank():
    with pytest.raises(ShapeError):
        memory_read(Tensor(np.ones((3, 5))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError) as e:
        transpose(Tensor(np.ones((2, 3, 4))))
    assert e.value.op == "transpose"


def test_concat_shape_error():
    with pytest.raises(ShapeError):
        concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)


def test_circular_conv_shape_errors():
    with pytest.raises(ShapeError):
        circular_convolution(Tensor(np.ones((2, 5))), Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        circular_convolution(Tensor(np.ones(5)), Tensor(np.ones(4)))  # even kernel


# ---------------------------------------------------------------------------
# property tests


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_softmax_is_simplex(values):
    out = softmax(Tensor(values, dtype=np.float64)).data
    assert (out >= 0).all()
    assert abs(out.sum() - 1.0) <= 1e-6


@given(
    st.integers(3, 9),
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_circular_conv_preserves_simplex(size, kernel, seed):
    rng = np.random.default_rng(seed)
    w = rng.random(size) + 1e-3
    w /= w.sum()
    s = np.asarray(kernel, dtype=np.float64) + 1e-3
    s /= s.sum()
    out = circular_convolution(Tensor(w, dtype=np.float64), Tensor(s, dtype=np.float64)).data
    assert (out >= 0).all()
    assert abs(out.sum() - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# gradient checks


def test_gradient_check_square_function():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True, dtype=np.float64)
    err = gradient_check(lambda: reduce_sum(mul(x, x)), [x])
    assert err <= 1e-6


def test_gradient_check_requires_float64():
    x = Tensor([1.0], requires_grad=True, dtype=np.float32)
    with pytest.raises(ValueError):
        gradient_check(lambda: reduce_sum(x), [x])


def test_gradient_check_requires_grad_flag():
    x = Tensor(np.array([1.0]), dtype=np.float64)
    with pytest.raises(ValueError):
        gradient_check(lambda: reduce_sum(x), [x])


def _away_from(values, points, margin=0.05):
    """Nudge entries off the listed non-differentiable points."""
    out = values.copy()
    for p in points:
        near = np.abs(out - p) < margin
        out[near] = p + margin * np.where(out[near] >= p, 1.0, -1.0)
    return out


def _primitive_cases():
    def binary(op):
        def build(rng):
            a, b = _param(rng, 3, 4), _param(rng, 3, 4)
            w = rng.standard_normal((3, 4))
            return lambda: _weighted(op(a, b), w), [a, b]
        return build

    def unary(op):
        def build(rng):
            x = _param(rng, 3, 4)
            w = rng.standard_normal((3, 4))
            return lambda: _weighted(op(x), w), [x]
        return build

    def build_div(rng):
        a = _param(rng, 3, 4)
        b = Tensor(rng.uniform(0.5, 2.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4)),
                   requires_grad=True, dtype=np.float64)
        w = rng.standard_normal((3, 4))
        return lambda: _weighted(div(a, b), w), [a, b]

    def build_add_broadcast(rng):
        a, b = _param(rng, 3, 4), _param(rng, 4)
        w = rng.standard_normal((3, 4))
        return lambda: _weighted(add(a, b), w), [a, b]

    def build_mul_broadcast(rng):
        a, b = _param(rng, 3, 1), _param(rng, 1, 4)
        w = rng.standard_normal((3, 4))
        return lambda: _weighted(mul(a, b), w), [a, b]

    def build_power(rng):
        base = Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True, dtype=np.float64)
        expo = Tensor(rng.uniform(-2.0, 2.0, (3, 4)), requires_grad=True, dtype=np.float64)
        w = rng.standard_normal((3, 4))
        return lambda: _weighted(power(base, expo), w), [base, expo]

    def build_log(rng):
        x = Tensor(rng.uniform(0.5, 3.0, (3, 4)), requires_grad=True, dtype=np.float64)
        w = rng.standard_normal((3, 4))
        return lambda: _weighted(log(x), w), [x]

    def build_matmul(rng):
        a, b = _param(rng, 3, 4), _param(rng, 4, 2)
        w = rng.standard_normal((3, 2))
        return lambda: _weighted(matmul(a, b), w), [a, b]

    def build_concat(rng):
        a, b = _param(rng, 2, 3), _param(rng, 2, 2)
        w = rng.standard_normal((2, 5))
        return lambda: _weighted(concat([a, b], axis=1), w), [a, b]

    def build_slice(rng):
        x = _param(rng, 3, 6)
        w = rng.standard_normal((3, 2))
        return lambda: _weighted(take_slice(x, 1, 2, 4), w), [x]

    def build_reduce_sum(rng):
        x = _param(rng, 3, 4)
        w = rng.standard_normal((3, 1))
        return lambda: _weighted(reduce_sum(x, axis=1, keepdims=True), w), [x]

    def build_reduce_mean(rng):
        x = _param(rng, 3, 4)
        w = rng.standard_normal(4)
        return lambda: _weighted(reduce_mean(x, axis=0), w), [x]

    def build_softmax(rng):
        x = _param(rng, 3, 5)
        w = rng.standard_normal((3, 5))
        return lambda: _weighted(softmax(x), w), [x]

    def build_l2norm(rng):
        x = _param(rng, 3, 4)
        w = rng.standard_normal((3, 1))
        return lambda: _weighted(l2norm(x, axis=1, keepdims=True), w), [x]

    def build_clamp_min(rng):
        vals = _away_from(rng.uniform(-2.0, 2.0, (3, 4)), (0.0,))
        x = Tensor(vals, requires_grad=True, dtype=np.float64)
        w = rng.standard_normal((3, 4))
        return lambda: _weighted(clamp_min(x, 0.0), w), [x]

    def build_transpose(rng):
        x = _param(rng, 3, 4)
        w = rng.standard_normal((4, 3))
        return lambda: _weighted(transpose(x), w), [x]

    def build_memory_read(rng):
        w_t, memory = _param(rng, 2, 3), _param(rng, 2, 3, 4)
        w = rng.standard_normal((2, 4))
        return lambda: _weighted(memory_read(memory, w_t), w), [w_t, memory]

    def build_circular_conv(rng):
        w_t, s_t = _param(rng, 2, 5), _param(rng, 2, 3)
        w = rng.standard_normal((2, 5))
        return lambda: _weighted(circular_convolution(w_t, s_t), w), [w_t, s_t]

    def build_batch_norm(rng):
        x, scale, shift = _param(rng, 5, 4), _param(rng, 4), _param(rng, 4)
        w = rng.standard_normal((5, 4))
        return lambda: _weighted(batch_norm(x, scale, shift)[0], w), [x, scale, shift]

    def build_batchnorm(rng):
        bn = BatchNorm(4, dtype=np.float64)
        x = _param(rng, 5, 4)
        w = rng.standard_normal((5, 4))
        return lambda: _weighted(bn(x), w), [x, bn.scale, bn.shift]

    def positive(rng, *shape, lo=0.2, hi=1.0):
        return Tensor(rng.uniform(lo, hi, shape), requires_grad=True, dtype=np.float64)

    def weighted_sum(op, rng):
        # scalar loss weighting every output of a multi-output op
        ws = [rng.standard_normal(o.shape) for o in op()]

        def f():
            terms = [_weighted(out, w) for out, w in zip(op(), ws)]
            total = terms[0]
            for term in terms[1:]:
                total = add(total, term)
            return total
        return f

    def build_lstm_cell(rng):
        params = [_param(rng, 2, 4), _param(rng, 4, 12), _param(rng, 2, 3), _param(rng, 3, 12),
                  _param(rng, 12), _param(rng, 2, 3)]
        return weighted_sum(lambda: lstm_cell(*params), rng), params

    def build_lstm_cell_shared(rng):
        # one tensor as input, hidden and cell state; the new cell goes unused
        state, bias = _param(rng, 2, 3), _param(rng, 12)
        wx, wh = _param(rng, 3, 12), _param(rng, 3, 12)
        w = rng.standard_normal((2, 3))
        params = [state, wx, wh, bias]
        return lambda: _weighted(lstm_cell(state, wx, state, wh, bias, state)[0], w), params

    def build_head_mlp(write):
        def build(rng):
            k = 3 * 4 + 6 if write else 4 + 6
            params = [_param(rng, 2, 3), _param(rng, 3, 3), _param(rng, 3), _param(rng, 3, k),
                      _param(rng, k)]
            return weighted_sum(lambda: head_mlp(*params, 4, write), rng), params
        return build

    def build_address(rng):
        # rows of norm ~3 keep the cosine's curvature small against the step
        memory = Tensor(2.0 * rng.standard_normal((2, 5, 3)), requires_grad=True, dtype=np.float64)
        key = _param(rng, 2, 3)
        strength, gate = positive(rng, 2, 1, hi=2.0), positive(rng, 2, 1)
        shift, sharpen = positive(rng, 2, 3), positive(rng, 2, 1, lo=1.0, hi=2.0)
        w_prev = positive(rng, 2, 5)
        params = [memory, key, strength, gate, shift, sharpen, w_prev]
        w = rng.standard_normal((2, 5))
        head = HeadParams(key, strength, gate, shift, sharpen)
        return lambda: _weighted(address(memory, head, w_prev), w), params

    def build_memory_write(rng):
        memory, w_t = _param(rng, 2, 4, 3), positive(rng, 2, 4)
        erase, add_vec = positive(rng, 2, 3), _param(rng, 2, 3)
        w = rng.standard_normal((2, 4, 3))
        params = [memory, w_t, erase, add_vec]
        return lambda: _weighted(memory_write(*params), w), params

    def build_memory_write_shared(rng):
        # one tensor as both the erase and the add vector
        memory, w_t, vec = _param(rng, 2, 4, 3), positive(rng, 2, 4), positive(rng, 2, 3)
        w = rng.standard_normal((2, 4, 3))
        return lambda: _weighted(memory_write(memory, w_t, vec, vec), w), [memory, w_t, vec]

    def build_batch_loss(rng):
        preds, tars = _param(rng, 4, 3), _param(rng, 4, 3)
        return lambda: batch_loss(preds, tars), [preds, tars]

    def build_batch_loss_shared(rng):
        # one tensor as both predictions and targets
        x = _param(rng, 4, 3)
        return lambda: batch_loss(x, x), [x]

    return {
        "add": binary(add),
        "add_broadcast": build_add_broadcast,
        "sub": binary(sub),
        "mul": binary(mul),
        "mul_broadcast": build_mul_broadcast,
        "div": build_div,
        "power": build_power,
        "log": build_log,
        "exp": unary(exp),
        "sigmoid": unary(sigmoid),
        "tanh": unary(tanh),
        "softplus": unary(softplus),
        "softmax": build_softmax,
        "matmul": build_matmul,
        "transpose": build_transpose,
        "concat": build_concat,
        "take_slice": build_slice,
        "reduce_sum": build_reduce_sum,
        "reduce_mean": build_reduce_mean,
        "l2norm": build_l2norm,
        "clamp_min": build_clamp_min,
        "memory_read": build_memory_read,
        "circular_convolution": build_circular_conv,
        "batch_loss": build_batch_loss,
        "batch_loss_shared": build_batch_loss_shared,
        "batch_norm": build_batch_norm,
        "batchnorm": build_batchnorm,
        "lstm_cell": build_lstm_cell,
        "lstm_cell_shared": build_lstm_cell_shared,
        "head_mlp_read": build_head_mlp(False),
        "head_mlp_write": build_head_mlp(True),
        "address": build_address,
        "memory_write": build_memory_write,
        "memory_write_shared": build_memory_write_shared,
    }


@pytest.mark.parametrize("name", sorted(_primitive_cases()))
def test_primitive_gradients_match_finite_differences(name):
    build = _primitive_cases()[name]
    for seed in range(10):
        f, params = build(np.random.default_rng(seed))
        err = gradient_check(f, params)
        assert err <= 1e-5, f"{name} seed {seed}: max rel err {err:.3e}"


def _recording_functions(module) -> list[str]:
    """Functions and methods written in ``module`` that record a tape node, by qualified name.

    Private helpers (``autodiff._record`` among them) are left out; special
    methods such as ``__call__`` are not.
    """
    found = []
    for obj in vars(module).values():
        for fn in vars(obj).values() if inspect.isclass(obj) else (obj,):
            name = getattr(fn, "__name__", "")
            if (inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__
                    and not (name.startswith("_") and not name.endswith("__"))
                    and "_record(" in inspect.getsource(fn)):
                found.append(fn.__qualname__)
    return found


def test_every_recording_primitive_has_a_gradcheck_case():
    cases = _primitive_cases()
    recording = [name for module in (autodiff, ntm, retrieval, reference_ops)
                 for name in _recording_functions(module)]
    assert {"memory_read", "lstm_cell", "address", "batch_loss", "circular_convolution",
            "sub"} <= set(recording)
    missing = [name for name in recording
               if not any(key == name or key.startswith(name + "_") for key in cases)]
    assert not missing, f"primitives without a gradcheck case: {missing}"


def test_every_engine_primitive_has_a_caller_in_the_package():
    # a call inside the function's own top-level definition does not count;
    # one inside a class (BatchNorm's calls, LSTMCell.step's) does. A method
    # counts as called by its name, a __call__ by its class's.
    called = set()
    for path in pathlib.Path(autodiff.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    if name != own:
                        called.add(name)
    recording = [name for module in (autodiff, ntm, retrieval)
                 for name in _recording_functions(module)]
    assert {"batch_norm", "lstm_cell", "head_mlp", "address", "batch_loss"} <= set(recording)

    def callee(qualname):
        owner, _, name = qualname.rpartition(".")
        return owner if name == "__call__" else name

    unused = [name for name in recording if callee(name) not in called]
    assert not unused, f"engine primitives only tests call: {unused}"


def test_softmax_cross_entropy_composite_gradient():
    # small classifier loss exercising softmax, log and indexing together
    rng = np.random.default_rng(11)
    w = _param(rng, 4, 3)
    x = Tensor(rng.standard_normal((2, 4)), dtype=np.float64)
    onehot = Tensor(np.eye(3, dtype=np.float64)[[0, 2]])

    def f():
        probs = softmax(matmul(x, w))
        return mul(reduce_sum(mul(log(probs), onehot)), -0.5)

    assert gradient_check(f, [w]) <= 1e-5
