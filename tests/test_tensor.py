"""Tensor engine: forward values, gradients vs central differences, tape contract."""

import ast
import contextlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foleyflow import tensor
from foleyflow.errors import ContractError, ShapeError
from foleyflow.model import ModelConfig, TwoTowerModel
from foleyflow.tensor import (
    ComputationTape,
    Tensor,
    add,
    attention,
    backward,
    concat,
    elementwise,
    gated_residual,
    gather_rows,
    gelu,
    matmul,
    modulated_norm,
    mul,
    no_tape,
    reduce_mean,
    scatter_rows,
    softmax,
    sub,
    transpose,
)

from gradcheck import check_gradients


def _rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def _leaf(shape, seed):
    return Tensor(_rand(shape, seed), requires_grad=True)


# ---------------------------------------------------------------------------
# forward values


def test_tensor_owns_its_buffer():
    src = np.ones((2, 2))
    t = Tensor(src)
    src[0, 0] = 99.0
    assert t.data[0, 0] == 1.0


def test_matmul_value_and_shape_errors():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    assert np.array_equal(matmul(a, b).data, [[17.0], [39.0]])
    with pytest.raises(ShapeError):
        matmul(a, Tensor([[1.0, 2.0]]))
    with pytest.raises(ShapeError):
        matmul(Tensor([1.0, 2.0]), b)


def test_matmul_folds_leading_axes():
    a = Tensor(_rand((2, 3, 4), 20))
    b = Tensor(_rand((4, 5), 21))
    out = matmul(a, b)
    assert out.shape == (2, 3, 5)
    for i in range(2):
        assert np.abs(out.data[i] - a.data[i] @ b.data).max() <= 1e-12
    with pytest.raises(ShapeError):
        matmul(a, Tensor(_rand((2, 4, 5), 22)))


def test_matmul_bias_adds_after_the_product():
    a, b, bias = Tensor(_rand((2, 3, 4), 34)), Tensor(_rand((4, 5), 35)), Tensor(_rand((5,), 36))
    assert np.array_equal(matmul(a, b, bias).data, matmul(a, b).data + bias.data)


def test_matmul_runs_one_row_as_row_0_of_two():
    # one row alone would take BLAS gemv, which rounds unlike gemm
    for seed in range(50):
        for n in (32, 128, 192, 288):
            a, b, bias = _rand((2, 1, 32), seed), _rand((32, n), seed + 100), _rand((n,), seed + 200)
            two = matmul(Tensor(a), Tensor(b), Tensor(bias)).data
            one = matmul(Tensor(a[:1]), Tensor(b), Tensor(bias)).data
            assert one.shape == (1, 1, n)
            assert np.array_equal(one, two[:1]), (seed, n)


def test_gemm_rows_do_not_depend_on_the_row_count():
    """Row i of an m-row product has the bits of row i of a 599-row one,
    for m = 2 to 599 and every (k, n) weight shape of the default model.
    With the 1-row rule of matmul, this is what makes a seed's latent
    independent of its batch. It is a property of the BLAS build, not of
    foleyflow, like the golden digests."""
    params = TwoTowerModel(ModelConfig(), seed=0).parameters()
    shapes = sorted({p.shape for name, p in params.items() if name.endswith(".w")})
    for k, n in shapes:
        a, b = _rand((599, k), k), _rand((k, n), n)
        full = a @ b
        for m in range(2, 599):
            assert np.array_equal(a[:m] @ b, full[:m]), (
                f"rows of a ({m}, {k}) @ ({k}, {n}) product depend on the row count: this BLAS build "
                "breaks batch invariance, so a seed's latent depends on its batch"
            )


def _reference_attention(q, k, v, n_heads, keep):
    """Per-item, per-head softmax(q k^T / sqrt(dh)) v over the kept keys."""
    batch, t_q, d = q.shape
    dh = d // n_heads
    out = np.zeros((batch, t_q, d))
    for b in range(batch):
        kb, vb = k[b][keep[b]], v[b][keep[b]]
        for h in range(n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            scores = q[b][:, cols] @ kb[:, cols].T / np.sqrt(dh)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            out[b][:, cols] = (e / e.sum(axis=-1, keepdims=True)) @ vb[:, cols]
    return out


def test_attention_matches_per_head_reference():
    q, k, v = _rand((2, 3, 4), 23), _rand((2, 5, 4), 24), _rand((2, 5, 4), 25)
    keep = np.array([[True, True, False, True, False], [True, False, False, False, False]])
    out = attention(Tensor(q), Tensor(k), Tensor(v), 2, keep).data
    assert np.abs(out - _reference_attention(q, k, v, 2, keep)).max() <= 1e-12
    # masked keys get exactly zero probability: their values never leak in
    k2, v2 = k.copy(), v.copy()
    k2[~keep], v2[~keep] = 1e6, -1e6
    assert np.array_equal(attention(Tensor(q), Tensor(k2), Tensor(v2), 2, keep).data, out)
    # an item padded with masked keys matches its unpadded self
    alone = attention(Tensor(q[1:]), Tensor(k[1:, :1]), Tensor(v[1:, :1]), 2).data
    assert np.abs(alone[0] - out[1]).max() <= 1e-12


def test_attention_contracts():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        attention(x, Tensor(np.zeros((2, 3, 6))), x, 2)
    with pytest.raises(ShapeError):
        attention(Tensor(np.zeros((3, 4))), x, x, 2)
    with pytest.raises(ContractError):
        attention(x, x, x, 3)
    with pytest.raises(ShapeError):
        attention(x, x, x, 2, np.ones((2, 4), dtype=bool))
    with pytest.raises(ContractError):
        attention(x, x, x, 2, np.array([[True, False, False], [False, False, False]]))


# Reference forward formulas of gelu, attention, modulated_norm,
# gated_residual and biased matmul as plain numpy expressions, each
# temporary a fresh array; the ops must reproduce their bits exactly.


def _gelu_expression(v):
    inner = math.sqrt(2.0 / math.pi) * (v + 0.044715 * (v * v * v))
    t = np.tanh(inner)
    return 0.5 * v * (1.0 + t)


def _split_heads(x, n_heads):
    batch, t, d = x.shape
    return x.reshape(batch, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(xh):
    batch, n_heads, t, dh = xh.shape
    return xh.transpose(0, 2, 1, 3).reshape(batch, t, n_heads * dh)


def _attention_probs(qh, kh, key_mask):
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(qh.shape[-1]))
    if key_mask is not None:
        scores = np.where(key_mask[:, None, None, :], scores, -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _attention_expression(q, k, v, n_heads, key_mask=None):
    qh, kh, vh = (_split_heads(x, n_heads) for x in (q, k, v))
    return _merge_heads(_attention_probs(qh, kh, key_mask) @ vh)


def _modulated_norm_expression(x, mod, i):
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv
    scale1 = mod[..., (3 * i + 1) * d : (3 * i + 2) * d] + 1.0
    return xhat * scale1 + mod[..., 3 * i * d : (3 * i + 1) * d]


def _gated_residual_expression(x, mod, i, y):
    d = x.shape[-1]
    return x + mod[..., (3 * i + 2) * d : (3 * i + 3) * d] * y


def _biased_matmul_expression(a, b, bias):
    a2d = a.reshape(-1, a.shape[-1])
    rows = a2d if len(a2d) > 1 else np.concatenate([a2d, a2d])
    out = (rows @ b)[: len(a2d)].reshape(a.shape[:-1] + (b.shape[1],))
    return out + bias


def _both_ways(call, *arrays):
    """call's output on trainable operands, taped and under no_tape."""
    taped = call(*[Tensor(a, requires_grad=True) for a in arrays]).data
    with no_tape():
        untaped = call(*[Tensor(a, requires_grad=True) for a in arrays]).data
    return taped, untaped


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 8),
    t_q=st.integers(1, 9),
    t_k=st.integers(1, 9),
    heads=st.integers(1, 3),
    dh=st.integers(1, 5),
    magnitude=st.sampled_from([1e-3, 1.0, 40.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_rules_keep_the_bits_of_their_expressions(batch, t_q, t_k, heads, dh, magnitude, seed):
    rng = np.random.default_rng(seed)
    d = heads * dh
    x, y = rng.normal(size=(2, batch, t_q, d)) * magnitude
    x[0, 0] = 3.0  # a zero-variance row
    k, v = rng.normal(size=(2, batch, t_k, d)) * magnitude
    keep = rng.random((batch, t_k)) < 0.6
    keep[np.arange(batch), rng.integers(0, t_k, batch)] = True
    expected = {
        "gelu": (_gelu_expression(x), _both_ways(gelu, x)),
        "gelu 0-d": (_gelu_expression(x[-1, -1, -1]), _both_ways(gelu, x[-1, -1, -1])),
        "attention": (_attention_expression(x, k, v, heads), _both_ways(lambda *o: attention(*o, heads), x, k, v)),
        "attention masked": (
            _attention_expression(x, k, v, heads, keep),
            _both_ways(lambda *o: attention(*o, heads, keep), x, k, v),
        ),
    }
    for mods in ((batch, 1, 9 * d), (1, 1, 9 * d)):  # per item and shared
        mod = rng.normal(size=mods)
        for i in range(3):
            expected[f"modulated_norm {mods} {i}"] = (
                _modulated_norm_expression(x, mod, i),
                _both_ways(lambda a, m: modulated_norm(a, m, i), x, mod),
            )
            expected[f"gated_residual {mods} {i}"] = (
                _gated_residual_expression(x, mod, i, y),
                _both_ways(lambda a, m, c: gated_residual(a, m, i, c), x, mod, y),
            )
    w, bias = rng.normal(size=(d, 4 * d)), rng.normal(size=4 * d)
    for name, a in (("matmul one row", x[:1, :1]), ("matmul rows", x)):
        expected[name] = (_biased_matmul_expression(a, w, bias), _both_ways(matmul, a, w, bias))
    for name, (want, (taped, untaped)) in expected.items():
        # an op's output is at least 1-D
        assert np.array_equal(taped, np.atleast_1d(want)), name
        assert np.array_equal(untaped, np.atleast_1d(want)), name


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 4),
    t_q=st.integers(1, 5),
    t_k=st.integers(1, 6),
    heads=st.integers(1, 3),
    dh=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_attention_row_max_keeps_the_bits_of_the_old_expression(batch, t_q, t_k, heads, dh, seed):
    # operands from a few small values, signed zeros among them, so scores
    # tie, a row's max can be -0.0 or +0.0, and masked keys are -inf
    rng = np.random.default_rng(seed)
    values = np.array([-2.0, -1.0, -0.0, 0.0, 0.0, 1.0, 3.0])
    q, k, v = (rng.choice(values, size=(batch, t, heads * dh)) for t in (t_q, t_k, t_k))
    keep = rng.random((batch, t_k)) < 0.5
    keep[np.arange(batch), rng.integers(0, t_k, batch)] = True
    for mask in (None, keep):
        want = _attention_expression(q, k, v, heads, mask)
        for got in _both_ways(lambda *o: attention(*o, heads, mask), q, k, v):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


# Reference backward formulas of gelu, modulated_norm and attention as
# plain numpy expressions, each temporary a fresh array; the rules'
# in-place rewrites must reproduce their bits exactly, signed zeros
# included.


def _gelu_backward_expression(v, g):
    t = np.tanh(math.sqrt(2.0 / math.pi) * (v + 0.044715 * (v * v * v)))
    dinner = math.sqrt(2.0 / math.pi) * (1.0 + 3.0 * 0.044715 * v * v)
    local = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner
    return g * local


def _modulated_norm_backward_expression(x, mod, i, g):
    d = x.shape[-1]
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = centered * inv
    shift_at, scale_at = slice(3 * i * d, (3 * i + 1) * d), slice((3 * i + 1) * d, (3 * i + 2) * d)
    dxhat = g * (mod[..., scale_at] + 1.0)
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    axes = tuple(a for a, n in enumerate(mod.shape[:-1]) if n == 1 and x.shape[a] != 1)
    dmod = np.zeros(mod.shape)
    # a sum over no axes would turn -0.0 into +0.0
    dmod[..., shift_at] = g.sum(axis=axes, keepdims=True) if axes else g
    dmod[..., scale_at] = (g * xhat).sum(axis=axes, keepdims=True) if axes else g * xhat
    return dx, dmod


def _attention_backward_expression(q, k, v, n_heads, key_mask, g):
    qh, kh, vh, gh = (_split_heads(x, n_heads) for x in (q, k, v, g))
    probs = _attention_probs(qh, kh, key_mask)
    scale = 1.0 / math.sqrt(qh.shape[-1])
    dv = probs.transpose(0, 1, 3, 2) @ gh
    dp = gh @ vh.transpose(0, 1, 3, 2)
    ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True)) * scale
    return _merge_heads(ds @ kh), _merge_heads(ds.transpose(0, 1, 3, 2) @ qh), _merge_heads(dv)


def _same_bits(got, want) -> bool:
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(1, 5), min_size=0, max_size=3).map(tuple),
    scale=st.sampled_from([1e-3, 1e-1, 1.0, 10.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gelu_backward_keeps_the_bits_of_its_expression(shape, scale, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=shape) * scale
    out = gelu(Tensor(v, requires_grad=True))
    g = rng.normal(size=out.shape) * scale
    (got,) = out._backward(g)
    assert _same_bits(got, _gelu_backward_expression(v, g).reshape(out.shape))


@settings(max_examples=60, deadline=None)
@given(
    x_shape=st.lists(st.integers(1, 5), min_size=2, max_size=3).map(tuple),
    shared=st.lists(st.booleans(), min_size=2, max_size=2),
    i=st.integers(0, 2),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_modulated_norm_backward_keeps_the_bits_of_its_expression(x_shape, shared, i, scale, seed):
    rng = np.random.default_rng(seed)
    mod_shape = tuple(1 if s else n for s, n in zip(shared, x_shape[:-1])) + (9 * x_shape[-1],)
    x, g = rng.normal(size=(2,) + x_shape) * scale
    x[(0,) * (len(x_shape) - 1)] = 3.0  # a zero-variance row
    mod = rng.normal(size=mod_shape)
    out = modulated_norm(Tensor(x, requires_grad=True), Tensor(mod, requires_grad=True), i)
    for got, want in zip(out._backward(g), _modulated_norm_backward_expression(x, mod, i, g)):
        assert _same_bits(got, want)


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 3),
    t_q=st.integers(1, 4),
    t_k=st.sampled_from([1, 2, 3, 32]),
    heads=st.integers(1, 3),
    dh=st.integers(1, 3),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_attention_backward_keeps_the_bits_of_its_expression(batch, t_q, t_k, heads, dh, ties, seed):
    # ties draws every operand from a few small values, signed zeros among
    # them, so probabilities tie and gradient terms cancel to signed zeros
    rng = np.random.default_rng(seed)
    d = heads * dh
    shapes = ((batch, t_q, d), (batch, t_k, d), (batch, t_k, d), (batch, t_q, d))
    if ties:
        q, k, v, g = (rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0], size=s) for s in shapes)
    else:
        q, k, v, g = (rng.normal(size=s) for s in shapes)
    keep = rng.random((batch, t_k)) < 0.5
    keep[np.arange(batch), rng.integers(0, t_k, batch)] = True
    for mask in (None, keep):
        out = attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)), heads, mask)
        got = out._backward(g)
        want = _attention_backward_expression(q, k, v, heads, mask, g)
        assert len(got) == len(want) == 3
        for name, a, b in zip("qkv", got, want):
            assert _same_bits(a, b), name


def test_gather_and_scatter_rows_values():
    x = Tensor(_rand((4, 2, 3), 26))
    picked = gather_rows(x, [3, 1])
    assert np.array_equal(picked.data, x.data[[3, 1]])
    base = Tensor(_rand((4, 2, 3), 27))
    placed = scatter_rows(picked, [0, 2], base)
    assert np.array_equal(placed.data[[0, 2]], x.data[[3, 1]])
    assert np.array_equal(placed.data[[1, 3]], base.data[[1, 3]])
    assert np.array_equal(base.data, _rand((4, 2, 3), 27))  # operands untouched
    # rows are integers in range, distinct for scatter_rows; floats and bools are not rows
    bad = ([], [4], [-1], [0.7, 2.2], [1.0, 2.0], [True, False], [1, True], np.array([True, False]), ["1", "2"])
    for rows in bad:
        with pytest.raises(ContractError):
            gather_rows(x, rows)
        with pytest.raises(ContractError):
            scatter_rows(picked, rows, base)
    with pytest.raises(ContractError, match="distinct"):
        scatter_rows(picked, [1, 1], base)
    for rows in ((np.int64(3), np.int32(1)), np.array([3, 1], dtype=np.uint8)):
        assert np.array_equal(gather_rows(x, rows).data, picked.data)
        assert np.array_equal(scatter_rows(picked, rows, base).data[[3, 1]], picked.data)
    with pytest.raises(ShapeError):
        scatter_rows(picked, [0, 1, 2], base)  # row count
    with pytest.raises(ShapeError):
        scatter_rows(picked, [0, 1], Tensor(np.zeros((4, 2, 4))))  # trailing shape


def test_repeat_rows_values():
    # gather_rows may name an item more than once: it also repeats rows
    x = Tensor(_rand((3, 2, 4), 28))
    assert np.array_equal(gather_rows(x, [2, 0, 2, 2]).data, x.data[[2, 0, 2, 2]])
    assert np.array_equal(gather_rows(x, np.arange(6) % 3).data, np.concatenate([x.data] * 2))
    for rows in ([], [3], [-1], [0.0, 1.0], [True, False], [0, True], ["1"]):
        with pytest.raises(ContractError):
            gather_rows(x, rows)


def test_gather_rows_gradient_sums_the_copies():
    x = _leaf((3, 2), 29)
    w = Tensor(_rand((5, 2), 30))
    backward(reduce_mean(gather_rows(x, [1, 0, 1, 1, 0]) * w) * Tensor(10.0))
    want = np.stack([w.data[1] + w.data[4], w.data[0] + w.data[2] + w.data[3], np.zeros(2)])
    assert np.array_equal(x.grad, want)


def test_add_broadcasts_row_vector():
    x = Tensor(np.zeros((3, 2)))
    b = Tensor([1.0, 2.0])
    out = x + b
    assert out.shape == (3, 2)
    assert np.array_equal(out.data, np.tile([1.0, 2.0], (3, 1)))


def test_incompatible_broadcast_raises():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((3, 2))) + Tensor(np.zeros((2, 3)))


def test_elementwise_dispatch():
    a, b = Tensor([2.0]), Tensor([3.0])
    assert elementwise("add", a, b).item() == 5.0
    assert elementwise("sub", a, b).item() == -1.0
    assert elementwise("mul", a, b).item() == 6.0
    with pytest.raises(ContractError):
        elementwise("div", a, b)


def test_scalar_operators():
    x = Tensor([1.0, 2.0])
    assert np.array_equal((x * 2.0).data, [2.0, 4.0])
    assert np.array_equal((x + 1.0).data, [2.0, 3.0])


def test_concat_and_narrow_roundtrip():
    a = _leaf((2, 3), 0)
    b = _leaf((2, 2), 1)
    joined = concat(a, b)
    assert joined.shape == (2, 5)
    assert np.array_equal(joined.data[:, :3], a.data)
    assert np.array_equal(joined.data[:, 3:], b.data)
    with pytest.raises(ShapeError):
        concat(a, Tensor(np.zeros((3, 2))))


def test_transpose_value():
    x = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(transpose(x).data, x.data.T)
    with pytest.raises(ShapeError):
        transpose(Tensor([1.0, 2.0]))


def test_softmax_rows_sum_to_one_and_shift_invariance():
    x = Tensor([[1.0, 2.0, 3.0], [1000.0, 1000.0, 1000.0]])
    s = softmax(x).data
    assert np.allclose(s.sum(axis=-1), 1.0)
    assert np.allclose(s[1], 1.0 / 3.0)
    shifted = softmax(Tensor(x.data + 500.0)).data
    assert np.allclose(s, shifted)


def test_layer_norm_output_statistics():
    # a zero modulation leaves modulated_norm's plain layer norm
    x = _leaf((4, 8), 2)
    out = modulated_norm(x, Tensor(np.zeros((1, 24))), 0)
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    # biased variance with eps pulls the norm slightly under 1
    assert np.all(out.data.std(axis=-1) < 1.0)
    assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)


def test_layer_norm_zero_variance_row_is_finite():
    x = Tensor(np.full((1, 4), 7.0))
    out = modulated_norm(x, Tensor(np.zeros((1, 12))), 0)
    assert np.allclose(out.data, 0.0)


def test_layer_norm_shape_error():
    # the modulation's leading axes must broadcast over the input's
    with pytest.raises(ShapeError):
        modulated_norm(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 12))), 0)
    with pytest.raises(ShapeError):
        modulated_norm(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 12))), 0)


def test_fused_op_shape_errors():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        matmul(x, Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))
    # sublayer i's norm reads chunks 3i and 3i+1, its gate chunk 3i+2; each width is one chunk short
    for i, width in ((0, 4), (1, 16), (2, 28)):
        with pytest.raises(ShapeError):
            modulated_norm(x, Tensor(np.zeros((2, 1, width))), i)
    for i, width in ((0, 8), (1, 20), (2, 32)):
        with pytest.raises(ShapeError):
            gated_residual(x, Tensor(np.zeros((2, 1, width))), i, x)
    with pytest.raises(ShapeError):
        gated_residual(x, Tensor(np.zeros((2, 1, 12))), 0, Tensor(np.zeros((2, 1, 4))))


def test_modulated_sublayer_values():
    x, mod, y = _rand((2, 3, 4), 37), _rand((2, 1, 24), 38), _rand((2, 3, 4), 39)
    xhat = (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    for i in (0, 1):
        shift, scale, gate = (mod[..., 4 * j : 4 * (j + 1)] for j in range(3 * i, 3 * i + 3))
        norm = modulated_norm(Tensor(x), Tensor(mod), i).data
        assert np.abs(norm - (xhat * (1.0 + scale) + shift)).max() <= 1e-12
        assert np.array_equal(gated_residual(Tensor(x), Tensor(mod), i, Tensor(y)).data, x + gate * y)


def test_gelu_fixed_points():
    x = Tensor([0.0, 100.0, -100.0])
    out = gelu(x).data
    assert out[0] == 0.0
    assert np.isclose(out[1], 100.0)
    assert np.isclose(out[2], 0.0, atol=1e-12)


def test_reductions():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert reduce_mean(x).item() == 2.5
    with pytest.raises(ContractError):
        x.item()


# ---------------------------------------------------------------------------
# gradients


def test_matmul_gradients():
    a, b = _leaf((3, 4), 3), _leaf((4, 2), 4)
    check_gradients(lambda: reduce_mean(matmul(a, b) * matmul(a, b)), {"a": a, "b": b})


def test_binary_op_gradients_with_broadcast():
    x = _leaf((3, 4), 5)
    bias = _leaf((4,), 6)
    check_gradients(lambda: reduce_mean((x + bias) * (x - bias) * bias), {"x": x, "bias": bias})


def test_concat_narrow_transpose_gradients():
    a, b = _leaf((2, 3), 7), _leaf((2, 2), 8)
    # fixed selection matrices pick columns [1, 4) and [0, 3) of the join
    cols_1_4, cols_0_3 = Tensor(np.eye(5)[:, 1:4]), Tensor(np.eye(5)[:, 0:3])

    def loss():
        j = concat(a, b)
        return reduce_mean(matmul(matmul(j, cols_1_4), transpose(matmul(j, cols_0_3))))

    check_gradients(loss, {"a": a, "b": b})


def test_matmul_skips_the_product_for_an_operand_without_gradient():
    # a constant a gets no dA product; b's and the bias's gradients keep their bits
    a_data, b, bias = _rand((3, 5, 4), 90), _leaf((4, 6), 91), _leaf((6,), 92)
    grads = []
    for a in (Tensor(a_data, requires_grad=True), Tensor(a_data)):
        b.grad = bias.grad = None
        backward(reduce_mean(gelu(matmul(a, b, bias))))
        grads.append((a.grad, b.grad, bias.grad))
    (a_grad, b_taped, bias_taped), (a_const, b_const, bias_const) = grads
    assert a_grad is not None and a_const is None
    assert np.array_equal(b_const, b_taped) and np.array_equal(bias_const, bias_taped)


def test_matmul_3d_gradients():
    a, b = _leaf((2, 3, 4), 17), _leaf((4, 2), 18)
    check_gradients(lambda: reduce_mean(matmul(a, b) * matmul(a, b)), {"a": a, "b": b})


def test_matmul_bias_gradients():
    b, bias = _leaf((4, 2), 41), _leaf((2,), 42)
    for a_shape in ((3, 4), (2, 3, 4)):
        a = _leaf(a_shape, 40)
        w = Tensor(_rand(a_shape[:-1] + (2,), 43))
        check_gradients(lambda: reduce_mean(matmul(a, b, bias) * w), {"a": a, "b": b, "bias": bias})


def test_attention_gradients():
    # B > 1, Tq != Tk, and a mask that hides at least one key per item
    q, k, v = _leaf((2, 3, 4), 27), _leaf((2, 5, 4), 28), _leaf((2, 5, 4), 29)
    w = Tensor(_rand((2, 3, 4), 30))
    keep = np.array([[True, False, True, True, False], [False, True, True, False, True]])
    check_gradients(lambda: reduce_mean(attention(q, k, v, 2, keep) * w), {"q": q, "k": k, "v": v})


def test_gather_and_scatter_rows_gradients():
    # x reaches the output through both operands of scatter_rows
    x, y, base = _leaf((4, 2, 3), 31), _leaf((2, 2, 3), 32), _leaf((4, 2, 3), 34)
    w = Tensor(_rand((4, 2, 3), 33))
    check_gradients(
        lambda: reduce_mean(scatter_rows(gather_rows(x, [2, 0]) * y, [1, 3], x * base) * w),
        {"x": x, "y": y, "base": base},
    )


def test_softmax_gradients():
    x = _leaf((3, 5), 9)
    w = _leaf((5,), 10)
    check_gradients(lambda: reduce_mean(softmax(x) * w), {"x": x, "w": w})


def test_gelu_gradients():
    x = _leaf((4, 4), 11)
    check_gradients(lambda: reduce_mean(gelu(x) * gelu(x)), {"x": x})


def test_layer_norm_gradients():
    # modulated_norm, with a (B, 1, 9d) modulation broadcast over T as a
    # three-sublayer block uses it, for each sublayer's chunks
    x = _leaf((2, 3, 4), 12)
    mod = _leaf((2, 1, 36), 13)
    w = Tensor(_rand((2, 3, 4), 15))
    for i in range(3):
        check_gradients(lambda: reduce_mean(modulated_norm(x, mod, i) * w), {"x": x, "mod": mod})


def test_gated_residual_gradients():
    x, y = _leaf((2, 3, 4), 44), _leaf((2, 3, 4), 45)
    mod = _leaf((2, 1, 36), 46)
    w = Tensor(_rand((2, 3, 4), 47))
    for i in range(3):
        check_gradients(lambda: reduce_mean(gated_residual(x, mod, i, y) * w), {"x": x, "mod": mod, "y": y})


def test_mean_gradient_is_uniform():
    x = _leaf((2, 5), 16)
    loss = reduce_mean(x)
    backward(loss)
    assert np.allclose(x.grad, 0.1)


def test_gradient_accumulation_within_one_graph():
    x = _leaf((2, 2), 19)
    loss = reduce_mean(x * x + x * x)
    backward(loss)
    assert np.allclose(x.grad, 4.0 * x.data / x.size)


def _dims(draw, n_min, n_max, hi=3) -> tuple:
    return tuple(draw(st.integers(1, hi)) for _ in range(draw(st.integers(n_min, n_max))))


def _weighted(draw, out_shape, **tensors):
    """The op's inputs as fresh leaves, and a loss that weights each output
    entry differently, so no gradient entry cancels against another."""
    seed = draw(st.integers(0, 2**16))
    leaves = {name: _leaf(shape, seed + i) for i, (name, shape) in enumerate(tensors.items())}
    return leaves, Tensor(_rand(out_shape, seed + len(leaves)))


def _binary_case(op):
    def case(draw):
        shape = _dims(draw, 1, 3)
        # the other operand drops leading axes and sets some others to 1;
        # either may come first
        other = tuple(1 if draw(st.booleans()) else n for n in shape[draw(st.integers(0, len(shape) - 1)):])
        a_shape, b_shape = (shape, other) if draw(st.booleans()) else (other, shape)
        t, w = _weighted(draw, np.broadcast_shapes(a_shape, b_shape), a=a_shape, b=b_shape)
        return lambda: reduce_mean(op(t["a"], t["b"]) * w), t

    return case


def _matmul_case(draw):
    lead, (m, k, n) = _dims(draw, 0, 2), _dims(draw, 3, 3)  # m = 1 takes matmul's one-row path
    shapes = dict(a=lead + (m, k), b=(k, n)) | (dict(bias=(n,)) if draw(st.booleans()) else {})
    t, w = _weighted(draw, lead + (m, n), **shapes)
    return lambda: reduce_mean(matmul(t["a"], t["b"], t.get("bias")) * w), t


def _concat_case(draw):
    lead, (da, db) = _dims(draw, 0, 2), _dims(draw, 2, 2)
    t, w = _weighted(draw, lead + (da + db,), a=lead + (da,), b=lead + (db,))
    return lambda: reduce_mean(concat(t["a"], t["b"]) * w), t


def _transpose_case(draw):
    rows, cols = _dims(draw, 2, 2)
    t, w = _weighted(draw, (cols, rows), x=(rows, cols))
    return lambda: reduce_mean(transpose(t["x"]) * w), t


def _unary_case(op, n_min):
    def case(draw):
        shape = _dims(draw, n_min, 3)
        t, w = _weighted(draw, shape, x=shape)
        return lambda: reduce_mean(op(t["x"]) * w), t

    return case


def _modulated_case(draw, op):
    """x of (..., d) and a mod whose leading axes are each 1 or x's, with i's
    chunks of width d in its last axis."""
    x_shape, i = _dims(draw, 2, 3), draw(st.integers(0, 2))
    mod_shape = tuple(draw(st.sampled_from([1, n])) for n in x_shape[:-1]) + (3 * x_shape[-1] * (i + 1),)
    if op is modulated_norm:
        t, w = _weighted(draw, x_shape, x=x_shape, mod=mod_shape)
        return lambda: reduce_mean(modulated_norm(t["x"], t["mod"], i) * w), t
    t, w = _weighted(draw, x_shape, x=x_shape, mod=mod_shape, y=x_shape)
    return lambda: reduce_mean(gated_residual(t["x"], t["mod"], i, t["y"]) * w), t


def _attention_case(draw):
    batch, t_q, t_k, heads, dh = _dims(draw, 5, 5)
    keep = None
    if draw(st.booleans()):  # hide some keys, but never all of an item's
        keep = np.array(draw(st.lists(st.booleans(), min_size=batch * t_k, max_size=batch * t_k))).reshape(batch, t_k)
        keep[np.arange(batch), draw(st.integers(0, t_k - 1))] = True
    q_shape, kv_shape = (batch, t_q, heads * dh), (batch, t_k, heads * dh)
    t, w = _weighted(draw, q_shape, q=q_shape, k=kv_shape, v=kv_shape)
    return lambda: reduce_mean(attention(t["q"], t["k"], t["v"], heads, keep) * w), t


def _rows_case(op):
    def case(draw):
        (n,), rest = _dims(draw, 1, 1, hi=4), _dims(draw, 0, 2)
        rows = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
        if op is gather_rows:
            t, w = _weighted(draw, (len(rows),) + rest, x=(n,) + rest)
            return lambda: reduce_mean(gather_rows(t["x"], rows) * w), t
        t, w = _weighted(draw, (n,) + rest, x=(len(rows),) + rest, base=(n,) + rest)
        return lambda: reduce_mean(scatter_rows(t["x"], rows, t["base"]) * w), t

    return case


def _repeated_rows_case(draw):
    # the first row comes again at the end, and some rows of x may go unread
    (n,), rest = _dims(draw, 1, 1, hi=4), _dims(draw, 0, 2)
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    rows.append(rows[0])
    t, w = _weighted(draw, (len(rows),) + rest, x=(n,) + rest)
    return lambda: reduce_mean(gather_rows(t["x"], rows) * w), t


def _mean_case(draw):
    shape = _dims(draw, 0, 3)
    t, _ = _weighted(draw, (), x=shape)
    return lambda: reduce_mean(t["x"]), t


# every op that records a tape node, and how to draw a loss through it;
# a key's first word is the op
_GRADIENT_CASES = {
    "add": _binary_case(add),
    "sub": _binary_case(sub),
    "mul": _binary_case(mul),
    "matmul": _matmul_case,
    "concat": _concat_case,
    "transpose": _transpose_case,
    "softmax": _unary_case(softmax, 1),
    "gelu": _unary_case(gelu, 0),
    "modulated_norm": lambda draw: _modulated_case(draw, modulated_norm),
    "gated_residual": lambda draw: _modulated_case(draw, gated_residual),
    "attention": _attention_case,
    "gather_rows": _rows_case(gather_rows),
    "gather_rows repeated": _repeated_rows_case,
    "scatter_rows": _rows_case(scatter_rows),
    "reduce_mean": _mean_case,
}


def test_gradient_cases_cover_every_tape_op():
    tree = ast.parse(inspect.getsource(tensor))
    taping = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_from_op" for c in ast.walk(node))
    }
    assert taping == {case.split()[0] for case in _GRADIENT_CASES}


@pytest.mark.parametrize("op", sorted(_GRADIENT_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_tape_op_backward_matches_central_differences(op, data):
    build_loss, tensors = _GRADIENT_CASES[op](data.draw)
    check_gradients(build_loss, tensors)


# ---------------------------------------------------------------------------
# tape contract


def test_trace_orders_parents_before_children():
    x = _leaf((2, 2), 20)
    y = x * x
    z = y + x
    loss = reduce_mean(z)
    tape = ComputationTape.trace(loss)
    pos = {id(n): i for i, n in enumerate(tape.nodes)}
    for node in tape.nodes:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]
    assert tape.nodes[-1] is loss


def test_accumulation_leaves_a_shared_gradient_view_alone():
    # add's backward hands x and y views of one array; x's second use then
    # adds to x.grad, which must not write through to y.grad
    x, y = _leaf((2, 3), 93), _leaf((2, 3), 94)
    s = add(x, y)
    loss = reduce_mean(s * s + x * 3.0)
    backward(loss)
    g = 1.0 / x.size  # the mean's gradient
    assert np.array_equal(y.grad, 2.0 * (g * s.data))
    assert np.allclose(x.grad, g * (2.0 * (x.data + y.data) + 3.0), rtol=0, atol=1e-12)


def test_backward_requires_scalar():
    x = _leaf((2, 2), 21)
    with pytest.raises(ContractError):
        backward(x * x)


def test_backward_requires_graph():
    with pytest.raises(ContractError):
        backward(Tensor(1.0, requires_grad=True))


def test_graph_is_single_use():
    x = _leaf((2,), 22)
    loss = reduce_mean(x * x)
    backward(loss)
    with pytest.raises(ContractError):
        backward(loss)


def test_no_grad_leaves_are_skipped():
    x = _leaf((2, 2), 23)
    c = Tensor(np.ones((2, 2)))
    loss = reduce_mean(x * c)
    backward(loss)
    assert c.grad is None
    assert np.allclose(x.grad, 1.0 / x.size)


def _model_op_calls(rng):
    """One call of every tensor op, as (name, operands, call) triples; mod is
    a (1, 1, 9d) row shared by the batch, as a sampler's time path row is."""
    b, t, d = 3, 4, 6
    x, y = rng.normal(size=(b, t, d)), rng.normal(size=(b, t, d))
    kv = rng.normal(size=(b, 5, d))
    mod = rng.normal(size=(1, 1, 9 * d))
    w, bias, w2 = rng.normal(size=(d, 2 * d)), rng.normal(size=2 * d), rng.normal(size=(t, t))
    keep = np.array([[True, False, True, True, False], [False, False, True, False, False], [True] * 5])
    one = rng.normal(size=(1, 1, d))
    return [
        ("matmul", (x, w, bias), matmul),
        ("matmul one row", (one, w, bias), matmul),
        ("matmul no bias", (x, w), matmul),
        ("add", (x, y[0]), add),
        ("sub", (x, y), sub),
        ("mul", (x, y), mul),
        ("elementwise", (x, y), lambda a, c: elementwise("mul", a, c)),
        ("concat", (x, y), concat),
        ("transpose", (w2,), transpose),
        ("modulated_norm", (x, mod), lambda a, m: modulated_norm(a, m, 2)),
        ("gated_residual", (x, mod, y), lambda a, m, c: gated_residual(a, m, 1, c)),
        ("gated_residual on itself", (x, mod), lambda a, m: gated_residual(a, m, 0, a)),
        ("softmax", (x,), softmax),
        ("gelu", (x,), gelu),
        ("attention", (x, y, y), lambda q, k, v: attention(q, k, v, 2)),
        ("attention masked", (x, kv, kv), lambda q, k, v: attention(q, k, v, 3, keep)),
        ("gather_rows", (x,), lambda a: gather_rows(a, [2, 0])),
        ("gather_rows repeated", (x,), lambda a: gather_rows(a, [2, 0, 2])),
        ("scatter_rows", (y[:2], x), lambda a, c: scatter_rows(a, [2, 0], c)),
        ("reduce_mean", (x,), reduce_mean),
    ]


def test_ops_do_not_mutate_operands():
    # every op, taped (operands checked after the forward and after the
    # backward) and under no_tape (after the forward)
    rng = np.random.default_rng(24)
    for taped in (True, False):
        for name, arrays, call in _model_op_calls(rng):
            operands = [Tensor(a, requires_grad=True) for a in arrays]
            with contextlib.nullcontext() if taped else no_tape():
                out = call(*operands)
            for op, a in zip(operands, arrays):
                assert np.array_equal(op.data, a), (name, taped)
            if taped:
                backward(reduce_mean(out * Tensor(rng.normal(size=out.shape))))
                for op, a in zip(operands, arrays):
                    assert np.array_equal(op.data, a), (name, taped)


def _taping() -> bool:
    """Whether an op on a trainable leaf records itself on the tape."""
    return (Tensor(1.0, requires_grad=True) * Tensor(2.0)).requires_grad


def test_no_tape_records_nothing_and_keeps_the_values():
    x = _leaf((2, 3), 25)
    w = _leaf((3, 4), 26)
    taped = gelu(matmul(x, w)) * x.data.sum()
    with no_tape():
        out = gelu(matmul(x, w)) * x.data.sum()
    assert out._parents == () and out._backward is None
    assert out.requires_grad is False
    assert np.array_equal(out.data, taped.data)
    with pytest.raises(ContractError):
        backward(reduce_mean(out))
    with no_tape():
        loss = reduce_mean(x * x)
    with pytest.raises(ContractError):
        backward(loss)
    assert x.grad is None and w.grad is None


def test_no_tape_nests_and_restores_after_an_exception():
    assert _taping()
    with no_tape():
        with no_tape():
            assert not _taping()
        assert not _taping()  # leaving the inner block keeps the outer one
    assert _taping()
    with pytest.raises(ShapeError):
        with no_tape():
            matmul(_leaf((2, 3), 27), _leaf((4, 2), 28))
    assert _taping()
    x = _leaf((2,), 29)
    backward(reduce_mean(x * x))
    assert np.array_equal(x.grad, 2.0 * x.data / x.size)
