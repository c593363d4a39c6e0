"""Layer graph, quantizer placement, losses, and the training loop."""

import re
import time
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import dfp.training
import reference
from dfp.experiments import _conv_oracle_f64, run_training
from dfp.kernels import ConvSpec
from dfp.layers import (BatchNorm, Conv, Dense, MaxPool, AvgPool, Model,
                        Quantizers, ReLU, Residual, RunContext, to_fp32)
from dfp.tensor import DfpTensor, Nearest, QuantConfig, dequantize, quantize
from dfp.training import (TrainingDivergence, build_model,
                          evaluate, lr_at, make_policy, make_quantizers, mse,
                          parse_config, sgd_step, softmax_xent, train_loop)

# === helpers ===


def record_quantize_events(monkeypatch) -> list:
    """(kind, layer, tensor id) of each quantize call any Quantizers makes
    from now on, in call order."""
    events = []
    apply = Quantizers._apply

    def spy(self, kind, layer, values):
        events.append((kind, layer, self._tid(layer, kind)))
        return apply(self, kind, layer, values)

    monkeypatch.setattr(Quantizers, "_apply", spy)
    return events


def make_ctx(pre_shift=1):
    cfg = QuantConfig(16, Nearest(), pre_shift)
    return RunContext(q=Quantizers(cfg))


MLP_CFG = {
    "layers": [{"type": "fc", "out_features": 8, "precision": "fp32"},
               {"type": "relu"},
               {"type": "fc", "out_features": 2, "precision": "fp32"}],
    "loss": "softmax_xent", "epochs": 2, "batch_size": 8, "base_lr": 0.1,
}


# === quantizer placement ===


def test_boundary_plan_quantizes_each_boundary_once(monkeypatch):
    cfg = parse_config({"layers": [
        {"type": "conv", "out_ch": 8, "kernel": 3, "pad": 1},
        {"type": "relu"},
        {"type": "maxpool", "kernel": 2},
        {"type": "conv", "out_ch": 8, "kernel": 3, "pad": 1},
        {"type": "flatten"},
        {"type": "fc", "out_features": 3}], "loss": "mse"})
    q = make_quantizers(cfg, seed=7)
    ctx = RunContext(q=q)
    rng = np.random.default_rng(7)
    model = build_model(cfg, (4, 8, 8), ctx, rng)
    x = rng.standard_normal((4, 4, 8, 8)).astype(np.float32)
    events = record_quantize_events(monkeypatch)
    trace = []
    out = model.forward(x, train=True, trace=trace)

    acts = dict(trace)
    # values cross into integer form exactly once per fp32->dfp boundary:
    # at the first conv input and after each deferred relu/producer output
    q_a = [(name, _) for kind, name, _ in events if kind == "q_a"
           for _ in [0]]
    assert [n for n, _ in q_a] == ["conv1", "relu1.out", "conv2.out"]
    assert isinstance(acts["conv1"], np.ndarray)        # deferred past relu
    assert isinstance(acts["relu1"], DfpTensor)
    assert isinstance(acts["pool1"], DfpTensor)          # pooling on ints
    assert isinstance(acts["conv2"], DfpTensor)
    assert isinstance(acts["flatten1"], DfpTensor)       # fc consumes ints
    assert isinstance(out, np.ndarray)

    # error path: one q_e per integer layer, none elsewhere
    events.clear()
    model.backward(np.ones_like(out))
    q_e = [name for kind, name, _ in events if kind == "q_e"]
    assert sorted(q_e) == ["conv1", "conv2", "fc1"]
    assert all(kind == "q_e" for kind, _, _ in events)


def test_fp32_mode_never_quantizes(monkeypatch):
    cfg = parse_config({"layers": [
        {"type": "conv", "out_ch": 8, "kernel": 3, "pad": 1},
        {"type": "relu"},
        {"type": "flatten"},
        {"type": "fc", "out_features": 3}], "loss": "mse"})
    events = record_quantize_events(monkeypatch)
    ctx = RunContext(q=make_quantizers(cfg, seed=3))
    model = build_model(cfg, (4, 6, 6), ctx, np.random.default_rng(3),
                        precision="fp32")
    x = np.random.default_rng(4).standard_normal((2, 4, 6, 6)).astype(np.float32)
    out = model.forward(x, train=True)
    model.backward(np.ones_like(out))
    assert events == []


def test_tensor_ids_unique_per_iteration(monkeypatch):
    cfg = parse_config({"layers": [
        {"type": "conv", "out_ch": 8, "kernel": 3, "pad": 1},
        {"type": "relu"},
        {"type": "flatten"},
        {"type": "fc", "out_features": 3}], "loss": "mse",
        "rounding": "stochastic"})
    q = make_quantizers(cfg, seed=9)
    ctx = RunContext(q=q)
    events = record_quantize_events(monkeypatch)
    model = build_model(cfg, (4, 6, 6), ctx, np.random.default_rng(9))
    x = np.random.default_rng(5).standard_normal((2, 4, 6, 6)).astype(np.float32)
    # construction-time weight quantization must not share streams with any
    # training-step event
    seen = {tid for _, _, tid in events}
    assert seen and len(seen) == len(events)
    events.clear()
    for it in range(3):
        q.iteration = it
        out = model.forward(x, train=True)
        model.backward(np.ones_like(out))
        model.refresh_quantized()
        ids = [tid for _, _, tid in events]
        assert len(ids) == len(set(ids))                # unique within iter
        assert not (set(ids) & seen)                    # and across iters
        seen |= set(ids)
        events.clear()


# === batchnorm ===


def test_batchnorm_constant_input_returns_beta():
    ctx = make_ctx()
    bn = BatchNorm(ctx, "bn1", 3, precision="fp32")
    bn.params()["beta"][:] = np.array([0.5, -1.0, 2.0], np.float32)
    x = np.full((4, 3, 2, 2), 7.0, np.float32)
    out = bn.forward(x, train=True)
    for c, b in enumerate([0.5, -1.0, 2.0]):
        npt.assert_allclose(out[:, c], b, atol=1e-4)


def test_batchnorm_two_point_values():
    ctx = make_ctx()
    bn = BatchNorm(ctx, "bn1", 2, precision="fp32")
    x = np.zeros((2, 2, 1, 1), np.float32)
    x[0, :, 0, 0] = -1.0
    x[1, :, 0, 0] = 1.0
    out = bn.forward(x, train=True)
    want = 1.0 / np.sqrt(1.0 + 1e-5)        # mean 0, biased variance 1
    npt.assert_allclose(out[0, :, 0, 0], [-want, -want], rtol=1e-6)
    npt.assert_allclose(out[1, :, 0, 0], [want, want], rtol=1e-6)


def test_batchnorm_normalizes_batch_stats():
    ctx = make_ctx()
    bn = BatchNorm(ctx, "bn1", 4, precision="fp32")
    rng = np.random.default_rng(42)
    x = (rng.standard_normal((8, 4, 5, 5)) * 3 + 2).astype(np.float32)
    out = bn.forward(x, train=True)
    mu = out.mean(axis=(0, 2, 3))
    var = out.var(axis=(0, 2, 3))
    assert np.all(np.abs(mu) < 1e-5)
    assert np.all(np.abs(var - 1.0) < 1e-3)


def test_batchnorm_running_stats_and_eval():
    ctx = make_ctx()
    bn = BatchNorm(ctx, "bn1", 2, precision="fp32", momentum=0.1)
    rng = np.random.default_rng(11)
    x = (rng.standard_normal((6, 2, 3, 3)) * 2 + 1).astype(np.float32)
    bn.forward(x, train=True)
    bm = x.mean(axis=(0, 2, 3))
    bv = x.var(axis=(0, 2, 3))                        # biased
    npt.assert_allclose(bn.running_mean, 0.1 * bm, rtol=1e-5)
    npt.assert_allclose(bn.running_var, 0.9 * 1.0 + 0.1 * bv, rtol=1e-5)
    # eval path uses the running estimates, not the batch
    y = np.zeros((2, 2, 1, 1), np.float32)
    out = bn.forward(y, train=False)
    want = (0.0 - bn.running_mean) / np.sqrt(bn.running_var + 1e-5)
    npt.assert_allclose(out[0, :, 0, 0], want, rtol=1e-5)


@pytest.mark.parametrize("stat, scale, running", [
    ("batch mean", np.inf, None),
    ("batch variance", 1e25, None),              # finite mean, variance overflows
    ("running mean", 1.0, "running_mean"),
    ("running variance", 1.0, "running_var"),
])
def test_batchnorm_non_finite_statistic_is_a_located_error(stat, scale, running):
    ctx = make_ctx()
    ctx.q.iteration = 7
    bn = BatchNorm(ctx, "bn1", 2, precision="fp32")
    if running:
        getattr(bn, running)[1] = np.inf
    x = np.random.default_rng(4).standard_normal((4, 2, 3, 3)).astype(np.float32)
    x[:, 1] *= np.float32(scale)
    with pytest.raises(ValueError, match=rf"^bn1 {stat}, train phase, iteration 7: "
                                         r"(-?inf|nan) in channel 1 is not finite$"):
        bn.forward(x, train=True)


def test_batchnorm_overflow_is_reported_only_by_the_located_error():
    # numpy's overflow warnings do not precede the error: under the "error"
    # filter a warning would raise first
    bn = BatchNorm(make_ctx(), "bn1", 3, precision="fp32")
    x = np.random.default_rng(4).standard_normal((4, 3)).astype(np.float32) * np.float32(1e25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^bn1 batch variance, train phase, iteration 0: "
                                             r"inf in channel \d is not finite$"):
            bn.forward(x, train=True)


def test_batchnorm_rejects_single_sample_batch():
    ctx = make_ctx()
    bn = BatchNorm(ctx, "bn1", 2, precision="fp32")
    with pytest.raises(ValueError):
        bn.forward(np.zeros((1, 2, 1, 1), np.float32), train=True)


def test_batchnorm_backward_finite_differences():
    ctx = make_ctx()
    bn = BatchNorm(ctx, "bn1", 2, precision="fp32")
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
    r = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
    bn.params()["gamma"][:] = [1.3, 0.7]
    bn.params()["beta"][:] = [0.2, -0.4]

    out = bn.forward(x, train=True)
    gin = bn.backward(r)
    h = 1e-3

    def loss_at(xv):
        return float((to_fp32(bn.forward(xv, train=True)) * r).sum())

    for idx in [(0, 0, 0, 0), (1, 1, 2, 2), (3, 0, 1, 2)]:
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        fd = (loss_at(xp) - loss_at(xm)) / (2 * h)
        npt.assert_allclose(gin[idx], fd, rtol=2e-2, atol=1e-3)

    for name, idx in (("gamma", 0), ("beta", 1)):
        p = bn.params()[name]
        orig = p[idx]
        p[idx] = orig + h
        lp = loss_at(x)
        p[idx] = orig - h
        lm = loss_at(x)
        p[idx] = orig
        bn.forward(x, train=True)
        fd = (lp - lm) / (2 * h)
        npt.assert_allclose(bn.grads()[name][idx], fd, rtol=2e-2, atol=1e-3)


def _batchnorm_oracle(x, g, gamma, beta, rm, rv, eps, momentum, train):
    """BatchNorm in its np.mean / np.var formulation: output, running
    mean and variance, input gradient, gamma and beta gradients."""
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    bshape = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
    one = np.float32(1.0)
    if train:
        mu, var = x.mean(axis=axes), x.var(axis=axes)
        rm = (one - momentum) * rm + momentum * mu
        rv = (one - momentum) * rv + momentum * var
    else:
        mu, var = rm, rv
    inv = one / np.sqrt(var + eps)
    xhat = (x - mu.reshape(bshape)) * inv.reshape(bshape)
    out = gamma.reshape(bshape) * xhat + beta.reshape(bshape)
    m = np.float32(x.size // x.shape[1])
    gbeta = g.sum(axis=axes)
    ggamma = (g * xhat).sum(axis=axes)
    coef = (gamma * inv / m).reshape(bshape)
    gx = coef * (m * g - gbeta.reshape(bshape) - xhat * ggamma.reshape(bshape))
    return out, rm, rv, gx, ggamma, gbeta


@pytest.mark.parametrize("seed", range(24))
def test_batchnorm_matches_mean_var_formulation_bit_for_bit(seed):
    # x - mean is formed once and the variance summed from its squares in
    # np.var's order; x-hat, gamma * x-hat + beta and the backward chain
    # run in place: every byte is the oracle's, in training and in eval
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 6))
    shape = ((int(rng.integers(2, 40)), c) if seed % 2 else
             (int(rng.integers(2, 6)), c, int(rng.integers(1, 9)), int(rng.integers(1, 9))))
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, c).reshape(
        (1, -1) + (1,) * (len(shape) - 2)) + rng.uniform(-8, 8)
    x = x.astype(np.float32)
    x[rng.random(shape) < 0.2] = 0.0                  # ReLU's zeros
    g = rng.standard_normal(shape).astype(np.float32)
    inp = x
    if seed % 3 == 0:                                 # a quantized input, as DFP16 gives it
        inp = quantize(x, QuantConfig(16, Nearest(), 1))
        x = dequantize(inp)
    bn = BatchNorm(make_ctx(), "bn1", c, precision="dfp" if inp is not x else "fp32",
                   momentum=0.1)
    bn.gamma[...] = rng.standard_normal(c)
    bn.beta[...] = rng.standard_normal(c)
    bn.running_mean[...] = rng.standard_normal(c)
    bn.running_var[...] = rng.uniform(0.5, 2.0, c)
    for train in (True, False):
        want = _batchnorm_oracle(x, g, bn.gamma, bn.beta, bn.running_mean.copy(),
                                 bn.running_var.copy(), bn.eps, bn.momentum, train)
        x_before = x.tobytes()
        out = bn.forward(inp, train=train)
        gx = bn.backward(g)
        got = (out, bn.running_mean, bn.running_var, gx, bn.ggamma, bn.gbeta)
        for name, a, b in zip(("out", "running_mean", "running_var", "gx", "ggamma", "gbeta"),
                              got, want):
            assert a.dtype == np.float32 and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), f"{name}, train={train}"
        assert x.tobytes() == x_before                # the input is not written


# === relu / pooling ===


def test_relu_integer_path_matches_float():
    ctx = make_ctx()
    relu = ReLU(ctx, "relu1")
    t = DfpTensor(np.array([[-3, 0, 5, -32767]], np.int16), -4, 16)
    out = relu.forward(t, train=True)
    assert isinstance(out, DfpTensor)
    assert out.shared_exponent == -4
    npt.assert_array_equal(out.elements, [[0, 0, 5, 0]])
    npt.assert_array_equal(dequantize(out), np.maximum(dequantize(t), 0))
    g = relu.backward(np.array([[1.0, 2.0, 3.0, 4.0]], np.float32))
    npt.assert_array_equal(g, [[0.0, 0.0, 3.0, 0.0]])


def test_maxpool_integer_and_float_paths_agree():
    ctx = make_ctx()
    rng = np.random.default_rng(13)
    el = rng.integers(-2000, 2000, (2, 3, 4, 4)).astype(np.int16)
    t = DfpTensor(el, -6, 16)
    pool_i = MaxPool(ctx, "pool1", 2)
    out_i = pool_i.forward(t, train=True)
    assert isinstance(out_i, DfpTensor)
    pool_f = MaxPool(ctx, "pool2", 2)
    out_f = pool_f.forward(dequantize(t), train=True)
    npt.assert_array_equal(dequantize(out_i), out_f)
    # backward routes each window's grad to its argmax
    g = np.ones((2, 3, 2, 2), np.float32)
    gin = pool_i.backward(g)
    assert gin.shape == (2, 3, 4, 4)
    assert gin.sum() == g.sum()
    win = gin.reshape(2, 3, 2, 2, 2, 2).swapaxes(3, 4).reshape(2, 3, 4, 4)
    assert np.all((gin == 0) | (gin == 1))
    for n in range(2):
        for c in range(3):
            for i in range(2):
                for j in range(2):
                    w = el[n, c, 2 * i: 2 * i + 2, 2 * j: 2 * j + 2]
                    gw = gin[n, c, 2 * i: 2 * i + 2, 2 * j: 2 * j + 2]
                    assert gw.flat[np.argmax(w)] == 1.0
                    assert gw.sum() == 1.0


def test_avgpool_forward_backward():
    ctx = make_ctx()
    pool = AvgPool(ctx, "pool1", 2)
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    out = pool.forward(x, train=True)
    npt.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])
    gin = pool.backward(np.ones((1, 1, 2, 2), np.float32))
    npt.assert_allclose(gin, np.full((1, 1, 4, 4), 0.25))


# === conv / dense, fp32 path ===


def test_conv_fp32_matches_float64_oracle():
    ctx = make_ctx()
    rng = np.random.default_rng(21)
    conv = Conv(ctx, "c", 3, 4, 3, stride=2, pad=1, precision="fp32",
                bias=True, rng=rng)
    x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
    out = conv.forward(x, train=True)
    w, b = conv.params()["W"], conv.params()["b"]
    want = _conv_oracle_f64(x, w, 2, 1) + b[None, :, None, None]
    npt.assert_allclose(out, want, rtol=1e-5, atol=1e-6)

    r = rng.standard_normal(out.shape).astype(np.float32)
    gin = conv.backward(r)
    npt.assert_allclose(conv.grads()["W"], reference.conv_weight_grad(x, r, 3, 3, 2, 1),
                        rtol=1e-4, atol=1e-5)
    npt.assert_allclose(conv.grads()["b"], r.sum(axis=(0, 2, 3)), rtol=1e-5)
    npt.assert_allclose(gin, reference.conv_input_grad(r, w, ConvSpec(3, 4, 7, 7, 3, 3, 2, 1)),
                        rtol=1e-4, atol=1e-5)


def test_dense_fp32_matches_oracle():
    ctx = make_ctx()
    rng = np.random.default_rng(22)
    fc = Dense(ctx, "fc", 6, 4, precision="fp32", bias=True, rng=rng)
    x = rng.standard_normal((5, 6)).astype(np.float32)
    out = fc.forward(x, train=True)
    w, b = fc.params()["W"], fc.params()["b"]
    npt.assert_allclose(out, x @ w.T + b, rtol=1e-5, atol=1e-6)
    r = rng.standard_normal(out.shape).astype(np.float32)
    gin = fc.backward(r)
    npt.assert_allclose(fc.grads()["W"], r.T @ x, rtol=1e-5, atol=1e-6)
    npt.assert_allclose(fc.grads()["b"], r.sum(axis=0), rtol=1e-5)
    npt.assert_allclose(gin, r @ w, rtol=1e-5, atol=1e-6)


# === conv / dense, integer path ===


def test_conv_dfp_matches_quantized_operand_oracle():
    ctx = make_ctx()
    q = ctx.q
    rng = np.random.default_rng(23)
    conv = Conv(ctx, "c", 8, 16, 3, stride=1, pad=1, precision="dfp",
                first=False, rng=rng)
    x = rng.standard_normal((2, 8, 6, 6)).astype(np.float32)
    out = conv.forward(x, train=True)
    # independently quantize operands: nearest rounding ignores tensor ids
    a_q = quantize(x, q.cfg, tensor_id=0)
    w_q = quantize(conv.params()["W"], q.cfg, tensor_id=0)
    want = _conv_oracle_f64(dequantize(a_q), dequantize(w_q), 1, 1)
    npt.assert_allclose(out, want, rtol=1e-4,
                        atol=1e-4 * np.abs(want).max())

    r = rng.standard_normal(out.shape).astype(np.float32)
    gin = conv.backward(r)
    e_q = quantize(r, q.cfg, tensor_id=0)
    gw_want = reference.conv_weight_grad(dequantize(a_q), dequantize(e_q), 3, 3, 1, 1)
    npt.assert_allclose(conv.grads()["W"], gw_want, rtol=1e-4,
                        atol=1e-4 * np.abs(gw_want).max())
    gx_want = reference.conv_input_grad(dequantize(e_q), dequantize(w_q),
                                        ConvSpec(8, 16, 6, 6, 3, 3, 1, 1))
    npt.assert_allclose(gin, gx_want, rtol=1e-4,
                        atol=1e-4 * np.abs(gx_want).max())


def test_conv_dfp_stride_two_backward_oracle():
    ctx = make_ctx()
    rng = np.random.default_rng(24)
    conv = Conv(ctx, "c", 8, 8, 3, stride=2, pad=1, precision="dfp",
                first=False, rng=rng)
    x = rng.standard_normal((2, 8, 7, 7)).astype(np.float32)
    out = conv.forward(x, train=True)
    r = rng.standard_normal(out.shape).astype(np.float32)
    gin = conv.backward(r)
    e_q = quantize(r, ctx.q.cfg, tensor_id=0)
    w_q = quantize(conv.params()["W"], ctx.q.cfg, tensor_id=0)
    gx_want = reference.conv_input_grad(dequantize(e_q), dequantize(w_q),
                                        ConvSpec(8, 8, 7, 7, 3, 3, 2, 1))
    npt.assert_allclose(gin, gx_want, rtol=1e-4,
                        atol=1e-4 * (np.abs(gx_want).max() + 1e-12))


def test_conv_dfp_first_skips_input_gradient():
    ctx = make_ctx()
    rng = np.random.default_rng(25)
    conv = Conv(ctx, "c", 4, 8, 3, pad=1, precision="dfp", first=True, rng=rng)
    x = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)
    out = conv.forward(x, train=True)
    gin = conv.backward(np.ones_like(out))
    assert not np.any(gin)                  # input grad computation skipped
    assert conv.grads()["W"] is not None


def test_conv_dfp_pad_exceeding_kernel_raises_at_construction():
    ctx = make_ctx()
    rng = np.random.default_rng(26)
    with pytest.raises(ValueError, match=r"c: pad 1 > kernel-1"):
        Conv(ctx, "c", 16, 16, 1, pad=1, precision="dfp", first=False, rng=rng)
    Conv(ctx, "c", 16, 16, 1, pad=1, precision="dfp", first=True, rng=rng)
    Conv(ctx, "c", 16, 16, 1, pad=1, precision="fp32", first=False, rng=rng)


def test_dense_dfp_matches_quantized_operand_oracle():
    ctx = make_ctx()
    rng = np.random.default_rng(27)
    fc = Dense(ctx, "fc", 12, 5, precision="dfp", bias=True, rng=rng)
    x = rng.standard_normal((6, 12)).astype(np.float32)
    out = fc.forward(x, train=True)
    a_q = dequantize(quantize(x, ctx.q.cfg, tensor_id=0)).astype(np.float64)
    w_q = dequantize(quantize(fc.params()["W"], ctx.q.cfg, tensor_id=0))
    want = a_q @ w_q.T.astype(np.float64) + fc.params()["b"]
    npt.assert_allclose(out, want, rtol=1e-4, atol=1e-4 * np.abs(want).max())
    r = rng.standard_normal(out.shape).astype(np.float32)
    gin = fc.backward(r)
    e_q = dequantize(quantize(r, ctx.q.cfg, tensor_id=0)).astype(np.float64)
    npt.assert_allclose(fc.grads()["W"], e_q.T @ a_q, rtol=1e-4,
                        atol=1e-4 * np.abs(e_q.T @ a_q).max())
    npt.assert_allclose(gin, e_q @ w_q, rtol=1e-4,
                        atol=1e-4 * np.abs(e_q @ w_q).max())


def test_dense_dfp_honors_config_blocking():
    # icblk 16 / rb_size 7 must reach all three fc GEMMs; each GEMM is a 1x1
    # conv with c16*2 madds per output row, split into chains of icblk/8.
    cfg = parse_config({"layers": [{"type": "fc", "out_features": 20}],
                        "loss": "mse", "icblk": 16, "rb_size": 7})
    ctx = RunContext(q=make_quantizers(cfg, seed=9), icblk=16, rb_size=7)
    model = build_model(cfg, (40,), ctx, np.random.default_rng(9))
    x = np.random.default_rng(10).standard_normal((10, 40)).astype(np.float32)
    out = model.forward(x)
    model.backward(np.ones_like(out))

    def analytic(m, kk, n, icblk=16, rb=7):
        madds = -(-kk // 16) * 2
        chains = -(-madds // (icblk // 8))
        k16 = -(-n // 16)
        return m * k16 * chains, -(-m // rb) * k16 * chains

    passes = [analytic(10, 40, 20),                 # fprop: A x W^T
              analytic(20, 10, 40),                 # wgrad: E^T x A
              analytic(10, 20, 40)]                 # bprop: E x W
    assert ctx.stats.convert_count == sum(c for c, _ in passes) == 180
    assert ctx.stats.spill_count == sum(s for _, s in passes) == 33


def _build(layers, in_shape, precision="dfp16"):
    cfg = parse_config({"layers": layers, "loss": "mse"})
    return build_model(cfg, in_shape, RunContext(q=make_quantizers(cfg, seed=1)),
                       np.random.default_rng(1), precision=precision)


def test_build_rejects_dfp_conv_pad_beyond_kernel():
    layers = [{"type": "conv", "out_ch": 4, "kernel": 3, "pad": 1},
              {"type": "conv", "out_ch": 4, "kernel": 1, "pad": 1}]
    with pytest.raises(ValueError, match=r"layers\[1\] \(conv\): conv2: pad 1 > kernel-1"):
        _build(layers, (2, 6, 6))
    _build(layers, (2, 6, 6), precision="fp32")    # FP32 backward supports it
    _build(layers[1:], (2, 6, 6))                  # a first conv skips bprop


_BN_HEAD = [{"type": "batchnorm"}, {"type": "conv", "out_ch": 2, "kernel": 3, "pad": 1}]


@pytest.mark.parametrize("head, learns_before", [
    (_BN_HEAD, True),
    ([{"type": "residual", "body": _BN_HEAD}], True),
    ([{"type": "relu"}, {"type": "conv", "out_ch": 2, "kernel": 3, "pad": 1}], False),
])
@pytest.mark.parametrize("precision", ["fp32", "dfp16"])
def test_first_conv_is_the_one_nothing_learns_before(head, learns_before, precision):
    # A conv skips its input gradient only when no layer before it has
    # parameters; a BatchNorm ahead of it must still get gradients.
    model = _build(head + [{"type": "relu"}, {"type": "flatten"},
                           {"type": "fc", "out_features": 3}], (2, 6, 6), precision)
    conv = next(l for l in model.iter_layers() if isinstance(l, Conv))
    assert conv.first is not learns_before
    rng = np.random.default_rng(40)
    out = model.forward(rng.standard_normal((4, 2, 6, 6)).astype(np.float32), train=True)
    model.backward(rng.standard_normal(out.shape).astype(np.float32))
    for bn in (l for l in model.iter_layers() if isinstance(l, BatchNorm)):
        assert np.all(bn.ggamma != 0) and np.all(bn.gbeta != 0)


def test_build_rejects_non_integral_conv_output():
    layers = [{"type": "conv", "out_ch": 4, "kernel": 3, "stride": 2}]
    with pytest.raises(ValueError, match=r"layers\[0\] \(conv\): output size .* not integral"):
        _build(layers, (1, 8, 8))


@pytest.mark.parametrize("kind", ["maxpool", "avgpool"])
def test_build_rejects_non_divisible_pool(kind):
    layers = [{"type": "conv", "out_ch": 4, "kernel": 3, "pad": 1},
              {"type": kind, "kernel": 2, "name": "p"}]
    with pytest.raises(ValueError, match=rf"layers\[1\] \({kind}\): pool 2 does not tile"):
        _build(layers, (1, 7, 7))


def test_residual_fp32_adds_skip_path():
    cfg = parse_config({"layers": [
        {"type": "residual", "body": [
            {"type": "conv", "out_ch": 4, "kernel": 3, "pad": 1}]},
        {"type": "flatten"},
        {"type": "fc", "out_features": 2}], "loss": "mse"})
    q = make_quantizers(cfg, seed=31)
    ctx = RunContext(q=q)
    rng = np.random.default_rng(31)
    model = build_model(cfg, (4, 5, 5), ctx, rng, precision="fp32")
    res = model.layers[0]
    assert isinstance(res, Residual)
    x = np.random.default_rng(32).standard_normal((2, 4, 5, 5)).astype(np.float32)
    out = res.forward(x, train=True)
    body_out = _conv_oracle_f64(x, res.body[0].params()["W"], 1, 1)
    npt.assert_allclose(out, x + body_out, rtol=1e-5, atol=1e-6)


def test_residual_body_shape_mismatch_rejected():
    cfg = parse_config({"layers": [
        {"type": "residual", "body": [
            {"type": "conv", "out_ch": 6, "kernel": 3, "pad": 1}]}],
        "loss": "mse"})
    q = make_quantizers(cfg, seed=31)
    with pytest.raises(ValueError):
        build_model(cfg, (4, 5, 5), RunContext(q=q), np.random.default_rng(1))


_CONV = {"type": "conv", "out_ch": 4, "kernel": 3, "pad": 1}


@pytest.mark.parametrize("layers, match", [
    # a misspelt key would otherwise be ignored
    ([{"type": "flatten"}, {"type": "fc", "out_features": 2, "kernal": 3}],
     r"layers\[1\] \(fc\): unknown keys \['kernal'\]"),
    ([{"type": "relu", "precision": "fp32"}],
     r"layers\[0\] \(relu\): unknown keys \['precision'\]"),
    # a conv pinned to an unknown precision would otherwise run in FP32
    ([dict(_CONV, precision="fp16")],
     r"layers\[0\] \(conv\): precision must be 'dfp' or 'fp32', got 'fp16'"),
    ([{"type": "conv", "kernel": 3}],
     r"layers\[0\] \(conv\): missing required key 'out_ch'"),
    ([_CONV, {"type": "maxpool"}],
     r"layers\[1\] \(maxpool\): missing required key 'kernel'"),
    ([dict(_CONV, kernel="3")], r"layers\[0\] \(conv\): kernel must be int, got str"),
    ([dict(_CONV, bias=1)], r"layers\[0\] \(conv\): bias must be bool, got int"),
    ([{"type": "residual", "body": [dict(_CONV, stride=1.0)]}],
     r"layers\[0\]\.body\[0\] \(conv\): stride must be int, got float"),
    ([{"type": "residual", "body": [{"type": "lstm"}]}],
     r"layers\[0\]\.body\[0\] \(lstm\): unknown layer type"),
    ([{"type": "residual"}], r"layers\[0\] \(residual\): missing required key 'body'"),
    # range checks come before the pool tiling and fc weight arithmetic
    ([_CONV, {"type": "maxpool", "kernel": 0}],
     r"layers\[1\] \(maxpool\): kernel must be >= 1, got 0"),
    ([_CONV, {"type": "residual", "body": [{"type": "avgpool", "kernel": -2}]}],
     r"layers\[1\]\.body\[0\] \(avgpool\): kernel must be >= 1, got -2"),
    ([{"type": "flatten"}, {"type": "fc", "out_features": 0}],
     r"layers\[1\] \(fc\): out_features must be >= 1, got 0"),
    # build_model alone knows the layer types, at the top level as when nested
    ([{"type": "lstm"}], r"layers\[0\] \(lstm\): unknown layer type"),
    # geometry errors name the layer path like the key errors do
    ([{"type": "flatten"}, _CONV], r"layers\[1\] \(conv\): requires CHW input, have \(144,\)"),
    ([{"type": "fc", "out_features": 2}],
     r"layers\[0\] \(fc\): requires flattened input, have \(4, 6, 6\)"),
    ([{"type": "residual", "body": [dict(_CONV, out_ch=6)]}],
     r"layers\[0\] \(residual\): body maps \(4, 6, 6\) -> \(6, 6, 6\); shapes must match"),
    ([{"type": "residual", "body": [{"type": "avgpool", "kernel": 4}]}],
     r"layers\[0\]\.body\[0\] \(avgpool\): pool 4 does not tile input \(4, 6, 6\)"),
    ([dict(_CONV, stride=4, pad=0)],
     r"layers\[0\] \(conv\): output size for dim 6, kernel 3, stride 4, pad 0 is not integral"),
    # BatchNorm's eps is a positive normal float32 and its momentum a blend
    # weight; either out of range makes NaN statistics in some precision
    ([{"type": "batchnorm", "eps": -1.0}],
     r"layers\[0\] \(batchnorm\): eps must be in \[1\.175e-38, 3\.403e\+38\], got -1\.0"),
    ([{"type": "batchnorm", "eps": 0}], r"layers\[0\] \(batchnorm\): eps must be in .*, got 0$"),
    ([{"type": "batchnorm", "eps": 1e-50}],
     r"layers\[0\] \(batchnorm\): eps must be in .*, got 1e-50"),
    ([{"type": "batchnorm", "eps": float("inf")}],
     r"layers\[0\] \(batchnorm\): eps must be in .*, got inf"),
    ([{"type": "residual", "body": [{"type": "batchnorm", "momentum": -3.0}]}],
     r"layers\[0\]\.body\[0\] \(batchnorm\): momentum must be in \[0, 1\], got -3\.0"),
    ([{"type": "batchnorm", "momentum": 1.5}],
     r"layers\[0\] \(batchnorm\): momentum must be in \[0, 1\], got 1\.5"),
    ([{"type": "batchnorm", "momentum": float("nan")}],
     r"layers\[0\] \(batchnorm\): momentum must be in \[0, 1\], got nan"),
    # a kernel larger than its padded input is a geometry error, not a stride one
    ([dict(_CONV, kernel=9)],
     r"layers\[0\] \(conv\): kernel 9 is larger than the padded input: dim 6 \+ 2\*pad 1 = 8"),
])
@pytest.mark.parametrize("precision", ["fp32", "dfp16"])
def test_build_rejects_malformed_layer(layers, match, precision):
    with pytest.raises(ValueError, match=match):
        _build(layers, (4, 6, 6), precision=precision)


# An FP32 conv, a DFP 3x3 conv and a DFP fc: the kernel fields reach the DFP
# layers in both precision modes.
_PROBE_NET = [dict(_CONV, precision="fp32"), {"type": "relu"}, _CONV, {"type": "relu"},
              {"type": "flatten"}, {"type": "fc", "out_features": 3}]


@pytest.mark.parametrize("patch, match", [
    ({"icblk": 12}, "icblk must be a positive multiple of 8, got 12"),
    ({"icblk": 0}, "icblk must be a positive multiple of 8, got 0"),
    ({"rb_size": 0}, "rb_size must be >= 1"),
    ({"chain_block": 0}, "chain_block must be >= 1, got 0"),
    # this builds, so it must train
    ({"icblk": 16}, None),
    # a chain knob that an explicit icblk would leave unread
    ({"icblk": 16, "chain_block": 64}, r"^chain_block is not read when icblk is set$"),
])
@pytest.mark.parametrize("precision", ["fp32", "dfp16"])
def test_config_that_builds_trains(patch, match, precision):
    # Kernel fields are checked by parse_config or build_model in both
    # precision modes, each error naming its field or layer path; a config
    # that passes both runs a training step.
    raw = {"layers": _PROBE_NET, "loss": "softmax_xent", "batch_size": 2, **patch}
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
    y = np.array([0, 2])
    try:
        cfg = parse_config(raw)
        ctx = RunContext(q=make_quantizers(cfg, seed=8), policy=make_policy(cfg),
                         icblk=cfg.icblk, rb_size=cfg.rb_size)
        model = build_model(cfg, (2, 6, 6), ctx, rng, precision=precision)
    except ValueError as e:
        assert match is not None and re.search(match, str(e)), str(e)
        return
    assert match is None
    rows = train_loop(model, cfg, x, y, x, y, seed=8)
    assert len(rows) == 1 and np.isfinite(rows[0]["train_loss"])
    assert (ctx.stats.fma_count > 0) == (precision == "dfp16")


@pytest.mark.parametrize("bn", [{"eps": 1.2e-38}, {"eps": 3e38}, {"momentum": 0},
                                {"momentum": 1.0}])
@pytest.mark.parametrize("precision", ["fp32", "dfp16"])
def test_batchnorm_bounds_that_build_train(bn, precision):
    # The ends of eps's and momentum's ranges build, so they must train and
    # evaluate on finite running statistics in both precision modes.
    raw = {"layers": [_CONV, dict(type="batchnorm", **bn), {"type": "relu"},
                      {"type": "flatten"}, {"type": "fc", "out_features": 3}],
           "loss": "softmax_xent", "epochs": 2, "batch_size": 2}
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 2, 6, 6)).astype(np.float32)
    y = np.array([0, 2, 1, 0])
    cfg = parse_config(raw)
    model = build_model(cfg, (2, 6, 6), RunContext(q=make_quantizers(cfg, seed=9)), rng,
                        precision=precision)
    rows = train_loop(model, cfg, x, y, x, y, seed=9)
    assert all(np.isfinite(r["train_loss"]) for r in rows)
    assert [r["val_acc"] != "" for r in rows] == [False, True, False, True]
    bn_layer = model.layers[1]
    assert np.isfinite(bn_layer.running_mean).all() and np.isfinite(bn_layer.running_var).all()


@pytest.mark.parametrize("patch, match", [
    ({"epochs": "1"}, "epochs must be int, got str"),
    ({"base_lr": True}, "base_lr must be float, got bool"),
    ({"step_epochs": [1, "2"]}, "step_epochs items must be int, got str"),
    ({"icblk": 16.0}, "icblk must be int, got float"),
    ({"shadow_check": "yes"}, "shadow_check must be bool, got str"),
    ({"layers": ["fc"]}, "layers items must be dict, got str"),
])
def test_parse_config_rejects_wrong_types(patch, match):
    with pytest.raises(ValueError, match=match):
        parse_config(dict(MLP_CFG, **patch))
    parse_config(dict(MLP_CFG, base_lr=1, momentum=0))    # an int is a float


@pytest.mark.parametrize("patch, match", [
    ({"base_lr": float("inf")}, r"^base_lr must be finite in float32, got inf$"),
    ({"base_lr": float("nan")}, r"^base_lr must be finite in float32, got nan$"),
    ({"base_lr": 1e39}, r"^base_lr must be finite in float32, got 1e\+39$"),
    ({"base_lr": 10 ** 400}, r"^base_lr must be finite in float32, got 1000"),
    ({"momentum": float("nan")}, r"^momentum must be finite in float32, got nan$"),
    ({"lr_gamma": float("nan"), "step_epochs": [0]},
     r"^lr_gamma must be finite in float32, got nan$"),
    ({"lr_gamma": 0.0}, r"^lr_gamma must be positive, got 0\.0$"),
    ({"lr_gamma": -0.5}, r"^lr_gamma must be positive, got -0\.5$"),
    ({"weight_decay": -1e-4}, r"^weight_decay must be >= 0, got -0\.0001$"),
    ({"weight_decay": float("inf")}, r"^weight_decay must be finite in float32, got inf$"),
])
def test_parse_config_rejects_solver_numbers_out_of_range(patch, match):
    # each of these would otherwise die at iteration 0 or 1 with an error
    # naming a loss or a quantizer, not the field
    with pytest.raises(ValueError, match=match):
        parse_config(dict(MLP_CFG, **patch))
    parse_config(dict(MLP_CFG, lr_gamma=1, weight_decay=0))


# === losses ===


def test_softmax_xent_known():
    loss, grad = softmax_xent(np.zeros((1, 2), np.float32),
                              np.array([0]))
    npt.assert_allclose(loss, np.log(2.0), rtol=1e-6)
    npt.assert_allclose(grad, [[-0.5, 0.5]], rtol=1e-6)


def test_softmax_xent_shift_invariant():
    rng = np.random.default_rng(33)
    logits = rng.standard_normal((4, 5)).astype(np.float32)
    labels = np.array([0, 1, 2, 3])
    l1, g1 = softmax_xent(logits, labels)
    l2, g2 = softmax_xent(logits + 1000.0, labels)
    npt.assert_allclose(l1, l2, rtol=1e-4)
    npt.assert_allclose(g1, g2, atol=1e-5)      # float32 shift residue
    assert np.isfinite(l2)


def test_mse_known():
    loss, grad = mse(np.array([[1.0, 2.0]], np.float32),
                     np.array([[0.0, 0.0]], np.float32))
    npt.assert_allclose(loss, 2.5)
    npt.assert_allclose(grad, [[1.0, 2.0]])


# === sgd ===


def _one_param_model():
    ctx = make_ctx()
    fc = Dense(ctx, "fc1", 1, 1, precision="fp32", bias=False,
               rng=np.random.default_rng(0))
    fc.params()["W"][:] = 1.0
    return Model([fc], ctx), fc


def test_sgd_step_known():
    model, fc = _one_param_model()
    fc.gW = np.array([[0.5]], np.float32)
    sgd_step(model, lr=0.1, momentum=0.0, weight_decay=0.0)
    npt.assert_array_equal(fc.params()["W"], [[np.float32(0.95)]])


def test_sgd_momentum_accumulates():
    model, fc = _one_param_model()
    fc.gW = np.array([[0.5]], np.float32)
    sgd_step(model, lr=0.1, momentum=0.9, weight_decay=0.0)
    npt.assert_allclose(fc.velocities()["W"], [[0.5]])
    fc.gW = np.array([[0.5]], np.float32)
    sgd_step(model, lr=0.1, momentum=0.9, weight_decay=0.0)
    npt.assert_allclose(fc.velocities()["W"], [[0.95]])   # 0.9*0.5 + 0.5
    want = np.float32(1.0) - np.float32(0.1) * np.float32(0.5) \
        - np.float32(0.1) * np.float32(0.95)
    npt.assert_allclose(fc.params()["W"], [[want]], rtol=1e-7)


def test_sgd_weight_decay_term():
    model, fc = _one_param_model()
    fc.gW = np.array([[0.0]], np.float32)
    sgd_step(model, lr=0.1, momentum=0.0, weight_decay=0.1)
    npt.assert_allclose(fc.params()["W"], [[0.99]], rtol=1e-6)


def test_sgd_zero_gradient_is_noop():
    model, fc = _one_param_model()
    fc.gW = np.array([[0.0]], np.float32)
    sgd_step(model, lr=0.1, momentum=0.0, weight_decay=0.0)
    npt.assert_array_equal(fc.params()["W"], [[1.0]])


def test_sgd_nonfinite_gradient_names_parameter():
    model, fc = _one_param_model()
    fc.gW = np.array([[np.nan]], np.float32)
    with pytest.raises(TrainingDivergence, match=r"fc1\.W"):
        sgd_step(model, lr=0.1, momentum=0.0, weight_decay=0.0)


@pytest.mark.parametrize("bad", ["fc1.b", "fc2.W"])
def test_sgd_nonfinite_gradient_moves_nothing(bad):
    # a NaN in any parameter after the first leaves every weight and
    # velocity as it was, including those of the parameters checked earlier
    ctx = make_ctx()
    rng = np.random.default_rng(5)
    fcs = [Dense(ctx, name, 3, 3, precision="fp32", bias=True, rng=rng)
           for name in ("fc1", "fc2")]
    model = Model(fcs, ctx)
    for fc in fcs:
        fc.gW = rng.standard_normal((3, 3)).astype(np.float32)
        fc.gb = rng.standard_normal(3).astype(np.float32)
    sgd_step(model, lr=0.1, momentum=0.9, weight_decay=1e-3)   # nonzero velocities
    layer, name = bad.split(".")
    getattr(fcs[int(layer[-1]) - 1], "g" + name)[0] = np.nan
    before = [(fc.W.copy(), fc.b.copy(), {k: v.copy() for k, v in fc.velocities().items()})
              for fc in fcs]
    with pytest.raises(TrainingDivergence, match=bad.replace(".", r"\.")):
        sgd_step(model, lr=0.1, momentum=0.9, weight_decay=1e-3)
    for fc, (w, b, vel) in zip(fcs, before):
        npt.assert_array_equal(fc.W, w)
        npt.assert_array_equal(fc.b, b)
        for k, v in vel.items():
            npt.assert_array_equal(fc.velocities()[k], v)


def test_lr_schedule():
    cfg = parse_config(dict(MLP_CFG, base_lr=0.1, step_epochs=[3, 5]))
    want = {0: 0.1, 2: 0.1, 3: 0.01, 4: 0.01, 5: 0.001, 7: 0.001}
    for epoch, lr in want.items():
        npt.assert_allclose(lr_at(cfg, epoch), lr, rtol=1e-9)


# === config parsing ===


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown"):
        parse_config(dict(MLP_CFG, learning_rate=0.1))


def test_parse_config_rejects_bad_values():
    for patch in ({"loss": "hinge"}, {"rounding": "up"}, {"policy": "loose"},
                  {"batch_size": 0}, {"bit_width": 20}, {"pre_shift": -1},
                  {"epochs": 0}):
        with pytest.raises(ValueError):
            parse_config(dict(MLP_CFG, **patch))
    with pytest.raises(ValueError):
        parse_config({"loss": "mse"})                   # layers required


def test_empirical_chain_block_from_config():
    # unset, the target is Empirical's 208; the resolved config keeps it unset
    cfg = parse_config(MLP_CFG)
    assert make_policy(cfg).chain_block == 208 and cfg.to_dict()["chain_block"] is None
    assert make_policy(parse_config(dict(MLP_CFG, chain_block=64))).chain_block == 64


# === training loop ===


def _toy_data(n=32, seed=6):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4)).astype(np.float32)
    y = (x[:, 0] > 0).astype(np.int64)
    return x, y


def test_train_loop_row_structure():
    cfg = parse_config({"layers": [
        {"type": "fc", "out_features": 8, "precision": "fp32"},
        {"type": "relu"},
        {"type": "fc", "out_features": 2, "precision": "fp32"}],
        "loss": "softmax_xent", "epochs": 2, "batch_size": 8, "base_lr": 0.1})
    q = make_quantizers(cfg, seed=5)
    ctx = RunContext(q=q)
    model = build_model(cfg, (4,), ctx, np.random.default_rng(5),
                        precision="fp32")
    x, y = _toy_data()
    rows = train_loop(model, cfg, x, y, x, y, seed=5)
    assert len(rows) == 8                               # 4 batches x 2 epochs
    assert [r["iteration"] for r in rows] == list(range(1, 9))
    assert [r["epoch"] for r in rows] == [0] * 4 + [1] * 4
    for i, row in enumerate(rows):
        assert set(row) == {"iteration", "epoch", "train_loss", "val_acc",
                            "overflow_count", "wall_ms"}
        assert np.isfinite(row["train_loss"])
        assert row["wall_ms"] > 0
        if i in (3, 7):                                 # epoch boundaries
            assert isinstance(row["val_acc"], float)
        else:
            assert row["val_acc"] == ""
    counts = [r["overflow_count"] for r in rows]
    assert counts == sorted(counts)                     # cumulative


def test_train_loop_wall_ms_excludes_validation(monkeypatch):
    def slow_evaluate(*args, **kwargs):
        time.sleep(0.3)
        return 0.5

    monkeypatch.setattr(dfp.training, "evaluate", slow_evaluate)
    cfg = parse_config(MLP_CFG)
    model = build_model(cfg, (4,), RunContext(q=make_quantizers(cfg, seed=5)),
                        np.random.default_rng(5), precision="fp32")
    x, y = _toy_data()
    rows = train_loop(model, cfg, x, y, x, y, seed=5)
    assert [r["val_acc"] for r in rows if r["val_acc"] != ""] == [0.5, 0.5]
    assert all(r["wall_ms"] < 300 for r in rows)


def test_train_loop_repeatable_with_same_seed():
    cfg = parse_config({"layers": [
        {"type": "fc", "out_features": 8},
        {"type": "relu"},
        {"type": "fc", "out_features": 2}],
        "loss": "softmax_xent", "epochs": 2, "batch_size": 8,
        "base_lr": 0.05, "rounding": "stochastic"})
    x, y = _toy_data()
    runs = []
    for _ in range(2):
        q = make_quantizers(cfg, seed=5)
        ctx = RunContext(q=q)
        model = build_model(cfg, (4,), ctx, np.random.default_rng(5))
        rows = train_loop(model, cfg, x, y, x, y, seed=5)
        runs.append([(r["train_loss"], r["val_acc"]) for r in rows])
    assert runs[0] == runs[1]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_loop_divergence_report():
    cfg = parse_config({"layers": [
        {"type": "fc", "out_features": 8, "precision": "fp32"},
        {"type": "relu"},
        {"type": "fc", "out_features": 2, "precision": "fp32"}],
        "loss": "mse", "epochs": 50, "batch_size": 8, "base_lr": 1e6})
    q = make_quantizers(cfg, seed=5)
    ctx = RunContext(q=q)
    model = build_model(cfg, (4,), ctx, np.random.default_rng(5),
                        precision="fp32")
    x, _ = _toy_data()
    y = np.zeros((32, 2), np.float32)
    with pytest.raises(TrainingDivergence) as info:
        train_loop(model, cfg, x, y, x, y, seed=5)
    report = info.value.report
    assert report, "expected a per-layer activation report"
    for entry in report:
        assert {"layer", "min", "max", "finite_fraction"} <= set(entry)


def test_non_finite_batch_names_layer_role_phase_and_iteration():
    # A NaN batch reaches the first DFP layer's Q_a; the error says where.
    cfg = parse_config({"layers": [
        {"type": "fc", "out_features": 8, "precision": "dfp"},
        {"type": "relu"},
        {"type": "fc", "out_features": 2, "precision": "fp32"}],
        "loss": "softmax_xent", "epochs": 1, "batch_size": 8})
    ctx = RunContext(q=make_quantizers(cfg, seed=5))
    model = build_model(cfg, (4,), ctx, np.random.default_rng(5))
    x, y = _toy_data()
    x[:] = np.nan
    with pytest.raises(ValueError, match=r"^fc1 q_a, train phase, iteration 0: "
                                         r"tensor contains NaN or Inf$"):
        train_loop(model, cfg, x, y, x, y, seed=5)


@pytest.mark.parametrize("pass_name, w_scale, x_scale, g_scale, es", [
    ("fprop", 2.0**100, 2.0**60, 1.0, 133),
    ("wgrad", 1.0, 2.0**60, 2.0**100, 136),
    ("bprop", 2.0**60, 1.0, 2.0**100, 133),
])
def test_kernel_error_names_layer_pass_phase_and_iteration(pass_name, w_scale, x_scale,
                                                           g_scale, es):
    # operand exponents whose sum leaves FP32 stop the kernel call of one pass
    ctx = make_ctx()
    ctx.q.iteration = 53
    rng = np.random.default_rng(3)
    conv = Conv(ctx, "conv2", 16, 16, 3, pad=1, rng=rng)
    conv.W *= np.float32(w_scale)
    conv.refresh_quantized()
    x = (rng.standard_normal((2, 16, 6, 6)) * x_scale).astype(np.float32)
    with pytest.raises(ValueError, match=rf"^conv2 {pass_name}, train phase, iteration 53: "
                                         rf"spill scale 2\*\*{es} is outside the FP32 range$"):
        out = conv.forward(x, train=True)
        conv.backward((rng.standard_normal(out.shape) * g_scale).astype(np.float32))


def test_evaluate_accuracy():
    ctx = make_ctx()
    fc = Dense(ctx, "fc1", 2, 2, precision="fp32", bias=True,
               rng=np.random.default_rng(0))
    fc.params()["W"][:] = np.eye(2, dtype=np.float32)
    fc.params()["b"][:] = 0.0
    model = Model([fc], ctx)
    x = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 0.0], [1.0, 2.0]], np.float32)
    y = np.array([0, 1, 1, 1])                          # third label is wrong
    acc = evaluate(model, x, y, "softmax_xent", batch_size=2)
    npt.assert_allclose(acc, 0.75)


# The resnet_shadow benchmark network at one epoch: stride-2 and residual
# DFP convs, a DFP fc, stochastic rounding and shadow INT32 accounting.
_RESNET_SHADOW_CFG = {
    "layers": [
        {"type": "conv", "out_ch": 16, "kernel": 5, "pad": 2,
         "precision": "fp32", "bias": True},
        {"type": "relu"},
        {"type": "conv", "out_ch": 16, "kernel": 2, "stride": 2},
        {"type": "relu"},
        {"type": "residual", "body": [
            {"type": "conv", "out_ch": 16, "kernel": 3, "pad": 1},
            {"type": "batchnorm"},
            {"type": "relu"},
            {"type": "conv", "out_ch": 16, "kernel": 3, "pad": 1},
            {"type": "batchnorm"}]},
        {"type": "relu"},
        {"type": "avgpool", "kernel": 2},
        {"type": "flatten"},
        {"type": "fc", "out_features": 10, "bias": True}],
    "loss": "softmax_xent", "epochs": 1, "batch_size": 32, "base_lr": 0.02,
    "momentum": 0.9, "weight_decay": 5e-4, "step_epochs": [],
    "pre_shift": 1, "rounding": "stochastic", "shadow_check": True,
}


def test_training_run_with_int32_overflow():
    # Asked for chains of 784 products, seed 24 is a deterministic run whose
    # shadow check counts INT32 excursions: none in iterations 1-2, then
    # some from iteration 3 on.  The default 208-product target caps fc1's
    # forward chain at 112, and the same seed then counts none.
    long_chains = dict(_RESNET_SHADOW_CFG, chain_block=784)
    res = run_training(long_chains, "glyphs:train=576,test=256", "dfp16", seed=24)
    counts = [row["overflow_count"] for row in res["rows"]]   # cumulative
    assert len(counts) == 18
    assert counts[:2] == [0, 0]
    assert counts[2] > 0
    assert counts[-1] == res["overflow_count"]
    res = run_training(_RESNET_SHADOW_CFG, "glyphs:train=576,test=256", "dfp16", seed=24)
    assert res["overflow_count"] == 0


# The parity benchmark network's layers (tests/test_acceptance.py).
_PARITY_LAYERS = [
    {"type": "conv", "out_ch": 16, "kernel": 5, "pad": 2, "precision": "fp32", "bias": True},
    {"type": "relu"}, {"type": "maxpool", "kernel": 2},
    {"type": "conv", "out_ch": 32, "kernel": 3, "pad": 1}, {"type": "batchnorm"},
    {"type": "relu"}, {"type": "maxpool", "kernel": 2},
    {"type": "conv", "out_ch": 32, "kernel": 3, "pad": 1}, {"type": "batchnorm"},
    {"type": "relu"}, {"type": "flatten"},
    {"type": "fc", "out_features": 10, "precision": "fp32", "bias": True}]


@pytest.mark.parametrize("layers, want", [
    (_PARITY_LAYERS, ["relu1.out", "conv2.out", "relu2.out", "conv3.out"]),
    # relu4 feeds avgpool, which reads FP32: no boundary there, and fc1's
    # input is rounded once, after pool1
    (_RESNET_SHADOW_CFG["layers"],
     ["relu1.out", "relu2.out", "bn1", "conv4", "bn2", "pool1.out"]),
], ids=["parity", "resnet_shadow"])
def test_boundaries_only_where_integers_are_read(monkeypatch, layers, want):
    cfg = parse_config({"layers": layers, "loss": "softmax_xent", "rounding": "stochastic"})
    ctx = RunContext(q=make_quantizers(cfg, seed=3), policy=make_policy(cfg))
    rng = np.random.default_rng(3)
    model = build_model(cfg, (1, 28, 28), ctx, rng)
    events = record_quantize_events(monkeypatch)
    model.forward(rng.standard_normal((4, 1, 28, 28)).astype(np.float32))
    assert [name for kind, name, _ in events if kind == "q_a"] == want
