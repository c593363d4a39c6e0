"""Property tests: lowering, and the kernel's bit identity with the
reference's instruction emulator, over random geometry,
the FP32 input gradient and the DFP weight gradient against their plain
formulations, an fc layer against its GEMM formulation, a conv layer's
four passes in both precisions against the FP64 convolution oracle and
its adjoints over random geometry, the range,
exponent and error bounds of the format conversions, their exactness
against float64 formulas, average pooling's summation order and its
gradient against the broadcast form, max pooling against argmax, and the file
readers on truncated and corrupted files."""

import dataclasses
import math
import re
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import dfp.tensor
from dfp.arith import Empirical
from dfp.experiments import _conv_oracle_f64
from dfp.fileio import (METRICS_HEADER, read_dft, read_idx_images, read_idx_labels,
                        read_metrics, write_dft, write_idx_images, write_idx_labels,
                        write_metrics)
import dfp.kernels
from dfp.kernels import (BlockingParams, ConvSpec, KernelStats, conv_fprop, fp32_input_grad,
                         gemm_dfp, im2col, pack_weights)
from dfp.layers import AvgPool, Conv, Dense, MaxPool, Quantizers, RunContext
from dfp.tensor import (Biased, DfpTensor, Nearest, QuantConfig, Stochastic,
                        dequantize, extract_exponent, max_abs, quantize)
import reference
from reference import AccumTensor, _philox_uniforms, down_convert

# Derandomized so the suite is repeatable; each run covers the same cases.
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def conv_specs(draw, max_ch=40, max_out=3, max_k=4):
    """A valid ConvSpec: the input size is derived from a drawn output size,
    so every stride/pad combination (pad beyond kernel-1 included) occurs."""
    k = draw(st.integers(1, max_k))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, k + 1))
    oh, ow = draw(st.integers(1, max_out)), draw(st.integers(1, max_out))
    h = (oh - 1) * stride + k - 2 * pad
    w = (ow - 1) * stride + k - 2 * pad
    assume(h >= 1 and w >= 1)
    return ConvSpec(draw(st.integers(1, max_ch)), draw(st.integers(1, max_ch)),
                    h, w, k, k, stride, pad)


def _gather(x, spec, group):
    # direct per-element gather: column (g, r, t, cc) of row (n, oy, ox)
    # reads channel g*group+cc at (oy*s + r - p, ox*s + t - p), else zero
    n, c = x.shape[0], spec.in_ch
    cg = -(-c // group)
    idx = np.meshgrid(np.arange(n), np.arange(spec.oh), np.arange(spec.ow),
                      np.arange(cg), np.arange(spec.kh), np.arange(spec.kw),
                      np.arange(group), indexing="ij")
    ni, oy, ox, g, r, t, cc = idx
    ch = g * group + cc
    y = oy * spec.stride + r - spec.pad
    xx = ox * spec.stride + t - spec.pad
    ok = (ch < c) & (y >= 0) & (y < spec.h) & (xx >= 0) & (xx < spec.w)
    out = np.zeros(ok.shape, x.dtype)
    out[ok] = x[ni[ok], ch[ok], y[ok], xx[ok]]
    return out.reshape(n * spec.oh * spec.ow, -1)


@SETTINGS
@given(spec=conv_specs(), n=st.integers(1, 2), group=st.sampled_from([1, 16]),
       dtype=st.sampled_from([np.int16, np.float32]), seed=st.integers(0, 2**32 - 1))
def test_im2col_matches_direct_gather(spec, n, group, dtype, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(-30000, 30000, (n, spec.in_ch, spec.h, spec.w)).astype(dtype)
    cols = im2col(x, spec, group)
    assert cols.dtype == dtype
    npt.assert_array_equal(cols, _gather(x, spec, group))


def _input_grad_tiles(g_mat, wmat, spec):
    # fp32_input_grad as it runs, and with one image per tile of its adds
    whole = fp32_input_grad(g_mat, wmat, spec)
    saved, dfp.kernels._SCATTER_FLOATS = dfp.kernels._SCATTER_FLOATS, 1
    try:
        return whole, fp32_input_grad(g_mat, wmat, spec)
    finally:
        dfp.kernels._SCATTER_FLOATS = saved


@SETTINGS
@given(spec=conv_specs(max_k=5), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_fp32_input_grad_is_adjoint_of_the_forward_conv(spec, n, seed):
    # <im2col(x) @ wmat.T, g> == <x, fp32_input_grad(g, wmat)>, exact on
    # integer arrays
    rng = np.random.default_rng(seed)
    x = rng.integers(-100, 100, (n, spec.in_ch, spec.h, spec.w))
    wmat = rng.integers(-100, 100, (spec.out_ch, spec.in_ch * spec.kh * spec.kw))
    g = rng.integers(-100, 100, (n * spec.oh * spec.ow, spec.out_ch))
    for back in _input_grad_tiles(g, wmat, spec):
        assert back.shape == x.shape
        assert int(((im2col(x, spec) @ wmat.T) * g).sum()) == int((x * back).sum())


def _signed_f32(rng, shape):
    # float32 values of both signs with magnitudes 2**-20..2**21, a few -0.0
    mag = rng.uniform(1, 2, shape) * np.exp2(rng.integers(-20, 21, shape))
    f = (mag * rng.choice([-1.0, 1.0], shape)).astype(np.float32)
    f[rng.random(shape) < 0.1] = -0.0
    return f


@settings(SETTINGS, max_examples=80)
@given(spec=conv_specs(max_k=5), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
# K > 32 and C = 1, where one per-tap sgemm gives other bits than the whole
@example(spec=ConvSpec(9, 40, 7, 7, 3, 3, 2, 0), n=2, seed=1)
@example(spec=ConvSpec(1, 7, 3, 2, 5, 5, 1, 2), n=1, seed=2)
def test_fp32_input_grad_keeps_the_sgemm_and_tap_order_bits(spec, n, seed):
    # the bits of col2im(g_mat @ wmat): one sgemm over all taps, then the
    # taps summed in (kh, kw) order from +0.0, whatever the tiling of the adds
    rng = np.random.default_rng(seed)
    g = _signed_f32(rng, (n * spec.oh * spec.ow, spec.out_ch))
    wmat = _signed_f32(rng, (spec.out_ch, spec.in_ch * spec.kh * spec.kw))
    want = reference.col2im(g @ wmat, spec)
    for back in _input_grad_tiles(g, wmat, spec):
        assert back.shape == (n, spec.in_ch, spec.h, spec.w) and back.dtype == np.float32
        npt.assert_array_equal(back.view(np.uint32), want.view(np.uint32))


@settings(SETTINGS, max_examples=30)
@given(spec=conv_specs(), n=st.integers(1, 2), group=st.sampled_from([1, 16]),
       dtype=st.sampled_from([np.int16, np.float32]), seed=st.integers(0, 2**32 - 1))
def test_im2col_of_a_strided_view_matches_direct_gather(spec, n, group, dtype, seed):
    rng = np.random.default_rng(seed)
    big = rng.integers(-30000, 30000, (2 * n, 2 * spec.in_ch, spec.h + 1, spec.w)).astype(dtype)
    x = big[::-2, 1::2, 1:, ::-1]                # a view: negative, non-unit strides
    npt.assert_array_equal(im2col(x, spec, group), _gather(x, spec, group))


@SETTINGS
@given(n=st.integers(1, 4), c=st.one_of(st.integers(1, 40), st.integers(1, 4).map(lambda m: 16 * m)),
       group=st.sampled_from([1, 16]), dtype=st.sampled_from([np.int16, np.float32]),
       seed=st.integers(0, 2**32 - 1))
def test_lowering_of_1x1_images(n, c, group, dtype, seed):
    # an fc's lowering: the patch matrix is the input itself when no channel
    # padding is needed, and its input gradient is the sgemm, plus +0.0
    rng = np.random.default_rng(seed)
    spec = ConvSpec(c, 3, 1, 1, 1, 1)
    x = rng.integers(-30000, 30000, (n, c, 1, 1)).astype(dtype)
    cols = im2col(x, spec, group)
    npt.assert_array_equal(cols, _gather(x, spec, group))
    assert np.shares_memory(cols, x) == (c % group == 0)
    g, wmat = _signed_f32(rng, (n, 3)), _signed_f32(rng, (3, c))
    back = fp32_input_grad(g, wmat, spec)
    assert back.shape == x.shape
    npt.assert_array_equal(back.view(np.uint32), ((g @ wmat) + 0).reshape(x.shape).view(np.uint32))


@SETTINGS
@given(k=st.integers(1, 40), c=st.integers(1, 40), kh=st.integers(1, 5),
       kw=st.integers(1, 5), es=st.integers(-128, 127), seed=st.integers(0, 2**32 - 1))
def test_pack_weights_matrix_layout(k, c, kh, kw, es, seed):
    # W[k][c][r][s] is row ((c//16 * KH + r) * KW + s) * 16 + c%16, column k,
    # the row order of im2col(x, spec, 16)'s columns; padding is zero
    rng = np.random.default_rng(seed)
    w = rng.integers(-32767, 32768, (k, c, kh, kw)).astype(np.int16)
    pw = pack_weights(DfpTensor(w, es, 16))
    kpad, cpad = -(-k // 16) * 16, -(-c // 16) * 16
    assert pw.data.shape == (cpad * kh * kw, kpad) and pw.data.dtype == np.int16
    assert (pw.shape, pw.shared_exponent) == ((k, c, kh, kw), es)
    kk, cc, r, s = np.meshgrid(np.arange(k), np.arange(c), np.arange(kh), np.arange(kw),
                               indexing="ij")
    rows = ((cc // 16 * kh + r) * kw + s) * 16 + cc % 16
    npt.assert_array_equal(pw.data[rows, kk], w)
    pad = np.ones(pw.data.shape, bool)
    pad[rows, kk] = False
    assert not pw.data[pad].any()


@st.composite
def dfp_values(draw, shape):
    """Int16 elements of a drawn kind: narrow random, full-range random, or
    saturated at +32767 (every chain of two or more madds leaves int32)."""
    kind = draw(st.sampled_from(["narrow", "full", "saturated"]))
    bits = draw(st.integers(2, 15)) if kind == "narrow" else 16
    lim = (1 << (bits - 1)) - 1
    if kind == "saturated":
        el = np.full(shape, lim, np.int16)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        el = rng.integers(-lim, lim + 1, shape).astype(np.int16)
    return DfpTensor(el, draw(st.integers(-20, 0)), bits)


blockings = st.builds(BlockingParams, icblk=st.sampled_from([8, 16, 24, 32, 48]),
                      rb_size=st.integers(1, 30))


def _assert_engines_agree(run):
    outs = {}
    for emulate in (True, False):
        with reference.emulated(emulate), reference.chains() as parts:
            out, stats = run()
        outs[emulate] = (out, stats, parts)
    (oi, si, di), (of, sf, df) = outs[True], outs[False]
    npt.assert_array_equal(oi, of)
    assert si == sf                       # every KernelStats field
    event(f"int32 excursions: {si.overflow_count > 0}")
    assert len(di) == len(df)
    for a, b in zip(di, df):
        npt.assert_array_equal(a, b)


@settings(SETTINGS, max_examples=50)
@given(data=st.data(), spec=conv_specs(max_ch=36), n=st.integers(1, 2), blk=blockings)
def test_conv_engines_bit_identical(data, spec, n, blk):
    inp = data.draw(dfp_values((n, spec.in_ch, spec.h, spec.w)))
    wt = data.draw(dfp_values((spec.out_ch, spec.in_ch, spec.kh, spec.kw)))
    pw = pack_weights(wt)
    pol = Empirical(shadow_check=True)
    _assert_engines_agree(lambda: conv_fprop(inp, pw, spec, blk, pol))


@settings(SETTINGS, max_examples=50)
@given(data=st.data(), m=st.integers(1, 20), kk=st.integers(1, 40),
       n=st.integers(1, 40), blk=blockings)
def test_gemm_engines_bit_identical(data, m, kk, n, blk):
    a = data.draw(dfp_values((m, kk)))
    b = data.draw(dfp_values((kk, n)))
    pol = Empirical(shadow_check=True)
    _assert_engines_agree(lambda: gemm_dfp(a, b, blk, pol))


# === an fc layer is a 1x1 convolution ===


def _fc_case(n, c, k, bias, precision, rounding, seed):
    """A Dense layer after one forward and backward pass on random x and g,
    with its quantizer configuration and the inputs."""
    cfg = QuantConfig(rounding=rounding)
    ctx = RunContext(q=Quantizers(cfg), policy=Empirical(shadow_check=True))
    rng = np.random.default_rng(seed)
    fc = Dense(ctx, "fc", c, k, precision=precision, bias=bias, rng=rng)
    if bias:
        fc.b[...] = rng.standard_normal(k)
    x = rng.standard_normal((n, c)).astype(np.float32)
    g = rng.standard_normal((n, k)).astype(np.float32)
    out = fc.forward(x, train=True)
    gx = fc.backward(g)
    return fc, ctx, cfg, x, g, out, gx


def _same_bits(got, want):
    assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(SETTINGS, max_examples=30)
@given(n=st.integers(1, 6), c=st.integers(1, 40), k=st.integers(1, 40), bias=st.booleans(),
       rounding=st.sampled_from([Nearest(), Stochastic(seed=11)]), seed=st.integers(0, 2**16))
# a chain longer than chain_block, as resnet_shadow's fc1 (784 -> 10) runs
@example(n=3, c=784, k=10, bias=True, rounding=Stochastic(seed=11), seed=1)
@example(n=3, c=784, k=10, bias=False, rounding=Nearest(), seed=2)
def test_dfp_dense_equals_gemm_formulation(n, c, k, bias, rounding, seed):
    # output, weight and bias gradients, input gradient and counters equal,
    # bit for bit, those of three gemm_dfp calls on the same quantized operands
    fc, ctx, cfg, x, g, out, gx = _fc_case(n, c, k, bias, "dfp", rounding, seed)
    q = Quantizers(cfg)              # the same tensor ids, so the same draws
    a_q, w_q, e_q = q.q_a("fc", x), q.q_w("fc", fc.W), q.q_e("fc", g)

    def t(d):
        return DfpTensor(d.elements.T, d.shared_exponent, d.bit_width)

    stats = KernelStats()

    def gemm(a, b):
        blk = ctx.blocking_for(ConvSpec(a.shape[1], b.shape[1], 1, 1, 1, 1))
        res, st_ = gemm_dfp(a, b, blk, ctx.policy)
        stats.merge(st_)
        return res

    want_out = gemm(a_q, t(w_q))
    if bias:
        want_out = want_out + fc.b
    _same_bits(out, want_out)
    _same_bits(fc.gW, gemm(t(e_q), a_q))
    _same_bits(gx, gemm(e_q, w_q))
    if bias:
        _same_bits(fc.gb, g.sum(axis=0))
    assert ctx.stats == stats


@SETTINGS
@given(n=st.integers(1, 6), c=st.integers(1, 40), k=st.integers(1, 40), bias=st.booleans(),
       seed=st.integers(0, 2**16))
def test_fp32_dense_equals_matmul_formulation(n, c, k, bias, seed):
    fc, _, _, x, g, out, gx = _fc_case(n, c, k, bias, "fp32", Nearest(), seed)
    npt.assert_array_equal(out, x @ fc.W.T + fc.b if bias else x @ fc.W.T)
    npt.assert_array_equal(fc.gW, g.T @ x)
    npt.assert_array_equal(gx, g @ fc.W)
    if bias:
        npt.assert_array_equal(fc.gb, g.sum(axis=0))


@settings(SETTINGS, max_examples=40)
@given(data=st.data(), spec=conv_specs(), n=st.integers(1, 2),
       c=st.one_of(st.sampled_from([1, 3, 8, 24, 40]), st.integers(1, 40)),
       engine=st.sampled_from(["instructions", "fast"]))
@example(data=None, spec=ConvSpec(1, 5, 4, 4, 3, 3, 1, 1), n=2, c=24, engine="fast")
@example(data=None, spec=ConvSpec(1, 3, 3, 3, 2, 2, 1, 0), n=1, c=40, engine="instructions")
def test_dfp_weight_gradient_equals_the_channel_order_lowering(data, spec, n, c, engine):
    # a DFP conv lowers its weight-gradient activations in gcd(C, 16)-channel
    # chunks and puts gW's columns back in (c, kh, kw) order: gW's bits and
    # counters, shadow overflow counts included, equal those of the GEMM of
    # the plain (c, kh, kw) lowering, im2col's group 1
    spec = dataclasses.replace(spec, in_ch=c)
    rng = np.random.default_rng(spec.h * 1000 + c)
    if data is None:     # saturated activations: chains leave int32
        a = DfpTensor(np.full((n, c, spec.h, spec.w), 32767, np.int16), -14, 16)
    else:
        a = data.draw(dfp_values((n, c, spec.h, spec.w)))
    g = rng.uniform(3, 4, (n, spec.out_ch, spec.oh, spec.ow)).astype(np.float32)
    cfg = QuantConfig()
    ctx = RunContext(q=Quantizers(cfg), policy=Empirical(shadow_check=True))
    conv = Conv(ctx, "conv", c, spec.out_ch, spec.kh, spec.stride, spec.pad, first=True,
                rng=rng)
    conv.forward(a, train=True)
    ctx.stats = KernelStats()
    with reference.emulated(engine == "instructions"):
        conv.backward(g)

        ref = RunContext(q=Quantizers(cfg), policy=ctx.policy)
        e_q = ref.q.q_e("conv", g)
        e_mat = DfpTensor(np.ascontiguousarray(e_q.elements.transpose(1, 0, 2, 3)).reshape(
            spec.out_ch, -1), e_q.shared_exponent, e_q.bit_width)
        want = ref.gemm(e_mat, DfpTensor(im2col(a.elements, spec), a.shared_exponent,
                                         a.bit_width), "conv", "wgrad")
    _same_bits(conv.gW, want.reshape(conv.W.shape))
    assert ctx.stats == ref.stats
    event(f"int32 excursions: {ref.stats.overflow_count > 0}")


# === a conv layer against the FP64 oracle and its adjoints ===


def _near(got, oracle, *operands, terms):
    # To first order, an FP32 sum of `terms` products errs by at most
    # (terms - 1) * 2**-24 times the sum of their magnitudes,
    # oracle(*|operands|); a DFP chain is exact and rounds twice, converted
    # and spilled, so `terms` products in at most `terms` chains err by at
    # most 2 * terms * 2**-24 times that sum.
    want = oracle(*operands)
    assert got.shape == want.shape
    bound = terms * 2.0 ** -22 * oracle(*(np.abs(v) for v in operands))
    assert np.all(np.abs(got - want) <= bound)


@settings(SETTINGS, max_examples=150)
@given(spec=conv_specs(max_k=5), n=st.integers(1, 2), precision=st.sampled_from(["fp32", "dfp"]),
       bias=st.booleans(), seed=st.integers(0, 2**16))
@example(spec=ConvSpec(3, 4, 7, 7, 3, 3, 2, 1), n=2, precision="fp32", bias=True, seed=21)
@example(spec=ConvSpec(8, 16, 6, 6, 3, 3, 1, 1), n=2, precision="dfp", bias=False, seed=23)
@example(spec=ConvSpec(8, 8, 7, 7, 3, 3, 2, 1), n=2, precision="dfp", bias=False, seed=24)
def test_conv_layer_matches_the_float64_oracle(spec, n, precision, bias, seed):
    # fprop, weight, input and bias gradients of a Conv layer equal the FP64
    # convolution and its adjoints on the operands the layer multiplies: the
    # FP32 values, or their DFP16 quantization (nearest rounding ignores
    # tensor ids), within the rounding bound, which holds while no chain
    # leaves int32
    if precision == "dfp":
        assume(spec.pad <= spec.kh - 1)
    cfg = QuantConfig(16, Nearest(), 1)
    ctx = RunContext(q=Quantizers(cfg), policy=Empirical(shadow_check=True))
    rng = np.random.default_rng(seed)
    conv = Conv(ctx, "conv", spec.in_ch, spec.out_ch, spec.kh, spec.stride, spec.pad,
                precision=precision, bias=bias, rng=rng)
    if bias:
        conv.b[...] = rng.standard_normal(spec.out_ch)
    x = rng.standard_normal((n, spec.in_ch, spec.h, spec.w)).astype(np.float32)
    g = rng.standard_normal((n, spec.out_ch, spec.oh, spec.ow)).astype(np.float32)
    out = conv.forward(x, train=True)
    gx = conv.backward(g)
    assert ctx.stats.overflow_count == 0

    def operand(v):
        return dequantize(quantize(v, cfg)) if precision == "dfp" else v

    a, w, e = (operand(v).astype(np.float64) for v in (x, conv.W, g))
    k, s, p, taps, pixels = spec.kh, spec.stride, spec.pad, spec.kh * spec.kw, spec.oh * spec.ow
    b = conv.b if bias else np.zeros(spec.out_ch, np.float32)
    _near(out, lambda a, w, b: _conv_oracle_f64(a, w, s, p) + b[:, None, None], a, w, b,
          terms=spec.in_ch * taps + 1)
    _near(conv.gW, lambda a, e: reference.conv_weight_grad(a, e, k, k, s, p), a, e,
          terms=n * pixels)
    _near(gx, lambda e, w: reference.conv_input_grad(e, w, spec), e, w,
          terms=spec.out_ch * taps)
    if bias:
        _near(conv.gb, lambda g: g.sum(axis=(0, 2, 3)), g.astype(np.float64), terms=n * pixels)
    event(f"precision {precision}, stride {s}")


# === format conversion bounds ===

shapes = array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6)
finite_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
INT16_MIN, INT32_MIN = -(1 << 15), -(1 << 31)


@st.composite
def range_arrays(draw):
    """A non-empty int16, int32 or float32 array over the dtype's full range."""
    dtype = draw(st.sampled_from([np.int16, np.int32, np.float32]))
    if dtype == np.float32:
        elements = finite_f32
    else:
        info = np.iinfo(dtype)
        elements = st.integers(int(info.min), int(info.max))
    return draw(arrays(dtype, shapes, elements=elements))


@SETTINGS
@given(a=range_arrays())
@example(a=np.array([INT16_MIN, 5], np.int16))
@example(a=np.array([3, INT32_MIN], np.int32))
@example(a=np.array([-0.0], np.float32))
@example(a=np.array([-0.0, -2.5, 1.0], np.float32))
def test_max_abs_matches_widened_abs(a):
    wide = np.float64 if a.dtype == np.float32 else np.int64
    got = max_abs(a)
    assert got == np.abs(a.astype(wide)).max()
    assert type(got) is (float if a.dtype == np.float32 else int)


@SETTINGS
@given(f=arrays(np.float32, shapes, elements=finite_f32), p=st.integers(2, 16),
       data=st.data(),
       mode=st.sampled_from([Nearest(), Biased(), Stochastic(seed=7)]))
def test_quantize_range_exponent_and_error(f, p, data, mode):
    pre_shift = data.draw(st.integers(0, p - 2))
    t = quantize(f, QuantConfig(p, mode, pre_shift), tensor_id=3)
    fmax = float(np.abs(f).max())
    lim = (1 << (p - 1 - pre_shift)) - 1
    assert int(np.abs(t.elements.astype(np.int32)).max()) <= lim
    if fmax == 0.0:
        assert t.shared_exponent == 0 and not t.elements.any()
        return
    es = t.shared_exponent
    # inputs deep in the FP32 subnormal range clamp E_s at the int8 floor
    assert es == max(extract_exponent(fmax) - (p - 2) + pre_shift, -128)
    step = 2.0 ** es
    err = np.abs(t.elements.astype(np.float64) * step - f.astype(np.float64))
    assert np.all(err < step)
    if isinstance(mode, Nearest):
        # half a step wherever the scaled value rounds inside +-lim; only
        # the saturating sliver past lim + 1/2 clips, still within one step
        inside = np.abs(f.astype(np.float64)) <= (lim + 0.5) * step
        assert np.all(err[inside] <= step / 2)


def _quantize_f64(f, es, cfg, tensor_id):
    """Elements of quantize(f, cfg) at exponent es, computed in float64."""
    x = np.ldexp(f.astype(np.float64), -es)
    mode = cfg.rounding
    if isinstance(mode, Nearest):
        i = np.sign(x) * np.floor(np.abs(x) + 0.5)
    elif isinstance(mode, Biased):
        i = np.trunc(x)
    else:
        lo = np.floor(x)
        u = _philox_uniforms(mode.seed, tensor_id, x.size).reshape(x.shape)
        i = lo + (u < (x - lo))
    lim = (1 << (cfg.bit_width - 1 - cfg.pre_shift)) - 1
    return np.clip(i, -lim, lim).astype(np.int16)


def _f32(*values):
    return np.array(values, np.float32)


_TIE_UP = 0.5 - 2.0 ** -25             # float32 |x| + 0.5 rounds up to 1.0


@SETTINGS
@given(f=arrays(np.float32, shapes, elements=finite_f32), p=st.integers(2, 16),
       pre_shift=st.integers(0, 14),
       mode=st.sampled_from([Nearest(), Biased(), Stochastic(seed=7)]))
# Max element 1 sets E_s = -14 at P = 16: the others scale to |x| = 0.5 - 2**-25
# and to half-integers.  Then: subnormal inputs under E_s = 86, the clamp at
# E_s = -128, and the sliver just below 2**14 that rounds up past the limit.
@example(f=_f32(1, _TIE_UP * 2**-14, -_TIE_UP * 2**-14), p=16, pre_shift=0, mode=Nearest())
@example(f=_f32(1, 0.5 * 2**-14, -2.5 * 2**-14, 3.5 * 2**-14, -16382.5 * 2**-14),
         p=16, pre_shift=0, mode=Nearest())
@example(f=_f32(2**100, 1e-40, -3e-42), p=16, pre_shift=0, mode=Nearest())
@example(f=_f32(2**100, 1e-40, -3e-42), p=16, pre_shift=0, mode=Biased())
@example(f=_f32(1.5 * 2**-129, -2**-130, 2**-149), p=16, pre_shift=0, mode=Nearest())
@example(f=_f32(1 - 2**-24, -(1 - 2**-24)), p=16, pre_shift=1, mode=Nearest())
def test_quantize_matches_float64_formula(f, p, pre_shift, mode):
    cfg = QuantConfig(p, mode, min(pre_shift, p - 2))
    t = quantize(f, cfg, tensor_id=3)
    assert t.elements.tobytes() == _quantize_f64(f, t.shared_exponent, cfg, 3).tobytes()


def _binade(lo_bits, hi_bits):
    """Every float32 from bit pattern lo_bits up to, not including, hi_bits."""
    return np.arange(lo_bits, hi_bits, dtype=np.uint32).view(np.float32)


def _nearest_case(name):
    """(f, P, pre_shift) of one exhaustive or edge case of nearest rounding."""
    top = np.float32(2.0 ** 14)        # at P = 16, pre_shift 0: E_s = 0, x = f
    if name == "binade":
        # every float32 in [1/2, 1), which holds the one tie that the add
        # rounds to even (x = 1/2), with alternating signs
        f = _binade(0x3F000000, 0x3F800000)
        f[1::2] *= -1
        return np.concatenate([f, [top]]), 16, 0
    ties = np.arange(1 << 15, dtype=np.float32) + np.float32(0.5)
    if name == "ties":                 # n + 1/2 for n < 2**15 - 1, both signs
        return np.concatenate([ties[:-1], -ties[:-1]]), 16, 0
    if name == "ties-saturating":      # and 2**15 - 1/2, which clips to lim
        return np.concatenate([ties, -ties]), 16, 0
    if name == "half-down":            # 1/2 - 2**-25 and both its neighbours
        h = np.float32(_TIE_UP)
        near = [np.nextafter(h, np.float32(0)), h, np.nextafter(h, np.float32(1))]
        return np.array(near + [-v for v in near] + [top], np.float32), 16, 0
    if name == "zeros-subnormals":
        sub = _binade(1, 1 << 12)      # the smallest subnormals
        return np.concatenate([[0.0, -0.0, 2.0 ** -149, -(2.0 ** -126)], sub, -sub,
                               [1.0]]).astype(np.float32), 16, 0
    if name == "clamp":
        # the largest magnitude sets E_s far below -128; at the clamp x is
        # f * 2**128, a multiple of 2**-21, with ties at every n + 1/2
        f = _binade(1, 1 << 22)
        f[1::2] *= -1
        return f, 16, 0
    p, pre_shift = (int(v) for v in name.split("-")[1:])
    lim = (1 << (p - 1 - pre_shift)) - 1
    # Every magnitude is below 2, the largest at least 1, so E_s is
    # -(P - 2) + pre_shift, and x = f / 2**E_s: every n + 1/2 and n +- 1/4
    # up to lim + 3/4, and the top sliver just below 2**(P - 1 - pre_shift)
    step = 2.0 ** (-(p - 2) + pre_shift)
    grid = (np.arange(-lim - 1, lim + 1) + 0.5) * step
    sliver = 2 * _binade(0x3F7FF000, 0x3F800000)
    return np.concatenate([grid, grid - step / 4, grid + step / 4, sliver, -sliver]
                          ).astype(np.float32), p, pre_shift


@pytest.mark.parametrize("name", ["binade", "ties", "ties-saturating", "half-down",
                                  "zeros-subnormals", "clamp", "P-2-0", "P-8-0", "P-8-1",
                                  "P-16-0", "P-16-1"])
def test_nearest_quantize_add_and_truncate_matches_float64(name):
    # the float32 add of copysign(1/2 - 2**-25, x) and the truncating int16
    # store against sign(x) * floor(|x| + 1/2) in float64, chunk by chunk
    f, p, pre_shift = _nearest_case(name)
    cfg = QuantConfig(p, Nearest(), pre_shift)
    t = quantize(f, cfg)
    if name == "clamp":
        assert t.shared_exponent == -128
    if name.startswith("P-"):
        assert t.shared_exponent == -(p - 2) + pre_shift
    if name.startswith("P-") or name == "ties-saturating":
        assert np.abs(t.elements).max() == (1 << (p - 1 - pre_shift)) - 1
    for s in range(0, f.size, 1 << 20):
        chunk = slice(s, s + (1 << 20))
        want = _quantize_f64(f[chunk], t.shared_exponent, cfg, 0)
        assert t.elements[chunk].tobytes() == want.tobytes(), (name, s)


_SMALL_BLOCK = 64


@pytest.mark.parametrize("size", [_SMALL_BLOCK - 1, _SMALL_BLOCK, _SMALL_BLOCK + 1,
                                  2 * _SMALL_BLOCK + 3])
@pytest.mark.parametrize("mode", [Nearest(), Biased(), Stochastic(seed=7)], ids=repr)
def test_quantize_blocks_match_float64_formula(monkeypatch, size, mode):
    # quantize rounds in blocks; at sizes around the block edges every
    # element is the one the whole-tensor float64 reference gives it, whose
    # stochastic draws are _philox_uniforms' stream in one piece.
    monkeypatch.setattr(dfp.tensor, "_BLOCK", _SMALL_BLOCK)
    rng = np.random.default_rng(size)
    f = (rng.standard_normal((size, 1)) * 2.0 ** rng.integers(-20, 4, (size, 1)))
    f = f.astype(np.float32)
    cfg = QuantConfig(16, mode, 1)
    t = quantize(f, cfg, tensor_id=9)
    assert t.elements.shape == f.shape
    assert t.elements.tobytes() == _quantize_f64(f, t.shared_exponent, cfg, 9).tobytes()


@pytest.mark.parametrize("pre_shift", [0, 1])
@pytest.mark.parametrize("mode", [Nearest(), Biased(), Stochastic(seed=7)], ids=repr)
def test_quantize_saturates_in_the_top_sliver(mode, pre_shift):
    # A largest magnitude just below a power of two scales past lim, the
    # only case in which quantize clips; at P = 16 and pre_shift 0, lim + 1
    # would not fit in int16.  Fractions cover [0, 1) for the stochastic draws.
    top = 1 - 2.0 ** -24
    f = np.concatenate([_f32(top, -top), np.linspace(-top, top, 4001, dtype=np.float32)])
    cfg = QuantConfig(16, mode, pre_shift)
    t = quantize(f, cfg, tensor_id=11)
    lim = (1 << (15 - pre_shift)) - 1
    assert np.abs(t.elements).max() == lim
    assert t.elements.tobytes() == _quantize_f64(f, t.shared_exponent, cfg, 11).tobytes()


@pytest.mark.parametrize("es", [-128, -127, -1, 0, 1, 126, 127])
def test_dequantize_matches_float64_path(es):
    # every int16 element value
    el = np.arange(-32767, 32768, dtype=np.int16)
    want = np.ldexp(el.astype(np.float64), es)
    fits = np.abs(want) <= float(np.finfo(np.float32).max)
    got = dequantize(DfpTensor(el[fits], es, 16))
    assert got.dtype == np.float32
    assert got.tobytes() == want[fits].astype(np.float32).tobytes()
    if not fits.all():                 # the smallest magnitude past FP32 max
        v = int(np.abs(el[~fits]).min())
        for i in (v, -v):
            with pytest.raises(OverflowError):
                dequantize(DfpTensor(np.array([i], np.int16), es, 16))


@st.composite
def dfp_tensors(draw):
    """A DfpTensor of any bit width and any int8 shared exponent."""
    p = draw(st.integers(2, 16))
    lim = (1 << (p - 1)) - 1
    el = draw(arrays(np.int16, shapes, elements=st.integers(-lim, lim)))
    return DfpTensor(el, draw(st.integers(-128, 127)), p)


@SETTINGS
@given(t=dfp_tensors())
@example(t=DfpTensor(np.array([1, -1], np.int16), -128, 16))   # FP32 subnormal
@example(t=DfpTensor(np.array([1, -1], np.int16), 127, 16))    # largest in range
@example(t=DfpTensor(np.array([1, -2], np.int16), 127, 16))    # just past FP32 max
def test_dequantize_is_exact(t):
    es = t.shared_exponent
    want = [math.ldexp(int(i), es) for i in t.elements.flat]
    if max(abs(w) for w in want) > float(np.finfo(np.float32).max):
        with pytest.raises(OverflowError):
            dequantize(t)
        return
    got = dequantize(t)
    assert got.dtype == np.float32 and got.shape == t.shape
    assert [float(v) for v in got.flat] == want


@SETTINGS
@given(acc=arrays(np.int32, shapes, elements=st.integers(INT32_MIN, -INT32_MIN - 1)),
       shift=st.integers(0, 31), p=st.integers(2, 16), es=st.integers(-128, 96))
@example(acc=np.array([INT32_MIN, 1], np.int32), shift=0, p=16, es=0)
def test_down_convert_fits_and_bounds_error(acc, shift, p, es):
    acc = acc >> shift                 # spread the magnitudes over every width
    t = down_convert(AccumTensor(acc.copy(), es), p)
    lim = (1 << (p - 1)) - 1
    top = int(np.abs(t.elements.astype(np.int32)).max())
    assert top <= lim
    if not acc.any():
        assert t.shared_exponent == es and top == 0
        return
    r_s = t.shared_exponent - es
    assert r_s >= 0
    if r_s:                            # no magnitude bit is wasted
        assert top >= 1 << (p - 2)
    err = t.elements.astype(np.int64) * (1 << r_s) - acc.astype(np.int64)
    assert np.all(np.abs(err) < 1 << r_s)


# === average pooling ===


@SETTINGS
@given(n=st.integers(1, 3), c=st.integers(1, 4), oh=st.integers(1, 4), ow=st.integers(1, 4),
       k=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_avgpool_sums_window_rows_in_order(n, c, oh, ow, k, seed):
    # each window row summed over its columns in order from +0.0, the row
    # sums in row order, then divided by k*k; where the output is more than
    # one column wide and k <= 7, those are the bits of numpy's mean
    rng = np.random.default_rng(seed)
    x = _signed_f32(rng, (n, c, oh * k, ow * k))
    x[rng.random(x.shape) < 0.4] = -0.0      # ReLU's zeros, whole windows of them
    want = np.empty((n, c, oh, ow), np.float32)
    for idx in np.ndindex(*want.shape):
        b, ch, y, xx = idx
        win = x[b, ch, y * k: y * k + k, xx * k: xx * k + k]
        rows = []
        for i in range(k):
            row = np.float32(0)
            for j in range(k):
                row = np.float32(row + win[i, j])
            rows.append(row)
        total = rows[0]
        for row in rows[1:]:
            total = np.float32(total + row)
        want[idx] = total / np.float32(k * k)
    got = AvgPool(None, "pool", k).forward(x, train=True)
    assert got.tobytes() == want.tobytes()
    if ow > 1 and k <= 7:
        assert got.tobytes() == x.reshape(n, c, oh, k, ow, k).mean(axis=(3, 5)).tobytes()


@SETTINGS
@given(n=st.integers(1, 3), c=st.integers(1, 4), oh=st.integers(1, 5), ow=st.integers(1, 5),
       k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_avgpool_backward_equals_broadcast_formulation(n, c, oh, ow, k, seed):
    # each input pixel gets its window's gradient times 1/(k*k), signed zeros kept
    rng = np.random.default_rng(seed)
    g = _signed_f32(rng, (n, c, oh, ow))
    pool = AvgPool(None, "pool", k)
    pool.forward(np.zeros((n, c, oh * k, ow * k), np.float32), train=True)
    got = pool.backward(g)
    scaled = (g * np.float32(1.0 / (k * k)))[:, :, :, None, :, None]
    want = np.broadcast_to(scaled, (n, c, oh, k, ow, k)).reshape(n, c, oh * k, ow * k)
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()


# === max pooling ===


def _argmax_pool(arr, g, k):
    """Max pooling by argmax over transposed window copies; returns the
    output and the input gradient for output gradient g."""
    n, c, h, w = arr.shape
    win = np.ascontiguousarray(arr.reshape(n, c, h // k, k, w // k, k)
                               .transpose(0, 1, 2, 4, 3, 5)).reshape(n, c, h // k, w // k, k * k)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    z = np.zeros(win.shape, np.float32)
    np.put_along_axis(z, idx[..., None], g[..., None], axis=-1)
    z = z.reshape(n, c, h // k, w // k, k, k).transpose(0, 1, 2, 4, 3, 5)
    return out, np.ascontiguousarray(z).reshape(n, c, h, w)


def _max_pool(k):
    cfg = QuantConfig()
    return MaxPool(RunContext(q=Quantizers(cfg)), "pool", k)


# few distinct values, so windows tie often; zeros of both signs
tie_f32 = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), finite_f32)
tie_i16 = st.one_of(st.sampled_from([0, 1, -1, 32767, -32767]), st.integers(-32767, 32767))


@SETTINGS
@given(data=st.data(), k=st.sampled_from([2, 3, 4]), n=st.integers(1, 2), c=st.integers(1, 3),
       oh=st.integers(1, 4), ow=st.integers(1, 4), quantized=st.booleans(),
       relu=st.booleans())
def test_maxpool_matches_argmax(data, k, n, c, oh, ow, quantized, relu):
    # the integer path (maximum, then the first equal view) and the float
    # scan, in training and in eval, where no index is kept
    shape = (n, c, oh * k, ow * k)
    arr = data.draw(arrays(np.int16 if quantized else np.float32, shape,
                           elements=tie_i16 if quantized else tie_f32))
    if relu:                           # as ReLU emits them: x * mask gives -0.0
        arr = np.maximum(arr, 0) if quantized else arr * (arr > 0)
    g = data.draw(arrays(np.float32, (n, c, oh, ow), elements=tie_f32))
    want_out, want_gx = _argmax_pool(arr, g, k)
    pool = _max_pool(k)
    for train in (False, True):
        out = pool.forward(DfpTensor(arr, -3, 16) if quantized else arr, train=train)
        if quantized:
            assert out.shared_exponent == -3
            out = out.elements
        assert out.dtype == arr.dtype and out.tobytes() == want_out.tobytes()
    gx = pool.backward(g)
    assert gx.dtype == np.float32 and gx.tobytes() == want_gx.tobytes()


@pytest.mark.parametrize("quantized", [False, True])
def test_maxpool_backward_needs_a_training_forward(quantized):
    # an eval forward drops the index, so a stale one can route no gradient
    arr = np.arange(32, dtype=np.int16).reshape(1, 2, 4, 4)
    x = DfpTensor(arr, 0, 16) if quantized else arr.astype(np.float32)
    pool = _max_pool(2)
    g = np.ones((1, 2, 2, 2), np.float32)
    with pytest.raises(RuntimeError, match="^pool: backward without a training forward"):
        pool.backward(g)
    pool.forward(x, train=True)
    pool.forward(x, train=False)
    with pytest.raises(RuntimeError, match="^pool: backward without a training forward"):
        pool.backward(g)
    pool.forward(x, train=True)
    assert pool.backward(g).sum() == 8


@pytest.mark.parametrize("k", [1, 12, 17])    # window indices past int8 and uint8
def test_maxpool_wide_windows_match_argmax(k):
    rng = np.random.default_rng(k)
    arr = rng.integers(-1, 2, (2, 2, 2 * k, k)).astype(np.float32)
    arr *= arr > 0                     # zeros of both signs
    g = rng.standard_normal((2, 2, 2, 1)).astype(np.float32)
    want_out, want_gx = _argmax_pool(arr, g, k)
    pool = _max_pool(k)
    assert pool.forward(arr, train=True).tobytes() == want_out.tobytes()
    assert pool.backward(g).tobytes() == want_gx.tobytes()
    ints = arr.astype(np.int16)        # the integer path's window weights too
    out = pool.forward(DfpTensor(ints, 0, 16), train=True).elements
    assert out.tobytes() == want_out.astype(np.int16).tobytes()
    assert pool.backward(g).tobytes() == want_gx.tobytes()


# === file readers ===
#
# Every strict prefix of a valid file, and every single-byte flip of its
# header, must raise a ValueError naming a byte offset, unless the flipped
# file decodes as a well-formed tensor of the shape its header states.

READER_SETTINGS = settings(SETTINGS, max_examples=15)
flip_masks = st.lists(st.integers(1, 255), min_size=1, max_size=2, unique=True)


def _probe(path, blob, read):
    """read(path) of a file holding blob, or None if it raised a ValueError
    naming the file and a byte offset; any other error fails the test."""
    with open(path, "wb") as fh:
        fh.write(blob)
    try:
        return read(path)
    except ValueError as e:
        assert str(path) in str(e) and re.search(r"at byte \d+", str(e)), str(e)
        return None


def _check_prefixes_and_flips(path, blob, head, masks, read, check):
    # blob's first head bytes are its header; check(value, file) asserts the
    # value is what the file's header states
    for cut in range(len(blob)):
        assert _probe(path, blob[:cut], read) is None, f"prefix of {cut} bytes decoded"
    for pos in range(head):
        for mask in masks:
            bad = bytearray(blob)
            bad[pos] ^= mask
            value = _probe(path, bytes(bad), read)
            if value is not None:
                check(value, bytes(bad))


def _dft_check(value, blob):
    tag, width = blob[4], blob[5]
    off = 7 if tag == 1 else 6
    rank = struct.unpack_from("<I", blob, off)[0]
    dims = struct.unpack_from(f"<{rank}I", blob, off + 4)
    if tag == 1:
        assert isinstance(value, DfpTensor) and value.bit_width == width
        assert value.shared_exponent == struct.unpack_from("<b", blob, 6)[0]
        elements, dtype = value.elements, "<i2"
    else:
        assert isinstance(value, np.ndarray) and width == 32
        elements, dtype = value, "<f4"
    assert elements.shape == dims
    assert elements.astype(dtype).tobytes() == blob[off + 4 + 4 * rank:]


@st.composite
def dft_tensors(draw):
    """An FP32 array or a quantized tensor within the FP32 range, of rank
    0-3, empty ones included."""
    shape = draw(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    if draw(st.booleans()):
        return draw(arrays(np.float32, shape))
    p = draw(st.integers(2, 16))
    lim = (1 << (p - 1)) - 1
    elements = draw(arrays(np.int16, shape, elements=st.integers(-lim, lim)))
    return DfpTensor(elements, draw(st.integers(-128, 112)), p)


@READER_SETTINGS
@given(t=dft_tensors(), masks=flip_masks)
def test_dft_reader_rejects_prefixes_and_header_flips(tmp_path_factory, t, masks):
    path = tmp_path_factory.mktemp("dft") / "t.dft"
    write_dft(str(path), t)
    blob = path.read_bytes()
    back = read_dft(str(path))                  # the round trip
    _dft_check(back, blob)
    quantized = isinstance(t, DfpTensor)
    assert quantized == isinstance(back, DfpTensor)
    want = t.elements if quantized else t
    assert (back.elements if quantized else back).tobytes() == want.tobytes()
    _check_prefixes_and_flips(path, blob, len(blob) - want.nbytes, masks, read_dft,
                              _dft_check)


@READER_SETTINGS
@given(images=st.booleans(), shape=array_shapes(min_dims=3, max_dims=3, min_side=0,
                                                  max_side=4), masks=flip_masks)
def test_idx_readers_reject_prefixes_and_header_flips(tmp_path_factory, images, shape,
                                                      masks):
    path = tmp_path_factory.mktemp("idx") / "t.idx"
    arr = np.arange(math.prod(shape), dtype=np.uint8).reshape(shape)
    if not images:
        arr = arr.reshape(-1)
    (write_idx_images if images else write_idx_labels)(str(path), arr)
    read = read_idx_images if images else read_idx_labels
    blob = path.read_bytes()
    head = 4 * (1 + arr.ndim)

    def check(value, blob):
        dims = struct.unpack_from(f">{arr.ndim}I", blob, 4)
        assert value.dtype == np.uint8 and value.shape == dims
        assert value.tobytes() == blob[head:]

    check(read(str(path)), blob)                # the round trip
    _check_prefixes_and_flips(path, blob, head, masks, read, check)


@st.composite
def metrics_rows(draw):
    """1-6 metrics rows as train_loop makes them: increasing iterations, an
    accuracy on some rows and a cumulative overflow count."""
    rows, iteration, overflow = [], 0, 0
    for i in range(draw(st.integers(1, 6))):
        iteration += draw(st.integers(1, 20))
        overflow += draw(st.integers(0, 50))
        rows.append({"iteration": iteration, "epoch": i // 2,
                     "train_loss": draw(st.floats(0, 10)),
                     "val_acc": draw(st.one_of(st.just(""), st.floats(0, 1))),
                     "overflow_count": overflow, "wall_ms": draw(st.floats(0, 1e4))})
    return rows


def _check_metrics(rows, blob):
    # rows read from blob hold what read_metrics promises: one row per data
    # line, typed fields, a finite loss and increasing iterations
    lines = blob.split(b"\n")
    assert len(rows) == len(lines) - 1 - (lines[-1] == b"")
    for prev, row in zip([None] + rows, rows):
        assert tuple(row) == METRICS_HEADER
        assert all(type(row[k]) is int for k in ("iteration", "epoch", "overflow_count"))
        assert type(row["train_loss"]) is float and math.isfinite(row["train_loss"])
        assert row["val_acc"] == "" or type(row["val_acc"]) is float
        assert type(row["wall_ms"]) is float
        assert prev is None or row["iteration"] > prev["iteration"]


@READER_SETTINGS
@given(rows=metrics_rows(), masks=flip_masks, data=st.data())
def test_metrics_reader_rejects_prefixes_and_byte_flips(tmp_path_factory, rows, masks, data):
    # every strict prefix, each single-byte flip and some two-byte flips of a
    # metrics file raise a ValueError naming the file and line, or read as
    # a well-formed file
    path = tmp_path_factory.mktemp("metrics") / "m.csv"
    write_metrics(str(path), rows)
    blob = path.read_bytes()
    back = read_metrics(str(path))                  # the round trip
    _check_metrics(back, blob)
    assert [r["iteration"] for r in back] == [r["iteration"] for r in rows]

    def probe(bad):
        path.write_bytes(bad)
        try:
            value = read_metrics(str(path))
        except ValueError as e:
            assert str(e).startswith(f"{path}: line ") and re.search(r"line \d+", str(e)), e
            return
        _check_metrics(value, bad)

    for cut in range(len(blob)):
        probe(blob[:cut])
    pairs = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                         st.integers(0, len(blob) - 1)), max_size=20))
    for spots in [(pos,) for pos in range(len(blob))] + pairs:
        for mask in masks:
            bad = bytearray(blob)
            for pos in set(spots):
                bad[pos] ^= mask
            probe(bytes(bad))
