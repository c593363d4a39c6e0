"""Blocked integer convolution kernels: madd semantics, weight lowering, and
the kernel against the reference's instruction emulator."""

import numpy as np
import numpy.testing as npt
import pytest

import reference
from dfp import kernels
from dfp.arith import INT32_MAX, INT32_MIN
from dfp.kernels import (BlockingParams, ConvSpec, Empirical, Fraction,
                         KernelStats, chain_length, conv_fprop,
                         default_blocking, gemm_dfp, im2col, overhead_ratio,
                         pack_weights)
from dfp.tensor import DfpTensor, Nearest, QuantConfig, dequantize, quantize
from reference import (AccumTensor, dfp_multiply, safe_chain_length, spill_to_fp32,
                       vnni_madd)

# === helpers ===


def _rand_dfp(rng, shape, pre_shift=1, scale=1.0):
    x = (rng.standard_normal(shape) * scale).astype(np.float32)
    return quantize(x, QuantConfig(16, Nearest(), pre_shift),
                    tensor_id=int(rng.integers(1 << 30)))


def _conv_int64(inp, wt, spec):
    # exact integer convolution of the stored elements, accumulated in int64
    n = inp.elements.shape[0]
    oh = (spec.h + 2 * spec.pad - spec.kh) // spec.stride + 1
    ow = (spec.w + 2 * spec.pad - spec.kw) // spec.stride + 1
    xp = np.zeros((n, spec.in_ch, spec.h + 2 * spec.pad, spec.w + 2 * spec.pad),
                  np.int64)
    xp[:, :, spec.pad: spec.pad + spec.h, spec.pad: spec.pad + spec.w] = \
        inp.elements
    w64 = wt.elements.astype(np.int64)
    acc = np.zeros((n, spec.out_ch, oh, ow), np.int64)
    for r in range(spec.kh):
        for s in range(spec.kw):
            xs = xp[:, :, r: r + oh * spec.stride: spec.stride,
                    s: s + ow * spec.stride: spec.stride]
            acc += np.einsum("nchw,kc->nkhw", xs, w64[:, :, r, s])
    return acc


# === vnni_madd ===


def test_vnni_madd_known():
    # vout[o] += sum_v vinp2[v][2o]*mem[2v] + vinp2[v][2o+1]*mem[2v+1]
    mem = np.arange(1, 9, dtype=np.int16)            # 1..8
    vinp2 = np.zeros((4, 32), np.int16)
    vinp2[0, 0] = 10    # lane 0, even of vector 0: 10*mem[0] = 10
    vinp2[0, 1] = 20    # lane 0, odd  of vector 0: 20*mem[1] = 40
    vinp2[3, 30] = 3    # lane 15, even of vector 3: 3*mem[6] = 21
    vinp2[3, 31] = -4   # lane 15, odd  of vector 3: -4*mem[7] = -32
    vout = np.full(16, 100, np.int32)
    res = vnni_madd(mem, vinp2, vout)
    assert res is vout                              # in-place update
    expect = np.full(16, 100, np.int32)
    expect[0] += 50
    expect[15] += 21 - 32
    npt.assert_array_equal(vout, expect)


def test_vnni_madd_matches_direct_loop():
    rng = np.random.default_rng(3001)
    for _ in range(200):
        mem = rng.integers(-32768, 32768, 8).astype(np.int16)
        vinp2 = rng.integers(-32768, 32768, (4, 32)).astype(np.int16)
        vout = rng.integers(-(1 << 31), 1 << 31, 16).astype(np.int32)
        expect = vout.astype(np.int64).copy()
        for o in range(16):
            for v in range(4):
                expect[o] += (int(vinp2[v, 2 * o]) * int(mem[2 * v])
                              + int(vinp2[v, 2 * o + 1]) * int(mem[2 * v + 1]))
        expect = (expect & 0xFFFFFFFF).astype(np.uint32).view(np.int32)
        got = vnni_madd(mem, vinp2, vout.copy())
        npt.assert_array_equal(got, expect)


def test_vnni_madd_wraps_int32():
    mem = np.zeros(8, np.int16)
    mem[0] = 2
    vinp2 = np.zeros((4, 32), np.int16)
    vinp2[0, 0] = 16384                             # +32768 per call
    vout = np.full(16, 0, np.int32)
    vout[0] = (1 << 31) - 1
    vnni_madd(mem, vinp2, vout)
    assert vout[0] == -(1 << 31) + 32767            # wrapped, no exception


def test_vnni_madd_validation():
    ok_m = np.zeros(8, np.int16)
    ok_v = np.zeros((4, 32), np.int16)
    ok_o = np.zeros(16, np.int32)
    with pytest.raises(ValueError):
        vnni_madd(np.zeros(4, np.int16), ok_v, ok_o)
    with pytest.raises(ValueError):
        vnni_madd(ok_m, np.zeros((4, 16), np.int16), ok_o)
    with pytest.raises(ValueError):
        vnni_madd(ok_m, ok_v, np.zeros(16, np.int64))


# === weight lowering ===


def _matrix_row(c, r, s, kh, kw):
    # row of W[k][c][r][s] in the (L, Kpad) weight matrix
    return ((c // 16 * kh + r) * kw + s) * 16 + c % 16


def test_pack_weights_index_map():
    # W[k][c][r][s] -> data[((c//16 * KH + r) * KW + s) * 16 + c%16, k]
    rng = np.random.default_rng(3002)
    w = rng.integers(-1000, 1000, (48, 32, 3, 3)).astype(np.int16)
    pw = pack_weights(DfpTensor(w, -9, 16))
    assert pw.data.shape == (32 * 3 * 3, 48)
    for k, c, r, s in [(0, 0, 0, 0), (17, 5, 2, 1), (47, 31, 1, 2), (16, 16, 0, 2)]:
        assert pw.data[_matrix_row(c, r, s, 3, 3), k] == w[k, c, r, s]


def test_pack_weights_pads_with_zeros():
    w = np.arange(1, 20 * 8 + 1, dtype=np.int16).reshape(20, 8, 1, 1)
    pw = pack_weights(DfpTensor(w, -3, 16))
    assert pw.data.shape == (16, 32)
    assert not pw.data[8:, :].any()                     # channels 8..15
    assert not pw.data[:, 20:].any()                    # out 20..31
    npt.assert_array_equal(pw.data[:8, :20], w[:, :, 0, 0].T)


def test_pack_unpack_roundtrip():
    # reading every element back through the row map recovers the weights
    rng = np.random.default_rng(3003)
    for k, c, kh in [(16, 16, 3), (24, 8, 5), (10, 40, 1)]:
        w = rng.integers(-30000, 30000, (k, c, kh, kh)).astype(np.int16)
        pw = pack_weights(DfpTensor(w, -11, 16))
        kk, cc, r, s = np.meshgrid(np.arange(k), np.arange(c), np.arange(kh),
                                   np.arange(kh), indexing="ij")
        back = pw.data[_matrix_row(cc, r, s, kh, kh), kk]
        npt.assert_array_equal(back, w)
        assert (pw.shape, pw.shared_exponent) == (w.shape, -11)


def test_conv_fprop_rejects_weights_not_matching_spec():
    spec = ConvSpec(16, 16, 4, 4, 3, 3, 1, 1)
    inp = DfpTensor(np.zeros((1, 16, 4, 4), np.int16), 0, 16)
    bad = pack_weights(DfpTensor(np.zeros((16, 16, 1, 1), np.int16), 0, 16))
    with pytest.raises(ValueError, match=r"weights shape \(16, 16, 1, 1\) does not match "
                       r"spec \(16, 16, 3, 3\)"):
        conv_fprop(inp, bad, spec)


# === chain lengths and analytic overheads ===


def test_chain_length_known():
    assert chain_length(ConvSpec(16, 16, 6, 6, 3, 3, 1, 1),
                        BlockingParams(16, 28)) == 144
    assert chain_length(ConvSpec(64, 32, 8, 8, 3, 3, 1, 1),
                        BlockingParams(32, 28)) == 288
    assert chain_length(ConvSpec(256, 16, 4, 4, 1, 1, 1, 0),
                        BlockingParams(256, 28)) == 256


def test_overhead_ratio_known():
    assert overhead_ratio(ConvSpec(64, 64, 8, 8, 3, 3, 1, 1),
                          BlockingParams(64, 4)) == Fraction(1, 72)
    assert overhead_ratio(ConvSpec(16, 16, 8, 8, 1, 1, 1, 0),
                          BlockingParams(16, 1)) == Fraction(1, 2)
    r = overhead_ratio(ConvSpec(256, 256, 8, 8, 3, 3, 1, 1),
                       BlockingParams(256, 28))
    assert r == Fraction(1, 288)
    assert r < Fraction(1, 100)


def test_overhead_ratio_independent_of_rb():
    spec = ConvSpec(64, 64, 8, 8, 3, 3, 1, 1)
    assert overhead_ratio(spec, BlockingParams(64, 1)) \
        == overhead_ratio(spec, BlockingParams(64, 97))


# === default blocking ===


def test_default_blocking_divides_and_hits_target():
    # smallest multiple of 16 dividing padded C with chain >= 208, unless
    # that chain passes 416: then the largest whose chain stays within 208
    cases = [
        (ConvSpec(256, 16, 4, 4, 1, 1, 1, 0), 256),
        (ConvSpec(64, 64, 8, 8, 3, 3, 1, 1), 32),
        (ConvSpec(512, 64, 8, 8, 3, 3, 1, 1), 32),
        (ConvSpec(48, 16, 8, 8, 3, 3, 1, 1), 16),       # 432 products capped to 144
        (ConvSpec(784, 10, 1, 1, 1, 1, 1, 0), 112),     # resnet_shadow's fc1
        (ConvSpec(208, 16, 4, 4, 1, 1, 1, 0), 208),
        (ConvSpec(16, 16, 6, 6, 3, 3, 1, 1), 16),
        (ConvSpec(16, 16, 8, 8, 7, 7, 1, 3), 16),       # no block within 208
    ]
    for spec, want in cases:
        blk = default_blocking(spec)
        assert blk.icblk == want, spec
        assert (16 * ((spec.in_ch + 15) // 16)) % blk.icblk == 0


# === the kernel against the instruction emulator ===

def test_emulated_swaps_the_kernel_and_restores_it():
    fast = kernels._run_fast
    with reference.emulated(False):
        assert kernels._run_fast is fast
    with pytest.raises(RuntimeError):
        with reference.emulated():
            assert kernels._run_fast is reference.run_instructions
            raise RuntimeError
    assert kernels._run_fast is fast


SHAPES = [
    # (N, C, K, H, W, KH, KW, stride, pad)
    (2, 8, 24, 5, 7, 3, 3, 1, 1),
    (1, 24, 16, 9, 9, 5, 5, 2, 2),
    (3, 16, 16, 6, 6, 1, 1, 1, 0),
    (2, 24, 24, 7, 7, 3, 3, 2, 0),
]


@pytest.mark.parametrize("shape", SHAPES)
def test_engines_bit_identical(shape):
    n, c, k, h, w, kh, kw, st, pad = shape
    rng = np.random.default_rng(3100 + c + k)
    spec = ConvSpec(c, k, h, w, kh, kw, st, pad)
    inp = _rand_dfp(rng, (n, c, h, w))
    wt = _rand_dfp(rng, (k, c, kh, kw), scale=0.2)
    pw = pack_weights(wt)
    pol = Empirical(shadow_check=True)
    with reference.emulated():
        out_i, st_i = conv_fprop(inp, pw, spec, policy=pol)
    out_f, st_f = conv_fprop(inp, pw, spec, policy=pol)
    npt.assert_array_equal(out_i, out_f)
    assert st_i == st_f


def test_engines_agree_on_overflow_counts():
    # full-scale constants force every chain out of int32 range
    spec = ConvSpec(32, 16, 4, 4, 1, 1, 1, 0)
    inp = DfpTensor(np.full((1, 32, 4, 4), 32767, np.int16), -15, 16)
    wt = DfpTensor(np.full((16, 32, 1, 1), 32767, np.int16), -15, 16)
    pw = pack_weights(wt)
    pol = Empirical(shadow_check=True)
    with reference.emulated():
        out_i, st_i = conv_fprop(inp, pw, spec, policy=pol)
        # without the shadow pass nothing is counted
        _, st_off = conv_fprop(inp, pw, spec, policy=Empirical())
    out_f, st_f = conv_fprop(inp, pw, spec, policy=pol)
    assert st_i.overflow_count == 16 * 16       # every (element, chain) pair
    assert st_i.overflow_count == st_f.overflow_count
    npt.assert_array_equal(out_i, out_f)        # wrapped identically
    assert st_off.overflow_count == 0


def _fast_equals_instructions(run):
    out_f, st_f = run()
    with reference.emulated():
        out_i, st_i = run()
    npt.assert_array_equal(out_f, out_i)
    assert st_f == st_i
    return st_f


@pytest.mark.parametrize("seed", [0, 1])
def test_gemm_engines_agree_on_bench_operands(seed):
    # dfp bench-gemm --m 8 --n 16 --k 64 --icblk 32 --trials 2: gaussian
    # operands at pre_shift 1, shadow on
    rng = np.random.default_rng(seed)
    a, b = _rand_dfp(rng, (8, 64)), _rand_dfp(rng, (64, 16))
    blk = BlockingParams(icblk=32)
    pol = Empirical(shadow_check=True)
    _fast_equals_instructions(lambda: gemm_dfp(a, b, blk, pol))


def test_conv_engines_agree_on_adversarial_bench_operands():
    # dfp bench-conv --spec 16,16,6,6,3,3,1,1 --batch 2 --dist adversarial
    # --pre-shift 0: every element at 2**15 - 1, so the chains overflow
    spec = ConvSpec(16, 16, 6, 6, 3, 3, 1, 1)
    inp = DfpTensor(np.full((2, 16, 6, 6), 32767, np.int16), -14, 16)
    pw = pack_weights(DfpTensor(np.full((16, 16, 3, 3), 32767, np.int16), -14, 16))
    pol = Empirical(shadow_check=True)
    stats = _fast_equals_instructions(lambda: conv_fprop(inp, pw, spec, None, pol))
    assert stats.overflow_count > 0


# 2**28 = 16384 * 16384 and 2**28 - 1 = 16383 * 16385.  Each GEMM below is
# one 16-product chain of two madds (icblk=16) into a single output column.
_P = 1 << 14
_SHADOW_CASES = {
    # name: (A row, B column, events)
    "peak INT32_MAX": ([_P] * 7 + [_P - 1] + [0] * 8, [_P] * 7 + [_P + 1] + [0] * 8, 0),
    "peak 2**31": ([_P] * 8 + [0] * 8, [_P] * 8 + [0] * 8, 1),
    "trough INT32_MIN": ([-_P] * 8 + [0] * 8, [_P] * 8 + [0] * 8, 0),
    "trough INT32_MIN - 1": ([-_P] * 8 + [1] + [0] * 7, [_P] * 8 + [-1] + [0] * 7, 1),
    # 2**31 after the first madd, 2**31 - 1 after the second
    "transient": ([_P] * 8 + [1] + [0] * 7, [_P] * 8 + [-1] + [0] * 7, 1),
}


def _shadow_oracle(a, b, icblk):
    # (output, chain) pairs whose int64 running sum leaves int32 at a madd
    # boundary (every 8 products)
    a64, b64 = a.astype(np.int64), b.astype(np.int64)
    count = 0
    for c0 in range(0, a.shape[1], icblk):
        run = np.zeros((a.shape[0], b.shape[1]), np.int64)
        bad = np.zeros(run.shape, bool)
        for i in range(c0, min(c0 + icblk, a.shape[1]), 8):
            run += a64[:, i: i + 8] @ b64[i: i + 8]
            bad |= (run > INT32_MAX) | (run < INT32_MIN)
        count += int(bad.sum())
    return count


def _shadow_counts(a_rows, b_cols):
    # b_cols: one 16-product column, or a list of them (one per lane)
    a = np.array(a_rows, np.int16)
    b = np.array(b_cols, np.int16).reshape(-1, 16).T
    want = _shadow_oracle(a, b, 16)
    da, db = DfpTensor(a, -14, 16), DfpTensor(b, -14, 16)
    pol, blk = Empirical(shadow_check=True), BlockingParams(icblk=16)
    got = []
    for emulate in (True, False):
        with reference.emulated(emulate):
            got.append(gemm_dfp(da, db, blk, pol)[1].overflow_count)
    return want, got


@pytest.mark.parametrize("case", sorted(_SHADOW_CASES))
def test_shadow_count_at_int32_boundaries(case):
    a_row, b_col, events = _SHADOW_CASES[case]
    want, got = _shadow_counts([a_row], b_col)
    assert want == events
    assert got == [events, events]


def test_shadow_count_lanes_peaking_in_different_halves():
    # Each lane's running sum peaks at exactly INT32_MAX, lane 0 in the first
    # madd and lane 1 in the second, so the row bound sum_k |a_k| max_j |b_kj|
    # is 2 * INT32_MAX although no lane's P + N leaves int32.
    a_row = ([_P] * 7 + [_P - 1]) * 2
    peak = [_P] * 7 + [_P + 1]
    want, got = _shadow_counts([a_row], [peak + [0] * 8, [0] * 8 + peak])
    assert want == 0
    assert got == [0, 0]


def test_shadow_count_mixes_all_three_tiers():
    # One call, one lane over two madds; rows cleared by the row bound, by
    # the pair bound, and replayed with and without an excursion.
    rows = [
        [1] * 16,                     # row bound 2**18: cleared
        [-_P] * 8 + [0] * 8,          # P + N = 2**31 = N: pair-cleared
        [_P] * 8 + [0] * 8,           # P = 2**31: replayed, one event
        [-_P] * 8 + [_P] * 8,         # P = 2**31, sums -2**31 then 0: replayed
    ]
    want, got = _shadow_counts(rows, [_P] * 16)
    assert want == 1
    assert got == [1, 1]


def test_shadow_count_over_several_tiles():
    # flagged rows in every one of several kernel tiles, in a repeating
    # pattern:
    # an excursion (2**31 after the first madd); a row whose positive
    # products reach 7 * 2**28 but whose running sum peaks at 6 * 2**28;
    # a row far from the bound
    b_col = [_P] * 8 + [-1] + [0] * 7
    pattern = [[_P] * 8 + [0] * 8, [_P] * 7 + [-_P] + [0] * 8, [1] * 8 + [0] * 8]
    reps = kernels._TILE_ROWS + 1
    want, got = _shadow_counts(pattern * reps, b_col)
    assert want == reps
    assert got == [reps, reps]


# === kernel tiles ===


def _engines_agree_over_tiles(run):
    # Output, debug partials and every KernelStats field, shadow on.
    with reference.emulated():
        oi, si, di = run()
    of, sf, df = run()
    npt.assert_array_equal(oi, of)
    assert si == sf
    assert len(di) == len(df) > 1
    for part_i, part_f in zip(di, df):
        npt.assert_array_equal(part_i, part_f)
    return si


def _tile_operand(rng, shape, loud):
    # full-scale elements in the `loud` leading-axis entries, whose rows
    # leave int32, and small ones elsewhere, whose rows the row bound clears
    x = rng.integers(-32767, 32768, shape).astype(np.int16)
    x[~np.isin(np.arange(shape[0]), loud)] >>= 6
    return DfpTensor(x, -15, 16)


@pytest.mark.parametrize("tile_rows", [16, 60])
def test_conv_engines_agree_across_tiles(monkeypatch, tile_rows):
    # 25 output pixels per image: a 16-row tile holds less than one image,
    # so each tile is one image; a 60-row tile holds two.  Either way the
    # 7 images span at least 4 tiles, and the loud images 0, 3 and 6 put
    # flagged rows into more than one of them.
    monkeypatch.setattr(kernels, "_TILE_ROWS", tile_rows)
    rng = np.random.default_rng(3950)
    spec = ConvSpec(32, 20, 5, 5, 3, 3, 1, 1)
    inp = _tile_operand(rng, (7, 32, 5, 5), loud=[0, 3, 6])
    wt = DfpTensor(rng.integers(-32767, 32768, (20, 32, 3, 3)).astype(np.int16), -15, 16)
    blk = BlockingParams(icblk=16, rb_size=8)       # two chains per output
    pol = Empirical(shadow_check=True)

    def run():
        dbg = []
        out, st = conv_fprop(inp, pack_weights(wt), spec, blk, pol, dbg)
        return out, st, dbg

    stats = _engines_agree_over_tiles(run)
    assert stats.overflow_count > 0
    # one spill per register block of the whole call, ceil(175 / 8) = 22 of
    # them per (16-lane block, chain), not a sum over tiles
    assert stats.spill_count == 22 * 2 * 2


def test_gemm_engines_agree_across_tiles(monkeypatch):
    # A GEMM row is a single-pixel image: 4-row tiles split 13 rows into 4.
    monkeypatch.setattr(kernels, "_TILE_ROWS", 4)
    rng = np.random.default_rng(3960)
    a = _tile_operand(rng, (13, 48), loud=[1, 6, 12])
    b = DfpTensor(rng.integers(-32767, 32768, (48, 20)).astype(np.int16), -15, 16)
    blk = BlockingParams(icblk=16, rb_size=3)       # three chains per output
    pol = Empirical(shadow_check=True)

    def run():
        dbg = []
        out, st = gemm_dfp(a, b, blk, pol, dbg)
        return out, st, dbg

    stats = _engines_agree_over_tiles(run)
    assert stats.overflow_count > 0
    assert stats.spill_count == 5 * 2 * 3          # ceil(13 / 3) = 5


def test_safe_chain_length_holds_on_adversarial_data():
    # chains of safe_chain_length(16, 1) = 8 maximal products cannot overflow
    m = (1 << 14) - 1
    spec = ConvSpec(8, 16, 4, 4, 1, 1, 1, 0)
    inp = DfpTensor(np.full((1, 8, 4, 4), m, np.int16), -14, 16)
    wt = DfpTensor(np.full((16, 8, 1, 1), m, np.int16), -14, 16)
    pol = Empirical(shadow_check=True)
    blk = BlockingParams(icblk=safe_chain_length(16, 1))
    assert chain_length(spec, blk) == 8
    with reference.emulated():
        out, st = conv_fprop(inp, pack_weights(wt), spec, blk, pol)
    assert st.overflow_count == 0
    npt.assert_allclose(out, 8 * m * m * 2.0 ** -28, rtol=1e-6)


def test_rb_size_invariance():
    rng = np.random.default_rng(3200)
    spec = ConvSpec(24, 16, 9, 9, 3, 3, 1, 1)
    inp = _rand_dfp(rng, (2, 24, 9, 9))
    pw = pack_weights(_rand_dfp(rng, (16, 24, 3, 3), scale=0.3))
    outs = []
    for rb in (7, 28, 97):
        blk = default_blocking(spec, rb_size=rb)
        out, _ = conv_fprop(inp, pw, spec, blk)
        outs.append(out)
    npt.assert_array_equal(outs[0], outs[1])
    npt.assert_array_equal(outs[1], outs[2])


# === numerical exactness ===


def test_conv_matches_int64_oracle_single_chunk():
    # pre_shift 4 keeps |i| < 2^11, so a 144-product chain stays in int32
    # and the kernel result is exactly one float32 spill of the int sum
    rng = np.random.default_rng(3400)
    spec = ConvSpec(16, 16, 6, 6, 3, 3, 1, 1)
    inp = _rand_dfp(rng, (2, 16, 6, 6), pre_shift=4)
    wt = _rand_dfp(rng, (16, 16, 3, 3), pre_shift=4, scale=0.5)
    out, stats = conv_fprop(inp, pack_weights(wt), spec)
    acc = _conv_int64(inp, wt, spec)
    assert np.abs(acc).max() < 1 << 31
    scale = np.float32(2.0 ** (inp.shared_exponent + wt.shared_exponent))
    expect = (acc.astype(np.float32) * scale).astype(np.float32)
    npt.assert_array_equal(out, expect)
    assert stats.fma_count == 2 * 36 * 18       # M * madds per output


def test_debug_partials_match_int64_mod_2_32():
    rng = np.random.default_rng(3500)
    spec = ConvSpec(32, 16, 5, 5, 3, 3, 1, 1)
    blk = BlockingParams(icblk=16, rb_size=28)      # two chunks
    inp = _rand_dfp(rng, (1, 32, 5, 5))
    wt = _rand_dfp(rng, (16, 32, 3, 3), scale=0.2)
    for emulate in (True, False):
        dbg = []
        with reference.emulated(emulate):
            conv_fprop(inp, pack_weights(wt), spec, blk, debug_partials=dbg)
        assert len(dbg) == 2 and dbg[0].shape == (25, 16)
        for ci, part in enumerate(dbg):
            lo, hi = ci * 16, ci * 16 + 16
            sub_in = DfpTensor(inp.elements[:, lo:hi], inp.shared_exponent, 16)
            sub_wt = DfpTensor(wt.elements[:, lo:hi], wt.shared_exponent, 16)
            sspec = ConvSpec(16, 16, 5, 5, 3, 3, 1, 1)
            exact = _conv_int64(sub_in, sub_wt, sspec)
            wrapped = (exact & 0xFFFFFFFF).astype(np.uint32).view(np.int32)
            npt.assert_array_equal(part.reshape(25, 16),
                                   wrapped[0].transpose(1, 2, 0).reshape(25, 16))


@pytest.mark.parametrize("engine", ["instructions", "fast"])
@pytest.mark.parametrize("kind", ["gemm", "conv"])
def test_kernel_chains_follow_the_arith_primitives(kind, engine):
    # The paper's primitives are the kernels' specification: each chain sum
    # is dfp_multiply's products summed in wrapping int32, and spill_to_fp32
    # over the chains, in chain order, gives the kernel's FP32 output bits.
    rng = np.random.default_rng(3600)
    ea, eb = -9, -11
    blk = BlockingParams(icblk=16, rb_size=7)
    dbg = []
    if kind == "gemm":          # chains of 16, 16 and 8 products, one sign per row
        a = (rng.integers(12000, 16384, (13, 40)) * rng.choice([-1, 1], (13, 1))).astype(np.int16)
        b = rng.integers(12000, 16384, (40, 20)).astype(np.int16)
        with reference.emulated(engine == "instructions"):
            out, _ = gemm_dfp(DfpTensor(a, ea), DfpTensor(b, eb), blk, debug_partials=dbg)
        cols, wmat = np.pad(a, ((0, 0), (0, 8))), np.pad(b, ((0, 8), (0, 12)))
        chain = 16
    else:                       # three chains of 16 channels x 9 taps
        spec = ConvSpec(40, 20, 4, 4, 3, 3, 1, 1)
        x = rng.integers(-16383, 16384, (2, 40, 4, 4)).astype(np.int16)
        w = pack_weights(DfpTensor(rng.integers(-16383, 16384, (20, 40, 3, 3))
                                   .astype(np.int16), eb))
        with reference.emulated(engine == "instructions"):
            out, _ = conv_fprop(DfpTensor(x, ea), w, spec, blk, debug_partials=dbg)
        out = out.transpose(0, 2, 3, 1).reshape(-1, 20)
        cols, wmat = im2col(x, spec, 16), w.data
        chain = 16 * 9
    assert len(dbg) == cols.shape[1] // chain
    acc = np.zeros(dbg[0].shape, np.float32)
    wrapped = False
    for ci, part in enumerate(dbg):
        c0, c1 = ci * chain, (ci + 1) * chain
        prod = dfp_multiply(DfpTensor(cols[:, c0:c1, None], ea),
                            DfpTensor(wmat[None, c0:c1, :], eb))
        sums = prod.elements.sum(axis=1, dtype=np.int32)
        npt.assert_array_equal(part, sums)
        wrapped |= bool((prod.elements.sum(axis=1, dtype=np.int64) != sums).any())
        spill_to_fp32(AccumTensor(part.copy(), prod.shared_exponent), acc)
    assert wrapped                              # some chain left int32
    npt.assert_array_equal(acc[:, :20].view(np.uint32), out.view(np.uint32))


def test_conv_impulse_identity():
    rng = np.random.default_rng(3600)
    spec = ConvSpec(16, 16, 6, 6, 3, 3, 1, 1)
    inp = _rand_dfp(rng, (2, 16, 6, 6))
    w = np.zeros((16, 16, 3, 3), np.int16)
    for k in range(16):
        w[k, k, 1, 1] = 1024                    # 1024 * 2^-10 = 1.0
    out, _ = conv_fprop(inp, pack_weights(DfpTensor(w, -10, 16)), spec)
    npt.assert_array_equal(out, dequantize(inp))


# === gemm ===


def test_gemm_known():
    a = DfpTensor(np.array([[1, 2], [3, 4]], np.int16), -2, 16)
    b = DfpTensor(np.array([[5, 6], [7, 8]], np.int16), -3, 16)
    out, stats = gemm_dfp(a, b)
    npt.assert_array_equal(out, np.array([[0.59375, 0.6875],
                                          [1.34375, 1.5625]], np.float32))
    assert stats == KernelStats(fma_count=4, convert_count=2,
                                spill_count=1, overflow_count=0)


def test_gemm_identity():
    rng = np.random.default_rng(3700)
    a = _rand_dfp(rng, (5, 16))
    eye = DfpTensor(np.eye(16, dtype=np.int16), 0, 16)
    out, _ = gemm_dfp(a, eye)
    npt.assert_array_equal(out, dequantize(a))


def test_gemm_matches_int64_oracle():
    rng = np.random.default_rng(3800)
    a = _rand_dfp(rng, (7, 24), pre_shift=4)
    b = _rand_dfp(rng, (24, 13), pre_shift=4)
    out, _ = gemm_dfp(a, b)
    acc = a.elements.astype(np.int64) @ b.elements.astype(np.int64)
    assert np.abs(acc).max() < 1 << 31
    scale = np.float32(2.0 ** (a.shared_exponent + b.shared_exponent))
    npt.assert_array_equal(out, (acc.astype(np.float32) * scale))


def test_gemm_shape_mismatch():
    a = DfpTensor(np.zeros((2, 3), np.int16), 0, 16)
    b = DfpTensor(np.zeros((4, 2), np.int16), 0, 16)
    with pytest.raises(ValueError):
        gemm_dfp(a, b)


# === stats bookkeeping ===


def test_stats_analytic_consistency():
    # with the default divisor blocking, measured convert/fma ratio equals
    # the analytic overhead exactly
    rng = np.random.default_rng(3900)
    for c, k, kh in [(16, 16, 3), (64, 32, 3), (48, 16, 1), (256, 16, 1)]:
        spec = ConvSpec(c, k, 6, 6, kh, kh, 1, kh // 2)
        blk = default_blocking(spec)
        inp = _rand_dfp(rng, (1, c, 6, 6))
        wt = _rand_dfp(rng, (k, c, kh, kh), scale=0.2)
        _, stats = conv_fprop(inp, pack_weights(wt), spec, blk)
        assert Fraction(stats.convert_count, stats.fma_count) \
            == overhead_ratio(spec, blk)
