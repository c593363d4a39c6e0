"""Integer tensor arithmetic: the paper's primitives (multiply, add,
down-convert, chain bounds, spills) in the tests' reference, and the
package's spill scale and overflow policy."""

import numpy as np
import numpy.testing as npt
import pytest

from dfp.arith import INT32_MAX, Empirical, fp32_scale
from dfp.tensor import DfpTensor, QuantConfig
from reference import (AccumTensor, dfp_add, dfp_multiply, down_convert, lzc,
                       safe_chain_length, shared_exponent, spill_to_fp32)

# === multiply ===


def test_multiply_known():
    out = dfp_multiply(DfpTensor(np.array([2], np.int16), -3, 16),
                       DfpTensor(np.array([4], np.int16), -2, 16))
    npt.assert_array_equal(out.elements, [8])
    assert out.shared_exponent == -5


def test_multiply_extreme_magnitudes_fit_int32():
    out = dfp_multiply(DfpTensor(np.array([-32767], np.int16), -14, 16),
                       DfpTensor(np.array([32767], np.int16), -14, 16))
    npt.assert_array_equal(out.elements, [-1073676289])
    assert out.shared_exponent == -28


def test_multiply_identity_broadcast():
    a = DfpTensor(np.array([[5, -7], [9, 11]], np.int16), -4, 16)
    one = DfpTensor(np.array([1], np.int16), 0, 16)
    out = dfp_multiply(a, one)
    npt.assert_array_equal(out.elements, a.elements)
    assert out.shared_exponent == -4


def test_multiply_exactness_property():
    # dequantized product equals the real product of dequantized inputs
    rng = np.random.default_rng(2001)
    for _ in range(200):
        a = DfpTensor(rng.integers(-32767, 32768, 16).astype(np.int16),
                      int(rng.integers(-30, 0)), 16)
        b = DfpTensor(rng.integers(-32767, 32768, 16).astype(np.int16),
                      int(rng.integers(-30, 0)), 16)
        m = dfp_multiply(a, b)
        real = (a.elements.astype(np.float64) * 2.0 ** a.shared_exponent
                * b.elements.astype(np.float64) * 2.0 ** b.shared_exponent)
        got = m.elements.astype(np.float64) * 2.0 ** m.shared_exponent
        npt.assert_array_equal(got, real)


def test_multiply_shape_mismatch():
    with pytest.raises(ValueError):
        dfp_multiply(DfpTensor(np.zeros(3, np.int16), 0, 16),
                     DfpTensor(np.zeros(4, np.int16), 0, 16))


# === add ===


def test_add_known_alignment():
    out = dfp_add(AccumTensor(np.array([100], np.int32), -5),
                  AccumTensor(np.array([64], np.int32), -7))
    npt.assert_array_equal(out.elements, [116])     # 64 >> 2 = 16
    assert out.shared_exponent == -5


def test_add_identity():
    out = dfp_add(AccumTensor(np.array([123], np.int32), -3),
                  AccumTensor(np.array([0], np.int32), -3))
    npt.assert_array_equal(out.elements, [123])
    assert out.shared_exponent == -3


def test_add_truncation():
    out = dfp_add(AccumTensor(np.array([100], np.int32), -5),
                  AccumTensor(np.array([65], np.int32), -7))
    npt.assert_array_equal(out.elements, [116])     # 65 >> 2 = 16, error 2^-7
    assert out.shared_exponent == -5


def test_add_equal_exponents_exact():
    rng = np.random.default_rng(2002)
    a = rng.integers(-1 << 29, 1 << 29, 64).astype(np.int32)
    b = rng.integers(-1 << 29, 1 << 29, 64).astype(np.int32)
    out = dfp_add(AccumTensor(a, -9), AccumTensor(b, -9))
    npt.assert_array_equal(out.elements, a + b)
    assert out.shared_exponent == -9


def test_add_truncation_bound_property():
    # |real error| < 2^max(Ea, Eb) per element
    rng = np.random.default_rng(2003)
    for _ in range(200):
        ea, eb = (int(x) for x in rng.integers(-20, 0, 2))
        a = AccumTensor(rng.integers(-1 << 20, 1 << 20, 8).astype(np.int32), ea)
        b = AccumTensor(rng.integers(-1 << 20, 1 << 20, 8).astype(np.int32), eb)
        out = dfp_add(a, b)
        real = (a.elements.astype(np.float64) * 2.0 ** ea
                + b.elements.astype(np.float64) * 2.0 ** eb)
        got = out.elements.astype(np.float64) * 2.0 ** out.shared_exponent
        assert np.all(np.abs(got - real) < 2.0 ** max(ea, eb))


def test_add_large_exponent_gap_zeroes_smaller():
    out = dfp_add(AccumTensor(np.array([77], np.int32), 0),
                  AccumTensor(np.array([12345], np.int32), -32))
    npt.assert_array_equal(out.elements, [77])
    assert out.shared_exponent == 0


def test_add_shape_mismatch():
    with pytest.raises(ValueError):
        dfp_add(AccumTensor(np.zeros(2, np.int32), 0),
                AccumTensor(np.zeros(3, np.int32), 0))


# === down_convert ===


def test_down_convert_known():
    out = down_convert(AccumTensor(np.array([1048576, -524288], np.int32), -20), 16)
    npt.assert_array_equal(out.elements, [16384, -8192])    # R_s = 6
    assert out.shared_exponent == -14


def test_down_convert_small_values_pass_through():
    out = down_convert(AccumTensor(np.array([6], np.int32), 0), 16)
    npt.assert_array_equal(out.elements, [6])
    assert out.shared_exponent == 0


def test_down_convert_near_full_accumulator():
    # 2147418112 = 0x7FFF0000; LZC = 1, R_s = (32-1) - 15 = 16, and the
    # arithmetic shift is exact: 0x7FFF0000 >> 16 = 0x7FFF = 32767
    out = down_convert(AccumTensor(np.array([2147418112], np.int32), -30), 16)
    npt.assert_array_equal(out.elements, [32767])
    assert out.shared_exponent == -14


def test_down_convert_zero_accumulator():
    out = down_convert(AccumTensor(np.zeros(4, np.int32), -20), 16)
    npt.assert_array_equal(out.elements, np.zeros(4, np.int16))
    assert out.shared_exponent == -20


def test_down_convert_negative_floor_edge_saturates():
    # -65535 >> 1 floors to -32768, one past the containment bound; the
    # result saturates to -32767 and the value error stays below 2^(new E_s)
    acc = AccumTensor(np.array([65535, -65535], np.int32), -20)
    out = down_convert(acc, 16)
    npt.assert_array_equal(out.elements, [32767, -32767])
    assert out.shared_exponent == -19
    real = acc.elements.astype(np.float64) * 2.0 ** -20
    got = out.elements.astype(np.float64) * 2.0 ** -19
    assert np.all(np.abs(got - real) < 2.0 ** -19)


def test_down_convert_containment_and_error_property():
    rng = np.random.default_rng(2004)
    for _ in range(300):
        p = int(rng.integers(2, 17))
        scale = int(rng.integers(0, 31))
        el = (rng.integers(-(1 << 30), 1 << 30, 16) >> scale).astype(np.int32)
        if not np.any(el):
            continue
        ea = int(rng.integers(-40, 10))
        out = down_convert(AccumTensor(el.copy(), ea), p)
        top = int(np.max(np.abs(out.elements.astype(np.int32))))
        rs = out.shared_exponent - ea
        assert top < 2 ** (p - 1)
        if rs > 0:
            assert top >= 2 ** (p - 2)      # top bits preserved
        real = el.astype(np.float64) * 2.0 ** ea
        got = out.elements.astype(np.float64) * 2.0 ** out.shared_exponent
        assert np.all(np.abs(got - real) < 2.0 ** out.shared_exponent)


def test_down_convert_exponent_overflow_raises():
    acc = AccumTensor(np.array([1 << 30], np.int32), 120)   # new E_s = 120+16
    with pytest.raises(OverflowError):
        down_convert(acc, 16)


# === lzc ===


def test_lzc_known():
    assert lzc(1) == 31
    assert lzc(6) == 29
    assert lzc(0) == 32
    assert lzc(2 ** 31) == 0
    assert lzc((1 << 31) - 1) == 1


# === safe_chain_length ===


def test_safe_chain_length_known():
    assert safe_chain_length(16, 0) == 2
    assert safe_chain_length(16, 1) == 8
    assert safe_chain_length(2, 0) == INT32_MAX


def test_safe_chain_length_soundness_small_widths():
    # worst-case product sums stay in int32 for N = bound, exceed for N+1
    for p in range(2, 9):
        for s in range(0, p - 1):
            m = (1 << (p - 1 - s)) - 1
            n = safe_chain_length(p, s)
            if m == 0 or n >= INT32_MAX:
                continue
            assert n * m * m <= INT32_MAX
            assert (n + 1) * m * m > INT32_MAX


def _accepts(make) -> bool:
    try:
        make()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("p", range(-1, 19))
def test_format_bounds_agree(p):
    # every entry point takes the same bit widths, and QuantConfig and
    # safe_chain_length the same (bit_width, pre_shift) pairs
    acc = AccumTensor(np.array([5], np.int32), 0)
    widths = {
        "QuantConfig": _accepts(lambda: QuantConfig(bit_width=p)),
        "DfpTensor": _accepts(lambda: DfpTensor(np.zeros(1, np.int16), 0, p)),
        "shared_exponent": _accepts(lambda: shared_exponent([1.0], p)),
        "down_convert": _accepts(lambda: down_convert(acc, p)),
        "safe_chain_length": _accepts(lambda: safe_chain_length(p, 0)),
    }
    assert set(widths.values()) == {2 <= p <= 16}, widths
    for s in range(-1, p + 1):
        assert (_accepts(lambda: QuantConfig(bit_width=p, pre_shift=s))
                == _accepts(lambda: safe_chain_length(p, s))), (p, s)


# === spill ===


def test_spill_known():
    acc = AccumTensor(np.array([8], np.int32), -5)
    dst = np.array([1.0], np.float32)
    out = spill_to_fp32(acc, dst)
    npt.assert_array_equal(out, [1.25])
    npt.assert_array_equal(acc.elements, [0])       # accumulator cleared


def test_spill_zero_accumulator_no_change():
    acc = AccumTensor(np.zeros(3, np.int32), -8)
    dst = np.array([0.5, -1.0, 2.0], np.float32)
    out = spill_to_fp32(acc, dst)
    npt.assert_array_equal(out, [0.5, -1.0, 2.0])


def test_spill_accumulates_across_calls():
    dst = np.zeros(1, np.float32)
    spill_to_fp32(AccumTensor(np.array([4], np.int32), -4), dst)
    spill_to_fp32(AccumTensor(np.array([4], np.int32), -4), dst)
    npt.assert_array_equal(dst, [0.5])


def test_spill_validation():
    acc = AccumTensor(np.array([1], np.int32), 0)
    with pytest.raises(TypeError):
        spill_to_fp32(acc, np.zeros(1, np.float64))     # not float32
    with pytest.raises(ValueError):
        spill_to_fp32(acc, np.zeros(2, np.float32))     # shape mismatch
    with pytest.raises(ValueError):
        spill_to_fp32(AccumTensor(np.array([1], np.int32), -150),
                      np.zeros(1, np.float32))          # exponent out of range


def test_fp32_scale_range():
    # the FP32 powers of two run from the smallest subnormal to 2**127
    assert fp32_scale(-149) == np.float32(2.0 ** -149) > 0
    assert fp32_scale(127) == np.float32(2.0 ** 127)
    assert fp32_scale(0).dtype == np.float32
    for es in (-150, 128):
        with pytest.raises(ValueError, match=f"spill scale 2\\*\\*{es} is outside"):
            fp32_scale(es)


# === policies ===


def test_accum_tensor_validation():
    with pytest.raises(TypeError):
        AccumTensor(np.array([1], np.int16), 0)


@pytest.mark.parametrize("make, match", [
    (lambda: Empirical(chain_block=0), "chain_block must be >= 1, got 0"),
    (lambda: Empirical(chain_block=-208), "chain_block must be >= 1, got -208"),
])
def test_policy_rejects_out_of_range(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_policy_accepts_smallest_values():
    assert Empirical(chain_block=1).chain_block == 1
