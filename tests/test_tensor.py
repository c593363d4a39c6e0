"""Tensor format: exponent extraction, quantization, rounding, dequantize."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from dfp.tensor import (Biased, DfpTensor, Nearest, QuantConfig, Stochastic,
                        ZERO_EXPONENT, dequantize, extract_exponent, quantize,
                        rounding_from_name)
from reference import round_value, shared_exponent

# === exponent extraction ===


def test_extract_exponent_known_values():
    assert extract_exponent(3.0) == 1
    assert extract_exponent(1.0) == 0
    assert extract_exponent(0.4) == -2
    assert extract_exponent(0.0) == ZERO_EXPONENT


def test_extract_exponent_bracketing_property():
    rng = np.random.default_rng(1001)
    vals = np.concatenate([
        rng.uniform(-8, 8, 300),
        rng.standard_normal(300) * 10.0 ** rng.integers(-30, 30, 300),
        [1e-40, -3e-42, 6.5e37],              # subnormal and large magnitudes
    ])
    for v in vals:
        if v == 0:
            continue
        e = extract_exponent(float(v))
        assert 2.0 ** e <= abs(v) < 2.0 ** (e + 1), (v, e)


def test_extract_exponent_rejects_non_finite():
    with pytest.raises(ValueError):
        extract_exponent(float("nan"))
    with pytest.raises(ValueError):
        extract_exponent(float("inf"))


def test_shared_exponent_known_values():
    assert shared_exponent(np.array([3.0, -1.5, 0.5], np.float32), 16) == -13
    assert shared_exponent(np.zeros(3, np.float32), 16) == 0
    assert shared_exponent(np.array([1.0], np.float32), 2) == 0


def test_shared_exponent_formula_property():
    rng = np.random.default_rng(1002)
    for _ in range(200):
        p = int(rng.integers(2, 17))
        f = (rng.standard_normal(8) * 2.0 ** rng.integers(-20, 20)).astype(np.float32)
        if not np.any(f):
            continue
        es = shared_exponent(f, p)
        assert es == extract_exponent(float(np.max(np.abs(f)))) - (p - 2)


# === container invariants ===


def test_dfp_tensor_validation():
    DfpTensor(np.array([32767, -32767], np.int16), -14, 16)
    with pytest.raises(TypeError):
        DfpTensor(np.array([1.0], np.float32), 0, 16)        # wrong dtype
    with pytest.raises(ValueError):
        DfpTensor(np.array([8], np.int16), 0, 4)             # |i| >= 2^(P-1)
    with pytest.raises(ValueError):
        DfpTensor(np.array([-32768], np.int16), 0, 16)       # |INT16_MIN| = 2^15
    with pytest.raises(ValueError):
        DfpTensor(np.array([1], np.int16), 200, 16)          # exponent range
    with pytest.raises(ValueError):
        DfpTensor(np.array([1], np.int16), 0, 17)            # bad width


# === quantize: frozen examples ===


def test_quantize_known_int16():
    t = quantize(np.array([3.0, -1.5, 0.5], np.float32),
                 QuantConfig(16, Nearest(), 0))
    npt.assert_array_equal(t.elements, [24576, -12288, 4096])
    assert t.shared_exponent == -13


def test_quantize_known_pre_shift():
    t = quantize(np.array([3.0, -1.5, 0.5], np.float32),
                 QuantConfig(16, Nearest(), 1))
    npt.assert_array_equal(t.elements, [12288, -6144, 2048])
    assert t.shared_exponent == -12


def test_quantize_zero_tensor():
    t = quantize(np.zeros(5, np.float32), QuantConfig(16, Nearest(), 0))
    npt.assert_array_equal(t.elements, np.zeros(5, np.int16))
    assert t.shared_exponent == 0


def test_quantize_mode_agreement_on_exact_multiples():
    # values that land exactly on the grid are mode-independent
    ints = np.array([16384, -8192, 4096, 12000, -3], np.int16)
    f = (ints.astype(np.float64) * 2.0 ** -7).astype(np.float32)
    results = [quantize(f, QuantConfig(16, mode, 0))
               for mode in (Nearest(), Stochastic(seed=9), Biased())]
    for t in results:
        npt.assert_array_equal(t.elements, ints)
        assert t.shared_exponent == -7


def test_quantize_max_element_range_property():
    # max |i| lands in [2^(P-2), 2^(P-1)) when pre_shift = 0
    rng = np.random.default_rng(1003)
    for _ in range(200):
        p = int(rng.integers(2, 17))
        f = (rng.standard_normal(32) * 2.0 ** rng.integers(-10, 10)).astype(np.float32)
        t = quantize(f, QuantConfig(p, Nearest(), 0))
        top = int(np.max(np.abs(t.elements.astype(np.int32))))
        assert 2 ** (p - 2) <= top < 2 ** (p - 1)


def test_quantize_saturating_sliver_clips_to_max():
    # Scaled maxima in (32767.5, 32768) round away to 32768 under Nearest
    # and clip to 32767: the error there is bounded by one full step, not
    # the half step that holds everywhere else in the representable range.
    x = np.array([np.float32(1.0) - np.float32(2.0 ** -17)], np.float32)
    assert float(x[0]) * 2.0 ** 15 == 32767.75
    t = quantize(x, QuantConfig(16, Nearest(), 0))
    assert t.shared_exponent == -15
    assert t.elements[0] == 32767
    err = abs(float(dequantize(t)[0]) - float(x[0]))
    assert 2.0 ** (t.shared_exponent - 1) < err < 2.0 ** t.shared_exponent
    # the same value is clipped symmetrically on the negative side
    tn = quantize(-x, QuantConfig(16, Nearest(), 0))
    assert tn.elements[0] == -32767


def test_quantize_idempotence():
    rng = np.random.default_rng(1004)
    for _ in range(100):
        p = int(rng.integers(3, 17))
        el = rng.integers(-(2 ** (p - 1)) + 1, 2 ** (p - 1), 16).astype(np.int16)
        top = 2 ** (p - 2) + int(rng.integers(0, 2 ** (p - 2) - 1))
        el[0] = top                                  # guarantee a maximal element
        t = DfpTensor(el, int(rng.integers(-40, 40)), p)
        rt = quantize(dequantize(t), QuantConfig(p, Nearest(), 0))
        npt.assert_array_equal(rt.elements, t.elements)
        assert rt.shared_exponent == t.shared_exponent


def test_quantize_subnormal_underflow_clamps_exponent():
    # E_fmax - 14 would be below int8; the exponent clamps at -128 and the
    # grid coarsens accordingly
    f = np.array([3.0 * 2.0 ** -120], np.float32)
    t = quantize(f, QuantConfig(16, Nearest(), 0))
    assert t.shared_exponent == -128
    npt.assert_array_equal(t.elements, [3 * 256])
    npt.assert_array_equal(dequantize(t), f)
    # far below the clamped grid, values round to zero
    tiny = quantize(np.array([2.0 ** -140], np.float32), QuantConfig(16, Nearest(), 0))
    assert tiny.shared_exponent == -128
    npt.assert_array_equal(tiny.elements, [0])


def test_quantize_rejects_non_finite_and_empty():
    with pytest.raises(ValueError):
        quantize(np.array([1.0, np.nan], np.float32), QuantConfig(16, Nearest(), 0))
    with pytest.raises(ValueError):
        quantize(np.array([], np.float32), QuantConfig(16, Nearest(), 0))


def test_quant_config_validation():
    with pytest.raises(ValueError):
        QuantConfig(1, Nearest(), 0)
    with pytest.raises(ValueError):
        QuantConfig(17, Nearest(), 0)
    with pytest.raises(ValueError):
        QuantConfig(16, Nearest(), -1)
    with pytest.raises(ValueError):
        QuantConfig(16, Nearest(), 15)      # must keep at least one magnitude bit
    assert rounding_from_name("stochastic", seed=3) == Stochastic(seed=3)
    with pytest.raises(ValueError):
        rounding_from_name("bankers")


# === dequantize ===


def test_dequantize_known_value():
    npt.assert_array_equal(
        dequantize(DfpTensor(np.array([24576], np.int16), -13, 16)),
        np.array([3.0], np.float32))


def test_dequantize_exactness_and_dtype():
    rng = np.random.default_rng(1005)
    el = rng.integers(-32767, 32768, 64).astype(np.int16)
    t = DfpTensor(el, -20, 16)
    out = dequantize(t)
    assert out.dtype == np.float32
    npt.assert_array_equal(out.astype(np.float64), el.astype(np.float64) * 2.0 ** -20)


def test_dequantize_overflow_raises():
    with pytest.raises(OverflowError):
        dequantize(DfpTensor(np.array([32767], np.int16), 127, 16))


def test_dequantize_subnormal_exact():
    t = DfpTensor(np.array([3, 1, -7], np.int16), -128, 16)
    out = dequantize(t).astype(np.float64)
    npt.assert_array_equal(out, np.array([3, 1, -7], np.float64) * 2.0 ** -128)


# === scalar rounding ===


def test_round_value_known():
    assert round_value(2.5, Nearest()) == 3
    assert round_value(-2.5, Nearest()) == -3
    assert round_value(2.4, Nearest()) == 2
    assert round_value(-2.9, Biased()) == -2
    assert round_value(2.9, Biased()) == 2


def test_round_value_stochastic_distribution():
    # x = 2.25 rounds to 2 w.p. 0.75 and 3 w.p. 0.25
    mode = Stochastic(seed=77)
    n = 100_000
    draws = np.array([round_value(2.25, mode, rng_coords=(t, 0))
                      for t in range(n)])
    assert set(np.unique(draws)) == {2, 3}
    p3 = float(np.mean(draws == 3))
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert abs(p3 - 0.25) <= 3 * sigma, p3


def test_round_value_stochastic_deterministic_per_coords():
    mode = Stochastic(seed=5)
    a = [round_value(1.5, mode, rng_coords=(7, i)) for i in range(32)]
    b = [round_value(1.5, mode, rng_coords=(7, i)) for i in range(32)]
    assert a == b
    c = [round_value(1.5, mode, rng_coords=(8, i)) for i in range(32)]
    assert a != c


def test_stochastic_quantize_matches_scalar_stream():
    # array quantization consumes the same per-element stream positions
    f = np.array([1.7, -2.3, 0.6, 1.1], np.float32)
    cfg = QuantConfig(16, Stochastic(seed=11), 0)
    t = quantize(f, cfg, tensor_id=42)
    es = t.shared_exponent
    expect = [round_value(float(np.float64(v) * 2.0 ** -es), Stochastic(seed=11),
                          rng_coords=(42, i))
              for i, v in enumerate(f)]
    npt.assert_array_equal(t.elements, expect)


def test_stochastic_draws_are_halves_of_raw_philox_words():
    # Element k draws u = r * 2**-32, r the low (k even) or high (k odd) 32
    # bits of raw word k // 2 of Philox keyed by (seed, tensor_id), and
    # rounds up when u < frac: x = 1 + r * 2**-32 stays at 1, and the next
    # float64 fraction, (r + 1) * 2**-32, rounds up to 2.
    seed, tid = 11, 2**40 + 3
    words = np.random.Philox(key=np.array([seed, tid], np.uint64)).random_raw(4)
    draws = [int(w) >> shift & 0xFFFFFFFF for w in words for shift in (0, 32)]
    mode = Stochastic(seed=seed)
    for k, r in enumerate(draws[:7]):
        assert round_value(1 + r * 2.0 ** -32, mode, rng_coords=(tid, k)) == 1
        assert round_value(1 + (r + 1) * 2.0 ** -32, mode, rng_coords=(tid, k)) == 2
