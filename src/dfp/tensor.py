"""Dynamic fixed point (DFP) tensors and conversions to and from FP32.

A DFP tensor pairs an integer tensor, stored in int16 containers, with a
single power-of-two exponent shared by every element: element n represents
the real value ``i_n * 2**E_s``.  The shared exponent is anchored to the
largest magnitude in the source data,

    E_s = E_fmax - (P - 2),

where ``E_fmax`` is the base-2 exponent of the absolute maximum and P is the
significant bit width (2..16).  The ``P - 2`` offset guarantees that the
widest element occupies the top magnitude bit of the signed P-bit range
without overflowing it.

Three rounding modes are provided for the FP32 -> DFP conversion: nearest
(ties away from zero), stochastic (unbiased, counter-based RNG), and biased
(truncation toward zero, the cheapest since it is a plain shift).

Both conversions stay in float32 where that is exact.  Scaling by a power
of two with ldexp loses nothing unless the result is subnormal, and such a
value rounds to 0 anyway; dequantized values are exact 16-bit multiples of
2**E_s.  Stochastic rounding alone widens to float64, because its fraction
is compared with float64 uniform draws whose stream is fixed.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple, Union

import numpy as np

INT8_MIN = -128
INT8_MAX = 127

# Sentinel returned by extract_exponent for an input of exactly zero; there
# is no base-2 exponent for 0.  Callers map all-zero tensors to E_s = 0.
ZERO_EXPONENT = -(1 << 31)

_F32_MAX = float(np.finfo(np.float32).max)
_MASK64 = (1 << 64) - 1


# === rounding modes ===


@dataclasses.dataclass(frozen=True)
class Nearest:
    """Round to the nearest integer, ties away from zero."""


@dataclasses.dataclass(frozen=True)
class Stochastic:
    """Round down, then up with probability equal to the fractional part.

    Draws come from a counter-based generator keyed by (seed, tensor_id,
    element_index), so quantization results are reproducible and independent
    of thread count or iteration order.
    """

    seed: int = 0


@dataclasses.dataclass(frozen=True)
class Biased:
    """Truncate toward zero."""


RoundingMode = Union[Nearest, Stochastic, Biased]
ROUNDING_MODES = {"nearest": Nearest, "stochastic": Stochastic, "biased": Biased}


def rounding_from_name(name: str, seed: int = 0) -> RoundingMode:
    """Map a mode name, a key of ROUNDING_MODES, to a RoundingMode value."""
    mode = ROUNDING_MODES.get(name.strip().lower())
    if mode is None:
        raise ValueError(f"unknown rounding mode {name!r}; "
                         f"expected one of {', '.join(ROUNDING_MODES)}")
    return Stochastic(seed=seed) if mode is Stochastic else mode()


# === configuration and tensor types ===


def check_format(bit_width: int, pre_shift: int = 0) -> None:
    """Reject a P-bit format outside 2 <= P <= 16 or a pre_shift outside
    [0, P - 2]; at least one magnitude bit must survive the shift."""
    if not 2 <= bit_width <= 16:
        raise ValueError(f"bit_width must be in [2, 16], got {bit_width}")
    if not 0 <= pre_shift <= bit_width - 2:
        raise ValueError(f"pre_shift must be in [0, bit_width-2], got {pre_shift}")


@dataclasses.dataclass(frozen=True)
class QuantConfig:
    """Parameters of one quantization operator.

    pre_shift sacrifices that many magnitude bits per element (the effective
    precision drops to bit_width - pre_shift) in exchange for longer safe
    integer accumulation chains downstream.
    """

    bit_width: int = 16
    rounding: RoundingMode = Nearest()
    pre_shift: int = 0

    def __post_init__(self):
        check_format(self.bit_width, self.pre_shift)


@dataclasses.dataclass(frozen=True)
class DfpTensor:
    """Integer tensor plus one shared power-of-two exponent.

    Invariants: every |element| < 2**(bit_width - 1); the shared exponent
    fits in signed 8 bits; element n has real value elements[n] * 2**E_s.
    """

    elements: np.ndarray
    shared_exponent: int
    bit_width: int = 16

    def __post_init__(self):
        el = np.asarray(self.elements)
        if el.dtype != np.int16:
            raise TypeError(f"elements must be int16, got {el.dtype}")
        check_format(self.bit_width)
        if not INT8_MIN <= self.shared_exponent <= INT8_MAX:
            raise ValueError(f"shared_exponent {self.shared_exponent} outside int8 range")
        lim = 1 << (self.bit_width - 1)
        if el.size and max_abs(el) >= lim:
            raise ValueError(f"element magnitude exceeds {lim - 1} for bit_width {self.bit_width}")
        object.__setattr__(self, "elements", el)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.elements.shape


def max_abs(a: np.ndarray) -> Union[int, float]:
    """Largest magnitude in a non-empty int16, int32 or float32 array.

    Exact with no widened copy: the extremes become Python scalars before
    negation, so INT16_MIN and INT32_MIN do not wrap and -0.0 counts as 0.
    """
    return max(a.max().item(), -a.min().item())


def as_float_tensor(values) -> np.ndarray:
    """Validate and convert input to a finite, non-empty float32 array."""
    f = np.asarray(values, dtype=np.float32)
    if f.size == 0:
        raise ValueError("empty tensor")
    if not np.isfinite(f).all():
        raise ValueError("tensor contains NaN or Inf")
    return f


# === exponent extraction ===


def extract_exponent(f) -> int:
    """Unbiased base-2 exponent e with 2**e <= |f| < 2**(e+1).

    Defined on values, not on FP32 encodings: subnormal inputs get their
    mathematical exponent.  Returns ZERO_EXPONENT for f == 0.
    """
    x = float(f)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("exponent of NaN/Inf is undefined")
    if x == 0.0:
        return ZERO_EXPONENT
    # frexp: |x| = m * 2**e with 0.5 <= m < 1, exact for every finite double
    _, e = math.frexp(abs(x))
    return e - 1


def shared_exponent(values, bit_width: int) -> int:
    """Shared exponent E_s = E(max|f|) - (bit_width - 2); 0 for all-zero input."""
    check_format(bit_width)
    fmax = max_abs(as_float_tensor(values))
    if fmax == 0.0:
        return 0
    return extract_exponent(fmax) - (bit_width - 2)


# === rounding primitives ===


def _philox_uniforms(seed: int, tensor_id: int, n: int) -> np.ndarray:
    """Uniform [0,1) draws; draw k belongs to element_index k of the tensor."""
    key = np.array([seed & _MASK64, tensor_id & _MASK64], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random(n, dtype=np.float64)


def round_value(x, mode: RoundingMode, rng_coords=(0, 0)) -> int:
    """Round one real scalar to an integer under the given mode.

    rng_coords = (tensor_id, element_index) selects the stochastic draw; it
    is ignored by the deterministic modes.  Saturation is the caller's job.
    """
    x = float(x)
    if not abs(x) < 2.0 ** 31:
        raise ValueError(f"|x| must be < 2**31, got {x}")
    if isinstance(mode, Nearest):
        mag = math.floor(abs(x) + 0.5)
        return -mag if x < 0 else mag
    if isinstance(mode, Biased):
        return math.trunc(x)
    if isinstance(mode, Stochastic):
        tensor_id, element_index = rng_coords
        lo = math.floor(x)
        frac = x - lo
        u = _philox_uniforms(mode.seed, tensor_id, int(element_index) + 1)[-1]
        return lo + (1 if u < frac else 0)
    raise TypeError(f"unknown rounding mode {mode!r}")


# === quantize / dequantize ===


def quantize(values, cfg: QuantConfig, tensor_id: int = 0) -> DfpTensor:
    """Convert an FP32 tensor to DFP under cfg.

    The output exponent is shared_exponent(F, P) + pre_shift and each element
    is round(f / 2**E_s) under cfg.rounding, saturated to
    +-(2**(P - 1 - pre_shift) - 1).  An all-zero tensor maps to all-zero
    elements with E_s = 0.
    """
    f = as_float_tensor(values)
    p = cfg.bit_width
    fmax = max_abs(f)
    if fmax == 0.0:
        return DfpTensor(np.zeros(f.shape, np.int16), 0, p)
    es = extract_exponent(fmax) - (p - 2) + cfg.pre_shift
    if es > INT8_MAX:
        raise OverflowError(f"shared exponent {es} exceeds int8 range")
    # Inputs down in the FP32 subnormal range can push E_s below -128; clamp.
    # The quantization error bound 2**(E_s - 1) still holds at the clamped
    # exponent, but the top-bit range guarantee does not apply there.
    es = max(es, INT8_MIN)

    # Nearest and biased rounding scale in float32: ldexp by 2**-E_s is exact
    # unless the result is subnormal, and |x| < 2**-126 rounds to 0 in both
    # modes either way.  (A float32 factor 2**-E_s would overflow at the clamp
    # E_s = -128.)
    mode = cfg.rounding
    if isinstance(mode, Biased):
        i = np.ldexp(f, -es)
        np.trunc(i, out=i)
    elif isinstance(mode, Nearest):
        x = np.ldexp(f, -es)
        a = np.abs(x)
        i = np.add(a, 0.5)
        np.floor(i, out=i)
        # The sum |x| + 0.5 may round, but its floor is exact except at
        # |x| = 0.5 - 2**-25, where the sum is a tie that rounds up to 1.0.
        # i - 0.5 is exact for integer i < 2**16, so the test i - 0.5 > |x|
        # is exact and catches just that case.
        i -= (i - 0.5) > a
        # copysign(i, x) as an OR of x's sign bit into i >= 0; np.copysign is
        # not vectorised and costs as much as the rest of this branch
        sign = x.view(np.uint32)
        sign &= np.uint32(1 << 31)
        i.view(np.uint32)[...] |= sign
    elif isinstance(mode, Stochastic):
        # The fraction x - floor(x) is compared with float64 Philox draws,
        # and in float32 it is inexact for small negative x, so this mode
        # widens once (f / 2**E_s is exact in float64) and works in place.
        x = np.multiply(f, 2.0 ** -es, dtype=np.float64)
        i = np.floor(x)
        x -= i
        i += _philox_uniforms(mode.seed, tensor_id, x.size).reshape(x.shape) < x
    else:
        raise TypeError(f"unknown rounding mode {mode!r}")

    lim = (1 << (p - 1 - cfg.pre_shift)) - 1
    np.clip(i, -lim, lim, out=i)
    return DfpTensor(i.astype(np.int16), es, p)


def dequantize(t: DfpTensor) -> np.ndarray:
    """Exact FP32 reconstruction f_n = i_n * 2**E_s.

    Every product of a 16-bit integer and an in-range shared exponent is
    exactly representable in FP32 unless it overflows, which is an error, so
    float32 ldexp computes it without rounding, subnormal results included.
    """
    es = int(t.shared_exponent)
    if t.elements.size and math.ldexp(max_abs(t.elements), es) > _F32_MAX:
        raise OverflowError(f"dequantized value exceeds FP32 range (E_s={es})")
    return np.ldexp(t.elements.astype(np.float32), es)
