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
(ties away from zero), stochastic (unbiased to within 2**-32 of a step,
from 32-bit counter-based draws), and biased (truncation toward zero, the
cheapest since it is a plain shift).

Both conversions stay in float32 where that is exact, and take few passes
over the data.  Scaling by a power of two with ldexp loses nothing unless
the result is subnormal, and such a value rounds to 0 anyway.  Nearest
rounding is then one float32 add of +-(1/2 - 2**-25) and the int16 store,
which truncates toward zero; biased rounding is the store alone.
Dequantization is one float32 multiply by 2**E_s, exact because every
product is a 15-bit multiple of 2**-128.  Stochastic rounding alone widens
to float64, where its fraction x - floor(x) is exact, and compares it with
draws u = r * 2**-32 of 32-bit integers r, exact in float64 too.
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
_FIXED_SEEDS = np.random.SeedSequence(0)
# Elements per quantize block: its three float64 buffers (768 KiB) fit in a
# core's L2 cache.  Even, so that a block's stochastic draws use whole
# 64-bit Philox words.
_BLOCK = 1 << 15
# The largest float32 below 1/2, as bits, and the float32 sign bit: nearest
# rounding adds copysign(_HALF_DOWN, x) and truncates.
_HALF_DOWN = 0.5 - 2.0 ** -25
_HALF_DOWN_BITS = np.float32(_HALF_DOWN).view(np.uint32)
_SIGN_BIT = np.uint32(1 << 31)


# === rounding modes ===


@dataclasses.dataclass(frozen=True)
class Nearest:
    """Round to the nearest integer, ties away from zero."""


@dataclasses.dataclass(frozen=True)
class Stochastic:
    """Round x down, then up when the draw u of its element is below the
    fraction x - floor(x).

    Element k of tensor tensor_id draws u = r * 2**-32, where r is the low
    (k even) or high (k odd) 32 bits of raw word k // 2 of a Philox
    generator keyed by (seed, tensor_id); quantization results are thus
    reproducible and independent of thread count or iteration order.  x is
    rounded up with probability ceil(frac * 2**32) / 2**32: exactly frac,
    so the rounding is unbiased, when frac has no bit below 2**-32, and
    above frac by less than 2**-32 otherwise.
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

    def fits_fp32(self) -> bool:
        """Whether every element times 2**E_s lies within the FP32 range,
        as dequantize requires."""
        return not self.elements.size or \
            math.ldexp(max_abs(self.elements), self.shared_exponent) <= _F32_MAX


def max_abs(a: np.ndarray) -> Union[int, float]:
    """Largest magnitude in a non-empty int16, int32 or float32 array.

    Exact with no widened copy: the extremes become Python scalars before
    negation, so INT16_MIN and INT32_MIN do not wrap and -0.0 counts as 0.
    """
    return max(a.max().item(), -a.min().item())


def finite_float_max(values) -> Tuple[np.ndarray, float]:
    """Convert input to a non-empty float32 array and return it with its
    largest magnitude; NaN or Inf anywhere is an error.

    The extremes propagate NaN and Inf, so the magnitude scan doubles as
    the finiteness check.
    """
    f = np.asarray(values, dtype=np.float32)
    if f.size == 0:
        raise ValueError("empty tensor")
    fmax = max_abs(f)
    if not math.isfinite(fmax):
        raise ValueError("tensor contains NaN or Inf")
    return f, fmax


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
    fmax = finite_float_max(values)[1]
    if fmax == 0.0:
        return 0
    return extract_exponent(fmax) - (bit_width - 2)


# === rounding primitives ===


def _philox_stream(seed: int, tensor_id: int):
    """The tensor's uniform stream, as a function n, out -> its next n
    draws, in order; its k-th draw belongs to element_index k.

    Draw k is r * 2**-32 for r the low (k even) or high (k odd) 32 bits of
    raw Philox word k // 2, so every read but the stream's last must take
    an even n.
    """
    # Philox(key=...) first draws OS entropy for a seed that the key then
    # replaces, about 0.16 ms a call; seeding from a fixed sequence and then
    # setting the key gives the same generator for about 0.01 ms.
    bits = np.random.Philox(_FIXED_SEEDS)
    state = bits.state
    state["state"]["key"] = np.array([seed & _MASK64, tensor_id & _MASK64], np.uint64)
    bits.state = state

    def draws(n: int, out=None) -> np.ndarray:
        # little-endian words, whose uint32 view reads each low half first
        words = bits.random_raw(-(-n // 2)).astype("<u8", copy=False)
        return np.multiply(words.view("<u4")[:n], 2.0 ** -32, out=out)
    return draws


def _philox_uniforms(seed: int, tensor_id: int, n: int) -> np.ndarray:
    """The first n uniform [0,1) draws of the tensor's stream."""
    return _philox_stream(seed, tensor_id)(n)


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

    After one scan for the largest magnitude, the elements are rounded in
    flat blocks of _BLOCK, each through the same few block-sized float
    buffers and straight into the int16 output, so no temporary grows with
    the tensor.  Every element is rounded independently, and stochastic
    draws come from one stream read in order, so the blocks change no
    result.

    A nearest-rounded block takes five passes: ldexp, an AND that takes the
    sign bits of x, an OR of those onto the bits of 1/2 - 2**-25 (the
    largest float32 below 1/2), one float32 add and the truncating int16
    store.  For float32 |x| < 2**15, the largest that any shared exponent
    leaves, trunc(|x| + (1/2 - 2**-25)) with a float32 add equals
    floor(|x| + 1/2), ties included.  Below 1/2 both are 0.  Above, |x| and
    1/2 are multiples of ulp(|x|) >= 2**-24: where |x| + 1/2 reaches an
    integer n, the sum falls short of n by 2**-25, at most half an ulp, and
    rounds up to n (at n = 1 it is a tie, which goes to the even 1.0); where
    |x| + 1/2 falls short of n, it does so by a whole ulp, and the sum stays
    below n.  IEEE addition is symmetric in sign.  Saturating tensors clip
    before the store.
    """
    f, fmax = finite_float_max(values)
    p = cfg.bit_width
    if fmax == 0.0:
        return DfpTensor(np.zeros(f.shape, np.int16), 0, p)
    es = extract_exponent(fmax) - (p - 2) + cfg.pre_shift
    if es > INT8_MAX:
        raise OverflowError(f"shared exponent {es} exceeds int8 range")
    # Inputs down in the FP32 subnormal range can push E_s below -128; clamp.
    # The quantization error bound 2**(E_s - 1) still holds at the clamped
    # exponent, but the top-bit range guarantee does not apply there.
    es = max(es, INT8_MIN)
    mode = cfg.rounding
    if not isinstance(mode, (Nearest, Stochastic, Biased)):
        raise TypeError(f"unknown rounding mode {mode!r}")

    lim = (1 << (p - 1 - cfg.pre_shift)) - 1
    # Every |x| is at most fmax / 2**E_s, so no rounding leaves [-lim, lim]
    # unless that bound passes lim: only then does a block need clipping.
    saturates = math.ldexp(fmax, -es) > lim
    src = f.reshape(-1)
    out = np.empty(f.shape, np.int16)
    dst = out.reshape(-1)
    size = min(src.size, _BLOCK)
    # Stochastic rounding compares its fraction x - floor(x) with 32-bit
    # draws r * 2**-32, and in float32 that fraction is inexact for small
    # negative x, so this mode works in float64 (f / 2**E_s is exact there).
    # Nearest and biased rounding scale in float32: ldexp by 2**-E_s is exact
    # unless the result is subnormal, and |x| < 2**-126 rounds to 0 in both
    # modes either way.  (A float32 factor 2**-E_s would overflow at the clamp
    # E_s = -128.)
    stochastic = isinstance(mode, Stochastic)
    ftype = np.float64 if stochastic else np.float32
    bufs = [np.empty(size, ftype) for _ in range(3)] + [np.empty(size, bool)]
    if stochastic:
        draws = _philox_stream(mode.seed, tensor_id)
    for s in range(0, src.size, size):
        fs = src[s: s + size]
        x, i, u, m = (b[: fs.size] for b in bufs)
        # Each branch leaves in x a float that the int16 store below, which
        # truncates toward zero, turns into the rounded element.
        if isinstance(mode, Biased):
            np.ldexp(fs, -es, out=x)
        elif isinstance(mode, Nearest):
            np.ldexp(fs, -es, out=x)
            # x + copysign(_HALF_DOWN, x), truncated, is sign(x) *
            # floor(|x| + 0.5) (see above); the sign is ORed in as a bit,
            # as np.copysign is not vectorised.
            half = i.view(np.uint32)
            np.bitwise_and(x.view(np.uint32), _SIGN_BIT, out=half)
            half |= _HALF_DOWN_BITS     # i = copysign(_HALF_DOWN, x)
            x += i
        else:
            np.multiply(fs, 2.0 ** -es, out=x, dtype=np.float64)
            np.floor(x, out=i)
            x -= i
            np.less(draws(fs.size, out=u), x, out=m)
            x = i
            if saturates:
                x += m
        if saturates:
            np.clip(x, -lim, lim, out=x)
        d = dst[s: s + fs.size]
        d[...] = x
        if stochastic and not saturates:
            d += m      # round up in int16, where every result then fits
    return DfpTensor(out, es, p)


def dequantize(t: DfpTensor) -> np.ndarray:
    """Exact FP32 reconstruction f_n = i_n * 2**E_s.

    One float32 multiply by the factor 2**E_s, which float32 holds exactly
    for every int8 exponent (2**-128 as a subnormal).  Each product is a
    multiple of 2**-128 with at most 15 significant bits, so float32 holds
    it exactly, subnormal results included, unless it overflows, which is
    an error.
    """
    es = int(t.shared_exponent)
    if not t.fits_fp32():
        raise OverflowError(f"dequantized value exceeds FP32 range (E_s={es})")
    return np.multiply(t.elements, np.float32(2.0 ** es), dtype=np.float32)
