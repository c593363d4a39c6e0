"""Primitive arithmetic on DFP tensors and INT32 accumulators.

Multiplying two DFP-16 tensors is exact: the integer products fit in 32
bits and the shared exponents add.  Adding requires aligning the operand
with the smaller exponent by an arithmetic right shift.  Down-conversion
packs a 32-bit accumulator back into a P-bit tensor using a leading-zero
count to pick the shift, and spilling converts a partial accumulator into
an FP32 running sum so that long reductions never overflow 32 bits.

Overflow policy values describe how kernels size their accumulation
chains: Strict chains are provably safe for worst-case magnitudes, while
Empirical chains follow the observed behavior of real data and rely on
shadow instrumentation (a 64-bit mirror of the running sum) to count any
excursion beyond the signed 32-bit range.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple, Union

import numpy as np

from .tensor import INT8_MAX, INT8_MIN, DfpTensor, check_format, max_abs

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


# === types ===


@dataclasses.dataclass
class AccumTensor:
    """Signed 32-bit accumulator tensor with a shared exponent.

    The accumulator width A = 32 is fixed by the int32 elements.  For a
    product accumulator the exponent equals the sum of the two source
    exponents, so it may lie outside the int8 range of DfpTensor.
    """

    elements: np.ndarray
    shared_exponent: int

    def __post_init__(self):
        el = np.asarray(self.elements)
        if el.dtype != np.int32:
            raise TypeError(f"accumulator elements must be int32, got {el.dtype}")
        self.elements = el

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.elements.shape


@dataclasses.dataclass(frozen=True)
class Strict:
    """Chains capped at a length that cannot overflow for any inputs; the
    cap must hold at least one 8-product madd."""

    max_chain: int
    shadow_check: bool = False

    def __post_init__(self):
        if self.max_chain < 8:
            raise ValueError(f"max_chain must be >= 8 (one 8-product madd), "
                             f"got {self.max_chain}")


@dataclasses.dataclass(frozen=True)
class Empirical:
    """Long chains sized for typical data; overflow is instrumented, not prevented."""

    chain_block: int = 208
    shadow_check: bool = False

    def __post_init__(self):
        if self.chain_block < 1:
            raise ValueError(f"chain_block must be >= 1, got {self.chain_block}")


OverflowPolicy = Union[Strict, Empirical]


def shadow_enabled(policy: OverflowPolicy) -> bool:
    """Whether kernels under this policy keep the 64-bit shadow sum.

    The policy's shadow_check alone decides.  Shadow overflow counts are
    bit-identical across engines and thread counts.  On the fast engine a
    conv_fprop of resnet_shadow's residual conv shape (16 -> 16 channels,
    14x14, 3x3, pad 1, batch 32) takes 1.7-2.2x as long with them as
    without on a 2-core x86 box; rows whose chains could leave int32 also
    pay madd-by-madd prefix sums.
    """
    return bool(policy.shadow_check)


# === primitives ===


def dfp_multiply(a: DfpTensor, b: DfpTensor) -> AccumTensor:
    """Elementwise product; exact in 32 bits, exponents add.

    Shapes must match or be broadcast-compatible (a length-1 operand acts
    as a scalar).
    """
    try:
        np.broadcast_shapes(a.elements.shape, b.elements.shape)
    except ValueError:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}") from None
    prod = a.elements.astype(np.int32) * b.elements.astype(np.int32)
    return AccumTensor(prod, a.shared_exponent + b.shared_exponent)


def dfp_add(a: DfpTensor, b: DfpTensor) -> AccumTensor:
    """Sum after aligning the smaller-exponent operand by an arithmetic shift.

    The result exponent is max(E_a, E_b).  Shifting truncates toward -inf,
    losing at most one unit in the last place of the result scale.  An
    exponent difference of 32 or more zeroes the smaller operand entirely
    (it lies below 1 ULP of the result).
    """
    try:
        np.broadcast_shapes(a.elements.shape, b.elements.shape)
    except ValueError:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}") from None
    xa = a.elements.astype(np.int32)
    xb = b.elements.astype(np.int32)
    ea, eb = a.shared_exponent, b.shared_exponent
    if ea == eb:
        return AccumTensor(xa + xb, ea)
    if ea > eb:
        diff = ea - eb
        xb = np.zeros_like(xb) if diff >= 32 else xb >> diff
        return AccumTensor(xa + xb, ea)
    diff = eb - ea
    xa = np.zeros_like(xa) if diff >= 32 else xa >> diff
    return AccumTensor(xa + xb, eb)


def lzc(x) -> int:
    """Leading zero count of a 32-bit unsigned magnitude; lzc(0) = 32."""
    v = int(x)
    if not 0 <= v < (1 << 32):
        raise ValueError(f"lzc input must be a 32-bit magnitude, got {v}")
    return 32 - v.bit_length()


def down_convert(acc: AccumTensor, bit_width: int) -> DfpTensor:
    """Pack a 32-bit accumulator into a P-bit DFP tensor.

    The shift R_s = max(0, (A - LZC(max|i|)) - (P - 1)), with A = 32 the
    accumulator width, drops exactly enough low bits that the widest element
    fits the signed P-bit range, and the
    exponent grows by R_s to compensate.  Negative raw shifts clamp to zero
    (left-shifting would add no information).  The single most negative
    post-shift pattern -2**(P-1) saturates to -(2**(P-1) - 1), keeping the
    value error below 2**(new E_s).
    """
    check_format(bit_width)
    if acc.elements.size == 0:
        raise ValueError("empty accumulator")
    maxabs = max_abs(acc.elements)
    if maxabs == 0:
        es = min(max(acc.shared_exponent, INT8_MIN), INT8_MAX)
        return DfpTensor(np.zeros(acc.shape, np.int16), es, bit_width)
    r_s = max(0, (32 - lzc(maxabs)) - (bit_width - 1))
    shifted = acc.elements >> r_s if r_s else acc.elements.copy()
    lim = (1 << (bit_width - 1)) - 1
    shifted = np.clip(shifted, -lim, lim)
    es = acc.shared_exponent + r_s
    if not INT8_MIN <= es <= INT8_MAX:
        raise OverflowError(
            f"down-converted exponent {es} does not fit the int8 exponent range")
    return DfpTensor(shifted.astype(np.int16), es, bit_width)


def safe_chain_length(bit_width: int, pre_shift: int) -> int:
    """Longest worst-case product chain that cannot overflow a 32-bit sum.

    With magnitudes bounded by m = 2**(P - 1 - pre_shift) - 1 >= 1, this is
    floor((2**31 - 1) / m**2).
    """
    check_format(bit_width, pre_shift)
    m = (1 << (bit_width - 1 - pre_shift)) - 1
    return INT32_MAX // (m * m)


def fp32_scale(es: int) -> np.float32:
    """The FP32 spill scale 2**es; es must lie in [-149, 127], the exponents
    of FP32 powers of two, subnormals included."""
    if not -149 <= es <= 127:
        raise ValueError(f"spill scale 2**{es} is outside the FP32 range")
    return np.float32(np.ldexp(1.0, es))


def spill_to_fp32(acc: AccumTensor, dst: np.ndarray) -> np.ndarray:
    """Add the scaled accumulator into an FP32 running sum and reset it.

    dst += float32(acc.elements) * 2**E_s, elementwise, then acc is zeroed
    for the next partial chain.  Both the INT32 -> FP32 conversion and the
    scaled add round to nearest in FP32, matching a hardware convert + FMA
    sequence.
    """
    if dst.dtype != np.float32:
        raise TypeError(f"spill destination must be float32, got {dst.dtype}")
    if dst.shape != acc.elements.shape:
        raise ValueError(f"shape mismatch: {acc.elements.shape} vs {dst.shape}")
    dst += acc.elements.astype(np.float32) * fp32_scale(acc.shared_exponent)
    acc.elements[...] = 0
    return dst
