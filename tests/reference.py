"""The tests' oracle: the instruction emulator and the paper's DFP primitives.

Training runs neither.  The package's one kernel, dfp.kernels._run_fast,
computes each int32 chain as float64 matrix products.  run_instructions
computes it as the hardware would, one vnni_madd per emulated instruction,
with a live 64-bit mirror of every lane for the shadow overflow count.  It
runs on the package's own plan (_make_plan), lowering (im2col), NCHW store
(_Plan.store) and spill rule (arith.spill_add), so what it checks is the
rule that runs.  Inside `with emulated():` it replaces _run_fast, so a test
reaches it through conv_fprop, gemm_dfp and RunContext, as training reaches
the fast kernel.

AccumTensor, dfp_multiply, dfp_add, lzc, down_convert, spill_to_fp32 and
safe_chain_length are the paper's DFP primitives, written out as its
specification.  Multiplying two DFP-16 tensors is exact: the integer
products fit in 32 bits and the shared exponents add.  Adding requires
aligning the operand with the smaller exponent by an arithmetic right
shift.  Down-conversion packs a 32-bit accumulator back into a P-bit
tensor using a leading-zero count to pick the shift, and spilling converts
a partial accumulator into an FP32 running sum (by arith.spill_add, the
kernels' spill rule) so that long reductions never overflow 32 bits.
safe_chain_length is the worst-case chain length that Empirical's chains
can be compared with.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Optional, Tuple

import numpy as np

from dfp import kernels
from dfp.arith import INT32_MAX, INT32_MIN, fp32_scale, spill_add
from dfp.kernels import KernelStats, im2col
from dfp.tensor import INT8_MAX, INT8_MIN, DfpTensor, check_format, max_abs

# === the instruction emulator ===


def vnni_madd(mem: np.ndarray, vinp2: np.ndarray, vout: np.ndarray) -> np.ndarray:
    """One emulated FMA: 8 int16 memory values, 4x32 int16 lanes, 16 int32 lanes.

    vout[o] += sum over v of vinp2[v][2o]*mem[2v] + vinp2[v][2o+1]*mem[2v+1],
    in wrapping 32-bit arithmetic.  vout is updated in place and returned.
    """
    mem = np.asarray(mem)
    vinp2 = np.asarray(vinp2)
    if mem.shape != (8,) or mem.dtype != np.int16:
        raise ValueError("mem must be 8 int16 values")
    if vinp2.shape != (4, 32) or vinp2.dtype != np.int16:
        raise ValueError("vinp2 must be 4x32 int16 lanes")
    if vout.shape != (16,) or vout.dtype != np.int32:
        raise ValueError("vout must be 16 int32 lanes")
    m = mem.astype(np.int32)
    even = vinp2[:, 0::2].astype(np.int32)  # lane weights hit by mem[2v]
    odd = vinp2[:, 1::2].astype(np.int32)
    vout += m[0::2] @ even + m[1::2] @ odd
    return vout


def _madd_contrib64(mem: np.ndarray, vinp2: np.ndarray) -> np.ndarray:
    # Exact 64-bit contribution of one madd, for shadow accounting.
    m = mem.astype(np.int64)
    even = vinp2[:, 0::2].astype(np.int64)
    odd = vinp2[:, 1::2].astype(np.int64)
    return m[0::2] @ even + m[1::2] @ odd


def run_instructions(plan, x: np.ndarray, wmat: np.ndarray, out: np.ndarray,
                     debug_partials: Optional[list]) -> KernelStats:
    """_run_fast's contract, one vnni_madd per emulated instruction: mem is
    read from patch-matrix columns 8i..8i+7 and vinp2 from weight-matrix
    rows 8i..8i+7, and the instructions are counted as they issue."""
    cols = im2col(x, plan.spec, 16)
    rb = plan.blk.rb_size
    stats = KernelStats()
    acc = np.zeros((plan.m, plan.kpad), np.float32)
    if debug_partials is not None:
        partials = [np.zeros((plan.m, plan.kpad), np.int32) for _ in plan.chunk_bounds]

    for kb in range(plan.k16):
        for t0 in range(0, plan.m, rb):
            tile = cols[t0: t0 + rb]
            tsz = tile.shape[0]
            vtemp = np.zeros((tsz, 16), np.float32)
            for ci, (m0, m1) in enumerate(plan.chunk_bounds):
                vout = np.zeros((tsz, 16), np.int32)
                if plan.shadow:
                    mirror = np.zeros((tsz, 16), np.int64)
                    flags = np.zeros((tsz, 16), bool)
                for i in range(m0, m1):
                    # mem: columns 8i..8i+7; vinp2[v][2o+c] = wmat[8i+2v+c][16kb+o]
                    vinp2 = wmat[8 * i: 8 * i + 8, 16 * kb: 16 * kb + 16].reshape(
                        4, 2, 16).transpose(0, 2, 1).reshape(4, 32)
                    for j in range(tsz):
                        mem = tile[j, 8 * i: 8 * i + 8]
                        vnni_madd(mem, vinp2, vout[j])
                        stats.fma_count += 1
                        if plan.shadow:
                            mirror[j] += _madd_contrib64(mem, vinp2)
                            np.logical_or(flags[j], (mirror[j] > INT32_MAX)
                                          | (mirror[j] < INT32_MIN), out=flags[j])
                if debug_partials is not None:
                    partials[ci][t0: t0 + tsz, kb * 16: kb * 16 + 16] = vout
                spill_add(vtemp, vout, plan.scale)
                stats.convert_count += tsz
                stats.spill_count += 1
                if plan.shadow:
                    stats.overflow_count += int(flags.sum())
            acc[t0: t0 + tsz, kb * 16: kb * 16 + 16] = vtemp
    if debug_partials is not None:
        debug_partials.extend(partials)
    plan.store(out, 0, plan.images, acc)
    return stats


@contextlib.contextmanager
def emulated(on: bool = True):
    """Run every kernel call in the block on run_instructions instead of
    the fast kernel; with `on` false the fast kernel stays.  The fast
    kernel is restored on leaving the block, an exception included."""
    fast = kernels._run_fast
    if on:
        kernels._run_fast = run_instructions
    try:
        yield
    finally:
        kernels._run_fast = fast


# === the paper's DFP primitives ===


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


def spill_to_fp32(acc: AccumTensor, dst: np.ndarray) -> np.ndarray:
    """Add the scaled accumulator into an FP32 running sum and reset it.

    dst += float32(acc.elements) * 2**E_s by spill_add, then acc is zeroed
    for the next partial chain.
    """
    if dst.dtype != np.float32:
        raise TypeError(f"spill destination must be float32, got {dst.dtype}")
    if dst.shape != acc.elements.shape:
        raise ValueError(f"shape mismatch: {acc.elements.shape} vs {dst.shape}")
    spill_add(dst, acc.elements, fp32_scale(acc.shared_exponent))
    acc.elements[...] = 0
    return dst
