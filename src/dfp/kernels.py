"""Blocked integer convolution/GEMM kernels on an emulated 16-lane FMA.

The compute primitive is a fused multiply-add over int16 pairs, vnni_madd,
whose semantics are exactly this loop (wrapping 32-bit arithmetic):

    for v in range(4):
        for o in range(16):
            vout[o] += vinp2[v][2*o] * mem[2*v] + vinp2[v][2*o+1] * mem[2*v+1]

One instruction therefore accumulates 8 products into each of 16 int32
output lanes.  Reductions run in a fixed order, input-channel block major,
then kernel row, column, and 8-channel half.  The running int32 sum is
spilled into an FP32 accumulator (scaled by 2**(E_inp + E_wt)) every
`icblk*KH*KW` products; this chain length is the overflow-management knob.

Every pass is lowered to one operand pair: an (M, L) patch matrix from
im2col whose columns follow the madd order, and an (L, Kpad) int16 weight
matrix with rows in the same order.  For (K, C, KH, KW) convolution weights
pack_weights builds that matrix once per weight update: input channel c at
tap (kh, kw) is row ((c//16 * KH + kh) * KW + kw) * 16 + c%16, output
channel k is column k, and both channel counts are zero-padded to
multiples of 16.  Each 8-row half of a 16-row group is the vinp2 operand
of one madd, consecutive rows pairing in its lanes.  A GEMM is a 1x1
convolution over M single-pixel images and runs as one: its patch matrix
is A and its weight matrix B, each zero-padded to whole 16-lane groups.

One im2col lowers every pass: FP32 ones in the (c, kh, kw) column order
of a flattened weight (group=1), kernel calls in madd order (group=16,
per tile), and the DFP weight gradient's activations in gcd(C, 16)-channel
chunks, which keep the GEMM's shape (no channel is padded) while moving
runs of channels; the layer puts the GEMM's columns back in (c, kh, kw)
order.  It is one gather that writes the patch matrix once, and a reshape
for an fc or a GEMM.  Its adjoint is part of fp32_input_grad.  None of
this changes a bit: the FP32 sgemm calls are the same, each input element
sums its taps in (kh, kw) order from +0.0, and an integer chain sum does
not depend on its column.

conv_fprop and gemm_dfp run one kernel body: it plans the call, makes the
NCHW FP32 output and hands it, the NCHW int16 input and the weight matrix
to one of two engines, chosen by name.  Each lowers the input by im2col
and stores through the plan, and both give bit-identical outputs and
statistics:

* "instructions": a Python loop nest issuing one vnni_madd per emulated
  instruction, with mem read from patch-matrix columns 8i..8i+7 and vinp2
  from weight-matrix rows 8i..8i+7, counting instructions live.  This is
  the reference emulator; it runs only when asked for.
* "fast", the default everywhere: one chain of matrix products per
  spill.  Per-chain integer sums are computed exactly (float64 matmul; all
  partial sums stay far below 2**53) and then wrapped to int32.  Because
  two's-complement addition is associative, the wrapped totals equal the
  instruction sequence's, and spilling in the same chain order by the
  same rule, arith.spill_add, reproduces the FP32 accumulation bit for bit.

The fast engine walks the output rows in tiles of whole images, about
_TILE_ROWS rows each (a GEMM row is a single-pixel image; an image larger
than that is a tile of its own).  Each tile is lowered on its own, and
its chains are widened, multiplied, wrapped, spilled in chain order and
shadow-checked while the tile is cache-sized, in work arrays allocated
once per call and reused by each of its tiles.  Every output row depends
on its own patch row alone, so tiling changes no bit.  A chain's float64
weight operand is built once per call, and kept across tiles.  The
counters are computed once per call from the call's plan: every spill is
counted per rb_size register block of all M rows, never per tile.

With shadow checking enabled, both engines count one overflow event per
(output element, chain) whose exact running sum leaves the signed 32-bit
range at some madd boundary.  The instructions engine keeps a live 64-bit
mirror of every lane.  The fast engine bounds each chain in three exact
tiers.  With P the sum of a pair's positive products and N the magnitude
of its negative ones, every running sum lies in [-N, P].  First, one
float64 matrix-vector product gives each row r the bound
B_r = sum_k |A_rk| * max_j |B_kj| >= P + N for all its pairs; a row with
B_r <= INT32_MAX cannot overflow.  Second, for the remaining rows only,
P + N = |A| @ |B| and P - N = A @ B are exact float64 matmuls, and pairs
with P <= INT32_MAX and N <= 2**31 cannot overflow.  Last, only the rows
holding some other pair are re-summed madd by madd, as float64 prefix sums
over the tile's flagged rows, so the tile bounds this replay too.  The
count stays exact, and a chain whose rows all pass the row bound costs one
extra matrix-vector product.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .arith import (INT32_MAX, INT32_MIN, Empirical, OverflowPolicy, Strict,
                    check_strict_chain, fp32_scale, shadow_enabled, spill_add)
from .tensor import DfpTensor, max_abs

# Output rows per fast-engine tile, rounded down to whole images (at least
# one): a tile's patch matrix, its float64 chain operands and its shadow
# replay are built and used while they are cache-sized.  Picked by a sweep
# of 256-2048 rows on both benchmark workloads.
_TILE_ROWS = 512

# Tap values per tile of fp32_input_grad's adds, rounded down to whole
# images (at least one): a tile's rows stay in cache across its KH*KW taps.
# Picked by a sweep of 2**16-2**19 over both benchmark workloads' convs.
_SCATTER_FLOATS = 1 << 18


# === geometry and blocking ===


@dataclasses.dataclass(frozen=True)
class ConvSpec:
    """Convolution geometry: C input channels, K output channels, HxW input,
    KHxKW kernel, stride, symmetric zero padding."""

    in_ch: int
    out_ch: int
    h: int
    w: int
    kh: int
    kw: int
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        for name in ("in_ch", "out_ch", "h", "w", "kh", "kw", "stride"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.pad < 0:
            raise ValueError("pad must be non-negative")
        for dim, kdim in ((self.h, self.kh), (self.w, self.kw)):
            span = dim + 2 * self.pad - kdim
            if span < 0 or span % self.stride != 0:
                raise ValueError(
                    f"output size for dim {dim}, kernel {kdim}, stride {self.stride}, "
                    f"pad {self.pad} is not integral")

    @property
    def oh(self) -> int:
        return (self.h + 2 * self.pad - self.kh) // self.stride + 1

    @property
    def ow(self) -> int:
        return (self.w + 2 * self.pad - self.kw) // self.stride + 1


@dataclasses.dataclass(frozen=True)
class BlockingParams:
    """Kernel blocking: icblk input channels per accumulation chain and
    rb_size output elements per register block.  The SIMD width (16 int32
    lanes) and the madd depth (4 steps of 2 products) are structural
    constants of the emulated instruction, not parameters."""

    icblk: int
    rb_size: int = 28

    def __post_init__(self):
        if self.icblk < 8 or self.icblk % 8 != 0:
            raise ValueError(f"icblk must be a positive multiple of 8, got {self.icblk}")
        if self.rb_size < 1:
            raise ValueError("rb_size must be >= 1")


@dataclasses.dataclass
class KernelStats:
    """Instruction counters for one kernel invocation."""

    fma_count: int = 0
    convert_count: int = 0
    spill_count: int = 0
    overflow_count: int = 0

    def merge(self, other: "KernelStats") -> "KernelStats":
        self.fma_count += other.fma_count
        self.convert_count += other.convert_count
        self.spill_count += other.spill_count
        self.overflow_count += other.overflow_count
        return self

    def measured_ratio(self) -> Fraction:
        """Converts per FMA, the overflow-management instruction overhead."""
        if self.fma_count == 0:
            return Fraction(0)
        return Fraction(self.convert_count, self.fma_count)


def chain_length(spec: ConvSpec, blk: BlockingParams,
                 policy: Optional[OverflowPolicy] = None) -> int:
    """Products accumulated into one int32 lane between spills; under a
    Strict policy a chain longer than its max_chain is an error."""
    chain = blk.icblk * spec.kh * spec.kw
    if isinstance(policy, Strict) and chain > policy.max_chain:
        raise ValueError(
            f"chain length {chain} (icblk {blk.icblk} x {spec.kh}x{spec.kw} taps) exceeds "
            f"Strict max_chain {policy.max_chain}; size chains with safe_chain_length")
    return chain


def overhead_ratio(spec: ConvSpec, blk: BlockingParams) -> Fraction:
    """Analytic convert/FMA instruction ratio, RB / ((ICBLK/16)*KH*KW*2*RB).

    RB cancels: each output row converts once per chain of chain_length / 8
    madds, so the ratio is 8 / chain_length.  Exact whenever icblk divides
    the padded channel count (uniform chains); bench runs cross-check it
    against measured KernelStats.
    """
    return Fraction(8, chain_length(spec, blk))


def default_blocking(spec: ConvSpec, policy: Optional[OverflowPolicy] = None,
                     rb_size: int = 28, icblk: Optional[int] = None) -> BlockingParams:
    """Blocking for spec: an explicit icblk wins, otherwise icblk is sized
    for the given overflow policy.

    Empirical: the smallest multiple of 16 that divides the padded channel
    count and whose chain icblk*KH*KW reaches the policy's chain_block
    target (default 208); the whole padded channel count if no block
    reaches it.  A chain that would pass twice the target instead takes
    the largest such divisor whose chain stays within the target, if one
    does: 784 fc inputs (divisors 16, 112, 784) chain 112 products, not
    784, and 48 channels of a 3x3 conv 144, not 432.  At the default
    target this reblocks no call of the parity network and only the
    forward fc of resnet_shadow; parity's conv3 keeps its 288-product
    chains.  Divisibility keeps every chain full-length, so the measured
    convert/FMA ratio equals the analytic one exactly.  Strict: the
    largest multiple of 8 whose chain stays within max_chain.  Under
    Strict, a chain that exceeds max_chain, even one madd per tap or an
    explicit icblk, is an error.
    """
    per = spec.kh * spec.kw
    cpad = _ceil_to(spec.in_ch, 16)
    if icblk is None and isinstance(policy, Strict):
        icblk = min(max(8, policy.max_chain // per // 8 * 8), cpad)
    elif icblk is None:
        target = policy.chain_block if isinstance(policy, Empirical) else 208
        blocks = [c for c in range(16, cpad + 1, 16) if cpad % c == 0]
        icblk = next((c for c in blocks if c * per >= target), cpad)
        within = [c for c in blocks if c * per <= target]
        if icblk * per > 2 * target and within:
            icblk = within[-1]
    blk = BlockingParams(icblk=icblk, rb_size=rb_size)
    chain_length(spec, blk, policy)
    return blk


def _ceil_to(x: int, m: int) -> int:
    return (x + m - 1) // m * m


# === the emulated FMA instruction ===


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


# === weight lowering ===


@dataclasses.dataclass(frozen=True)
class PackedWeights:
    """(K, C, KH, KW) weights lowered to the (L, Kpad) int16 weight matrix
    the kernels read (see the module docstring for its row order), with
    the shared exponent and the shape before lowering."""

    data: np.ndarray
    shared_exponent: int
    bit_width: int
    shape: Tuple[int, int, int, int]


def pack_weights(weights: DfpTensor) -> PackedWeights:
    """Lower (K, C, KH, KW) weights to the kernels' weight matrix: element
    W[k][c][r][s] lands at row ((c//16 * KH + r) * KW + s) * 16 + c%16,
    column k; padded channels are zero."""
    w = weights.elements
    k, c, kh, kw = w.shape
    kpad, cpad = _ceil_to(k, 16), _ceil_to(c, 16)
    wp = np.zeros((kpad, cpad, kh, kw), np.int16)
    wp[:k, :c] = w
    mat = wp.reshape(kpad, cpad // 16, 16, kh, kw).transpose(1, 3, 4, 2, 0).reshape(-1, kpad)
    return PackedWeights(mat, weights.shared_exponent, weights.bit_width, w.shape)


# === lowering ===


# Gather indices kept, one per (ConvSpec, group): enough for every pass of
# a model's layers in training and eval, the 1x1 specs of weight-gradient
# GEMMs included (9 entries on the parity benchmark network, 12 on
# resnet_shadow), each a few hundred KB at most.
_GATHER_CACHE = 32


@functools.lru_cache(maxsize=_GATHER_CACHE)
def _gather_index(spec: ConvSpec, group: int) -> Optional[np.ndarray]:
    # Read-only flat indices, in patch-matrix order (oy, ox, c // group,
    # kh, kw), of the group-channel chunks of one image in im2col's
    # (C/group, H, W, group) layout; taps in the spatial padding read chunk
    # C/group*H*W, the zero chunk im2col appends.  None when the patch
    # matrix is the input itself: 1x1 taps of 1x1 unpadded images over
    # whole channel groups.
    c, h, w, s, p = spec.in_ch, spec.h, spec.w, spec.stride, spec.pad
    if (h, w, spec.kh, spec.kw, p) == (1, 1, 1, 1, 0) and c % group == 0:
        return None
    cg = -(-c // group)
    g = np.arange(cg).reshape(1, 1, cg, 1, 1)
    y = (np.arange(spec.oh) * s - p).reshape(-1, 1, 1, 1, 1) + np.arange(spec.kh).reshape(-1, 1)
    x = (np.arange(spec.ow) * s - p).reshape(-1, 1, 1, 1) + np.arange(spec.kw)
    inside = (y >= 0) & (y < h) & (x >= 0) & (x < w)
    idx = np.where(inside, (g * h + y) * w + x, cg * h * w).reshape(-1)
    idx.flags.writeable = False
    return idx


def im2col(x: np.ndarray, spec: ConvSpec, group: int = 1) -> np.ndarray:
    """(N*OH*OW, L) patch matrix of an NCHW array of any dtype.

    The input is zero-padded spatially and up to whole groups of `group`
    channels, so L = ceil(C/group)*group*KH*KW.  Columns run in
    (c // group, kh, kw, c % group) order: group=16 is the fixed madd order
    of the integer kernels, group=1 the plain (c, kh, kw) order of a
    flattened (K, C, KH, KW) weight.

    Lowering is one gather.  Each image is laid out as (C/group, H, W,
    group), so that the `group` channels one column block reads sit in
    one contiguous chunk (for group=1 that is NCHW itself), with one zero
    chunk appended that every padding tap reads.  np.take then copies
    chunks into the patch matrix, written once and contiguously, through
    an index cached per (spec, group).  Where that index would be the
    identity (1x1 images, 1x1 taps, no padding, whole channel groups:
    every fc) the patch matrix is x itself, reshaped.  The bytes are those
    of a per-tap copy.
    """
    n, c = x.shape[0], spec.in_ch
    idx = _gather_index(spec, group)
    if idx is None:
        return x.reshape(n, c)
    h, w, cg = spec.h, spec.w, -(-c // group)
    if group == 1 and not spec.pad:          # x's own layout; no padding read
        xb = x.reshape(n, c * h * w, 1)
    else:
        if c % group:
            x = np.concatenate((x, np.zeros((n, cg * group - c, h, w), x.dtype)), axis=1)
        xb = np.empty((n, cg * h * w + 1, group), x.dtype)
        xb[:, -1] = 0
        xb[:, :-1].reshape(n, cg, h, w, group)[...] = \
            x.reshape(n, cg, group, h, w).transpose(0, 1, 3, 4, 2)
    cols = np.empty((n, idx.size, group), x.dtype)
    np.take(xb, idx, axis=1, out=cols, mode="clip")
    return cols.reshape(n * spec.oh * spec.ow, -1)


def fp32_input_grad(g_mat: np.ndarray, wmat: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """FP32 input gradient of a convolution: (N*OH*OW, K) output gradients,
    pixel-major, and (K, C*KH*KW) flattened weights give the NCHW gradient.

    One sgemm, g_mat @ wmat, gives every tap's value.  The taps are added
    back onto the input pixels they were read from, in (kh, kw) order from
    +0.0, into a channels-last zero buffer transposed once to NCHW, a tile
    of about _SCATTER_FLOATS tap values at a time, so that the tile stays
    in cache across its taps.  The sgemm stays whole: OpenBLAS's summation
    order depends on the call's shape, and per-tap products would change
    the last bit where K > 32 or C = 1.
    """
    c, kh, kw = spec.in_ch, spec.kh, spec.kw
    oh, ow, s, p = spec.oh, spec.ow, spec.stride, spec.pad
    cols = g_mat @ wmat
    n = cols.shape[0] // (oh * ow)
    taps = cols.reshape(n, oh, ow, c, kh, kw)
    xp = np.zeros((n, spec.h + 2 * p, spec.w + 2 * p, c), cols.dtype)
    step = max(1, _SCATTER_FLOATS // (oh * ow * c * kh * kw))
    for i0 in range(0, n, step):
        for r in range(kh):
            for t in range(kw):
                xp[i0: i0 + step, r: r + s * (oh - 1) + 1: s, t: t + s * (ow - 1) + 1: s] += \
                    taps[i0: i0 + step, :, :, :, r, t]
    return np.ascontiguousarray(xp[:, p: p + spec.h, p: p + spec.w].transpose(0, 3, 1, 2))


# === shared kernel planning ===


@dataclasses.dataclass
class _Plan:
    spec: ConvSpec
    blk: BlockingParams
    images: int                  # n; a GEMM row is one single-pixel image
    pixels: int                  # output rows per image, oh * ow
    tile_images: int             # images per fast-engine tile
    k16: int
    kpad: int
    madds: int                   # madds per (row, 16-lane block), L / 8
    chunk_bounds: List[Tuple[int, int]]  # madd index ranges per chain
    scale: np.float32
    shadow: bool
    engine: str                  # a key of ENGINES

    @property
    def m(self) -> int:
        """Output rows, n * oh * ow."""
        return self.images * self.pixels

    def store(self, out: np.ndarray, i0: int, i1: int, rows: np.ndarray) -> None:
        """Write images i0..i1-1's (rows, Kpad) FP32 output into NCHW out."""
        s = self.spec
        out[i0:i1] = rows[:, : s.out_ch].reshape(
            i1 - i0, s.oh, s.ow, s.out_ch).transpose(0, 3, 1, 2)


def _make_plan(spec: ConvSpec, blk: Optional[BlockingParams], policy: OverflowPolicy,
               engine: str, x: np.ndarray, wmat: np.ndarray, es: int) -> _Plan:
    # Output rows of the images in `x` (NCHW int16 elements) times the
    # weight matrix `wmat`, spilled at scale 2**es.
    if blk is None:
        blk = default_blocking(spec, policy)
    chain = chain_length(spec, blk, policy)
    if isinstance(policy, Strict):
        check_strict_chain(chain, max_abs(x) if x.size else 0, max_abs(wmat))
    scale = fp32_scale(es)

    k16 = _ceil_to(spec.out_ch, 16) // 16
    # (cb, kh, kw, half) in fixed order: two madds per tap of a 16-channel block
    madds = _ceil_to(spec.in_ch, 16) // 8 * spec.kh * spec.kw
    chain_madds = chain // 8
    bounds = [(i, min(i + chain_madds, madds)) for i in range(0, madds, chain_madds)]
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; use one of {sorted(ENGINES)}")
    pixels = spec.oh * spec.ow
    return _Plan(spec, blk, x.shape[0], pixels, max(1, _TILE_ROWS // pixels), k16,
                 k16 * 16, madds, bounds, scale, shadow_enabled(policy), engine)


# === engines ===


def _run_instr(plan: _Plan, x: np.ndarray, wmat: np.ndarray, out: np.ndarray,
               debug_partials: Optional[list]) -> KernelStats:
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


def _run_fast(plan: _Plan, x: np.ndarray, wmat: np.ndarray, out: np.ndarray,
              debug_partials: Optional[list]) -> KernelStats:
    if debug_partials is not None:
        partials = [np.empty((plan.m, plan.kpad), np.int32) for _ in plan.chunk_bounds]
    # Work arrays for the largest tile, reused by every tile of the call.
    rows = min(plan.tile_images, plan.images) * plan.pixels
    exact_buf = np.empty((rows, plan.kpad), np.float64)
    wide_buf = np.empty((rows, plan.kpad), np.int64)
    wrapped_buf = np.empty((rows, plan.kpad), np.int32)
    term_buf = np.empty((rows, plan.kpad), np.float32)
    acc_buf = np.empty((rows, plan.kpad), np.float32)
    a_buf = np.empty(rows * 8 * (plan.chunk_bounds[0][1] - plan.chunk_bounds[0][0]))
    # A chain's weight operand is built when the first tile needs it and
    # kept only while later tiles will need it too.
    ops: List[Optional[_ChainOperand]] = [None] * len(plan.chunk_bounds)
    overflow = 0
    for i0 in range(0, plan.images, plan.tile_images):
        i1 = min(i0 + plan.tile_images, plan.images)
        cols = im2col(x[i0:i1], plan.spec, 16)
        t0, t1 = i0 * plan.pixels, i1 * plan.pixels
        exact, wide, wrapped, term, acc = (
            buf[: t1 - t0] for buf in (exact_buf, wide_buf, wrapped_buf, term_buf, acc_buf))
        acc[...] = 0
        for ci, bounds in enumerate(plan.chunk_bounds):
            op = ops[ci] or _ChainOperand(wmat, bounds, plan.shadow)
            if i1 < plan.images:
                ops[ci] = op
            a_chunk = cols[:, op.r0:op.r1]
            a = a_buf[: a_chunk.size].reshape(a_chunk.shape)
            np.copyto(a, a_chunk)
            # Exact integer sums: |partials| <= chain * 2**30 << 2**53.
            np.matmul(a, op.b, out=exact)
            np.copyto(wide, exact, casting="unsafe")
            np.copyto(wrapped, wide, casting="unsafe")
            if debug_partials is not None:
                partials[ci][t0:t1] = wrapped
            spill_add(acc, wrapped, plan.scale, out=term)
            if plan.shadow:
                overflow += _shadow_excursions(a_chunk, a, op, exact)
        plan.store(out, i0, i1, acc)
    if debug_partials is not None:
        debug_partials.extend(partials)

    n_chunks = len(plan.chunk_bounds)
    n_tiles = -(-plan.m // plan.blk.rb_size)
    return KernelStats(fma_count=plan.m * plan.k16 * plan.madds,
                       convert_count=plan.m * plan.k16 * n_chunks,
                       spill_count=n_tiles * plan.k16 * n_chunks,
                       overflow_count=overflow)


class _ChainOperand:
    """One chain's rows r0:r1 of the weight matrix in float64, with, for
    the shadow check, each row's largest magnitude and, built only if some
    row of A needs them, all the magnitudes."""

    def __init__(self, wmat: np.ndarray, bounds: Tuple[int, int], shadow: bool):
        self.r0, self.r1 = bounds[0] * 8, bounds[1] * 8
        w = wmat[self.r0:self.r1]
        self.b = w.astype(np.float64)
        if shadow:
            self.row_max = np.maximum(w.max(axis=1), -w.min(axis=1).astype(np.float64))

    @functools.cached_property
    def absb(self) -> np.ndarray:
        return np.abs(self.b)


def _shadow_excursions(a_chunk: np.ndarray, a: np.ndarray, op: _ChainOperand,
                       exact: np.ndarray) -> int:
    # Count (output element, chain) pairs whose exact running sum leaves the
    # int32 range at any madd boundary; identical to the instruction mirror.
    # a is the tile's float64 chain operand (overwritten with |a|), a_chunk
    # its int16 original, and exact = a @ op.b.  With P the sum of a pair's
    # positive products and N the magnitude of its negative ones, every
    # running sum lies in [-N, P].  Row tier: B_r = |a_r| @ max_j |b_kj|
    # >= P + N for every pair of row r, so rows with B_r <= INT32_MAX cannot
    # overflow.  Pair tier, for the rest: |a| @ |b| = P + N and exact = P - N,
    # both exact like `exact` itself.  Only rows with a pair whose P or -N
    # leaves int32 are summed madd by madd, all of the tile's at once.
    absa = np.abs(a, out=a)
    rows = np.flatnonzero(absa @ op.row_max > INT32_MAX)
    if rows.size == 0:
        return 0
    if rows.size < absa.shape[0]:
        absa, exact = absa[rows], exact[rows]
    mag = absa @ op.absb
    flagged = mag + exact > 2 * INT32_MAX
    flagged |= np.subtract(mag, exact, out=mag) > -2 * INT32_MIN
    rows = rows[flagged.any(axis=1)]
    madds, kp = op.b.shape[0] // 8, op.b.shape[1]
    am = a_chunk[rows].reshape(rows.size, madds, 8).transpose(1, 0, 2).astype(np.float64)
    run = am @ op.b.reshape(madds, 8, kp)       # (madds, rows, kp), exact
    np.cumsum(run, axis=0, out=run)
    return int(np.any((run > INT32_MAX) | (run < INT32_MIN), axis=0).sum())


# The engines by name; every list of engine names is read from here.
ENGINES = {"instructions": _run_instr, "fast": _run_fast}


# === kernel entry points ===


def _convolve(x: np.ndarray, wmat: np.ndarray, es: int, spec: ConvSpec,
              blk: Optional[BlockingParams], policy: OverflowPolicy, engine: str,
              debug_partials: Optional[list]) -> Tuple[np.ndarray, KernelStats]:
    # The one kernel body: NCHW int16 elements x times the (L, Kpad) int16
    # weight matrix, spilled at scale 2**es into a new NCHW FP32 output.
    plan = _make_plan(spec, blk, policy, engine, x, wmat, es)
    out = np.empty((plan.images, spec.out_ch, spec.oh, spec.ow), np.float32)
    return out, ENGINES[plan.engine](plan, x, wmat, out, debug_partials)


def conv_fprop(inp: DfpTensor, weights: PackedWeights, spec: ConvSpec,
               blk: Optional[BlockingParams] = None,
               policy: OverflowPolicy = Empirical(),
               engine: str = "fast",
               debug_partials: Optional[list] = None
               ) -> Tuple[np.ndarray, KernelStats]:
    """Forward convolution of a DFP input with DFP weights lowered by
    pack_weights.

    Returns the FP32 output (N, K, OH, OW) plus instruction statistics.
    INT32 partial chains of icblk*KH*KW products are spilled into FP32 with
    scale 2**(E_inp + E_wt).  `debug_partials`, if a list, receives the raw
    int32 chain sums (one (M, Kpad) matrix per chain block, pixel-major) for
    verification against wide-integer oracles.
    """
    x = inp.elements
    if x.ndim != 4:
        raise ValueError(f"input must be NCHW, got shape {inp.shape}")
    if x.shape[1:] != (spec.in_ch, spec.h, spec.w):
        raise ValueError(f"input shape {inp.shape} does not match spec")
    if weights.shape != (spec.out_ch, spec.in_ch, spec.kh, spec.kw):
        raise ValueError(
            f"weights shape {weights.shape} does not match spec "
            f"({spec.out_ch}, {spec.in_ch}, {spec.kh}, {spec.kw})")
    return _convolve(x, weights.data, inp.shared_exponent + weights.shared_exponent,
                     spec, blk, policy, engine, debug_partials)


def gemm_dfp(a: DfpTensor, b: DfpTensor,
             blk: Optional[BlockingParams] = None,
             policy: OverflowPolicy = Empirical(),
             engine: str = "fast",
             debug_partials: Optional[list] = None
             ) -> Tuple[np.ndarray, KernelStats]:
    """C = A (M x KK) times B (KK x N) through the blocked integer kernels.

    A GEMM is a 1x1 convolution over M single-pixel images with KK input
    channels and runs as one, in conv_fprop's kernel body: A's rows are the
    images (a reshape, not a copy) and B, zero-padded to whole 16-lane
    groups where needed, the weight matrix.  The (M, N) result is a view
    of the kernel's output.  `debug_partials` acts as in conv_fprop.
    """
    if a.elements.ndim != 2 or b.elements.ndim != 2:
        raise ValueError("gemm operands must be rank-2")
    m, kk = a.elements.shape
    kk2, n = b.elements.shape
    if kk != kk2:
        raise ValueError(f"inner dimensions disagree: {kk} vs {kk2}")
    spec = ConvSpec(in_ch=kk, out_ch=n, h=1, w=1, kh=1, kw=1)
    wmat = (np.pad(b.elements, ((0, -kk % 16), (0, -n % 16)))
            if kk % 16 or n % 16 else b.elements)
    out, stats = _convolve(a.elements.reshape(m, kk, 1, 1), wmat,
                           a.shared_exponent + b.shared_exponent,
                           spec, blk, policy, engine, debug_partials)
    return out.reshape(m, n), stats
