"""Blocked integer convolution/GEMM kernels on an emulated 16-lane FMA.

The compute primitive is a fused multiply-add over int16 pairs, vnni_madd,
whose semantics are exactly this loop (wrapping 32-bit arithmetic):

    for v in range(4):
        for o in range(16):
            vout[o] += vinp2[v][2*o] * mem[2*v] + vinp2[v][2*o+1] * mem[2*v+1]

One instruction therefore accumulates 8 products into each of 16 int32
output lanes.  Convolution weights are packed into the layout

    [C/16][K/16][KH][KW][8][16][2]

where the trailing 2 spans consecutive input channels, so each (kh, kw)
step of a 16-input-channel block feeds two madd instructions per 16 output
channels.  Reductions run in a fixed order, input-channel block major, then
kernel row, column, and 8-channel half.  The running int32 sum is spilled
into an FP32 accumulator (scaled by 2**(E_inp + E_wt)) every `icblk*KH*KW`
products; this chain length is the overflow-management knob.

Every pass is lowered to one operand pair: an (M, L) patch matrix from
im2col whose columns follow the madd order, and an (L, Kpad) weight
matrix with rows in the same order.  The packed layout is conv_fprop's
input format, lowered to the weight matrix once per call; a GEMM's A and
B operands are the pair itself, zero-padded to whole 16-lane groups.  Two
engines, chosen by name, read the same pair and produce bit-identical
outputs and statistics:

* "instructions": a Python loop nest issuing one vnni_madd per emulated
  instruction, with mem read from patch-matrix columns 8i..8i+7 and vinp2
  from weight-matrix rows 8i..8i+7, counting instructions live.  This is
  the reference emulator; it runs only when asked for.
* "fast", the default everywhere: one chain of matrix products per
  spill.  Per-chain integer sums are computed exactly (float64 matmul; all
  partial sums stay far below 2**53) and then wrapped to int32.  Because
  two's-complement addition is associative, the wrapped totals equal the
  instruction sequence's, and spilling in the same chain order reproduces
  the FP32 accumulation bit for bit.

With shadow checking enabled, both engines count one overflow event per
(output element, chain) whose exact running sum leaves the signed 32-bit
range at some madd boundary.  The instructions engine keeps a live 64-bit
mirror of every lane.  The fast engine first bounds each chain: with P the
sum of its positive products and N the magnitude of its negative ones,
every running sum lies in [-N, P], and P + N = |A| @ |B| and P - N = A @ B
are both exact float64 matmuls.  Pairs with P <= INT32_MAX and N <= 2**31
cannot overflow; only the rows holding some other pair are re-summed madd
by madd (float64 prefix sums over slabs of flagged rows), so the count
stays exact while clean chains cost one extra matmul.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .arith import (INT32_MAX, INT32_MIN, Empirical, OverflowPolicy, Strict,
                    fp32_scale, shadow_enabled)
from .tensor import DfpTensor, max_abs

# Flagged rows per shadow prefix-sum slab: the fast engine replays only the
# rows the interval bound cannot clear, this many at a time, so the float64
# (madds, rows, Kpad) slab stays bounded however many rows are flagged.
_SHADOW_ROW_BLOCK = 2048


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

    Exact whenever icblk divides the padded channel count (uniform chains);
    bench runs cross-check it against measured KernelStats.
    """
    rb = blk.rb_size
    return Fraction(rb * 16, blk.icblk * spec.kh * spec.kw * 2 * rb)


def default_blocking(spec: ConvSpec, policy: Optional[OverflowPolicy] = None,
                     rb_size: int = 28, icblk: Optional[int] = None) -> BlockingParams:
    """Blocking for spec: an explicit icblk wins, otherwise icblk is sized
    for the given overflow policy.

    Empirical: the smallest multiple of 16 that divides the padded channel
    count and whose chain icblk*KH*KW reaches the policy's chain_block
    target (default 208); the whole padded channel count if no block
    reaches it.  Divisibility keeps every chain full-length, so the
    measured convert/FMA ratio equals the analytic one exactly.  Strict:
    the largest multiple of 8 whose chain stays within max_chain.  Under
    Strict, a chain that exceeds max_chain, even one madd per tap or an
    explicit icblk, is an error.
    """
    per = spec.kh * spec.kw
    cpad = _ceil_to(spec.in_ch, 16)
    if icblk is None and isinstance(policy, Strict):
        icblk = min(max(8, policy.max_chain // per // 8 * 8), cpad)
    elif icblk is None:
        target = policy.chain_block if isinstance(policy, Empirical) else 208
        icblk = cpad
        for cand in range(16, cpad + 1, 16):
            if cpad % cand == 0 and cand * per >= target:
                icblk = cand
                break
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


# === weight packing ===


@dataclasses.dataclass(frozen=True)
class PackedWeights:
    """Weights relaid as [C/16][K/16][KH][KW][8][16][2] int16.

    The trailing dimension spans two consecutive input channels, matching
    the pairing consumed by vnni_madd.  Channel counts are zero-padded to
    multiples of 16; out_ch/in_ch record the original sizes.
    """

    data: np.ndarray
    shared_exponent: int
    bit_width: int
    out_ch: int
    in_ch: int


def pack_weights(weights: DfpTensor, spec: ConvSpec) -> PackedWeights:
    """Relayout (K, C, KH, KW) weights for the blocked kernels.

    Element W[k][c][r][s] lands at packed index
    ([c//16], [k//16], r, s, (c%16)//2, k%16, c%2).
    """
    w = weights.elements
    if w.shape != (spec.out_ch, spec.in_ch, spec.kh, spec.kw):
        raise ValueError(
            f"weights shape {w.shape} does not match spec "
            f"({spec.out_ch}, {spec.in_ch}, {spec.kh}, {spec.kw})")
    kpad = _ceil_to(spec.out_ch, 16)
    cpad = _ceil_to(spec.in_ch, 16)
    wp = np.zeros((kpad, cpad, spec.kh, spec.kw), np.int16)
    wp[: spec.out_ch, : spec.in_ch] = w
    arr = wp.reshape(kpad // 16, 16, cpad // 16, 8, 2, spec.kh, spec.kw)
    packed = arr.transpose(2, 0, 5, 6, 3, 1, 4).copy()
    return PackedWeights(packed, weights.shared_exponent, weights.bit_width,
                         spec.out_ch, spec.in_ch)


def unpack_weights(pw: PackedWeights) -> DfpTensor:
    """Inverse relayout; padded channels are dropped."""
    c16, k16, kh, kw = pw.data.shape[:4]
    wp = pw.data.transpose(1, 5, 0, 4, 6, 2, 3).reshape(k16 * 16, c16 * 16, kh, kw)
    return DfpTensor(wp[: pw.out_ch, : pw.in_ch].copy(), pw.shared_exponent, pw.bit_width)


# === lowering ===


def im2col(x: np.ndarray, spec: ConvSpec, group: int = 1) -> np.ndarray:
    """(N*OH*OW, L) patch matrix of an NCHW array of any dtype.

    The input is zero-padded spatially and up to whole groups of `group`
    channels, so L = ceil(C/group)*group*KH*KW.  Columns run in
    (c // group, kh, kw, c % group) order: group=16 is the fixed madd order
    of the integer kernels, group=1 the plain (c, kh, kw) order of a
    flattened (K, C, KH, KW) weight.
    """
    n, cg = x.shape[0], -(-spec.in_ch // group)
    oh, ow, s, p = spec.oh, spec.ow, spec.stride, spec.pad
    if p or cg * group != spec.in_ch:
        xp = np.zeros((n, cg * group, spec.h + 2 * p, spec.w + 2 * p), x.dtype)
        xp[:, : spec.in_ch, p: p + spec.h, p: p + spec.w] = x
        x = xp
    x = x.reshape(n, cg, group, x.shape[2], x.shape[3])
    cols = np.empty((n, oh, ow, cg, spec.kh, spec.kw, group), x.dtype)
    for r in range(spec.kh):
        for t in range(spec.kw):
            view = x[..., r: r + s * (oh - 1) + 1: s, t: t + s * (ow - 1) + 1: s]
            cols[:, :, :, :, r, t] = view.transpose(0, 3, 4, 1, 2)
    return cols.reshape(n * oh * ow, -1)


def col2im(cols: np.ndarray, spec: ConvSpec, group: int = 1) -> np.ndarray:
    """Adjoint of im2col: scatter-add each patch column back onto the NCHW
    input it was read from, taps in (kh, kw) order; padding is dropped."""
    cg = -(-spec.in_ch // group)
    oh, ow, s, p = spec.oh, spec.ow, spec.stride, spec.pad
    n = cols.shape[0] // (oh * ow)
    d = cols.reshape(n, oh, ow, cg, spec.kh, spec.kw, group)
    xp = np.zeros((n, cg, group, spec.h + 2 * p, spec.w + 2 * p), cols.dtype)
    for r in range(spec.kh):
        for t in range(spec.kw):
            xp[..., r: r + s * (oh - 1) + 1: s, t: t + s * (ow - 1) + 1: s] += \
                d[:, :, :, :, r, t].transpose(0, 3, 4, 1, 2)
    xp = xp.reshape(n, cg * group, spec.h + 2 * p, spec.w + 2 * p)
    return xp[:, : spec.in_ch, p: p + spec.h, p: p + spec.w]


def _zero_pad(x: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
    # x in the top-left corner of a zero matrix of the given shape.
    if x.shape == shape:
        return x
    out = np.zeros(shape, x.dtype)
    out[: x.shape[0], : x.shape[1]] = x
    return out


# === shared kernel planning ===


@dataclasses.dataclass
class _Plan:
    blk: BlockingParams
    m: int                       # output rows, n * oh * ow
    k16: int
    kpad: int
    madds: int                   # madds per (row, 16-lane block), L / 8
    chunk_bounds: List[Tuple[int, int]]  # madd index ranges per chain
    scale: np.float32
    shadow: bool
    engine: str                  # a key of _ENGINES


def _make_plan(spec: ConvSpec, blk: Optional[BlockingParams], policy: OverflowPolicy,
               engine: str, m: int, a: np.ndarray, b: np.ndarray, es: int) -> _Plan:
    # m output rows from input elements `a` and weight elements `b` (any
    # layout), spilled at scale 2**es.
    if blk is None:
        blk = default_blocking(spec, policy)
    chain = chain_length(spec, blk, policy)
    if isinstance(policy, Strict):
        maxa = max_abs(a) if a.size else 0
        maxb = max_abs(b) if b.size else 0
        if maxa * maxb * chain > INT32_MAX:
            safe = INT32_MAX // (maxa * maxb) if maxa * maxb else INT32_MAX
            raise ValueError(
                f"Strict policy infeasible: chain {chain} of products up to "
                f"{maxa}*{maxb} can overflow int32; safe_chain_length for these "
                f"magnitudes is {safe}")
    scale = fp32_scale(es)

    k16 = _ceil_to(spec.out_ch, 16) // 16
    # (cb, kh, kw, half) in fixed order: two madds per tap of a 16-channel block
    madds = _ceil_to(spec.in_ch, 16) // 8 * spec.kh * spec.kw
    chain_madds = chain // 8
    bounds = [(i, min(i + chain_madds, madds)) for i in range(0, madds, chain_madds)]
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; use one of {sorted(_ENGINES)}")
    return _Plan(blk, m, k16, k16 * 16, madds, bounds, scale, shadow_enabled(policy),
                 engine)


# === engines ===


def _run_instr(plan: _Plan, cols: np.ndarray, wmat: np.ndarray,
               debug_partials: Optional[list]) -> Tuple[np.ndarray, KernelStats]:
    rb = plan.blk.rb_size
    stats = KernelStats()
    out = np.zeros((plan.m, plan.kpad), np.float32)
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
                vtemp += vout.astype(np.float32) * plan.scale
                stats.convert_count += tsz
                stats.spill_count += 1
                if plan.shadow:
                    stats.overflow_count += int(flags.sum())
            out[t0: t0 + tsz, kb * 16: kb * 16 + 16] = vtemp
    if debug_partials is not None:
        debug_partials.extend(partials)
    return out, stats


def _run_fast(plan: _Plan, cols: np.ndarray, wmat: np.ndarray,
              debug_partials: Optional[list]) -> Tuple[np.ndarray, KernelStats]:
    out = np.zeros((plan.m, plan.kpad), np.float32)
    stats = KernelStats()
    for m0, m1 in plan.chunk_bounds:
        r0, r1 = m0 * 8, m1 * 8
        a = cols[:, r0:r1].astype(np.float64)
        b = wmat[r0:r1].astype(np.float64)
        # Exact integer sums: |partials| <= chain * 2**30 << 2**53.
        exact = a @ b
        wrapped = exact.astype(np.int64).astype(np.int32)
        if debug_partials is not None:
            debug_partials.append(wrapped)
        out += wrapped.astype(np.float32) * plan.scale
        if plan.shadow:
            stats.overflow_count += _shadow_excursions(cols[:, r0:r1], a, b, exact)

    n_chunks = len(plan.chunk_bounds)
    n_tiles = -(-plan.m // plan.blk.rb_size)
    stats.fma_count = plan.m * plan.k16 * plan.madds
    stats.convert_count = plan.m * plan.k16 * n_chunks
    stats.spill_count = n_tiles * plan.k16 * n_chunks
    return out, stats


def _shadow_excursions(a_chunk: np.ndarray, a: np.ndarray, b: np.ndarray,
                       exact: np.ndarray) -> int:
    # Count (output element, chain) pairs whose exact running sum leaves the
    # int32 range at any madd boundary; identical to the instruction mirror.
    # a and b are the chain's float64 operands (a is overwritten with |a|),
    # exact = a @ b.  With P the sum of a pair's positive products and N the
    # magnitude of its negative ones, every running sum lies in [-N, P];
    # |a| @ |b| = P + N and exact = P - N, both exact like `exact` itself.
    # Only rows with a pair whose P or -N leaves int32 are summed madd by madd.
    mag = np.abs(a, out=a) @ np.abs(b)
    flagged = mag + exact > 2 * INT32_MAX
    flagged |= np.subtract(mag, exact, out=mag) > -2 * INT32_MIN
    rows = np.flatnonzero(flagged.any(axis=1))
    madds, kp = b.shape[0] // 8, b.shape[1]
    bm = b.reshape(madds, 8, kp)
    count = 0
    for r0 in range(0, rows.size, _SHADOW_ROW_BLOCK):
        slab = a_chunk[rows[r0: r0 + _SHADOW_ROW_BLOCK]]
        am = slab.reshape(slab.shape[0], madds, 8).transpose(1, 0, 2).astype(np.float64)
        run = am @ bm                        # (madds, rows, kp), exact
        np.cumsum(run, axis=0, out=run)
        count += int(np.any((run > INT32_MAX) | (run < INT32_MIN), axis=0).sum())
    return count


_ENGINES = {"instructions": _run_instr, "fast": _run_fast}


# === public kernel entry points ===


def conv_fprop(inp: DfpTensor, weights: PackedWeights, spec: ConvSpec,
               blk: Optional[BlockingParams] = None,
               policy: OverflowPolicy = Empirical(),
               engine: str = "fast",
               debug_partials: Optional[list] = None
               ) -> Tuple[np.ndarray, KernelStats]:
    """Forward convolution of a DFP input with packed DFP weights.

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
    c16 = _ceil_to(spec.in_ch, 16) // 16
    k16 = _ceil_to(spec.out_ch, 16) // 16
    if weights.data.shape != (c16, k16, spec.kh, spec.kw, 8, 16, 2):
        raise ValueError(f"packed weights shape {weights.data.shape} does not match spec")
    n = x.shape[0]
    plan = _make_plan(spec, blk, policy, engine, n * spec.oh * spec.ow, x, weights.data,
                      inp.shared_exponent + weights.shared_exponent)
    cols = im2col(x, spec, 16)
    # (L, Kpad) weight matrix in the same (cb, kh, kw, cc) row order.
    wmat = weights.data.transpose(0, 2, 3, 4, 6, 1, 5).reshape(cols.shape[1], plan.kpad)
    flat, stats = _ENGINES[plan.engine](plan, cols, wmat, debug_partials)
    out = flat[:, : spec.out_ch].reshape(n, spec.oh, spec.ow, spec.out_ch)
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2)), stats


def gemm_dfp(a: DfpTensor, b: DfpTensor,
             blk: Optional[BlockingParams] = None,
             policy: OverflowPolicy = Empirical(),
             engine: str = "fast",
             debug_partials: Optional[list] = None
             ) -> Tuple[np.ndarray, KernelStats]:
    """C = A (M x KK) times B (KK x N) through the blocked integer kernels.

    A GEMM is a 1x1 convolution over M single-pixel images with KK input
    channels, so the reduction is chunked along KK in icblk-sized chains
    with the same spill discipline as conv_fprop.  Its patch matrix is A
    and its weight matrix is B, each zero-padded to whole 16-lane groups.
    """
    if a.elements.ndim != 2 or b.elements.ndim != 2:
        raise ValueError("gemm operands must be rank-2")
    m, kk = a.elements.shape
    kk2, n = b.elements.shape
    if kk != kk2:
        raise ValueError(f"inner dimensions disagree: {kk} vs {kk2}")
    spec = ConvSpec(in_ch=kk, out_ch=n, h=1, w=1, kh=1, kw=1)
    plan = _make_plan(spec, blk, policy, engine, m, a.elements, b.elements,
                      a.shared_exponent + b.shared_exponent)
    cpad = _ceil_to(kk, 16)
    flat, stats = _ENGINES[plan.engine](plan, _zero_pad(a.elements, (m, cpad)),
                                        _zero_pad(b.elements, (cpad, plan.kpad)),
                                        debug_partials)
    return np.ascontiguousarray(flat[:, :n]), stats
