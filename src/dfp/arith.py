"""INT32 accumulator bounds, the overflow policy and the FP32 spill rule.

A kernel chain sums exact int16 products in wrapping 32-bit arithmetic
and spills the chain into an FP32 running sum, scaled by 2**E_s for the
sum E_s of the operands' shared exponents, so that long reductions never
overflow 32 bits.  spill_add is that one spill rule and fp32_scale the
scale; the kernels call both.

The overflow policy, Empirical, sizes the kernels' accumulation chains
for the observed behavior of real data and relies on shadow
instrumentation (the exact running sum at every madd boundary) to count
any excursion beyond the signed 32-bit range.

The paper's other DFP primitives (its accumulator tensor, multiply, add,
leading-zero count, down-conversion and worst-case chain length) are the
tests' specification and live with them, in tests/reference.py; no
training path calls them.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


@dataclasses.dataclass(frozen=True)
class Empirical:
    """Long chains sized for typical data; overflow is instrumented, not prevented.

    With shadow_check, kernels count the INT32 excursions of every running
    sum; the counts equal those of a live 64-bit mirror of every lane (the
    tests' instruction emulator) and do not depend on the thread count.
    On a 2-core x86 box, a DFP16 training step of the resnet_shadow network
    takes 1.11-1.27x as long with them as without, and a conv_fprop of its
    residual conv shape on `dfp bench-conv --dist gaussian` operands
    (16 -> 16 channels, 14x14, 3x3, pad 1, batch 32) 1.27-1.36x.  Each
    chain costs one matrix-vector product that bounds every row's running
    sums; only the rows it cannot clear are re-summed madd by madd.
    """

    chain_block: int = 208
    shadow_check: bool = False

    def __post_init__(self):
        if self.chain_block < 1:
            raise ValueError(f"chain_block must be >= 1, got {self.chain_block}")


def fp32_scale(es: int) -> np.float32:
    """The FP32 spill scale 2**es; es must lie in [-149, 127], the exponents
    of FP32 powers of two, subnormals included."""
    if not -149 <= es <= 127:
        raise ValueError(f"spill scale 2**{es} is outside the FP32 range")
    return np.float32(np.ldexp(1.0, es))


def spill_add(dst: np.ndarray, chain: np.ndarray, scale: np.float32,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """The spill rule: dst += float32(chain) * scale, elementwise, for an
    int32 chain sum, an FP32 running sum dst and the FP32 scale 2**E_s.

    Both the INT32 -> FP32 conversion and the scaled add round to nearest
    in FP32, matching a hardware convert + FMA sequence.  `out`, if given,
    is a float32 array of chain's shape that receives the scaled chain, so
    a caller spilling chain after chain allocates nothing per spill.
    Returns dst.
    """
    dst += np.multiply(chain, scale, out=out, dtype=np.float32)
    return dst
