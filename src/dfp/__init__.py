"""Shared-exponent INT16 tensors and integer-arithmetic CNN training."""

from .arith import Empirical
from .kernels import (BlockingParams, ConvSpec, KernelStats, PackedWeights,
                      chain_length, conv_fprop, default_blocking, gemm_dfp,
                      overhead_ratio, pack_weights)
from .tensor import (Biased, DfpTensor, Nearest, QuantConfig, RoundingMode,
                     Stochastic, dequantize, extract_exponent, quantize,
                     rounding_from_name, ZERO_EXPONENT)

__all__ = [
    "Biased", "BlockingParams", "ConvSpec", "DfpTensor", "Empirical",
    "KernelStats", "Nearest", "PackedWeights", "QuantConfig", "RoundingMode",
    "Stochastic", "ZERO_EXPONENT",
    "chain_length", "conv_fprop", "default_blocking", "dequantize",
    "extract_exponent", "gemm_dfp", "overhead_ratio", "pack_weights", "quantize",
    "rounding_from_name",
]

__version__ = "0.1.0"
