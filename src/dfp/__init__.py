"""Shared-exponent INT16 tensors and integer-arithmetic CNN training."""

from .arith import (AccumTensor, Empirical, dfp_add, dfp_multiply, down_convert,
                    lzc, safe_chain_length, spill_to_fp32)
from .kernels import (BlockingParams, ConvSpec, KernelStats, PackedWeights,
                      chain_length, conv_fprop, default_blocking, gemm_dfp,
                      overhead_ratio, pack_weights, vnni_madd)
from .tensor import (Biased, DfpTensor, Nearest, QuantConfig, RoundingMode,
                     Stochastic, dequantize, extract_exponent, quantize,
                     round_value, rounding_from_name, shared_exponent,
                     ZERO_EXPONENT)

__all__ = [
    "AccumTensor", "Biased", "BlockingParams", "ConvSpec", "DfpTensor",
    "Empirical", "KernelStats", "Nearest", "PackedWeights", "QuantConfig",
    "RoundingMode", "Stochastic", "ZERO_EXPONENT",
    "chain_length", "conv_fprop", "default_blocking", "dequantize", "dfp_add",
    "dfp_multiply", "down_convert", "extract_exponent", "gemm_dfp", "lzc",
    "overhead_ratio", "pack_weights", "quantize", "round_value",
    "rounding_from_name", "safe_chain_length", "shared_exponent", "spill_to_fp32",
    "vnni_madd",
]

__version__ = "0.1.0"
