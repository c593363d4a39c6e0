"""The benchmark's two workloads: network config, data geometry, time split.

Both are closed loops: one process trains one model at a time, and each
step starts when the previous one has finished.  The reason each workload
exists, and which layer changes it should and should not show, is in
README.md beside this file.
"""

from __future__ import annotations

import copy
import dataclasses

# The acceptance suite's parity network (tests/test_acceptance.py,
# PARITY_CFG): FP32 5x5 conv1, two DFP16 3x3 conv+BN, maxpool, FP32 fc.
PARITY_CFG = {
    "layers": [
        {"type": "conv", "out_ch": 16, "kernel": 5, "pad": 2,
         "precision": "fp32", "bias": True},
        {"type": "relu"},
        {"type": "maxpool", "kernel": 2},
        {"type": "conv", "out_ch": 32, "kernel": 3, "pad": 1},
        {"type": "batchnorm"},
        {"type": "relu"},
        {"type": "maxpool", "kernel": 2},
        {"type": "conv", "out_ch": 32, "kernel": 3, "pad": 1},
        {"type": "batchnorm"},
        {"type": "relu"},
        {"type": "flatten"},
        {"type": "fc", "out_features": 10, "precision": "fp32", "bias": True}],
    "loss": "softmax_xent", "epochs": 6, "batch_size": 64, "base_lr": 0.02,
    "momentum": 0.9, "weight_decay": 5e-4, "step_epochs": [4],
    "pre_shift": 1, "rounding": "nearest",
}

# Every DFP code path the parity net skips: a stride-2 conv (error
# dilation in backward), a residual block, average pooling, a DFP fc,
# stochastic rounding (Philox draws) and shadow INT32 accounting.
RESNET_SHADOW_CFG = {
    "layers": [
        {"type": "conv", "out_ch": 16, "kernel": 5, "pad": 2,
         "precision": "fp32", "bias": True},
        {"type": "relu"},
        {"type": "conv", "out_ch": 16, "kernel": 2, "stride": 2},
        {"type": "relu"},
        {"type": "residual", "body": [
            {"type": "conv", "out_ch": 16, "kernel": 3, "pad": 1},
            {"type": "batchnorm"},
            {"type": "relu"},
            {"type": "conv", "out_ch": 16, "kernel": 3, "pad": 1},
            {"type": "batchnorm"}]},
        {"type": "relu"},
        {"type": "avgpool", "kernel": 2},
        {"type": "flatten"},
        {"type": "fc", "out_features": 10, "bias": True}],
    "loss": "softmax_xent", "epochs": 6, "batch_size": 32, "base_lr": 0.02,
    "momentum": 0.9, "weight_decay": 5e-4, "step_epochs": [4],
    "pre_shift": 1, "rounding": "stochastic", "shadow_check": True,
}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    n_train: int          # glyph training images; n_train // batch steps per epoch
    n_test: int           # glyph validation images
    from_idx: bool        # True: read IDX files written before timing starts
    fp32_share: float     # share of --seconds given to the FP32 run
    setup_repeats: int    # set-up is repeated and its median reported

    @property
    def source(self) -> str:
        return f"glyphs:train={self.n_train},test={self.n_test}"

    def smoke(self) -> "Workload":
        """The same network and code paths at minimal length: one epoch of
        eight batches and a single set-up."""
        cfg = copy.deepcopy(self.config)
        cfg["epochs"], cfg["step_epochs"] = 1, []
        bs = cfg["batch_size"]
        return dataclasses.replace(self, config=cfg, n_train=8 * bs,
                                   n_test=2 * bs, setup_repeats=1)


WORKLOADS = {
    # 6 epochs x 18 batches = 108 fixed steps per precision
    "parity": Workload("parity", PARITY_CFG, n_train=1152, n_test=512,
                       from_idx=False, fp32_share=1 / 3, setup_repeats=3),
    # 6 epochs x 18 batches = 108 fixed steps per precision
    "resnet_shadow": Workload("resnet_shadow", RESNET_SHADOW_CFG,
                              n_train=576, n_test=256, from_idx=True,
                              fp32_share=0.25, setup_repeats=25),
}
