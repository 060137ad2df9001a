"""Train-once structured pruning with zero-invariant groups.

The pipeline: partition a model's parameters into zero-invariant groups,
train with the half-space projected subgradient optimizer to reach exact
group sparsity, then prune the zero groups into a slim model whose outputs
match the full one.
"""

from .hspg import (
    OptimizerState,
    TrainConfig,
    hspg_step,
    prox_sg_step,
    sgd_step,
    train,
)
from .layers import Activation, ConvBN, Linear, Loss, MultiHeadAttention, ResidualBlock
from .model import ModelGraph, finite_difference_check, infer_shapes
from .prune import PruneReport, count_flops_params, equivalence_check, prune
from .tensor import Tensor, load_arrays, save_arrays
from .zig import Group, GroupPartition, partition_zig, verify_zero_invariance
from .zig import group_prox, sparsity_metrics  # the group regularizer

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "ConvBN",
    "Group",
    "GroupPartition",
    "Linear",
    "Loss",
    "ModelGraph",
    "MultiHeadAttention",
    "OptimizerState",
    "PruneReport",
    "ResidualBlock",
    "Tensor",
    "TrainConfig",
    "count_flops_params",
    "equivalence_check",
    "finite_difference_check",
    "group_prox",
    "hspg_step",
    "infer_shapes",
    "load_arrays",
    "partition_zig",
    "prox_sg_step",
    "prune",
    "save_arrays",
    "sgd_step",
    "sparsity_metrics",
    "train",
    "verify_zero_invariance",
]
