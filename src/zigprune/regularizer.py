"""Mixed l1/l2 group regularizer: value, subgradient, prox, sparsity metrics.

The penalty is r(x) = sum over penalized groups of ||x_g||_2. The chosen
subgradient is x_g/||x_g|| on nonzero groups and 0 on zero groups (the
minimum-norm element), so exactly-zero groups feel no regularizer push.
Zero tests are bitwise (== 0.0): both the prox and the half-space step write
literal zeros, so no tolerance is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .zig import GroupPartition


@dataclass
class SparsityMetrics:
    group_sparsity: float
    zero_groups: int
    nonzero_groups: int


def group_norms(x: np.ndarray, partition: GroupPartition) -> np.ndarray:
    """Euclidean norm of every penalized group (float64)."""
    return np.sqrt(partition.pen_sqnorms(x))


def group_norm_value(x: np.ndarray, partition: GroupPartition) -> float:
    """r(x): the sum of penalized group norms."""
    return float(group_norms(x, partition).sum())


def subgradient(x: np.ndarray, partition: GroupPartition, lam: float) -> np.ndarray:
    """lam * zeta(x) with zeta the minimum-norm subgradient of r at x."""
    if lam < 0:
        raise ParameterError(f"regularization weight must be >= 0, got {lam}")
    out = np.zeros_like(x)
    if partition.pen_perm.size == 0 or lam == 0.0:
        return out
    xp = x[partition.pen_perm].astype(np.float64)
    sub = pen_subgradient(xp, partition.pen_sum(xp * xp), partition, lam)
    out[partition.pen_perm] = sub.astype(x.dtype)
    return out


def pen_subgradient(xp: np.ndarray, sqnorms: np.ndarray, partition: GroupPartition, lam: float):
    """lam * zeta on the gathered penalized entries ``x[pen_perm]`` (float64).

    `sqnorms` are their group sums of squares; the result is float64, for the
    caller to round.
    """
    norms = np.sqrt(sqnorms)
    scale = np.zeros_like(norms)
    nz = norms > 0.0
    scale[nz] = lam / norms[nz]
    return xp * np.repeat(scale, partition.pen_sizes)


def group_prox(v: np.ndarray, partition: GroupPartition, tau: float) -> np.ndarray:
    """Group soft-threshold: argmin_u 1/2||u - v||^2 + tau * r(u).

    Groups with ||v_g|| <= tau collapse to exact zeros; the rest shrink by
    (1 - tau/||v_g||). Unpenalized entries pass through unchanged.
    """
    if tau < 0:
        raise ParameterError(f"prox threshold must be >= 0, got {tau}")
    out = v.copy()
    if partition.pen_perm.size == 0 or tau == 0.0:
        return out
    vp = v[partition.pen_perm].astype(np.float64)
    norms = np.sqrt(partition.pen_sum(vp * vp))
    keep = norms > tau
    factor = np.zeros_like(norms)
    factor[keep] = 1.0 - tau / norms[keep]
    shrunk = (vp * np.repeat(factor, partition.pen_sizes)).astype(v.dtype)
    shrunk[np.repeat(~keep, partition.pen_sizes)] = 0.0
    out[partition.pen_perm] = shrunk
    return out


def sparsity_metrics(x: np.ndarray, partition: GroupPartition) -> SparsityMetrics:
    """Fraction / counts of penalized groups whose entries are all exactly zero."""
    counts = partition.pen_nonzero_counts(x)
    total = int(counts.size)
    if total == 0:
        return SparsityMetrics(group_sparsity=0.0, zero_groups=0, nonzero_groups=0)
    zero = int((counts == 0).sum())
    return SparsityMetrics(
        group_sparsity=zero / total, zero_groups=zero, nonzero_groups=total - zero
    )
