"""Mixed l1/l2 group regularizer: value, subgradient, prox, sparsity metrics.

The penalty is r(x) = sum over penalized groups of ||x_g||_2. The chosen
subgradient is x_g/||x_g|| on nonzero groups and 0 on zero groups (the
minimum-norm element), so exactly-zero groups feel no regularizer push.
`subgradient` takes the gathered penalized entries ``x[pen_perm]`` and their
group sums of squares, which `hspg_step` already holds, so no full-length
vector is built. Zero tests are bitwise (== 0.0): both the prox and the
half-space step write literal zeros, so no tolerance is involved.
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


def subgradient(xp: np.ndarray, sqnorms: np.ndarray, partition: GroupPartition, lam: float):
    """lam * zeta on the gathered penalized entries ``xp = x[pen_perm]`` (float64).

    zeta is the minimum-norm subgradient of r at x; `sqnorms` are the group
    sums of squares of `xp`. The result is float64, for the caller to round.
    """
    norms = np.sqrt(sqnorms)
    scale = np.zeros_like(norms)
    np.divide(lam, norms, out=scale, where=norms > 0.0)
    return xp * np.repeat(scale, partition.pen_sizes)


def group_prox(v: np.ndarray, partition: GroupPartition, tau: float) -> np.ndarray:
    """Group soft-threshold: argmin_u 1/2||u - v||^2 + tau * r(u).

    Groups with ||v_g|| <= tau collapse to exact zeros; the rest shrink by
    (1 - tau/||v_g||). Unpenalized entries pass through unchanged.
    """
    if tau < 0:
        raise ParameterError(f"prox threshold must be >= 0, got {tau}")
    if tau == 0.0:  # the general path would write +0.0 over a zero group's -0.0 entries
        return v.copy()
    n_pen, sizes = partition.pen_perm.size, partition.pen_sizes
    out = v.take(partition.order)  # penalized entries first, as in `hspg_step`
    vp = out[:n_pen].astype(np.float64)
    norms = np.sqrt(partition.pen_sum(vp * vp))
    keep = norms > tau
    factor = np.zeros_like(norms)
    factor[keep] = 1.0 - tau / norms[keep]
    shrunk = out[:n_pen]
    shrunk[...] = vp * np.repeat(factor, sizes)  # rounds to v's dtype
    shrunk[np.repeat(~keep, sizes)] = 0.0
    return out.take(partition.inverse)


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
