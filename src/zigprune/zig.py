"""Partition trainable parameters into zero-invariant groups.

A group collects every parameter scalar that controls one output unit of a
layer, so that writing zeros over the whole group forces that unit's output
to be exactly zero for any input. The grouping rules live in each layer
kind's `units()` (see `layers`); this module only numbers the groups, tags
each as ``L{layer}:{layer_kind}:{unit label}`` and maps their spans into the
flat parameter view. One rule covers every kind: unit r's group is row r of
each trainable parameter of its layer, labelled r, so

  * conv+bn channel c: kernel row c, bias[c], gamma[c], beta[c]
    (bn mean/std are not trainable and stay out: with gamma = beta = 0 they
    cannot shift the channel away from zero)
  * residual block channel c: the conv+bn members of channel c in *both*
    branches, so the summed channel is zero
  * linear row i: weight row i and bias[i]
  * attention head h row i: head weight row i and head bias[i], labelled h{h}.{i}

Groups of the last parameterized layer default to unpenalized: they stay
grouped but the optimizer never drives them to zero, so the model keeps its
output width.

The mixed l1/l2 group regularizer lives here too, next to the gathered
layout it reads: r(x) = sum over penalized groups of ||x_g||_2, whose
minimum-norm subgradient is x_g/||x_g|| on nonzero groups and 0 on zero
groups, so exactly-zero groups feel no regularizer push. One bitwise test
decides every zero group: its float64 sum of squares (`pen_sqnorms`) is
== 0.0, which for float32 entries holds exactly when each entry is +-0.0 (a
nonzero float32 squares to at least 2e-90, non-negative terms cannot
cancel, and NaN and +-inf never sum to 0). The prox and the half-space step
write literal zeros, so no tolerance is involved. `sparsity_metrics` reads
the zero-group count and r(x) off one pass of those sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, ParameterError, UnsupportedStructureError
from .model import ModelGraph


@dataclass
class Group:
    gid: int
    layer_index: int
    tag: str  # L{layer}:{layer_kind}:{unit label}, or L-1:custom:{gid} for a hand-laid group
    out_index: int | None  # position in the layer output along the unit axis
    members: list[tuple[str, int, int]]  # (array id, start, stop) spans, array-local
    indices: np.ndarray  # positions in the model's flat parameter view
    penalized: bool

    @property
    def size(self) -> int:
        return int(self.indices.size)


class GroupPartition:
    """Disjoint parameter groups with precomputed gather indices.

    Vectorized per-group reductions run over the penalized groups via a
    single permutation + reduceat pass; that keeps the optimizer loop free
    of per-group Python overhead. `pen_sum` reduces values in the gathered
    layout ``x[pen_perm]`` to one per group; ``np.repeat(v, pen_sizes)``
    spreads one value per group back over its entries. `order` lists the
    penalized entries group by group, then the positions outside every
    penalized group, a permutation of the flat view; `pen_perm` is a view of
    the first part. `inverse` undoes it:
    ``x.take(order)[:pen_perm.size]`` is ``x[pen_perm]``, and
    ``y.take(inverse)`` puts a vector in that layout back in flat order.
    """

    def __init__(self, groups: list[Group], n_flat: int, require_cover: bool = False):
        self.groups = list(groups)
        self.n_flat = int(n_flat)
        self._validate(require_cover)
        pen = [g for g in self.groups if g.penalized]
        self.pen_gids = np.array([g.gid for g in pen], dtype=np.int64)
        self.pen_sizes = np.array([g.size for g in pen], dtype=np.int64)
        self.pen_starts = np.cumsum(self.pen_sizes) - self.pen_sizes
        free = np.ones(self.n_flat, dtype=bool)
        for g in pen:
            free[g.indices] = False
        self.order = np.concatenate([*(g.indices for g in pen), np.flatnonzero(free)])
        self.pen_perm = self.order[: self.pen_sizes.sum()]
        self.inverse = np.empty_like(self.order)
        self.inverse[self.order] = np.arange(self.n_flat)

    def _validate(self, require_cover: bool):
        seen = np.zeros(self.n_flat, dtype=bool)
        for g in self.groups:
            if g.indices.size == 0:
                raise InvariantError(f"group {g.gid} is empty")
            if g.indices.min() < 0 or g.indices.max() >= self.n_flat:
                raise InvariantError(f"group {g.gid} indexes outside the flat view")
            if seen[g.indices].any():
                raise InvariantError(f"group {g.gid} overlaps an earlier group")
            seen[g.indices] = True
        if require_cover and not seen.all():
            missing = int((~seen).sum())
            raise InvariantError(f"{missing} trainable scalars belong to no group")

    # -- queries -------------------------------------------------------------

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_penalized(self) -> int:
        return int(self.pen_gids.size)

    def pen_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-penalized-group sums of `values`, given in the ``x[pen_perm]`` layout."""
        if self.pen_perm.size == 0:
            return np.empty(0, dtype=values.dtype)
        return np.add.reduceat(values, self.pen_starts)

    def pen_sqnorms(self, x: np.ndarray) -> np.ndarray:
        """Per-penalized-group sum of squares, accumulated in float64; == 0.0 is the zero test."""
        gathered = x[self.pen_perm].astype(np.float64)
        return self.pen_sum(gathered * gathered)

    def zero_groups_inplace(self, x: np.ndarray, gids) -> None:
        for gid in gids:
            x[self.groups[gid].indices] = 0.0

    def groups_of_layer(self, layer_index: int) -> list[Group]:
        return [g for g in self.groups if g.layer_index == layer_index]

    # -- export ----------------------------------------------------------------

    def export_text(self) -> str:
        lines = []
        for g in self.groups:
            spans = ",".join(f"{aid}:{start}-{stop}" for aid, start, stop in g.members)
            flag = "penalized" if g.penalized else "free"
            lines.append(f"g{g.gid}\t{g.tag}\t{flag}\t{spans}")
        return "\n".join(lines) + "\n"

    # -- builders ---------------------------------------------------------------

    @classmethod
    def from_indices(cls, n_flat: int, index_lists, penalized=None) -> "GroupPartition":
        """Build a hand-made partition (used by synthetic problems and tests)."""
        if penalized is None:
            penalized = [True] * len(index_lists)
        groups = []
        for gid, (idx, pen) in enumerate(zip(index_lists, penalized)):
            idx = np.asarray(idx, dtype=np.int64)
            ordered = np.unique(idx)  # one span per run of consecutive indices
            runs = np.split(ordered, np.flatnonzero(np.diff(ordered) != 1) + 1)
            spans = [("flat", int(r[0]), int(r[-1]) + 1) for r in runs if r.size]
            groups.append(
                Group(
                    gid=gid,
                    layer_index=-1,
                    tag=f"L-1:custom:{gid}",
                    out_index=None,
                    members=spans,
                    indices=idx,
                    penalized=bool(pen),
                )
            )
        return cls(groups, n_flat)


# ---------------------------------------------------------------------------
# group regularizer


@dataclass
class SparsityMetrics:
    group_sparsity: float
    zero_groups: int
    nonzero_groups: int
    group_norm: float  # r(x), the sum of penalized group norms


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
    """Fraction / counts of penalized groups whose entries are all exactly zero, and r(x)."""
    sq = partition.pen_sqnorms(x)
    n_zero, total = int((sq == 0.0).sum()), int(sq.size)
    return SparsityMetrics(
        n_zero / total if total else 0.0, n_zero, total - n_zero, float(np.sqrt(sq).sum())
    )


def _spans_to_indices(offsets, members) -> np.ndarray:
    parts = []
    for array_id, start, stop in members:
        base = offsets[array_id][0]
        parts.append(np.arange(base + start, base + stop, dtype=np.int64))
    return np.concatenate(parts)


def partition_zig(model: ModelGraph, penalize_output: bool = False) -> GroupPartition:
    """Group the model's trainable parameters into zero-invariant groups.

    With `penalize_output` left False, the groups of the last parameterized
    layer are marked unpenalized.
    """
    offsets = model.param_offsets()
    units_of = []
    for i, layer in enumerate(model.layers):
        if not hasattr(layer, "units"):
            raise UnsupportedStructureError(
                f"layer {i}: no zero-invariant grouping rule for {type(layer).__name__}"
            )
        units_of.append(layer.units())
    param_layers = [i for i, units in enumerate(units_of) if units]
    last_param_layer = param_layers[-1] if param_layers else None

    groups: list[Group] = []
    for i, (layer, units) in enumerate(zip(model.layers, units_of)):
        penal = penalize_output or i != last_param_layer
        for out_index, (label, spans) in enumerate(units):
            members = [(f"L{i}.{name}", start, stop) for name, start, stop in spans]
            groups.append(
                Group(
                    gid=len(groups),
                    layer_index=i,
                    tag=f"L{i}:{layer.layer_kind}:{label}",
                    out_index=out_index,
                    members=members,
                    indices=_spans_to_indices(offsets, members),
                    penalized=penal,
                )
            )
    return GroupPartition(groups, model.n_flat, require_cover=True)


def verify_zero_invariance(
    model: ModelGraph, partition: GroupPartition, trials: int = 100, seed: int = 0
) -> float:
    """Empirically certify the partition: returns the max deviation observed.

    Each trial randomizes parameters, BN statistics and inputs, zeroes a
    random subset of groups and measures the designated output slice of each
    zeroed group right after its layer (the summed channel for residual
    groups). The result should be exactly 0.0. A hand-laid group (see
    `GroupPartition.from_indices`) names no layer output, so it raises.
    """
    for g in partition.groups:
        if g.out_index is None:
            raise UnsupportedStructureError(f"group {g.gid} ({g.tag}) names no layer output")
    work = model.clone()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        for t in work.params.values():
            t.data[...] = rng.standard_normal(t.shape).astype(np.float32)
        for key, t in work.constants.items():
            if key.endswith("std"):
                t.data[...] = rng.uniform(0.5, 2.0, size=t.shape).astype(np.float32)
            else:
                t.data[...] = rng.standard_normal(t.shape).astype(np.float32)
        chosen = [g.gid for g in partition.groups if rng.random() < 0.3]
        x = work.get_flat()
        partition.zero_groups_inplace(x, chosen)
        work.set_flat(x)
        inputs = rng.standard_normal((2, *work.input_shape)).astype(np.float32)
        outs = work.layer_outputs(inputs)
        for gid in chosen:
            g = partition.groups[gid]
            sliced = outs[g.layer_index][:, g.out_index]
            dev = float(np.abs(sliced).max()) if sliced.size else 0.0
            worst = float(np.maximum(worst, dev))  # not max(): a NaN deviation must reach the result
    return worst
