"""Partition trainable parameters into zero-invariant groups.

A group collects every parameter scalar that controls one output unit of a
layer, so that writing zeros over the whole group forces that unit's output
to be exactly zero for any input. The grouping rules live in each layer
kind's `units()` (see `layers`); this module only numbers the groups and
maps their spans into the flat parameter view. The rules are:

  * conv+bn channel c: kernel row c, bias[c], gamma[c], beta[c]
    (bn mean/std stay out: with gamma = beta = 0 they cannot shift the
    channel away from zero)
  * residual block channel c: the conv+bn members of channel c in *both*
    branches, so the summed channel is zero
  * linear row i: weight row i and bias[i]
  * attention head h row i: head weight row i and head bias[i]

Groups of the last parameterized layer default to unpenalized: they stay
grouped but the optimizer never drives them to zero, so the model keeps its
output width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, UnsupportedStructureError
from .model import ModelGraph


@dataclass
class Group:
    gid: int
    layer_index: int
    kind: str  # convbn | residual | linear | mha | custom
    unit: int  # output channel / row within the layer (or head-local row for mha)
    out_index: int | None  # position in the layer output along the unit axis
    head: int | None
    members: list[tuple[str, int, int]]  # (array id, start, stop) spans, array-local
    indices: np.ndarray  # positions in the model's flat parameter view
    penalized: bool

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def tag(self) -> str:
        if self.head is not None:
            return f"L{self.layer_index}:{self.kind}:h{self.head}.{self.unit}"
        return f"L{self.layer_index}:{self.kind}:{self.unit}"


class GroupPartition:
    """Disjoint parameter groups with precomputed gather indices.

    Vectorized per-group reductions run over the penalized groups via a
    single permutation + reduceat pass; that keeps the optimizer loop free
    of per-group Python overhead. `pen_sum` reduces values in the gathered
    layout ``x[pen_perm]`` to one per group; ``np.repeat(v, pen_sizes)``
    spreads one value per group back over its entries. `free_perm` lists
    the positions outside every penalized group.
    """

    def __init__(self, groups: list[Group], n_flat: int, require_cover: bool = False):
        self.groups = list(groups)
        self.n_flat = int(n_flat)
        self._validate(require_cover)
        pen = [g for g in self.groups if g.penalized]
        self.pen_gids = np.array([g.gid for g in pen], dtype=np.int64)
        if pen:
            self.pen_perm = np.concatenate([g.indices for g in pen])
            self.pen_sizes = np.array([g.size for g in pen], dtype=np.int64)
            self.pen_starts = np.concatenate(([0], np.cumsum(self.pen_sizes)[:-1]))
        else:
            self.pen_perm = np.empty(0, dtype=np.int64)
            self.pen_sizes = np.empty(0, dtype=np.int64)
            self.pen_starts = np.empty(0, dtype=np.int64)
        free = np.ones(self.n_flat, dtype=bool)
        free[self.pen_perm] = False
        self.free_perm = np.flatnonzero(free)

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

    def group_values(self, x: np.ndarray, gid: int) -> np.ndarray:
        return x[self.groups[gid].indices]

    def pen_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-penalized-group sums of `values`, given in the ``x[pen_perm]`` layout."""
        if self.pen_perm.size == 0:
            return np.empty(0, dtype=values.dtype)
        return np.add.reduceat(values, self.pen_starts)

    def pen_sqnorms(self, x: np.ndarray) -> np.ndarray:
        """Per-penalized-group sum of squares, accumulated in float64."""
        gathered = x[self.pen_perm].astype(np.float64)
        return self.pen_sum(gathered * gathered)

    def pen_dots(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-penalized-group inner products <x_g, y_g> in float64."""
        return self.pen_sum(x[self.pen_perm].astype(np.float64) * y[self.pen_perm].astype(np.float64))

    def pen_nonzero_counts(self, x: np.ndarray) -> np.ndarray:
        """Per-penalized-group count of entries that are not exactly 0.0."""
        return self.pen_sum((x[self.pen_perm] != 0.0).astype(np.int64))

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
            lines.append(f"g{g.gid}\t{g.tag()}\t{flag}\t{spans}")
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
            spans = [("flat", int(idx.min()), int(idx.max()) + 1)] if idx.size else []
            groups.append(
                Group(
                    gid=gid,
                    layer_index=-1,
                    kind="custom",
                    unit=gid,
                    out_index=None,
                    head=None,
                    members=spans,
                    indices=idx,
                    penalized=bool(pen),
                )
            )
        return cls(groups, n_flat)


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
        for out_index, (head, row, spans) in enumerate(units):
            members = [(f"L{i}.{name}", start, stop) for name, start, stop in spans]
            groups.append(
                Group(
                    gid=len(groups),
                    layer_index=i,
                    kind=layer.layer_kind,
                    unit=row,
                    out_index=out_index,
                    head=head,
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
    groups). The result should be exactly 0.0.
    """
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
        work.forward(inputs)
        outs = work.layer_outputs()
        for gid in chosen:
            g = partition.groups[gid]
            sliced = outs[g.layer_index][:, g.out_index]
            dev = float(np.abs(sliced).max()) if sliced.size else 0.0
            worst = max(worst, dev)
    return worst
