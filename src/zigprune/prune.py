"""One-shot pruning: drop zero groups and the matching downstream input slices.

Removing a group deletes its layer's output unit (conv channel / weight row /
attention head row) together with the columns or input channels of the next
parameterized layer that consumed that unit. Because the groups are
zero-invariant, the slim model computes the same outputs as the full model
parameterized with the zeroed solution, up to float re-association.

Pruning removes exactly the penalized groups whose entries are all zero in
the model's parameters; to prune a live group (a negative control), zero it
on a `clone()` first. The report is the whole prune record: with `slim.ckpt`
its slim-layer DSL strings rebuild the slim model; verify adds `max_deviation`.

FLOPs are counted as one per multiply-accumulate, per sample, as the sum of
each layer's `macs`: linear m*n; conv m*(c*kh*kw)*oh*ow plus m*oh*ow for the
BN scale; a residual block both branches; attention sum of m_h*n per head.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .config import model_to_specs
from .errors import DegenerateLayerError, FormatError, StructuralError
from .model import EVAL_CHUNK, ModelGraph
from .zig import GroupPartition


@dataclass
class PruneReport:
    zero_groups: list[int]
    retained_groups: list[int]
    layer_maps: list[dict]
    params_before: int
    params_after: int
    bn_stats_before: int
    bn_stats_after: int
    flops_before: int
    flops_after: int
    slim_layers: list[str]
    input_shape: list[int]
    max_deviation: float | None = None  # verify fills it in

    def to_jsonl(self) -> str:
        """Strict JSON lines: a non-finite deviation is written "nan", "inf" or "-inf"."""
        summary = {f.name: getattr(self, f.name) for f in _SUMMARY_FIELDS}
        if self.max_deviation is not None and not math.isfinite(self.max_deviation):
            summary["max_deviation"] = str(self.max_deviation)
        lines = [json.dumps({"type": "summary", **summary}, sort_keys=True)]
        for entry in self.layer_maps:
            lines.append(json.dumps({"type": "layer", **entry}, sort_keys=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "PruneReport":
        """Read `to_jsonl`'s text; raises FormatError saying what is missing or malformed."""
        try:
            lines = [json.loads(line) for line in text.splitlines() if line.strip()]
        except json.JSONDecodeError as exc:
            raise FormatError(f"prune report is not JSON lines: {exc}") from exc
        if not all(isinstance(obj, dict) for obj in lines):
            raise FormatError("prune report has a line that is not a JSON object")
        summary = next((obj for obj in lines if obj.get("type") == "summary"), {})
        lacks = [f.name for f in _SUMMARY_FIELDS if f.default is MISSING and f.name not in summary]
        if lacks:
            raise FormatError(f"prune report summary lacks {', '.join(lacks)}")
        for f in _SUMMARY_FIELDS:
            value = summary.get(f.name)
            test, what = _JSON_TYPES[f.type.removesuffix(" | None")]
            if not ((value is None and f.default is None) or test(value)):
                raise FormatError(f"prune report summary field {f.name} must be {what}")
        if isinstance(summary.get("max_deviation"), str):
            summary["max_deviation"] = float(summary["max_deviation"])
        layers = [obj for obj in lines if obj.get("type") == "layer"]
        layer_maps = [{k: v for k, v in obj.items() if k != "type"} for obj in layers]
        summary = {f.name: summary.get(f.name, f.default) for f in _SUMMARY_FIELDS}
        return cls(layer_maps=layer_maps, **summary)


# the summary line of report.jsonl holds every field but the per-layer maps
_SUMMARY_FIELDS = [f for f in fields(PruneReport) if f.name != "layer_maps"]

# a summary field's annotation -> (test of its JSON value, what the value must be);
# `type(v) is int` refuses JSON's true and false, and a number may also be one of
# the strings `to_jsonl` writes for a non-finite one
_JSON_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (lambda v: type(v) in (int, float) or v in ("nan", "inf", "-inf"), "a number"),
    "list[int]": (lambda v: type(v) is list and {*map(type, v)} <= {int}, "a list of integers"),
    "list[str]": (lambda v: type(v) is list and {*map(type, v)} <= {str}, "a list of strings"),
}


# ---------------------------------------------------------------------------
# counters


def count_params(model: ModelGraph) -> tuple[int, int]:
    """(trainable scalar count, stored BN statistic count)."""
    trainable = sum(t.size for t in model.params.values())
    stats = sum(t.size for t in model.constants.values())
    return trainable, stats


def count_flops_params(model: ModelGraph) -> tuple[int, int]:
    """(per-sample multiply-accumulates, trainable parameter count)."""
    flops = sum(layer.macs(shape) for layer, shape in zip(model.layers, model.shapes))
    return flops, count_params(model)[0]


# ---------------------------------------------------------------------------
# surgery


def prune(
    model: ModelGraph, partition: GroupPartition, keep_one: bool = False
) -> tuple[ModelGraph, PruneReport]:
    """Build the slim model implied by the model's exactly-zero penalized groups.

    When every group of a layer is zero the default is to fail; `keep_one`
    retains the layer's first group instead, all zeros like the rest.
    """
    zero = np.zeros(partition.n_groups, dtype=bool)  # indexed by group id
    zero[partition.pen_gids] = partition.pen_sqnorms(model.get_flat()) == 0.0

    layers = []
    layer_maps = []
    # kept indices along the unit axis of the value entering each layer: channels
    # of a (C, H, W) value, features of a flat one
    kept_in = list(range(model.input_shape[0]))
    for i, (layer, in_shape) in enumerate(zip(model.layers, model.in_shapes)):
        layer_groups = partition.groups_of_layer(i)
        kept = [g for g in layer_groups if not zero[g.gid]]
        if layer_groups and not kept:
            if not keep_one:
                raise DegenerateLayerError(
                    f"layer {i}: every group is zero, slim width would be 0 "
                    "(set prune.keep_one = true, or pass keep_one=True, to keep its first group)"
                )
            kept = layer_groups[:1]
            zero[kept[0].gid] = False
        if layer.flattens and len(in_shape) == 3:
            block = in_shape[1] * in_shape[2]
            kept_in = [c * block + j for c in kept_in for j in range(block)]
        width = len(layer.units())
        if width:
            kept_out = [g.out_index for g in kept] if layer_groups else list(range(width))
            entry = {"kept": kept_out, "width_before": width, "width_after": len(kept_out)}
        else:  # parameter-free kinds keep the unit axis as it is
            kept_out = kept_in
            entry = {"kept": None}
        layers.append(layer.slim(kept_in, kept_out))
        layer_maps.append({"layer": i, "kind": layer.layer_kind, **entry})
        kept_in = kept_out

    slim = ModelGraph(layers, model.input_shape)
    params_before, stats_before = count_params(model)
    params_after, stats_after = count_params(slim)
    report = PruneReport(
        zero_groups=np.flatnonzero(zero).tolist(),
        retained_groups=np.flatnonzero(~zero).tolist(),
        layer_maps=layer_maps,
        params_before=params_before,
        params_after=params_after,
        bn_stats_before=stats_before,
        bn_stats_after=stats_after,
        flops_before=count_flops_params(model)[0],
        flops_after=count_flops_params(slim)[0],
        slim_layers=model_to_specs(slim),
        input_shape=list(model.input_shape),
    )
    return slim, report


def equivalence_check(full: ModelGraph, slim: ModelGraph, n_inputs: int, seed: int = 0) -> float:
    """Max absolute output gap between the two models over seeded random inputs.

    The models' input and output sample shapes are compared before any input
    is drawn. The inputs are drawn `EVAL_CHUNK` at a time from one generator,
    which yields the same values as a single draw of all of them, and each
    chunk is released before the next is drawn, so memory stays bounded by
    the chunk however many inputs are checked.
    """
    for what, a, b in [("input", full.input_shape, slim.input_shape),
                       ("output", full.in_shapes[-1], slim.in_shapes[-1])]:
        if a != b:
            raise StructuralError(f"{what} shapes differ: {a} vs {b}")
    rng = np.random.default_rng(seed)
    gaps = []
    for start in range(0, n_inputs, EVAL_CHUNK):
        x = rng.standard_normal((min(EVAL_CHUNK, n_inputs - start), *full.input_shape))
        x = x.astype(np.float32)
        gap = full.predict(x).astype(np.float64) - slim.predict(x).astype(np.float64)
        gaps.append(np.max(np.abs(gap), initial=0.0))  # initial: an output may be empty
    return float(np.max(gaps, initial=0.0))  # np.max, not max: a NaN gap reaches the result
