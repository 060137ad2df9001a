"""Span tracing of the zigprune modules from outside the package.

`Tracer.install` replaces public functions with timing wrappers in every
namespace that looks them up at call time (`cli` and `hspg` import
functions by name, so `zigprune.cli.train` and `zigprune.hspg.subgradient`
are patched rather than the defining modules only). Each call records one
span `(label, start, end, parent, run)` in memory; `uninstall` restores the
originals. `per_layer_metrics` turns the spans of one traced pipeline run
into the per-module metrics; a layer's self time is its duration minus the
time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import zigprune.cli
import zigprune.config
import zigprune.data
import zigprune.hspg
import zigprune.layers
import zigprune.model

ACTIVATION_KINDS = ("relu", "leaky_relu", "prelu", "gelu")

# metric name -> (unit, span label, statistic); statistic is "ms" (total
# duration), "self_ms" (duration minus child spans) or "calls"
SPAN_METRICS = {
    "layers.linear.fwd_ms": ("ms", "layers.linear.fwd", "ms"),
    "layers.linear.bwd_ms": ("ms", "layers.linear.bwd", "ms"),
    "layers.conv_bn.fwd_ms": ("ms", "layers.conv_bn.fwd", "ms"),
    "layers.conv_bn.bwd_ms": ("ms", "layers.conv_bn.bwd", "ms"),
    "layers.attention.fwd_ms": ("ms", "layers.attention.fwd", "ms"),
    "layers.attention.bwd_ms": ("ms", "layers.attention.bwd", "ms"),
    "layers.residual.fwd_self_ms": ("ms", "layers.residual.fwd", "self_ms"),
    "layers.residual.bwd_self_ms": ("ms", "layers.residual.bwd", "self_ms"),
    **{
        f"layers.activation.{kind}.{d}_ms": ("ms", f"layers.activation.{kind}.{d}", "ms")
        for kind in ACTIVATION_KINDS
        for d in ("fwd", "bwd")
    },
    "layers.loss.softmax_ce.ms": ("ms", "layers.loss.softmax_ce", "ms"),
    "model.forward_train.self_ms": ("ms", "model.forward_train", "self_ms"),
    "model.forward_eval.self_ms": ("ms", "model.forward_eval", "self_ms"),
    "model.backward.self_ms": ("ms", "model.backward", "self_ms"),
    "model.set_flat.ms": ("ms", "model.set_flat", "ms"),
    "model.get_flat_grad.ms": ("ms", "model.get_flat_grad", "ms"),
    "hspg.train.ms": ("ms", "hspg.train", "ms"),
    "hspg.hspg_step.ms": ("ms", "hspg.hspg_step", "ms"),
    "hspg.prox_sg_step.self_ms": ("ms", "hspg.prox_sg_step", "self_ms"),
    "regularizer.subgradient.ms": ("ms", "regularizer.subgradient", "ms"),
    "regularizer.group_prox.ms": ("ms", "regularizer.group_prox", "ms"),
    "regularizer.sparsity_metrics.ms": ("ms", "regularizer.sparsity_metrics", "ms"),
    "zig.partition_zig.calls": ("count", "zig.partition_zig", "calls"),
    "zig.partition_zig.ms": ("ms", "zig.partition_zig", "ms"),
    "config.build_model.calls": ("count", "config.build_model", "calls"),
    "config.build_model.ms": ("ms", "config.build_model", "ms"),
    "config.build_dataset.calls": ("count", "config.build_dataset", "calls"),
    "config.build_dataset.ms": ("ms", "config.build_dataset", "ms"),
    **{
        f"cli.stage_{stage}.ms": ("ms", f"cli.stage_{stage}", "ms")
        for stage in ("partition", "train", "prune", "verify", "flops")
    },
    "prune.prune.ms": ("ms", "prune.prune", "ms"),
    "prune.equivalence_check.ms": ("ms", "prune.equivalence_check", "ms"),
    "data.load_idx.ms": ("ms", "data.load_idx", "ms"),
    "data.classification_accuracy.ms": ("ms", "data.classification_accuracy", "ms"),
    "tensor.save_arrays.ms": ("ms", "tensor.save_arrays", "ms"),
    "tensor.load_arrays.ms": ("ms", "tensor.load_arrays", "ms"),
}

# metrics counted by the wrappers and the step callback rather than read off spans
COUNTER_METRICS = {
    "model.forward.calls": "count",
    "model.forward_eval.peak_mb": "MB",  # tracemalloc peak of one evaluation forward
    "hspg.steps": "count",
    "hspg.zeroed_groups": "count",  # projection events reported through info["zeroed"]
    "layers.conv_bn.gmacs_per_s": "GMAC/s",  # computed: GEMM MACs from shapes / conv time
    "layers.conv_bn.im2col_mb": "MB",  # computed: largest im2col buffer from shapes
    "tensor.bytes_written": "bytes",
}

OVERHEAD_METRICS = {
    "trace.pipeline_s": "s",  # median traced pipeline wall time
    "trace.overhead_s": "s",  # traced minus untraced median, same process
}

PER_LAYER_UNITS = {
    **{name: spec[0] for name, spec in SPAN_METRICS.items()},
    **COUNTER_METRICS,
    **OVERHEAD_METRICS,
}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list = []  # (label, start, end, parent index, run id)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.run_id = -1
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._train_batch = None  # batch size while hspg.train runs

    # -- span recording ------------------------------------------------------

    def wrap(self, fn, label, before=None, after=None):
        """Wrap fn so each call records a span; label may be a function of the call args."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(*args, **kwargs) if callable(label) else label
            if before is not None:
                before(name, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if after is not None:
                after(name, args, kwargs, result)
            return result

        return traced

    def _patch(self, owners, attr, label, before=None, after=None):
        original = getattr(owners[0], attr)
        wrapped = self.wrap(original, label, before, after)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the function it should patch")
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def _count(self, key, value=1.0):
        self.counters[self.run_id][key] += value

    def _peak(self, key, value):
        c = self.counters[self.run_id]
        c[key] = max(c[key], value)

    # -- what gets patched ---------------------------------------------------

    def install(self):
        cli, cfg, data, hspg, layers = (
            zigprune.cli, zigprune.config, zigprune.data, zigprune.hspg, zigprune.layers
        )
        graph = zigprune.model.ModelGraph

        for stage in ("partition", "train", "prune", "verify", "flops"):
            self._patch([cli], f"stage_{stage}", f"cli.stage_{stage}")
        self._patch([cli, cfg], "build_model", "config.build_model")
        self._patch([cli], "build_dataset", "config.build_dataset")
        self._patch([cli], "partition_zig", "zig.partition_zig")
        self._patch([cli], "prune", "prune.prune")
        self._patch([cli], "equivalence_check", "prune.equivalence_check")
        self._patch([cli], "classification_accuracy", "data.classification_accuracy")
        self._patch([data], "load_idx", "data.load_idx")
        self._patch([zigprune.model], "load_arrays", "tensor.load_arrays")
        self._patch(
            [zigprune.model], "save_arrays", "tensor.save_arrays",
            after=lambda n, a, k, r: self._count("tensor.bytes_written", os.path.getsize(a[0])),
        )

        def enter_train(name, args, kwargs):
            self._train_batch = args[3].batch_size

        def leave_train(name, args, kwargs, result):
            self._train_batch = None

        self._patch([cli], "train", "hspg.train", before=enter_train, after=leave_train)
        self._patch([hspg], "hspg_step", "hspg.hspg_step")
        self._patch([hspg], "prox_sg_step", "hspg.prox_sg_step")
        self._patch([hspg], "subgradient", "regularizer.subgradient")
        self._patch([hspg], "group_prox", "regularizer.group_prox")
        self._patch([hspg, cli], "sparsity_metrics", "regularizer.sparsity_metrics")

        self._patch_forward(graph)
        self._patch([graph], "backward", "model.backward")
        self._patch([graph], "set_flat", "model.set_flat")
        self._patch([graph], "get_flat_grad", "model.get_flat_grad")

        for kind in ("linear", "attention"):
            self._patch([layers], f"{kind}_forward", f"layers.{kind}.fwd")
            self._patch([layers], f"{kind}_backward", f"layers.{kind}.bwd")
        self._patch([layers], "residual_forward", "layers.residual.fwd")
        self._patch([layers], "residual_backward", "layers.residual.bwd")
        self._patch([layers], "conv_bn_forward", "layers.conv_bn.fwd", before=self._conv_shapes)
        self._patch([layers], "conv_bn_backward", "layers.conv_bn.bwd", before=self._conv_shapes)
        self._patch(
            [layers], "activation_forward", lambda x, layer: f"layers.activation.{layer.kind}.fwd"
        )
        self._patch(
            [layers], "activation_backward",
            lambda dout, layer, cache: f"layers.activation.{layer.kind}.bwd",
        )
        self._patch([layers], "loss_forward", lambda out, targets, kind: f"layers.loss.{kind}")

    def _patch_forward(self, graph):
        """model.forward splits into mini-batch steps inside train() and evaluations.

        A forward counts as a training step when it runs inside train() on at
        most one batch of samples; every other forward (the per-epoch
        full-data loss, accuracy, the equivalence check) is an evaluation,
        whose tracemalloc peak is recorded.
        """
        original = graph.forward

        def label(model, inputs, targets=None):
            if self._train_batch is not None and len(inputs) <= self._train_batch:
                return "model.forward_train"
            return "model.forward_eval"

        timed = self.wrap(original, label)

        @functools.wraps(original)
        def forward(model, inputs, targets=None):
            self._count("model.forward.calls")
            if label(model, inputs, targets) == "model.forward_train":
                return timed(model, inputs, targets)
            tracemalloc.start()
            try:
                return timed(model, inputs, targets)
            finally:
                self._peak("model.forward_eval.peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()

        self._patches.append((graph, "forward", original))
        graph.forward = forward

    def _conv_shapes(self, name, args, kwargs):
        """GEMM MACs and im2col size of a conv call, computed from its shapes."""
        layer = args[1]
        if name == "layers.conv_bn.fwd":
            x = args[0]
            batch, itemsize = x.shape[0], x.itemsize
            oh, ow = zigprune.layers.conv_output_hw(x.shape[2], x.shape[3], layer)
            cols = batch * oh * ow * layer.kernel.data.shape[1]
            self._peak("layers.conv_bn.im2col_mb", cols * itemsize / 2**20)
            self._count("conv_macs", cols * layer.out_channels)
        else:  # backward: the kernel-gradient and input-gradient GEMMs
            cols = args[2][1]
            self._count("conv_macs", 2 * cols.size * layer.out_channels)

    def on_step(self, state, info):
        """train() callback: step count and groups zeroed by projection."""
        self._count("hspg.steps")
        self._count("hspg.zeroed_groups", len(info["zeroed"]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.run_id = -1  # step callbacks of untraced runs count nowhere
        self._train_batch = None

    # -- aggregation ---------------------------------------------------------

    def per_layer_metrics(self, run_id: int) -> dict[str, float]:
        """Per-module totals of one traced pipeline run."""
        # spans of one run are contiguous: run_id only changes between runs
        ids = [i for i, s in enumerate(self.spans) if s[4] == run_id]
        first = ids[0]
        runs = self.spans[first : ids[-1] + 1]
        child = defaultdict(float)
        for label, start, end, parent, _ in runs:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for offset, (label, start, end, _, _) in enumerate(runs):
            total[label] += end - start
            self_time[label] += end - start - child[first + offset]
            calls[label] += 1
        out = {}
        for name, (_, label, stat) in SPAN_METRICS.items():
            if stat == "calls":
                out[name] = calls[label]
            else:
                out[name] = 1e3 * (self_time if stat == "self_ms" else total)[label]
        counters = self.counters[run_id]
        conv_s = total["layers.conv_bn.fwd"] + total["layers.conv_bn.bwd"]
        for name in COUNTER_METRICS:
            out[name] = counters[name]
        out["layers.conv_bn.gmacs_per_s"] = counters["conv_macs"] / conv_s / 1e9 if conv_s else 0.0
        return out

    def span_arrays(self) -> dict[str, np.ndarray]:
        """All spans as arrays (label index into `labels`), for writing to disk."""
        labels = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(labels)}
        return {
            "labels": np.array(labels),
            "label": np.array([index[s[0]] for s in self.spans], dtype=np.int32),
            "start": np.array([s[1] for s in self.spans], dtype=np.float64),
            "end": np.array([s[2] for s in self.spans], dtype=np.float64),
            "parent": np.array([s[3] for s in self.spans], dtype=np.int64),
            "run": np.array([s[4] for s in self.spans], dtype=np.int32),
        }
