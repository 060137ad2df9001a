"""Ordered-layer model: validation, forward/backward, flat parameter view.

A model is an ordered list of layer specs plus a sample input shape. Values
flow through the layers in order; residual blocks sum their two branch
outputs; a trailing ``Loss`` layer turns targets into a scalar objective.
A value with spatial structure is flattened (batch, -1) before it enters a
layer whose kind `flattens` (linear, attention, loss). Every per-kind rule
is a method of the layer class (see `layers`).

`forward` records what `backward` and the finite-difference check read: one
cache per layer and the loss gradient, computed after the layer loop, which
knows nothing of losses; `in_shapes` holds each layer's input sample shape.
`layer_outputs` returns every layer's output and records nothing; the
zero-invariance checker reads it. `predict` runs the same layer loop over
chunks of samples and records nothing; every evaluation (the per-epoch
full-data loss, accuracy, the equivalence check) uses it, so its memory is
bounded by the chunk, not by the dataset. The chunk is `EVAL_CHUNK` samples,
fewer where a conv layer's float64 patches would pass `PATCH_BYTES` (see
`eval_chunk`).

Parameter arrays live in a registry keyed by stable ids (``L3.kernel``,
``L5.b1.gamma``, ``L7.h0.weight``); the flattened view used by the
optimizers concatenates the trainable arrays in registry order. BN mean/std
are stored constants and are not part of the flat view.

Buffer ownership: the graph holds one float32 parameter buffer and one
gradient buffer in flat-view order, and every trainable tensor's `data` and
`grad` is a view into them, so `get_flat`, `set_flat` and `get_flat_grad`
are one copy each and `backward` writes each gradient once, into its view.
A layer list belongs to the one graph built over it: building a second graph
over the same layers raises `InvalidModelError` rather than leave the first
graph's buffer out of step with its layers; `clone` gives a copy with its
own buffers.
"""

from __future__ import annotations

import copy

import numpy as np

from . import layers as L
from .errors import InvalidModelError, ParameterError, ShapeError, StateError
from .tensor import Tensor, as_array, load_arrays, save_arrays

EVAL_CHUNK = 256  # the most samples per predict() chunk
PATCH_BYTES = 1 << 20  # float64 conv patches one float32 predict() chunk may hold


def _flat_size(shape) -> int:
    return int(np.prod(shape, dtype=np.int64))


def infer_shapes(layer_list, input_shape) -> list[tuple]:
    """Per-layer output sample shapes; raises if adjacent layers disagree."""
    shape = tuple(int(s) for s in input_shape)
    shapes = []
    for i, layer in enumerate(layer_list):
        if not hasattr(layer, "out_shape"):
            raise InvalidModelError(f"layer {i}: unknown layer kind {type(layer).__name__}")
        if isinstance(layer, L.Loss) and i != len(layer_list) - 1:
            raise InvalidModelError(f"layer {i}: loss layer must be last")
        if layer.flattens and len(shape) > 1:
            shape = (_flat_size(shape),)
        try:
            shape = layer.out_shape(shape)
        except InvalidModelError as exc:
            raise InvalidModelError(f"layer {i}: {exc}") from exc
        shapes.append(shape)
    return shapes


class ModelGraph:
    def __init__(self, layer_list, input_shape):
        self.layers = list(layer_list)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.shapes = infer_shapes(self.layers, self.input_shape)
        self.in_shapes = (self.input_shape, *self.shapes)  # each layer's input sample shape
        per_sample = max(
            (layer.patch_bytes(shape) for layer, shape in zip(self.layers, self.shapes)), default=0
        )
        # samples per float32 predict() chunk; a sample whose patches alone pass
        # PATCH_BYTES still runs, one at a time
        self.eval_chunk = max(1, min(EVAL_CHUNK, PATCH_BYTES // max(per_sample, 1)))
        self.params: dict[str, Tensor] = {}
        self.constants: dict[str, Tensor] = {}
        # per layer, parameter name -> (id, tensor): backward writes through the grad views
        self._grad_slots = [{} for _ in self.layers]
        for i, layer in enumerate(self.layers):
            for name, tensor, trainable in layer.params():
                key = f"L{i}.{name}"
                if not trainable:
                    self.constants[key] = tensor
                elif tensor.grad is not None or any(t is tensor for t in self.params.values()):
                    raise InvalidModelError(
                        f"parameter {key} already belongs to a model; build each model over "
                        f"its own layers (clone() copies a model)"
                    )
                else:
                    self.params[key] = tensor
                    self._grad_slots[i][name] = (key, tensor)
        # backward stops at the first layer with parameters
        self._first_param = next((i for i, s in enumerate(self._grad_slots) if s), len(self.layers))
        self.n_flat = sum(t.size for t in self.params.values())
        self._flat = np.empty(self.n_flat, dtype=np.float32)
        self._flat_grad = np.zeros(self.n_flat, dtype=np.float32)
        self._offsets: dict[str, tuple[int, int]] = {}
        pos = 0
        for key, tensor in self.params.items():
            start, pos = pos, pos + tensor.size
            shape = tensor.shape
            self._offsets[key] = (start, pos)
            self._flat[start:pos] = tensor.data.ravel()
            tensor.data = self._flat[start:pos].reshape(shape)
            tensor.grad = self._flat_grad[start:pos].reshape(shape)
        self._tape = self._dloss = None

    # -- structure ---------------------------------------------------------

    @property
    def loss_kind(self) -> str | None:
        if self.layers and isinstance(self.layers[-1], L.Loss):
            return self.layers[-1].kind
        return None

    def param_offsets(self) -> dict[str, tuple[int, int]]:
        return dict(self._offsets)

    def clone(self) -> "ModelGraph":
        """A copy with its own parameters, constants and layers, and no forward record."""
        # the copied layers take fresh tensors over this graph's parameter
        # views; the new graph copies their values into its own buffer
        fresh = {id(t): Tensor(t.data) for t in self.params.values()}
        return ModelGraph(copy.deepcopy(self.layers, fresh), self.input_shape)

    # -- flat parameter view -------------------------------------------------

    def get_flat(self) -> np.ndarray:
        return self._flat.copy()

    def set_flat(self, x: np.ndarray):
        if x.shape != (self.n_flat,):
            raise ShapeError(f"flat view has {self.n_flat} entries, got {x.shape}")
        self._flat[...] = x

    def get_flat_grad(self) -> np.ndarray:
        return self._flat_grad.copy()

    # -- execution -----------------------------------------------------------

    def _input(self, inputs) -> np.ndarray:
        x = as_array(inputs)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"input sample shape {x.shape[1:]} does not match model input "
                f"{self.input_shape}"
            )
        return x

    def _run(self, x, tape=None, outputs=None):
        """The layer loop; returns the output.

        Appends each layer's cache to `tape` and its output to `outputs` when
        given; without a tape every cache is dropped as soon as its layer has
        run.
        """
        for i, layer in enumerate(self.layers):
            if layer.flattens and x.ndim > 2:
                x = x.reshape(x.shape[0], _flat_size(x.shape[1:]))
            try:
                x, cache = layer.forward(x)
            except (ShapeError, ParameterError) as exc:
                raise type(exc)(f"layer {i}: {exc}") from exc
            if tape is not None:
                tape.append(cache)
            if outputs is not None:
                outputs.append(x)
            cache = None  # without a tape, free the record before the next layer runs
        return x

    def forward(self, inputs, targets=None):
        """Run the layers in order; returns (output, loss-or-None).

        Records one cache per layer and, given targets, the loss gradient,
        which backward() reads. The previous pass's record is dropped first,
        so a pass that raises leaves none behind.
        """
        self._tape = self._dloss = None
        tape = []
        x = self._run(self._input(inputs), tape)
        loss = dloss = None
        if targets is not None and self.loss_kind is not None:
            loss, dloss = L.loss_forward(x, targets, self.loss_kind)
        self._tape, self._dloss = tape, dloss
        return x, loss

    def predict(self, inputs) -> np.ndarray:
        """Final outputs for `inputs`, as ``forward(inputs)[0]`` computes them.

        Runs the layers over chunks of samples and records nothing, so its
        memory is bounded by the chunk, not by the number of inputs, and the
        record of the last forward() stays as it was. Float32 samples run in
        chunks of `eval_chunk`, whose float64 conv patches stay within
        `PATCH_BYTES` (or are one sample's). Float64 samples keep
        `EVAL_CHUNK`-sample chunks: BLAS picks its kernel by problem size, so
        a smaller chunk can change a float64 product's last bits, as
        OpenBLAS's Haswell and Prescott kernels do at conv row counts. A
        float32 layer output hides that unless it straddles a float32
        rounding boundary, which no seeded comparison has met.
        """
        x = self._input(inputs)
        chunk = EVAL_CHUNK if x.dtype == np.float64 else self.eval_chunk
        starts = range(0, max(len(x), 1), chunk)  # an empty batch runs once
        return np.concatenate([self._run(x[s : s + chunk]) for s in starts])

    def layer_outputs(self, inputs) -> list[np.ndarray]:
        """Every layer's output for `inputs`, in one pass that records nothing."""
        outputs = []
        self._run(self._input(inputs), outputs=outputs)
        return outputs

    def backward(self) -> dict[str, np.ndarray]:
        """Backpropagate from the recorded loss; writes the gradient views, returns the gradients by id.

        The returned arrays are the layers' own, in the forward pass's
        precision; the views hold them rounded to float32. Layers before the
        first parameterized one get no gradient, and that layer computes no
        input gradient, since nothing reads it.
        """
        if self._tape is None:
            raise StateError("backward called before forward")
        if self._dloss is None:
            raise StateError("backward needs a forward pass that computed a loss")
        grads: dict[str, np.ndarray] = {}
        d = self._dloss
        for i in reversed(range(self._first_param, len(self.layers))):
            d, g = self.layers[i].backward(d, self._tape[i], need_dx=i > self._first_param)
            for name, grad in g.items():
                key, tensor = self._grad_slots[i][name]
                np.copyto(tensor.grad, grad)
                grads[key] = grad
            if d is not None:  # undo the flatten of a (C, H, W) input
                d = d.reshape(len(d), *self.in_shapes[i])
        return grads

    # -- persistence ---------------------------------------------------------

    def all_arrays(self) -> dict[str, np.ndarray]:
        out = {key: t.data for key, t in self.params.items()}
        out.update({key: t.data for key, t in self.constants.items()})
        return out

    def save_checkpoint(self, path):
        save_arrays(path, self.all_arrays())

    def load_checkpoint(self, path):
        arrays = load_arrays(path)
        own = {**self.params, **self.constants}
        for key, tensor in own.items():
            if key not in arrays:
                raise ShapeError(f"checkpoint is missing array {key}")
            if arrays[key].shape != tensor.shape:
                raise ShapeError(
                    f"checkpoint array {key} has shape {arrays[key].shape}, "
                    f"model expects {tensor.shape}"
                )
            tensor.data[...] = arrays[key]
        extra = set(arrays) - set(own)
        if extra:
            raise ShapeError(f"checkpoint has unknown arrays: {sorted(extra)}")


def _kink_pattern(model: ModelGraph) -> list[np.ndarray]:
    """Sign pattern of every kinked (relu-family) pre-activation of the last forward."""
    return [p for layer, cache in zip(model.layers, model._tape) for p in layer.kinks(cache)]


def finite_difference_check(model: ModelGraph, inputs, targets, h: float = 1e-3) -> float:
    """Max relative gap between backprop and central differences over all parameters.

    The check runs a float64 shadow of the model (parameters stay float32 in
    storage; the perturbed values are measured after rounding) so the
    difference quotient is an adequate oracle for the analytic gradient.
    Parameters whose +/-h perturbation flips a relu-family activation sign
    are skipped: across a kink the difference quotient measures a slope
    average, not the derivative.
    """
    if h <= 0:
        raise ParameterError(f"finite difference step must be > 0, got {h}")
    x64 = as_array(inputs).astype(np.float64)
    model.forward(x64, targets)
    grads = model.backward()
    worst = 0.0
    for key, tensor in model.params.items():
        flat = tensor.data.ravel()
        gflat = np.asarray(grads[key], dtype=np.float64).ravel()
        for idx in range(flat.size):
            v = flat[idx]
            hi = np.float32(v + h)
            lo = np.float32(v - h)
            denom = float(hi) - float(lo)
            if denom == 0.0:
                continue
            flat[idx] = hi
            loss_hi = model.forward(x64, targets)[1]
            pat_hi = _kink_pattern(model)
            flat[idx] = lo
            loss_lo = model.forward(x64, targets)[1]
            pat_lo = _kink_pattern(model)
            flat[idx] = v
            if not all(np.array_equal(a, b) for a, b in zip(pat_hi, pat_lo)):
                continue
            fd = (loss_hi - loss_lo) / denom
            rel = abs(gflat[idx] - fd) / (abs(fd) + 1e-8)
            worst = float(np.maximum(worst, rel))  # not max(): a NaN error must reach the result
    return worst
