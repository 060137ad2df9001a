"""Layer kinds: linear, conv+batchnorm, residual block, projection attention,
activations and losses.

Each kind is one class implementing the `Layer` protocol, so a kind's rules
live in one place and the model, the grouping and the pruning never branch
on type:

  * `layer_kind` labels the kind in group tags and prune layer maps, and
    `flattens` asks the model to reshape a (C, H, W) value to (C*H*W,) first;
  * `out_shape`, `forward`, `backward` and `params` define the computation;
  * `units` gives each output unit's zero-invariant group as parameter spans;
  * `slim`, `macs` and `kinks` serve pruning, FLOP counting and the
    finite-difference check.

The numeric work sits in module-level functions: every forward returns
``(out, cache)`` and its backward takes ``(dout, cache)`` and returns
``(dx, param_grads)``; the backward of a kind with parameters takes a fourth
argument `need_dx`, and skips dx (returns None) when it is False. Methods
call these functions through the module namespace at call time (never
through a table built at import), so replacing `layers.linear_forward` and
its siblings on the module, as a tracer does, intercepts every call.
Computations follow the input dtype (float32 in normal use; float64 when a
gradient check runs a higher-precision shadow), and large reductions always
accumulate in float64.

Bit-exact fast path: a speedup on the numeric path may move, gather or reuse
data, but it must not change any accumulation order or precision, so every
artifact of a run stays byte-identical across such changes. That covers the
memory layout of arrays that reach a reduction too: numpy sums a (B, C, H, W)
array in an order that follows its strides, so `_col2im` hands back the same
layout the strided-add version did. Conv patches are built once in float64
(`_im2col` of the upcast input), the precision both conv products read them
in, so no pass upcasts them again; an upcast is exact, so this changes no bit.

The conv layer fuses batch normalization with the activation applied to the
convolution output *before* normalization:

    pre  = x (*) kernel + bias          per output channel
    out  = (a(pre) - mean) / std * gamma + beta

with `mean`/`std` held as stored constants. All supported activations map 0
to exactly 0, which is what makes whole-row zeroing propagate to an exactly
zero output channel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidModelError, ParameterError, ShapeError, TargetError
from .tensor import Tensor

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

LEAKY_SLOPE = 0.01
PRELU_SLOPE = 0.25  # fixed, non-trainable


def _relu(x):
    return np.maximum(x, 0)


def _relu_deriv(x):
    return (x > 0).astype(x.dtype)


def _leaky(x):
    return np.where(x > 0, x, x.dtype.type(LEAKY_SLOPE) * x)


def _leaky_deriv(x):
    return np.where(x > 0, x.dtype.type(1.0), x.dtype.type(LEAKY_SLOPE))


def _prelu(x):
    return np.where(x > 0, x, x.dtype.type(PRELU_SLOPE) * x)


def _prelu_deriv(x):
    return np.where(x > 0, x.dtype.type(1.0), x.dtype.type(PRELU_SLOPE))


def _gelu(x):
    from scipy.special import erf  # deferred: only GELU models pay for scipy

    return (0.5 * x * (1.0 + erf(x * _INV_SQRT2))).astype(x.dtype)


def _gelu_deriv(x):
    from scipy.special import erf

    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return (cdf + x * pdf).astype(x.dtype)


ACTIVATIONS = {
    "relu": (_relu, _relu_deriv),
    "leaky_relu": (_leaky, _leaky_deriv),
    "prelu": (_prelu, _prelu_deriv),
    "gelu": (_gelu, _gelu_deriv),
}

LOSS_KINDS = ("softmax_ce", "mse")


def apply_activation(x: np.ndarray, kind: str) -> np.ndarray:
    return ACTIVATIONS[kind][0](x)


def activation_deriv(x: np.ndarray, kind: str) -> np.ndarray:
    return ACTIVATIONS[kind][1](x)


def _up64(a: np.ndarray) -> np.ndarray:
    """`a` in float64, the precision every matrix product accumulates in."""
    return a.astype(np.float64, copy=False)


def _matmul64(a: np.ndarray, b: np.ndarray, dtype=None) -> np.ndarray:
    """Matrix product accumulated in float64, result in `dtype` (default: the inputs').

    An operand already passed through `_up64` is not copied again, so two
    products that share an operand can share its upcast.
    """
    dtype = np.result_type(a, b) if dtype is None else dtype
    return (_up64(a) @ _up64(b)).astype(dtype, copy=False)


def _param(t: Tensor, dtype) -> np.ndarray:
    return t.data.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# layer kinds


class Layer:
    """The protocol every layer kind implements.

    The defaults fit a parameter-free kind that keeps the shape of its input
    and passes values and gradients through unchanged.
    """

    layer_kind = ""  # label used in group tags and prune layer maps
    flattens = False  # the model reshapes a (C, H, W) value to (C*H*W,) first

    def out_shape(self, shape: tuple) -> tuple:
        """Output sample shape for an input sample shape; raises InvalidModelError."""
        return shape

    def forward(self, x: np.ndarray):
        """(out, cache) for a batch."""
        return x, None

    def backward(self, dout: np.ndarray, cache):
        """(dx, {parameter name: gradient}).

        A kind with parameters also takes ``need_dx=False``, which the model
        passes to the first parameterized layer: its dx is None then.
        """
        return dout, {}

    def params(self) -> list[tuple[str, Tensor, bool]]:
        """(name, tensor, trainable) triples in a stable order."""
        return []

    def units(self) -> list[tuple[int | None, int, list[tuple[str, int, int]]]]:
        """One (head, row, spans) per output unit, in output order.

        `spans` lists the (parameter name, start, stop) ranges of the unit's
        zero-invariant group, in flattened array-local positions; `row` is
        the unit's index within its head (within the layer when head is None).
        """
        return []

    def slim(self, kept_in, kept_out) -> "Layer":
        """The layer restricted to the kept input and output unit indices."""
        return replace(self)

    def macs(self, out_shape: tuple) -> dict:
        """Per-sample multiply-accumulates as {"flops": n}, plus any breakdown."""
        return {"flops": 0}

    def kinks(self, cache) -> list[np.ndarray]:
        """Sign patterns of the relu-family pre-activations recorded in `cache`."""
        return []


def _check_in_extent(extent: int, expected: int):
    if extent != expected:
        raise InvalidModelError(f"input extent {extent} does not match expected {expected}")


def _row_units(m: int, n: int, prefix: str = "", head: int | None = None):
    """Row r of an (m, n) weight with its bias entry, for every row."""
    return [
        (head, r, [(f"{prefix}weight", r * n, (r + 1) * n), (f"{prefix}bias", r, r + 1)])
        for r in range(m)
    ]


@dataclass
class Linear(Layer):
    weight: Tensor  # (m, n)
    bias: Tensor  # (m,)

    layer_kind = "linear"
    flattens = True

    def __post_init__(self):
        if self.weight.data.ndim != 2:
            raise ShapeError(f"linear weight must be 2-D, got rank {self.weight.data.ndim}")
        if self.bias.data.shape != (self.weight.data.shape[0],):
            raise ShapeError(
                f"linear bias extent {self.bias.data.shape} does not match "
                f"{self.weight.data.shape[0]} output rows"
            )

    @property
    def out_features(self):
        return self.weight.data.shape[0]

    @property
    def in_features(self):
        return self.weight.data.shape[1]

    def out_shape(self, shape):
        _check_in_extent(shape[0], self.in_features)
        return (self.out_features,)

    def forward(self, x):
        return linear_forward(x, self)

    def backward(self, dout, cache, need_dx=True):
        return linear_backward(dout, self, cache, need_dx)

    def params(self):
        return [("weight", self.weight, True), ("bias", self.bias, True)]

    def units(self):
        return _row_units(self.out_features, self.in_features)

    def slim(self, kept_in, kept_out):
        rows = np.asarray(kept_out, dtype=np.int64)
        cols = np.asarray(kept_in, dtype=np.int64)
        return Linear(Tensor(self.weight.data[np.ix_(rows, cols)]), Tensor(self.bias.data[rows]))

    def macs(self, out_shape):
        return {"flops": self.out_features * self.in_features}


_BN_VECTORS = ("bias", "mean", "std", "gamma", "beta")


@dataclass
class ConvBN(Layer):
    kernel: Tensor  # (m, in_channels * kh * kw), row c flattened (channel, kh, kw)
    bias: Tensor  # (m,)
    mean: Tensor  # (m,) stored constant
    std: Tensor  # (m,) stored constant, strictly positive
    gamma: Tensor  # (m,)
    beta: Tensor  # (m,)
    in_channels: int
    kh: int
    kw: int
    stride: int = 1
    padding: int = 0
    activation: str = "relu"

    layer_kind = "convbn"

    def __post_init__(self):
        m, cols = self.kernel.data.shape
        expected = self.in_channels * self.kh * self.kw
        if cols != expected:
            raise ShapeError(
                f"conv kernel has {cols} columns, expected in_channels*kh*kw = {expected}"
            )
        for name in _BN_VECTORS:
            arr = getattr(self, name).data
            if arr.shape != (m,):
                raise ShapeError(f"conv {name} extent {arr.shape} does not match {m} channels")
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"unknown activation kind {self.activation!r}")
        _check_std(self.std.data)

    @property
    def out_channels(self):
        return self.kernel.data.shape[0]

    @property
    def geometry(self):
        """The window (kh, kw, stride, padding); equal geometries share im2col patches."""
        return (self.kh, self.kw, self.stride, self.padding)

    def out_shape(self, shape):
        if len(shape) != 3:
            raise InvalidModelError(f"conv needs a (channels, h, w) input, got {shape}")
        if shape[0] != self.in_channels:
            raise InvalidModelError(
                f"input channel extent {shape[0]} does not match kernel "
                f"in_channels {self.in_channels}"
            )
        oh, ow = conv_output_hw(shape[1], shape[2], self)
        if oh < 1 or ow < 1:
            raise InvalidModelError(f"empty conv output for input {shape}")
        return (self.out_channels, oh, ow)

    def forward(self, x):
        return conv_bn_forward(x, self)

    def backward(self, dout, cache, need_dx=True):
        return conv_bn_backward(dout, self, cache, need_dx)

    def params(self):
        trainable = [(n, getattr(self, n), True) for n in ("kernel", "bias", "gamma", "beta")]
        return trainable + [("mean", self.mean, False), ("std", self.std, False)]

    def units(self):
        # bn mean/std stay out: with gamma = beta = 0 they cannot shift the channel
        ck = self.kernel.data.shape[1]
        return [
            (None, c, [("kernel", c * ck, (c + 1) * ck), ("bias", c, c + 1),
                       ("gamma", c, c + 1), ("beta", c, c + 1)])
            for c in range(self.out_channels)
        ]

    def slim(self, kept_in, kept_out):
        rows = np.asarray(kept_out, dtype=np.int64)
        block = self.kh * self.kw
        cols = (np.asarray(kept_in, dtype=np.int64)[:, None] * block + np.arange(block)).ravel()
        return replace(
            self,
            kernel=Tensor(self.kernel.data[np.ix_(rows, cols)]),
            in_channels=len(kept_in),
            **{n: Tensor(getattr(self, n).data[rows]) for n in _BN_VECTORS},
        )

    def macs(self, out_shape):
        _, oh, ow = out_shape
        conv = self.out_channels * self.kernel.data.shape[1] * oh * ow
        bn = self.out_channels * oh * ow
        return {"flops": conv + bn, "conv": conv, "bn": bn}

    def kinks(self, cache):
        return [cache[2] > 0] if self.activation != "gelu" else []


@dataclass
class ResidualBlock(Layer):
    branch1: ConvBN
    branch2: ConvBN

    layer_kind = "residual"

    @property
    def branches(self):
        return (("b1", self.branch1), ("b2", self.branch2))

    def out_shape(self, shape):
        s1, s2 = (branch.out_shape(shape) for _, branch in self.branches)
        if s1 != s2:
            raise InvalidModelError(f"residual branch outputs disagree: {s1} vs {s2}")
        return s1

    def forward(self, x):
        return residual_forward(x, self)

    def backward(self, dout, cache, need_dx=True):
        return residual_backward(dout, self, cache, need_dx)

    def params(self):
        return [
            (f"{tag}.{n}", t, tr) for tag, branch in self.branches for n, t, tr in branch.params()
        ]

    def units(self):
        # channel c of both branches, so the summed channel is zero
        per_branch = [
            [[(f"{tag}.{n}", a, b) for n, a, b in spans] for _, _, spans in branch.units()]
            for tag, branch in self.branches
        ]
        return [(None, c, s1 + s2) for c, (s1, s2) in enumerate(zip(*per_branch))]

    def slim(self, kept_in, kept_out):
        return ResidualBlock(*(b.slim(kept_in, kept_out) for _, b in self.branches))

    def macs(self, out_shape):
        return {"flops": sum(b.macs(out_shape)["flops"] for _, b in self.branches)}

    def kinks(self, cache):
        return self.branch1.kinks(cache[0]) + self.branch2.kinks(cache[1])


@dataclass
class MultiHeadAttention(Layer):
    """Projection-only attention: per head ``w_h @ x + b_h``, outputs concatenated."""

    weights: list[Tensor] = field(default_factory=list)  # per head (m_h, n)
    biases: list[Tensor] = field(default_factory=list)  # per head (m_h,)

    layer_kind = "mha"
    flattens = True

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ShapeError("attention needs one (weight, bias) pair per head")
        n = self.weights[0].data.shape[1]
        for h, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.data.ndim != 2 or w.data.shape[1] != n:
                raise ShapeError(f"attention head {h} input extent differs from shared {n}")
            if b.data.shape != (w.data.shape[0],):
                raise ShapeError(
                    f"attention head {h} output extent {w.data.shape[0]} inconsistent "
                    f"with bias extent {b.data.shape}"
                )

    @property
    def n_heads(self):
        return len(self.weights)

    @property
    def head_dims(self):
        return [w.data.shape[0] for w in self.weights]

    @property
    def in_features(self):
        return self.weights[0].data.shape[1]

    @property
    def out_features(self):
        return sum(self.head_dims)

    def out_shape(self, shape):
        _check_in_extent(shape[0], self.in_features)
        return (self.out_features,)

    def forward(self, x):
        return attention_forward(x, self)

    def backward(self, dout, cache, need_dx=True):
        return attention_backward(dout, self, cache, need_dx)

    def params(self):
        return [
            (f"h{h}.{n}", t, True)
            for h, pair in enumerate(zip(self.weights, self.biases))
            for n, t in zip(("weight", "bias"), pair)
        ]

    def units(self):
        n = self.in_features
        return [u for h, m_h in enumerate(self.head_dims) for u in _row_units(m_h, n, f"h{h}.", h)]

    def slim(self, kept_in, kept_out):
        cols = np.asarray(kept_in, dtype=np.int64)
        weights, biases = [], []
        offset = 0
        for w, b in zip(self.weights, self.biases):
            m_h = w.data.shape[0]
            rows = [o - offset for o in kept_out if offset <= o < offset + m_h]
            rows = np.asarray(rows, dtype=np.int64)
            offset += m_h
            if rows.size:  # a head with no kept row is dropped entirely
                weights.append(Tensor(w.data[np.ix_(rows, cols)]))
                biases.append(Tensor(b.data[rows]))
        return MultiHeadAttention(weights=weights, biases=biases)

    def macs(self, out_shape):
        return {"flops": self.out_features * self.in_features}


@dataclass
class Activation(Layer):
    kind: str

    layer_kind = "activation"

    def __post_init__(self):
        if self.kind not in ACTIVATIONS:
            raise ParameterError(f"unknown activation kind {self.kind!r}")

    def forward(self, x):
        return activation_forward(x, self)

    def backward(self, dout, cache):
        return activation_backward(dout, self, cache)

    def kinks(self, cache):
        return [cache > 0] if self.kind != "gelu" else []


@dataclass
class Loss(Layer):
    """Marks the objective; the model evaluates it with `loss_forward`."""

    kind: str

    layer_kind = "loss"
    flattens = True

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ParameterError(f"unknown loss kind {self.kind!r}")


def _check_std(std: np.ndarray):
    if np.any(std <= 0):
        bad = int(np.argmax(std <= 0))
        raise ParameterError(f"BN std entry {bad} is {std[bad]!r}; entries must be > 0")


# ---------------------------------------------------------------------------
# linear / attention


def linear_forward(x: np.ndarray, layer: Linear):
    if x.shape[-1] != layer.in_features:
        raise ShapeError(
            f"linear input last extent {x.shape[-1]} does not match weight columns "
            f"{layer.in_features}"
        )
    w = _param(layer.weight, x.dtype)
    b = _param(layer.bias, x.dtype)
    lead = x.shape[:-1]
    x2 = x.reshape(-1, x.shape[-1])
    out = _matmul64(x2, w.T) + b
    return out.reshape(*lead, layer.out_features), (x2, lead)


def linear_backward(dout: np.ndarray, layer: Linear, cache, need_dx=True):
    x2, lead = cache
    d2 = dout.reshape(-1, layer.out_features)
    dtype = d2.dtype
    d64 = _up64(d2)  # shared by both products
    dw = _matmul64(d64.T, x2, dtype)
    db = d2.sum(axis=0, dtype=np.float64).astype(dtype)
    dx = None
    if need_dx:
        dx = _matmul64(d64, _param(layer.weight, dtype), dtype).reshape(*lead, layer.in_features)
    return dx, {"weight": dw, "bias": db}


def attention_forward(x: np.ndarray, layer: MultiHeadAttention):
    if x.shape[-1] != layer.in_features:
        raise ShapeError(
            f"attention input last extent {x.shape[-1]} does not match shared head "
            f"input extent {layer.in_features}"
        )
    lead = x.shape[:-1]
    x2 = x.reshape(-1, x.shape[-1])
    outs = []
    for w, b in zip(layer.weights, layer.biases):
        outs.append(_matmul64(x2, _param(w, x.dtype).T) + _param(b, x.dtype))
    out = np.concatenate(outs, axis=1)
    return out.reshape(*lead, layer.out_features), (x2, lead)


def attention_backward(dout: np.ndarray, layer: MultiHeadAttention, cache, need_dx=True):
    x2, lead = cache
    d2 = dout.reshape(-1, layer.out_features)
    grads = {}
    dx = np.zeros_like(x2) if need_dx else None
    offset = 0
    for h, (w, b) in enumerate(zip(layer.weights, layer.biases)):
        m_h = w.data.shape[0]
        dh = d2[:, offset : offset + m_h]
        dh64 = _up64(dh)  # a contiguous copy, shared by both products
        grads[f"h{h}.weight"] = _matmul64(dh64.T, x2, d2.dtype)
        grads[f"h{h}.bias"] = dh.sum(axis=0, dtype=np.float64).astype(d2.dtype)
        if need_dx:
            dx += _matmul64(dh64, _param(w, d2.dtype), d2.dtype)
        offset += m_h
    return (dx.reshape(*lead, layer.in_features) if need_dx else None), grads


# ---------------------------------------------------------------------------
# conv + bn


@functools.lru_cache(maxsize=256)
def _im2col_index(c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int):
    """Flat gather index of every patch entry, and the output (oh, ow).

    Entry ``(oi, oj, ch, i, j)`` points at ``x[ch, oi*stride + i - padding,
    oj*stride + j - padding]`` in a flattened (C*H*W,) sample; a position in
    the padding points at the sentinel ``C*H*W``, a zero appended to it.
    """
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    rows = (np.arange(oh) * stride)[:, None, None, None, None] + np.arange(kh)[:, None] - padding
    cols = (np.arange(ow) * stride)[None, :, None, None, None] + np.arange(kw) - padding
    chans = np.arange(c)[:, None, None]
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    idx = np.where(inside, chans * (h * w) + rows * w + cols, c * h * w)
    idx = idx.astype(np.intp).ravel()
    idx.flags.writeable = False
    return idx, oh, ow


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """(B, C, H, W) -> (B, oh, ow, C*kh*kw) patches, channel-major rows."""
    b, c, h, w = x.shape
    idx, oh, ow = _im2col_index(c, h, w, kh, kw, stride, padding)
    flat = np.zeros((b, c * h * w + 1), dtype=x.dtype)  # last column: the padding sentinel
    flat[:, :-1] = x.reshape(b, c * h * w)
    return np.take(flat, idx, axis=1).reshape(b, oh, ow, c * kh * kw)


def _col2im(dcols: np.ndarray, x_shape, kh: int, kw: int, stride: int, padding: int):
    """Adjoint of `_im2col`: sums (B, oh, ow, C*kh*kw) patch gradients into (B, C, H, W)."""
    b, c, h, w = x_shape
    _, oh, ow, _ = dcols.shape
    # accumulate channels-last, so each (i, j) add moves whole channel vectors;
    # every element still gets its adds in (i, j) order, starting from +0.0
    dxp = np.zeros((b, h + 2 * padding, w + 2 * padding, c), dtype=dcols.dtype)
    d6 = dcols.reshape(b, oh, ow, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + oh * stride : stride, j : j + ow * stride : stride] += d6[..., i, j]
    # hand back a crop of a channel-major buffer: downstream float64 sums over
    # (B, H, W) follow the strides, so this layout keeps their order unchanged
    dxp = np.ascontiguousarray(dxp.transpose(0, 3, 1, 2))
    return dxp[:, :, padding : padding + h, padding : padding + w]


def conv_output_hw(h: int, w: int, layer: ConvBN) -> tuple[int, int]:
    oh = (h + 2 * layer.padding - layer.kh) // layer.stride + 1
    ow = (w + 2 * layer.padding - layer.kw) // layer.stride + 1
    return oh, ow


def conv_bn_forward(x: np.ndarray, layer: ConvBN, cols: np.ndarray | None = None):
    """Conv + activation + normalization of a (B, C, H, W) batch.

    `cols` may pass in the float64 `_im2col` patches of `x` for this layer's
    geometry, already built for another layer that reads the same input.
    The patches are built in float64 once, so neither the forward product nor
    the backward kernel-gradient product upcasts them again.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv input must be (batch, c, h, w); got rank {x.ndim}")
    if x.shape[1] != layer.in_channels:
        raise ShapeError(
            f"conv input channel extent {x.shape[1]} does not match kernel "
            f"in_channels {layer.in_channels}"
        )
    oh, ow = conv_output_hw(x.shape[2], x.shape[3], layer)
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"conv output spatial extent ({oh}, {ow}) is empty for input "
            f"{x.shape[2]}x{x.shape[3]}"
        )
    _check_std(layer.std.data)
    dtype = x.dtype
    k = _param(layer.kernel, dtype)
    if cols is None:
        cols = _im2col(_up64(x), layer.kh, layer.kw, layer.stride, layer.padding)
    pre = _matmul64(cols.reshape(-1, k.shape[1]), k.T, dtype) + _param(layer.bias, dtype)
    pre = pre.reshape(x.shape[0], oh, ow, layer.out_channels).transpose(0, 3, 1, 2)
    act = apply_activation(pre, layer.activation)
    mean = _param(layer.mean, dtype)[None, :, None, None]
    std = _param(layer.std, dtype)[None, :, None, None]
    gamma = _param(layer.gamma, dtype)[None, :, None, None]
    beta = _param(layer.beta, dtype)[None, :, None, None]
    out = (act - mean) / std * gamma + beta
    return out, (x.shape, cols, pre, act)


def conv_bn_backward(dout: np.ndarray, layer: ConvBN, cache, need_dx=True):
    x_shape, cols, pre, act = cache
    dtype = dout.dtype
    std = _param(layer.std, dtype)[None, :, None, None]
    gamma = _param(layer.gamma, dtype)[None, :, None, None]
    mean = _param(layer.mean, dtype)[None, :, None, None]

    dgamma = ((act - mean) / std * dout).sum(axis=(0, 2, 3), dtype=np.float64).astype(dtype)
    dbeta = dout.sum(axis=(0, 2, 3), dtype=np.float64).astype(dtype)
    dact = dout * gamma / std
    dpre = dact * activation_deriv(pre, layer.activation)

    b, m = dpre.shape[0], layer.out_channels
    dpre2 = dpre.transpose(0, 2, 3, 1).reshape(-1, m)
    db = dpre2.sum(axis=0, dtype=np.float64).astype(dtype)
    cols2 = cols.reshape(-1, cols.shape[-1])
    d64 = _up64(dpre2)  # shared by both products
    dk = _matmul64(d64.T, cols2, dtype)
    grads = {"kernel": dk, "bias": db, "gamma": dgamma, "beta": dbeta}
    if not need_dx:
        return None, grads
    dcols = _matmul64(d64, _param(layer.kernel, dtype), dtype).reshape(cols.shape)
    return _col2im(dcols, x_shape, layer.kh, layer.kw, layer.stride, layer.padding), grads


def residual_forward(x: np.ndarray, layer: ResidualBlock):
    out1, cache1 = conv_bn_forward(x, layer.branch1)
    # both branches read x: one im2col serves both when their windows agree
    shared = cache1[1] if layer.branch1.geometry == layer.branch2.geometry else None
    out2, cache2 = conv_bn_forward(x, layer.branch2, shared)
    if out1.shape != out2.shape:
        raise ShapeError(
            f"residual branch outputs disagree: {out1.shape} vs {out2.shape}"
        )
    return out1 + out2, (cache1, cache2)


def residual_backward(dout: np.ndarray, layer: ResidualBlock, cache, need_dx=True):
    cache1, cache2 = cache
    dx1, g1 = conv_bn_backward(dout, layer.branch1, cache1, need_dx)
    dx2, g2 = conv_bn_backward(dout, layer.branch2, cache2, need_dx)
    grads = {f"b1.{k}": v for k, v in g1.items()}
    grads.update({f"b2.{k}": v for k, v in g2.items()})
    return (dx1 + dx2 if need_dx else None), grads


def activation_forward(x: np.ndarray, layer: Activation):
    return apply_activation(x, layer.kind), x


def activation_backward(dout: np.ndarray, layer: Activation, cache):
    return dout * activation_deriv(cache, layer.kind), {}


# ---------------------------------------------------------------------------
# losses


def check_class_targets(targets, width: int):
    """Raise TargetError unless every target is an integer class in [0, width).

    `loss_forward` indexes its softmax rows with the targets, so a target out
    of range would fail there untyped, or, if negative, silently pick a class
    from the end of the row.
    """
    y = np.asarray(targets)
    bad = (y != np.floor(y)) | (y < 0) | (y >= width)
    if bad.any():
        i = int(np.argmax(bad))
        raise TargetError(
            f"sample {i}: class target {y[i].item()!r} is not an integer in "
            f"[0, {width}), the model's output width"
        )


def loss_forward(out: np.ndarray, targets: np.ndarray, kind: str):
    """Mean per-sample loss and its gradient with respect to `out`.

    softmax_ce expects integer class targets; mse expects targets shaped
    like `out` and uses the per-sample sum of squared errors.
    """
    if out.ndim != 2:
        raise ShapeError(f"loss input must be 2-D (batch, features); got rank {out.ndim}")
    batch = out.shape[0]
    if kind == "softmax_ce":
        y = np.asarray(targets)
        if y.shape != (batch,):
            raise ShapeError(f"class targets must have shape ({batch},); got {y.shape}")
        y = y.astype(np.int64)
        shifted = out.astype(np.float64) - out.max(axis=1, keepdims=True)
        expv = np.exp(shifted)
        total = expv.sum(axis=1, keepdims=True)
        logp = shifted - np.log(total)
        loss = float(-logp[np.arange(batch), y].mean())
        probs = expv / total
        dout = probs
        dout[np.arange(batch), y] -= 1.0
        dout /= batch
        return loss, dout.astype(out.dtype)
    if kind == "mse":
        y = np.asarray(targets, dtype=out.dtype)
        if y.ndim == 1:
            y = y.reshape(-1, 1)
        if y.shape != out.shape:
            raise ShapeError(f"mse targets shape {y.shape} does not match output {out.shape}")
        r = out.astype(np.float64) - y.astype(np.float64)
        loss = float((r * r).sum() / batch)
        dout = (2.0 / batch) * r
        return loss, dout.astype(out.dtype)
    raise ParameterError(f"unknown loss kind {kind!r}")
