"""Layer kinds: linear, conv+batchnorm, residual block, projection attention,
activations and losses.

Each kind is one class implementing the `Layer` protocol, so a kind's rules
live in one place and the model, the grouping, the pruning and the DSL
reader and writer never branch on type:

  * `layer_kind` labels the kind in group tags and prune layer maps, and
    `flattens` asks the model to reshape a (C, H, W) value to (C*H*W,) first;
  * `out_shape`, `forward`, `backward` and `params` define the computation;
    `out_shape` is the kind's one input rule: the model build checks each
    layer with it, and every forward kernel checks its batch's sample shape
    with it, raising the same text as a ShapeError;
  * `units` gives each output unit's tag label and zero-invariant group as
    parameter spans: row r of every trainable parameter, labelled ``r`` (the
    one rule, written on `Layer`); attention labels a head's row ``h{h}.{r}``;
  * `slim`, `macs` (an int), `patch_bytes` and `kinks` serve pruning,
    FLOP counting, the evaluation chunk and the finite-difference check;
  * `spec` writes the layer as its DSL string, and the classmethod
    ``from_spec(spec, args, shape, rng, init)`` reads one (`args`: the
    ``:`` fields after the head; `init`: a `weight_init` draw), raising
    ConfigError on a malformed one. `DSL_KINDS` maps each head to its kind.

The DSL, one string per layer (s1, p0 and relu are the conv defaults):

    linear:64                 fully connected, 64 rows
    convbn:8:3x3:s1:p1:relu   8 output channels, 3x3 kernel, stride/pad/act
    residual:8:3x3:s1:p1:relu two conv+bn branches with that shape, summed
    mha:2x4                   2 heads x 4 rows (or per-head list: mha:4,3)
    relu | leaky_relu | prelu | gelu

Composite kinds are made of simpler ones: a residual block of two `ConvBN`
branches, attention of one `Linear` per head. They prefix their parts'
parameter names (``b1.``, ``h0.``) and leave checks and slicing to them. A
residual block's groups fall out of the one rule over its prefixed
parameters: channel c of both branches, so the summed channel is zero. BN
mean/std are not trainable, so they stay out of every group: with gamma =
beta = 0 they cannot shift the channel. The two branches of a residual block
have one shape, the input channels and fields its DSL string writes, and
building a block with any other pair raises InvalidModelError. So branch 1
answers for the block's output shape, patches and spec, and branch 2 reads
branch 1's im2col patches.

The numeric work sits in module-level functions: every forward returns
``(out, cache)`` and its backward takes ``(dout, cache)`` and returns
``(dx, param_grads)``. Every `backward` method takes `need_dx`; the kinds with
parameters pass it on and skip dx (return None) when it is False. Methods
call these functions through the module namespace at call time (never
through a table built at import), so replacing `layers.linear_forward` and
its siblings on the module, as a tracer does, intercepts every call.
Computations follow the input dtype (float32 in normal use; float64 when a
gradient check runs a higher-precision shadow), and large reductions always
accumulate in float64.

Every weighted kind runs its product through one kernel, `_affine`
(``x @ weight.T + bias`` accumulated in float64), and its gradients through
`_affine_backward`: linear on its input rows, attention once per head, and
conv+bn on the rows of its im2col patches, with the kernel as the weight.

Bit-exact fast path: a speedup on the numeric path may move, gather or reuse
data, but it must not change any accumulation order or precision, so every
artifact of a run stays byte-identical across such changes. That covers the
memory layout of arrays that reach a reduction too: numpy sums a (B, C, H, W)
array in an order that follows its strides, so `_col2im` hands back the same
layout the strided-add version did. Conv patches are built once in float64,
the precision both conv products read them in, so no pass upcasts them
again; `_im2col` upcasts the input as it copies it into its zero-padded
buffer, in one pass. An upcast is exact, so this changes no bit.

`patch_bytes` counts the float64 conv patches a kind's forward holds at
once per sample. The model sizes its evaluation chunk from the largest (see
`model.ModelGraph.predict`), so every layer runs on a whole chunk in one call.

A backward reads the operands and intermediates its forward made; it never
recomputes them. Each kind's cache holds:

  * linear: the float64 input (batch, n) and the float64 weight, transposed
    and F-contiguous, so that its ``.T`` is the C-layout (m, n) weight the dx
    product reads (BLAS picks its kernel by layout), and the leading shape;
  * attention: the float64 input, once for all heads, each head's float64
    weight as in linear, and the leading shape;
  * conv+bn: the input shape, the float64 patches (index 1), the
    pre-activation (index 2), ``xhat = (a(pre) - mean) / std``, the
    activation's saved term and the float64 kernel as in linear;
  * residual: its two branches' conv+bn caches, which hold one patch array;
  * activation: the input and the activation's saved term.

An activation's saved term is whatever its derivative needs besides x: GELU's
``erf(x / sqrt 2)``, None for the relu family (see `ACTIVATIONS`). Caching
changes no arithmetic: the backward reads the very arrays it used to rebuild.

GELU's erf is `_erf`, a NumPy port of cephes `erf` (``ndtr.c``), the
algorithm behind `scipy.special.erf`, so the package needs NumPy alone and
GELU gives the bits SciPy's erf gave. Like SciPy's float32 loop, it
computes in float64 and rounds once. The erf rational runs over every
entry; the erfc branch, which costs about twice as much, runs only over
the entries with |x| > 1, gathered and put back in memory order. The erfc
branch calls exp, and which exp depends on the dtype. NumPy's vectorized
float64 exp differs from the C library's exp, which cephes calls, in the
last bit of some arguments: on an AVX-512 x86_64 host with numpy 2.4,
46,420 of 1M uniform x in [1, 6] gave another exp(-x^2), and 672 of them
another float64 erf. Float64 inputs, the finite-difference shadow,
therefore take the C library's exp, one `math.exp` call per erfc-branch
entry. Float32 inputs, every pipeline run, take NumPy's exp: rounding to
float32 hides each of those differences, which `scripts/erf_exhaustive.py`
checks on every non-negative float32, with and without NumPy's AVX-512 exp
loops, whose bits differ.

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
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InvalidModelError, ParameterError, ShapeError, TargetError
from .tensor import Tensor

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

LEAKY_SLOPE = 0.01
PRELU_SLOPE = 0.25  # fixed, non-trainable


def _relu(x):
    return np.maximum(x, 0), None


def _relu_deriv(x, saved):
    return (x > 0).astype(x.dtype)


def _sloped(slope):
    """(forward, derivative) of the relu with slope `slope` below 0 (leaky relu, prelu)."""

    # max(x, s*x) with 0 < s < 1 is where(x > 0, x, s*x) to the bit, signed zeros,
    # infinities and subnormals included, and runs several times faster
    def forward(x):
        return np.maximum(x, x.dtype.type(slope) * x), None

    def derivative(x, saved):
        return np.where(x > 0, x.dtype.type(1.0), x.dtype.type(slope))

    return forward, derivative


# cephes `ndtr.c`: erf(x) = x T(x^2) / U(x^2) for |x| <= 1 and
# erf(x) = 1 - exp(-x^2) P(x) / Q(x) for 1 < x < 8; U and Q are monic
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_libm_exp = np.frompyfunc(math.exp, 1, 1)  # the C library's exp, the one cephes calls


def _polevl(x, coefs, out=None):
    """cephes `polevl`: Horner's rule from coefs[0], ``ans = ans * x + c``, into `out` if given."""
    ans = np.multiply(x, coefs[0], out=out)
    ans += coefs[1]
    for c in coefs[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coefs, out=None):
    """cephes `p1evl`: `_polevl` with a leading coefficient 1, so it starts at ``x + coefs[0]``."""
    ans = np.add(x, coefs[0], out=out)
    for c in coefs[1:]:
        ans *= x
        ans += c
    return ans


def _erf(x):
    """erf of a float32 or float64 array, to the bit what `scipy.special.erf` returns.

    The erf rational runs over every entry. The erfc branch runs only over the
    entries with |x| > 1: they are gathered in memory order into prefixes of
    temporaries the erf branch is done with, and put back over its results,
    so each entry gets the arithmetic of its own branch and the output keeps
    x's memory layout. The erfc branch clips |x| to 8: from |x| = 6 on,
    1 - erfc is exactly 1.0, so the clip changes no output and no entry
    overflows.
    """
    if x.dtype == np.float64:
        x64 = x
    else:
        with np.errstate(invalid="ignore"):  # the cast flags a signaling NaN; scipy's erf does not
            x64 = x.astype(np.float64)
    a = np.abs(x64)
    s = np.minimum(a, 1.0)
    z = s * s
    t = _polevl(z, _ERF_T)
    s *= t
    s /= _p1evl(z, _ERF_U, out=t)
    # every array from `a` on is fresh and compact, so ravel("K") is a view
    # and the same flat index names the same entry in each
    flat_a = a.ravel(order="K")
    idx = (flat_a > 1.0).nonzero()[0]
    n = idx.size
    if n:
        b = flat_a.take(idx, out=z.ravel(order="K")[:n], mode="clip")
        np.minimum(b, 8.0, out=b)
        e = np.multiply(b, b, out=flat_a[:n])
        np.negative(e, out=e)
        if x.dtype == np.float64:
            e[...] = _libm_exp(e)
        else:
            np.exp(e, out=e)
        pq = t.ravel(order="K")[:n]
        e *= _polevl(b, _ERFC_P, out=pq)
        e /= _p1evl(b, _ERFC_Q, out=pq)
        np.subtract(1.0, e, out=e)
        s.ravel(order="K")[idx] = e
        # freed before the output is allocated: held across that allocation,
        # this varying-size array fragmented the heap and raised attn_prox's
        # peak RSS by about 0.9 MB
        del idx
    np.copysign(s, x64, out=s)
    s[np.isnan(x64)] = np.nan  # scipy's positive quiet NaN, whatever the input's sign or payload
    return s.astype(x.dtype, copy=False)


def _at_infinities(formula, x, at_neg, at_pos):
    """formula() in x's dtype, set to the limits `at_neg` / `at_pos` at x = -inf / +inf.

    GELU's formulas read inf * 0 only there, so finite inputs skip the patch.
    """
    inf = np.isinf(x)
    if not inf.any():
        return formula().astype(x.dtype, copy=False)
    with np.errstate(invalid="ignore"):
        out = formula().astype(x.dtype, copy=False)
    out[inf] = np.where(x[inf] > 0, at_pos, at_neg)
    return out


def _gelu(x):
    e = _erf(x * _INV_SQRT2)
    return _at_infinities(lambda: 0.5 * x * (1.0 + e), x, 0.0, np.inf), e


def _gelu_deriv(x, e):
    def formula():
        cdf = 0.5 * (1.0 + e)
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return cdf + x * pdf

    return _at_infinities(formula, x, 0.0, 1.0)


# kind -> (forward, derivative): forward(x) returns (a(x), saved), where
# `saved` is what the derivative needs besides x (GELU's erf term, else None);
# derivative(x, saved) returns a'(x)
ACTIVATIONS = {
    "relu": (_relu, _relu_deriv),
    "leaky_relu": _sloped(LEAKY_SLOPE),
    "prelu": _sloped(PRELU_SLOPE),
    "gelu": (_gelu, _gelu_deriv),
}

LOSS_KINDS = ("softmax_ce", "mse")


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


def weight_init(init: str):
    """``draw(rng, shape, fan_in)`` -> float32 weights for `model.init` = he | zeros | normal:SIGMA.

    zeros draws nothing from `rng`; he scales standard normals by sqrt(2 / fan_in).
    """
    if init == "zeros":
        return lambda rng, shape, fan_in: np.zeros(shape, dtype=np.float32)
    if init == "he":
        scale = lambda fan_in: np.sqrt(2.0 / max(fan_in, 1))
    elif init.startswith("normal:"):
        try:
            sigma = float(init.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"model.init: {exc}") from exc
        if sigma < 0:
            raise ConfigError(f"model.init: normal scale must be >= 0, got {sigma}")
        if not math.isfinite(sigma):
            raise ConfigError(f"model.init: normal scale must be finite, got {sigma}")
        scale = lambda fan_in: sigma
    else:
        raise ConfigError(f"model.init must be he, zeros or normal:SIGMA, got {init!r}")
    return lambda rng, shape, n: (scale(n) * rng.standard_normal(shape)).astype(np.float32)


def _spec_int(spec: str, text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"layer {spec!r}: {exc}") from exc


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

    def backward(self, dout: np.ndarray, cache, need_dx=True):
        """(dx, {parameter name: gradient}).

        The model passes ``need_dx=False`` to the first parameterized layer,
        whose dx nothing reads: a kind with parameters returns None for it.
        """
        return dout, {}

    def params(self) -> list[tuple[str, Tensor, bool]]:
        """(name, tensor, trainable) triples in a stable order."""
        return []

    def units(self) -> list[tuple[str, list[tuple[str, int, int]]]]:
        """One (label, spans) per output unit, in output order.

        Unit r's zero-invariant group is row r of every trainable parameter,
        in `params` order; `spans` lists those rows as (parameter name, start,
        stop) ranges in flattened array-local positions, a row of a parameter
        being ``prod(shape[1:])`` entries wide. `label` names the unit in its
        group's tag: ``str(r)`` here.
        """
        shapes = [(name, t.shape) for name, t, trainable in self.params() if trainable]
        if not shapes:
            return []
        widths = [(name, int(np.prod(shape[1:]))) for name, shape in shapes]
        return [
            (str(r), [(name, r * w, (r + 1) * w) for name, w in widths])
            for r in range(shapes[0][1][0])
        ]

    def slim(self, kept_in, kept_out) -> "Layer":
        """The layer restricted to the kept input and output unit indices."""
        return replace(self)

    def macs(self, out_shape: tuple) -> int:
        """Per-sample multiply-accumulates, given the layer's output sample shape."""
        return 0

    def patch_bytes(self, out_shape: tuple) -> int:
        """Bytes of float64 conv patches one sample's forward holds at once."""
        return 0

    def kinks(self, cache) -> list[np.ndarray]:
        """Sign patterns of the relu-family pre-activations recorded in `cache`."""
        return []

    def spec(self) -> str:
        """The layer's DSL string (see the module docstring); "" for a kind written elsewhere."""
        raise ConfigError(f"layer kind {type(self).__name__} has no DSL form")


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

    @classmethod
    def drawn(cls, out_features: int, shape: tuple, rng, init) -> "Linear":
        """`out_features` rows over the flattened `shape`: an `init` weight, a zero bias."""
        n = int(np.prod(shape))
        bias = Tensor(np.zeros(out_features, dtype=np.float32))
        return cls(Tensor(init(rng, (out_features, n), n)), bias)

    @property
    def out_features(self):
        return self.weight.data.shape[0]

    @property
    def in_features(self):
        return self.weight.data.shape[1]

    def out_shape(self, shape):
        if shape[0] != self.in_features:
            raise InvalidModelError(
                f"input last extent {shape[0]} does not match expected {self.in_features}"
            )
        return (self.out_features,)

    def forward(self, x):
        return linear_forward(x, self)

    def backward(self, dout, cache, need_dx=True):
        return linear_backward(dout, self, cache, need_dx)

    def params(self):
        return [("weight", self.weight, True), ("bias", self.bias, True)]

    def slim(self, kept_in, kept_out):
        rows = np.asarray(kept_out, dtype=np.int64)
        cols = np.asarray(kept_in, dtype=np.int64)
        return Linear(Tensor(self.weight.data[np.ix_(rows, cols)]), Tensor(self.bias.data[rows]))

    def macs(self, out_shape):
        return self.out_features * self.in_features

    def spec(self):
        return f"linear:{self.out_features}"

    @classmethod
    def from_spec(cls, spec, args, shape, rng, init):
        if len(args) != 1:
            raise ConfigError(f"layer {spec!r}: expected linear:OUT")
        out_features = _spec_int(spec, args[0])
        if out_features < 1:
            raise ConfigError(f"layer {spec!r}: width must be positive")
        return cls.drawn(out_features, shape, rng, init)


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
        return self.out_channels * (self.kernel.data.shape[1] + 1) * oh * ow  # conv + bn scale

    def patch_bytes(self, out_shape):
        _, oh, ow = out_shape
        return 8 * oh * ow * self.kernel.data.shape[1]

    def kinks(self, cache):
        return [cache[2] > 0] if self.activation != "gelu" else []

    def spec(self, kind="convbn"):
        """`kind` names the DSL head: a residual block writes its branches' shape."""
        return (
            f"{kind}:{self.out_channels}:{self.kh}x{self.kw}:s{self.stride}:"
            f"p{self.padding}:{self.activation}"
        )

    @classmethod
    def from_spec(cls, spec, args, shape, rng, init):
        if len(shape) != 3:
            raise ConfigError(f"layer {spec!r}: needs a CxHxW input, have {shape}")
        if len(args) < 2 or "x" not in args[1]:
            raise ConfigError(f"layer {spec!r}: expected OUT and KHxKW")
        out_channels = _spec_int(spec, args[0])
        window = [_spec_int(spec, v) for v in args[1].split("x")]
        if len(window) != 2:
            raise ConfigError(f"layer {spec!r}: expected OUT and KHxKW")
        (kh, kw), opts, act = window, {"s": 1, "p": 0}, "relu"  # stride and padding
        for extra in args[2:]:
            if extra in ACTIVATIONS:
                act = extra
            elif extra[:1] in opts and extra[1:].isdecimal():
                opts[extra[0]] = int(extra[1:])
            else:
                raise ConfigError(f"layer {spec!r}: unknown option {extra!r}")
        stride, padding = opts["s"], opts["p"]
        if out_channels < 1 or kh < 1 or kw < 1 or stride < 1 or padding < 0:
            raise ConfigError(f"layer {spec!r}: extents must be positive")
        fan_in = shape[0] * kh * kw
        kernel = Tensor(init(rng, (out_channels, fan_in), fan_in))
        # bias, mean and beta start at 0, std and gamma at 1
        bn = [Tensor(np.full(out_channels, n in ("std", "gamma"), np.float32)) for n in _BN_VECTORS]
        return cls(kernel, *bn, shape[0], kh, kw, stride, padding, act)


@dataclass
class ResidualBlock(Layer):
    branch1: ConvBN
    branch2: ConvBN

    layer_kind = "residual"

    def __post_init__(self):
        s1, s2 = ((b.in_channels, b.spec("residual")) for _, b in self.branches)
        if s1 != s2:
            raise InvalidModelError(f"residual branches differ: {s1} vs {s2}")

    @property
    def branches(self):
        return (("b1", self.branch1), ("b2", self.branch2))

    def out_shape(self, shape):
        return self.branch1.out_shape(shape)

    def forward(self, x):
        return residual_forward(x, self)

    def backward(self, dout, cache, need_dx=True):
        return residual_backward(dout, self, cache, need_dx)

    def params(self):
        return [
            (f"{tag}.{n}", t, tr) for tag, branch in self.branches for n, t, tr in branch.params()
        ]

    def slim(self, kept_in, kept_out):
        return ResidualBlock(*(b.slim(kept_in, kept_out) for _, b in self.branches))

    def macs(self, out_shape):
        return sum(b.macs(out_shape) for _, b in self.branches)

    def patch_bytes(self, out_shape):
        return self.branch1.patch_bytes(out_shape)  # both branches read one set of patches

    def kinks(self, cache):
        return self.branch1.kinks(cache[0]) + self.branch2.kinks(cache[1])

    def spec(self):
        return self.branch1.spec("residual")

    @classmethod
    def from_spec(cls, spec, args, shape, rng, init):
        """A `convbn` spec's fields after the head; branch 1 draws first."""
        return cls(*(ConvBN.from_spec(spec, args, shape, rng, init) for _ in range(2)))


@dataclass
class MultiHeadAttention(Layer):
    """Projection-only attention: one `Linear` per head, outputs concatenated."""

    heads: list[Linear]

    layer_kind = "mha"
    flattens = True

    def __post_init__(self):
        if not self.heads:
            raise ShapeError("attention needs at least one head")
        for h, head in enumerate(self.heads):
            if head.in_features != self.in_features:
                raise ShapeError(
                    f"attention head {h} input extent {head.in_features} differs from "
                    f"shared {self.in_features}"
                )

    @property
    def head_dims(self):
        return [head.out_features for head in self.heads]

    @property
    def in_features(self):
        return self.heads[0].in_features

    @property
    def out_features(self):
        return sum(self.head_dims)

    # one linear layer's rules, over the concatenated heads
    out_shape = Linear.out_shape
    macs = Linear.macs

    def forward(self, x):
        return attention_forward(x, self)

    def backward(self, dout, cache, need_dx=True):
        return attention_backward(dout, self, cache, need_dx)

    def params(self):
        return [
            (f"h{h}.{n}", t, tr) for h, head in enumerate(self.heads) for n, t, tr in head.params()
        ]

    def units(self):
        return [
            (f"h{h}.{label}", [(f"h{h}.{n}", a, b) for n, a, b in spans])
            for h, head in enumerate(self.heads)
            for label, spans in head.units()
        ]

    def slim(self, kept_in, kept_out):
        heads, offset = [], 0
        for head in self.heads:
            rows = [o - offset for o in kept_out if offset <= o < offset + head.out_features]
            offset += head.out_features
            if rows:  # a head with no kept row is dropped entirely
                heads.append(head.slim(kept_in, rows))
        return MultiHeadAttention(heads)

    def spec(self):
        return "mha:" + ",".join(str(d) for d in self.head_dims)

    @classmethod
    def from_spec(cls, spec, args, shape, rng, init):
        """`mha:HxM` (H heads of M rows) or `mha:m0,m1,...`; heads draw in order."""
        sep = "x" if len(args) == 1 and "x" in args[0] else ","
        dims = [_spec_int(spec, v) for v in args[0].split(sep)] if len(args) == 1 else []
        if len(args) != 1 or (sep == "x" and len(dims) != 2):
            raise ConfigError(f"layer {spec!r}: expected mha:HxM or mha:m0,m1,...")
        dims = [dims[1]] * dims[0] if sep == "x" else dims
        if not dims or any(d < 1 for d in dims):
            raise ConfigError(f"layer {spec!r}: head widths must be positive")
        return cls([Linear.drawn(d, shape, rng, init) for d in dims])


@dataclass
class Activation(Layer):
    kind: str

    layer_kind = "activation"

    def __post_init__(self):
        if self.kind not in ACTIVATIONS:
            raise ParameterError(f"unknown activation kind {self.kind!r}")

    def forward(self, x):
        return activation_forward(x, self)

    def backward(self, dout, cache, need_dx=True):
        return activation_backward(dout, self, cache)

    def kinks(self, cache):
        return [cache[0] > 0] if self.kind != "gelu" else []

    def spec(self):
        return self.kind

    @classmethod
    def from_spec(cls, spec, args, shape, rng, init):
        if args:
            raise ConfigError(f"layer {spec!r}: an activation takes no arguments")
        return cls(spec)


@dataclass
class Loss(Layer):
    """Marks the objective; the model evaluates it with `loss_forward`."""

    kind: str

    layer_kind = "loss"
    flattens = True

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ParameterError(f"unknown loss kind {self.kind!r}")

    def spec(self):
        return ""  # the config carries the loss as `model.loss`


# DSL head -> the kind that reads it (`from_spec`); the loss is not a DSL
# layer, the config names it as `model.loss`
DSL_KINDS = dict(linear=Linear, convbn=ConvBN, residual=ResidualBlock, mha=MultiHeadAttention)
DSL_KINDS.update(dict.fromkeys(ACTIVATIONS, Activation))


def _check_std(std: np.ndarray):
    if np.any(std <= 0):
        bad = int(np.argmax(std <= 0))
        raise ParameterError(f"BN std entry {bad} is {std[bad]!r}; entries must be > 0")


# ---------------------------------------------------------------------------
# linear / attention


def _affine(x64: np.ndarray, weight: Tensor, bias: Tensor, dtype):
    """``x64 @ weight.T + bias`` accumulated in float64, and the float64 weight it read.

    `x64` is (batch, n) and the weight (m, n): a linear layer's or a head's
    weight, or a conv kernel with im2col patches as the rows of `x64`. The
    weight comes back transposed, (n, m) and F-contiguous, so its ``.T`` is
    the C-contiguous (m, n) array that `_up64` of the weight gives: BLAS
    picks its kernel by layout, so the backward's dx product reads the same.
    """
    w64t = _up64(_param(weight, dtype).T)
    out = _matmul64(x64, w64t, dtype)  # a fresh array
    out += _param(bias, dtype)
    return out, w64t


def _affine_backward(d: np.ndarray, x64: np.ndarray, w64t: np.ndarray, need_dx: bool):
    """(dx or None, dweight, dbias) of `_affine` for the (batch, m) output gradient `d`."""
    dtype = d.dtype
    d64 = _up64(d)  # shared by both products and the bias sum
    dw = _matmul64(d64.T, x64, dtype)
    db = d64.sum(axis=0).astype(dtype)
    return (_matmul64(d64, w64t.T, dtype) if need_dx else None), dw, db


def _checked_out_shape(layer: Layer, shape: tuple) -> tuple:
    """`layer.out_shape(shape)`, the rule a model build applies, its fault raised as ShapeError."""
    try:
        return layer.out_shape(shape)
    except InvalidModelError as exc:
        raise ShapeError(str(exc)) from exc


def linear_forward(x: np.ndarray, layer: Linear):
    _checked_out_shape(layer, x.shape[-1:])
    lead = x.shape[:-1]
    x64 = _up64(x.reshape(-1, x.shape[-1]))
    out, w64t = _affine(x64, layer.weight, layer.bias, x.dtype)
    return out.reshape(*lead, layer.out_features), (x64, w64t, lead)


def linear_backward(dout: np.ndarray, layer: Linear, cache, need_dx=True):
    x64, w64t, lead = cache
    dx, dw, db = _affine_backward(dout.reshape(-1, layer.out_features), x64, w64t, need_dx)
    if need_dx:
        dx = dx.reshape(*lead, layer.in_features)
    return dx, {"weight": dw, "bias": db}


def attention_forward(x: np.ndarray, layer: MultiHeadAttention):
    _checked_out_shape(layer, x.shape[-1:])
    lead = x.shape[:-1]
    x64 = _up64(x.reshape(-1, x.shape[-1]))  # one upcast serves every head
    outs, w64ts = [], []
    for head in layer.heads:
        out, w64t = _affine(x64, head.weight, head.bias, x.dtype)
        outs.append(out)
        w64ts.append(w64t)
    out = np.concatenate(outs, axis=1)
    return out.reshape(*lead, layer.out_features), (x64, w64ts, lead)


def attention_backward(dout: np.ndarray, layer: MultiHeadAttention, cache, need_dx=True):
    x64, w64ts, lead = cache
    d2 = dout.reshape(-1, layer.out_features)
    grads = {}
    dx = np.zeros(x64.shape, dtype=d2.dtype) if need_dx else None
    offset = 0
    for h, (head, w64t) in enumerate(zip(layer.heads, w64ts)):
        dh = d2[:, offset : offset + head.out_features]
        dxh, grads[f"h{h}.weight"], grads[f"h{h}.bias"] = _affine_backward(dh, x64, w64t, need_dx)
        if need_dx:
            dx += dxh
        offset += head.out_features
    return (dx.reshape(*lead, layer.in_features) if need_dx else None), grads


# ---------------------------------------------------------------------------
# conv + bn

def _conv_extent(n: int, k: int, stride: int, padding: int) -> int:
    """Positions of a k-wide window stepped by `stride` over n entries padded on both sides."""
    return (n + 2 * padding - k) // stride + 1


@functools.lru_cache(maxsize=256)
def _im2col_index(c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int):
    """Flat gather index of every patch entry, and the output (oh, ow).

    Entry ``(oi, oj, ch, i, j)`` points at ``x[ch, oi*stride + i - padding,
    oj*stride + j - padding]`` in a flattened (C*H*W,) sample; a position in
    the padding points at the sentinel ``C*H*W``, a zero appended to it.
    """
    oh, ow = _conv_extent(h, kh, stride, padding), _conv_extent(w, kw, stride, padding)
    rows = (np.arange(oh) * stride)[:, None, None, None, None] + np.arange(kh)[:, None] - padding
    cols = (np.arange(ow) * stride)[None, :, None, None, None] + np.arange(kw) - padding
    chans = np.arange(c)[:, None, None]
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    idx = np.where(inside, chans * (h * w) + rows * w + cols, c * h * w)
    idx = idx.astype(np.intp).ravel()
    idx.flags.writeable = False
    return idx, oh, ow


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """(B, C, H, W) -> (B, oh, ow, C*kh*kw) float64 patches, channel-major rows.

    x is upcast as it is copied into the zero-padded buffer, one pass in
    whatever layout x has; the upcast is exact.
    """
    b, c, h, w = x.shape
    idx, oh, ow = _im2col_index(c, h, w, kh, kw, stride, padding)
    flat = np.zeros((b, c * h * w + 1), dtype=np.float64)  # last column: the padding sentinel
    flat[:, :-1].reshape(b, c, h, w)[...] = x  # the reshape of the row slice is a view
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
    return (_conv_extent(h, layer.kh, layer.stride, layer.padding),
            _conv_extent(w, layer.kw, layer.stride, layer.padding))


def conv_bn_forward(x: np.ndarray, layer: ConvBN, cols: np.ndarray | None = None):
    """Conv + activation + normalization of a (B, C, H, W) batch.

    `cols` may pass in the float64 `_im2col` patches of `x` for this layer's
    window, already built for another layer that reads the same input.
    The patches are built in float64 once, so neither the forward product nor
    the backward kernel-gradient product upcasts them again.
    """
    _, oh, ow = _checked_out_shape(layer, x.shape[1:])
    _check_std(layer.std.data)
    dtype = x.dtype
    if cols is None:
        cols = _im2col(x, layer.kh, layer.kw, layer.stride, layer.padding)
    pre, k64t = _affine(cols.reshape(-1, cols.shape[-1]), layer.kernel, layer.bias, dtype)
    pre = pre.reshape(x.shape[0], oh, ow, layer.out_channels).transpose(0, 3, 1, 2)
    act, saved = ACTIVATIONS[layer.activation][0](pre)
    mean = _param(layer.mean, dtype)[None, :, None, None]
    std = _param(layer.std, dtype)[None, :, None, None]
    gamma = _param(layer.gamma, dtype)[None, :, None, None]
    beta = _param(layer.beta, dtype)[None, :, None, None]
    xhat = act - mean
    xhat /= std
    out = xhat * gamma
    out += beta
    return out, (x.shape, cols, pre, xhat, saved, k64t)


def conv_bn_backward(dout: np.ndarray, layer: ConvBN, cache, need_dx=True):
    x_shape, cols, pre, xhat, saved, k64t = cache
    dtype = dout.dtype
    std = _param(layer.std, dtype)[None, :, None, None]
    gamma = _param(layer.gamma, dtype)[None, :, None, None]

    dgamma = (xhat * dout).sum(axis=(0, 2, 3), dtype=np.float64).astype(dtype)
    dbeta = dout.sum(axis=(0, 2, 3), dtype=np.float64).astype(dtype)
    dact = dout * gamma / std
    dpre = dact * ACTIVATIONS[layer.activation][1](pre, saved)

    dpre2 = dpre.transpose(0, 2, 3, 1).reshape(-1, layer.out_channels)
    dcols, dk, db = _affine_backward(dpre2, cols.reshape(-1, cols.shape[-1]), k64t, need_dx)
    grads = {"kernel": dk, "bias": db, "gamma": dgamma, "beta": dbeta}
    if not need_dx:
        return None, grads
    dcols = dcols.reshape(cols.shape)
    return _col2im(dcols, x_shape, layer.kh, layer.kw, layer.stride, layer.padding), grads


def residual_forward(x: np.ndarray, layer: ResidualBlock):
    _checked_out_shape(layer, x.shape[1:])
    out1, cache1 = conv_bn_forward(x, layer.branch1)
    out2, cache2 = conv_bn_forward(x, layer.branch2, cache1[1])
    return out1 + out2, (cache1, cache2)


def residual_backward(dout: np.ndarray, layer: ResidualBlock, cache, need_dx=True):
    cache1, cache2 = cache
    dx1, g1 = conv_bn_backward(dout, layer.branch1, cache1, need_dx)
    dx2, g2 = conv_bn_backward(dout, layer.branch2, cache2, need_dx)
    grads = {f"b1.{k}": v for k, v in g1.items()}
    grads.update({f"b2.{k}": v for k, v in g2.items()})
    return (dx1 + dx2 if need_dx else None), grads


def activation_forward(x: np.ndarray, layer: Activation):
    out, saved = ACTIVATIONS[layer.kind][0](x)
    return out, (x, saved)


def activation_backward(dout: np.ndarray, layer: Activation, cache):
    x, saved = cache
    return dout * ACTIVATIONS[layer.kind][1](x, saved), {}


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
        shifted = out.astype(np.float64) - out.max(axis=1, keepdims=True)
        target = np.arange(0, out.size, out.shape[1]) + y.astype(np.int64)  # flat indices
        expv = np.exp(shifted)
        total = expv.sum(axis=1, keepdims=True)
        loss = float(-(shifted.take(target) - np.log(total[:, 0])).mean())  # the target log-probs
        expv /= total  # the probabilities, in place
        expv.put(target, expv.take(target) - 1.0)
        expv /= batch
        return loss, expv.astype(out.dtype)
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
