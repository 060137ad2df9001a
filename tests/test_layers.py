import numpy as np
import pytest

import zigprune.layers as layers_module
from zigprune.config import build_layers
from zigprune.errors import InvalidModelError, ParameterError, ShapeError, TargetError
from zigprune.layers import (
    ACTIVATIONS,
    DSL_KINDS,
    Activation,
    ConvBN,
    Linear,
    MultiHeadAttention,
    ResidualBlock,
    activation_forward,
    _col2im,
    _im2col,
    attention_forward,
    check_class_targets,
    conv_bn_backward,
    conv_bn_forward,
    linear_forward,
    loss_forward,
    residual_backward,
    residual_forward,
)
from zigprune.model import ModelGraph
from zigprune.tensor import Tensor

from helpers import (
    REFERENCE_ACTIVATIONS,
    REFERENCE_LAYER_FUNCTIONS,
    attention_oracle,
    bits,
    build_random_model,
    col2im_reference,
    conv_bn_oracle,
    im2col_reference,
    linear_oracle,
    random_batch,
    reference_erf,
    reference_gelu,
    reference_gelu_deriv,
)


def make_convbn(kernel, bias, mean, std, gamma, beta, in_channels, kh, kw, **extra):
    return ConvBN(
        kernel=Tensor(np.asarray(kernel, dtype=np.float32).reshape(len(bias), -1)),
        bias=Tensor(bias),
        mean=Tensor(mean),
        std=Tensor(std),
        gamma=Tensor(gamma),
        beta=Tensor(beta),
        in_channels=in_channels,
        kh=kh,
        kw=kw,
        **extra,
    )


def random_convbn(rng, in_channels, out_channels, k, **extra):
    return ConvBN(
        kernel=Tensor(rng.standard_normal((out_channels, in_channels * k * k)).astype(np.float32)),
        bias=Tensor(rng.standard_normal(out_channels).astype(np.float32)),
        mean=Tensor(rng.standard_normal(out_channels).astype(np.float32)),
        std=Tensor(rng.uniform(0.5, 2.0, out_channels).astype(np.float32)),
        gamma=Tensor(rng.standard_normal(out_channels).astype(np.float32)),
        beta=Tensor(rng.standard_normal(out_channels).astype(np.float32)),
        in_channels=in_channels,
        kh=k,
        kw=k,
        **extra,
    )


class TestActivations:
    def test_zero_maps_to_exact_zero(self):
        zero = np.zeros(4, dtype=np.float32)
        for kind in ACTIVATIONS:
            out = ACTIVATIONS[kind][0](zero)[0]
            assert np.all(out == 0.0), kind

    def test_values(self):
        x = np.array([-1.0, 1.0], dtype=np.float32)
        assert np.allclose(ACTIVATIONS["relu"][0](x)[0], [0.0, 1.0])
        assert np.allclose(ACTIVATIONS["leaky_relu"][0](x)[0], [-0.01, 1.0])
        assert np.allclose(ACTIVATIONS["prelu"][0](x)[0], [-0.25, 1.0])
        # standard normal cdf at 1 is 0.841345
        assert np.allclose(ACTIVATIONS["gelu"][0](x)[0][1], 0.841345, atol=1e-5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            Activation("tanh")


class TestGeluDeferredErf:
    """GELU reads the NumPy port of cephes erf; it must equal SciPy's erf formula to the bit."""

    @staticmethod
    def outputs_and_grads(dtype):
        shape = (2, 5, 5)
        specs = ["convbn:3:3x3:s1:p1:gelu", "residual:3:3x3:s1:p1:gelu", "linear:6", "gelu",
                 "mha:2x3", "gelu", "linear:3"]
        m = ModelGraph(build_layers(specs, shape, "softmax_ce", "normal:0.5", 4), shape)
        rng = np.random.default_rng(5)
        x = (3 * rng.standard_normal((7, *shape))).astype(dtype)
        out, loss = m.forward(x, rng.integers(0, 3, size=7))
        return out, loss, m.layer_outputs(x), m.backward()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_matches_direct_erf_formula_bitwise(self, dtype, monkeypatch):
        out, loss, acts, grads = self.outputs_and_grads(dtype)
        # the table entry in its (forward -> (a, saved), derivative(x, saved))
        # form, with a derivative that ignores `saved` and calls erf again
        direct = (lambda x: (reference_gelu(x), None), lambda x, saved: reference_gelu_deriv(x))
        monkeypatch.setitem(ACTIVATIONS, "gelu", direct)
        ref_out, ref_loss, ref_acts, ref_grads = self.outputs_and_grads(dtype)
        assert out.dtype == dtype
        assert np.array_equal(out, ref_out)
        assert loss == ref_loss
        for a, b in zip(acts, ref_acts):
            assert np.array_equal(a, b)
        assert grads.keys() == ref_grads.keys()
        for key in grads:
            assert np.array_equal(grads[key], ref_grads[key]), key

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_functions_match_direct_erf_formula_bitwise(self, dtype):
        gelu, gelu_deriv = ACTIVATIONS["gelu"]
        x = np.linspace(-9, 9, 4001).astype(dtype)
        out, saved = gelu(x)
        assert np.array_equal(out, reference_gelu(x))
        assert np.array_equal(gelu_deriv(x, saved), reference_gelu_deriv(x))


class TestGeluAtInfinities:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_limits_without_warnings(self, dtype):
        gelu, gelu_deriv = ACTIVATIONS["gelu"]
        x = np.array([-np.inf, np.inf, -1.0, 0.0, 2.0], dtype=dtype)
        with np.errstate(all="raise"):
            out, saved = gelu(x)
            deriv = gelu_deriv(x, saved)
        assert out.dtype == deriv.dtype == dtype
        assert bits(out[:2]) == bits(np.array([0.0, np.inf], dtype=dtype))
        assert bits(deriv[:2]) == bits(np.array([0.0, 1.0], dtype=dtype))
        # finite entries keep the direct formula to the bit
        assert bits(out[2:]) == bits(reference_gelu(x[2:]))
        assert bits(deriv[2:]) == bits(reference_gelu_deriv(x[2:]))


def _float32_range(lo, hi, step=1):
    """Every `step`-th float32 from `lo` to `hi`, both included when step is 1."""
    first, last = np.array([lo, hi], dtype=np.float32).view(np.uint32)
    return np.arange(first, last + 1, step, dtype=np.uint32).view(np.float32)


class TestErfPort:
    """`layers._erf` against `scipy.special.erf`, bit for bit.

    `scripts/erf_exhaustive.py` checks every non-negative float32; these
    cover each branch and both dtypes in tier-1 time.
    """

    @staticmethod
    def assert_matches_scipy(x):
        from scipy.special import erf

        with np.errstate(invalid="raise", divide="raise", over="raise"):
            got = layers_module._erf(x)
        ref = erf(x)
        assert got.dtype == ref.dtype == x.dtype
        assert got.strides == ref.strides
        uint = np.uint32 if x.dtype == np.float32 else np.uint64
        differ = np.ascontiguousarray(got).view(uint) != np.ascontiguousarray(ref).view(uint)
        assert not differ.any(), f"{differ.sum()} differ, the first at x = {x.ravel()[differ.argmax()]!r}"

    def test_every_float32_of_the_exp_branch(self):
        # the erfc branch runs past 1, and from 6 on its 1 - erfc is exactly 1.0
        x = _float32_range(1.0, 6.0)
        assert x.size == 20_971_521
        for chunk in np.array_split(x, 16):
            self.assert_matches_scipy(chunk)

    def test_float32_small_branch_strided(self):
        x = _float32_range(0.0, 1.0, step=509)  # subnormals to 1, about 2.1M values
        self.assert_matches_scipy(np.concatenate([x, -x]))

    def test_seeded_float64(self):
        rng = np.random.default_rng(13)
        x = np.concatenate([
            rng.standard_normal(400_000) * 3,
            rng.uniform(-7.0, 7.0, 400_000),
            rng.standard_normal(200_000) * 10.0 ** rng.integers(-30, 30, 200_000),
        ])
        self.assert_matches_scipy(x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edges_and_nans(self, dtype):
        # just past 1; 6, from where erf is 1.0; 8, where cephes changes erfc
        # polynomials; either side of its erfc underflow at 26.6
        ends = np.array([np.nextafter(dtype(1), dtype(2)), 6.0, 8.0, 26.0, 27.0], dtype=dtype)
        uint = np.uint32 if dtype == np.float32 else np.uint64
        nans = np.array([np.nan, -np.nan], dtype=dtype)
        payload = (nans[:1].view(uint) + 1).view(dtype)  # a quiet NaN with a payload
        self.assert_matches_scipy(np.concatenate([_edge_values(dtype), ends, -ends, nans, payload]))

    def test_float32_signaling_nan_is_silent(self):
        # the float64 cast quiets a signaling NaN and flags it; scipy's erf
        # raises no flag, and both return the positive quiet NaN
        from scipy.special import erf

        x = np.array([0x7F800001, 0xFFA00000], dtype=np.uint32).view(np.float32)
        with np.errstate(all="raise"):
            got = layers_module._erf(x)
        assert bits(got) == bits(erf(x)) == bits(np.full(2, np.nan, dtype=np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_the_input_layout(self, dtype):
        x = 3 * np.random.default_rng(2).standard_normal((3, 4, 5, 6)).astype(dtype)
        self.assert_matches_scipy(x.transpose(0, 3, 1, 2))
        self.assert_matches_scipy(x[:, ::2, :, 1:4])


def _erf_lockstep_values(case, dtype):
    """The flat inputs of one `TestErfLockstep` case."""
    rng = np.random.default_rng(23)
    if case == "empty":
        return np.empty(0, dtype=dtype)
    if case == "at_most_one":  # only the erf rational's entries, both ends included
        return np.concatenate([[-1.0, 1.0], rng.uniform(-1.0, 1.0, 117)]).astype(dtype)
    if case == "above_one":  # only the erfc branch's entries
        above = rng.uniform(1.0, 30.0, 118) * rng.choice([-1, 1], 118)
        return np.concatenate([[-np.inf, np.inf], above]).astype(dtype)
    if case == "mixed":
        return (3 * rng.standard_normal(120)).astype(dtype)
    if case == "specials":  # signed zeros, subnormals, infinities, NaNs of either sign with payloads
        uint = np.uint32 if dtype == np.float32 else np.uint64
        nans = np.array([np.nan, -np.nan], dtype=dtype)
        payloads = (nans.view(uint) + uint(1)).view(dtype)
        return np.concatenate([_edge_values(dtype), nans, payloads, [0.5, 2.0]]).astype(dtype)
    # the float32 neighbours of the branch and polynomial edges and the erfc underflow
    ends = np.array([1.0, 6.0, 8.0, 26.6], dtype=np.float32)
    near = np.concatenate([np.nextafter(ends, np.float32(0)), ends, np.nextafter(ends, np.float32(30))])
    return np.concatenate([near, -near]).astype(dtype)


def _erf_lockstep_layout(values, layout):
    """`values` repeated into a (B, C, H, W) array of the given memory layout (B = 0 if empty)."""
    batch = 2 if values.size else 0

    def fill(*shape):
        return np.resize(values, int(np.prod(shape))).reshape(shape)

    if layout == "flat":
        return values
    if layout == "c_contiguous":
        return fill(batch, 3, 4, 5)
    if layout == "channels_last_view":  # what a conv+gelu layer hands its activation
        return fill(batch, 4, 5, 3).transpose(0, 3, 1, 2)
    return fill(batch, 6, 4, 10)[:, ::2, :, 1::2]  # a strided slice


class TestErfLockstep:
    """`layers._erf` against the both-branches form in `helpers.reference_erf`:
    the same bytes, dtype and strides, whichever branch each entry takes."""

    @pytest.mark.parametrize("layout", ["flat", "c_contiguous", "channels_last_view", "strided_slice"])
    @pytest.mark.parametrize("case", ["empty", "at_most_one", "above_one", "mixed", "specials", "neighbours"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_bitwise(self, dtype, case, layout):
        x = _erf_lockstep_layout(_erf_lockstep_values(case, dtype), layout)
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            got = layers_module._erf(x)
            ref = reference_erf(x)
        assert got.dtype == ref.dtype == dtype
        assert got.shape == ref.shape == x.shape
        assert got.strides == ref.strides
        assert bits(got) == bits(ref)


# every finite and infinite edge of both float types: signed zeros, the
# smallest and largest subnormals, the smallest normal, the float max
def _edge_values(dtype):
    info = np.finfo(dtype)
    tiny_sub = np.nextafter(dtype(0), dtype(1))
    big_sub = np.nextafter(info.smallest_normal, dtype(0))
    pos = np.array([0.0, tiny_sub, big_sub, info.smallest_normal, 1.0, info.max, np.inf], dtype=dtype)
    return np.concatenate([pos, -pos])


class TestMaxFormActivations:
    """leaky_relu and prelu as max(x, s*x) equal the where form to the bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["leaky_relu", "prelu"])
    def test_edges_bitwise(self, kind, dtype):
        x = _edge_values(dtype)
        rng = np.random.default_rng(3)
        scales = 10.0 ** rng.integers(-30, 30, 1000)
        x = np.concatenate([x, (rng.standard_normal(1000) * scales).astype(dtype)])
        out, saved = ACTIVATIONS[kind][0](x)
        ref_act, ref_deriv = REFERENCE_ACTIVATIONS[kind]
        assert out.dtype == dtype and saved is None
        assert bits(out) == bits(ref_act(x))
        assert bits(ACTIVATIONS[kind][1](x, saved)) == bits(ref_deriv(x))


def _assert_same_bits(got, ref, what):
    assert got.dtype == ref.dtype and got.shape == ref.shape, what
    assert got.strides == ref.strides, what
    assert bits(got) == bits(ref), what


def _assert_lockstep(name, layer, x, need_dx, rng):
    """`layers.<name>_forward/_backward` against the reference pair, bytes and strides."""
    forward, backward = (getattr(layers_module, f"{name}_{d}") for d in ("forward", "backward"))
    ref_forward, ref_backward = (
        REFERENCE_LAYER_FUNCTIONS[f"{name}_{d}"] for d in ("forward", "backward")
    )
    out, cache = forward(x, layer)
    ref_out, ref_cache = ref_forward(x, layer)
    _assert_same_bits(out, ref_out, "out")
    dout = rng.standard_normal(out.shape).astype(x.dtype)
    dx, grads = backward(dout, layer, cache, need_dx)
    ref_dx, ref_grads = ref_backward(dout, layer, ref_cache, need_dx)
    if need_dx:
        _assert_same_bits(dx, ref_dx, "dx")
    else:
        assert dx is None and ref_dx is None
    assert grads.keys() == ref_grads.keys()
    for key in grads:
        _assert_same_bits(grads[key], ref_grads[key], key)


def _edgy(rng, shape, dtype):
    """Normal draws scaled by 3, with some exact +0.0 and -0.0 entries."""
    x = 3 * rng.standard_normal(shape)
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x.astype(dtype)


class TestLockstepWithReference:
    """Each layer function reproduces the recomputing version in `helpers` bit for bit."""

    LEADS = [(5,), (2, 3), (0,)]
    LEAD_IDS = ["rank2", "rank3", "empty"]

    @pytest.mark.parametrize("need_dx", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", LEADS, ids=LEAD_IDS)
    def test_linear(self, lead, dtype, need_dx):
        rng = np.random.default_rng(21)
        layer = build_layers(["linear:7"], (6,), None, "normal:0.5", 3)[0]
        _assert_lockstep("linear", layer, _edgy(rng, (*lead, 6), dtype), need_dx, rng)

    @pytest.mark.parametrize("need_dx", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", LEADS, ids=LEAD_IDS)
    def test_attention(self, lead, dtype, need_dx):
        rng = np.random.default_rng(22)
        layer = build_layers(["mha:3,1,4"], (6,), None, "normal:0.5", 3)[0]
        _assert_lockstep("attention", layer, _edgy(rng, (*lead, 6), dtype), need_dx, rng)

    @pytest.mark.parametrize("need_dx", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [2, 0], ids=["batch", "empty"])
    @pytest.mark.parametrize("activation", ["relu", "leaky_relu", "prelu", "gelu"])
    @pytest.mark.parametrize("stride, padding", [(1, 1), (2, 0)])
    def test_conv_bn(self, stride, padding, activation, batch, dtype, need_dx):
        rng = np.random.default_rng(23)
        layer = random_convbn(rng, 3, 4, 3, stride=stride, padding=padding, activation=activation)
        _assert_lockstep("conv_bn", layer, _edgy(rng, (batch, 3, 6, 5), dtype), need_dx, rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["relu", "leaky_relu", "prelu", "gelu"])
    def test_activation(self, kind, dtype):
        rng = np.random.default_rng(24)
        layer = Activation(kind)
        x = np.concatenate([_edgy(rng, (40, 7), dtype), _edge_values(dtype).reshape(2, 7)])
        dout = rng.standard_normal(x.shape).astype(dtype)
        with np.errstate(over="ignore", invalid="ignore"):  # GELU at +-inf: 0 * inf
            out, cache = layers_module.activation_forward(x, layer)
            ref_out, ref_cache = REFERENCE_LAYER_FUNCTIONS["activation_forward"](x, layer)
            dx, _ = layers_module.activation_backward(dout, layer, cache)
            ref_dx, _ = REFERENCE_LAYER_FUNCTIONS["activation_backward"](dout, layer, ref_cache)
        _assert_same_bits(out, ref_out, "out")
        _assert_same_bits(dx, ref_dx, "dx")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_ce(self, dtype):
        rng = np.random.default_rng(25)
        for batch in (1, 9, 64):
            out = _edgy(rng, (batch, 10), dtype)
            y = rng.integers(0, 10, size=batch)
            loss, dout = loss_forward(out, y, "softmax_ce")
            ref_loss, ref_dout = REFERENCE_LAYER_FUNCTIONS["loss_forward"](out, y, "softmax_ce")
            assert loss == ref_loss
            _assert_same_bits(dout, ref_dout, "dout")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_model(self, seed, dtype, monkeypatch):
        """A whole model's outputs, loss and gradients under both sets of functions."""
        rng = np.random.default_rng(100 + seed)
        model = build_random_model(rng)
        x, y = random_batch(rng, model, n=5)
        x = x.astype(dtype)

        def run():
            out, loss = model.forward(x, y)
            return out, loss, model.layer_outputs(x), model.backward()

        out, loss, acts, grads = run()
        for name, ref in REFERENCE_LAYER_FUNCTIONS.items():
            monkeypatch.setattr(layers_module, name, ref)
        ref_out, ref_loss, ref_acts, ref_grads = run()
        _assert_same_bits(out, ref_out, "out")
        assert loss == ref_loss
        for i, (a, b) in enumerate(zip(acts, ref_acts)):
            _assert_same_bits(a, b, f"layer {i} output")
        assert grads.keys() == ref_grads.keys()
        for key in grads:
            _assert_same_bits(grads[key], ref_grads[key], key)


class TestConvBN:
    def test_zero_filter_row_gives_zero_output(self):
        layer = make_convbn([0.0], [0.0], [0.0], [1.0], [1.0], [0.0], 1, 1, 1)
        x = np.ones((1, 1, 1, 1), dtype=np.float32) * 3.0
        out, _ = conv_bn_forward(x, layer)
        assert np.all(out == 0.0)

    def test_direct_evaluation(self):
        # kernel 2, bias 1, pixel 3 -> relu(7) = 7
        layer = make_convbn([2.0], [1.0], [0.0], [1.0], [1.0], [0.0], 1, 1, 1)
        x = np.full((1, 1, 1, 1), 3.0, dtype=np.float32)
        out, _ = conv_bn_forward(x, layer)
        assert out.shape == (1, 1, 1, 1)
        assert np.allclose(out, 7.0)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_matches_nested_loop_oracle(self, stride, pad):
        rng = np.random.default_rng(42)
        layer = random_convbn(rng, 3, 2, 3, stride=stride, padding=pad, activation="gelu")
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        out, _ = conv_bn_forward(x, layer)
        expected = conv_bn_oracle(x, layer)
        assert out.shape == expected.shape
        assert np.abs(out - expected).max() <= 1e-6

    def test_rectangular_kernel_matches_oracle(self):
        rng = np.random.default_rng(43)
        layer = ConvBN(
            kernel=Tensor(rng.standard_normal((3, 2 * 2 * 3)).astype(np.float32)),
            bias=Tensor(rng.standard_normal(3).astype(np.float32)),
            mean=Tensor(rng.standard_normal(3).astype(np.float32)),
            std=Tensor(rng.uniform(0.5, 2.0, 3).astype(np.float32)),
            gamma=Tensor(rng.standard_normal(3).astype(np.float32)),
            beta=Tensor(rng.standard_normal(3).astype(np.float32)),
            in_channels=2,
            kh=2,
            kw=3,
            stride=2,
            padding=1,
            activation="leaky_relu",
        )
        x = rng.standard_normal((2, 2, 5, 6)).astype(np.float32)
        out, _ = conv_bn_forward(x, layer)
        expected = conv_bn_oracle(x, layer)
        assert out.shape == expected.shape
        assert np.abs(out - expected).max() <= 1e-6

    def test_channel_mismatch_names_dimension(self):
        rng = np.random.default_rng(0)
        layer = random_convbn(rng, 3, 2, 3)
        with pytest.raises(ShapeError, match="channel extent 2"):
            conv_bn_forward(np.zeros((1, 2, 4, 4), dtype=np.float32), layer)

    def test_nonpositive_std_rejected(self):
        with pytest.raises(ParameterError, match="must be > 0"):
            make_convbn([1.0], [0.0], [0.0], [0.0], [1.0], [0.0], 1, 1, 1)
        layer = make_convbn([1.0], [0.0], [0.0], [1.0], [1.0], [0.0], 1, 1, 1)
        layer.std.data[0] = -2.0
        with pytest.raises(ParameterError):
            conv_bn_forward(np.zeros((1, 1, 1, 1), dtype=np.float32), layer)

    def test_empty_output_rejected(self):
        rng = np.random.default_rng(0)
        layer = random_convbn(rng, 1, 1, 3)
        with pytest.raises(ShapeError, match="empty conv output"):
            conv_bn_forward(np.zeros((1, 1, 2, 2), dtype=np.float32), layer)


class TestLinear:
    def test_identity(self):
        layer = Linear(Tensor(np.eye(2)), Tensor(np.zeros(2)))
        out, _ = linear_forward(np.array([[3.0, -1.0]], dtype=np.float32), layer)
        assert np.array_equal(out, np.array([[3.0, -1.0]], dtype=np.float32))

    def test_zero_row_zero_bias_output_element_is_zero(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        w[2] = 0.0
        b[2] = 0.0
        layer = Linear(Tensor(w), Tensor(b))
        x = rng.standard_normal((10, 3)).astype(np.float32)
        out, _ = linear_forward(x, layer)
        assert np.all(out[:, 2] == 0.0)

    def test_matches_dot_oracle(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        x = rng.standard_normal((1, 3)).astype(np.float32)
        out, _ = linear_forward(x, Linear(Tensor(w), Tensor(b)))
        assert np.abs(out - linear_oracle(x, w, b)).max() <= 1e-6

    def test_dimension_mismatch(self):
        layer = Linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match="last extent 4"):
            linear_forward(np.zeros((1, 4), dtype=np.float32), layer)


class TestAttention:
    def test_identity_heads_concatenate(self):
        eye = np.eye(2, dtype=np.float32)
        layer = MultiHeadAttention(
            [Linear(Tensor(eye), Tensor(np.zeros(2))), Linear(Tensor(eye), Tensor(np.zeros(2)))]
        )
        out, _ = attention_forward(np.array([[1.0, 2.0]], dtype=np.float32), layer)
        assert np.array_equal(out, np.array([[1.0, 2.0, 1.0, 2.0]], dtype=np.float32))

    def test_zero_row_affects_only_that_head(self):
        rng = np.random.default_rng(3)
        w1 = rng.standard_normal((3, 2)).astype(np.float32)
        w2 = rng.standard_normal((3, 2)).astype(np.float32)
        b1 = rng.standard_normal(3).astype(np.float32)
        b2 = rng.standard_normal(3).astype(np.float32)
        w1[1] = 0.0
        b1[1] = 0.0
        layer = MultiHeadAttention(
            [Linear(Tensor(w1), Tensor(b1)), Linear(Tensor(w2), Tensor(b2))]
        )
        x = rng.standard_normal((8, 2)).astype(np.float32)
        out, _ = attention_forward(x, layer)
        assert np.all(out[:, 1] == 0.0)
        assert np.all(out[:, 3:] != 0.0)

    def test_matches_per_head_oracle(self):
        rng = np.random.default_rng(4)
        weights = [rng.standard_normal((m, 4)).astype(np.float32) for m in (3, 2)]
        biases = [rng.standard_normal(m).astype(np.float32) for m in (3, 2)]
        layer = MultiHeadAttention(
            [Linear(Tensor(w), Tensor(b)) for w, b in zip(weights, biases)]
        )
        x = rng.standard_normal((5, 4)).astype(np.float32)
        out, _ = attention_forward(x, layer)
        assert np.abs(out - attention_oracle(x, layer)).max() <= 1e-6

    def test_inconsistent_head_extents_rejected(self):
        # each head is a Linear, which checks its own weight against its bias
        with pytest.raises(ShapeError, match="bias extent"):
            MultiHeadAttention([Linear(Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))])

    def test_head_input_widths_must_agree(self):
        heads = [Linear(Tensor(np.zeros((2, n))), Tensor(np.zeros(2))) for n in (3, 4)]
        with pytest.raises(ShapeError, match="head 1 input extent 4 differs from shared 3"):
            MultiHeadAttention(heads)

    def test_needs_a_head(self):
        with pytest.raises(ShapeError, match="at least one head"):
            MultiHeadAttention([])


class TestResidual:
    def test_forward_equals_sum_of_branches(self):
        rng = np.random.default_rng(5)
        b1 = random_convbn(rng, 2, 3, 3, padding=1)
        b2 = random_convbn(rng, 2, 3, 3, padding=1)
        block = ResidualBlock(branch1=b1, branch2=b2)
        x = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
        out, _ = residual_forward(x, block)
        o1, _ = conv_bn_forward(x, b1)
        o2, _ = conv_bn_forward(x, b2)
        assert np.abs(out - (o1 + o2)).max() <= 1e-6

    def test_block_answers_with_branch_1s_shape(self):
        rng = np.random.default_rng(6)
        block = ResidualBlock(random_convbn(rng, 2, 3, 3), random_convbn(rng, 2, 3, 3))
        assert block.spec() == "residual:3:3x3:s1:p0:relu"
        assert block.out_shape((2, 5, 5)) == (3, 3, 3)
        # both branches read one set of patches, and each runs its own product
        assert block.patch_bytes((3, 3, 3)) == block.branch1.patch_bytes((3, 3, 3))
        assert block.macs((3, 3, 3)) == 2 * block.branch1.macs((3, 3, 3))

    # field -> (in_channels, out_channels, k, options) of branch 1 and branch 2
    DIFFERING_BRANCHES = {
        "window": ((2, 3, 3, {}), (2, 3, 1, {})),
        "stride": ((2, 3, 3, {}), (2, 3, 3, {"stride": 2})),
        "padding": ((2, 3, 3, {}), (2, 3, 3, {"padding": 1})),
        "activation": ((2, 3, 3, {}), (2, 3, 3, {"activation": "gelu"})),
        "width": ((2, 3, 3, {}), (2, 4, 3, {})),
        "input channels": ((2, 3, 3, {}), (1, 3, 3, {})),
        # both give (3, 5, 5) on a 5x5 input, so no output shape tells them apart
        "window and padding": ((2, 3, 3, {"padding": 1}), (2, 3, 1, {})),
    }

    @pytest.mark.parametrize("field", list(DIFFERING_BRANCHES))
    def test_constructor_refuses_differing_branches(self, field):
        rng = np.random.default_rng(6)
        b1, b2 = (
            random_convbn(rng, cin, cout, k, **options)
            for cin, cout, k, options in self.DIFFERING_BRANCHES[field]
        )
        with pytest.raises(InvalidModelError, match="residual branches differ") as refused:
            ResidualBlock(b1, b2)
        for branch in (b1, b2):
            assert str((branch.in_channels, branch.spec("residual"))) in str(refused.value)


def _rejected_inputs():
    """name -> (layer, its forward kernel, a batch the layer's `out_shape` rejects)."""
    rng = np.random.default_rng(8)
    linear = Linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
    mha = MultiHeadAttention([linear, Linear(Tensor(np.zeros((1, 3))), Tensor(np.zeros(1)))])
    conv = random_convbn(rng, 2, 3, 3)
    # both branches take 2 input channels; the batch has 3
    residual = ResidualBlock(random_convbn(rng, 2, 3, 3), random_convbn(rng, 2, 3, 3))
    return {
        "linear extent": (linear, linear_forward, np.zeros((2, 4), np.float32)),
        "mha extent": (mha, attention_forward, np.zeros((2, 3, 4), np.float32)),
        "convbn rank": (conv, conv_bn_forward, np.zeros((2, 5, 5), np.float32)),
        "convbn channels": (conv, conv_bn_forward, np.zeros((1, 3, 5, 5), np.float32)),
        "convbn empty output": (conv, conv_bn_forward, np.zeros((1, 2, 2, 2), np.float32)),
        "residual branches": (residual, residual_forward, np.zeros((1, 3, 5, 5), np.float32)),
    }


@pytest.mark.parametrize("case", list(_rejected_inputs()))
def test_kernels_check_input_with_out_shape(case):
    """A kernel rejects a batch with the text its kind's `out_shape` gives a model build."""
    layer, kernel, x = _rejected_inputs()[case]
    sample = x.shape[-1:] if layer.flattens else x.shape[1:]
    with pytest.raises(InvalidModelError) as built:
        layer.out_shape(sample)
    with pytest.raises(ShapeError) as called:
        kernel(x, layer)
    assert str(called.value) == str(built.value)


GEOMETRIES = [
    (kh, kw, stride, padding)
    for kh, kw in ((3, 3), (1, 1), (2, 3))
    for stride in (1, 2)
    for padding in (0, 1, 2)
]


class TestSkippedInputGradient:
    """need_dx=False drops dx and leaves every parameter gradient as it was."""

    @pytest.mark.parametrize(
        "spec, shape",
        [("linear:4", (5,)), ("mha:2x3", (5,)), ("convbn:3:3x3:s1:p1:relu", (2, 5, 5)),
         ("residual:3:3x3:s1:p1:gelu", (2, 5, 5))],
        ids=["linear", "mha", "convbn", "residual"],
    )
    def test_same_parameter_gradients(self, spec, shape):
        rng = np.random.default_rng(5)
        layer = build_layers([spec], shape, None, "normal:0.5", 6)[0]
        x = rng.standard_normal((3, *shape)).astype(np.float32)
        if layer.flattens:
            x = x.reshape(3, -1)
        out, cache = layer.forward(x)
        dout = rng.standard_normal(out.shape).astype(np.float32)
        dx, grads = layer.backward(dout, cache)
        none, grads_skipped = layer.backward(dout, cache, need_dx=False)
        assert dx.shape == x.shape and none is None
        assert grads.keys() == grads_skipped.keys()
        for key in grads:
            assert grads[key].tobytes() == grads_skipped[key].tobytes(), key


# one spec and input sample shape per DSL head; a head missing here fails below
BACKWARD_SPECS = {
    "linear": ("linear:4", (5,)),
    "convbn": ("convbn:3:3x3:s1:p1:relu", (2, 5, 5)),
    "residual": ("residual:3:3x3:s1:p1:gelu", (2, 5, 5)),
    "mha": ("mha:2x3", (5,)),
    "relu": ("relu", (2, 5, 5)),
    "leaky_relu": ("leaky_relu", (5,)),
    "prelu": ("prelu", (5,)),
    "gelu": ("gelu", (2, 5, 5)),
}


@pytest.mark.parametrize("head", sorted(DSL_KINDS))
def test_every_backward_takes_need_dx(head):
    """The model passes need_dx by keyword to every layer; True changes nothing."""
    spec, shape = BACKWARD_SPECS[head]
    rng = np.random.default_rng(7)
    layer = build_layers([spec], shape, None, "normal:0.5", 8)[0]
    x = rng.standard_normal((3, *shape)).astype(np.float32)
    if layer.flattens:
        x = x.reshape(3, -1)
    out, cache = layer.forward(x)
    dout = rng.standard_normal(out.shape).astype(np.float32)
    dx, grads = layer.backward(dout, cache)
    dx_kw, grads_kw = layer.backward(dout, cache, need_dx=True)
    assert dx.shape == x.shape and dx.tobytes() == dx_kw.tobytes()
    assert grads.keys() == grads_kw.keys()
    for key in grads:
        assert grads[key].tobytes() == grads_kw[key].tobytes(), key


class TestBitExactConvPath:
    """The conv data movement reproduces the strided reference bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kh, kw, stride, padding", GEOMETRIES)
    def test_im2col_matches_reference(self, dtype, kh, kw, stride, padding):
        rng = np.random.default_rng(13)
        for shape in ((2, 3, 5, 7), (1, 2, 9, 3)):
            x = rng.standard_normal(shape).astype(dtype)
            # a conv output: (B, C, H, W) strides over channels-last memory
            x_cl = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
            ref = im2col_reference(x, kh, kw, stride, padding)
            for inp in (x, x_cl):
                cols = _im2col(inp, kh, kw, stride, padding)
                # the patches are float64 whatever the input dtype: the upcast is exact
                assert cols.dtype == np.float64
                assert np.array_equal(cols, ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kh, kw, stride, padding", GEOMETRIES)
    def test_col2im_matches_reference(self, dtype, kh, kw, stride, padding):
        rng = np.random.default_rng(14)
        for shape in ((2, 3, 5, 7), (1, 2, 9, 3)):
            cols_shape = im2col_reference(np.zeros(shape, dtype), kh, kw, stride, padding).shape
            dcols = rng.standard_normal(cols_shape).astype(dtype)
            dx = _col2im(dcols, shape, kh, kw, stride, padding)
            ref = col2im_reference(dcols, shape, kh, kw, stride, padding)
            assert dx.dtype == ref.dtype
            assert np.array_equal(dx, ref)
            # float64 sums over dx run in an order set by its strides
            assert dx.strides == ref.strides

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_residual_equals_independent_branches(self, dtype):
        rng = np.random.default_rng(15)
        b1 = random_convbn(rng, 2, 3, 3, padding=1)
        b2 = random_convbn(rng, 2, 3, 3, padding=1)
        block = ResidualBlock(branch1=b1, branch2=b2)
        x = rng.standard_normal((2, 2, 5, 5)).astype(dtype)
        dout = rng.standard_normal((2, 3, 5, 5)).astype(dtype)

        out, cache = residual_forward(x, block)
        assert cache[1][1] is cache[0][1]  # both branches read one im2col
        o1, c1 = conv_bn_forward(x, b1)
        o2, c2 = conv_bn_forward(x, b2)
        assert np.array_equal(out, o1 + o2)

        dx, grads = residual_backward(dout, block, cache)
        dx1, g1 = conv_bn_backward(dout, b1, c1)
        dx2, g2 = conv_bn_backward(dout, b2, c2)
        assert np.array_equal(dx, dx1 + dx2)
        expected = {**{f"b1.{k}": v for k, v in g1.items()}, **{f"b2.{k}": v for k, v in g2.items()}}
        assert grads.keys() == expected.keys()
        for key, grad in expected.items():
            assert grads[key].dtype == grad.dtype
            assert np.array_equal(grads[key], grad), key

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_matches_strided_reference(self, monkeypatch, dtype):
        # float64 grads expose a changed summation order that a float32 cast may hide
        specs = ["convbn:3:3x3:s1:p1:relu", "residual:4:3x3:s2:p1:leaky_relu",
                 "residual:4:1x1:s1:p0:relu", "convbn:2:2x3:s1:p2:gelu", "linear:3"]
        model = ModelGraph(build_layers(specs, (2, 7, 9), "softmax_ce", "normal:0.5", 3), (2, 7, 9))
        rng = np.random.default_rng(16)
        x = rng.standard_normal((4, 2, 7, 9)).astype(dtype)
        y = rng.integers(0, 3, size=4)

        def run():
            out, loss = model.forward(x, y)
            return out, loss, model.backward()

        out, loss, grads = run()
        monkeypatch.setattr(layers_module, "_im2col", im2col_reference)
        monkeypatch.setattr(layers_module, "_col2im", col2im_reference)
        ref_out, ref_loss, ref_grads = run()
        assert np.array_equal(out, ref_out)
        assert loss == ref_loss
        for key, grad in ref_grads.items():
            assert np.array_equal(grads[key], grad), key


class TestLosses:
    def test_softmax_ce_matches_manual(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((4, 3)).astype(np.float32)
        y = np.array([0, 2, 1, 2])
        loss, dout = loss_forward(logits, y, "softmax_ce")
        z = logits.astype(np.float64)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        assert abs(loss - (-logp[np.arange(4), y].mean())) <= 1e-9
        probs = np.exp(logp)
        probs[np.arange(4), y] -= 1
        assert np.abs(dout - probs / 4).max() <= 1e-6

    def test_mse_is_mean_of_per_sample_squared_error(self):
        out = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=np.float32)
        y = np.array([[0.0, 0.0], [0.0, 0.0]], dtype=np.float32)
        loss, dout = loss_forward(out, y, "mse")
        assert abs(loss - (1 + 4 + 0 + 1) / 2) <= 1e-9
        assert np.allclose(dout, 2 * out / 2)

    def test_target_shape_errors(self):
        with pytest.raises(ShapeError):
            loss_forward(np.zeros((2, 3), dtype=np.float32), np.array([0]), "softmax_ce")
        with pytest.raises(ShapeError):
            loss_forward(
                np.zeros((2, 3), dtype=np.float32),
                np.zeros((2, 2), dtype=np.float32),
                "mse",
            )

    def test_class_targets_in_range_pass(self):
        check_class_targets(np.array([0, 2, 1, 2]), 3)
        check_class_targets(np.array([0.0, 2.0]), 3)
        check_class_targets(np.array([], dtype=np.int64), 3)

    @pytest.mark.parametrize(
        "targets, bad",
        [([0, 3, 1], "3"), ([0, -1], "-1"), ([1.0, 0.5], "0.5"), ([0.0, np.nan], "nan")],
    )
    def test_class_targets_out_of_range_or_fractional_fail(self, targets, bad):
        with pytest.raises(TargetError, match=rf"sample 1: class target {bad} .*\[0, 3\)"):
            check_class_targets(np.array(targets), 3)

    def test_activation_layer_forward(self):
        x = np.array([[-2.0, 2.0]], dtype=np.float32)
        out, _ = activation_forward(x, Activation("relu"))
        assert np.array_equal(out, np.array([[0.0, 2.0]], dtype=np.float32))
