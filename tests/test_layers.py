import numpy as np
import pytest

import zigprune.layers as layers_module
from zigprune.config import build_layers
from zigprune.errors import ParameterError, ShapeError, TargetError
from zigprune.layers import (
    ACTIVATIONS,
    Activation,
    ConvBN,
    Linear,
    MultiHeadAttention,
    ResidualBlock,
    activation_forward,
    apply_activation,
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
    attention_oracle,
    col2im_reference,
    conv_bn_oracle,
    im2col_reference,
    linear_oracle,
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
            out = apply_activation(zero, kind)
            assert np.all(out == 0.0), kind

    def test_values(self):
        x = np.array([-1.0, 1.0], dtype=np.float32)
        assert np.allclose(apply_activation(x, "relu"), [0.0, 1.0])
        assert np.allclose(apply_activation(x, "leaky_relu"), [-0.01, 1.0])
        assert np.allclose(apply_activation(x, "prelu"), [-0.25, 1.0])
        # standard normal cdf at 1 is 0.841345
        assert np.allclose(apply_activation(x, "gelu")[1], 0.841345, atol=1e-5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            Activation("tanh")


class TestGeluDeferredErf:
    """scipy loads on GELU's first call; the function must stay the same to the bit."""

    @staticmethod
    def direct_gelu():
        from scipy.special import erf

        inv_sqrt2 = float(1.0 / np.sqrt(2.0))
        inv_sqrt_2pi = float(1.0 / np.sqrt(2.0 * np.pi))

        def gelu(x):
            return (0.5 * x * (1.0 + erf(x * inv_sqrt2))).astype(x.dtype)

        def gelu_deriv(x):
            cdf = 0.5 * (1.0 + erf(x * inv_sqrt2))
            pdf = np.exp(-0.5 * x * x) * inv_sqrt_2pi
            return (cdf + x * pdf).astype(x.dtype)

        return gelu, gelu_deriv

    @staticmethod
    def outputs_and_grads(dtype):
        shape = (2, 5, 5)
        specs = ["convbn:3:3x3:s1:p1:gelu", "residual:3:3x3:s1:p1:gelu", "linear:6", "gelu",
                 "mha:2x3", "gelu", "linear:3"]
        m = ModelGraph(build_layers(specs, shape, "softmax_ce", "normal:0.5", 4), shape)
        rng = np.random.default_rng(5)
        x = (3 * rng.standard_normal((7, *shape))).astype(dtype)
        out, loss = m.forward(x, rng.integers(0, 3, size=7))
        return out, loss, m.layer_outputs(), m.backward()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_matches_direct_erf_formula_bitwise(self, dtype, monkeypatch):
        out, loss, acts, grads = self.outputs_and_grads(dtype)
        monkeypatch.setitem(ACTIVATIONS, "gelu", self.direct_gelu())
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
        gelu, gelu_deriv = self.direct_gelu()
        x = np.linspace(-9, 9, 4001).astype(dtype)
        assert np.array_equal(apply_activation(x, "gelu"), gelu(x))
        assert np.array_equal(layers_module.activation_deriv(x, "gelu"), gelu_deriv(x))


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
        with pytest.raises(ShapeError, match="spatial"):
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
            weights=[Tensor(eye), Tensor(eye)],
            biases=[Tensor(np.zeros(2)), Tensor(np.zeros(2))],
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
            weights=[Tensor(w1), Tensor(w2)], biases=[Tensor(b1), Tensor(b2)]
        )
        x = rng.standard_normal((8, 2)).astype(np.float32)
        out, _ = attention_forward(x, layer)
        assert np.all(out[:, 1] == 0.0)
        assert np.all(out[:, 3:] != 0.0)

    def test_matches_per_head_oracle(self):
        rng = np.random.default_rng(4)
        layer = MultiHeadAttention(
            weights=[
                Tensor(rng.standard_normal((3, 4)).astype(np.float32)),
                Tensor(rng.standard_normal((2, 4)).astype(np.float32)),
            ],
            biases=[
                Tensor(rng.standard_normal(3).astype(np.float32)),
                Tensor(rng.standard_normal(2).astype(np.float32)),
            ],
        )
        x = rng.standard_normal((5, 4)).astype(np.float32)
        out, _ = attention_forward(x, layer)
        assert np.abs(out - attention_oracle(x, layer)).max() <= 1e-6

    def test_inconsistent_head_extents_rejected(self):
        with pytest.raises(ShapeError, match="head 0"):
            MultiHeadAttention(
                weights=[Tensor(np.zeros((3, 2)))], biases=[Tensor(np.zeros(2))]
            )


class TestResidual:
    def test_forward_equals_sum_of_branches(self):
        rng = np.random.default_rng(5)
        b1 = random_convbn(rng, 2, 3, 3, padding=1)
        b2 = random_convbn(rng, 2, 3, 3, padding=1, activation="leaky_relu")
        block = ResidualBlock(branch1=b1, branch2=b2)
        x = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
        out, _ = residual_forward(x, block)
        o1, _ = conv_bn_forward(x, b1)
        o2, _ = conv_bn_forward(x, b2)
        assert np.abs(out - (o1 + o2)).max() <= 1e-6


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


class TestBitExactConvPath:
    """The conv data movement reproduces the strided reference bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kh, kw, stride, padding", GEOMETRIES)
    def test_im2col_matches_reference(self, dtype, kh, kw, stride, padding):
        rng = np.random.default_rng(13)
        for shape in ((2, 3, 5, 7), (1, 2, 9, 3)):
            x = rng.standard_normal(shape).astype(dtype)
            cols = _im2col(x, kh, kw, stride, padding)
            ref = im2col_reference(x, kh, kw, stride, padding)
            assert cols.dtype == ref.dtype
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
    @pytest.mark.parametrize("k2, p2", [(3, 1), (1, 0)], ids=["shared-cols", "own-cols"])
    def test_residual_equals_independent_branches(self, dtype, k2, p2):
        rng = np.random.default_rng(15)
        b1 = random_convbn(rng, 2, 3, 3, padding=1)
        b2 = random_convbn(rng, 2, 3, k2, padding=p2, activation="leaky_relu")
        block = ResidualBlock(branch1=b1, branch2=b2)
        x = rng.standard_normal((2, 2, 5, 5)).astype(dtype)
        dout = rng.standard_normal((2, 3, 5, 5)).astype(dtype)

        out, cache = residual_forward(x, block)
        assert (cache[1][1] is cache[0][1]) == (k2 == 3)  # one im2col when windows agree
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
