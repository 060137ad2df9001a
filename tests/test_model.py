import struct
import tracemalloc

import numpy as np
import pytest

from zigprune.config import build_layers
from zigprune.errors import FormatError, InvalidModelError, ShapeError, StateError
from zigprune.layers import Activation, ConvBN, Linear, Loss, ResidualBlock, weight_init
from zigprune.model import EVAL_CHUNK, PATCH_BYTES, ModelGraph, finite_difference_check, infer_shapes
from zigprune.tensor import CHECKPOINT_MAGIC, Tensor, load_arrays, save_arrays

from helpers import bits, build_random_model, linear_oracle, random_batch


def mlp(widths, input_dim, loss="mse", seed=0, init="normal:0.5"):
    specs = []
    for w in widths[:-1]:
        specs.extend([f"linear:{w}", "relu"])
    specs.append(f"linear:{widths[-1]}")
    layers = build_layers(specs, (input_dim,), loss, init, seed)
    return ModelGraph(layers, (input_dim,))


class TestForward:
    def test_empty_model_is_identity(self):
        m = ModelGraph([], (3,))
        x = np.random.default_rng(0).standard_normal((4, 3)).astype(np.float32)
        out, loss = m.forward(x)
        assert np.array_equal(out, x)
        assert loss is None

    def test_three_layer_mlp_matches_oracle_composition(self):
        rng = np.random.default_rng(1)
        m = mlp([5, 4, 3], 6, seed=2)
        x = rng.standard_normal((2, 6)).astype(np.float32)
        out, _ = m.forward(x)
        v = x
        for layer in m.layers:
            if isinstance(layer, Linear):
                v = linear_oracle(v, layer.weight.data, layer.bias.data)
            elif isinstance(layer, Activation):
                v = np.maximum(v, 0)
        assert np.abs(out - v).max() <= 1e-5

    def test_forward_determinism_is_bitwise(self):
        rng = np.random.default_rng(3)
        m = build_random_model(rng)
        x, y = random_batch(rng, m)
        out1, loss1 = m.forward(x, y)
        out2, loss2 = m.forward(x, y)
        assert np.array_equal(out1, out2)
        assert loss1 == loss2

    def test_input_shape_validated(self):
        m = mlp([3], 4)
        with pytest.raises(ShapeError, match="input sample shape"):
            m.forward(np.zeros((2, 5), dtype=np.float32))

    def test_conv_to_linear_flattening(self):
        layers = build_layers(
            ["convbn:3:3x3:s1:p1:relu", "linear:4"], (2, 4, 4), "mse", "normal:0.5", 7
        )
        m = ModelGraph(layers, (2, 4, 4))
        out, _ = m.forward(np.ones((2, 2, 4, 4), dtype=np.float32))
        assert out.shape == (2, 4)


class TestInvalidModels:
    def test_residual_branch_mismatch(self):
        from zigprune.layers import ResidualBlock

        b1 = build_layers(["convbn:3:1x1"], (2, 4, 4), None, "zeros", 0)[0]
        b2 = build_layers(["convbn:4:1x1"], (2, 4, 4), None, "zeros", 0)[0]
        with pytest.raises(InvalidModelError, match="residual branch"):
            ModelGraph([ResidualBlock(branch1=b1, branch2=b2)], (2, 4, 4))

    def test_loss_must_be_last(self):
        layers = build_layers(["linear:3"], (4,), "mse", "zeros", 0)
        layers.insert(0, Loss("mse"))
        with pytest.raises(InvalidModelError, match="must be last"):
            ModelGraph(layers, (4,))

    def test_adjacent_extent_mismatch(self):
        layers = build_layers(["linear:3"], (4,), None, "zeros", 0)
        layers.append(
            Linear(Tensor(np.zeros((2, 5), dtype=np.float32)), Tensor(np.zeros(2)))
        )
        with pytest.raises(InvalidModelError, match="does not match expected 5"):
            ModelGraph(layers, (4,))

    def test_conv_needs_spatial_input(self):
        layers = build_layers(["linear:4"], (4,), None, "zeros", 0)
        conv = build_layers(["convbn:2:1x1"], (1, 2, 2), None, "zeros", 0)[0]
        with pytest.raises(InvalidModelError, match="needs a"):
            ModelGraph(layers + [conv], (4,))


class TestBackward:
    def test_linear_mse_closed_form_gradient(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((3, 2)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        m = ModelGraph([Linear(Tensor(w), Tensor(b)), Loss("mse")], (2,))
        x = rng.standard_normal((1, 2)).astype(np.float32)
        y = rng.standard_normal((1, 3)).astype(np.float32)
        _, loss = m.forward(x, y)
        grads = m.backward()
        r = (w @ x[0] + b - y[0]).astype(np.float64)
        assert np.abs(grads["L0.weight"] - 2 * np.outer(r, x[0])).max() <= 1e-5
        assert np.abs(grads["L0.bias"] - 2 * r).max() <= 1e-5

    def test_backward_before_forward_is_state_error(self):
        m = mlp([3], 4)
        with pytest.raises(StateError, match="before forward"):
            m.backward()

    def test_backward_without_loss_is_state_error(self):
        m = mlp([3], 4)
        m.forward(np.zeros((1, 4), dtype=np.float32))
        with pytest.raises(StateError, match="loss"):
            m.backward()

    @pytest.mark.parametrize(
        "bad_x, bad_y",
        [((2, 5), (2, 3)), ((2, 4), (2, 2))],
        ids=["input-shape", "loss-layer"],
    )
    def test_failed_forward_leaves_no_record(self, bad_x, bad_y):
        # a pass that raises must not leave the previous batch's tape behind
        m = mlp([3], 4)
        m.forward(np.ones((2, 4), dtype=np.float32), np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            m.forward(np.ones(bad_x, dtype=np.float32), np.zeros(bad_y, dtype=np.float32))
        with pytest.raises(StateError):
            m.backward()

    def test_constant_output_model_has_zero_gradients(self):
        # second layer all zeros blocks every gradient path to the first layer
        m = mlp([4, 3], 5, seed=8)
        second = [l for l in m.layers if isinstance(l, Linear)][1]
        second.weight.data[...] = 0.0
        second.bias.data[...] = 0.0
        x = np.random.default_rng(9).standard_normal((3, 5)).astype(np.float32)
        y = np.zeros((3, 3), dtype=np.float32)
        m.forward(x, y)
        grads = m.backward()
        assert np.all(grads["L0.weight"] == 0.0)
        assert np.all(grads["L0.bias"] == 0.0)


PREDICT_MODELS = {
    "mlp": (["linear:16", "relu", "linear:8", "leaky_relu", "linear:3"], (6,)),
    "conv": (
        ["convbn:4:3x3:s1:p1:relu", "residual:4:3x3:s1:p1:gelu", "convbn:6:3x3:s2:p1:prelu",
         "linear:3"],
        (2, 6, 6),
    ),
    "attention": (["linear:8", "gelu", "mha:2x3", "prelu", "linear:3"], (5,)),
}

MNIST_SHAPE = (1, 28, 28)
# an MNIST-shaped conv model: its float32 evaluation chunk is a few samples, not EVAL_CHUNK
MNIST_MODEL = (["convbn:8:3x3:s1:p1:relu", "residual:8:3x3:s1:p1:gelu", "linear:3"], MNIST_SHAPE)


def predict_model(kind, seed=0):
    specs, shape = MNIST_MODEL if kind == "mnist" else PREDICT_MODELS[kind]
    return ModelGraph(build_layers(specs, shape, "softmax_ce", "normal:0.5", seed), shape)


class TestPredict:
    @pytest.mark.parametrize(
        "kind, dtype, n",
        [(kind, np.float32, n) for kind in sorted(PREDICT_MODELS) for n in (0, 1, 255, 256, 257, 700)]
        + [(kind, np.float64, n) for kind in sorted(PREDICT_MODELS) for n in (0, 1, 255, 256)]
        + [("mnist", np.float32, n) for n in (0, 1, 256, 300)]
        + [("mnist", np.float64, n) for n in (0, 1, 256)],
    )
    def test_equals_forward_bitwise(self, kind, dtype, n):
        # chunk boundaries fall inside the batch for n > the model's chunk:
        # EVAL_CHUNK, or a few samples for the MNIST-shaped model in float32
        m = predict_model(kind)
        x = np.random.default_rng(n).standard_normal((n, *m.input_shape)).astype(dtype)
        out = m.predict(x)
        ref, _ = m.forward(x)
        assert out.dtype == ref.dtype == dtype
        assert out.shape == ref.shape == (n, 3)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize(
        "kind, n", [(kind, n) for kind in sorted(PREDICT_MODELS) for n in (257, 700)] + [("mnist", 300)]
    )
    def test_float64_chunks_agree_to_rounding(self, kind, n):
        # OpenBLAS picks its dgemm kernel by problem size (a small-matrix
        # kernel below a size threshold, gemv for one row), so a float64
        # product's last bits depend on its row count; float32 runs round them away
        m = predict_model(kind)
        x = np.random.default_rng(n).standard_normal((n, *m.input_shape))
        out = m.predict(x)
        ref, _ = m.forward(x)
        assert out.dtype == ref.dtype == np.float64
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", sorted(PREDICT_MODELS))
    def test_layer_outputs_match_forward(self, kind):
        m = predict_model(kind)
        x = np.random.default_rng(3).standard_normal((5, *m.input_shape)).astype(np.float32)
        outputs = m.layer_outputs(x)
        assert len(outputs) == len(m.layers)
        for out, shape in zip(outputs, m.shapes):
            assert out.shape == (5, *shape)
        assert np.array_equal(outputs[-1], m.forward(x)[0])

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.bool_])
    def test_non_float_inputs_predict_like_their_float32_cast(self, dtype):
        m = predict_model("mlp")
        x = np.random.default_rng(4).integers(-3, 4, size=(5, *m.input_shape)).astype(dtype)
        out = m.predict(x)
        assert out.dtype == np.float32
        assert bits(out) == bits(m.predict(x.astype(np.float32)))

    def test_input_shape_validated(self):
        with pytest.raises(ShapeError, match="input sample shape"):
            predict_model("mlp").layer_outputs(np.zeros((2, 5), dtype=np.float32))
        with pytest.raises(ShapeError, match="input sample shape"):
            predict_model("mlp").predict(np.zeros((2, 5), dtype=np.float32))

    def test_fresh_model_keeps_no_record(self):
        m = predict_model("conv")
        x = np.ones((3, *m.input_shape), dtype=np.float32)
        m.predict(x)
        m.layer_outputs(x)
        with pytest.raises(StateError, match="before forward"):
            m.backward()

    @pytest.mark.parametrize("kind", sorted(PREDICT_MODELS))
    def test_leaves_forward_record_alone(self, kind):
        rng = np.random.default_rng(1)
        m = predict_model(kind)
        x = rng.standard_normal((4, *m.input_shape)).astype(np.float32)
        y = np.array([0, 2, 1, 2])
        m.forward(x, y)
        expected = {k: g.copy() for k, g in m.backward().items()}
        m.forward(x, y)
        other = rng.standard_normal((300, *m.input_shape)).astype(np.float32)
        m.predict(other)
        m.layer_outputs(other)
        grads = m.backward()
        assert grads.keys() == expected.keys()
        for key, g in expected.items():
            assert np.array_equal(grads[key], g), key
            assert np.array_equal(m.params[key].grad, g), key

    def test_memory_is_bounded_by_the_chunk(self):
        shape = (1, 12, 12)
        layers = build_layers(
            ["convbn:16:3x3:s1:p1:relu", "residual:16:3x3:s1:p1:relu",
             "convbn:32:3x3:s2:p1:relu", "residual:32:3x3:s1:p1:relu", "linear:10"],
            shape, "softmax_ce", "normal:0.1", 0,
        )
        m = ModelGraph(layers, shape)
        x = np.random.default_rng(2).standard_normal((4 * EVAL_CHUNK, *shape)).astype(np.float32)
        peaks = []
        for n in (EVAL_CHUNK, 4 * EVAL_CHUNK):
            tracemalloc.start()
            try:
                m.predict(x[:n])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]


# (input shape, channels, whether the residual branches share one window)
CHUNK_MODELS = [
    pytest.param(shape, channels, shared, id=f"{shape[1]}x{shape[2]}-{'shared' if shared else 'own'}")
    for shape, channels in (((1, 8, 8), 4), ((1, 12, 12), 4), (MNIST_SHAPE, 8))
    for shared in (True, False)
]


def chunk_model(shape, channels, shared, seed=0):
    """A conv layer, a residual block (3x3 and, unless `shared`, 5x5 branches) and a linear layer."""
    rng, draw = np.random.default_rng(seed), weight_init("normal:0.5")
    first = ConvBN.from_spec("convbn", [str(channels), "3x3", "p1"], shape, rng, draw)
    inner = first.out_shape(shape)
    window = ["3x3", "p1"] if shared else ["5x5", "p2"]
    block = ResidualBlock(
        ConvBN.from_spec("residual", [str(channels), "3x3", "p1"], inner, rng, draw),
        ConvBN.from_spec("residual", [str(channels), *window], inner, rng, draw),
    )
    assert block.shares_patches == shared
    head = Linear.drawn(3, inner, rng, draw)
    return ModelGraph([first, block, head, Loss("softmax_ce")], shape)


def spy_conv_calls(monkeypatch):
    """Record (layer, input, bytes of float64 patches built) for every conv+bn call."""
    import zigprune.layers as layers_module

    calls = []
    original = layers_module.conv_bn_forward

    def spy(x, layer, cols=None):
        out, cache = original(x, layer, cols)
        calls.append((layer, x, 0 if cols is not None else cache[1].nbytes))
        return out, cache

    monkeypatch.setattr(layers_module, "conv_bn_forward", spy)
    return calls


class TestEvalChunk:
    """A predict() chunk bounds the float64 patches of every conv layer."""

    def test_layer_outputs_equal_the_recording_pass(self):
        m = predict_model("mnist")
        x = np.random.default_rng(4).standard_normal((EVAL_CHUNK, *MNIST_SHAPE)).astype(np.float32)
        outputs = m.layer_outputs(x)
        recorded = []
        m._run(m._input(x), tape=[], outputs=recorded)
        assert len(outputs) == len(recorded) == len(m.layers)
        for out, ref in zip(outputs, recorded):
            assert out.dtype == ref.dtype
            assert out.strides == ref.strides  # the layout one call returns
            assert np.array_equal(out, ref)

    def test_recording_forward_is_one_call_per_conv(self, monkeypatch):
        calls = spy_conv_calls(monkeypatch)
        m = predict_model("mnist")
        x = np.random.default_rng(5).standard_normal((EVAL_CHUNK, *MNIST_SHAPE)).astype(np.float32)
        m.forward(x)
        batches = [len(cx) for _, cx, _ in calls]
        assert batches == [EVAL_CHUNK] * 3  # the conv layer and both residual branches
        calls.clear()
        m.predict(x)
        batches = [len(cx) for _, cx, _ in calls]
        assert len(batches) > 3 and sum(batches) == 3 * EVAL_CHUNK

    @pytest.mark.parametrize("n", [0, 1, 255, 300])
    @pytest.mark.parametrize("shape, channels, shared", CHUNK_MODELS)
    def test_chunks_cover_every_sample_within_the_patch_budget(
        self, monkeypatch, shape, channels, shared, n
    ):
        m = chunk_model(shape, channels, shared)
        calls = spy_conv_calls(monkeypatch)
        x = np.random.default_rng(n).standard_normal((n, *shape)).astype(np.float32)
        m.predict(x)
        chunks = [cx for layer, cx, _ in calls if layer is m.layers[0]]
        assert np.array_equal(np.concatenate(chunks), x)  # every sample, in order
        sizes = [len(cx) for cx in chunks]
        assert len(set(sizes[:-1])) <= 1 and sizes[-1] <= sizes[0]
        second = m.layers[1].branch2
        widest = 0.0  # the most patch bytes one sample held
        for i, (layer, cx, built) in enumerate(calls):
            # branch 2 runs while branch 1's patches are still held
            held = built + (calls[i - 1][2] if layer is second else 0)
            assert held <= PATCH_BYTES or len(cx) == 1
            widest = max(widest, held / max(len(cx), 1))
        if len(sizes) > 1:  # the chunk is as large as the budget allows
            assert sizes[0] == EVAL_CHUNK or (sizes[0] + 1) * widest > PATCH_BYTES

    @pytest.mark.parametrize("n", [0, 1, 255, 300])
    @pytest.mark.parametrize("shape, channels, shared", CHUNK_MODELS[:4])
    def test_float64_inputs_run_eval_chunk_chunks(self, monkeypatch, shape, channels, shared, n):
        m = chunk_model(shape, channels, shared)
        calls = spy_conv_calls(monkeypatch)
        m.predict(np.random.default_rng(n).standard_normal((n, *shape)))
        sizes = [len(cx) for layer, cx, _ in calls if layer is m.layers[0]]
        assert sizes == [min(EVAL_CHUNK, n - s) for s in range(0, max(n, 1), EVAL_CHUNK)]

    def test_mnist_shape_evaluation_memory(self):
        # one 256-sample chunk's 16-channel float64 patches alone are 231 MB
        specs = ["convbn:16:3x3:s1:p1:relu", "residual:16:3x3:s1:p1:relu", "linear:10"]
        m = ModelGraph(build_layers(specs, MNIST_SHAPE, "softmax_ce", "normal:0.1", 0), MNIST_SHAPE)
        x = np.random.default_rng(6).standard_normal((EVAL_CHUNK, *MNIST_SHAPE)).astype(np.float32)
        tracemalloc.start()
        try:
            m.predict(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestFiniteDifferences:
    def test_linear_model(self):
        rng = np.random.default_rng(12)
        m = mlp([4, 3], 5, loss="softmax_ce", seed=13)
        x = rng.standard_normal((4, 5)).astype(np.float32)
        y = rng.integers(0, 3, size=4)
        assert finite_difference_check(m, x, y, h=1e-3) <= 1e-3

    def test_toy_cnn_with_all_layer_kinds(self):
        rng = np.random.default_rng(14)
        specs = [
            "convbn:3:3x3:s1:p1:gelu",
            "residual:4:3x3:s1:p1:leaky_relu",
            "mha:2x3",
            "prelu",
            "linear:3",
        ]
        layers = build_layers(specs, (2, 5, 5), "softmax_ce", "normal:0.5", 15)
        m = ModelGraph(layers, (2, 5, 5))
        x = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
        y = rng.integers(0, 3, size=2)
        assert finite_difference_check(m, x, y, h=1e-3) <= 1e-3

    @pytest.mark.parametrize("head", [[], ["relu"]], ids=["linear", "relu-linear"])
    def test_first_parameterized_layer_flattens_its_input(self, head):
        # that layer computes no dx, so no (C, H, W) input gradient is reshaped
        rng = np.random.default_rng(18)
        specs = [*head, "linear:4", "leaky_relu", "linear:3"]
        m = ModelGraph(build_layers(specs, (2, 3, 3), "mse", "normal:0.5", 19), (2, 3, 3))
        x = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        y = rng.standard_normal((4, 3)).astype(np.float32)
        assert finite_difference_check(m, x, y, h=1e-3) <= 1e-3
        m.forward(x, y)
        assert sorted(m.backward()) == sorted(m.params)

    def test_zero_parameter_model(self):
        m = ModelGraph([Activation("relu"), Loss("mse")], (3,))
        x = np.ones((2, 3), dtype=np.float32)
        y = np.zeros((2, 3), dtype=np.float32)
        assert finite_difference_check(m, x, y) == 0.0

    def test_nan_weight_fails_the_gate(self):
        # a NaN relative error must reach the result, which fails `<= 1e-3`
        rng = np.random.default_rng(16)
        m = mlp([4, 3], 5, loss="mse", seed=17)
        m.params["L0.weight"].data[1, 2] = np.nan
        x = rng.standard_normal((4, 5)).astype(np.float32)
        y = rng.standard_normal((4, 3)).astype(np.float32)
        with np.errstate(invalid="ignore"):
            assert np.isnan(finite_difference_check(m, x, y, h=1e-3))

    def test_parameter_whose_steps_round_to_itself_is_skipped(self):
        # float32(1e8 +- 1e-3) == 1e8: no difference quotient exists, so that
        # weight is skipped; the zero input it multiplies keeps the loss exact
        m = mlp([1], 2, loss="mse", seed=20)
        m.params["L0.weight"].data[0, 0] = 1e8
        x = np.array([[0.0, 1.5], [0.0, -0.5]], dtype=np.float32)
        y = np.array([[0.2], [0.7]], dtype=np.float32)
        forward, calls = m.forward, []

        def counted(*args):
            calls.append(1)
            return forward(*args)

        m.forward = counted
        assert finite_difference_check(m, x, y, h=1e-3) <= 1e-3
        # one recording pass, then two per compared scalar: the other weight and the bias
        assert len(calls) == 1 + 2 * 2

    def test_step_must_be_positive(self):
        m = mlp([2], 3)
        with pytest.raises(Exception, match="> 0"):
            finite_difference_check(m, np.zeros((1, 3)), np.zeros((1, 2)), h=0.0)


class TestFlatView:
    def test_roundtrip(self):
        rng = np.random.default_rng(16)
        m = build_random_model(rng)
        x = m.get_flat()
        assert x.shape == (m.n_flat,)
        noise = rng.standard_normal(m.n_flat).astype(np.float32)
        m.set_flat(noise)
        assert np.array_equal(m.get_flat(), noise)

    def test_offsets_are_contiguous_cover(self):
        rng = np.random.default_rng(17)
        m = build_random_model(rng)
        spans = sorted(m.param_offsets().values())
        pos = 0
        for start, stop in spans:
            assert start == pos
            pos = stop
        assert pos == m.n_flat

    def test_clone_is_independent(self):
        m = mlp([3], 4, seed=18)
        c = m.clone()
        c.params["L0.weight"].data[...] = 99.0
        assert not np.array_equal(m.params["L0.weight"].data, c.params["L0.weight"].data)


class TestFlatBuffers:
    """Every trainable tensor's data and grad are views into the model's two buffers."""

    def test_tensors_are_views_into_the_buffers(self):
        m = build_random_model(np.random.default_rng(30))
        for key, t in m.params.items():
            assert np.shares_memory(t.data, m._flat), key
            assert np.shares_memory(t.grad, m._flat_grad), key
            assert t.data.dtype == t.grad.dtype == np.float32
        for key, t in m.constants.items():
            assert not np.shares_memory(t.data, m._flat), key

    def test_offsets_follow_registry_order(self):
        # the flat view concatenates the trainable arrays in registry order
        m = build_random_model(np.random.default_rng(31))
        pos, expected = 0, {}
        for key, t in m.params.items():
            expected[key] = (pos, pos + t.size)
            pos += t.size
        assert m.param_offsets() == expected
        assert list(expected) == [k for k in m.all_arrays() if k in m.params]

    def test_set_flat_writes_through(self):
        rng = np.random.default_rng(32)
        m = build_random_model(rng)
        views = {key: t.data for key, t in m.params.items()}
        x = rng.standard_normal(m.n_flat).astype(np.float32)
        m.set_flat(x)
        for key, (start, stop) in m.param_offsets().items():
            assert m.params[key].data is views[key]
            assert np.array_equal(views[key].ravel(), x[start:stop])
        m.params[next(iter(m.params))].data[...] = 7.0
        assert m.get_flat()[0] == 7.0

    def test_set_flat_rejects_the_wrong_length(self):
        m = mlp([2], 3, seed=21)
        before = m.get_flat()
        n = m.n_flat
        with pytest.raises(ShapeError, match=rf"^flat view has {n} entries, got \({n + 1},\)$"):
            m.set_flat(np.zeros(n + 1, dtype=np.float32))
        assert np.array_equal(m.get_flat(), before)

    def test_backward_fills_the_gradient_buffer(self):
        rng = np.random.default_rng(33)
        m = build_random_model(rng)
        m.forward(*random_batch(rng, m))
        grads = m.backward()
        assert grads.keys() == m.params.keys()
        flat = m.get_flat_grad()
        for key, (start, stop) in m.param_offsets().items():
            assert np.array_equal(flat[start:stop], grads[key].ravel())

    def test_backward_returns_the_gradient_views_by_id(self):
        # the returned arrays are the layers' own; in a float32 pass they
        # equal the gradient views bit for bit, in a float64 pass they keep
        # float64 and the views hold them rounded
        rng = np.random.default_rng(35)
        for _ in range(10):
            m = build_random_model(rng)
            x, y = random_batch(rng, m)
            for inputs in (x, x.astype(np.float64)):
                m.forward(inputs, y)
                grads = m.backward()
                assert grads.keys() == m.params.keys()
                for key, g in grads.items():
                    view = m.params[key].grad
                    assert g.dtype == inputs.dtype and g.shape == view.shape, key
                    assert bits(view) == bits(g.astype(np.float32)), key
                    if inputs.dtype == np.float32:
                        assert bits(g) == bits(view), key

    def test_clone_has_its_own_buffers(self):
        rng = np.random.default_rng(34)
        m = build_random_model(rng)
        before = m.get_flat()
        c = m.clone()
        assert not np.shares_memory(c._flat, m._flat)
        assert not np.shares_memory(c._flat_grad, m._flat_grad)
        assert c.param_offsets() == m.param_offsets()
        assert bits(c.get_flat()) == bits(before)
        for key, t in c.params.items():
            assert np.shares_memory(t.data, c._flat), key
        c.set_flat(np.zeros(c.n_flat, dtype=np.float32))
        c.forward(*random_batch(rng, c))
        c.backward()
        assert bits(m.get_flat()) == bits(before)
        assert not m._flat_grad.any()
        for key, t in m.constants.items():
            c.constants[key].data[...] = 3.0
            assert not np.all(t.data == 3.0), key

    def test_a_second_model_over_the_same_layers_raises(self):
        m = mlp([3, 2], 4, seed=35)
        with pytest.raises(InvalidModelError, match="already belongs to a model"):
            ModelGraph(m.layers, m.input_shape)
        layer = m.layers[0]
        with pytest.raises(InvalidModelError, match="already belongs to a model"):
            ModelGraph([Linear(Tensor(np.ones((3, 4))), layer.bias)], (4,))

    def test_one_tensor_twice_in_a_layer_list_raises(self):
        w = Tensor(np.ones((2, 2), dtype=np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32))
        with pytest.raises(InvalidModelError, match="L2.weight already belongs"):
            ModelGraph([Linear(w, b), Activation("relu"), Linear(w, b)], (2,))
        assert w.grad is None  # a refused list is left unbound

    def test_clone_after_forward_holds_no_record(self):
        rng = np.random.default_rng(36)
        m = build_random_model(rng)
        m.forward(*random_batch(rng, m))
        c = m.clone()
        with pytest.raises(StateError):
            c.backward()
        assert m.backward()  # the original keeps its own


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(19)
        m = build_random_model(rng)
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(path)
        c = m.clone()
        c.set_flat(np.zeros(m.n_flat, dtype=np.float32))
        c.load_checkpoint(path)
        assert np.array_equal(c.get_flat(), m.get_flat())
        for key in m.constants:
            assert np.array_equal(c.constants[key].data, m.constants[key].data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic") as err:
            load_arrays(path)
        assert err.value.offset == 0

    def test_truncated_payload(self, tmp_path):
        m = mlp([2], 3, seed=20)
        path = tmp_path / "trunc.ckpt"
        m.save_checkpoint(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="truncated"):
            load_arrays(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        m = mlp([2], 3, seed=20)
        path = tmp_path / "extra.ckpt"
        m.save_checkpoint(path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_arrays(path)

    def test_payload_size_past_int64(self, tmp_path):
        # four extents of 65536 hold 2**64 entries: an int64 product wraps to 0
        path = tmp_path / "huge.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, 1) + b"a"
                         + struct.pack("<5I", 4, *[65536] * 4))
        with pytest.raises(FormatError, match=f"wanted {4 * 2**64} bytes for payload of a"):
            load_arrays(path)

    def test_name_not_utf8(self, tmp_path):
        path = tmp_path / "name.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, 2) + b"\xff\xfe"
                         + struct.pack("<I", 0) + struct.pack("<f", 1.0))
        with pytest.raises(FormatError, match="^array name at offset 16 is not UTF-8$") as err:
            load_arrays(path)
        assert err.value.offset == 16

    def test_name_listed_twice(self, tmp_path):
        path = tmp_path / "twice.ckpt"
        save_arrays(path, {"a": np.zeros(2, dtype=np.float32), "b": np.ones(1, dtype=np.float32)})
        blob = path.read_bytes()
        # rename "b" to "a"; the offset is the second name's
        at = blob.rindex(b"b")
        path.write_bytes(blob[:at] + b"a" + blob[at + 1 :])
        with pytest.raises(FormatError, match=f"^array a listed again at offset {at}$") as err:
            load_arrays(path)
        assert err.value.offset == at

    def test_shape_mismatch_on_load(self, tmp_path):
        path = tmp_path / "other.ckpt"
        save_arrays(path, {"L0.weight": np.zeros((9, 9), dtype=np.float32)})
        m = mlp([2], 3, seed=21)
        with pytest.raises(ShapeError):
            m.load_checkpoint(path)

    def test_missing_and_unknown_arrays_rejected(self, tmp_path):
        m = mlp([2], 3, seed=21)
        arrays = m.all_arrays()
        path = tmp_path / "m.ckpt"
        save_arrays(path, {k: v for k, v in arrays.items() if k != "L0.bias"})
        with pytest.raises(ShapeError, match=r"^checkpoint is missing array L0\.bias$"):
            m.load_checkpoint(path)
        save_arrays(path, {**arrays, "L9.weight": np.zeros(1, dtype=np.float32)})
        with pytest.raises(ShapeError, match=r"^checkpoint has unknown arrays: \['L9\.weight'\]$"):
            m.load_checkpoint(path)

    def test_scalar_free_container(self, tmp_path):
        path = tmp_path / "arrays.ckpt"
        arrays = {"a": np.arange(6, dtype=np.float32).reshape(2, 3)}
        save_arrays(path, arrays)
        back = load_arrays(path)
        assert list(back) == ["a"]
        assert np.array_equal(back["a"], arrays["a"])


def test_infer_shapes_chain():
    layers = build_layers(
        ["convbn:3:3x3:s1:p1:relu", "residual:4:1x1", "linear:5"],
        (2, 6, 6),
        "mse",
        "zeros",
        0,
    )
    shapes = infer_shapes(layers, (2, 6, 6))
    assert shapes[0] == (3, 6, 6)
    assert shapes[1] == (4, 6, 6)
    assert shapes[2] == (5,)


LAYER_FUNCTIONS = [
    f"{kind}_{direction}"
    for kind in ("linear", "attention", "conv_bn", "residual", "activation")
    for direction in ("forward", "backward")
] + ["loss_forward"]


def test_layer_methods_call_module_functions(monkeypatch):
    """Every kind runs through the `layers` module functions, looked up at call time.

    Span tracers replace these functions on the module; a kind that bound
    them at import, or computed inline, would drop out of the trace.
    """
    import zigprune.layers as layers_module

    calls = dict.fromkeys(LAYER_FUNCTIONS, 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in LAYER_FUNCTIONS:
        monkeypatch.setattr(layers_module, name, counted(name, getattr(layers_module, name)))
    layers = build_layers(
        ["convbn:2:3x3:s1:p1:relu", "residual:2:3x3:s1:p1:gelu", "mha:2x3", "relu", "linear:3"],
        (1, 4, 4),
        "softmax_ce",
        "normal:0.5",
        0,
    )
    m = ModelGraph(layers, (1, 4, 4))
    rng = np.random.default_rng(0)
    _, loss = m.forward(rng.standard_normal((2, 1, 4, 4)).astype(np.float32), np.array([0, 2]))
    m.backward()
    assert loss is not None
    assert {name: n for name, n in calls.items() if n == 0} == {}
