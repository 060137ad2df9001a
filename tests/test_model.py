import tracemalloc

import numpy as np
import pytest

from zigprune.config import build_layers
from zigprune.errors import FormatError, InvalidModelError, ShapeError, StateError
from zigprune.layers import Activation, Linear, Loss
from zigprune.model import EVAL_CHUNK, ModelGraph, finite_difference_check, infer_shapes
from zigprune.tensor import Tensor, load_arrays, save_arrays

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
        with pytest.raises(StateError):
            m.layer_outputs()

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

    def test_adjoint_scales_gradients(self):
        rng = np.random.default_rng(10)
        m = mlp([3], 4, seed=11)
        x, y = rng.standard_normal((2, 4)).astype(np.float32), np.zeros(
            (2, 3), dtype=np.float32
        )
        m.forward(x, y)
        g1 = m.backward()["L0.weight"].copy()
        m.forward(x, y)
        g2 = m.backward(adjoint=2.0)["L0.weight"]
        assert np.allclose(2 * g1, g2)


PREDICT_MODELS = {
    "mlp": (["linear:16", "relu", "linear:8", "leaky_relu", "linear:3"], (6,)),
    "conv": (
        ["convbn:4:3x3:s1:p1:relu", "residual:4:3x3:s1:p1:gelu", "convbn:6:3x3:s2:p1:prelu",
         "linear:3"],
        (2, 6, 6),
    ),
    "attention": (["linear:8", "gelu", "mha:2x3", "prelu", "linear:3"], (5,)),
}


def predict_model(kind, seed=0):
    specs, shape = PREDICT_MODELS[kind]
    return ModelGraph(build_layers(specs, shape, "softmax_ce", "normal:0.5", seed), shape)


class TestPredict:
    @pytest.mark.parametrize(
        "dtype, n",
        [(np.float32, n) for n in (0, 1, 255, 256, 257, 700)]
        + [(np.float64, n) for n in (0, 1, 255, 256)],
    )
    @pytest.mark.parametrize("kind", sorted(PREDICT_MODELS))
    def test_equals_forward_bitwise(self, kind, dtype, n):
        # chunk boundaries fall inside the batch for n > EVAL_CHUNK
        m = predict_model(kind)
        x = np.random.default_rng(n).standard_normal((n, *m.input_shape)).astype(dtype)
        out = m.predict(x)
        ref, _ = m.forward(x)
        assert out.dtype == ref.dtype == dtype
        assert out.shape == ref.shape == (n, 3)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("n", [257, 700])
    @pytest.mark.parametrize("kind", sorted(PREDICT_MODELS))
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

    def test_input_shape_validated(self):
        with pytest.raises(ShapeError, match="input sample shape"):
            predict_model("mlp").predict(np.zeros((2, 5), dtype=np.float32))

    def test_fresh_model_keeps_no_record(self):
        m = predict_model("conv")
        m.predict(np.ones((3, *m.input_shape), dtype=np.float32))
        with pytest.raises(StateError):
            m.backward()
        with pytest.raises(StateError):
            m.layer_outputs()

    @pytest.mark.parametrize("kind", sorted(PREDICT_MODELS))
    def test_leaves_forward_record_alone(self, kind):
        rng = np.random.default_rng(1)
        m = predict_model(kind)
        x = rng.standard_normal((4, *m.input_shape)).astype(np.float32)
        y = np.array([0, 2, 1, 2])
        m.forward(x, y)
        expected = {k: g.copy() for k, g in m.backward().items()}
        m.forward(x, y)
        outputs = m.layer_outputs()
        m.predict(rng.standard_normal((300, *m.input_shape)).astype(np.float32))
        assert m.layer_outputs() is outputs
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

    def test_zero_parameter_model(self):
        m = ModelGraph([Activation("relu"), Loss("mse")], (3,))
        x = np.ones((2, 3), dtype=np.float32)
        y = np.zeros((2, 3), dtype=np.float32)
        assert finite_difference_check(m, x, y) == 0.0

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

    def test_backward_fills_the_gradient_buffer(self):
        rng = np.random.default_rng(33)
        m = build_random_model(rng)
        m.forward(*random_batch(rng, m))
        grads = m.backward()
        assert grads.keys() == m.params.keys()
        flat = m.get_flat_grad()
        for key, (start, stop) in m.param_offsets().items():
            assert np.array_equal(flat[start:stop], grads[key].ravel())

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
        with pytest.raises(StateError):
            c.layer_outputs()
        assert m.layer_outputs()  # the original keeps its own


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

    def test_shape_mismatch_on_load(self, tmp_path):
        path = tmp_path / "other.ckpt"
        save_arrays(path, {"L0.weight": np.zeros((9, 9), dtype=np.float32)})
        m = mlp([2], 3, seed=21)
        with pytest.raises(ShapeError):
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
