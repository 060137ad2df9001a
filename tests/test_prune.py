import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from zigprune.config import build_layers, model_to_specs
from zigprune.errors import DegenerateLayerError, StructuralError
from zigprune.model import EVAL_CHUNK, ModelGraph
from zigprune.prune import (
    PruneReport,
    count_flops_params,
    count_params,
    equivalence_check,
    prune,
)
from zigprune.zig import partition_zig

from helpers import build_random_model, prune_zeroed_copy


def model_from(specs, input_shape, loss=None, seed=0, init="normal:0.5"):
    return ModelGraph(build_layers(specs, input_shape, loss, init, seed), input_shape)


def zero_groups(model, partition, gids):
    x = model.get_flat()
    partition.zero_groups_inplace(x, gids)
    model.set_flat(x)
    return x


class TestCounters:
    def test_linear_params_and_flops(self):
        m = model_from(["linear:4"], (3,))
        flops, params = count_flops_params(m)
        assert params == 16  # 4x3 weights + 4 biases
        assert flops == 12  # one MAC per weight

    def test_convbn_flops_formula(self):
        # 4 channels, 2x3x3 patches, 8x8 output: conv part is 4*18*64
        m = model_from(["convbn:4:3x3:s1:p1"], (2, 8, 8))
        macs = m.layers[0].macs(m.shapes[0])
        assert type(macs) is int
        assert macs == 4 * 18 * 64 + 4 * 64 == 4608 + 256  # conv + bn scale
        assert count_flops_params(m)[0] == macs

    def test_residual_counts_both_branches(self):
        m = model_from(["residual:3:1x1"], (2, 4, 4))
        flops, params = count_flops_params(m)
        per_branch = 3 * 2 * 16 + 3 * 16
        assert flops == 2 * per_branch
        assert params == 2 * (3 * 2 + 3 * 3)  # kernels + bias/gamma/beta

    def test_attention_flops(self):
        m = model_from(["mha:2x3"], (4,))
        flops, params = count_flops_params(m)
        assert flops == 2 * 3 * 4
        assert params == 2 * (3 * 4 + 3)

    def test_bn_stats_flagged_separately(self):
        m = model_from(["convbn:4:1x1"], (2, 3, 3))
        trainable, stats = count_params(m)
        assert stats == 8  # mean and std per channel
        assert trainable == 4 * 2 + 12

    def test_remaining_flops_ratio_matches_hand_count(self):
        # two linear layers 4x5 and 2x4; zeroing one row of the first leaves
        # 3*5 + 2*3 of the original 4*5 + 2*4 MACs
        m = model_from(["linear:4", "linear:2"], (5,), seed=30)
        p = partition_zig(m)
        zero_groups(m, p, [1])
        slim, report = prune(m, p)
        assert report.flops_before == 4 * 5 + 2 * 4
        assert report.flops_after == 3 * 5 + 2 * 3
        hand_ratio = (3 * 5 + 2 * 3) / (4 * 5 + 2 * 4)
        assert report.flops_after / report.flops_before == pytest.approx(hand_ratio)


# (layer specs, input shape, layers zeroed whole, further zeroed group ids, digest)
KEEP_ONE_CASES = {
    "linear": (
        ["linear:3", "relu", "linear:4", "leaky_relu", "linear:2"], (5,), [0], [4],
        "429b64a08a99b375cecd02d3b5c4e0945dcfaa00ef981dbeb783e54077ebdcab",
    ),
    "conv": (
        ["convbn:3:3x3:p1", "residual:3:3x3:p1:gelu", "convbn:4:3x3:s2", "linear:2"],
        (2, 5, 5), [0, 1], [7],
        "237755d39a894b8fdfba85a7da1f47c50ce435921b0cb2eca0cdd94500d36283",
    ),
    "attention": (
        ["linear:4", "prelu", "mha:2x2", "linear:2"], (3,), [2], [1],
        "9ba7bbb20e304e4b8be298e13de3cdb49e777a987459f79baa72c69806309078",
    ),
}


class TestPruneShapes:
    def test_no_zero_groups_is_identity(self):
        m = model_from(["linear:4", "relu", "linear:3"], (5,), seed=1)
        p = partition_zig(m)
        slim, report = prune(m, p)
        assert report.zero_groups == []
        assert [type(l).__name__ for l in slim.layers] == [
            type(l).__name__ for l in m.layers
        ]
        assert equivalence_check(m, slim, 20, seed=0) == 0.0
        for key in m.params:
            assert np.array_equal(slim.params[key].data, m.params[key].data)

    def test_idempotent_on_already_slim_model(self):
        m = model_from(["linear:4", "relu", "linear:3"], (5,), seed=2)
        p = partition_zig(m)
        zero_groups(m, p, [1])
        slim, _ = prune(m, p)
        p2 = partition_zig(slim)
        slim2, report2 = prune(slim, p2)
        assert report2.zero_groups == []
        assert report2.params_after == report2.params_before
        for key in slim.params:
            assert np.array_equal(slim2.params[key].data, slim.params[key].data)

    def test_linear_row_removal_shrinks_consumer_columns(self):
        # 4x3 with row 2 zeroed, followed by a 2x4 consumer -> 3x3 and 2x3
        m = model_from(["linear:4", "linear:2"], (3,), seed=3)
        p = partition_zig(m)
        zero_groups(m, p, [2])
        slim, report = prune(m, p)
        assert slim.layers[0].weight.shape == (3, 3)
        assert slim.layers[1].weight.shape == (2, 3)
        kept = report.layer_maps[0]["kept"]
        assert kept == [0, 1, 3]

    def test_param_count_identity(self):
        # removing group g drops |g| scalars plus the consumer's input slice
        m = model_from(["linear:6", "relu", "linear:4"], (5,), seed=4)
        p = partition_zig(m)
        zero_groups(m, p, [1, 4])
        slim, report = prune(m, p)
        removed_group_scalars = sum(p.groups[g].size for g in (1, 4))
        removed_consumer_cols = 4 * 2  # two columns of the 4-row consumer
        assert (
            report.params_after
            == report.params_before - removed_group_scalars - removed_consumer_cols
        )

    def test_conv_channel_removal_updates_consumer_kernel(self):
        m = model_from(["convbn:4:3x3:s1:p1", "convbn:3:3x3:s1:p1"], (2, 6, 6), seed=5)
        p = partition_zig(m)
        zero_groups(m, p, [1, 3])
        slim, _ = prune(m, p)
        first, second = slim.layers
        assert first.kernel.shape == (2, 18)
        assert second.in_channels == 2
        assert second.kernel.shape == (3, 2 * 9)

    def test_conv_to_linear_column_blocks(self):
        m = model_from(["convbn:3:3x3:s1:p1", "linear:4"], (1, 4, 4), seed=6)
        p = partition_zig(m)
        zero_groups(m, p, [1])
        slim, _ = prune(m, p)
        assert slim.layers[0].kernel.shape == (2, 9)
        assert slim.layers[1].weight.shape == (4, 2 * 16)

    def test_residual_prunes_both_branches(self):
        m = model_from(["residual:4:3x3:s1:p1", "linear:3"], (2, 5, 5), seed=7)
        p = partition_zig(m)
        zero_groups(m, p, [0, 2])
        slim, _ = prune(m, p)
        block = slim.layers[0]
        assert block.branch1.kernel.shape == (2, 18)
        assert block.branch2.kernel.shape == (2, 18)
        assert slim.layers[1].weight.shape == (3, 2 * 25)

    def test_mha_rows_and_empty_head_removal(self):
        m = model_from(["mha:2x3", "linear:2"], (4,), seed=8)
        p = partition_zig(m)
        # zero all rows of head 0 and one row of head 1
        zero_groups(m, p, [0, 1, 2, 4])
        slim, _ = prune(m, p)
        mha = slim.layers[0]
        assert len(mha.heads) == 1
        assert mha.head_dims == [2]
        assert slim.layers[1].weight.shape == (2, 2)

    def test_slim_mha_reloads_from_its_specs(self, tmp_path):
        # the path `verify` takes: slim specs and slim.ckpt rebuild the slim model
        m = model_from(["mha:2x3", "relu", "linear:2"], (4,), loss="mse", seed=8)
        p = partition_zig(m)
        zero_groups(m, p, [0, 1, 2])  # every row of head 0
        slim, _ = prune(m, p)
        specs = model_to_specs(slim)
        assert specs == ["mha:3", "relu", "linear:2"]
        slim.save_checkpoint(tmp_path / "slim.ckpt")
        reloaded = ModelGraph(build_layers(specs, (4,), "mse", "zeros", 0), (4,))
        reloaded.load_checkpoint(tmp_path / "slim.ckpt")
        assert list(reloaded.params) == ["L0.h0.weight", "L0.h0.bias", "L2.weight", "L2.bias"]
        x = np.random.default_rng(3).standard_normal((20, 4)).astype(np.float32)
        assert np.array_equal(reloaded.predict(x), slim.predict(x))

    def test_degenerate_layer_error_and_keep_one(self):
        m = model_from(["linear:3", "relu", "linear:2"], (4,), seed=9)
        p = partition_zig(m)
        zero_groups(m, p, [0, 1, 2])
        with pytest.raises(DegenerateLayerError, match="keep_one"):
            prune(m, p)
        slim, report = prune(m, p, keep_one=True)
        assert slim.layers[0].weight.shape == (1, 4)
        assert len(report.retained_groups) >= 1

    @pytest.mark.parametrize("case", sorted(KEEP_ONE_CASES))
    def test_keep_one_output_is_pinned(self, case):
        # SHA-256 of the report and of the slim model's arrays, recorded before
        # prune chose kept groups and slimmed layers in one pass
        specs, shape, whole, partial, digest = KEEP_ONE_CASES[case]
        m = model_from(specs, shape, seed=21)
        p = partition_zig(m)
        zero_groups(m, p, [g.gid for i in whole for g in p.groups_of_layer(i)] + partial)
        with pytest.raises(DegenerateLayerError) as err:
            prune(m, p)
        assert str(err.value) == (
            f"layer {whole[0]}: every group is zero, slim width would be 0 "
            "(set prune.keep_one = true, or pass keep_one=True, to keep its first group)"
        )
        slim, report = prune(m, p, keep_one=True)
        h = hashlib.sha256(report.to_jsonl().encode())
        for key, arr in slim.all_arrays().items():
            h.update(key.encode())
            h.update(arr.tobytes())
        assert h.hexdigest() == digest


class TestEquivalence:
    def toy_cnn(self, seed=10):
        specs = [
            "convbn:4:3x3:s1:p1:gelu",
            "residual:5:3x3:s1:p1:leaky_relu",
            "linear:6",
            "prelu",
            "linear:3",
        ]
        m = model_from(specs, (2, 5, 5), loss="softmax_ce", seed=seed)
        return m, partition_zig(m)

    def test_pruned_outputs_match_zeroed_full_model(self):
        m, p = self.toy_cnn()
        rng = np.random.default_rng(0)
        pen = list(p.pen_gids)
        chosen = [g for g in pen if rng.random() < 0.3]
        zero_groups(m, p, chosen)
        slim, report = prune(m, p)
        dev = equivalence_check(m, slim, 100, seed=1)
        assert dev <= 1e-5
        assert report.flops_after < report.flops_before

    def test_negative_control_detects_pruning_a_live_group(self):
        m, p = self.toy_cnn(seed=11)
        x = m.get_flat()
        norms = [np.linalg.norm(x[g.indices]) for g in p.groups]
        victim = int(np.argmax([n if p.groups[i].penalized else -1 for i, n in enumerate(norms)]))
        slim = prune_zeroed_copy(m, p, [victim])
        assert np.array_equal(m.get_flat(), x)  # the victim is still live in the full model
        dev = equivalence_check(m, slim, 100, seed=2)
        assert dev > 1e-3

    def test_property_random_models_random_zero_sets(self):
        rng = np.random.default_rng(12)
        done = 0
        while done < 15:
            m = build_random_model(rng)
            p = partition_zig(m)
            pen_by_layer = {}
            for g in p.groups:
                if g.penalized:
                    pen_by_layer.setdefault(g.layer_index, []).append(g.gid)
            chosen = []
            for gids in pen_by_layer.values():
                take = [g for g in gids if rng.random() < 0.35]
                if len(take) == len(gids):
                    take = take[:-1]  # keep layers alive
                chosen.extend(take)
            zero_groups(m, p, chosen)
            slim, _ = prune(m, p)
            assert equivalence_check(m, slim, 40, seed=done) <= 1e-5
            done += 1

    @pytest.mark.parametrize("n", [1, EVAL_CHUNK, EVAL_CHUNK + 1, 3 * EVAL_CHUNK + 17])
    def test_chunked_draws_equal_one_draw(self, n):
        shape = (2, 5, 5)
        one = np.random.default_rng(9).standard_normal((n, *shape))
        rng = np.random.default_rng(9)
        chunks = [
            rng.standard_normal((min(EVAL_CHUNK, n - s), *shape)) for s in range(0, n, EVAL_CHUNK)
        ]
        assert np.array_equal(np.concatenate(chunks), one)

    @pytest.mark.parametrize("n", [EVAL_CHUNK - 1, 3 * EVAL_CHUNK + 17])
    def test_chunked_check_equals_one_shot_check(self, n):
        # two unrelated models, so the maximum is a nonzero value worth matching
        a, _ = self.toy_cnn(seed=10)
        b, _ = self.toy_cnn(seed=11)
        inputs = np.random.default_rng(6).standard_normal((n, 2, 5, 5)).astype(np.float32)
        gap = a.predict(inputs).astype(np.float64) - b.predict(inputs).astype(np.float64)
        assert equivalence_check(a, b, n, seed=6) == float(np.abs(gap).max()) > 0

    def test_memory_is_bounded_by_the_chunk(self):
        # wide inputs, little compute: a one-shot draw would dominate the peak
        a = model_from(["linear:4"], (2048,), seed=1)
        b = model_from(["linear:4"], (2048,), seed=2)
        peaks = []
        for n in (EVAL_CHUNK, 4 * EVAL_CHUNK):
            tracemalloc.start()
            try:
                equivalence_check(a, b, n, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    @pytest.mark.parametrize("chunk", [0, 1])
    def test_nan_in_any_chunk_reaches_the_result(self, chunk):
        a = model_from(["linear:3"], (4,), seed=13)
        b = a.clone()  # identical, so every finite gap is 0.0
        predict, calls = b.predict, []

        def broken(inputs):
            out = predict(inputs)
            if len(calls) == chunk:
                out[0, 0] = np.nan
            calls.append(len(inputs))
            return out

        b.predict = broken
        assert np.isnan(equivalence_check(a, b, 2 * EVAL_CHUNK, seed=0))
        assert calls == [EVAL_CHUNK, EVAL_CHUNK]
        del b.predict
        assert equivalence_check(a, b, 2 * EVAL_CHUNK, seed=0) == 0.0

    def test_structural_error_on_output_mismatch(self):
        a = model_from(["linear:3"], (4,), seed=13)
        b = model_from(["linear:2"], (4,), seed=14)
        with pytest.raises(StructuralError, match="output shapes"):
            equivalence_check(a, b, 5, seed=0)

    def test_zero_inputs_give_zero_gap_but_still_compare_shapes(self):
        a = model_from(["linear:3"], (4,), seed=13)
        assert equivalence_check(a, model_from(["linear:3"], (4,), seed=14), 0) == 0.0
        with pytest.raises(StructuralError, match="output shapes"):
            equivalence_check(a, model_from(["linear:2"], (4,), seed=14), 0)

    def test_structural_error_on_input_mismatch(self):
        a = model_from(["linear:3"], (4,), seed=13)
        b = model_from(["linear:3"], (5,), seed=14)
        with pytest.raises(StructuralError, match="input shapes"):
            equivalence_check(a, b, 5, seed=0)


def strict_json_constant(name):
    raise ValueError(f"strict JSON has no {name}")


class TestReport:
    def test_jsonl_roundtrip(self):
        m = model_from(["linear:4", "linear:2"], (3,), seed=15)
        p = partition_zig(m)
        zero_groups(m, p, [1])
        slim, report = prune(m, p)
        report.max_deviation = equivalence_check(m, slim, 10, seed=3)
        report.slim_layers = ["linear:3", "linear:2"]
        text = report.to_jsonl()
        back = PruneReport.from_jsonl(text)
        assert back.zero_groups == report.zero_groups
        assert back.params_after == report.params_after
        assert back.layer_maps == report.layer_maps
        assert back.slim_layers == report.slim_layers
        assert back.max_deviation == report.max_deviation

    @pytest.mark.parametrize("deviation", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_deviation_is_a_json_string(self, deviation):
        m = model_from(["linear:2"], (3,), seed=15)
        _, report = prune(m, partition_zig(m))
        report.max_deviation = deviation
        text = report.to_jsonl()
        summary = json.loads(text.splitlines()[0], parse_constant=strict_json_constant)
        assert summary["max_deviation"] == str(deviation)
        back = PruneReport.from_jsonl(text).max_deviation
        assert np.isnan(back) if np.isnan(deviation) else back == deviation

    def test_retained_plus_zeroed_covers_penalized(self):
        m = model_from(["linear:5", "relu", "linear:3"], (4,), seed=16)
        p = partition_zig(m)
        zero_groups(m, p, [0, 3])
        _, report = prune(m, p)
        assert len(report.zero_groups) + len(report.retained_groups) == p.n_groups

    def test_forward_record_does_not_change_the_prune(self):
        # prune reads parameters and structure, not the record the last
        # training forward left on the model
        fresh, p = TestEquivalence().toy_cnn(seed=18)
        traced, _ = TestEquivalence().toy_cnn(seed=18)
        for m in (fresh, traced):
            zero_groups(m, p, [1, 6])
        traced.forward(np.ones((3, 2, 5, 5), dtype=np.float32), np.array([0, 1, 2]))
        slim_a, report_a = prune(fresh, p)
        slim_b, report_b = prune(traced, p)
        assert report_a.to_jsonl() == report_b.to_jsonl()
        arrays_a, arrays_b = slim_a.all_arrays(), slim_b.all_arrays()
        assert arrays_a.keys() == arrays_b.keys()
        for key in arrays_a:
            assert arrays_a[key].tobytes() == arrays_b[key].tobytes(), key

    def test_x_star_argument(self):
        # a solution x* reaches prune through set_flat: it picks the zero
        # groups, and the retained groups' values are the slim model's
        m = model_from(["linear:4", "linear:2"], (3,), seed=17)
        p = partition_zig(m)
        row = m.params["L0.weight"].data[0].copy()
        x = m.get_flat()
        p.zero_groups_inplace(x, [2])
        x[p.groups[0].indices] *= np.float32(10)
        m.set_flat(x)
        slim, report = prune(m, p)
        assert report.zero_groups == [2]
        assert slim.layers[0].weight.shape == (3, 3)
        assert np.array_equal(slim.params["L0.weight"].data[0], row * np.float32(10))
