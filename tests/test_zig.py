import numpy as np
import pytest

import zigprune.layers as layers_module
from zigprune.config import build_layers
from zigprune.errors import InvariantError, UnsupportedStructureError
from zigprune.layers import Layer
from zigprune.model import ModelGraph
from zigprune.tensor import Tensor
from zigprune.zig import GroupPartition, partition_zig, verify_zero_invariance

from helpers import build_random_model


def model_from(specs, input_shape, loss="mse", seed=0, init="normal:0.5"):
    return ModelGraph(build_layers(specs, input_shape, loss, init, seed), input_shape)


class TestGroupCounts:
    def test_convbn_groups(self):
        # 4 channels over 2x3x3 patches: groups of 18 kernel entries + b, gamma, beta
        m = model_from(["convbn:4:3x3:p1", "linear:2"], (2, 5, 5))
        p = partition_zig(m)
        conv_groups = p.groups_of_layer(0)
        assert len(conv_groups) == 4
        assert all(g.size == 18 + 3 for g in conv_groups)

    def test_linear_groups(self):
        m = model_from(["linear:3"], (5,))
        p = partition_zig(m, penalize_output=True)
        assert p.n_groups == 3
        assert all(g.size == 6 for g in p.groups)
        assert all(g.penalized for g in p.groups)

    def test_residual_groups_span_both_branches(self):
        m = model_from(["residual:2:1x1", "linear:2"], (2, 4, 4))
        p = partition_zig(m)
        res_groups = p.groups_of_layer(0)
        assert len(res_groups) == 2
        assert all(g.size == (2 + 3) + (2 + 3) for g in res_groups)
        for g in res_groups:
            arrays = {aid for aid, _, _ in g.members}
            assert any("b1" in a for a in arrays) and any("b2" in a for a in arrays)

    def test_mha_groups_per_head_row(self):
        m = model_from(["mha:2x3", "linear:2"], (4,))
        p = partition_zig(m)
        mha_groups = p.groups_of_layer(0)
        assert len(mha_groups) == 6
        assert all(g.size == 5 for g in mha_groups)
        assert [g.out_index for g in mha_groups] == [0, 1, 2, 3, 4, 5]
        assert [g.head for g in mha_groups] == [0, 0, 0, 1, 1, 1]

    def test_units_are_row_r_of_every_trainable_parameter(self):
        # one rule for every kind: unit r spans row r of each trainable parameter,
        # in params() order; attention numbers its rows per head
        m = model_from(["residual:2:1x3", "linear:3", "mha:1,2"], (2, 4, 4))  # 2x4x2 into linear
        res, lin, mha = m.layers[:3]
        ck = 2 * 3
        assert res.units()[1] == (None, 1, [
            ("b1.kernel", ck, 2 * ck), ("b1.bias", 1, 2), ("b1.gamma", 1, 2), ("b1.beta", 1, 2),
            ("b2.kernel", ck, 2 * ck), ("b2.bias", 1, 2), ("b2.gamma", 1, 2), ("b2.beta", 1, 2),
        ])
        assert lin.units() == [
            (None, r, [("weight", 16 * r, 16 * (r + 1)), ("bias", r, r + 1)]) for r in range(3)
        ]
        assert mha.units() == [
            (0, 0, [("h0.weight", 0, 3), ("h0.bias", 0, 1)]),
            (1, 0, [("h1.weight", 0, 3), ("h1.bias", 0, 1)]),
            (1, 1, [("h1.weight", 3, 6), ("h1.bias", 1, 2)]),
        ]
        assert m.layers[3].units() == []  # the loss has no parameters

    def test_units_of_a_zero_width_parameter(self):
        class Custom(Layer):
            def params(self):
                return [("w", Tensor(np.zeros((3, 0))), True), ("b", Tensor(np.zeros(3)), True),
                        ("s", Tensor(np.ones(3)), False)]

        assert Custom().units() == [(None, r, [("w", 0, 0), ("b", r, r + 1)]) for r in range(3)]

    def test_bn_statistics_stay_out_of_groups(self):
        m = model_from(["convbn:3:3x3", "linear:2"], (1, 5, 5))
        p = partition_zig(m)
        for g in p.groups_of_layer(0):
            names = {aid for aid, _, _ in g.members}
            assert not any(a.endswith("mean") or a.endswith("std") for a in names)


class TestPartitionInvariants:
    def test_disjoint_and_covering_on_random_models(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            m = build_random_model(rng)
            p = partition_zig(m)
            seen = np.zeros(m.n_flat, dtype=int)
            for g in p.groups:
                assert g.size > 0
                seen[g.indices] += 1
            assert np.all(seen == 1)  # disjoint and exhaustive over trainables

    def test_last_parameterized_layer_defaults_unpenalized(self):
        m = model_from(["linear:4", "relu", "linear:3"], (5,))
        p = partition_zig(m)
        last = p.groups_of_layer(2)
        assert last and all(not g.penalized for g in last)
        first = p.groups_of_layer(0)
        assert first and all(g.penalized for g in first)

    def test_penalize_output_option(self):
        m = model_from(["linear:4", "relu", "linear:3"], (5,))
        p = partition_zig(m, penalize_output=True)
        assert all(g.penalized for g in p.groups)

    def test_unsupported_layer_kind(self):
        m = model_from(["linear:3"], (4,))
        m.layers.append(object())
        with pytest.raises(UnsupportedStructureError):
            partition_zig(m)

    def test_overlapping_groups_rejected(self):
        with pytest.raises(InvariantError, match="overlaps"):
            GroupPartition.from_indices(4, [[0, 1], [1, 2]])

    def test_empty_group_rejected(self):
        with pytest.raises(InvariantError, match="empty"):
            GroupPartition.from_indices(4, [[0, 1], []])

    def test_uncovered_scalars_counted_when_cover_is_required(self):
        groups = GroupPartition.from_indices(5, [[0, 1], [3]]).groups
        assert GroupPartition(groups, 5).n_groups == 2
        with pytest.raises(InvariantError, match="^2 trainable scalars belong to no group$"):
            GroupPartition(groups, 5, require_cover=True)
        covering = GroupPartition.from_indices(5, [[0, 1], [2, 3, 4]]).groups
        assert GroupPartition(covering, 5, require_cover=True).n_groups == 2

    @pytest.mark.parametrize("index", [-1, 4])
    def test_out_of_range_index_rejected(self, index):
        with pytest.raises(InvariantError, match="^group 1 indexes outside the flat view$"):
            GroupPartition.from_indices(4, [[0, 1], [2, index]])


class TestGatherOrder:
    """`order` lists the penalized entries group by group, then the free ones; `inverse` undoes it."""

    @staticmethod
    def check(p):
        n_pen = p.pen_perm.size
        assert p.order.dtype == p.inverse.dtype == np.int64
        assert np.array_equal(np.sort(p.order), np.arange(p.n_flat))  # a permutation
        assert np.array_equal(p.order[p.inverse], np.arange(p.n_flat))
        assert np.array_equal(p.inverse[p.order], np.arange(p.n_flat))
        assert np.array_equal(p.order[:n_pen], p.pen_perm)
        assert np.array_equal(p.order[n_pen:], p.free_perm)
        x = np.random.default_rng(p.n_flat).standard_normal(p.n_flat).astype(np.float32)
        x[::3] = -0.0
        assert x.take(p.order).take(p.inverse).tobytes() == x.tobytes()

    def test_model_partitions(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = build_random_model(rng)
            for penalize_output in (False, True):
                self.check(partition_zig(m, penalize_output=penalize_output))

    def test_hand_made_partitions(self):
        rng = np.random.default_rng(2)
        self.check(GroupPartition([], 5))
        self.check(GroupPartition.from_indices(6, [[4, 1], [0, 5]], [False, False]))
        for _ in range(20):
            n = int(rng.integers(2, 40))
            picked = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            lists = [c for c in np.array_split(picked, int(rng.integers(1, picked.size + 1))) if c.size]
            self.check(GroupPartition.from_indices(n, lists, list(rng.random(len(lists)) < 0.7)))


class TestZeroInvariance:
    def test_fc_group_zeroing_exact(self):
        rng = np.random.default_rng(1)
        m = model_from(["linear:4", "relu", "linear:2"], (3,), seed=4)
        p = partition_zig(m)
        x = m.get_flat()
        p.zero_groups_inplace(x, [1])
        m.set_flat(x)
        inputs = rng.standard_normal((20, 3)).astype(np.float32)
        assert np.all(m.layer_outputs(inputs)[0][:, 1] == 0.0)

    def test_no_trials_no_deviation(self):
        m = model_from(["linear:3"], (4,))
        p = partition_zig(m, penalize_output=True)
        assert verify_zero_invariance(m, p, trials=0, seed=0) == 0.0

    def test_toy_cnn_hundred_trials(self):
        specs = ["convbn:3:3x3:p1:gelu", "residual:4:3x3:p1:leaky_relu", "linear:6", "prelu", "linear:3"]
        m = model_from(specs, (2, 5, 5), loss="softmax_ce", seed=9)
        p = partition_zig(m)
        assert verify_zero_invariance(m, p, trials=100, seed=2) == 0.0

    def test_mha_zero_invariance(self):
        m = model_from(["mha:2x3", "gelu", "linear:2"], (4,), seed=10)
        p = partition_zig(m)
        assert verify_zero_invariance(m, p, trials=50, seed=3) == 0.0

    def test_nan_in_a_zeroed_unit_fails_the_gate(self, monkeypatch):
        # a linear forward that writes NaN into every unit whose row is zero:
        # the gate must report NaN, which fails `== 0.0`, not drop it
        original = layers_module.linear_forward

        def poisoned(x, layer):
            out, cache = original(x, layer)
            dead = ~np.any(layer.weight.data != 0, axis=1) & (layer.bias.data == 0)
            out[..., dead] = np.nan
            return out, cache

        monkeypatch.setattr(layers_module, "linear_forward", poisoned)
        m = model_from(["linear:4", "relu", "linear:3"], (5,), seed=12)
        assert np.isnan(verify_zero_invariance(m, partition_zig(m), trials=20, seed=5))

    def test_hand_laid_groups_raise_before_any_trial(self):
        # a hand-laid group names no layer output: measuring `outs[-1]` would
        # read the whole final output (3.90 here before this raised)
        m = model_from(["linear:1"], (8,), seed=0)
        p = GroupPartition.from_indices(m.n_flat, [range(4), range(4, 8), [8]], [True, True, False])
        with pytest.raises(UnsupportedStructureError, match=r"group 0 \(L-1:custom:0\)"):
            verify_zero_invariance(m, p, trials=20, seed=0)

    def test_does_not_mutate_the_model(self):
        m = model_from(["linear:3"], (4,), seed=11)
        before = m.get_flat()
        p = partition_zig(m, penalize_output=True)
        verify_zero_invariance(m, p, trials=5, seed=4)
        assert np.array_equal(m.get_flat(), before)


class TestExport:
    def test_text_format(self):
        m = model_from(["linear:2", "relu", "linear:2"], (3,))
        p = partition_zig(m)
        text = p.export_text()
        lines = text.strip().splitlines()
        assert len(lines) == p.n_groups
        assert lines[0].startswith("g0\tL0:linear:0\tpenalized\t")
        assert "L0.weight:0-3" in lines[0]
        assert "L0.bias:0-1" in lines[0]
        assert lines[-1].split("\t")[2] == "free"

    def test_hand_made_groups_export_one_span_per_run(self):
        p = GroupPartition.from_indices(10, [[0, 5], [1, 2, 3], [9, 7, 8], [4, 6]])
        spans = [line.split("\t")[3] for line in p.export_text().splitlines()]
        assert spans == ["flat:0-1,flat:5-6", "flat:1-4", "flat:7-10", "flat:4-5,flat:6-7"]

    def test_custom_partition_roundtrip_queries(self):
        p = GroupPartition.from_indices(6, [[0, 1], [2, 3, 4]], [True, False])
        x = np.array([3.0, 4.0, 1.0, 0.0, 0.0, 9.0], dtype=np.float32)
        assert np.allclose(p.pen_sqnorms(x), [25.0])
        assert p.n_penalized == 1
        assert np.array_equal(x[p.groups[1].indices], [1.0, 0.0, 0.0])
