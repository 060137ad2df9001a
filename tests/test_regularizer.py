import numpy as np
import pytest

from zigprune.errors import ParameterError
from zigprune.hspg import OptimizerState
from zigprune.zig import GroupPartition, group_prox, sparsity_metrics, subgradient

from helpers import scattered_subgradient


def group_norm_value(x, partition):
    """r(x), as `train` reads it for the objective."""
    return sparsity_metrics(x, partition).group_norm


def naive_mixed_norm(x, index_lists):
    total = 0.0
    for idx in index_lists:
        s = 0.0
        for i in idx:
            s += float(x[i]) ** 2
        total += s**0.5
    return total


@pytest.fixture
def partition():
    return GroupPartition.from_indices(6, [[0, 1], [2, 3], [4, 5]])


class TestValue:
    def test_zero_vector(self, partition):
        assert group_norm_value(np.zeros(6, dtype=np.float32), partition) == 0.0

    def test_three_four_five(self, partition):
        x = np.array([3.0, 4.0, 0, 0, 0, 0], dtype=np.float32)
        assert group_norm_value(x, partition) == pytest.approx(5.0, abs=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        lists = [[0, 1, 2], [3], [4, 5, 6, 7]]
        p = GroupPartition.from_indices(8, lists)
        for _ in range(20):
            x = rng.standard_normal(8).astype(np.float32)
            assert group_norm_value(x, p) == pytest.approx(
                naive_mixed_norm(x, lists), abs=1e-6
            )

    def test_unpenalized_groups_do_not_count(self):
        p = GroupPartition.from_indices(4, [[0, 1], [2, 3]], [True, False])
        x = np.array([3.0, 4.0, 100.0, 100.0], dtype=np.float32)
        assert group_norm_value(x, p) == pytest.approx(5.0)

    def test_nonnegative_and_zero_only_when_all_groups_zero(self, partition):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.standard_normal(6).astype(np.float32)
            x[rng.random(6) < 0.5] = 0.0
            r = group_norm_value(x, partition)
            assert r >= 0.0
            assert (r == 0.0) == bool(np.all(x == 0.0))


class TestSubgradient:
    def test_unit_direction_scaled_by_lambda(self, partition):
        x = np.array([3.0, 4.0, 0, 0, 0, 0], dtype=np.float64)  # pen_perm is the identity here
        z = subgradient(x, partition.pen_sum(x * x), partition, lam=2.0)
        assert z.dtype == np.float64
        assert np.allclose(z[:2], [1.2, 1.6])
        assert np.all(z[2:] == 0.0)

    def test_gathered_layout(self):
        # the result follows x[pen_perm]; unpenalized entries are not part of it
        p = GroupPartition.from_indices(5, [[3, 0], [1], [2, 4]], [True, False, True])
        x = np.array([4.0, 9.0, 0.0, 3.0, 0.0], dtype=np.float32)
        xp = x[p.pen_perm].astype(np.float64)
        assert np.allclose(subgradient(xp, p.pen_sum(xp * xp), p, 1.0), [0.6, 0.8, 0.0, 0.0])

    def test_zero_group_contributes_zero(self, partition):
        x = np.zeros(6, dtype=np.float32)
        assert np.all(scattered_subgradient(x, partition, 0.5) == 0.0)

    def test_groupwise_norm_at_most_one(self, partition):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(6).astype(np.float32)
            z = scattered_subgradient(x, partition, 1.0)
            for idx in ([0, 1], [2, 3], [4, 5]):
                assert np.linalg.norm(z[idx]) <= 1.0 + 1e-9

    def test_subgradient_inequality(self, partition):
        # r(y) >= r(x) + <zeta(x), y - x> for a valid subgradient
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.standard_normal(6).astype(np.float32)
            y = rng.standard_normal(6).astype(np.float32)
            rx = group_norm_value(x, partition)
            ry = group_norm_value(y, partition)
            zeta = scattered_subgradient(x, partition, 1.0).astype(np.float64)
            assert ry - rx - zeta @ (y.astype(np.float64) - x.astype(np.float64)) >= -1e-6

    def test_negative_lambda_rejected(self):
        # the optimizer state refuses lam < 0 before any step forms a subgradient
        with pytest.raises(ParameterError, match="regularization weight must be >= 0"):
            OptimizerState(x=np.zeros(6, dtype=np.float32), alpha=0.1, lam=-0.1)


class TestProx:
    def test_shrinks_outside_ball(self, partition):
        v = np.array([3.0, 4.0, 0, 0, 0, 0], dtype=np.float32)
        out = group_prox(v, partition, 0.5)
        assert np.allclose(out[:2], [2.7, 3.6])

    def test_zeroes_inside_ball(self, partition):
        # float32 (0.3, 0.4) rounds to a vector of norm slightly above 0.5,
        # so give the radius the matching headroom; the boundary itself is
        # covered by the exactly representable (0.5, 0) case below
        v = np.array([0.3, 0.4, 0, 0, 0, 0], dtype=np.float32)
        out = group_prox(v, partition, 0.5000001)
        assert np.all(out == 0.0)
        v2 = np.array([0.5, 0.0, 0, 0, 0, 0], dtype=np.float32)
        assert np.all(group_prox(v2, partition, 0.5) == 0.0)

    def test_zero_threshold_is_identity(self, partition):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(6).astype(np.float32)
        assert np.array_equal(group_prox(v, partition, 0.0), v)

    def test_prox_is_exact_minimizer_on_2d_groups(self):
        # grid minimization of 1/2||u-v||^2 + tau*||u|| per 2-D group
        rng = np.random.default_rng(4)
        p = GroupPartition.from_indices(2, [[0, 1]])
        for _ in range(5):
            v = rng.uniform(-2, 2, size=2).astype(np.float32)
            tau = float(rng.uniform(0.1, 1.5))
            out = group_prox(v.copy(), p, tau)
            grid = np.linspace(-3, 3, 301)
            uu, vv = np.meshgrid(grid, grid, indexing="ij")
            obj = 0.5 * ((uu - v[0]) ** 2 + (vv - v[1]) ** 2) + tau * np.sqrt(
                uu**2 + vv**2
            )
            best = np.unravel_index(np.argmin(obj), obj.shape)
            grid_min = np.array([grid[best[0]], grid[best[1]]])
            out64, v64 = out.astype(np.float64), v.astype(np.float64)
            prox_obj = 0.5 * np.sum((out64 - v64) ** 2) + tau * np.linalg.norm(out64)
            assert prox_obj <= obj[best] + 1e-9
            assert np.abs(out - grid_min).max() <= 0.03  # within grid resolution

    def test_zero_region_is_exactly_the_tau_ball(self):
        p = GroupPartition.from_indices(2, [[0, 1]])
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.standard_normal(2).astype(np.float32)
            tau = float(rng.uniform(0.1, 2.0))
            zeroed = np.all(group_prox(v.copy(), p, tau) == 0.0)
            assert zeroed == (np.linalg.norm(v.astype(np.float64)) <= tau)

    def test_unpenalized_entries_untouched(self):
        p = GroupPartition.from_indices(4, [[0, 1], [2, 3]], [True, False])
        v = np.array([0.1, 0.1, 0.2, 0.2], dtype=np.float32)
        out = group_prox(v, p, 10.0)
        assert np.all(out[:2] == 0.0)
        assert np.array_equal(out[2:], v[2:])

    def test_negative_threshold_rejected(self, partition):
        with pytest.raises(ParameterError):
            group_prox(np.zeros(6, dtype=np.float32), partition, -1.0)


class TestSparsityMetrics:
    def test_all_zero(self, partition):
        m = sparsity_metrics(np.zeros(6, dtype=np.float32), partition)
        assert m.group_sparsity == 1.0 and m.zero_groups == 3

    def test_no_zero_groups(self, partition):
        m = sparsity_metrics(np.ones(6, dtype=np.float32), partition)
        assert m.group_sparsity == 0.0 and m.nonzero_groups == 3

    def test_half_of_forty(self):
        p = GroupPartition.from_indices(80, [[2 * i, 2 * i + 1] for i in range(40)])
        x = np.ones(80, dtype=np.float32)
        x[:40] = 0.0
        m = sparsity_metrics(x, p)
        assert m.group_sparsity == 0.5 and m.zero_groups == 20

    def test_zero_test_is_bitwise(self, partition):
        x = np.full(6, 1e-30, dtype=np.float32)
        m = sparsity_metrics(x, partition)
        assert m.zero_groups == 0  # tiny but nonzero entries do not count
