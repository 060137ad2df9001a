import importlib.util
import json
import os

import numpy as np
import pytest

from zigprune.config import build_layers
from zigprune.data import Dataset, generate_group_lasso
from zigprune.errors import InvariantError, NumericalFailureError, ParameterError
from zigprune.hspg import (
    OPTIMIZER_KINDS,
    OptimizerState,
    TrainConfig,
    hspg_step,
    prox_sg_step,
    sgd_step,
    train,
)
from zigprune.model import EVAL_CHUNK, ModelGraph
from zigprune.zig import GroupPartition, group_prox, partition_zig, sparsity_metrics

from helpers import (
    bits,
    build_random_model,
    nonzero_counts,
    pen_dots,
    reference_group_prox,
    reference_hspg_step,
    reference_prox_sg_step,
    reference_split_hspg_step,
    reference_subgradient,
    scattered_subgradient,
)
from oracle import bcd_oracle, least_squares_objective


def two_group_partition():
    return GroupPartition.from_indices(4, [[0, 1], [2, 3]])


QUAD_CENTER = np.array([0.01, 0.0, 1.0, 1.0], dtype=np.float32)


def quad_grad(x):
    return (x - QUAD_CENTER).astype(np.float32)


class TestIndexSets:
    """The zero set is the penalized groups whose float64 sum of squares is 0.0."""

    def test_all_zero(self):
        p = two_group_partition()
        zero = p.pen_sqnorms(np.zeros(4, dtype=np.float32)) == 0.0
        assert list(p.pen_gids[zero]) == [0, 1] and list(p.pen_gids[~zero]) == []

    def test_mixed(self):
        p = two_group_partition()
        zero = p.pen_sqnorms(np.array([0, 0, 1, 2], dtype=np.float32)) == 0.0
        assert list(p.pen_gids[zero]) == [0] and list(p.pen_gids[~zero]) == [1]

    def test_exact_partition_on_random_vectors(self):
        rng = np.random.default_rng(0)
        p = GroupPartition.from_indices(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        for _ in range(50):
            x = rng.standard_normal(9).astype(np.float32)
            x[rng.random(9) < 0.4] = 0.0
            is_zero = p.pen_sqnorms(x) == 0.0
            zero, nonzero = p.pen_gids[is_zero], p.pen_gids[~is_zero]
            assert sorted(list(zero) + list(nonzero)) == [0, 1, 2]
            for g in zero:
                assert np.all(x[p.groups[g].indices] == 0.0)
            for g in nonzero:
                assert np.any(x[p.groups[g].indices] != 0.0)


def half_space_step(x, z, p, epsilon=0.0):
    """One half-space step from x whose trial point is z: lam 0, alpha 1, grad x - z."""
    st = OptimizerState(x=x, alpha=1.0, lam=0.0, epsilon=epsilon, switch_iteration=1, k=1)
    info = hspg_step(st, (x - z).astype(np.float32), p)
    assert info["stage"] == "half_space"
    return st.x, info["zeroed"]


class TestHalfSpaceProject:
    """The projection inside `hspg_step`: zero a group when <z_g, x_g> < eps ||x_g||^2."""

    def test_positive_alignment_kept(self):
        p = GroupPartition.from_indices(2, [[0, 1]])
        x = np.array([1.0, 0.0], dtype=np.float32)
        z = np.array([0.5, 0.2], dtype=np.float32)
        out, zeroed = half_space_step(x, z, p)
        assert np.array_equal(out, z) and zeroed.size == 0

    def test_negative_alignment_zeroed(self):
        p = GroupPartition.from_indices(2, [[0, 1]])
        x = np.array([1.0, 0.0], dtype=np.float32)
        z = np.array([-0.1, 0.3], dtype=np.float32)
        out, zeroed = half_space_step(x, z, p)
        assert np.array_equal(out, np.zeros(2, dtype=np.float32)) and list(zeroed) == [0]

    def test_aggressive_epsilon_threshold(self):
        p = GroupPartition.from_indices(2, [[0, 1]])
        x = np.array([1.0, 0.0], dtype=np.float32)
        z = np.array([0.4, 0.0], dtype=np.float32)  # <z, x> = 0.4 ||x||^2
        assert half_space_step(x, z, p)[1].size == 0
        out, zeroed = half_space_step(x, z, p, epsilon=0.5)
        assert np.array_equal(out, np.zeros(2, dtype=np.float32)) and list(zeroed) == [0]

    def test_identity_when_all_aligned_and_epsilon_zero(self):
        rng = np.random.default_rng(1)
        p = two_group_partition()
        for _ in range(20):
            x = rng.standard_normal(4).astype(np.float32)
            z = x * np.float32(rng.uniform(0.5, 1.5))  # positively aligned per group
            out, zeroed = half_space_step(x, z, p)
            assert zeroed.size == 0
            # the projection leaves the trial point as the plain step computes it
            plain = OptimizerState(x=x, alpha=1.0, lam=0.0, switch_iteration=1)
            hspg_step(plain, (x - z).astype(np.float32), p)
            assert np.array_equal(out, plain.x)

    def test_epsilon_range_validated(self):
        # OptimizerState and TrainConfig share one check and one set of messages
        cases = [
            ((0.1, 0.0, 1.0), "epsilon must lie in [0, 1), got 1.0"),
            ((0.1, 0.0, -0.5), "epsilon must lie in [0, 1), got -0.5"),
            ((0.0, 0.0, 0.0), "step size must be > 0, got 0.0"),
            ((0.1, -1.0, 0.0), "regularization weight must be >= 0, got -1.0"),
            # every range test fails on NaN; +inf passes the open ones and is refused
            ((np.nan, 0.0, 0.0), "step size must be > 0, got nan"),
            ((np.inf, 0.0, 0.0), "step size must be finite, got inf"),
            ((-np.inf, 0.0, 0.0), "step size must be > 0, got -inf"),
            ((0.1, np.nan, 0.0), "regularization weight must be >= 0, got nan"),
            ((0.1, np.inf, 0.0), "regularization weight must be finite, got inf"),
            ((0.1, -np.inf, 0.0), "regularization weight must be >= 0, got -inf"),
            ((0.1, 0.0, np.nan), "epsilon must lie in [0, 1), got nan"),
            ((0.1, 0.0, 0.0, np.nan), "decay factor must be > 0, got nan"),
            ((0.1, 0.0, 0.0, np.inf), "decay factor must be finite, got inf"),
            ((0.1, 0.0, 0.0, -np.inf), "decay factor must be > 0, got -inf"),
            ((0.1, 0.0, 0.0, 0.0), "decay factor must be > 0, got 0.0"),
            ((0.1, 0.0, 0.0, -1.0), "decay factor must be > 0, got -1.0"),
        ]
        for (alpha, lam, epsilon, *decay), message in cases:
            kw = {"lam": lam, "epsilon": epsilon, "decay": decay[0] if decay else 1.0}
            with pytest.raises(ParameterError) as state_err:
                OptimizerState(x=np.zeros(4, np.float32), alpha=alpha, **kw)
            with pytest.raises(ParameterError) as config_err:
                TrainConfig(alpha0=alpha, **kw)
            assert str(state_err.value) == str(config_err.value) == message


class TestSteps:
    def test_subgradient_stage_zero_direction_keeps_x(self):
        p = two_group_partition()
        st = OptimizerState(x=QUAD_CENTER.copy(), alpha=0.1, lam=0.1, switch_iteration=50)
        # a loss gradient that cancels the regularizer's: nu = 0
        info = hspg_step(st, -reference_subgradient(st.x, p, st.lam), p)
        assert info["stage"] == "subgradient"
        assert np.array_equal(st.x, QUAD_CENTER)
        assert st.k == 1

    def test_zero_group_stays_zero_after_switch(self):
        p = two_group_partition()
        x0 = np.array([0.0, 0.0, 1.0, 1.0], dtype=np.float32)
        st = OptimizerState(x=x0, alpha=0.1, lam=0.1, switch_iteration=1, k=5)
        grad = np.array([5.0, -3.0, 0.1, 0.1], dtype=np.float32)
        info = hspg_step(st, grad, p)
        assert info["stage"] == "half_space"
        assert np.all(st.x[:2] == 0.0)  # frozen despite a nonzero direction

    def test_monotone_sparsity_over_run(self):
        p = two_group_partition()
        st = OptimizerState(x=QUAD_CENTER.copy(), alpha=0.1, lam=0.1, switch_iteration=10)
        prev_zero: set = set()
        for _ in range(200):
            hspg_step(st, quad_grad(st.x), p)
            if st.k > st.switch_iteration:
                now_zero = set(p.pen_gids[nonzero_counts(st.x, p) == 0].tolist())
                assert prev_zero <= now_zero
                prev_zero = now_zero

    def test_quadratic_support_matches_prox_oracle(self):
        # oracle solution of min 1/2||x-c||^2 + lam r(x) is the prox at c
        p = two_group_partition()
        lam = 0.1
        oracle = group_prox(QUAD_CENTER.copy(), p, lam)
        assert np.all(oracle[:2] == 0.0) and np.all(oracle[2:] != 0.0)

        st = OptimizerState(x=QUAD_CENTER.copy(), alpha=0.1, lam=lam, switch_iteration=50)
        for _ in range(2000):
            hspg_step(st, quad_grad(st.x), p)
        assert np.all(st.x[:2] == 0.0)  # exact zeros, not small values
        assert np.all(st.x[2:] != 0.0)
        assert np.abs(st.x - oracle).max() <= 1e-3

    def test_prox_sg_zeroes_group_inside_ball(self):
        p = two_group_partition()
        st = OptimizerState(
            x=np.array([0.001, 0.001, 1, 1], dtype=np.float32), alpha=0.1, lam=0.5
        )
        prox_sg_step(st, np.zeros(4, dtype=np.float32), p)
        assert np.all(st.x[:2] == 0.0)

    def test_prox_sg_with_zero_lambda_is_sgd(self):
        p = two_group_partition()
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal(4).astype(np.float32)
        g = rng.standard_normal(4).astype(np.float32)
        st1 = OptimizerState(x=x0.copy(), alpha=0.05, lam=0.0)
        st2 = OptimizerState(x=x0.copy(), alpha=0.05, lam=0.0)
        prox_sg_step(st1, g, p)
        sgd_step(st2, g)
        assert np.array_equal(st1.x, st2.x)

    def test_prox_sg_quadratic_support(self):
        p = two_group_partition()
        st = OptimizerState(x=QUAD_CENTER.copy(), alpha=0.1, lam=0.1, switch_iteration=1)
        for _ in range(2000):
            prox_sg_step(st, quad_grad(st.x), p)
        assert np.all(st.x[:2] == 0.0) and np.all(st.x[2:] != 0.0)

    def test_mechanism_gap_at_small_steps_under_noise(self):
        # with a deep-learning-scale step the prox zero region (radius
        # alpha*lam) is unreachable under gradient noise, while the
        # half-space projection still produces exact zeros
        p = two_group_partition()
        lam, alpha, iters = 0.1, 1e-4, 10_000

        def noisy_grad(x, rng):
            return (quad_grad(x) + 0.5 * rng.standard_normal(4)).astype(np.float32)

        rng = np.random.default_rng(0)
        st_h = OptimizerState(x=QUAD_CENTER.copy(), alpha=alpha, lam=lam, switch_iteration=1000)
        for _ in range(iters):
            hspg_step(st_h, noisy_grad(st_h.x, rng), p)
        rng = np.random.default_rng(0)
        st_p = OptimizerState(x=QUAD_CENTER.copy(), alpha=alpha, lam=lam, switch_iteration=1)
        for _ in range(iters):
            prox_sg_step(st_p, noisy_grad(st_p.x, rng), p)

        assert np.all(st_h.x[:2] == 0.0)  # half-space: exact zeros
        assert np.any(st_p.x[:2] != 0.0)  # prox: hovers, never exactly zero
        assert np.all(st_h.x[2:] != 0.0) and np.all(st_p.x[2:] != 0.0)

    def test_non_finite_direction_raises_with_iteration(self):
        p = two_group_partition()
        st = OptimizerState(x=QUAD_CENTER.copy(), alpha=0.1, lam=0.1, k=7)
        bad = np.array([1.0, np.nan, 0.0, 0.0], dtype=np.float32)
        with pytest.raises(NumericalFailureError) as err:
            hspg_step(st, bad, p)
        assert err.value.iteration == 7
        with pytest.raises(NumericalFailureError):
            prox_sg_step(st, bad, p)
        with pytest.raises(NumericalFailureError):
            sgd_step(st, bad)

    def test_state_validation(self):
        with pytest.raises(ParameterError):
            OptimizerState(x=np.zeros(2), alpha=0.1, lam=0.0, epsilon=1.0)
        with pytest.raises(ParameterError):
            OptimizerState(x=np.zeros(2), alpha=0.0, lam=0.0)
        with pytest.raises(ParameterError):
            OptimizerState(x=np.zeros(2), alpha=0.1, lam=-1.0)
        with pytest.raises(ParameterError):
            OptimizerState(x=np.zeros(2), alpha=0.1, lam=0.0, switch_iteration=0)

    def test_alpha_decay_schedule(self):
        p = two_group_partition()
        st = OptimizerState(
            x=QUAD_CENTER.copy(), alpha=1.0, lam=0.0, decay=0.5, steps_per_epoch=2
        )
        for _ in range(4):
            sgd_step(st, np.zeros(4, dtype=np.float32))
        assert st.alpha == pytest.approx(0.25)


def random_partition(rng, n, pen_frac=0.8):
    """Groups of random sizes over a random part of n entries, most of them penalized."""
    order = rng.permutation(n)[: int(rng.integers(n // 2, n + 1))]
    cuts = np.sort(rng.choice(np.arange(1, order.size), size=min(order.size - 1, n // 3), replace=False))
    lists = [c for c in np.split(order, cuts) if c.size]
    return GroupPartition.from_indices(n, lists, list(rng.random(len(lists)) < pen_frac))


def signed_zero_vector(rng, n, partition, zero_frac=0.3):
    """Random float32 entries, some groups all zero, and some -0.0 entries."""
    x = rng.standard_normal(n).astype(np.float32)
    for g in partition.groups:
        if rng.random() < zero_frac:
            x[g.indices] = 0.0
    x[rng.random(n) < 0.1] = -0.0
    return x


def step_gradient(rng, x, partition, alpha):
    """Noise with -0.0 entries, plus a push across the half-space on some groups."""
    grad = (0.3 * rng.standard_normal(x.size)).astype(np.float32)
    grad[rng.random(x.size) < 0.1] = -0.0
    for g in partition.groups:
        if rng.random() < 0.25:
            grad[g.indices] = x[g.indices] * np.float32(rng.uniform(1.2, 2.5) / alpha)
    return grad


def outcome(step, *args):
    """A step's info, or the type and message of what it raised."""
    try:
        return step(*args)
    except (InvariantError, NumericalFailureError) as exc:
        return (type(exc), str(exc), exc.iteration if hasattr(exc, "iteration") else None)


def run_lockstep(rng, partition, lam, eps, steps=12, switch=3):
    """Fused step vs the reference pair from one start; returns the projection events seen."""
    alpha = float(rng.uniform(0.05, 0.5))
    x0 = signed_zero_vector(rng, partition.n_flat, partition)
    new = OptimizerState(x=x0, alpha=alpha, lam=lam, epsilon=eps, switch_iteration=switch)
    ref = OptimizerState(x=x0, alpha=alpha, lam=lam, epsilon=eps, switch_iteration=switch)
    events = 0
    for _ in range(steps):
        grad = step_gradient(rng, new.x, partition, alpha)
        nu = grad + reference_subgradient(ref.x, partition, lam)
        got = outcome(hspg_step, new, grad, partition)
        want = outcome(reference_hspg_step, ref, nu, partition)
        if isinstance(want, tuple):
            assert got == want
            return events
        assert got["stage"] == want["stage"] and got["k"] == want["k"]
        assert np.array_equal(got["zeroed"], want["zeroed"])
        assert bits(new.x) == bits(ref.x)
        assert new.k == ref.k
        events += len(want["zeroed"])
    return events


class TestSingleGatherStep:
    """The fused step equals `subgradient` + the old step bit for bit, signed zeros included."""

    def test_random_partitions(self):
        rng = np.random.default_rng(40)
        events = 0
        for _ in range(30):
            p = random_partition(rng, int(rng.integers(4, 40)))
            for lam in (0.0, float(rng.uniform(0.01, 0.5))):
                for eps in (0.0, 0.25):
                    events += run_lockstep(rng, p, lam, eps)
        assert events > 20  # projection events did happen

    def test_model_partitions(self):
        rng = np.random.default_rng(41)
        events = 0
        for _ in range(8):
            p = partition_zig(build_random_model(rng))
            for lam in (0.0, 0.2):
                events += run_lockstep(rng, p, lam, 0.1, steps=8, switch=2)
        assert events > 0

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_no_penalized_groups(self, lam):
        rng = np.random.default_rng(42)
        for p in (random_partition(rng, 12, pen_frac=0.0), GroupPartition([], 12)):
            assert p.n_penalized == 0
            run_lockstep(rng, p, lam, 0.0)

    def test_frozen_groups_and_a_projection_event(self):
        p = two_group_partition()
        x0 = np.array([0.0, -0.0, 1.0, 0.5], dtype=np.float32)
        grad = np.array([5.0, -3.0, 30.0, 15.0], dtype=np.float32)  # pushes group 1 across
        nu = grad + reference_subgradient(x0, p, 0.1)
        for step, direction in ((hspg_step, grad), (reference_hspg_step, nu)):
            st = OptimizerState(x=x0, alpha=0.1, lam=0.1, switch_iteration=1, k=1)
            info = step(st, direction, p)
            assert list(info["zeroed"]) == [1]
            assert bits(st.x) == bits(np.zeros(4, dtype=np.float32))

    def test_signed_zero_of_the_zero_subgradient_is_kept(self):
        # nu = grad + 0.0 turns a -0.0 gradient entry into +0.0, and -0.0 - alpha * +0.0
        # stays -0.0; stepping along the raw -0.0 would give +0.0 instead
        p = GroupPartition.from_indices(3, [[0, 1]], [True])
        x0 = np.array([-0.0, 1.0, -0.0], dtype=np.float32)
        grad = np.array([-0.0, 0.5, -0.0], dtype=np.float32)
        for lam in (0.0, 0.1):
            st = OptimizerState(x=x0, alpha=0.1, lam=lam)
            ref = OptimizerState(x=x0, alpha=0.1, lam=lam)
            hspg_step(st, grad, p)
            reference_hspg_step(ref, grad + reference_subgradient(x0, p, lam), p)
            assert bits(st.x) == bits(ref.x)
            assert bits(st.x[2:]) == bits(np.float32([-0.0]))

    @pytest.mark.parametrize("where", [0, 3], ids=["penalized", "unpenalized"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_message(self, where, bad):
        p = GroupPartition.from_indices(4, [[0, 1], [2], [3]], [True, True, False])
        grad = np.ones(4, dtype=np.float32)
        grad[where] = bad
        x0 = np.ones(4, dtype=np.float32)
        got = outcome(hspg_step, OptimizerState(x=x0, alpha=0.1, lam=0.1, k=9), grad, p)
        nu = grad + reference_subgradient(x0, p, 0.1)
        want = outcome(reference_hspg_step, OptimizerState(x=x0, alpha=0.1, lam=0.1, k=9), nu, p)
        assert got == want
        assert got[0] is NumericalFailureError and got[2] == 9

    def test_descent_check_message(self):
        # a trial point on the half-space boundary whose float32 rounding
        # zeroes the group although the float64 descent test fails
        p = GroupPartition.from_indices(2, [[0, 1]])
        x0 = np.array([0.35151007771492004, 0.9034701585769653], dtype=np.float32)
        grad = np.array([1.4886643886566162, 1.2886542081832886], dtype=np.float32)
        states = [
            OptimizerState(x=x0, alpha=0.3898407787192646, lam=0.0, epsilon=0.3,
                           switch_iteration=1, k=3)
            for _ in range(2)
        ]
        got = outcome(hspg_step, states[0], grad, p)
        want = outcome(reference_hspg_step, states[1], grad, p)
        assert want[0] is InvariantError and got == want
        assert bits(states[0].x) == bits(x0)  # a failed step leaves the iterate alone

    def test_group_prox_and_subgradient(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            p = random_partition(rng, int(rng.integers(4, 30)), pen_frac=float(rng.choice([0.0, 0.8])))
            v = signed_zero_vector(rng, p.n_flat, p)
            for tau in (0.0, 0.05, float(rng.uniform(0.5, 3.0))):
                assert bits(group_prox(v, p, tau)) == bits(reference_group_prox(v, p, tau))
                if tau:  # hspg_step forms no subgradient at lam = 0
                    got = scattered_subgradient(v, p, tau)
                    assert bits(got) == bits(reference_subgradient(v, p, tau))


def assert_same_step(new, old, got, want):
    """Two steps from equal states gave the same state and outcome, bit for bit."""
    if isinstance(want, tuple):
        assert got == want
    else:
        assert (got["k"], got["stage"]) == (want["k"], want["stage"])
        assert got["zeroed"].dtype == want["zeroed"].dtype and bits(got["zeroed"]) == bits(want["zeroed"])
    assert bits(new.x) == bits(old.x)
    assert new.k == old.k and bits(np.float64(new.alpha)) == bits(np.float64(old.alpha))


def run_order_lockstep(rng, partition, lam, eps, step, reference, steps=12, switch=3):
    """`step` against `reference` from one start; returns counts of what the steps met.

    The counts: half-space steps that met a frozen group, projection events,
    and the type of the error that ended the run, if one did.
    """
    alpha = float(rng.uniform(0.05, 0.5))
    x0 = signed_zero_vector(rng, partition.n_flat, partition)
    new, old = (
        OptimizerState(x=x0, alpha=alpha, lam=lam, epsilon=eps, switch_iteration=switch,
                       decay=0.5, steps_per_epoch=5)
        for _ in range(2)
    )
    seen = {"frozen": 0, "zeroed": 0, "error": None}
    for _ in range(steps):
        grad = step_gradient(rng, new.x, partition, alpha)
        if new.k >= switch and (nonzero_counts(new.x, partition) == 0).any():
            seen["frozen"] += 1
        got = outcome(step, new, grad, partition)
        want = outcome(reference, old, grad, partition)
        assert_same_step(new, old, got, want)
        if isinstance(want, tuple):
            seen["error"] = want[0]
            break
        seen["zeroed"] += len(want["zeroed"])
    return seen


class TestGatherOrderLockstep:
    """`hspg_step` and `prox_sg_step` over `GroupPartition.order` equal the split-gather steps.

    The references in `helpers` gather the penalized and the free entries
    separately and scatter both back; the steps under test gather once in
    the partition's order and put the iterate back with one `take`.
    """

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_hspg_random_partitions(self, lam, eps):
        rng = np.random.default_rng(int(50 + 10 * lam + 100 * eps))
        seen = [
            run_order_lockstep(rng, random_partition(rng, int(rng.integers(4, 40))), lam, eps,
                               hspg_step, reference_split_hspg_step)
            for _ in range(30)
        ]
        assert sum(s["frozen"] for s in seen) > 10  # frozen groups stayed frozen
        assert sum(s["zeroed"] for s in seen) > 10  # projection events did happen

    def test_hspg_model_partitions(self):
        rng = np.random.default_rng(51)
        for _ in range(6):
            p = partition_zig(build_random_model(rng))
            for lam in (0.0, 0.2):
                for eps in (0.0, 0.5):
                    run_order_lockstep(rng, p, lam, eps, hspg_step, reference_split_hspg_step,
                                       steps=8, switch=2)

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_hspg_no_penalized_groups(self, lam):
        rng = np.random.default_rng(52)
        for p in (random_partition(rng, 12, pen_frac=0.0), GroupPartition([], 12)):
            seen = run_order_lockstep(rng, p, lam, 0.5, hspg_step, reference_split_hspg_step)
            assert seen["error"] is None and seen["zeroed"] == 0

    def test_hspg_frozen_and_killed_group(self):
        # group 0 is frozen at zero; group 1 is pushed across its half-space
        p = GroupPartition.from_indices(5, [[0, 1], [2, 3]])
        x0 = np.array([0.0, -0.0, 1.0, 0.5, -0.0], dtype=np.float32)
        grad = np.array([5.0, -3.0, 30.0, 15.0, -0.0], dtype=np.float32)
        for lam, eps in ((0.0, 0.0), (0.1, 0.0), (0.1, 0.5)):
            new, old = (OptimizerState(x=x0, alpha=0.1, lam=lam, epsilon=eps, k=1) for _ in range(2))
            got = outcome(hspg_step, new, grad, p)
            want = outcome(reference_split_hspg_step, old, grad, p)
            assert_same_step(new, old, got, want)
            assert list(want["zeroed"]) == [1]
            assert bits(new.x[:4]) == bits(np.zeros(4, dtype=np.float32))

    def test_hspg_frozen_killed_and_kept_groups(self):
        # one step meets all three fates: group 0 is frozen at zero, group 1 is
        # pushed across its half-space, group 2 keeps its trial point
        p = GroupPartition.from_indices(7, [[0, 1], [2, 3], [4, 5]])
        x0 = np.array([0.0, -0.0, 1.0, 0.5, 1.0, -2.0, -0.0], dtype=np.float32)
        grad = np.array([5.0, -3.0, 30.0, 15.0, 0.1, -0.3, -0.0], dtype=np.float32)
        for lam, eps in ((0.0, 0.0), (0.1, 0.0), (0.1, 0.5)):
            new, old = (OptimizerState(x=x0, alpha=0.1, lam=lam, epsilon=eps, k=1) for _ in range(2))
            got = outcome(hspg_step, new, grad, p)
            want = outcome(reference_split_hspg_step, old, grad, p)
            assert_same_step(new, old, got, want)
            assert list(want["zeroed"]) == [1]
            assert bits(new.x[:4]) == bits(np.zeros(4, dtype=np.float32))
            assert np.all(new.x[4:6] != 0.0) and np.all(np.sign(new.x[4:6]) == np.sign(x0[4:6]))

    def test_failed_descent_check_leaves_the_state_alone(self):
        # k = 3 and steps_per_epoch = 4: a step that went through would also decay alpha
        p = GroupPartition.from_indices(3, [[0, 1]], [True])
        x0 = np.array([0.35151007771492004, 0.9034701585769653, -0.0], dtype=np.float32)
        grad = np.array([1.4886643886566162, 1.2886542081832886, -0.0], dtype=np.float32)
        alpha = 0.3898407787192646
        st = OptimizerState(x=x0, alpha=alpha, lam=0.0, epsilon=0.3, switch_iteration=1, k=3,
                            decay=0.5, steps_per_epoch=4)
        with pytest.raises(InvariantError, match="group 0 at iteration 3"):
            hspg_step(st, grad, p)
        assert bits(st.x) == bits(x0)
        assert st.k == 3 and st.alpha == alpha

    def test_prox_sg_without_penalized_groups_is_sgd(self):
        # with nothing to shrink, a lam > 0 prox step writes the bytes of the plain step
        rng = np.random.default_rng(54)
        for p in (random_partition(rng, 12, pen_frac=0.0), GroupPartition([], 12)):
            assert p.n_penalized == 0
            x0 = signed_zero_vector(rng, 12, p)
            grad = step_gradient(rng, x0, p, 0.1)
            prox, plain = (OptimizerState(x=x0, alpha=0.1, lam=0.5) for _ in range(2))
            prox_sg_step(prox, grad, p)
            sgd_step(plain, grad)
            assert bits(prox.x) == bits(plain.x) and prox.k == plain.k == 1

    def test_hspg_descent_check_error(self):
        p = GroupPartition.from_indices(3, [[0, 1]], [True])
        x0 = np.array([0.35151007771492004, 0.9034701585769653, -0.0], dtype=np.float32)
        grad = np.array([1.4886643886566162, 1.2886542081832886, -0.0], dtype=np.float32)
        new, old = (
            OptimizerState(x=x0, alpha=0.3898407787192646, lam=0.0, epsilon=0.3,
                           switch_iteration=1, k=3)
            for _ in range(2)
        )
        got = outcome(hspg_step, new, grad, p)
        want = outcome(reference_split_hspg_step, old, grad, p)
        assert want[0] is InvariantError and "group 0 at iteration 3" in want[1]
        assert_same_step(new, old, got, want)

    @pytest.mark.parametrize("where", [0, 3], ids=["penalized", "unpenalized"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_non_finite_gradient_error(self, where, bad, lam):
        p = GroupPartition.from_indices(4, [[0, 1], [2], [3]], [True, True, False])
        grad = np.ones(4, dtype=np.float32)
        grad[where] = bad
        x0 = np.ones(4, dtype=np.float32)
        for step, reference in ((hspg_step, reference_split_hspg_step),
                                (prox_sg_step, reference_prox_sg_step)):
            new, old = (OptimizerState(x=x0, alpha=0.1, lam=lam, k=9) for _ in range(2))
            got = outcome(step, new, grad, p)
            want = outcome(reference, old, grad, p)
            assert want[0] is NumericalFailureError and want[2] == 9
            assert_same_step(new, old, got, want)

    @pytest.mark.parametrize("lam", [0.0, 0.05, 2.0])
    def test_prox_sg_random_partitions(self, lam):
        rng = np.random.default_rng(int(53 + 10 * lam))
        for _ in range(30):
            p = random_partition(rng, int(rng.integers(4, 40)), pen_frac=float(rng.choice([0.0, 0.8])))
            run_order_lockstep(rng, p, lam, 0.0, prox_sg_step, reference_prox_sg_step)


class TestProjectionGeometry:
    def test_kept_groups_satisfy_half_space_membership(self):
        # after a projection step every kept group satisfies
        # <x_{k+1}, x_k> >= eps ||x_k||^2 and every zeroed group satisfied
        # the descent inequality at the moment it was zeroed
        for eps in (0.0, 0.1):
            p = two_group_partition()
            st = OptimizerState(
                x=QUAD_CENTER.copy(), alpha=0.1, lam=0.1, epsilon=eps, switch_iteration=5
            )
            rng = np.random.default_rng(3)
            for _ in range(300):
                x_prev = st.x.copy()
                alpha_step = st.alpha
                grad = quad_grad(st.x) + 0.05 * rng.standard_normal(4).astype(np.float32)
                nu = grad + reference_subgradient(st.x, p, st.lam)
                info = hspg_step(st, grad, p)
                if info["stage"] != "half_space":
                    continue
                s = p.pen_sqnorms(x_prev)
                d_new = pen_dots(p, st.x, x_prev)
                was_nonzero = nonzero_counts(x_prev, p) > 0
                now_nonzero = nonzero_counts(st.x, p) > 0
                kept = was_nonzero & now_nonzero
                assert np.all(d_new[kept] >= eps * s[kept])
                for g in info["zeroed"]:
                    xg = x_prev[p.groups[g].indices].astype(np.float64)
                    ng = nu[p.groups[g].indices].astype(np.float64)
                    assert xg @ ng > (1 - eps) * (xg @ xg) / alpha_step

    def test_ball_is_inside_the_projection_half_space(self):
        # any point of the ell2 ball of radius alpha*lam lands in the zeroing
        # region x_k^T v < (alpha lam + eps ||x_k||) ||x_k||
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            x = rng.standard_normal(n)
            alpha, lam, eps = rng.uniform(1e-4, 0.1), rng.uniform(0.01, 1.0), 0.1
            v = rng.standard_normal((1000, n))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            v *= alpha * lam * rng.uniform(0, 1, size=(1000, 1))
            lhs = v @ x
            bound = (alpha * lam + eps * np.linalg.norm(x)) * np.linalg.norm(x)
            assert np.all(lhs < bound)


def glasso_model(n_features):
    layers = build_layers(["linear:1"], (n_features,), "mse", "zeros", 0)
    return ModelGraph(layers, (n_features,))


class TestTrain:
    def make_problem(self, groups=10, size=4, support=3, samples=120, seed=6):
        ds, _ = generate_group_lasso(groups, size, support, samples, 0.01, seed)
        model = glasso_model(groups * size)
        lists = [np.arange(g * size, (g + 1) * size) for g in range(groups)]
        part = GroupPartition.from_indices(
            model.n_flat, lists + [[groups * size]], [True] * groups + [False]
        )
        return ds, model, part, lists

    def test_rejects_an_empty_dataset_and_a_model_without_loss(self):
        ds, model, part, _ = self.make_problem()
        cfg = TrainConfig(optimizer="hspg", alpha0=0.1, lam=0.1, epochs=1)
        empty = Dataset(ds.inputs[:0], ds.targets[:0], ds.task)
        with pytest.raises(ParameterError, match="^dataset is empty$"):
            train(model, part, empty, cfg)
        lossless = ModelGraph(build_layers(["linear:1"], model.input_shape, None, "zeros", 0),
                              model.input_shape)
        with pytest.raises(ParameterError, match="^training needs a model whose last layer is a loss$"):
            train(lossless, part, ds, cfg)

    def test_zero_epochs_returns_initial_state(self):
        ds, model, part, _ = self.make_problem()
        x0 = model.get_flat()
        cfg = TrainConfig(optimizer="hspg", alpha0=0.1, lam=0.1, epochs=0)
        x, trace = train(model, part, ds, cfg)
        assert trace == []
        assert np.array_equal(x, x0)

    def test_deterministic_replay_is_bitwise(self):
        ds, model, part, _ = self.make_problem()
        cfg = TrainConfig(
            optimizer="hspg", alpha0=0.05, lam=0.2, np_epochs=2, batch_size=16,
            epochs=6, seed=11,
        )
        x1, t1 = train(model.clone(), part, ds, cfg)
        x2, t2 = train(model.clone(), part, ds, cfg)
        assert np.array_equal(x1, x2)
        assert json.dumps(t1, sort_keys=True) == json.dumps(t2, sort_keys=True)

    def test_trace_schema(self):
        ds, model, part, _ = self.make_problem()
        cfg = TrainConfig(optimizer="hspg", alpha0=0.05, lam=0.2, np_epochs=1,
                          batch_size=32, epochs=3, seed=0)
        _, trace = train(model, part, ds, cfg)
        assert len(trace) == 3
        for entry in trace:
            assert set(entry) == {
                "epoch", "loss", "objective", "group_sparsity", "zero_groups",
                "alpha", "stage",
            }
        assert trace[0]["stage"] == "subgradient"
        assert trace[-1]["stage"] == "half_space"

    @pytest.mark.parametrize("optimizer", OPTIMIZER_KINDS)
    def test_one_squared_norm_pass_per_epoch(self, monkeypatch, optimizer):
        # an epoch's zero count and r(x) come from one `pen_sqnorms` call
        ds, model, part, _ = self.make_problem()
        pen_sqnorms, calls = part.pen_sqnorms, []
        monkeypatch.setattr(part, "pen_sqnorms", lambda x: calls.append(x.copy()) or pen_sqnorms(x))
        cfg = TrainConfig(optimizer=optimizer, alpha0=0.05, lam=0.2, np_epochs=1,
                          batch_size=32, epochs=3, seed=0)
        x, trace = train(model, part, ds, cfg)
        assert len(calls) == len(trace) == 3
        assert np.array_equal(calls[-1], x)
        for entry, params in zip(trace, calls):
            r = float(np.sqrt(pen_sqnorms(params)).sum())
            assert entry["objective"] == entry["loss"] + cfg.lam * r

    @pytest.mark.parametrize("np_epochs", [0, 1, 3])
    @pytest.mark.parametrize("batch_size", [120, 16], ids=["one-step", "eight-steps"])
    def test_epoch_stage_is_its_last_steps(self, np_epochs, batch_size):
        ds, model, part, _ = self.make_problem()
        cfg = TrainConfig(optimizer="hspg", alpha0=0.05, lam=0.2, np_epochs=np_epochs,
                          batch_size=batch_size, epochs=5, seed=3)
        stages = [[] for _ in range(cfg.epochs)]

        def record(state, info):
            stages[(state.k - 1) // state.steps_per_epoch].append(info["stage"])

        _, trace = train(model, part, ds, cfg, callback=record)
        assert [entry["stage"] for entry in trace] == [epoch[-1] for epoch in stages]
        if np_epochs == 0 and batch_size < ds.n:  # the switch falls after the first step
            assert stages[0][0] == "subgradient" and trace[0]["stage"] == "half_space"

    @pytest.mark.parametrize("optimizer", ["sgd", "prox-sg"])
    def test_comparator_steps_and_epochs_carry_the_optimizer_name(self, optimizer):
        ds, model, part, _ = self.make_problem()
        cfg = TrainConfig(optimizer=optimizer, alpha0=0.05, lam=0.2, batch_size=32,
                          epochs=2, seed=0)
        stages = []
        _, trace = train(model, part, ds, cfg, callback=lambda st, info: stages.append(info["stage"]))
        assert set(stages) == {optimizer}
        assert [entry["stage"] for entry in trace] == [optimizer] * 2

    def test_epoch_loss_is_the_full_batch_loss(self):
        # the per-epoch loss is evaluated in chunks; it must still be the
        # one-shot full-data loss at the epoch's parameters, bit for bit
        rng = np.random.default_rng(3)
        n = 2 * EVAL_CHUNK + 57
        inputs = rng.standard_normal((n, 5)).astype(np.float32)
        ds = Dataset(inputs=inputs, targets=rng.integers(0, 3, n), task="classify")
        model = ModelGraph(
            build_layers(["linear:8", "relu", "linear:3"], (5,), "softmax_ce", "normal:0.5", 4), (5,)
        )
        cfg = TrainConfig(optimizer="hspg", alpha0=0.05, lam=0.05, np_epochs=1,
                          batch_size=64, epochs=6, seed=2)
        epoch_end = []

        def record(state, info):
            if state.k % state.steps_per_epoch == 0:
                epoch_end.append(state.x.copy())

        x, trace = train(model, partition_zig(model), ds, cfg, callback=record)
        assert len(epoch_end) == len(trace) == 6
        assert np.array_equal(epoch_end[-1], x)
        for entry, params in zip(trace, epoch_end):
            model.set_flat(params)
            assert entry["loss"] == model.forward(ds.inputs, ds.targets)[1]

    def test_reaches_bcd_oracle_objective(self):
        ds, model, part, lists = self.make_problem()
        lam = 0.3
        cfg = TrainConfig(
            optimizer="hspg", alpha0=0.05, lam=lam, np_epochs=40,
            batch_size=120, epochs=200, seed=1,
        )
        x, _ = train(model, part, ds, cfg)
        aug = np.hstack([ds.inputs.astype(np.float64), np.ones((ds.n, 1))])
        y64 = ds.targets.astype(np.float64)
        xo = bcd_oracle(aug, y64, lists, lam, tol=1e-10, free=[len(lists) * 4])
        psi_o = least_squares_objective(aug, y64, xo, lists, lam)
        psi_h = least_squares_objective(aug, y64, x.astype(np.float64), lists, lam)
        assert psi_h <= 1.01 * psi_o
        sup_o = {g for g, idx in enumerate(lists) if np.any(xo[idx] != 0)}
        sup_h = {g for g, idx in enumerate(lists) if np.any(x[idx] != 0)}
        assert sup_h == sup_o

    def test_sgd_baseline_ignores_regularizer(self):
        ds, model, part, _ = self.make_problem()
        cfg = TrainConfig(optimizer="sgd", alpha0=0.05, lam=0.0, batch_size=32,
                          epochs=10, seed=2)
        x, trace = train(model, part, ds, cfg)
        assert trace[-1]["loss"] < trace[0]["loss"]
        assert sparsity_metrics(x, part).zero_groups == 0

    def test_numerical_failure_carries_epoch_and_step(self):
        ds, model, part, _ = self.make_problem()
        cfg = TrainConfig(optimizer="sgd", alpha0=1e6, lam=0.0, batch_size=32,
                          epochs=50, seed=3)
        with pytest.raises(NumericalFailureError, match="epoch"):
            train(model, part, ds, cfg)

    def test_callback_sees_every_step(self):
        ds, model, part, _ = self.make_problem()
        seen = []
        cfg = TrainConfig(optimizer="hspg", alpha0=0.01, lam=0.1, np_epochs=1,
                          batch_size=40, epochs=2, seed=4)
        train(model, part, ds, cfg, callback=lambda st, info: seen.append(info["k"]))
        assert seen == list(range(6))

    def test_benchmark_tracer_sees_one_subgradient_per_step(self):
        # benchmarks/spans.py patches `hspg.subgradient` by name: every step of
        # both stages must call it (lam > 0), inside its `hspg_step` span
        path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "spans.py")
        spec = importlib.util.spec_from_file_location("benchmark_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        ds, model, part, _ = self.make_problem()
        cfg = TrainConfig(optimizer="hspg", alpha0=0.01, lam=0.1, np_epochs=1,
                          batch_size=40, epochs=2, seed=4)
        stages = []
        tracer = spans.Tracer()
        tracer.install()
        try:
            train(model, part, ds, cfg, callback=lambda st, info: stages.append(info["stage"]))
        finally:
            tracer.uninstall()
        steps = [i for i, s in enumerate(tracer.spans) if s[0] == "hspg.hspg_step"]
        parents = [s[3] for s in tracer.spans if s[0] == "regularizer.subgradient"]
        assert stages == ["subgradient"] * 3 + ["half_space"] * 3
        assert len(steps) == len(stages)
        assert parents == steps
