import numpy as np
import pytest

from zigprune.data import generate_group_lasso

from oracle import OracleFailureError, bcd_oracle, least_squares_objective, oracle_support


def make_problem(seed=11, groups=40, size=5, support=10, samples=500, noise=0.01):
    ds, x_true = generate_group_lasso(groups, size, support, samples, noise, seed)
    a = np.hstack([ds.inputs.astype(np.float64), np.ones((samples, 1))])
    y = ds.targets.astype(np.float64)
    lists = [np.arange(g * size, (g + 1) * size) for g in range(groups)]
    planted = [g for g in range(groups) if np.any(x_true[lists[g]] != 0)]
    return a, y, lists, planted


class TestBcdOracle:
    def test_huge_lambda_kills_every_group(self):
        a, y, lists, _ = make_problem(samples=100, groups=8, size=3, support=2)
        x = bcd_oracle(a, y, lists, lam=1e4, free=[24])
        for idx in lists:
            assert np.all(x[idx] == 0.0)

    def test_zero_lambda_reaches_least_squares(self):
        a, y, lists, _ = make_problem(samples=200, groups=6, size=4, support=3)
        x = bcd_oracle(a, y, lists, lam=0.0, tol=1e-12, max_iters=50_000, free=[24])
        grad = (2.0 / len(y)) * (a.T @ (a @ x - y))
        assert np.abs(grad).max() <= 1e-6

    def test_recovers_planted_support_at_suitable_lambda(self):
        a, y, lists, planted = make_problem()
        x = bcd_oracle(a, y, lists, lam=0.5, free=[200])
        assert oracle_support(x, lists) == planted

    def test_local_optimality_against_random_perturbations(self):
        a, y, lists, _ = make_problem(samples=150, groups=10, size=3, support=4)
        lam = 0.3
        x = bcd_oracle(a, y, lists, lam, tol=1e-12, free=[30])
        base = least_squares_objective(a, y, x, lists, lam)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            delta = rng.standard_normal(x.size) * rng.choice([1e-4, 1e-3, 1e-2])
            assert least_squares_objective(a, y, x + delta, lists, lam) >= base - 1e-12

    def test_nonconvergence_raises(self):
        a, y, lists, _ = make_problem(samples=100, groups=8, size=3, support=4)
        with pytest.raises(OracleFailureError, match="did not reach"):
            bcd_oracle(a, y, lists, lam=0.1, tol=1e-14, max_iters=2)

    def test_objective_helper_matches_manual(self):
        a, y, lists, _ = make_problem(samples=50, groups=4, size=2, support=1)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(a.shape[1])
        lam = 0.7
        manual = float((a @ x - y) @ (a @ x - y)) / len(y)
        manual += lam * sum(float(np.linalg.norm(x[idx])) for idx in lists)
        assert least_squares_objective(a, y, x, lists, lam) == pytest.approx(manual)

    def test_tolerance_must_be_positive(self):
        a, y, lists, _ = make_problem(samples=50, groups=4, size=2, support=1)
        with pytest.raises(Exception, match="> 0"):
            bcd_oracle(a, y, lists, lam=0.1, tol=0.0)
