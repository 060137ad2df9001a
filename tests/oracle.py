"""Block-coordinate reference solver for penalized least squares.

Solves  min_x  (1/N) ||A x - y||^2 + lam * sum_g ||x_g||_2  by cyclic block
updates: each penalized block takes an exact group soft-threshold step with
its own curvature bound, and free (unpenalized) blocks take their exact
least-squares update. This module deliberately shares no code with the
training-time optimizers, so it can serve as an independent ground truth for
support sets and objective values.
"""

from __future__ import annotations

import numpy as np

from zigprune.errors import ParameterError


class OracleFailureError(RuntimeError):
    """The reference solver did not converge within its iteration budget."""


def least_squares_objective(design, targets, x, groups, lam) -> float:
    """(1/N) ||A x - y||^2 + lam * sum of penalized group norms."""
    a = np.asarray(design, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    xv = np.asarray(x, dtype=np.float64)
    r = a @ xv - y
    value = float(r @ r) / len(y)
    for idx in groups:
        value += lam * float(np.linalg.norm(xv[idx]))
    return value


def bcd_oracle(
    design,
    targets,
    groups,
    lam: float,
    tol: float = 1e-10,
    max_iters: int = 10_000,
    free=None,
) -> np.ndarray:
    """Group-lasso solution by cyclic block coordinate descent.

    `groups` lists index arrays of the penalized blocks; `free` optionally
    indexes unpenalized coordinates (an intercept column, say) updated by
    exact least squares. Iterates until the largest block change drops below
    `tol`, else raises.
    """
    if tol <= 0:
        raise ParameterError(f"tolerance must be > 0, got {tol}")
    a = np.asarray(design, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).ravel()
    n_samples, n_features = a.shape
    x = np.zeros(n_features, dtype=np.float64)
    groups = [np.asarray(idx, dtype=np.int64) for idx in groups]
    free = np.asarray(free, dtype=np.int64) if free is not None else None

    # per-block curvature bounds for f = (1/N)||Ax - y||^2
    lipschitz = []
    for idx in groups:
        block = a[:, idx]
        gram = (2.0 / n_samples) * (block.T @ block)
        lipschitz.append(max(float(np.linalg.eigvalsh(gram).max()), 1e-12))
    if free is not None and free.size:
        a_free = a[:, free]
    residual = a @ x - y

    for _ in range(max_iters):
        worst = 0.0
        if free is not None and free.size:
            # exact least squares over the free block given the rest
            r_wo = residual - a_free @ x[free]
            new_free = np.linalg.lstsq(a_free, -r_wo, rcond=None)[0]
            worst = max(worst, float(np.linalg.norm(new_free - x[free])))
            residual = r_wo + a_free @ new_free
            x[free] = new_free
        for idx, lip in zip(groups, lipschitz):
            block = a[:, idx]
            grad = (2.0 / n_samples) * (block.T @ residual)
            v = x[idx] - grad / lip
            norm = float(np.linalg.norm(v))
            threshold = lam / lip
            if norm <= threshold:
                new = np.zeros_like(v)
            else:
                new = (1.0 - threshold / norm) * v
            delta = new - x[idx]
            change = float(np.linalg.norm(delta))
            if change > 0.0:
                residual = residual + block @ delta
                worst = max(worst, change)
            x[idx] = new
        if worst < tol:
            return x
    raise OracleFailureError(
        f"block coordinate descent did not reach tol={tol} within {max_iters} sweeps"
    )


def oracle_support(x: np.ndarray, groups) -> list[int]:
    """Indices of groups with any nonzero entry."""
    return [gi for gi, idx in enumerate(groups) if np.any(x[idx] != 0.0)]
