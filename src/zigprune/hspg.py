"""Half-space projected (sub)gradient training, plus SGD and Prox-SG comparators.

The half-space optimizer runs in two stages split at iteration `switch_iteration`:

  * stage 1 (subgradient): x <- x - alpha * nu, with
    nu = grad f + lam * zeta(x) the stochastic subgradient of the penalized
    objective;
  * stage 2 (half-space): groups that are exactly zero stay frozen at zero;
    the remaining groups take the subgradient step to a trial point z and are
    then projected group-wise: z_g is replaced by 0 whenever
    <z_g, x_g>  <  epsilon * ||x_g||^2,
    i.e. whenever the trial point leaves the half-space anchored at the
    current iterate. Unpenalized parameters always take the plain step.

Zeroing a group this way is only possible when the step direction makes
-x_g a descent direction; the step asserts that inequality at every
projection event.

`hspg_step` takes the loss gradient and forms nu itself. In the half-space
stage it gathers the penalized entries of x and of the gradient once,
computes their group squared norms once for the subgradient, the frozen
test, the half-space test and the descent check, and scatters the trial
point once. Its float operations and their order are those of
`subgradient` followed by the step and the projection, so every iterate is
bitwise what those give.

Prox-SG replaces the projection with the group soft-threshold of radius
alpha*lam around the gradient step, which is the mechanism whose zero region
vanishes for small steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers as L
from .errors import InvariantError, NumericalFailureError, ParameterError
from .regularizer import (
    group_norm_value,
    group_prox,
    pen_subgradient,
    sparsity_metrics,
    subgradient,
)
from .zig import GroupPartition


@dataclass
class OptimizerState:
    x: np.ndarray  # flat float32 iterate
    alpha: float
    lam: float
    epsilon: float = 0.0
    switch_iteration: int = 1
    k: int = 0
    decay: float = 1.0  # multiplicative alpha factor applied every steps_per_epoch steps
    steps_per_epoch: int = 0  # 0 disables the decay schedule

    def __post_init__(self):
        if not (0.0 <= self.epsilon < 1.0):
            raise ParameterError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.alpha <= 0:
            raise ParameterError(f"step size must be > 0, got {self.alpha}")
        if self.lam < 0:
            raise ParameterError(f"regularization weight must be >= 0, got {self.lam}")
        if self.switch_iteration < 1:
            raise ParameterError(
                f"switch iteration must be a positive integer, got {self.switch_iteration}"
            )
        self.x = np.asarray(self.x, dtype=np.float32).copy()


@dataclass
class IndexSets:
    zero: np.ndarray  # penalized group ids whose entries are all exactly 0.0
    nonzero: np.ndarray


def compute_index_sets(x: np.ndarray, partition: GroupPartition) -> IndexSets:
    counts = partition.pen_nonzero_counts(x)
    zero_mask = counts == 0
    return IndexSets(
        zero=partition.pen_gids[zero_mask], nonzero=partition.pen_gids[~zero_mask]
    )


def half_space_project(
    z: np.ndarray, x_k: np.ndarray, partition: GroupPartition, epsilon: float
) -> np.ndarray:
    """Group-wise half-space projection of a trial iterate z against x_k.

    For each penalized group that is nonzero at x_k the group is zeroed when
    <z_g, x_g> < epsilon * ||x_g||^2, otherwise kept. Groups already zero at
    x_k are left untouched.
    """
    if not (0.0 <= epsilon < 1.0):
        raise ParameterError(f"epsilon must lie in [0, 1), got {epsilon}")
    out = z.copy()
    xp = x_k[partition.pen_perm].astype(np.float64)
    s = partition.pen_sum(xp * xp)
    dots = partition.pen_sum(z[partition.pen_perm].astype(np.float64) * xp)
    kill = (dots < epsilon * s) & (s != 0.0)  # groups already zero stay as given
    if kill.any():
        out[partition.pen_perm[np.repeat(kill, partition.pen_sizes)]] = 0.0
    return out


def _check_finite(vec: np.ndarray, k: int, what: str):
    if not np.all(np.isfinite(vec)):
        raise NumericalFailureError(
            f"non-finite {what} entries at iteration {k}", iteration=k
        )


def _advance(state: OptimizerState):
    state.k += 1
    if state.steps_per_epoch > 0 and state.k % state.steps_per_epoch == 0:
        state.alpha *= state.decay


def hspg_step(state: OptimizerState, grad: np.ndarray, partition: GroupPartition) -> dict:
    """One half-space optimizer step along nu = grad + lam * zeta(x); mutates `state`.

    `grad` is the loss gradient; nu is ``grad + subgradient(x, partition,
    lam)``, so entries outside the penalized groups step along ``grad +
    0.0`` (which turns a -0.0 into +0.0). In the half-space stage a group is
    frozen at zero when its squared norm is 0.0, which for float32 entries
    is exactly when all of them are zero.
    """
    k, alpha, x = state.k, state.alpha, state.x
    if k < state.switch_iteration:
        nu = grad + subgradient(x, partition, state.lam)
        _check_finite(nu, k, "subgradient")
        state.x = (x.astype(np.float64) - alpha * nu.astype(np.float64)).astype(np.float32)
        info = {"k": k, "stage": "subgradient", "zeroed": np.empty(0, dtype=np.int64)}
        _advance(state)
        return info

    perm, free = partition.pen_perm, partition.free_perm
    xp = x[perm].astype(np.float64)
    sq = partition.pen_sum(xp * xp)
    # a zero weight adds +0.0, as `subgradient` does, not lam * zeta's signed zeros
    sub = pen_subgradient(xp, sq, partition, state.lam).astype(np.float32) if state.lam else 0.0
    nu_p = grad[perm] + sub
    nu_f = grad[free] + 0.0
    for part in (nu_p, nu_f):
        _check_finite(part, k, "subgradient")
    nu64 = nu_p.astype(np.float64)
    trial_p = (xp - alpha * nu64).astype(np.float32)
    frozen = sq == 0.0  # groups already zero stay zero
    if frozen.any():
        trial_p[np.repeat(frozen, partition.pen_sizes)] = 0.0
    kill = (partition.pen_sum(trial_p.astype(np.float64) * xp) < state.epsilon * sq) & ~frozen
    zeroed = partition.pen_gids[kill]
    if zeroed.size:
        # zeroing is legitimate only when -x_g is a descent direction
        needed = (1.0 - state.epsilon) * sq / alpha
        bad = kill & ~(partition.pen_sum(xp * nu64) > needed)
        if bad.any():
            gid = int(partition.pen_gids[np.argmax(bad)])
            raise InvariantError(
                f"projection of group {gid} at iteration {k} does not satisfy "
                f"the descent inequality"
            )
        trial_p[np.repeat(kill, partition.pen_sizes)] = 0.0
    trial = np.empty_like(x)
    trial[free] = (x[free].astype(np.float64) - alpha * nu_f.astype(np.float64)).astype(np.float32)
    trial[perm] = trial_p
    state.x = trial
    info = {"k": k, "stage": "half_space", "zeroed": zeroed}
    _advance(state)
    return info


def prox_sg_step(state: OptimizerState, grad: np.ndarray, partition: GroupPartition) -> dict:
    """Stochastic proximal gradient step: group soft-threshold of radius alpha*lam."""
    _check_finite(grad, state.k, "gradient")
    v = (state.x.astype(np.float64) - state.alpha * grad.astype(np.float64)).astype(np.float32)
    state.x = group_prox(v, partition, state.alpha * state.lam)
    info = {"k": state.k, "stage": "prox", "zeroed": np.empty(0, dtype=np.int64)}
    _advance(state)
    return info


def sgd_step(state: OptimizerState, grad: np.ndarray) -> dict:
    """Plain stochastic gradient step on the unpenalized loss."""
    _check_finite(grad, state.k, "gradient")
    state.x = (state.x.astype(np.float64) - state.alpha * grad.astype(np.float64)).astype(
        np.float32
    )
    info = {"k": state.k, "stage": "sgd", "zeroed": np.empty(0, dtype=np.int64)}
    _advance(state)
    return info


OPTIMIZER_KINDS = ("hspg", "sgd", "prox-sg")


@dataclass
class TrainConfig:
    optimizer: str = "hspg"
    alpha0: float = 0.1
    decay: float = 1.0
    lam: float = 0.0
    epsilon: float = 0.0
    np_epochs: int = 1  # switch point of the half-space optimizer, in epochs
    batch_size: int = 64
    epochs: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ParameterError(f"unknown optimizer kind {self.optimizer!r}")
        if self.alpha0 <= 0:
            raise ParameterError(f"step size must be > 0, got {self.alpha0}")
        if self.lam < 0:
            raise ParameterError(f"regularization weight must be >= 0, got {self.lam}")
        if not (0.0 <= self.epsilon < 1.0):
            raise ParameterError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.np_epochs < 0:
            raise ParameterError(f"switch epoch must be >= 0, got {self.np_epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ParameterError(f"epoch count must be >= 0, got {self.epochs}")
        if self.decay <= 0:
            raise ParameterError(f"decay factor must be > 0, got {self.decay}")


def train(model, partition: GroupPartition, dataset, config: TrainConfig, callback=None):
    """Mini-batch training loop; returns (final flat parameters, per-epoch trace).

    Shuffling is seeded, so identical config and seed replay bit-identically.
    The trace holds one dict per epoch with the full-data loss, the penalized
    objective, and group sparsity counters.
    """
    n = dataset.n
    if n < 1:
        raise ParameterError("dataset is empty")
    if model.loss_kind is None:
        raise ParameterError("training needs a model whose last layer is a loss")
    if model.loss_kind == "softmax_ce":
        L.check_class_targets(dataset.targets, model.shapes[-1][0])
    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    state = OptimizerState(
        x=model.get_flat(),
        alpha=config.alpha0,
        lam=config.lam,
        epsilon=config.epsilon,
        switch_iteration=max(1, config.np_epochs * steps_per_epoch),
        decay=config.decay,
        steps_per_epoch=steps_per_epoch,
    )
    rng = np.random.default_rng(config.seed)
    trace: list[dict] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        for step_start in range(0, n, config.batch_size):
            idx = perm[step_start : step_start + config.batch_size]
            model.set_flat(state.x)
            model.forward(dataset.inputs[idx], dataset.targets[idx])
            model.backward()
            grad = model.get_flat_grad()
            try:
                if config.optimizer == "hspg":
                    info = hspg_step(state, grad, partition)
                elif config.optimizer == "prox-sg":
                    info = prox_sg_step(state, grad, partition)
                else:
                    info = sgd_step(state, grad)
            except NumericalFailureError as exc:
                raise NumericalFailureError(
                    f"epoch {epoch}, step {step_start // config.batch_size}: {exc}",
                    iteration=exc.iteration,
                ) from exc
            if callback is not None:
                callback(state, info)
        model.set_flat(state.x)
        full_loss, _ = L.loss_forward(model.predict(dataset.inputs), dataset.targets, model.loss_kind)
        metrics = sparsity_metrics(state.x, partition)
        objective = full_loss + config.lam * group_norm_value(state.x, partition)
        if config.optimizer == "hspg":
            # the switch lands on an epoch boundary; label the stage this epoch ran in
            stage = "subgradient" if state.k <= state.switch_iteration else "half_space"
        else:
            stage = config.optimizer
        trace.append(
            {
                "epoch": epoch,
                "loss": full_loss,
                "objective": objective,
                "group_sparsity": metrics.group_sparsity,
                "zero_groups": metrics.zero_groups,
                "alpha": state.alpha,
                "stage": stage,
            }
        )
    model.set_flat(state.x)
    return state.x, trace
