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

Both stages run one step path. `hspg_step` takes the loss gradient and
forms nu itself. It gathers x and the gradient once each in the partition's
`order` (the penalized entries group by group, then the free ones), so the
penalized entries are a leading slice. Over that one vector it adds the
subgradient (+0.0 on the free entries), checks finiteness and steps once;
the group squared norms, computed once on the slice, serve the subgradient
and, from `switch_iteration` on, the frozen test, the half-space test and
the descent check; one assignment then zeroes the frozen and killed groups,
and one `take(inverse)` puts the iterate back in flat order. Every optimizer
steps through `_descend`: x - alpha * d in float64, rounded to float32, with
alpha, lam, epsilon and decay checked by one rule, `_check_step_params`.

Prox-SG replaces the projection with the group soft-threshold of radius
alpha*lam around the gradient step, which is the mechanism whose zero region
vanishes for small steps; `group_prox` works in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers as L
from .errors import InvariantError, NumericalFailureError, ParameterError
from .zig import GroupPartition, group_prox, sparsity_metrics, subgradient


def _check_step_params(alpha: float, lam: float, epsilon: float, decay: float):
    """The one step-parameter rule: every range test fails on NaN, and +inf is not finite."""
    for what, value, ok, rule in (
        ("step size", alpha, alpha > 0, "be > 0"),
        ("regularization weight", lam, lam >= 0, "be >= 0"),
        ("epsilon", epsilon, 0.0 <= epsilon < 1.0, "lie in [0, 1)"),
        ("decay factor", decay, decay > 0, "be > 0"),
    ):
        if not ok or value == np.inf:
            raise ParameterError(f"{what} must {'be finite' if ok else rule}, got {value}")


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
        _check_step_params(self.alpha, self.lam, self.epsilon, self.decay)
        if self.switch_iteration < 1:
            raise ParameterError(
                f"switch iteration must be a positive integer, got {self.switch_iteration}"
            )
        self.x = np.asarray(self.x, dtype=np.float32).copy()


def _check_finite(vec: np.ndarray, k: int, what: str):
    if not np.isfinite(vec).all():
        raise NumericalFailureError(
            f"non-finite {what} entries at iteration {k}", iteration=k
        )


def _descend(x: np.ndarray, alpha: float, d: np.ndarray) -> np.ndarray:
    """The step x - alpha * d, taken in float64 and rounded to float32."""
    return (x.astype(np.float64, copy=False) - alpha * d.astype(np.float64, copy=False)).astype(
        np.float32
    )


def _advance(state: OptimizerState):
    state.k += 1
    if state.steps_per_epoch > 0 and state.k % state.steps_per_epoch == 0:
        state.alpha *= state.decay


def hspg_step(state: OptimizerState, grad: np.ndarray, partition: GroupPartition) -> dict:
    """One half-space optimizer step along nu = grad + lam * zeta(x); mutates `state`.

    `grad` is the loss gradient. Entries outside the penalized groups, and
    every entry when lam is 0, step along ``grad + 0.0`` (which turns a -0.0
    into +0.0). In the half-space stage a group is frozen at zero when its
    squared norm is 0.0, which for float32 entries is exactly when all of
    them are zero.
    """
    k, alpha = state.k, state.alpha
    n_pen, sizes = partition.pen_perm.size, partition.pen_sizes
    x64 = state.x.take(partition.order).astype(np.float64)
    xp = x64[:n_pen]
    sq = partition.pen_sum(xp * xp)
    nu = grad.take(partition.order)
    if state.lam:
        nu[:n_pen] += subgradient(xp, sq, partition, state.lam).astype(np.float32)
        nu[n_pen:] += 0.0
    else:
        nu += 0.0
    _check_finite(nu, k, "subgradient")
    nu64 = nu.astype(np.float64)
    trial = _descend(x64, alpha, nu64)
    zeroed = np.empty(0, dtype=np.int64)
    half_space = k >= state.switch_iteration
    if half_space:
        trial_p = trial[:n_pen]
        frozen = sq == 0.0  # groups already zero stay zero
        # zeroing frozen groups after this test changes no bit: their xp is all +-0.0
        kill = (partition.pen_sum(trial_p.astype(np.float64) * xp) < state.epsilon * sq) & ~frozen
        zeroed = partition.pen_gids[kill]
        if zeroed.size:
            # zeroing is legitimate only when -x_g is a descent direction
            needed = (1.0 - state.epsilon) * sq / alpha
            bad = kill & ~(partition.pen_sum(xp * nu64[:n_pen]) > needed)
            if bad.any():
                gid = int(partition.pen_gids[np.argmax(bad)])
                raise InvariantError(
                    f"projection of group {gid} at iteration {k} does not satisfy "
                    f"the descent inequality"
                )
        if frozen.any() or zeroed.size:
            trial_p[np.repeat(frozen | kill, sizes)] = 0.0
    state.x = trial.take(partition.inverse)
    info = {"k": k, "stage": "half_space" if half_space else "subgradient", "zeroed": zeroed}
    _advance(state)
    return info


def prox_sg_step(state: OptimizerState, grad: np.ndarray, partition: GroupPartition) -> dict:
    """Stochastic proximal gradient step: group soft-threshold of radius alpha*lam."""
    _check_finite(grad, state.k, "gradient")
    state.x = group_prox(_descend(state.x, state.alpha, grad), partition, state.alpha * state.lam)
    info = {"k": state.k, "stage": "prox-sg", "zeroed": np.empty(0, dtype=np.int64)}
    _advance(state)
    return info


def sgd_step(state: OptimizerState, grad: np.ndarray) -> dict:
    """Plain stochastic gradient step on the unpenalized loss."""
    _check_finite(grad, state.k, "gradient")
    state.x = _descend(state.x, state.alpha, grad)
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
        _check_step_params(self.alpha0, self.lam, self.epsilon, self.decay)
        if self.np_epochs < 0:
            raise ParameterError(f"switch epoch must be >= 0, got {self.np_epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ParameterError(f"epoch count must be >= 0, got {self.epochs}")


# a diverging run overflows before `_check_finite` raises; numpy's warnings would repeat it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(model, partition: GroupPartition, dataset, config: TrainConfig, callback=None):
    """Mini-batch training loop; returns (final flat parameters, per-epoch trace).

    Shuffling is seeded, so identical config and seed replay bit-identically.
    The trace holds one dict per epoch with the full-data loss, the penalized
    objective, and group sparsity counters; one `sparsity_metrics` pass gives
    both the counters and the objective's r(x).
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
        objective = full_loss + config.lam * metrics.group_norm
        trace.append(
            {
                "epoch": epoch,
                "loss": full_loss,
                "objective": objective,
                "group_sparsity": metrics.group_sparsity,
                "zero_groups": metrics.zero_groups,
                "alpha": state.alpha,
                "stage": info["stage"],  # the stage the epoch's last step ran in
            }
        )
    return state.x, trace
