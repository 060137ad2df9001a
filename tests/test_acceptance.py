"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Tolerances and budgets are pinned in the asserts.
"""

import json
import time

import numpy as np

from zigprune.config import build_layers
from zigprune.data import classification_accuracy, generate_blobs, generate_group_lasso
from zigprune.hspg import (
    OptimizerState,
    TrainConfig,
    compute_index_sets,
    hspg_step,
    train,
)
from zigprune.layers import Linear
from zigprune.model import ModelGraph, finite_difference_check
from zigprune.oracle import bcd_oracle, least_squares_objective, oracle_support
from zigprune.prune import count_flops_params, equivalence_check, prune
from zigprune.regularizer import sparsity_metrics, subgradient
from zigprune.zig import GroupPartition, partition_zig, verify_zero_invariance

from helpers import ACT_KINDS, build_random_model


def _report(name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {name}: {status} ({elapsed:.1f}s, budget {budget}s) {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.1f}s"


# -- shared synthetic regression problem (criteria 4 and 5) -------------------

GL_GROUPS, GL_SIZE, GL_SUPPORT, GL_SAMPLES = 40, 5, 10, 500
GL_SEED = 11


def glasso_problem():
    ds, x_true = generate_group_lasso(
        GL_GROUPS, GL_SIZE, GL_SUPPORT, GL_SAMPLES, noise=0.01, seed=GL_SEED
    )
    lists = [np.arange(g * GL_SIZE, (g + 1) * GL_SIZE) for g in range(GL_GROUPS)]
    planted = [g for g in range(GL_GROUPS) if np.any(x_true[lists[g]] != 0)]
    design = np.hstack([ds.inputs.astype(np.float64), np.ones((GL_SAMPLES, 1))])
    targets = ds.targets.astype(np.float64)
    return ds, design, targets, lists, planted


def glasso_model_and_partition():
    n = GL_GROUPS * GL_SIZE
    model = ModelGraph(build_layers(["linear:1"], (n,), "mse", "zeros", 0), (n,))
    lists = [np.arange(g * GL_SIZE, (g + 1) * GL_SIZE) for g in range(GL_GROUPS)]
    partition = GroupPartition.from_indices(
        model.n_flat, lists + [[n]], [True] * GL_GROUPS + [False]
    )
    return model, partition


def hspg_support(x, lists):
    return [g for g, idx in enumerate(lists) if np.any(x[idx] != 0.0)]


def test_criterion_1_zero_invariance_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    kinds_seen = set()
    for i in range(100):
        model = build_random_model(rng)
        for layer in model.layers:
            kinds_seen.add(type(layer).__name__)
        partition = partition_zig(model)
        dev = verify_zero_invariance(model, partition, trials=3, seed=1000 + i)
        worst = max(worst, dev)
    required = {"ConvBN", "ResidualBlock", "Linear", "MultiHeadAttention"}
    covered = required <= kinds_seen
    elapsed = time.time() - t0
    _report(
        "1 zero-invariance",
        worst == 0.0 and covered,
        elapsed,
        60,
        f"max deviation {worst!r} over 100 models; kinds covered: {covered}",
    )


def test_criterion_2_one_shot_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    control_min = np.inf
    controls = 0
    for i in range(50):
        model = build_random_model(rng)
        partition = partition_zig(model)
        by_layer: dict = {}
        for g in partition.groups:
            if g.penalized:
                by_layer.setdefault(g.layer_index, []).append(g.gid)
        chosen = []
        for gids in by_layer.values():
            take = [g for g in gids if rng.random() < 0.35]
            if len(take) == len(gids):
                take = take[:-1]  # never kill a whole layer
            chosen.extend(take)
        x = model.get_flat()
        partition.zero_groups_inplace(x, chosen)
        model.set_flat(x)
        slim, _ = prune(model, partition)
        worst = max(worst, equivalence_check(model, slim, 100, seed=3000 + i))
        # negative control: prune a group that is still live, from a layer
        # that keeps at least one other live group
        live_per_layer: dict = {}
        for g in partition.groups:
            if not g.penalized or np.any(x[g.indices] != 0.0):
                live_per_layer[g.layer_index] = live_per_layer.get(g.layer_index, 0) + 1
        live = [
            g.gid
            for g in partition.groups
            if g.penalized
            and np.any(x[g.indices] != 0.0)
            and live_per_layer[g.layer_index] >= 2
        ]
        if live:
            norms = [float(np.linalg.norm(x[partition.groups[g].indices])) for g in live]
            victim = live[int(np.argmax(norms))]
            corrupted, _ = prune(model, partition, force_zero=[victim])
            control_min = min(
                control_min, equivalence_check(model, corrupted, 100, seed=4000 + i)
            )
            controls += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and control_min > 1e-3 and controls >= 40
    _report(
        "2 one-shot equivalence",
        ok,
        elapsed,
        120,
        f"max deviation {worst:.2e}; negative-control min {control_min:.2e} "
        f"over {controls} controls",
    )


def _gradcheck_archs(kind, j):
    act = ACT_KINDS[j % len(ACT_KINDS)]
    act2 = ACT_KINDS[(j + 1) % len(ACT_KINDS)]
    loss = ("softmax_ce", "mse")[j % 2]
    if kind == "linear":
        return [f"linear:{3 + j % 3}", act, "linear:3"], (4 + j % 3,), loss
    if kind == "convbn":
        return [f"convbn:{2 + j % 2}:3x3:s1:p1:{act}", "linear:3"], (1 + j % 2, 5, 5), loss
    if kind == "residual":
        return [f"residual:{2 + j % 3}:3x3:s1:p1:{act}", "linear:3"], (2, 4, 4), loss
    if kind == "mha":
        return [f"mha:2x{2 + j % 2}", act2, "linear:3"], (4 + j % 2,), loss
    raise AssertionError(kind)


def test_criterion_3_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst = {}
    for kind in ("linear", "convbn", "residual", "mha"):
        worst[kind] = 0.0
        for j in range(20):
            specs, ishape, loss = _gradcheck_archs(kind, j)
            layers = build_layers(specs, ishape, loss, "normal:0.4", seed=int(rng.integers(1 << 30)))
            model = ModelGraph(layers, ishape)
            x = rng.standard_normal((2, *ishape)).astype(np.float32)
            if loss == "softmax_ce":
                y = rng.integers(0, model.shapes[-1][0], size=2)
            else:
                y = rng.standard_normal((2, model.shapes[-1][0])).astype(np.float32)
            rel = finite_difference_check(model, x, y, h=1e-3)
            worst[kind] = max(worst[kind], rel)
    elapsed = time.time() - t0
    ok = all(v <= 1e-3 for v in worst.values())
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _report("3 gradient correctness", ok, elapsed, 60, detail)


def test_criterion_4_support_recovery():
    t0 = time.time()
    ds, design, targets, lists, planted = glasso_problem()
    suitable = None
    results = []
    for lam in (0.3, 0.5, 0.7):
        x_oracle = bcd_oracle(design, targets, lists, lam, tol=1e-10, free=[GL_GROUPS * GL_SIZE])
        psi_oracle = least_squares_objective(design, targets, x_oracle, lists, lam)
        model, partition = glasso_model_and_partition()
        cfg = TrainConfig(
            optimizer="hspg", alpha0=0.05, lam=lam, epsilon=0.0,
            np_epochs=500, batch_size=GL_SAMPLES, epochs=2000, seed=0,
        )
        x, _ = train(model, partition, ds, cfg)
        psi = least_squares_objective(design, targets, x.astype(np.float64), lists, lam)
        support_match = hspg_support(x, lists) == oracle_support(x_oracle, lists)
        within = psi <= 1.01 * psi_oracle
        results.append((lam, support_match, within, (psi - psi_oracle) / psi_oracle))
        if support_match and within and suitable is None:
            suitable = (lam, oracle_support(x_oracle, lists) == planted)
    elapsed = time.time() - t0
    ok = suitable is not None and suitable[1]
    detail = f"suitable lambda {suitable}; sweep {[(l, s, w, f'{g:.2%}') for l, s, w, g in results]}"
    _report("4 support recovery", ok, elapsed, 120, detail)


def test_criterion_5_sparsity_mechanism_superiority():
    t0 = time.time()
    ds, design, targets, lists, planted = glasso_problem()
    lam = 0.5  # the suitable value from the criterion-4 sweep
    x_oracle = bcd_oracle(design, targets, lists, lam, tol=1e-10, free=[GL_GROUPS * GL_SIZE])
    oracle_zeros = GL_GROUPS - len(oracle_support(x_oracle, lists))

    # 10^4 iterations at batch 10 over 500 samples = 200 epochs; the switch
    # at 10^3 iterations = 20 epochs
    model, partition = glasso_model_and_partition()
    cfg_h = TrainConfig(
        optimizer="hspg", alpha0=1e-4, lam=lam, epsilon=0.0,
        np_epochs=20, batch_size=10, epochs=200, seed=0,
    )
    x_h, _ = train(model, partition, ds, cfg_h)
    hspg_zeros = sparsity_metrics(x_h, partition).zero_groups

    model, partition = glasso_model_and_partition()
    cfg_p = TrainConfig(
        optimizer="prox-sg", alpha0=1e-4, lam=lam,
        np_epochs=20, batch_size=10, epochs=200, seed=0,
    )
    x_p, _ = train(model, partition, ds, cfg_p)
    prox_zeros = sparsity_metrics(x_p, partition).zero_groups

    elapsed = time.time() - t0
    ok = prox_zeros == 0 and hspg_zeros >= oracle_zeros - 1
    _report(
        "5 sparsity mechanism",
        ok,
        elapsed,
        180,
        f"hspg zeros {hspg_zeros} (oracle {oracle_zeros}), prox zeros {prox_zeros} at alpha=1e-4",
    )


def _instrumented_hspg_run(epsilon, iters, switch, alpha, lam):
    ds, design, targets, lists, _ = glasso_problem()
    model, partition = glasso_model_and_partition()
    st = OptimizerState(
        x=model.get_flat(), alpha=alpha, lam=lam, epsilon=epsilon, switch_iteration=switch
    )
    xs64 = design[:, :-1].astype(np.float32)
    y = targets.astype(np.float32)
    violations = 0
    checks = 0
    prev_zero: set = set()
    for k in range(iters):
        model.set_flat(st.x)
        model.forward(xs64, y)
        model.backward()
        grad = model.get_flat_grad()
        nu = grad + subgradient(st.x, partition, lam)
        x_prev = st.x.copy()
        alpha_step = st.alpha
        info = hspg_step(st, grad, partition)
        if info["stage"] != "half_space":
            continue
        # monotone sparsity
        now_zero = set(compute_index_sets(st.x, partition).zero.tolist())
        if not prev_zero <= now_zero:
            violations += 1
        prev_zero = now_zero
        # S_k membership for kept groups, descent inequality for zeroed ones
        s = partition.pen_sqnorms(x_prev)
        d_new = partition.pen_dots(st.x, x_prev)
        was_nz = partition.pen_nonzero_counts(x_prev) > 0
        now_nz = partition.pen_nonzero_counts(st.x) > 0
        kept = was_nz & now_nz
        checks += int(kept.sum())
        if not np.all(d_new[kept] >= epsilon * s[kept]):
            violations += 1
        for gid in info["zeroed"]:
            xg = x_prev[partition.groups[gid].indices].astype(np.float64)
            ng = nu[partition.groups[gid].indices].astype(np.float64)
            checks += 1
            if not xg @ ng > (1 - epsilon) * (xg @ xg) / alpha_step:
                violations += 1
    return violations, checks


def test_criterion_6_monotone_sparsity_and_membership():
    # the step function also asserts these inline and raises on violation,
    # so every optimizer run in this suite doubles as a check
    t0 = time.time()
    v1, c1 = _instrumented_hspg_run(epsilon=0.0, iters=1500, switch=500, alpha=0.05, lam=0.5)
    v2, c2 = _instrumented_hspg_run(epsilon=0.1, iters=800, switch=300, alpha=0.05, lam=0.5)
    elapsed = time.time() - t0
    ok = v1 == 0 and v2 == 0 and c1 > 0 and c2 > 0
    _report(
        "6 monotone sparsity + S_k membership",
        ok,
        elapsed,
        120,
        f"0 violations over {c1 + c2} checked events (eps=0 and eps=0.1)",
    )


def test_criterion_7_projection_region_containment():
    t0 = time.time()
    rng = np.random.default_rng(707)
    epsilon = 0.1
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 11))
        x = rng.standard_normal(n)
        while np.linalg.norm(x) == 0:
            x = rng.standard_normal(n)
        alpha = float(rng.uniform(1e-4, 1e-1))
        lam = float(rng.uniform(0.01, 1.0))
        radius = alpha * lam
        v = rng.standard_normal((10_000, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v *= radius * rng.uniform(0.0, 1.0, size=(10_000, 1))
        lhs = v @ x
        bound = (radius + epsilon * np.linalg.norm(x)) * np.linalg.norm(x)
        if not np.all(lhs < bound):
            ok = False
            break
    elapsed = time.time() - t0
    _report(
        "7 projection-region containment",
        ok,
        elapsed,
        30,
        "10^4 ball samples inside the half-space for each of 100 random iterates",
    )


MLP_SPECS = ["linear:64", "relu", "linear:64", "relu", "linear:10"]


def _mlp_runs():
    ds = generate_blobs(
        classes=10, features=20, train_samples=2000, test_samples=1000,
        separation=6.0, seed=5,
    )
    train_ds, test_ds = ds.subset("train"), ds.subset("test")

    def make():
        layers = build_layers(MLP_SPECS, (20,), "softmax_ce", "he", seed=1)
        model = ModelGraph(layers, (20,))
        return model, partition_zig(model)

    dense_cfg = TrainConfig(optimizer="sgd", alpha0=0.1, lam=0.0, batch_size=64, epochs=40, seed=7)
    sparse_cfg = TrainConfig(
        optimizer="hspg", alpha0=0.1, lam=0.02, epsilon=0.0,
        np_epochs=12, batch_size=64, epochs=40, seed=7,
    )
    return train_ds, test_ds, make, dense_cfg, sparse_cfg


def test_criterion_8_end_to_end_desk_scale_proxy():
    t0 = time.time()
    train_ds, test_ds, make, dense_cfg, sparse_cfg = _mlp_runs()

    dense_model, dense_part = make()
    train(dense_model, dense_part, train_ds, dense_cfg)
    acc_dense = classification_accuracy(dense_model, test_ds)

    model, partition = make()
    x, _ = train(model, partition, train_ds, sparse_cfg)
    metrics = sparsity_metrics(x, partition)
    slim, report = prune(model, partition)
    deviation = equivalence_check(model, slim, 100, seed=8)
    acc_slim = classification_accuracy(slim, test_ds)

    # independent recount of the slim model's MACs from its layer widths
    widths = [layer.out_features for layer in slim.layers if isinstance(layer, Linear)]
    expected_flops = (
        widths[0] * 20 + widths[1] * widths[0] + widths[2] * widths[1]
    )
    flops_slim, _ = count_flops_params(slim)

    elapsed = time.time() - t0
    ok = (
        metrics.group_sparsity >= 0.30
        and acc_slim >= acc_dense - 0.02
        and deviation <= 1e-5
        and expected_flops == flops_slim == report.flops_after
        and report.flops_after < report.flops_before
    )
    _report(
        "8 end-to-end proxy",
        ok,
        elapsed,
        300,
        f"sparsity {metrics.group_sparsity:.2f}, dense acc {acc_dense:.4f}, "
        f"slim acc {acc_slim:.4f}, deviation {deviation:.1e}, "
        f"flops {report.flops_before}->{report.flops_after}",
    )


def test_criterion_9_determinism():
    t0 = time.time()
    # the criterion-5 configuration, repeated
    ds, *_ = glasso_problem()
    traces = []
    finals = []
    for _ in range(2):
        model, partition = glasso_model_and_partition()
        cfg = TrainConfig(
            optimizer="hspg", alpha0=1e-4, lam=0.5, np_epochs=20,
            batch_size=10, epochs=50, seed=0,
        )
        x, trace = train(model, partition, ds, cfg)
        traces.append(json.dumps(trace, sort_keys=True))
        finals.append(x.tobytes())
    glasso_same = traces[0] == traces[1] and finals[0] == finals[1]

    # the criterion-8 configuration, repeated
    train_ds, _, make, _, sparse_cfg = _mlp_runs()
    mlp_traces = []
    mlp_finals = []
    for _ in range(2):
        model, partition = make()
        x, trace = train(model, partition, train_ds, sparse_cfg)
        mlp_traces.append(json.dumps(trace, sort_keys=True))
        mlp_finals.append(x.tobytes())
    mlp_same = mlp_traces[0] == mlp_traces[1] and mlp_finals[0] == mlp_finals[1]

    elapsed = time.time() - t0
    _report(
        "9 determinism",
        glasso_same and mlp_same,
        elapsed,
        120,
        "bitwise-identical traces and final parameters on repeat runs",
    )
