"""Shared test utilities: random architecture generation and reference oracles."""

import numpy as np

from zigprune.config import build_layers
from zigprune.model import ModelGraph

ACT_KINDS = ("relu", "leaky_relu", "prelu", "gelu")


def random_architecture(rng, conv_ok=True, mha_ok=True):
    """A small random layer-spec list, its input shape, and a loss kind."""
    specs = []
    if conv_ok and rng.random() < 0.55:
        c = int(rng.integers(1, 4))
        hw = int(rng.integers(4, 7))
        input_shape = (c, hw, hw)
        for _ in range(int(rng.integers(1, 3))):
            m = int(rng.integers(2, 7))
            k = int(rng.choice([1, 3]))
            pad = 1 if k == 3 else 0
            act = str(rng.choice(ACT_KINDS))
            kind = "residual" if rng.random() < 0.4 else "convbn"
            specs.append(f"{kind}:{m}:{k}x{k}:s1:p{pad}:{act}")
    else:
        input_shape = (int(rng.integers(3, 9)),)
    if mha_ok and rng.random() < 0.4:
        heads = int(rng.integers(1, 3))
        rows = int(rng.integers(2, 5))
        specs.append(f"mha:{heads}x{rows}")
        specs.append(str(rng.choice(ACT_KINDS)))
    for _ in range(int(rng.integers(0, 3))):
        specs.append(f"linear:{int(rng.integers(3, 9))}")
        specs.append(str(rng.choice(ACT_KINDS)))
    specs.append(f"linear:{int(rng.integers(2, 6))}")
    loss = str(rng.choice(["softmax_ce", "mse"]))
    return specs, input_shape, loss


def build_random_model(rng, init="normal:0.5", **arch_kw) -> ModelGraph:
    specs, input_shape, loss = random_architecture(rng, **arch_kw)
    layers = build_layers(specs, input_shape, loss, init, seed=int(rng.integers(0, 2**31)))
    return ModelGraph(layers, input_shape)


def random_batch(rng, model: ModelGraph, n=3):
    x = rng.standard_normal((n, *model.input_shape)).astype(np.float32)
    out_dim = model.shapes[-1][0]
    if model.loss_kind == "softmax_ce":
        y = rng.integers(0, out_dim, size=n)
    else:
        y = rng.standard_normal((n, out_dim)).astype(np.float32)
    return x, y


# -- independent reference implementations (kept deliberately naive) --------


def conv_bn_oracle(x, layer):
    """Nested-loop conv + activation + normalization, no shared code paths."""
    from zigprune.layers import apply_activation

    b, c, h, w = x.shape
    kh, kw, stride, pad = layer.kh, layer.kw, layer.stride, layer.padding
    m = layer.kernel.data.shape[0]
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    kernel = layer.kernel.data.astype(np.float64).reshape(m, c, kh, kw)
    out = np.zeros((b, m, oh, ow), dtype=np.float64)
    for bi in range(b):
        for mi in range(m):
            for oi in range(oh):
                for oj in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (
                                    xp[bi, ci, oi * stride + ki, oj * stride + kj]
                                    * kernel[mi, ci, ki, kj]
                                )
                    out[bi, mi, oi, oj] = acc + float(layer.bias.data[mi])
    act = apply_activation(out, layer.activation)
    mean = layer.mean.data.astype(np.float64)[None, :, None, None]
    std = layer.std.data.astype(np.float64)[None, :, None, None]
    gamma = layer.gamma.data.astype(np.float64)[None, :, None, None]
    beta = layer.beta.data.astype(np.float64)[None, :, None, None]
    return (act - mean) / std * gamma + beta


def linear_oracle(x2d, weight, bias):
    """Row-by-row dot products."""
    n_out = weight.shape[0]
    out = np.zeros((x2d.shape[0], n_out), dtype=np.float64)
    for i in range(x2d.shape[0]):
        for j in range(n_out):
            out[i, j] = float(np.dot(weight[j].astype(np.float64), x2d[i].astype(np.float64)))
            out[i, j] += float(bias[j])
    return out


def attention_oracle(x2d, layer):
    outs = [
        linear_oracle(x2d, w.data, b.data) for w, b in zip(layer.weights, layer.biases)
    ]
    return np.concatenate(outs, axis=1)


# -- the strided im2col / col2im, as they stood before the gather-index path --
# The layer code must reproduce these bit for bit, including the memory layout
# of the returned gradient, which decides the order of later float64 sums.


def im2col_reference(x, kh, kw, stride, padding):
    """(B, C, H, W) -> (B, oh, ow, C*kh*kw) through a padded sliding-window view."""
    b, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (B, C, oh, ow, kh, kw)
    oh, ow = windows.shape[2], windows.shape[3]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, oh, ow, c * kh * kw)
    return np.ascontiguousarray(cols)


def col2im_reference(dcols, x_shape, kh, kw, stride, padding):
    """Adjoint of im2col_reference: strided adds into a channel-major padded buffer."""
    b, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    dxp = np.zeros((b, c, hp, wp), dtype=dcols.dtype)
    _, oh, ow, _ = dcols.shape
    d6 = dcols.reshape(b, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += d6[
                :, :, :, :, i, j
            ]
    if padding:
        return dxp[:, :, padding : padding + h, padding : padding + w]
    return dxp


# -- the optimizer step as it stood before the single-gather version ----------
# `subgradient` and `hspg_step` gathered the penalized entries once per query
# (norms, nonzero counts, dots) and `train` added the two; the fused
# `zigprune.hspg.hspg_step` must reproduce every iterate of this pair bit for bit.


def reference_subgradient(x, partition, lam):
    out = np.zeros_like(x)
    if partition.pen_perm.size == 0 or lam == 0.0:
        return out
    norms = np.sqrt(partition.pen_sqnorms(x))
    scale = np.zeros_like(norms)
    nz = norms > 0.0
    scale[nz] = lam / norms[nz]
    per_entry = np.repeat(scale, partition.pen_sizes)
    out[partition.pen_perm] = (x[partition.pen_perm].astype(np.float64) * per_entry).astype(
        x.dtype
    )
    return out


def _reference_zero_groups(out, partition, mask):
    if mask.any():
        out[partition.pen_perm[np.repeat(mask, partition.pen_sizes)]] = 0.0


def reference_hspg_step(state, nu, partition):
    """The half-space step along a given direction nu (loss gradient plus subgradient)."""
    from zigprune.errors import InvariantError, NumericalFailureError

    if not np.all(np.isfinite(nu)):
        raise NumericalFailureError(
            f"non-finite subgradient entries at iteration {state.k}", iteration=state.k
        )
    alpha = state.alpha
    x = state.x
    trial = (x.astype(np.float64) - alpha * nu.astype(np.float64)).astype(np.float32)
    info = {"k": state.k, "stage": "subgradient", "zeroed": np.empty(0, dtype=np.int64)}
    if state.k >= state.switch_iteration:
        info["stage"] = "half_space"
        if partition.pen_perm.size:
            frozen = partition.pen_nonzero_counts(x) == 0
            _reference_zero_groups(trial, partition, frozen)
            s = partition.pen_sqnorms(x)
            kill = (partition.pen_dots(trial, x) < state.epsilon * s) & ~frozen
            if kill.any():
                needed = (1.0 - state.epsilon) * s / alpha
                bad = kill & ~(partition.pen_dots(x, nu) > needed)
                if bad.any():
                    gid = int(partition.pen_gids[np.argmax(bad)])
                    raise InvariantError(
                        f"projection of group {gid} at iteration {state.k} does not satisfy "
                        f"the descent inequality"
                    )
                _reference_zero_groups(trial, partition, kill)
                info["zeroed"] = partition.pen_gids[kill]
    state.x = trial
    state.k += 1
    if state.steps_per_epoch > 0 and state.k % state.steps_per_epoch == 0:
        state.alpha *= state.decay
    return info


def reference_group_prox(v, partition, tau):
    out = v.copy()
    if partition.pen_perm.size == 0 or tau == 0.0:
        return out
    norms = np.sqrt(partition.pen_sqnorms(v))
    keep = norms > tau
    factor = np.zeros_like(norms)
    factor[keep] = 1.0 - tau / norms[keep]
    per_entry = np.repeat(factor, partition.pen_sizes)
    shrunk = (v[partition.pen_perm].astype(np.float64) * per_entry).astype(v.dtype)
    shrunk[np.repeat(~keep, partition.pen_sizes)] = 0.0
    out[partition.pen_perm] = shrunk
    return out


def bits(a):
    """The raw bytes of an array, so that -0.0 and +0.0 compare unequal."""
    return np.ascontiguousarray(a).tobytes()
