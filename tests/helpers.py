"""Shared test utilities: random architecture generation and reference oracles."""

import numpy as np

from zigprune.config import build_layers
from zigprune.layers import loss_forward
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
    act = REFERENCE_ACTIVATIONS[layer.activation][0](out)
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
    outs = [linear_oracle(x2d, head.weight.data, head.bias.data) for head in layer.heads]
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


# -- the layer functions as they stood before each backward read its forward's --
# -- operands ------------------------------------------------------------------
# Each backward here recomputes what its forward already made: the float64
# input and weights, GELU's erf term, the normalized activation. leaky_relu
# and prelu take the where form. `zigprune.layers` must reproduce every output,
# input gradient and parameter gradient bit for bit, with the same strides.

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


# the direct erf formulas; at x = -inf (and +inf for the derivative) they read
# inf * 0, so those entries are set to the limits GELU(-inf) = 0, GELU'(-inf) = 0
# and GELU'(+inf) = 1


def reference_gelu(x):
    from scipy.special import erf

    with np.errstate(invalid="ignore"):
        out = (0.5 * x * (1.0 + erf(x * _INV_SQRT2))).astype(x.dtype)
    out[np.isneginf(x)] = 0.0
    return out


def reference_gelu_deriv(x):
    from scipy.special import erf  # the second erf of the same input

    with np.errstate(invalid="ignore"):
        cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        out = (cdf + x * pdf).astype(x.dtype)
    out[np.isneginf(x)] = 0.0
    out[np.isposinf(x)] = 1.0
    return out


def _where_form(slope):
    def act(x):
        return np.where(x > 0, x, x.dtype.type(slope) * x)

    def deriv(x):
        return np.where(x > 0, x.dtype.type(1.0), x.dtype.type(slope))

    return act, deriv


# kind -> (activation, derivative), each a function of x alone
REFERENCE_ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0), lambda x: (x > 0).astype(x.dtype)),
    "leaky_relu": _where_form(0.01),
    "prelu": _where_form(0.25),
    "gelu": (reference_gelu, reference_gelu_deriv),
}


# -- GELU's erf as it stood before each cephes branch ran only on its own entries --
# Both branches run over every entry and `np.where` picks one. `zigprune.layers._erf`
# must return the same bits, dtype and strides.


def _reference_polevl(x, coefs):
    ans = x * coefs[0]
    ans += coefs[1]
    for c in coefs[2:]:
        ans *= x
        ans += c
    return ans


def _reference_p1evl(x, coefs):
    ans = x + coefs[0]
    for c in coefs[1:]:
        ans *= x
        ans += c
    return ans


def reference_erf(x):
    from zigprune.layers import _ERF_T, _ERF_U, _ERFC_P, _ERFC_Q, _libm_exp

    if x.dtype == np.float64:
        x64 = x
    else:
        with np.errstate(invalid="ignore"):  # the cast flags a signaling NaN; scipy's erf does not
            x64 = x.astype(np.float64)
    a = np.abs(x64)
    s = np.minimum(a, 1.0)
    z = s * s
    s *= _reference_polevl(z, _ERF_T)
    s /= _reference_p1evl(z, _ERF_U)
    b = np.maximum(a, 1.0)
    np.minimum(b, 8.0, out=b)
    e = b * b
    np.negative(e, out=e)
    e = _libm_exp(e).astype(np.float64) if x.dtype == np.float64 else np.exp(e, out=e)
    e *= _reference_polevl(b, _ERFC_P)
    e /= _reference_p1evl(b, _ERFC_Q)
    np.subtract(1.0, e, out=e)
    out = np.where(a <= 1.0, s, e)
    np.copysign(out, x64, out=out)
    out[np.isnan(x64)] = np.nan  # scipy's positive quiet NaN, whatever the input's sign or payload
    return out.astype(x.dtype, copy=False)


def reference_linear_forward(x, layer):
    from zigprune.layers import _matmul64, _param

    w = _param(layer.weight, x.dtype)
    b = _param(layer.bias, x.dtype)
    lead = x.shape[:-1]
    x2 = x.reshape(-1, x.shape[-1])
    out = _matmul64(x2, w.T) + b
    return out.reshape(*lead, layer.out_features), (x2, lead)


def reference_linear_backward(dout, layer, cache, need_dx=True):
    from zigprune.layers import _matmul64, _param, _up64

    x2, lead = cache
    d2 = dout.reshape(-1, layer.out_features)
    dtype = d2.dtype
    d64 = _up64(d2)
    dw = _matmul64(d64.T, x2, dtype)
    db = d2.sum(axis=0, dtype=np.float64).astype(dtype)
    dx = None
    if need_dx:
        dx = _matmul64(d64, _param(layer.weight, dtype), dtype).reshape(*lead, layer.in_features)
    return dx, {"weight": dw, "bias": db}


def reference_attention_forward(x, layer):
    from zigprune.layers import _matmul64, _param

    lead = x.shape[:-1]
    x2 = x.reshape(-1, x.shape[-1])
    outs = []
    for head in layer.heads:
        outs.append(_matmul64(x2, _param(head.weight, x.dtype).T) + _param(head.bias, x.dtype))
    out = np.concatenate(outs, axis=1)
    return out.reshape(*lead, layer.out_features), (x2, lead)


def reference_attention_backward(dout, layer, cache, need_dx=True):
    from zigprune.layers import _matmul64, _param, _up64

    x2, lead = cache
    d2 = dout.reshape(-1, layer.out_features)
    grads = {}
    dx = np.zeros_like(x2) if need_dx else None
    offset = 0
    for h, head in enumerate(layer.heads):
        m_h = head.out_features
        dh = d2[:, offset : offset + m_h]
        dh64 = _up64(dh)
        grads[f"h{h}.weight"] = _matmul64(dh64.T, x2, d2.dtype)
        grads[f"h{h}.bias"] = dh.sum(axis=0, dtype=np.float64).astype(d2.dtype)
        if need_dx:
            dx += _matmul64(dh64, _param(head.weight, d2.dtype), d2.dtype)
        offset += m_h
    return (dx.reshape(*lead, layer.in_features) if need_dx else None), grads


def reference_conv_bn_forward(x, layer, cols=None):
    from zigprune.layers import _im2col, _matmul64, _param, _up64, conv_output_hw

    oh, ow = conv_output_hw(x.shape[2], x.shape[3], layer)
    dtype = x.dtype
    k = _param(layer.kernel, dtype)
    if cols is None:
        cols = _im2col(_up64(x), layer.kh, layer.kw, layer.stride, layer.padding)
    pre = _matmul64(cols.reshape(-1, k.shape[1]), k.T, dtype) + _param(layer.bias, dtype)
    pre = pre.reshape(x.shape[0], oh, ow, layer.out_channels).transpose(0, 3, 1, 2)
    act = REFERENCE_ACTIVATIONS[layer.activation][0](pre)
    mean = _param(layer.mean, dtype)[None, :, None, None]
    std = _param(layer.std, dtype)[None, :, None, None]
    gamma = _param(layer.gamma, dtype)[None, :, None, None]
    beta = _param(layer.beta, dtype)[None, :, None, None]
    out = (act - mean) / std * gamma + beta
    return out, (x.shape, cols, pre, act)


def reference_conv_bn_backward(dout, layer, cache, need_dx=True):
    from zigprune.layers import _col2im, _matmul64, _param, _up64

    x_shape, cols, pre, act = cache
    dtype = dout.dtype
    std = _param(layer.std, dtype)[None, :, None, None]
    gamma = _param(layer.gamma, dtype)[None, :, None, None]
    mean = _param(layer.mean, dtype)[None, :, None, None]

    dgamma = ((act - mean) / std * dout).sum(axis=(0, 2, 3), dtype=np.float64).astype(dtype)
    dbeta = dout.sum(axis=(0, 2, 3), dtype=np.float64).astype(dtype)
    dact = dout * gamma / std
    dpre = dact * REFERENCE_ACTIVATIONS[layer.activation][1](pre)

    m = layer.out_channels
    dpre2 = dpre.transpose(0, 2, 3, 1).reshape(-1, m)
    db = dpre2.sum(axis=0, dtype=np.float64).astype(dtype)
    cols2 = cols.reshape(-1, cols.shape[-1])
    d64 = _up64(dpre2)
    dk = _matmul64(d64.T, cols2, dtype)
    grads = {"kernel": dk, "bias": db, "gamma": dgamma, "beta": dbeta}
    if not need_dx:
        return None, grads
    dcols = _matmul64(d64, _param(layer.kernel, dtype), dtype).reshape(cols.shape)
    return _col2im(dcols, x_shape, layer.kh, layer.kw, layer.stride, layer.padding), grads


def reference_activation_forward(x, layer):
    return REFERENCE_ACTIVATIONS[layer.kind][0](x), x


def reference_activation_backward(dout, layer, cache):
    return dout * REFERENCE_ACTIVATIONS[layer.kind][1](cache), {}


def reference_loss_forward(out, targets, kind):
    """softmax_ce as it stood before its probabilities were divided in place."""
    if kind != "softmax_ce":
        return loss_forward(out, targets, kind)
    batch = out.shape[0]
    y = np.asarray(targets).astype(np.int64)
    shifted = out.astype(np.float64) - out.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    total = expv.sum(axis=1, keepdims=True)
    logp = shifted - np.log(total)
    loss = float(-logp[np.arange(batch), y].mean())
    probs = expv / total
    dout = probs
    dout[np.arange(batch), y] -= 1.0
    dout /= batch
    return loss, dout.astype(out.dtype)


# module function name -> its reference, for patching onto `zigprune.layers`
REFERENCE_LAYER_FUNCTIONS = {
    "linear_forward": reference_linear_forward,
    "linear_backward": reference_linear_backward,
    "attention_forward": reference_attention_forward,
    "attention_backward": reference_attention_backward,
    "conv_bn_forward": reference_conv_bn_forward,
    "conv_bn_backward": reference_conv_bn_backward,
    "activation_forward": reference_activation_forward,
    "activation_backward": reference_activation_backward,
    "loss_forward": reference_loss_forward,
}


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


def pen_dots(partition, x, y):
    """Per-penalized-group inner products <x_g, y_g> in float64."""
    return partition.pen_sum(
        x[partition.pen_perm].astype(np.float64) * y[partition.pen_perm].astype(np.float64)
    )


def nonzero_counts(x, partition):
    """Per-penalized-group count of entries that are not exactly 0.0: the zero rule's oracle.

    `zigprune` calls a group zero when its float64 sum of squares is == 0.0;
    a group is zero by this count exactly when its count is 0.
    """
    return partition.pen_sum((x[partition.pen_perm] != 0.0).astype(np.int64))


def scattered_subgradient(x, partition, lam):
    """`zig.subgradient` of x's gathered penalized entries, spread over the flat view."""
    from zigprune.zig import subgradient

    xp = x[partition.pen_perm].astype(np.float64)
    out = np.zeros_like(x)
    out[partition.pen_perm] = subgradient(xp, partition.pen_sum(xp * xp), partition, lam)
    return out


def prune_zeroed_copy(model, partition, gids):
    """The slim model of a clone of `model` whose groups `gids` are zeroed; `model` stays as it is.

    Pruning a live group this way is the negative control of the equivalence check.
    """
    from zigprune.prune import prune

    work = model.clone()
    x = work.get_flat()
    partition.zero_groups_inplace(x, gids)
    work.set_flat(x)
    return prune(work, partition)[0]


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
            frozen = nonzero_counts(x, partition) == 0
            _reference_zero_groups(trial, partition, frozen)
            s = partition.pen_sqnorms(x)
            kill = (pen_dots(partition, trial, x) < state.epsilon * s) & ~frozen
            if kill.any():
                needed = (1.0 - state.epsilon) * s / alpha
                bad = kill & ~(pen_dots(partition, x, nu) > needed)
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
    """`zig.group_prox` as it stood before the gather order: gather, shrink, scatter."""
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


# -- the optimizer steps as they stood before the single gather order ----------
# `hspg_step` gathered the penalized and the free entries of x and of the
# gradient separately, checked and stepped each part, and scattered both back;
# `prox_sg_step` went through `reference_group_prox`. The steps that gather
# once in `GroupPartition.order` must match these bit for bit.


def _reference_check_finite(vec, k, what):
    from zigprune.errors import NumericalFailureError

    if not np.all(np.isfinite(vec)):
        raise NumericalFailureError(f"non-finite {what} entries at iteration {k}", iteration=k)


def _reference_descend(x, alpha, d):
    return (x.astype(np.float64, copy=False) - alpha * d.astype(np.float64, copy=False)).astype(
        np.float32
    )


def _reference_advance(state):
    state.k += 1
    if state.steps_per_epoch > 0 and state.k % state.steps_per_epoch == 0:
        state.alpha *= state.decay


def _reference_gathered_subgradient(xp, sqnorms, partition, lam):
    norms = np.sqrt(sqnorms)
    scale = np.zeros_like(norms)
    nz = norms > 0.0
    scale[nz] = lam / norms[nz]
    return xp * np.repeat(scale, partition.pen_sizes)


def reference_split_hspg_step(state, grad, partition):
    """`hspg.hspg_step` with separate gathers of the penalized and the free entries."""
    from zigprune.errors import InvariantError

    k, alpha, x = state.k, state.alpha, state.x
    perm, free = partition.pen_perm, partition.order[partition.pen_perm.size :]
    xp = x[perm].astype(np.float64)
    sq = partition.pen_sum(xp * xp)
    sub = (
        _reference_gathered_subgradient(xp, sq, partition, state.lam).astype(np.float32)
        if state.lam
        else 0.0
    )
    nu_p = grad[perm] + sub
    nu_f = grad[free] + 0.0
    for part in (nu_p, nu_f):
        _reference_check_finite(part, k, "subgradient")
    nu64 = nu_p.astype(np.float64)
    trial_p = _reference_descend(xp, alpha, nu64)
    zeroed = np.empty(0, dtype=np.int64)
    half_space = k >= state.switch_iteration
    if half_space:
        frozen = sq == 0.0
        if frozen.any():
            trial_p[np.repeat(frozen, partition.pen_sizes)] = 0.0
        kill = (partition.pen_sum(trial_p.astype(np.float64) * xp) < state.epsilon * sq) & ~frozen
        zeroed = partition.pen_gids[kill]
        if zeroed.size:
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
    trial[free] = _reference_descend(x[free], alpha, nu_f)
    trial[perm] = trial_p
    state.x = trial
    info = {"k": k, "stage": "half_space" if half_space else "subgradient", "zeroed": zeroed}
    _reference_advance(state)
    return info


def reference_prox_sg_step(state, grad, partition):
    """`hspg.prox_sg_step` over `reference_group_prox`."""
    _reference_check_finite(grad, state.k, "gradient")
    state.x = reference_group_prox(
        _reference_descend(state.x, state.alpha, grad), partition, state.alpha * state.lam
    )
    info = {"k": state.k, "stage": "prox-sg", "zeroed": np.empty(0, dtype=np.int64)}
    _reference_advance(state)
    return info


def bits(a):
    """The raw bytes of an array, so that -0.0 and +0.0 compare unequal."""
    return np.ascontiguousarray(a).tobytes()
