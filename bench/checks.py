"""Output checks against the brute-force oracle, run outside timed ops.

Each check runs one extra op with every layer's input recorded, then
checks each gated layer on a small slice of the input it really saw:

* hard routing (eval) must equal ``oracle.cac_forward_naive`` bit for
  bit in outputs, scores and masks;
* the soft backward (train) must match ``oracle.finite_diff_grad`` on a
  few float64 coordinates within ``GRAD_REL_TOL``, the acceptance
  tolerance.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from cacconv import cac as cc_cac
from cacconv import oracle

import workloads

GRAD_REL_TOL = 1e-3
FD_EPS = 1e-5
HARD_CROP, HARD_OUT_CHANNELS = 8, 4
GRAD_CROP, GRAD_OUT_CHANNELS = 6, 2


@contextmanager
def recorded_inputs(net):
    """Record each layer's latest input, and the network's output."""
    inputs = {}
    outputs = {}
    saved = []
    for layer in net.layers:
        saved.append((layer, layer.__dict__.get("forward")))
        inner = layer.forward

        def forward(x, train, _inner=inner, _name=layer.name):
            inputs[_name] = x
            y = _inner(x, train)
            outputs["logits"] = y
            return y

        layer.forward = forward
    try:
        yield inputs, outputs
    finally:
        for layer, previous in saved:
            if previous is None:
                del layer.forward
            else:
                layer.forward = previous


def run_recorded_op(state):
    """One untimed op; returns (gated layer -> its input, logits)."""
    with recorded_inputs(state.net) as (inputs, outputs):
        workloads.run_op(state)
    gated = {name: inputs[name] for name, _ in state.net.cac_layers()}
    return gated, outputs["logits"]


def _slice(x, side, rng):
    n = x.shape[2]
    side = min(side, n)
    r0, c0 = (int(v) for v in rng.integers(0, n - side + 1, size=2))
    return np.ascontiguousarray(x[:1, :, r0:r0 + side, c0:c0 + side])


def _sub_params(params, out_channels, dtype):
    """The layer's parameters restricted to its first output channels."""
    return replace(
        params,
        weight=params.weight[..., :out_channels].astype(dtype),
        bias=None if params.bias is None else params.bias[:out_channels].astype(dtype),
    )


def check_hard(net, gated_inputs, rng):
    """Failure messages for hard routing vs the naive oracle."""
    failures = []
    for name, layer in net.cac_layers():
        xs = _slice(gated_inputs[name], HARD_CROP, rng)
        params = _sub_params(layer.conv_params(), HARD_OUT_CHANNELS, xs.dtype)
        y, parts = cc_cac.cac_forward_hard(xs, params)
        y_ref, parts_ref = oracle.cac_forward_naive(xs, params)
        same = np.array_equal(y, y_ref) and all(
            np.array_equal(p.score, q.score) and np.array_equal(p.sharp_mask, q.sharp_mask)
            for p, q in zip(parts, parts_ref)
        )
        if not same:
            failures.append(f"{name}: cac_forward_hard differs from cac_forward_naive")
    return failures


def _distinct_coords(shape, count, rng):
    flat = rng.choice(int(np.prod(shape)), size=count, replace=False)
    return [tuple(int(v) for v in np.unravel_index(i, shape)) for i in flat]


def check_backward(net, gated_inputs, rng):
    """Failure messages for the soft backward vs central differences on a
    few coordinates: weights, gate gain and bias, and inputs."""
    failures = []
    for name, layer in net.cac_layers():
        x = _slice(gated_inputs[name], GRAD_CROP, rng).astype(np.float64)
        params = _sub_params(layer.conv_params(), GRAD_OUT_CHANNELS, np.float64)
        y, _, cache = cc_cac.cac_forward_soft(x, params)
        dy = rng.standard_normal(y.shape)
        score_grad = float(rng.uniform(-1.0, 1.0))
        g = cc_cac.cac_backward(cache, dy, score_grad)

        w_idx = _distinct_coords(params.weight.shape, 3, rng)
        x_idx = _distinct_coords(x.shape, 3, rng)
        analytic = np.array(
            [g.dweight[i] for i in w_idx] + [g.dgamma, g.dbeta] + [g.dx[i] for i in x_idx]
        )
        theta0 = np.array(
            [params.weight[i] for i in w_idx] + [params.gamma, params.beta] + [x[i] for i in x_idx]
        )

        def objective(theta):
            w, xi = params.weight.copy(), x.copy()
            for j, i in enumerate(w_idx):
                w[i] = theta[j]
            for j, i in enumerate(x_idx):
                xi[i] = theta[5 + j]
            p = replace(params, weight=w, gamma=float(theta[3]), beta=float(theta[4]))
            yy, parts, _ = cc_cac.cac_forward_soft(xi, p)
            return float((yy * dy).sum() + score_grad * sum(q.score.sum() for q in parts))

        numeric = oracle.finite_diff_grad(objective, theta0, eps=FD_EPS)
        rel = float(np.abs(analytic - numeric).max()) / max(float(np.abs(numeric).max()), 1e-8)
        if not rel <= GRAD_REL_TOL:
            failures.append(f"{name}: backward rel err {rel:.2e} > {GRAD_REL_TOL:g}")
    return failures


def output_check(state, seed):
    """Run one recorded op and check it; returns (failures, gated inputs,
    logits)."""
    gated, logits = run_recorded_op(state)
    rng = np.random.default_rng(seed)
    if state.name == "train_cifar10fmt":
        failures = check_backward(state.net, gated, rng)
    else:
        failures = check_hard(state.net, gated, rng)
    return failures, gated, logits
