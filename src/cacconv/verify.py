"""Built-in correctness suite behind the `verify` subcommand.

Each check re-derives expected values from the brute-force oracles in
:mod:`cacconv.oracle` or from closed-form arithmetic, so a passing run
certifies the fast paths against independent references.
"""

from __future__ import annotations

import math

import numpy as np

from .cac import CacConvParams, cac_backward, cac_forward_hard, cac_forward_soft
from .cost import LayerCostSpec, cost_penalty, madds_cac, madds_standard, rho_upper_bound
from .layers import Network
from .oracle import MaddsCounter, cac_forward_naive, conv2d_naive, finite_diff_grad
from .tensor import conv2d
from .train import forward_backward


def _result(name, ok, detail):
    return {"name": name, "ok": bool(ok), "detail": detail}


def _rand_params(rng, c_in, c_out, k, dtype=np.float32, gamma=None, beta=None):
    return CacConvParams(
        weight=rng.standard_normal((k, k, c_in, c_out)).astype(dtype),
        gamma=float(rng.uniform(0.5, 2.0)) if gamma is None else gamma,
        beta=float(rng.uniform(-1.0, 1.0)) if beta is None else beta,
        bias=rng.standard_normal(c_out).astype(dtype),
    )


def check_conv_oracle(trials=10, seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(3, 13))
        k = int(rng.choice([1, 3, 5]))
        if k > n:
            k = 1
        ci, co = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        x = rng.standard_normal((2, ci, n, n)).astype(np.float32)
        w = rng.standard_normal((k, k, ci, co)).astype(np.float32)
        ref = conv2d_naive(x, w)
        got = conv2d(x, w)
        err = float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-30))
        worst = max(worst, err)
    return _result("conv_vs_naive", worst <= 1e-5, f"max rel err {worst:.2e} over {trials} shapes")


def check_counter(seed=1):
    rng = np.random.default_rng(seed)
    n, k, ci, co, b = 6, 3, 2, 3, 2
    x = rng.standard_normal((b, ci, n, n)).astype(np.float32)
    w = rng.standard_normal((k, k, ci, co)).astype(np.float32)
    counter = MaddsCounter()
    conv2d_naive(x, w, counter=counter)
    expected = b * madds_standard(LayerCostSpec("L", n=n, k=k, c_in=ci, c_out=co))
    ok = counter.count == expected
    return _result("counter_vs_formula", ok, f"counted {counter.count}, formula {expected}")


def check_hard_bitexact(trials=6, seed=2):
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(trials):
        n = int(rng.integers(4, 9))
        ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        params = _rand_params(rng, ci, co, 3, gamma=1.0, beta=float(rng.uniform(-0.5, 0.5)))
        x = rng.standard_normal((2, ci, n, n)).astype(np.float32)
        y_fast, parts_fast = cac_forward_hard(x, params)
        y_ref, parts_ref = cac_forward_naive(x, params)
        if not (np.array_equal(y_fast, y_ref)
                and all(np.array_equal(a.sharp_mask, b.sharp_mask)
                        for a, b in zip(parts_fast, parts_ref))):
            bad += 1
    return _result("hard_vs_naive_bitexact", bad == 0, f"{trials - bad}/{trials} instances bit-identical")


def check_cac_counter(seed=3):
    rng = np.random.default_rng(seed)
    n, ci, co = 8, 2, 3
    params = _rand_params(rng, ci, co, 3, gamma=1.0, beta=0.0)
    x = rng.standard_normal((1, ci, n, n)).astype(np.float32)
    counter = MaddsCounter()
    _, parts = cac_forward_naive(x, params, counter=counter)
    spec = LayerCostSpec("L", n=n, k=3, c_in=ci, c_out=co, cac=True)
    bd = madds_cac(spec, parts[0].rho_hard_exact)
    ok = counter.count == int(bd.kxk) + int(bd.one_by_one)
    return _result(
        "cac_counter_vs_formula", ok,
        f"counted {counter.count}, formula branches {int(bd.kxk) + int(bd.one_by_one)}",
    )


def check_saturated_and_constant(seed=4):
    rng = np.random.default_rng(seed)
    n, ci, co = 7, 3, 2
    params = _rand_params(rng, ci, co, 3, gamma=1.0, beta=10.0)
    x = rng.standard_normal((2, ci, n, n)).astype(np.float32)
    y_hard, _ = cac_forward_hard(x, params)
    y_conv = conv2d(x, params.weight, params.bias)
    rel = float(np.max(np.abs(y_hard - y_conv)) / np.max(np.abs(y_conv)))
    ok = rel <= 1e-5

    const = np.full((1, ci, n, n), 0.6, dtype=np.float32)
    params2 = _rand_params(rng, ci, co, 3, gamma=1.0, beta=-2.0)
    # Kernel-scale weights keep outputs O(1) so the absolute tolerance is
    # meaningful in 32-bit.
    params2 = CacConvParams(
        weight=params2.weight / np.float32(np.sqrt(9 * ci)),
        gamma=params2.gamma, beta=params2.beta, bias=params2.bias,
    )
    y2, _ = cac_forward_hard(const, params2)
    y2c = conv2d(const, params2.weight, params2.bias)
    # Uniform-window equality only holds where the window avoids the
    # zero padding, i.e. on the interior.
    diff = float(np.max(np.abs(y2[:, :, 1:-1, 1:-1] - y2c[:, :, 1:-1, 1:-1])))
    ok = ok and diff <= 1e-6
    return _result("saturated_and_constant_equivalence",
                   ok, f"saturated rel {rel:.2e}, constant interior abs {diff:.2e}")


def check_soft_gradients(trials=2, seed=5):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n, ci, co = 6, 2, 2
        params = _rand_params(rng, ci, co, 3, dtype=np.float64,
                              gamma=1.2, beta=-0.3)
        x = rng.standard_normal((1, ci, n, n))

        def loss_at(w_flat):
            p = CacConvParams(w_flat.reshape(params.weight.shape), params.gamma,
                              params.beta, params.bias, params.pbar_mode)
            y, _, _ = cac_forward_soft(x, p)
            return float((y**2).sum())

        y, _, cache = cac_forward_soft(x, params)
        grads = cac_backward(cache, 2.0 * y)
        num = finite_diff_grad(loss_at, params.weight.reshape(-1).copy(), eps=1e-5)
        denom = max(float(np.abs(num).max()), 1e-8)
        worst = max(worst, float(np.abs(grads.dweight.reshape(-1) - num).max()) / denom)
    return _result("soft_gradient_vs_finite_diff", worst <= 1e-3,
                   f"max rel err {worst:.2e}")


def check_objective_gradient(seed=6):
    rng = np.random.default_rng(seed)
    spec = {
        "input": {"channels": 2, "size": 8},
        "num_classes": 3,
        "layers": [
            {"type": "cac_conv", "out": 3, "k": 3},
            {"type": "relu"},
            {"type": "global_avgpool"},
            {"type": "linear", "out": 3},
        ],
    }
    net = Network.build(spec, rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 2, 8, 8))
    labels = np.array([0, 2])
    lam = 0.7
    net.zero_grads()
    forward_backward(net, x, labels, lam)
    layer = net.layers[0]
    got = float(layer.grads["gate_beta"][0])

    def loss_at(beta_arr):
        layer.gate_beta[0] = beta_arr[0]
        logits = net.forward(x, train=True)
        ell, _ = net.head.loss(logits, labels)
        from .cost import model_cost
        specs = net.cost_specs()
        rhos = [layer.rho_soft() if s.cac else 1.0 for s in specs]
        ratio = model_cost(specs, rhos).ratio
        return ell * ratio**lam

    beta0 = float(layer.gate_beta[0])
    num = finite_diff_grad(loss_at, np.array([beta0]), eps=1e-5)[0]
    layer.gate_beta[0] = beta0
    rel = abs(got - num) / max(abs(num), 1e-10)
    return _result("objective_gradient_dbeta", rel <= 1e-3,
                   f"analytic {got:.6e}, numeric {num:.6e}, rel {rel:.2e}")


def check_cost_properties():
    spec = LayerCostSpec("L", n=32, k=3, c_in=16, c_out=16, cac=True)
    rb = rho_upper_bound(spec)
    ok = abs(rb - 0.99365) <= 1e-4
    detail = [f"rho_bar(3,16,16)={rb:.8f}"]

    grid_ok = True
    for k in (3, 5, 7):
        for c in range(1, 65):
            s = LayerCostSpec("g", n=16, k=k, c_in=c, c_out=c, cac=True)
            bar = rho_upper_bound(s)
            omega = madds_standard(s)
            for rho in (0.0, 0.25, bar - 1e-6, bar + 1e-6, 1.0):
                if not (0.0 <= rho <= 1.0):
                    continue
                lhs = madds_cac(s, rho).total - omega
                want = rho - bar
                if lhs != 0 and want != 0 and math.copysign(1, lhs) != math.copysign(1, want):
                    grid_ok = False
    detail.append("break-even sign grid " + ("ok" if grid_ok else "FAILED"))

    f0, d0 = cost_penalty(0.5, 0.0)
    pen_ok = f0 == 1.0 and d0 == 0.0
    f1, _ = cost_penalty(0.5, 1.0)
    pen_ok = pen_ok and abs(f1 - 0.5) < 1e-15
    detail.append("penalty edge cases " + ("ok" if pen_ok else "FAILED"))
    return _result("cost_properties", ok and grid_ok and pen_ok, "; ".join(detail))


def run_all(fast=True):
    conv_trials = 10 if fast else 40
    hard_trials = 6 if fast else 20
    return [
        check_conv_oracle(conv_trials),
        check_counter(),
        check_hard_bitexact(hard_trials),
        check_cac_counter(),
        check_saturated_and_constant(),
        check_soft_gradients(2 if fast else 6),
        check_objective_gradient(),
        check_cost_properties(),
    ]
