"""The numerical correctness checks: acceptance checks 1-4 and the
`verify` subcommand both run them.

Each check draws its instances from one seeded generator, compares the
fast paths with the brute-force oracles in :mod:`cacconv.oracle` or with
closed-form arithmetic, and returns what it measured plus a one-line
detail string.  A check does not judge: its caller holds the
tolerances.  A given seed and count always draw the same instances.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .cac import CacConvParams, cac_backward, cac_forward_hard, cac_forward_soft
from .cost import (
    LayerCostSpec, cost_penalty, madds_cac, madds_standard, model_cost, rho_upper_bound,
)
from .layers import Network
from .oracle import MaddsCounter, cac_forward_naive, conv2d_naive, finite_diff_grad
from .tensor import conv2d
from .train import forward_backward

CONV_REL_TOL_F32 = 1e-5
CONV_REL_TOL_F64 = 1e-12
SATURATED_REL_TOL = 1e-5
CONSTANT_ABS_TOL = 1e-6
GRAD_REL_TOL = 1e-3
RHO_BAR_EXPECTED = 0.99365
RHO_BAR_TOL = 1e-4


def rand_cac_params(rng, c_in, c_out, k=3, dtype=np.float32, scaled=False,
                    gamma=None, beta=None, pbar_mode=None):
    w = rng.standard_normal((k, k, c_in, c_out))
    if scaled:
        w = w / np.sqrt(k * k * c_in)
    return CacConvParams(
        weight=w.astype(dtype),
        gamma=float(rng.uniform(0.5, 2.0)) if gamma is None else gamma,
        beta=float(rng.uniform(-1.0, 1.0)) if beta is None else beta,
        bias=rng.standard_normal(c_out).astype(dtype),
        pbar_mode=pbar_mode or str(rng.choice(["center", "mean"])),
    )


def check_convolution(shapes, seed):
    """`conv2d` against `conv2d_naive` on random shapes, f32 and f64."""
    rng = np.random.default_rng(seed)
    worst = {np.float32: 0.0, np.float64: 0.0}
    for _ in range(shapes):
        n = int(rng.integers(3, 17))
        k = int(rng.choice([1, 3, 5]))
        ci, co = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        x64 = rng.standard_normal((1, ci, n, n))
        w64 = rng.standard_normal((k, k, ci, co))
        b64 = rng.standard_normal(co)
        for dt in (np.float32, np.float64):
            x, w, b = x64.astype(dt), w64.astype(dt), b64.astype(dt)
            ref = conv2d_naive(x, w, b)
            got = conv2d(x, w, b)
            rel = float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-30))
            worst[dt] = max(worst[dt], rel)
    return {
        "worst_f32": worst[np.float32], "worst_f64": worst[np.float64],
        "detail": f"{shapes} shapes, max rel err {worst[np.float32]:.2e} (f32) / "
                  f"{worst[np.float64]:.2e} (f64)",
    }


def check_gated_dispatch(instances, saturated, constant_grid, seed):
    """`cac_forward_hard` against `cac_forward_naive` bit for bit, then
    both against `conv2d` with the gate pinned open (``saturated``
    draws) and on constant inputs over ``constant_grid``, a tuple of
    (input values, gammas, betas)."""
    rng = np.random.default_rng(seed)
    bit_identical = 0
    for _ in range(instances):
        n = int(rng.integers(4, 10))
        ci, co = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        params = rand_cac_params(rng, ci, co)
        x = rng.standard_normal((2, ci, n, n)).astype(np.float32)
        y_fast, parts_fast = cac_forward_hard(x, params)
        y_ref, parts_ref = cac_forward_naive(x, params)
        same = np.array_equal(y_fast, y_ref) and all(
            np.array_equal(getattr(pf, f), getattr(pr, f))
            for pf, pr in zip(parts_fast, parts_ref, strict=True)
            for f in ("gradient", "score", "sharp_mask"))
        bit_identical += 1 if same else 0

    # gate pinned open: both dispatch paths reduce to plain convolution
    sat_rel = 0.0
    for _ in range(saturated):
        params = rand_cac_params(rng, 3, 2, gamma=1.0, beta=10.0)
        x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
        y_conv = conv2d(x, params.weight, params.bias)
        denom = float(np.max(np.abs(y_conv)))
        for y in (cac_forward_hard(x, params)[0], cac_forward_naive(x, params)[0]):
            sat_rel = max(sat_rel, float(np.max(np.abs(y - y_conv))) / denom)

    # constant input: uniform windows make both routes agree with the
    # dense convolution wherever the window avoids the zero padding,
    # whichever way the gate points
    values, gammas, betas = constant_grid
    const_abs = 0.0
    for value in values:
        x = np.full((1, 3, 7, 7), value, dtype=np.float32)
        for gamma in gammas:
            for beta in betas:
                params = rand_cac_params(rng, 3, 2, scaled=True,
                                         gamma=gamma, beta=beta)
                y_conv = conv2d(x, params.weight, params.bias)
                for y in (cac_forward_hard(x, params)[0],
                          cac_forward_naive(x, params)[0]):
                    diff = np.abs(y[:, :, 1:-1, 1:-1] - y_conv[:, :, 1:-1, 1:-1])
                    const_abs = max(const_abs, float(diff.max()))
    return {
        "instances": instances, "bit_identical": bit_identical,
        "saturated_rel": sat_rel, "constant_abs": const_abs,
        "detail": f"{bit_identical}/{instances} instances bit-identical, saturated rel "
                  f"{sat_rel:.2e}, constant-input interior abs {const_abs:.2e}",
    }


def _net_param_vector(net):
    return np.concatenate([v.ravel() for _, _, _, v in net.named_params()])


def _set_net_params(net, vec):
    off = 0
    for _, layer, pname, v in net.named_params():
        v[...] = vec[off:off + v.size].reshape(v.shape)
        off += v.size


_OBJECTIVE_SPEC = {
    "input": {"channels": 2, "size": 8},
    "num_classes": 3,
    "layers": [
        {"type": "cac_conv", "out": 3, "k": 3},
        {"type": "batchnorm"},
        {"type": "relu"},
        {"type": "avgpool", "k": 2},
        {"type": "conv", "out": 4, "k": 3},
        {"type": "relu"},
        {"type": "global_avgpool"},
        {"type": "linear", "out": 3},
        {"type": "softmax_ce"},
    ],
}


def check_gradients(layer_instances, objective_instances, seed):
    """Analytic gradients against central finite differences: every
    input and parameter of the gated layer alone, then every parameter
    of the full penalized objective through a small network."""
    rng = np.random.default_rng(seed)
    worst_layer = 0.0
    for _ in range(layer_instances):
        n = int(rng.integers(5, 8))
        ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        params = rand_cac_params(rng, ci, co, dtype=np.float64)
        x = rng.standard_normal((1, ci, n, n))

        sizes = [params.weight.size, 1, 1, co, x.size]

        def unpack(theta):
            w, g, b, bias, xs = np.split(theta, np.cumsum(sizes)[:-1])
            p = CacConvParams(w.reshape(params.weight.shape), float(g[0]),
                              float(b[0]), bias, params.pbar_mode)
            return p, xs.reshape(x.shape)

        def f(theta):
            p, xi = unpack(theta)
            y, _, _ = cac_forward_soft(xi, p)
            return float((y**2).sum())

        theta0 = np.concatenate([
            params.weight.ravel(), [params.gamma], [params.beta],
            params.bias, x.ravel(),
        ])
        y, _, cache = cac_forward_soft(x, params)
        g = cac_backward(cache, 2.0 * y)
        analytic = np.concatenate([
            g.dweight.ravel(), [g.dgamma], [g.dbeta], g.dbias, g.dx.ravel(),
        ])
        numeric = finite_diff_grad(f, theta0.copy(), eps=1e-5)
        denom = max(float(np.abs(numeric).max()), 1e-8)
        worst_layer = max(worst_layer, float(np.abs(analytic - numeric).max()) / denom)

    worst_obj = 0.0
    for trial in range(objective_instances):
        net = Network.build(_OBJECTIVE_SPEC, rng=np.random.default_rng(1000 + trial),
                            dtype=np.float64)
        x = rng.standard_normal((2, 2, 8, 8))
        labels = rng.integers(0, 3, size=2)
        lam = float(rng.uniform(0.25, 1.0))

        net.zero_grads()
        forward_backward(net, x, labels, lam)
        analytic = np.concatenate(
            [layer.grads[p].ravel() for _, layer, p, _ in net.named_params()]
        )

        def f(theta):
            _set_net_params(net, theta)
            logits = net.forward(x, train=True)
            ell, _ = net.head.loss(logits, labels)
            rho_soft = {name: layer.rho_soft() for name, layer in net.cac_layers()}
            specs = net.cost_specs()
            rhos = [rho_soft.get(s.layer_id, 1.0) for s in specs]
            return float(ell * model_cost(specs, rhos).ratio ** lam)

        theta0 = _net_param_vector(net)
        numeric = finite_diff_grad(f, theta0.copy(), eps=1e-5)
        _set_net_params(net, theta0)
        denom = max(float(np.abs(numeric).max()), 1e-8)
        worst_obj = max(worst_obj, float(np.abs(analytic - numeric).max()) / denom)
    return {
        "worst_layer": worst_layer, "worst_objective": worst_obj,
        "detail": f"{layer_instances + objective_instances} instances, max rel err "
                  f"{worst_layer:.2e} (layer) / {worst_obj:.2e} (objective)",
    }


def check_cost_model(branch_instances, seed):
    """The MAdds formulas against the oracles' instrumented counters,
    the break-even fraction rho_bar(3, 16, 16), the sign of the saving
    on a (k, c, rho) grid, and the penalty's edge cases."""
    rng = np.random.default_rng(seed)
    dense_exact = True
    for n, k, ci, co in ((5, 3, 2, 3), (8, 1, 3, 2), (6, 5, 1, 4)):
        x = rng.standard_normal((1, ci, n, n)).astype(np.float32)
        w = rng.standard_normal((k, k, ci, co)).astype(np.float32)
        counter = MaddsCounter()
        conv2d_naive(x, w, counter=counter)
        formula = madds_standard(LayerCostSpec("d", n=n, k=k, c_in=ci, c_out=co))
        dense_exact = dense_exact and counter.count == formula

    branch_exact = True
    for _ in range(branch_instances):
        n = int(rng.integers(4, 9))
        ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        params = rand_cac_params(rng, ci, co)
        x = rng.standard_normal((1, ci, n, n)).astype(np.float32)
        counter = MaddsCounter()
        _, parts = cac_forward_naive(x, params, counter=counter)
        spec = LayerCostSpec("c", n=n, k=3, c_in=ci, c_out=co, cac=True)
        bd = madds_cac(spec, Fraction(parts[0].sharp_count, parts[0].total_windows))
        branch_exact = branch_exact and (bd.kxk + bd.one_by_one == counter.count)

    rho_bar = rho_upper_bound(LayerCostSpec("r", n=32, k=3, c_in=16, c_out=16, cac=True))

    grid_ok = True
    for k in (3, 5, 7):
        for c in range(1, 65):
            s = LayerCostSpec("g", n=16, k=k, c_in=c, c_out=c, cac=True)
            bar = rho_upper_bound(s)
            omega = madds_standard(s)
            for rho in (0.0, 0.25, 0.5, bar - 1e-6, bar + 1e-6, 1.0):
                if not 0.0 <= rho <= 1.0:
                    continue
                diff = madds_cac(s, rho).total - omega
                want = rho - bar
                if diff != 0 and want != 0 and np.sign(diff) != np.sign(want):
                    grid_ok = False

    # lambda = 0 switches the penalty off exactly; lambda = 1 is the ratio
    penalty_ok = (cost_penalty(0.5, 0.0) == (1.0, 0.0)
                  and abs(cost_penalty(0.5, 1.0)[0] - 0.5) < 1e-15)
    return {
        "dense_exact": dense_exact, "branch_exact": branch_exact, "rho_bar": rho_bar,
        "grid_ok": grid_ok, "penalty_ok": penalty_ok,
        "detail": f"dense counter exact: {dense_exact}, branch counter exact: "
                  f"{branch_exact}, break-even(3,16,16)={rho_bar:.8f}, sign grid k in "
                  f"{{3,5,7}} x c in 1..64: {grid_ok}, penalty edge cases: {penalty_ok}",
    }


# (name, check, fast arguments, --full arguments, pass test).  --full
# runs acceptance checks 1-4 at their own counts and seeds.
_SUITE = (
    ("convolution", check_convolution,
     dict(shapes=10, seed=101), dict(shapes=100, seed=101),
     lambda m: m["worst_f32"] <= CONV_REL_TOL_F32 and m["worst_f64"] <= CONV_REL_TOL_F64),
    ("gated_dispatch", check_gated_dispatch,
     dict(instances=8, saturated=1, constant_grid=((0.6,), (1.0,), (-5.0, 0.0, 5.0)),
          seed=202),
     dict(instances=50, saturated=4,
          constant_grid=((0.6, -0.25), (0.3, 1.0, 3.0), (-5.0, -0.2, 0.0, 0.7, 5.0)),
          seed=202),
     lambda m: (m["bit_identical"] == m["instances"]
                and m["saturated_rel"] <= SATURATED_REL_TOL
                and m["constant_abs"] <= CONSTANT_ABS_TOL)),
    ("gradients", check_gradients,
     dict(layer_instances=2, objective_instances=1, seed=303),
     dict(layer_instances=12, objective_instances=8, seed=303),
     lambda m: m["worst_layer"] <= GRAD_REL_TOL and m["worst_objective"] <= GRAD_REL_TOL),
    ("cost_model", check_cost_model,
     dict(branch_instances=2, seed=404), dict(branch_instances=6, seed=404),
     lambda m: (m["dense_exact"] and m["branch_exact"] and m["grid_ok"] and m["penalty_ok"]
                and abs(m["rho_bar"] - RHO_BAR_EXPECTED) <= RHO_BAR_TOL)),
)


def run_all(fast=True):
    """One {"name", "ok", "detail"} record per check, in suite order."""
    results = []
    for name, check, fast_args, full_args, passes in _SUITE:
        measured = check(**(fast_args if fast else full_args))
        results.append({"name": name, "ok": bool(passes(measured)),
                        "detail": measured["detail"]})
    return results
