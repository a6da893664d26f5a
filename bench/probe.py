"""Layer probe of the traced run, timed directly, outside any op.

On each gated layer's real input it times:

* ``tensor.conv2d`` with the layer's kernel: the dense reference;
* ``cac.cac_forward_hard`` at the layer's own gates, giving ns per
  realized MAdd;
* ``cac.cac_forward_hard`` at three gate pins that route all windows
  smooth, about half, and all sharp.  Those nine points fit
  ``t = a * MAdds_kxk + b * MAdds_1x1 + c * windows`` jointly across the
  three layer shapes.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from time import perf_counter_ns

import numpy as np

from cacconv import cac as cc_cac
from cacconv import tensor as cc_tensor
from cacconv.cost import SCORING_MADDS_PER_WINDOW

import workloads
from tracing import gated_counts

REPS = 3


def _median_ns(fn):
    times = []
    for _ in range(REPS):
        t0 = perf_counter_ns()
        result = fn()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times), result


def _pins(x):
    """(gamma, beta) pairs giving rho = 0, about 0.5 and 1 on input x."""
    grad = cc_cac.sobel_gradient(cc_tensor.channel_mean(x))
    return (
        (1.0, -float(grad.max()) - 1.0),
        (1.0, -float(np.median(grad))),
        workloads.OPEN_PIN,
    )


def probe(net, gated_inputs):
    metrics = {}
    rows, times = [], []
    for gl, layer in net.cac_layers():
        x = gated_inputs[gl]
        params = layer.conv_params()
        w = params.weight.astype(x.dtype, copy=False)
        ns, _ = _median_ns(lambda: cc_tensor.conv2d(x, w, params.bias))
        metrics[f"dense_ref.{gl}.ms"] = ns / 1e6

        ns, (_, parts) = _median_ns(lambda: cc_cac.cac_forward_hard(x, params))
        c = gated_counts(parts, params)
        realized = c["madds_kxk"] + c["madds_1x1"] + SCORING_MADDS_PER_WINDOW * c["windows"]
        metrics[f"cac.{gl}.ns_per_madd"] = ns / realized

        for gamma, beta in _pins(x):
            pinned = replace(params, gamma=gamma, beta=beta)
            ns, (_, parts) = _median_ns(lambda: cc_cac.cac_forward_hard(x, pinned))
            c = gated_counts(parts, pinned)
            rows.append([c["madds_kxk"], c["madds_1x1"], c["windows"]])
            times.append(ns)

    a_mat = np.asarray(rows, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    coef, *_ = np.linalg.lstsq(a_mat, t, rcond=None)
    metrics["costfit.a_ns_per_madd_kxk"] = float(coef[0])
    metrics["costfit.b_ns_per_madd_1x1"] = float(coef[1])
    metrics["costfit.c_ns_per_window"] = float(coef[2])
    metrics["costfit.rel_residual"] = float(np.linalg.norm(a_mat @ coef - t) / np.linalg.norm(t))
    return metrics
