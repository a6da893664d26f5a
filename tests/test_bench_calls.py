"""The benchmark's calls into the package, run directly.

``bench/tracing.py`` counts each gated forward's routing from its
``WindowPartition``s, ``bench/checks.py`` checks the hard path and the
soft backward against the oracle, and ``bench/workloads.py`` sets up
each workload and runs and checks its op.  Only the ``slow`` smoke test
(``tests/test_bench_smoke.py``) runs ``bench/run.py``; this file runs
those functions in the quick loop (the first two on ``cac_tiny_synth``),
so a package change that breaks them fails there too.
"""

import os
import sys

import numpy as np
import pytest

from cacconv.cac import cac_forward_hard, cac_forward_soft
from cacconv.data import synth_dataset
from cacconv.layers import Network, resolve_model_spec
from cacconv.train import evaluate

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)  # checks.py imports workloads.py as a top-level module
try:
    import checks
    import tracing
    import workloads
finally:
    sys.path.remove(BENCH)


def tiny_net_and_images():
    """``cac_tiny_synth`` with its gate set so that some windows route
    sharp and some smooth, and four synthetic images."""
    net = Network.build(resolve_model_spec("cac_tiny_synth"), rng=np.random.default_rng(4))
    layer = net.layers[0]
    layer.gate_gamma[0], layer.gate_beta[0] = 1.0, -1.0
    ds = synth_dataset("smooth_vs_textured", 4, 11)
    return net, layer, ds.images, ds.labels


def test_gated_counts_match_the_masks():
    net, layer, x, _ = tiny_net_and_images()
    params = layer.conv_params()
    hard = cac_forward_hard(x, params)[1]
    for parts in (hard, cac_forward_soft(x, params)[1]):
        masks = np.stack([p.sharp_mask for p in parts])
        sharp, windows = int(masks.sum()), masks.size
        assert 0 < sharp < windows
        assert tracing.gated_counts(parts, params) == {
            "sharp": sharp,
            "windows": windows,
            "madds_kxk": sharp * 3 * 8 * 9,
            "madds_1x1": (windows - sharp) * 3 * 8,
        }
    net.forward(x, train=False)
    assert layer.sharp_counts().tolist() == [p.sharp_count for p in hard]


def test_tracer_counts_an_eval_as_the_layer_does():
    net, layer, x, y = tiny_net_and_images()
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install(net)
    try:
        res = evaluate(net, x, y)
    finally:
        tracer.uninstall()
    counts = tracer.count_totals([0])
    assert counts["cac.00_cac_conv.sharp"] == layer.sharp_counts().sum()
    assert counts["cac.00_cac_conv.windows"] == 4 * 32 * 32
    assert counts["cost.madds_cac.calls"] == len(np.unique(layer.sharp_counts()))
    assert counts["cac.00_cac_conv.sharp"] / counts["cac.00_cac_conv.windows"] == (
        res.rho_hard["00_cac_conv"])
    untraced = evaluate(net, x, y)
    assert untraced.summary() == res.summary()
    assert np.array_equal(untraced.per_sample_madds, res.per_sample_madds)


def test_oracle_checks_pass():
    net, _, x, _ = tiny_net_and_images()
    gated = {"00_cac_conv": x}
    assert checks.check_hard(net, gated, np.random.default_rng(0)) == []
    assert checks.check_backward(net, gated, np.random.default_rng(1)) == []


@pytest.mark.parametrize("name", ["train_cifar10fmt", "eval_smooth", "eval_sharp"])
def test_workload_runs_and_checks_its_op(name, tmp_path):
    state = workloads.setup(name, 0, str(tmp_path))
    assert workloads.check_op(state, workloads.run_op(state))
    if name != "train_cifar10fmt":
        assert workloads.rho_band_error(state) is None
