"""The three benchmark workloads: inputs made from the seed, one op each,
the per-op output check, and the self-checks that keep each workload
what its name says.

Weights are ``cac_small`` at Kaiming init from the seed and batch-norm
statistics stay at init: hard-path cost depends on layer shapes and on
the realized routing, not on trained weight values.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from cacconv import data as cc_data
from cacconv import train as cc_train
from cacconv.cli import resolve_model_spec
from cacconv.cost import model_cost
from cacconv.layers import Network

BATCH = 64
LAMBDA = 0.3
# Small enough that the train step, not the set-up, sets peak_rss_mb.
TRAIN_IMAGES = 640
TEST_IMAGES = 64
# Train loss and train MAdds average this many timed steps from the
# start, so they repeat exactly for a seed however many steps fit.  The
# gates move fast under the penalty: over longer windows the mean MAdds
# spread more from seed to seed.
TRAIN_STATS_STEPS = 16
# Gate pins (gamma, beta).  At (1, -6) a window routes sharp only where
# its Sobel magnitude exceeds 6: on the smooth blobs of seeds 0-299 at
# most 0.7% of windows per gated layer, where beta = -4 reached 6.5%.
# At (1, 10) every window routes sharp.
SMOOTH_PIN = (1.0, -6.0)
OPEN_PIN = (1.0, 10.0)
SMOOTH_RHO_MAX = 0.05


@dataclass
class State:
    """One set-up workload: the network and what its op consumes."""

    name: str
    net: Network
    x: np.ndarray
    y: np.ndarray
    opt: object = None
    rng: object = None
    order: list = field(default_factory=list)
    reference: object = None      # warm-up result the per-op check compares to
    c_baseline: float = 0.0
    step_losses: list = field(default_factory=list)
    step_madds: list = field(default_factory=list)


def build_net(seed):
    return Network.build(resolve_model_spec("cac_small"), rng=np.random.default_rng(seed))


def pin_gates(net, pin):
    for _, layer in net.cac_layers():
        layer.gate_gamma[0], layer.gate_beta[0] = pin


def fabricate_cifar10_dir(dir_path, seed, n_train=TRAIN_IMAGES, n_test=TEST_IMAGES):
    """Ten-class stand-in dataset in the CIFAR-10 binary layout: a class
    mean colour plus a smooth bilinear blob and mild pixel noise (the
    recipe of ``tests/conftest.py:fabricate_cifar10_dir``)."""
    levels = (60, 128, 196)
    combos = [(r, g, b) for r in levels for g in levels for b in levels]
    picks = (0, 4, 8, 10, 13, 16, 18, 21, 24, 26)
    palette = np.array([combos[i] for i in picks], dtype=np.float64)
    upsample = cc_data._bilinear_matrix(32, 4)
    rng = np.random.default_rng(seed)

    def make(n):
        labels = rng.integers(0, 10, size=n).astype(np.int64)
        coarse = rng.normal(0.0, 1.0, (n, 3, 4, 4))
        blob = np.einsum("ij,ncjk,lk->ncil", upsample, coarse, upsample) * 24.0
        noise = rng.normal(0.0, 6.0, (n, 3, 32, 32))
        img = palette[labels][:, :, None, None] + blob + noise
        return np.clip(img, 0, 255).astype(np.uint8), labels

    cc_data.write_cifar10_batch(os.path.join(dir_path, "data_batch_1.bin"), *make(n_train))
    cc_data.write_cifar10_batch(os.path.join(dir_path, "test_batch.bin"), *make(n_test))


# -- train_cifar10fmt ---------------------------------------------------------

def setup_train(seed, workdir, attach=None):
    with tempfile.TemporaryDirectory(dir=workdir) as d:
        fabricate_cifar10_dir(d, seed)
        train_set, _ = cc_data.load_cifar10(d)
    net = build_net(seed)
    if attach:
        attach(net)
    state = State(
        name="train_cifar10fmt", net=net, x=train_set.images, y=train_set.labels,
        opt=cc_train.OptimizerState(config=cc_train.OptimizerConfig()),
        rng=np.random.default_rng(seed + 1),
        c_baseline=float(model_cost(net.cost_specs(), [1.0] * len(net.cost_specs())).c_baseline),
    )
    state.reference = train_op(state)
    return state


def train_op(state):
    if not state.order:
        perm = state.rng.permutation(len(state.y))
        state.order = [perm[s:s + BATCH] for s in range(0, len(perm) - BATCH + 1, BATCH)]
    idx = state.order.pop(0)
    state.net.zero_grads()
    step = cc_train.forward_backward(state.net, state.x[idx], state.y[idx], LAMBDA)
    cc_train.sgd_step(state.net, state.opt, state.opt.config.lr)
    return step


def check_train_step(state, step):
    """Every step's loss is finite; the first steps feed the loss and
    MAdds statistics."""
    if len(state.step_losses) < TRAIN_STATS_STEPS:
        state.step_losses.append(step.ell)
        state.step_madds.append(step.cost_ratio_hard * state.c_baseline)
    return bool(np.isfinite(step.ell) and np.isfinite(step.objective))


# -- eval_smooth / eval_sharp ---------------------------------------------------

def setup_eval(name, seed, attach=None):
    label, pin = (0, SMOOTH_PIN) if name == "eval_smooth" else (1, OPEN_PIN)
    ds = cc_data.synth_dataset("smooth_vs_textured", 2 * BATCH, seed)
    keep = ds.labels == label
    net = build_net(seed)
    pin_gates(net, pin)
    if attach:
        attach(net)
    state = State(name=name, net=net, x=ds.images[keep], y=ds.labels[keep])
    state.reference = eval_op(state)
    return state


def eval_op(state):
    return cc_train.evaluate(state.net, state.x, state.y, batch_size=BATCH)


def check_eval_result(state, res):
    """Same batch, same weights: the op must reproduce the warm-up result."""
    ref = state.reference
    return bool(
        np.array_equal(res.per_sample_madds, ref.per_sample_madds)
        and res.top1_error == ref.top1_error
        and res.rho_hard == ref.rho_hard
    )


def rho_band_error(state):
    """A message if the warm-up routing left the workload's stated band."""
    rho = state.reference.rho_hard
    if state.name == "eval_smooth":
        bad = {k: v for k, v in rho.items() if v > SMOOTH_RHO_MAX}
        if bad:
            return f"eval_smooth routes more than {SMOOTH_RHO_MAX} sharp: {bad}"
    elif state.name == "eval_sharp":
        bad = {k: v for k, v in rho.items() if v != 1.0}
        if bad:
            return f"eval_sharp does not route every window sharp: {bad}"
    return None


# -- shared ---------------------------------------------------------------------

def setup(name, seed, workdir, attach=None):
    if name == "train_cifar10fmt":
        return setup_train(seed, workdir, attach)
    return setup_eval(name, seed, attach)


def run_op(state):
    return train_op(state) if state.name == "train_cifar10fmt" else eval_op(state)


def check_op(state, result):
    if state.name == "train_cifar10fmt":
        return check_train_step(state, result)
    return check_eval_result(state, result)


def madds_per_image(state):
    """Realized hard-routed MAdds per image: of the eval op, which every
    checked op reproduces, or the mean over the first timed train steps."""
    if state.name == "train_cifar10fmt":
        return float(np.mean(state.step_madds))
    return float(state.reference.per_sample_madds.mean())


def replay(name, seed, workdir, steps):
    """A fresh set-up from the seed, driven as far as the reported
    statistics reach: the op of the pre-timing output check, then
    ``steps`` checked train steps.  Returns (madds_per_image, train loss
    or None), which must equal the timed run's figures."""
    state = setup(name, seed, workdir)
    if name != "train_cifar10fmt":
        return madds_per_image(state), None
    run_op(state)
    for _ in range(steps):
        check_op(state, run_op(state))
    return madds_per_image(state), float(np.mean(state.step_losses))
