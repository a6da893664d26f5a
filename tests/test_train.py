import json
import math
import os
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cacconv import (
    DataFormatError, InvalidArgument, NumericFailure, finite_diff_grad, madds_cac, madds_standard,
    model_cost,
)
from cacconv import cac as cac_module
from cacconv import tensor as tensor_module
from cacconv import train as train_module
from cacconv.cli import RunConfig
from cacconv.data import synth_dataset
from cacconv.layers import AvgPool2d, Linear, Network, resolve_model_spec
from cacconv.train import (
    OptimizerConfig,
    OptimizerState,
    evaluate,
    forward_backward,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train_model,
)


class _OneParamNet:
    """Minimal named_params provider for exercising the optimizer."""

    def __init__(self, theta, grad, no_decay=False):
        self.layer = Linear(theta.shape[0], theta.shape[1],
                            bias=False, rng=np.random.default_rng(0), dtype=np.float64)
        self.layer.weight[...] = theta
        self.layer.grads = {"weight": grad}
        self._nd = {"weight"} if no_decay else set()
        self.layer.no_decay = lambda: self._nd

    def named_params(self):
        return [("w", self.layer, "weight", self.layer.weight)]

    @property
    def theta(self):
        return self.layer.weight


def _opt(**kw):
    return OptimizerState(config=OptimizerConfig(**kw))


class TestSgd:
    def test_plain_gradient_step(self):
        theta = np.array([[1.0], [2.0]])
        g = np.array([[0.5], [-1.0]])
        net = _OneParamNet(theta.copy(), g)
        sgd_step(net, _opt(momentum=0.0, weight_decay=0.0), lr=0.1)
        assert np.allclose(net.theta, theta - 0.1 * g)

    def test_two_nesterov_steps_match_hand_recurrence(self):
        theta = np.array([[1.0]])
        g = np.array([[0.4]])
        net = _OneParamNet(theta.copy(), g.copy())
        state = _opt(momentum=0.9, weight_decay=0.0, nesterov=True)
        sgd_step(net, state, lr=0.1)
        # v1 = g; step1 = g + 0.9 v1 = 1.9 g
        t1 = 1.0 - 0.1 * 1.9 * 0.4
        assert net.theta[0, 0] == pytest.approx(t1, rel=1e-12)
        net.layer.grads = {"weight": g.copy()}
        sgd_step(net, state, lr=0.1)
        # v2 = 0.9 g + g = 1.9 g; step2 = g + 0.9 v2 = 2.71 g
        t2 = t1 - 0.1 * 2.71 * 0.4
        assert net.theta[0, 0] == pytest.approx(t2, rel=1e-12)

    def test_decay_only_step(self):
        theta = np.array([[2.0]])
        net = _OneParamNet(theta.copy(), np.array([[0.0]]))
        sgd_step(net, _opt(momentum=0.0, weight_decay=1e-4), lr=0.5)
        assert net.theta[0, 0] == pytest.approx(2.0 - 0.5 * 1e-4 * 2.0, rel=1e-12)

    def test_no_decay_params_skip_weight_decay(self):
        theta = np.array([[2.0]])
        net = _OneParamNet(theta.copy(), np.array([[0.0]]), no_decay=True)
        sgd_step(net, _opt(momentum=0.0, weight_decay=1e-4), lr=0.5)
        assert net.theta[0, 0] == 2.0

    def test_nonfinite_update_raises(self):
        net = _OneParamNet(np.array([[1.0]]), np.array([[float("inf")]]))
        with pytest.raises(NumericFailure, match="w"):
            sgd_step(net, _opt(), lr=0.1)

    def test_lr_schedule_decays_at_60_and_80_percent(self):
        cfg = OptimizerConfig(lr=0.05)
        lrs = [cfg.lr_at(e, 20) for e in range(20)]
        assert lrs[0] == 0.05 and lrs[11] == 0.05
        assert lrs[12] == pytest.approx(0.005)
        assert lrs[16] == pytest.approx(0.0005)

    def test_lr_schedule_drops_default_decays_at_epoch_0(self):
        # E = 1: both default milestones floor to epoch 0, and are dropped.
        # E = 2: both land on epoch 1 and stack there.  An explicit list
        # is used as given.
        cfg = OptimizerConfig(lr=0.05)
        assert cfg.lr_at(0, 1) == 0.05
        assert [cfg.lr_at(e, 2) for e in range(2)] == [0.05, pytest.approx(0.0005)]
        explicit = OptimizerConfig(lr=0.05, decay_epochs=[0])
        assert explicit.lr_at(0, 1) == pytest.approx(0.005)


TINY = {
    "input": {"channels": 3, "size": 8},
    "num_classes": 2,
    "layers": [
        {"type": "cac_conv", "out": 4, "k": 3},
        {"type": "relu"},
        {"type": "global_avgpool"},
        {"type": "linear", "out": 2},
        {"type": "softmax_ce"},
    ],
}


# The check that stops a training step on 4 random images when element 0
# of one parameter tensor is NaN, as the diagnosis from kept layer outputs
# reported it; each message names the tensor's own layer.
SCORES = "gate score map contains non-finite values"
LOGITS = "output contains non-finite values"
NAN_PARAM_CHECKS = {
    "cac_tiny_synth": {
        "00_cac_conv.weight": LOGITS, "00_cac_conv.bias": LOGITS,
        "00_cac_conv.gate_gamma": SCORES, "00_cac_conv.gate_beta": SCORES,
        "01_batchnorm.gamma": LOGITS, "01_batchnorm.beta": LOGITS,
        "04_linear.weight": LOGITS, "04_linear.bias": LOGITS,
    },
    "cac_small": {
        "00_cac_conv.weight": SCORES, "00_cac_conv.bias": SCORES,
        "00_cac_conv.gate_gamma": SCORES, "00_cac_conv.gate_beta": SCORES,
        "01_batchnorm.gamma": SCORES, "01_batchnorm.beta": SCORES,
        "04_cac_conv.weight": SCORES, "04_cac_conv.bias": SCORES,
        "04_cac_conv.gate_gamma": SCORES, "04_cac_conv.gate_beta": SCORES,
        "05_batchnorm.gamma": SCORES, "05_batchnorm.beta": SCORES,
        "08_cac_conv.weight": LOGITS, "08_cac_conv.bias": LOGITS,
        "08_cac_conv.gate_gamma": SCORES, "08_cac_conv.gate_beta": SCORES,
        "09_batchnorm.gamma": LOGITS, "09_batchnorm.beta": LOGITS,
        "12_linear.weight": LOGITS, "12_linear.bias": LOGITS,
    },
}


class TestForwardBackward:
    @pytest.mark.parametrize("preset", ["cac_small", "conv_small"])
    def test_step_leaves_no_forward_state(self, preset):
        rng = np.random.default_rng(5)
        net = Network.build(resolve_model_spec(preset), rng=rng)
        x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        forward_backward(net, x, np.array([0, 1, 2, 3]), lam=0.3)
        sgd_step(net, _opt(), 0.05)
        assert net._outputs == []
        assert [layer.name for layer in net.layers if layer._saved is not None] == []

    @pytest.mark.parametrize("preset", ["cac_small", "conv_small"])
    def test_training_forward_keeps_no_output(self, preset):
        rng = np.random.default_rng(5)
        net = Network.build(resolve_model_spec(preset), rng=rng)
        net.forward(rng.standard_normal((4, 3, 32, 32)).astype(np.float32), train=True)
        assert net._outputs == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("preset", ["cac_small", "conv_small"])
    def test_forward_state_lives_in_one_slot(self, preset):
        # A training forward keeps its state in ``_saved`` alone: no other
        # instance attribute, outside the parameters, buffers, gradients
        # and gate maps, holds an array or a SoftCache.  A forward that
        # stops empties every slot, as a backward does.
        def stray(layer):
            own = {id(a) for a in (*layer.params().values(), *layer.buffers().values())}
            found = []
            for attr, value in vars(layer).items():
                if attr in ("grads", "partition", "_saved"):
                    continue
                items = value.values() if isinstance(value, dict) else (
                    value if isinstance(value, (tuple, list)) else [value])
                if any(isinstance(item, (np.ndarray, cac_module.SoftCache))
                       and id(item) not in own for item in items):
                    found.append(attr)
            return found

        rng = np.random.default_rng(5)
        net = Network.build(resolve_model_spec(preset), rng=rng)
        x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        net.forward(x, train=True)
        assert [(layer.name, stray(layer)) for layer in net.layers if stray(layer)] == []
        assert [layer.name for layer in net.layers if layer._saved is None] == [
            layer.name for layer in net.layers if isinstance(layer, AvgPool2d)]
        net.layers[4].weight[...] = np.inf
        with pytest.raises(NumericFailure, match="at layer 04_"):
            net.forward(x, train=True)
        assert [layer.name for layer in net.layers if layer._saved is not None] == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_training_forward_updates_batch_norm_once(self):
        # Naming the layer re-runs the forward; every buffer keeps only the
        # failed forward's own update, as running the layers by hand does.
        def build():
            net = Network.build(resolve_model_spec("cac_small"), rng=np.random.default_rng(2))
            net.layers[4].weight[...] = np.inf
            return net

        x = np.random.default_rng(3).standard_normal((4, 3, 32, 32)).astype(np.float32)
        net, by_hand = build(), build()
        with pytest.raises(NumericFailure, match="at layer 04_cac_conv$"):
            net.forward(x, train=True)
        with pytest.raises(NumericFailure, match="^gate score map"):
            for layer in by_hand.layers:
                x = layer.forward(x, True)
        assert by_hand.layers[1].running_mean.any()
        got = net.state_dict()
        for key, arr in by_hand.state_dict().items():
            assert got[key].tobytes() == arr.tobytes(), key

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("preset", sorted(NAN_PARAM_CHECKS))
    def test_nan_in_any_parameter_stops_the_step_naming_its_layer(self, preset):
        checks = NAN_PARAM_CHECKS[preset]
        names = [name for name, *_ in
                 Network.build(resolve_model_spec(preset), rng=np.random.default_rng(0))
                 .named_params()]
        assert names == list(checks)
        for name in names:
            net = Network.build(resolve_model_spec(preset), rng=np.random.default_rng(0))
            net.state_dict()[name].reshape(-1)[0] = np.nan
            x = np.random.default_rng(1).standard_normal((4, 3, 32, 32)).astype(np.float32)
            with pytest.raises(NumericFailure) as exc:
                forward_backward(net, x, np.array([0, 1, 1, 0]), 0.3)
            layer = name.split(".")[0]
            assert str(exc.value) == f"{checks[name]}: first non-finite activation at layer {layer}"

    def test_step_keeps_little_of_its_peak_memory(self):
        # Each activation is freed once its backward has read it, so what a
        # step leaves allocated is its gradients, momenta and gate maps.
        rng = np.random.default_rng(6)
        net = Network.build(resolve_model_spec("cac_small"), rng=rng)
        x = rng.standard_normal((16, 3, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 10, size=16)
        tracemalloc.start()
        try:
            forward_backward(net, x, labels, lam=0.3)
            sgd_step(net, _opt(), 0.05)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 0.1 * peak

    def test_lambda_zero_equals_plain_task_gradient(self):
        rng = np.random.default_rng(0)
        net = Network.build(TINY, rng=rng)
        x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
        labels = np.array([0, 1, 1, 0])

        net.zero_grads()
        forward_backward(net, x, labels, lam=0.0)
        with_penalty_off = {
            name: layer.grads[p].copy() for name, layer, p, _ in net.named_params()
        }

        net.zero_grads()
        logits = net.forward(x, train=True)
        ell, probs = net.head.loss(logits, labels)
        net.backward(net.head.grad(probs, labels), None)
        for name, layer, p, _ in net.named_params():
            assert np.array_equal(with_penalty_off[name], layer.grads[p]), name

    def test_full_objective_gate_gradient_matches_finite_diff(self):
        rng = np.random.default_rng(1)
        net = Network.build(TINY, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 3, 8, 8))
        labels = np.array([0, 1])
        lam = 0.5
        net.zero_grads()
        forward_backward(net, x, labels, lam)
        cac = net.layers[0]
        got = float(cac.grads["gate_beta"][0])

        def f(b):
            cac.gate_beta[0] = b[0]
            logits = net.forward(x, train=True)
            ell, _ = net.head.loss(logits, labels)
            specs = net.cost_specs()
            rhos = [cac.rho_soft() if s.cac else 1.0 for s in specs]
            return ell * model_cost(specs, rhos).ratio ** lam

        b0 = float(cac.gate_beta[0])
        num = finite_diff_grad(f, np.array([b0]), eps=1e-5)[0]
        cac.gate_beta[0] = b0
        assert abs(got - num) <= 1e-3 * max(abs(num), 1e-10)

    def test_step_computes_no_input_gradient_of_the_network(self, monkeypatch):
        # Sobel's adjoint and col2im serve only input gradients.  With one
        # gated layer (center mode) a training step needs neither.
        calls = []

        def record(module, name):
            fn = getattr(module, name)

            def recorded(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)

        record(cac_module, "sobel_gradient_backward")
        record(cac_module, "col2im_batch")
        record(tensor_module, "col2im_batch")
        rng = np.random.default_rng(3)
        net = Network.build(TINY, rng=rng)
        x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
        forward_backward(net, x, np.array([0, 1, 1, 0]), lam=0.3)
        assert calls == []
        # The recorders do see the layer's input gradient, after a fresh
        # forward: the step's backward released the first one's state.
        net.forward(x, train=True)
        dx = net.layers[0].backward(rng.standard_normal((4, 4, 8, 8)).astype(np.float32))
        assert dx.shape == x.shape
        assert sorted(calls) == ["col2im_batch", "sobel_gradient_backward"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_attributed(self):
        rng = np.random.default_rng(2)
        net = Network.build(TINY, rng=rng)
        net.layers[0].weight[...] = np.inf
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        with pytest.raises(NumericFailure, match="00_cac_conv"):
            forward_backward(net, x, np.array([0, 1]), lam=0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_nonfinite_activation_before_a_gate_attributed(self, mode):
        # Layer 08's gate scores go NaN on the non-finite input that layer
        # 04 made.
        rng = np.random.default_rng(2)
        net = Network.build(resolve_model_spec("cac_small"), rng=rng)
        net.layers[4].weight[...] = np.inf
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        labels = np.array([0, 1])
        message = ("^gate score map contains non-finite values: "
                   "first non-finite activation at layer 04_cac_conv$")
        with pytest.raises(NumericFailure, match=message):
            if mode == "train":
                forward_backward(net, x, labels, lam=0.0)
            else:
                evaluate(net, x, labels)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_gradient_magnitude_overflow_routes_in_eval_stops_in_training(self):
        # A 1e30 pixel is finite, but its Sobel magnitude overflows float32
        # to inf, which the gate scores 0 or 1: evaluation routes it, while
        # a training step on it makes a non-finite gate gradient.
        net = Network.build(resolve_model_spec("cac_tiny_synth"), rng=np.random.default_rng(0))
        ds = synth_dataset("smooth_vs_textured", 8, 0)
        ds.images[3, 1, 4, 4] = 1e30
        result = evaluate(net, ds.images, ds.labels)
        part = net.layers[0].partition[3]
        overflowed = np.isinf(part.gradient)
        assert overflowed.any() and np.isin(part.score[overflowed], [0.0, 1.0]).all()
        assert np.isfinite([result.top1_error, result.madds_mean, result.madds_std,
                            *result.rho_hard.values(), *result.per_sample_madds]).all()
        forward_backward(net, ds.images, ds.labels, lam=0.0)
        with pytest.raises(NumericFailure, match="^non-finite update for parameter "
                                                 "00_cac_conv.gate_gamma$"):
            sgd_step(net, OptimizerState(config=OptimizerConfig()), lr=0.05)


def tiny_cfg(tmp_path, **kw):
    base = {
        "seed": 3,
        "model": "cac_tiny_synth",
        "lambda": 0.4,
        "epochs": 3,
        "batch_size": 32,
        "output_dir": str(tmp_path / "run"),
        "dataset": {"kind": "synthetic", "synth_n": 128, "synth_test_n": 64},
        "optimizer": {"lr": 0.05},
    }
    base.update(kw)
    return RunConfig.from_dict(base)


def run_tiny(tmp_path, **kw):
    cfg = tiny_cfg(tmp_path, **kw)
    train = synth_dataset("smooth_vs_textured", 128, 0)
    test = synth_dataset("smooth_vs_textured", 64, 1)
    return cfg, train_model(cfg, train.images, train.labels, test.images, test.labels)


class TestTrainLoop:
    def test_metrics_objective_consistency(self, tmp_path):
        cfg, result = run_tiny(tmp_path)
        with open(result.metrics_path) as f:
            entries = [json.loads(line) for line in f]
        assert len(entries) == cfg.epochs
        for e in entries:
            assert e["L"] == e["ell"] * e["cost_ratio_soft"] ** e["lambda"]
            assert set(e["rho_soft"]) == {"00_cac_conv"}

    def test_loss_decreases_on_separable_data(self, tmp_path):
        _, result = run_tiny(tmp_path, epochs=5, **{"lambda": 0.0})
        ells = [m["ell"] for m in result.metrics]
        assert all(b < a for a, b in zip(ells, ells[1:]))

    def test_determinism_byte_identical_outputs(self, tmp_path):
        _, r1 = run_tiny(tmp_path / "a")
        _, r2 = run_tiny(tmp_path / "b")
        with open(r1.metrics_path, "rb") as f:
            m1 = f.read()
        with open(r2.metrics_path, "rb") as f:
            m2 = f.read()
        assert m1 == m2
        with open(r1.checkpoint_path, "rb") as f:
            c1 = f.read()
        with open(r2.checkpoint_path, "rb") as f:
            c2 = f.read()
        assert c1 == c2

    def test_empty_training_set_writes_nothing(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        with pytest.raises(InvalidArgument, match="^training set is empty$"):
            train_model(cfg, np.zeros((0, 3, 32, 32), np.float32), np.zeros(0, np.int64))
        assert not os.path.exists(cfg.output_dir)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_keeping_last_checkpoint(self, tmp_path):
        with pytest.raises(NumericFailure):
            run_tiny(tmp_path, epochs=4,
                     optimizer={"lr": 0.05, "decay_epochs": [1], "decay_factor": 1e14})
        ckpt = tmp_path / "run" / "model.ckpt"
        assert ckpt.exists()
        tensors = load_checkpoint(ckpt)
        assert all(np.isfinite(v).all() for v in tensors.values())

    def test_one_epoch_run_trains_at_the_configured_lr(self, tmp_path):
        _, result = run_tiny(tmp_path, epochs=1)
        with open(result.metrics_path) as f:
            assert json.loads(f.readline())["lr"] == 0.05

    def test_penalty_warmup_defers_cost_pressure(self, tmp_path):
        _, result = run_tiny(tmp_path, epochs=2, penalty_warmup_epochs=1)
        assert result.metrics[0]["lambda"] == 0.0
        assert result.metrics[1]["lambda"] == 0.4

    def test_epoch_means_match_the_step_by_step_accumulation(self, tmp_path, monkeypatch):
        calls = []

        def recorded(net, images, labels, lam):
            step = forward_backward(net, images, labels, lam)
            calls.append((lam, step))
            return step

        monkeypatch.setattr(train_module, "forward_backward", recorded)
        cfg = tiny_cfg(tmp_path, batch_size=24, penalty_warmup_epochs=1)
        train = synth_dataset("smooth_vs_textured", 64, 0)
        result = train_model(cfg, train.images, train.labels)
        with open(result.metrics_path) as f:
            entries = [json.loads(line) for line in f]

        # 64 images at batch 24: each epoch's last batch is partial.
        assert [step.batch_size for _, step in calls] == [24, 24, 16] * 3
        assert [lam for lam, _ in calls] == [0.0] * 3 + [0.4] * 6
        assert len(entries) == 3
        for epoch, entry in enumerate(entries):
            steps = [step for _, step in calls[3 * epoch:3 * epoch + 3]]
            lam = calls[3 * epoch][0]
            # Running weighted sums from 0.0 in step order, one per field.
            sums = {"ell": 0.0, "top1": 0.0, "ratio_soft": 0.0, "ratio_hard": 0.0, "count": 0}
            rho_soft_sums, rho_hard_sums = {}, {}
            for step in steps:
                w = step.batch_size
                sums["ell"] += step.ell * w
                sums["top1"] += step.top1_error * w
                sums["ratio_soft"] += step.cost_ratio_soft * w
                sums["ratio_hard"] += step.cost_ratio_hard * w
                sums["count"] += w
                for key, val in step.rho_soft.items():
                    rho_soft_sums[key] = rho_soft_sums.get(key, 0.0) + val * w
                for key, val in step.rho_hard.items():
                    rho_hard_sums[key] = rho_hard_sums.get(key, 0.0) + val * w
            count = sums["count"]
            ell = sums["ell"] / count
            ratio_soft = sums["ratio_soft"] / count
            assert entry == {
                "epoch": epoch,
                "lr": cfg.optimizer.lr_at(epoch, cfg.epochs),
                "ell": ell,
                "cost_ratio_soft": ratio_soft,
                "cost_ratio_hard": sums["ratio_hard"] / count,
                "L": ell * ratio_soft ** lam,
                "lambda": lam,
                "top1_error": sums["top1"] / count,
                "rho_soft": {k: v / count for k, v in rho_soft_sums.items()},
                "rho_hard": {k: v / count for k, v in rho_hard_sums.items()},
            }


class TestEvaluate:
    def _trained(self, tmp_path, **kw):
        _, result = run_tiny(tmp_path, **kw)
        return result.net

    def test_empty_dataset_rejected(self, tmp_path):
        net = self._trained(tmp_path, epochs=1)
        with pytest.raises(InvalidArgument):
            evaluate(net, np.zeros((0, 3, 32, 32), dtype=np.float32),
                     np.zeros(0, dtype=np.int64))

    def test_constant_images_close_gate_when_beta_negative(self, tmp_path):
        net = self._trained(tmp_path, epochs=1)
        cac = net.layers[0]
        cac.gate_beta[0] = -1.0
        x = np.full((4, 3, 32, 32), 0.3, dtype=np.float32)
        res = evaluate(net, x, np.zeros(4, dtype=np.int64))
        assert res.rho_hard["00_cac_conv"] == 0.0

    def test_saturated_gate_costs_baseline_plus_overhead(self, tmp_path):
        net = self._trained(tmp_path, epochs=1)
        cac = net.layers[0]
        cac.gate_beta[0] = 10.0
        ds = synth_dataset("smooth_vs_textured", 16, 9)
        res = evaluate(net, ds.images, ds.labels)
        specs = net.cost_specs()
        baseline = sum(
            __import__("cacconv").madds_standard(s) for s in specs
        )
        overhead = sum(13 * s.n * s.n for s in specs if s.cac)
        assert res.per_sample_madds.std() == 0.0
        assert res.per_sample_madds[0] == baseline + overhead

    def test_mean_madds_equals_model_cost_at_mean_rho(self, tmp_path):
        net = self._trained(tmp_path, epochs=2)
        ds = synth_dataset("smooth_vs_textured", 32, 11)
        res = evaluate(net, ds.images, ds.labels)
        specs = net.cost_specs()
        rhos = [res.per_sample_rho[s.layer_id] if s.cac else 1.0 for s in specs]
        report = model_cost(specs, rhos)
        assert res.madds_mean == pytest.approx(report.c_model, rel=1e-12)

    def test_per_sample_figures_from_each_partition(self):
        # Three gated layers with mixed routing, in batches of 7: each
        # sample's MAdds add its layers' exact prices in layer order.
        net = Network.build(resolve_model_spec("cac_small"), rng=np.random.default_rng(5))
        for _, layer in net.cac_layers():
            layer.gate_beta[0] = -0.5
        ds = synth_dataset("smooth_vs_textured", 16, 5)
        res = evaluate(net, ds.images, ds.labels, batch_size=7)
        net.forward(ds.images, train=False)
        static = sum(madds_standard(s) for s in net.cost_specs() if not s.cac)
        want = np.full(16, float(static))
        for name, layer in net.cac_layers():
            parts = layer.partition
            assert 0 < sum(p.sharp_count for p in parts) < sum(p.total_windows for p in parts)
            for i, p in enumerate(parts):
                rho = Fraction(p.sharp_count, p.total_windows)
                want[i] += madds_cac(layer.cost_spec, rho).total
            assert res.per_sample_rho[name].tolist() == [
                p.sharp_count / p.total_windows for p in parts]
        assert res.per_sample_madds.tobytes() == want.tobytes()


class TestCheckpoint:
    def test_round_trip_preserves_values_and_shapes(self, tmp_path):
        rng = np.random.default_rng(12)
        tensors = {
            "a.weight": rng.standard_normal((3, 3, 2, 4)).astype(np.float32),
            "b.bias": rng.standard_normal(7).astype(np.float32),
            "scalar": np.array([2.5], dtype=np.float32),
        }
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, tensors)
        back = load_checkpoint(path)
        assert set(back) == set(tensors)
        for k in tensors:
            assert np.array_equal(back[k], tensors[k])
            assert back[k].dtype == np.float32

    def test_eval_identical_after_reload(self, tmp_path):
        _, result = run_tiny(tmp_path, epochs=2)
        ds = synth_dataset("smooth_vs_textured", 32, 13)
        before = evaluate(result.net, ds.images, ds.labels)

        rng = np.random.default_rng(777)
        from cacconv.layers import resolve_model_spec
        net2 = Network.build(resolve_model_spec("cac_tiny_synth"), rng=rng)
        net2.load_state_dict(load_checkpoint(result.checkpoint_path))
        after = evaluate(net2, ds.images, ds.labels)
        assert before.top1_error == after.top1_error
        assert np.array_equal(before.per_sample_madds, after.per_sample_madds)

    def test_corruption_diagnostics(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 2), dtype=np.float32)})
        raw = path.read_bytes()

        bad_magic = tmp_path / "m.ckpt"
        bad_magic.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(Exception, match="magic"):
            load_checkpoint(bad_magic)

        truncated = tmp_path / "t.ckpt"
        truncated.write_bytes(raw[:-6])
        with pytest.raises(Exception, match="tensor 0"):
            load_checkpoint(truncated)

        trailing = tmp_path / "x.ckpt"
        trailing.write_bytes(raw + b"\x00\x00")
        with pytest.raises(Exception, match="trailing"):
            load_checkpoint(trailing)

        # dtype tag byte sits right after the 4-byte name length + name
        bad_tag = bytearray(raw)
        tag_off = 4 + 4 + 4 + 4 + len(b"w")
        bad_tag[tag_off] = 9
        tagged = tmp_path / "d.ckpt"
        tagged.write_bytes(bytes(bad_tag))
        with pytest.raises(Exception, match="dtype tag"):
            load_checkpoint(tagged)

        bad_name = bytearray(raw)
        bad_name[tag_off - 1] = 0xFF
        named = tmp_path / "n.ckpt"
        named.write_bytes(bytes(bad_name))
        with pytest.raises(DataFormatError, match="tensor 0: name is not valid UTF-8"):
            load_checkpoint(named)

        # first dim of 2**62: the payload size overflows int64 but not a
        # Python integer, so the reader reports the missing bytes
        huge = bytearray(raw)
        struct.pack_into("<Q", huge, tag_off + 1 + 4, 2 ** 62)
        huge_path = tmp_path / "h.ckpt"
        huge_path.write_bytes(bytes(huge))
        with pytest.raises(DataFormatError, match=r"truncated reading tensor 0 \(w\): payload"):
            load_checkpoint(huge_path)

        # the one tensor twice, under a count of 2: the second copy is an
        # error, not a silent overwrite of the first
        repeated = tmp_path / "r.ckpt"
        repeated.write_bytes(raw[:8] + struct.pack("<I", 2) + raw[12:] + raw[12:])
        with pytest.raises(DataFormatError, match=r"tensor 1 \(w\): repeated name"):
            load_checkpoint(repeated)
