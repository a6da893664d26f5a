import math

import numpy as np
import pytest

from cacconv import InvalidArgument, finite_diff_grad
from cacconv.layers import (
    AvgPool2d,
    BatchNorm2d,
    CacConv2d,
    Conv2d,
    GlobalAvgPool,
    Linear,
    Network,
    ReLU,
    SoftmaxCrossEntropy,
    resolve_model_spec,
)

TINY_SPEC = {
    "input": {"channels": 2, "size": 8},
    "num_classes": 3,
    "layers": [
        {"type": "cac_conv", "out": 4, "k": 3},
        {"type": "batchnorm"},
        {"type": "relu"},
        {"type": "avgpool", "k": 2},
        {"type": "conv", "out": 5, "k": 3},
        {"type": "relu"},
        {"type": "global_avgpool"},
        {"type": "linear", "out": 3},
        {"type": "softmax_ce"},
    ],
}


def grad_check_layer(layer, x, atol=1e-3):
    """Compare layer.backward against finite differences of sum(y**2)."""
    y = layer.forward(x, train=True)
    dx = layer.backward(2.0 * y)

    def f_x(flat):
        yy = layer.forward(flat.reshape(x.shape), train=True)
        return float((yy**2).sum())

    num_dx = finite_diff_grad(f_x, x.reshape(-1).copy(), eps=1e-5)
    denom = max(float(np.abs(num_dx).max()), 1e-6)
    assert np.abs(dx.reshape(-1) - num_dx).max() / denom <= atol

    for pname, arr in layer.params().items():
        orig = arr.copy()

        def f_p(flat):
            arr[...] = flat.reshape(arr.shape)
            yy = layer.forward(x, train=True)
            arr[...] = orig
            return float((yy**2).sum())

        num = finite_diff_grad(f_p, orig.reshape(-1).copy(), eps=1e-5)
        layer.backward(2.0 * layer.forward(x, train=True))
        got = layer.grads[pname].reshape(-1)
        denom = max(float(np.abs(num).max()), 1e-6)
        assert np.abs(got - num).max() / denom <= atol, pname


class TestStandardLayers:
    def test_relu_values(self):
        y = ReLU().forward(np.array([-1.0, 0.0, 2.0]), train=False)
        assert y.tolist() == [0.0, 0.0, 2.0]

    def test_relu_grad_masks_negatives(self):
        r = ReLU()
        x = np.array([-2.0, 3.0])
        r.forward(x, train=True)
        assert r.backward(np.array([5.0, 5.0])).tolist() == [0.0, 5.0]

    def test_batchnorm_zero_variance_guarded(self):
        bn = BatchNorm2d(2, dtype=np.float64)
        x = np.full((3, 2, 4, 4), 7.0)
        y = bn.forward(x, train=True)
        assert np.allclose(y, 0.0)
        assert np.isfinite(y).all()

    def test_batchnorm_normalizes_batch(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm2d(3, dtype=np.float64)
        x = rng.standard_normal((8, 3, 5, 5)) * 4 + 2
        y = bn.forward(x, train=True)
        assert np.allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_batchnorm_running_stats_reach_eval(self):
        rng = np.random.default_rng(1)
        bn = BatchNorm2d(1, dtype=np.float64, momentum=1.0)
        x = rng.standard_normal((16, 1, 4, 4)) * 2 + 5
        bn.forward(x, train=True)
        assert bn.running_mean[0] == pytest.approx(x.mean(), rel=1e-12)
        y_eval = bn.forward(x, train=False)
        expected = (x - x.mean()) / np.sqrt(x.var() + bn.eps)
        assert np.allclose(y_eval, expected, atol=1e-10)

    def test_conv_grad(self):
        rng = np.random.default_rng(2)
        layer = Conv2d(2, 3, 3, rng=rng, dtype=np.float64)
        grad_check_layer(layer, rng.standard_normal((2, 2, 5, 5)))

    def test_batchnorm_grad(self):
        rng = np.random.default_rng(3)
        layer = BatchNorm2d(2, dtype=np.float64)
        layer.gamma[:] = rng.uniform(0.5, 1.5, 2)
        layer.beta[:] = rng.uniform(-0.5, 0.5, 2)
        grad_check_layer(layer, rng.standard_normal((3, 2, 4, 4)))

    def test_avgpool_grad_and_shape(self):
        rng = np.random.default_rng(4)
        layer = AvgPool2d(2)
        x = rng.standard_normal((2, 3, 6, 6))
        y = layer.forward(x, train=True)
        assert y.shape == (2, 3, 3, 3)
        assert y[0, 0, 0, 0] == pytest.approx(x[0, 0, :2, :2].mean())
        grad_check_layer(layer, x)

    def test_avgpool_indivisible_rejected(self):
        with pytest.raises(InvalidArgument):
            AvgPool2d(2).forward(np.zeros((1, 1, 5, 5)), train=False)

    def test_global_avgpool_grad(self):
        rng = np.random.default_rng(5)
        grad_check_layer(GlobalAvgPool(), rng.standard_normal((2, 3, 4, 4)))

    def test_linear_grad(self):
        rng = np.random.default_rng(6)
        layer = Linear(5, 3, rng=rng, dtype=np.float64)
        grad_check_layer(layer, rng.standard_normal((4, 5)))

    def test_cac_layer_grad(self):
        rng = np.random.default_rng(7)
        layer = CacConv2d(2, 3, 3, rng=rng, dtype=np.float64)
        layer.gate_beta[0] = -0.4
        grad_check_layer(layer, rng.standard_normal((1, 2, 6, 6)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_is_log_n_classes(self):
        head = SoftmaxCrossEntropy()
        ell, probs = head.loss(np.zeros((4, 10)), np.array([0, 3, 5, 9]))
        assert ell == pytest.approx(math.log(10), rel=1e-12)
        assert np.allclose(probs, 0.1)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        head = SoftmaxCrossEntropy()
        logits = rng.standard_normal((3, 4))
        labels = np.array([1, 0, 3])

        def f(flat):
            ell, _ = head.loss(flat.reshape(3, 4), labels)
            return ell

        _, probs = head.loss(logits, labels)
        got = head.grad(probs, labels)
        num = finite_diff_grad(f, logits.reshape(-1).copy(), eps=1e-6)
        assert np.allclose(got.reshape(-1), num, atol=1e-8)

    def test_extreme_logits_stable(self):
        head = SoftmaxCrossEntropy()
        ell, probs = head.loss(np.array([[1000.0, -1000.0]]), np.array([0]))
        assert ell == 0.0 and np.isfinite(probs).all()


class TestNetwork:
    def test_build_and_shapes(self):
        rng = np.random.default_rng(9)
        net = Network.build(TINY_SPEC, rng=rng)
        x = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
        logits = net.forward(x, train=False)
        assert logits.shape == (2, 3)

    def test_cost_specs_reflect_pooling(self):
        rng = np.random.default_rng(10)
        net = Network.build(TINY_SPEC, rng=rng)
        specs = {s.layer_id: s for s in net.cost_specs()}
        assert specs["00_cac_conv"].n == 8 and specs["00_cac_conv"].cac
        assert specs["04_conv"].n == 4 and not specs["04_conv"].cac
        assert specs["07_linear"].k == 1 and specs["07_linear"].n == 1

    def test_gated_and_plain_twins_draw_the_same_weights(self):
        cac = Network.build(resolve_model_spec("cac_small"), rng=np.random.default_rng(11))
        conv = Network.build(resolve_model_spec("conv_small"), rng=np.random.default_rng(11))
        assert len(cac.layers) == len(conv.layers)
        convs = 0
        for a, b in zip(cac.layers, conv.layers):
            if isinstance(b, Conv2d):
                assert isinstance(a, CacConv2d)
                assert np.array_equal(a.weight, b.weight)
                assert np.array_equal(a.bias, b.bias)
                convs += 1
        assert convs == 3
        assert np.array_equal(cac.layers[-1].weight, conv.layers[-1].weight)

    def test_bad_specs_rejected_with_layer_index(self):
        rng = np.random.default_rng(12)
        bad = {
            "input": {"channels": 2, "size": 8},
            "num_classes": 3,
            "layers": [{"type": "warp", "out": 4}],
        }
        with pytest.raises(InvalidArgument, match="layer 0"):
            Network.build(bad, rng=rng)
        nohead = {
            "input": {"channels": 2, "size": 8},
            "num_classes": 3,
            "layers": [{"type": "conv", "out": 4, "k": 3}],
        }
        with pytest.raises(InvalidArgument):
            Network.build(nohead, rng=rng)
        wrongclasses = dict(TINY_SPEC, num_classes=7)
        with pytest.raises(InvalidArgument, match="num_classes"):
            Network.build(wrongclasses, rng=rng)

    def test_input_shape_validated(self):
        rng = np.random.default_rng(13)
        net = Network.build(TINY_SPEC, rng=rng)
        with pytest.raises(InvalidArgument):
            net.forward(np.zeros((1, 3, 8, 8), dtype=np.float32), train=False)

    def test_state_dict_round_trip(self):
        rng = np.random.default_rng(14)
        net = Network.build(TINY_SPEC, rng=rng)
        x = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
        ref = net.forward(x, train=False)
        state = {k: v.copy() for k, v in net.state_dict().items()}

        net2 = Network.build(TINY_SPEC, rng=np.random.default_rng(999))
        assert not np.allclose(net2.forward(x, train=False), ref)
        net2.load_state_dict(state)
        assert np.array_equal(net2.forward(x, train=False), ref)

    def test_state_dict_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        net = Network.build(TINY_SPEC, rng=rng)
        state = net.state_dict()
        partial = dict(list(state.items())[:-1])
        with pytest.raises(InvalidArgument, match="missing"):
            net.load_state_dict(partial)
        extra = dict(state)
        extra["ghost"] = np.zeros(1)
        with pytest.raises(InvalidArgument, match="unexpected"):
            net.load_state_dict(extra)

    def test_gate_params_marked_no_decay(self):
        rng = np.random.default_rng(16)
        net = Network.build(TINY_SPEC, rng=rng)
        cac = net.layers[0]
        assert cac.no_decay() == {"gate_gamma", "gate_beta"}
        assert "gate_gamma" in cac.params()
