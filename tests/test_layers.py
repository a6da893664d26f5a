import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacconv import InvalidArgument, finite_diff_grad
from cacconv.cac import WindowPartition
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
        bn = BatchNorm2d(1, dtype=np.float64)
        x = rng.standard_normal((16, 1, 4, 4)) * 2 + 5
        bn.forward(x, train=True)
        # One step of momentum 0.1 from the initial statistics (0, 1).
        mean, var = 0.1 * x.mean(), 0.9 + 0.1 * x.var()
        assert bn.momentum == 0.1
        assert bn.running_mean[0] == pytest.approx(mean, rel=1e-12)
        assert bn.running_var[0] == pytest.approx(var, rel=1e-12)
        y_eval = bn.forward(x, train=False)
        expected = (x - mean) / np.sqrt(var + bn.eps)
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


@st.composite
def pool_inputs(draw):
    """(x, k): k in {2, 3, 4}, 1-8 pooled rows and columns, both dtypes,
    with a drawn share of entries set to -0.0 or to zeros of either sign."""
    k = draw(st.sampled_from([2, 3, 4]))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)),
             k * draw(st.integers(1, 8)), k * draw(st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    zero = rng.random(shape) < draw(st.floats(0.0, 1.0))
    signs = draw(st.sampled_from([-1.0, None]))
    x[zero] = np.copysign(0.0, rng.standard_normal(int(zero.sum())) if signs is None else signs)
    return x.astype(draw(st.sampled_from([np.float32, np.float64]))), k


def numpy_pool(x, k):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))


class TestForwardBits:
    """The pooling and batch-norm forwards reproduce the plain numpy
    expressions bit for bit, signed zeros included."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pool_inputs())
    def test_avgpool_equals_numpy_mean(self, case):
        x, k = case
        y, ref = AvgPool2d(k).forward(x, train=False), numpy_pool(x, k)
        assert y.shape == ref.shape and y.dtype == ref.dtype
        assert y.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(64, 16, 32, 32), (64, 32, 16, 16)])
    def test_avgpool_equals_numpy_mean_at_network_shapes(self, shape):
        # Arrays larger than numpy's reduction buffer, ReLU'd with -0.0s.
        rng = np.random.default_rng(6)
        x = rng.standard_normal(shape).astype(np.float32)
        x[x < 0] = -0.0
        assert AvgPool2d(2).forward(x, train=False).tobytes() == numpy_pool(x, 2).tobytes()

    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("x_dtype,bn_dtype", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float32, np.float64), (np.float64, np.float32),
    ])
    def test_batchnorm_equals_plain_expression(self, train, x_dtype, bn_dtype):
        rng = np.random.default_rng(7)
        bn = BatchNorm2d(3, dtype=bn_dtype)
        for buf, lo, hi in ((bn.gamma, 0.5, 1.5), (bn.beta, -0.5, 0.5),
                            (bn.running_mean, -1.0, 1.0), (bn.running_var, 0.5, 2.0)):
            buf[:] = rng.uniform(lo, hi, 3)
        x = (rng.standard_normal((4, 3, 5, 5)) * 3 + 1).astype(x_dtype)
        x_before = x.copy()
        if train:
            mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        else:
            mean, var = bn.running_mean.copy(), bn.running_var.copy()
        inv_std = 1.0 / np.sqrt(var + bn.eps)
        xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        ref = bn.gamma[None, :, None, None] * xhat + bn.beta[None, :, None, None]
        y = bn.forward(x, train)
        assert y.dtype == ref.dtype and y.tobytes() == ref.tobytes()
        assert x.tobytes() == x_before.tobytes()


class TestBackwardBits:
    """The pooling and batch-norm training passes reproduce the plain
    numpy expressions they replaced bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pool_inputs())
    def test_avgpool_backward_equals_repeated_division(self, case):
        dy, k = case
        ref = np.repeat(np.repeat(dy, k, axis=2), k, axis=3) / (k * k)
        dx = AvgPool2d(k).backward(dy)
        assert dx.shape == ref.shape and dx.dtype == ref.dtype
        assert dx.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dy_follows_x", [True, False])
    @pytest.mark.parametrize("x_dtype,bn_dtype", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float32, np.float64), (np.float64, np.float32),
    ])
    def test_batchnorm_train_pass_equals_plain_expression(self, x_dtype, bn_dtype, dy_follows_x):
        rng = np.random.default_rng(8)
        bn = BatchNorm2d(3, dtype=bn_dtype)
        for buf, lo, hi in ((bn.gamma, 0.5, 1.5), (bn.beta, -0.5, 0.5),
                            (bn.running_mean, -1.0, 1.0), (bn.running_var, 0.5, 2.0)):
            buf[:] = rng.uniform(lo, hi, 3)
        x = (rng.standard_normal((4, 3, 5, 5)) * 3 + 1).astype(x_dtype)
        x[0, 1, :2] = -0.0
        gamma, beta = bn.gamma[None, :, None, None], bn.beta[None, :, None, None]
        # The forward and backward this layer had, written out.
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        running_mean = (1 - bn.momentum) * bn.running_mean + bn.momentum * mean
        running_var = (1 - bn.momentum) * bn.running_var + bn.momentum * var
        inv_std = 1.0 / np.sqrt(var + bn.eps)
        xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        ref = gamma * xhat + beta
        dy = rng.standard_normal(x.shape).astype(x_dtype if dy_follows_x else ref.dtype)
        dy[1, 2] = -0.0
        m = dy.shape[0] * dy.shape[2] * dy.shape[3]
        dxhat = dy * gamma
        s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        s2 = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        dx_ref = (inv_std[None, :, None, None] / m) * (m * dxhat - s1 - xhat * s2)

        y = bn.forward(x, train=True)
        assert y.dtype == ref.dtype and y.tobytes() == ref.tobytes()
        cached_xhat, cached_inv_std = bn._saved
        assert cached_xhat.dtype == xhat.dtype and cached_xhat.tobytes() == xhat.tobytes()
        assert cached_inv_std.tobytes() == inv_std.tobytes()
        assert bn.running_mean.tobytes() == running_mean.astype(bn_dtype).tobytes()
        assert bn.running_var.tobytes() == running_var.astype(bn_dtype).tobytes()
        dx = bn.backward(dy)
        assert dx.dtype == dx_ref.dtype and dx.tobytes() == dx_ref.tobytes()
        assert bn.grads["gamma"].tobytes() == (dy * xhat).sum(axis=(0, 2, 3)).tobytes()
        assert bn.grads["beta"].tobytes() == dy.sum(axis=(0, 2, 3)).tobytes()


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
        # A layer's own checks keep their message; a weight numpy cannot
        # allocate is named as such.
        even = dict(TINY_SPEC, layers=[dict(TINY_SPEC["layers"][0], type="conv", k=2),
                                       *TINY_SPEC["layers"][1:]])
        with pytest.raises(InvalidArgument, match=r"^layer 0 \(conv\): kernel size must be odd"):
            Network.build(even, rng=rng)
        huge = dict(TINY_SPEC, num_classes=10 ** 12,
                    layers=[*TINY_SPEC["layers"][:-2], {"type": "linear", "out": 10 ** 12},
                            {"type": "softmax_ce"}])
        with pytest.raises(InvalidArgument, match=r"^layer 7 \(linear\): cannot allocate"):
            Network.build(huge, rng=rng)

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


def two_conv_spec(kind, k, pbar_mode=None):
    """Two convolutions of one kind (``conv`` or ``cac_conv``) with batch
    norm and pooling between them, as in the presets."""
    conv = {"type": kind, "k": k}
    if pbar_mode is not None:
        conv["pbar_mode"] = pbar_mode
    return {
        "input": {"channels": 3, "size": 12},
        "num_classes": 3,
        "layers": [
            dict(conv, out=4), {"type": "batchnorm"}, {"type": "relu"},
            {"type": "avgpool", "k": 2},
            dict(conv, out=6), {"type": "relu"}, {"type": "global_avgpool"},
            {"type": "linear", "out": 3}, {"type": "softmax_ce"},
        ],
    }


def backward_with_input_grad(net, dlogits, score_extras):
    """A reverse pass that asks every layer, the bottom one included, for
    its input gradient, and returns the network's."""
    d = dlogits
    for layer in reversed(net.layers):
        if isinstance(layer, CacConv2d):
            d = layer.backward(d, score_extras.get(layer.name))
        else:
            d = layer.backward(d)
    return d


class TestBottomInputGradient:
    @pytest.mark.parametrize("spec", [
        "cac_tiny_synth",
        two_conv_spec("conv", 3), two_conv_spec("conv", 5),
        two_conv_spec("cac_conv", 3, "mean"), two_conv_spec("cac_conv", 5, "mean"),
    ], ids=["cac_tiny_synth", "conv_k3", "conv_k5", "mean_k3", "mean_k5"])
    def test_parameter_grads_unchanged_without_it(self, spec):
        spec = resolve_model_spec(spec)
        rng = np.random.default_rng(17)
        net = Network.build(spec, rng=rng)
        c, size = spec["input"]["channels"], spec["input"]["size"]
        x = rng.standard_normal((3, c, size, size)).astype(np.float32)
        labels = rng.integers(0, spec["num_classes"], size=3)
        extras = {name: 0.01 * (i + 1) for i, (name, _) in enumerate(net.cac_layers())}

        def grads(backward):
            net.zero_grads()
            logits = net.forward(x, train=True)
            _, probs = net.head.loss(logits, labels)
            out = backward(net, net.head.grad(probs, labels), extras)
            return out, {name: layer.grads[p].tobytes()
                         for name, layer, p, _ in net.named_params()}

        dx, full = grads(backward_with_input_grad)
        assert dx.shape == x.shape
        none, skipped = grads(Network.backward)
        assert none is None
        assert skipped == full

    @pytest.mark.parametrize("kind", ["conv", "cac_conv"])
    def test_layer_backward_without_input_grad(self, kind):
        rng = np.random.default_rng(18)
        layer = (CacConv2d if kind == "cac_conv" else Conv2d)(2, 3, 3, rng=rng)
        x = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        dy = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        layer.forward(x, train=True)
        assert layer.backward(dy).shape == x.shape
        full = {p: g.tobytes() for p, g in layer.grads.items()}
        layer.forward(x, train=True)  # backward released the first forward's state
        assert layer.backward(dy, input_grad=False) is None
        assert {p: g.tobytes() for p, g in layer.grads.items()} == full


# Each layer type whose backward reads what its training forward kept:
# the layer, its input and an upstream gradient of its output's shape.
STATEFUL_LAYERS = {
    "conv": lambda rng: (Conv2d(2, 3, 3, rng=rng), (2, 2, 6, 6), (2, 3, 6, 6)),
    "cac_conv": lambda rng: (CacConv2d(2, 3, 3, rng=rng), (2, 2, 6, 6), (2, 3, 6, 6)),
    "batchnorm": lambda rng: (BatchNorm2d(2), (2, 2, 4, 4), (2, 2, 4, 4)),
    "relu": lambda rng: (ReLU(), (2, 2, 4, 4), (2, 2, 4, 4)),
    "global_avgpool": lambda rng: (GlobalAvgPool(), (2, 2, 4, 4), (2, 2)),
    "linear": lambda rng: (Linear(2, 3, rng=rng), (2, 2), (2, 3)),
}


class TestForwardState:
    @pytest.mark.parametrize("kind", sorted(STATEFUL_LAYERS))
    @pytest.mark.parametrize("before", ["no_forward", "second_backward", "eval_forward"])
    def test_backward_without_it_names_the_layer(self, kind, before):
        rng = np.random.default_rng(19)
        layer, x_shape, dy_shape = STATEFUL_LAYERS[kind](rng)
        layer.name = f"03_{kind}"
        x = rng.standard_normal(x_shape).astype(np.float32)
        dy = rng.standard_normal(dy_shape).astype(np.float32)
        if before != "no_forward":
            layer.forward(x, train=True)
        if before == "second_backward":
            layer.backward(dy)
        if before == "eval_forward":
            layer.forward(x, train=False)
        with pytest.raises(InvalidArgument,
                           match=f"^layer 03_{kind}: backward without a training forward"):
            layer.backward(dy)

    def test_gated_layer_keeps_only_its_partition_maps_after_backward(self):
        # The partition outlives the SoftCache: its three maps own their
        # buffers, so none of them keeps a cache array alive.
        rng = np.random.default_rng(23)
        layer = CacConv2d(3, 4, 3, rng=rng)
        layer.forward(rng.standard_normal((5, 3, 8, 8)).astype(np.float32), train=True)
        layer.backward(rng.standard_normal((5, 4, 8, 8)).astype(np.float32))
        assert layer._saved is None
        maps = list(vars(layer.partition).values())
        assert [m.shape for m in maps] == [(5, 1, 8, 8)] * 3
        assert all(m.base is None for m in maps)

    def test_unnamed_layer_is_named_by_its_type(self):
        with pytest.raises(InvalidArgument, match="^layer ReLU: backward without"):
            ReLU().backward(np.ones(3))


def per_sample_rho(parts):
    """Each partition's own mean score and sharp fraction, averaged."""
    return (float(np.mean([float(p.score.mean()) for p in parts])),
            float(np.mean([p.sharp_count / p.total_windows for p in parts])))


class TestRho:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3, 7, 65])
    def test_equals_per_sample_formula(self, dtype, batch):
        rng = np.random.default_rng(batch)
        score = rng.random((batch, 1, 9, 9)).astype(dtype)
        score[rng.random(score.shape) < 0.25] = 0.5
        mask = score > 0.5
        layer = CacConv2d(1, 1, 3, rng=rng)
        layer.partition = WindowPartition(gradient=np.zeros_like(score), score=score,
                                          sharp_mask=mask)
        assert (layer.rho_soft(), layer.rho_hard()) == per_sample_rho(list(layer.partition))
        assert layer.sharp_counts().tolist() == mask.reshape(batch, -1).sum(axis=1).tolist()

    @pytest.mark.parametrize("train", [True, False])
    def test_cac_small_batch_equals_per_sample_formula(self, train):
        # The float order of the batched maps' reductions against each
        # sample's own, on every gated layer of cac_small at batch 64.
        net = Network.build(resolve_model_spec("cac_small"), rng=np.random.default_rng(21))
        x = np.random.default_rng(22).standard_normal((64, 3, 32, 32)).astype(np.float32)
        for _, layer in net.cac_layers():
            layer.gate_beta[0] = -1.0
        net.forward(x, train=train)
        for _, layer in net.cac_layers():
            parts = list(layer.partition)
            assert len(parts) == 64 and parts[0].score.shape == layer.partition.score.shape[2:]
            assert 0 < layer.rho_hard() < 1
            assert (layer.rho_soft(), layer.rho_hard()) == per_sample_rho(parts)
            assert layer.sharp_counts().tolist() == [p.sharp_count for p in parts]

    @pytest.mark.parametrize("train", [True, False])
    def test_scores_of_exactly_half(self, train):
        # gamma = 0 puts every score at sigmoid(0) = 0.5: all smooth.
        rng = np.random.default_rng(19)
        layer = CacConv2d(2, 3, 3, rng=rng)
        layer.gate_gamma[0] = 0.0
        layer.forward(rng.standard_normal((5, 2, 7, 7)).astype(np.float32), train=train)
        assert (layer.rho_soft(), layer.rho_hard()) == (0.5, 0.0)
        assert per_sample_rho(list(layer.partition)) == (0.5, 0.0)

    def test_before_any_forward_rejected(self):
        with pytest.raises(InvalidArgument, match="no gated forward"):
            CacConv2d(1, 1, 3, rng=np.random.default_rng(20)).rho_soft()
