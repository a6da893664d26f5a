"""Minimal layer zoo and the network container.

Layers own their parameters as plain numpy arrays and fill ``self.grads``
during backward.  ``CacConv2d`` subclasses ``Conv2d`` so that a gated
network and its plain-convolution twin (``"type": "conv"``, e.g. the
``conv_small`` preset) draw the same weights from the same seed.  Each
costed layer (convolution or linear) carries the ``LayerCostSpec`` that
``Network.build`` gives it.
"""

from __future__ import annotations

import numpy as np

from .cac import (
    PBAR_MODES,
    CacConvParams,
    cac_backward,
    cac_forward_hard,
    cac_forward_soft,
)
from .cost import LayerCostSpec
from .errors import InvalidArgument, NumericFailure
from .tensor import (
    DEFAULT_DTYPE,
    allocate,
    check_finite,
    conv_backward,
    conv_columns,
    conv_output,
    require,
)


def kaiming_normal(rng, shape, fan_in, dtype):
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(dtype)


class Layer:
    """Base class: parameters live in ``params()``, gradients in ``grads``."""

    name = ""
    cost_spec = None  # LayerCostSpec of a costed layer, set by Network.build
    _saved = None  # what a training forward keeps for the backward; None after an eval one

    def __init__(self):
        self.grads = {}

    def params(self) -> dict:
        return {}

    def buffers(self) -> dict:
        return {}

    def no_decay(self) -> set:
        return set()

    def forward(self, x, train: bool):
        raise NotImplementedError

    def backward(self, dy):
        """Fills ``grads`` and returns the input gradient.  What a training
        forward keeps for this call (``_saved``) lives until this call reads
        it, so one forward serves one backward; an eval forward keeps
        nothing for it."""
        raise NotImplementedError

    def zero_grads(self):
        self.grads = {}

    def _take(self):
        """The forward state ``_saved``, released as backward takes it.  A
        backward with none (a second backward on one forward, or one after
        an eval forward) is an InvalidArgument that names the layer."""
        state, self._saved = self._saved, None
        if state is None:
            raise InvalidArgument(f"layer {self.name or type(self).__name__}: backward "
                                  f"without a training forward before it")
        return state


class Conv2d(Layer):
    def __init__(self, c_in, c_out, k, *, bias=True, rng, dtype=DEFAULT_DTYPE):
        super().__init__()
        require(k % 2 == 1, f"kernel size must be odd, got {k}")
        self.weight = kaiming_normal(rng, (k, k, c_in, c_out), c_in * k * k, dtype)
        self.bias = np.zeros(c_out, dtype=dtype) if bias else None

    def params(self):
        p = {"weight": self.weight}
        if self.bias is not None:
            p["bias"] = self.bias
        return p

    def forward(self, x, train):
        cols, y = conv_columns(x, self.weight)
        self._saved = cols if train else None
        return conv_output(y, self.bias, x.shape[0], x.shape[2])

    def backward(self, dy, *, input_grad=True):
        """Fills ``grads``; returns the input gradient, or None when
        ``input_grad`` is False."""
        dyf = dy.transpose(0, 2, 3, 1).reshape(-1, self.weight.shape[3])
        dweight, dx = conv_backward(self._take(), self.weight, dyf, dy.shape[2],
                                    input_grad=input_grad)
        self.grads = {"weight": dweight}
        if self.bias is not None:
            self.grads["bias"] = dyf.sum(axis=0)
        return dx


class CacConv2d(Conv2d):
    """Gated convolution: full kernel on sharp windows, aggregated 1 x 1
    kernel on smooth ones.

    Training uses the differentiable soft blend; eval uses hard routing.
    Its plain-convolution twin is a ``Conv2d`` (``"type": "conv"``) built
    from the same seed.
    """

    def __init__(
        self, c_in, c_out, k, *, bias=True, pbar_mode="center",
        rng, dtype=DEFAULT_DTYPE,
    ):
        require(k % 2 == 1 and k >= 3, f"gated conv needs odd k >= 3, got {k}")
        # Conv2d draws the weight, so seeds align across the gated net and
        # its plain baseline.
        super().__init__(c_in, c_out, k, bias=bias, rng=rng, dtype=dtype)
        self.pbar_mode = pbar_mode
        self.gate_gamma = np.ones(1, dtype=np.float64)
        self.gate_beta = np.zeros(1, dtype=np.float64)
        self.partition = None

    def params(self):
        p = super().params()
        p["gate_gamma"] = self.gate_gamma
        p["gate_beta"] = self.gate_beta
        return p

    def no_decay(self):
        return {"gate_gamma", "gate_beta"}

    def conv_params(self) -> CacConvParams:
        return CacConvParams(
            weight=self.weight,
            gamma=float(self.gate_gamma[0]),
            beta=float(self.gate_beta[0]),
            bias=self.bias,
            pbar_mode=self.pbar_mode,
        )

    def forward(self, x, train):
        if train:
            y, self.partition, self._saved = cac_forward_soft(x, self.conv_params())
        else:
            y, self.partition = cac_forward_hard(x, self.conv_params())
            self._saved = None
        return y

    def backward(self, dy, extra_score_grad=None, *, input_grad=True):
        g = cac_backward(self._take(), dy, extra_score_grad, input_grad=input_grad)
        self.grads = {
            "weight": g.dweight,
            "gate_gamma": np.array([g.dgamma]),
            "gate_beta": np.array([g.dbeta]),
        }
        if g.dbias is not None:
            self.grads["bias"] = g.dbias
        return g.dx

    def _stacked(self, field) -> np.ndarray:
        """One partition map of the last forward, a row per sample: (N, n^2)."""
        require(self.partition is not None, "no gated forward recorded")
        return getattr(self.partition, field).reshape(len(self.partition), -1)

    def sharp_counts(self) -> np.ndarray:
        """Sharp windows of each sample in the last forward: (N,) integers."""
        return self._stacked("sharp_mask").sum(axis=1)

    # Both rhos are the float64 mean of the per-sample fractions: each
    # sample's mean score, and its sharp count over n^2.
    def rho_soft(self) -> float:
        return float(self._stacked("score").mean(axis=1).astype(np.float64).mean())

    def rho_hard(self) -> float:
        return float((self.sharp_counts() / self.partition[0].total_windows).mean())


class BatchNorm2d(Layer):
    eps = 1e-5
    momentum = 0.1

    def __init__(self, c, *, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.c = c
        self.gamma = np.ones(c, dtype=dtype)
        self.beta = np.zeros(c, dtype=dtype)
        self.running_mean = np.zeros(c, dtype=dtype)
        self.running_var = np.ones(c, dtype=dtype)

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x, train):
        require(x.ndim == 4 and x.shape[1] == self.c,
                f"expected (N, {self.c}, H, W), got {x.shape}")
        # x stays untouched (an eval network keeps every layer's output); the
        # in-place steps act on fresh buffers, each of its result's dtype,
        # in the order of the plain expression.
        gamma, beta = self.gamma[None, :, None, None], self.beta[None, :, None, None]
        if not train:
            self._saved = None
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            xhat = x - self.running_mean[None, :, None, None]
            xhat *= inv_std[None, :, None, None]
            xhat *= gamma
            xhat += beta
            return xhat
        axes = (0, 2, 3)
        mean = x.mean(axis=axes)
        # x.var's own steps, on the deviation it shares with xhat: the sum
        # of squares over the axes, divided by the count as an intp.
        dev = x - mean[None, :, None, None]
        sq = np.square(dev)
        var = np.add.reduce(sq, axis=axes)
        var /= np.intp(x.size // self.c)
        self.running_mean[...] = (1 - self.momentum) * self.running_mean + self.momentum * mean
        self.running_var[...] = (1 - self.momentum) * self.running_var + self.momentum * var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        dev *= inv_std[None, :, None, None]
        self._saved = (dev, inv_std)
        y = np.multiply(gamma, dev, out=sq if sq.dtype == np.result_type(gamma, dev) else None)
        y += beta
        return y

    def backward(self, dy):
        xhat, inv_std = self._take()
        m = dy.shape[0] * dy.shape[2] * dy.shape[3]
        axes = (0, 2, 3)
        # (inv_std / m) * (m * dxhat - s1 - xhat * s2), step by step in two
        # buffers: ``prod`` holds dy * xhat, dxhat * xhat, xhat * s2 and
        # the result; ``dxhat`` holds dy * gamma, then m * dxhat - s1.
        prod = dy * xhat
        self.grads = {"gamma": prod.sum(axis=axes), "beta": dy.sum(axis=axes)}
        dxhat = dy * self.gamma[None, :, None, None]
        s1 = dxhat.sum(axis=axes, keepdims=True)
        if prod.dtype != np.result_type(dxhat, xhat):
            prod = None
        prod = np.multiply(dxhat, xhat, out=prod)
        s2 = prod.sum(axis=axes, keepdims=True)
        dxhat *= m
        dxhat -= s1
        np.multiply(xhat, s2, out=prod)
        np.subtract(dxhat, prod, out=prod)
        np.multiply(inv_std[None, :, None, None] / m, prod, out=prod)
        return prod


class ReLU(Layer):
    def forward(self, x, train):
        self._saved = x > 0 if train else None
        return np.maximum(x, 0)

    def backward(self, dy):
        return dy * self._take()


class AvgPool2d(Layer):
    def __init__(self, k=2):
        super().__init__()
        self.k = k

    def forward(self, x, train):
        k = self.k
        n, c, h, w = x.shape
        require(h % k == 0 and w % k == 0,
                f"spatial dims {h}x{w} not divisible by pool size {k}")
        if w == k or k == 1:
            # One pooled column: numpy's mean sums each contiguous k x k
            # block in an order of its own, so keep it (k = 1 copies x).
            return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))
        # Sums of strided slices in the order numpy's mean takes at pooled
        # width > 1: each kernel row's k columns in order, then the row
        # sums in order, from +0.0 (an all -0.0 block pools to +0.0).
        out = np.zeros((n, c, h // k, w // k), dtype=x.dtype)
        row = np.empty_like(out)
        for ky in range(k):
            np.add(x[:, :, ky::k, 0::k], x[:, :, ky::k, 1::k], out=row)
            for kx in range(2, k):
                row += x[:, :, ky::k, kx::k]
            out += row
        out /= k * k
        return out

    def backward(self, dy):
        k = self.k
        n, c, h, w = dy.shape
        # One broadcast write of each widened row over the k rows it feeds.
        row = np.repeat(dy / (k * k), k, axis=3)
        dx = np.empty((n, c, h, k, w * k), dtype=row.dtype)
        dx[...] = row[:, :, :, None]
        return dx.reshape(n, c, h * k, w * k)


class GlobalAvgPool(Layer):
    def forward(self, x, train):
        self._saved = x.shape if train else None
        return x.mean(axis=(2, 3))

    def backward(self, dy):
        shape = self._take()
        h, w = shape[2:]
        return np.broadcast_to(dy[:, :, None, None] / (h * w), shape).astype(dy.dtype)


class Linear(Layer):
    def __init__(self, n_in, n_out, *, bias=True, rng, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.n_in = n_in
        self.weight = kaiming_normal(rng, (n_in, n_out), n_in, dtype)
        self.bias = np.zeros(n_out, dtype=dtype) if bias else None

    def params(self):
        p = {"weight": self.weight}
        if self.bias is not None:
            p["bias"] = self.bias
        return p

    def forward(self, x, train):
        require(x.ndim == 2 and x.shape[1] == self.n_in,
                f"expected (N, {self.n_in}), got {x.shape}")
        self._saved = x if train else None
        y = x @ self.weight
        if self.bias is not None:
            y = y + self.bias[None, :]
        return y

    def backward(self, dy):
        self.grads = {"weight": self._take().T @ dy}
        if self.bias is not None:
            self.grads["bias"] = dy.sum(axis=0)
        return dy @ self.weight.T


def require_labels(labels, classes: int) -> None:
    """Every label must index one of the model's ``classes`` outputs."""
    bad = labels[(labels < 0) | (labels >= classes)]
    if bad.size:
        raise InvalidArgument(
            f"label {int(bad[0])} is outside the model's {classes} classes [0, {classes})")


class SoftmaxCrossEntropy:
    """Classification head: mean cross-entropy over the batch."""

    def loss(self, logits, labels):
        require(logits.ndim == 2, f"expected (N, classes) logits, got {logits.shape}")
        require(labels.shape == (logits.shape[0],), "labels must be (N,)")
        require_labels(labels, logits.shape[1])
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        ell = float(-logp[np.arange(len(labels)), labels].mean())
        return ell, np.exp(logp)

    def grad(self, probs, labels):
        d = probs.copy()
        d[np.arange(len(labels)), labels] -= 1.0
        return d / len(labels)


def model_presets() -> dict:
    """Built-in model specs addressable by name from a config."""

    def stack(conv_type):
        return {
            "input": {"channels": 3, "size": 32},
            "num_classes": 10,
            "layers": [
                {"type": conv_type, "out": 16, "k": 3},
                {"type": "batchnorm"},
                {"type": "relu"},
                {"type": "avgpool", "k": 2},
                {"type": conv_type, "out": 32, "k": 3},
                {"type": "batchnorm"},
                {"type": "relu"},
                {"type": "avgpool", "k": 2},
                {"type": conv_type, "out": 64, "k": 3},
                {"type": "batchnorm"},
                {"type": "relu"},
                {"type": "global_avgpool"},
                {"type": "linear", "out": 10},
                {"type": "softmax_ce"},
            ],
        }

    tiny = {
        "input": {"channels": 3, "size": 32},
        "num_classes": 2,
        "layers": [
            {"type": "cac_conv", "out": 8, "k": 3},
            {"type": "batchnorm"},
            {"type": "relu"},
            {"type": "global_avgpool"},
            {"type": "linear", "out": 2},
            {"type": "softmax_ce"},
        ],
    }
    return {
        "cac_small": stack("cac_conv"),
        "conv_small": stack("conv"),
        "cac_tiny_synth": tiny,
    }


def resolve_model_spec(model) -> dict:
    """The spec that ``model`` names: a preset's, built afresh on each
    call, or an inline mapping as given (its readers only read it)."""
    if isinstance(model, str):
        presets = model_presets()
        require(model in presets,
                f"unknown model preset {model!r}; known: {sorted(presets)}")
        return presets[model]
    require(isinstance(model, dict), "model must be a preset name or a spec mapping")
    return model


_POOLED = object()

# Keys each layer type takes besides "type".
_LAYER_KEYS = {
    "conv": {"out", "k", "bias"},
    "cac_conv": {"out", "k", "bias", "pbar_mode"},
    "batchnorm": set(),
    "relu": set(),
    "avgpool": {"k"},
    "global_avgpool": set(),
    "linear": {"out", "bias"},
    "softmax_ce": set(),
}


def _known_keys(block, allowed, what):
    """Reject the keys of spec mapping ``block`` outside ``allowed``."""
    unknown = sorted(set(block) - allowed)
    require(not unknown, f"unknown {what} keys: {unknown}")


def _spec_int(desc, key, default=None):
    """Positive integer field ``key`` of a spec mapping, or ``default`` when absent."""
    value = desc.get(key, default)
    require(value is not None, f"missing '{key}'")
    require(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
            f"'{key}' must be a positive integer, got {value!r}")
    return value


class Network:
    """Ordered layer stack with a softmax cross-entropy head.

    Built from a plain dict spec: {"input": {"channels", "size"},
    "num_classes", "layers": [{"type": ...}, ...]} where layer types are
    conv, cac_conv, batchnorm, relu, avgpool, global_avgpool, linear,
    and an optional trailing softmax_ce marker.  A key the spec does not
    name, in any of its mappings, is an InvalidArgument.
    """

    def __init__(self, layers, head, input_shape):
        self.layers = layers
        self.head = head
        self.input_shape = input_shape
        self._outputs = []

    @staticmethod
    def build(spec: dict, *, rng, dtype=DEFAULT_DTYPE) -> "Network":
        require(isinstance(spec, dict), "model spec must be a mapping")
        keys = ("input", "num_classes", "layers")
        for key in keys:
            require(key in spec, f"model spec missing '{key}'")
        _known_keys(spec, set(keys), "model spec")
        inp = spec["input"]
        require(isinstance(inp, dict), f"model spec 'input' must be an object, got {inp!r}")
        _known_keys(inp, {"channels", "size"}, "model spec 'input'")
        c, size = _spec_int(inp, "channels"), _spec_int(inp, "size")
        num_classes = _spec_int(spec, "num_classes")
        require(isinstance(spec["layers"], list), "model spec 'layers' must be a list")
        layers = []
        shape = (c, size)  # (channels, spatial side); spatial None once pooled
        for idx, desc in enumerate(spec["layers"]):
            require(isinstance(desc, dict), f"layer {idx}: must be an object, got {desc!r}")
            kind = desc.get("type")
            name = f"{idx:02d}_{kind}"
            try:
                require(kind != "softmax_ce" or idx == len(spec["layers"]) - 1,
                        "softmax_ce marks the head and must be the last layer")
                layer, shape = Network._build_layer(desc, kind, shape, rng, dtype, name)
            except InvalidArgument as exc:
                raise InvalidArgument(f"layer {idx} ({kind}): {exc}") from None
            if layer is None:
                continue
            layer.name = name
            layers.append(layer)
        require(shape[1] is _POOLED, "model must end in a classification vector")
        require(
            shape[0] == num_classes,
            f"final feature width {shape[0]} != num_classes {num_classes}",
        )
        return Network(layers, SoftmaxCrossEntropy(), (c, size, size))

    @staticmethod
    def _build_layer(desc, kind, shape, rng, dtype, name):
        require(isinstance(kind, str) and kind in _LAYER_KEYS, f"unknown layer type {kind!r}")
        _known_keys(desc, _LAYER_KEYS[kind] | {"type"}, f"{kind} layer")
        bias, pbar_mode = desc.get("bias", True), desc.get("pbar_mode", "center")
        require(isinstance(bias, bool), f"'bias' must be true or false, got {bias!r}")
        require(pbar_mode in PBAR_MODES,
                f"'pbar_mode' must be one of {PBAR_MODES}, got {pbar_mode!r}")
        ch, sp = shape
        if kind == "conv" or kind == "cac_conv":
            require(sp is not _POOLED, "convolution after pooling to a vector")
            out = _spec_int(desc, "out")
            k = _spec_int(desc, "k", 3)
            require(sp >= k, f"spatial side {sp} smaller than kernel {k}")
            if kind == "cac_conv":
                layer = allocate("its parameters", CacConv2d, ch, out, k, bias=bias,
                                 pbar_mode=pbar_mode, rng=rng, dtype=dtype)
            else:
                layer = allocate("its parameters", Conv2d, ch, out, k, bias=bias, rng=rng,
                                 dtype=dtype)
            layer.cost_spec = LayerCostSpec(name, sp, k, ch, out, cac=kind == "cac_conv")
            return layer, (out, sp)
        if kind == "batchnorm":
            require(sp is not _POOLED, "batchnorm expects feature maps")
            return BatchNorm2d(ch, dtype=dtype), shape
        if kind == "relu":
            return ReLU(), shape
        if kind == "avgpool":
            require(sp is not _POOLED, "avgpool expects feature maps")
            k = _spec_int(desc, "k", 2)
            require(sp % k == 0, f"spatial side {sp} not divisible by pool {k}")
            return AvgPool2d(k), (ch, sp // k)
        if kind == "global_avgpool":
            require(sp is not _POOLED, "global_avgpool expects feature maps")
            return GlobalAvgPool(), (ch, _POOLED)
        if kind == "linear":
            require(sp is _POOLED, "linear head expects pooled features")
            out = _spec_int(desc, "out")
            layer = allocate("its parameters", Linear, ch, out, bias=bias, rng=rng, dtype=dtype)
            layer.cost_spec = LayerCostSpec(name, 1, 1, ch, out)
            return layer, (out, _POOLED)
        return None, shape  # softmax_ce

    def forward(self, x, train: bool):
        """The logits of ``x``.  A layer's NumericFailure, or non-finite
        logits, ends in a NumericFailure that names the first layer whose
        output went non-finite, or else the layer that raised it.

        An eval forward keeps every layer's output in ``_outputs`` until
        the next forward, and names the layer from them: dropping them
        made eval slower (ROADMAP, *Measured limits*).  A training forward
        keeps no output; a failed one re-runs the forward to name the
        layer (``_first_nonfinite``).  A failed forward of either kind
        leaves no layer holding forward state (``_saved``)."""
        require(
            x.ndim == 4 and x.shape[1:] == self.input_shape,
            f"input shape {x.shape[1:]} != model input {self.input_shape}",
        )
        inputs, self._outputs = x, []
        try:
            for layer in self.layers:
                x = layer.forward(x, train)
                if not train:
                    self._outputs.append((layer.name, x))
            check_finite(x, "output")
        except NumericFailure as exc:
            bad = self._first_nonfinite(inputs) if train else next(
                (name for name, out in self._outputs if not np.isfinite(out).all()), layer.name)
            for stopped in self.layers:
                stopped._saved = None
            raise NumericFailure(f"{exc}: first non-finite activation at layer {bad}") from None
        return x

    def _first_nonfinite(self, x):
        """The layer whose output first goes non-finite in a training
        forward of ``x``, or else the layer that raises NumericFailure.
        Every buffer is restored afterwards, so batch norm's running
        statistics keep only the failed forward's own update."""
        saved = [(arr, arr.copy()) for layer in self.layers for arr in layer.buffers().values()]
        try:
            for layer in self.layers:
                try:
                    x = layer.forward(x, True)
                except NumericFailure:
                    break
                if not np.isfinite(x).all():
                    break
            return layer.name
        finally:
            for arr, copy in saved:
                arr[...] = copy

    def backward(self, dlogits, score_extras=None):
        """Reverse pass from the loss gradient ``dlogits``: fills every
        layer's ``grads`` and returns None.

        ``score_extras`` maps a gated layer's name to the extra dL/dM its
        score map receives (see :func:`~cacconv.cac.cac_backward`).  Nothing
        reads the gradient of the network's input, so a convolution at the
        bottom computes its parameter gradients only.

        The training forward kept no layer output, and each layer releases
        its forward state as its own backward reads it, so after this call
        the network holds no activation of the step, and the next forward
        runs beside none."""
        d = dlogits
        for depth, layer in reversed(list(enumerate(self.layers))):
            bottom = {"input_grad": False} if depth == 0 and isinstance(layer, Conv2d) else {}
            if isinstance(layer, CacConv2d):
                extra = None if score_extras is None else score_extras.get(layer.name)
                d = layer.backward(d, extra, **bottom)
            else:
                d = layer.backward(d, **bottom)

    def cac_layers(self):
        return [(l.name, l) for l in self.layers if isinstance(l, CacConv2d)]

    def cost_specs(self):
        """Costed layers (convolutions and the linear head) in order."""
        return [l.cost_spec for l in self.layers if l.cost_spec is not None]

    def named_params(self):
        """(full_name, layer, param_name, array) for every trainable tensor."""
        out = []
        for layer in self.layers:
            for pname, arr in layer.params().items():
                out.append((f"{layer.name}.{pname}", layer, pname, arr))
        return out

    def zero_grads(self):
        for layer in self.layers:
            layer.zero_grads()

    def state_dict(self):
        state = {}
        for layer in self.layers:
            for pname, arr in layer.params().items():
                state[f"{layer.name}.{pname}"] = arr
            for bname, arr in layer.buffers().items():
                state[f"{layer.name}.{bname}"] = arr
        return state

    def load_state_dict(self, state: dict):
        own = self.state_dict()
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        require(not missing, f"checkpoint missing tensors: {missing}")
        require(not unexpected, f"checkpoint has unexpected tensors: {unexpected}")
        for key, arr in own.items():
            src = state[key]
            require(
                tuple(src.shape) == tuple(arr.shape),
                f"{key}: checkpoint shape {src.shape} != model shape {arr.shape}",
            )
            arr[...] = src.astype(arr.dtype)
