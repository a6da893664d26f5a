"""Training loop, weighted-product objective, SGD, and checkpoints.

The objective is  L = ell * (c_model / c_baseline)**lambda  where ell is
the batch cross-entropy and the cost ratio is recomputed every
mini-batch from that batch's soft sharp fractions.  Its gradient is one
reverse pass: the task gradient scaled by the penalty factor, plus a
per-layer term injected directly at each gate's score map.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cost import cost_penalty, madds_cac, madds_standard, model_cost
from .data import augment_batch
from .errors import DataFormatError, NumericFailure
from .ioutil import atomic_write_bytes, atomic_write_text
from .layers import Network, require_labels, resolve_model_spec
from .tensor import require


@dataclass
class OptimizerConfig:
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    nesterov: bool = True
    decay_epochs: list[int] | None = None   # None: floor(0.6 E), floor(0.8 E), those > 0
    decay_factor: float = 0.1

    def __post_init__(self):
        require(self.lr > 0, f"lr must be positive, got {self.lr}")
        require(0 <= self.momentum < 1, "momentum must lie in [0, 1)")
        require(self.weight_decay >= 0, "weight_decay must be non-negative")
        require(self.decay_factor > 0, f"decay_factor must be positive, got {self.decay_factor}")
        require(min(self.decay_epochs or [0]) >= 0, "decay_epochs entries must be non-negative")

    def schedule(self, epochs: int) -> list:
        """Epochs at which the lr is multiplied by ``decay_factor``.  A
        default milestone that lands on epoch 0 is dropped, so that a short
        run does not train from its first epoch at a decayed lr."""
        if self.decay_epochs is not None:
            return list(self.decay_epochs)
        return [e for e in (int(epochs * 0.6), int(epochs * 0.8)) if e > 0]

    def lr_at(self, epoch: int, epochs: int) -> float:
        lr = self.lr
        for e in self.schedule(epochs):
            if epoch >= e:
                lr *= self.decay_factor
        return lr


@dataclass
class OptimizerState:
    config: OptimizerConfig
    velocities: dict = field(default_factory=dict)


def sgd_step(net: Network, state: OptimizerState, lr: float) -> None:
    """One SGD update over every trainable tensor, in layer order.

    Weight decay is folded into the gradient (g += wd * theta), then
    v <- mu v + g and theta <- theta - lr (g + mu v) with nesterov on,
    theta <- theta - lr v otherwise.  Gate parameters are exempt from
    weight decay.
    """
    cfg = state.config
    require(lr > 0, f"lr must be positive, got {lr}")
    for full_name, layer, pname, theta in net.named_params():
        grad = layer.grads.get(pname)
        if grad is None:
            continue
        g = np.asarray(grad, dtype=theta.dtype)
        if cfg.weight_decay and pname not in layer.no_decay():
            g = g + cfg.weight_decay * theta
        v = state.velocities.get(full_name)
        if v is None:
            v = np.zeros_like(theta)
            state.velocities[full_name] = v
        v *= cfg.momentum
        v += g
        step = g + cfg.momentum * v if cfg.nesterov else v
        if not np.isfinite(step).all():
            raise NumericFailure(f"non-finite update for parameter {full_name}")
        theta -= lr * step


@dataclass
class StepResult:
    ell: float
    objective: float
    cost_ratio_soft: float
    cost_ratio_hard: float
    rho_soft: dict
    rho_hard: dict
    top1_error: float
    batch_size: int


def forward_backward(net: Network, images, labels, lam: float) -> StepResult:
    """Forward pass, objective, and full reverse pass (grads left on layers).

    ``lam`` is the effective lambda; 0 switches the penalty off exactly,
    as ``train_model`` does during its warm-up epochs.  The penalty path
    enters backward in two places: the task gradient is scaled by the
    factor ratio**lam, and each gate's score map receives the extra term
    ell * d(factor)/d(ratio) * d(ratio)/d(M_i), which is constant per
    layer because the batch-mean soft rho is linear in M.
    """
    logits = net.forward(images, train=True)
    ell, probs = net.head.loss(logits, labels)
    if not np.isfinite(ell):
        raise NumericFailure("non-finite task loss: logits finite, loss overflow")

    specs = net.cost_specs()
    cac = net.cac_layers()
    rho_soft = {name: layer.rho_soft() for name, layer in cac}
    rho_hard = {name: layer.rho_hard() for name, layer in cac}
    report = model_cost(specs, [rho_soft.get(s.layer_id, 1.0) for s in specs])
    ratio_soft = report.ratio
    hard_report = model_cost(
        specs, [rho_hard.get(s.layer_id, 1.0) for s in specs]
    )

    factor, dfactor = cost_penalty(ratio_soft, lam)

    dlogits = net.head.grad(probs, labels) * factor
    extras = None
    if lam > 0:
        c_b = float(report.c_baseline)
        extras = {}
        for name, layer in cac:
            spec = layer.cost_spec
            omega = madds_standard(spec)
            dratio_drho = omega * (1.0 - 1.0 / (spec.k * spec.k)) / c_b
            n_elems = images.shape[0] * spec.n * spec.n
            extras[name] = ell * dfactor * dratio_drho / n_elems
    net.backward(dlogits, extras)

    top1 = float((logits.argmax(axis=1) != labels).mean())
    return StepResult(
        ell=ell, objective=ell * factor,
        cost_ratio_soft=ratio_soft, cost_ratio_hard=hard_report.ratio,
        rho_soft=rho_soft, rho_hard=rho_hard,
        top1_error=top1, batch_size=len(labels),
    )


@dataclass
class EvalResult:
    top1_error: float
    madds_mean: float
    madds_std: float
    rho_hard: dict
    per_sample_madds: np.ndarray
    per_sample_rho: dict
    n: int

    def summary(self) -> dict:
        return {
            "top1_error": self.top1_error,
            "madds_mean": self.madds_mean,
            "madds_std": self.madds_std,
            "rho_hard": self.rho_hard,
            "n": self.n,
        }


def evaluate(net: Network, images, labels, batch_size: int = 64) -> EvalResult:
    """Hard-routed evaluation with per-sample dynamic MAdds.

    Each sample's cost sums the plain layers at full price and every
    gated layer at that sample's own exact hard sharp fraction, so the
    reported distribution reflects how the content steered the compute.
    """
    n = len(labels)
    require(n >= 1, "cannot evaluate on an empty dataset")
    # Every caller in the package runs at the default; the parameter and
    # its check stay because bench/workloads.py passes batch_size=64.
    require(batch_size >= 1, f"batch size must be >= 1, got {batch_size}")
    static = sum(madds_standard(s) for s in net.cost_specs() if not s.cac)
    cac = net.cac_layers()

    errors = 0
    per_sample = np.zeros(n, dtype=np.float64)
    per_rho = {name: np.zeros(n, dtype=np.float64) for name, _ in cac}
    pos = 0
    for start in range(0, n, batch_size):
        xb = images[start:start + batch_size]
        yb = labels[start:start + batch_size]
        logits = net.forward(xb, train=False)
        require_labels(yb, logits.shape[1])
        errors += int((logits.argmax(axis=1) != yb).sum())
        b = len(yb)
        costs = np.full(b, float(static), dtype=np.float64)
        for name, layer in cac:
            # Price each distinct sharp count once: the same exact
            # fraction gives the same float.
            counts = layer.sharp_counts()
            windows = layer.cost_spec.n * layer.cost_spec.n
            distinct, which = np.unique(counts, return_inverse=True)
            prices = [madds_cac(layer.cost_spec, Fraction(int(c), windows)).total
                      for c in distinct]
            costs += np.array(prices)[which]
            per_rho[name][pos:pos + b] = counts / windows
        per_sample[pos:pos + b] = costs
        pos += b

    return EvalResult(
        top1_error=errors / n,
        madds_mean=float(per_sample.mean()),
        madds_std=float(per_sample.std()),
        rho_hard={k: float(v.mean()) for k, v in per_rho.items()},
        per_sample_madds=per_sample,
        per_sample_rho=per_rho,
        n=n,
    )


# Checkpoint container: magic, u32 version, u32 tensor count, then per
# tensor u32 name length, utf-8 name, u8 dtype tag (0 = float32),
# u32 rank, u64 dims, raw little-endian float32 payload.
CHECKPOINT_MAGIC = b"CAC1"
CHECKPOINT_VERSION = 1
_DTYPE_F32 = 0


def save_checkpoint(path, tensors: dict) -> None:
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    blob += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f4")
        nb = name.encode("utf-8")
        blob += struct.pack("<I", len(nb))
        blob += nb
        blob += struct.pack("<B", _DTYPE_F32)
        blob += struct.pack("<I", arr.ndim)
        for d in arr.shape:
            blob += struct.pack("<Q", d)
        blob += arr.tobytes(order="C")
    atomic_write_bytes(path, bytes(blob))


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.data):
            raise DataFormatError(
                f"{self.path}: truncated reading {what} at byte {self.off} "
                f"(need {n} bytes, have {len(self.data) - self.off})"
            )
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]


def load_checkpoint(path) -> dict:
    """Read a checkpoint container, validating every field with the
    tensor index in any diagnostic."""
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data, path)
    magic = r.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    version = r.u32("version")
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    count = r.u32("tensor count")
    tensors = {}
    for idx in range(count):
        name_len = r.u32(f"tensor {idx}: name length")
        if name_len > 4096:
            raise DataFormatError(f"{path}: tensor {idx}: implausible name length {name_len}")
        try:
            name = r.take(name_len, f"tensor {idx}: name").decode("utf-8")
        except UnicodeDecodeError:
            raise DataFormatError(f"{path}: tensor {idx}: name is not valid UTF-8") from None
        if name in tensors:
            raise DataFormatError(f"{path}: tensor {idx} ({name}): repeated name")
        tag = r.u8(f"tensor {idx} ({name}): dtype tag")
        if tag != _DTYPE_F32:
            raise DataFormatError(f"{path}: tensor {idx} ({name}): unsupported dtype tag {tag}")
        rank = r.u32(f"tensor {idx} ({name}): rank")
        if rank > 8:
            raise DataFormatError(f"{path}: tensor {idx} ({name}): implausible rank {rank}")
        dims = tuple(r.u64(f"tensor {idx} ({name}): dim {d}") for d in range(rank))
        payload = r.take(4 * math.prod(dims), f"tensor {idx} ({name}): payload")
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        except ValueError:  # zero-size, but a dim or their product exceeds numpy's range
            raise DataFormatError(
                f"{path}: tensor {idx} ({name}): shape {dims} is too large") from None
    if r.off != len(data):
        raise DataFormatError(
            f"{path}: {len(data) - r.off} trailing bytes after tensor {count - 1}"
        )
    return tensors


@dataclass
class TrainResult:
    net: Network
    metrics: list
    checkpoint_path: str
    metrics_path: str
    last_eval: EvalResult | None  # the last epoch's test evaluation, if it ran one


def _iter_batches(n: int, batch_size: int, rng) -> list:
    order = rng.permutation(n)
    return [order[s:s + batch_size] for s in range(0, n, batch_size)]


def _epoch_mean(steps: list, value) -> float:
    """Batch-size-weighted mean of ``value(step)``, summed from 0.0 in step
    order (``sum()`` of floats is compensated from Python 3.12 on)."""
    total, count = 0.0, 0
    for step in steps:
        total += value(step) * step.batch_size
        count += step.batch_size
    return total / count


def train_model(cfg, train_images, train_labels, test_images=None, test_labels=None,
                *, progress=False) -> TrainResult:
    """Run the full training loop described by a RunConfig.

    Writes model.json, metrics.jsonl (rewritten whole each epoch), and
    model.ckpt (each epoch, atomically) under cfg.output_dir.  Raises
    NumericFailure on divergence, leaving the last finished epoch's
    checkpoint in place.
    """
    n = len(train_labels)
    require(n >= 1, "training set is empty")
    rng = np.random.default_rng(cfg.seed)
    spec = resolve_model_spec(cfg.model)
    net = Network.build(spec, rng=rng)
    opt = OptimizerState(config=cfg.optimizer)

    out_dir = cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    atomic_write_text(
        os.path.join(out_dir, "model.json"),
        json.dumps({"model": spec}, indent=2) + "\n",
    )

    batch_rng = np.random.default_rng(cfg.seed + 1)
    aug_rng = np.random.default_rng(cfg.seed + 2)
    metrics = []

    for epoch in range(cfg.epochs):
        lr = opt.config.lr_at(epoch, cfg.epochs)
        lam = cfg.lam if epoch >= cfg.penalty_warmup_epochs else 0.0
        steps = []
        for idx in _iter_batches(n, cfg.batch_size, batch_rng):
            xb = train_images[idx]
            yb = train_labels[idx]
            if cfg.augment:
                xb = augment_batch(xb, aug_rng)
            net.zero_grads()
            steps.append(forward_backward(net, xb, yb, lam))
            sgd_step(net, opt, lr)

        ell = _epoch_mean(steps, lambda s: s.ell)
        ratio_soft = _epoch_mean(steps, lambda s: s.cost_ratio_soft)
        entry = {
            "epoch": epoch,
            "lr": lr,
            "ell": ell,
            "cost_ratio_soft": ratio_soft,
            "cost_ratio_hard": _epoch_mean(steps, lambda s: s.cost_ratio_hard),
            # Epoch objective recomputed from the epoch-mean quantities so
            # the logged triple satisfies L = ell * ratio**lambda exactly.
            "L": ell * ratio_soft ** lam,
            "lambda": lam,
            "top1_error": _epoch_mean(steps, lambda s: s.top1_error),
            "rho_soft": {k: _epoch_mean(steps, lambda s: s.rho_soft[k])
                         for k in steps[0].rho_soft},
            "rho_hard": {k: _epoch_mean(steps, lambda s: s.rho_hard[k])
                         for k in steps[0].rho_hard},
        }
        last_eval = None
        if (test_labels is not None and cfg.eval_every
                and (epoch + 1) % cfg.eval_every == 0):
            last_eval = evaluate(net, test_images, test_labels)
            entry["test_top1_error"] = last_eval.top1_error
            entry["test_madds_mean"] = last_eval.madds_mean
        metrics.append(entry)
        atomic_write_text(
            metrics_path, "".join(json.dumps(m) + "\n" for m in metrics)
        )
        save_checkpoint(ckpt_path, net.state_dict())
        if progress:
            print(f"epoch {epoch}: ell={entry['ell']:.4f} "
                  f"ratio_hard={entry['cost_ratio_hard']:.4f}")

    return TrainResult(net=net, metrics=metrics, checkpoint_path=ckpt_path,
                       metrics_path=metrics_path, last_eval=last_eval)
