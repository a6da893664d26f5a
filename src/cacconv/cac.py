"""Content-aware convolution: gate windows by gradient magnitude, then
dispatch sharp windows to the full k x k kernel and smooth windows to an
aggregated 1 x 1 kernel.

Two forward modes are provided:

* ``cac_forward_hard`` routes every output pixel through exactly one
  branch (inference behavior).  Its accumulation order is pinned so that
  it agrees bit-for-bit with the scalar reference loop in
  :mod:`cacconv.oracle`.
* ``cac_forward_soft`` blends the two branches with the gate score
  (training behavior).  It is differentiable in the kernel, the gate
  parameters, and the input; ``cac_backward`` is its exact reverse pass.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tensor import (
    _conv2d_backward,
    channel_mean,
    check_finite,
    col2im_batch,
    im2col_batch,
    kernel_matrix,
    require,
)

PBAR_MODES = ("center", "mean")

# Separable Sobel taps: derivative along one axis, smoothing along the other.
DERIV_TAPS = (-1.0, 0.0, 1.0)
SMOOTH_TAPS = (1.0, 2.0, 1.0)


@dataclass
class CacConvParams:
    """Trainable state of one content-aware convolution layer.

    ``weight`` is the k x k kernel of shape (k, k, c_in, c_out) with odd
    k >= 3.  ``gamma`` and ``beta`` are the scalar gate gain and bias.
    The aggregated 1 x 1 kernel is always derived on demand from
    ``weight`` (never cached), so it can not go stale.
    """

    weight: np.ndarray
    gamma: float = 1.0
    beta: float = 0.0
    bias: np.ndarray | None = None
    pbar_mode: str = "center"

    def __post_init__(self) -> None:
        require(self.weight.ndim == 4, "weight must have shape (k, k, c_in, c_out)")
        k = self.weight.shape[0]
        require(self.weight.shape[1] == k, "weight must be spatially square")
        require(k % 2 == 1 and k >= 3, f"kernel size must be odd and >= 3, got {k}")
        require(self.pbar_mode in PBAR_MODES, f"pbar_mode must be one of {PBAR_MODES}")
        if self.bias is not None:
            require(
                self.bias.shape == (self.c_out,),
                f"bias shape {self.bias.shape} != ({self.c_out},)",
            )

    @property
    def k(self) -> int:
        return self.weight.shape[0]

    @property
    def pad(self) -> int:
        return (self.k - 1) // 2

    @property
    def c_in(self) -> int:
        return self.weight.shape[2]

    @property
    def c_out(self) -> int:
        return self.weight.shape[3]


@dataclass
class WindowPartition:
    """Per-sample gate state: gradient map, score map, and the hard split."""

    gradient: np.ndarray
    score: np.ndarray
    sharp_mask: np.ndarray

    @property
    def total_windows(self) -> int:
        return self.sharp_mask.size

    @property
    def sharp_count(self) -> int:
        return int(self.sharp_mask.sum())

    @property
    def rho_hard(self) -> float:
        return self.sharp_count / self.total_windows

    @property
    def rho_hard_exact(self) -> Fraction:
        return Fraction(self.sharp_count, self.total_windows)

    @property
    def rho_soft(self) -> float:
        return float(self.score.mean())

    def to_csv(self) -> str:
        """Flattened score map as ``index,G,M,sharp`` rows."""
        buf = io.StringIO()
        buf.write("index,G,M,sharp\n")
        g = self.gradient.reshape(-1)
        m = self.score.reshape(-1)
        s = self.sharp_mask.reshape(-1)
        for i in range(g.size):
            buf.write(f"{i},{float(g[i])!r},{float(m[i])!r},{int(s[i])}\n")
        return buf.getvalue()


def aggregate_kernel(weight: np.ndarray) -> np.ndarray:
    """Collapse a (k, k, c_in, c_out) kernel to its 1 x 1 counterpart.

    Sums the spatial taps per channel pair, in fixed row-major tap order,
    which reproduces the full kernel's response on a perfectly uniform
    window.
    """
    require(weight.ndim == 4, "weight must have shape (k, k, c_in, c_out)")
    k = weight.shape[0]
    out = np.zeros(weight.shape[2:], dtype=weight.dtype)
    for ky in range(k):
        for kx in range(k):
            out += weight[ky, kx]
    return out


def _replicate_pad(x: np.ndarray, axis: int) -> np.ndarray:
    width = [(0, 0)] * x.ndim
    width[axis] = (1, 1)
    return np.pad(x, width, mode="edge")


def _corr1d(x: np.ndarray, taps, axis: int) -> np.ndarray:
    """Length-3 correlation along ``axis`` with replicate border padding."""
    xp = np.moveaxis(_replicate_pad(x, axis), axis, -1)
    n = xp.shape[-1] - 2
    out = xp[..., 0:n] * taps[0] + xp[..., 1:n + 1] * taps[1] + xp[..., 2:n + 2] * taps[2]
    return np.moveaxis(out, -1, axis)


def _corr1d_adjoint(g: np.ndarray, taps, axis: int) -> np.ndarray:
    """Adjoint of ``_corr1d``: spreads output gradients back onto inputs,
    folding the replicate-padded border contributions onto the edge pixels."""
    gm = np.moveaxis(g, axis, -1)
    n = gm.shape[-1]
    dxp = np.zeros(gm.shape[:-1] + (n + 2,), dtype=g.dtype)
    for d in range(3):
        dxp[..., d:d + n] += taps[d] * gm
    dx = dxp[..., 1:n + 1].copy()
    dx[..., 0] += dxp[..., 0]
    dx[..., -1] += dxp[..., n + 1]
    return np.moveaxis(dx, -1, axis)


def _sobel_with_cache(xbar: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient magnitude plus the two directional maps needed by backward."""
    gx = _corr1d(_corr1d(xbar, DERIV_TAPS, axis=-1), SMOOTH_TAPS, axis=-2)
    gy = _corr1d(_corr1d(xbar, SMOOTH_TAPS, axis=-1), DERIV_TAPS, axis=-2)
    grad = np.sqrt(gx * gx + gy * gy)
    return grad, gx, gy


def sobel_gradient(xbar: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude of a single-channel map (N, 1, H, W).

    Each direction is two separable passes (derivative taps along one
    axis, smoothing taps along the other) with replicate padding, so a
    constant image produces exactly zero everywhere, borders included.
    """
    require(xbar.ndim == 4, "expected (N, 1, H, W)")
    require(xbar.shape[1] == 1, "sobel_gradient expects a single channel; apply channel_mean first")
    check_finite(xbar, "sobel input")
    grad, _, _ = _sobel_with_cache(xbar)
    return grad


def sobel_gradient_backward(
    dgrad: np.ndarray, gx: np.ndarray, gy: np.ndarray, grad: np.ndarray
) -> np.ndarray:
    """Reverse pass of :func:`sobel_gradient` given its cached maps.

    Uses subgradient zero where the magnitude is exactly zero."""
    safe = np.where(grad > 0, grad, 1.0).astype(grad.dtype)
    scale = np.where(grad > 0, dgrad / safe, 0.0).astype(grad.dtype)
    dgx = scale * gx
    dgy = scale * gy
    dxbar = _corr1d_adjoint(_corr1d_adjoint(dgx, SMOOTH_TAPS, axis=-2), DERIV_TAPS, axis=-1)
    dxbar += _corr1d_adjoint(_corr1d_adjoint(dgy, DERIV_TAPS, axis=-2), SMOOTH_TAPS, axis=-1)
    return dxbar


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically guarded logistic: no overflow for any finite input."""
    z = np.asarray(z)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def score_map(grad: np.ndarray, gamma: float, beta: float) -> np.ndarray:
    """Gate scores: elementwise logistic of gamma * G + beta."""
    check_finite(np.asarray(grad), "gradient map")
    return sigmoid(grad * gamma + beta)


def partition(score: np.ndarray) -> tuple[np.ndarray, float]:
    """Split windows on score > 0.5 (strict; exact ties count as smooth).

    Returns the boolean sharp mask and the sharp fraction."""
    score = np.asarray(score)
    require(
        bool((score >= 0).all() and (score <= 1).all()),
        "scores must lie in [0, 1]",
    )
    mask = score > 0.5
    return mask, float(mask.sum() / mask.size)


@dataclass
class SoftCache:
    """Everything the soft forward must retain for its backward pass."""

    x: np.ndarray
    cols: np.ndarray          # (k^2 c_in, N n^2)
    pbar: np.ndarray          # (c_in, N n^2)
    gx: np.ndarray
    gy: np.ndarray
    grad: np.ndarray          # (N, 1, n, n)
    score: np.ndarray         # (N, 1, n, n)
    y_kxk: np.ndarray         # (N n^2, c_out)
    y_1x1: np.ndarray         # (N n^2, c_out)
    params: CacConvParams


@dataclass
class CacGrads:
    dx: np.ndarray
    dweight: np.ndarray
    dgamma: float
    dbeta: float
    dbias: np.ndarray | None


def _validate_cac_input(x: np.ndarray, params: CacConvParams) -> tuple[int, int, int]:
    require(x.ndim == 4, "expected input of shape (N, C, H, W)")
    n_batch, c_in, h, w = x.shape
    require(h == w, f"spatial dims must be square, got {h}x{w}")
    require(h >= params.k, f"spatial side {h} smaller than kernel size {params.k}")
    require(
        c_in == params.c_in,
        f"channel mismatch: input has {c_in}, kernel expects {params.c_in}",
    )
    return n_batch, c_in, h


def _gate_maps(x: np.ndarray, params: CacConvParams):
    xbar = channel_mean(x)
    grad, gx, gy = _sobel_with_cache(xbar)
    score = score_map(grad, params.gamma, params.beta)
    return grad, gx, gy, score


def _pbar_map(x: np.ndarray, cols: np.ndarray, params: CacConvParams) -> np.ndarray:
    """Per-window representative pixel, one row per input channel.

    ``center`` takes each window's center (the input pixel itself);
    ``mean`` averages all k^2 taps of the zero-padded window, summing
    taps in fixed order."""
    n_batch, c_in = x.shape[0], x.shape[1]
    if params.pbar_mode == "center":
        return x.transpose(1, 0, 2, 3).reshape(c_in, -1)
    k2 = params.k * params.k
    blocks = cols.reshape(c_in, k2, -1)
    acc = np.zeros((c_in, blocks.shape[2]), dtype=cols.dtype)
    for j in range(k2):
        acc += blocks[:, j, :]
    acc /= k2
    return acc


def _partitions_per_sample(grad, score, mask) -> list[WindowPartition]:
    return [
        WindowPartition(gradient=grad[b, 0], score=score[b, 0], sharp_mask=mask[b, 0])
        for b in range(grad.shape[0])
    ]


def _gated_forward(x: np.ndarray, params: CacConvParams, mix):
    """Skeleton shared by both forwards.

    Validates the input, evaluates the gate (score map and hard mask),
    unrolls the windows and their representative pixels, then calls
    ``mix(cols, pbar, w, score, mask)``.  ``mix`` returns the branch
    output before bias, shape (N n^2, C_out), together with the
    ``(y_kxk, y_1x1)`` branch values the soft backward needs.  Adds the
    bias, returns to NCHW, and returns (out, partitions, cache).
    """
    n_batch, _, n = _validate_cac_input(x, params)
    check_finite(x, "input")
    w = params.weight.astype(x.dtype, copy=False)
    grad, gx, gy, score = _gate_maps(x, params)
    mask, _ = partition(score)
    cols = im2col_batch(x, params.k)
    pbar = _pbar_map(x, cols, params)
    y, (y_kxk, y_1x1) = mix(cols, pbar, w, score, mask)
    if params.bias is not None:
        y = y + params.bias.astype(x.dtype, copy=False)[None, :]
    out = np.ascontiguousarray(y.reshape(n_batch, n, n, params.c_out).transpose(0, 3, 1, 2))
    cache = SoftCache(
        x=x, cols=cols, pbar=pbar, gx=gx, gy=gy, grad=grad, score=score,
        y_kxk=y_kxk, y_1x1=y_1x1, params=params,
    )
    return out, _partitions_per_sample(grad, score, mask), cache


def _route(cols, pbar, w, score, mask):
    """Hard routing: each output pixel takes the branch its mask selects.
    Both branches accumulate one tap at a time in the pinned order."""
    wmat = kernel_matrix(w)
    wphi = aggregate_kernel(w)
    n_cols = cols.shape[1]
    c_out = w.shape[3]

    y_kxk = np.zeros((n_cols, c_out), dtype=cols.dtype)
    for r in range(wmat.shape[0]):
        y_kxk += cols[r][:, None] * wmat[r][None, :]

    y_1x1 = np.zeros((n_cols, c_out), dtype=cols.dtype)
    for ci in range(pbar.shape[0]):
        y_1x1 += pbar[ci][:, None] * wphi[ci][None, :]

    return np.where(mask.reshape(-1)[:, None], y_kxk, y_1x1), (y_kxk, y_1x1)


def _blend(cols, pbar, w, score, mask):
    """Soft routing: each output pixel is the score-weighted blend."""
    y_kxk = cols.T @ kernel_matrix(w)
    y_1x1 = pbar.T @ aggregate_kernel(w)
    m_flat = score.reshape(-1, 1)
    return m_flat * y_kxk + (1.0 - m_flat) * y_1x1, (y_kxk, y_1x1)


def cac_forward_hard(
    x: np.ndarray, params: CacConvParams
) -> tuple[np.ndarray, list[WindowPartition]]:
    """Inference forward: every output pixel takes exactly one branch.

    Args:
        x: input activations (N, C_in, H, W), H == W >= k.
        params: layer parameters; the gate is evaluated per sample on the
            channel-mean Sobel magnitude of this input.

    Returns:
        (y, partitions): output (N, C_out, H, W) and one WindowPartition
        per sample.

    The two branch accumulations walk taps in the fixed order (input
    channel, kernel row, kernel column), one vectorized step per tap, so
    every output scalar is produced by the same floating-point sequence
    as the scalar reference loop.
    """
    out, partitions, _ = _gated_forward(x, params, _route)
    return out, partitions


def cac_forward_soft(
    x: np.ndarray, params: CacConvParams
) -> tuple[np.ndarray, list[WindowPartition], SoftCache]:
    """Training forward: blend the branches with the gate score.

    Output pixel i is  M_i * (k x k branch) + (1 - M_i) * (1 x 1 branch),
    which coincides with the hard routing as the gate saturates and gives
    the gate parameters exact gradients from the task loss.
    """
    return _gated_forward(x, params, _blend)


def cac_backward(
    cache: SoftCache, dy: np.ndarray, extra_score_grad: np.ndarray | float | None = None
) -> CacGrads:
    """Exact reverse pass of :func:`cac_forward_soft`.

    Args:
        cache: the forward's SoftCache.
        dy: upstream gradient (N, C_out, H, W).
        extra_score_grad: optional additional dL/dM injected directly at
            the score map (the differentiable cost objective uses this to
            route its pressure into the gate); scalar or broadcastable to
            the score map's shape.

    Returns:
        CacGrads with gradients for the input, the kernel, the gate gain
        and bias, and the channel bias.

    The kernel gradient combines the sharp branch with the smooth branch
    distributed uniformly over the spatial taps (the aggregated 1 x 1
    kernel is the tap sum, so its gradient spreads equally).  The input
    gradient combines both branches plus the path through the channel
    mean, the Sobel maps, and the gate.
    """
    params = cache.params
    x = cache.x
    n_batch, c_in, n = x.shape[0], x.shape[1], x.shape[2]
    require(
        dy.shape == (n_batch, params.c_out, n, n),
        f"dy shape {dy.shape} does not match forward output "
        f"{(n_batch, params.c_out, n, n)}",
    )
    k = params.k
    k2 = k * k
    score = cache.score
    m_flat = score.reshape(-1, 1)
    dyf = dy.transpose(0, 2, 3, 1).reshape(-1, params.c_out)

    dbias = dyf.sum(axis=0) if params.bias is not None else None

    dy_kxk = m_flat * dyf
    dy_1x1 = (1.0 - m_flat) * dyf

    # Gate path: dL/dM from the blend, plus any externally injected term.
    dscore = ((cache.y_kxk - cache.y_1x1) * dyf).sum(axis=1).reshape(score.shape)
    if extra_score_grad is not None:
        dscore = dscore + np.asarray(extra_score_grad, dtype=score.dtype)
    dz = dscore * score * (1.0 - score)
    dgamma = float((dz * cache.grad).sum())
    dbeta = float(dz.sum())
    dgrad = np.asarray(params.gamma * dz, dtype=x.dtype)
    dxbar = sobel_gradient_backward(dgrad, cache.gx, cache.gy, cache.grad)
    dx = np.repeat(dxbar / c_in, c_in, axis=1)

    # Sharp branch.
    dweight, dx_kxk = _conv2d_backward(
        cache.cols, params.weight.astype(x.dtype, copy=False), dy_kxk, n_batch, n
    )
    dx += dx_kxk

    # Smooth branch through the aggregated kernel.
    dwphi = cache.pbar @ dy_1x1
    dweight += dwphi[None, None, :, :]
    wphi = aggregate_kernel(params.weight.astype(x.dtype, copy=False))
    dpbar = wphi @ dy_1x1.T
    if params.pbar_mode == "center":
        dx += dpbar.reshape(c_in, n_batch, n, n).transpose(1, 0, 2, 3)
    else:
        spread = np.broadcast_to(
            (dpbar / k2)[:, None, :], (c_in, k2, dpbar.shape[1])
        ).reshape(c_in * k2, -1)
        dx += col2im_batch(np.ascontiguousarray(spread), n_batch, c_in, n, k)

    return CacGrads(dx=dx, dweight=dweight, dgamma=dgamma, dbeta=dbeta, dbias=dbias)
