"""Brute-force reference implementations and counting instruments.

Everything here trades speed for obviousness: plain nested Python loops
over scalars, no im2col, no BLAS.  These are the ground truth the fast
paths are tested against, so they must stay independent of
:mod:`cacconv.tensor` and :mod:`cacconv.cac` (only parameter containers
are shared).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cac import CacConvParams, WindowPartition
from .errors import NumericFailure
from .tensor import require


@dataclass
class MaddsCounter:
    """Tally of scalar multiply-accumulate operations."""

    count: int = 0

    def add(self, n: int = 1) -> None:
        require(n >= 0, "counter increments must be non-negative")
        self.count += n

    def reset(self) -> None:
        self.count = 0


def conv2d_naive(
    x: np.ndarray,
    w: np.ndarray,
    bias: np.ndarray | None = None,
    counter: MaddsCounter | None = None,
) -> np.ndarray:
    """Dense same-padding convolution as six nested scalar loops.

    Counts one multiply-accumulate per kernel tap per output scalar,
    including taps that land in the zero padding (dense accounting:
    k^2 * c_in MAdds per output pixel regardless of position).
    """
    require(x.ndim == 4, "expected input of shape (N, C, H, W)")
    require(w.ndim == 4, "expected kernel of shape (k, k, c_in, c_out)")
    n_batch, c_in, h, wd = x.shape
    k = w.shape[0]
    require(w.shape[1] == k, "kernel must be spatially square")
    require(k % 2 == 1, f"kernel size must be odd, got {k}")
    require(w.shape[2] == c_in, f"channel mismatch: {w.shape[2]} vs input {c_in}")
    require(h == wd, f"spatial dims must be square, got {h}x{wd}")
    c_out = w.shape[3]
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    zero = x.dtype.type(0.0)

    out = np.empty((n_batch, c_out, h, h), dtype=x.dtype)
    for b in range(n_batch):
        for co in range(c_out):
            for y in range(h):
                for xo in range(h):
                    acc = zero
                    for ci in range(c_in):
                        for ky in range(k):
                            for kx in range(k):
                                acc = acc + xp[b, ci, y + ky, xo + kx] * w[ky, kx, ci, co]
                                if counter is not None:
                                    counter.add(1)
                    if bias is not None:
                        acc = acc + bias[co]
                    out[b, co, y, xo] = acc
    return out


def _sigmoid_scalar(z):
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    ez = np.exp(z)
    return ez / (1.0 + ez)


def _sobel_maps_naive(xbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-direction Sobel on one (H, W) map, scalar arithmetic, replicate
    borders.  Returns (gx, gy)."""
    h, w = xbar.shape
    dt = -1.0, 0.0, 1.0
    sm = 1.0, 2.0, 1.0

    def hpass(src, taps):
        out = np.empty_like(src)
        for y in range(h):
            for x in range(w):
                a = src[y, max(x - 1, 0)]
                b = src[y, x]
                c = src[y, min(x + 1, w - 1)]
                out[y, x] = a * taps[0] + b * taps[1] + c * taps[2]
        return out

    def vpass(src, taps):
        out = np.empty_like(src)
        for y in range(h):
            for x in range(w):
                a = src[max(y - 1, 0), x]
                b = src[y, x]
                c = src[min(y + 1, h - 1), x]
                out[y, x] = a * taps[0] + b * taps[1] + c * taps[2]
        return out

    gx = vpass(hpass(xbar, dt), sm)
    gy = vpass(hpass(xbar, sm), dt)
    return gx, gy


def cac_forward_naive(
    x: np.ndarray,
    params: CacConvParams,
    counter: MaddsCounter | None = None,
) -> tuple[np.ndarray, list[WindowPartition]]:
    """Literal per-window transcription of the hard routing.

    For each output pixel: compute the channel-mean image, its Sobel
    magnitude, the gate score, then run either the full k x k kernel or
    the aggregated 1 x 1 kernel on the window representative.  Scalar
    operations throughout, in the same order as the vectorized hard
    path, so results must match that path bit for bit.

    Counter accounting (convolution branches only, scoring excluded):
    sharp pixel -> k^2 * c_in MAdds per output channel; smooth pixel ->
    c_in MAdds per output channel.
    """
    require(x.ndim == 4, "expected input of shape (N, C, H, W)")
    n_batch, c_in, h, wd = x.shape
    require(h == wd, f"spatial dims must be square, got {h}x{wd}")
    k = params.k
    require(h >= k, f"spatial side {h} smaller than kernel size {k}")
    require(c_in == params.c_in, f"channel mismatch: input {c_in} vs kernel {params.c_in}")
    w = params.weight.astype(x.dtype, copy=False)
    c_out = params.c_out
    pad = params.pad
    k2 = k * k
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    zero = x.dtype.type(0.0)

    # Aggregated kernel, taps summed in fixed row-major order.
    wphi = np.zeros((c_in, c_out), dtype=w.dtype)
    for ci in range(c_in):
        for co in range(c_out):
            acc = zero
            for ky in range(k):
                for kx in range(k):
                    acc = acc + w[ky, kx, ci, co]
            wphi[ci, co] = acc

    out = np.empty((n_batch, c_out, h, h), dtype=x.dtype)
    partitions = []
    for b in range(n_batch):
        xbar = np.empty((h, h), dtype=x.dtype)
        for y in range(h):
            for xo in range(h):
                acc = zero
                for ci in range(c_in):
                    acc = acc + x[b, ci, y, xo]
                xbar[y, xo] = acc / c_in

        gx, gy = _sobel_maps_naive(xbar)
        grad = np.empty_like(xbar)
        score = np.empty_like(xbar)
        mask = np.empty((h, h), dtype=bool)
        for y in range(h):
            for xo in range(h):
                g = np.sqrt(gx[y, xo] * gx[y, xo] + gy[y, xo] * gy[y, xo])
                grad[y, xo] = g
                m = _sigmoid_scalar(g * params.gamma + params.beta)
                score[y, xo] = m
                mask[y, xo] = m > 0.5

        for y in range(h):
            for xo in range(h):
                if mask[y, xo]:
                    for co in range(c_out):
                        acc = zero
                        for ci in range(c_in):
                            for ky in range(k):
                                for kx in range(k):
                                    acc = acc + xp[b, ci, y + ky, xo + kx] * w[ky, kx, ci, co]
                                    if counter is not None:
                                        counter.add(1)
                        if params.bias is not None:
                            acc = acc + params.bias[co]
                        out[b, co, y, xo] = acc
                else:
                    pbar = np.empty(c_in, dtype=x.dtype)
                    for ci in range(c_in):
                        if params.pbar_mode == "center":
                            pbar[ci] = xp[b, ci, y + pad, xo + pad]
                        else:
                            acc = zero
                            for ky in range(k):
                                for kx in range(k):
                                    acc = acc + xp[b, ci, y + ky, xo + kx]
                            pbar[ci] = acc / k2
                    for co in range(c_out):
                        acc = zero
                        for ci in range(c_in):
                            acc = acc + pbar[ci] * wphi[ci, co]
                            if counter is not None:
                                counter.add(1)
                        if params.bias is not None:
                            acc = acc + params.bias[co]
                        out[b, co, y, xo] = acc

        partitions.append(WindowPartition(gradient=grad, score=score, sharp_mask=mask))
    return out, partitions


def finite_diff_grad(f, theta: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    Args:
        f: callable mapping a 1-d float array to a Python float.
        theta: evaluation point, 1-d.
        eps: probe step; the default suits float64 evaluation.

    Raises NumericFailure if any probe evaluates non-finite, naming the
    offending coordinate.
    """
    require(theta.ndim == 1, "theta must be a flat vector")
    require(eps > 0, "eps must be positive")
    grad = np.zeros(theta.shape, dtype=np.float64)
    for i in range(theta.size):
        tp = theta.astype(np.float64, copy=True)
        tp[i] += eps
        fp = float(f(tp))
        tm = theta.astype(np.float64, copy=True)
        tm[i] -= eps
        fm = float(f(tm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericFailure(
                f"finite-difference probe at coordinate {i} produced a non-finite value"
            )
        grad[i] = (fp - fm) / (2.0 * eps)
    return grad
