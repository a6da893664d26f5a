"""Content-aware convolution: gate windows by gradient magnitude, then
dispatch sharp windows to the full k x k kernel and smooth windows to an
aggregated 1 x 1 kernel.

Two forward modes are provided:

* ``cac_forward_hard`` routes every output pixel through exactly one
  branch (inference behavior) and runs the k x k kernel only where it
  is taken.  Its accumulation order is pinned so that it agrees
  bit-for-bit with the scalar reference loop in :mod:`cacconv.oracle`.
* ``cac_forward_soft`` blends the two branches with the gate score
  (training behavior).  It is differentiable in the kernel, the gate
  parameters, and the input; ``cac_backward`` is its exact reverse pass.
"""

from __future__ import annotations

import contextvars
import io
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .tensor import (
    channel_mean,
    check_finite,
    col2im_batch,
    conv_backward,
    conv_columns,
    im2col_batch,
    kernel_matrix,
    require,
    window_mean,
)

PBAR_MODES = ("center", "mean")

# Columns per tile of the hard path's tap loops; the all-sharp branch
# also builds and sums its columns in chunks of at most this many.  Below
# 4096 columns numpy's broadcast multiply costs about 4x more per element
# (0.65-1.0 ns at 512-2048 columns against 0.15 at 4096, float32, 2-vCPU
# x86 host).  Over the full all-sharp column matrix of the cac_small
# layers 00 / 04 / 08 at batch 64, the tiled loop ran 42-59 / 97 / 92 ms
# at 1024 columns, 10-11 / 21 / 25 ms at 4096 and 10-11 / 27-29 / 25-26
# ms at 8192 (best of 5).  So tiles and chunks stay at 4096 columns, and a
# tap loop shared with the helper thread (below) is cut at a tile boundary
# when it spans two or more tiles, else between output rows, never inside
# a tile: half a tile is on the cliff.
TAP_TILE = 4096

# Tap-loop work, in multiply-adds, from which the hard path shares a loop
# with one helper thread: numpy releases the GIL inside each multiply and
# add, so the halves overlap on two cores; BLAS threads are not touched.
# Below it the loop stays on the calling thread, which covers every batch-1
# layer of cac_small (at most 1.2M) and layer 00's 4096-column chunks at
# batch 64 (1.8M).  On a 2-vCPU x86 host (best of 40, two runs), splitting
# one such chunk between output rows took 0.48-0.89x one thread's time at
# layer 08 (75.5M), 0.67-1.01x at layer 04 (18.9M) and 1.0-1.3x at layer
# 00; the batch-1 loops of layers 04 and 08 took 1.15-2.7x as long.
SPLIT_MADDS = 1 << 22

_POOL: ThreadPoolExecutor | None = None


def _start_pool() -> None:
    """Make the helper pool: one thread, started on first use, and none
    when this process may use only one CPU."""
    global _POOL
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    _POOL = (ThreadPoolExecutor(max_workers=1, thread_name_prefix="cacconv-taps")
             if cpus > 1 else None)


_start_pool()
if hasattr(os, "register_at_fork"):
    # A forked child has no helper thread: a pool copied from the parent
    # would queue work that nothing runs.
    os.register_at_fork(after_in_child=_start_pool)

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
    """Gate state: gradient map, score map, and the hard split.  A gated
    forward's maps are (N, 1, n, n); ``part[b]`` is sample b's partition,
    (n, n) views of them, and iteration and ``zip`` walk the samples."""

    gradient: np.ndarray
    score: np.ndarray
    sharp_mask: np.ndarray

    def __len__(self) -> int:
        return len(self.gradient)

    def __getitem__(self, b: int) -> WindowPartition:
        return WindowPartition(self.gradient[b, 0], self.score[b, 0], self.sharp_mask[b, 0])

    @property
    def total_windows(self) -> int:
        return self.sharp_mask.size

    @property
    def sharp_count(self) -> int:
        return int(self.sharp_mask.sum())

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


def _corr1d(x: np.ndarray, taps, axis: int) -> np.ndarray:
    """Length-3 correlation along ``axis`` with replicate border padding:
    each pixel reads its neighbours along the axis, clamped to the edge."""
    n = x.shape[axis]

    def span(start, stop):
        return x[(slice(None),) * (axis % x.ndim) + (slice(start, stop),)]

    before = np.concatenate([span(0, 1), span(0, n - 1)], axis=axis)
    after = np.concatenate([span(1, n), span(n - 1, n)], axis=axis)
    return before * taps[0] + x * taps[1] + after * taps[2]


def _corr1d_adjoint(g: np.ndarray, taps, axis: int) -> np.ndarray:
    """Adjoint of ``_corr1d``: spreads output gradients back onto inputs.

    Pixel i adds taps[0] * g[i + 1], taps[1] * g[i] and taps[2] * g[i - 1]
    from zero, in that order, where those exist.  The edge pixels then fold
    in the replicate border's terms, each summed from zero first."""
    n = g.shape[axis]

    def span(start, stop):
        return (slice(None),) * (axis % g.ndim) + (slice(start, stop),)

    dx = np.zeros_like(g)
    dx[span(0, n - 1)] += taps[0] * g[span(1, n)]
    dx += taps[1] * g
    dx[span(1, n)] += taps[2] * g[span(0, n - 1)]
    dx[span(0, 1)] += 0.0 + taps[0] * g[span(0, 1)]
    dx[span(n - 1, n)] += 0.0 + taps[2] * g[span(n - 1, n)]
    return dx


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
    scale = np.divide(dgrad, grad, out=np.zeros_like(grad), where=grad > 0)
    dgx = scale * gx
    dgy = scale * gy
    dxbar = _corr1d_adjoint(_corr1d_adjoint(dgx, SMOOTH_TAPS, axis=-2), DERIV_TAPS, axis=-1)
    dxbar += _corr1d_adjoint(_corr1d_adjoint(dgy, DERIV_TAPS, axis=-2), SMOOTH_TAPS, axis=-1)
    return dxbar


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically guarded logistic: no overflow for any finite input."""
    z = np.asarray(z)
    t = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, t) / (1.0 + t)


def score_map(grad: np.ndarray, gamma: float, beta: float) -> np.ndarray:
    """Gate scores: elementwise logistic of gamma * G + beta.

    The gate's one finiteness check.  A non-finite input pixel, a channel
    sum that overflows, or a NaN gamma or beta reaches the scores as NaN;
    a finite gradient map whose magnitude overflows to inf scores 0 or 1.
    """
    score = sigmoid(grad * gamma + beta)
    check_finite(score, "gate score map")
    return score


@dataclass
class SoftCache:
    """Everything the soft forward must retain for its backward pass.

    It lives as long as its holder keeps it.  ``CacConv2d`` keeps it from a
    training forward until the backward that reads it, then drops it;
    ``cac_backward`` only reads it, so a caller that keeps one may run
    several backwards on it.  The backward reads ``partition``'s gradient
    and score maps; the partition holds no reference back to the cache."""

    cols: np.ndarray          # (k^2 c_in, N n^2)
    pbar: np.ndarray          # (c_in, N n^2)
    gx: np.ndarray
    gy: np.ndarray
    partition: WindowPartition
    y_diff: np.ndarray        # (N n^2, c_out): k x k branch minus 1 x 1 branch
    params: CacConvParams


@dataclass
class CacGrads:
    dx: np.ndarray | None     # None when the input gradient was not asked for
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


def _pbar_map(x: np.ndarray, params: CacConvParams) -> np.ndarray:
    """Per-window representative pixel, one row per input channel, for
    every window.

    ``center`` takes each window's center (the input pixel itself), read
    from ``x``; ``mean`` averages all k^2 taps of the zero-padded window
    (:func:`~cacconv.tensor.window_mean`)."""
    if params.pbar_mode == "center":
        return x.transpose(1, 0, 2, 3).reshape(x.shape[1], -1)
    return window_mean(x, params.k)


def _gated_forward(x: np.ndarray, params: CacConvParams, mix):
    """Skeleton shared by both forwards.

    Validates the input, evaluates the gate (score map and hard mask),
    then calls ``mix(x, w, score, mask, params)``.  ``mix`` returns the
    branch output before bias, shape (C_out, N n^2), together with the
    fields of the ``SoftCache`` the soft backward needs (None if it needs
    none).  Adds the bias, returns to NCHW, and returns
    (out, partition, cache).
    """
    n_batch, _, n = _validate_cac_input(x, params)
    w = params.weight.astype(x.dtype, copy=False)
    grad, gx, gy, score = _gate_maps(x, params)
    # Strict: a score of exactly 0.5 routes smooth.
    part = WindowPartition(gradient=grad, score=score, sharp_mask=score > 0.5)
    y, saved = mix(x, w, score, part.sharp_mask, params)
    if params.bias is not None:
        y += params.bias.astype(x.dtype, copy=False)[:, None]
    out = np.ascontiguousarray(y.reshape(params.c_out, n_batch, n, n).transpose(1, 0, 2, 3))
    cache = None if saved is None else SoftCache(
        gx=gx, gy=gy, partition=part, params=params, **saved)
    return out, part, cache


def _taps(wmat: np.ndarray, rows: np.ndarray, out: np.ndarray):
    """The loop that adds the sum over r of the outer product
    wmat[r] x rows[r] to the zeroed ``out``, shape (c_out, columns), as a
    function of no arguments.  Each output column accumulates from zero
    one tap at a time in row order: the summation order of the scalar
    reference loop.  Columns are independent, so they run in tiles of
    ``TAP_TILE``.

    The product buffer is allocated here, so that a loop run on the
    helper thread allocates no array buffer: it calls numpy's multiply
    and add only."""
    tmp = np.empty((out.shape[0], min(TAP_TILE, rows.shape[1])), dtype=rows.dtype)

    def loop():
        for start in range(0, rows.shape[1], TAP_TILE):
            tile = rows[:, start:start + TAP_TILE]
            acc = out[:, start:start + TAP_TILE]
            prod = tmp[:, :tile.shape[1]]
            for r in range(wmat.shape[0]):
                np.multiply(wmat[r][:, None], tile[r][None, :], out=prod)
                acc += prod

    return loop


def _on_two_threads(helper_half, caller_half) -> None:
    """Run ``helper_half`` on the helper thread and ``caller_half`` on this
    one, and return once both have stopped.

    The helper's half runs in a copy of this thread's context, so numpy's
    ``errstate`` and ``bufsize`` hold there too.  Both halves write into
    the caller's buffers, so an exception from either one is raised only
    after the helper's half has stopped: the caller's first, else the
    helper's."""
    future = _POOL.submit(contextvars.copy_context().run, helper_half)
    try:
        caller_half()
    finally:
        future.exception()  # waits; the helper's exception is raised below
    future.result()


def _tap_loop(wmat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sum over r of the outer product wmat[r] x rows[r], shape
    (c_out, columns), each column summed in the reference loop's order
    (``_taps``).

    Work of at least ``SPLIT_MADDS`` is split with the helper thread: at
    the ``TAP_TILE`` boundary nearest the middle when the columns span two
    or more tiles, else by halves of the output rows.  Either way every
    output scalar runs the same multiplies and adds, so the split changes
    no bit.  Work below that, and a single output row narrower than two
    tiles, stays on the calling thread."""
    out = np.zeros((wmat.shape[1], rows.shape[1]), dtype=rows.dtype)
    c_out, columns = out.shape
    split = _POOL is not None and wmat.size * columns >= SPLIT_MADDS
    if split and columns >= 2 * TAP_TILE:
        mid = round(columns / (2 * TAP_TILE)) * TAP_TILE
        _on_two_threads(_taps(wmat, rows[:, mid:], out[:, mid:]),
                        _taps(wmat, rows[:, :mid], out[:, :mid]))
    elif split and c_out >= 2:
        half = c_out // 2
        _on_two_threads(_taps(wmat[:, half:], rows, out[half:]),
                        _taps(wmat[:, :half], rows, out[:half]))
    else:
        _taps(wmat, rows, out)()
    return out


def _route(x, w, score, mask, params):
    """Hard routing: each output pixel takes only the branch its mask
    selects.

    The 1 x 1 taps run over every window's representative pixel, which
    needs no window index.  The sharp windows' gathered columns then run
    the k x k taps, and those results overwrite their columns: one
    scatter, of sharp columns only.  The 1 x 1 work thrown away on a
    sharp window is at most 1/k^2 of its k x k work.  Both tap loops
    split with the helper thread as ``_tap_loop`` says.

    When every window is sharp, nothing is scattered: the k x k taps run
    over the full column matrix, built and summed one chunk of whole
    images at a time.  Each chunk's sums land in a contiguous buffer and
    are then copied into their columns of the output: accumulating in
    place into a (c_out, N n^2) output, whose row stride is a power of two
    at the cac_small shapes, was slower.  No window reads across an
    image's edge, so a chunk's columns are exactly the full matrix's
    columns for its windows.  Each chunk's tap loop splits as
    ``_tap_loop`` says and ends before the next chunk's columns are
    built, so one chunk's column matrix is alive at a time.  Only this
    thread calls ``im2col_batch``."""
    sharp = np.flatnonzero(mask.reshape(-1))
    if sharp.size == mask.size:
        n_batch, n2 = x.shape[0], x.shape[2] * x.shape[3]
        wmat = kernel_matrix(w)
        y = np.empty((params.c_out, n_batch * n2), dtype=x.dtype)
        step = max(1, TAP_TILE // n2)
        for b0 in range(0, n_batch, step):
            b1 = min(b0 + step, n_batch)
            y[:, b0 * n2:b1 * n2] = _tap_loop(wmat, im2col_batch(x[b0:b1], params.k))
        return y, None
    y = _tap_loop(aggregate_kernel(w), _pbar_map(x, params))
    y_sharp = _tap_loop(kernel_matrix(w), im2col_batch(x, params.k, sharp))
    # Row by row: a 1-d scatter is 3-4x faster than y[:, sharp] = ...
    for row, sharp_row in zip(y, y_sharp):
        row[sharp] = sharp_row
    return y, None


def _blend(x, w, score, mask, params):
    """Soft routing: each output pixel is the score-weighted blend."""
    cols, y = conv_columns(x, w)
    pbar = _pbar_map(x, params)
    y_1x1 = pbar.T @ aggregate_kernel(w)
    y_diff = y - y_1x1
    # M * y_kxk + (1 - M) * y_1x1, in that order, in the branches' buffers.
    m_flat = score.reshape(-1, 1)
    y *= m_flat
    y_1x1 *= 1.0 - m_flat
    y += y_1x1
    return y.T, {"cols": cols, "pbar": pbar, "y_diff": y_diff}


def cac_forward_hard(
    x: np.ndarray, params: CacConvParams
) -> tuple[np.ndarray, WindowPartition]:
    """Inference forward: every output pixel takes exactly one branch.

    Args:
        x: input activations (N, C_in, H, W), H == W >= k.
        params: layer parameters; the gate is evaluated per sample on the
            channel-mean Sobel magnitude of this input.

    Returns:
        (y, partition): output (N, C_out, H, W) and the batch's
        WindowPartition, whose maps are (N, 1, H, W).

    Only the sharp windows' columns are gathered (``im2col_batch`` with
    window indices) and run the k x k kernel, so its work follows the
    sharp fraction; the cheap 1 x 1 kernel runs on every window.  When
    every window is sharp, the 1 x 1 kernel is skipped and the columns
    are built one chunk of whole images at a time instead.  The two
    branch accumulations walk taps in the fixed order (input channel,
    kernel row, kernel column), one vectorized step per tap, so every
    output scalar is produced by the same floating-point sequence as the
    scalar reference loop.

    Uses up to two cores.  A tap loop of at least ``SPLIT_MADDS``
    multiply-adds runs half on this thread and half on one helper
    thread, split at a column tile edge when it spans two or more tiles,
    else between output rows; smaller loops, such as every batch-1 layer
    of ``cac_small``, run on this thread alone.  The split changes no
    output bit, and the helper calls numpy only, under this thread's
    numpy error state.
    """
    return _gated_forward(x, params, _route)[:2]


def cac_forward_soft(
    x: np.ndarray, params: CacConvParams
) -> tuple[np.ndarray, WindowPartition, SoftCache]:
    """Training forward: blend the branches with the gate score.

    Output pixel i is  M_i * (k x k branch) + (1 - M_i) * (1 x 1 branch),
    which coincides with the hard routing as the gate saturates and gives
    the gate parameters exact gradients from the task loss.  Returns
    (y, partition, cache): the hard forward's pair and the ``SoftCache``.
    """
    return _gated_forward(x, params, _blend)


def cac_backward(
    cache: SoftCache,
    dy: np.ndarray,
    extra_score_grad: np.ndarray | float | None = None,
    *,
    input_grad: bool = True,
) -> CacGrads:
    """Exact reverse pass of :func:`cac_forward_soft`.

    Args:
        cache: the forward's SoftCache.
        dy: upstream gradient (N, C_out, H, W).
        extra_score_grad: optional additional dL/dM injected directly at
            the score map (the differentiable cost objective uses this to
            route its pressure into the gate); scalar or broadcastable to
            the score map's shape.
        input_grad: whether to compute the input gradient.  A network's
            bottom layer passes False, since nothing reads the gradient of
            the network's input.

    Returns:
        CacGrads with gradients for the input (None unless
        ``input_grad``), the kernel, the gate gain and bias, and the
        channel bias.

    The kernel gradient combines the sharp branch with the smooth branch
    distributed uniformly over the spatial taps (the aggregated 1 x 1
    kernel is the tap sum, so its gradient spreads equally).  The input
    gradient combines both branches plus the path through the channel
    mean, the Sobel maps, and the gate.
    """
    params = cache.params
    grad, score = cache.partition.gradient, cache.partition.score
    n_batch, c_in, n = grad.shape[0], params.c_in, grad.shape[2]
    dtype = cache.cols.dtype
    require(
        dy.shape == (n_batch, params.c_out, n, n),
        f"dy shape {dy.shape} does not match forward output "
        f"{(n_batch, params.c_out, n, n)}",
    )
    k = params.k
    k2 = k * k
    m_flat = score.reshape(-1, 1)
    dyf = dy.transpose(0, 2, 3, 1).reshape(-1, params.c_out)
    w = params.weight.astype(dtype, copy=False)

    dbias = dyf.sum(axis=0) if params.bias is not None else None

    dy_kxk = m_flat * dyf
    dy_1x1 = (1.0 - m_flat) * dyf

    # Gate path: dL/dM from the blend, plus any externally injected term.
    dscore = (cache.y_diff * dyf).sum(axis=1).reshape(score.shape)
    if extra_score_grad is not None:
        dscore = dscore + np.asarray(extra_score_grad, dtype=score.dtype)
    dz = dscore * score * (1.0 - score)
    dgamma = float((dz * grad).sum())
    dbeta = float(dz.sum())

    # Kernel and input through the sharp branch; the kernel also gets the
    # smooth branch through the aggregated kernel, spread over the taps.
    dweight, dx = conv_backward(cache.cols, w, dy_kxk, n, input_grad=input_grad)
    dweight += (cache.pbar @ dy_1x1)[None, None, :, :]

    if input_grad:
        dgrad = np.asarray(params.gamma * dz, dtype=dtype)
        dxbar = sobel_gradient_backward(dgrad, cache.gx, cache.gy, grad)
        # dxbar / c_in for every channel, added to the sharp branch by
        # broadcast in dxbar's dtype: the bits of np.repeat(dxbar / c_in,
        # c_in, axis=1) + dx, as addition commutes.
        dx = np.add(dx, dxbar / c_in, out=dx if dx.dtype == dxbar.dtype else
                    np.empty(dx.shape, dxbar.dtype))
        # Smooth branch through the aggregated kernel.
        dpbar = aggregate_kernel(w) @ dy_1x1.T
        if params.pbar_mode == "center":
            dx += dpbar.reshape(c_in, n_batch, n, n).transpose(1, 0, 2, 3)
        else:
            spread = np.broadcast_to((dpbar / k2)[:, None, :], (c_in, k2, dpbar.shape[1]))
            dx += col2im_batch(spread, n_batch, c_in, n, k)

    return CacGrads(dx=dx, dweight=dweight, dgamma=dgamma, dbeta=dbeta, dbias=dbias)
