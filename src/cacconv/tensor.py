"""NCHW tensor helpers and im2col-based convolution primitives.

Conventions used across the package:

* activations are float arrays of shape (N, C, H, W) with H == W == n,
  stored row-major (C-contiguous), float32 by default and float64 in
  verification mode;
* kernels are (k, k, c_in, c_out) with odd k, stride fixed at 1, and
  zero same-padding of (k - 1) // 2;
* a column matrix (``im2col_batch``) holds one vectorized window per
  output pixel.  Rows are ordered channel-major: row index
  r = ci * k^2 + ky * k + kx.  Walking a column top to bottom therefore
  reproduces the fixed summation order of the direct convolution loop
  (input channel outer, kernel row, kernel column), which the
  masked-dispatch fast path relies on for bit-exact agreement with the
  reference loop.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument, NumericFailure

DEFAULT_DTYPE = np.float32


def require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidArgument(message)


def check_finite(arr: np.ndarray, name: str = "array") -> None:
    if not np.isfinite(arr).all():
        raise NumericFailure(f"{name} contains non-finite values")


def _check_nchw(x: np.ndarray) -> tuple[int, int, int, int]:
    require(x.ndim == 4, f"expected rank-4 (N, C, H, W) array, got rank {x.ndim}")
    n, c, h, w = x.shape
    require(min(x.shape) >= 1, f"all dimensions must be >= 1, got {x.shape}")
    return n, c, h, w


def _check_kernel(w: np.ndarray) -> tuple[int, int, int]:
    require(w.ndim == 4, f"expected kernel of rank 4 (k, k, c_in, c_out), got rank {w.ndim}")
    k, k2, c_in, c_out = w.shape
    require(k == k2, f"kernel must be square, got {k}x{k2}")
    require(k % 2 == 1, f"kernel size must be odd, got {k}")
    return k, c_in, c_out


def _padded_planes(x: np.ndarray, pad: int) -> np.ndarray:
    """``x`` as zero-padded channel-major planes (C, N, n + 2 pad, n + 2 pad):
    the one window layout.  Tap (ky, kx) of the window centred on output
    pixel (b, y, x) is ``planes[:, b, y + ky, x + kx]``."""
    n_batch, c, h, w = x.shape
    planes = np.zeros((c, n_batch, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    planes[:, :, pad:pad + h, pad:pad + w] = x.transpose(1, 0, 2, 3)
    return planes


def _tap_slabs(planes: np.ndarray, k: int, n: int):
    """Views of ``planes`` holding tap (ky, kx) of every window, shape
    (C, N, n, n), in row order ky * k + kx."""
    for ky in range(k):
        for kx in range(k):
            yield planes[:, :, ky:ky + n, kx:kx + n]


def im2col_batch(x: np.ndarray, k: int, windows: np.ndarray | None = None) -> np.ndarray:
    """Column matrix for a whole batch: shape (k*k*C, N*n*n).

    Columns are ordered (sample, row, col) so that per-sample blocks are
    contiguous and column order within a sample matches output pixel order.

    ``windows``, if given, is a 1-d array of flat window indices
    (b * n^2 + row * n + col); only those columns are built, in that
    order, giving shape (k*k*C, len(windows)).  It equals
    ``im2col_batch(x, k)[:, windows]``; an empty index gives zero columns.
    """
    n_batch, c, h, w = _check_nchw(x)
    require(h == w, f"spatial dims must be square, got {h}x{w}")
    require(k % 2 == 1 and k >= 1, f"kernel size must be odd and >= 1, got {k}")
    pad = (k - 1) // 2
    if windows is None:
        cols = np.empty((c, k * k, n_batch, h, w), dtype=x.dtype)
        for j, slab in enumerate(_tap_slabs(_padded_planes(x, pad), k, h)):
            cols[:, j] = slab
        return cols.reshape(c * k * k, n_batch * h * w)

    windows = np.asarray(windows)
    require(windows.ndim == 1, f"windows must be a 1-d index array, got rank {windows.ndim}")
    require(windows.size == 0 or np.issubdtype(windows.dtype, np.integer),
            f"windows must hold integers, got {windows.dtype}")
    require(windows.size == 0 or (windows.min() >= 0 and windows.max() < n_batch * h * w),
            f"window indices must lie in [0, {n_batch * h * w})")
    if windows.size == 0:
        return np.empty((c * k * k, 0), dtype=x.dtype)
    # In the flattened planes a window's tap (ky, kx) sits ky * side + kx
    # past its top-left pixel, so one index vector per tap serves every
    # channel.
    side = h + 2 * pad
    planes = _padded_planes(x, pad).reshape(c, -1)
    sample, pixel = np.divmod(windows.astype(np.int64), h * w)
    top_left = sample * (side * side) + (pixel // w) * side + pixel % w
    cols = np.empty((c, k * k, windows.size), dtype=x.dtype)
    for j in range(k * k):
        cols[:, j] = planes.take(top_left + (j // k) * side + j % k, axis=1)
    return cols.reshape(c * k * k, windows.size)


def kernel_matrix(w: np.ndarray) -> np.ndarray:
    """Reshape kernel (k, k, c_in, c_out) to (k*k*c_in, c_out).

    Row order matches the rows of :func:`im2col_batch`:
    r = ci * k^2 + ky * k + kx.
    """
    k, _, c_in, c_out = w.shape
    return np.ascontiguousarray(w.transpose(2, 0, 1, 3).reshape(k * k * c_in, c_out))


def conv2d(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Stride-1, zero same-padded convolution via im2col + matmul.

    Args:
        x: input activations (N, C_in, H, W) with H == W.
        w: kernel (k, k, C_in, C_out), k odd.
        bias: optional per-output-channel offsets (C_out,).

    Returns:
        output activations (N, C_out, H, W).
    """
    return _conv2d_with_cols(x, w, bias)[0]


def _conv2d_with_cols(
    x: np.ndarray, w: np.ndarray, bias: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`conv2d`, also returning the column matrix of ``x`` so a
    backward pass can reuse it."""
    n_batch, c_in, h, w_dim = _check_nchw(x)
    require(h == w_dim, f"spatial dims must be square, got {h}x{w_dim}")
    k, kc_in, c_out = _check_kernel(w)
    require(kc_in == c_in, f"channel mismatch: input has {c_in}, kernel expects {kc_in}")
    if bias is not None:
        require(bias.shape == (c_out,), f"bias shape {bias.shape} != ({c_out},)")
    cols = im2col_batch(x, k)
    y = cols.T @ kernel_matrix(w)  # (N*n*n, c_out)
    if bias is not None:
        y = y + bias[None, :]
    out = np.ascontiguousarray(y.reshape(n_batch, h, h, c_out).transpose(0, 3, 1, 2))
    return out, cols


def _conv2d_backward(
    cols: np.ndarray, w: np.ndarray, dyf: np.ndarray, n_batch: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse pass of :func:`_conv2d_with_cols` without the bias.

    ``cols`` is the forward's column matrix and ``dyf`` the upstream
    gradient flattened to (N*n*n, C_out) in output pixel order.  Returns
    the kernel gradient, shaped like ``w``, and the input gradient."""
    k, _, c_in, c_out = w.shape
    dw = np.ascontiguousarray((cols @ dyf).reshape(c_in, k, k, c_out).transpose(1, 2, 0, 3))
    return dw, col2im_batch(kernel_matrix(w) @ dyf.T, n_batch, c_in, n, k)


def col2im_batch(cols: np.ndarray, n_batch: int, c: int, n: int, k: int) -> np.ndarray:
    """Adjoint of im2col_batch: scatter-add columns back onto (N, C, n, n).

    ``cols`` may be any array that reshapes to (C, k*k, N, n, n), a
    broadcast view included.  The padding is discarded.
    """
    pad = (k - 1) // 2
    taps = cols.reshape(c, k * k, n_batch, n, n)
    planes = np.zeros((c, n_batch, n + 2 * pad, n + 2 * pad), dtype=cols.dtype)
    for j, slab in enumerate(_tap_slabs(planes, k, n)):
        slab += taps[:, j]
    return np.ascontiguousarray(planes[:, :, pad:pad + n, pad:pad + n].transpose(1, 0, 2, 3))


def channel_mean(x: np.ndarray) -> np.ndarray:
    """Average feature map over channels: (N, C, H, W) -> (N, 1, H, W).

    Channels are accumulated in ascending index order, then divided by C,
    so the result is bit-reproducible and matches the scalar reference loop.
    """
    _, c, _, _ = _check_nchw(x)
    acc = x[:, 0].astype(x.dtype, copy=True)
    for ci in range(1, c):
        acc += x[:, ci]
    acc /= c
    return acc[:, None]
