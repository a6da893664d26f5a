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


def _taps(k: int) -> list[tuple[int, int]]:
    """Offset (dy, dx) of each tap's pixel from its window's centre, in
    row order ky * k + kx."""
    pad = (k - 1) // 2
    return [(ky - pad, kx - pad) for ky in range(k) for kx in range(k)]


def _planes(x: np.ndarray) -> np.ndarray:
    """``x`` as channel-major flat planes (C, N n^2 + 1): the one window
    layout.  Column i = b n^2 + y n + x holds pixel (b, y, x), so tap
    (dy, dx) of the window centred there is column i + dy n + dx whenever
    it stays inside the plane.  The last column is +0.0, which a gathered
    tap that leaves the plane reads."""
    n_batch, c, h, w = x.shape
    size = n_batch * h * w
    planes = np.empty((c, size + 1), dtype=x.dtype)
    planes[:, :size].reshape(c, n_batch, h * w)[...] = (
        x.reshape(n_batch, c, h * w).transpose(1, 0, 2))
    planes[:, size] = 0.0
    return planes


def _span(shift: int, size: int) -> tuple[slice, slice]:
    """Slices of the windows i, and of the columns i + shift they read,
    over which i + shift stays in [0, size): a tap's one contiguous run."""
    lo = max(0, -shift)
    hi = max(lo, min(size, size - shift))
    return slice(lo, hi), slice(lo + shift, hi + shift)


def _outside(d: int, n: int) -> slice | None:
    """Rows (or columns) of an n x n plane whose neighbour d away lies
    outside the plane, clamped to the plane; None when there are none."""
    if d > 0:
        return slice(max(n - d, 0), n)
    if d < 0:
        return slice(0, min(-d, n))
    return None


def _fill_outside(slab: np.ndarray, dy: int, dx: int, n: int, value: float) -> None:
    """Set the windows of ``slab`` (C, N n^2) whose tap (dy, dx) leaves the
    plane to ``value``."""
    grid = slab.reshape(slab.shape[0], -1, n, n)
    rows, cols = _outside(dy, n), _outside(dx, n)
    if rows is not None:
        grid[:, :, rows] = value
    if cols is not None:
        grid[:, :, :, cols] = value


def _tap_slab(planes: np.ndarray, dy: int, dx: int, n: int, out: np.ndarray) -> None:
    """Write tap (dy, dx) of every window into ``out`` (C, N n^2): one
    contiguous copy per channel, then +0.0 where the tap leaves the plane,
    as zero padding reads."""
    windows, columns = _span(dy * n + dx, out.shape[1])
    out[:, windows] = planes[:, columns]
    _fill_outside(out, dy, dx, n, 0.0)


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
    size = n_batch * h * w
    if windows is None:
        planes = _planes(x)
        cols = np.empty((c, k * k, size), dtype=x.dtype)
        for j, (dy, dx) in enumerate(_taps(k)):
            _tap_slab(planes, dy, dx, h, cols[:, j])
        return cols.reshape(c * k * k, size)

    windows = np.asarray(windows)
    require(windows.ndim == 1, f"windows must be a 1-d index array, got rank {windows.ndim}")
    require(windows.size == 0 or np.issubdtype(windows.dtype, np.integer),
            f"windows must hold integers, got {windows.dtype}")
    require(windows.size == 0 or (windows.min() >= 0 and windows.max() < size),
            f"window indices must lie in [0, {size})")
    if windows.size == 0:
        return np.empty((c * k * k, 0), dtype=x.dtype)
    planes = _planes(x)
    windows = windows.astype(np.int64)
    row, col = np.divmod(windows % (h * w), w)
    cols = np.empty((c, k * k, windows.size), dtype=x.dtype)
    for j, (dy, dx) in enumerate(_taps(k)):
        inside = (row + dy >= 0) & (row + dy < h) & (col + dx >= 0) & (col + dx < w)
        cols[:, j] = planes.take(np.where(inside, windows + dy * w + dx, size), axis=1)
    return cols.reshape(c * k * k, windows.size)


def window_mean(x: np.ndarray, k: int) -> np.ndarray:
    """Mean of every zero-padded k x k window, one row per channel: shape
    (C, N*n*n), in the column order of :func:`im2col_batch`.  Each sum
    starts from +0.0 and adds the taps in row order (the order of the
    column matrix's rows), with no column matrix built."""
    n_batch, c, n, _ = x.shape
    planes = _planes(x)
    acc = np.zeros((c, n_batch * n * n), dtype=x.dtype)
    slab = np.empty_like(acc)
    for dy, dx in _taps(k):
        _tap_slab(planes, dy, dx, n, slab)
        acc += slab
    acc /= k * k
    return acc


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


def _conv2d_weight_grad(cols: np.ndarray, w: np.ndarray, dyf: np.ndarray) -> np.ndarray:
    """Kernel gradient of :func:`_conv2d_with_cols`, shaped like ``w``.

    ``cols`` is the forward's column matrix and ``dyf`` the upstream
    gradient flattened to (N*n*n, C_out) in output pixel order."""
    k, _, c_in, c_out = w.shape
    return np.ascontiguousarray((cols @ dyf).reshape(c_in, k, k, c_out).transpose(1, 2, 0, 3))


def _conv2d_input_grad(w: np.ndarray, dyf: np.ndarray, n_batch: int, n: int) -> np.ndarray:
    """Input gradient (N, C_in, n, n) of :func:`_conv2d_with_cols`, for
    ``dyf`` flattened as in :func:`_conv2d_weight_grad`."""
    k, _, c_in, _ = w.shape
    return col2im_batch(kernel_matrix(w) @ dyf.T, n_batch, c_in, n, k)


def col2im_batch(cols: np.ndarray, n_batch: int, c: int, n: int, k: int) -> np.ndarray:
    """Adjoint of im2col_batch: scatter-add columns back onto (N, C, n, n).

    ``cols`` may be any array that reshapes to (C, k*k, N, n, n), a
    broadcast view included; it is never written.  Every pixel adds its
    taps from +0.0 in row order.  A tap that leaves the plane is added as
    -0.0, which leaves any sum unchanged, so each tap is one contiguous
    add per channel.
    """
    size = n_batch * n * n
    taps = cols.reshape(c, k * k, size)
    acc = np.zeros((c, size), dtype=cols.dtype)
    slab = np.empty_like(acc)
    for j, (dy, dx) in enumerate(_taps(k)):
        slab[...] = taps[:, j]
        _fill_outside(slab, dy, dx, n, -0.0)
        windows, columns = _span(dy * n + dx, size)
        acc[:, columns] += slab[:, windows]
    return np.ascontiguousarray(acc.reshape(c, n_batch, n, n).transpose(1, 0, 2, 3))


def channel_mean(x: np.ndarray) -> np.ndarray:
    """Average feature map over channels: (N, C, H, W) -> (N, 1, H, W).

    Channels are added to +0.0 in ascending index order, then divided by
    C: the scalar reference loop's steps, so the bits match it.
    """
    _, c, _, _ = _check_nchw(x)
    acc = x[:, 0] + 0.0
    for ci in range(1, c):
        acc += x[:, ci]
    acc /= c
    return acc[:, None]
