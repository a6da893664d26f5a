import numpy as np
import pytest

from cacconv import InvalidArgument, conv2d, im2col_batch, kernel_matrix
from cacconv.oracle import conv2d_naive
from cacconv.tensor import channel_mean, col2im_batch, window_mean


class TestIm2col:
    def test_row_order_is_channel_major_then_kernel_position(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        cols = im2col_batch(x, 3)
        assert cols.shape == (2 * 9, 25)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for ci in range(2):
            for ky in range(3):
                for kx in range(3):
                    r = ci * 9 + ky * 3 + kx
                    for y in range(5):
                        for xo in range(5):
                            assert cols[r, y * 5 + xo] == xp[0, ci, y + ky, xo + kx]

    @pytest.mark.parametrize("k", [3, 5])
    def test_window_subset_equals_columns_of_full_matrix(self, k):
        rng = np.random.default_rng(20 + k)
        x = rng.standard_normal((3, 2, 6, 6)).astype(np.float32)
        full = im2col_batch(x, k)
        total = full.shape[1]
        for windows in (
            np.array([], dtype=np.int64),
            np.sort(rng.choice(total, 40, replace=False)),
            rng.permutation(total)[:25],
            np.arange(total),
        ):
            cols = im2col_batch(x, k, windows)
            assert cols.shape == (full.shape[0], len(windows))
            assert np.array_equal(cols, full[:, windows])

    def test_window_indices_validated(self):
        x = np.zeros((2, 1, 4, 4), dtype=np.float32)
        for windows in (np.array([32]), np.array([-1]), np.array([0.0]), np.zeros((1, 1), int)):
            with pytest.raises(InvalidArgument):
                im2col_batch(x, 3, windows)

    def test_even_kernel_rejected(self):
        with pytest.raises(InvalidArgument):
            im2col_batch(np.zeros((1, 2, 4, 4), dtype=np.float32), 4)

    def test_kernel_matrix_matches_row_convention(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 3, 2, 4)).astype(np.float32)
        wm = kernel_matrix(w)
        assert wm.shape == (18, 4)
        for ci in range(2):
            for ky in range(3):
                for kx in range(3):
                    assert np.array_equal(wm[ci * 9 + ky * 3 + kx], w[ky, kx, ci])


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 1, 4, 4)).astype(np.float32)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        assert np.allclose(conv2d(x, w), x)

    def test_constant_input_all_ones_kernel(self):
        # zero padding: interior windows see 9 taps, corners only 4
        c = 0.7
        x = np.full((1, 1, 5, 5), c, dtype=np.float32)
        w = np.ones((3, 3, 1, 1), dtype=np.float32)
        y = conv2d(x, w)
        assert np.allclose(y[0, 0, 2, 2], 9 * c, rtol=1e-6)
        assert np.allclose(y[0, 0, 0, 0], 4 * c, rtol=1e-6)
        assert np.allclose(y[0, 0, 0, 2], 6 * c, rtol=1e-6)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(3, 10))
            k = int(rng.choice([1, 3, 5]))
            if k > n:
                k = 1
            ci, co = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            x = rng.standard_normal((2, ci, n, n)).astype(np.float32)
            w = rng.standard_normal((k, k, ci, co)).astype(np.float32)
            b = rng.standard_normal(co).astype(np.float32)
            ref = conv2d_naive(x, w, b)
            got = conv2d(x, w, b)
            assert np.max(np.abs(got - ref)) <= 1e-5 * np.max(np.abs(ref))

    def test_channel_mismatch_rejected(self):
        x = np.zeros((1, 3, 4, 4), dtype=np.float32)
        w = np.zeros((3, 3, 2, 4), dtype=np.float32)
        with pytest.raises(InvalidArgument):
            conv2d(x, w)


class TestCol2Im:
    def test_adjoint_identity(self):
        # <im2col(x), C> == <x, col2im(C)> for random C characterizes the adjoint
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 6, 6))
        cols = im2col_batch(x, 3)
        c = rng.standard_normal(cols.shape)
        lhs = float((cols * c).sum())
        rhs = float((x * col2im_batch(c, 2, 3, 6, 3)).sum())
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("c, n", [(3, 32), (16, 16), (32, 8)])
    def test_bit_for_bit_against_nchw_accumulation(self, c, n):
        # Each tap's slab added into zero NCHW planes in row order, then
        # cropped: the same additions in the same order.
        k, pad, n_batch = 5, 2, 3
        rng = np.random.default_rng(c)
        cols = rng.standard_normal((c * k * k, n_batch * n * n)).astype(np.float32)
        taps = cols.reshape(c, k, k, n_batch, n, n).transpose(3, 0, 1, 2, 4, 5)
        dxp = np.zeros((n_batch, c, n + 2 * pad, n + 2 * pad), dtype=np.float32)
        for ky in range(k):
            for kx in range(k):
                dxp[:, :, ky:ky + n, kx:kx + n] += taps[:, :, ky, kx]
        expected = np.ascontiguousarray(dxp[:, :, pad:pad + n, pad:pad + n])
        got = col2im_batch(cols, n_batch, c, n, k)
        assert got.flags.c_contiguous and got.dtype == np.float32
        assert got.tobytes() == expected.tobytes()


class TestChannelMean:
    def test_two_constant_channels(self):
        x = np.stack([np.full((4, 4), 1.0), np.full((4, 4), 3.0)])[None].astype(np.float32)
        assert np.array_equal(channel_mean(x), np.full((1, 1, 4, 4), 2.0, dtype=np.float32))

    def test_single_channel_unchanged(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
        assert np.array_equal(channel_mean(x), x)

    def test_matches_scalar_accumulation_loop(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 8, 5, 5)).astype(np.float32)
        got = channel_mean(x)
        for y in range(5):
            for xo in range(5):
                acc = np.float32(0.0)
                for ci in range(8):
                    acc = acc + x[0, ci, y, xo]
                assert got[0, 0, y, xo] == acc / 8


# The padded-plane window layout the flat-shift layout replaced: x as
# zero-padded channel-major planes (C, N, n + 2 pad, n + 2 pad), tap
# (ky, kx) read as the slab planes[:, :, ky:ky + n, kx:kx + n].
def padded_planes(x, pad):
    n_batch, c, h, w = x.shape
    planes = np.zeros((c, n_batch, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    planes[:, :, pad:pad + h, pad:pad + w] = x.transpose(1, 0, 2, 3)
    return planes


def tap_slabs(planes, k, n):
    for ky in range(k):
        for kx in range(k):
            yield planes[:, :, ky:ky + n, kx:kx + n]


def padded_im2col(x, k):
    n_batch, c, n, _ = x.shape
    cols = np.empty((c, k * k, n_batch, n, n), dtype=x.dtype)
    for j, slab in enumerate(tap_slabs(padded_planes(x, (k - 1) // 2), k, n)):
        cols[:, j] = slab
    return cols.reshape(c * k * k, -1)


def padded_gather(x, k, windows):
    n_batch, c, n, _ = x.shape
    pad = (k - 1) // 2
    side = n + 2 * pad
    planes = padded_planes(x, pad).reshape(c, -1)
    sample, pixel = np.divmod(windows.astype(np.int64), n * n)
    top_left = sample * (side * side) + (pixel // n) * side + pixel % n
    cols = np.empty((c, k * k, windows.size), dtype=x.dtype)
    for j in range(k * k):
        cols[:, j] = planes.take(top_left + (j // k) * side + j % k, axis=1)
    return cols.reshape(c * k * k, windows.size)


def padded_col2im(cols, n_batch, c, n, k):
    pad = (k - 1) // 2
    taps = cols.reshape(c, k * k, n_batch, n, n)
    planes = np.zeros((c, n_batch, n + 2 * pad, n + 2 * pad), dtype=cols.dtype)
    for j, slab in enumerate(tap_slabs(planes, k, n)):
        slab += taps[:, j]
    return np.ascontiguousarray(planes[:, :, pad:pad + n, pad:pad + n].transpose(1, 0, 2, 3))


def padded_window_mean(x, k):
    n_batch, c, n, _ = x.shape
    acc = np.zeros((c, n_batch, n, n), dtype=x.dtype)
    for slab in tap_slabs(padded_planes(x, (k - 1) // 2), k, n):
        acc += slab
    acc /= k * k
    return acc.reshape(c, -1)


def signed_zeros(rng, shape, dtype):
    """Normal draws with about a third of the entries -0.0 and a sixth +0.0."""
    a = rng.standard_normal(shape)
    u = rng.random(shape)
    a[u < 1 / 3] = -0.0
    a[(u >= 1 / 3) & (u < 1 / 2)] = 0.0
    return a.astype(dtype)


class TestFlatShiftLayout:
    """The flat-shift window layout gives the padded-plane layout's bits,
    including n < k, where every border slice is clamped to the plane."""

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_padded_planes(self, k, n, dtype):
        rng = np.random.default_rng(100 * k + n)
        n_batch, c = 2, 3
        x = signed_zeros(rng, (n_batch, c, n, n), dtype)

        cols = im2col_batch(x, k)
        assert cols.dtype == dtype and cols.tobytes() == padded_im2col(x, k).tobytes()

        total = n_batch * n * n
        for windows in (np.arange(total), rng.permutation(total)[:max(total // 2, 1)],
                        rng.integers(0, total, 7)):
            got = im2col_batch(x, k, windows)
            assert got.tobytes() == padded_gather(x, k, windows).tobytes()

        got = window_mean(x, k)
        assert got.dtype == dtype and got.tobytes() == padded_window_mean(x, k).tobytes()

        upstream = signed_zeros(rng, (c * k * k, total), dtype)
        before = upstream.tobytes()
        got = col2im_batch(upstream, n_batch, c, n, k)
        assert got.dtype == dtype and got.flags.c_contiguous
        assert got.tobytes() == padded_col2im(upstream, n_batch, c, n, k).tobytes()
        assert upstream.tobytes() == before

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_col2im_reads_a_broadcast_view(self, k):
        # The mean branch's backward passes one row per channel broadcast
        # over the taps: a read-only view, which col2im must not write.
        rng = np.random.default_rng(30 + k)
        n_batch, c, n = 2, 3, 6
        row = signed_zeros(rng, (c, 1, n_batch * n * n), np.float32)
        spread = np.broadcast_to(row, (c, k * k, n_batch * n * n))
        got = col2im_batch(spread, n_batch, c, n, k)
        assert got.tobytes() == padded_col2im(spread, n_batch, c, n, k).tobytes()
