import contextlib
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacconv import (
    CacConvParams,
    InvalidArgument,
    NumericFailure,
    aggregate_kernel,
    cac_backward,
    cac_forward_hard,
    cac_forward_naive,
    cac_forward_soft,
    conv2d,
    finite_diff_grad,
    score_map,
    sobel_gradient,
)
from cacconv import cac as cac_module
from cacconv.cac import sigmoid
from cacconv.oracle import _sigmoid_scalar, _sobel_maps_naive
from cacconv.tensor import channel_mean, col2im_batch, im2col_batch, kernel_matrix


def small_params(rng, c_in, c_out, k=3, dtype=np.float32, **kw):
    scale = 1.0 / np.sqrt(k * k * c_in)
    return CacConvParams(
        weight=(rng.standard_normal((k, k, c_in, c_out)) * scale).astype(dtype),
        bias=rng.standard_normal(c_out).astype(dtype) * 0.1,
        **kw,
    )


@contextlib.contextmanager
def helper_thread(split_madds=0):
    """Share every tap loop of at least ``split_madds`` multiply-adds with
    a helper thread (one made here if this host gave the module none).
    Yields the list of threads that split a loop, one entry per split."""
    splits = []
    real = cac_module._on_two_threads

    def recording(helper_half, caller_half):
        splits.append(threading.get_ident())
        real(helper_half, caller_half)

    with ThreadPoolExecutor(max_workers=1) as pool, \
            mock.patch.object(cac_module, "_POOL", cac_module._POOL or pool), \
            mock.patch.object(cac_module, "SPLIT_MADDS", split_madds), \
            mock.patch.object(cac_module, "_on_two_threads", recording):
        yield splits


class TestSobel:
    def test_constant_image_zero_everywhere(self):
        x = np.full((1, 1, 6, 6), 5.0, dtype=np.float32)
        assert np.array_equal(sobel_gradient(x), np.zeros((1, 1, 6, 6), dtype=np.float32))

    def test_vertical_step(self):
        # columns < 3 hold 0, columns >= 3 hold 1: magnitude 4 on the two
        # columns adjacent to the step, 0 elsewhere
        x = np.zeros((1, 1, 8, 8), dtype=np.float32)
        x[:, :, :, 3:] = 1.0
        g = sobel_gradient(x)[0, 0]
        assert np.allclose(g[:, 2], 4.0)
        assert np.allclose(g[:, 3], 4.0)
        assert np.allclose(g[:, :2], 0.0)
        assert np.allclose(g[:, 4:], 0.0)

    def test_matches_full_3x3_kernels(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 1, 9, 9)).astype(np.float64)
        g = sobel_gradient(x)[0, 0]
        xp = np.pad(x[0, 0], 1, mode="edge")
        kx = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
        ky = kx.T
        gx = np.zeros((9, 9))
        gy = np.zeros((9, 9))
        for y in range(9):
            for xo in range(9):
                patch = xp[y:y + 3, xo:xo + 3]
                gx[y, xo] = (patch * kx).sum()
                gy[y, xo] = (patch * ky).sum()
        assert np.allclose(g, np.sqrt(gx**2 + gy**2), rtol=1e-5, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, 7)).astype(np.float32)
        gx, gy = _sobel_maps_naive(x)
        g = sobel_gradient(x[None, None])[0, 0]
        assert np.array_equal(g, np.sqrt(gx * gx + gy * gy).astype(np.float32))

    def test_translation_equivariance_in_interior(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 1, 10, 10)).astype(np.float32)
        shifted = np.roll(x, 1, axis=3)
        g0 = sobel_gradient(x)[0, 0]
        g1 = sobel_gradient(shifted)[0, 0]
        assert np.allclose(g1[2:-2, 3:-2], g0[2:-2, 2:-3])

    def test_multichannel_rejected(self):
        with pytest.raises(InvalidArgument):
            sobel_gradient(np.zeros((1, 3, 4, 4), dtype=np.float32))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(taps=st.sampled_from([cac_module.DERIV_TAPS, cac_module.SMOOTH_TAPS]),
           axis=st.sampled_from([-1, -2]), dtype=st.sampled_from([np.float32, np.float64]),
           h=st.integers(1, 9), w=st.integers(1, 9), zero_share=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_adjoint_equals_padded_form(self, taps, axis, dtype, h, w, zero_share, seed):
        # The padded form the adjoint replaced: spread into a zero buffer
        # two longer along the axis, crop, then fold the two border cells
        # onto the edge pixels.
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((2, 1, h, w))
        g[rng.random(g.shape) < zero_share] = -0.0
        g = g.astype(dtype)
        gm = np.moveaxis(g, axis, -1)
        n = gm.shape[-1]
        dxp = np.zeros(gm.shape[:-1] + (n + 2,), dtype=g.dtype)
        for d in range(3):
            dxp[..., d:d + n] += taps[d] * gm
        dx = dxp[..., 1:n + 1].copy()
        dx[..., 0] += dxp[..., 0]
        dx[..., -1] += dxp[..., n + 1]
        expected = np.moveaxis(dx, -1, axis)
        got = cac_module._corr1d_adjoint(g, taps, axis)
        assert got.dtype == dtype and got.shape == g.shape
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()


class TestScoreAndPartition:
    def test_zero_gradient_gives_sigmoid_beta(self):
        g = np.zeros((2, 2), dtype=np.float32)
        m = score_map(g, 1.0, -1.5)
        assert np.allclose(m, 1.0 / (1.0 + np.exp(1.5)))

    def test_extreme_inputs_do_not_overflow(self):
        z = np.array([-1e4, -50.0, 0.0, 50.0, 1e4], dtype=np.float32)
        s = sigmoid(z)
        assert np.isfinite(s).all()
        assert s[0] == 0.0 and s[-1] == 1.0 and s[2] == 0.5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_scalar_reference(self, dtype):
        big = np.finfo(dtype).max
        grid = [0.0, 1e-8, 0.5, 1.0, 50.0, 1e4, big]
        z = np.array(grid + [-v for v in grid], dtype=dtype)
        expected = np.array([_sigmoid_scalar(v) for v in z], dtype=dtype)
        got = sigmoid(z)
        assert got.dtype == dtype
        assert got.tobytes() == expected.tobytes()

    def test_monotone_gating_in_beta(self):
        rng = np.random.default_rng(3)
        g = np.abs(rng.standard_normal((5, 5))).astype(np.float32)
        m_lo = score_map(g, 1.0, -0.5)
        m_hi = score_map(g, 1.0, 0.5)
        assert (m_hi > m_lo).all()
        assert (m_hi > 0.5).sum() >= (m_lo > 0.5).sum()
        assert m_hi.mean() > m_lo.mean()


class TestGateFiniteness:
    """The score map is the gate's one finiteness check: a non-finite input
    pixel, a channel sum that overflows and a NaN gate parameter all reach
    it as NaN."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("forward", [cac_forward_hard, cac_forward_soft])
    @pytest.mark.parametrize("pbar_mode", ["center", "mean"])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("pixel", [(0, 0), (2, 5)])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "3e38 in every channel"])
    def test_nonfinite_input_stops_at_the_score_map(self, forward, pbar_mode, k, pixel, bad):
        rng = np.random.default_rng(k)
        params = small_params(rng, 3, 4, k=k, pbar_mode=pbar_mode)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        if bad == "3e38 in every channel":
            x[1, :, pixel[0], pixel[1]] = 3e38   # finite; the channel sum is not
        else:
            x[1, 1, pixel[0], pixel[1]] = float(bad)
        with pytest.raises(NumericFailure, match="^gate score map contains non-finite values$"):
            forward(x, params)

    @pytest.mark.parametrize("forward", [cac_forward_hard, cac_forward_soft])
    @pytest.mark.parametrize("gate", [{"gamma": np.nan}, {"beta": np.nan}])
    def test_nan_gate_parameter_stops_at_the_score_map(self, forward, gate):
        rng = np.random.default_rng(5)
        params = small_params(rng, 3, 4, **gate)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        with pytest.raises(NumericFailure, match="^gate score map contains non-finite values$"):
            forward(x, params)


class TestAggregateKernel:
    def test_equals_tap_sum(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((5, 5, 2, 3)).astype(np.float32)
        assert np.allclose(aggregate_kernel(w), w.sum(axis=(0, 1)), rtol=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        w1 = rng.standard_normal((3, 3, 2, 2))
        w2 = rng.standard_normal((3, 3, 2, 2))
        lhs = aggregate_kernel(2.0 * w1 + 3.0 * w2)
        rhs = 2.0 * aggregate_kernel(w1) + 3.0 * aggregate_kernel(w2)
        assert np.allclose(lhs, rhs, rtol=1e-12)


class TestHardForward:
    def test_bit_for_bit_against_naive(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            n = int(rng.integers(4, 9))
            ci = int(rng.integers(1, 4))
            co = int(rng.integers(1, 4))
            mode = "center" if rng.random() < 0.5 else "mean"
            params = small_params(rng, ci, co, gamma=float(rng.uniform(0.5, 2.0)),
                                  beta=float(rng.uniform(-1, 1)), pbar_mode=mode)
            x = rng.standard_normal((2, ci, n, n)).astype(np.float32)
            y_fast, pf = cac_forward_hard(x, params)
            y_ref, pr = cac_forward_naive(x, params)
            assert np.array_equal(y_fast, y_ref)
            for a, b in zip(pf, pr, strict=True):
                assert np.array_equal(a.gradient, b.gradient)
                assert np.array_equal(a.score, b.score)
                assert np.array_equal(a.sharp_mask, b.sharp_mask)

    @pytest.mark.parametrize("split", ["one_thread", "every_loop"])
    @pytest.mark.parametrize("c_out", [1, 4])
    @pytest.mark.parametrize("gate, tile", [
        *(pytest.param("median", tile, id=str(tile)) for tile in (1, 5, 64)),
        # All sharp: chunks of max(1, tile // 81) whole images.  64 gives
        # one-image chunks with a tile edge inside each image, 162 two-image
        # chunks and a partial last one, 4096 a single chunk.
        *(pytest.param("all_sharp", tile, id=f"all_sharp-{tile}") for tile in (64, 162, 4096)),
    ])
    def test_bit_for_bit_across_column_tiles(self, monkeypatch, gate, tile, c_out, split):
        # The tap loops run in column tiles; a tile smaller than either
        # branch's column count puts tile edges inside both branches.
        # With every loop shared with the helper thread, loops of two or
        # more tiles split at a tile edge, one-tile loops between output
        # rows, and a single row narrower than two tiles stays whole: so
        # does each all-sharp chunk of one row, as no chunk spans two tiles.
        monkeypatch.setattr(cac_module, "TAP_TILE", tile)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((5, 3, 9, 9)).astype(np.float32)
        grad = sobel_gradient(channel_mean(x))
        beta = -float(np.median(grad)) if gate == "median" else 10.0
        params = small_params(rng, 3, c_out, gamma=1.0, beta=beta)
        with helper_thread(0 if split == "every_loop" else cac_module.SPLIT_MADDS) as splits:
            y_fast, parts = cac_forward_hard(x, params)
        y_ref, _ = cac_forward_naive(x, params)
        sharp = sum(p.sharp_count for p in parts)
        if gate == "median":
            assert 0 < sharp < x.shape[0] * 81
        else:
            assert sharp == x.shape[0] * 81
        assert np.array_equal(y_fast, y_ref)
        one_tile_row = c_out == 1 and (tile == 4096 or gate == "all_sharp")
        assert bool(splits) == (split == "every_loop" and not one_tile_row)

    @pytest.mark.parametrize("pbar_mode", ["center", "mean"])
    @pytest.mark.parametrize("sharp_windows", ["one", "all_but_one"])
    def test_bit_for_bit_with_one_window_apart(self, pbar_mode, sharp_windows):
        # One window alone on a branch: a single gathered and scattered
        # column, or a single column left to the 1 x 1 taps.
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        grad = np.sort(sobel_gradient(channel_mean(x)).reshape(-1).astype(np.float64))
        edge = grad[-2:] if sharp_windows == "one" else grad[:2]
        params = small_params(rng, 3, 4, gamma=1.0, beta=-float(edge.mean()),
                              pbar_mode=pbar_mode)
        y_fast, parts = cac_forward_hard(x, params)
        y_ref, _ = cac_forward_naive(x, params)
        sharp = sum(p.sharp_count for p in parts)
        assert sharp == (1 if sharp_windows == "one" else grad.size - 1)
        assert np.array_equal(y_fast, y_ref)

    def test_saturated_sharp_equals_dense_conv(self):
        rng = np.random.default_rng(7)
        params = small_params(rng, 3, 4, gamma=1.0, beta=10.0)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        y, parts = cac_forward_hard(x, params)
        ref = conv2d(x, params.weight, params.bias)
        assert all(p.sharp_mask.all() for p in parts)
        assert np.max(np.abs(y - ref)) <= 1e-5 * np.max(np.abs(ref))

    def test_constant_input_interior_equivalence_any_gate(self):
        rng = np.random.default_rng(8)
        for beta in (-5.0, -0.2, 0.0, 0.7, 5.0):
            params = small_params(rng, 2, 3, gamma=float(rng.uniform(0.1, 3.0)), beta=beta)
            x = np.full((1, 2, 7, 7), 0.8, dtype=np.float32)
            y, _ = cac_forward_hard(x, params)
            ref = conv2d(x, params.weight, params.bias)
            assert np.max(np.abs(y[:, :, 1:-1, 1:-1] - ref[:, :, 1:-1, 1:-1])) <= 1e-6

    def test_all_smooth_uses_aggregated_kernel(self):
        rng = np.random.default_rng(9)
        params = small_params(rng, 2, 2, gamma=1.0, beta=-20.0)
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        y, parts = cac_forward_hard(x, params)
        assert not parts[0].sharp_mask.any()
        wphi = aggregate_kernel(params.weight)
        expected = np.einsum("chw,cd->dhw", x[0], wphi) + params.bias[:, None, None]
        assert np.allclose(y[0], expected, atol=1e-6)

    def test_per_sample_routing(self):
        # one flat sample and one noisy sample must route differently
        rng = np.random.default_rng(10)
        params = small_params(rng, 1, 2, gamma=1.0, beta=-1.0)
        flat = np.zeros((1, 1, 6, 6), dtype=np.float32)
        noisy = rng.standard_normal((1, 1, 6, 6)).astype(np.float32) * 5
        y, parts = cac_forward_hard(np.concatenate([flat, noisy]), params)
        assert parts[0].sharp_count == 0
        assert parts[1].sharp_count > 0.5 * parts[1].total_windows

    def test_small_spatial_rejected(self):
        rng = np.random.default_rng(11)
        params = small_params(rng, 1, 1)
        with pytest.raises(InvalidArgument):
            cac_forward_hard(np.zeros((1, 1, 2, 2), dtype=np.float32), params)

    def test_window_partition_counts(self):
        rng = np.random.default_rng(12)
        params = small_params(rng, 2, 2, gamma=1.0, beta=0.0)
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        _, parts = cac_forward_hard(x, params)
        p = parts[0]
        assert p.total_windows == 36
        assert p.sharp_count == int(p.sharp_mask.sum())
        assert 0.0 < p.score.mean() < 1.0


# Upper bound on the scalar multiply-adds one oracle call makes
# (N n^2 c_in c_out k^2), which keeps every example near 0.1 s or less.
NAIVE_MADDS_BUDGET = 120_000
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def hard_cases(draw, constant_input=False, all_sharp=False):
    """(x, params) covering k in {3, 5, 7}, both dtypes and pbar modes,
    batches up to 4 and channel counts up to 32, within the budget.
    ``all_sharp`` pins the gate so that every window routes sharp."""
    k = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(k, k + 3))
    batch = draw(st.integers(1, 4))
    per_channel = batch * n * n * k * k
    c_in = draw(st.integers(1, max(1, min(32, NAIVE_MADDS_BUDGET // per_channel))))
    c_out = draw(st.integers(1, max(1, min(32, NAIVE_MADDS_BUDGET // (per_channel * c_in)))))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weight = rng.standard_normal((k, k, c_in, c_out)) / np.sqrt(k * k * c_in)
    bias = rng.standard_normal(c_out) * 0.1 if draw(st.booleans()) else None
    gamma = draw(st.floats(0.25, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
    if constant_input:
        x = np.full((batch, c_in, n, n), draw(st.floats(-10.0, 10.0)), dtype=dtype)
        beta = 0.0
    else:
        x = rng.standard_normal((batch, c_in, n, n)).astype(dtype)
        x *= draw(st.sampled_from([0.1, 1.0, 10.0]))
    if all_sharp:
        # G >= 0, so a positive gain with beta = 10 keeps every score
        # above 0.5.
        gamma, beta = abs(gamma), 10.0
    elif not constant_input:
        # Threshold at a quantile of this input's gradient magnitudes, so
        # most examples route a mix of sharp and smooth windows.
        grad = sobel_gradient(channel_mean(x))
        beta = -gamma * float(np.quantile(grad, draw(st.floats(0.0, 1.0))))
    params = CacConvParams(
        weight=weight.astype(dtype), gamma=gamma, beta=beta,
        bias=None if bias is None else bias.astype(dtype),
        pbar_mode=draw(st.sampled_from(["center", "mean"])),
    )
    return x, params


def assert_hard_matches_naive(x, params, split_madds):
    with helper_thread(split_madds):
        y_fast, parts_fast = cac_forward_hard(x, params)
    y_ref, parts_ref = cac_forward_naive(x, params)
    assert y_fast.dtype == y_ref.dtype == x.dtype
    assert np.array_equal(y_fast, y_ref)
    for fast, ref in zip(parts_fast, parts_ref, strict=True):
        assert np.array_equal(fast.gradient, ref.gradient)
        assert np.array_equal(fast.score, ref.score)
        assert np.array_equal(fast.sharp_mask, ref.sharp_mask)
    return parts_fast


# The shipped split threshold, and 0, which shares every tap loop of two
# or more output rows with the helper thread.
SPLITS = pytest.mark.parametrize("split_madds", [cac_module.SPLIT_MADDS, 0],
                                 ids=["shipped_split", "every_loop_split"])


class TestHardForwardProperties:
    """Bit-exact agreement of the hard forward with the scalar oracle on
    shapes, dtypes and gates beyond those acceptance check 2 draws."""

    @SPLITS
    @PROPERTY_SETTINGS
    @given(hard_cases())
    def test_bitwise_equal_to_naive(self, split_madds, case):
        assert_hard_matches_naive(*case, split_madds)

    @SPLITS
    @PROPERTY_SETTINGS
    @given(hard_cases(constant_input=True))
    def test_score_of_exactly_half_routes_smooth(self, split_madds, case):
        # A constant input has G = 0 everywhere, so beta = 0 puts every
        # score exactly on the threshold, where ties count as smooth.
        for part in assert_hard_matches_naive(*case, split_madds):
            assert (part.gradient == 0).all()
            assert (part.score == 0.5).all()
            assert not part.sharp_mask.any()

    @SPLITS
    @PROPERTY_SETTINGS
    @given(hard_cases(all_sharp=True))
    def test_every_window_sharp(self, split_madds, case):
        # rho = 1 exactly: every column is gathered, none runs 1 x 1.
        for part in assert_hard_matches_naive(*case, split_madds):
            assert part.sharp_mask.all()


class TestHelperThread:
    """The hard path's tap loops shared with one helper thread."""

    @pytest.mark.parametrize("c_in, c_out, n", [(3, 16, 32), (16, 32, 16), (32, 64, 8)],
                             ids=["00", "04", "08"])
    @pytest.mark.parametrize("rho", ["0", "mixed", "1"])
    def test_same_bytes_as_one_thread_at_cac_small_shapes(self, c_in, c_out, n, rho):
        rng = np.random.default_rng(c_in)
        x = rng.standard_normal((64, c_in, n, n)).astype(np.float32)
        grad = sobel_gradient(channel_mean(x))
        beta = {"0": -1.0 - float(grad.max()), "mixed": -float(np.median(grad)), "1": 10.0}[rho]
        params = small_params(rng, c_in, c_out, gamma=1.0, beta=beta)
        with helper_thread(cac_module.SPLIT_MADDS) as splits:
            y_split, parts = cac_forward_hard(x, params)
        with mock.patch.object(cac_module, "_POOL", None):
            y_alone, _ = cac_forward_hard(x, params)
        assert y_split.tobytes() == y_alone.tobytes()
        rho_hard = sum(p.sharp_count for p in parts) / (64 * n * n)
        assert {"0": rho_hard == 0, "mixed": 0 < rho_hard < 1, "1": rho_hard == 1}[rho]
        # Layers 04 and 08 run a tap loop of 8.4M multiply-adds or more at
        # every rho.
        if c_in >= 16:
            assert splits

    @pytest.mark.parametrize("raiser", ["helper", "caller", "both"])
    def test_exception_waits_for_the_helper(self, raiser):
        # Both halves write into the caller's buffers: whichever raises,
        # the caller sees the exception only once the helper has stopped.
        stopped = threading.Event()

        def helper_half():
            time.sleep(0.05)   # still running when the caller's half ends
            stopped.set()
            if raiser != "caller":
                raise ValueError("helper")

        def caller_half():
            if raiser != "helper":
                raise ValueError("caller")

        with helper_thread(), pytest.raises(ValueError) as exc:
            cac_module._on_two_threads(helper_half, caller_half)
        assert stopped.is_set()
        assert str(exc.value) == ("helper" if raiser == "helper" else "caller")

    def test_helper_half_runs_under_the_callers_errstate(self):
        # A row split gives the helper output row 1, the only one whose
        # products are inf * 0.  pytest turns a RuntimeWarning into an
        # error, so a helper that ignored the caller's errstate would fail
        # the first call.
        wmat = np.array([[1.0, np.inf]] * 3, dtype=np.float32)
        rows = np.zeros((3, 8), dtype=np.float32)
        with helper_thread() as splits:
            with np.errstate(invalid="ignore"):
                out = cac_module._tap_loop(wmat, rows)
            with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
                cac_module._tap_loop(wmat, rows)
        assert len(splits) == 2
        assert (out[0] == 0).all() and np.isnan(out[1]).all()

    def test_concurrent_callers_share_the_helper(self):
        # More callers than cores, switching threads every microsecond:
        # each caller's output keeps the one-thread bytes.
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 3, 9, 9)).astype(np.float32)
        params = small_params(rng, 3, 4, gamma=1.0, beta=10.0)
        with mock.patch.object(cac_module, "_POOL", None):
            expected = cac_forward_hard(x, params)[0].tobytes()
        same = []

        def caller():
            for _ in range(20):
                same.append(cac_forward_hard(x, params)[0].tobytes() == expected)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # One-image chunks of 81 columns: six row splits per forward.
            with helper_thread() as splits, mock.patch.object(cac_module, "TAP_TILE", 64), \
                    ThreadPoolExecutor(max_workers=4) as callers:
                for future in [callers.submit(caller) for _ in range(4)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert same == [True] * 80
        assert len(splits) == 80 * 6

    def test_all_sharp_chunk_ends_before_the_next_is_built(self):
        # One chunk's columns at a time: each one-image chunk's tap loop,
        # split between output rows, returns before the next chunk's
        # im2col_batch call.
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 3, 9, 9)).astype(np.float32)
        params = small_params(rng, 3, 4, gamma=1.0, beta=10.0)
        calls = []
        real_im2col = cac_module.im2col_batch

        def im2col(*args):
            calls.append("im2col")
            return real_im2col(*args)

        with helper_thread(), mock.patch.object(cac_module, "TAP_TILE", 64), \
                mock.patch.object(cac_module, "im2col_batch", im2col):
            real_split = cac_module._on_two_threads

            def split(helper_half, caller_half):
                calls.append("split")
                real_split(helper_half, caller_half)
                calls.append("joined")

            with mock.patch.object(cac_module, "_on_two_threads", split):
                y, _ = cac_forward_hard(x, params)
        assert calls == ["im2col", "split", "joined"] * 3
        assert np.array_equal(y, cac_forward_naive(x, params)[0])

    @pytest.mark.skipif(not hasattr(os, "fork") or cac_module._POOL is None,
                        reason="needs fork and a helper thread")
    def test_forked_child_makes_its_own_helper(self):
        # Start the parent's helper thread, which a forked child lacks.
        cac_module._on_two_threads(int, int)
        child = multiprocessing.get_context("fork").Process(
            target=cac_module._on_two_threads, args=(int, int))
        child.start()
        child.join(timeout=30)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung and child.exitcode == 0


class TestMeanRepresentative:
    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mean_is_tap_order_sum_of_column_rows(self, k, dtype):
        rng = np.random.default_rng(k)
        x = rng.standard_normal((2, 3, 9, 9)).astype(dtype)
        # -0.0 regions wider than a window: a sum that started from the
        # first tap instead of from +0.0 would keep their sign.
        x[0, 1] = -0.0
        x[1, 2, :k + 2, :k + 2] = -0.0
        params = small_params(rng, 3, 2, k=k, dtype=dtype, pbar_mode="mean")
        rows = im2col_batch(x, k).reshape(3, k * k, -1)
        expected = np.zeros_like(rows[:, 0])
        for j in range(k * k):
            expected += rows[:, j]
        expected /= k * k
        got = cac_module._pbar_map(x, params)
        assert got.dtype == dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_hard_path_at_rho_zero_builds_no_columns(self, monkeypatch):
        real = cac_module.im2col_batch
        calls = []

        def recording(x, k, windows=None):
            calls.append(None if windows is None else len(windows))
            return real(x, k, windows)

        monkeypatch.setattr(cac_module, "im2col_batch", recording)
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
        params = small_params(rng, 3, 4, k=5, gamma=1.0, beta=-50.0, pbar_mode="mean")
        y, parts = cac_forward_hard(x, params)
        assert sum(p.sharp_count for p in parts) == 0
        assert calls == [0]
        assert np.array_equal(y, cac_forward_naive(x, params)[0])


class TestSoftForward:
    def test_saturated_soft_matches_hard(self):
        rng = np.random.default_rng(13)
        for beta in (-40.0, 40.0):
            params = small_params(rng, 2, 3, gamma=1.0, beta=beta)
            x = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
            y_soft, parts, _ = cac_forward_soft(x, params)
            y_hard, _ = cac_forward_hard(x, params)
            for p in parts:
                assert (p.score > 0.999).all() or (p.score < 0.001).all()
            denom = np.max(np.abs(y_hard))
            assert np.max(np.abs(y_soft - y_hard)) <= 1e-3 * denom

    def test_constant_input_interior_matches_conv(self):
        rng = np.random.default_rng(14)
        params = small_params(rng, 2, 2, gamma=0.8, beta=0.3)
        x = np.full((1, 2, 6, 6), -0.4, dtype=np.float32)
        y, _, _ = cac_forward_soft(x, params)
        ref = conv2d(x, params.weight, params.bias)
        assert np.max(np.abs(y[:, :, 1:-1, 1:-1] - ref[:, :, 1:-1, 1:-1])) <= 1e-6

    def test_blend_between_branches(self):
        rng = np.random.default_rng(15)
        params = small_params(rng, 1, 1, gamma=1.0, beta=0.0)
        x = rng.standard_normal((1, 1, 5, 5)).astype(np.float32)
        y, parts, _ = cac_forward_soft(x, params)
        m = parts[0].score
        yk = conv2d(x, params.weight)[0, 0]
        pbar = x.reshape(1, 25)  # center mode: each window's own pixel
        y1 = (pbar.T @ aggregate_kernel(params.weight)).reshape(5, 5)
        expected = m * yk + (1 - m) * y1 + params.bias[0]
        assert np.allclose(y[0, 0], expected, rtol=1e-6)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(16)
        params = small_params(rng, 2, 2, gamma=1.0, beta=0.1)
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        _, _, cache = cac_forward_soft(x, params)
        g = cac_backward(cache, np.zeros((1, 2, 5, 5), dtype=np.float32))
        assert not g.dx.any() and not g.dweight.any()
        assert g.dgamma == 0.0 and g.dbeta == 0.0
        assert not g.dbias.any()

    def test_smooth_window_spreads_dw_uniformly(self):
        # gate fully closed: every spatial tap of dW gets pbar * dy
        rng = np.random.default_rng(17)
        params = CacConvParams(
            weight=rng.standard_normal((3, 3, 1, 1)).astype(np.float64) * 0.1,
            gamma=1.0, beta=-40.0,
        )
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float64)
        _, parts, cache = cac_forward_soft(x, params)
        assert parts[0].score.max() < 1e-10
        dy = np.zeros((1, 1, 4, 4))
        dy[0, 0, 2, 1] = 1.7
        g = cac_backward(cache, dy)
        expected = x[0, 0, 2, 1] * 1.7
        assert np.allclose(g.dweight[:, :, 0, 0], expected, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(18)
        params = small_params(rng, 1, 2)
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        _, _, cache = cac_forward_soft(x, params)
        with pytest.raises(InvalidArgument):
            cac_backward(cache, np.zeros((1, 2, 5, 5), dtype=np.float32))

    def _check_grads(self, rng, pbar_mode, k=3, c_in=2, c_out=2, batch=1,
                     gamma=1.3, beta=-0.2):
        n = 6
        params = small_params(rng, c_in, c_out, k, dtype=np.float64,
                              gamma=gamma, beta=beta, pbar_mode=pbar_mode)
        x = rng.standard_normal((batch, c_in, n, n))

        def loss(y):
            return float((y**2).sum())

        y, _, cache = cac_forward_soft(x, params)
        g = cac_backward(cache, 2.0 * y)

        def pack(w, gamma, beta, xs, bias):
            return np.concatenate([w.reshape(-1), [gamma, beta], xs.reshape(-1), bias])

        def f(theta):
            wsz = params.weight.size
            w = theta[:wsz].reshape(params.weight.shape)
            gamma, beta = theta[wsz], theta[wsz + 1]
            xs = theta[wsz + 2:wsz + 2 + x.size].reshape(x.shape)
            bias = theta[wsz + 2 + x.size:]
            p = CacConvParams(w, gamma, beta, bias, pbar_mode)
            yy, _, _ = cac_forward_soft(xs, p)
            return loss(yy)

        theta0 = pack(params.weight, params.gamma, params.beta, x, params.bias)
        num = finite_diff_grad(f, theta0, eps=1e-5)
        ana = pack(g.dweight, g.dgamma, g.dbeta, g.dx, g.dbias)
        denom = np.maximum(np.abs(num), 1e-6)
        rel = np.abs(ana - num) / denom
        assert rel.max() <= 1e-3, f"worst rel err {rel.max():.2e} ({pbar_mode})"

    def test_all_grads_match_finite_differences_center(self):
        self._check_grads(np.random.default_rng(19), "center")

    def test_all_grads_match_finite_differences_mean(self):
        self._check_grads(np.random.default_rng(20), "mean")

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(k=st.sampled_from([3, 5]), pbar_mode=st.sampled_from(["center", "mean"]),
           c_in=st.integers(1, 3), c_out=st.integers(1, 3), batch=st.integers(1, 2),
           gamma=st.floats(0.25, 3.0), beta=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_all_grads_match_finite_differences(self, k, pbar_mode, c_in, c_out, batch,
                                                gamma, beta, seed):
        # Values come from a seeded generator, not from hypothesis, so no
        # window sits on the G = 0 kink of the gradient magnitude.
        self._check_grads(np.random.default_rng(seed), pbar_mode, k, c_in, c_out,
                          batch, gamma, beta)

    def test_extra_score_grad_injection(self):
        # injecting a constant at the score map must shift dbeta by
        # sum(extra * M * (1 - M)) exactly
        rng = np.random.default_rng(21)
        params = small_params(rng, 1, 1, dtype=np.float64, gamma=1.0, beta=0.0)
        x = rng.standard_normal((1, 1, 5, 5))
        y, parts, cache = cac_forward_soft(x, params)
        dy = np.zeros_like(y)
        g0 = cac_backward(cache, dy)
        g1 = cac_backward(cache, dy, extra_score_grad=0.37)
        m = parts[0].score
        expected = float((0.37 * m * (1 - m)).sum())
        assert abs((g1.dbeta - g0.dbeta) - expected) <= 1e-12

    @pytest.mark.parametrize("pbar_mode", ["center", "mean"])
    def test_cache_reused_gives_identical_grads(self, pbar_mode):
        # A backward that wrote into its cache would change the second call.
        rng = np.random.default_rng(22)
        params = small_params(rng, 2, 3, gamma=1.2, beta=-0.1, pbar_mode=pbar_mode)
        x = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        _, _, cache = cac_forward_soft(x, params)
        dy = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        first, second = cac_backward(cache, dy, 0.2), cac_backward(cache, dy, 0.2)
        for name in ("dx", "dweight", "dbias"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name
        assert (first.dgamma, first.dbeta) == (second.dgamma, second.dbeta)

    @pytest.mark.parametrize("pbar_mode", ["center", "mean"])
    def test_direct_call_returns_input_grad_unless_declined(self, pbar_mode):
        rng = np.random.default_rng(23)
        params = small_params(rng, 2, 3, gamma=1.2, beta=-0.1, pbar_mode=pbar_mode)
        x = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        _, _, cache = cac_forward_soft(x, params)
        dy = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        full = cac_backward(cache, dy, 0.2)
        assert full.dx.shape == x.shape and full.dx.dtype == x.dtype
        bare = cac_backward(cache, dy, 0.2, input_grad=False)
        assert bare.dx is None
        for name in ("dweight", "dbias"):
            assert getattr(full, name).tobytes() == getattr(bare, name).tobytes(), name
        assert (full.dgamma, full.dbeta) == (bare.dgamma, bare.dbeta)

    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pbar_mode", ["center", "mean"])
    def test_input_grad_equals_repeat_form(self, k, dtype, pbar_mode):
        # The input gradient written out with the channel mean's term
        # repeated over the channels first, then the sharp and smooth
        # branches added to it.
        rng = np.random.default_rng(24 + k)
        c_in, c_out, n_batch, n = 3, 2, 2, k + 2
        params = small_params(rng, c_in, c_out, k, dtype=dtype, gamma=1.1, beta=-0.2,
                              pbar_mode=pbar_mode)
        x = rng.standard_normal((n_batch, c_in, n, n)).astype(dtype)
        x[rng.random(x.shape) < 0.2] = -0.0
        _, _, cache = cac_forward_soft(x, params)
        dy = rng.standard_normal((n_batch, c_out, n, n)).astype(dtype)
        g = cac_backward(cache, dy, 0.3)

        score = cache.partition.score
        m = score.reshape(-1, 1)
        dyf = dy.transpose(0, 2, 3, 1).reshape(-1, c_out)
        dscore = (cache.y_diff * dyf).sum(axis=1).reshape(score.shape)
        dscore = dscore + np.asarray(0.3, dtype=score.dtype)
        dz = dscore * score * (1.0 - score)
        dgrad = np.asarray(params.gamma * dz, dtype=dtype)
        dxbar = cac_module.sobel_gradient_backward(dgrad, cache.gx, cache.gy,
                                                   cache.partition.gradient)
        dx = np.repeat(dxbar / c_in, c_in, axis=1)
        dx += col2im_batch(kernel_matrix(params.weight) @ (m * dyf).T, n_batch, c_in, n, k)
        dpbar = aggregate_kernel(params.weight) @ ((1.0 - m) * dyf).T
        if pbar_mode == "center":
            dx += dpbar.reshape(c_in, n_batch, n, n).transpose(1, 0, 2, 3)
        else:
            spread = np.broadcast_to((dpbar / (k * k))[:, None, :], (c_in, k * k, dpbar.shape[1]))
            dx += col2im_batch(spread, n_batch, c_in, n, k)
        assert g.dx.dtype == dx.dtype and g.dx.tobytes() == dx.tobytes()


class TestParamsValidation:
    def test_even_or_unit_kernel_rejected(self):
        with pytest.raises(InvalidArgument):
            CacConvParams(weight=np.zeros((2, 2, 1, 1)))
        with pytest.raises(InvalidArgument):
            CacConvParams(weight=np.zeros((1, 1, 1, 1)))

    def test_bad_pbar_mode_rejected(self):
        with pytest.raises(InvalidArgument):
            CacConvParams(weight=np.zeros((3, 3, 1, 1)), pbar_mode="median")

    def test_bias_shape_checked(self):
        with pytest.raises(InvalidArgument):
            CacConvParams(weight=np.zeros((3, 3, 1, 2)), bias=np.zeros(3))

    def test_csv_export_shape(self):
        rng = np.random.default_rng(22)
        params = small_params(rng, 1, 1, gamma=1.0, beta=0.0)
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        _, parts = cac_forward_hard(x, params)
        lines = parts[0].to_csv().strip().split("\n")
        assert lines[0] == "index,G,M,sharp"
        assert len(lines) == 17
        idx, g, m, sharp = lines[5].split(",")
        assert int(idx) == 4 and sharp in ("0", "1")
        assert float(m) > 0
