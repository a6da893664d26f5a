"""End-to-end acceptance checks.

Seven checks, each recording one pass/fail summary line (repeated in the
terminal summary block, see conftest.py):

  1. im2col convolution vs the brute-force oracle
  2. gated dispatch vs the brute-force oracle, bit for bit
  3. analytic gradients vs central finite differences
  4. analytic cost model vs instrumented counters
  5. loss/cost tradeoff across penalty strengths on CIFAR-format data
  6. content-aware dispersion: smooth inputs cost fewer MAdds
  7. determinism, checkpoint round trip, corrupt-input rejection

Checks 1-4 run the checks in cacconv.verify at their own counts and seeds
(`cacconv verify --full` runs the same); the tolerances are pinned as
module constants.  Checks 5 and 6 train small models and are marked
slow; the whole file runs in a few minutes.
"""

import time

import numpy as np
import pytest

from cacconv import DataFormatError
from cacconv.cli import RunConfig, load_datasets, resolve_model_spec
from cacconv.data import RECORD_BYTES, parse_cifar10_file, synth_dataset, write_cifar10_batch
from cacconv.layers import Network
from cacconv.train import evaluate, load_checkpoint, train_model
from cacconv.verify import (
    check_convolution,
    check_cost_model,
    check_gated_dispatch,
    check_gradients,
)

CONV_REL_TOL_F32 = 1e-5
CONV_REL_TOL_F64 = 1e-12
SATURATED_REL_TOL = 1e-5
CONSTANT_ABS_TOL = 1e-6
GRAD_REL_TOL = 1e-3
RHO_BAR_EXPECTED = 0.99365
RHO_BAR_TOL = 1e-4
MADDS_REDUCTION_MIN = 0.10   # fraction, relative to the lam=0 run
ERROR_DELTA_MAX = 0.02       # absolute top-1 error increase allowed at lam=0.3


def test_1_convolution_oracle_equivalence(acceptance):
    t0 = time.monotonic()
    m = check_convolution(shapes=100, seed=101)
    wall = time.monotonic() - t0
    ok = (m["worst_f32"] <= CONV_REL_TOL_F32
          and m["worst_f64"] <= CONV_REL_TOL_F64
          and wall < 30.0)
    detail = (f"{m['detail']}, tol {CONV_REL_TOL_F32:g} (f32) / {CONV_REL_TOL_F64:g} "
              f"(f64), {wall:.1f}s")
    acceptance.record(1, "convolution oracle equivalence", ok, detail)
    assert ok, detail


def test_2_gated_dispatch_equivalence(acceptance):
    t0 = time.monotonic()
    m = check_gated_dispatch(
        instances=50, saturated=4,
        constant_grid=((0.6, -0.25), (0.3, 1.0, 3.0), (-5.0, -0.2, 0.0, 0.7, 5.0)),
        seed=202,
    )
    wall = time.monotonic() - t0
    ok = (m["bit_identical"] == 50 and m["saturated_rel"] <= SATURATED_REL_TOL
          and m["constant_abs"] <= CONSTANT_ABS_TOL and wall < 30.0)
    detail = (f"{m['detail']}, tol {SATURATED_REL_TOL:g} (saturated) / "
              f"{CONSTANT_ABS_TOL:g} (constant), {wall:.1f}s")
    acceptance.record(2, "gated dispatch equivalence", ok, detail)
    assert ok, detail


def test_3_gradient_correctness(acceptance):
    t0 = time.monotonic()
    m = check_gradients(layer_instances=12, objective_instances=8, seed=303)
    wall = time.monotonic() - t0
    ok = (m["worst_layer"] <= GRAD_REL_TOL and m["worst_objective"] <= GRAD_REL_TOL
          and wall < 120.0)
    detail = f"{m['detail']}, tol {GRAD_REL_TOL:g}, {wall:.1f}s"
    acceptance.record(3, "gradient correctness", ok, detail)
    assert ok, detail


def test_4_cost_model_fidelity(acceptance):
    t0 = time.monotonic()
    m = check_cost_model(branch_instances=6, seed=404)
    rb = m["rho_bar"]
    rb_ok = abs(rb - RHO_BAR_EXPECTED) <= RHO_BAR_TOL and rb == 1.0 - 13.0 / 2048.0
    wall = time.monotonic() - t0
    ok = (m["dense_exact"] and m["branch_exact"] and rb_ok and m["grid_ok"]
          and m["penalty_ok"] and wall < 60.0)
    detail = (f"{m['detail']}, break-even expect {RHO_BAR_EXPECTED}+-{RHO_BAR_TOL:g}, "
              f"{wall:.1f}s")
    acceptance.record(4, "cost model fidelity", ok, detail)
    assert ok, detail


@pytest.fixture(scope="session")
def lambda_sweep(cifar_dir, tmp_path_factory):
    """Three identical trainings differing only in penalty strength."""
    out_root = tmp_path_factory.mktemp("sweep")
    runs = {}
    for lam in (0.0, 0.3, 1.0):
        cfg = RunConfig.from_dict({
            "seed": 0,
            "model": "cac_small",
            "lambda": lam,
            "epochs": 10,
            "batch_size": 64,
            "output_dir": str(out_root / f"lam{lam}"),
            "dataset": {
                "kind": "cifar10",
                "path": cifar_dir,
                "subset_size": 5000,
                "test_subset_size": 1000,
            },
            "optimizer": {"lr": 0.05},
        })
        train, test = load_datasets(cfg)
        t0 = time.monotonic()
        result = train_model(cfg, train.images, train.labels,
                             test.images, test.labels, progress=False)
        wall = time.monotonic() - t0
        runs[lam] = (evaluate(result.net, test.images, test.labels), wall)
    return runs


@pytest.mark.slow
def test_5_penalty_tradeoff(acceptance, lambda_sweep):
    m = {lam: res.madds_mean for lam, (res, _) in lambda_sweep.items()}
    err = {lam: res.top1_error for lam, (res, _) in lambda_sweep.items()}
    slowest = max(wall for _, wall in lambda_sweep.values())

    monotone = m[0.0] >= m[0.3] >= m[1.0]
    reduction = 1.0 - m[0.3] / m[0.0]
    err_delta = err[0.3] - err[0.0]
    ok = (monotone and reduction >= MADDS_REDUCTION_MIN
          and err_delta <= ERROR_DELTA_MAX and slowest <= 1800.0)
    detail = (f"hard MAdds {m[0.0]:,.0f} / {m[0.3]:,.0f} / {m[1.0]:,.0f} at "
              f"lam=0/0.3/1.0 (monotone: {monotone}), reduction at 0.3: "
              f"{100 * reduction:.1f}% (need >= {100 * MADDS_REDUCTION_MIN:.0f}%), "
              f"error delta {100 * err_delta:+.2f}pp (allow +{100 * ERROR_DELTA_MAX:.0f}pp), "
              f"slowest run {slowest:.0f}s")
    acceptance.record(5, "penalty strength tradeoff", ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_6_content_aware_dispersion(acceptance, tmp_path):
    t0 = time.monotonic()
    cfg = RunConfig.from_dict({
        "seed": 0,
        "model": "cac_tiny_synth",
        "lambda": 0.5,
        "epochs": 6,
        "batch_size": 64,
        "output_dir": str(tmp_path / "run"),
        "dataset": {"kind": "synthetic", "synth_n": 512},
        "optimizer": {"lr": 0.05},
    })
    train = synth_dataset("smooth_vs_textured", 512, 0)
    held = synth_dataset("smooth_vs_textured", 512, 99)
    result = train_model(cfg, train.images, train.labels,
                         held.images, held.labels, progress=False)
    res = evaluate(result.net, held.images, held.labels)

    smooth = held.labels == 0
    madds_smooth = float(res.per_sample_madds[smooth].mean())
    madds_textured = float(res.per_sample_madds[~smooth].mean())
    rho = res.per_sample_rho["00_cac_conv"]
    rho_smooth = float(rho[smooth].mean())
    rho_textured = float(rho[~smooth].mean())

    wall = time.monotonic() - t0
    ok = (madds_smooth < madds_textured and rho_smooth < rho_textured
          and wall < 300.0)
    detail = (f"per-sample MAdds smooth {madds_smooth:,.0f} < textured "
              f"{madds_textured:,.0f}: {madds_smooth < madds_textured}, first-layer "
              f"rho {rho_smooth:.3f} < {rho_textured:.3f}: "
              f"{rho_smooth < rho_textured}, err {res.top1_error:.3f}, {wall:.1f}s")
    acceptance.record(6, "content-aware dispersion", ok, detail)
    assert ok, detail


def test_7_determinism_and_formats(acceptance, tmp_path):
    t0 = time.monotonic()
    base = {
        "seed": 11,
        "model": "cac_tiny_synth",
        "lambda": 0.3,
        "epochs": 2,
        "batch_size": 32,
        "dataset": {"kind": "synthetic", "synth_n": 64, "synth_test_n": 32},
        "optimizer": {"lr": 0.05},
    }
    train = synth_dataset("smooth_vs_textured", 64, 0)
    test = synth_dataset("smooth_vs_textured", 32, 1)
    results = []
    for tag in ("a", "b"):
        cfg = RunConfig.from_dict({**base, "output_dir": str(tmp_path / tag)})
        results.append(train_model(cfg, train.images, train.labels,
                                   test.images, test.labels, progress=False))
    r1, r2 = results
    with open(r1.metrics_path, "rb") as f:
        metrics_identical = f.read() == open(r2.metrics_path, "rb").read()
    with open(r1.checkpoint_path, "rb") as f:
        ckpt_identical = f.read() == open(r2.checkpoint_path, "rb").read()

    net2 = Network.build(resolve_model_spec("cac_tiny_synth"),
                         rng=np.random.default_rng(321))
    net2.load_state_dict(load_checkpoint(r1.checkpoint_path))
    y_orig = r1.net.forward(test.images, train=False)
    y_back = net2.forward(test.images, train=False)
    e_orig = evaluate(r1.net, test.images, test.labels)
    e_back = evaluate(net2, test.images, test.labels)
    reload_identical = (np.array_equal(y_orig, y_back)
                        and e_orig.top1_error == e_back.top1_error
                        and np.array_equal(e_orig.per_sample_madds,
                                           e_back.per_sample_madds))

    rng = np.random.default_rng(505)
    images = rng.integers(0, 256, size=(4, 3, 32, 32), dtype=np.uint8)
    labels = rng.integers(0, 10, size=4, dtype=np.int64)
    batch = tmp_path / "data_batch_1.bin"
    write_cifar10_batch(batch, images, labels)
    raw = batch.read_bytes()

    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(raw[:-7])
    try:
        parse_cifar10_file(trunc)
        trunc_rejected = False
    except DataFormatError as exc:
        trunc_rejected = f"byte offset {3 * RECORD_BYTES}" in str(exc)

    bad = bytearray(raw)
    bad[2 * RECORD_BYTES] = 13
    bad_path = tmp_path / "badlabel.bin"
    bad_path.write_bytes(bytes(bad))
    try:
        parse_cifar10_file(bad_path)
        label_rejected = False
    except DataFormatError as exc:
        label_rejected = "record 2" in str(exc) and "13" in str(exc)

    wall = time.monotonic() - t0
    ok = (metrics_identical and ckpt_identical and reload_identical
          and trunc_rejected and label_rejected and wall < 120.0)
    detail = (f"repeat run byte-identical: metrics {metrics_identical}, checkpoint "
              f"{ckpt_identical}; save/load/eval identical: {reload_identical}; "
              f"corrupt rejection indexed: truncation {trunc_rejected}, label "
              f"{label_rejected}; {wall:.1f}s")
    acceptance.record(7, "determinism and formats", ok, detail)
    assert ok, detail
