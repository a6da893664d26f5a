import json
import math
from fractions import Fraction

import numpy as np
import pytest

from cacconv import (
    CacConvParams,
    InvalidArgument,
    LayerCostSpec,
    MaddsCounter,
    cost_penalty,
    madds_cac,
    madds_standard,
    model_cost,
    rho_upper_bound,
)
from cacconv.oracle import cac_forward_naive, conv2d_naive


def spec(n=8, k=3, ci=4, co=4, cac=True, layer_id="L"):
    return LayerCostSpec(layer_id=layer_id, n=n, k=k, c_in=ci, c_out=co, cac=cac)


class TestMaddsStandard:
    def test_formula(self):
        assert madds_standard(spec(n=32, k=3, ci=16, co=16)) == 16 * 16 * 9 * 1024

    def test_matches_instrumented_counter(self):
        rng = np.random.default_rng(0)
        for n, k, ci, co in [(5, 3, 2, 3), (4, 1, 3, 2), (6, 5, 1, 2)]:
            x = rng.standard_normal((1, ci, n, n)).astype(np.float32)
            w = rng.standard_normal((k, k, ci, co)).astype(np.float32)
            counter = MaddsCounter()
            conv2d_naive(x, w, counter=counter)
            assert counter.count == madds_standard(spec(n=n, k=k, ci=ci, co=co, cac=False))

    def test_overflow_guard(self):
        s = LayerCostSpec("big", n=2**20, k=5, c_in=2**12, c_out=2**12)
        with pytest.raises(OverflowError):
            madds_standard(s)

    def test_positive_dims_required(self):
        with pytest.raises(InvalidArgument):
            LayerCostSpec("bad", n=0, k=3, c_in=1, c_out=1)


class TestMaddsCac:
    def test_rho_one_recovers_standard_plus_overhead(self):
        s = spec(n=32, k=3, ci=16, co=16)
        bd = madds_cac(s, 1.0)
        assert bd.kxk == madds_standard(s)
        assert bd.one_by_one == 0.0
        assert bd.scoring == 13 * 32 * 32
        assert bd.total == 2_372_608.0

    def test_rho_zero_is_pointwise_plus_overhead(self):
        s = spec(n=8, k=3, ci=4, co=4)
        bd = madds_cac(s, 0.0)
        assert bd.kxk == 0.0
        assert bd.one_by_one == madds_standard(s) / 9
        assert bd.scoring == 13 * 64

    def test_exact_fraction_path_matches_counter(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            params = CacConvParams(
                weight=(rng.standard_normal((3, 3, ci, co)) / 3).astype(np.float32),
                gamma=1.0, beta=float(rng.uniform(-0.5, 0.5)),
            )
            x = rng.standard_normal((1, ci, n, n)).astype(np.float32)
            counter = MaddsCounter()
            _, parts = cac_forward_naive(x, params, counter=counter)
            s = spec(n=n, ci=ci, co=co)
            bd = madds_cac(s, Fraction(parts[0].sharp_count, parts[0].total_windows))
            assert bd.kxk == int(bd.kxk) and bd.one_by_one == int(bd.one_by_one)
            assert counter.count == int(bd.kxk) + int(bd.one_by_one)

    def test_rho_out_of_range_rejected(self):
        with pytest.raises(InvalidArgument):
            madds_cac(spec(), 1.5)
        with pytest.raises(InvalidArgument):
            madds_cac(spec(), Fraction(-1, 4))
        with pytest.raises(InvalidArgument):
            madds_cac(spec(), float("nan"))


class TestRhoUpperBound:
    def test_reference_value(self):
        # 1 - 13/2048
        rb = rho_upper_bound(spec(n=32, k=3, ci=16, co=16))
        assert abs(rb - 0.99365) <= 1e-4
        assert rb == 1.0 - 13.0 / 2048.0

    def test_break_even_within_one_ulp(self):
        s = spec(n=16, k=3, ci=8, co=8)
        rb = rho_upper_bound(s)
        omega = madds_standard(s)
        total = madds_cac(s, rb).total
        assert abs(total - omega) <= 2 * np.spacing(float(omega))

    def test_break_even_sign_identity_full_grid(self):
        for k in (3, 5, 7):
            for c in range(1, 65):
                s = LayerCostSpec("g", n=16, k=k, c_in=c, c_out=c, cac=True)
                rb = rho_upper_bound(s)
                omega = madds_standard(s)
                probes = [0.0, 0.25, 0.5, 1.0]
                if 0.0 < rb < 1.0:
                    probes += [rb - 1e-6, rb + 1e-6]
                for rho in probes:
                    if not 0.0 <= rho <= 1.0:
                        continue
                    diff = madds_cac(s, rho).total - omega
                    want = rho - rb
                    if diff != 0.0 and want != 0.0:
                        assert math.copysign(1, diff) == math.copysign(1, want), (k, c, rho)

    def test_unit_kernel_rejected(self):
        with pytest.raises(InvalidArgument):
            rho_upper_bound(LayerCostSpec("l", n=4, k=1, c_in=2, c_out=2))


class TestModelCost:
    def test_report_rows_and_totals(self):
        specs = [
            spec(n=32, k=3, ci=3, co=16, cac=True, layer_id="a"),
            spec(n=16, k=3, ci=16, co=32, cac=False, layer_id="b"),
            LayerCostSpec("head", n=1, k=1, c_in=64, c_out=10),
        ]
        report = model_cost(specs, [np.array([0.5, 0.7]), 1.0, 1.0])
        assert report.c_baseline == sum(madds_standard(s) for s in specs)
        row = report.rows[0]
        assert row.rho_mean == pytest.approx(0.6)
        assert row.rho_std == pytest.approx(0.1)
        assert row.omega_cac == pytest.approx(madds_cac(specs[0], 0.6).total)
        assert report.rows[1].rho_mean == 1.0 and report.rows[1].omega_cac == float(
            madds_standard(specs[1])
        )
        assert math.isnan(report.rows[2].rho_bar)
        total_from_rows = sum(r.omega_cac for r in report.rows)
        assert report.c_model == pytest.approx(total_from_rows)
        assert report.reduction_percent == pytest.approx(100 * (1 - report.ratio))

    def test_csv_header_fixed(self):
        report = model_cost([spec(layer_id="x")], [0.25])
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "layer_id,rho_mean,rho_std,omega_conv,omega_cac,rho_bar"
        assert lines[1].startswith("x,0.25,0.0,")

    def test_totals_json_round_trips(self):
        report = model_cost([spec()], [0.5])
        d = json.loads(report.totals_json())
        assert set(d) == {"c_model", "c_baseline", "ratio", "reduction_percent"}
        assert d["ratio"] == report.ratio

    def test_cheaper_iff_below_break_even(self):
        s = spec(n=16, k=3, ci=8, co=8)
        rb = rho_upper_bound(s)
        lo = model_cost([s], [rb - 0.01])
        hi = model_cost([s], [rb + 0.003])
        assert lo.rows[0].omega_cac < lo.rows[0].omega_conv
        assert hi.rows[0].omega_cac > hi.rows[0].omega_conv

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            model_cost([spec()], [0.5, 0.6])


class TestPenalty:
    def test_lambda_zero_is_identity(self):
        f, d = cost_penalty(0.37, 0.0)
        assert f == 1.0 and d == 0.0

    def test_linear_case(self):
        f, d = cost_penalty(0.5, 1.0)
        assert f == 0.5 and d == 1.0

    def test_derivative_matches_finite_difference(self):
        lam = 0.3
        r = 0.8
        f, d = cost_penalty(r, lam)
        eps = 1e-7
        num = (cost_penalty(r + eps, lam)[0] - cost_penalty(r - eps, lam)[0]) / (2 * eps)
        assert abs(d - num) <= 1e-6
        assert f == pytest.approx(0.8**0.3)

    def test_monotone_in_ratio(self):
        vals = [cost_penalty(r, 0.7)[0] for r in (0.2, 0.5, 0.9, 1.3)]
        assert vals == sorted(vals)

    def test_invalid_ranges(self):
        with pytest.raises(InvalidArgument):
            cost_penalty(0.0, 0.5)
        with pytest.raises(InvalidArgument):
            cost_penalty(1.0, -0.1)
