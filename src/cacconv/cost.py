"""Analytic multiply-add cost model.

All counts are dense MAdds for same-padding convolutions on square
feature maps: a standard layer costs c_in * c_out * k^2 * n^2.  The
content-aware layer replaces that with a sharp fraction rho at full
price, the remainder at 1/k^2 price, plus a fixed scoring overhead of
13 n^2 (four separable Sobel passes of 3 taps each, then one linear
gate transform per window).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tensor import require

_INT64_MAX = 2**63 - 1

SCORING_MADDS_PER_WINDOW = 13


@dataclass(frozen=True)
class LayerCostSpec:
    """Static shape of one layer for costing purposes.

    ``n`` is the output spatial side (1 for fully connected layers),
    ``cac`` marks layers that use gated dispatch."""

    layer_id: str
    n: int
    k: int
    c_in: int
    c_out: int
    cac: bool = False

    def __post_init__(self) -> None:
        require(self.n >= 1, f"n must be positive, got {self.n}")
        require(self.k >= 1, f"k must be positive, got {self.k}")
        require(self.c_in >= 1, f"c_in must be positive, got {self.c_in}")
        require(self.c_out >= 1, f"c_out must be positive, got {self.c_out}")
        if self.cac:
            require(self.k % 2 == 1 and self.k >= 3, "gated layers need odd k >= 3")


def madds_standard(spec: LayerCostSpec) -> int:
    """Exact dense MAdds of a standard convolution: c_in c_out k^2 n^2."""
    total = spec.c_in * spec.c_out * spec.k * spec.k * spec.n * spec.n
    if total > _INT64_MAX:
        raise OverflowError(f"madds count {total} exceeds 64-bit range")
    return total


@dataclass(frozen=True)
class CacCostBreakdown:
    """Per-term MAdds of one gated layer at a given sharp fraction."""

    kxk: float
    one_by_one: float
    scoring: float

    @property
    def total(self) -> float:
        return self.kxk + self.one_by_one + self.scoring


def madds_cac(spec: LayerCostSpec, rho) -> CacCostBreakdown:
    """Cost of a gated layer at sharp fraction ``rho``.

    Terms: rho * Omega for the k x k branch, (1 - rho) * Omega / k^2 for
    the 1 x 1 branch, and 13 n^2 scoring overhead.

    Pass ``rho`` as a fractions.Fraction (e.g. sharp_count / n^2) to get
    exact integer-valued branch terms that equal an instrumented count;
    a float rho gives the ordinary approximate evaluation.
    """
    omega = madds_standard(spec)
    k2 = spec.k * spec.k
    scoring = float(SCORING_MADDS_PER_WINDOW * spec.n * spec.n)
    if isinstance(rho, Fraction):
        require(0 <= rho <= 1, f"rho must lie in [0, 1], got {rho}")
        kxk = float(rho * omega)
        one = float((1 - rho) * Fraction(omega, k2))
        return CacCostBreakdown(kxk=kxk, one_by_one=one, scoring=scoring)
    rho = float(rho)
    require(math.isfinite(rho), "rho must be finite")
    require(0.0 <= rho <= 1.0, f"rho must lie in [0, 1], got {rho}")
    return CacCostBreakdown(
        kxk=rho * omega,
        one_by_one=(1.0 - rho) * omega / k2,
        scoring=scoring,
    )


def rho_upper_bound(spec: LayerCostSpec) -> float:
    """Break-even sharp fraction: 1 - 13 / ((k^2 - 1) c_in c_out).

    Below this fraction the gated layer is cheaper than the standard
    one; above it the scoring overhead is no longer amortized."""
    require(spec.k >= 2, "break-even is undefined for 1 x 1 kernels")
    k2 = spec.k * spec.k
    return 1.0 - SCORING_MADDS_PER_WINDOW / ((k2 - 1) * spec.c_in * spec.c_out)


@dataclass(frozen=True)
class CostRow:
    layer_id: str
    rho_mean: float
    rho_std: float
    omega_conv: int
    omega_cac: float
    rho_bar: float


@dataclass
class CostReport:
    """Per-layer cost rows plus model totals, serializable to CSV/JSON."""

    rows: list
    c_model: float
    c_baseline: int

    @property
    def ratio(self) -> float:
        return self.c_model / self.c_baseline

    @property
    def reduction_percent(self) -> float:
        return 100.0 * (1.0 - self.ratio)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("layer_id,rho_mean,rho_std,omega_conv,omega_cac,rho_bar\n")
        for r in self.rows:
            buf.write(
                f"{r.layer_id},{r.rho_mean!r},{r.rho_std!r},"
                f"{r.omega_conv},{r.omega_cac!r},{r.rho_bar!r}\n"
            )
        return buf.getvalue()

    def totals_json(self) -> str:
        totals = {
            "c_model": self.c_model,
            "c_baseline": self.c_baseline,
            "ratio": self.ratio,
            "reduction_percent": self.reduction_percent,
        }
        return json.dumps(totals, indent=2) + "\n"


def model_cost(specs, rho_per_layer) -> CostReport:
    """Aggregate layer costs into a model report.

    Args:
        specs: sequence of LayerCostSpec.
        rho_per_layer: one entry per spec; for gated layers a float or an
            array of observed sharp fractions (its mean prices the
            layer), ignored for plain layers (priced at full cost, zero
            overhead).

    Returns a CostReport whose baseline is the all-standard model.
    """
    specs = list(specs)
    rhos = list(rho_per_layer)
    require(
        len(specs) == len(rhos),
        f"got {len(specs)} layer specs but {len(rhos)} rho entries",
    )
    rows = []
    c_model = 0.0
    c_baseline = 0
    for spec, rho in zip(specs, rhos):
        omega = madds_standard(spec)
        c_baseline += omega
        if spec.cac:
            arr = np.atleast_1d(np.asarray(rho, dtype=np.float64))
            require(arr.size >= 1, f"layer {spec.layer_id}: empty rho sample")
            rho_mean = float(arr.mean())
            rho_std = float(arr.std())
            cost = madds_cac(spec, rho_mean).total
            rbar = rho_upper_bound(spec)
        else:
            rho_mean, rho_std = 1.0, 0.0
            cost = float(omega)
            rbar = rho_upper_bound(spec) if spec.k >= 2 else float("nan")
        c_model += cost
        rows.append(
            CostRow(
                layer_id=spec.layer_id,
                rho_mean=rho_mean,
                rho_std=rho_std,
                omega_conv=omega,
                omega_cac=cost,
                rho_bar=rbar,
            )
        )
    require(c_baseline > 0, "model has no layers to cost")
    return CostReport(rows=rows, c_model=c_model, c_baseline=c_baseline)


def cost_penalty(ratio: float, lam: float) -> tuple[float, float]:
    """Multiplicative cost factor ratio**lam and its derivative in ratio.

    lam = 0 switches the penalty off exactly (factor 1, derivative 0)."""
    require(math.isfinite(ratio) and ratio > 0, f"cost ratio must be positive, got {ratio}")
    require(lam >= 0, f"lambda must be non-negative, got {lam}")
    factor = ratio**lam
    if lam == 0.0:
        return 1.0, 0.0
    return factor, lam * ratio ** (lam - 1.0)
