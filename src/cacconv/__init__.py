"""Content-aware convolution engine.

Gradient-gated dispatch between a full k x k kernel on sharp windows
and an aggregated 1 x 1 kernel on smooth windows, with an analytic
multiply-add cost model and a training objective that trades task loss
against compute.
"""

from .errors import DataFormatError, InvalidArgument, NumericFailure
from .tensor import conv2d, im2col_batch, kernel_matrix
from .cac import (
    CacConvParams,
    WindowPartition,
    aggregate_kernel,
    cac_backward,
    cac_forward_hard,
    cac_forward_soft,
    partition,
    score_map,
    sobel_gradient,
)
from .cost import (
    CacCostBreakdown,
    CostReport,
    LayerCostSpec,
    cost_penalty,
    madds_cac,
    madds_standard,
    model_cost,
    rho_upper_bound,
)
from .oracle import MaddsCounter, cac_forward_naive, conv2d_naive, finite_diff_grad

__version__ = "0.1.0"

__all__ = [
    "CacConvParams",
    "CacCostBreakdown",
    "CostReport",
    "DataFormatError",
    "InvalidArgument",
    "LayerCostSpec",
    "MaddsCounter",
    "NumericFailure",
    "WindowPartition",
    "aggregate_kernel",
    "cac_backward",
    "cac_forward_hard",
    "cac_forward_naive",
    "cac_forward_soft",
    "conv2d",
    "conv2d_naive",
    "cost_penalty",
    "finite_diff_grad",
    "im2col_batch",
    "kernel_matrix",
    "madds_cac",
    "madds_standard",
    "model_cost",
    "partition",
    "rho_upper_bound",
    "score_map",
    "sobel_gradient",
]
