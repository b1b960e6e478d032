"""Error exponents and finite-length Type II error bounds for distributed
tests of independence under a one-sided communication rate constraint.

Library layout:

* dist        -- joint pmfs, information measures, discretized Gaussians
* bottleneck  -- the exponent curve xi(R) via an information bottleneck solver
* bounds      -- four-regime gap bounds, feasibility intervals, critical sample sizes
* simulate    -- exact quantized models and Monte Carlo validation
* cli         -- command-line front end
"""

from .dist import (
    DistributionError,
    UnreachableTargetError,
    DivergenceStats,
    JointPmf,
    c_constant,
    calibrate_correlation,
    discretized_gaussian,
    divergence_stats,
    entropy,
    log_ratio_matrix,
    mutual_information,
    product_model,
)
from .bottleneck import (
    SolverError,
    TestChannel,
    IbSolution,
    ExponentCurve,
    build_curve,
    channel_information,
    exponent_at_rate,
    ib_fixed_point,
    solve_envelope,
)
from .bounds import (
    RegimeDomainError,
    RegimeSpecError,
    TypeIRegime,
    BoundReport,
    critical_sample_size,
    eps_at,
    feasibility_interval,
    gap_bounds,
)
from .simulate import (
    SimulationError,
    Encoder,
    QuantizedModel,
    SimResult,
    ThresholdCalibration,
    calibrate_threshold,
    centralized_second_order,
    estimate_errors,
    lloyd_max,
    quantized_model,
    wilson_interval,
)

__version__ = "0.1.0"
