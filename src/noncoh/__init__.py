"""Closed-form mutual information and capacity of the memoryless
noncoherent SISO Rayleigh-fading channel under two-mass-point inputs,
with independent quadrature / Monte-Carlo / finite-difference oracles."""

from .channel import (
    ChannelParams,
    DerivedParams,
    TwoPointInput,
    derive_params,
    snr_from_db,
    snr_of,
    snr_to_db,
    transition_density,
)
from .capacity import CapacityPoint, SweepConfig, mi_profile, solve_a2_star, sweep
from .mi import (
    Case,
    MIResult,
    conditional_entropy,
    continuation_residual,
    hyp3f2_sin_identity_residual,
    input_entropy,
    j_case1,
    j_case2,
    j_case3,
    mi_derivative_a2,
    mutual_information,
)
from .oracle import (
    FDOrder,
    MonteCarloConfig,
    QuadratureConfig,
    fd_derivative,
    j_quadrature,
    mi_monte_carlo,
    mi_quadrature,
)
from .specfun import (
    SeriesResult,
    SpecfunConfig,
    gauss_2f1,
    hyp_pfq,
    incomplete_beta,
    log1p_series_partial_sum,
)

__version__ = "0.1.0"

__all__ = [
    "Case",
    "CapacityPoint",
    "ChannelParams",
    "DerivedParams",
    "FDOrder",
    "MIResult",
    "MonteCarloConfig",
    "QuadratureConfig",
    "SeriesResult",
    "SpecfunConfig",
    "SweepConfig",
    "TwoPointInput",
    "conditional_entropy",
    "continuation_residual",
    "derive_params",
    "fd_derivative",
    "gauss_2f1",
    "hyp3f2_sin_identity_residual",
    "hyp_pfq",
    "incomplete_beta",
    "input_entropy",
    "j_case1",
    "j_case2",
    "j_case3",
    "j_quadrature",
    "log1p_series_partial_sum",
    "mi_derivative_a2",
    "mi_monte_carlo",
    "mi_profile",
    "mi_quadrature",
    "mutual_information",
    "snr_from_db",
    "snr_of",
    "snr_to_db",
    "solve_a2_star",
    "sweep",
    "transition_density",
]
