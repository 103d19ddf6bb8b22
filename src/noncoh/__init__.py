"""Closed-form mutual information and capacity of the memoryless
noncoherent SISO Rayleigh-fading channel under two-mass-point inputs,
with independent quadrature / Monte-Carlo / finite-difference oracles."""

from .channel import (
    ChannelParams,
    TwoPointInput,
    derive_params,
    snr_from_db,
    snr_to_db,
)
from .capacity import CapacityPoint, SweepConfig, mi_profile, solve_a2_star, sweep
from .mi import Case, MIResult, input_entropy, mi_derivative_a2, mutual_information
from .oracle import (
    fd_derivative,
    j_quadrature,
    mi_monte_carlo,
    mi_quadrature,
)
from .reference import (
    continuation_residual,
    hyp3f2_sin_identity_residual,
    j_case1,
    j_case2,
    j_case3,
    log1p_series_partial_sum,
)
from .specfun import SeriesResult, gauss_2f1, hyp_pfq

__version__ = "0.1.0"

__all__ = [
    "Case",
    "CapacityPoint",
    "ChannelParams",
    "MIResult",
    "SeriesResult",
    "SweepConfig",
    "TwoPointInput",
    "continuation_residual",
    "derive_params",
    "fd_derivative",
    "gauss_2f1",
    "hyp3f2_sin_identity_residual",
    "hyp_pfq",
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
    "snr_to_db",
    "solve_a2_star",
    "sweep",
]
