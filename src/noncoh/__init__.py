"""Closed-form mutual information and capacity of the memoryless
noncoherent SISO Rayleigh-fading channel under two-mass-point inputs,
with independent quadrature / Monte-Carlo / finite-difference oracles.

The top level is the value path and its oracles.  The paper's reference
forms of J(x) live in noncoh.reference, the generic pFq and Gauss 2F1
series in noncoh.specfun, and derive_params in noncoh.channel."""

from .channel import ChannelParams, TwoPointInput, snr_from_db, snr_to_db
from .capacity import CapacityPoint, SweepConfig, mi_profile, solve_a2_star, sweep
from .mi import MIResult, input_entropy, mi_derivative_a2, mutual_information
from .oracle import fd_derivative, j_quadrature, mi_monte_carlo, mi_quadrature

__version__ = "0.1.0"

__all__ = [
    "CapacityPoint",
    "ChannelParams",
    "MIResult",
    "SweepConfig",
    "TwoPointInput",
    "fd_derivative",
    "input_entropy",
    "j_quadrature",
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
