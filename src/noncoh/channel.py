"""Channel and input-distribution domain model.

The magnitude channel has Rayleigh-type transition density
f(y|x) = 2y/(x^2+sigma^2) exp(-y^2/(x^2+sigma^2)), and the input magnitude
is concentrated on {0, x2} with probabilities {1-a2, a2}.  The derived
quantities

    alpha = (x2^2/(x2^2+sigma^2)) * ((x^2+sigma^2)/sigma^2)
    beta  = (a2/(1-a2)) * (sigma^2/(x2^2+sigma^2))

are the parameters of the paper's closed forms for J(x) at any magnitude
x >= 0; derive_params gives them to the forms of noncoh.reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateInput, DomainError


@dataclass(frozen=True)
class ChannelParams:
    """Noise power sigma^2 (natural units) and optional power budget P."""

    sigma2: float
    power_budget: float | None = None

    def __post_init__(self):
        if not 0.0 < self.sigma2 < math.inf:
            raise DomainError(f"sigma2 must be finite and positive (sigma2={self.sigma2})")
        if self.power_budget is not None and not 0.0 < self.power_budget < math.inf:
            raise DomainError(f"power_budget must be finite and positive when present "
                              f"(power_budget={self.power_budget}, sigma2={self.sigma2})")


@dataclass(frozen=True)
class TwoPointInput:
    """Discrete input magnitude law: mass a2 at x2 > 0, mass 1-a2 at 0."""

    a2: float
    x2: float

    def __post_init__(self):
        if not 0.0 <= self.a2 <= 1.0:
            raise DomainError("a2 must be in [0, 1]")
        if self.x2 < 0.0:
            raise DomainError("x2 must be nonnegative")
        if not self.x2 * self.x2 < math.inf:
            raise DomainError("x2 must be finite, with a finite square")

    @property
    def a1(self) -> float:
        return 1.0 - self.a2


def one_mass_point(inp: TwoPointInput, ch: ChannelParams) -> bool:
    """Whether the input collapses to one mass point, which carries I = 0:
    a2 in {0, 1}, or t = x2^2/sigma^2 so small (0 included) that the
    closed forms' 2F1 parameter b = 1 + 1/t overflows.  The one rule behind
    the value path, the oracles and the CLI."""
    t = inp.x2**2 / ch.sigma2
    return inp.a2 in (0.0, 1.0) or t == 0.0 or not 1.0 + 1.0 / t < math.inf


def derive_params(x: float, inp: TwoPointInput, ch: ChannelParams) -> tuple[float, float]:
    """(alpha, beta) of the closed forms for J(x), for any x >= 0 with a
    finite square; DegenerateInput for one mass point (see one_mass_point)."""
    if one_mass_point(inp, ch):
        raise DegenerateInput("two-point input collapses to a single mass point")
    if not (x >= 0.0 and x * x < math.inf):
        raise DomainError(f"x must be nonnegative, with a finite square (x={x})")
    s2 = ch.sigma2
    big = inp.x2**2 + s2
    return (inp.x2**2 / big) * ((x * x + s2) / s2), (inp.a2 / inp.a1) * (s2 / big)


def snr_from_db(db: float) -> float:
    """Linear SNR 10^(db/10); DomainError when it is not finite."""
    try:
        snr = 10.0 ** (db / 10.0)
    except OverflowError:
        snr = math.inf
    if not snr < math.inf:
        raise DomainError(f"SNR of {db} dB is not finite in linear units")
    return snr


def snr_to_db(snr_linear: float) -> float:
    """10 log10 of a linear SNR; DomainError unless it is finite and positive."""
    if not 0.0 < snr_linear < math.inf:
        raise DomainError(f"linear SNR must be finite and positive (got {snr_linear})")
    return 10.0 * math.log10(snr_linear)
