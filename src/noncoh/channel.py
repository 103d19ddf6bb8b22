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

    def is_degenerate(self) -> bool:
        """One mass point: a2 in {0, 1}, or x2^2 = 0 in floats."""
        return self.a2 in (0.0, 1.0) or self.x2 * self.x2 == 0.0


def derive_params(x: float, inp: TwoPointInput, ch: ChannelParams) -> tuple[float, float]:
    """(alpha, beta) of the closed forms for J(x), for any x >= 0 with a
    finite square."""
    if inp.is_degenerate():
        raise DegenerateInput(
            "two-point input collapses to a single mass point (a2 in {0,1} or x2 = 0)"
        )
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
    if snr_linear <= 0.0:
        raise DomainError("linear SNR must be positive")
    return 10.0 * math.log10(snr_linear)
