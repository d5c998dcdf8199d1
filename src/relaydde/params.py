"""Dimensionless model parameters and derived damping rates.

The model is the two-dimensional piecewise-linear system

    (Q / Omega) * dx/dt = -x - y + sigma * sign(x(t - 1))
    dy/dt = Q * Omega * x

with time measured in units of the feedback delay.  Everything downstream
works with the damping rate ``mu`` and the signed squared angular rate
``omega2``; ``omega2 < 0`` is the overdamped regime where the trig functions
of the flow turn hyperbolic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Regime(enum.Enum):
    UNDERDAMPED = "underdamped"
    OVERDAMPED = "overdamped"
    CRITICAL = "critical"


@dataclass(frozen=True)
class Parameters:
    """Dimensionless parameter triple (Q, Omega, sigma).

    Q : filter quality factor, > 0
    Omega : filter center frequency times delay, > 0
    sigma : +1 for positive feedback, -1 for negative feedback
    """

    Q: float
    Omega: float
    sigma: int = -1

    def __post_init__(self):
        if not (self.Q > 0.0) or not math.isfinite(self.Q):
            raise ValueError(f"Q must be positive and finite, got {self.Q}")
        if not (self.Omega > 0.0) or not math.isfinite(self.Omega):
            raise ValueError(f"Omega must be positive and finite, got {self.Omega}")
        if self.sigma not in (-1, 1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")


@dataclass(frozen=True)
class Rates:
    """Damping rate and signed squared angular rate of the constant-feedback flow.

    mu = Omega / (2 Q) > 0
    omega2 = Omega^2 (4 Q^2 - 1) / (2 Q)^2, negative when overdamped
    omega_abs = sqrt(|omega2|), cached for the trig/hyperbolic evaluations
    """

    mu: float
    omega2: float
    regime: Regime
    omega_abs: float

    @property
    def half_wave(self) -> float:
        """pi / omega, the zero-crossing spacing of the underdamped flow."""
        if self.regime is not Regime.UNDERDAMPED:
            return math.inf
        return math.pi / self.omega_abs

    @property
    def omega_sq_plus_mu_sq(self) -> float:
        """mu^2 + omega^2; algebraically equal to Omega^2 for any regime."""
        return self.mu * self.mu + self.omega2


def derive_rates(p: Parameters) -> Rates:
    """Damping rates for the constant-feedback linear flow.

    The regime is classified with an exact comparison of Q against 1/2 so
    that the critically damped case is first class rather than a numerical
    accident.  ValueError when a rate overflows, or omega underflows to 0
    off the critical point (Q or Omega near the float limits).
    """
    mu = p.Omega / (2.0 * p.Q)
    # (2Q - 1)(2Q + 1), not 4Q^2 - 1: near Q = 1/2 the rounding of 4Q^2
    # would dominate the difference, while 2Q - 1 is exact there.
    two_q = 2.0 * p.Q
    four_q2 = two_q * two_q  # underflows to 0 for Q below about 1e-162
    omega2 = p.Omega * p.Omega * ((two_q - 1.0) * (two_q + 1.0)) / four_q2 if four_q2 else -math.inf
    if p.Q > 0.5:
        regime = Regime.UNDERDAMPED
    elif p.Q < 0.5:
        regime = Regime.OVERDAMPED
    else:
        regime = Regime.CRITICAL
        omega2 = 0.0
    if not (math.isfinite(mu) and math.isfinite(omega2) and (omega2 != 0.0 or p.Q == 0.5)):
        raise ValueError(f"Q={p.Q}, Omega={p.Omega}: damping rates mu={mu}, "
                         f"omega^2={omega2} are outside floating-point range")
    return Rates(mu=mu, omega2=omega2, regime=regime, omega_abs=math.sqrt(abs(omega2)))
