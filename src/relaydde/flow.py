"""Closed-form evaluation of the constant-feedback linear flows.

Between switching events the model is a linear ODE with feedback frozen at
s in {+1, -1}; its solution is

    v(t) = A(t) v(0) + s * b(t)

where A and b (``_advance`` below) are written in terms of two
regime-spanning scalar functions ``gcos`` and ``gsinc``.  In the
underdamped regime these are cos(omega t) and sin(omega t)/omega; in the
overdamped regime the same code path evaluates cosh and sinh/|omega|
through the sign of ``omega2``; at the critical point they reduce to 1
and t.  A short series covers the neighborhood of the critical point where
the trig forms would cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .params import Rates, Regime

# |omega2| * t^2 below this uses the series; three terms give ~1e-24 truncation.
SERIES_THRESHOLD = 1e-8


@dataclass(frozen=True)
class Headpoint:
    """Current (x, y) value of the solution."""

    x: float
    y: float


def gcos(t: float, r: Rates) -> float:
    """cos(omega t), cosh(|omega| t), or the critical limit 1, by regime."""
    w2t2 = r.omega2 * t * t
    if abs(w2t2) < SERIES_THRESHOLD:
        return 1.0 - w2t2 / 2.0 + w2t2 * w2t2 / 24.0
    if r.omega2 > 0.0:
        return math.cos(r.omega_abs * t)
    return math.cosh(r.omega_abs * t)


def gsinc(t: float, r: Rates) -> float:
    """sin(omega t)/omega, sinh(|omega| t)/|omega|, or the critical limit t."""
    w2t2 = r.omega2 * t * t
    if abs(w2t2) < SERIES_THRESHOLD:
        return t * (1.0 - w2t2 / 6.0 + w2t2 * w2t2 / 120.0)
    if r.omega2 > 0.0:
        return math.sin(r.omega_abs * t) / r.omega_abs
    return math.sinh(r.omega_abs * t) / r.omega_abs


def decayed_gcos_gsinc(t: float, r: Rates) -> tuple[float, float]:
    """(e^{-mu t} gcos(t), e^{-mu t} gsinc(t)) without intermediate overflow.

    In the overdamped regime |omega| < mu, so both exponents below are
    negative for t > 0 and the products stay bounded even when cosh alone
    would overflow.  The sinh part is e^{(w-mu)t} (1 - e^{-2wt}) / (2w) with
    the bracket from expm1, which does not cancel when w t is small.
    """
    w2t2 = r.omega2 * t * t
    if abs(w2t2) < SERIES_THRESHOLD or r.omega2 > 0.0:
        decay = math.exp(-r.mu * t)
        return decay * gcos(t, r), decay * gsinc(t, r)
    w = r.omega_abs
    ep = math.exp((w - r.mu) * t)
    em = math.exp(-(w + r.mu) * t)
    return 0.5 * (ep + em), -0.5 * ep * math.expm1(-2.0 * w * t) / w


def decayed_gcos_gsinc_array(t: np.ndarray, r: Rates) -> tuple[np.ndarray, np.ndarray]:
    """decayed_gcos_gsinc over a 1-D array of t >= 0, branch for branch."""
    w2t2 = r.omega2 * t * t
    series = np.abs(w2t2) < SERIES_THRESHOLD
    w = r.omega_abs
    if r.omega2 > 0.0:
        decay = np.exp(-r.mu * t)
        egc, egs = decay * np.cos(w * t), decay * (np.sin(w * t) / w)
    elif r.omega2 < 0.0:
        ep = np.exp((w - r.mu) * t)
        em = np.exp(-(w + r.mu) * t)
        egc, egs = 0.5 * (ep + em), -0.5 * ep * np.expm1(-2.0 * w * t) / w
    else:  # critical: omega2 = 0 puts every t in the series
        egc, egs = np.empty_like(t), np.empty_like(t)
    if series.any():
        ts, z = t[series], w2t2[series]
        decay = np.exp(-r.mu * ts)
        egc[series] = decay * (1.0 - z / 2.0 + z * z / 24.0)
        egs[series] = decay * (ts * (1.0 - z / 6.0 + z * z / 120.0))
    return egc, egs


def _advance(egc, egs, x0, y0, s, r: Rates):
    """(x, y) of A(t)v + s b(t), v = (x0, y0), from the decayed pair; any
    argument but r may be an array.  Callers pass s in {+1, -1}; apply_flow checks."""
    mu = r.mu
    bx = 2.0 * mu * egs
    by_decay = egc + mu * egs
    x = (egc - mu * egs) * x0 - 2.0 * mu * egs * y0 + s * bx
    y = (
        r.omega_sq_plus_mu_sq / (2.0 * mu) * egs * x0
        + by_decay * y0
        + s * (1.0 - by_decay)
    )
    return x, y


def apply_flow(t: float, v: Headpoint, s: int, r: Rates) -> Headpoint:
    """Advance the headpoint by time t under feedback frozen at s in {+1, -1}."""
    if s not in (-1, 1):
        raise ValueError(f"flow sign must be +1 or -1, got {s}")
    return Headpoint(*_advance(*decayed_gcos_gsinc(t, r), v.x, v.y, s, r))


def flow_x(t: float, v: Headpoint, s: int, r: Rates) -> float:
    """x-component of apply_flow, without building the Headpoint."""
    egc, egs = decayed_gcos_gsinc(t, r)
    mu = r.mu
    return (egc - mu * egs) * v.x - 2.0 * mu * egs * (v.y - s)


def first_crossing(x: float, d: float, r: Rates) -> Optional[float]:
    """Smallest t > 0 with x gcos(t) - d gsinc(t) = 0, or None when there is none.

    e^{mu t} x(t) of a frozen-feedback flow has this form (d = mu x +
    2 mu (y - s)), so its zeros are the crossings of x.  Underdamped,
    tan(omega t) = omega x / d has a root in every half wave; the arctangent
    of the sign-flipped pair lands in (0, pi) directly, where adding pi to a
    negative angle would cancel when omega t << 1.  Critical, the line
    x - d t; overdamped, tanh(|omega| t) = |omega| x / d, which has a root
    only for a ratio in (0, 1).
    """
    if r.regime is Regime.UNDERDAMPED:
        w = r.omega_abs
        if x == 0.0:
            return math.pi / w if d != 0.0 else None
        return math.atan2(w * abs(x), d if x > 0.0 else -d) / w
    if d == 0.0:
        return None
    if r.regime is Regime.CRITICAL:
        t = x / d
        return t if t > 0.0 else None
    ratio = r.omega_abs * x / d
    if not 0.0 < ratio < 1.0:
        return None
    return math.atanh(ratio) / r.omega_abs
