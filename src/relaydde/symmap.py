"""Finite-dimensional map for four-symbol symmetric periodic solutions.

A symmetric solution with alternating H-type and Z-type events and ``nu``
zero crossings inside the delay window reduces to a (nu+1)-dimensional map
acting on the state (y at the anchoring Z-type event, the nu inter-crossing
intervals).  This module provides the map itself, its fixed points, the
Jacobian coefficients, and the characteristic-root spectrum.

Fixed points are roots of a single scalar equation for the switching
interval T*.  Several solution families can place roots inside the same
period bracket, so the solvers here expose all bracketed candidates and a
selection rule that prefers the root realizing a consistent orbit for the
requested feedback sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Degenerate, InvalidState, NoCrossing, NoRoot
from .events import SystemState
from .flow import Headpoint, decayed_gcos_gsinc, first_crossing, gsinc
from .params import Parameters, Rates, Regime, derive_rates
from .rootfind import brentq

T_STAR_GRID = 512
T_STAR_POINTS_PER_HALF_WAVE = 16
T_STAR_GRID_MAX = 2**20  # first-pass points; the 8x retry stays under 8.4M
T_STAR_XTOL = 1e-14
SLOW_BRACKET_SPAN = 20.0  # nu = 0 bracket is (1, 1 + SLOW_BRACKET_SPAN / mu)


@dataclass(frozen=True)
class StateVector:
    """Map state: y at the Z-type headpoint plus nu inter-crossing intervals."""

    yZ: float
    T: tuple[float, ...] = ()

    @property
    def nu(self) -> int:
        return len(self.T)

    def as_array(self) -> np.ndarray:
        return np.array([self.yZ, *self.T])


def reflect(s: StateVector) -> StateVector:
    """Sign flip of the y component (the R operation); intervals unchanged."""
    return StateVector(-s.yZ, s.T)


def delta_of(s: StateVector) -> float:
    """Time from the anchor to the next feedback switch: 1 - sum(T), or 1 if nu=0."""
    if not s.T:
        return 1.0
    d = 1.0 - math.fsum(s.T)
    if d < 0.0:
        raise InvalidState(f"negative switch gap: sum(T) = {1.0 - d} > 1")
    return d


def z_of(s: StateVector, r: Rates, delta: Optional[float] = None) -> float:
    """Time from the feedback switch to the next zero crossing of x.

    After the switch gap the flow's crossing function is num gcos(z) -
    den gsinc(z) (see ``flow.first_crossing``); overdamped or critical the
    crossing may not exist.  The boundary case of a vanishing numerator
    (y_Z = -1, or a switch gap hitting a half wave) is rejected: it would
    put the crossing at the switch itself.
    """
    if delta is None:
        delta = delta_of(s)
    egc, egs = decayed_gcos_gsinc(delta, r)
    yp1 = s.yZ + 1.0
    num = egs * yp1                   # e^{-mu d} gsinc(d) (y_Z + 1)
    den = 2.0 - egc * yp1             # 2 - e^{-mu d} gcos(d) (y_Z + 1)
    if num == 0.0:
        raise NoCrossing("zero-crossing time degenerates to z = 0")
    z = first_crossing(num, den, r)
    if z is None:
        raise NoCrossing(f"no positive crossing in the {r.regime.value} regime")
    return z


def map_M(s: StateVector, p: Parameters, r: Optional[Rates] = None) -> StateVector:
    """One two-symbol shift (Z-type to next Z-type) composed with the sign flip.

    Fixed points of this map are the symmetric four-symbol periodic
    solutions; applying it twice gives the full four-event return map.
    """
    if r is None:
        r = derive_rates(p)
    delta = delta_of(s)
    z = z_of(s, r, delta)
    egc_z, _ = decayed_gcos_gsinc(z, r)
    egc_dz, _ = decayed_gcos_gsinc(delta + z, r)
    y_new = -1.0 + 2.0 * egc_z - (s.yZ + 1.0) * egc_dz
    if not s.T:
        return StateVector(y_new)
    return StateVector(y_new, (delta + z,) + s.T[:-1])


def _t_star_residual_vec(T: np.ndarray, nu: int, r: Rates) -> np.ndarray:
    """Vector residual whose zeros are switching intervals of nu-fixed points.

    Derived from the fixed-point condition by clearing denominators:
    e^{mu T} gsinc((nu+1) T - 1) - gsinc(1 - nu T), pole free in T and
    continuous across the damping regimes.
    """
    z = (nu + 1.0) * T - 1.0
    d = 1.0 - nu * T
    if r.regime is Regime.UNDERDAMPED:
        w = r.omega_abs
        gz = np.sin(w * z) / w
        gd = np.sin(w * d) / w
    elif r.regime is Regime.OVERDAMPED:
        w = r.omega_abs
        gz = np.sinh(w * z) / w
        gd = np.sinh(w * d) / w
    else:
        gz = z
        gd = d
    return np.exp(r.mu * T) * gz - gd


def _t_star_residual(T: float, nu: int, r: Rates) -> float:
    z = (nu + 1.0) * T - 1.0
    d = 1.0 - nu * T
    return math.exp(r.mu * T) * gsinc(z, r) - gsinc(d, r)


def t_star_bracket(nu: int, r: Rates) -> tuple[float, float]:
    """Period constraint bracket: T* in (1/(nu+1), 1/nu), or (1, T_max) for nu=0."""
    if nu == 0:
        return 1.0, 1.0 + SLOW_BRACKET_SPAN / r.mu
    return 1.0 / (nu + 1.0), 1.0 / nu


def t_star_candidates(nu: int, p: Parameters) -> list[float]:
    """All roots of the switching-interval equation inside the bracket, ascending.

    Scans a uniform grid for sign changes and refines each by Brent's
    method; near-edge probes catch roots approaching the bracket boundary
    (the corner-collision limits).  Underdamped, the grid is sized so fast
    oscillation cannot alias; ValueError, before any allocation, when that
    needs more than T_STAR_GRID_MAX points.  One 8x grid refinement
    resolves tangency-grade cases before giving up.
    """
    if nu < 0:
        raise ValueError("nu must be non-negative")
    r = derive_rates(p)
    lo, hi = t_star_bracket(nu, r)
    grid = T_STAR_GRID
    if r.regime is Regime.UNDERDAMPED:  # fastest residual component: sin((nu+1) omega T)
        half_waves = (nu + 1.0) * r.omega_abs * (hi - lo) / math.pi
        if T_STAR_POINTS_PER_HALF_WAVE * half_waves > T_STAR_GRID_MAX:
            raise ValueError(f"nu={nu} at Q={p.Q}, Omega={p.Omega} needs a T* grid of "
                             f"over {T_STAR_GRID_MAX} points")
        grid = max(grid, T_STAR_POINTS_PER_HALF_WAVE * math.ceil(half_waves))
    for n in (grid, 8 * grid):
        roots = _scan_roots(nu, r, lo, hi, n)
        if roots:
            return roots
    if nu == 0:
        # At strong damping the slow-mode crossing gap T* - 1 shrinks like
        # e^{-(mu - |omega|)}, far below any uniform grid; hunt for it on a
        # geometric grid in the gap itself.
        root = _scan_slow_gap(r, hi - 1.0)
        if root is not None:
            return [root]
    return []


def _sign_changes(res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of exact zeros, and of brackets [i, i+1] with a sign change and no zero at i."""
    pos = res > 0.0
    zero = res == 0.0
    return zero, (pos[:-1] != pos[1:]) & ~zero[:-1]


def _scan_slow_gap(r: Rates, gap_max: float) -> Optional[float]:
    """First root on a geometric grid of the gap T* - 1 (nu = 0 only)."""
    gaps = np.geomspace(1e-15, gap_max, 256)
    res = np.array([_t_star_residual(1.0 + g, 0, r) for g in gaps])
    zero, change = _sign_changes(res)
    hits = np.flatnonzero(zero[:-1] | change)
    if not hits.size:
        return None
    i = hits[0]
    if zero[i]:
        return float(1.0 + gaps[i])
    return 1.0 + brentq(
        lambda g: _t_star_residual(1.0 + g, 0, r),
        gaps[i], gaps[i + 1], xtol=1e-18, rtol=1e-15, maxiter=200,
    )


def _scan_roots(nu, r, lo, hi, n):
    """Exact grid zeros, then Brent on each sign-change bracket (n points + 2 edge probes)."""
    span = hi - lo
    eps = span * 1e-12
    ts = np.concatenate(([lo + eps], np.linspace(lo, hi, n + 2)[1:-1], [hi - eps]))
    zero, change = _sign_changes(_t_star_residual_vec(ts, nu, r))
    roots = ts[zero].tolist() + [
        brentq(_t_star_residual, ts[i], ts[i + 1], args=(nu, r), xtol=T_STAR_XTOL, maxiter=200)
        for i in np.flatnonzero(change)
    ]
    return sorted(set(roots))


@dataclass(frozen=True)
class Validity:
    z_window: bool
    delta_window: bool
    parity: bool

    @property
    def all(self) -> bool:
        return self.z_window and self.delta_window and self.parity


@dataclass(frozen=True)
class FixedPoint:
    nu: int
    Tstar: float
    yZstar: float
    zstar: float
    deltastar: float
    valid: Validity
    params: Parameters

    @property
    def state(self) -> StateVector:
        return StateVector(self.yZstar, (self.Tstar,) * self.nu)


def _build_fixed_point(nu: int, T: float, p: Parameters, r: Rates) -> FixedPoint:
    z = (nu + 1.0) * T - 1.0
    d = 1.0 - nu * T
    egc_z, _ = decayed_gcos_gsinc(z, r)
    egc_d, _ = decayed_gcos_gsinc(d, r)
    # Denominator of the y formula: e^{mu z} gcos(z) + e^{-mu d} gcos(d).
    denom = egc_z * math.exp(2.0 * r.mu * z) + egc_d
    y = math.inf if denom == 0.0 else -1.0 + 2.0 / denom

    if r.regime is Regime.UNDERDAMPED:
        half = r.half_wave
        z_ok = 0.0 < z < half
        d_ok = 0.0 < d < half
    else:
        z_ok = z > 0.0
        d_ok = d > 0.0

    # The crossing reached after the feedback switch has direction
    # sign(1 + y*); alternation of crossing directions then fixes which
    # feedback sign the orbit realizes.  Overdamped the denominator is
    # positive and this reduces to the parity rule (nu even <-> sigma = -1).
    if denom == 0.0:
        sigma_ok = False
    else:
        sigma_realized = -_sign(denom) * (-1) ** nu
        sigma_ok = sigma_realized == p.sigma

    return FixedPoint(
        nu=nu,
        Tstar=T,
        yZstar=y,
        zstar=z,
        deltastar=d,
        valid=Validity(z_window=z_ok, delta_window=d_ok, parity=sigma_ok),
        params=p,
    )


def _sign(x: float) -> int:
    return 1 if x > 0.0 else -1


def fixed_point_candidates(nu: int, p: Parameters) -> list[FixedPoint]:
    r = derive_rates(p)
    return [_build_fixed_point(nu, T, p, r) for T in t_star_candidates(nu, p)]


def fixed_point(nu: int, p: Parameters) -> FixedPoint:
    """Fixed point of the nu-frequency map at p.

    When several solution families place roots in the bracket, the smallest
    root realizing a consistent orbit for p.sigma is returned; if none is
    consistent, the smallest root, so that validity flags can report why.
    """
    cands = fixed_point_candidates(nu, p)
    if not cands:
        raise NoRoot(f"no switching-interval root for nu={nu} at Q={p.Q}, Omega={p.Omega}")
    for fp in cands:
        if fp.valid.all:
            return fp
    return cands[0]


@dataclass(frozen=True)
class JacobianCoeffs:
    """Entries of the first two Jacobian rows, and e^{-2 mu T*}."""

    a: float
    b: float
    c: float
    d: float
    exp_2muT: float


def jacobian_coeffs(fp: FixedPoint) -> JacobianCoeffs:
    r = derive_rates(fp.params)
    T = fp.Tstar
    yp1 = fp.yZstar + 1.0
    if yp1 == 0.0 or not math.isfinite(yp1):
        raise Degenerate(f"y_Z* + 1 = {yp1} at Q={fp.params.Q}, Omega={fp.params.Omega}, nu={fp.nu}")
    egc, egs = decayed_gcos_gsinc(T, r)
    omega_c2 = r.omega_sq_plus_mu_sq  # equals Omega^2
    a = -(egc + r.mu * egs)
    b = -omega_c2 * yp1 * egs
    c = egs / yp1
    d = -1.0 - (egc - r.mu * egs)
    return JacobianCoeffs(a=a, b=b, c=c, d=d, exp_2muT=math.exp(-2.0 * r.mu * T))


def jacobian_matrix(jc: JacobianCoeffs, nu: int) -> np.ndarray:
    """Explicit (nu+1) x (nu+1) Jacobian: two dense rows over a shift block."""
    n = nu + 1
    m = np.zeros((n, n))
    m[0, 0] = jc.a
    if nu == 0:
        return m
    m[0, 1:] = jc.b
    m[1, 0] = jc.c
    m[1, 1:] = jc.d
    for i in range(2, n):
        m[i, i - 1] = 1.0
    return m


@dataclass(frozen=True)
class Spectrum:
    roots: np.ndarray  # complex, sorted by descending modulus
    unstable_count: int


def char_polynomial(jc: JacobianCoeffs, nu: int) -> np.ndarray:
    """Coefficients (numpy convention, highest power first) of the characteristic equation.

    lambda^{nu+1} - (a+d) lambda^nu + [(a-1)d - bc] (lambda^{nu-1} + ... + 1) + d = 0
    """
    A = (jc.a - 1.0) * jc.d - jc.b * jc.c
    if nu == 0:
        return np.array([1.0, -jc.a])
    return np.array([1.0, -(jc.a + jc.d)] + [A] * (nu - 1) + [A + jc.d])


def char_roots(jc: JacobianCoeffs, nu: int) -> Spectrum:
    """All characteristic roots via companion-matrix eigenvalues of the polynomial."""
    if nu == 0:
        roots = np.array([jc.a + 0.0j])
    else:
        roots = np.roots(char_polynomial(jc, nu))
    order = np.lexsort((roots.imag, roots.real, -np.abs(roots)))
    roots = roots[order]
    return Spectrum(roots=roots, unstable_count=int(np.sum(np.abs(roots) > 1.0)))


def spectrum_of(fp: FixedPoint) -> Spectrum:
    return char_roots(jacobian_coeffs(fp), fp.nu)


def x_H(fp: FixedPoint) -> float:
    """x at the H-type headpoint of the fixed-point orbit (map frame).

    The anchor-to-switch leg runs under the minus flow, so this is the
    x component of that flow after the switch gap delta*.
    """
    r = derive_rates(fp.params)
    _, egs = decayed_gcos_gsinc(fp.deltastar, r)
    return -2.0 * r.mu * egs * (fp.yZstar + 1.0)


def state_from_fixed_point(fp: FixedPoint) -> SystemState:
    """Event-simulator state seeded exactly on the fixed-point orbit.

    Raises InvalidState when the fixed point does not realize an orbit for
    fp.params.sigma (parity flag false): the simulation could not stay on it.
    """
    if not fp.valid.parity:
        raise InvalidState("fixed point does not realize an orbit for this sigma")
    zeros = tuple(-j * fp.Tstar for j in range(fp.nu + 1))
    return SystemState(t=0.0, v=Headpoint(0.0, fp.yZstar), zeros=zeros,
                       hist_sign=-fp.params.sigma)
