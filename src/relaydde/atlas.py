"""Analytic bifurcation loci, existence/stability scans, and mode tracing.

Everything here is built from the fixed points and spectra of the
four-symbol map: Neimark-Sacker points are modulus-one crossings of complex
root pairs, pitchfork points are roots of a scalar condition available only
to odd-frequency solutions under negative feedback, and the two corner-type
curves are explicit in the parameter plane.

A "mode" is one periodic solution family followed across parameters.  In
the underdamped regime a mode passes through a type-1 corner where its
frequency label increments by one, and it ends at a type-2 corner.
``mode_segments`` is the one reader of a mode's Omega range: it takes the
range in either direction and cuts it into the mode's ascending pieces,
which the loci, ``mode_trace`` and the period diagram all consume.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import Degenerate, LostBranch, NoRoot
from .flow import decayed_gcos_gsinc
from .params import Parameters, Regime, derive_rates
from .rootfind import brentq
from .symmap import (
    FixedPoint,
    Spectrum,
    fixed_point,
    fixed_point_candidates,
    jacobian_coeffs,
    spectrum_of,
    x_H,
)

LOCUS_OMEGA_TOL = 1e-10
NS_EQ_TOL = 1e-7
DEFAULT_LOCUS_SAMPLES = 600


@dataclass(frozen=True)
class NSCoefficients:
    """Scalar functions of (Q, Omega) entering the unit-circle root equations."""

    f1: float
    f2: float
    f3: float


def ns_coeffs(fp: FixedPoint) -> NSCoefficients:
    r = derive_rates(fp.params)
    egc, egs = decayed_gcos_gsinc(fp.Tstar, r)
    e2 = math.exp(-2.0 * r.mu * fp.Tstar)
    core = egc - r.mu * egs  # e^{-mu T}[gcos(T) - mu gsinc(T)] = -(d + 1)
    return NSCoefficients(
        f1=2.0 * egc + e2,
        f2=-core - e2,
        f3=core - e2,
    )


def ns_equations(coeffs: NSCoefficients, nu: int, phi: float) -> tuple[float, float]:
    """Real/imaginary residual pair for a unit-circle root lambda = e^{i phi}.

    Derived by substituting lambda = e^{i phi} into the characteristic
    equation, multiplying by e^{-i nu phi / 2}, and separating parts; the
    imaginary part carries a factor 2 on its leading product (verified to
    machine precision against the characteristic roots).
    """
    half = 0.5 * phi
    s_half = math.sin(half)
    ratio = (
        math.sin((nu + 1) * half) / s_half
        if abs(s_half) > 1e-14
        else float(nu + 1)
    )
    re = (coeffs.f1 + math.cos(phi)) * ratio + coeffs.f2 * math.cos(nu * half)
    im = 2.0 * math.sin((nu + 1) * half) * math.cos(half) + coeffs.f3 * math.sin(nu * half)
    return re, im


@dataclass(frozen=True)
class BifurcationPoint:
    kind: str  # "NS" | "PF" | "corner1" | "corner2"
    Q: float
    Omega: float
    nu: int
    phi: Optional[float] = None  # NS root angle
    residuals: tuple[float, ...] = ()


def _max_complex_modulus(sp: Spectrum) -> float:
    mods = [abs(z) for z in sp.roots if abs(z.imag) > 1e-9 * max(1.0, abs(z))]
    if not mods:
        raise NoRoot("no complex characteristic root pair")
    return max(mods)


def _complex_pair_angle(sp: Spectrum) -> float:
    best = max((z for z in sp.roots if z.imag > 0.0), key=abs)
    return math.atan2(best.imag, best.real)


def _refine_crossings(f, omega_range, samples):
    """Sign changes of f on a uniform Omega scan, each refined by Brent's
    method to LOCUS_OMEGA_TOL; yields (omega, *f(omega)).

    f(omega) is (value, fixed point) and raises NoRoot or Degenerate where
    the fixed point is undefined: such a sample bounds no bracket, and such
    a Brent iterate drops its crossing.  Each omega is solved once.
    """
    omegas = np.linspace(omega_range[0], omega_range[1], samples)
    seen = {}

    def value(om):
        if om not in seen:
            seen[om] = f(om)
        return seen[om][0]

    vals = []
    for om in omegas:
        try:
            vals.append(value(float(om)))
        except (NoRoot, Degenerate):
            vals.append(None)
    for i in range(len(omegas) - 1):
        a, b = vals[i], vals[i + 1]
        if a is None or b is None or a == 0.0 or (a > 0.0) == (b > 0.0):
            continue
        try:
            om_star = brentq(value, omegas[i], omegas[i + 1], xtol=LOCUS_OMEGA_TOL)
        except (NoRoot, Degenerate):
            continue
        yield om_star, *seen[om_star]


def ns_locus(
    nu: int,
    Q: float,
    omega_range: tuple[float, float],
    sigma: int = -1,
    samples: int = DEFAULT_LOCUS_SAMPLES,
) -> list[BifurcationPoint]:
    """Neimark-Sacker points of the nu fixed-point branch on an Omega range.

    Scans the largest complex-pair modulus along Omega, refines each
    crossing of one, and verifies the crossing angle against the separated
    real/imaginary unit-circle equations.
    """
    if nu < 1:
        return []  # the scalar slow-mode map has a single real root

    def modulus_gap(omega):
        fp = fixed_point(nu, Parameters(Q=Q, Omega=omega, sigma=sigma))
        return _max_complex_modulus(spectrum_of(fp)) - 1.0, fp

    points = []
    for om_star, _, fp in _refine_crossings(modulus_gap, omega_range, samples):
        phi = _complex_pair_angle(spectrum_of(fp))
        re, im = ns_equations(ns_coeffs(fp), nu, phi)
        if max(abs(re), abs(im)) <= NS_EQ_TOL:
            points.append(BifurcationPoint(kind="NS", Q=Q, Omega=om_star, nu=nu, phi=phi,
                                           residuals=(re, im)))
    return points


def pitchfork_locus(
    nu: int,
    Q: float,
    omega_range: tuple[float, float],
    samples: int = DEFAULT_LOCUS_SAMPLES,
) -> list[BifurcationPoint]:
    """Pitchfork points (characteristic root -1) on an odd-frequency branch.

    Requires negative feedback; even frequencies cannot satisfy the root
    condition because |a| < 1, and roots are only accepted where
    omega T* > pi (below that the coefficient bound excludes them).
    """
    if nu % 2 == 0:
        raise ValueError("pitchfork points require odd nu (|a| < 1 excludes even nu)")
    sigma = -1

    def pf_value(omega):
        fp = fixed_point(nu, Parameters(Q=Q, Omega=omega, sigma=sigma))
        jc = jacobian_coeffs(fp)
        return (1.0 + jc.d) + jc.exp_2muT, fp

    points = []
    for om_star, g, fp in _refine_crossings(pf_value, omega_range, samples):
        r = derive_rates(fp.params)
        if r.regime is Regime.UNDERDAMPED and r.omega_abs * fp.Tstar <= math.pi:
            continue  # bound on d excludes a -1 root here
        points.append(BifurcationPoint(kind="PF", Q=Q, Omega=om_star, nu=nu, residuals=(g,)))
    return points


def corner_omega(Q: float, K: int) -> float:
    """Corner line Omega(Q) = 2 Q K pi / sqrt(4Q^2 - 1), defined for Q > 1/2.

    K = nu + 1 is the symbol-relabeling transition of frequency nu (the mode
    persists); K = 2 nu + 1 terminates the mode.
    """
    if Q <= 0.5:
        raise ValueError("corner lines exist only in the underdamped regime (Q > 1/2)")
    return 2.0 * Q * K * math.pi / math.sqrt(4.0 * Q * Q - 1.0)


def mode_corners(nu0: int, Q: float) -> tuple[float, float]:
    """(relabeling, terminating) corner Omegas of the mode with base frequency nu0.

    The mode relabels from nu0 to nu0 + 1 on the type-1 line of nu0 and ends
    on the type-2 line of nu0 + 1.
    """
    return corner_omega(Q, nu0 + 1), corner_omega(Q, 2 * (nu0 + 1) + 1)


# --------------------------------------------------------------------------
# Mode bookkeeping: a mode labeled by its base frequency nu0 occupies map
# frequency nu0 below the type-1 corner of nu0 and nu0+1 above it, up to the
# type-2 corner of nu0+1.  Overdamped there are no corners and the label is
# fixed.
# --------------------------------------------------------------------------


def mode_base(nu: int, sigma: int) -> int:
    """Base frequency of the mode whose branch passes through map frequency nu."""
    native_even = sigma == -1
    if (nu % 2 == 0) == native_even:
        return nu
    return nu - 1


def mode_segments(
    nu0: int, Q: float, omega_range: tuple[float, float]
) -> list[tuple[int, tuple[float, float]]]:
    """Split an Omega range into ascending (map-nu, (lo, hi)) pieces of one mode.

    The one reader of a mode's range: the range may run either way, every
    piece has lo < hi, and no piece passes the type-2 corner, so a range of
    zero width or wholly past the mode's end gives no piece.
    """
    lo, hi = sorted(omega_range)
    if Q <= 0.5:
        pieces = [(nu0, (lo, hi))]
    else:
        relabel, end = mode_corners(nu0, Q)
        pieces = [(nu0, (lo, min(relabel, hi))), (nu0 + 1, (max(lo, relabel), min(hi, end)))]
    return [(nu, (a, b)) for nu, (a, b) in pieces if a < b]


def _mode_points(locus, nu, Q, omega_range, sigma, samples):
    """locus(seg_nu, subrange, n) over each segment of the mode through nu.

    Each segment gets a share of the samples proportional to its length,
    and at least 32.
    """
    width = abs(omega_range[1] - omega_range[0])
    points = []
    for seg_nu, (lo, hi) in mode_segments(mode_base(nu, sigma), Q, omega_range):
        n = max(32, int(samples * ((hi - lo) / width)))
        points.extend(locus(seg_nu, (lo, hi), n))
    return sorted(points, key=lambda b: b.Omega)


def mode_ns_points(
    nu: int,
    Q: float,
    omega_range: tuple[float, float],
    sigma: int = -1,
    samples: int = DEFAULT_LOCUS_SAMPLES,
) -> list[BifurcationPoint]:
    """NS points along the full mode containing map frequency nu."""
    return _mode_points(
        lambda seg_nu, rng, n: ns_locus(seg_nu, Q, rng, sigma=sigma, samples=n),
        nu, Q, omega_range, sigma, samples,
    )


def mode_pf_points(
    nu: int,
    Q: float,
    omega_range: tuple[float, float],
    sigma: int = -1,
    samples: int = DEFAULT_LOCUS_SAMPLES,
) -> list[BifurcationPoint]:
    """Pitchfork points on the odd-frequency segments of the mode (sigma = -1 only)."""
    if sigma != -1:
        return []
    return _mode_points(
        lambda seg_nu, rng, n: pitchfork_locus(seg_nu, Q, rng, samples=n) if seg_nu % 2 else [],
        nu, Q, omega_range, sigma, samples,
    )


def mode_corner_points(
    nu: int,
    Q: float,
    omega_range: tuple[float, float],
    sigma: int = -1,
) -> list[BifurcationPoint]:
    """Corners met by the mode containing map frequency nu.

    The relabeling corner belongs to the base branch and the terminating
    corner to the relabeled one.
    """
    base = mode_base(nu, sigma)
    corners = zip(("corner1", "corner2"), mode_corners(base, Q), (base, base + 1))
    ends = {om for _, piece in mode_segments(base, Q, omega_range) for om in piece}
    return [BifurcationPoint(kind=kind, Q=Q, Omega=om, nu=seg_nu)
            for kind, om, seg_nu in corners if om in ends]


# --------------------------------------------------------------------------
# Region scan
# --------------------------------------------------------------------------


@dataclass
class RegionGrid:
    nus: list[int]
    Q_axis: np.ndarray
    Omega_axis: np.ndarray
    unstable_count: np.ndarray  # int, shape (len(nus), nQ, nOmega); -1 where no fixed point

    @property
    def exists(self) -> np.ndarray:
        return self.unstable_count >= 0

    @property
    def stable(self) -> np.ndarray:
        return self.unstable_count == 0


def _region_cell(args):
    nus, Q, omegas, sigma = args
    counts = np.full((len(nus), len(omegas)), -1, dtype=int)
    # Python floats: on numpy scalars Brent's steps would warn on stderr.
    for j, om in enumerate(omegas.tolist()):
        p = Parameters(Q=Q, Omega=om, sigma=sigma)
        for i, nu in enumerate(nus):
            try:
                fp = fixed_point(nu, p)
                if fp.valid.all:
                    counts[i, j] = spectrum_of(fp).unstable_count
            except (NoRoot, Degenerate):
                continue
    return counts


def region_scan(
    nus: list[int],
    q_range: tuple[float, float],
    omega_range: tuple[float, float],
    resolution: tuple[int, int] = (400, 400),
    sigma: int = -1,
    threads: int = 1,
) -> RegionGrid:
    """Existence and stability of each requested frequency over a (Q, Omega) grid.

    Rows are independent; with threads > 1 they are evaluated in a process
    pool and merged in grid order, so the result does not depend on the
    worker count.
    """
    nq, nom = resolution
    if nq < 2 or nom < 2:
        raise ValueError("resolution must be at least 2 per axis")
    q_axis = np.linspace(q_range[0], q_range[1], nq)
    om_axis = np.linspace(omega_range[0], omega_range[1], nom)
    tasks = [(list(nus), float(q), om_axis, sigma) for q in q_axis]
    if threads and threads > 1 and nus:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_region_cell, tasks, chunksize=max(1, nq // (4 * threads))))
    else:
        rows = [_region_cell(t) for t in tasks]
    return RegionGrid(nus, q_axis, om_axis, np.stack(rows, axis=1))


# --------------------------------------------------------------------------
# Filter passband
# --------------------------------------------------------------------------


def passband(Q: float) -> tuple[float, float]:
    """Normalized 3 dB edges w = omega/omega_c of the bandpass: Q(w - 1/w) = -+1."""
    if Q <= 0:
        raise ValueError("Q must be positive")
    center = math.sqrt(1.0 + 1.0 / (4.0 * Q * Q))
    half = 1.0 / (2.0 * Q)
    return center - half, center + half


# --------------------------------------------------------------------------
# Period diagram and mode trace
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchSample:
    kind: str  # "branch" | "marker" | "passband_lo" | "passband_hi"
    nu: Optional[int]
    Q: float
    Omega: float
    Tstar: Optional[float] = None
    invP: Optional[float] = None
    xH: Optional[float] = None
    unstable_count: Optional[int] = None
    marker: str = ""


@dataclass
class ModeBranch:
    samples: list[BranchSample] = field(default_factory=list)
    markers: list[BranchSample] = field(default_factory=list)
    terminated: str = "range-end"


def _branch_sample(nu, p, T_hint=None) -> Optional[tuple[BranchSample, FixedPoint]]:
    if T_hint is None:
        try:
            fp = fixed_point(nu, p)
        except NoRoot:
            return None
    else:
        fp = min(fixed_point_candidates(nu, p), key=lambda f: abs(f.Tstar - T_hint), default=None)
        if fp is None:
            return None
    try:
        sp = spectrum_of(fp)
        count = sp.unstable_count
    except Degenerate:
        count = None
    sample = BranchSample(
        kind="branch",
        nu=nu,
        Q=p.Q,
        Omega=p.Omega,
        Tstar=fp.Tstar,
        invP=1.0 / (2.0 * fp.Tstar),
        xH=x_H(fp),
        unstable_count=count,
    )
    return sample, fp


def mode_trace(
    nu0: int,
    Q: float,
    omega_range: tuple[float, float],
    sigma: int = -1,
    samples: int = 400,
) -> ModeBranch:
    """Follow one mode across an Omega range, relabeling at type-1 corners.

    Root selection is by continuity of the switching interval from the
    previous sample (rescaled across the relabeling, where T* is continuous).
    Tracing stops at the type-2 corner where the mode ceases to exist; a
    range with no fixed point of the mode (none of its pieces, or no root on
    them) raises NoRoot.
    """
    pieces = mode_segments(nu0, Q, omega_range)
    corners = mode_corners(nu0, Q) if Q > 0.5 else ()
    branch = ModeBranch()
    descending = omega_range[0] > omega_range[1]
    width = abs(omega_range[1] - omega_range[0])
    T_hint = None
    for seg_nu, (lo, hi) in pieces[::-1] if descending else pieces:
        # Exactly at a corner the switching-interval root sits on its bracket
        # edge and the scan can miss it; sample a hair inside instead.
        inset = min(1e-9 * max(1.0, hi), 0.25 * (hi - lo))
        if lo in corners:
            lo = lo + inset
        if hi in corners:
            hi = hi - inset
        n = max(2, int(round(samples * ((hi - lo) / width))))
        seg_points = np.linspace(lo, hi, n)
        if descending:
            seg_points = seg_points[::-1]
        for om in seg_points:
            if om <= 0:
                continue
            p = Parameters(Q=Q, Omega=float(om), sigma=sigma)
            got = _branch_sample(seg_nu, p, T_hint)
            if got is None:
                if branch.samples:
                    raise LostBranch(
                        f"no fixed point for nu={seg_nu} at Omega={om}",
                        last_good=branch.samples[-1],
                    )
                continue
            sample, fp = got
            if T_hint is not None and abs(fp.Tstar - T_hint) > 0.25 * T_hint:
                raise LostBranch(
                    f"switching interval jumped at Omega={om}",
                    last_good=branch.samples[-1] if branch.samples else None,
                )
            branch.samples.append(sample)
            T_hint = fp.Tstar
    if not branch.samples:
        raise NoRoot(f"no fixed point of the nu0={nu0} mode for Omega in {omega_range} at Q={Q}")
    if len(pieces) > 1:
        branch.markers.append(BranchSample(kind="marker", nu=nu0, Q=Q, Omega=corners[0],
                                           xH=0.0, marker="corner1"))
    if corners and pieces[-1][1][1] == corners[1]:
        branch.terminated = "corner2"
        branch.markers.append(BranchSample(kind="marker", nu=nu0 + 1, Q=Q, Omega=corners[1],
                                           xH=0.0, marker="corner2"))
    return branch


def period_diagram(
    nus: list[int],
    Q: float,
    omega_range: tuple[float, float],
    sigma: int = -1,
    samples: int = 400,
) -> list[BranchSample]:
    """Inverse-period branch table for the listed modes, with bifurcation markers.

    Emits one "branch" row per mode sample, "marker" rows at NS/PF/corner
    points (the NS/PF scans use ``samples`` too), and per-Omega passband-edge
    rows (fundamental angular frequency 2 pi / P against the filter's 3 dB
    band).
    """
    rows: list[BranchSample] = []
    w_lo, w_hi = passband(Q)
    for om in np.linspace(omega_range[0], omega_range[1], max(2, samples // 4)):
        for kind, w in (("passband_lo", w_lo), ("passband_hi", w_hi)):
            rows.append(
                BranchSample(kind=kind, nu=None, Q=Q, Omega=float(om),
                             invP=w * om / (2.0 * math.pi))
            )
    for nu0 in nus:
        base = mode_base(nu0, sigma)
        try:
            branch = mode_trace(base, Q, omega_range, sigma=sigma, samples=samples)
            rows.extend(branch.samples)
            rows.extend(branch.markers)
        except (LostBranch, NoRoot):
            pass  # markers below do not depend on the trace
        pts = mode_ns_points(base, Q, omega_range, sigma=sigma, samples=samples)
        for pt in pts + mode_pf_points(base, Q, omega_range, sigma=sigma, samples=samples):
            rows.append(
                BranchSample(kind="marker", nu=pt.nu, Q=Q, Omega=pt.Omega, marker=pt.kind)
            )
    return rows
