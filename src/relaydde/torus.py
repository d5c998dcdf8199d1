"""Poincare-section scans for quasiperiodic (torus) attractors.

The section is the set of headpoints recorded at H events.  A periodic
orbit leaves a small set of point clusters; a torus attractor fills a
closed curve.  The classifier below distinguishes the two from the point
geometry alone, so it needs no access to the event intervals.

Long transients are the rule near a torus bifurcation (the linear growth
rate is |lambda| - 1 per map step), so scans warm-start each parameter
value from the final state of the previous one and discard a transient
fraction before classifying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import CornerCollision, RelayDDEError
from .events import EventKind, SystemState, simulate
from .flow import Headpoint
from .params import Parameters
from .symmap import FixedPoint, fixed_point, state_from_fixed_point

DEFAULT_EVENTS = 40000
DEFAULT_TRANSIENT = 0.2

# classify_section thresholds; cluster width and largest gap scale with the diameter.
CLUSTER_EPS_REL = 0.01
MAX_CLUSTERS = 16
MIN_CURVE_POINTS = 200
MIN_DIAMETER = 1e-3
GAP_FACTOR = 0.08


def perturbed_seed(fp: FixedPoint, eps: float = 1e-3) -> SystemState:
    """Fixed-point state with the y coordinate scaled by (1 + eps)."""
    st = state_from_fixed_point(fp)
    return replace(st, v=Headpoint(st.v.x, st.v.y * (1.0 + eps)))


def rebase_state(st: SystemState) -> SystemState:
    """Shift the time origin to 0 so chained runs do not accumulate large t."""
    return replace(st, t=0.0, zeros=tuple(z - st.t for z in st.zeros))


@dataclass(frozen=True)
class SectionShape:
    kind: str  # "cluster" | "closed-curve" | "irregular" | "empty"
    n_points: int
    n_clusters: Optional[int]
    diameter: float
    box_dimension: Optional[float]


def classify_section(points: list[tuple[float, float]]) -> SectionShape:
    """Geometric classification of a section point set.

    A section collapsing into at most ``MAX_CLUSTERS`` tight clusters, or one
    whose total extent sits below ``MIN_DIAMETER`` (a decayed remnant around
    a periodic point), is periodic.  A closed invariant curve must look
    one-dimensional at two box scales, have curve-like nearest-neighbor
    spacing, and leave no large gap along itself.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 8:
        return SectionShape("empty", len(pts), None, 0.0, None)
    diam = math.hypot(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]))
    if diam <= MIN_DIAMETER:
        return SectionShape("cluster", len(pts), 1, diam, None)

    n_clusters = _count_clusters(pts, CLUSTER_EPS_REL * diam)
    if n_clusters is not None:
        return SectionShape("cluster", len(pts), n_clusters, diam, None)

    if len(pts) < MIN_CURVE_POINTS:
        return SectionShape("irregular", len(pts), None, diam, None)

    dim = _box_dimension(pts, diam)
    spacing_ok = _median_spacing(pts) <= 12.0 * diam / len(pts)
    gap_ok = _no_large_gaps(pts, diam)
    if 0.5 <= dim <= 1.45 and spacing_ok and gap_ok:
        return SectionShape("closed-curve", len(pts), None, diam, dim)
    return SectionShape("irregular", len(pts), None, diam, dim)


def _count_clusters(pts, eps):
    """Greedy clustering; None when the set is not cluster-like."""
    centers: list[np.ndarray] = []
    counts: list[int] = []
    for p in pts:
        for i, c in enumerate(centers):
            if abs(p[0] - c[0]) <= eps and abs(p[1] - c[1]) <= eps:
                counts[i] += 1
                break
        else:
            centers.append(p)
            if len(centers) > MAX_CLUSTERS:
                return None
            counts.append(1)
    return len(centers)


def _box_dimension(pts, diam):
    # Coarse scales: with a few thousand points, finer grids go point-limited
    # and a filled region would masquerade as one-dimensional.
    lo = pts.min(axis=0)
    counts = []
    scales = (8, 32)
    for nboxes in scales:
        h = diam / nboxes
        cells = {(int((p[0] - lo[0]) / h), int((p[1] - lo[1]) / h)) for p in pts}
        counts.append(len(cells))
    return math.log(counts[1] / counts[0]) / math.log(scales[1] / scales[0])


def _median_spacing(pts):
    sub = pts[:: max(1, len(pts) // 256)]
    dists = []
    for p in sub:
        d2 = (pts[:, 0] - p[0]) ** 2 + (pts[:, 1] - p[1]) ** 2
        dists.append(math.sqrt(np.partition(d2, 1)[1]))
    return float(np.median(dists))


def _no_large_gaps(pts, diam):
    """Every point's nearest neighbor lies within GAP_FACTOR * diameter."""
    sub = pts[:: max(1, len(pts) // 512)]
    for p in sub:
        d2 = (pts[:, 0] - p[0]) ** 2 + (pts[:, 1] - p[1]) ** 2
        d2 = np.partition(d2, 1)[1]  # skip self
        if d2 > (GAP_FACTOR * diam) ** 2:
            return False
    return True


@dataclass
class TorusScanEntry:
    Q: float
    Omega: float
    shape: SectionShape
    section: list[tuple[float, float]]
    tag: str  # shape.kind or an error tag
    seed: str


def run_section(
    st: SystemState,
    p: Parameters,
    max_events: int = DEFAULT_EVENTS,
    transient_fraction: float = DEFAULT_TRANSIENT,
) -> tuple[SectionShape, list[tuple[float, float]], Optional[SystemState], str]:
    """Simulate, discard the transient fraction, classify the H-event section."""
    try:
        rec = simulate(st, p, max_events=max_events)
    except CornerCollision:
        return SectionShape("empty", 0, None, 0.0, None), [], None, "corner-collision"
    pts = rec.h_section(EventKind.H)
    pts = pts[int(len(pts) * transient_fraction):]
    if rec.terminated == "nonoscillatory":
        return SectionShape("empty", len(pts), None, 0.0, None), pts, None, "nonoscillatory"
    shape = classify_section(pts)
    return shape, pts, rec.final_state, shape.kind


def torus_scan(
    Q: float,
    omegas: list[float],
    sigma: int = -1,
    nu: int = 3,
    max_events: int = DEFAULT_EVENTS,
    transient_fraction: float = DEFAULT_TRANSIENT,
    warm_start: bool = True,
    seed_eps: float = 1e-3,
    settle_events: Optional[int] = None,
) -> list[TorusScanEntry]:
    """Per-Omega H-event sections along a scan, warm-starting between values.

    The first value seeds from a perturbed fixed point of the ``nu`` map;
    subsequent values continue from the previous final state when
    ``warm_start`` is set (the torus transient near its birth is far longer
    than any fixed budget, so cold seeds there converge poorly).
    """
    entries: list[TorusScanEntry] = []
    st: Optional[SystemState] = None
    settle = settle_events if settle_events is not None else max_events
    for i, om in enumerate(omegas):
        p = Parameters(Q=Q, Omega=float(om), sigma=sigma)
        seed_desc = "warm"
        if st is None or not warm_start:
            fp = fixed_point(nu, p)
            st = perturbed_seed(fp, seed_eps)
            seed_desc = f"fixed-point eps={seed_eps}"
        budget = settle if i == 0 else max_events
        shape, pts, final, tag = run_section(st, p, budget, transient_fraction)
        entries.append(
            TorusScanEntry(Q=Q, Omega=float(om), shape=shape, section=pts, tag=tag, seed=seed_desc)
        )
        st = rebase_state(final) if (final is not None and warm_start) else None
    return entries


def follow_path(
    waypoints: list[tuple[float, float]],
    sigma: int = -1,
    nu: int = 3,
    start_events: int = 50000,
    step_events: int = 12000,
    seed_eps: float = 1e-3,
) -> Optional[SystemState]:
    """Carry a state along a list of (Q, Omega) waypoints by warm chaining.

    The first waypoint is seeded from its perturbed fixed point and run with
    the long ``start_events`` budget; each later waypoint continues from the
    previous final state.  Returns the final state, or None if a simulation
    along the way raised a ``RelayDDEError`` (such as a corner collision).
    """
    if not waypoints:
        return None
    Q0, om0 = waypoints[0]
    p = Parameters(Q=Q0, Omega=om0, sigma=sigma)
    st = perturbed_seed(fixed_point(nu, p), seed_eps)
    try:
        rec = simulate(st, p, max_events=start_events)
    except RelayDDEError:
        return None
    st = rebase_state(rec.final_state)
    for Q, om in waypoints[1:]:
        p = Parameters(Q=Q, Omega=om, sigma=sigma)
        try:
            rec = simulate(st, p, max_events=step_events)
        except RelayDDEError:
            return None
        st = rebase_state(rec.final_state)
    return st


# Waypoints that carry the large torus attractor from its birth region at
# Q = 1.5 across the parameter plane by small increments (found by greedy
# continuation).  From (1.81, 14.632) onward the path runs below the torus
# bifurcation curve, so the carried torus coexists with the re-stabilized
# periodic solution; long-run checks confirm genuine attractors through
# (1.84, 14.616), while the tail points carry increasingly long-lived
# transients that ultimately decay onto the periodic solution.
LARGE_TORUS_PATH: list[tuple[float, float]] = [
    (1.5, 14.80), (1.525, 14.80), (1.55, 14.80), (1.575, 14.784),
    (1.6, 14.764), (1.625, 14.748), (1.65, 14.732), (1.675, 14.716),
    (1.7, 14.70), (1.725, 14.684), (1.75, 14.668), (1.775, 14.656),
    (1.8, 14.64), (1.81, 14.632), (1.82, 14.628), (1.83, 14.62),
    (1.84, 14.616), (1.85, 14.608), (1.86, 14.60), (1.87, 14.596),
    (1.88, 14.588),
]

# Prefix of the path ending at a point where the torus is a verified
# attractor (stable section over 3e5 events) and the periodic solution is
# simultaneously stable.
COEXISTENCE_PATH: list[tuple[float, float]] = LARGE_TORUS_PATH[:17]
