"""Event-driven exact simulation of the delayed relay system.

The state between events is the headpoint (x, y) plus the descending list of
zero-crossing times of x inside the trailing delay window.  Two event kinds
advance the state:

* Z-type: x itself crosses zero.  The crossing time joins the history; the
  feedback is unaffected until the crossing leaves the window one delay later.
* H-type: the oldest stored crossing exits the window, so the delayed sign
  sign(x(t-1)) flips and with it the frozen feedback.

Both event delays are computed exactly from the closed-form flow, so the
simulation has no step-size error; the only tolerances are those of the
scalar root refinement.

An orbit with no repeating event block is a torus when ``classify_section``,
the section test that ``torus`` scans also use, finds a settled closed curve.
Dense output samples every segment in one array pass after the event loop.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CornerCollision, NonoscillatoryEnd
from .flow import Headpoint, _advance, apply_flow, decayed_gcos_gsinc_array, first_crossing, flow_x
from .params import Parameters, Rates, Regime, derive_rates
from .rootfind import brentq

# |h_delay - z_delay| below this is a corner collision, not an ordering call.
TIE_TOLERANCE = 1e-10

# Headpoints this close to the ODE node (0, s) never cross again.
NODE_TOLERANCE = 1e-13

_BRENTQ_XTOL = 1e-14
_BRENTQ_MAXITER = 200

SAMPLES_MAX = 2**24  # dense samples per orbit, counted before anything is allocated


class EventKind(enum.Enum):
    Z = "Z"          # x crosses zero upward
    ZBAR = "Zbar"    # x crosses zero downward
    H = "H"          # upward crossing exits the delay window
    HBAR = "Hbar"    # downward crossing exits the delay window

    @property
    def is_zero(self) -> bool:
        return self in (EventKind.Z, EventKind.ZBAR)

    @property
    def is_history(self) -> bool:
        return self in (EventKind.H, EventKind.HBAR)

    @property
    def bar(self) -> "EventKind":
        return _BARRED[self]


_BARRED = {
    EventKind.Z: EventKind.ZBAR,
    EventKind.ZBAR: EventKind.Z,
    EventKind.H: EventKind.HBAR,
    EventKind.HBAR: EventKind.H,
}


@dataclass(frozen=True)
class Event:
    """One switching event: its kind, its time and the headpoint just after it."""

    kind: EventKind
    time: float
    v: Headpoint


@dataclass(frozen=True)
class SystemState:
    """Simulation state at time t, just after any event at t.

    zeros : crossing times tau_1 > tau_2 > ... > tau_k, all in (t-1, t]
    hist_sign : sign of x(t-1) on the current segment
    """

    t: float
    v: Headpoint
    zeros: tuple[float, ...]
    hist_sign: int

    @property
    def cur_sign(self) -> int:
        """Sign of x on the current segment (just after t when x(t)=0).

        Each stored crossing flips the sign once between t-1 and t.
        """
        return -self.hist_sign if len(self.zeros) % 2 else self.hist_sign

    def __post_init__(self):
        if self.hist_sign not in (-1, 1):
            raise ValueError("hist_sign must be +1 or -1")
        for a, b in zip(self.zeros, self.zeros[1:]):
            if not a > b:
                raise ValueError("zeros must be strictly decreasing")
        if self.zeros:
            if self.zeros[0] > self.t or self.zeros[-1] <= self.t - 1.0:
                raise ValueError("zeros must lie in (t-1, t]")


def initial_state(x0: float, y0: float = 0.0) -> SystemState:
    """State for a constant history x = x0 != 0 on [-1, 0] (empty crossing list)."""
    if x0 == 0.0:
        raise ValueError("constant history must have x0 != 0")
    return SystemState(t=0.0, v=Headpoint(x0, y0), zeros=(), hist_sign=1 if x0 > 0 else -1)


def next_h_delay(st: SystemState) -> Optional[float]:
    """Time until the oldest stored crossing exits the delay window; None if k=0."""
    if not st.zeros:
        return None
    return st.zeros[-1] + 1.0 - st.t


def next_z_delay(st: SystemState, s: int, r: Rates) -> Optional[float]:
    """Smallest t > 0 at which the frozen-feedback flow from st.v crosses x = 0.

    ``flow.first_crossing`` gives it in closed form, as it does for the map.
    Underdamped with x != 0 is the one place that still refines with Brent:
    e^{mu t} x(t) is a pure sinusoid with exactly one root in (0, pi/omega),
    so the bracket cannot miss it (``tests/test_flow.py`` holds the two
    routes to each other).  States at the node return None.
    """
    x, y = st.v.x, st.v.y
    if abs(x) <= NODE_TOLERANCE and abs(y - s) <= NODE_TOLERANCE:
        return None  # stationary at the ODE fixed point

    # e^{mu t} x(t) = x*gcos(t) - d_coef*gsinc(t); same zeros as x(t).
    d_coef = r.mu * x + 2.0 * r.mu * (y - s)
    if r.regime is not Regime.UNDERDAMPED or x == 0.0:
        return first_crossing(x, d_coef, r)
    half = r.half_wave
    fb = flow_x(half, st.v, s, r)
    if fb == 0.0:
        # e^{-mu pi/omega} underflowed (Q just above 1/2): nothing to bracket.
        return first_crossing(x, d_coef, r)
    if (x > 0.0) != (fb > 0.0):
        # f(0) = x and f(pi/omega) = -x * e^{-mu pi/omega}: guaranteed bracket.
        root = brentq(flow_x, 0.0, half, args=(st.v, s, r),
                      xtol=_BRENTQ_XTOL, maxiter=_BRENTQ_MAXITER)
        if root > 0.0:
            return root
    # Either |x| sits below the numerical floor of the far endpoint (which is
    # -x e^{-mu pi/omega} up to roundoff of sin(pi)), or the bracket collapsed
    # onto 0 with the true root positive but below xtol.  Linearize at 0.
    return x / d_coef if x * d_coef > 0.0 else half


@dataclass
class OrbitRecord:
    """Ordered event log of one simulated orbit plus optional dense samples."""

    params: Parameters
    events: list[Event] = field(default_factory=list)
    samples: list[tuple[float, float, float]] = field(default_factory=list)
    final_state: Optional[SystemState] = None
    terminated: str = "budget"

    @property
    def intervals(self) -> list[float]:
        ts = [e.time for e in self.events]
        return [b - a for a, b in zip(ts, ts[1:])]

    def h_section(self, *kinds: EventKind) -> list[tuple[float, float]]:
        """Headpoints recorded exactly at events of the given kinds, in event order."""
        return [(e.v.x, e.v.y) for e in self.events if e.kind in kinds]


def step(st: SystemState, p: Parameters, r: Optional[Rates] = None) -> tuple[Event, SystemState]:
    """Advance to the next event, whichever of the two candidates comes first."""
    if r is None:
        r = derive_rates(p)
    s = p.sigma * st.hist_sign
    h_delay = next_h_delay(st)
    z_delay = next_z_delay(st, s, r)

    if h_delay is None and z_delay is None:
        raise NonoscillatoryEnd(f"no further events from t={st.t}")
    if h_delay is not None and z_delay is not None and abs(h_delay - z_delay) < TIE_TOLERANCE:
        raise CornerCollision(st.t, h_delay, z_delay)

    if z_delay is not None and (h_delay is None or z_delay < h_delay):
        t_new = st.t + z_delay
        if t_new <= st.t:
            # z below time resolution at this t: state is inside a corner tie.
            raise CornerCollision(st.t, h_delay, z_delay)
        v_new = apply_flow(z_delay, st.v, s, r)
        kind = EventKind.Z if st.cur_sign < 0 else EventKind.ZBAR
        v_new = Headpoint(0.0, v_new.y)  # snap: keeps x(tau_j) = 0 exact over long runs
        new = SystemState(t=t_new, v=v_new, zeros=(t_new,) + st.zeros, hist_sign=st.hist_sign)
    else:
        t_new = st.zeros[-1] + 1.0  # exact H-Z pairing, not t + h_delay
        v_new = apply_flow(h_delay, st.v, s, r)
        kind = EventKind.H if st.hist_sign < 0 else EventKind.HBAR
        new = SystemState(t=t_new, v=v_new, zeros=st.zeros[:-1], hist_sign=-st.hist_sign)
    return Event(kind, t_new, v_new), new


def simulate(
    st0: SystemState,
    p: Parameters,
    max_events: int = 1000,
    t_max: Optional[float] = None,
    sample_dt: Optional[float] = None,
) -> OrbitRecord:
    """Run the event loop from st0 for at most max_events events (or until t_max).

    Dense samples, when requested, come from the exact flow between events
    (no integration error) in one pass after the loop; past SAMPLES_MAX, ValueError.
    """
    if sample_dt is not None and not (sample_dt > 0.0 and math.isfinite(sample_dt)):
        raise ValueError(f"sample_dt must be positive and finite, got {sample_dt}")
    r = derive_rates(p)
    rec = OrbitRecord(params=p)
    segs = []  # (t0, x0, y0, s, t_end) per segment, for dense sampling
    st = st0
    for _ in range(max_events):
        if t_max is not None and st.t >= t_max:
            break
        try:
            ev, st_next = step(st, p, r)
        except NonoscillatoryEnd:
            rec.terminated = "nonoscillatory"
            break
        if sample_dt is not None:
            segs.append((st.t, st.v.x, st.v.y, p.sigma * st.hist_sign, ev.time))
        rec.events.append(ev)
        st = st_next
    rec.final_state = st
    if segs:
        _sample_segments(rec, segs, r, sample_dt)
    return rec


def _sample_segments(rec, segs, r, dt):
    # Each segment samples t0 + k * dt, k * dt the floats of np.arange(n) * dt,
    # up to t_end (a prefix: both sums grow with k); one flow call for all.
    t0, x0, y0, s, t_end = map(np.array, zip(*segs))
    n = np.floor((t_end - t0) / dt) + 1.0
    if not n.sum() <= SAMPLES_MAX:  # a float sum: nothing wraps or is allocated
        raise ValueError(f"sample_dt={dt} asks for {n.sum():.3g} samples, over {SAMPLES_MAX}")
    n = n.astype(np.int64)
    seg = np.repeat(np.arange(len(n)), n)
    tau = (np.arange(len(seg)) - np.repeat(np.cumsum(n) - n, n)) * dt
    t = t0[seg] + tau
    keep = t < t_end[seg]
    seg, tau = seg[keep], tau[keep]
    x, y = _advance(*decayed_gcos_gsinc_array(tau, r), x0[seg], y0[seg], s[seg], r)
    rec.samples.extend(zip(t[keep].tolist(), x.tolist(), y.tolist()))


class OrbitTag(enum.Enum):
    PERIODIC = "periodic"
    QUASIPERIODIC = "quasiperiodic"
    NONOSCILLATORY = "nonoscillatory"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class OrbitClass:
    tag: OrbitTag
    symbols: Optional[tuple[str, ...]] = None
    nu: Optional[int] = None
    symmetry: Optional[str] = None  # "S" or "A"
    period: Optional[float] = None

    @property
    def label(self) -> Optional[str]:
        if self.tag is not OrbitTag.PERIODIC:
            return None
        seq = ",".join(self.symbols)
        return f"[{seq}]_{self.nu}^{self.symmetry}"


# Relative tolerance on inter-event intervals when matching candidate periods,
# and the longest event block tried as a period.
PERIOD_RTOL = 1e-8
MAX_BLOCK = 40

# The last two quarters of a quasiperiodic section agree in diameter within this.
SECTION_REL_CHANGE = 0.2

# classify_section thresholds; cluster width and largest gap scale with the diameter.
CLUSTER_EPS_REL = 0.01
MAX_CLUSTERS = 16
MIN_CURVE_POINTS = 200
MIN_DIAMETER = 1e-3
GAP_FACTOR = 0.08


def classify(rec: OrbitRecord, min_events: int = 200) -> OrbitClass:
    """Classify an orbit record as periodic / quasiperiodic / nonoscillatory.

    Periodicity requires the event-kind sequence and the inter-event
    intervals to repeat over three consecutive candidate blocks at the tail
    of the record.  The frequency label is the number of zero crossings in
    the open unit interval preceding a Z-type event, and the symmetry label
    compares kinds and headpoints across a half-period shift.  With no
    period, the orbit is quasiperiodic when the last quarter of its H section
    is a closed curve as large as the quarter before it.
    """
    if rec.terminated == "nonoscillatory":
        return OrbitClass(tag=OrbitTag.NONOSCILLATORY)
    if len(rec.events) < min_events:
        return OrbitClass(tag=OrbitTag.UNDECIDED)

    block = _find_repeating_block(rec)
    if block is not None:
        return _label_periodic(rec, block)

    if _settled_closed_curve(rec):
        return OrbitClass(tag=OrbitTag.QUASIPERIODIC)
    return OrbitClass(tag=OrbitTag.UNDECIDED)


def _find_repeating_block(rec):
    events = rec.events
    intervals = rec.intervals
    scale = max(abs(v) for v in intervals[-3 * MAX_BLOCK :]) or 1.0
    for block in range(2, MAX_BLOCK + 1):
        need = 3 * block
        if need > len(intervals):
            return None
        kinds = [e.kind for e in events[-need - 1 :]]
        ivs = intervals[-need:]
        ok = all(
            kinds[i] is kinds[i + block] for i in range(need + 1 - block)
        ) and all(
            abs(ivs[i] - ivs[i + block]) <= PERIOD_RTOL * scale
            for i in range(need - block)
        )
        if ok and any(events[j].kind.is_history for j in range(len(events) - block, len(events))):
            return block
    return None


def _label_periodic(rec, block):
    events = rec.events[-block:]
    intervals = rec.intervals[-block:]
    period = sum(intervals)

    # Rotate so the repeating sequence starts with an H (not Hbar) when one
    # exists; otherwise start at the first H-type event.
    start = next(
        (i for i, e in enumerate(events) if e.kind is EventKind.H),
        next(i for i, e in enumerate(events) if e.kind.is_history),
    )
    events = events[start:] + events[:start]

    nu = _count_nu(rec)
    symmetry = _symmetry_label(events, block)
    return OrbitClass(
        tag=OrbitTag.PERIODIC,
        symbols=tuple(e.kind.value for e in events),
        nu=nu,
        symmetry=symmetry,
        period=period,
    )


def _count_nu(rec):
    """Zero crossings in the open unit interval preceding the last Z-type event."""
    z_times = [e.time for e in rec.events if e.kind.is_zero]
    if not z_times:
        return None
    t = z_times[-1]
    return sum(1 for tau in z_times[:-1] if t - 1.0 < tau < t)


def _symmetry_label(events, block):
    if block % 2 != 0:
        return "A"
    half = block // 2
    for i in range(half):
        if events[i + half].kind is not events[i].kind.bar:
            return "A"
    # Headpoints at H-type events must map to their negatives under the shift.
    scale = max(max(abs(e.v.x), abs(e.v.y)) for e in events) or 1.0
    for i in range(half):
        if events[i].kind.is_history:
            a, b = events[i].v, events[i + half].v
            if max(abs(a.x + b.x), abs(a.y + b.y)) > 1e-6 * scale:
                return "A"
    return "S"


def _settled_closed_curve(rec):
    # One event kind only: mixing H with Hbar would measure the orbit scale
    # (the two sets are near-negatives) instead of the section's spread.
    # A curve still spiralling in or out changes size between the quarters.
    pts = rec.h_section(EventKind.H)
    q = len(pts) // 4
    last = classify_section(pts[3 * q : 4 * q])
    if last.kind != "closed-curve":
        return False
    third = classify_section(pts[2 * q : 3 * q]).diameter
    return abs(third - last.diameter) <= SECTION_REL_CHANGE * max(third, last.diameter)


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
