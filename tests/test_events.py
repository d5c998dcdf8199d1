"""Event-driven simulation: delays, bookkeeping, classification, invariants."""

import io
import json
import math

import numpy as np
import pytest

from relaydde import events
from relaydde.errors import CornerCollision, NonoscillatoryEnd
from relaydde.events import (
    Event,
    EventKind,
    OrbitRecord,
    OrbitTag,
    SystemState,
    classify,
    initial_state,
    next_h_delay,
    next_z_delay,
    simulate,
    step,
)
from relaydde.flow import SERIES_THRESHOLD, Headpoint, apply_flow
from relaydde.params import Parameters, derive_rates
from relaydde.symmap import fixed_point, state_from_fixed_point, z_of
from relaydde import serialize
from relaydde.torus import perturbed_seed

P_FAST = Parameters(Q=1.5, Omega=14.0, sigma=-1)   # underdamped, frequency-3 mode
P_SLOW = Parameters(Q=0.4, Omega=7.0, sigma=-1)    # overdamped, frequency-2 mode


class TestNextDelays:
    def test_h_delay_arithmetic(self):
        st = SystemState(t=1.0, v=Headpoint(0.5, 0.0), zeros=(0.75,), hist_sign=1)
        assert next_h_delay(st) == pytest.approx(0.75)

    def test_h_delay_empty_history(self):
        assert next_h_delay(initial_state(0.5)) is None

    def test_post_crossing_state_returns_half_wave(self):
        r = derive_rates(P_FAST)
        st = SystemState(t=0.0, v=Headpoint(0.0, -1.8), zeros=(0.0,), hist_sign=1)
        assert next_z_delay(st, 1, r) == pytest.approx(math.pi / r.omega_abs, rel=1e-14)

    def test_node_state_never_crosses(self):
        for p, s in [(P_FAST, 1), (P_SLOW, -1)]:
            r = derive_rates(p)
            st = SystemState(t=0.0, v=Headpoint(0.0, float(s)), zeros=(0.0,),
                             hist_sign=-1 if s > 0 else 1)
            assert next_z_delay(st, s, r) is None

    def test_crossing_within_half_wave(self):
        r = derive_rates(P_FAST)
        rng = np.random.default_rng(5)
        for _ in range(40):
            v = Headpoint(float(rng.normal()), float(rng.normal()))
            if v.x == 0.0:
                continue
            z = next_z_delay(
                SystemState(t=0.0, v=v, zeros=(), hist_sign=1 if v.x > 0 else -1),
                -1, r)
            assert z is not None and 0.0 < z <= math.pi / r.omega_abs
            # residual at the root
            assert abs(apply_flow(z, v, -1, r).x) < 1e-10

    def test_crossing_found_when_half_wave_underflows(self):
        # Just above Q = 1/2 the half wave is so long that x(pi/omega)
        # underflows to 0; the crossing comes long before it.
        r = derive_rates(Parameters(Q=0.5000000831872895, Omega=25.91716193837304))
        st = SystemState(t=0.0, v=Headpoint(-0.43620484406794624, -0.8605709763144658),
                         zeros=(), hist_sign=-1)
        assert r.half_wave > 200.0
        assert next_z_delay(st, 1, r) == pytest.approx(0.004048432098942522, rel=1e-14)

    def test_overdamped_no_crossing_toward_node(self):
        r = derive_rates(P_SLOW)
        st = initial_state(0.5, 0.0)
        # feedback +1 drives toward (0, 1) without crossing from x > 0
        assert next_z_delay(st, 1, r) is None

    def test_matches_closed_form_at_fixed_point(self):
        # Three routes to the same interval: z* arithmetic, the arctangent
        # closed form, and the bracketed search of the simulator.
        fp = fixed_point(3, P_FAST)
        r = derive_rates(P_FAST)
        z_closed = z_of(fp.state, r)
        st = state_from_fixed_point(fp)
        # advance to the H event first (the crossing hunt starts there)
        ev, st_h = step(st, P_FAST, r)
        assert ev.kind.is_history
        z_sim = next_z_delay(st_h, P_FAST.sigma * st_h.hist_sign, r)
        assert z_closed == pytest.approx(fp.zstar, abs=1e-10)
        assert z_sim == pytest.approx(fp.zstar, abs=1e-10)


class TestStepBookkeeping:
    def simulate_states(self, p, st, n):
        r = derive_rates(p)
        states = [st]
        events = []
        for _ in range(n):
            ev, st = step(st, p, r)
            events.append(ev)
            states.append(st)
        return events, states

    def test_history_invariants_each_step(self):
        for p in (P_FAST, P_SLOW):
            fp = fixed_point(3 if p is P_FAST else 2, p)
            events, states = self.simulate_states(p, perturbed_seed(fp, 1e-2), 400)
            for st in states:
                assert all(a > b for a, b in zip(st.zeros, st.zeros[1:]))
                assert all(st.t - 1.0 < z <= st.t for z in st.zeros)

    def test_k_transitions(self):
        fp = fixed_point(3, P_FAST)
        events, states = self.simulate_states(P_FAST, perturbed_seed(fp, 1e-2), 300)
        for ev, before, after in zip(events, states, states[1:]):
            if ev.kind.is_zero:
                assert len(after.zeros) == len(before.zeros) + 1
            else:
                assert len(after.zeros) == len(before.zeros) - 1

    def test_sign_alternation(self):
        fp = fixed_point(2, P_SLOW)
        events, _ = self.simulate_states(P_SLOW, perturbed_seed(fp, 1e-2), 400)
        zs = [e for e in events if e.kind.is_zero]
        hs = [e for e in events if e.kind.is_history]
        for a, b in zip(zs, zs[1:]):
            assert b.kind is a.kind.bar
        for a, b in zip(hs, hs[1:]):
            assert b.kind is a.kind.bar

    def test_h_z_pairing_exact(self):
        # The zero dropped at an H event is bit-for-bit a stored Z-event time
        # (or an initial-history zero), and the H time is that float plus one.
        fp = fixed_point(3, P_FAST)
        events, states = self.simulate_states(P_FAST, perturbed_seed(fp, 1e-2), 400)
        z_times = set(state_from_fixed_point(fp).zeros)
        for ev, before in zip(events, states):
            if ev.kind.is_zero:
                z_times.add(ev.time)
            else:
                dropped = before.zeros[-1]
                assert dropped in z_times
                assert ev.time == dropped + 1.0

    def test_events_carry_new_headpoints(self):
        st0 = perturbed_seed(fixed_point(3, P_FAST), 1e-2)
        events, states = self.simulate_states(P_FAST, st0, 200)
        assert [ev.v for ev in events] == [st.v for st in states[1:]]
        rec = simulate(st0, P_FAST, max_events=200)
        assert rec.events == events
        assert rec.h_section(EventKind.H, EventKind.HBAR) == [
            (st.v.x, st.v.y) for ev, st in zip(events, states[1:]) if ev.kind.is_history
        ]

    def test_step_symmetry(self):
        fp = fixed_point(3, P_FAST)
        st = perturbed_seed(fp, 1e-2)
        neg = SystemState(t=st.t, v=Headpoint(-st.v.x, -st.v.y), zeros=st.zeros,
                          hist_sign=-st.hist_sign)
        ev_a, a = step(st, P_FAST)
        ev_b, b = step(neg, P_FAST)
        assert ev_b.time == ev_a.time
        assert ev_b.kind is ev_a.kind.bar
        assert b.v.x == -a.v.x and b.v.y == -a.v.y

    def test_corner_tie_raises(self):
        r = derive_rates(P_FAST)
        # post-crossing state: z = pi/omega exactly; place the oldest zero so
        # the H event lands within the tie tolerance of it.
        z = math.pi / r.omega_abs
        tau_old = z - 1.0 + 2e-11
        st = SystemState(t=0.0, v=Headpoint(0.0, -1.8), zeros=(0.0, tau_old), hist_sign=-1)
        with pytest.raises(CornerCollision):
            step(st, P_FAST, r)


class TestSimulateAndClassify:
    def test_fig_slow_overdamped_mode(self):
        rec = simulate(perturbed_seed(fixed_point(2, P_SLOW), 1e-3), P_SLOW,
                       max_events=2600)
        cls = classify(rec)
        assert cls.tag is OrbitTag.PERIODIC
        assert cls.symbols == ("H", "Zbar", "Hbar", "Z")
        assert cls.nu == 2
        assert cls.symmetry == "S"

    def test_fig_fast_underdamped_mode(self):
        rec = simulate(perturbed_seed(fixed_point(3, P_FAST), 1e-3), P_FAST,
                       max_events=3600)
        cls = classify(rec)
        assert cls.tag is OrbitTag.PERIODIC
        assert cls.symbols == ("H", "Z", "Hbar", "Zbar")
        assert cls.nu == 3
        assert cls.symmetry == "S"

    def test_constant_history_overdamped_reaches_slow_mode(self):
        rec = simulate(initial_state(0.5), P_SLOW, max_events=2600)
        cls = classify(rec)
        assert cls.tag is OrbitTag.PERIODIC
        assert cls.nu == 0
        assert cls.period == pytest.approx(2.0056, abs=2e-3)

    def test_nonoscillatory_detection(self):
        p = Parameters(Q=0.4, Omega=7.0, sigma=1)
        rec = simulate(initial_state(0.5, 0.0), p, max_events=100)
        assert rec.terminated == "nonoscillatory"
        assert classify(rec).tag is OrbitTag.NONOSCILLATORY

    def test_quasiperiodic_detection(self):
        p = Parameters(Q=1.5, Omega=14.82, sigma=-1)
        rec = simulate(perturbed_seed(fixed_point(3, p), 1e-3), p, max_events=40000)
        assert classify(rec).tag is OrbitTag.QUASIPERIODIC

    def test_decaying_spiral_is_not_quasiperiodic(self):
        # The nu = 3 orbit is stable at Omega = 14.75 and spirals in for far
        # longer than 2000 events; its section is no torus.
        p = Parameters(Q=1.5, Omega=14.75, sigma=-1)
        rec = simulate(perturbed_seed(fixed_point(3, p), 1e-3), p, max_events=2000)
        assert classify(rec).tag is OrbitTag.UNDECIDED

    @pytest.mark.parametrize("last_scale,tag", [(1.0, OrbitTag.QUASIPERIODIC),
                                                (8.0, OrbitTag.UNDECIDED)])
    def test_section_must_settle_to_be_quasiperiodic(self, last_scale, tag):
        # H events at an irrational rotation of a circle: no event block
        # repeats, and every quarter of the section is a closed curve.
        n, golden = 1000, math.pi * (3.0 - math.sqrt(5.0))
        evs, t = [], 0.0
        for i in range(n):
            th = i * golden
            t += 1.0 + 0.3 * math.cos(th)
            r = last_scale if i >= 3 * n // 4 else 1.0
            evs.append(Event(EventKind.H, t, Headpoint(r * math.cos(th), r * math.sin(th))))
        assert classify(OrbitRecord(params=P_FAST, events=evs)).tag is tag

    def test_undecided_when_too_short(self):
        rec = simulate(initial_state(0.5), P_FAST, max_events=20)
        assert classify(rec).tag is OrbitTag.UNDECIDED

    def test_dense_samples_satisfy_ode(self):
        rec = simulate(perturbed_seed(fixed_point(3, P_FAST), 1e-3), P_FAST,
                       max_events=40, sample_dt=1e-3)
        r = derive_rates(P_FAST)
        samples = rec.samples
        checked = 0
        for (t0, x0, y0), (t1, x1, y1), (t2, x2, y2) in zip(samples, samples[1:], samples[2:]):
            h1, h2 = t1 - t0, t2 - t1
            if abs(h1 - h2) > 1e-12 or h1 <= 0:
                continue  # straddles an event boundary
            dx = (x2 - x0) / (t2 - t0)
            dy = (y2 - y0) / (t2 - t0)
            # Central differences carry an O(h^2 mu^2) truncation error.
            tol = 20.0 * h1 * h1 * r.mu * r.mu
            # the feedback sign on this segment from the ODE itself
            s_est = (dx * P_FAST.Q / P_FAST.Omega) + x1 + y1
            assert abs(abs(s_est) - 1.0) < tol
            assert dy == pytest.approx(P_FAST.Q * P_FAST.Omega * x1, abs=tol * P_FAST.Q * P_FAST.Omega)
            checked += 1
        assert checked > 50

    def test_fixed_point_orbit_period(self):
        fp = fixed_point(3, P_FAST)
        rec = simulate(state_from_fixed_point(fp), P_FAST, max_events=83)
        z_times = [e.time for e in rec.events if e.kind.is_zero]
        assert len(z_times) >= 41
        for a, b in zip(z_times, z_times[1:]):
            assert abs((b - a) - fp.Tstar) <= 1e-8 * fp.Tstar

    def test_delay_extension_by_simulation(self):
        # A periodic orbit at (Q, Omega) reappears at Omega (1 + 2 n T*) with
        # the switching interval contracted by the same factor and the
        # frequency raised by 2 n.
        p = Parameters(Q=0.45, Omega=8.0, sigma=-1)
        fp = fixed_point(2, p)
        rec = simulate(perturbed_seed(fp, 1e-4), p, max_events=2600)
        cls = classify(rec)
        assert cls.tag is OrbitTag.PERIODIC and cls.nu == 2

        scale = 1.0 + 2.0 * fp.Tstar
        p2 = Parameters(Q=0.45, Omega=8.0 * scale, sigma=-1)
        fp2 = fixed_point(4, p2)
        rec2 = simulate(perturbed_seed(fp2, 1e-4), p2, max_events=3000)
        cls2 = classify(rec2)
        assert cls2.tag is OrbitTag.PERIODIC and cls2.nu == 4
        assert cls2.period == pytest.approx(cls.period / scale, rel=1e-8)


class TestSerialization:
    def test_json_round_trip_fields(self):
        rec = simulate(initial_state(0.5), P_SLOW, max_events=300)
        cls = classify(rec, min_events=100)
        doc = serialize.orbit_record_json(rec, cls)
        line = serialize.json_line(doc)
        parsed = json.loads(line)
        assert parsed["schema_version"] == 1
        assert parsed["n_events"] == 300
        assert len(parsed["events"]) == 300
        assert len(parsed["intervals"]) == 299
        assert parsed["h_section"]
        assert parsed["classification"]["tag"] in {"periodic", "undecided"}

    def test_csv_samples(self):
        rec = simulate(initial_state(0.5), P_SLOW, max_events=20, sample_dt=0.01)
        buf = io.StringIO()
        serialize.write_csv(serialize.ORBIT_CSV_HEADER, rec.samples, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x,y"
        assert len(lines) == len(rec.samples) + 1
        t, x, y = map(float, lines[1].split(","))
        assert (t, x, y) == rec.samples[0]


def _sample_segment_loop(rec, st, t_end, s, r, dt):
    """Reference dense sampler: one scalar apply_flow call per sample time."""
    n = int((t_end - st.t) / dt)
    for i in range(n + 1):
        tau = i * dt
        if st.t + tau >= t_end:
            break
        hp = apply_flow(tau, st.v, s, r)
        rec.samples.append((st.t + tau, hp.x, hp.y))


def _walk_segments(st0, p, max_events):
    """(state, t_end, s) of each segment, by the scalar step from st0."""
    r = derive_rates(p)
    segs, st = [], st0
    for _ in range(max_events):
        try:
            ev, st_next = step(st, p, r)
        except NonoscillatoryEnd:
            break
        segs.append((st, ev.time, p.sigma * st.hist_sign))
        st = st_next
    return segs


def _one_segment(st, t_end, s):
    """A segment in the (t0, x0, y0, s, t_end) form simulate hands the sampler."""
    return (st.t, st.v.x, st.v.y, s, t_end)


def _assert_samples_match(got, want):
    # Same rows and bit-identical times; x and y may move by the last ulp of
    # the vectorised exp/expm1/cos/sin.
    assert len(got) == len(want) > 0
    assert [row[0] for row in got] == [row[0] for row in want]
    for (_, x, y), (_, xr, yr) in zip(got, want):
        assert abs(x - xr) <= 1e-15 and abs(y - yr) <= 1e-15


ORBITS = pytest.mark.parametrize("p, seed_nu", [
    (P_FAST, 3),                                   # underdamped
    (P_SLOW, 2),                                   # overdamped
    (Parameters(Q=0.5, Omega=7.0, sigma=-1), None),  # critical
], ids=["underdamped", "overdamped", "critical"])


def _start(p, seed_nu):
    return (initial_state(0.5) if seed_nu is None
            else perturbed_seed(fixed_point(seed_nu, p), 1e-3))


class TestDenseSamplingOracle:
    @ORBITS
    @pytest.mark.parametrize("dt", [1e-3, 0.0123])
    def test_orbit_matches_per_sample_loop(self, p, seed_nu, dt):
        st0 = _start(p, seed_nu)
        got = simulate(st0, p, max_events=60, sample_dt=dt)
        r = derive_rates(p)
        want = OrbitRecord(params=p)
        segs = _walk_segments(st0, p, 60)
        for st, t_end, s in segs:
            _sample_segment_loop(want, st, t_end, s, r, dt)
        assert [t_end for _, t_end, _ in segs] == [e.time for e in got.events]
        _assert_samples_match(got.samples, want.samples)

    @ORBITS
    def test_one_pass_equals_one_call_per_segment(self, p, seed_nu):
        r, dt = derive_rates(p), 1e-3
        segs = [_one_segment(*seg) for seg in _walk_segments(_start(p, seed_nu), p, 60)]
        got, want = OrbitRecord(params=p), OrbitRecord(params=p)
        events._sample_segments(got, segs, r, dt)
        for seg in segs:
            events._sample_segments(want, [seg], r, dt)
        assert len(got.samples) > 1000
        assert got.samples == want.samples

    @pytest.mark.parametrize("Q", [0.5 + 1e-7, 0.5 - 1e-7])
    def test_segment_starting_in_series(self, Q):
        p = Parameters(Q=Q, Omega=7.0, sigma=-1)
        r = derive_rates(p)
        dt = 2e-3
        # The first several sample times sit below the series threshold.
        assert abs(r.omega2) * (5 * dt) ** 2 < SERIES_THRESHOLD
        assert abs(r.omega2) * 0.5 ** 2 > SERIES_THRESHOLD
        st = SystemState(t=0.25, v=Headpoint(0.3, -0.2), zeros=(), hist_sign=1)
        for s in (1, -1):
            got, want = OrbitRecord(params=p), OrbitRecord(params=p)
            events._sample_segments(got, [_one_segment(st, 0.75, s)], r, dt)
            _sample_segment_loop(want, st, 0.75, s, r, dt)
            _assert_samples_match(got.samples, want.samples)

    def test_long_overdamped_segment_stays_finite(self):
        p = Parameters(Q=0.1, Omega=100.0, sigma=-1)
        r = derive_rates(p)
        t_len = 3.0
        with pytest.raises(OverflowError):
            math.cosh(r.omega_abs * t_len)  # the unsplit form would overflow
        st = SystemState(t=1.0, v=Headpoint(0.5, 0.1), zeros=(), hist_sign=1)
        got, want = OrbitRecord(params=p), OrbitRecord(params=p)
        events._sample_segments(got, [_one_segment(st, st.t + t_len, -1)], r, 0.01)
        _sample_segment_loop(want, st, st.t + t_len, -1, r, 0.01)
        assert all(math.isfinite(v) for row in got.samples for v in row)
        _assert_samples_match(got.samples, want.samples)

    def test_times_stop_before_segment_end(self):
        # t_end lands exactly on a sample time: that sample belongs to the
        # next segment, as in the per-sample loop.
        r = derive_rates(P_FAST)
        st = SystemState(t=0.0, v=Headpoint(0.5, 0.0), zeros=(), hist_sign=1)
        got, want = OrbitRecord(params=P_FAST), OrbitRecord(params=P_FAST)
        events._sample_segments(got, [_one_segment(st, 0.5, -1)], r, 0.125)
        _sample_segment_loop(want, st, 0.5, -1, r, 0.125)
        assert [row[0] for row in got.samples] == [0.0, 0.125, 0.25, 0.375]
        _assert_samples_match(got.samples, want.samples)

    def test_request_past_samples_max_is_refused(self):
        # About 6e14 samples: refused before any array is allocated.
        rec = OrbitRecord(params=P_FAST)
        st = SystemState(t=0.0, v=Headpoint(0.5, 0.0), zeros=(), hist_sign=1)
        with pytest.raises(ValueError, match="over 16777216"):
            events._sample_segments(rec, [_one_segment(st, 0.6, -1)], derive_rates(P_FAST), 1e-15)
        assert rec.samples == []

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_sample_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="sample_dt"):
            simulate(initial_state(0.5), P_FAST, max_events=5, sample_dt=dt)
