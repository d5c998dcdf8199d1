"""Constant-feedback flow: rates, regime-spanning trig, closed-form solution."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from relaydde.events import NODE_TOLERANCE, SystemState, next_z_delay
from relaydde.flow import (
    Headpoint,
    _advance,
    apply_flow,
    decayed_gcos_gsinc,
    decayed_gcos_gsinc_array,
    first_crossing,
    flow_x,
    gcos,
    gsinc,
)
from relaydde.params import Parameters, Regime, derive_rates


def frozen_rhs(x, y, s, r):
    """Right-hand side of the frozen-feedback ODE at (x, y)."""
    return 2.0 * r.mu * (-x - y + s), r.omega_sq_plus_mu_sq / (2.0 * r.mu) * x


def rk4_frozen(v, s, r, t_end, n_steps=20000):
    """Reference integration of the frozen-feedback system."""
    h = t_end / n_steps
    x, y = v.x, v.y

    def f(x, y):
        return frozen_rhs(x, y, s, r)

    for _ in range(n_steps):
        k1 = f(x, y)
        k2 = f(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1])
        k3 = f(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1])
        k4 = f(x + h * k3[0], y + h * k3[1])
        x += h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y += h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return Headpoint(x, y)


def flow_affine(t, r):
    """(A(t), b(t)) of v(t) = A(t) v + s b(t), read off the production apply_flow."""
    b = apply_flow(t, Headpoint(0.0, 0.0), 1, r)
    c1 = apply_flow(t, Headpoint(1.0, 0.0), 1, r)
    c2 = apply_flow(t, Headpoint(0.0, 1.0), 1, r)
    A = np.array([[c1.x - b.x, c2.x - b.x], [c1.y - b.y, c2.y - b.y]])
    return A, np.array([b.x, b.y])


class TestDeriveRates:
    def test_critical_point(self):
        r = derive_rates(Parameters(Q=0.5, Omega=1.0))
        assert r.mu == 1.0
        assert r.omega2 == 0.0
        assert r.regime is Regime.CRITICAL

    def test_underdamped_values(self):
        r = derive_rates(Parameters(Q=1.5, Omega=14.0))
        assert r.mu == pytest.approx(14.0 / 3.0, rel=1e-15)
        assert r.omega2 == pytest.approx(196.0 * 8.0 / 9.0, rel=1e-14)
        assert r.regime is Regime.UNDERDAMPED

    def test_overdamped_sign(self):
        r = derive_rates(Parameters(Q=0.4, Omega=7.0))
        assert r.mu == pytest.approx(8.75)
        assert r.omega2 < 0.0
        assert r.regime is Regime.OVERDAMPED

    def test_mu2_plus_omega2_is_omega_squared(self):
        for Q, Om in [(0.3, 5.0), (0.5, 2.0), (1.7, 11.0)]:
            r = derive_rates(Parameters(Q=Q, Omega=Om))
            assert r.omega_sq_plus_mu_sq == pytest.approx(Om * Om, rel=1e-14)

    @pytest.mark.parametrize("Q", [0.5 - 1e-9, 0.5 + 1e-9, 0.5 - 1e-6, 0.5 + 1e-6, 0.45])
    @pytest.mark.parametrize("Omega", [1.0, 7.3, 25.9])
    def test_omega2_near_critical_matches_exact(self, Q, Omega):
        # Exact rational Omega^2 (4Q^2 - 1) / (4Q^2) of the float inputs.
        q, om = Fraction(Q), Fraction(Omega)
        exact = om * om * (4 * q * q - 1) / (4 * q * q)
        got = Fraction(derive_rates(Parameters(Q=Q, Omega=Omega)).omega2)
        assert abs(got - exact) <= 4 * EPS * abs(exact)

    @pytest.mark.parametrize("Q, Omega", [
        (1e-300, 1.0),   # (2Q)^2 underflows: omega^2 = -inf
        (1.5, 1e-300),   # omega^2 underflows to 0 while underdamped
        (0.4, 1e-300),   # ... and while overdamped
        (1.5, 1e300),    # Omega^2 overflows
        (1e-10, 1e300),  # mu overflows
    ])
    def test_rates_outside_float_range_raise(self, Q, Omega):
        with pytest.raises(ValueError, match=re.escape(f"Q={Q}, Omega={Omega}")):
            derive_rates(Parameters(Q=Q, Omega=Omega))

    def test_tiny_omega_at_the_critical_point_is_valid(self):
        r = derive_rates(Parameters(Q=0.5, Omega=1e-300))
        assert r.omega2 == 0.0 and r.regime is Regime.CRITICAL

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Parameters(Q=-1.0, Omega=1.0)
        with pytest.raises(ValueError):
            Parameters(Q=1.0, Omega=0.0)
        with pytest.raises(ValueError):
            Parameters(Q=1.0, Omega=1.0, sigma=0)


class TestGcosGsinc:
    def test_at_zero(self):
        for Q in (0.3, 0.5, 1.5):
            r = derive_rates(Parameters(Q=Q, Omega=3.0))
            assert gcos(0.0, r) == 1.0
            assert gsinc(0.0, r) == 0.0

    def test_critical_gsinc_is_t(self):
        r = derive_rates(Parameters(Q=0.5, Omega=2.0))
        for t in (0.1, 0.7, 2.3):
            assert gsinc(t, r) == t
            assert gcos(t, r) == 1.0

    def test_against_direct_trig(self):
        r = derive_rates(Parameters(Q=1.5, Omega=14.0))
        w = math.sqrt(r.omega2)
        t = 0.1
        assert gcos(t, r) == pytest.approx(math.cos(w * t), abs=1e-12)
        assert gsinc(t, r) == pytest.approx(math.sin(w * t) / w, abs=1e-12)

    def test_against_hyperbolic(self):
        r = derive_rates(Parameters(Q=0.4, Omega=7.0))
        w = math.sqrt(-r.omega2)
        t = 0.3
        assert gcos(t, r) == pytest.approx(math.cosh(w * t), rel=1e-14)
        assert gsinc(t, r) == pytest.approx(math.sinh(w * t) / w, rel=1e-14)

    def test_series_region_continuity(self):
        # Pythagorean identity survives the series fallback.
        r = derive_rates(Parameters(Q=0.5 + 1e-9, Omega=1.0))
        for t in (0.05, 0.5, 1.0):
            ident = gcos(t, r) ** 2 + r.omega2 * gsinc(t, r) ** 2
            assert ident == pytest.approx(1.0, abs=1e-12)


EPS = np.finfo(float).eps


class TestArrayForm:
    """The array evaluator against the scalar one, branch by branch."""

    @settings(max_examples=300, deadline=None)
    @given(
        Q=st.one_of(
            st.floats(0.05, 5.0),
            st.floats(0.5 - 1e-6, 0.5 + 1e-6),
            st.just(0.5),
        ),
        Omega=st.floats(0.1, 60.0),
        ts=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=16),
    )
    def test_matches_scalar(self, Q, Omega, ts):
        r = derive_rates(Parameters(Q=Q, Omega=Omega))
        egc, egs = decayed_gcos_gsinc_array(np.array(ts), r)
        w = r.omega_abs
        for k, t in enumerate(ts):
            c, s = decayed_gcos_gsinc(t, r)
            # Only exp, cos and sin may differ, by an ulp or so; bound the
            # difference by the size of the terms they enter.
            scale = math.exp((w - r.mu) * t) if r.omega2 < 0.0 else math.exp(-r.mu * t)
            reach = t + 1.0 / w if w > 0.0 else t
            assert abs(egc[k] - c) <= 8 * EPS * scale
            assert abs(egs[k] - s) <= 8 * EPS * scale * reach

    @pytest.mark.parametrize("Q", [0.3, 0.5, 0.5 + 1e-9, 1.5])
    def test_time_zero_is_exact(self, Q):
        # The first sample of every segment is the headpoint itself.
        r = derive_rates(Parameters(Q=Q, Omega=3.0))
        egc, egs = decayed_gcos_gsinc_array(np.array([0.0, 1e-3]), r)
        assert (egc[0], egs[0]) == decayed_gcos_gsinc(0.0, r) == (1.0, 0.0)

    def test_deep_overdamping_has_no_overflow(self):
        r = derive_rates(Parameters(Q=0.1, Omega=100.0))
        t = np.linspace(0.0, 10.0, 101)
        egc, egs = decayed_gcos_gsinc_array(t, r)
        assert np.all(np.isfinite(egc)) and np.all(np.isfinite(egs))

    def test_array_advance_matches_apply_flow(self):
        # One _advance call over arrays, each entry with its own time, start
        # and sign, as dense sampling makes it.
        t = np.linspace(0.0, 0.9, 37)
        x0 = np.linspace(-0.5, 0.4, 37)
        y0 = 0.3 - 0.5 * x0
        s = np.where(np.arange(37) % 3 == 0, 1, -1)
        for p in (Parameters(Q=1.5, Omega=14.0), Parameters(Q=0.4, Omega=7.0)):
            r = derive_rates(p)
            x, y = _advance(*decayed_gcos_gsinc_array(t, r), x0, y0, s, r)
            for k, tk in enumerate(t):
                hp = apply_flow(float(tk), Headpoint(float(x0[k]), float(y0[k])), int(s[k]), r)
                assert abs(x[k] - hp.x) <= 1e-15 and abs(y[k] - hp.y) <= 1e-15


class TestFlowMatrix:
    def test_identity_at_zero(self):
        for Q in (0.3, 1.5):
            r = derive_rates(Parameters(Q=Q, Omega=5.0))
            A, b = flow_affine(0.0, r)
            np.testing.assert_allclose(A, np.eye(2), atol=1e-15)
            np.testing.assert_allclose(b, np.zeros(2), atol=1e-15)

    def test_determinant_is_wronskian(self):
        for Q, Om in [(1.5, 14.0), (0.4, 7.0)]:
            r = derive_rates(Parameters(Q=Q, Omega=Om))
            for t in (0.1, 0.5, 1.0):
                expected = math.exp(-2.0 * r.mu * t)
                det = np.linalg.det(flow_affine(t, r)[0])
                assert det == pytest.approx(expected, abs=1e-12 * max(1, expected))

    def test_semigroup(self):
        for Q, Om in [(1.5, 14.0), (0.4, 7.0), (0.5, 3.0)]:
            r = derive_rates(Parameters(Q=Q, Omega=Om))
            for t1, t2 in [(0.1, 0.2), (0.05, 0.6)]:
                lhs = flow_affine(t1 + t2, r)[0]
                rhs = flow_affine(t1, r)[0] @ flow_affine(t2, r)[0]
                np.testing.assert_allclose(lhs, rhs, atol=1e-13)


class TestApplyFlow:
    def test_fixed_point_invariance(self):
        for Q, Om in [(1.5, 14.0), (0.4, 7.0)]:
            r = derive_rates(Parameters(Q=Q, Omega=Om))
            for s in (-1, 1):
                for t in (0.1, 1.0, 5.0):
                    out = apply_flow(t, Headpoint(0.0, float(s)), s, r)
                    assert out.x == pytest.approx(0.0, abs=1e-13)
                    assert out.y == pytest.approx(float(s), abs=1e-13)

    def test_time_zero_is_identity(self):
        r = derive_rates(Parameters(Q=1.1, Omega=6.0))
        v = Headpoint(0.3, -0.7)
        out = apply_flow(0.0, v, 1, r)
        assert (out.x, out.y) == (v.x, v.y)

    def test_against_rk4(self):
        r = derive_rates(Parameters(Q=1.5, Omega=14.0))
        v = Headpoint(0.3, -0.2)
        got = apply_flow(0.05, v, 1, r)
        ref = rk4_frozen(v, 1, r, 0.05)
        assert got.x == pytest.approx(ref.x, abs=1e-8)
        assert got.y == pytest.approx(ref.y, abs=1e-8)

    def test_finite_difference_matches_ode(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(50):
            Q = float(rng.uniform(0.2, 2.5))
            Om = float(rng.uniform(1.0, 20.0))
            r = derive_rates(Parameters(Q=Q, Omega=Om))
            v = Headpoint(float(rng.normal()), float(rng.normal()))
            s = int(rng.choice([-1, 1]))
            t = float(rng.uniform(0.01, 0.8))
            fwd = apply_flow(t + h, v, s, r)
            bwd = apply_flow(t - h, v, s, r)
            mid = apply_flow(t, v, s, r)
            dx_fd = (fwd.x - bwd.x) / (2 * h)
            dy_fd = (fwd.y - bwd.y) / (2 * h)
            dx, dy = frozen_rhs(mid.x, mid.y, s, r)
            scale = max(1.0, abs(dx), abs(dy)) * r.mu
            assert abs(dx_fd - dx) < 1e-7 * scale
            assert abs(dy_fd - dy) < 1e-7 * scale

    def test_continuity_across_critical_damping(self):
        v = Headpoint(0.4, -0.3)
        t = 0.6
        ref = apply_flow(t, v, 1, derive_rates(Parameters(Q=0.5, Omega=2.0)))
        for dq in (1e-6, -1e-6):
            out = apply_flow(t, v, 1, derive_rates(Parameters(Q=0.5 + dq, Omega=2.0)))
            assert abs(out.x - ref.x) <= 1e-5
            assert abs(out.y - ref.y) <= 1e-5

    def test_contraction_to_node(self):
        for Q, Om in [(1.5, 14.0), (0.4, 7.0)]:
            r = derive_rates(Parameters(Q=Q, Omega=Om))
            # spectral radius of A(t) decays once mu t is a few units
            for t in (2.0, 5.0):
                rad = max(abs(np.linalg.eigvals(flow_affine(t, r)[0])))
                assert rad < 1.0
            out = apply_flow(50.0 / r.mu, Headpoint(0.8, 0.9), -1, r)
            assert abs(out.x) < 1e-8 and abs(out.y + 1.0) < 1e-8

    def test_odd_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            Q = float(rng.uniform(0.2, 2.5))
            r = derive_rates(Parameters(Q=Q, Omega=float(rng.uniform(1, 20))))
            v = Headpoint(float(rng.normal()), float(rng.normal()))
            s = int(rng.choice([-1, 1]))
            t = float(rng.uniform(0.0, 1.5))
            a = apply_flow(t, v, s, r)
            b = apply_flow(t, Headpoint(-v.x, -v.y), -s, r)
            assert b.x == -a.x and b.y == -a.y

    def test_flow_sign_validation(self):
        r = derive_rates(Parameters(Q=1.0, Omega=2.0))
        with pytest.raises(ValueError):
            apply_flow(0.1, Headpoint(0.1, 0.1), 0, r)


ORACLE_HORIZON = 3.0

# Random frozen-feedback states (x != 0) at any Omega; Q is drawn separately.
# A subnormal x would put the crossing below the smallest positive float.
_STATE = dict(
    Omega=st.floats(0.5, 20.0),
    x=st.floats(-2.0, 2.0, allow_subnormal=False).filter(lambda v: v != 0.0),
    y=st.floats(-3.0, 3.0),
    s=st.sampled_from((-1, 1)),
)


def brent_first_crossing(v, s, r, n=4000):
    """Oracle: first sign change of flow_x on a uniform grid over
    (0, ORACLE_HORIZON], refined by scipy's Brent; None when x keeps its sign.
    Underdamped crossings are at least pi/20 apart for Omega <= 20, so the
    grid cannot step over one."""
    ts = np.linspace(0.0, ORACLE_HORIZON, n + 1)
    prev = flow_x(0.0, v, s, r)
    for a, b in zip(ts[:-1], ts[1:]):
        fb = flow_x(b, v, s, r)
        if fb == 0.0:
            return float(b)
        if (prev > 0.0) != (fb > 0.0):
            return brentq(flow_x, a, b, args=(v, s, r), xtol=1e-300, rtol=4 * EPS, maxiter=2000)
        prev = fb
    return None


class TestFirstCrossing:
    """The closed-form crossing against root finding on the flow itself."""

    @settings(max_examples=200, deadline=None)
    @given(
        Q=st.one_of(
            st.floats(0.15, 4.0),
            st.floats(0.15, 0.5, exclude_max=True),  # overdamped side
            st.just(0.5),
            st.floats(-1e-6, 1e-6).map(lambda e: 0.5 + e),
        ),
        **_STATE,
    )
    def test_matches_brent_oracle(self, Q, Omega, x, y, s):
        r = derive_rates(Parameters(Q=Q, Omega=Omega))
        t = first_crossing(x, r.mu * x + 2.0 * r.mu * (y - s), r)
        oracle = brent_first_crossing(Headpoint(x, y), s, r)
        if t is None or t > ORACLE_HORIZON:
            assert oracle is None
        else:
            # The closed form stays at a few ulps of the exact root.
            assert oracle == pytest.approx(t, rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        Q=st.one_of(st.floats(0.5, 4.0), st.floats(0.0, 1e-6).map(lambda e: 0.5 + e))
        .filter(lambda q: q > 0.5),
        **_STATE,
    )
    def test_event_brent_root_matches(self, Q, Omega, x, y, s):
        # The simulator's underdamped branch still brackets and refines with
        # Brent (xtol 1e-14 absolute); past that it agrees to 1e-15 relative.
        assume(abs(x) > NODE_TOLERANCE or abs(y - s) > NODE_TOLERANCE)
        r = derive_rates(Parameters(Q=Q, Omega=Omega))
        sign = 1 if x > 0.0 else -1
        st_ = SystemState(t=0.0, v=Headpoint(x, y), zeros=(), hist_sign=sign)
        z = next_z_delay(st_, s, r)
        t = first_crossing(x, r.mu * x + 2.0 * r.mu * (y - s), r)
        assert abs(z - t) <= 1e-14 + 1e-15 * t

    @pytest.mark.parametrize("Q", [0.5 + 1e-9, 0.5 + 1e-6, 0.6])
    def test_no_cancellation_for_negative_x(self, Q):
        # x, d < 0: the root is atan(omega x / d) / omega, far below the half
        # wave when omega is small; adding pi/omega to a negative angle over
        # omega would lose most of its digits.
        r = derive_rates(Parameters(Q=Q, Omega=2.0))
        w = r.omega_abs
        for x, d in [(-0.05, -3.0), (-1e-4, -0.5), (-1.0, -40.0)]:
            assert first_crossing(x, d, r) == pytest.approx(math.atan(w * x / d) / w, rel=4 * EPS)

    @pytest.mark.parametrize("Q", [0.4, 0.5, 1.5])
    def test_post_crossing_state(self, Q):
        r = derive_rates(Parameters(Q=Q, Omega=7.0))
        expected = math.pi / r.omega_abs if r.regime is Regime.UNDERDAMPED else None
        assert first_crossing(0.0, 1.0, r) == expected
        assert first_crossing(-0.0, -1.0, r) == expected
        assert first_crossing(0.0, 0.0, r) is None
