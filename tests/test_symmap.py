"""Four-symbol map: fixed points, Jacobian coefficients, spectra, identities."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from relaydde import symmap
from relaydde.atlas import corner_omega
from relaydde.errors import Degenerate, InvalidState, NoCrossing, NoRoot
from relaydde.events import simulate, step
from relaydde.flow import decayed_gcos_gsinc, gsinc
from relaydde.params import Parameters, Regime, derive_rates
from relaydde.symmap import (
    T_STAR_GRID,
    T_STAR_POINTS_PER_HALF_WAVE,
    T_STAR_XTOL,
    FixedPoint,
    StateVector,
    char_polynomial,
    char_roots,
    delta_of,
    fixed_point,
    fixed_point_candidates,
    jacobian_coeffs,
    jacobian_matrix,
    map_M,
    reflect,
    spectrum_of,
    state_from_fixed_point,
    t_star_bracket,
    t_star_candidates,
    x_H,
    z_of,
)

P_FAST = Parameters(Q=1.5, Omega=14.0, sigma=-1)
P_SLOW = Parameters(Q=0.4, Omega=7.0, sigma=-1)


def sample_valid_fixed_points(n, seed=123, q_range=(0.15, 2.8), om_range=(1.0, 30.0)):
    rng = np.random.default_rng(seed)
    out = []
    tried = 0
    while len(out) < n and tried < 50 * n:
        tried += 1
        p = Parameters(Q=float(rng.uniform(*q_range)),
                       Omega=float(rng.uniform(*om_range)),
                       sigma=int(rng.choice([-1, 1])))
        nu = int(rng.integers(0, 9))
        try:
            fp = fixed_point(nu, p)
        except NoRoot:
            continue
        if fp.valid.all and math.isfinite(fp.yZstar):
            out.append(fp)
    assert len(out) == n
    return out


def state_from_sim(st):
    """Map state (y_Z, T_1..T_nu) read off a simulator state at a Z event."""
    zeros = st.zeros
    Ts = tuple(a - b for a, b in zip(zeros, zeros[1:]))
    return StateVector(st.v.y, Ts)


class TestDeltaAndZ:
    def test_slow_mode_gap_is_one(self):
        assert delta_of(StateVector(0.3)) == 1.0

    def test_arithmetic(self):
        assert delta_of(StateVector(0.0, (0.3, 0.3))) == pytest.approx(0.4, abs=1e-15)

    def test_fixed_point_gap(self):
        fp = fixed_point(3, P_FAST)
        assert delta_of(fp.state) == pytest.approx(1.0 - 3 * fp.Tstar, abs=1e-14)

    def test_negative_gap_rejected(self):
        with pytest.raises(InvalidState):
            delta_of(StateVector(0.0, (0.6, 0.6)))

    def test_degenerate_numerator_rejected(self):
        r = derive_rates(P_FAST)
        with pytest.raises(NoCrossing):
            z_of(StateVector(-1.0, (0.3, 0.3, 0.3)), r)

    def test_underdamped_output_window(self):
        r = derive_rates(P_FAST)
        rng = np.random.default_rng(9)
        for _ in range(30):
            s = StateVector(float(rng.uniform(-3, 1.5)),
                            tuple(rng.uniform(0.05, 0.3, size=3)))
            try:
                z = z_of(s, r)
            except NoCrossing:
                continue
            assert 0.0 < z <= math.pi / r.omega_abs

    def test_fixed_point_z_closed_form(self):
        fp = fixed_point(3, P_FAST)
        r = derive_rates(P_FAST)
        assert z_of(fp.state, r) == pytest.approx(4 * fp.Tstar - 1.0, abs=1e-10)


class TestMap:
    def test_fixed_point_residual(self):
        for fp in sample_valid_fixed_points(25, seed=31):
            out = map_M(fp.state, fp.params)
            err = np.max(np.abs(out.as_array() - fp.state.as_array()))
            assert err <= 1e-10

    def test_frequency_preserving(self):
        fp = fixed_point(3, P_FAST)
        s = StateVector(fp.yZstar * 1.02, (fp.Tstar * 0.98, fp.Tstar, fp.Tstar * 1.01))
        assert map_M(s, P_FAST).nu == s.nu

    def test_two_symbol_shift_vs_two_sim_events(self):
        fp = fixed_point(3, P_FAST)
        s = StateVector(fp.yZstar * 1.01, (fp.Tstar * 0.99, fp.Tstar * 1.005, fp.Tstar))
        st = _seed_from_state(s, fp)
        ev1, st = step(st, P_FAST)
        ev2, st = step(st, P_FAST)
        assert ev1.kind.is_history and ev2.kind.is_zero
        got = state_from_sim(st)
        want = reflect(map_M(s, P_FAST))  # the sim state has no sign flip applied
        np.testing.assert_allclose(got.as_array(), want.as_array(), atol=1e-9)

    def test_poincare_is_map_squared_vs_four_sim_events(self):
        fp = fixed_point(3, P_FAST)
        s = StateVector(fp.yZstar * 1.01, (fp.Tstar * 0.99, fp.Tstar * 1.005, fp.Tstar))
        st = _seed_from_state(s, fp)
        for _ in range(4):
            _, st = step(st, P_FAST)
        got = state_from_sim(st)
        want = map_M(map_M(s, P_FAST), P_FAST)
        np.testing.assert_allclose(got.as_array(), want.as_array(), atol=1e-9)

    def test_minus_shift_conjugacy(self):
        # The opposite two-symbol shift is the reflection conjugate of the
        # forward one; composing the two gives the full four-event return.
        fp = fixed_point(3, P_FAST)
        s = StateVector(fp.yZstar * 1.01, (fp.Tstar * 0.99, fp.Tstar * 1.005, fp.Tstar))
        plus = lambda v: reflect(map_M(v, P_FAST))          # two-symbol shift
        minus = lambda v: reflect(plus(reflect(v)))
        via_conjugacy = minus(plus(s))
        via_map = map_M(map_M(s, P_FAST), P_FAST)
        np.testing.assert_allclose(via_conjugacy.as_array(), via_map.as_array(),
                                   atol=1e-12)


def _seed_from_state(s, fp):
    """Simulator state at a Z-type anchor with intervals from s."""
    from relaydde.events import SystemState
    from relaydde.flow import Headpoint
    zeros = [0.0]
    for T in s.T:
        zeros.append(zeros[-1] - T)
    base = state_from_fixed_point(fp)
    return SystemState(t=0.0, v=Headpoint(0.0, s.yZ), zeros=tuple(zeros),
                       hist_sign=base.hist_sign)


class TestTStar:
    def test_bracket_nu_positive(self):
        for nu in (1, 2, 3, 5):
            for fp in [fixed_point(nu, Parameters(Q=1.5, Omega=om, sigma=-1))
                       for om in (6.0, 12.0) if _has_root(nu, om)]:
                assert 1.0 / (nu + 1) < fp.Tstar < 1.0 / nu

    def test_slow_bracket(self):
        fp = fixed_point(0, Parameters(Q=0.45, Omega=20.0, sigma=-1))
        assert fp.Tstar > 1.0

    def test_fast_mode_period_matches_simulation(self):
        fp = fixed_point(3, P_FAST)
        rec = simulate(state_from_fixed_point(fp), P_FAST, max_events=83)
        z_times = [e.time for e in rec.events if e.kind.is_zero]
        measured = (z_times[-1] - z_times[0]) / (len(z_times) - 1)
        assert measured == pytest.approx(fp.Tstar, rel=1e-8)

    def test_no_root_at_unreachable_damping(self):
        # the slow-mode crossing gap underflows double precision here
        with pytest.raises(NoRoot):
            fixed_point(0, Parameters(Q=0.45, Omega=200.0, sigma=-1))

    def test_candidates_sorted(self):
        cands = t_star_candidates(3, Parameters(Q=1.5, Omega=12.0, sigma=-1))
        assert cands == sorted(cands)
        assert len(cands) >= 2  # coexisting families place two roots here


def reference_scan_roots(nu, r, lo, hi, n):
    """Element-by-element sign-change scan, the oracle for symmap._scan_roots.

    Looks the residuals up on the symmap module so that a test can swap in
    a synthetic residual for both.
    """
    span = hi - lo
    eps = span * 1e-12
    ts = np.concatenate(([lo + eps], np.linspace(lo, hi, n + 2)[1:-1], [hi - eps]))
    res = symmap._t_star_residual_vec(ts, nu, r)
    roots = []
    for i in range(len(ts) - 1):
        a, b = res[i], res[i + 1]
        if a == 0.0:
            roots.append(ts[i])
        elif (a > 0.0) != (b > 0.0):
            roots.append(
                brentq(
                    symmap._t_star_residual, ts[i], ts[i + 1], args=(nu, r),
                    xtol=T_STAR_XTOL, maxiter=200,
                )
            )
    if len(res) and res[-1] == 0.0:
        roots.append(ts[-1])
    return sorted(set(roots))


def reference_slow_gap(r, gap_max):
    """Element-by-element first-root search on the nu = 0 gap grid."""
    gaps = np.geomspace(1e-15, gap_max, 256)
    res = [symmap._t_star_residual(1.0 + g, 0, r) for g in gaps]
    for i in range(len(gaps) - 1):
        if res[i] == 0.0:
            return 1.0 + gaps[i]
        if (res[i] > 0.0) != (res[i + 1] > 0.0):
            z = brentq(
                lambda g: symmap._t_star_residual(1.0 + g, 0, r),
                gaps[i], gaps[i + 1], xtol=1e-18, rtol=1e-15, maxiter=200,
            )
            return 1.0 + z
    return None


def _assert_scan_matches_reference(nu, r, n):
    lo, hi = t_star_bracket(nu, r)
    got = symmap._scan_roots(nu, r, lo, hi, n)
    assert got == reference_scan_roots(nu, r, lo, hi, n)
    assert all(type(t) is float for t in got)
    return got


SCAN_POINTS = [
    (1.5, 14.0), (2.5, 37.0), (0.8, 5.0), (1.5, 12.0),  # underdamped
    (0.4, 7.0), (0.3, 25.0), (0.45, 10.0), (0.2, 2.0),  # overdamped
    (0.5, 3.0), (0.5, 20.0),                             # critical
]


class TestScanOracle:
    """The vectorised bracket finder returns the oracle's roots bit for bit."""

    @pytest.mark.parametrize("Q,Omega", SCAN_POINTS)
    def test_regimes_all_frequencies(self, Q, Omega):
        r = derive_rates(Parameters(Q=Q, Omega=Omega))
        for nu in range(9):
            for n in (T_STAR_GRID, 8 * T_STAR_GRID):
                _assert_scan_matches_reference(nu, r, n)

    @pytest.mark.parametrize("rel", [-1e-9, 1e-9, -1e-4, 1e-4])
    def test_near_corner_lines(self, rel):
        for nu in range(9):
            for K in (nu + 1, 2 * nu + 1):
                r = derive_rates(Parameters(Q=1.5, Omega=corner_omega(1.5, K) * (1.0 + rel)))
                for n in (T_STAR_GRID, 8 * T_STAR_GRID):
                    _assert_scan_matches_reference(nu, r, n)

    def test_refined_grid_finds_roots_the_coarse_grid_misses(self):
        # Near Omega = 3241 the nu = 1 residual oscillates about twice per
        # 512-point grid step, so the coarse grid samples every wave at the
        # same phase and sees no sign change; the 8x grid resolves them.
        p = Parameters(Q=5.0, Omega=3241.0)
        r = derive_rates(p)
        assert _assert_scan_matches_reference(1, r, T_STAR_GRID) == []
        fine = _assert_scan_matches_reference(1, r, 8 * T_STAR_GRID)
        assert len(fine) > 1000
        # t_star_candidates sizes its first grid from the residual's
        # frequency instead, so it needs no fallback here.
        sized = T_STAR_POINTS_PER_HALF_WAVE * math.ceil(r.omega_abs / math.pi)
        got = t_star_candidates(1, p)
        assert got == _assert_scan_matches_reference(1, r, sized)
        assert len(got) >= len(fine)

    def test_sized_grid_does_not_alias(self):
        # 512 points alias at (5, 3243, 1): they see one root of ~1027.
        p = Parameters(Q=5.0, Omega=3243.0)
        r = derive_rates(p)
        assert len(_assert_scan_matches_reference(1, r, T_STAR_GRID)) == 1
        assert len(t_star_candidates(1, p)) >= 1000

    def test_grid_cap_raises_before_scanning(self, monkeypatch):
        # (5, 3243, 1) needs 16,448 points, over a cap lowered to 4,096.
        monkeypatch.setattr(symmap, "T_STAR_GRID_MAX", 4096)
        monkeypatch.setattr(symmap, "_scan_roots", lambda *a: pytest.fail("scanned past the cap"))
        with pytest.raises(ValueError, match="T\\* grid of over 4096 points"):
            t_star_candidates(1, Parameters(Q=5.0, Omega=3243.0))

    @pytest.mark.parametrize("Q", [0.55, 1.0, 1.5, 2.0, 2.55])
    def test_paper_range_keeps_the_fixed_grid(self, Q):
        for Omega in (1.0, 8.0, 14.0, 20.0, 30.0, 41.0):
            p = Parameters(Q=Q, Omega=Omega)
            r = derive_rates(p)
            for nu in range(9):
                lo, hi = t_star_bracket(nu, r)
                coarse = symmap._scan_roots(nu, r, lo, hi, T_STAR_GRID)
                if coarse:
                    assert t_star_candidates(nu, p) == coarse

    @pytest.mark.parametrize("Q,Omega", [(0.4, 50.0), (0.35, 60.0), (0.45, 200.0)])
    def test_slow_gap_fallback(self, Q, Omega):
        p = Parameters(Q=Q, Omega=Omega)
        r = derive_rates(p)
        for n in (T_STAR_GRID, 8 * T_STAR_GRID):
            assert _assert_scan_matches_reference(0, r, n) == []
        lo, hi = t_star_bracket(0, r)
        want = reference_slow_gap(r, hi - lo)
        got = symmap._scan_slow_gap(r, hi - lo)
        assert got == want
        assert t_star_candidates(0, p) == ([] if want is None else [want])

    def test_synthetic_exact_zeros(self, monkeypatch):
        # Zeros at the first, interior and last grid points, next to every
        # kind of neighbour: +/0, -/0, 0/0, 0/+ and 0/-.
        n, lo, hi = 12, 0.0, 1.0
        eps = (hi - lo) * 1e-12
        ts = np.concatenate(([lo + eps], np.linspace(lo, hi, n + 2)[1:-1], [hi - eps]))
        vals = np.array([0.0, 1.0, 0.0, -2.0, 0.0, 0.0, 3.0, -1.0, -3.0, 2.0,
                         -1.0, 0.0, -4.0, 0.0])
        monkeypatch.setattr(symmap, "_t_star_residual_vec",
                            lambda T, nu, r: np.interp(T, ts, vals))
        monkeypatch.setattr(symmap, "_t_star_residual",
                            lambda T, nu, r: float(np.interp(T, ts, vals)))
        calls = []
        monkeypatch.setattr(symmap, "brentq", lambda *a, **k: calls.append(a) or brentq(*a, **k))
        got = symmap._scan_roots(0, None, lo, hi, n)
        assert got == reference_scan_roots(0, None, lo, hi, n)
        assert {ts[0], ts[2], ts[4], ts[5], ts[11], ts[-1]} <= set(got)
        # Brent runs only on sign changes whose left end is not a zero: 1/0,
        # 3/-1, -3/2 and 2/-1.  The last point is a root through its zero alone.
        assert [a[1] for a in calls] == [ts[1], ts[6], ts[8], ts[9]]

    @pytest.mark.parametrize("zero_at,change_at", [(40, 100), (100, 40)])
    def test_synthetic_slow_gap_returns_first_root(self, monkeypatch, zero_at, change_at):
        gap_max = 0.5
        gaps = np.geomspace(1e-15, gap_max, 256)
        t_zero, t_change = 1.0 + gaps[zero_at], 1.0 + 0.5 * (gaps[change_at] + gaps[change_at + 1])

        def residual(T, nu, r):
            if T == t_zero:
                return 0.0
            return -1.0 if T < t_change else 1.0  # no sign change into the zero

        monkeypatch.setattr(symmap, "_t_star_residual", residual)
        got = symmap._scan_slow_gap(None, gap_max)
        assert got == reference_slow_gap(None, gap_max)
        assert got == (t_zero if zero_at < change_at else pytest.approx(t_change))


def _has_root(nu, om):
    try:
        fixed_point(nu, Parameters(Q=1.5, Omega=om, sigma=-1))
        return True
    except NoRoot:
        return False


class TestFixedPointValidity:
    def test_overdamped_parity_rule(self):
        fp = fixed_point(1, Parameters(Q=0.4, Omega=7.0, sigma=-1))
        assert not fp.valid.parity
        fp = fixed_point(1, Parameters(Q=0.4, Omega=7.0, sigma=1))
        assert fp.valid.parity

    def test_fast_mode_valid_and_reproduced(self):
        fp = fixed_point(3, P_FAST)
        assert fp.valid.all
        rec = simulate(state_from_fixed_point(fp), P_FAST, max_events=41)
        kinds = [e.kind.value for e in rec.events[:4]]
        assert set(kinds) == {"H", "Z", "Hbar", "Zbar"}

    def test_orbit_reflection_symmetry(self):
        fp = fixed_point(3, P_FAST)
        rec = simulate(state_from_fixed_point(fp), P_FAST, max_events=41)
        h_pts = rec.h_section(_kind("H"))
        hbar_pts = rec.h_section(_kind("Hbar"))
        for a, b in zip(h_pts, hbar_pts):
            assert a[0] == pytest.approx(-b[0], abs=1e-9)
            assert a[1] == pytest.approx(-b[1], abs=1e-9)

    def test_seeded_sign_is_crossing_direction(self):
        # The simulator derives the sign of x from hist_sign and the number
        # of stored crossings.  On a parity-valid fixed point that must be
        # the direction of the crossing after the switch, -sign(y* + 1).
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(300):
            p = Parameters(Q=float(rng.uniform(0.15, 2.8)), Omega=float(rng.uniform(1.0, 30.0)),
                           sigma=int(rng.choice([-1, 1])))
            for fp in fixed_point_candidates(int(rng.integers(0, 9)), p):
                if fp.valid.parity:
                    want = -1 if fp.yZstar + 1.0 > 0.0 else 1
                    assert state_from_fixed_point(fp).cur_sign == want
                    checked += 1
        assert checked >= 400

    def test_sigma_selection_distinguishes_roots(self):
        # Two window-valid roots coexist here; the parity flag picks the one
        # whose crossing directions realize the requested feedback sign.
        p_minus = Parameters(Q=1.5, Omega=3.4, sigma=-1)
        p_plus = Parameters(Q=1.5, Omega=3.4, sigma=1)
        fp_m = fixed_point(1, p_minus)
        fp_p = fixed_point(1, p_plus)
        assert fp_m.valid.all and fp_p.valid.all
        assert fp_m.Tstar != pytest.approx(fp_p.Tstar, abs=1e-3)
        assert fp_m.yZstar < -1.0 < fp_p.yZstar


def _kind(name):
    from relaydde.events import EventKind
    return EventKind(name)


def identity_residuals(fp, jc):
    """Residuals of (a-1)d - bc = 1 + 2 e^{-mu T} gcos(T) + e^{-2 mu T} and a(d+1) - bc = e^{-2 mu T}."""
    egc, _ = decayed_gcos_gsinc(fp.Tstar, derive_rates(fp.params))
    e2 = jc.exp_2muT
    return ((jc.a - 1.0) * jc.d - jc.b * jc.c - (1.0 + 2.0 * egc + e2),
            jc.a * (jc.d + 1.0) - jc.b * jc.c - e2)


class TestJacobian:
    def test_identities(self):
        for fp in sample_valid_fixed_points(40, seed=77):
            id1, id2 = identity_residuals(fp, jacobian_coeffs(fp))
            assert abs(id1) <= 1e-10
            assert abs(id2) <= 1e-10

    def test_a_bound(self):
        for fp in sample_valid_fixed_points(40, seed=78):
            assert abs(jacobian_coeffs(fp).a) < 1.0

    def test_bc_product_has_no_y_dependence(self):
        fp = fixed_point(3, P_FAST)
        jc = jacobian_coeffs(fp)
        r = derive_rates(P_FAST)
        _, egs = decayed_gcos_gsinc(fp.Tstar, r)
        expected = -(P_FAST.Omega ** 2) * egs * egs
        assert jc.b * jc.c == pytest.approx(expected, rel=1e-12)

    def test_degenerate_raises(self):
        fp = fixed_point(3, P_FAST)
        broken = FixedPoint(nu=3, Tstar=fp.Tstar, yZstar=-1.0, zstar=fp.zstar,
                            deltastar=fp.deltastar, valid=fp.valid, params=fp.params)
        with pytest.raises(Degenerate):
            jacobian_coeffs(broken)

    def test_matrix_structure(self):
        fp = fixed_point(1, Parameters(Q=1.5, Omega=3.4, sigma=-1))
        jc = jacobian_coeffs(fp)
        m = jacobian_matrix(jc, 1)
        np.testing.assert_allclose(m, [[jc.a, jc.b], [jc.c, jc.d]])
        m5 = jacobian_matrix(jc, 5)
        # shift block rows each sum to one
        assert np.all(m5[2:, :].sum(axis=1) == 1.0)

    def test_d_bound(self):
        for fp in sample_valid_fixed_points(60, seed=79):
            r = derive_rates(fp.params)
            jc = jacobian_coeffs(fp)
            if r.regime is Regime.OVERDAMPED or (
                r.regime is Regime.UNDERDAMPED and r.omega_abs * fp.Tstar < math.pi
            ):
                assert jc.d + 1.0 > -jc.exp_2muT


class TestSpectrum:
    def test_slow_mode_scalar_root(self):
        fp = fixed_point(0, Parameters(Q=0.45, Omega=12.0, sigma=-1))
        jc = jacobian_coeffs(fp)
        sp = char_roots(jc, 0)
        assert len(sp.roots) == 1
        assert sp.roots[0] == pytest.approx(jc.a)
        assert sp.unstable_count == 0

    def test_roots_satisfy_polynomial(self):
        for fp in sample_valid_fixed_points(30, seed=80):
            jc = jacobian_coeffs(fp)
            poly = char_polynomial(jc, fp.nu)
            sp = char_roots(jc, fp.nu)
            for z in sp.roots:
                assert abs(np.polyval(poly, z)) <= 1e-9 * max(1.0, abs(z) ** fp.nu)

    def test_roots_match_eigenvalues(self):
        for fp in sample_valid_fixed_points(20, seed=81):
            jc = jacobian_coeffs(fp)
            roots = list(char_roots(jc, fp.nu).roots)
            eig = list(np.linalg.eigvals(jacobian_matrix(jc, fp.nu)))
            for z in roots:
                j = min(range(len(eig)), key=lambda i: abs(eig[i] - z))
                assert abs(eig[j] - z) <= 1e-8
                eig.pop(j)

    def test_no_root_at_plus_one(self):
        for fp in sample_valid_fixed_points(40, seed=82):
            sp = spectrum_of(fp)
            assert min(abs(z - 1.0) for z in sp.roots) > 1e-7

    def test_fast_mode_stable_inside_window(self):
        fp = fixed_point(3, Parameters(Q=1.5, Omega=10.0, sigma=-1))
        assert spectrum_of(fp).unstable_count == 0


class TestXH:
    def test_sign_flip_across_relabeling(self):
        fp_low = fixed_point(2, Parameters(Q=1.5, Omega=9.0, sigma=-1))
        fp_high = fixed_point(3, Parameters(Q=1.5, Omega=11.0, sigma=-1))
        assert x_H(fp_low) < 0.0
        assert x_H(fp_high) > 0.0

    def test_matches_simulated_headpoint(self):
        for p, nu in [(Parameters(Q=1.5, Omega=9.0, sigma=-1), 2),
                      (Parameters(Q=1.5, Omega=11.0, sigma=-1), 3)]:
            fp = fixed_point(nu, p)
            rec = simulate(state_from_fixed_point(fp), p, max_events=8)
            first_h = next(e.v for e in rec.events if e.kind.is_history)
            assert abs(abs(first_h.x) - abs(x_H(fp))) <= 1e-9

    def test_delay_extension_of_t_star(self):
        for fp in sample_valid_fixed_points(20, seed=83):
            for n in (1, 2):
                scale = 1.0 + 2.0 * n * fp.Tstar
                p2 = Parameters(Q=fp.params.Q, Omega=fp.params.Omega * scale,
                                sigma=fp.params.sigma)
                r2 = derive_rates(p2)
                T2 = fp.Tstar / scale
                nu2 = fp.nu + 2 * n
                z2 = (nu2 + 1) * T2 - 1.0
                d2 = 1.0 - nu2 * T2
                res = math.exp(r2.mu * T2) * gsinc(z2, r2) - gsinc(d2, r2)
                assert abs(res) <= 1e-9 * max(1.0, math.exp(r2.mu * T2))
