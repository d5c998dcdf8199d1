"""Bifurcation loci, scans, period diagrams, mode tracing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaydde import atlas
from relaydde.atlas import (
    corner_omega,
    mode_base,
    mode_corners,
    mode_ns_points,
    mode_pf_points,
    mode_segments,
    mode_trace,
    ns_coeffs,
    ns_locus,
    passband,
    period_diagram,
    pitchfork_locus,
    region_scan,
)
from relaydde.errors import Degenerate, NoRoot
from relaydde.flow import decayed_gcos_gsinc
from relaydde.params import Parameters, derive_rates
from relaydde.symmap import Spectrum, fixed_point, jacobian_coeffs, spectrum_of


def _bisect_reference(g, lo, hi, tol=1e-14):
    """Tight root of g on [lo, hi] by plain bisection, independent of the locus code."""
    g_lo = g(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (g(mid) > 0.0) == (g_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _modulus_gap(nu, om):
    sp = spectrum_of(fixed_point(nu, Parameters(Q=1.5, Omega=om, sigma=-1)))
    return max(abs(z) for z in sp.roots if abs(z.imag) > 1e-9) - 1.0


def _pf_value(om):
    jc = jacobian_coeffs(fixed_point(3, Parameters(Q=1.5, Omega=om, sigma=-1)))
    return 1.0 + jc.d + jc.exp_2muT


class TestNSCoefficients:
    def test_sum_identity(self):
        fp = fixed_point(3, Parameters(Q=1.5, Omega=14.0, sigma=-1))
        r = derive_rates(fp.params)
        co = ns_coeffs(fp)
        assert co.f2 + co.f3 == pytest.approx(-2.0 * math.exp(-2 * r.mu * fp.Tstar), abs=1e-14)

    def test_difference_identity(self):
        fp = fixed_point(3, Parameters(Q=1.5, Omega=14.0, sigma=-1))
        r = derive_rates(fp.params)
        co = ns_coeffs(fp)
        egc, egs = decayed_gcos_gsinc(fp.Tstar, r)
        assert co.f3 - co.f2 == pytest.approx(2.0 * (egc - r.mu * egs), abs=1e-14)

    def test_f1_equals_first_identity_minus_one(self):
        fp = fixed_point(3, Parameters(Q=1.5, Omega=14.0, sigma=-1))
        jc = jacobian_coeffs(fp)
        co = ns_coeffs(fp)
        A = (jc.a - 1.0) * jc.d - jc.b * jc.c
        assert co.f1 == pytest.approx(A - 1.0, abs=1e-12)


class TestNSLocus:
    def test_mode_crossings_match_reported_values(self):
        pts = mode_ns_points(3, 1.5, (2.0, 20.0), sigma=-1)
        omegas = sorted(pt.Omega for pt in pts)
        assert len(omegas) == 2
        assert omegas[0] == pytest.approx(4.75, abs=0.01)
        assert omegas[1] == pytest.approx(14.78, abs=0.01)

    def test_points_are_verified_unit_circle_roots(self):
        for pt in mode_ns_points(3, 1.5, (2.0, 20.0), sigma=-1):
            assert 0.0 < pt.phi < math.pi
            assert max(abs(rv) for rv in pt.residuals) <= 1e-7
            fp = fixed_point(pt.nu, Parameters(Q=1.5, Omega=pt.Omega, sigma=-1))
            sp = spectrum_of(fp)
            pair = max((z for z in sp.roots if abs(z.imag) > 1e-9), key=abs)
            assert abs(abs(pair) - 1.0) <= 1e-9

    def test_paper_points_within_tolerance_of_tight_reference(self):
        pts = mode_ns_points(3, 1.5, (2.0, 20.0), sigma=-1)
        assert [pt.nu for pt in pts] == [2, 3]
        for pt in pts:
            ref = _bisect_reference(lambda om: _modulus_gap(pt.nu, om),
                                    pt.Omega - 1e-3, pt.Omega + 1e-3)
            assert abs(pt.Omega - ref) <= 1e-10

    @pytest.mark.parametrize("error", [NoRoot, Degenerate])
    def test_undefined_fixed_point_near_a_crossing_drops_it(self, error, monkeypatch):
        # Undefined within 1e-4 of the lower NS point, where the refinement
        # must evaluate, yet defined at every scan sample.
        low, high = (pt.Omega for pt in mode_ns_points(3, 1.5, (2.0, 20.0), sigma=-1))

        def patched(nu, p):
            if abs(p.Omega - low) < 1e-4:
                raise error("undefined here")
            return fixed_point(nu, p)

        monkeypatch.setattr(atlas, "fixed_point", patched)
        assert [pt.Omega for pt in mode_ns_points(3, 1.5, (2.0, 20.0), sigma=-1)] == [high]

    def test_crossing_without_complex_pair_is_dropped(self, monkeypatch):
        low, high = (pt.Omega for pt in mode_ns_points(3, 1.5, (2.0, 20.0), sigma=-1))

        def patched(fp):
            if abs(fp.params.Omega - high) < 1e-4:
                return Spectrum(roots=np.array([0.5 + 0.0j]), unstable_count=0)
            return spectrum_of(fp)

        monkeypatch.setattr(atlas, "spectrum_of", patched)
        assert [pt.Omega for pt in mode_ns_points(3, 1.5, (2.0, 20.0), sigma=-1)] == [low]

    def test_slow_mode_has_no_ns(self):
        assert ns_locus(0, 0.45, (1.0, 30.0), sigma=-1) == []

    def test_overdamped_stabilization_persists(self):
        Q = 0.45
        for nu in (2, 6):
            pts = ns_locus(nu, Q, (1.0, 40.0), sigma=-1, samples=220)
            last = max(pt.Omega for pt in pts)
            for om in np.linspace(last + 0.3, 40.0, 30):
                fp = fixed_point(nu, Parameters(Q=Q, Omega=float(om), sigma=-1))
                assert spectrum_of(fp).unstable_count == 0


class TestPitchfork:
    def test_even_nu_rejected(self):
        with pytest.raises(ValueError):
            pitchfork_locus(2, 1.5, (2.0, 20.0))

    def test_fast_branch_point_has_minus_one_root(self):
        pts = pitchfork_locus(3, 1.5, (10.0, 23.3))
        assert len(pts) == 1
        fp = fixed_point(3, Parameters(Q=1.5, Omega=pts[0].Omega, sigma=-1))
        sp = spectrum_of(fp)
        assert min(abs(z + 1.0) for z in sp.roots) <= 1e-7

    def test_paper_point_within_tolerance_of_tight_reference(self):
        (pt,) = pitchfork_locus(3, 1.5, (10.0, 23.3))
        ref = _bisect_reference(_pf_value, pt.Omega - 1e-3, pt.Omega + 1e-3)
        assert abs(pt.Omega - ref) <= 1e-10

    def test_undefined_fixed_point_near_the_crossing_drops_it(self, monkeypatch):
        (pt,) = pitchfork_locus(3, 1.5, (10.0, 23.3))

        def patched(nu, p):
            if abs(p.Omega - pt.Omega) < 1e-4:
                raise NoRoot("undefined here")
            return fixed_point(nu, p)

        monkeypatch.setattr(atlas, "fixed_point", patched)
        assert pitchfork_locus(3, 1.5, (10.0, 23.3)) == []

    def test_requires_omega_t_above_pi(self):
        pts = pitchfork_locus(3, 1.5, (10.0, 23.3))
        fp = fixed_point(3, Parameters(Q=1.5, Omega=pts[0].Omega, sigma=-1))
        r = derive_rates(fp.params)
        assert r.omega_abs * fp.Tstar > math.pi

    def test_mode_pf_empty_for_positive_feedback(self):
        assert mode_pf_points(3, 1.5, (2.0, 20.0), sigma=1) == []


class TestCornerLines:
    def test_type1_limits(self):
        # delta* -> 1/(nu+1) and z* -> 0 as the frequency-(nu) branch meets
        # its relabeling corner; quadratic extrapolation from 1e-3 offsets.
        Q, nu = 1.5, 2
        conv = 2 * Q / math.sqrt(4 * Q * Q - 1)
        wc = (nu + 1) * math.pi
        d, z = [], []
        for k in (1, 2, 3):
            fp = fixed_point(nu, Parameters(Q=Q, Omega=(wc - k * 1e-3) * conv, sigma=-1))
            d.append(fp.deltastar)
            z.append(fp.zstar)
        assert 3 * d[0] - 3 * d[1] + d[2] == pytest.approx(1.0 / (nu + 1), abs=1e-6)
        assert 3 * z[0] - 3 * z[1] + z[2] == pytest.approx(0.0, abs=1e-6)

    def test_type2_limits(self):
        Q, nu = 1.5, 3
        conv = 2 * Q / math.sqrt(4 * Q * Q - 1)
        wc = (2 * nu + 1) * math.pi
        d, z = [], []
        for k in (1, 2, 3):
            fp = fixed_point(nu, Parameters(Q=Q, Omega=(wc - k * 1e-3) * conv, sigma=-1))
            d.append(fp.deltastar)
            z.append(fp.zstar)
        assert 3 * d[0] - 3 * d[1] + d[2] == pytest.approx(1.0 / (2 * nu + 1), abs=1e-6)
        assert 3 * z[0] - 3 * z[1] + z[2] == pytest.approx(1.0 / (2 * nu + 1), abs=1e-6)

    def test_large_q_asymptote(self):
        assert corner_omega(1e9, 2 + 1) == pytest.approx(3 * math.pi, rel=1e-9)
        assert corner_omega(1e9, 2 * 2 + 1) == pytest.approx(5 * math.pi, rel=1e-9)
        # the (2,3) mode terminates on its relabeled branch's type-2 line
        assert mode_corners(2, 1e9) == pytest.approx((3 * math.pi, 7 * math.pi), rel=1e-9)

    def test_underdamped_only(self):
        for Q in (0.4, 0.5):
            with pytest.raises(ValueError):
                corner_omega(Q, 2 + 1)
            with pytest.raises(ValueError):
                mode_corners(2, Q)


class TestRegionScan:
    def test_fast_mode_cell(self):
        grid = region_scan([3], (1.4, 1.6), (9.5, 10.5), resolution=(3, 3), sigma=-1)
        iq = 1  # Q = 1.5 row
        jo = 1  # Omega = 10 column
        assert grid.exists[0, iq, jo]
        assert grid.stable[0, iq, jo]

    def test_empty_nu_list(self):
        grid = region_scan([], (1.0, 2.0), (5.0, 6.0), resolution=(2, 2))
        assert grid.exists.size == 0

    def test_thread_count_does_not_change_result(self):
        a = region_scan([2, 3], (1.2, 1.8), (4.0, 16.0), resolution=(4, 10), sigma=-1, threads=1)
        b = region_scan([2, 3], (1.2, 1.8), (4.0, 16.0), resolution=(4, 10), sigma=-1, threads=2)
        np.testing.assert_array_equal(a.exists, b.exists)
        np.testing.assert_array_equal(a.stable, b.stable)
        np.testing.assert_array_equal(a.unstable_count, b.unstable_count)

    def test_stability_flips_bracketed_by_loci(self):
        # Along a Q = 1.5 row, every stability flip of the frequency-2 family
        # must sit within one cell of a located NS/PF/corner point.
        Q = 1.5
        oms = np.linspace(3.0, 9.8, 35)
        cell = oms[1] - oms[0]
        grid = region_scan([2], (Q, Q + 1e-9), (3.0, 9.8), resolution=(2, 35), sigma=-1)
        stable_row = grid.stable[0, 0, :]
        loci = [pt.Omega for pt in ns_locus(2, Q, (3.0, 9.8), sigma=-1)]
        for j in range(len(oms) - 1):
            if grid.exists[0, 0, j] and grid.exists[0, 0, j + 1]:
                if stable_row[j] != stable_row[j + 1]:
                    assert any(oms[j] - cell <= om <= oms[j + 1] + cell for om in loci)


class TestPassband:
    def test_geometric_symmetry(self):
        for Q in (0.45, 1.5, 3.0):
            lo, hi = passband(Q)
            assert lo * hi == pytest.approx(1.0, abs=1e-14)

    def test_bandwidth(self):
        for Q in (0.45, 1.5, 3.0):
            lo, hi = passband(Q)
            assert hi - lo == pytest.approx(1.0 / Q, abs=1e-14)

    def test_half_power_at_edges(self):
        for Q in (0.45, 1.5):
            for w in passband(Q):
                h2 = 1.0 / (1.0 + Q * Q * (w - 1.0 / w) ** 2)
                assert h2 == pytest.approx(0.5, abs=1e-12)


class TestModeTrace:
    def test_relabeling_keeps_inverse_period_continuous(self):
        Q = 1.5
        branch = mode_trace(2, Q, (8.0, 12.0), sigma=-1, samples=200)
        nus = sorted({s.nu for s in branch.samples})
        assert nus == [2, 3]
        # inverse period is continuous through the corner
        at_corner = corner_omega(Q, 3)
        below = max((s for s in branch.samples if s.nu == 2), key=lambda s: s.Omega)
        above = min((s for s in branch.samples if s.nu == 3), key=lambda s: s.Omega)
        assert abs(below.invP - above.invP) < 0.01
        assert below.Omega <= at_corner <= above.Omega

    def test_terminates_at_type2_corner(self):
        Q = 1.5
        branch = mode_trace(2, Q, (8.0, 30.0), sigma=-1, samples=150)
        assert branch.terminated == "corner2"
        end = corner_omega(Q, 7)
        assert max(s.Omega for s in branch.samples) <= end + 1e-9
        assert any(m.marker == "corner2" for m in branch.markers)

    def test_backward_trace_matches_forward(self):
        Q = 1.5
        fwd = mode_trace(2, Q, (8.0, 12.0), sigma=-1, samples=60)
        bwd = mode_trace(2, Q, (12.0, 8.0), sigma=-1, samples=60)
        fwd_map = {round(s.Omega, 9): s.Tstar for s in fwd.samples}
        bwd_map = {round(s.Omega, 9): s.Tstar for s in bwd.samples}
        shared = set(fwd_map) & set(bwd_map)
        assert len(shared) >= 50
        for om in shared:
            assert fwd_map[om] == pytest.approx(bwd_map[om], rel=1e-10)

    def test_segments_overdamped_single(self):
        segs = mode_segments(2, 0.45, (1.0, 40.0))
        assert segs == [(2, (1.0, 40.0))]


_omega = st.floats(1e-3, 200.0)


@settings(max_examples=200, deadline=None)
@given(nu0=st.integers(0, 12), Q=st.floats(0.05, 5.0), a=_omega, b=_omega)
def test_mode_segments_are_ascending_pieces_of_the_range(nu0, Q, a, b):
    pieces = mode_segments(nu0, Q, (a, b))
    assert pieces == mode_segments(nu0, Q, (b, a))
    lo, hi = min(a, b), max(a, b)
    end = mode_corners(nu0, Q)[1] if Q > 0.5 else math.inf
    ends = [om for _, piece in pieces for om in piece]
    assert ends == sorted(ends)
    for nu, (p_lo, p_hi) in pieces:
        assert lo <= p_lo < p_hi <= min(hi, end)
    # The pieces tile the part of the range below the mode's end, relabeling once.
    assert [nu for nu, _ in pieces] in ([], [nu0], [nu0 + 1], [nu0, nu0 + 1])
    assert all(p[1][1] == q[1][0] for p, q in zip(pieces, pieces[1:]))
    if lo < min(hi, end):
        assert (ends[0], ends[-1]) == (lo, min(hi, end))
    else:
        assert pieces == []


class TestPeriodDiagram:
    def test_inverse_period_ranges_and_stacking(self):
        rows = period_diagram([0, 2, 4], 0.45, (20.0, 30.0), sigma=-1, samples=40)
        branch = [s for s in rows if s.kind == "branch"]
        for s in branch:
            assert s.nu / 2.0 < s.invP < (s.nu + 1) / 2.0
        # stacking: at a common Omega the inverse periods order by frequency
        by_om = {}
        for s in branch:
            by_om.setdefault(round(s.Omega, 6), {})[s.nu] = s.invP
        for om, d in by_om.items():
            if len(d) == 3:
                assert d[0] < d[2] < d[4]

    def test_markers_for_fast_q(self):
        rows = period_diagram([0, 2], 1.5, (2.0, 16.0), sigma=-1, samples=120)
        markers = [s for s in rows if s.kind == "marker"]
        # the lowest mode loses stability at a pitchfork, the next at NS
        assert any(m.marker == "PF" and m.nu == 1 for m in markers)
        assert any(m.marker == "NS" and m.nu in (2, 3) for m in markers)

    @pytest.mark.parametrize("samples", [40, 1000])
    def test_marker_scans_follow_samples(self, samples, monkeypatch):
        # Each mode segment's NS/PF scan gets its length share of samples,
        # at least 32 (Q = 1.5: nu = 2 below the corner near 10, nu = 3 above).
        seen = {"ns": [], "pf": []}
        monkeypatch.setattr(atlas, "ns_locus",
                            lambda nu, Q, rng, sigma=-1, samples=0: seen["ns"].append(samples) or [])
        monkeypatch.setattr(atlas, "pitchfork_locus",
                            lambda nu, Q, rng, samples=0: seen["pf"].append(samples) or [])
        period_diagram([2], 1.5, (4.0, 24.0), sigma=-1, samples=samples)
        segs = mode_segments(2, 1.5, (4.0, 24.0))
        shares = [max(32, int(samples * (hi - lo) / 20.0)) for _, (lo, hi) in segs]
        assert seen["ns"] == shares
        assert seen["pf"] == [n for (nu, _), n in zip(segs, shares) if nu % 2]

    def test_passband_rows_present(self):
        rows = period_diagram([2], 1.5, (5.0, 10.0), sigma=-1, samples=40)
        lo = [s for s in rows if s.kind == "passband_lo"]
        hi = [s for s in rows if s.kind == "passband_hi"]
        assert lo and hi
        w_lo, w_hi = passband(1.5)
        assert lo[0].invP == pytest.approx(w_lo * lo[0].Omega / (2 * math.pi))
        assert hi[0].invP == pytest.approx(w_hi * hi[0].Omega / (2 * math.pi))


class TestModeBase:
    def test_negative_feedback_pairs(self):
        assert mode_base(2, -1) == 2
        assert mode_base(3, -1) == 2
        assert mode_base(0, -1) == 0
        assert mode_base(1, -1) == 0

    def test_positive_feedback_pairs(self):
        assert mode_base(1, 1) == 1
        assert mode_base(2, 1) == 1
        assert mode_base(3, 1) == 3
