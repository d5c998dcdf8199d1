"""In-package Brent against scipy.optimize.brentq as the oracle, bit for bit.

Every comparison replays one bracket through both solvers and asserts the
same root (``==``, a Python float) and the same sequence of evaluation
points, so the port takes scipy's steps and not merely a nearby root.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from relaydde import events, symmap
from relaydde.errors import NoConvergence, RelayDDEError
from relaydde.events import initial_state, simulate
from relaydde.params import Parameters, derive_rates
from relaydde.rootfind import brentq
from relaydde.symmap import T_STAR_XTOL, t_star_bracket


def _tap(f, log):
    def g(x, *args):
        log.append(x)
        return f(x, *args)
    return g


def assert_same_as_scipy(f, a, b, **kw):
    mine, theirs = [], []
    got = brentq(_tap(f, mine), a, b, **kw)
    want = scipy_brentq(_tap(f, theirs), a, b, **kw)
    assert type(got) is float
    assert got == want
    assert mine == theirs
    return got


def _recorded_calls(monkeypatch, module, run):
    """Every (f, a, b, kwargs) that run() passes to module.brentq."""
    calls = []

    def record(f, a, b, **kw):
        calls.append((f, a, b, kw))
        return brentq(f, a, b, **kw)

    monkeypatch.setattr(module, "brentq", record)
    run()
    monkeypatch.undo()
    return calls


def t_star_brackets(nu, r, n=symmap.T_STAR_GRID):
    """Sign-change brackets of the T* residual, np.float64 ends as the scan makes them."""
    lo, hi = t_star_bracket(nu, r)
    eps = (hi - lo) * 1e-12
    ts = np.concatenate(([lo + eps], np.linspace(lo, hi, n + 2)[1:-1], [hi - eps]))
    _, change = symmap._sign_changes(symmap._t_star_residual_vec(ts, nu, r))
    return [(ts[i], ts[i + 1]) for i in np.flatnonzero(change)]


class TestOracle:
    def test_t_star_brackets_random_points(self):
        rng = np.random.default_rng(20261018)
        points = [(0.5, 14.0, 0), (0.5, 14.0, 3), (0.5, 3.0, 0)]
        points += [(float(rng.uniform(0.15, 0.5)), float(rng.uniform(1.0, 60.0)),
                    int(rng.integers(0, 9))) for _ in range(40)]     # overdamped
        points += [(float(rng.uniform(0.5, 3.0)), float(rng.uniform(1.0, 60.0)),
                    int(rng.integers(0, 9))) for _ in range(80)]     # underdamped
        points += [(float(rng.uniform(0.15, 3.0)), float(rng.uniform(1.0, 60.0)), 0)
                   for _ in range(40)]
        total = 0
        for Q, Omega, nu in points:
            r = derive_rates(Parameters(Q=Q, Omega=Omega))
            for a, b in t_star_brackets(nu, r):
                assert isinstance(a, np.float64)
                assert_same_as_scipy(symmap._t_star_residual, a, b, args=(nu, r),
                                     xtol=T_STAR_XTOL, maxiter=200)
                total += 1
        assert total > 300

    @pytest.mark.parametrize("Q,Omega", [(1.5, 14.8), (3.0, 20.0)])
    def test_event_crossing_brackets(self, monkeypatch, Q, Omega):
        p = Parameters(Q=Q, Omega=Omega)
        calls = _recorded_calls(
            monkeypatch, events, lambda: simulate(initial_state(0.3), p, max_events=600))
        assert len(calls) > 200
        for f, a, b, kw in calls:
            assert f is events.flow_x and a == 0.0
            assert_same_as_scipy(f, a, b, **kw)

    @pytest.mark.parametrize("Q,Omega", [(0.4, 50.0), (0.35, 60.0)])
    def test_slow_gap_call(self, monkeypatch, Q, Omega):
        p = Parameters(Q=Q, Omega=Omega)
        calls = _recorded_calls(monkeypatch, symmap, lambda: symmap.t_star_candidates(0, p))
        assert len(calls) == 1
        f, a, b, kw = calls[0]
        assert (kw["xtol"], kw["rtol"]) == (1e-18, 1e-15)
        assert_same_as_scipy(f, a, b, **kw)

    def test_smooth_functions_and_defaults(self):
        assert_same_as_scipy(math.cos, 0.0, 3.0)
        assert_same_as_scipy(lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0)
        assert_same_as_scipy(lambda x: math.tanh(40.0 * (x - 0.3)), -1.0, 1.0, rtol=1e-10)

    @pytest.mark.parametrize("log_xtol", [(-15.0, -12.0), (-4.0, 0.0)])
    def test_random_cubics(self, log_xtol):
        # Coarse tolerances make delta comparable to the steps, which
        # exercises every delta test of the step logic.
        rng = np.random.default_rng(7)
        tried = 0
        for _ in range(2000):
            c0, c1, c2, c3 = rng.normal(size=4).tolist()
            a, b = sorted(rng.uniform(-3.0, 3.0, size=2).tolist())
            xtol = 10.0 ** rng.uniform(*log_xtol)
            f = lambda x: ((c0 * x + c1) * x + c2) * x + c3
            if (f(a) < 0.0) != (f(b) < 0.0):
                assert_same_as_scipy(f, a, b, xtol=xtol)
                tried += 1
        assert tried > 500

    def test_plateaus_and_steps(self):
        # Flat stretches make the extrapolation divide by zero, which in C
        # leaves an inf or nan step and so a bisection.
        assert_same_as_scipy(lambda x: math.exp(x) - 1e-300, -800.0, 1.0, xtol=5e-324)
        assert_same_as_scipy(lambda x: -1.0 if x < 0.3 else 2.0, 0.0, 1.0)
        assert_same_as_scipy(lambda x: max(-1.0, min(1.0, 50.0 * (x - 0.7))), 0.0, 1.0)

    def test_exact_zero_endpoints(self):
        f = lambda x: x - 1.0
        for a, b in [(1.0, 2.0), (0.0, 1.0), (np.float64(1.0), 3.0)]:
            assert assert_same_as_scipy(f, a, b) == 1.0

    def test_float64_endpoints(self):
        root = assert_same_as_scipy(lambda x: x * x - 2.0, np.float64(0.0), np.float64(2.0))
        assert abs(root - math.sqrt(2.0)) < 1e-11


class TestErrors:
    @pytest.mark.parametrize("solver", [brentq, scipy_brentq])
    def test_sign_error(self, solver):
        with pytest.raises(ValueError, match="different signs"):
            solver(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("solver", [brentq, scipy_brentq])
    @pytest.mark.parametrize("bad", [0.0, 1.0, 0.5])
    def test_nan_residual(self, solver, bad):
        f = lambda x: math.nan if x == bad else x - 0.5
        with pytest.raises(ValueError, match="NaN"):
            solver(f, 0.0, 1.0)

    def test_maxiter_exhausted(self):
        with pytest.raises(NoConvergence, match="after 1 iterations"):
            brentq(math.cos, 0.0, 3.0, maxiter=1)
        with pytest.raises(RuntimeError):
            scipy_brentq(math.cos, 0.0, 3.0, maxiter=1)

    def test_no_convergence_is_a_package_error(self):
        assert issubclass(NoConvergence, RelayDDEError)
