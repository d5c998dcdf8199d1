"""Brent's method (Brent 1973, ch. 4) as a step-for-step port of the C routine
behind ``scipy.optimize.brentq``: same steps, same arithmetic order, so every
root is bit-identical to scipy's."""

import math
import sys

from .errors import NoConvergence


def brentq(f, a, b, args=(), xtol=2e-12, rtol=4 * sys.float_info.epsilon, maxiter=100):
    """Root of f(x, *args) in [a, b], converged once the bracket half-width is
    below (xtol + rtol |x|) / 2.  ValueError if f(a), f(b) share a sign or f
    returns NaN; NoConvergence after maxiter iterations."""
    # Python floats: numpy scalar endpoints would make every step numpy arithmetic.
    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre, *args), f(xcur, *args)
    if fpre != fpre or fcur != fcur:
        raise ValueError("The function value is NaN; solver cannot continue.")
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # fails the short-step test: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # C gets an inf or nan step here, which bisects too
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur, *args)
        if fcur != fcur:
            raise ValueError(f"The function value at x={xcur} is NaN; solver cannot continue.")
    raise NoConvergence(f"Failed to converge after {maxiter} iterations, value is {xcur}")
