"""Torus orbits shared between tests.

The simulator is deterministic, so two tests that run the same orbit from the
same seed with the same budget get the same floats.  The helpers here run
each such orbit once per test session and hand every caller the same result.
"""

import functools

from relaydde.errors import RelayDDEError
from relaydde.events import simulate
from relaydde.params import Parameters
from relaydde import torus
from relaydde.torus import COEXISTENCE_PATH, follow_path, rebase_state

# Arguments are a frozen SystemState and Parameters plus two numbers, so
# they hash; callers must not mutate the returned section list.
run_section = functools.lru_cache(maxsize=None)(torus.run_section)


@functools.lru_cache(maxsize=None)
def coexistence_state():
    """The state at the end of ``COEXISTENCE_PATH``, as the torus tests follow it."""
    return follow_path(COEXISTENCE_PATH, start_events=50000, step_events=12000)


def continue_path(st, waypoints):
    """``follow_path``'s warm chain (sigma -1, 12000 events a step) from ``st``.

    Continuing the cached state through the rest of a path gives the same
    final state as following the whole path from its seed.  Returns None
    when ``st`` is None or a simulation raises, as ``follow_path`` does.
    """
    if st is None:
        return None
    for Q, om in waypoints:
        try:
            rec = simulate(st, Parameters(Q=Q, Omega=om, sigma=-1), max_events=12000)
        except RelayDDEError:
            return None
        st = rebase_state(rec.final_state)
    return st
