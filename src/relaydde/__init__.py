"""Event-driven simulator and bifurcation toolkit for a delayed relay oscillator.

The model is a two-pole bandpass filter in a feedback loop with a delayed
sign nonlinearity, reduced to dimensionless parameters (Q, Omega, sigma).
Subpackages:

* ``params`` / ``flow``: closed-form constant-feedback flows.
* ``events``: exact event-to-event simulation and orbit classification.
* ``symmap``: finite-dimensional map for four-symbol symmetric solutions,
  fixed points, Jacobians, characteristic spectra.
* ``atlas``: Neimark-Sacker / pitchfork / corner-collision loci, region
  scans, period diagrams, mode traces.
* ``torus``: Poincare-section scans for quasiperiodic attractors.
* ``cli``: command-line interface emitting CSV / JSON-lines datasets.
"""

from .errors import (
    CornerCollision,
    Degenerate,
    InvalidState,
    LostBranch,
    NoConvergence,
    NoCrossing,
    NonoscillatoryEnd,
    NoRoot,
    RelayDDEError,
)
from .events import (
    Event,
    EventKind,
    OrbitClass,
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
from .flow import Headpoint, apply_flow, first_crossing, gcos, gsinc
from .params import Parameters, Rates, Regime, derive_rates
from .symmap import (
    FixedPoint,
    JacobianCoeffs,
    Spectrum,
    StateVector,
    char_roots,
    delta_of,
    fixed_point,
    fixed_point_candidates,
    jacobian_coeffs,
    jacobian_matrix,
    map_M,
    spectrum_of,
    state_from_fixed_point,
    t_star_candidates,
    x_H,
    z_of,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
