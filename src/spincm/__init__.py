"""Spin Calogero-Moser (Gibbons-Hermsen) hierarchy and the pole dynamics of
rational solutions of the matrix KP hierarchy, verified as numerical residuals."""

from .config import Config
from .errors import (
    CollidingPoles,
    ConfigError,
    ConstraintViolated,
    DegenerateDraw,
    DimensionMismatch,
    IntegrationFailed,
    PoleHit,
    SpectralCollision,
    SpinCMError,
    StateFileError,
    StepLimitExceeded,
    ZeroScale,
)
from .flows import FlowSpec, Trajectory, commutativity_check, check_lax, integrate, integrate_stack, vector_field_gradient, vector_field_residue
from .kp import (
    ba_eval,
    dlog_tau_dx,
    first_order_pole_cancellation,
    linear_problem_residual,
    potential_v,
    psi_pair,
    residue_identity_residual,
    solve_c,
    tau,
    w1,
)
from .lax import LaxData, Tangent, build_lax, contour_residue, grad_hamiltonian, hamiltonian, hamiltonians, poisson_bracket, resolvent_residue
from .phase import PhaseState, TimeVector, gauge_rescale, load_state, new_state, random_state
from .verify import CheckResult, VerificationReport, run_suite

__version__ = "0.1.0"
