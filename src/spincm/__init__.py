"""Spin Calogero-Moser (Gibbons-Hermsen) hierarchy and the pole dynamics of
rational solutions of the matrix KP hierarchy, verified as numerical residuals."""

from .config import Config
from .errors import (
    CollidingPoles,
    ConfigError,
    ConstraintViolated,
    DegenerateDraw,
    DimensionMismatch,
    InsufficientSamples,
    IntegrationFailed,
    PoleHit,
    SpectralCollision,
    SpinCMError,
    StepLimitExceeded,
    ZeroScale,
)
from .flows import FlowSpec, Tangent, Trajectory, commutativity_check, check_lax, integrate, vector_field_gradient, vector_field_residue
from .kp import (
    BASample,
    TauParams,
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
from .lax import Gradient, LaxData, build_lax, contour_residue, grad_hamiltonian, hamiltonian, hamiltonians, poisson_bracket, resolvent_residue
from .phase import PhaseState, TimeVector, gauge_rescale, load_state, new_state, random_state
from .verify import CheckResult, VerificationReport, run_suite

__version__ = "0.1.0"
