"""Matrix-KP side: Baker-Akhiezer functions, potential, tau-function.

All wave functions are handled in the stripped gauge (the scalar factor
e^{xz + xi(t,z)} removed), leaving rational N x N matrices with simple poles
at the particle positions and rank-1 residues. Residues at z = infinity are
evaluated exactly through the resolvent calculus of :mod:`spincm.lax`; no
contour appears in production paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import PoleHit, SpectralCollision
from .flows import FlowSpec, _residue_raw_ab, integrate, vector_field_gradient
from .lax import _assemble, build_lax, resolvent_residue
from .phase import EPS_COLL, PhaseState, TimeVector, complex_to_pairs

#: condition-number ceiling for (zI - L) solves
COND_LIMIT = 1e12


@dataclass(frozen=True)
class BASample:
    """Baker-Akhiezer evaluation at one (x, z) point.

    ``psi_tilde`` is I + sum_i a_i c_i^T / (x - x_i), ``psi_dagger_tilde``
    is I + sum_i c*_i b_i^T / (x - x_i); in the full gauge both carry the
    factors e^{+-(xz + xi(t, z))}.
    """

    z: complex
    x: complex
    c: np.ndarray
    c_star: np.ndarray
    psi_tilde: np.ndarray
    psi_dagger_tilde: np.ndarray


@dataclass(frozen=True)
class TauParams:
    """Free constants of the rational tau-function C e^{Ax} prod (x - x_i)."""

    C: complex = 1.0
    A: complex = 0.0

    def __post_init__(self):
        if self.C == 0:
            raise ValueError("tau prefactor C must be nonzero")


def solve_c(state: PhaseState, z: complex):
    """Vectors c_i, c*_i from one LU factorization of (zI - L):

    c_i = -sum_k (zI-L)^-1_ik b_k,   c*_i = sum_k (zI-L)^-1_ki a_k.

    Raises SpectralCollision when the solve is singular or worse conditioned
    than COND_LIMIT (z too close to the spectrum of L).
    """
    L = build_lax(state).L
    A = z * np.eye(state.n_particles, dtype=complex) - L
    if np.linalg.cond(A) > COND_LIMIT:
        raise SpectralCollision(f"z = {z} is numerically on the spectrum of L")
    lu, piv = scipy.linalg.lu_factor(A)
    c = -scipy.linalg.lu_solve((lu, piv), state.b)
    # transposed (not conjugated) solve gives the row-resolvent contraction
    c_star = scipy.linalg.lu_solve((lu, piv), state.a, trans=1)
    return c, c_star


def _check_pole_distance(state, x, eps_coll):
    if np.min(np.abs(x - state.x)) < eps_coll:
        raise PoleHit(f"evaluation point x = {x} hits a pole")


def _psi_matrices(state, c, c_star, x):
    n_inv = 1.0 / (x - state.x)
    I = np.eye(state.spin_dim, dtype=complex)
    psi = I + np.einsum("i,ig,ih->gh", n_inv, state.a, c)
    psid = I + np.einsum("i,ig,ih->gh", n_inv, c_star, state.b)
    return psi, psid


def _psi_x_derivatives(state, c, c_star, x):
    """Closed-form first and second x-derivatives of the pole ansatz."""
    w1_ = 1.0 / (x - state.x) ** 2
    w2_ = 1.0 / (x - state.x) ** 3
    dpsi = -np.einsum("i,ig,ih->gh", w1_, state.a, c)
    d2psi = 2 * np.einsum("i,ig,ih->gh", w2_, state.a, c)
    dpsid = -np.einsum("i,ig,ih->gh", w1_, c_star, state.b)
    d2psid = 2 * np.einsum("i,ig,ih->gh", w2_, c_star, state.b)
    return dpsi, d2psi, dpsid, d2psid


def psi_pair(
    state: PhaseState,
    times: TimeVector | None,
    z: complex,
    x: complex,
    gauge: str = "stripped",
    eps_coll=EPS_COLL,
) -> BASample:
    """Baker-Akhiezer pair at (x, z), stripped or full gauge."""
    if gauge not in ("stripped", "full"):
        raise ValueError("gauge must be 'stripped' or 'full'")
    _check_pole_distance(state, x, eps_coll)
    c, c_star = solve_c(state, z)
    psi, psid = _psi_matrices(state, c, c_star, x)
    if gauge == "full":
        times = times if times is not None else TimeVector()
        phase = np.exp(x * z + times.xi(z))
        psi = phase * psi
        psid = psid / phase
    return BASample(z=z, x=x, c=c, c_star=c_star, psi_tilde=psi, psi_dagger_tilde=psid)


def w1(state: PhaseState, x: complex, eps_coll=EPS_COLL):
    """w^(1)(x) = -sum_i a_i b_i^T / (x - x_i)."""
    _check_pole_distance(state, x, eps_coll)
    return -np.einsum("i,ig,ih->gh", 1.0 / (x - state.x), state.a, state.b)


def potential_v(state: PhaseState, x: complex, eps_coll=EPS_COLL):
    """V(x) = -2 d/dx w^(1) = -2 sum_i a_i b_i^T / (x - x_i)^2."""
    _check_pole_distance(state, x, eps_coll)
    return -2 * np.einsum("i,ig,ih->gh", 1.0 / (x - state.x) ** 2, state.a, state.b)


def tau(state: PhaseState, params: TauParams, x: complex) -> complex:
    """tau(x) = C e^{Ax} prod_i (x - x_i); entire, an empty product for
    zero particles is admitted."""
    return complex(params.C * np.exp(params.A * x) * np.prod(x - state.x))


def dlog_tau_dx(state: PhaseState, x: complex, params: TauParams = TauParams()) -> complex:
    """d/dx log tau = A + sum_i 1/(x - x_i)."""
    return complex(params.A + np.sum(1.0 / (x - state.x)))


def linear_problem_residual(
    state: PhaseState,
    times: TimeVector | None,
    z: complex,
    x_grid,
    dt2: float,
    flow_dt: float | None = None,
) -> float:
    """Residual of the stripped-gauge t_2 linear problem and its adjoint.

    The state is evolved by +-dt2 along the t_2 flow; d/dt_2 of the wave
    matrices is taken by central differences and compared against

        d_t2 psi  = 2z d_x psi  + d_x^2 psi  + V psi,
        d_t2 psi+ = 2z d_x psi+ - d_x^2 psi+ - psi+ V,

    with all x-derivatives in closed form. Returns the max entrywise
    residual over the grid, both equations.
    """
    flow_dt = flow_dt if flow_dt is not None else dt2 / 4
    plus = integrate(state, FlowSpec(m=2, t_final=dt2, dt=flow_dt)).state(-1)
    minus = integrate(state, FlowSpec(m=2, t_final=-dt2, dt=flow_dt)).state(-1)
    c0, cs0 = solve_c(state, z)
    cp, csp = solve_c(plus, z)
    cm, csm = solve_c(minus, z)
    worst = 0.0
    for x in np.atleast_1d(x_grid):
        for st in (state, plus, minus):
            _check_pole_distance(st, x, EPS_COLL)
        psi_p, psid_p = _psi_matrices(plus, cp, csp, x)
        psi_m, psid_m = _psi_matrices(minus, cm, csm, x)
        psi, psid = _psi_matrices(state, c0, cs0, x)
        dpsi, d2psi, dpsid, d2psid = _psi_x_derivatives(state, c0, cs0, x)
        V = potential_v(state, x)
        lhs = (psi_p - psi_m) / (2 * dt2)
        rhs = 2 * z * dpsi + d2psi + V @ psi
        lhs_adj = (psid_p - psid_m) / (2 * dt2)
        rhs_adj = 2 * z * dpsid - d2psid - psid @ V
        worst = max(
            worst,
            float(np.max(np.abs(lhs - rhs))),
            float(np.max(np.abs(lhs_adj - rhs_adj))),
        )
    return worst


def _residue_identity_coefficients(state: PhaseState, m: int):
    """Per-pole Laurent coefficients of res_inf(z^m psi psi+) in x.

    Returns (first_order, second_order): arrays of shape (n, N, N) with the
    coefficients of 1/(x - x_i) and 1/(x - x_i)^2, built exactly from the
    resolvent calculus (res z^m c = -L^m b, res z^m c* = (L^m)^T a and the
    double-resolvent convolution K = res z^m (zI-L)^-1 R (zI-L)^-1 for the
    gamma-contracted cross terms). In array form, with inv_ik = 1/(x_i - x_k)
    and inv_ii = 0,

        u = (L^m)^T a - (K^T o inv) a,    v = -L^m b - (K o inv) b,
        first_i = u_i b_i^T + a_i v_i^T,  second_i = -K_ii a_i b_i^T,

    where o is the entrywise product and (u, v) are the raw spin rates that
    ``flows._residue_raw_ab`` reads off the same residue equations; no loop
    runs over the poles.
    """
    inv, R, L, _ = _assemble(state.x, state.p, state.a, state.b, EPS_COLL)
    Lm = resolvent_residue(L, m)
    K = resolvent_residue(L, m, R)
    u, v = _residue_raw_ab(state, inv, K, Lm)
    a, b = state.a, state.b
    first = u[:, :, None] * b[:, None, :] + a[:, :, None] * v[:, None, :]
    second = -np.diag(K)[:, None, None] * (a[:, :, None] * b[:, None, :])
    return first, second


def residue_identity_residual(state: PhaseState, m: int, x_samples) -> float:
    """Entrywise residual of res_inf(z^m psi psi+) = -d_{t_m} w^(1).

    The left side comes from the resolvent calculus; the right side is
    assembled from the Hamiltonian-route tangent as
    sum_i [d(a_i b_i^T)/(x - x_i) + a_i b_i^T dx_i/(x - x_i)^2]. The trace
    version against d_{t_m} d_x log tau = sum_i dx_i/(x - x_i)^2 is checked
    alongside. Returns the max residual over the sample points.
    """
    first, second = _residue_identity_coefficients(state, m)
    f = vector_field_gradient(state, m)
    a, b = state.a, state.b
    n = state.n_particles
    xs = np.atleast_1d(x_samples)
    for x in xs:
        _check_pole_distance(state, x, EPS_COLL)
    inv1 = 1.0 / (xs[:, None] - state.x)  # (points, n)
    inv2 = inv1**2
    first_rhs = f.da[:, :, None] * b[:, None, :] + a[:, :, None] * f.db[:, None, :]
    second_rhs = f.dx[:, None, None] * (a[:, :, None] * b[:, None, :])
    entry = inv1 @ (first - first_rhs).reshape(n, -1)
    entry += inv2 @ (second - second_rhs).reshape(n, -1)
    lhs_tr = inv1 @ np.einsum("igg->i", first) + inv2 @ np.einsum("igg->i", second)
    rhs_tr = inv2 @ f.dx
    return max(
        float(np.max(np.abs(entry), initial=0.0)),
        float(np.max(np.abs(lhs_tr - rhs_tr), initial=0.0)),
    )


def first_order_pole_cancellation(state: PhaseState, m: int) -> float:
    """max_i |trace of the first-order-pole coefficient|, which equals
    d_{t_m}(b_i^T a_i) and must vanish since the flows preserve the
    normalization."""
    first, _ = _residue_identity_coefficients(state, m)
    return float(np.max(np.abs(np.trace(first, axis1=1, axis2=2))))


def ba_eval(state: PhaseState, z: complex, grid, times: TimeVector | None = None):
    """Grid evaluation for export: psi pair, V and w^(1) at every grid point."""
    grid = np.atleast_1d(np.asarray(grid, dtype=complex))
    out = {
        "z": [z.real, z.imag],
        "grid": complex_to_pairs(grid),
        "psi_tilde": [],
        "psi_dagger_tilde": [],
        "V": [],
        "w1": [],
    }
    for x in grid:
        s = psi_pair(state, times, z, x, gauge="stripped")
        out["psi_tilde"].append(complex_to_pairs(s.psi_tilde))
        out["psi_dagger_tilde"].append(complex_to_pairs(s.psi_dagger_tilde))
        out["V"].append(complex_to_pairs(potential_v(state, x)))
        out["w1"].append(complex_to_pairs(w1(state, x)))
    return out
