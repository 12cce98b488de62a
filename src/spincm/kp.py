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

from .errors import PoleHit, SpectralCollision
from .flows import FlowSpec, _field, _residue_rates, _trajectories, integrate_stack
from .lax import build_lax
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


def solve_c(state: PhaseState, z: complex, eps_coll=EPS_COLL):
    """Vectors c_i, c*_i from two solves with (zI - L):

    c_i = -sum_k (zI-L)^-1_ik b_k,   c*_i = sum_k (zI-L)^-1_ki a_k.

    c, c* do not depend on x: one call serves a scalar x or an array of x.
    Raises ValueError for a non-finite z, SpectralCollision when (zI - L)
    is worse conditioned than COND_LIMIT, CollidingPoles when two poles
    are within ``eps_coll``.
    """
    if not np.isfinite(z):
        raise ValueError(f"z = {z} is not finite")
    L = build_lax(state, eps_coll).L
    A = z * np.eye(state.n_particles, dtype=complex) - L
    if np.linalg.cond(A) > COND_LIMIT:
        raise SpectralCollision(f"z = {z} is numerically on the spectrum of L")
    c = -np.linalg.solve(A, state.b)
    # transposed (not conjugated) solve gives the row-resolvent contraction
    c_star = np.linalg.solve(A.T, state.a)
    return c, c_star


def _inverse_differences(state, x, eps_coll, power=1):
    """1/(x - x_i)^power, shape x.shape + (n,) for a scalar or an array x;
    PoleHit names the first point that is not finite or lies within
    ``eps_coll`` of a pole."""
    x = np.asarray(x, dtype=complex)
    d = x[..., None] - state.x
    ok = np.isfinite(x) & (np.abs(d) >= eps_coll).all(axis=-1)  # a NaN distance fails >=
    if not ok.all():
        x0 = x.ravel()[ok.ravel().argmin()]
        raise PoleHit(f"evaluation point x = {x0} "
                      + ("hits a pole" if np.isfinite(x0) else "is not finite"))
    return 1.0 / d**power


def _pole_sum(w, left, right):
    """sum_i w_i left_i right_i^T for weights w of shape (..., n), as (..., N, N),
    in one contraction; a grid point and a scalar x give the same bits."""
    return np.einsum("...i,ig,ih->...gh", w, left, right)


def _psi_matrices(state, c, c_star, x, eps_coll=EPS_COLL):
    """Stripped psi and psi+, (N, N) at a scalar x or (..., N, N) on an array."""
    inv = _inverse_differences(state, x, eps_coll)
    I = np.eye(state.spin_dim, dtype=complex)
    return I + _pole_sum(inv, state.a, c), I + _pole_sum(inv, c_star, state.b)


def _psi_x_derivatives(state, c, c_star, x, eps_coll=EPS_COLL):
    """Closed-form first and second x-derivatives of the pole ansatz."""
    w1_, w2_ = (_inverse_differences(state, x, eps_coll, k) for k in (2, 3))
    a, b = state.a, state.b
    return (-_pole_sum(w1_, a, c), 2 * _pole_sum(w2_, a, c),
            -_pole_sum(w1_, c_star, b), 2 * _pole_sum(w2_, c_star, b))


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
    _inverse_differences(state, x, eps_coll)
    c, c_star = solve_c(state, z, eps_coll)
    psi, psid = _psi_matrices(state, c, c_star, x, eps_coll)
    if gauge == "full":
        times = times if times is not None else TimeVector()
        phase = np.exp(x * z + times.xi(z))
        psi = phase * psi
        psid = psid / phase
    return BASample(z=z, x=x, c=c, c_star=c_star, psi_tilde=psi, psi_dagger_tilde=psid)


def w1(state: PhaseState, x, eps_coll=EPS_COLL):
    """w^(1)(x) = -sum_i a_i b_i^T / (x - x_i), at a scalar x (N, N) or at
    every point of an array x (..., N, N)."""
    return -_pole_sum(_inverse_differences(state, x, eps_coll), state.a, state.b)


def potential_v(state: PhaseState, x, eps_coll=EPS_COLL):
    """V(x) = -2 d/dx w^(1) = -2 sum_i a_i b_i^T / (x - x_i)^2, at a scalar
    x (N, N) or at every point of an array x (..., N, N)."""
    return -2 * _pole_sum(_inverse_differences(state, x, eps_coll, 2), state.a, state.b)


def tau(state: PhaseState, params: TauParams, x: complex) -> complex:
    """tau(x) = C e^{Ax} prod_i (x - x_i); entire, an empty product for
    zero particles is admitted."""
    return complex(params.C * np.exp(params.A * x) * np.prod(x - state.x))


def dlog_tau_dx(state: PhaseState, x: complex, params: TauParams = TauParams()) -> complex:
    """d/dx log tau = A + sum_i 1/(x - x_i)."""
    return complex(params.A + np.sum(1.0 / (x - state.x)))


def linear_problem_residual(state: PhaseState, z: complex, x_grid, dt2: float,
                            eps_coll=EPS_COLL) -> float:
    """Residual of the stripped-gauge t_2 linear problem and its adjoint.

    The state is evolved by +-dt2 along the t_2 flow in RK4 steps of
    dt2/4, as one 2-row stack; d/dt_2 of the wave matrices is taken by
    central differences and compared against

        d_t2 psi  = 2z d_x psi  + d_x^2 psi  + V psi,
        d_t2 psi+ = 2z d_x psi+ - d_x^2 psi+ - psi+ V,

    with all x-derivatives in closed form. Returns the max entrywise
    residual over the grid, both equations. Every collision and pole check
    uses ``eps_coll``.
    """
    rows = [(state, FlowSpec(m=2, t_final=t, dt=dt2 / 4)) for t in (dt2, -dt2)]
    plus, minus = (tr.state(-1) for tr in _trajectories(integrate_stack(rows, eps_coll)))
    c, c_star = solve_c(state, z, eps_coll)
    cp, csp = solve_c(plus, z, eps_coll)
    cm, csm = solve_c(minus, z, eps_coll)
    psi_p, psid_p = _psi_matrices(plus, cp, csp, x_grid, eps_coll)
    psi_m, psid_m = _psi_matrices(minus, cm, csm, x_grid, eps_coll)
    psi, psid = _psi_matrices(state, c, c_star, x_grid, eps_coll)
    dpsi, d2psi, dpsid, d2psid = _psi_x_derivatives(state, c, c_star, x_grid, eps_coll)
    V = potential_v(state, x_grid, eps_coll)
    lhs = (psi_p - psi_m) / (2 * dt2)
    rhs = 2 * z * dpsi + d2psi + V @ psi
    lhs_adj = (psid_p - psid_m) / (2 * dt2)
    rhs_adj = 2 * z * dpsid - d2psid - psid @ V
    return max(
        float(np.max(np.abs(lhs - rhs), initial=0.0)),
        float(np.max(np.abs(lhs_adj - rhs_adj), initial=0.0)),
    )


def _residue_identity_coefficients(state: PhaseState, m: int, eps_coll=EPS_COLL):
    """Per-pole Laurent coefficients of res_inf(z^m psi psi+) in x.

    Returns (first_order, second_order, lax): arrays of shape (n, N, N)
    with the coefficients of 1/(x - x_i) and 1/(x - x_i)^2, and the
    LaxData they come from. They are built exactly from the
    resolvent calculus (res z^m c = -L^m b, res z^m c* = (L^m)^T a and the
    double-resolvent convolution K = res z^m (zI-L)^-1 R (zI-L)^-1 for the
    gamma-contracted cross terms). In array form, with inv_ik = 1/(x_i - x_k)
    and inv_ii = 0,

        u = (L^m)^T a - (K^T o inv) a,    v = -L^m b - (K o inv) b,
        first_i = u_i b_i^T + a_i v_i^T,  second_i = -K_ii a_i b_i^T,

    where o is the entrywise product and (u, v) are the raw spin rates that
    ``flows._residue_rates`` reads off the same residue equations; no loop
    runs over the poles.
    """
    lax = build_lax(state, eps_coll)
    _, K, u, v = _residue_rates(state, lax, m)
    a, b = state.a, state.b
    first = u[:, :, None] * b[:, None, :] + a[:, :, None] * v[:, None, :]
    second = -np.diag(K)[:, None, None] * (a[:, :, None] * b[:, None, :])
    return first, second, lax


def residue_identity_residual(state: PhaseState, m: int, x_samples, eps_coll=EPS_COLL) -> float:
    """Entrywise residual of res_inf(z^m psi psi+) = -d_{t_m} w^(1).

    The left side comes from the resolvent calculus; the right side is
    assembled from the Hamiltonian-route tangent, taken from the same Lax
    assembly as the coefficients, as
    sum_i [d(a_i b_i^T)/(x - x_i) + a_i b_i^T dx_i/(x - x_i)^2]. The trace
    version against d_{t_m} d_x log tau = sum_i dx_i/(x - x_i)^2 is checked
    alongside. Returns the max residual over the sample points.
    """
    first, second, lax = _residue_identity_coefficients(state, m, eps_coll)
    a, b = state.a, state.b
    dx, _, da, db = _field(lax, a, b, m)
    n = state.n_particles
    inv1 = _inverse_differences(state, np.atleast_1d(x_samples), eps_coll)  # (points, n)
    inv2 = inv1**2
    first_rhs = da[:, :, None] * b[:, None, :] + a[:, :, None] * db[:, None, :]
    second_rhs = dx[:, None, None] * (a[:, :, None] * b[:, None, :])
    entry = inv1 @ (first - first_rhs).reshape(n, -1)
    entry += inv2 @ (second - second_rhs).reshape(n, -1)
    lhs_tr = inv1 @ np.einsum("igg->i", first) + inv2 @ np.einsum("igg->i", second)
    rhs_tr = inv2 @ dx
    return max(
        float(np.max(np.abs(entry), initial=0.0)),
        float(np.max(np.abs(lhs_tr - rhs_tr), initial=0.0)),
    )


def first_order_pole_cancellation(state: PhaseState, m: int, eps_coll=EPS_COLL) -> float:
    """max_i |trace of the first-order-pole coefficient|, which equals
    d_{t_m}(b_i^T a_i) and must vanish since the flows preserve the
    normalization."""
    first = _residue_identity_coefficients(state, m, eps_coll)[0]
    return float(np.max(np.abs(np.trace(first, axis1=1, axis2=2))))


def ba_eval(state: PhaseState, z: complex, grid, eps_coll=EPS_COLL):
    """Grid evaluation for export: psi pair, V and w^(1) at every point of
    the array ``grid``. The whole grid is pole-checked (PoleHit names the
    first offending x) before the one solve_c that all points share; an
    empty grid gives empty lists without a solve."""
    grid = np.atleast_1d(np.asarray(grid, dtype=complex))
    fields = ([], [], [], [])
    if grid.size:
        _inverse_differences(state, grid, eps_coll)
        c, c_star = solve_c(state, z, eps_coll)
        fields = (*_psi_matrices(state, c, c_star, grid, eps_coll),
                  potential_v(state, grid, eps_coll), w1(state, grid, eps_coll))
    out = {"z": [z.real, z.imag], "grid": complex_to_pairs(grid)}
    for key, f in zip(("psi_tilde", "psi_dagger_tilde", "V", "w1"), fields):
        out[key] = complex_to_pairs(f)
    return out
