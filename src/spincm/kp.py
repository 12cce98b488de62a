"""Matrix-KP side: Baker-Akhiezer functions, potential, tau-function.

All wave functions are handled in the stripped gauge (the scalar factor
e^{xz + xi(t,z)} removed), leaving rational N x N matrices with simple poles
at the particle positions and rank-1 residues. Their t_2 derivative is
exact, along the H_2 vector field of the poles: no flow is integrated here.
Residues at z = infinity are evaluated exactly: the residue identities read
the residue data (K, u, v) of :func:`spincm.lax._residue_rates`, the kernel
of the residue-route vector field too; no contour appears in production paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoleHit, SpectralCollision
from .lax import _check_m, _derived, _lax_derivative, build_lax
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


def _differences(state, x, eps_coll):
    """x - x_i, shape x.shape + (n,) for a scalar or an array x, formed and
    checked once per grid: the private helpers below take it and form
    1/(x - x_i)^k as 1.0 / d**k. PoleHit names the first point that is not
    finite or lies within ``eps_coll`` of a pole."""
    x = np.asarray(x, dtype=complex)
    d = x[..., None] - state.x
    ok = np.isfinite(x) & (np.abs(d) >= eps_coll).all(axis=-1)  # a NaN distance fails >=
    if not ok.all():
        x0 = x.ravel()[ok.ravel().argmin()]
        raise PoleHit(f"evaluation point x = {x0} "
                      + ("hits a pole" if np.isfinite(x0) else "is not finite"))
    return d


def _pole_sum(w, left, right):
    """sum_i w_i left_i right_i^T for weights w of shape (..., n), as (..., N, N),
    in one contraction; a grid point and a scalar x give the same bits."""
    return np.einsum("...i,ig,ih->...gh", w, left, right)


def _psi_matrices(state, c, c_star, d):
    """Stripped psi and psi+, (N, N) at a scalar x or (..., N, N) on an
    array, from the differences d of :func:`_differences`."""
    inv = 1.0 / d
    I = np.eye(state.spin_dim, dtype=complex)
    return I + _pole_sum(inv, state.a, c), I + _pole_sum(inv, c_star, state.b)


def _psi_x_derivatives(state, c, c_star, d):
    """Closed-form first and second x-derivatives of the pole ansatz."""
    w1_, w2_ = 1.0 / d**2, 1.0 / d**3
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
    d = _differences(state, x, eps_coll)
    c, c_star = solve_c(state, z, eps_coll)
    psi, psid = _psi_matrices(state, c, c_star, d)
    if gauge == "full":
        times = times if times is not None else TimeVector()
        phase = np.exp(x * z + times.xi(z))
        psi = phase * psi
        psid = psid / phase
    return BASample(z=z, x=x, c=c, c_star=c_star, psi_tilde=psi, psi_dagger_tilde=psid)


def w1(state: PhaseState, x, eps_coll=EPS_COLL):
    """w^(1)(x) = -sum_i a_i b_i^T / (x - x_i), at a scalar x (N, N) or at
    every point of an array x (..., N, N)."""
    return _w1(state, _differences(state, x, eps_coll))


def _w1(state, d):
    return -_pole_sum(1.0 / d, state.a, state.b)


def potential_v(state: PhaseState, x, eps_coll=EPS_COLL):
    """V(x) = -2 d/dx w^(1) = -2 sum_i a_i b_i^T / (x - x_i)^2, at a scalar
    x (N, N) or at every point of an array x (..., N, N)."""
    return _potential_v(state, _differences(state, x, eps_coll))


def _potential_v(state, d):
    return -2 * _pole_sum(1.0 / d**2, state.a, state.b)


def tau(state: PhaseState, params: TauParams, x: complex) -> complex:
    """tau(x) = C e^{Ax} prod_i (x - x_i); entire, an empty product for
    zero particles is admitted."""
    return complex(params.C * np.exp(params.A * x) * np.prod(x - state.x))


def dlog_tau_dx(state: PhaseState, x: complex, params: TauParams = TauParams()) -> complex:
    """d/dx log tau = A + sum_i 1/(x - x_i)."""
    return complex(params.A + np.sum(1.0 / (x - state.x)))


def _psi_t2_derivatives(state, c, c_star, z, d, eps_coll=EPS_COLL):
    """Exact (d_t2 psi, d_t2 psi+), stripped, at a scalar x or an array x
    given by its differences d, with (c, c*) = :func:`solve_c` at z: see
    :func:`linear_problem_residual`."""
    a, b = state.a, state.b
    lax = build_lax(state, eps_coll)
    dx, dp, da, db = _derived("field", state, lax, 2)
    dL = _lax_derivative(lax, a, b, dx, dp, da, db)
    A = z * np.eye(state.n_particles, dtype=complex) - lax.L
    dc = np.linalg.solve(A, dL @ c - db)
    dc_star = np.linalg.solve(A.T, dL.T @ c_star + da)
    inv = 1.0 / d
    w2 = inv**2 * dx  # dx_i / (x - x_i)^2
    return (_pole_sum(inv, da, c) + _pole_sum(inv, a, dc) + _pole_sum(w2, a, c),
            _pole_sum(inv, dc_star, b) + _pole_sum(inv, c_star, db) + _pole_sum(w2, c_star, b))


def linear_problem_residual(state: PhaseState, z: complex, x_grid, *, eps_coll=EPS_COLL) -> float:
    """Max entrywise residual over the grid of the stripped-gauge t_2 linear
    problem and its adjoint,

        d_t2 psi  = 2z d_x psi  + d_x^2 psi  + V psi,
        d_t2 psi+ = 2z d_x psi+ - d_x^2 psi+ - psi+ V,

    with the x-derivatives in closed form and d/dt_2 exact, along the H_2
    vector field (dx, dp, da, db) of the state: with A = zI - L and dL of
    :func:`spincm.lax._lax_derivative`, A c = -b and A^T c* = a give
    dc = A^-1 (dL c - db) and dc* = A^-T (dL^T c* + da), and

        d psi = sum_i [(da_i c_i^T + a_i dc_i^T)/(x - x_i) + a_i c_i^T dx_i/(x - x_i)^2],

    d psi+ likewise from c*_i b_i^T. Every collision and pole check uses eps_coll.
    """
    c, c_star = solve_c(state, z, eps_coll)
    d = _differences(state, x_grid, eps_coll)
    psi, psid = _psi_matrices(state, c, c_star, d)
    dpsi, d2psi, dpsid, d2psid = _psi_x_derivatives(state, c, c_star, d)
    lhs, lhs_adj = _psi_t2_derivatives(state, c, c_star, z, d, eps_coll)
    V = _potential_v(state, d)
    gaps = (lhs - (2 * z * dpsi + d2psi + V @ psi), lhs_adj - (2 * z * dpsid - d2psid - psid @ V))
    return max(float(np.max(np.abs(g), initial=0.0)) for g in gaps)


def residue_identity_residual(state: PhaseState, m: int, x_samples, eps_coll=EPS_COLL) -> float:
    """Entrywise residual of res_inf(z^m psi psi+) = -d_{t_m} w^(1).

    Both sides are rational in x with poles at the x_i. The left side
    comes from the residue data (K, u, v) of :func:`spincm.lax._residue_rates`,
    read from the thin Krylov blocks L^j b and (L^T)^j a with no n x n
    power of L. In array form, with inv_ik = 1/(x_i - x_k), inv_ii = 0
    and o the entrywise product,

        u = (L^m)^T a - (K^T o inv) a,    v = -L^m b - (K o inv) b,
        res_inf(z^m psi psi+) = sum_i [(u_i b_i^T + a_i v_i^T)/(x - x_i)
                                       - K_ii a_i b_i^T/(x - x_i)^2].

    The right side is sum_i [d(a_i b_i^T)/(x - x_i) + a_i b_i^T dx_i/(x - x_i)^2],
    from the Hamiltonian-route tangent (dx, da, db) on the same Lax
    assembly. Their difference is expanded from the rate differences
    u - da, v - db and -K_ii - dx at the sample points, with no loop over
    the poles. The trace version against d_{t_m} d_x log tau =
    sum_i dx_i/(x - x_i)^2 is checked alongside. Returns the max residual
    over the sample points. Raises ValueError unless m is an integer >= 1.
    """
    _check_m(m)
    a, b = state.a, state.b
    lax = build_lax(state, eps_coll)
    K, u, v = _derived("rates", state, lax, m)
    dx, _, da, db = _derived("field", state, lax, m)
    inv1 = 1.0 / _differences(state, np.atleast_1d(x_samples), eps_coll)  # (points, n)
    inv2 = inv1**2
    Kd = K.diagonal()
    entry = (_pole_sum(inv1, u - da, b) + _pole_sum(inv1, a, v - db)
             + _pole_sum(inv2 * (-Kd - dx), a, b))
    trace = inv1 @ np.sum(u * b + a * v, axis=1) - inv2 @ (Kd * np.sum(a * b, axis=1) + dx)
    return max(
        float(np.max(np.abs(entry), initial=0.0)),
        float(np.max(np.abs(trace), initial=0.0)),
    )


def first_order_pole_cancellation(state: PhaseState, m: int, eps_coll=EPS_COLL) -> float:
    """max_i |u_i . b_i + a_i . v_i|, from the spin rates (u, v) of
    :func:`spincm.lax._residue_rates`: the trace of the first-order-pole
    coefficient u_i b_i^T + a_i v_i^T of res_inf(z^m psi psi+), which
    equals d_{t_m}(b_i^T a_i) and must vanish since the flows preserve the
    normalization. Raises ValueError unless m is an integer >= 1."""
    _check_m(m)
    _, u, v = _derived("rates", state, build_lax(state, eps_coll), m)
    return float(np.max(np.abs(np.sum(u * state.b + state.a * v, axis=1))))


def ba_eval(state: PhaseState, z: complex, grid, eps_coll=EPS_COLL):
    """Grid evaluation for export: psi pair, V and w^(1) at every point of
    the array ``grid``. The whole grid is pole-checked (PoleHit names the
    first offending x) before the one solve_c that all points share; an
    empty grid gives empty lists without a solve."""
    grid = np.atleast_1d(np.asarray(grid, dtype=complex))
    fields = ([], [], [], [])
    if grid.size:
        d = _differences(state, grid, eps_coll)
        c, c_star = solve_c(state, z, eps_coll)
        fields = (*_psi_matrices(state, c, c_star, d), _potential_v(state, d), _w1(state, d))
    out = {"z": [z.real, z.imag], "grid": complex_to_pairs(grid)}
    for key, f in zip(("psi_tilde", "psi_dagger_tilde", "V", "w1"), fields):
        out[key] = complex_to_pairs(f)
    return out
