"""Lax pair, hierarchy Hamiltonians and the resolvent-residue calculus.

The Lax matrix of the Gibbons-Hermsen system is

    L_ii = -p_i,   L_ik = -(b_i^T a_k)/(x_i - x_k)   (i != k),

with auxiliary matrix M_ik = 2 (b_i^T a_k)/(x_i - x_k)^2 (zero diagonal).
The conserved Hamiltonians are H_m = tr L^m. Residues at infinity of the
resolvent (zI - L)^-1 are evaluated exactly as matrix polynomials; a numeric
contour integrator is kept alongside as an independent oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CollidingPoles, DimensionMismatch
from .phase import EPS_COLL, PhaseState


@dataclass(frozen=True)
class LaxData:
    """Lax assembly of a phase point, or of a stack of them along leading
    axes, each field (..., n, n): the inverse differences
    inv_ik = 1/(x_i - x_k) with inv_ii = 0, the pairing matrix
    R_ij = b_i^T a_j, which satisfies R = I + [L, diag(x)], and L, M."""

    inv: np.ndarray
    R: np.ndarray
    L: np.ndarray
    M: np.ndarray


@dataclass(frozen=True)
class Gradient:
    """Holomorphic partial derivatives of a scalar with respect to every
    phase variable; shapes match the generating PhaseState."""

    dx: np.ndarray
    dp: np.ndarray
    da: np.ndarray
    db: np.ndarray

    def max_abs(self):
        return max(
            float(np.max(np.abs(f))) for f in (self.dx, self.dp, self.da, self.db)
        )


def _diagonal(A):
    """Writable view of the diagonals of a C-contiguous (..., n, n) array,
    shape (..., n)."""
    n = A.shape[-1]
    return A.reshape(*A.shape[:-2], n * n)[..., :: n + 1]


def build_lax(state: PhaseState, eps_coll=EPS_COLL) -> LaxData:
    """The Lax assembly of a phase point or of a stack of them, from one
    pass over the pairwise differences x_i - x_k.

    The arrays of ``state`` may carry leading axes that stack phase points:
    x and p (..., n), a and b (..., n, N). Raises CollidingPoles if two
    poles of a point are within ``eps_coll``; for a stack its ``row`` is
    the flat index of the first such point.
    """
    x = state.x
    n = x.shape[-1]
    d = x[..., :, None] - x[..., None, :]
    _diagonal(d)[...] = np.inf
    dist = np.abs(d)
    if dist.min() <= eps_coll:
        sep = dist.reshape(-1, n * n).min(axis=1)
        row = int(np.argmax(sep <= eps_coll)) if d.ndim > 2 else None
        raise CollidingPoles(
            f"minimal pole separation {sep[row or 0]:.3e} <= {eps_coll:.3e}", row=row
        )
    inv = 1.0 / d  # the infinite diagonal gives inv_ii = 0
    R = state.spin_pairings()
    L = -R * inv
    _diagonal(L)[...] = -state.p
    M = 2.0 * R * inv * inv
    return LaxData(inv=inv, R=R, L=L, M=M)


def hamiltonian(state: PhaseState, m: int, eps_coll=EPS_COLL):
    """H_m = tr L^m, a complex for a phase point and an array (...) for a
    stack; each point's value is bit-identical to its own call."""
    if m < 1:
        raise ValueError("m must be >= 1")
    L = build_lax(state, eps_coll).L
    H = np.trace(np.linalg.matrix_power(L, m), axis1=-2, axis2=-1)
    return complex(H) if H.ndim == 0 else H


def hamiltonians(state: PhaseState, kmax: int = 5, eps_coll=EPS_COLL) -> np.ndarray:
    """[H_1, ..., H_kmax] from one pass of repeated multiplication, shape
    (kmax,) for a phase point and (..., kmax) for a stack."""
    L = build_lax(state, eps_coll).L
    out = np.empty(L.shape[:-2] + (kmax,), dtype=complex)
    P = L
    for k in range(kmax):
        out[..., k] = np.trace(P, axis1=-2, axis2=-1)
        if k + 1 < kmax:
            P = P @ L
    return out


def hamiltonian_h2_direct(state: PhaseState, eps_coll=EPS_COLL) -> complex:
    """H_2 written directly in phase variables:
    sum_i p_i^2 - sum_{i != k} (b_i^T a_k)(b_k^T a_i)/(x_i - x_k)^2."""
    lax = build_lax(state, eps_coll)
    return complex(np.sum(state.p**2) - np.sum(lax.R * lax.R.T * lax.inv * lax.inv))


@functools.lru_cache(maxsize=64)
def _per_point_m(ms):
    """Read-only factors of the gradient kernel for the tuple ``ms`` of one
    m per stacked point, built once per tuple: m, -m, m/2 against (B, n);
    m, -m against (B, n, n); per further factor of L in L^{m-1}, the mask
    of the points that take it; the mask of m == 1, or None."""
    v = np.array(ms)[:, None]
    mm = v[:, :, None]
    factors = (v, -v, 0.5 * v, mm, -mm)
    more = [mm > j for j in range(2, max(ms))]
    first = mm == 1 if 1 in ms else None
    for arr in (*factors, *more, first):
        if arr is not None:
            arr.setflags(write=False)
    return (*factors, more, first)


def _gradient(lax: LaxData, a, b, m):
    """(dx, dp, da, db) of H_m = tr L^m from the Lax assembly ``lax`` of a
    phase point with spins (a, b), or of a stack of them along leading
    axes; m is an int, or for a (B,) stack a (B,) integer array of one m
    per point.

    Chain rule d tr L^m = m tr(L^{m-1} dL), exploiting the sparsity of
    dL/dq: dL/dp_i = -E_ii, dL/dx_i = [E_ii, M]/2, and dL/da_i, dL/db_i
    touch only column i / row i off-diagonal entries. Every point takes
    L^{m-1} from the same right multiplications as alone."""
    inv, L, M = lax.inv, lax.L, lax.M
    if isinstance(m, np.ndarray):
        mv, neg_mv, half_mv, mm, neg_mm, more, first = _per_point_m(tuple(m.tolist()))
        Lm1 = L
        for need in more:
            Lm1 = np.where(need, Lm1 @ L, Lm1)
        if first is not None:
            Lm1 = np.where(first, np.eye(L.shape[-1], dtype=complex), Lm1)
    else:
        mv, neg_mv, half_mv, mm, neg_mm = m, -m, 0.5 * m, m, -m
        if m == 1:
            Lm1 = np.broadcast_to(np.eye(L.shape[-1], dtype=complex), L.shape)
        else:
            Lm1 = L
            for _ in range(m - 2):
                Lm1 = Lm1 @ L
    Lm1T = Lm1.swapaxes(-1, -2)
    dp = neg_mv * Lm1.diagonal(0, -2, -1)
    # diag(M L^{m-1}) and diag(L^{m-1} M) are the row and column sums of
    # C_ij = M_ij (L^{m-1})_ji
    C = M * Lm1T
    dx = half_mv * (C.sum(axis=-1) - C.sum(axis=-2))
    # dH/da_i^g = -m sum_{j != i} (L^{m-1})_{ij} b_j^g / (x_j - x_i)
    da = (mm * Lm1 * inv) @ b
    # dH/db_i^g = -m sum_{j != i} (L^{m-1})_{ji} a_j^g / (x_i - x_j)
    db = (neg_mm * Lm1T * inv) @ a
    return dx, dp, da, db


def grad_hamiltonian(state: PhaseState, m: int, eps_coll=EPS_COLL) -> Gradient:
    """Analytic gradient of H_m = tr L^m; see :func:`_gradient`."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return Gradient(*_gradient(build_lax(state, eps_coll), state.a, state.b, m))


def poisson_bracket(state: PhaseState, f_grad: Gradient, g_grad: Gradient) -> complex:
    """Canonical bracket {f, g} = sum_i (f_x g_p - f_p g_x)
    + sum_{i,alpha} (f_a g_b - f_b g_a), complex-bilinear."""
    for g in (f_grad, g_grad):
        if g.dx.shape != state.x.shape or g.da.shape != state.a.shape:
            raise DimensionMismatch("gradient shapes do not match the state")
    def one_sided(f: Gradient, g: Gradient) -> complex:
        return complex(np.sum(f.dx * g.dp) + np.sum(f.da * g.db))

    # antisymmetrized evaluation: {f, f} vanishes identically instead of
    # accumulating last-ulp rounding noise from the two multiplication orders
    return one_sided(f_grad, g_grad) - one_sided(g_grad, f_grad)


def resolvent_residue(L, m: int, A=None):
    """Residues at z = infinity of the resolvent, evaluated exactly.

    Without A:   res_inf z^m (zI - L)^-1            = L^m.
    With A:      res_inf z^m (zI - L)^-1 A (zI - L)^-1
                 = K_m = sum_{j=0}^{m-1} L^j A L^{m-1-j}   (K_0 = 0),

    built by the recurrence K_m = L K_{m-1} + A L^{m-1}: two products per
    step, 2(m - 1) in all.
    """
    L = np.asarray(L, dtype=complex)
    if m < 0:
        raise ValueError("m must be >= 0")
    if A is None:
        return np.linalg.matrix_power(L, m)
    A = np.asarray(A, dtype=complex)
    if m == 0:
        return np.zeros_like(L)
    K, AL = A.copy(), A  # K_1 and A L^0
    for _ in range(m - 1):
        AL = AL @ L
        K = L @ K + AL
    return K


def contour_residue(L, m: int, A=None, nodes: int = 256):
    """Trapezoid-rule contour oracle for :func:`resolvent_residue`.

    Integrates over the circle of radius 2 (||L||_inf + 1),
    which encloses the spectrum since the spectral radius is bounded by any
    induced norm. Exponentially accurate in the node count.
    """
    L = np.asarray(L, dtype=complex)
    n = L.shape[0]
    I = np.eye(n, dtype=complex)
    r = 2.0 * (np.linalg.norm(L, np.inf) + 1.0)
    acc = np.zeros((n, n), dtype=complex)
    for k in range(nodes):
        z = r * np.exp(2j * np.pi * k / nodes)
        G = np.linalg.inv(z * I - L)
        f = G if A is None else G @ A @ G
        # dz/(2 pi i) on the circle contributes z / nodes per node
        acc += (z ** (m + 1) / nodes) * f
    return acc
