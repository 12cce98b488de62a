"""Lax pair, hierarchy Hamiltonians and the resolvent-residue calculus.

The Lax matrix of the Gibbons-Hermsen system is

    L_ii = -p_i,   L_ik = -(b_i^T a_k)/(x_i - x_k)   (i != k),

and its partner M_m of each flow t_m, L' = [M_m, L], is formed from
:func:`_powers` by its one reader, :func:`spincm.flows._lax_pair`. The
conserved Hamiltonians are H_m = tr L^m (:func:`hamiltonian`, the oracle, and
:func:`hamiltonians`, H_1..H_5, from :func:`_powers`, the one route to the
powers of L). Their gradients and vector fields, each a :class:`Tangent`,
come from one kernel, :func:`_vector_field`, linear in Q = m L^{m-1},
which it reads from :func:`_powers` too: with G = Q o inv (entrywise,
inv_ik = 1/(x_i - x_k)), the H_m vector field is dx = -diag Q,
dp = colsum - rowsum of L o G^T, da = G^T a and db = -G b, one packed
block (:func:`_pack`). dL along such a tangent is :func:`_lax_derivative`.
Residues at infinity of the resolvent (zI - L)^-1 are evaluated exactly:
one kernel, :func:`_residue_rates`, gives every residue consumer its data
(K_ii, u, v), the diagonal of K_m and the spin rates, from the thin
Krylov blocks L^j b and (L^T)^j a of :func:`_krylov`, with no n x n power
of L.
:func:`resolvent_residue` gives L^m and K_m for any A as dense matrix
polynomials, and a numeric contour integrator is kept alongside as an
independent oracle for both.

Every phase point (x.ndim == 1) is immutable
(:class:`spincm.phase.PhaseState`) and keeps its assembly from
:func:`build_lax` in its ``__dict__``: no dataclass field, so
``dataclasses.fields`` and ``replace`` never see it. The assembly
carries the memo, one dict: the separation, the point's spins that seed
the Krylov blocks, and what :func:`_kept` adds once per key (each L^j of
:func:`_powers`, each block of :func:`_krylov` and per int m each
kernel's output of :func:`_derived`), every array frozen like the
assembly's own (:func:`spincm.phase._freeze`): no caller can write one.
The calls that check a point compute each quantity once, whichever other
points are checked in between; a copy of it is a new point, with an
empty memo of its own. For the largest m, or power of L, asked a memo
holds at most (m + 2) n^2 + m n(6N + 3) complex entries: 0.97 MB at
n = 100 after the four m of an identities check, under 1.2 MB at m = 5.
Nothing else refers to it, so it goes when its point does. The collision
verdict is taken at every call, from the stored separation and the
caller's eps_coll. Stacked states, and so every flow right-hand side and
every recorded sample, keep nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CollidingPoles, DimensionMismatch
from .phase import EPS_COLL, PhaseState, _freeze, _pole_separation, _positive_integer


@dataclass(frozen=True)
class LaxData:
    """Lax assembly of a phase point, or of a stack of them along leading
    axes, each field (..., n, n): the inverse differences
    inv_ik = 1/(x_i - x_k) with inv_ii = 0, the pairing matrix
    R_ij = b_i^T a_j, which satisfies R = I + [L, diag(x)], and L."""

    inv: np.ndarray
    R: np.ndarray
    L: np.ndarray


@dataclass(frozen=True)
class Tangent:
    """A vector at a phase point, one array per phase variable, shaped as
    the point's: the velocity (dx/dt, dp/dt, da/dt, db/dt) of a vector
    field, or the gradient (dF/dx, dF/dp, dF/da, dF/db) of a scalar F.
    Each function that returns one says which."""

    dx: np.ndarray
    dp: np.ndarray
    da: np.ndarray
    db: np.ndarray


def build_lax(state: PhaseState, eps_coll=EPS_COLL) -> LaxData:
    """The Lax assembly of a phase point or of a stack of them, from one
    pass over the pairwise differences x_i - x_k.

    The arrays of ``state`` may carry leading axes that stack phase points:
    x and p (..., n), a and b (..., n, N). Raises CollidingPoles if two
    poles of a point are within ``eps_coll``; for a stack its ``row`` is
    the flat index of the first such point. A point keeps its frozen
    assembly, which carries its memo, from its first call, for every
    caller (module docstring); a stack's is new at each call.
    """
    if state.x.ndim != 1:
        return _assemble(state, eps_coll)[0]
    lax = vars(state).get("_lax")
    if lax is None:
        lax, sep = _assemble(state, -np.inf)
        lax = LaxData(*map(_freeze, (lax.inv, lax.R, lax.L)))
        # seeded with the point's own spins, U_0 = b and V_0 = a of _krylov
        object.__setattr__(lax, "_memo", {"sep": sep, ("U", 0): state.b, ("V", 0): state.a})
        object.__setattr__(state, "_lax", lax)
    # the verdict is never kept: each call compares with its own floor, and
    # a collision, found again from the poles, raises as a first call does
    if lax._memo["sep"] <= eps_coll:
        _pole_separation(state.x, eps_coll)
    return lax


def _assemble(state, eps_coll):
    """(LaxData, separation) of :func:`build_lax`, computed afresh from the
    differences and separation of :func:`spincm.phase._pole_separation`,
    which checks them against eps_coll."""
    n = state.x.shape[-1]
    d, sep = _pole_separation(state.x, eps_coll)
    # in place from here on, in the order of -R * inv: inv takes the buffer
    # of d, and the infinite diagonal gives inv_ii = 0
    inv = np.divide(1.0, d, out=d)
    R = state.spin_pairings()
    L = np.negative(R)
    L *= inv
    np.negative(state.p.reshape(-1, n), out=L.reshape(-1, n * n)[:, :: n + 1])
    return LaxData(inv, R, L), sep


#: complex entries of the L stack of one call of fn in :func:`_chunked`
STACK_CHUNK = 1 << 14


def _chunked(fn, Y, n, N, shape=()):
    """out (k, *shape), out[j] = fn(point j) of the packed phase points Y
    (k, dim); fn takes stacks of at most STACK_CHUNK // (n n) points, which
    bounds its temporaries. CollidingPoles names in ``row`` the index in Y."""
    out = np.empty((len(Y), *shape), dtype=complex)
    step = max(1, STACK_CHUNK // (n * n))
    for lo in range(0, len(Y), step):
        try:
            out[lo : lo + step] = fn(PhaseState(*_unpack(Y[lo : lo + step], n, N)))
        except CollidingPoles as exc:
            exc.row += lo
            raise
    return out


def _kept(lax, key, compute):
    """compute(), an array or a tuple of them, for the assembly ``lax`` of
    :func:`build_lax`: a stack's is computed afresh; a point's once per
    ``key`` and kept in its memo, each array frozen (:func:`_freeze`)."""
    memo = vars(lax).get("_memo")
    if memo is None:
        return compute()
    out = memo.get(key)
    if out is None:
        out = compute()
        out = memo[key] = tuple(map(_freeze, out)) if isinstance(out, tuple) else _freeze(out)
    return out


def _derived(kernel, state, lax, m):
    """The output of ``kernel`` at m for ``state`` and its assembly ``lax``
    from :func:`build_lax`: the :func:`_vector_field` quadruple for
    kernel "field", the :func:`_residue_rates` triple for "rates". A
    point's is kept (:func:`_kept`) under (kernel, m) for an int m, which
    a 0-d integer array is taken as."""
    if isinstance(m, np.ndarray) and m.ndim == 0:
        m = _positive_integer(m, "m")
    compute = (functools.partial(_vector_field, lax, state.a, state.b, m) if kernel == "field"
               else functools.partial(_residue_rates, lax, m))
    return _kept(lax, (kernel, m), compute) if isinstance(m, (int, np.integer)) else compute()


def hamiltonian(state: PhaseState, m: int, eps_coll=EPS_COLL):
    """H_m = tr L^m, a complex for a phase point and an array (...) for a
    stack; each point's value is bit-identical to its own call."""
    _positive_integer(m, "m")
    L = build_lax(state, eps_coll).L
    H = np.trace(np.linalg.matrix_power(L, m), axis1=-2, axis2=-1)
    return complex(H) if H.ndim == 0 else H


def _powers(lax, k):
    """[L, L^2, ..., L^k] of the assembly ``lax`` of a point or a stack, by
    right products L^{j+1} = L^j L: the one route to the powers of L in
    production code. A point keeps each L^j, j >= 2, under ("L", j)
    (:func:`_kept`); a stack keeps none."""
    P = [lax.L]
    while len(P) < k:
        P.append(_kept(lax, ("L", len(P) + 1), lambda: P[-1] @ lax.L))
    return P


def hamiltonians(state: PhaseState, eps_coll=EPS_COLL) -> np.ndarray:
    """[H_1, ..., H_5], shape (5,) for a phase point and (..., 5) for a
    stack: the traces of L, L^2 and L^3 (:func:`_powers`), then the entrywise
    sums of L o (L^3)^T and L^2 o (L^3)^T; two n x n products in all."""
    P = _powers(build_lax(state, eps_coll), 3)
    P3T = P[2].swapaxes(-1, -2)
    H = [np.trace(Lj, axis1=-2, axis2=-1) for Lj in P] + [(Lj * P3T).sum((-2, -1)) for Lj in P[:2]]
    return np.stack(H, axis=-1)


def hamiltonian_h2_direct(state: PhaseState, eps_coll=EPS_COLL) -> complex:
    """H_2 written directly in phase variables:
    sum_i p_i^2 - sum_{i != k} (b_i^T a_k)(b_k^T a_i)/(x_i - x_k)^2."""
    lax = build_lax(state, eps_coll)
    return complex(np.sum(state.p**2) - np.sum(lax.R * lax.R.T * lax.inv * lax.inv))


@functools.lru_cache(maxsize=64, typed=True)
def _weights(ms):
    """(top, c, lower, one), read-only and built once per ``ms``, an int or
    a tuple of one m per stacked point: top = max(1, max m - 1); c the m
    of each point, 0 where m = 1, complex against L (..., 1, 1); a pair
    (k, mask) in ``lower`` for each L^k, k < top, that an m = k + 1 picks;
    ``one``, 1 where m = 1, against a diagonal (..., 1), or None."""
    ms = _positive_integer(ms, "m", stack=True)
    top = max(1, int(ms.max()) - 1)
    c = np.where(ms > 1, ms, 0).astype(complex)[..., None, None]
    lower = tuple((k, ms[..., None, None] == k + 1) for k in range(1, top) if (ms == k + 1).any())
    one = (ms == 1).astype(float)[..., None] if (ms == 1).any() else None
    for arr in (c, *(mask for _, mask in lower), *([] if one is None else [one])):
        arr.setflags(write=False)
    return top, c, lower, one


def _vector_field(lax, a, b, m):
    """(dx, dp, da, db) of the H_m vector field, (dH/dp, -dH/dx, dH/db,
    -dH/da), from the Lax assembly ``lax`` of :func:`build_lax` of a phase
    point with spins (a, b), or of a stack of them along leading axes; m is
    an int, or for a (B,) stack a (B,) integer array of one m per point.
    The four are views of one packed block (..., 2n + 2nN) in the order of
    :func:`_pack`, which ``dx.base`` returns. Raises ValueError unless
    every m is an integer >= 1.

    Chain rule d tr L^m = tr(Q dL) with Q = m L^{m-1}, exploiting the
    sparsity of dL/dq: dL/dp_i = -E_ii, dL/dx_i = [E_ii, S] with
    S = R o inv o inv, and dL/da_i, dL/db_i touch only column i / row i
    off-diagonal entries. With G = Q o inv and inv antisymmetric,
    S o Q^T = L o G^T off the diagonal, so -dH/dx = colsum - rowsum of
    L o G^T, dH/db = G^T a and dH/da = G b: S is never formed.
    Q is each point's L^{m-1} of :func:`_powers` times its m, picked as
    :func:`_weights` says (0 L + I where m = 1): max m - 2 products for a
    stack, whatever the m of each point. A point of a stack gets its Q as
    alone, bit for bit but for the sign of a zero, as c is real."""
    n, N = a.shape[-2:]
    if isinstance(m, np.ndarray):  # a float tuple would hit the equal ints' weights
        m = tuple((m if m.dtype.kind in "biu" else _positive_integer(m, "m", stack=True)).tolist())
    top, c, lower, one = _weights(m)
    P = _powers(lax, top)
    Q = P[-1] * c
    for k, mask in lower:
        np.multiply(P[k - 1], c, out=Q, where=mask)
    if one is not None:
        Q.reshape(-1, n * n)[:, :: n + 1] += one
    F = np.empty(Q.shape[:-2] + (2 * n * (N + 1),), dtype=complex)
    dx, dp, da, db = _unpack(F, n, N)
    np.negative(Q.diagonal(0, -2, -1), out=dx)  # dH/dp_i = -Q_ii
    Q *= lax.inv  # G, in Q's buffer
    GT = Q.swapaxes(-1, -2)
    C = lax.L * GT
    np.subtract(np.add.reduce(C, -2), np.add.reduce(C, -1), out=dp)
    np.matmul(GT, a, out=da)
    np.negative(np.matmul(Q, b, out=db), out=db)
    return dx, dp, da, db


def _pack(state: PhaseState):
    """The phase point as one packed complex vector (x, p, a, b)."""
    return np.concatenate([state.x, state.p, state.a.ravel(), state.b.ravel()]).astype(complex)


def _unpack(y, n, N):
    """(x, p, a, b) as views into packed vectors y; leading axes are kept."""
    lead = y.shape[:-1]
    return (
        y[..., :n],
        y[..., n : 2 * n],
        y[..., 2 * n : 2 * n + n * N].reshape(*lead, n, N),
        y[..., 2 * n + n * N :].reshape(*lead, n, N),
    )


def _lax_derivative(lax: LaxData, a, b, dx, dp, da, db):
    """dL along the tangent (dx, dp, da, db) of a phase point with spins
    (a, b) and Lax assembly ``lax``, or of a stack of them: dL_ii = -dp_i and
    dL_ik = -(dR_ik - R_ik (dx_i - dx_k) inv_ik) inv_ik, dR = db a^T + b da^T."""
    dR = db @ a.swapaxes(-1, -2) + b @ da.swapaxes(-1, -2)
    dL = -(dR - lax.R * (dx[..., :, None] - dx[..., None, :]) * lax.inv) * lax.inv
    n = dp.shape[-1]
    dL.reshape(-1, n * n)[:, :: n + 1] = -dp.reshape(-1, n)
    return dL


def grad_hamiltonian(state: PhaseState, m: int, eps_coll=EPS_COLL) -> Tangent:
    """The gradient (dH/dx, dH/dp, dH/da, dH/db) of H_m = tr L^m, from
    :func:`_vector_field`."""
    dx, dp, da, db = _derived("field", state, build_lax(state, eps_coll), m)
    return Tangent(dx=-dp, dp=dx, da=-db, db=da)


def poisson_bracket(state: PhaseState, f_grad: Tangent, g_grad: Tangent) -> complex:
    """Canonical bracket {f, g} = sum_i (f_x g_p - f_p g_x)
    + sum_{i,alpha} (f_a g_b - f_b g_a), complex-bilinear, of the
    gradients of f and g."""
    for g in (f_grad, g_grad):
        if g.dx.shape != state.x.shape or g.da.shape != state.a.shape:
            raise DimensionMismatch("gradient shapes do not match the state")
    def one_sided(f: Tangent, g: Tangent) -> complex:
        return complex(np.sum(f.dx * g.dp) + np.sum(f.da * g.db))

    # antisymmetrized evaluation: {f, f} vanishes identically instead of
    # accumulating last-ulp rounding noise from the two multiplication orders
    return one_sided(f_grad, g_grad) - one_sided(g_grad, f_grad)


def _krylov(lax, k):
    """([U_0 .. U_k], [V_0 .. V_k]), the thin Krylov blocks U_j = L^j b and
    V_j = (L^T)^j a of the phase point with assembly ``lax``, from the
    point's own spins U_0 = b and V_0 = a that seed its memo; each later
    block is kept under ("U", j) or ("V", j) (:func:`_kept`)."""
    U, V, L = [lax._memo["U", 0]], [lax._memo["V", 0]], lax.L
    while len(U) <= k:
        U.append(_kept(lax, ("U", len(U)), lambda: L @ U[-1]))
        V.append(_kept(lax, ("V", len(V)), lambda: L.T @ V[-1]))
    return U, V


def _residue_rates(lax: LaxData, m):
    """(K_ii, u, v), the residue data of the t_m flow of the phase point
    with Lax assembly ``lax``, m >= 1, from the spins a, b (n, N) that seed
    its memo's blocks. Raises DimensionMismatch for a stack of points.

    With G = (zI - L)^-1 and R = b a^T, the residues res_inf z^m G b =
    L^m b and res_inf z^m G^T a = (L^m)^T a, and the double resolvent
    K = res_inf z^m G R G = sum_j L^j R L^{m-1-j}, come from the thin
    Krylov blocks U_j = L^j b and V_j = (L^T)^j a, j = 0..m, of
    :func:`_krylov`, and K = [U_0 .. U_{m-1}] [V_{m-1} .. V_0]^T, one
    (n, mN) by (mN, n) product. (u, v) are the spin rates read off the
    first-order-pole residue equations, before any gauge choice:

      u_i = ((L^m)^T a)_i - sum_{k != i} a_k K_ki / (x_i - x_k),
      v_i = -(L^m b)_i - sum_{k != i} b_k K_ik / (x_i - x_k).

    This is exact for any a and b: it does not use b_i^T a_i = 1. Every
    entry of K enters u and v; of K itself only its diagonal K_ii, the
    coefficient of the second-order poles, is returned, and so kept: no
    reader needs the rest."""
    if lax.L.ndim != 2:
        raise DimensionMismatch(f"the residue route takes one phase point, not a stack {lax.L.shape[:-2]}")
    U, V = _krylov(lax, m)
    K = np.concatenate(U[:m], axis=1) @ np.concatenate(V[-2::-1], axis=1).T
    return K.diagonal(), V[m] - (K.T * lax.inv) @ V[0], -U[m] - (K * lax.inv) @ U[0]


def resolvent_residue(L, m: int, A=None):
    """Residues at z = infinity of the resolvent, evaluated exactly.

    Without A:   res_inf z^m (zI - L)^-1            = L^m.
    With A:      res_inf z^m (zI - L)^-1 A (zI - L)^-1
                 = K_m = sum_{j=0}^{m-1} L^j A L^{m-1-j}   (K_0 = 0),

    built by the recurrence K_m = L K_{m-1} + A L^{m-1}: two products per
    step, 2(m - 1) in all. The residue route does not call it: it takes
    L^m b, (L^m)^T a and K_m for A = R from :func:`_residue_rates`.
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
