"""Hierarchy flows t_m as ODEs on phase points.

Each flow is realized by two independently derived vector fields: the
Hamiltonian (gradient) route through grad_hamiltonian, and the residue route
through the resolvent calculus. Integration is fixed-step RK4 by default
(embedded RK45 optional) along the straight segment from 0 to a complex
t_final, with constraint drift and H_1..H_5 recorded at every sample.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CollidingPoles,
    InsufficientSamples,
    IntegrationFailed,
    StepLimitExceeded,
)
from .lax import _assemble, grad_hamiltonian, hamiltonians, resolvent_residue
from .phase import EPS_COLL, PhaseState, complex_to_pairs


@dataclass(frozen=True)
class Tangent:
    """Velocity of a phase point: (dx/dt, dp/dt, da/dt, db/dt)."""

    dx: np.ndarray
    dp: np.ndarray
    da: np.ndarray
    db: np.ndarray


@dataclass(frozen=True)
class FlowSpec:
    """Which hierarchy time to flow and how to step along it."""

    m: int
    t_final: complex
    dt: float
    method: str = "RK4"
    record_every: int = 1
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("hierarchy index m must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.method not in ("RK4", "RK45"):
            raise ValueError("method must be RK4 or RK45")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one t_m flow, one row per sample.

    ``t`` holds the flow times (k,), ``x`` and ``p`` have shape (k, n), ``a``
    and ``b`` (k, n, N), ``drift`` the constraint drift (k,) and
    ``hamiltonians`` H_1..H_5 (k, 5). The phase arrays are read-only views
    of one packed block; :meth:`state` returns sample k as a PhaseState.
    """

    t: np.ndarray
    x: np.ndarray
    p: np.ndarray
    a: np.ndarray
    b: np.ndarray
    drift: np.ndarray
    hamiltonians: np.ndarray
    m: int

    def state(self, k) -> PhaseState:
        return PhaseState(x=self.x[k], p=self.p[k], a=self.a[k], b=self.b[k])

    def export_csv(self, path):
        """CSV table: step, re/im of t, every x_i and p_i, drift, H_1..H_5."""
        n = self.x.shape[1]
        header = ["step", "re_t", "im_t"]
        header += [f"{c}_x_{i + 1}" for i in range(n) for c in ("re", "im")]
        header += [f"{c}_p_{i + 1}" for i in range(n) for c in ("re", "im")]
        header += ["drift"]
        header += [f"{c}_H{k + 1}" for k in range(5) for c in ("re", "im")]
        cols = [_re_im(self.t[:, None]), _re_im(self.x), _re_im(self.p),
                self.drift[:, None], _re_im(self.hamiltonians)]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([step, *row] for step, row in enumerate(np.hstack(cols).tolist()))

    def export_json(self, path):
        """JSON mirror of the PhaseState schema per sample."""
        n, N = self.a.shape[1:]
        ts, hs, xs, ps, as_, bs = (
            complex_to_pairs(v)
            for v in (self.t, self.hamiltonians, self.x, self.p, self.a, self.b)
        )
        out = {
            "m": self.m,
            "samples": [
                {
                    "t": ts[k],
                    "drift": drift,
                    "hamiltonians": hs[k],
                    "state": {"n_particles": n, "spin_dim": N,
                              "x": xs[k], "p": ps[k], "a": as_[k], "b": bs[k]},
                }
                for k, drift in enumerate(self.drift.tolist())
            ],
        }
        with open(path, "w") as fh:
            json.dump(out, fh, indent=1)


def _re_im(z):
    """(k, ...) complex rows as (k, 2 * ...) floats, re and im interleaved."""
    return np.stack([z.real, z.imag], axis=-1).reshape(len(z), -1)


def vector_field_gradient(state: PhaseState, m: int, eps_coll=EPS_COLL) -> Tangent:
    """Hamiltonian vector field of H_m:
    dx = dH/dp, dp = -dH/dx, da = dH/db, db = -dH/da."""
    g = grad_hamiltonian(state, m, eps_coll)
    return Tangent(dx=g.dp, dp=-g.dx, da=g.db, db=-g.da)


def _residue_raw_ab(state: PhaseState, inv, K, Lm):
    """Spin-vector rates read off literally from the first-order-pole
    residue equations, before any gauge choice: with G = (zI-L)^-1,

      da_i = res_inf z^m (G^T a)_i - sum_{k != i} a_k (GRG)_ki / (x_i - x_k),
      db_i = -res_inf z^m (G b)_i - sum_{k != i} b_k (GRG)_ik / (x_i - x_k),

    where res_inf z^m GRG = K is the double-resolvent convolution and
    inv_ik = 1/(x_i - x_k), inv_ii = 0, comes from the Lax assembly."""
    da = Lm.T @ state.a - (K.T * inv) @ state.a
    db = -(Lm @ state.b) - (K * inv) @ state.b
    return da, db


def vector_field_residue(state: PhaseState, m: int) -> Tangent:
    """Flow tangent derived through the resolvent-residue calculus.

    dx_i is the exact residue res_inf z^m (c_i . c*_i) = -(res_inf z^m GRG)_ii.
    The raw residue split of d(a_i b_i^T) into (da_i, db_i) leaves a free
    diagonal gauge rate per particle (only sufficient conditions fix the
    split); the rate is pinned to (res_inf z^m G)_ii = (L^m)_ii, the unique
    choice consistent with the t_2 equations of motion for the spin vectors.
    dp is delegated to the gradient route, which is the only derivation of
    the momentum flow; keeping it there preserves the cross-check value of
    the two routes.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    inv, R, L, _ = _assemble(state.x, state.p, state.a, state.b, EPS_COLL)
    K = resolvent_residue(L, m, R)
    Lm = resolvent_residue(L, m)
    xdot = -np.diag(K)
    da_raw, db_raw = _residue_raw_ab(state, inv, K, Lm)
    mu = np.diag(Lm)[:, None]  # free diagonal gauge rate of the split
    adot = da_raw - mu * state.a
    bdot = db_raw + mu * state.b
    pdot = -grad_hamiltonian(state, m).dx
    return Tangent(dx=xdot, dp=pdot, da=adot, db=bdot)


def _unpack(y, n, N):
    """(x, p, a, b) as views into packed vectors y; leading axes are kept."""
    lead = y.shape[:-1]
    return (
        y[..., :n],
        y[..., n : 2 * n],
        y[..., 2 * n : 2 * n + n * N].reshape(*lead, n, N),
        y[..., 2 * n + n * N :].reshape(*lead, n, N),
    )


def _at_time(exc, t):
    """The CollidingPoles ``exc`` re-raised with the flow time t attached."""
    return CollidingPoles(f"pole collision during integration: {exc}", time=t)


def _record(m, times, rows, n, N, eps_coll) -> Trajectory:
    """Trajectory of the packed rows recorded at the given flow times, with
    H_1..H_5 and the constraint drift of every row. A row whose poles are
    within eps_coll raises CollidingPoles carrying that row's flow time."""
    Y = np.ascontiguousarray(rows, dtype=complex)
    Y.setflags(write=False)
    k = len(Y)
    traj = Trajectory(
        np.asarray(times, dtype=complex), *_unpack(Y, n, N),
        drift=np.empty(k), hamiltonians=np.empty((k, 5), dtype=complex), m=m,
    )
    for j, t in enumerate(traj.t):
        st = traj.state(j)
        try:
            traj.hamiltonians[j] = hamiltonians(st, eps_coll=eps_coll)
        except CollidingPoles as exc:
            raise _at_time(exc, complex(t)) from None
        traj.drift[j] = st.constraint_drift()
    return traj


def integrate(state: PhaseState, spec: FlowSpec, eps_coll=EPS_COLL) -> Trajectory:
    """Integrate the t_m flow from 0 to spec.t_final.

    The segment is parameterized by arc length s in [0, |t_final|] with
    dy/ds = u F(y), u = t_final/|t_final|. The collision floor eps_coll is
    checked once per right-hand-side call, inside the Lax assembly, and at
    every recorded sample; a pole separation at or below it aborts with
    CollidingPoles carrying the flow time of breakdown. A failed RK45 solve
    raises IntegrationFailed. The constraint is monitored, never
    re-projected.
    """
    n, N = state.n_particles, state.spin_dim
    nN = n * N
    tfin = complex(spec.t_final)
    y = np.concatenate([state.x, state.p, state.a.ravel(), state.b.ravel()]).astype(complex)
    if tfin == 0:
        return _record(spec.m, [0.0], [y], n, N, eps_coll)

    S = abs(tfin)
    u = tfin / S
    n_steps = max(1, math.ceil(S / spec.dt))
    if n_steps > spec.max_steps:
        raise StepLimitExceeded(f"{n_steps} steps exceed the budget {spec.max_steps}")
    h = S / n_steps

    def rhs(s, y, out):
        """Write u F(y) into out and return it."""
        try:
            f = vector_field_gradient(PhaseState(*_unpack(y, n, N)), spec.m, eps_coll)
        except CollidingPoles as exc:
            raise _at_time(exc, s * u) from None
        np.multiply(f.dx, u, out=out[:n])
        np.multiply(f.dp, u, out=out[n : 2 * n])
        np.multiply(f.da.ravel(), u, out=out[2 * n : 2 * n + nN])
        np.multiply(f.db.ravel(), u, out=out[2 * n + nN :])
        return out

    if spec.method == "RK45":
        from scipy.integrate import solve_ivp

        # the RK4 sampling grid; n_steps * h can round past the span's end
        s_eval = np.append(np.arange(0, n_steps, spec.record_every), n_steps) * h
        s_eval[-1] = S
        # solve_ivp keeps the stage vectors it is given, so each call gets
        # a fresh one
        sol = solve_ivp(
            lambda s, v: rhs(s, v, np.empty_like(v)), (0.0, S), y, method="RK45",
            t_eval=s_eval, rtol=1e-10, atol=1e-12,
        )
        if not sol.success:
            raise IntegrationFailed(f"RK45 integration failed: {sol.message}")
        return _record(spec.m, sol.t * u, sol.y.T, n, N, eps_coll)

    k1, k2, k3, k4 = (np.empty_like(y) for _ in range(4))
    times, rows = [0.0], [y]
    for step in range(n_steps):
        s = step * h
        rhs(s, y, k1)
        rhs(s + h / 2, y + h / 2 * k1, k2)
        rhs(s + h / 2, y + h / 2 * k2, k3)
        rhs(s + h, y + h * k3, k4)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if (step + 1) % spec.record_every == 0 or step + 1 == n_steps:
            times.append((step + 1) * h * u)
            rows.append(y)
    return _record(spec.m, times, rows, n, N, eps_coll)


def check_lax(trajectory: Trajectory) -> np.ndarray:
    """Residual series ||dL/dt - [M, L]||_max along a t_2 trajectory.

    dL/dt is taken by the 4th-order central stencil over five consecutive
    samples, so the trajectory must be uniformly spaced and carry at least
    five samples. Returns one residual per interior sample.
    """
    tr = trajectory
    if len(tr.t) < 5:
        raise InsufficientSamples("check_lax needs at least 5 samples")
    hs = np.diff(tr.t)
    if np.max(np.abs(hs - hs[0])) > 1e-12 * max(1.0, np.abs(hs[0])):
        raise InsufficientSamples("check_lax needs uniformly spaced samples")
    h = hs[0]
    rows = zip(tr.x, tr.p, tr.a, tr.b)
    L, M = map(np.array, zip(*(_assemble(*row, EPS_COLL)[2:] for row in rows)))
    dL = (-L[4:] + 8 * L[3:-1] - 8 * L[1:-3] + L[:-4]) / (12 * h)
    Lk, Mk = L[2:-2], M[2:-2]
    return np.max(np.abs(dL - (Mk @ Lk - Lk @ Mk)), axis=(1, 2))


def _gauge_invariant_observables(state: PhaseState):
    """Observables insensitive to the per-particle gauge: pole positions in
    a canonical order, H_1..H_5 and the conjugation invariants tr R^k."""
    order = np.lexsort((state.x.imag, state.x.real))
    xs = state.x[order]
    R = state.spin_pairings()
    trR = np.array(
        [np.trace(np.linalg.matrix_power(R, k)) for k in range(1, state.n_particles + 1)]
    )
    return np.concatenate([xs, hamiltonians(state), trR])


def commutativity_check(state, m1, m2, s1, s2, dt) -> float:
    """Max distance of gauge-invariant observables between flowing
    (t_{m1} by s1, then t_{m2} by s2) and the reverse order."""
    if m1 == m2:
        raise ValueError("m1 and m2 must differ")

    def flow(st, m, s):
        if s == 0:
            return st
        return integrate(st, FlowSpec(m=m, t_final=s, dt=dt)).state(-1)

    ab = flow(flow(state, m1, s1), m2, s2)
    ba = flow(flow(state, m2, s2), m1, s1)
    return float(
        np.max(
            np.abs(_gauge_invariant_observables(ab) - _gauge_invariant_observables(ba))
        )
    )
