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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CollidingPoles,
    InsufficientSamples,
    IntegrationFailed,
    StepLimitExceeded,
)
from .lax import build_lax, grad_hamiltonian, hamiltonians, resolvent_residue
from .phase import EPS_COLL, PhaseState, _freeze, complex_to_pairs


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
class TrajectorySample:
    t: complex
    state: PhaseState
    drift: float
    hamiltonians: np.ndarray


@dataclass
class Trajectory:
    samples: list[TrajectorySample] = field(default_factory=list)
    m: int = 0

    def times(self):
        return np.array([s.t for s in self.samples])

    def export_csv(self, path):
        """CSV table: step, re/im of t, every x_i and p_i, drift, H_1..H_5."""
        n = self.samples[0].state.n_particles
        header = ["step", "re_t", "im_t"]
        header += [f"{c}_x_{i + 1}" for i in range(n) for c in ("re", "im")]
        header += [f"{c}_p_{i + 1}" for i in range(n) for c in ("re", "im")]
        header += ["drift"]
        header += [f"{c}_H{k + 1}" for k in range(5) for c in ("re", "im")]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for step, s in enumerate(self.samples):
                row = [step, s.t.real, s.t.imag]
                for xi in s.state.x:
                    row += [xi.real, xi.imag]
                for pi in s.state.p:
                    row += [pi.real, pi.imag]
                row.append(s.drift)
                for h in s.hamiltonians:
                    row += [h.real, h.imag]
                w.writerow(row)

    def export_json(self, path):
        """JSON mirror of the PhaseState schema per sample."""
        out = {
            "m": self.m,
            "samples": [
                {
                    "t": [s.t.real, s.t.imag],
                    "drift": s.drift,
                    "hamiltonians": complex_to_pairs(s.hamiltonians),
                    "state": s.state.to_dict(),
                }
                for s in self.samples
            ],
        }
        with open(path, "w") as fh:
            json.dump(out, fh, indent=1)


def vector_field_gradient(state: PhaseState, m: int, eps_coll=EPS_COLL) -> Tangent:
    """Hamiltonian vector field of H_m:
    dx = dH/dp, dp = -dH/dx, da = dH/db, db = -dH/da."""
    g = grad_hamiltonian(state, m, eps_coll)
    return Tangent(dx=g.dp, dp=-g.dx, da=g.db, db=-g.da)


def _residue_raw_ab(state: PhaseState, m: int, K, Lm):
    """Spin-vector rates read off literally from the first-order-pole
    residue equations, before any gauge choice: with G = (zI-L)^-1,

      da_i = res_inf z^m (G^T a)_i - sum_{k != i} a_k (GRG)_ki / (x_i - x_k),
      db_i = -res_inf z^m (G b)_i - sum_{k != i} b_k (GRG)_ik / (x_i - x_k),

    where res_inf z^m GRG = K is the double-resolvent convolution."""
    n = state.n_particles
    d = state.x[:, None] - state.x[None, :]
    off = ~np.eye(n, dtype=bool)
    d = np.where(off, d, 1.0)
    da = Lm.T @ state.a - np.where(off, K.T / d, 0.0) @ state.a
    db = -(Lm @ state.b) - np.where(off, K / d, 0.0) @ state.b
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
    lax = build_lax(state)
    K = resolvent_residue(lax.L, m, lax.R)
    Lm = resolvent_residue(lax.L, m)
    xdot = -np.diag(K)
    da_raw, db_raw = _residue_raw_ab(state, m, K, Lm)
    mu = np.diag(Lm)[:, None]  # free diagonal gauge rate of the split
    adot = da_raw - mu * state.a
    bdot = db_raw + mu * state.b
    pdot = -grad_hamiltonian(state, m).dx
    return Tangent(dx=xdot, dp=pdot, da=adot, db=bdot)


def _pack(state):
    return np.concatenate([state.x, state.p, state.a.ravel(), state.b.ravel()])


def _unpack(y, n, N):
    """PhaseState whose fields are views into the packed vector y."""
    return PhaseState(
        x=y[:n],
        p=y[n : 2 * n],
        a=y[2 * n : 2 * n + n * N].reshape(n, N),
        b=y[2 * n + n * N :].reshape(n, N),
    )


def _at_time(exc, t):
    """The CollidingPoles ``exc`` re-raised with the flow time t attached."""
    return CollidingPoles(f"pole collision during integration: {exc}", time=t)


def integrate(state: PhaseState, spec: FlowSpec, eps_coll=EPS_COLL) -> Trajectory:
    """Integrate the t_m flow from 0 to spec.t_final.

    The segment is parameterized by arc length s in [0, |t_final|] with
    dy/ds = u F(y), u = t_final/|t_final|. The collision floor eps_coll is
    checked once per right-hand-side call, inside the Lax assembly, and at
    every sample; a pole separation at or below it aborts with
    CollidingPoles carrying the flow time of breakdown. A failed RK45 solve
    raises IntegrationFailed. The constraint is monitored, never
    re-projected.
    """
    n, N = state.n_particles, state.spin_dim
    nN = n * N
    tfin = complex(spec.t_final)
    traj = Trajectory(m=spec.m)

    def sample(t, st):
        try:
            hs = hamiltonians(st, eps_coll=eps_coll)
        except CollidingPoles as exc:
            raise _at_time(exc, t) from None
        traj.samples.append(
            TrajectorySample(t=t, state=st, drift=st.constraint_drift(), hamiltonians=hs)
        )

    if tfin == 0:
        sample(0.0, state)
        return traj

    S = abs(tfin)
    u = tfin / S
    n_steps = max(1, math.ceil(S / spec.dt))
    if n_steps > spec.max_steps:
        raise StepLimitExceeded(f"{n_steps} steps exceed the budget {spec.max_steps}")
    h = S / n_steps

    def rhs(s, y, out):
        """Write u F(y) into out and return it."""
        try:
            f = vector_field_gradient(_unpack(y, n, N), spec.m, eps_coll)
        except CollidingPoles as exc:
            raise _at_time(exc, s * u) from None
        np.multiply(f.dx, u, out=out[:n])
        np.multiply(f.dp, u, out=out[n : 2 * n])
        np.multiply(f.da.ravel(), u, out=out[2 * n : 2 * n + nN])
        np.multiply(f.db.ravel(), u, out=out[2 * n + nN :])
        return out

    y = _pack(state).astype(complex)

    if spec.method == "RK45":
        from scipy.integrate import solve_ivp

        s_eval = np.arange(0, n_steps + 1, spec.record_every) * h
        if s_eval[-1] != S:
            s_eval = np.append(s_eval, S)
        # solve_ivp keeps the stage vectors it is given, so each call gets
        # a fresh one
        sol = solve_ivp(
            lambda s, v: rhs(s, v, np.empty_like(v)), (0.0, S), y, method="RK45",
            t_eval=s_eval, rtol=1e-10, atol=1e-12,
        )
        if not sol.success:
            raise IntegrationFailed(f"RK45 integration failed: {sol.message}")
        for s, ys in zip(sol.t, sol.y.T):
            sample(s * u, _unpack(_freeze(ys), n, N))
        return traj

    k1, k2, k3, k4 = (np.empty_like(y) for _ in range(4))
    sample(0.0, state)
    for step in range(n_steps):
        s = step * h
        rhs(s, y, k1)
        rhs(s + h / 2, y + h / 2 * k1, k2)
        rhs(s + h / 2, y + h / 2 * k2, k3)
        rhs(s + h, y + h * k3, k4)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if (step + 1) % spec.record_every == 0 or step + 1 == n_steps:
            sample((step + 1) * h * u, _unpack(_freeze(y), n, N))
    return traj


def check_lax(trajectory: Trajectory) -> np.ndarray:
    """Residual series ||dL/dt - [M, L]||_max along a t_2 trajectory.

    dL/dt is taken by the 4th-order central stencil over five consecutive
    samples, so the trajectory must be uniformly spaced and carry at least
    five samples. Returns one residual per interior sample.
    """
    samples = trajectory.samples
    if len(samples) < 5:
        raise InsufficientSamples("check_lax needs at least 5 samples")
    ts = np.array([s.t for s in samples])
    hs = np.diff(ts)
    if np.max(np.abs(hs - hs[0])) > 1e-12 * max(1.0, np.abs(hs[0])):
        raise InsufficientSamples("check_lax needs uniformly spaced samples")
    h = hs[0]
    laxes = [build_lax(s.state) for s in samples]
    Ls = [lax.L for lax in laxes]
    Ms = [lax.M for lax in laxes]
    out = np.empty(len(samples) - 4)
    for k in range(2, len(samples) - 2):
        dL = (-Ls[k + 2] + 8 * Ls[k + 1] - 8 * Ls[k - 1] + Ls[k - 2]) / (12 * h)
        comm = Ms[k] @ Ls[k] - Ls[k] @ Ms[k]
        out[k - 2] = np.max(np.abs(dL - comm))
    return out


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
        return integrate(st, FlowSpec(m=m, t_final=s, dt=dt)).samples[-1].state

    ab = flow(flow(state, m1, s1), m2, s2)
    ba = flow(flow(state, m2, s2), m1, s1)
    return float(
        np.max(
            np.abs(_gauge_invariant_observables(ab) - _gauge_invariant_observables(ba))
        )
    )
