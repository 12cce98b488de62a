"""Hierarchy flows t_m as ODEs on phase points.

Each flow is realized by two independently derived vector fields: the
Hamiltonian (gradient) route through the H_m gradient kernel, and the residue
route through the resolvent calculus. Integration is fixed-step RK4 by
default (embedded RK45 optional) along the straight segment from 0 to a
complex t_final, with constraint drift and H_1..H_5 recorded at every sample.

The one integrator, :func:`integrate_stack`, steps a (B, dim) block of
packed phase points that share (n, N) and a FlowSpec up to a per-row m, with
one :func:`vector_field_gradient` of the whole stack per right-hand-side
call; :func:`integrate` is its one-row case.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CollidingPoles,
    DimensionMismatch,
    InsufficientSamples,
    IntegrationFailed,
    StepLimitExceeded,
)
from .lax import LaxData, _gradient, build_lax, hamiltonians, resolvent_residue
from .phase import EPS_COLL, PhaseState, complex_to_pairs, write_json


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
        write_json(path, out)


def _re_im(z):
    """(k, ...) complex rows as (k, 2 * ...) floats, re and im interleaved."""
    return np.stack([z.real, z.imag], axis=-1).reshape(len(z), -1)


def _field(lax: LaxData, a, b, m):
    """(dx, dp, da, db) of the H_m vector field from the Lax assembly of a
    phase point or a stack, see :func:`lax._gradient`."""
    dx, dp, da, db = _gradient(lax, a, b, m)
    return dp, -dx, db, -da


def vector_field_gradient(state: PhaseState, m: int, eps_coll=EPS_COLL) -> Tangent:
    """Hamiltonian vector field of H_m:
    dx = dH/dp, dp = -dH/dx, da = dH/db, db = -dH/da.

    ``state`` may stack B phase points along a leading axis, with m an int
    or a (B,) integer array of one m per point; each point's tangent is
    bit-identical to its own call.
    """
    if (m.min() if isinstance(m, np.ndarray) else m) < 1:
        raise ValueError("m must be >= 1")
    return Tangent(*_field(build_lax(state, eps_coll), state.a, state.b, m))


def _residue_rates(state: PhaseState, lax: LaxData, m):
    """(L^m, K, da, db) of the residue route from the Lax assembly ``lax``.

    With G = (zI-L)^-1, res_inf z^m G = L^m and K = res_inf z^m GRG is the
    double-resolvent convolution; (da, db) are the spin-vector rates read
    off literally from the first-order-pole residue equations, before any
    gauge choice:

      da_i = res_inf z^m (G^T a)_i - sum_{k != i} a_k (GRG)_ki / (x_i - x_k),
      db_i = -res_inf z^m (G b)_i - sum_{k != i} b_k (GRG)_ik / (x_i - x_k).
    """
    Lm = resolvent_residue(lax.L, m)
    K = resolvent_residue(lax.L, m, lax.R)
    da = Lm.T @ state.a - (K.T * lax.inv) @ state.a
    db = -(Lm @ state.b) - (K * lax.inv) @ state.b
    return Lm, K, da, db


def vector_field_residue(state: PhaseState, m: int, eps_coll=EPS_COLL) -> Tangent:
    """Flow tangent derived through the resolvent-residue calculus.

    dx_i is the exact residue res_inf z^m (c_i . c*_i) = -(res_inf z^m GRG)_ii.
    The raw residue split of d(a_i b_i^T) into (da_i, db_i) leaves a free
    diagonal gauge rate per particle (only sufficient conditions fix the
    split); the rate is pinned to (res_inf z^m G)_ii = (L^m)_ii, the unique
    choice consistent with the t_2 equations of motion for the spin vectors.
    dp is delegated to the gradient kernel on the same Lax assembly, the
    only derivation of the momentum flow; keeping it there preserves the
    cross-check value of the two routes.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    lax = build_lax(state, eps_coll)
    Lm, K, da_raw, db_raw = _residue_rates(state, lax, m)
    xdot = -np.diag(K)
    mu = np.diag(Lm)[:, None]  # free diagonal gauge rate of the split
    adot = da_raw - mu * state.a
    bdot = db_raw + mu * state.b
    pdot = _field(lax, state.a, state.b, m)[1]
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


def _pack(state: PhaseState):
    """The phase point as one packed complex vector (x, p, a, b)."""
    return np.concatenate([state.x, state.p, state.a.ravel(), state.b.ravel()]).astype(complex)


def _at_time(exc, t, m, row):
    """CollidingPoles ``exc`` of stack row ``row`` at flow time t of its
    t_m flow."""
    return CollidingPoles(f"pole collision in the t_{m} flow: {exc}", time=t, row=row)


#: complex entries of one L stack in _record; bounds its temporaries
RECORD_CHUNK = 1 << 16


def _record(ms, times, Y, n, N, eps_coll) -> list[Trajectory]:
    """One Trajectory per row of the packed samples Y (k, B, dim) at the k
    flow times, with H_1..H_5 and the drift of all samples from stacked
    passes. The earliest sample within eps_coll, then its lowest row,
    raises CollidingPoles with its flow time and its row's m."""
    Y = np.asarray(Y, dtype=complex)
    k, B = Y.shape[:2]
    times = np.asarray(times, dtype=complex)
    H = np.empty((k, B, 5), dtype=complex)
    chunk = max(1, RECORD_CHUNK // (B * n * n))
    for lo in range(0, k, chunk):
        try:
            H[lo : lo + chunk] = hamiltonians(PhaseState(*_unpack(Y[lo : lo + chunk], n, N)),
                                              eps_coll=eps_coll)
        except CollidingPoles as exc:
            j, r = divmod(lo * B + exc.row, B)
            raise _at_time(exc, complex(times[j]), ms[r], r) from None
    drift = np.max(np.abs(PhaseState(*_unpack(Y, n, N)).constraint_values() - 1.0), axis=-1)
    out = []
    for r in range(B):
        block = np.ascontiguousarray(Y[:, r])
        block.setflags(write=False)
        out.append(Trajectory(times.copy(), *_unpack(block, n, N), drift=drift[:, r].copy(),
                              hamiltonians=H[:, r].copy(), m=int(ms[r])))
    return out


def integrate(state: PhaseState, spec: FlowSpec, eps_coll=EPS_COLL) -> Trajectory:
    """Integrate the t_m flow from 0 to spec.t_final: the one-row case of
    :func:`integrate_stack`."""
    return integrate_stack([(state, spec)], eps_coll)[0]


def integrate_stack(rows, eps_coll=EPS_COLL) -> list[Trajectory]:
    """Integrate B flows in lockstep and return one Trajectory per row.

    ``rows`` is a list of (PhaseState, FlowSpec) pairs. The states share
    (n, N), else DimensionMismatch; the specs may differ only in m, else
    ValueError, and RK45 takes a single row. Each segment is parameterized
    by arc length s in [0, |t_final|] with dy/ds = u F_m(y),
    u = t_final/|t_final|. Row results are bit-identical to integrating
    each row alone.

    The collision floor eps_coll is checked at every right-hand-side call,
    inside the Lax assembly, and at every recorded sample. A pole
    separation at or below it in any row stops the stack with
    CollidingPoles carrying the flow time, the row index in ``row`` and the
    row's m in the message (the lowest row if several collide at once). A
    failed RK45 solve raises IntegrationFailed. The constraint is
    monitored, never re-projected.
    """
    states, specs = zip(*rows)
    spec = specs[0]
    if any(replace(sp, m=spec.m) != spec for sp in specs):
        raise ValueError("the flow specs of a stack may differ only in m")
    if spec.method == "RK45" and len(rows) > 1:
        raise ValueError("RK45 integrates a single row")
    n, N = states[0].n_particles, states[0].spin_dim
    if any((st.n_particles, st.spin_dim) != (n, N) for st in states):
        raise DimensionMismatch("the states of a stack must share (n_particles, spin_dim)")
    ms = [sp.m for sp in specs]
    # one m for the whole stack keeps the kernel on its scalar path
    m = ms[0] if len(set(ms)) == 1 else np.array(ms)
    tfin = complex(spec.t_final)
    y = np.stack([_pack(st) for st in states])
    if tfin == 0:
        return _record(ms, [0.0], [y], n, N, eps_coll)

    S = abs(tfin)
    u = tfin / S
    n_steps = max(1, math.ceil(S / spec.dt))
    if n_steps > spec.max_steps:
        raise StepLimitExceeded(f"{n_steps} steps exceed the budget {spec.max_steps}")
    h = S / n_steps

    def rhs(s, y, out):
        """Write u F(y) of every row into the (x, p, a, b) views ``out``."""
        try:
            f = vector_field_gradient(PhaseState(*_unpack(y, n, N)), m, eps_coll)
        except CollidingPoles as exc:
            raise _at_time(exc, s * u, ms[exc.row], exc.row) from None
        for v, o in zip((f.dx, f.dp, f.da, f.db), out):
            np.multiply(v, u, out=o)

    if spec.method == "RK45":
        from scipy.integrate import solve_ivp

        def fun(s, v):
            # solve_ivp keeps the stage vectors it is given, so each call
            # gets a fresh one
            out = np.empty((1, v.size), dtype=complex)
            rhs(s, v[None], _unpack(out, n, N))
            return out[0]

        # the RK4 sampling grid; n_steps * h can round past the span's end
        s_eval = np.append(np.arange(0, n_steps, spec.record_every), n_steps) * h
        s_eval[-1] = S
        sol = solve_ivp(fun, (0.0, S), y[0], method="RK45", t_eval=s_eval,
                        rtol=1e-10, atol=1e-12)
        if not sol.success:
            raise IntegrationFailed(f"RK45 integration failed: {sol.message}")
        return _record(ms, sol.t * u, sol.y.T[:, None], n, N, eps_coll)

    k1, k2, k3, k4 = ks = [np.empty_like(y) for _ in range(4)]
    o1, o2, o3, o4 = (_unpack(k, n, N) for k in ks)
    times, samples = [0.0], [y]
    for step in range(n_steps):
        s = step * h
        rhs(s, y, o1)
        rhs(s + h / 2, y + h / 2 * k1, o2)
        rhs(s + h / 2, y + h / 2 * k2, o3)
        rhs(s + h, y + h * k3, o4)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if (step + 1) % spec.record_every == 0 or step + 1 == n_steps:
            times.append((step + 1) * h * u)
            samples.append(y)
    return _record(ms, times, samples, n, N, eps_coll)


def check_lax(trajectory: Trajectory, eps_coll=EPS_COLL) -> np.ndarray:
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
    lax = build_lax(PhaseState(tr.x, tr.p, tr.a, tr.b), eps_coll)
    L, M = lax.L, lax.M
    dL = (-L[4:] + 8 * L[3:-1] - 8 * L[1:-3] + L[:-4]) / (12 * h)
    Lk, Mk = L[2:-2], M[2:-2]
    return np.max(np.abs(dL - (Mk @ Lk - Lk @ Mk)), axis=(1, 2))


def _gauge_invariant_observables(state: PhaseState, eps_coll=EPS_COLL):
    """Observables insensitive to the per-particle gauge: pole positions in
    a canonical order, H_1..H_5 and the conjugation invariants tr R^k."""
    order = np.lexsort((state.x.imag, state.x.real))
    xs = state.x[order]
    R = state.spin_pairings()
    trR = np.array(
        [np.trace(np.linalg.matrix_power(R, k)) for k in range(1, state.n_particles + 1)]
    )
    return np.concatenate([xs, hamiltonians(state, eps_coll=eps_coll), trR])


def commutativity_check(state, m1, m2, s1, s2, dt, eps_coll=EPS_COLL) -> float:
    """Max distance of gauge-invariant observables between flowing
    (t_{m1} by s1, then t_{m2} by s2) and the reverse order. With s1 == s2
    the first legs run as one 2-row stack, and the second legs as another."""
    if m1 == m2:
        raise ValueError("m1 and m2 must differ")

    def legs(starts, flows):
        rows = [(st, FlowSpec(m=m, t_final=s, dt=dt)) for st, (m, s) in zip(starts, flows)]
        if s1 == s2:
            trajs = integrate_stack(rows, eps_coll)
        else:
            trajs = [integrate(st, spec, eps_coll) for st, spec in rows]
        return [tr.state(-1) for tr in trajs]

    first = legs([state, state], [(m1, s1), (m2, s2)])
    ab, ba = legs(first, [(m2, s2), (m1, s1)])
    return float(
        np.max(
            np.abs(
                _gauge_invariant_observables(ab, eps_coll)
                - _gauge_invariant_observables(ba, eps_coll)
            )
        )
    )
