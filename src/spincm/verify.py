"""Named verification checks, orchestrated into a reproducible suite.

Every identity asserted by the construction is evaluated as a numerical
residual with an explicit threshold; the suite is a pure function of
(seed, config) under the fixed-step integrator.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import kp
from .config import DEFAULT_THRESHOLDS, Config  # noqa: F401 (read as verify.DEFAULT_THRESHOLDS)
from .errors import SpinCMError
from .flows import (
    FlowSpec,
    Tangent,
    check_lax,
    commutativity_check,
    integrate,
    vector_field_gradient,
    vector_field_residue,
)
from .lax import (
    Gradient,
    build_lax,
    grad_hamiltonian,
    hamiltonian,
    hamiltonian_h2_direct,
    poisson_bracket,
)
from .phase import PhaseState, _freeze, random_state

SUITE_VERSION = "1"

#: settings of individual checks
CONSERVATION_T = 1.0
COMMUTATIVITY_S = 0.1
LINEAR_PROBLEM_DT2 = 1e-4
FD_STEP = 1e-5


@dataclass
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool
    skipped: bool = False
    details: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    seed: object
    n_particles: int
    spin_dim: int
    suite_version: str
    results: list[CheckResult] = field(default_factory=list)

    def all_passed(self):
        return all(r.passed for r in self.results if not r.skipped)

    def to_dict(self):
        return {
            "seed": self.seed,
            "n_particles": self.n_particles,
            "spin_dim": self.spin_dim,
            "suite_version": self.suite_version,
            "all_passed": self.all_passed(),
            "results": [
                {
                    "name": r.name,
                    "residual": r.residual,
                    "threshold": r.threshold,
                    "passed": r.passed,
                    "skipped": r.skipped,
                    "details": r.details,
                }
                for r in self.results
            ],
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    def summary(self):
        lines = [
            f"verification suite v{self.suite_version} "
            f"(seed={self.seed}, particles={self.n_particles}, spin={self.spin_dim})",
            f"{'check':<26}{'residual':>12}  {'threshold':>10}  status",
        ]
        for r in self.results:
            status = "SKIP" if r.skipped else ("pass" if r.passed else "FAIL")
            lines.append(
                f"{r.name:<26}{r.residual:>12.3e}  {r.threshold:>10.1e}  {status}"
            )
        lines.append("overall: " + ("pass" if self.all_passed() else "FAIL"))
        return "\n".join(lines)


def finite_difference_gradient(state: PhaseState, m: int, h: float = 1e-5, axis="real"):
    """Independent central finite-difference gradient of H_m.

    Perturbs every phase variable along the real or imaginary axis; for a
    holomorphic Hamiltonian both axes must recover the same complex
    derivative ((f(q+ih) - f(q-ih))/(2ih) for the imaginary axis).
    """
    step = h if axis == "real" else 1j * h

    def diff(build):
        return (hamiltonian(build(step), m) - hamiltonian(build(-step), m)) / (2 * step)

    n, N = state.n_particles, state.spin_dim
    dx = np.empty(n, dtype=complex)
    dp = np.empty(n, dtype=complex)
    da = np.empty((n, N), dtype=complex)
    db = np.empty((n, N), dtype=complex)
    for i in range(n):
        dx[i] = diff(lambda e, i=i: _perturb(state, "x", (i,), e))
        dp[i] = diff(lambda e, i=i: _perturb(state, "p", (i,), e))
        for g in range(N):
            da[i, g] = diff(lambda e, i=i, g=g: _perturb(state, "a", (i, g), e))
            db[i, g] = diff(lambda e, i=i, g=g: _perturb(state, "b", (i, g), e))
    return Gradient(dx=dx, dp=dp, da=da, db=db)


def _perturb(state, name, idx, eps):
    arrs = {k: np.array(getattr(state, k)) for k in ("x", "p", "a", "b")}
    arrs[name][idx] += eps
    return PhaseState(**{k: _freeze(v) for k, v in arrs.items()})


def _grad_relative_error(g: Gradient, ref: Gradient) -> float:
    out = 0.0
    for f in ("dx", "dp", "da", "db"):
        u, v = getattr(g, f), getattr(ref, f)
        out = max(out, float(np.max(np.abs(u - v) / (1.0 + np.abs(v)))))
    return out


def _tangent_relative_error(t: Tangent, ref: Tangent) -> float:
    out = 0.0
    for f in ("dx", "da", "db"):  # dp shared by construction
        u, v = getattr(t, f), getattr(ref, f)
        out = max(out, float(np.max(np.abs(u - v) / (1.0 + np.abs(v)))))
    return out


def scalar_cm_trajectory(x0, v0, t_final, dt):
    """Independent RK4 integrator for the scalar rational Calogero-Moser
    system x_i'' = -8 sum_{k != i} (x_i - x_k)^-3. Returns (times, xs)."""
    x0 = np.asarray(x0, dtype=complex)
    v0 = np.asarray(v0, dtype=complex)
    n_steps = max(1, int(np.ceil(abs(t_final) / dt)))
    h = t_final / n_steps

    def acc(x):
        d = x[:, None] - x[None, :]
        np.fill_diagonal(d, 1.0)
        inv3 = d**-3
        np.fill_diagonal(inv3, 0.0)
        return -8.0 * np.sum(inv3, axis=1)

    def rhs(y):
        x, v = y[: len(x0)], y[len(x0) :]
        return np.concatenate([v, acc(x)])

    y = np.concatenate([x0, v0])
    ts = [0.0]
    xs = [x0.copy()]
    for k in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + h / 2 * k1)
        k3 = rhs(y + h / 2 * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        ts.append((k + 1) * h)
        xs.append(y[: len(x0)].copy())
    return np.array(ts), np.array(xs)


# ---------------------------------------------------------------------------
# individual checks; each returns (residual, details)


def _check_constraint(state, cfg):
    return state.constraint_drift(), {}


def _check_r_identity(state, cfg):
    lax = build_lax(state)
    comm = lax.L @ lax.X - lax.X @ lax.L
    n = state.n_particles
    return float(np.max(np.abs(lax.R - np.eye(n) - comm))), {}


def _check_trace_lr(state, cfg):
    lax = build_lax(state)
    worst = 0.0
    for m in range(1, 6):
        Lm = np.linalg.matrix_power(lax.L, m)
        lhs = np.trace(Lm @ lax.R)
        rhs = np.trace(Lm)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return worst, {"m_max": 5}


def _check_h2_direct(state, cfg):
    h2 = hamiltonian(state, 2)
    direct = hamiltonian_h2_direct(state)
    return abs(h2 - direct) / (1.0 + abs(h2)), {}


def _check_gradient_fd(state, cfg):
    worst = 0.0
    for m in range(1, 5):
        g = grad_hamiltonian(state, m)
        for axis in ("real", "imag"):
            fd = finite_difference_gradient(state, m, h=FD_STEP, axis=axis)
            worst = max(worst, _grad_relative_error(fd, g))
    return worst, {"h": FD_STEP, "m_max": 4}


def _check_involution(state, cfg):
    grads = {m: grad_hamiltonian(state, m) for m in range(1, 5)}
    hs = {m: hamiltonian(state, m) for m in range(1, 5)}
    worst = 0.0
    for m in range(1, 5):
        for k in range(m + 1, 5):
            pb = poisson_bracket(state, grads[m], grads[k])
            scale = (1.0 + abs(hs[m] * hs[k])) ** 0.5
            worst = max(worst, abs(pb) / scale)
    return worst, {"pairs": "1<=m<k<=4"}


def _check_dual_derivation(state, cfg):
    worst = 0.0
    for m in range(1, 5):
        worst = max(
            worst,
            _tangent_relative_error(
                vector_field_residue(state, m), vector_field_gradient(state, m)
            ),
        )
    return worst, {"m_max": 4}


def _check_lax_residual(state, cfg):
    spec = FlowSpec(m=2, t_final=50 * cfg.dt, dt=cfg.dt, record_every=1)
    traj = integrate(state, spec)
    return float(np.max(check_lax(traj))), {"dt": cfg.dt}


def _conservation_trajectories(state, cfg):
    out = {}
    for m in (2, 3):
        spec = FlowSpec(m=m, t_final=CONSERVATION_T, dt=cfg.dt, record_every=50)
        out[m] = integrate(state, spec)
    return out


def _check_conservation(state, cfg, trajs):
    worst = 0.0
    for traj in trajs.values():
        H = traj.hamiltonians
        dev = np.abs(H[1:] - H[0]) / (1.0 + np.abs(H[0]))
        worst = max(worst, float(np.max(dev, initial=0.0)))
    return worst, {"T": CONSERVATION_T, "dt": cfg.dt, "flows": [2, 3]}


def _check_constraint_drift(state, cfg, trajs):
    worst = max(float(np.max(traj.drift)) for traj in trajs.values())
    return worst, {"T": CONSERVATION_T, "dt": cfg.dt}


def _check_commutativity(state, cfg):
    s = COMMUTATIVITY_S
    return commutativity_check(state, 2, 3, s, s, cfg.dt), {"s": s, "dt": cfg.dt}


def _check_rank1_residues(state, cfg):
    z = 1.3 + 0.7j
    c, c_star = kp.solve_c(state, z)
    worst = 0.0
    for i in range(state.n_particles):
        for res in (np.outer(state.a[i], c[i]), np.outer(c_star[i], state.b[i])):
            sv = np.linalg.svd(res, compute_uv=False)
            if sv[0] > 0 and len(sv) > 1:
                worst = max(worst, float(sv[1] / sv[0]))
    return worst, {"z": [z.real, z.imag]}


def _check_w1_v(state, cfg):
    h = 1e-6
    xs = _offgrid_points(state, 4)
    worst = 0.0
    for x in xs:
        fd = (kp.w1(state, x + h) - kp.w1(state, x - h)) / (2 * h)
        v = kp.potential_v(state, x)
        worst = max(worst, float(np.max(np.abs(fd + v / 2) / (1.0 + np.abs(v / 2)))))
    return worst, {"h": h}


def _check_t1_shift(state, cfg):
    s = 0.3
    spec = FlowSpec(m=1, t_final=s, dt=cfg.dt)
    final = integrate(state, spec).state(-1)
    worst = float(np.max(np.abs(final.x - (state.x - s))))
    worst = max(worst, float(np.max(np.abs(final.p - state.p))))
    worst = max(worst, float(np.max(np.abs(final.a - state.a))))
    worst = max(worst, float(np.max(np.abs(final.b - state.b))))
    for x in _offgrid_points(state, 3):
        worst = max(
            worst, float(np.max(np.abs(kp.w1(final, x) - kp.w1(state, x + s))))
        )
    return worst, {"s": s}


def _check_linear_problem(state, cfg):
    z = 1.3 + 0.7j
    xs = _offgrid_points(state, 6)
    res = kp.linear_problem_residual(state, None, z, xs, LINEAR_PROBLEM_DT2)
    return res, {"z": [z.real, z.imag], "dt2": LINEAR_PROBLEM_DT2}


def _check_residue_identity(state, cfg):
    xs = _offgrid_points(state, 5)
    worst = 0.0
    for m in (1, 2, 3):
        worst = max(worst, kp.residue_identity_residual(state, m, xs))
    return worst, {"m": [1, 2, 3]}


def _check_first_order_cancellation(state, cfg):
    worst = 0.0
    for m in (1, 2, 3):
        worst = max(worst, kp.first_order_pole_cancellation(state, m))
    return worst, {"m": [1, 2, 3]}


def _check_n1_reduction(state, cfg):
    T, dt = 0.5, 5e-4
    spec = FlowSpec(m=2, t_final=T, dt=dt, record_every=200)
    traj = integrate(state, spec)
    ref_t, ref_x = scalar_cm_trajectory(state.x, 2 * state.p, T, dt)
    k = np.rint(traj.t.real / dt).astype(int)
    return float(np.max(np.abs(traj.x - ref_x[k]))), {"T": T, "dt": dt}


def _offgrid_points(state, count):
    """Deterministic evaluation points kept away from every pole."""
    rng = np.random.default_rng(12345)
    span = max(2.0, float(np.max(np.abs(state.x))) + 1.0)
    pts = []
    while len(pts) < count:
        cand = complex(rng.uniform(-span, span), rng.uniform(-span, span))
        if np.min(np.abs(cand - state.x)) > 0.3:
            pts.append(cand)
    return np.array(pts)


def run_suite(state=None, config=None, seed=42, n_particles=3, spin_dim=2):
    """Run every enabled check on a given state (or on a freshly generated
    one for (seed, n_particles, spin_dim)) and collect a report. Individual
    check errors are recorded as failures; checks whose prerequisite
    integration broke down are marked skipped."""
    cfg = config if config is not None else Config()
    if state is None:
        state = random_state(n_particles, spin_dim, seed)
        descriptor = seed
    else:
        descriptor = "explicit"
    report = VerificationReport(
        seed=descriptor,
        n_particles=state.n_particles,
        spin_dim=state.spin_dim,
        suite_version=SUITE_VERSION,
    )

    def run(name, fn, skip_reason=None):
        thr = cfg.thresholds[name]
        t0 = time.perf_counter()
        if skip_reason is not None:
            report.results.append(
                CheckResult(
                    name=name, residual=float("nan"), threshold=thr, passed=False,
                    skipped=True, details={"reason": skip_reason},
                )
            )
            return
        try:
            residual, details = fn()
            passed = residual <= thr
        except SpinCMError as exc:
            residual, details, passed = float("inf"), {"error": str(exc)}, False
        details["seconds"] = round(time.perf_counter() - t0, 4)
        report.results.append(
            CheckResult(
                name=name, residual=float(residual), threshold=thr,
                passed=bool(passed), details=details,
            )
        )

    run("constraint", lambda: _check_constraint(state, cfg))
    run("r_identity", lambda: _check_r_identity(state, cfg))
    run("trace_lr", lambda: _check_trace_lr(state, cfg))
    run("h2_direct", lambda: _check_h2_direct(state, cfg))
    run("gradient_fd", lambda: _check_gradient_fd(state, cfg))
    run("involution", lambda: _check_involution(state, cfg))
    run("dual_derivation", lambda: _check_dual_derivation(state, cfg))
    run("lax_residual", lambda: _check_lax_residual(state, cfg))

    trajs, traj_error = None, None
    try:
        trajs = _conservation_trajectories(state, cfg)
    except SpinCMError as exc:
        traj_error = f"integration failed: {exc}"
    run(
        "conservation",
        (lambda: _check_conservation(state, cfg, trajs)) if trajs else None,
        skip_reason=traj_error,
    )
    run(
        "constraint_drift",
        (lambda: _check_constraint_drift(state, cfg, trajs)) if trajs else None,
        skip_reason=traj_error,
    )
    run("commutativity", lambda: _check_commutativity(state, cfg))
    run("rank1_residues", lambda: _check_rank1_residues(state, cfg))
    run("w1_v_consistency", lambda: _check_w1_v(state, cfg))
    run("t1_shift", lambda: _check_t1_shift(state, cfg))
    run("linear_problem", lambda: _check_linear_problem(state, cfg))
    run("residue_identity", lambda: _check_residue_identity(state, cfg))
    run("first_order_cancellation", lambda: _check_first_order_cancellation(state, cfg))
    if state.spin_dim == 1:
        run("n1_reduction", lambda: _check_n1_reduction(state, cfg))
    else:
        run("n1_reduction", None, skip_reason="only defined for spin_dim == 1")
    return report
