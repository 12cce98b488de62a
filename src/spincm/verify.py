"""Named verification checks, orchestrated into a reproducible suite.

Every identity asserted by the construction is evaluated as a numerical
residual against its threshold in DEFAULT_THRESHOLDS, which is pinned: no
setting changes it. The suite is a pure function of (seed, config). Its
flows run on the error-controlled DOP853 stepper at the pinned tolerances
dop853.RTOL and dop853.ATOL; Config.dt sets their sampling grid and each
flow's first step, after which the error estimate alone chooses the steps.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import kp
from .config import Config
from .errors import CollidingPoles, SpinCMError
from .flows import (
    FlowSpec,
    _commutativity_gap,
    _commutativity_rows,
    _first_error,
    _lax_pair,
    _leg_spec,
    _pole_pairing,
    _scaled_error,
    _trajectories,
    integrate_stack,
    vector_field_gradient,
    vector_field_residue,
)
from .lax import (
    Tangent,
    _chunked,
    _pack,
    _powers,
    _unpack,
    build_lax,
    grad_hamiltonian,
    hamiltonian,
    hamiltonian_h2_direct,
    poisson_bracket,
)
from .phase import EPS_COLL, PhaseState, _positive_finite, random_state, write_json

SUITE_VERSION = "9"

#: settings of individual checks
CONSERVATION_T = 1.0
COMMUTATIVITY_S = 0.1
T1_SHIFT_S = 0.3
N1_REDUCTION_T = 0.5
FD_STEP = 1e-5

#: residual threshold of every check, by check name, in the suite's order;
#: a constant of the program, which no config file or argument changes
DEFAULT_THRESHOLDS = {
    "constraint": 1e-12,
    "r_identity": 1e-12,
    "trace_lr": 1e-12,
    "h2_direct": 1e-12,
    "gradient_fd": 1e-6,
    "involution": 1e-8,
    "dual_derivation": 1e-12,
    "lax_residual": 1e-7,
    "conservation": 1e-8,
    "constraint_drift": 1e-9,
    "commutativity": 1e-6,
    "rank1_residues": 1e-12,
    "w1_v_consistency": 1e-6,
    "t1_shift": 1e-12,
    "linear_problem": 1e-6,
    "residue_identity": 1e-10,
    "first_order_cancellation": 1e-12,
    "n1_reduction": 1e-10,
}


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
    #: wall time of the suite's shared flow stack, outside every check's seconds
    integration_seconds: float = 0.0

    def all_passed(self):
        return all(r.passed for r in self.results if not r.skipped)

    def to_dict(self):
        return {
            "seed": self.seed,
            "n_particles": self.n_particles,
            "spin_dim": self.spin_dim,
            "suite_version": self.suite_version,
            "all_passed": self.all_passed(),
            "integration_seconds": self.integration_seconds,
            "results": [asdict(r) for r in self.results],
        }

    def save(self, path):
        write_json(path, self.to_dict())

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


def finite_difference_gradient(state: PhaseState, m: int, h: float = FD_STEP, axis="real",
                               eps_coll=EPS_COLL):
    """Independent central finite-difference gradient of H_m, a Tangent
    (dH/dx, dH/dp, dH/da, dH/db).

    Perturbs every phase variable along the real or imaginary axis; for a
    holomorphic Hamiltonian both axes must recover the same complex
    derivative ((f(q+ih) - f(q-ih))/(2ih) for the imaginary axis). The
    packed point q +- step e_j, for every variable j, forms one (2 dim, dim)
    stack whose H_m comes from :func:`hamiltonian`, the matrix_power route,
    in chunks (:func:`spincm.lax._chunked`). A perturbed point with two
    poles within ``eps_coll`` raises CollidingPoles for the whole call,
    without a row. Raises ValueError for an axis other than "real" or "imag"
    or an h that is not positive and finite.
    """
    if axis not in ("real", "imag"):
        raise ValueError(f"axis must be 'real' or 'imag', got {axis!r}")
    _positive_finite(h, "h")
    step = h if axis == "real" else 1j * h
    n, N = state.n_particles, state.spin_dim
    y = _pack(state)
    Y = y + step * np.kron(np.eye(y.size), [[1.0], [-1.0]])  # rows q + step e_j, q - step e_j
    try:
        H = _chunked(lambda st: hamiltonian(st, m, eps_coll), Y, n, N)
    except CollidingPoles as exc:
        raise CollidingPoles(str(exc)) from None
    return Tangent(*_unpack((H[0::2] - H[1::2]) / (2 * step), n, N))


def scalar_cm_poles(x0, v0, t):
    """Poles of the scalar rational Calogero-Moser system
    x_i'' = -8 sum_{k != i} (x_i - x_k)^-3 at the times t (k,), in closed
    form (Olshanetsky-Perelomov): the eigenvalues of
    diag(x0) + t (diag(v0) - 2/(x_i - x_k)), as (k, n) rows in no order."""
    x0 = np.asarray(x0, dtype=complex)
    d = x0[:, None] - x0[None, :] + np.eye(len(x0))
    L = np.diag(np.asarray(v0, dtype=complex)) - 2 / d * (1 - np.eye(len(x0)))
    return np.linalg.eigvals(np.diag(x0) + np.multiply.outer(np.asarray(t), L))


def matched_pole_error(x, ref) -> float:
    """max |x - ref| over (k, n) pole rows, each row of ref paired to x
    closest pair first (flows._pole_pairing): while every error is below
    half the smallest pole separation, the pairing that minimizes it."""
    x, ref = np.asarray(x), np.asarray(ref)
    return float(np.max(np.abs(x - np.take_along_axis(ref, _pole_pairing(x, ref), axis=1))))


# ---------------------------------------------------------------------------
# the checks: _check_<name>(state, cfg, flows) -> (terms, details) for each
# name of DEFAULT_THRESHOLDS, collisions checked at cfg.eps_coll. A term
# (u, ref, scale) holds two routes to one quantity (flows._scaled_error); a
# term (residual, 0.0, 1.0), a residual already differenced in kp or flows


def _check_constraint(state, cfg, flows):
    return [(state.constraint_values(), 1.0, 1.0)], {}


def _check_r_identity(state, cfg, flows):
    lax = build_lax(state, cfg.eps_coll)
    X = np.diag(state.x)
    return [(lax.R - np.eye(state.n_particles), lax.L @ X - X @ lax.L, 1.0)], {}


def _check_trace_lr(state, cfg, flows):
    lax = build_lax(state, cfg.eps_coll)
    Lm = np.array(_powers(lax, 5))
    lhs = np.trace(Lm @ lax.R, axis1=-2, axis2=-1)
    return [(lhs, np.trace(Lm, axis1=-2, axis2=-1), None)], {"m_max": 5}


def _check_h2_direct(state, cfg, flows):
    h2 = hamiltonian(state, 2, cfg.eps_coll)
    return [(hamiltonian_h2_direct(state, cfg.eps_coll), h2, None)], {}


def _check_gradient_fd(state, cfg, flows):
    # each perturbed point moves one pole by h: a twentieth of the pole
    # separation keeps every pair at 19/20 of it or more
    h = min(FD_STEP, state.min_separation() / 20)
    g = {m: grad_hamiltonian(state, m, cfg.eps_coll) for m in range(1, 5)}
    return [(finite_difference_gradient(state, m, h=h, axis=ax, eps_coll=cfg.eps_coll), g[m], None)
            for m in range(1, 5) for ax in ("real", "imag")], {"h": h, "m_max": 4}


def _check_involution(state, cfg, flows):
    # {H_m, H_k} = 0 at the scale sqrt(1 + |H_m H_k|); Python's abs, as
    # np.abs of a complex can differ from it in the last bit
    grads = {m: grad_hamiltonian(state, m, cfg.eps_coll) for m in range(1, 5)}
    hs = {m: hamiltonian(state, m, cfg.eps_coll) for m in range(1, 5)}
    return [(abs(poisson_bracket(state, grads[m], grads[k])), 0.0,
             (1.0 + abs(hs[m] * hs[k])) ** 0.5)
            for m in range(1, 5) for k in range(m + 1, 5)], {"pairs": "1<=m<k<=4"}


def _check_dual_derivation(state, cfg, flows):
    # dp of both routes comes from the same gradient kernel and adds 0; both
    # routes share build_lax's assembly and _powers' L^k
    return [(vector_field_residue(state, m, cfg.eps_coll),
             vector_field_gradient(state, m, cfg.eps_coll), None)
            for m in range(1, 5)], {"m_max": 4}


def _suite_flows(state, cfg):
    """Every flow of ``state`` that the checks read, as one ragged
    stack: {name: Trajectory, or the SpinCMError that ended the flow}.
    cfg.dt is the sampling grid: the t_2 and t_3 flows over
    [0, CONSERVATION_T] (for conservation and constraint_drift) record
    every 50 grid points and n1_reduction (spin_dim 1 only) every 100.
    t1_shift and the four legs of commutativity are legs
    (flows._leg_spec), which record only their endpoints; the two second
    legs of commutativity are chained rows, which join the stack when
    their first legs finish (flows._commutativity_rows)."""
    specs = {
        "t2": FlowSpec(m=2, t_final=CONSERVATION_T, dt=cfg.dt, record_every=50),
        "t3": FlowSpec(m=3, t_final=CONSERVATION_T, dt=cfg.dt, record_every=50),
        "t1_shift": _leg_spec(1, T1_SHIFT_S),
    }
    if state.spin_dim == 1:
        specs["n1_reduction"] = FlowSpec(m=2, t_final=N1_REDUCTION_T, dt=cfg.dt,
                                         record_every=100)
    rows = [(state, spec) for spec in specs.values()]
    s = COMMUTATIVITY_S
    rows += _commutativity_rows(state, 2, 3, s, s, first=len(rows))
    names = [*specs, "commutativity_t2", "commutativity_t3",
             "commutativity_t2_t3", "commutativity_t3_t2"]
    return dict(zip(names, integrate_stack(rows, cfg.eps_coll)))


def _check_lax_residual(state, cfg, flows):
    # dL along the H_m field and [M_m, L], both from _powers; it covers dx and
    # dp, as the kernel's da, db are -M_m^T a, M_m b by its own formula
    pairs = [_lax_pair(state, m, cfg.eps_coll) for m in range(1, 6)]
    return [(dL, ML, 1.0 + np.max(np.abs(ML))) for dL, ML in pairs], {"m_max": 5}


def _check_conservation(state, cfg, flows):
    terms = [(flows[t].hamiltonians[1:], flows[t].hamiltonians[0], None) for t in ("t2", "t3")]
    return terms, {"T": CONSERVATION_T, "dt": cfg.dt, "flows": [2, 3]}


def _check_constraint_drift(state, cfg, flows):
    # integrate_stack records max_i |b_i^T a_i - 1| at every sample
    return [(flows[t].drift, 0.0, 1.0) for t in ("t2", "t3")], {"T": CONSERVATION_T, "dt": cfg.dt}


def _check_commutativity(state, cfg, flows):
    # _commutativity_gap pairs the poles of both orders before it compares
    legs = [flows[f"commutativity_{leg}"] for leg in ("t2", "t3", "t2_t3", "t3_t2")]
    return [(_commutativity_gap(legs), 0.0, 1.0)], {"s": COMMUTATIVITY_S}


def _check_rank1_residues(state, cfg, flows):
    # rank 1: each nonzero residue's second singular value against its first
    z = 1.3 + 0.7j
    c, c_star = kp.solve_c(state, z, cfg.eps_coll)
    res = np.concatenate([state.a[:, :, None] * c[:, None, :],
                          c_star[:, :, None] * state.b[:, None, :]])  # (2n, N, N)
    sv = np.linalg.svd(res, compute_uv=False)
    sv = sv[sv[:, 0] > 0]
    return [(sv[:, 1:2], 0.0, sv[:, :1])], {"z": [z.real, z.imag]}


def _check_w1_v_consistency(state, cfg, flows):
    h = 1e-6
    xs = _offgrid_points(state, 4)
    fd = (kp.w1(state, xs + h, cfg.eps_coll) - kp.w1(state, xs - h, cfg.eps_coll)) / (2 * h)
    return [(fd, -kp.potential_v(state, xs, cfg.eps_coll) / 2, None)], {"h": h}


def _check_t1_shift(state, cfg, flows):
    # the t_1 flow shifts every pole by -s and fixes p, a and b, so
    # w^(1)(x) of the final state is w^(1)(x + s) of the initial one
    s = T1_SHIFT_S
    final = _trajectories([flows["t1_shift"]])[0].state(-1)
    xs = _offgrid_points(state, 3)
    return [(final, replace(state, x=state.x - s), None),
            (kp.w1(final, xs, cfg.eps_coll), kp.w1(state, xs + s, cfg.eps_coll), None)], {"s": s}


def _check_linear_problem(state, cfg, flows):
    # kp differences both sides of the linear problem and its adjoint
    z = 1.3 + 0.7j
    xs = _offgrid_points(state, 6)
    return ([(kp.linear_problem_residual(state, z, xs, eps_coll=cfg.eps_coll), 0.0, 1.0)],
            {"z": [z.real, z.imag]})


def _check_residue_identity(state, cfg, flows):
    # kp differences res_inf(z^m psi psi+) and -d_{t_m} w^(1)
    xs = _offgrid_points(state, 5)
    return ([(kp.residue_identity_residual(state, m, xs, cfg.eps_coll), 0.0, 1.0)
             for m in (1, 2, 3)], {"m": [1, 2, 3]})


def _check_first_order_cancellation(state, cfg, flows):
    # kp forms u_i . b_i + a_i . v_i, which the identity sets to 0
    return ([(kp.first_order_pole_cancellation(state, m, cfg.eps_coll), 0.0, 1.0)
             for m in (1, 2, 3)], {"m": [1, 2, 3]})


def _check_n1_reduction(state, cfg, flows):
    # matched_pole_error pairs the poles to the closed form before it compares
    traj = _trajectories([flows["n1_reduction"]])[0]
    ref = scalar_cm_poles(state.x, 2 * state.p, traj.t)
    details = {"T": N1_REDUCTION_T, "samples": len(traj.t)}
    return [(matched_pole_error(traj.x, ref), 0.0, 1.0)], details


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
    """Run every check of DEFAULT_THRESHOLDS, in its order, on a given state
    (or on a freshly generated one for (seed, n_particles, spin_dim)) and
    collect a report. The flows of the five flow checks run first, as one
    stack (:func:`_suite_flows`), timed in ``integration_seconds``; the
    other checks, lax_residual included, read the point alone. Each check's
    residual is the largest _scaled_error over its terms. Check errors, a
    flow that ended early included, are recorded as failures; conservation
    and constraint_drift are marked skipped when their t_2/t_3 pair broke
    down, naming the pair's first error."""
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
    t0 = time.perf_counter()
    flows = _suite_flows(state, cfg)
    report.integration_seconds = round(time.perf_counter() - t0, 4)

    skips = {} if state.spin_dim == 1 else {"n1_reduction": "only defined for spin_dim == 1"}
    exc = _first_error([flows["t2"], flows["t3"]])
    if exc is not None:
        skips["conservation"] = skips["constraint_drift"] = f"integration failed: {exc}"
    for name, thr in DEFAULT_THRESHOLDS.items():
        t0 = time.perf_counter()
        if name in skips:
            residual, details = float("nan"), {"reason": skips[name]}
        else:
            try:  # looked up at each call, so a wrapper set on the module is called
                terms, details = globals()[f"_check_{name}"](state, cfg, flows)
                residual = float(np.max([_scaled_error(*term) for term in terms]))
            except SpinCMError as exc:
                residual, details = float("inf"), {"error": str(exc)}
            details["seconds"] = round(time.perf_counter() - t0, 4)
        # an error's inf and a skip's nan fail every (finite) threshold
        report.results.append(CheckResult(
            name=name, residual=residual, threshold=thr, passed=bool(residual <= thr),
            skipped=name in skips, details=details))
    return report
