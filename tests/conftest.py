import numpy as np
import pytest

from spincm import FlowSpec, build_lax, integrate, phase, random_state, solve_c
from spincm.errors import DegenerateDraw
from spincm.phase import EPS_COLL
from spincm.kp import _differences, _psi_matrices, _psi_t2_derivatives


@pytest.fixture
def state32():
    """Generic desk-scale instance: 3 particles, spin dimension 2."""
    return random_state(3, 2, seed=7)


def reference_random_state(n_particles, spin_dim, seed, separation=1.0):
    """The one-try-at-a-time sampler that defines phase.random_state's
    states: (x, p, a, b), or the DegenerateDraw it raises. It reads
    phase.DRAW_RETRIES at call time."""
    rng = np.random.default_rng(seed)
    half = 0.75 * separation * max(2.0, float(n_particles))

    def cbox(size, scale):
        re = rng.uniform(-scale, scale, size=size)
        im = rng.uniform(-scale, scale, size=size)
        return re + 1j * im

    x = np.empty(n_particles, dtype=complex)
    for i in range(n_particles):
        for _ in range(phase.DRAW_RETRIES):
            cand = cbox((), half)
            if i == 0 or np.min(np.abs(x[:i] - cand)) >= separation:
                x[i] = cand
                break
        else:
            raise DegenerateDraw(
                f"could not place pole {i} with separation {separation}"
            )
    p = cbox(n_particles, 0.5)
    a = cbox((n_particles, spin_dim), 1.0)
    b = np.empty_like(a)
    for i in range(n_particles):
        for _ in range(phase.DRAW_RETRIES):
            cand = cbox(spin_dim, 1.0)
            pairing = cand @ a[i]
            if abs(pairing) >= 1e-3:
                b[i] = cand / pairing
                break
        else:
            raise DegenerateDraw(f"degenerate spin draw for particle {i}")
    return x, p, a, b


def offgrid_points(state, count, seed=1234, margin=0.3):
    """Deterministic evaluation points away from every pole."""
    rng = np.random.default_rng(seed)
    span = max(2.0, float(np.max(np.abs(state.x))) + 1.0)
    pts = []
    while len(pts) < count:
        cand = complex(rng.uniform(-span, span), rng.uniform(-span, span))
        if np.min(np.abs(cand - state.x)) > margin:
            pts.append(cand)
    return np.array(pts)


def exact_flow_poles(state, m, t):
    """Poles of the t_m flow of ``state`` at the flow times t (k,), with no
    step error: the rank identity R = I + [L, X] makes the flow linear in
    X, X(t) = diag(x_0) - m t L_0^(m-1), whose eigenvalues are the poles.
    Returns (k, n) rows in no order; compare them with
    verify.matched_pole_error."""
    Q = m * np.linalg.matrix_power(build_lax(state).L, m - 1)
    return np.linalg.eigvals(np.diag(state.x) - np.multiply.outer(np.asarray(t), Q))


def t2_stencil(state, z, x, dt2):
    """Central differences over +-dt2 of the stripped psi and psi+ at x,
    each end of the t_2 flow the endpoint of an integrate on a grid of
    dt2/4: an oracle for the exact d/dt_2 of kp._psi_t2_derivatives,
    second order in dt2."""
    ends = [integrate(state, FlowSpec(m=2, t_final=t, dt=dt2 / 4)).state(-1) for t in (dt2, -dt2)]
    (psi_p, psid_p), (psi_m, psid_m) = (_psi_matrices(s, *solve_c(s, z), _differences(s, x, EPS_COLL))
                                        for s in ends)
    return (psi_p - psi_m) / (2 * dt2), (psid_p - psid_m) / (2 * dt2)


def stencil_errors(state, z, x, dt2s):
    """Max entrywise distance of :func:`t2_stencil` from the exact d/dt_2
    of psi and psi+, one per dt2."""
    exact = _psi_t2_derivatives(state, *solve_c(state, z), z, _differences(state, x, EPS_COLL))
    return [max(float(np.max(np.abs(fd - ex))) for fd, ex in zip(t2_stencil(state, z, x, h), exact))
            for h in dt2s]
