import numpy as np
import pytest

from spincm import build_lax, random_state


@pytest.fixture
def state32():
    """Generic desk-scale instance: 3 particles, spin dimension 2."""
    return random_state(3, 2, seed=7)


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
