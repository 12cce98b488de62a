"""Acceptance gate: every core property of the hierarchy/pole-dynamics
correspondence, checked as a numerical residual at a pinned tolerance.
Each test prints a single pass/fail line for its criterion."""

import numpy as np
import pytest

from spincm import (
    build_lax,
    commutativity_check,
    contour_residue,
    first_order_pole_cancellation,
    grad_hamiltonian,
    hamiltonian,
    integrate,
    linear_problem_residual,
    poisson_bracket,
    random_state,
    resolvent_residue,
    residue_identity_residual,
    vector_field_gradient,
    vector_field_residue,
)
from spincm.flows import FlowSpec, check_lax
from spincm.lax import hamiltonian_h2_direct
from spincm.verify import (
    _scaled_error,
    finite_difference_gradient,
    scalar_cm_trajectory,
)

from conftest import offgrid_points


@pytest.fixture
def report(capsys):
    def emit(criterion, residual, threshold):
        ok = residual <= threshold
        with capsys.disabled():
            print(
                f"[acceptance] {criterion:<28} residual={residual:.3e} "
                f"threshold={threshold:.1e} {'PASS' if ok else 'FAIL'}"
            )
        assert ok, f"{criterion}: {residual:.3e} > {threshold:.1e}"

    return emit


def _instances(count, seed0=100, n=3, N=2):
    return [random_state(n, N, seed=seed0 + k) for k in range(count)]


def test_01_r_identity(report):
    worst = 0.0
    rng = np.random.default_rng(0)
    for k in range(100):
        n = int(rng.integers(2, 6))
        N = int(rng.integers(1, 4))
        s = random_state(n, N, seed=1000 + k)
        lax = build_lax(s)
        X = np.diag(s.x)
        comm = lax.L @ X - X @ lax.L
        worst = max(worst, float(np.max(np.abs(lax.R - np.eye(n) - comm))))
    report("r-identity", worst, 1e-12)


def test_02_hamiltonian_consistency(report):
    worst = 0.0
    for s in _instances(10):
        h2 = hamiltonian(s, 2)
        worst = max(worst, abs(h2 - hamiltonian_h2_direct(s)) / (1 + abs(h2)))
        lax = build_lax(s)
        for m in range(1, 6):
            Lm = np.linalg.matrix_power(lax.L, m)
            tr = np.trace(Lm)
            worst = max(worst, abs(np.trace(Lm @ lax.R) - tr) / (1 + abs(tr)))
    report("hamiltonian-consistency", worst, 1e-12)


def test_03_gradient_correctness(report):
    worst = 0.0
    for s in _instances(20):
        for m in range(1, 5):
            g = grad_hamiltonian(s, m)
            fd = finite_difference_gradient(s, m, h=1e-5)
            worst = max(worst, _scaled_error(fd, g))
    report("gradient-vs-fd", worst, 1e-6)


def test_04_involution(report):
    # scaled so that the bound is 1e-8 after dividing by (1+|Hm Hk|)^1/2
    worst = 0.0
    for s in _instances(20):
        h = {m: hamiltonian(s, m) for m in range(1, 5)}
        g = {m: grad_hamiltonian(s, m) for m in range(1, 5)}
        for m in range(1, 5):
            for k in range(m + 1, 5):
                pb = poisson_bracket(s, g[m], g[k])
                worst = max(worst, abs(pb) / (1 + abs(h[m] * h[k])) ** 0.5)
    report("involution", worst, 1e-8)


def test_05_dual_derivation(report):
    worst = 0.0
    for s in _instances(10):
        for m in range(1, 5):
            worst = max(
                worst,
                _scaled_error(
                    vector_field_residue(s, m), vector_field_gradient(s, m)
                ),
            )
    report("dual-derivation", worst, 1e-12)


def test_06_lax_residual(report, capsys):
    s = random_state(3, 2, seed=42)
    traj = integrate(s, FlowSpec(m=2, t_final=0.1, dt=1e-3, record_every=1))
    residual = float(np.max(check_lax(traj)))
    res = {}
    for dt in (4e-3, 2e-3):
        t = integrate(s, FlowSpec(m=2, t_final=0.1, dt=dt, record_every=1))
        res[dt] = float(np.max(check_lax(t)))
    ratio = res[4e-3] / res[2e-3]
    assert 8 <= ratio <= 40, f"no 4th-order shrink: ratio {ratio:.2f}"
    report("lax-residual", residual, 1e-7)


def test_07_conservation_and_constraint(report):
    s = random_state(3, 2, seed=42)
    worst_h, worst_drift = 0.0, 0.0
    for m in (2, 3):
        traj = integrate(s, FlowSpec(m=m, t_final=1.0, dt=1e-3, record_every=100))
        h0 = traj.hamiltonians[0]
        for h, drift in zip(traj.hamiltonians, traj.drift):
            dev = np.max(np.abs(h - h0) / (1 + np.abs(h0)))
            worst_h = max(worst_h, float(dev))
            worst_drift = max(worst_drift, drift)
    report("conservation", worst_h, 1e-8)
    report("constraint-drift", worst_drift, 1e-9)


def test_08_flow_commutativity(report):
    s = random_state(3, 2, seed=42)
    report("flow-commutativity", commutativity_check(s, 2, 3, 0.1, 0.1, 1e-3), 1e-6)


def test_09_linear_problem(report):
    s = random_state(3, 2, seed=42)
    z = 1.7 + 0.9j
    grid = offgrid_points(s, 4)
    r_coarse = linear_problem_residual(s, z, grid, dt2=2e-4)
    r_fine = linear_problem_residual(s, z, grid, dt2=1e-4)
    ratio = r_coarse / r_fine
    assert 3.5 <= ratio <= 4.5, f"no 2nd-order convergence: ratio {ratio:.3f}"
    report("linear-problem", r_fine, 1e-6)


def test_10_residue_identity(report):
    s = random_state(3, 2, seed=42)
    pts = offgrid_points(s, 6)
    worst = max(residue_identity_residual(s, m, pts) for m in (1, 2, 3))
    cancel = max(first_order_pole_cancellation(s, m) for m in (1, 2, 3))
    report("residue-identity", max(worst, cancel), 1e-10)


def test_11_scalar_reduction(report):
    s = random_state(3, 1, seed=5)
    traj = integrate(s, FlowSpec(m=2, t_final=0.5, dt=1e-3, record_every=50))
    _, xs_ref = scalar_cm_trajectory(s.x, 2 * s.p, t_final=0.5, dt=1e-3)
    worst = 0.0
    for t, x in zip(traj.t, traj.x):
        step = round(t.real / 1e-3)
        worst = max(worst, float(np.max(np.abs(x - xs_ref[step]))))
    report("scalar-reduction", worst, 1e-10)


def test_12_t1_shift(report):
    s = random_state(3, 2, seed=42)
    t_final = 0.37
    final = integrate(s, FlowSpec(m=1, t_final=t_final, dt=1e-2)).state(-1)
    worst = float(
        max(
            np.max(np.abs(final.x - (s.x - t_final))),
            np.max(np.abs(final.p - s.p)),
            np.max(np.abs(final.a - s.a)),
            np.max(np.abs(final.b - s.b)),
        )
    )
    report("t1-shift", worst, 1e-12)


def test_13_oracle_equivalence(report):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        L = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / 2
        A = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / 2
        m = int(rng.integers(0, 6))
        withA = A if rng.integers(0, 2) else None
        exact = resolvent_residue(L, m, withA)
        numeric = contour_residue(L, m, withA, nodes=256)
        worst = max(worst, float(np.max(np.abs(exact - numeric))))
    report("oracle-equivalence", worst, 1e-10)
