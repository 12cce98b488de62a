import re

import numpy as np
import pytest

from spincm import (
    BASample,
    PhaseState,
    PoleHit,
    SpectralCollision,
    TauParams,
    ba_eval,
    build_lax,
    dlog_tau_dx,
    first_order_pole_cancellation,
    linear_problem_residual,
    new_state,
    potential_v,
    psi_pair,
    random_state,
    residue_identity_residual,
    solve_c,
    tau,
    vector_field_residue,
    w1,
)
from spincm import kp
from spincm.config import DEFAULT_THRESHOLDS
from spincm.kp import _differences, _psi_matrices
from spincm.lax import _residue_rates, _vector_field
from spincm.phase import EPS_COLL, TimeVector, pairs_to_complex

from conftest import offgrid_points, stencil_errors

Z0 = 1.7 + 0.9j


def test_solve_c_defining_equations(state32):
    L = build_lax(state32).L
    A = Z0 * np.eye(3) - L
    c, c_star = solve_c(state32, Z0)
    assert np.max(np.abs(A @ c + state32.b)) <= 1e-12
    assert np.max(np.abs(A.T @ c_star - state32.a)) <= 1e-12


def test_solve_c_large_z_asymptotics(state32):
    z = 1e8
    c, c_star = solve_c(state32, z)
    assert np.max(np.abs(c + state32.b / z)) <= 1e-12
    assert np.max(np.abs(c_star - state32.a / z)) <= 1e-12


def test_solve_c_single_particle_closed_form():
    # one particle, one spin component: L = (-p), so c = -b/(z + p)
    p = 0.4 - 0.3j
    s = new_state([0.2], [p], [[1.0]], [[1.0]])
    c, c_star = solve_c(s, Z0)
    assert c[0, 0] == pytest.approx(-1.0 / (Z0 + p), abs=1e-14)
    assert c_star[0, 0] == pytest.approx(1.0 / (Z0 + p), abs=1e-14)


def test_solve_c_spectral_collision(state32):
    ev = np.linalg.eigvals(build_lax(state32).L)[0]
    with pytest.raises(SpectralCollision):
        solve_c(state32, complex(ev))


def test_psi_pair_pole_hit(state32):
    with pytest.raises(PoleHit):
        psi_pair(state32, None, Z0, complex(state32.x[0]))


def test_psi_pair_identity_at_large_x(state32):
    s = psi_pair(state32, None, Z0, 1e9)
    I = np.eye(2)
    assert np.max(np.abs(s.psi_tilde - I)) <= 1e-8
    assert np.max(np.abs(s.psi_dagger_tilde - I)) <= 1e-8


def test_psi_pair_single_particle_closed_form():
    p = 0.1 + 0.6j
    x1 = -0.4
    s = new_state([x1], [p], [[1.0]], [[1.0]])
    x = 2.3 + 0.5j
    sample = psi_pair(s, None, Z0, x)
    expected = 1.0 - 1.0 / ((Z0 + p) * (x - x1))
    assert sample.psi_tilde[0, 0] == pytest.approx(expected, abs=1e-14)
    expected_dag = 1.0 + 1.0 / ((Z0 + p) * (x - x1))
    assert sample.psi_dagger_tilde[0, 0] == pytest.approx(expected_dag, abs=1e-14)


def test_psi_pair_full_gauge_is_phase_times_stripped(state32):
    times = TimeVector(np.array([0.3, -0.1, 0.05]))
    x = 1.9 - 0.7j
    stripped = psi_pair(state32, times, Z0, x, gauge="stripped")
    full = psi_pair(state32, times, Z0, x, gauge="full")
    phase = np.exp(x * Z0 + times.xi(Z0))
    assert np.max(np.abs(full.psi_tilde - phase * stripped.psi_tilde)) <= 1e-12
    assert (
        np.max(np.abs(full.psi_dagger_tilde - stripped.psi_dagger_tilde / phase))
        <= 1e-12
    )


def test_psi_pair_bad_gauge(state32):
    with pytest.raises(ValueError):
        psi_pair(state32, None, Z0, 5.0, gauge="mixed")


def test_psi_residues_are_rank_one(state32):
    # residue of psi_tilde at x_i, taken by a small contour, must equal
    # the rank-1 matrix a_i c_i^T
    c, c_star = solve_c(state32, Z0)
    nodes = 64
    r = 0.05
    for i in range(3):
        acc = np.zeros((2, 2), dtype=complex)
        for k in range(nodes):
            w = np.exp(2j * np.pi * k / nodes)
            x = state32.x[i] + r * w
            s = psi_pair(state32, None, Z0, complex(x), eps_coll=1e-9)
            acc += s.psi_tilde * (r * w) / nodes
        expected = np.outer(state32.a[i], c[i])
        assert np.max(np.abs(acc - expected)) <= 1e-10
        # rank one: second singular value vanishes
        assert np.linalg.svd(acc, compute_uv=False)[1] <= 1e-10


def test_w1_and_v_pole_hit(state32):
    with pytest.raises(PoleHit):
        w1(state32, complex(state32.x[1]))
    with pytest.raises(PoleHit):
        potential_v(state32, complex(state32.x[1]))


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0.5, float("nan"))])
def test_non_finite_point_is_named(state32, bad):
    # a NaN distance never falls below eps_coll, so the pole test alone
    # would let the point through
    grid = np.array([0.1 + 3j, bad, 0.2 + 3j])
    for call in (w1, potential_v, lambda s, x: ba_eval(s, Z0, x)):
        with pytest.raises(PoleHit, match=re.escape(f"x = {grid[1]} is not finite")):
            call(state32, grid)
    with pytest.raises(PoleHit, match="is not finite"):
        w1(state32, bad)


@pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(1.0, float("inf"))])
def test_solve_c_rejects_non_finite_z(state32, z):
    with pytest.raises(ValueError, match=re.escape(f"z = {z} is not finite")):
        solve_c(state32, z)


def test_v_is_minus_two_dx_w1(state32):
    h = 1e-6
    for x in offgrid_points(state32, 4):
        dw = (w1(state32, x + h) - w1(state32, x - h)) / (2 * h)
        V = potential_v(state32, x)
        assert np.max(np.abs(V + 2 * dw)) <= 1e-6


def test_w1_residues_match_spin_products(state32):
    # -(x - x_i) w1 -> a_i b_i^T as x -> x_i
    nodes = 64
    r = 0.05
    for i in range(3):
        acc = np.zeros((2, 2), dtype=complex)
        for k in range(nodes):
            w = np.exp(2j * np.pi * k / nodes)
            x = complex(state32.x[i] + r * w)
            acc += w1(state32, x, eps_coll=1e-9) * (r * w) / nodes
        assert np.max(np.abs(acc + np.outer(state32.a[i], state32.b[i]))) <= 1e-10


def test_tau_roots_and_empty_product(state32):
    params = TauParams(C=2.0, A=0.3)
    for xi in state32.x:
        assert abs(tau(state32, params, complex(xi))) <= 1e-12
    x = 1.1 + 0.2j
    expected = 2.0 * np.exp(0.3 * x) * np.prod(x - state32.x)
    assert tau(state32, params, x) == pytest.approx(expected, abs=1e-12)
    empty = PhaseState(
        x=np.zeros(0, complex),
        p=np.zeros(0, complex),
        a=np.zeros((0, 1), complex),
        b=np.zeros((0, 1), complex),
    )
    assert tau(empty, TauParams(), 3.7) == pytest.approx(np.exp(0.0), abs=1e-15)


def test_tau_params_validation():
    with pytest.raises(ValueError):
        TauParams(C=0.0)


def test_dlog_tau_matches_finite_differences(state32):
    params = TauParams(C=0.7, A=-0.2 + 0.1j)
    h = 1e-6
    for x in offgrid_points(state32, 4):
        fd = (
            np.log(tau(state32, params, x + h)) - np.log(tau(state32, params, x - h))
        ) / (2 * h)
        assert abs(dlog_tau_dx(state32, x, params) - fd) <= 1e-6


def test_linear_problem_residual_small(state32):
    grid = offgrid_points(state32, 5)
    res = linear_problem_residual(state32, Z0, grid)
    assert res <= 1e-12


def test_grid_differences_are_formed_and_checked_once_per_call(state32, monkeypatch):
    # x - x_i and its pole check run once per grid; 1/(x - x_i)^k for every
    # k the call needs come from that one array
    calls = []
    differences = kp._differences
    monkeypatch.setattr(kp, "_differences", lambda s, *a: calls.append(s) or differences(s, *a))
    grid = offgrid_points(state32, 5)
    ba_eval(state32, Z0, grid)
    assert len(calls) == 1
    linear_problem_residual(state32, Z0, grid)
    assert len(calls) == 2


def test_linear_problem_residual_second_order(state32):
    # the exact d/dt_2 of psi and psi+ is the limit of central differences
    # over RK4 flows by +-dt_2: their distance shrinks ~4x per halving
    grid = offgrid_points(state32, 3)
    e1, e2 = stencil_errors(state32, Z0, grid, (2e-4, 1e-4))
    assert 3.5 <= e1 / e2 <= 4.5


def test_linear_problem_residual_takes_no_step_by_position(state32):
    # eps_coll is keyword-only: a step size passed by position is an error,
    # not a collision floor
    with pytest.raises(TypeError):
        linear_problem_residual(state32, Z0, offgrid_points(state32, 2), 1e-4)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_residue_identity(state32, m):
    pts = offgrid_points(state32, 6)
    assert residue_identity_residual(state32, m, pts) <= 1e-10


@pytest.mark.parametrize("m", [1, 2, 3])
def test_first_order_pole_cancellation(m):
    for seed in range(3):
        s = random_state(3, 2, seed=seed)
        assert first_order_pole_cancellation(s, m) <= 1e-12


@pytest.mark.parametrize("m", [0, -1])
def test_residue_route_rejects_m_below_one(m):
    # colliding poles: a call that built the Lax matrix first would raise
    # CollidingPoles, so the ValueError shows the check comes before any work
    s = PhaseState(np.zeros(2, complex), np.zeros(2, complex), np.ones((2, 1)), np.ones((2, 1)))
    calls = (
        lambda: vector_field_residue(s, m),
        lambda: residue_identity_residual(s, m, np.array([1.0 + 1.0j])),
        lambda: first_order_pole_cancellation(s, m),
    )
    for call in calls:
        with pytest.raises(ValueError, match="m must be >= 1"):
            call()


@pytest.mark.parametrize("m", [2.5, 2.0])
def test_residue_route_rejects_a_non_integer_m(state32, m):
    # a float m once reached range(m) in the Krylov loop: a bare TypeError
    calls = (
        lambda: vector_field_residue(state32, m),
        lambda: residue_identity_residual(state32, m, np.array([1.0 + 1.0j])),
        lambda: first_order_pole_cancellation(state32, m),
    )
    for call in calls:
        with pytest.raises(ValueError, match="integer"):
            call()


def _kernel_coefficients(state, m):
    """Per-pole Laurent coefficients of res_inf(z^m psi psi+) in x from the
    residue data (K, u, v) of the kernel: u_i b_i^T + a_i v_i^T at
    1/(x - x_i) and -K_ii a_i b_i^T at 1/(x - x_i)^2, each (n, N, N)."""
    a, b = state.a, state.b
    K, u, v = _residue_rates(build_lax(state), a, b, m)
    outer = lambda l, r: l[:, :, None] * r[:, None, :]
    return outer(u, b) + outer(a, v), -np.diag(K)[:, None, None] * outer(a, b)


def _pole_expansion(state, first, second, pts):
    """sum_i first_i/(x - x_i) + second_i/(x - x_i)^2 at every point x of pts."""
    inv = 1.0 / (pts[:, None] - state.x)
    return np.einsum("pi,igh->pgh", inv, first) + np.einsum("pi,igh->pgh", inv**2, second)


@pytest.mark.parametrize("N", [1, 3])
def test_residue_identity_coefficients_single_particle_exact(N):
    # n = 1: L = (-p), R = (b^T a) and K_m = m (-p)^{m-1} (b^T a), so the
    # first-order coefficient vanishes and the second is -K_m a b^T
    for seed in range(6):
        s = random_state(1, N, seed=seed)
        a, b, p = s.a[0], s.b[0], s.p[0]
        for m in range(1, 5):
            first, second = _kernel_coefficients(s, m)
            expected = -m * (-p) ** (m - 1) * (b @ a) * np.outer(a, b)
            scale = 1.0 + np.max(np.abs(expected))
            assert np.max(np.abs(first[0])) <= 1e-14 * scale
            assert np.max(np.abs(second[0] - expected)) <= 1e-14 * scale


def _loop_coefficients(state, m):
    """Pole-by-pole reference for the residue-identity coefficients, with
    K = sum_j L^j R L^{m-1-j} summed directly."""
    lax = build_lax(state)
    P = lambda k: np.linalg.matrix_power(lax.L, k)
    K = sum((P(j) @ lax.R @ P(m - 1 - j) for j in range(m)), np.zeros_like(lax.L))
    res_c, res_cs = -(P(m) @ state.b), P(m).T @ state.a
    a, b, x = state.a, state.b, state.x
    first, second = [], []
    for i in range(state.n_particles):
        F = np.outer(res_cs[i], b[i]) + np.outer(a[i], res_c[i])
        for k in range(state.n_particles):
            if k != i:
                F -= (K[i, k] * np.outer(a[i], b[k]) + K[k, i] * np.outer(a[k], b[i])) / (x[i] - x[k])
        first.append(F)
        second.append(-K[i, i] * np.outer(a[i], b[i]))
    return np.array(first), np.array(second)


@pytest.mark.parametrize("n,N", [(n, N) for n in (1, 2, 5, 30) for N in (1, 3)])
def test_residue_identities_over_a_family(n, N):
    # res_inf(z^m psi psi+) at the sample points, from the kernel's (K, u, v)
    # and from the pole-by-pole oracle
    for seed in range(6):
        s = random_state(n, N, seed=seed)
        pts = offgrid_points(s, 6)
        for m in (1, 2, 3):
            got = _pole_expansion(s, *_kernel_coefficients(s, m), pts)
            ref = _pole_expansion(s, *_loop_coefficients(s, m), pts)
            assert np.max(np.abs(got - ref)) <= 1e-13 * (1.0 + np.max(np.abs(ref))), (seed, m)
            assert residue_identity_residual(s, m, pts) <= 1e-10, (seed, m)
            assert first_order_pole_cancellation(s, m) <= 1e-12, (seed, m)


def test_residue_identity_residual_sees_a_wrong_spin_rate(state32, monkeypatch):
    # the gradient-route da scaled by 1 + 1e-6 must show past the check's
    # threshold: the expanded rate differences are not vacuous. The t_1
    # flow fixes the spins (da = 0), so only m >= 2 can show it
    pts = offgrid_points(state32, 5)
    threshold = DEFAULT_THRESHOLDS["residue_identity"]
    assert residue_identity_residual(state32, 2, pts) <= threshold

    def scaled(*args):
        dx, dp, da, db = _vector_field(*args)
        return dx, dp, da * (1 + 1e-6), db

    # the kernel as the accessor calls it, on a writable copy: the slot
    # keeps the unscaled data of state32 and never serves the copy
    monkeypatch.setattr("spincm.lax._vector_field", scaled)
    copy = PhaseState(*(np.array(v) for v in (state32.x, state32.p, state32.a, state32.b)))
    for m in (2, 3):
        assert residue_identity_residual(copy, m, pts) > threshold, m


def test_ba_eval_schema(state32):
    grid = offgrid_points(state32, 3)
    out = ba_eval(state32, Z0, grid)
    assert out["z"] == [Z0.real, Z0.imag]
    assert len(out["psi_tilde"]) == 3
    assert len(out["psi_tilde"][0]) == 2 and len(out["psi_tilde"][0][0]) == 2
    # every stored entry is an [re, im] pair of finite floats
    flat = np.array(out["V"], dtype=float)
    assert np.all(np.isfinite(flat))


def test_ba_sample_fields(state32):
    s = psi_pair(state32, None, Z0, 4.2)
    assert isinstance(s, BASample)
    assert s.z == Z0 and s.x == 4.2
    assert s.c.shape == (3, 2) and s.c_star.shape == (3, 2)


def _dense_ba_reference(state, z, grid):
    """psi, psi+, V and w^(1) per point from the definitions: L assembled
    by hand and dense solves of (zI - L) and its transpose."""
    x, p, a, b = state.x, state.p, state.a, state.b
    n, N = a.shape
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    L = -(b @ a.T) / d
    np.fill_diagonal(L, -p)
    A = z * np.eye(n) - L
    c = -np.linalg.solve(A, b)
    c_star = np.linalg.solve(A.T, a)
    ref = {"psi_tilde": [], "psi_dagger_tilde": [], "V": [], "w1": []}
    for xp in grid:
        psi, psid, V, W = np.eye(N, dtype=complex), np.eye(N, dtype=complex), 0j, 0j
        for i in range(n):
            psi = psi + np.outer(a[i], c[i]) / (xp - x[i])
            psid = psid + np.outer(c_star[i], b[i]) / (xp - x[i])
            V = V - 2 * np.outer(a[i], b[i]) / (xp - x[i]) ** 2
            W = W - np.outer(a[i], b[i]) / (xp - x[i])
        for key, val in zip(ref, (psi, psid, V, W)):
            ref[key].append(val)
    return {key: np.array(v) for key, v in ref.items()}, np.linalg.cond(A)


@pytest.mark.parametrize("n,N", [(n, N) for n in (1, 3, 30) for N in (1, 4)])
def test_ba_eval_matches_dense_reference(n, N):
    s = random_state(n, N, seed=11)
    grid = offgrid_points(s, 50)
    for z in (1.3 + 0.7j, -0.8 + 1.9j, 2.5 - 0.4j):
        out = ba_eval(s, z, grid)
        ref, cond = _dense_ba_reference(s, z, grid)
        tol = 1e-13 * cond + 1e-12
        assert np.array_equal(pairs_to_complex(out["grid"]), grid)
        for key, want in ref.items():
            got = pairs_to_complex(out[key])
            assert got.shape == (50, N, N)
            assert np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))) <= tol, (z, key)


def test_ba_eval_pole_hit_names_first_offending_point(state32):
    grid = np.linspace(-6, 6, 7) + 1.5j
    grid[2], grid[5] = state32.x[1], state32.x[0]
    with pytest.raises(PoleHit, match=re.escape(f"x = {grid[2]} ")):
        ba_eval(state32, Z0, grid)
    # the grid is pole-checked before the solve, so a z on the spectrum
    # still reports the pole hit
    ev = complex(np.linalg.eigvals(build_lax(state32).L)[0])
    with pytest.raises(PoleHit):
        ba_eval(state32, ev, grid)


def test_ba_eval_spectral_collision_at_eigenvalue(state32):
    ev = complex(np.linalg.eigvals(build_lax(state32).L)[1])
    with pytest.raises(SpectralCollision):
        ba_eval(state32, ev, offgrid_points(state32, 4))


def test_ba_eval_empty_grid_skips_the_solve(state32, monkeypatch):
    import spincm.kp

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_c called for an empty grid")

    monkeypatch.setattr(spincm.kp, "solve_c", no_solve)
    out = ba_eval(state32, Z0, np.zeros(0, complex))
    assert out == {"z": [Z0.real, Z0.imag], "grid": [], "psi_tilde": [],
                   "psi_dagger_tilde": [], "V": [], "w1": []}


def test_ba_eval_honours_eps_coll(state32):
    grid = np.array([state32.x[0] + 1e-7, 4.0 + 1.0j])
    with pytest.raises(PoleHit):
        ba_eval(state32, Z0, grid)
    out = ba_eval(state32, Z0, grid, eps_coll=1e-9)
    assert np.all(np.isfinite(np.array(out["w1"], dtype=float)))


def test_array_x_matches_scalar_x_bit_for_bit(state32):
    grid = offgrid_points(state32, 5)
    c, c_star = solve_c(state32, Z0)
    stacks = (*_psi_matrices(state32, c, c_star, _differences(state32, grid, EPS_COLL)),
              potential_v(state32, grid), w1(state32, grid))
    for k, x in enumerate(grid):
        s = psi_pair(state32, None, Z0, x)
        for got, want in zip(stacks, (s.psi_tilde, s.psi_dagger_tilde,
                                      potential_v(state32, x), w1(state32, x))):
            assert np.array_equal(got[k], want)
