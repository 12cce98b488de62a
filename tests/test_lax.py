from dataclasses import fields

import numpy as np
import pytest

from spincm import (
    CollidingPoles,
    DimensionMismatch,
    LaxData,
    PhaseState,
    build_lax,
    contour_residue,
    grad_hamiltonian,
    hamiltonian,
    hamiltonians,
    new_state,
    poisson_bracket,
    random_state,
    resolvent_residue,
)
from spincm.lax import hamiltonian_h2_direct
from spincm.verify import _scaled_error, finite_difference_gradient


def test_build_lax_single_particle():
    s = new_state([0.0], [0.5], [[1.0]], [[1.0]])
    lax = build_lax(s)
    assert lax.L[0, 0] == -0.5
    assert lax.M[0, 0] == 0.0
    assert lax.R[0, 0] == 1.0


def test_build_lax_two_particle_frozen():
    # x = (-1, 1), p = 0, all spins 1: every pairing is 1, so
    # L = [[0, 1/2], [-1/2, 0]] and M = [[0, 1/2], [1/2, 0]].
    s = new_state([-1.0, 1.0], [0.0, 0.0], [[1.0], [1.0]], [[1.0], [1.0]])
    lax = build_lax(s)
    assert np.allclose(lax.L, [[0.0, 0.5], [-0.5, 0.0]], atol=1e-15)
    assert np.allclose(lax.M, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)
    assert hamiltonian(s, 2) == pytest.approx(-0.5, abs=1e-15)
    # direct phase-variable form: 0 - (1/4 + 1/4)
    assert hamiltonian_h2_direct(s) == pytest.approx(-0.5, abs=1e-15)


def test_r_identity_random():
    for seed in range(10):
        s = random_state(4, 2, seed=seed)
        lax = build_lax(s)
        X = np.diag(s.x)
        comm = lax.L @ X - X @ lax.L
        assert np.max(np.abs(lax.R - np.eye(4) - comm)) <= 1e-12


def test_h1_is_minus_total_momentum(state32):
    assert hamiltonian(state32, 1) == pytest.approx(
        complex(-np.sum(state32.p)), abs=1e-14
    )


def test_h2_matches_direct_form(state32):
    h2 = hamiltonian(state32, 2)
    assert abs(h2 - hamiltonian_h2_direct(state32)) <= 1e-12 * (1 + abs(h2))


def test_trace_lr_equals_trace_lm(state32):
    lax = build_lax(state32)
    for m in range(1, 6):
        Lm = np.linalg.matrix_power(lax.L, m)
        assert abs(np.trace(Lm @ lax.R) - np.trace(Lm)) <= 1e-12 * (
            1 + abs(np.trace(Lm))
        )


def test_hamiltonians_vector(state32):
    hs = hamiltonians(state32, kmax=5)
    for m in range(1, 6):
        assert hs[m - 1] == pytest.approx(hamiltonian(state32, m), abs=1e-13)


def test_grad_h1_constant(state32):
    g = grad_hamiltonian(state32, 1)
    assert np.allclose(g.dp, -1.0, atol=1e-15)
    assert np.max(np.abs(g.dx)) <= 1e-15
    assert np.max(np.abs(g.da)) <= 1e-15
    assert np.max(np.abs(g.db)) <= 1e-15


def test_grad_h2_single_particle():
    s = new_state([0.3], [0.4 + 0.2j], [[1.0]], [[1.0]])
    g = grad_hamiltonian(s, 2)
    assert g.dp[0] == pytest.approx(2 * (0.4 + 0.2j), abs=1e-15)
    assert abs(g.dx[0]) <= 1e-15
    assert np.max(np.abs(g.da)) <= 1e-15
    assert np.max(np.abs(g.db)) <= 1e-15


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("axis", ["real", "imag"])
def test_grad_matches_finite_differences(state32, m, axis):
    g = grad_hamiltonian(state32, m)
    fd = finite_difference_gradient(state32, m, h=1e-5, axis=axis)
    assert _scaled_error(fd, g) <= 1e-6


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n, N", [(1, 2), (10, 3)])
def test_grad_matches_finite_differences_other_sizes(n, N, m):
    # n=1: the identity power at m=1 and no off-diagonal entries;
    # n=10: the row/column-sum contraction for dx over a wider matrix
    s = random_state(n, N, seed=n)
    g = grad_hamiltonian(s, m)
    for axis in ("real", "imag"):
        fd = finite_difference_gradient(s, m, h=1e-5, axis=axis)
        assert _scaled_error(fd, g) <= 1e-6


def test_lax_assembly_honours_eps_coll():
    # poles 5e-7 apart, below the default floor of 1e-6
    s = new_state([0.0, 5e-7], [0.1, 0.2], [[1.0, 0.5], [0.3, 1.0]],
                  [[1.0, 0.0], [0.0, 1.0]], eps_coll=1e-9)
    for call in (build_lax, hamiltonians, lambda st: grad_hamiltonian(st, 2)):
        with pytest.raises(CollidingPoles) as err:
            call(s)
        assert err.value.time is None
    assert np.all(np.isfinite(build_lax(s, eps_coll=1e-9).L))
    assert np.isfinite(hamiltonians(s, eps_coll=1e-9)).all()
    assert np.isfinite(grad_hamiltonian(s, 2, eps_coll=1e-9).max_abs())


def _stack(states, shape):
    """The phase points ``states`` as one PhaseState with leading axes ``shape``."""
    arrays = [np.stack([getattr(s, f) for s in states]) for f in "xpab"]
    return PhaseState(*(v.reshape(*shape, *v.shape[1:]) for v in arrays))


@pytest.mark.parametrize("n", [1, 3, 30])
def test_stacked_build_lax_equals_each_point(n):
    states = [random_state(n, 2, seed=s) for s in range(4)]
    stack = _stack(states, (2, 2))
    stacked, H = build_lax(stack), hamiltonians(stack)
    Hm = {m: hamiltonian(stack, m) for m in range(1, 6)}
    assert [f.name for f in fields(LaxData)] == ["inv", "R", "L", "M"]
    for k, s in enumerate(states):
        one = build_lax(s)
        for f in ("inv", "R", "L", "M"):
            assert np.array_equal(getattr(stacked, f)[divmod(k, 2)], getattr(one, f))
        assert np.array_equal(H[divmod(k, 2)], hamiltonians(s))
        for m, h in Hm.items():
            assert h.shape == (2, 2)
            assert h[divmod(k, 2)] == hamiltonian(s, m)  # bit for bit


def test_stacked_collision_names_the_first_colliding_point():
    ok = random_state(3, 2, seed=1)
    bad = PhaseState(x=np.array([0.0, 5e-7, 2.0], dtype=complex), p=ok.p, a=ok.a, b=ok.b)
    for states, shape, row in (([ok, bad, ok, bad], (4,), 1), ([ok, ok, ok, bad], (2, 2), 3)):
        with pytest.raises(CollidingPoles, match="5.000e-07") as err:
            build_lax(_stack(states, shape))
        assert err.value.row == row
    with pytest.raises(CollidingPoles) as err:
        build_lax(bad)
    assert err.value.row is None


def test_poisson_bracket_antisymmetry(state32):
    g = grad_hamiltonian(state32, 3)
    assert poisson_bracket(state32, g, g) == 0


def test_poisson_bracket_involution(state32):
    h = {m: hamiltonian(state32, m) for m in range(1, 5)}
    g = {m: grad_hamiltonian(state32, m) for m in range(1, 5)}
    pb12 = poisson_bracket(state32, g[1], g[2])
    assert abs(pb12) <= 1e-10 * (1 + abs(h[2]))
    for m in range(1, 5):
        for k in range(m + 1, 5):
            pb = poisson_bracket(state32, g[m], g[k])
            assert abs(pb) <= 1e-8 * (1 + abs(h[m] * h[k])) ** 0.5


def test_poisson_bracket_dimension_mismatch(state32):
    g = grad_hamiltonian(state32, 2)
    other = grad_hamiltonian(random_state(2, 2, seed=0), 2)
    with pytest.raises(DimensionMismatch):
        poisson_bracket(state32, g, other)


def test_poisson_bracket_canonical_pairs(state32):
    # {x_0, p_0} = 1 through explicit coordinate gradients
    from spincm.lax import Gradient

    n, N = state32.n_particles, state32.spin_dim
    zeros = lambda: np.zeros(n, complex)
    zmat = lambda: np.zeros((n, N), complex)
    fx = Gradient(dx=np.eye(n, dtype=complex)[0], dp=zeros(), da=zmat(), db=zmat())
    fp = Gradient(dx=zeros(), dp=np.eye(n, dtype=complex)[0], da=zmat(), db=zmat())
    assert poisson_bracket(state32, fx, fp) == 1.0
    assert poisson_bracket(state32, fp, fx) == -1.0


def test_resolvent_residue_no_a_is_power():
    rng = np.random.default_rng(1)
    L = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(resolvent_residue(L, 0), np.eye(4))
    assert np.allclose(resolvent_residue(L, 3), np.linalg.matrix_power(L, 3))


def test_resolvent_residue_m0_with_a_is_zero():
    rng = np.random.default_rng(2)
    L = rng.normal(size=(3, 3)).astype(complex)
    A = rng.normal(size=(3, 3)).astype(complex)
    assert np.array_equal(resolvent_residue(L, 0, A), np.zeros((3, 3)))


def test_resolvent_residue_recurrence_is_exact():
    # small-integer, non-commuting L and A: every product is exact in float64
    rng = np.random.default_rng(3)
    L = (rng.integers(-3, 4, size=(4, 4)) + 1j * rng.integers(-3, 4, size=(4, 4))).astype(complex)
    A = (rng.integers(-3, 4, size=(4, 4)) + 1j * rng.integers(-3, 4, size=(4, 4))).astype(complex)
    assert not np.array_equal(L @ A, A @ L)
    P = lambda k: np.linalg.matrix_power(L, k)
    for m in range(7):
        direct = sum((P(j) @ A @ P(m - 1 - j) for j in range(m)), np.zeros((4, 4), complex))
        assert np.array_equal(resolvent_residue(L, m, A), direct), m


@pytest.mark.parametrize("m", [0, 1, 3, 5])
def test_resolvent_vs_contour_oracle(m):
    rng = np.random.default_rng(10 + m)
    for n in (4, 1):
        L = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / 2
        A = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / 2
        for withA in (None, A):
            exact = resolvent_residue(L, m, withA)
            numeric = contour_residue(L, m, withA, nodes=256)
            assert np.max(np.abs(exact - numeric)) <= 1e-10
