import copy
import dataclasses
import gc
import pickle
import weakref
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
    gauge_rescale,
    grad_hamiltonian,
    hamiltonian,
    hamiltonians,
    load_state,
    new_state,
    poisson_bracket,
    random_state,
    resolvent_residue,
)
from spincm import flows, kp, lax as lax_module
from spincm.lax import _residue_rates, hamiltonian_h2_direct
from spincm.verify import _scaled_error, finite_difference_gradient


def test_build_lax_single_particle():
    s = new_state([0.0], [0.5], [[1.0]], [[1.0]])
    lax = build_lax(s)
    assert lax.L[0, 0] == -0.5
    assert lax.R[0, 0] == 1.0


def test_build_lax_two_particle_frozen():
    # x = (-1, 1), p = 0, all spins 1: every pairing is 1, so
    # L = [[0, 1/2], [-1/2, 0]].
    s = new_state([-1.0, 1.0], [0.0, 0.0], [[1.0], [1.0]], [[1.0], [1.0]])
    lax = build_lax(s)
    assert np.allclose(lax.L, [[0.0, 0.5], [-0.5, 0.0]], atol=1e-15)
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
    hs = hamiltonians(state32)
    for m in range(1, 6):
        assert hs[m - 1] == pytest.approx(hamiltonian(state32, m), abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 30, 100])
def test_hamiltonians_match_matrix_power_oracle(n):
    s = random_state(n, 4, seed=n)
    hs = hamiltonians(s)
    assert hs.shape == (5,)
    want = np.array([hamiltonian(s, m) for m in range(1, 6)])
    assert _scaled_error(hs, want) <= 1e-13


@pytest.mark.parametrize("n", [1, 3, 30])
def test_hamiltonians_take_one_route_per_h(n):
    s = random_state(n, 2, seed=n + 5)
    # H_1..H_3 are the traces of the repeated right products, and H_4, H_5
    # the entrywise sums of L o (L^3)^T and L^2 o (L^3)^T, bit for bit
    L = build_lax(s).L
    P2 = L @ L
    P3 = P2 @ L
    want = [np.trace(L), np.trace(P2), np.trace(P3), (L * P3.T).sum(), (P2 * P3.T).sum()]
    assert hamiltonians(s).tobytes() == np.array(want).tobytes()


def test_a_non_finite_point_hides_no_collision_of_the_stack():
    bad = new_state([0.0, 1.0], [0.1, 0.2], [[1.0], [1.0]], [[1.0], [1.0]])
    close = new_state([0.0, 5e-7], [0.1, 0.2], [[1.0], [1.0]], [[1.0], [1.0]], eps_coll=1e-9)
    stack = _stack([bad, close], (2,))
    stack.x[0, 1] = np.nan
    with pytest.raises(CollidingPoles) as err:
        build_lax(stack)
    assert err.value.row == 1


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


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("axis", ["real", "imag"])
def test_grad_matches_finite_differences(state32, m, axis):
    g = grad_hamiltonian(state32, m)
    fd = finite_difference_gradient(state32, m, h=1e-5, axis=axis)
    assert _scaled_error(fd, g) <= 1e-6


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
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
    g = grad_hamiltonian(s, 2, eps_coll=1e-9)
    assert all(np.isfinite(getattr(g, f.name)).all() for f in fields(g))


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
    assert [f.name for f in fields(LaxData)] == ["inv", "R", "L"]
    for k, s in enumerate(states):
        one = build_lax(s)
        for f in ("inv", "R", "L"):
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
    from spincm.lax import Tangent

    n, N = state32.n_particles, state32.spin_dim
    zeros = lambda: np.zeros(n, complex)
    zmat = lambda: np.zeros((n, N), complex)
    fx = Tangent(dx=np.eye(n, dtype=complex)[0], dp=zeros(), da=zmat(), db=zmat())
    fp = Tangent(dx=zeros(), dp=np.eye(n, dtype=complex)[0], da=zmat(), db=zmat())
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


def _off_constraint(n, N, seed):
    """A phase point with random spins, b_i^T a_i != 1, built without
    new_state: the residue kernel must not use the constraint."""
    s = random_state(n, N, seed=seed)
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(n, N)) + 1j * rng.normal(size=(n, N)) for _ in range(2))
    off = PhaseState(s.x, s.p, a, b)
    assert np.min(np.abs(off.constraint_values() - 1.0)) > 1e-3
    return off


@pytest.mark.parametrize("n", [1, 2, 5, 30, 100])
@pytest.mark.parametrize("on_constraint", [True, False])
def test_krylov_residues_match_matrix_power_and_contour(n, on_constraint):
    s = random_state(n, 3, seed=n) if on_constraint else _off_constraint(n, 3, n)
    lax = build_lax(s)
    L, R, a, b = lax.L, lax.R, s.a, s.b
    # the contour's own rounding grows like its radius r to the m
    r = 2.0 * (np.linalg.norm(L, np.inf) + 1.0)
    size = (1.0 + np.max(np.abs(R))) * (1.0 + max(np.max(np.abs(a)), np.max(np.abs(b))))
    P = lambda k: np.linalg.matrix_power(L, k)

    def rates(Lm, K):
        """(K, u, v) of the residue equations from an oracle's L^m and K_m."""
        return K, Lm.T @ a - (K.T * lax.inv) @ a, -(Lm @ b) - (K * lax.inv) @ b

    for m in range(1, 6):
        got = _residue_rates(lax, m)
        dense = sum((P(j) @ R @ P(m - 1 - j) for j in range(m)), np.zeros_like(L))
        for g, ref in zip(got, rates(P(m), dense)):
            assert np.max(np.abs(g - ref)) <= 1e-14 * (1.0 + np.max(np.abs(ref))), m
        Lc, Kc = contour_residue(L, m, nodes=64), contour_residue(L, m, R, nodes=64)
        for g, ref in zip(got, rates(Lc, Kc)):
            assert np.max(np.abs(g - ref)) <= 1e-14 * r**m * size, m


# --- the memo that every phase point keeps ------------------------------------


def _copy(state):
    """A copy of ``state`` by the bare constructor, from writable copies of
    its arrays: a new point, with an empty memo of its own."""
    return PhaseState(*(np.array(v) for v in (state.x, state.p, state.a, state.b)))


def _assert_immutable(state):
    """numpy refuses to make any array of ``state`` writable."""
    for arr in (state.x, state.p, state.a, state.b):
        with pytest.raises(ValueError, match="WRITEABLE"):
            arr.setflags(write=True)


def _bits(value):
    """The bytes of every array of a result: a LaxData, a Tangent or a float."""
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return [getattr(value, f.name).tobytes() for f in fields(value)]


def _six(state, m, xs, eps_coll=1e-6):
    """The results of the six functions that read the memo."""
    return [
        build_lax(state, eps_coll),
        grad_hamiltonian(state, m, eps_coll),
        flows.vector_field_gradient(state, m, eps_coll),
        flows.vector_field_residue(state, m, eps_coll),
        kp.residue_identity_residual(state, m, xs, eps_coll),
        kp.first_order_pole_cancellation(state, m, eps_coll),
    ]


def test_the_validating_constructors_give_frozen_states(tmp_path):
    # and so do the bare constructor, replace and every other route to a point
    s = random_state(4, 2, seed=3)
    s.save(tmp_path / "s.json")
    traj = flows.integrate(s, flows.FlowSpec(m=2, t_final=1e-2, dt=5e-3))
    for st in (s, new_state(s.x, s.p, s.a, s.b), load_state(tmp_path / "s.json")[0],
               traj.state(0), traj.state(-1), _copy(s), dataclasses.replace(s, x=np.array(s.x)),
               PhaseState(list(s.x), s.p, s.a.tolist(), s.b), gauge_rescale(s, np.arange(1, 5))):
        _assert_immutable(st)
        assert st.x.dtype == st.a.dtype == complex


def test_a_point_refuses_to_be_made_writable():
    # the memo trusts the point's arrays: a write to one would leave its L stale
    s = random_state(4, 2, 1)
    L = build_lax(s).L
    _assert_immutable(s)
    for arr in (s.x[1:], s.a.T):
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    with pytest.raises(ValueError):
        s.x[0] += 0.5
    assert build_lax(s).L is L and _bits(build_lax(s)) == _bits(build_lax(_copy(s)))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_a_point_gives_the_bits_of_a_copy_built_from_writable_arrays(m):
    # the copy fills a memo of its own
    s = random_state(6, 3, seed=m)
    xs = np.array([9.0 + 1j, -8.5j, 7.5 - 7j])
    want = [_bits(v) for v in _six(_copy(s), m, xs)]
    assert [_bits(v) for v in _six(s, m, xs)] == want  # filled
    assert [_bits(v) for v in _six(s, m, xs)] == want  # served
    assert build_lax(s) is vars(s)["_lax"]


def test_the_memo_never_serves_a_state_that_can_change():
    # the constructor copies every array that a write could reach, and
    # keeps the immutable ones, so no write to the caller's arrays reaches
    # the point or its memo
    s = random_state(4, 2, seed=11)
    b = np.array(s.b)
    one_copied = PhaseState(s.x, s.p, s.a, b)
    assert one_copied.x is s.x and one_copied.a is s.a
    assert not np.shares_memory(one_copied.b, b)
    base = np.array(s.x)
    view = base[:]
    view.setflags(write=False)  # a read-only view of a writable base
    st = PhaseState(view, s.p, s.a, s.b)
    assert not np.shares_memory(st.x, base)
    before = [_bits(flows.vector_field_gradient(t, 3)) for t in (st, one_copied)]
    base[0] += 0.25
    b[0] += 0.25
    after = [_bits(flows.vector_field_gradient(t, 3)) for t in (st, one_copied)]
    assert after == before == 2 * [_bits(flows.vector_field_gradient(s, 3))]
    assert build_lax(st) is vars(st)["_lax"] and build_lax(one_copied) is vars(one_copied)["_lax"]


def test_memoized_arrays_are_read_only():
    # nothing a point keeps, nor any field it returns from its memo, can be
    # made writable again, down to the .base of a field: each sits on an
    # immutable buffer, so no caller can change what the next one reads
    s = random_state(4, 2, 1)
    H = hamiltonians(s).tobytes()
    tangents = [f(s, m) for m in (1, 2, 3) for f in
                (flows.vector_field_gradient, flows.vector_field_residue, grad_hamiltonian)]
    lax = build_lax(s)
    kept = [lax.inv, lax.R, lax.L]
    for key, value in lax._memo.items():
        kept += [] if key == "sep" else value if isinstance(value, tuple) else [value]
    shared = [getattr(t, f.name) for t in tangents for f in fields(t)]
    shared = [arr for arr in shared if any(arr is k for k in kept)]
    # per m: every field of the gradient route's velocity, dp of the residue
    # route's and two of the gradient's
    assert len(shared) == 3 * (4 + 1 + 2)
    for arr in kept + shared + [arr.base for arr in shared]:
        with pytest.raises(ValueError):
            arr.setflags(write=True)
        with pytest.raises(ValueError):
            arr[0] = 0.0
    f = flows.vector_field_gradient(s, 1)
    want = _bits(f)
    with pytest.raises(ValueError):
        f.dx.base[0] += 1.0
    assert hamiltonians(s).tobytes() == H and _bits(flows.vector_field_gradient(s, 1)) == want


def test_an_identities_operation_computes_each_quantity_once(monkeypatch):
    # the call sequence of one identities_n100 operation on one state:
    # before the memo it made 14 assemblies, 11 gradient kernels and 10
    # residue kernels; before the memo kept the powers and blocks across m
    # it made 5 n x n products and 20 thin ones
    calls = {"_assemble": 0, "_vector_field": 0, "_residue_rates": 0}
    for name in calls:
        fn = getattr(lax_module, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(lax_module, name, counted)
    # every product is a new array past the head of a returned list
    made = {"_powers": {}, "_krylov": {}}

    def spy(name, fn):
        def listed(*args):
            out = fn(*args)
            lists = out if name == "_krylov" else (out,)
            made[name].update((id(arr), arr) for arrs in lists for arr in arrs[1:])
            return out

        return listed

    for module in (lax_module, flows):  # flows binds _powers at import
        monkeypatch.setattr(module, "_powers", spy("_powers", lax_module._powers))
    monkeypatch.setattr(lax_module, "_krylov", spy("_krylov", lax_module._krylov))
    s = random_state(10, 4, seed=13)
    xs = np.array([30.0 + 1j, -20j, 25.0, 3.0 + 40j, -35.0])
    for m in (1, 2, 3, 4):
        flows.vector_field_residue(s, m), flows.vector_field_gradient(s, m)
    for m in (1, 2, 3):
        kp.residue_identity_residual(s, m, xs)
    for m in (1, 2, 3):
        kp.first_order_pole_cancellation(s, m)
    assert calls == {"_assemble": 1, "_vector_field": 4, "_residue_rates": 4}
    # L^2 and L^3; U_j = L^j b and V_j = (L^T)^j a for j = 1..4
    assert {name: len(arrs) for name, arrs in made.items()} == {"_powers": 2, "_krylov": 8}
    assert {arr.shape for arr in made["_powers"].values()} == {(10, 10)}
    assert {arr.shape for arr in made["_krylov"].values()} == {(10, 4)}


def test_a_frozen_point_shares_its_powers_and_blocks_across_m():
    # one point for m = 1..5 in turn, so each m adds the powers and blocks
    # it is the first to ask, each under a key of its own; the copy, a new
    # point, computes each quantity in a memo of its own
    s = random_state(7, 3, seed=16)
    copy = _copy(s)
    lax = build_lax(s)
    for m in range(1, 6):
        for kernel in ("field", "rates"):
            want = lax_module._derived(kernel, copy, build_lax(copy), m)
            got = lax_module._derived(kernel, s, lax, m)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], (kernel, m)
        for f in (flows.vector_field_residue, grad_hamiltonian):
            assert _bits(f(s, m)) == _bits(f(copy, m)), (f.__name__, m)
        assert hamiltonians(s).tobytes() == hamiltonians(copy).tobytes()
    memo = vars(s)["_lax"]._memo
    # L^2..L^4, and U_j, V_j for j = 0..5, each made once and served after
    kept = {key for key in memo if key[0] in ("L", "U", "V")}
    assert kept == {("L", j) for j in range(2, 5)} | {(c, j) for c in "UV" for j in range(6)}
    for key in kept:
        with pytest.raises(ValueError):
            memo[key][0] = 0.0
    assert all(P is memo["L", j] for j, P in enumerate(lax_module._powers(lax, 4)[1:], 2))
    U, V = lax_module._krylov(lax, 5)
    assert all(U[j] is memo["U", j] and V[j] is memo["V", j] for j in range(6))
    # the copy's assembly seeds its blocks with the copy's own a and b, and
    # never reads the original's memo: the same bits, in arrays of its own
    U, V = lax_module._krylov(build_lax(copy), 2)
    assert U[0] is copy.b and V[0] is copy.a
    assert U[1] is not memo["U", 1] and U[1].tobytes() == memo["U", 1].tobytes()
    assert V[1] is not memo["V", 1] and V[1].tobytes() == memo["V", 1].tobytes()


@pytest.mark.parametrize("m, products", [(1, 0), (2, 0), (3, 1), (4, 2), (5, 3)])
def test_the_residue_route_forms_each_power_once_on_a_copy_built_from_writable_arrays(
        m, products, monkeypatch):
    # the gauge rate's L^ceil(m/2) and the field kernel's L^(m-1) come from
    # the memo of the copy, whose memo starts empty: it once formed 2, 3
    # and 5 products at m = 3, 4 and 5.
    # The result is the original point's, bit for bit
    s = random_state(10, 4, seed=1)
    copy = _copy(s)
    made = {}
    fn = lax_module._powers

    def listed(lax, k):
        out = fn(lax, k)
        made.update((id(arr), arr) for arr in out[1:])
        return out

    for module in (lax_module, flows):  # flows binds _powers at import
        monkeypatch.setattr(module, "_powers", listed)
    got = flows.vector_field_residue(copy, m)
    assert len(made) == products
    assert _bits(got) == _bits(flows.vector_field_residue(s, m))
    # a stack keeps none: each call forms its powers afresh
    stack = build_lax(PhaseState(*(np.stack([v, v]) for v in (copy.x, copy.p, copy.a, copy.b))))
    first, again = fn(stack, 3), fn(stack, 3)
    assert first[2] is not again[2] and "_memo" not in vars(stack)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_copy_keeps_a_memo_of_its_own(m):
    # one rule for every point: its assembly is frozen and carries the
    # memo, seeded with its own spins; a copy is a new point, whose memo
    # starts empty and never reads or fills the original's
    s = random_state(6, 3, seed=22)
    orig = build_lax(s)
    want = flows.vector_field_gradient(s, m)
    for w in (_copy(s), copy.copy(s)):
        assert "_lax" not in vars(w)
        lax = build_lax(w)
        assert lax is not orig and build_lax(w) is lax is vars(w)["_lax"]
        got = flows.vector_field_gradient(w, m)
        assert got.dx is not want.dx and _bits(got) == _bits(want)
        assert flows.vector_field_gradient(w, m).dx is got.dx
        for arr in (lax.L, got.dx):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        U, V = lax_module._krylov(lax, 2)
        assert U[0] is w.b and V[0] is w.a
        assert all(U[j] is lax._memo["U", j] and V[j] is lax._memo["V", j] for j in range(3))
        assert lax._memo["sep"] == w.min_separation()
        assert not U[1].flags.writeable and not V[2].flags.writeable
    assert build_lax(s) is orig and orig._memo["U", 0] is s.b and orig._memo["V", 0] is s.a
    assert {key for key in orig._memo if key[0] in ("U", "V")} == {("U", 0), ("V", 0)}


def test_a_stack_keeps_no_memo():
    s = random_state(5, 2, seed=23)
    stack = build_lax(PhaseState(*(np.stack([v, v]) for v in (s.x, s.p, s.a, s.b))))
    assert "_memo" not in vars(stack) and stack.L.flags.writeable
    first, again = lax_module._powers(stack, 3), lax_module._powers(stack, 3)
    assert first[1] is not again[1] and first[2] is not again[2]
    assert first[2].tobytes() == again[2].tobytes() and first[2].flags.writeable


def test_the_memo_follows_its_point_and_not_the_flows():
    s = random_state(4, 2, seed=14)
    lax = build_lax(s)
    other = random_state(4, 2, seed=15)
    spec = flows.FlowSpec(m=2, t_final=1e-2, dt=5e-3)
    flows.integrate_stack([(s, spec), (other, spec)])
    assert vars(s)["_lax"] is lax and "_lax" not in vars(other)
    # a new instance of the same arrays starts without one
    assert "_lax" not in vars(dataclasses.replace(s))


def test_a_copy_or_a_pickle_of_a_point_starts_without_its_memo():
    s = random_state(4, 2, seed=21)
    lax = build_lax(s)
    for t in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert "_lax" not in vars(t) and np.array_equal(t.x, s.x)
        _assert_immutable(t)
        assert build_lax(t) is not lax and _bits(build_lax(t)) == _bits(lax)
    # a deep copy's arrays are its own, and no more writable than the original's
    t = copy.deepcopy(s)
    assert not np.shares_memory(t.x, s.x)
    with pytest.raises(ValueError):
        t.x[0] += 0.5


def test_an_unpickled_point_over_a_kilobyte_is_immutable():
    # numpy unpickles an array of more than 1000 bytes writable on a bytes
    # buffer, so the constructor copies it rather than keep it
    s = random_state(100, 4, 1)
    t = pickle.loads(pickle.dumps(s))
    _assert_immutable(t)
    L = build_lax(t).L
    with pytest.raises(ValueError):
        t.x[0] += 0.5
    assert build_lax(t).L is L and L.tobytes() == build_lax(s).L.tobytes()
    # and so is a sample of an unpickled trajectory
    traj = flows.integrate(s, flows.FlowSpec(m=2, t_final=1e-2, dt=5e-3))
    _assert_immutable(pickle.loads(pickle.dumps(traj)).state(-1))


def test_two_frozen_points_in_turn_keep_their_own_memos(monkeypatch):
    calls = []
    assemble = lax_module._assemble
    monkeypatch.setattr(lax_module, "_assemble", lambda *args: calls.append(1) or assemble(*args))
    s, t = random_state(30, 4, seed=17), random_state(30, 4, seed=18)
    for _ in range(10):
        build_lax(s), build_lax(t)
    assert len(calls) == 2


def test_a_frozen_point_frees_its_memo_with_its_last_reference():
    s = random_state(5, 2, seed=19)
    kp.first_order_pole_cancellation(s, 3), flows.vector_field_gradient(s, 3)
    ref = weakref.ref(build_lax(s))
    enabled = gc.isenabled()
    gc.disable()  # so only reference counting can free it
    try:
        del s
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _entries(value, seen):
    """Complex entries of the arrays that own the memory of ``value``'s
    arrays, each owner counted once."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return sum(_entries(v, seen) for v in value)
    if not isinstance(value, np.ndarray):
        return 0  # the separation
    owner = value if value.base is None else value.base
    if id(owner) in seen:
        return 0
    seen[id(owner)] = owner
    return owner.size


def test_the_memo_stays_within_its_stated_bound():
    n, N, top = 7, 3, 5
    s = random_state(n, N, seed=20)
    xs = np.array([9.0 + 1j, -8.5j, 7.5 - 7j])
    for m in range(1, top + 1):
        _six(s, m, xs), hamiltonians(s)
    lax = vars(s)["_lax"]
    seen = {}
    _entries([s.a, s.b], seen)  # the point's own spins are no memo
    got = _entries([lax.inv, lax.R, lax.L, lax._memo], seen)
    # the lax module docstring's bound for the largest m, or power of L, asked
    assert got <= 2 * (top + 1) * n**2 + 2 * top * n * (3 * N + 1)
    # the separation, the spins, L^2..L^(top-1), U_j and V_j for j = 1..top,
    # and two kernels per m: one key each
    assert len(lax._memo) == 3 + (top - 2) + 2 * top + 2 * top


def test_the_collision_verdict_is_taken_at_every_call():
    ones = np.ones((3, 1))
    s = new_state([0.0, 5e-7, 2.0], [0.1, 0.2, 0.3], ones, ones, eps_coll=1e-9)
    want = "minimal pole separation 5.000e-07 <= 1.000e-06"
    with pytest.raises(CollidingPoles, match=want) as fresh:
        build_lax(_copy(s))
    build_lax(s, eps_coll=1e-9)  # passes, and fills the memo
    calls = (build_lax, lambda st: grad_hamiltonian(st, 2),
             lambda st: flows.vector_field_gradient(st, 2),
             lambda st: flows.vector_field_residue(st, 2),
             lambda st: kp.residue_identity_residual(st, 2, [5.0]),
             lambda st: kp.first_order_pole_cancellation(st, 2))
    for call in calls:
        with pytest.raises(CollidingPoles) as err:
            call(s)
        assert str(err.value) == str(fresh.value) and err.value.row is None
    assert vars(s)["_lax"]._memo["sep"] == 5e-7
    assert np.isfinite(build_lax(s, eps_coll=1e-9).L).all()
