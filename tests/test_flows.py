import ast
import csv
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from spincm import (
    CollidingPoles,
    DimensionMismatch,
    FlowSpec,
    IntegrationFailed,
    StepLimitExceeded,
    TimeVector,
    build_lax,
    check_lax,
    commutativity_check,
    grad_hamiltonian,
    hamiltonian,
    hamiltonians,
    integrate,
    integrate_stack,
    new_state,
    random_state,
    residue_identity_residual,
    vector_field_gradient,
    vector_field_residue,
)
from spincm.flows import (
    Trajectory,
    _first_error,
    _record,
    _trajectories,
)
from spincm import Config, dop853, flows, lax
from spincm.lax import _pack, _residue_rates, _unpack
from spincm.phase import EPS_COLL, PhaseState, pairs_to_complex
from spincm.verify import _scaled_error, _suite_flows, matched_pole_error

from conftest import exact_flow_poles


def _grid_times(spec):
    """The flow times j h u that a row of ``spec`` records: every
    record_every-th point of its grid of ceil(|t_final|/dt) steps h, and
    the last one."""
    tfin = complex(spec.t_final)
    if tfin == 0:
        return np.zeros(1, dtype=complex)
    k = math.ceil(abs(tfin) / spec.dt)
    h, u = abs(tfin) / k, tfin / abs(tfin)
    return np.array([j * h * u for j in [*range(0, k, spec.record_every), k]], dtype=complex)


def test_flowspec_validation(state32):
    with pytest.raises(ValueError):
        FlowSpec(m=0, t_final=1.0, dt=1e-3)
    with pytest.raises(ValueError):
        FlowSpec(m=np.array([2, 3]), t_final=1.0, dt=1e-3)
    with pytest.raises(ValueError):
        FlowSpec(m=1, t_final=1.0, dt=-1e-3)
    # record_every is one integer >= 1 (2.5 once recorded off the grid)
    for every in (0, 2.5, 2.0, "3", [3]):
        with pytest.raises(ValueError, match="record_every"):
            FlowSpec(m=1, t_final=1.0, dt=1e-3, record_every=every)
    # a bool counts as the int it equals, and each is stored as an int
    for every, want in ((True, 1), (np.int64(7), 7)):
        spec = FlowSpec(m=1, t_final=1.0, dt=1e-3, record_every=every)
        assert type(spec.record_every) is int and spec.record_every == want
    # True once recorded t = 0.001 twice: the stepper's record index took
    # the bool dtype
    spec = FlowSpec(m=2, t_final=0.01, dt=1e-3)
    _assert_same_trajectory(integrate(state32, replace(spec, record_every=True)),
                            integrate(state32, spec))
    # so is m: a 0-d integer array once reached integrate, which raised
    # TypeError, and True was kept as given
    for m, want in ((True, 1), (np.array(2), 2)):
        spec = FlowSpec(m=m, t_final=0.01, dt=1e-3)
        assert type(spec.m) is int and spec.m == want
        _assert_same_trajectory(integrate(state32, spec),
                                integrate(state32, FlowSpec(m=want, t_final=0.01, dt=1e-3)))
    with pytest.raises(TypeError):  # one stepper: there is no method to choose
        FlowSpec(m=1, t_final=1.0, dt=1e-3, method="RK4")
    with pytest.raises(TypeError):  # one budget, flows.MAX_STEPS
        FlowSpec(m=1, t_final=1.0, dt=1e-3, max_steps=10)


def _bytes(value):
    """The bytes of every array of a result: a Tangent, or a number."""
    arrays = vars(value).values() if is_dataclass(value) else [value]
    return [np.asarray(v).tobytes() for v in arrays]


@pytest.mark.parametrize("m", [2.5, 2.0, np.float64(3.0), np.array(2.0), np.array(2)])
def test_a_non_integer_m_is_rejected_at_every_gradient_entry_point(state32, m):
    # 2.5 once weighed the Horner term of L^2 by 2.5: 2.5/3 of the H_3 field.
    # A 0-d integer array is the int it holds, here on a copy with an empty
    # memo (it once raised TypeError in lax._vector_field); a 0-d float
    # array is refused as its float is
    if isinstance(m, np.ndarray) and m.dtype.kind == "i":
        xs = np.array([1.0 + 1.0j])
        copy = PhaseState(*(np.array(v) for v in (state32.x, state32.p, state32.a, state32.b)))
        for fn in (vector_field_gradient, grad_hamiltonian, vector_field_residue,
                   lambda st, k: residue_identity_residual(st, k, xs)):
            assert _bytes(fn(copy, m)) == _bytes(fn(state32, int(m)))
        return
    with pytest.raises(ValueError, match="integer"):
        FlowSpec(m=m, t_final=0.1, dt=1e-2)
    if not isinstance(m, np.ndarray):  # _weights takes the tuple of an array
        with pytest.raises(ValueError, match="integer"):
            lax._weights(m)
    # the int m of equal value is cached first: an equal float key would hit it
    stack = PhaseState(*(np.stack([v, v]) for v in (state32.x, state32.p, state32.a, state32.b)))
    vector_field_gradient(state32, int(m))
    vector_field_gradient(stack, np.array([2, int(m)]))
    calls = (
        lambda: vector_field_gradient(state32, m),
        lambda: grad_hamiltonian(state32, m),
        lambda: hamiltonian(state32, m),
        lambda: vector_field_gradient(stack, np.array([2, m])),
    )
    for call in calls:
        with pytest.raises(ValueError, match="integer"):
            call()


def test_gradient_field_t1(state32):
    f = vector_field_gradient(state32, 1)
    assert np.allclose(f.dx, -1.0, atol=1e-15)
    assert np.max(np.abs(f.dp)) <= 1e-15
    assert np.max(np.abs(f.da)) <= 1e-15
    assert np.max(np.abs(f.db)) <= 1e-15


def test_gradient_field_free_particle():
    s = new_state([0.0], [0.5], [[1.0]], [[1.0]])
    f = vector_field_gradient(s, 2)
    assert f.dx[0] == pytest.approx(1.0, abs=1e-15)
    assert abs(f.dp[0]) <= 1e-15


def test_newton_form_closed(state32):
    # 2 dp/dt_2 must equal the second-order equation of motion
    # d^2x_i/dt^2 = -8 sum_{k != i} (b_i.a_k)(b_k.a_i)/(x_i - x_k)^3
    f = vector_field_gradient(state32, 2)
    R = state32.spin_pairings()
    for i in range(3):
        rhs = 0.0
        for k in range(3):
            if k != i:
                rhs -= 8 * R[i, k] * R[k, i] / (state32.x[i] - state32.x[k]) ** 3
        assert abs(2 * f.dp[i] - rhs) <= 1e-12 * (1 + abs(rhs))


def test_newton_form_from_trajectory(state32):
    dt = 1e-3
    traj = integrate(state32, FlowSpec(m=2, t_final=10 * dt, dt=dt, record_every=1))
    xs = traj.x
    k = 5
    acc = (xs[k + 1] - 2 * xs[k] + xs[k - 1]) / dt**2
    mid = traj.state(k)
    R = mid.spin_pairings()
    for i in range(3):
        rhs = 0.0
        for j in range(3):
            if j != i:
                rhs -= 8 * R[i, j] * R[j, i] / (mid.x[i] - mid.x[j]) ** 3
        assert abs(acc[i] - rhs) <= 1e-6 * (1 + abs(rhs))


def test_residue_field_t1(state32):
    f = vector_field_residue(state32, 1)
    assert np.max(np.abs(f.dx + 1.0)) <= 1e-13


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
def test_residue_equals_gradient_route(m):
    # at n = 30 > mN, K_m is a product of thin Krylov blocks of lower rank
    for n, N, seeds in ((3, 2, range(5)), (30, 4, range(3))):
        for seed in seeds:
            s = random_state(n, N, seed=seed)
            err = _scaled_error(vector_field_residue(s, m), vector_field_gradient(s, m))
            assert err <= 1e-12, (n, seed)


def test_residue_field_single_particle_spins_fixed():
    s = new_state([0.2], [0.7], [[1.0]], [[1.0]])
    f = vector_field_residue(s, 2)
    assert np.max(np.abs(f.da)) <= 1e-14
    assert np.max(np.abs(f.db)) <= 1e-14


@pytest.mark.parametrize("m", [1, 2, 3])
def test_raw_residue_split_product_is_gauge_invariant(state32, m):
    # the raw pole-cancellation split carries a free diagonal gauge rate,
    # but the product rate d(a_i b_i^T) it implies is gauge-free and must
    # match the Hamiltonian route exactly
    s = state32
    _, da_raw, db_raw = _residue_rates(build_lax(s), m)
    f = vector_field_gradient(state32, m)
    for i in range(state32.n_particles):
        raw = np.outer(da_raw[i], state32.b[i]) + np.outer(state32.a[i], db_raw[i])
        ham = np.outer(f.da[i], state32.b[i]) + np.outer(state32.a[i], f.db[i])
        assert np.max(np.abs(raw - ham)) <= 1e-12 * (1 + np.max(np.abs(ham)))


def test_integrate_t1_is_shift(state32):
    s_final = integrate(state32, FlowSpec(m=1, t_final=0.7, dt=1e-2)).state(-1)
    assert np.max(np.abs(s_final.x - (state32.x - 0.7))) <= 1e-12
    assert np.max(np.abs(s_final.p - state32.p)) <= 1e-12
    assert np.max(np.abs(s_final.a - state32.a)) <= 1e-12
    assert np.max(np.abs(s_final.b - state32.b)) <= 1e-12


def test_recorded_samples_and_times_refuse_to_be_made_writable(state32):
    # a sample's state shares the trajectory's memory, which no write reaches
    traj = integrate(state32, FlowSpec(m=2, t_final=0.01, dt=5e-3))
    sample = traj.state(0)
    for arr in (TimeVector().t, traj.x, sample.x):
        with pytest.raises(ValueError, match="WRITEABLE"):
            arr.setflags(write=True)
    assert all(np.shares_memory(getattr(sample, f), getattr(traj, f)) for f in "xpab")


def test_integrate_free_particle():
    s = new_state([0.0], [0.5], [[1.0]], [[1.0]])
    traj = integrate(s, FlowSpec(m=2, t_final=1.0, dt=1e-3))
    assert abs(traj.x[-1, 0] - 1.0) <= 1e-10


def test_integrate_conserves_hamiltonians(state32):
    traj = integrate(state32, FlowSpec(m=2, t_final=1.0, dt=1e-3, record_every=100))
    h0 = traj.hamiltonians[0]
    for h, drift in zip(traj.hamiltonians, traj.drift):
        assert np.max(np.abs(h - h0) / (1 + np.abs(h0))) <= 1e-8
        assert drift <= 1e-9


def test_integrate_dop853(state32, monkeypatch):
    monkeypatch.setattr(flows, "MAX_STEPS", 1000)  # a stepping fault fails, not hangs
    traj = integrate(state32, FlowSpec(m=2, t_final=0.5, dt=1e-2, record_every=10))
    h0 = traj.hamiltonians[0]
    assert np.max(np.abs(traj.hamiltonians - h0) / (1 + np.abs(h0))) <= 1e-11
    assert np.max(traj.drift) <= 1e-12
    assert matched_pole_error(traj.x, exact_flow_poles(state32, 2, traj.t)) <= 1e-12


@pytest.mark.parametrize("t_final,dt,record_every", [(0.7, 1e-2, 1), (0.7, 1e-2, 10), (0.25, 1e-2, 10)])
def test_dop853_samples_on_the_grid(state32, t_final, dt, record_every):
    # the fixed grid that RK4 once stepped on: DOP853 steps by its error and
    # reads the grid points from its extension. 0.7 / 70 * 70 rounds past
    # 0.7: the last sample is at the grid's own last time
    spec = FlowSpec(m=2, t_final=t_final, dt=dt, record_every=record_every)
    dop = integrate(state32, spec)
    assert np.array_equal(dop.t, _grid_times(spec))
    assert matched_pole_error(dop.x, exact_flow_poles(state32, 2, dop.t)) <= 5e-12


def test_integrate_complex_time(state32):
    tfin = 0.3 + 0.4j
    traj = integrate(state32, FlowSpec(m=1, t_final=tfin, dt=1e-2))
    assert traj.t[-1] == pytest.approx(tfin, abs=1e-14)
    assert np.max(np.abs(traj.x[-1] - (state32.x - tfin))) <= 1e-12


def test_integrate_step_limit(state32, monkeypatch):
    # the budget bounds the samples, not the grid: a grid of 1e7 steps
    # recorded every 10000th is 1001 samples, and DOP853 takes far fewer steps
    traj = integrate(random_state(5, 2, seed=3),
                     FlowSpec(m=2, t_final=1.0, dt=1e-7, record_every=10_000))
    assert len(traj.t) == 1001 and traj.t[-1] == 1.0
    # 11 samples over a budget of 10: refused before any step
    calls = _count_calls(monkeypatch, flows, "_tangent")
    monkeypatch.setattr(flows, "MAX_STEPS", 10)
    with pytest.raises(StepLimitExceeded, match="more than 10 samples") as err:
        integrate(state32, FlowSpec(m=2, t_final=0.01, dt=1e-3))
    assert calls == [] and (err.value.row, err.value.time) == (None, None)
    assert str(err.value) == ("the t_2 flow's grid of 10 steps, recorded every 1, "
                              "gives more than 10 samples")


def test_a_grid_beyond_int64_records_its_samples():
    # 1e20 grid steps recorded every (2^63 - 1)th: 12 samples, within the
    # budget. The int64 record index once overflowed, and a segment length
    # of object dtype ended the step in a numpy TypeError
    s = random_state(3, 2, seed=1)
    traj = integrate(s, FlowSpec(m=2, t_final=1.0, dt=1e-20, record_every=sys.maxsize))
    assert len(traj.t) == 12 and traj.t[-1] == 1.0
    assert traj.t[1] == sys.maxsize * (1.0 / 10**20) and traj.t[10] == 10 * sys.maxsize * (1.0 / 10**20)
    assert np.max(np.abs(traj.hamiltonians - traj.hamiltonians[0])) <= 1e-11


def test_integrate_detects_collision():
    # head-on real Calogero pair pushed together
    s = new_state([-1.0, 1.0], [2.0, -2.0], [[1.0], [1.0]], [[1.0], [1.0]])
    with pytest.raises(CollidingPoles) as err:
        integrate(s, FlowSpec(m=2, t_final=2.0, dt=1e-3), eps_coll=0.5)
    assert err.value.time is not None
    # a floor below the default 1e-6: uncoupled poles (R = I) drift into each
    # other at relative speed 4e-4 and meet exactly at t = 0.5, after stages
    # at separations between 1e-9 and 1e-6 that must not stop the flow
    s = new_state([-1e-4, 1e-4], [1e-4, -1e-4], [[1.0, 0.0], [0.0, 1.0]],
                  [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(CollidingPoles) as err:
        integrate(s, FlowSpec(m=2, t_final=1.0, dt=1e-3), eps_coll=1e-9)
    assert err.value.time == pytest.approx(0.5, abs=1e-3)
    # the collision falls on the segment end, the last recorded sample
    with pytest.raises(CollidingPoles) as err:
        integrate(s, FlowSpec(m=2, t_final=0.5, dt=1e-3), eps_coll=1e-9)
    assert err.value.time == pytest.approx(0.5, abs=1e-3)


def test_integrate_honours_small_eps_coll():
    # two poles 5e-7 apart with R = I: free motion, no interaction
    s = new_state([0.0, 5e-7], [0.3, 0.3], [[1.0, 0.0], [0.0, 1.0]],
                  [[1.0, 0.0], [0.0, 1.0]], eps_coll=1e-9)
    traj = integrate(s, FlowSpec(m=2, t_final=0.01, dt=1e-3), eps_coll=1e-9)
    assert np.max(np.abs(traj.x[-1] - (s.x + 2 * s.p * 0.01))) <= 1e-15


def test_dop853_failure_is_not_a_collision(state32, monkeypatch):
    # no step above 1e-40 meets an absolute tolerance of 1e-100: the step
    # shrinks by rejections until it is below 10 ulp of the segment, and
    # the row ends with IntegrationFailed at its start
    monkeypatch.setattr(dop853, "RTOL", 0.0)
    monkeypatch.setattr(dop853, "ATOL", 1e-100)
    monkeypatch.setattr(flows, "MAX_STEPS", 1000)
    with pytest.raises(IntegrationFailed, match="needs a step below") as err:
        integrate(state32, FlowSpec(m=2, t_final=0.1, dt=1e-2))
    assert (err.value.row, err.value.time) == (0, 0)


def test_dop853_rejects_a_step_that_is_not_finite(monkeypatch):
    # tr L^3 of a momentum 1e200 overflows at every trial step: each is
    # rejected with the factor 0.2, and the row ends at the step floor or
    # at the budget, not at its first trial; the row beside it finishes
    huge = new_state([-1, 1.0], [1e200, 0.0], [[1], [1]], [[1], [1]])
    far = new_state([-1, 1.0], [0.1, 0.2], [[1], [1]], [[1], [1]])
    spec = FlowSpec(m=3, t_final=0.1, dt=0.1)
    rows = [(huge, spec), (far, spec)]
    cases = ((flows.MAX_STEPS, IntegrationFailed, "needs a step below .* not finite"),
             (5, StepLimitExceeded, "its 5 steps"))
    for budget, error, words in cases:
        monkeypatch.setattr(flows, "MAX_STEPS", budget)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = integrate_stack(rows)
        assert isinstance(out[0], error) and (out[0].row, out[0].time) == (0, 0)
        assert re.search(words, str(out[0]))
        _assert_same_trajectory(out[1], integrate(*rows[1]))


def _count_calls(monkeypatch, module, name):
    """The list that a wrapper of module.name appends each call's first
    argument to."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda y, *a: calls.append(y) or fn(y, *a))
    return calls


def test_each_rhs_call_is_one_vector_field_gradient(monkeypatch):
    # the contract that RHS counts rely on: each right-hand-side call of a
    # stack is one call of the module global flows.vector_field_gradient on
    # the active rows, one per flows._tangent: F(y) at the start, then 12
    # per block step (11 stages of the pair and F(y_new)), and 3 more for
    # the extension where a row records a grid point inside the step. These
    # rows take 2 steps of the grid step, each accepted at its first try:
    # the first records grid point 1, the second ends the segment
    calls = _count_calls(monkeypatch, flows, "vector_field_gradient")
    tangents = _count_calls(monkeypatch, flows, "_tangent")
    states = [random_state(3, 2, seed=s) for s in range(3)]
    rows = [(st, FlowSpec(m=m, t_final=2e-3, dt=1e-3)) for st, m in zip(states, (2, 3, 1))]
    trajs = _trajectories(integrate_stack(rows))
    assert [len(tr.t) for tr in trajs] == [3] * 3
    assert len(calls) == len(tangents) == 1 + 15 + 12
    assert all(st.x.shape == (3, 3) for st in calls)


def test_packed_tangent_is_the_gradient_bit_for_bit():
    # each row of the packed, u-scaled stage of a stack that mixes m is
    # (dH/dp, -dH/dx, dH/db, -dH/da) u of its own grad_hamiltonian, to the
    # bit but for the sign of an exact zero (+ 0.0 clears it): the spin
    # rates of an m = 1 row are zeros whose signs follow the stack's Horner
    # products
    for n in (1, 2, 3, 10):
        states = [random_state(n, 2, seed=s) for s in range(4)]
        y = np.stack([_pack(st) for st in states])
        dim = y.shape[1]
        for ms in ([2, 2, 2, 2], [1, 3, 2, 5], [5, 1, 1, 4]):
            ref = np.stack([
                np.concatenate([g.dp, -g.dx, g.db.ravel(), -g.da.ravel()])
                for g in (grad_hamiltonian(st, m) for st, m in zip(states, ms))])
            m = flows._per_row(ms, column=False)
            for us in ([1.0] * 4, [np.exp(0.7j)] * 4, [1.0, -1.0, 1j, np.exp(-2j)]):
                u = flows._per_row(us)
                K = np.zeros((4, 12, dim), dtype=complex)
                flows._tangent(PhaseState(*_unpack(y, n, 2)), m, u, EPS_COLL, K[:, 5])
                assert (K[:, 5] + 0.0).tobytes() == (ref * u + 0.0).tobytes()
                assert not K[:, :5].any() and not K[:, 6:].any()
    # a second row that collides names itself
    ok = random_state(3, 2, seed=1)
    bad = PhaseState(x=np.array([0, 5e-7, 2], dtype=complex), p=ok.p, a=ok.a, b=ok.b)
    states = [random_state(3, 2, seed=0), bad, random_state(3, 2, seed=2)]
    y = np.stack([_pack(st) for st in states])
    with pytest.raises(CollidingPoles) as err:
        flows._tangent(PhaseState(*_unpack(y, 3, 2)), 2, 1.0, EPS_COLL, np.empty_like(y))
    assert err.value.row == 1


def test_check_lax_single_particle():
    s = new_state([0.1], [0.4], [[1.0]], [[1.0]])
    traj = integrate(s, FlowSpec(m=2, t_final=0.01, dt=1e-3, record_every=1))
    assert np.max(check_lax(traj)) <= 1e-12


def test_check_lax_forms_m():
    # M_2 = -2 L o inv = 2 R o inv o inv off the diagonal (flows._lax_pair).
    # Poles at -1, 1 with unit spins and p = 0: L = [[0, 1/2], [-1/2, 0]]
    # and M_2 = [[0, 1/2], [1/2, 0]], so [M_2, L] = diag(-1/2, 1/2), which
    # dL/dt = -diag(dp) equals only if M_2 has its factor 2 and its sign
    s = new_state([-1.0, 1.0], [0.0, 0.0], [[1.0], [1.0]], [[1.0], [1.0]])
    assert vector_field_gradient(s, 2).dp.tolist() == [0.5, -0.5]
    assert check_lax(integrate(s, FlowSpec(m=2, t_final=0, dt=1.0))).tolist() == [0.0]
    # one particle: M = 0, and dL/dt = 0
    s = new_state([0.0], [0.5], [[1.0]], [[1.0]])
    assert check_lax(integrate(s, FlowSpec(m=2, t_final=0, dt=1.0))).tolist() == [0.0]
    # M_3 = -3 L^2 o inv. Poles at -1, 1, unit spins and p = (1/2, 1/2):
    # L = [[-1/2, 1/2], [-1/2, -1/2]], L^2 = [[0, -1/2], [1/2, 0]] and
    # M_3 = [[0, -3/4], [-3/4, 0]], so [M_3, L] = diag(3/4, -3/4), which
    # dL/dt = -diag(dp) equals only if M_3 has its factor 3 and its sign
    s = new_state([-1.0, 1.0], [0.5, 0.5], [[1.0], [1.0]], [[1.0], [1.0]])
    assert vector_field_gradient(s, 3).dp.tolist() == [-0.75, 0.75]
    assert check_lax(integrate(s, FlowSpec(m=3, t_final=0, dt=1.0))).tolist() == [0.0]


def test_check_lax_is_exact_at_any_spacing(state32):
    # dL/dt is the exact derivative along the H_2 tangent: no stencil error
    # at any spacing, on a real and a complex segment. The Lax equation
    # holds on the constraint surface, so the residual reads what the flow
    # drifts off it: rounding at the last sample, a step's end, and the
    # error of the continuous extension at the grid points read from it
    for t_final in (0.1, 0.06 - 0.08j):
        for dt in (2e-2, 1e-3):
            traj = integrate(state32, FlowSpec(m=2, t_final=t_final, dt=dt))
            res = check_lax(traj)
            assert res.shape == traj.t.shape
            assert res[-1] <= 1e-14 and np.max(res) <= 1e-13


def _sample(traj, k):
    """The one-sample Trajectory of sample k of ``traj``."""
    return Trajectory(**{f.name: getattr(traj, f.name)[k : k + 1] if f.name != "m"
                         else traj.m for f in fields(Trajectory)})


def test_check_lax_equals_per_sample_loop(state32):
    traj = integrate(state32, FlowSpec(m=2, t_final=0.02, dt=1e-3, record_every=2))
    ref = [check_lax(_sample(traj, k))[0] for k in range(len(traj.t))]
    assert np.array_equal(check_lax(traj), ref)


def test_check_lax_of_one_sample(state32):
    traj = integrate(state32, FlowSpec(m=2, t_final=0.0, dt=1e-3))
    assert len(traj.t) == 1
    res = check_lax(traj)
    assert res.shape == (1,) and res[0] <= 1e-14
    # off the constraint surface (b_0^T a_0 = 1 + 1e-6) the equation fails
    b = state32.b.copy()
    b[0] *= 1 + 1e-6
    off = PhaseState(state32.x, state32.p, state32.a, b)
    assert check_lax(integrate(off, FlowSpec(m=2, t_final=0.0, dt=1e-3)))[0] >= 1e-7


def test_check_lax_holds_along_every_flow(state32):
    # one M_m for every m (it once refused every flow but t_2), on a real
    # and a complex segment; M_1 = 0, and the t_1 flow moves no entry of L
    for m in range(1, 6):
        for t_final in (0.1, 0.06 - 0.08j):
            res = check_lax(integrate(state32, FlowSpec(m=m, t_final=t_final, dt=1e-2)))
            assert res[-1] <= 1e-14 and np.max(res) <= 1e-13
            assert m > 1 or not res.any()


def test_commutativity_with_t1(state32):
    assert commutativity_check(state32, 1, 2, 0.2, 0.1) <= 1e-9


def test_commutativity_zero_span(state32):
    assert commutativity_check(state32, 2, 3, 0.0, 0.0) == 0.0


def test_commutativity_t2_t3(state32):
    assert commutativity_check(state32, 2, 3, 0.1, 0.1) <= 1e-6


def test_pole_pairing_is_closest_first():
    # two poles that share their real part, ref's listed in the other
    # order and off by a rounding: a sort on (Re x, Im x) splits them
    x = np.array([[1j, -1j, 2.0]])
    ref = np.array([[2.0, -1j + 1e-15, 1j - 1e-15]])
    assert flows._pole_pairing(x, ref).tolist() == [[2, 1, 0]]
    assert matched_pole_error(x, ref) == pytest.approx(1e-15, rel=1e-6)


def test_commutativity_pairs_conjugate_poles():
    # x = r +- i s, p = (q, conj q), a = b = 1: the legs' poles share a real
    # part up to rounding, which a (Re x, Im x) sort once read as a gap of 0.987
    s = new_state([1j, -1j], [0.2 - 0.3j, 0.2 + 0.3j], [[1], [1]], [[1], [1]])
    assert commutativity_check(s, 2, 3, 0.1, 0.1) <= 1e-12
    rng = np.random.default_rng(3)
    for _ in range(12):
        r, sep = rng.uniform(-1, 1), rng.uniform(0.5, 1.5)
        q = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        s = new_state([r + 1j * sep, r - 1j * sep], [q, q.conjugate()], [[1], [1]], [[1], [1]])
        assert commutativity_check(s, 2, 3, 0.1, 0.1) <= 1e-6


def test_trajectory_export(tmp_path, state32):
    traj = integrate(state32, FlowSpec(m=2, t_final=0.01, dt=1e-3, record_every=5))
    csv_path = tmp_path / "traj.csv"
    json_path = tmp_path / "traj.json"
    traj.export_csv(csv_path)
    traj.export_json(json_path)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[:3] == ["step", "re_t", "im_t"]
    assert "re_x_1" in header and "re_p_3" in header
    assert "drift" in header and "re_H1" in header and "im_H5" in header
    assert len(rows) - 1 == len(traj.t)
    text = json_path.read_text()
    assert "\n" not in text  # compact one-line JSON
    data = json.loads(text)
    assert data["m"] == 2
    H = pairs_to_complex([sample["hamiltonians"] for sample in data["samples"]])
    assert np.array_equal(H, traj.hamiltonians)
    assert len(data["samples"]) == len(traj.t)
    assert data["samples"][0]["state"]["n_particles"] == 3
    # every row mirrors its sample exactly, in the PhaseState schema
    for k, (row, sample) in enumerate(zip(rows[1:], data["samples"])):
        assert sample["state"] == traj.state(k).to_dict()
        assert sample["t"] == [traj.t[k].real, traj.t[k].imag]
        assert sample["drift"] == traj.drift[k] == float(row[header.index("drift")])
        assert float(row[header.index("im_H5")]) == traj.hamiltonians[k, 4].imag
        assert float(row[header.index("re_x_2")]) == traj.x[k, 1].real



# ---------------------------------------------------------------------------
# the stacked integrator


def _assert_same_trajectory(got, want):
    for f in fields(Trajectory):
        u, v = getattr(got, f.name), getattr(want, f.name)
        assert np.asarray(u).dtype == np.asarray(v).dtype, f.name
        assert np.array_equal(u, v), f.name


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("t_final", [0.012, 0.009 + 0.006j], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 3, 8, 30])
def test_stack_rows_equal_single_row_integrate(n, t_final, record_every):
    states = [random_state(n, 2, seed=s) for s in range(5)]
    spec = FlowSpec(m=2, t_final=t_final, dt=1e-3, record_every=record_every)
    stacks = [[replace(spec, m=m) for m in ms] for ms in ([1, 2, 3, 4], [4, 2], [3, 3])]
    # ragged: each row its own endpoint (real, complex or 0), step and record_every
    stacks.append([
        spec,
        replace(spec, m=3, t_final=0),
        replace(spec, m=1, t_final=1j * t_final, dt=7e-4),
        replace(spec, m=4, t_final=-t_final / 2, record_every=3),
        replace(spec, m=3, dt=2e-3, record_every=1),
    ])
    for specs in stacks:
        rows = list(zip(states, specs))
        trajs = integrate_stack(rows)
        assert [tr.m for tr in trajs] == [sp.m for sp in specs]
        for (st, sp), got in zip(rows, trajs):
            _assert_same_trajectory(got, integrate(st, sp))
            assert np.array_equal(got.t, _grid_times(sp))
            assert np.array_equal(_pack(got.state(0)), _pack(st))
            # every field in its place: the poles follow the exact flow, and
            # H_1..H_5 and the constraint, which read x, p, a and b, hold
            assert matched_pole_error(got.x, exact_flow_poles(st, sp.m, got.t)) <= 5e-12
            assert _scaled_error(got.hamiltonians, hamiltonians(st)) <= 1e-10
            assert np.max(got.drift) <= 1e-12
    assert len(trajs[1].t) == 1 and trajs[1].t[0] == 0  # the ragged stack's t_final = 0 row


def test_vector_field_gradient_of_a_stack_equals_each_point():
    states = [random_state(5, 3, seed=s) for s in range(3)]
    stack = PhaseState(*(np.stack([getattr(st, f) for st in states]) for f in "xpab"))
    # [5, 1, 2]: the top power L^4 on one row, L and 0 L + I picked on the others
    for ms in ([2, 2, 2], [1, 3, 4], [4, 1, 1], [5, 1, 2]):
        m = ms[0] if len(set(ms)) == 1 else np.array(ms)
        f = vector_field_gradient(stack, m)
        for st, mr, k in zip(states, ms, range(3)):
            g = vector_field_gradient(st, mr)
            for name in ("dx", "dp", "da", "db"):
                assert np.array_equal(getattr(f, name)[k], getattr(g, name))
    with pytest.raises(ValueError):
        vector_field_gradient(stack, np.array([1, 0, 2]))


@pytest.mark.parametrize("n", [3, 100])
def test_stacked_record_equals_per_row_hamiltonians_and_drift(n):
    # at n = 100 a two-row stack is recorded in chunks of a few samples
    rows = [(random_state(n, 4, seed=s), FlowSpec(m=m, t_final=0.01, dt=1e-3))
            for s, m in ((1, 2), (2, 3))]
    for traj in integrate_stack(rows):
        for k in range(len(traj.t)):
            st = traj.state(k)
            assert np.array_equal(traj.hamiltonians[k], hamiltonians(st))
            assert traj.drift[k] == st.constraint_drift()


def _free_pair(x, p):
    """Two uncoupled poles (R = I): each moves on a straight line."""
    eye = [[1.0, 0.0], [0.0, 1.0]]
    return new_state(x, p, eye, eye, eps_coll=1e-11)


def test_stack_collision_names_the_row_its_m_and_time():
    meet2 = _free_pair([-1e-4, 1e-4], [1e-4, -1e-4])  # dx/dt_2 = 2p: meet at t = 0.5
    meet3 = _free_pair([-3e-5, 3e-5], [0.0, 0.01])  # dx/dt_3 = -3p^2: meet at t = 0.2
    apart = _free_pair([-1.0, 1.0], [0.1, 0.2])  # separates under t_1, t_2 and t_3
    one = FlowSpec(m=2, t_final=1.0, dt=1e-3)
    cases = [  # rows, then {row: (m, collision time)}
        ([(apart, one), (meet3, replace(one, m=3))], {1: (3, 0.2)}),
        ([(meet2, one), (apart, replace(one, m=3))], {0: (2, 0.5)}),
        ([(meet2, one), (meet3, replace(one, m=3))], {0: (2, 0.5), 1: (3, 0.2)}),
        # rows that end before, at and after the collisions, with their own
        # steps and endpoints; the block index of a collision is not its row
        ([(apart, replace(one, t_final=0.1 + 0.05j, dt=7e-4)), (meet3, replace(one, m=3)),
          (apart, replace(one, m=1, t_final=0)), (meet2, replace(one, dt=2e-3, record_every=5)),
          (apart, replace(one, m=3, t_final=-0.7))], {1: (3, 0.2), 3: (2, 0.5)}),
        # a collision at the end of a segment, seen by the last sample
        ([(apart, replace(one, t_final=0.2)), (meet3, replace(one, m=3, t_final=0.2))],
         {1: (3, 0.2)}),
    ]
    for rows, errors in cases:
        out = integrate_stack(rows, eps_coll=1e-9)
        for r, (row, got) in enumerate(zip(rows, out)):
            if r not in errors:
                _assert_same_trajectory(got, integrate(*row, eps_coll=1e-9))
                continue
            m, t = errors[r]
            assert isinstance(got, CollidingPoles) and f"t_{m} flow" in str(got)
            assert got.row == r
            assert got.time == pytest.approx(t, abs=1e-3)
            with pytest.raises(CollidingPoles) as alone:
                integrate(*row, eps_coll=1e-9)
            assert (alone.value.time, str(alone.value)) == (got.time, str(got))
        # the earliest collision is the stack's first error
        first = min(errors, key=lambda r: errors[r][1])
        assert _first_error(out) is out[first]
    assert out[1].time == pytest.approx(0.2, abs=1e-12)


def _passing_pair(c):
    """Two uncoupled poles whose t_2 flow passes them 0.01 apart at t = c,
    and 0.4 apart or more at t = 0 and t = 1; a floor of 0.015 sees them
    only within 0.006 of c."""
    return new_state([-2 * c + 0.01j, 0.0], [1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]],
                     [[1.0, 0.0], [0.0, 1.0]], eps_coll=0.015)


@pytest.mark.parametrize("k", [13, 14, 15])
def test_collision_at_an_extension_stage_of_the_last_step_ends_the_row(k, monkeypatch):
    # one step of the grid, so the first block step is row 0's last; row 1
    # records grid point 1 inside it, so the block evaluates the 3 stages of
    # the extension, and row 0's poles pass within the floor only at stage
    # k's flow time. Row 0 ends with CollidingPoles there, not with the
    # Trajectory of its step, and no sample of that step is recorded for it
    calls = _count_calls(monkeypatch, flows, "_tangent")
    rows = [(_passing_pair(dop853.C[k]), FlowSpec(m=2, t_final=1.0, dt=1.0)),
            (_free_pair([-1.0, 1.0], [0.1, 0.2]), FlowSpec(m=2, t_final=1.0, dt=0.25))]
    out = integrate_stack(rows, eps_coll=0.015)
    assert isinstance(out[0], CollidingPoles) and "t_2 flow" in str(out[0])
    assert (out[0].row, out[0].time) == (0, dop853.C[k])
    # F(y), then 12 stages and stage k once more, for both rows
    assert [st.x.shape[0] for st in calls[:17]] == [2] * 17
    _assert_same_trajectory(out[1], integrate(*rows[1], eps_coll=0.015))


def test_a_step_where_one_row_collides_and_another_finishes(monkeypatch):
    # both rows take one step; row 0's poles pass within the floor at
    # stage 6 (t = 0.25) and row 1 finishes. Row 2, chained to row 0, takes
    # its error and no step; row 3, chained to row 1, joins at the next
    # step, alone in the block, as integrating row 1's last state alone
    calls = _count_calls(monkeypatch, flows, "_tangent")
    spec = FlowSpec(m=2, t_final=1.0, dt=1.0)
    leg = FlowSpec(m=3, t_final=0.5, dt=0.1, record_every=2)
    rows = [(_passing_pair(0.25), spec), (_free_pair([-1.0, 1.0], [0.1, 0.2]), spec),
            (0, leg), (1, leg)]
    out = integrate_stack(rows, eps_coll=0.015)
    assert isinstance(out[0], CollidingPoles) and (out[0].row, out[0].time) == (0, 0.25)
    assert out[2] is out[0]
    _assert_same_trajectory(out[1], integrate(*rows[1], eps_coll=0.015))
    _assert_same_trajectory(out[3], integrate(out[1].state(-1), leg, eps_coll=0.015))
    # F(y), 11 stages, stage 6 once more and F(y_new) for rows 0 and 1; from
    # then on only row 3
    shapes = [st.x.shape[0] for st in calls]
    assert shapes[:14] == [2] * 14 and set(shapes[14:]) == {1}


def test_dop853_tableau_order_conditions():
    # the stages of the installed scipy's DOP853 and of its continuous
    # extension, as spincm reads them: a relayout of scipy's coefficient
    # file fails here
    A, C, G = dop853.A, dop853.C, dop853.G
    B, E5, E3 = dop853.BE
    assert A.shape == (16, 16) and C.shape == (16,) and G.shape == (7, 16)
    assert dop853.BE.shape == (3, 12)
    assert np.all(np.triu(A) == 0)  # explicit
    assert np.max(np.abs(A.sum(axis=1) - C)) <= 1e-14
    assert abs(B.sum() - 1) <= 1e-15 and abs(B @ C[:12] - 0.5) <= 1e-15
    for k in range(2, 9):  # order 8 on the quadrature conditions
        assert abs(B @ C[:12] ** (k - 1) - 1 / k) <= 1e-14
    assert abs(E3.sum()) <= 1e-14 and abs(E5.sum()) <= 1e-14  # differences of two rules
    assert C[0] == 0 and C[11] == C[12] == 1
    assert np.array_equal(A[12, :12], B) and not A[12, 12:].any()  # stage 12 is F(y_new)
    from scipy.integrate._ivp import dop853_coefficients as scipy_dop853

    assert scipy_dop853.E3[12] == scipy_dop853.E5[12] == 0  # the dropped weight on F(y_new)
    assert np.array_equal(scipy_dop853.B, B) and np.array_equal(scipy_dop853.D, G[3:])
    # the extension, of order 7, integrates y' = t^k exactly for k <= 6 at
    # any fraction theta of a step h from t = 0
    h, theta = 0.7, np.array([[0.0], [0.3], [0.8], [1.0]])
    for k in range(7):
        K = ((C * h) ** k).astype(complex)[None, :, None]
        got = dop853._dense(np.zeros((1, 1)), K, np.array([[h + 0j]]), [0] * 4, theta)
        assert np.max(np.abs(got - (theta * h) ** (k + 1) / (k + 1))) <= 1e-15


def _spincm_imports(path):
    """The spincm modules that the module at ``path`` imports, at any depth
    of its code, by file stem: ``__init__`` for the package itself."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            full = ".".join(filter(None, ["spincm" if node.level else "", node.module]))
            names = [f"{full}.{a.name}" for a in node.names] if full == "spincm" else [full]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        found.update((name.split(".") + ["__init__"])[1] for name in names
                     if name.split(".")[0] == "spincm")
    return found


def test_dop853_imports_no_spincm_module_and_no_module_imports_back():
    # flows owns the stack rows and imports dop853, DOP853's math alone;
    # each module is reached only by modules it does not reach
    src = pathlib.Path(flows.__file__).parent
    mods = {p.stem: p for p in src.glob("*.py")}
    deps = {name: _spincm_imports(p) for name, p in mods.items()}
    assert deps["dop853"] == set() and "dop853" in deps["flows"]

    def reach(name, seen):
        for dep in deps[name] - seen:
            seen.add(dep)
            reach(dep, seen)
        return seen

    assert all(name not in reach(name, set()) for name in mods)


def test_dop853_is_loaded_at_the_first_flow_not_at_import():
    code = ("import sys\n"
            "import spincm.cli\n"
            "assert 'spincm.dop853' not in sys.modules\n"
            "spincm.integrate(spincm.random_state(2, 1, 0), spincm.FlowSpec(2, 0.01, 1e-2))\n"
            "assert 'spincm.dop853' in sys.modules\n")
    src = str(pathlib.Path(flows.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_dop853_stack_rows_equal_single_row_integrate(n, record_every):
    # ragged: each row its own m, endpoint (real, complex or 0), grid and
    # record_every; each row steps on its own error, with its own h
    states = [random_state(n, 2, seed=s) for s in range(5)]
    spec = FlowSpec(m=2, t_final=0.2, dt=1e-2, record_every=record_every)
    specs = [
        spec,
        replace(spec, m=3, t_final=0),
        replace(spec, m=1, t_final=0.1j, dt=7e-3),
        replace(spec, m=4, t_final=-0.1 + 0.05j, record_every=3),
        replace(spec, m=3, dt=2e-2, record_every=sys.maxsize),
    ]
    rows = list(zip(states, specs))
    trajs = integrate_stack(rows)
    for (st, sp), got in zip(rows, trajs):
        _assert_same_trajectory(got, integrate(st, sp))
        assert np.array_equal(got.t, _grid_times(sp))
        if sp.t_final:
            assert matched_pole_error(got.x, exact_flow_poles(st, sp.m, got.t)) <= 5e-12
    assert len(trajs[4].t) == 2  # the endpoint-only row: t = 0 and its endpoint


def test_dop853_endpoint_rows_add_no_steps(state32, monkeypatch):
    # a row that records only its endpoint takes the steps its error asks
    # for from its grid step; a second such row in the block costs no
    # right-hand-side call of its own
    calls = _count_calls(monkeypatch, flows, "_tangent")
    end = FlowSpec(m=2, t_final=0.1, dt=1e-3, record_every=sys.maxsize)
    integrate(state32, end)
    alone = len(calls)
    assert alone % 12 == 1 and alone <= 1 + 12 * 8
    del calls[:]
    integrate_stack([(state32, end), (state32, replace(end, m=1, t_final=0.05))])
    assert len(calls) == alone


@pytest.mark.parametrize("n,N,seed,m", [(3, 2, 42, 2), (3, 2, 42, 3), (3, 1, 4, 3),
                                        (8, 2, 4, 3), (5, 1, 3, 2), (8, 4, 0, 3)])
def test_suite_flows_follow_the_exact_flow(n, N, seed, m):
    # the suite's DOP853 t_2 / t_3 flows against the exact flow at every
    # recorded sample; the last four are flows that pass near a complex
    # collision time, where the fixed-step RK4 that the repository once had
    # was off by up to 1e-5 at dt = 1e-3
    state = random_state(n, N, seed=seed)
    traj = _suite_flows(state, Config())[f"t{m}"]
    assert len(traj.t) == 21
    assert matched_pole_error(traj.x, exact_flow_poles(state, m, traj.t)) <= 1e-10


@pytest.mark.parametrize("n,N,seed,m,t_final,rk4", [
    (3, 2, 7, 2, 1.0, 8.9e-10), (8, 2, 4, 3, 1.0, 6.1e-5), (30, 4, 7, 2, 0.5, 1.9e-12),
    (3, 2, 42, 3, 1.0, 1.3e-11), (100, 4, 11, 2, 0.05, 3.8e-11),
    (100, 4, 11, 3, 0.0325 + 0.0325j, 3.3e-11), (100, 4, 12, 2, 0.05, 1.3e-12)])
def test_integrate_follows_the_exact_flow_at_every_sample(n, N, seed, m, t_final, rk4):
    # every grid point at dt = 1e-3, most of them read from the extension,
    # within the pole error of the fixed-step RK4 that integrate once took
    # (rk4, as measured) or within 5e-12, the oracle's own eigvals rounding
    state = random_state(n, N, seed=seed)
    traj = integrate(state, FlowSpec(m=m, t_final=t_final, dt=1e-3))
    assert len(traj.t) == math.ceil(abs(t_final) / 1e-3) + 1
    assert matched_pole_error(traj.x, exact_flow_poles(state, m, traj.t)) <= max(rk4, 5e-12)


def test_record_every_only_thins(monkeypatch):
    # the steps follow the error estimate alone, so every record_every gives
    # the same bits at the grid times it shares with record_every = 1, on a
    # stacked row, a complex one and a row chained to the first; a thinner
    # record only skips the 3 stages of the extension at steps where no row
    # records a grid point
    calls = _count_calls(monkeypatch, flows, "_tangent")
    states = [random_state(5, 2, seed=s) for s in (3, 4)]
    specs = [FlowSpec(m=2, t_final=0.3, dt=1e-3), FlowSpec(m=3, t_final=0.2 - 0.15j, dt=2e-3),
             FlowSpec(m=3, t_final=-0.1, dt=1e-3)]
    grids = [math.ceil(abs(sp.t_final) / sp.dt) for sp in specs]
    runs = {}
    for every in (1, 7, "all"):
        del calls[:]
        sps = [replace(sp, record_every=k if every == "all" else every)
               for sp, k in zip(specs, grids)]
        trajs = _trajectories(integrate_stack([(states[0], sps[0]), (states[1], sps[1]),
                                               (0, sps[2])]))
        runs[every] = len(calls), trajs
        for sp, tr in zip(sps, trajs):
            assert np.array_equal(tr.t, _grid_times(sp))
    count, full = runs[1]
    assert count > runs[7][0] > runs["all"][0]
    for every in (7, "all"):
        assert (count - runs[every][0]) % 3 == 0
        for k, tr, ref in zip(grids, runs[every][1], full):
            keep = [*range(0, k, k if every == "all" else every), k]
            for name in ("t", "x", "p", "a", "b", "drift", "hamiltonians"):
                assert getattr(tr, name).tobytes() == getattr(ref, name)[keep].tobytes(), name
    assert np.array_equal(_pack(full[2].state(0)), _pack(full[0].state(-1)))


def test_stack_step_budget_ends_only_its_row(state32, monkeypatch):
    # a budget of 9: 11 samples are over it, 6 (every second) under it
    monkeypatch.setattr(flows, "MAX_STEPS", 9)
    over = FlowSpec(m=2, t_final=0.01, dt=1e-3)
    spec = replace(over, record_every=2)
    out = integrate_stack([(state32, over), (state32, spec)])
    assert isinstance(out[0], StepLimitExceeded) and "more than 9 samples" in str(out[0])
    _assert_same_trajectory(out[1], integrate(state32, spec))
    assert len(out[1].t) == 6
    assert _first_error(out) is out[0]
    with pytest.raises(StepLimitExceeded):
        integrate(state32, over)
    # a step count past any float still ends in StepLimitExceeded
    monkeypatch.undo()
    with pytest.raises(StepLimitExceeded, match="grid of inf steps"):
        integrate(state32, replace(spec, t_final=1e300, dt=1e-300))


def test_format_time_prints_a_real_time_without_its_imaginary_part():
    assert flows._format_time(0.25 + 0j) == "0.25"
    assert flows._format_time(complex(-0.5, -0.0)) == "-0.5"
    assert flows._format_time(np.complex128(1e-5)) == "1e-05"
    assert flows._format_time(0.02 + 0.01j) == "(0.02+0.01j)"


def test_dop853_step_budget_ends_only_its_row(state32, monkeypatch):
    # one grid step, so 2 samples pass a budget of 2 before any step; a t_2
    # flow to t = 1 needs more than two DOP853 steps, and the t_1 flow, a
    # translation, one
    monkeypatch.setattr(flows, "MAX_STEPS", 2)
    spec = FlowSpec(m=2, t_final=1.0, dt=1.0)
    out = integrate_stack([(state32, spec), (state32, replace(spec, m=1))])
    assert isinstance(out[0], StepLimitExceeded) and "t_2 flow took its 2 steps" in str(out[0])
    _assert_same_trajectory(out[1], integrate(state32, replace(spec, m=1)))
    # a budget that runs out on the way carries its flow time and row, and
    # ranks by it: row 0 runs out at t = 0.254, after row 1's collision
    monkeypatch.setattr(flows, "MAX_STEPS", 10)
    far = new_state([-3, 3], [2, -2], [[1], [1]], [[1], [1]])
    near = new_state([-1, 1], [2, -2], [[1], [1]], [[1], [1]])
    spec = FlowSpec(m=2, t_final=2.0, dt=2.0)
    out = integrate_stack([(far, spec), (near, spec)], eps_coll=0.5)
    assert isinstance(out[0], StepLimitExceeded) and out[0].row == 0
    assert out[0].time.imag == 0 and 0.25 < out[0].time.real < 0.26
    # a real flow time prints as a real number
    assert str(out[0]) == f"the t_2 flow took its 10 steps by t = {float(out[0].time.real)!r}"
    assert isinstance(out[1], CollidingPoles) and 0.23 < out[1].time.real < 0.24
    assert _first_error(out) is out[1]


def test_recorded_sample_collision_names_its_row_m_and_time():
    # a collision seen only at a recorded sample: the t_final = 0 stack,
    # then chunked records (n = 100) whose row 1 collides at samples 5 and
    # 7 and row 0 at sample 7, in its second chunk
    apart = _free_pair([-1.0, 1.0], [0.1, 0.2])
    close = _free_pair([-3e-5, 3e-5], [0.0, 0.01])
    rows = [(apart, FlowSpec(m=2, t_final=0, dt=1e-3)), (close, FlowSpec(m=3, t_final=0, dt=1e-3))]
    out = integrate_stack(rows, eps_coll=1e-4)
    _assert_same_trajectory(out[0], integrate(*rows[0], eps_coll=1e-4))
    assert isinstance(out[1], CollidingPoles) and "t_3 flow" in str(out[1])
    assert (out[1].row, out[1].time) == (1, 0)
    states = [random_state(100, 2, seed=s) for s in (1, 2)]
    Y = np.array([[_pack(st) for st in states]] * 9)
    for j, r in ((5, 1), (7, 1), (7, 0)):
        Y[j, r, 1] = Y[j, r, 0] + 1e-8  # x_2 next to x_1
    times = np.arange(9) * (0.01 + 0.02j)
    for r, m, j in ((0, 2, 7), (1, 4, 5)):
        got = _record(r, m, times, Y[:, r], 100, 2, 1e-6)
        assert isinstance(got, CollidingPoles) and f"t_{m} flow" in str(got)
        assert (got.row, got.time) == (r, times[j])


def test_non_finite_sample_ends_its_row_with_its_m_and_time(monkeypatch):
    # recorded in chunks (n = 100): row 0 leaves the finite numbers at
    # sample 6 (in b, not x) before its collision at sample 7; row 1
    # collides at sample 5 before it does at sample 7
    states = [random_state(100, 2, seed=s) for s in (1, 2)]
    Y = np.array([[_pack(st) for st in states]] * 9)
    Y[6, 0, -1] = np.inf
    Y[8, 0, 0] = np.nan
    Y[7, 1, 3] = np.nan
    for j, r in ((7, 0), (5, 1)):
        Y[j, r, 1] = Y[j, r, 0] + 1e-8
    times = np.arange(9) * (0.01 + 0.02j)
    got = _record(0, 3, times, Y[:, 0], 100, 2, 1e-6)
    assert isinstance(got, IntegrationFailed) and "t_3 flow" in str(got)
    assert (got.row, got.time) == (0, times[6])
    got = _record(1, 2, times, Y[:, 1], 100, 2, 1e-6)
    assert isinstance(got, CollidingPoles) and (got.row, got.time) == (1, times[5])
    # two poles 1.05e-5 apart, which a fixed step of 2.5e-5 throws out of
    # the finite numbers, between rows that finish or collide; no numpy
    # warning is raised on the way
    close = new_state([0, 1.05e-5], [0.1, 0.2], [[1], [1]], [[1], [1]])
    far = new_state([-1, 1.0], [0.1, 0.2], [[1], [1]], [[1], [1]])
    monkeypatch.setattr(flows, "MAX_STEPS", 1000)
    spec = FlowSpec(m=2, t_final=1e-4, dt=2.5e-5)
    rows = [(far, spec), (close, spec), (close, replace(spec, t_final=-1e-4, record_every=3)),
            (close, replace(spec, m=3))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dop = integrate_stack(rows)
    _assert_same_trajectory(dop[0], integrate(*rows[0]))
    # a step that is not finite is rejected, so the t_2 rows follow the
    # flow into the collision of the scalar two-body problem: with
    # d = x_1 - x_2 and P = p_1 - p_2, E = P^2 - 4/d^2 is conserved and
    # |d| falls from |d_0| to e within (sqrt(E d_0^2 + 4) - sqrt(E e^2 + 4))/(2E)
    d0, E = 1.05e-5, 0.1**2 - 4 / 1.05e-5**2
    reach = lambda e: (math.sqrt(E * d0**2 + 4) - math.sqrt(E * e**2 + 4)) / (2 * E)
    for r, sign in ((1, 1), (2, -1)):
        assert isinstance(dop[r], CollidingPoles) and "t_2 flow" in str(dop[r])
        assert dop[r].row == r and dop[r].time.imag == 0
        assert reach(1e-6) <= sign * dop[r].time.real <= reach(0.0)
    # the t_2 rows collide within 1e-10, long before the t_3 row does
    assert isinstance(dop[3], CollidingPoles) and abs(dop[3].time) > 1e-6
    assert _first_error(dop) is min(dop[1:3], key=lambda exc: abs(exc.time))


def test_export_csv_writes_the_bytes_of_csv_writer(tmp_path):
    rng = np.random.default_rng(3)
    for n in (1, 4):
        k = 5
        z = lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s)
        H = z(k, 5)
        H[0, 0], H[1, 1], H[2, 2], H[3, 3] = -0.0, 5e-324 - 0.0j, 1e300 + 1e-300j, -1e300
        x = z(k, n)
        x[0, 0] = complex(-0.0, 2.5e-310)
        traj = Trajectory(t=z(k), x=x, p=z(k, n), a=z(k, n, 2), b=z(k, n, 2),
                          drift=np.array([0.0, -0.0, 5e-324, 1e300, 0.125]), hamiltonians=H, m=2)
        path = tmp_path / f"traj{n}.csv"
        traj.export_csv(path)
        ref = tmp_path / f"ref{n}.csv"
        with open(ref, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "re_t", "im_t"]
                       + [f"{c}_{v}_{i + 1}" for v in "xp" for i in range(n) for c in ("re", "im")]
                       + ["drift"] + [f"{c}_H{j + 1}" for j in range(5) for c in ("re", "im")])
            for s in range(k):
                w.writerow([s] + [float(f(v)) for v in (traj.t[s], *traj.x[s], *traj.p[s])
                                  for f in (np.real, np.imag)]
                           + [float(traj.drift[s])]
                           + [float(f(h)) for h in traj.hamiltonians[s] for f in (np.real, np.imag)])
        assert path.read_bytes() == ref.read_bytes()
        assert b"-0.0" in path.read_bytes() and b"5e-324" in path.read_bytes()


def test_integrate_stack_rejects_mixed_specs(state32):
    spec = FlowSpec(m=2, t_final=0.01, dt=1e-3)
    with pytest.raises(DimensionMismatch):
        integrate_stack([(state32, spec), (random_state(4, 2, seed=1), spec)])


def test_commutativity_raises_a_first_leg_error_before_a_second_leg_error():
    # uncoupled poles (R = I): t_2 by 0.1 meets at its endpoint, and t_2 by
    # 0.1 after t_3 by 0.1 meets at 0.06; the first leg's error is raised,
    # as when the second legs ran only after the first ones
    eye = np.eye(2).tolist()
    state = new_state([-1e-4, 1e-4], [-0.1328333, -0.1338333], eye, eye)
    legs = integrate_stack(flows._commutativity_rows(state, 2, 3, 0.1, 0.1))
    assert isinstance(legs[0], CollidingPoles) and legs[2] is legs[0]
    assert isinstance(legs[3], CollidingPoles) and legs[3].time == pytest.approx(0.06)
    with pytest.raises(CollidingPoles) as err:
        commutativity_check(state, 2, 3, 0.1, 0.1)
    assert (err.value.row, err.value.time, str(err.value)) == (0, legs[0].time, str(legs[0]))


def test_commutativity_legs_as_stacks_equal_sequential_legs(state32):
    def leg(st, m, s):
        spec = FlowSpec(m=m, t_final=s, dt=abs(s))  # a one-step grid
        return integrate(st, spec)

    # equal spans, then ragged legs: a complex second span, and m = 1
    for m1, m2, s1, s2 in ((2, 3, 0.05, 0.05), (2, 3, 0.05, 0.03 + 0.02j), (1, 2, 0.2, 0.1)):
        a, b = leg(state32, m1, s1), leg(state32, m2, s2)
        ab, ba = leg(a.state(-1), m2, s2), leg(b.state(-1), m1, s1)
        ref = flows._commutativity_gap([a, b, ab, ba])
        assert commutativity_check(state32, m1, m2, s1, s2) == ref
        # the gap reads H_1..H_5 as recorded at the endpoints, which are
        # those of the end states bit for bit, and no other sample's
        wiped = []
        for tr in (ab, ba):
            assert tr.hamiltonians[-1].tobytes() == hamiltonians(tr.state(-1)).tobytes()
            H = tr.hamiltonians.copy()
            H[:-1] = np.nan
            wiped.append(replace(tr, hamiltonians=H))
        assert flows._commutativity_gap([a, b, *wiped]) == ref


def test_chained_rows_equal_integrating_the_parent_endpoint():
    # chained rows, a chain of two included, between unrelated rows that
    # mix m and direction: each is its parent's last state integrated alone
    states = [random_state(3, 2, seed=s) for s in range(3)]
    spec = FlowSpec(m=2, t_final=0.1, dt=1e-2, record_every=3)
    rows = [
        (states[0], spec),
        (states[1], replace(spec, m=4, t_final=0.05j)),
        (0, replace(spec, m=3, t_final=-0.04 + 0.03j)),
        (states[2], replace(spec, m=1, t_final=0.2)),
        (2, replace(spec, m=2, t_final=0.02, record_every=sys.maxsize)),
        (3, replace(spec, m=5, t_final=0.03)),
    ]
    got = _trajectories(integrate_stack(rows))
    for r, (start, sp) in enumerate(rows):
        st = got[start].state(-1) if isinstance(start, int) else start
        _assert_same_trajectory(got[r], integrate(st, sp))
    assert len(got[4].t) == 2


def test_chained_row_takes_its_parents_error_and_no_step(monkeypatch):
    calls = _count_calls(monkeypatch, flows, "_tangent")
    meet2 = _free_pair([-1e-4, 1e-4], [1e-4, -1e-4])  # collides at t_2 = 0.5
    far = new_state([-3, 3], [2, -2], [[1], [1]], [[1], [1]])  # its budget runs out
    leg = FlowSpec(m=3, t_final=0.05, dt=0.05)
    cases = (
        (_free_pair([-1.0, 1.0], [0.1, 0.2]), meet2,
         FlowSpec(m=2, t_final=1.0, dt=0.1), EPS_COLL, flows.MAX_STEPS, CollidingPoles),
        (new_state([-2, 2], [0.1, 0.2], [[1], [1]], [[1], [1]]), far,
         FlowSpec(m=2, t_final=2.0, dt=2.0), 0.5, 10, StepLimitExceeded),
    )
    for other, parent, spec, eps_coll, budget, error in cases:
        monkeypatch.setattr(flows, "MAX_STEPS", budget)
        del calls[:]
        alone = integrate_stack([(other, leg), (parent, spec)], eps_coll)
        shapes = [st.x.shape for st in calls]
        del calls[:]
        out = integrate_stack([(other, leg), (parent, spec), (1, leg), (2, leg)], eps_coll)
        assert [st.x.shape for st in calls] == shapes  # the chained rows took no step
        assert isinstance(out[1], error)
        assert out[1].row == 1 and out[1].time.real > 0.2
        assert out[2] is out[1] and out[3] is out[1]
        assert str(out[1]) == str(alone[1]) and out[1].time == alone[1].time
        _assert_same_trajectory(out[0], alone[0])


def test_chained_rows_with_zero_spans(state32):
    spec = FlowSpec(m=2, t_final=0.05, dt=1e-2)
    zero = replace(spec, m=3, t_final=0)
    # a parent with zero span starts its child at once, from its own state
    out = _trajectories(integrate_stack([(state32, zero), (0, spec), (state32, spec)]))
    _assert_same_trajectory(out[1], integrate(state32, spec))
    _assert_same_trajectory(out[1], out[2])
    # a child with zero span records its parent's endpoint
    out = _trajectories(integrate_stack([(state32, spec), (0, zero)]))
    assert len(out[1].t) == 1 and out[1].m == 3
    assert np.array_equal(_pack(out[1].state(0)), _pack(out[0].state(-1)))
    _assert_same_trajectory(out[1], integrate(out[0].state(-1), zero))
    # a stack of no rows gives no entries
    assert integrate_stack([]) == []


def test_chained_rows_must_name_an_earlier_row(state32, monkeypatch):
    calls = _count_calls(monkeypatch, flows, "_tangent")
    spec = FlowSpec(m=2, t_final=0.01, dt=1e-3)
    for rows in ([(state32, spec), (1, spec)], [(state32, spec), (-1, spec)],
                 [(state32, spec), (2, spec), (state32, spec)]):
        with pytest.raises(ValueError, match="chained row"):
            integrate_stack(rows)
    assert not calls
