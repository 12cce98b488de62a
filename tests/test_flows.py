import csv
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from spincm import (
    CollidingPoles,
    DimensionMismatch,
    FlowSpec,
    InsufficientSamples,
    IntegrationFailed,
    StepLimitExceeded,
    build_lax,
    check_lax,
    commutativity_check,
    hamiltonians,
    integrate,
    integrate_stack,
    new_state,
    random_state,
    vector_field_gradient,
    vector_field_residue,
)
from spincm.flows import (
    Trajectory,
    _first_error,
    _gauge_invariant_observables,
    _pack,
    _record,
    _residue_rates,
)
from spincm.phase import PhaseState, pairs_to_complex
from spincm.verify import _scaled_error


def test_flowspec_validation():
    with pytest.raises(ValueError):
        FlowSpec(m=0, t_final=1.0, dt=1e-3)
    with pytest.raises(ValueError):
        FlowSpec(m=1, t_final=1.0, dt=-1e-3)
    with pytest.raises(ValueError):
        FlowSpec(m=1, t_final=1.0, dt=1e-3, method="Euler")


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


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_residue_equals_gradient_route(m):
    for seed in range(5):
        s = random_state(3, 2, seed=seed)
        err = _scaled_error(
            vector_field_residue(s, m), vector_field_gradient(s, m)
        )
        assert err <= 1e-12


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
    _, _, da_raw, db_raw = _residue_rates(s, build_lax(s), m)
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


def test_integrate_rk45(state32):
    traj = integrate(
        state32, FlowSpec(m=2, t_final=0.5, dt=1e-2, method="RK45", record_every=10)
    )
    h0 = traj.hamiltonians[0]
    hT = traj.hamiltonians[-1]
    assert np.max(np.abs(hT - h0) / (1 + np.abs(h0))) <= 1e-7


@pytest.mark.parametrize("t_final,dt,record_every", [(0.7, 1e-2, 1), (0.7, 1e-2, 10), (0.25, 1e-2, 10)])
def test_rk45_samples_on_the_rk4_grid(state32, t_final, dt, record_every):
    # 0.7 / 70 * 70 rounds past 0.7, which solve_ivp rejects as t_eval
    spec = FlowSpec(m=2, t_final=t_final, dt=dt, record_every=record_every)
    rk4 = integrate(state32, spec)
    rk45 = integrate(state32, replace(spec, method="RK45"))
    assert rk45.t[-1] == t_final
    assert np.array_equal(rk45.t[:-1], rk4.t[:-1])
    assert np.max(np.abs(rk45.x - rk4.x)) <= 1e-4  # RK4's step error at dt = 1e-2


def test_integrate_complex_time(state32):
    tfin = 0.3 + 0.4j
    traj = integrate(state32, FlowSpec(m=1, t_final=tfin, dt=1e-2))
    assert traj.t[-1] == pytest.approx(tfin, abs=1e-14)
    assert np.max(np.abs(traj.x[-1] - (state32.x - tfin))) <= 1e-12


def test_integrate_step_limit(state32):
    with pytest.raises(StepLimitExceeded):
        integrate(state32, FlowSpec(m=2, t_final=1.0, dt=1e-3, max_steps=10))


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
    # the collision falls on the last recorded sample, past every RK4 stage
    for method in ("RK4", "RK45"):
        with pytest.raises(CollidingPoles) as err:
            integrate(s, FlowSpec(m=2, t_final=0.5, dt=1e-3, method=method), eps_coll=1e-9)
        assert err.value.time == pytest.approx(0.5, abs=1e-3)


def test_integrate_honours_small_eps_coll():
    # two poles 5e-7 apart with R = I: free motion, no interaction
    s = new_state([0.0, 5e-7], [0.3, 0.3], [[1.0, 0.0], [0.0, 1.0]],
                  [[1.0, 0.0], [0.0, 1.0]], eps_coll=1e-9)
    traj = integrate(s, FlowSpec(m=2, t_final=0.01, dt=1e-3), eps_coll=1e-9)
    assert np.max(np.abs(traj.x[-1] - (s.x + 2 * s.p * 0.01))) <= 1e-15


def test_rk45_failure_is_not_a_collision(state32, monkeypatch):
    import scipy.integrate
    from types import SimpleNamespace

    monkeypatch.setattr(
        scipy.integrate, "solve_ivp",
        lambda *args, **kwargs: SimpleNamespace(success=False, message="step size too small"),
    )
    with pytest.raises(IntegrationFailed, match="step size too small"):
        integrate(state32, FlowSpec(m=2, t_final=0.1, dt=1e-2, method="RK45"))


def test_check_lax_single_particle():
    s = new_state([0.1], [0.4], [[1.0]], [[1.0]])
    traj = integrate(s, FlowSpec(m=2, t_final=0.01, dt=1e-3, record_every=1))
    assert np.max(check_lax(traj)) <= 1e-12


def test_check_lax_residual_and_order(state32):
    res = {}
    for dt in (4e-3, 2e-3):
        traj = integrate(state32, FlowSpec(m=2, t_final=0.1, dt=dt, record_every=1))
        res[dt] = np.max(check_lax(traj))
    ratio = res[4e-3] / res[2e-3]
    assert 8 <= ratio <= 40  # 4th-order stencil: ~16x per halving
    traj = integrate(state32, FlowSpec(m=2, t_final=0.05, dt=1e-3, record_every=1))
    assert np.max(check_lax(traj)) <= 1e-7


def test_check_lax_equals_per_sample_loop(state32):
    traj = integrate(state32, FlowSpec(m=2, t_final=0.02, dt=1e-3, record_every=2))
    laxes = [build_lax(traj.state(k)) for k in range(len(traj.t))]
    Ls = [lax.L for lax in laxes]
    Ms = [lax.M for lax in laxes]
    h = traj.t[1] - traj.t[0]
    ref = [
        np.max(np.abs((-Ls[k + 2] + 8 * Ls[k + 1] - 8 * Ls[k - 1] + Ls[k - 2]) / (12 * h)
                      - (Ms[k] @ Ls[k] - Ls[k] @ Ms[k])))
        for k in range(2, len(Ls) - 2)
    ]
    assert np.array_equal(check_lax(traj), ref)


def test_check_lax_needs_samples(state32):
    traj = integrate(state32, FlowSpec(m=2, t_final=3e-3, dt=1e-3, record_every=1))
    with pytest.raises(InsufficientSamples):
        check_lax(traj)


def test_commutativity_with_t1(state32):
    assert commutativity_check(state32, 1, 2, 0.2, 0.1, 1e-3) <= 1e-9


def test_commutativity_zero_span(state32):
    assert commutativity_check(state32, 2, 3, 0.0, 0.0, 1e-3) == 0.0


def test_commutativity_t2_t3(state32):
    assert commutativity_check(state32, 2, 3, 0.1, 0.1, 1e-3) <= 1e-6


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


def _unstacked_rk4(state, spec):
    """Reference RK4 on one packed vector, stepped through the single-state
    vector_field_gradient and recorded sample by sample through
    lax.hamiltonians and PhaseState.constraint_drift."""
    n, N = state.n_particles, state.spin_dim

    def unpack(y):
        return PhaseState(y[:n], y[n : 2 * n], y[2 * n : 2 * n + n * N].reshape(n, N),
                          y[2 * n + n * N :].reshape(n, N))

    def rhs(y):
        f = vector_field_gradient(unpack(y), spec.m)
        return np.concatenate([f.dx, f.dp, f.da.ravel(), f.db.ravel()]) * u

    tfin = complex(spec.t_final)
    S = abs(tfin)
    u = tfin / S if S else 1.0
    n_steps = max(1, math.ceil(S / spec.dt)) if S else 0
    h = S / n_steps if S else 0.0
    y = np.concatenate([state.x, state.p, state.a.ravel(), state.b.ravel()]).astype(complex)
    times, rows = [0.0], [y]
    for step in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + h / 2 * k1)
        k3 = rhs(y + h / 2 * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if (step + 1) % spec.record_every == 0 or step + 1 == n_steps:
            times.append((step + 1) * h * u)
            rows.append(y)
    samples = [unpack(y) for y in rows]
    return (np.array(times, dtype=complex), np.array(rows),
            np.array([st.constraint_drift() for st in samples]),
            np.array([hamiltonians(st) for st in samples]))


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
    # ragged: each row its own endpoint (real, complex or 0), step, record_every and budget
    stacks.append([
        spec,
        replace(spec, m=3, t_final=0),
        replace(spec, m=1, t_final=1j * t_final, dt=7e-4),
        replace(spec, m=4, t_final=-t_final / 2, record_every=3, max_steps=100),
        replace(spec, m=3, dt=2e-3, record_every=1),
    ])
    for specs in stacks:
        rows = list(zip(states, specs))
        trajs = integrate_stack(rows)
        assert [tr.m for tr in trajs] == [sp.m for sp in specs]
        for (st, sp), got in zip(rows, trajs):
            _assert_same_trajectory(got, integrate(st, sp))
            t, packed, drift, H = _unstacked_rk4(st, sp)
            n_, N = st.n_particles, st.spin_dim
            assert np.array_equal(got.t, t)
            assert np.array_equal(got.x, packed[:, :n_])
            assert np.array_equal(got.p, packed[:, n_ : 2 * n_])
            assert np.array_equal(got.a.reshape(len(t), -1), packed[:, 2 * n_ : 2 * n_ + n_ * N])
            assert np.array_equal(got.b.reshape(len(t), -1), packed[:, 2 * n_ + n_ * N :])
            assert np.array_equal(got.drift, drift)
            assert np.array_equal(got.hamiltonians, H)
    assert len(trajs[1].t) == 1 and trajs[1].t[0] == 0  # the ragged stack's t_final = 0 row


def test_vector_field_gradient_of_a_stack_equals_each_point():
    states = [random_state(5, 3, seed=s) for s in range(3)]
    stack = PhaseState(*(np.stack([getattr(st, f) for st in states]) for f in "xpab"))
    for ms in ([2, 2, 2], [1, 3, 4], [4, 1, 1]):
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


def test_stack_step_budget_ends_only_its_row(state32):
    spec = FlowSpec(m=2, t_final=0.01, dt=1e-3)
    over = replace(spec, max_steps=9)
    out = integrate_stack([(state32, over), (state32, spec)])
    assert isinstance(out[0], StepLimitExceeded)
    _assert_same_trajectory(out[1], integrate(state32, spec))
    assert _first_error(out) is out[0]
    with pytest.raises(StepLimitExceeded):
        integrate(state32, over)
    # a step count past any float still ends in StepLimitExceeded
    with pytest.raises(StepLimitExceeded):
        integrate(state32, replace(spec, t_final=1e300, dt=1e-300))


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


def test_integrate_stack_rejects_mixed_specs(state32):
    spec = FlowSpec(m=2, t_final=0.01, dt=1e-3)
    with pytest.raises(ValueError, match="share the method"):
        integrate_stack([(state32, spec), (state32, replace(spec, method="RK45", m=3))])
    rk45 = replace(spec, method="RK45")
    with pytest.raises(ValueError, match="RK45"):
        integrate_stack([(state32, rk45), (state32, replace(rk45, m=3))])
    _assert_same_trajectory(integrate_stack([(state32, rk45)])[0], integrate(state32, rk45))
    with pytest.raises(DimensionMismatch):
        integrate_stack([(state32, spec), (random_state(4, 2, seed=1), spec)])


def test_commutativity_legs_as_stacks_equal_sequential_legs(state32):
    def leg(st, m, s):
        return integrate(st, FlowSpec(m=m, t_final=s, dt=1e-3)).state(-1)

    # equal spans, then ragged legs: a complex second span, and m = 1
    for m1, m2, s1, s2 in ((2, 3, 0.05, 0.05), (2, 3, 0.05, 0.03 + 0.02j), (1, 2, 0.2, 0.1)):
        ab = leg(leg(state32, m1, s1), m2, s2)
        ba = leg(leg(state32, m2, s2), m1, s1)
        ref = np.max(np.abs(_gauge_invariant_observables(ab) - _gauge_invariant_observables(ba)))
        assert commutativity_check(state32, m1, m2, s1, s2, 1e-3) == ref
