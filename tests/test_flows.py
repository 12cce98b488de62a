import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from spincm import (
    CollidingPoles,
    FlowSpec,
    InsufficientSamples,
    IntegrationFailed,
    StepLimitExceeded,
    build_lax,
    check_lax,
    commutativity_check,
    integrate,
    new_state,
    random_state,
    vector_field_gradient,
    vector_field_residue,
)
from spincm.flows import _residue_raw_ab
from spincm.lax import _assemble, resolvent_residue
from spincm.phase import EPS_COLL
from spincm.verify import _tangent_relative_error


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
        err = _tangent_relative_error(
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
    inv, R, L, _ = _assemble(s.x, s.p, s.a, s.b, EPS_COLL)
    K = resolvent_residue(L, m, R)
    Lm = resolvent_residue(L, m)
    da_raw, db_raw = _residue_raw_ab(state32, inv, K, Lm)
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
    data = json.loads(json_path.read_text())
    assert data["m"] == 2
    assert len(data["samples"]) == len(traj.t)
    assert data["samples"][0]["state"]["n_particles"] == 3
    # every row mirrors its sample exactly, in the PhaseState schema
    for k, (row, sample) in enumerate(zip(rows[1:], data["samples"])):
        assert sample["state"] == traj.state(k).to_dict()
        assert sample["t"] == [traj.t[k].real, traj.t[k].imag]
        assert sample["drift"] == traj.drift[k] == float(row[header.index("drift")])
        assert float(row[header.index("im_H5")]) == traj.hamiltonians[k, 4].imag
        assert float(row[header.index("re_x_2")]) == traj.x[k, 1].real
