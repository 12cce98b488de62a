import json

import numpy as np
import pytest

from spincm import (
    CollidingPoles,
    ConstraintViolated,
    DimensionMismatch,
    FlowSpec,
    PhaseState,
    ZeroScale,
    build_lax,
    gauge_rescale,
    hamiltonian,
    integrate,
    new_state,
    random_state,
)
from spincm import flows
from spincm.kp import ba_eval
from spincm.phase import (
    TimeVector,
    complex_to_pairs,
    load_state,
    pairs_to_complex,
    state_from_dict,
    write_json,
)


def test_new_state_trivial_valid():
    s = new_state([0.0], [0.5], [[1.0]], [[1.0]])
    assert s.n_particles == 1
    assert s.spin_dim == 1
    assert s.constraint_drift() == 0.0


def test_new_state_colliding_poles():
    with pytest.raises(CollidingPoles):
        new_state([0.0, 1e-9], [0.0, 0.0], [[1.0], [1.0]], [[1.0], [1.0]])


def test_new_state_constraint_violated():
    with pytest.raises(ConstraintViolated):
        new_state([0.0], [0.0], [[2.0]], [[1.0]])


def test_new_state_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        new_state([0.0, 1.0], [0.0], [[1.0]], [[1.0]])


def test_stacked_state_reports_per_point_values():
    states = [random_state(4, 3, seed=s) for s in range(2)]
    stack = PhaseState(*(np.stack([getattr(s, f) for s in states]) for f in "xpab"))
    assert (stack.n_particles, stack.spin_dim) == (4, 3)
    pairings, values = stack.spin_pairings(), stack.constraint_values()
    assert pairings.shape == (2, 4, 4) and values.shape == (2, 4)
    for k, s in enumerate(states):
        assert np.array_equal(pairings[k], s.spin_pairings())
        assert np.array_equal(values[k], s.constraint_values())


def test_random_state_deterministic():
    s1 = random_state(3, 2, seed=7)
    s2 = random_state(3, 2, seed=7)
    for f in ("x", "p", "a", "b"):
        assert np.array_equal(getattr(s1, f), getattr(s2, f))


def test_random_state_constraint_and_separation():
    for seed in range(10):
        s = random_state(4, 3, seed=seed, separation=0.8)
        assert s.constraint_drift() <= 1e-14
        assert s.min_separation() >= 0.8


def test_gauge_rescale_identity(state32):
    same = gauge_rescale(state32, np.ones(3))
    assert np.array_equal(same.a, state32.a)
    assert np.array_equal(same.b, state32.b)


def test_gauge_rescale_zero_scale(state32):
    with pytest.raises(ZeroScale):
        gauge_rescale(state32, np.array([1.0, 0.0, 1.0]))


def test_gauge_rescale_preserves_constraint(state32):
    lam = np.array([2.0 + 1.0j, -0.3j, 0.5])
    scaled = gauge_rescale(state32, lam)
    assert scaled.constraint_drift() <= 1e-14


def test_gauge_rescale_conjugates_lax(state32):
    lam = np.array([1.5, 0.2 - 1.1j, -2.0 + 0.4j])
    D = np.diag(lam)
    L = build_lax(state32).L
    Lp = build_lax(gauge_rescale(state32, lam)).L
    assert np.max(np.abs(Lp - np.linalg.inv(D) @ L @ D)) <= 1e-12


def test_gauge_rescale_preserves_hamiltonians(state32):
    lam = np.array([0.7 + 0.1j, 1.9, -1.2 + 2.0j])
    scaled = gauge_rescale(state32, lam)
    for m in range(1, 6):
        h0 = hamiltonian(state32, m)
        h1 = hamiltonian(scaled, m)
        assert abs(h1 - h0) <= 1e-12 * (1 + abs(h0))


def test_complex_pair_roundtrip():
    arr = np.array([[1.0 + 2.0j, -3.5j], [0.0, 4.0]])
    assert np.array_equal(pairs_to_complex(complex_to_pairs(arr)), arr)


def test_state_json_roundtrip(tmp_path, state32):
    path = tmp_path / "state.json"
    times = TimeVector(np.array([0.1, 0.2 + 0.3j, 0.0]))
    state32.save(path, times=times)
    loaded, times2 = load_state(path)
    for f in ("x", "p", "a", "b"):
        assert np.array_equal(getattr(loaded, f), getattr(state32, f))
    assert np.array_equal(times2.t, times.t)
    # compact one-line JSON of to_dict; complex numbers are [re, im] pairs
    text = path.read_text()
    assert "\n" not in text
    raw = json.loads(text)
    assert raw == state32.to_dict(times=times)
    assert raw["n_particles"] == 3 and raw["spin_dim"] == 2
    assert len(raw["x"][0]) == 2
    assert len(raw["a"][0][0]) == 2


def test_write_json_writes_the_bytes_of_json_dumps(tmp_path, state32, monkeypatch):
    # write_json skips the encoder's cycle check; the bytes stay those of
    # json.dumps for a ba-eval dict and for a trajectory export, NaN included
    data = ba_eval(state32, 1.3 + 0.7j, np.linspace(-2, 2, 7) + 0.4j)
    data["nan"] = [float("nan"), float("inf"), -0.0]
    path = tmp_path / "ba.json"
    write_json(path, data)
    assert path.read_text() == json.dumps(data)
    exported = []

    def keep(path, obj):
        exported.append(obj)
        write_json(path, obj)

    monkeypatch.setattr(flows, "write_json", keep)
    traj = integrate(state32, FlowSpec(m=3, t_final=0.01 + 0.01j, dt=2e-3))
    traj.export_json(tmp_path / "traj.json")
    assert (tmp_path / "traj.json").read_text() == json.dumps(exported[0])


def test_state_from_dict_validates():
    data = {
        "n_particles": 1,
        "spin_dim": 1,
        "x": [[0.0, 0.0]],
        "p": [[0.0, 0.0]],
        "a": [[[2.0, 0.0]]],
        "b": [[[1.0, 0.0]]],
    }
    with pytest.raises(ConstraintViolated):
        state_from_dict(data)


def test_load_state_tolerances(tmp_path):
    path = tmp_path / "close.json"
    new_state([0.0, 5e-7], [0.0, 0.0], [[1.0], [1.0]], [[1.0], [1.0]],
              eps_coll=1e-9).save(path)
    with pytest.raises(CollidingPoles):
        load_state(path)
    state, _ = load_state(path, eps_coll=1e-9)
    assert state.min_separation() == pytest.approx(5e-7)
    data = json.loads(path.read_text())
    data["a"][1][0][0] = 1.0 + 1e-8
    with pytest.raises(ConstraintViolated):
        state_from_dict(data, eps_coll=1e-9)
    state, _ = state_from_dict(data, eps_coll=1e-9, eps_constr=1e-6)
    assert state.constraint_drift() == pytest.approx(1e-8)


def test_timevector_xi():
    tv = TimeVector(np.array([1.0, 2.0, 0.5]))
    z = 0.3 + 0.1j
    assert abs(tv.xi(z) - (z + 2 * z**2 + 0.5 * z**3)) < 1e-15
