import itertools
import json
import re

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
from spincm import flows, phase
from spincm.config import Config
from spincm.errors import DegenerateDraw
from spincm.kp import ba_eval
from spincm.verify import finite_difference_gradient
from spincm.phase import (
    TimeVector,
    complex_to_pairs,
    load_state,
    pairs_to_complex,
    state_from_dict,
    write_json,
)

from conftest import reference_random_state


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


def _draw_outcome(draw, *args):
    """(x, p, a, b) of a draw, or the type and message of its DegenerateDraw."""
    try:
        out = draw(*args)
    except DegenerateDraw as exc:
        return type(exc), str(exc)
    return tuple(getattr(out, f) for f in "xpab") if isinstance(out, PhaseState) else out


def _assert_same_draw(args):
    ref, got = _draw_outcome(reference_random_state, *args), _draw_outcome(random_state, *args)
    raised = isinstance(ref[0], type)
    assert isinstance(got[0], type) == raised
    if raised:
        assert got == ref
    else:
        assert all(g.dtype == r.dtype and np.array_equal(g, r) for g, r in zip(got, ref))
    return ref


def test_random_state_equals_the_sequential_reference(monkeypatch):
    # block draws consume the stream as the one-try-at-a-time loop does:
    # every state bit for bit, on a family with many rejections at small n
    for n, N, seed, sep in itertools.product((*range(1, 13), 30, 100), (1, 2, 4), range(4),
                                             (1.0, 2.5, 4.0)):
        _assert_same_draw((n, N, seed, sep))
    monkeypatch.setattr(phase, "DRAW_RETRIES", 0)
    assert _assert_same_draw((3, 2, 0)) == (DegenerateDraw, "could not place pole 0 with separation 1.0")


# (args, DegenerateDraw message at DRAW_RETRIES = 1): rejections found by the
# reference; (6, 2, 4, 3.0) and (100, 4, 4) reject two pole tries each,
# (1000, 1, 66) retries one spin draw, (1000, 1, 24) rejects one pole try
# and retries one spin draw
_REJECTING_DRAWS = [
    ((6, 2, 4, 3.0), "could not place pole 4 with separation 3.0"),
    ((100, 4, 4), "could not place pole 30 with separation 1.0"),
    ((1000, 1, 66), "degenerate spin draw for particle 304"),
    ((1000, 1, 24), "could not place pole 437 with separation 1.0"),
]


@pytest.mark.parametrize("args, message", _REJECTING_DRAWS)
def test_random_state_rejections_equal_the_reference(args, message, monkeypatch):
    _assert_same_draw(args)
    for retries in (1, 2, 3):
        monkeypatch.setattr(phase, "DRAW_RETRIES", retries)
        ref = _assert_same_draw(args)
        if retries == 1:
            assert ref == (DegenerateDraw, message)


class _CoarseRng:
    """A generator whose uniforms take only the values low, mid and high,
    each draw one double of a real Generator: pole tries land on 9 points
    and spin pairings vanish often, so one place collects many failed
    tries, across blocks and with DRAW_RETRIES running out."""

    def __init__(self, seed, _make=np.random.default_rng):
        self._rng = _make(seed)

    def uniform(self, low, high, size=None):
        return low + (high - low) / 2 * np.floor(self._rng.uniform(0, 3, size=size))


def test_random_state_piles_of_failed_tries_equal_the_reference(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _CoarseRng)
    outcomes = set()
    for retries in (50, 3, 2):
        monkeypatch.setattr(phase, "DRAW_RETRIES", retries)
        for n, N, seed in itertools.product((3, 9, 10), (1, 2), range(12)):
            ref = _assert_same_draw((n, N, seed))
            outcomes.add("ok" if ref[0] is not DegenerateDraw else "pole" if "pole" in ref[1] else "spin")
    assert outcomes == {"ok", "pole", "spin"}


def test_random_state_follows_its_draw_order():
    # pole tries as (re, im), then p, then a, then spin tries: (6, 2, 4, 3.0)
    # places 6 of its first 8 pole tries
    s = random_state(6, 2, 4, separation=3.0)
    rng = np.random.default_rng(4)
    u = rng.uniform(-13.5, 13.5, size=(8, 2))
    tries = u[:, 0] + 1j * u[:, 1]
    placed = np.isin(tries, s.x)
    assert placed.sum() == 6 and np.array_equal(tries[placed], s.x)
    for field, shape, scale in (("p", 6, 0.5), ("a", (6, 2), 1.0)):
        re = rng.uniform(-scale, scale, size=shape)
        assert np.array_equal(getattr(s, field), re + 1j * rng.uniform(-scale, scale, size=shape))
    c = rng.uniform(-1, 1, size=2) + 1j * rng.uniform(-1, 1, size=2)
    assert np.array_equal(s.b[0], c / (c @ s.a[0]))


def test_spin_threshold_magnitude_is_the_scalar_abs():
    # random_state tests |c^T a_i| of a block with np.hypot, which must be
    # the abs() of each pairing bit for bit
    rng = np.random.default_rng(3)
    q = (rng.uniform(-1, 1, 4000) + 1j * rng.uniform(-1, 1, 4000)) * np.exp(rng.uniform(-9, 2, 4000))
    assert np.array_equal(np.hypot(q.real, q.imag), [abs(v) for v in q])


@pytest.mark.parametrize("n, N, bad", [(3.0, 2, 3.0), (2.5, 2, 2.5), (3, 2.0, 2.0), ("3", 2, "3"),
                                      ([3], 2, [3]), (0, 2, 0), (3, False, False)])
def test_random_state_rejects_a_size_that_is_not_a_positive_integer(n, N, bad):
    with pytest.raises(DimensionMismatch, match=re.escape(f"must be an integer >= 1, got {bad!r}")):
        random_state(n, N, 0)


def test_random_state_takes_a_bool_or_numpy_integer_as_its_int():
    one = _draw_outcome(random_state, 1, 2, 0)
    assert all(np.array_equal(g, r) for g, r in zip(_draw_outcome(random_state, True, 2, 0), one))
    s = random_state(np.int64(3), np.array(2, dtype=np.uint8), 0)
    assert (s.n_particles, s.spin_dim) == (3, 2)


def test_gauge_rescale_identity(state32):
    same = gauge_rescale(state32, np.ones(3))
    assert np.array_equal(same.a, state32.a)
    assert np.array_equal(same.b, state32.b)


def test_gauge_rescale_zero_scale(state32):
    with pytest.raises(ZeroScale):
        gauge_rescale(state32, np.array([1.0, 0.0, 1.0]))


@pytest.mark.parametrize("lam, bad", [([1.0, np.nan, 1.0], "lam[1] = (nan+0j)"),
                                      ([1.0, 2.0, np.inf], "lam[2] = (inf+0j)"),
                                      ([complex(1.0, -np.inf), 1.0, 1.0], "lam[0] = (1-infj)")])
def test_gauge_rescale_refuses_a_non_finite_factor(state32, lam, bad):
    # NaN once gave NaN spins with a RuntimeWarning, and inf gave inf spins
    with pytest.raises(ValueError, match=re.escape(f"non-finite gauge factor {bad}")):
        gauge_rescale(state32, lam)


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


@pytest.mark.parametrize("value", [True, np.True_, False, np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_every_positive_finite_setting_refuses_the_same_values_in_one_form(value):
    # a bool once passed as 1 for FlowSpec.dt, separation and h
    s = random_state(3, 2, seed=1)
    calls = {"dt": [lambda: Config(dt=value), lambda: FlowSpec(m=2, t_final=1.0, dt=value)],
             "eps_coll": [lambda: Config(eps_coll=value)],
             "eps_constr": [lambda: Config(eps_constr=value)],
             "separation": [lambda: random_state(3, 2, 1, separation=value)],
             "h": [lambda: finite_difference_gradient(s, 2, h=value)]}
    for name, fns in calls.items():
        for fn in fns:
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} must be positive and finite, got {value!r}")):
                fn()
