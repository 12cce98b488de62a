import itertools
import json
import warnings
import math
import re
import sys

import numpy as np
import pytest

from spincm import (
    CheckResult,
    CollidingPoles,
    Config,
    PhaseState,
    Tangent,
    VerificationReport,
    commutativity_check,
    grad_hamiltonian,
    new_state,
    random_state,
    run_suite,
    solve_c,
)
from spincm import flows, kp, lax, verify
from spincm.phase import write_json
from spincm.verify import (
    _scaled_error,
    finite_difference_gradient,
    matched_pole_error,
    scalar_cm_poles,
)

EXPECTED_CHECKS = {
    "constraint",
    "r_identity",
    "trace_lr",
    "h2_direct",
    "gradient_fd",
    "involution",
    "dual_derivation",
    "lax_residual",
    "conservation",
    "constraint_drift",
    "commutativity",
    "rank1_residues",
    "w1_v_consistency",
    "t1_shift",
    "linear_problem",
    "residue_identity",
    "first_order_cancellation",
    "n1_reduction",
}


@pytest.fixture(scope="module")
def report_default():
    return run_suite(seed=42, n_particles=3, spin_dim=2)


def test_suite_passes_default(report_default):
    assert report_default.all_passed()
    assert {r.name for r in report_default.results} == EXPECTED_CHECKS
    # the spin-dim-1 reduction is the only entry skipped at spin_dim == 2
    skipped = {r.name for r in report_default.results if r.skipped}
    assert skipped == {"n1_reduction"}


def test_suite_spin_dim_one_adds_reduction():
    report = run_suite(seed=5, n_particles=3, spin_dim=1)
    assert report.all_passed()
    byname = {r.name: r for r in report.results}
    assert not byname["n1_reduction"].skipped
    assert byname["n1_reduction"].passed


def test_suite_deterministic(report_default):
    again = run_suite(seed=42, n_particles=3, spin_dim=2)
    res1 = {r.name: r.residual for r in report_default.results if not r.skipped}
    res2 = {r.name: r.residual for r in again.results if not r.skipped}
    assert res1 == res2  # bit-for-bit reproducible residuals


@pytest.mark.parametrize("n,N,seed", [(2, 1, 4), (2, 2, 1), (3, 1, 4), (3, 2, 4), (3, 4, 5),
                                      (5, 1, 3), (8, 2, 4), (8, 4, 0)])
def test_suite_conserves_near_complex_collision_times(n, N, seed):
    # instances whose t_2 or t_3 flow passes near a complex collision time:
    # the fixed-step RK4 of earlier versions, at dt = 1e-3, failed
    # conservation on each (up to 7e-5), and constraint_drift on (3,1,4),
    # (8,2,4) and (8,4,0); the suite's error-controlled flows pass both at
    # the default thresholds
    results = {r.name: r for r in run_suite(seed=seed, n_particles=n, spin_dim=N).results}
    for name in ("conservation", "constraint_drift"):
        assert not results[name].skipped and results[name].passed
        assert results[name].threshold == verify.DEFAULT_THRESHOLDS[name]


def test_suite_passes_at_thirty_particles():
    # n > N: |tr R^30| is about 4e33 here, so comparing every tr R^k,
    # k <= n, without scaling would read rounding as a gap of order 1e20.
    # R has rank <= N, and tr R^k for k <= min(n, N) determine the rest
    report = run_suite(seed=7, n_particles=30, spin_dim=4)
    assert report.all_passed(), report.summary()
    assert {r.name: r for r in report.results}["lax_residual"].residual <= 1e-14
    assert all(r.threshold == verify.DEFAULT_THRESHOLDS[r.name] for r in report.results)


def test_suite_family_sweep_passes_everywhere():
    # the default suite over n in {1,2,3,5,8}, N in {1,2,4} and seeds 0-5
    # passes everywhere. Its last failure was linear_problem on (3,4,2),
    # 3.1e-6 against 1e-6: the truncation error of central differences
    # over +-dt_2 flows, which the exact d/dt_2 removed (now 2.1e-13)
    failed = set()
    for n, N, seed in itertools.product((1, 2, 3, 5, 8), (1, 2, 4), range(6)):
        for r in run_suite(seed=seed, n_particles=n, spin_dim=N).results:
            if not r.passed and not (r.skipped and r.name == "n1_reduction"):
                failed.add((r.name, (n, N, seed)))
    assert failed == set()


def _wrap_checks(monkeypatch, replace_terms=None):
    """Wrap every verify._check_<name>; returns the (name, terms) of each call."""
    calls = []
    for name in verify.DEFAULT_THRESHOLDS:
        def wrapper(*args, _name=name, _fn=getattr(verify, f"_check_{name}")):
            terms, details = _fn(*args)
            if replace_terms is not None:
                terms = replace_terms(_name, terms)
            calls.append((_name, terms))
            return terms, details
        monkeypatch.setattr(verify, f"_check_{name}", wrapper)
    return calls


def test_run_suite_calls_each_check_once_and_forms_its_residual_by_one_rule(monkeypatch):
    # benchmarks/layers.py times the checks through such wrappers and pairs
    # the timings with the results in call order
    checks = {k.removeprefix("_check_") for k in vars(verify) if k.startswith("_check_")}
    assert checks == set(verify.DEFAULT_THRESHOLDS)
    calls = _wrap_checks(monkeypatch)
    report = run_suite(seed=4, n_particles=3, spin_dim=1)  # no check is skipped
    assert [name for name, _ in calls] == [r.name for r in report.results] == list(
        verify.DEFAULT_THRESHOLDS)
    for (name, terms), r in zip(calls, report.results):
        assert not r.skipped and len(terms) >= 1
        assert r.residual == max(_scaled_error(*t) for t in terms), name
    # above spin dimension 1, n1_reduction is skipped without a call
    calls.clear()
    report = run_suite(seed=4, n_particles=3, spin_dim=2)
    assert [name for name, _ in calls] == [r.name for r in report.results if not r.skipped]
    assert [r.name for r in report.results if r.skipped] == ["n1_reduction"]


def test_a_nan_term_fails_its_check_wherever_it_stands(monkeypatch):
    # a NaN after a finite term once read as the finite one and passed
    _wrap_checks(monkeypatch, lambda name, terms: (
        terms + [(np.nan, 0.0, 1.0)] if name == "trace_lr" else terms))
    result = {r.name: r for r in run_suite(seed=4, n_particles=3, spin_dim=2).results}
    assert math.isnan(result["trace_lr"].residual) and not result["trace_lr"].passed
    assert result["r_identity"].passed


@pytest.mark.parametrize("n,N,seed", [(3, 2, 42), (3, 2, 7), (2, 2, 1), (3, 1, 4), (5, 2, 3)])
def test_suite_commutativity_is_commutativity_check(n, N, seed):
    # the four legs are rows of the suite's flow stack, bit-identical to
    # the 4-row stack of commutativity_check
    state = random_state(n, N, seed=seed)
    results = {r.name: r for r in run_suite(state=state).results}
    s = verify.COMMUTATIVITY_S
    assert results["commutativity"].residual == commutativity_check(state, 2, 3, s, s)


def test_suite_commutativity_pairs_conjugate_poles():
    # a conjugation-symmetric state: both legs end with poles that share a
    # real part, which a sort on (Re x, Im x) once split (0.987 against 1e-6)
    s = new_state([1j, -1j], [0.2 - 0.3j, 0.2 + 0.3j], [[1], [1]], [[1], [1]])
    result = {r.name: r for r in run_suite(state=s).results}["commutativity"]
    assert result.passed and result.residual <= 1e-12


def test_run_suite_makes_one_dop853_stack(monkeypatch):
    # every flow of a suite, commutativity's chained second legs included,
    # is a row of one integrate_stack call, and there is no other call
    calls = []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "spincm"]
    for module in modules:
        if hasattr(module, "integrate_stack"):
            fn = module.integrate_stack
            monkeypatch.setattr(module, "integrate_stack",
                                lambda rows, *a, fn=fn: calls.append(rows) or fn(rows, *a))
    assert not hasattr(kp, "integrate_stack")  # kp integrates no flow
    for n, N in ((3, 2), (3, 1)):
        del calls[:]
        assert run_suite(seed=7, n_particles=n, spin_dim=N).results
        assert len(calls) == 1 and len(calls[0]) == 7 + (N == 1)
        assert sum(isinstance(start, int) for start, _ in calls[0]) == 2


def test_suite_commutativity_names_the_first_leg_that_collides():
    # uncoupled poles (R = I) that meet under t_2 at t = COMMUTATIVITY_S,
    # the endpoint of the first t_2 leg
    eye = np.eye(2).tolist()
    state = new_state([-1e-4, 1e-4], [5e-4, -5e-4], eye, eye)
    s = verify.COMMUTATIVITY_S
    with pytest.raises(CollidingPoles) as err:
        commutativity_check(state, 2, 3, s, s)
    results = {r.name: r for r in run_suite(state=state).results}
    assert str(err.value).startswith("pole collision in the t_2 flow")
    assert results["commutativity"].details["error"] == str(err.value)
    assert results["commutativity"].residual == math.inf


def test_t1_shift_does_not_read_dt():
    # the t_1 row is one leg over T1_SHIFT_S that records only its endpoint
    for dt in (1e-3, 1e-2, 5e-2):
        results = {r.name: r for r in run_suite(seed=7, config=Config(dt=dt)).results}
        assert results["t1_shift"].residual == 2.83398589814361e-16


def test_lax_residual_does_not_read_dt():
    # a point check: no flow row of its own, the same bits at every dt
    state = random_state(3, 2, seed=7)
    assert "lax_residual" not in verify._suite_flows(state, Config())
    got = []
    for dt in (1e-3, 1e-2, 5e-2):
        results = {r.name: r for r in run_suite(seed=7, config=Config(dt=dt)).results}
        result = results["lax_residual"]
        got.append(result.residual)
        assert result.details.keys() == {"m_max", "seconds"}
    assert got[0] <= 1e-15 and got == 3 * got[:1]


@pytest.mark.parametrize("defect", [None, "dp", "no_m"])
def test_lax_residual_sees_a_defect_of_the_field_at_every_m(monkeypatch, defect):
    # the diagonal of dL is -dp, and dx enters its off-diagonal: the
    # momentum rate scaled by 1 + 1e-5, or Q = L^{m-1} with the factor m
    # of the H_m kernel dropped, fails every m >= 2 on the sweep's
    # instances with n >= 2 (at n = 1, dL = [M_m, L] = 0); without a
    # defect every term is rounding. M_1 = 0 and the t_1 field moves no
    # entry of L, so m = 1 reads 0 either way
    field, weights = lax._vector_field, lax._weights
    if defect == "dp":
        def mutated(lx, a, b, m):
            dx, dp, da, db = field(lx, a, b, m)
            return dx, dp * (1 + 1e-5), da, db
        monkeypatch.setattr(lax, "_vector_field", mutated)
    elif defect == "no_m":
        def mutated(ms):
            top, c, lower, one = weights(ms)
            return top, (c != 0).astype(complex), lower, one
        monkeypatch.setattr(lax, "_weights", mutated)
    threshold = verify.DEFAULT_THRESHOLDS["lax_residual"]
    for n, N, seed in itertools.product((2, 3, 5, 8), (1, 2, 4), range(6)):
        terms, _ = verify._check_lax_residual(random_state(n, N, seed), Config(), {})
        res = [_scaled_error(*term) for term in terms]
        assert len(res) == 5 and res[0] == 0.0
        if defect is None:
            assert max(res) <= 1e-14, (n, N, seed)
        else:
            assert min(res[1:]) > threshold, (n, N, seed)


def test_suite_flags_broken_constraint():
    s = random_state(3, 2, seed=42)
    b = s.b.copy()
    b[0] *= 1.1  # b_0 . a_0 becomes 1.1
    broken = PhaseState(x=s.x, p=s.p, a=s.a, b=b)
    report = run_suite(state=broken)
    byname = {r.name: r for r in report.results}
    assert not byname["constraint"].passed
    assert not report.all_passed()
    # suite still ran to completion
    assert {r.name for r in report.results} == EXPECTED_CHECKS


def test_report_serialization(tmp_path, report_default):
    path = tmp_path / "report.json"
    report_default.save(path)
    data = json.loads(path.read_text())
    assert data["all_passed"] is True
    assert data["seed"] == 42
    assert len(data["results"]) == len(report_default.results)
    first = data["results"][0]
    assert list(first) == ["name", "residual", "threshold", "passed", "skipped", "details"]
    # the bytes of the report written key by key, in the order above
    by_key = {
        "seed": report_default.seed,
        "n_particles": report_default.n_particles,
        "spin_dim": report_default.spin_dim,
        "suite_version": report_default.suite_version,
        "all_passed": report_default.all_passed(),
        "integration_seconds": report_default.integration_seconds,
        "results": [{"name": r.name, "residual": r.residual, "threshold": r.threshold,
                     "passed": r.passed, "skipped": r.skipped, "details": r.details}
                    for r in report_default.results],
    }
    write_json(tmp_path / "by_key.json", by_key)
    assert path.read_bytes() == (tmp_path / "by_key.json").read_bytes()


def test_report_times_the_shared_flow_stack(report_default):
    data = report_default.to_dict()
    assert set(data) == {"seed", "n_particles", "spin_dim", "suite_version", "all_passed",
                         "integration_seconds", "results"}
    assert isinstance(data["integration_seconds"], float)
    assert data["integration_seconds"] >= 0
    # the flows run once, outside the checks that read them
    seconds = {r.name: r.details["seconds"] for r in report_default.results if not r.skipped}
    assert data["integration_seconds"] > seconds["conservation"]


def test_suite_collision_ends_only_its_own_flow():
    # uncoupled poles (R = I): the first pair meets under t_2 at t = 0.5,
    # the second under t_3 at t = 0.2, and neither meets under t_1
    eye = np.eye(4).tolist()
    s = new_state([-1e-4, 1e-4, 3 - 3e-5, 3 + 3e-5], [1e-4, -1e-4, 0.0, 0.01], eye, eye)
    report = run_suite(state=s)
    byname = {r.name: r for r in report.results}
    for name in ("lax_residual", "t1_shift"):
        assert "error" not in byname[name].details
        assert byname[name].passed
    for name in ("conservation", "constraint_drift"):
        reason = byname[name].details["reason"]
        assert byname[name].skipped
        assert reason.startswith("integration failed: pole collision in the t_3 flow")
    assert {r.name for r in report.results if r.skipped} == {
        "conservation", "constraint_drift", "n1_reduction"}


def test_suite_records_a_flow_that_leaves_the_finite_numbers():
    # poles just above the floor: every flow check records its flow's
    # CollidingPoles as inf, with no numpy warning on the way; the exact
    # d/dt_2 of linear_problem and the Lax equation at the point of
    # lax_residual, which flow nothing, pass
    s = new_state([0, 1.05e-5], [0.1, 0.2], [[1], [1]], [[1], [1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_suite(state=s)
    res = {r.name: r for r in report.results}
    assert not report.all_passed()
    for name in ("commutativity", "n1_reduction"):
        assert not res[name].passed and res[name].residual == math.inf
        assert res[name].details["error"].startswith("pole collision in the t_2 flow: ")
        assert re.search(r" at t = \S+$", res[name].details["error"])
    assert res["linear_problem"].passed and res["lax_residual"].passed


def test_report_file_is_one_line_and_keeps_nan_and_inf(tmp_path):
    report = VerificationReport(
        seed=3, n_particles=2, spin_dim=1, suite_version="1",
        results=[
            CheckResult("a", float("nan"), 1e-8, False),
            CheckResult("b", float("inf"), 1e-10, False, details={"error": "boom"}),
            CheckResult("c", 1 / 3 * 1e-15, 1e-12, True, details={"z": [1.3, 0.7]}),
            CheckResult("d", 0.0, 1e-12, True, skipped=True),
        ],
    )
    path = tmp_path / "report.json"
    report.save(path)
    text = path.read_text()
    assert "\n" not in text and "NaN" in text and "Infinity" in text
    loaded, expected = json.loads(text), report.to_dict()
    assert math.isnan(loaded["results"][0].pop("residual"))
    expected["results"][0].pop("residual")
    assert loaded == expected


def test_report_summary_format(report_default):
    text = report_default.summary()
    assert "overall: pass" in text
    for r in report_default.results:
        assert r.name in text


def test_report_all_passed_ignores_skips():
    report = VerificationReport(seed=0, n_particles=1, spin_dim=1, suite_version="1")
    report.results.append(
        CheckResult(name="a", residual=0.0, threshold=1.0, passed=True)
    )
    report.results.append(
        CheckResult(
            name="b", residual=float("nan"), threshold=1.0, passed=False, skipped=True
        )
    )
    assert report.all_passed()


def test_suite_config_threshold_lookup():
    # the thresholds are pinned: no Config field holds them, and every
    # result carries the table's, in the table's order
    with pytest.raises(TypeError):
        Config(thresholds={"constraint": 1e-13})
    results = run_suite(seed=1, config=Config()).results
    assert [r.name for r in results] == list(verify.DEFAULT_THRESHOLDS)
    assert [r.threshold for r in results] == list(verify.DEFAULT_THRESHOLDS.values())


def test_fd_gradient_oracle_axes_agree(state32):
    g = grad_hamiltonian(state32, 3)
    for axis in ("real", "imag"):
        fd = finite_difference_gradient(state32, 3, h=1e-5, axis=axis)
        assert _scaled_error(fd, g) <= 1e-6


def test_scaled_error_is_one_rule_over_arrays_and_fields(state32):
    assert _scaled_error(np.array([1.0, 5.0]), np.array([0.0, 1.0])) == 2.0  # max(1/1, 4/2)
    assert _scaled_error(np.empty((0, 5)), np.ones(5)) == 0.0  # a flow with one sample
    g = grad_hamiltonian(state32, 2)
    assert _scaled_error(g, g) == 0.0
    db = np.array(g.db)
    db[1, 0] += 1 + abs(db[1, 0])  # the last field, one entry
    assert _scaled_error(Tangent(g.dx, g.dp, g.da, db), g) == pytest.approx(1.0)


@pytest.mark.parametrize("N", [1, 2])
def test_rank1_residues_is_the_worst_singular_value_ratio(N):
    # one batched SVD of the 2n outer products a_i c_i^T and c*_i b_i^T
    s = random_state(3, N, seed=5)
    c, c_star = solve_c(s, 1.3 + 0.7j)
    worst = 0.0
    for i in range(3):
        for res in (np.outer(s.a[i], c[i]), np.outer(c_star[i], s.b[i])):
            sv = np.linalg.svd(res, compute_uv=False)
            worst = max(worst, float(sv[1] / sv[0]) if N > 1 else 0.0)
    terms, _ = verify._check_rank1_residues(s, Config(), {})
    assert max(_scaled_error(*t) for t in terms) == worst
    assert N == 1 or worst > 0.0  # rounding leaves a nonzero second singular value


def test_fd_gradient_chunks_leave_every_bit(state32, monkeypatch):
    whole = finite_difference_gradient(state32, 3, axis="imag")
    # fewer entries than one L holds: one perturbed point per chunk
    monkeypatch.setattr(lax, "STACK_CHUNK", 1)
    chunked = finite_difference_gradient(state32, 3, axis="imag")
    for f in ("dx", "dp", "da", "db"):
        assert np.array_equal(getattr(chunked, f), getattr(whole, f))


def test_fd_gradient_raises_when_a_perturbed_point_collides():
    # x_1 - x_0 = h + 5e-7: the point is valid, x_0 + h lies within eps_coll of x_1
    s = new_state([0.0, 1e-5 + 5e-7], [0.1, 0.2], [[1.0], [1.0]], [[1.0], [1.0]])
    with pytest.raises(CollidingPoles, match="5.000e-07") as err:
        finite_difference_gradient(s, 2, h=1e-5)
    assert err.value.row is None and err.value.time is None


@pytest.mark.parametrize("axis,h", [("Real", 1e-5), ("", 1e-5), ("imag", 0.0), ("real", -1e-5),
                                    ("real", float("nan")), ("imag", float("inf"))])
def test_fd_gradient_refuses_an_unknown_axis_or_a_bad_step(state32, axis, h):
    # "Real" once read as the imaginary axis, and h <= 0 or NaN went unchecked
    want = ("h must be positive and finite, got " if axis in ("real", "imag")
            else "axis must be 'real' or 'imag', got ")
    with pytest.raises(ValueError, match=re.escape(want + repr(h if want[0] == "h" else axis))):
        finite_difference_gradient(state32, 2, h=h, axis=axis)


def test_gradient_fd_steps_within_the_pole_separation():
    # poles 1.05e-5 apart: the fixed step 1e-5 took one to 5e-7 of the
    # other, under the collision floor, and the check read inf. A step of a
    # twentieth of the separation leaves the residual finite
    s = new_state([0, 1.05e-5], [0.1, 0.2], [[1], [1]], [[1], [1]])
    result = {r.name: r for r in run_suite(state=s).results}["gradient_fd"]
    assert math.isfinite(result.residual) and result.details["h"] == 1.05e-5 / 20
    # a random_state draw keeps its poles 1 apart, and the fixed step, to the bit
    for n, N, seed in ((1, 2, 0), (3, 2, 7), (8, 4, 1)):
        st = random_state(n, N, seed=seed)
        terms, details = verify._check_gradient_fd(st, Config(), {})
        assert details["h"] == verify.FD_STEP == 1e-5
        assert max(_scaled_error(*t) for t in terms) == max(
            _scaled_error(finite_difference_gradient(st, m, h=1e-5, axis=axis),
                          grad_hamiltonian(st, m))
            for m in range(1, 5) for axis in ("real", "imag"))


def test_scalar_cm_oracle_free_particle():
    xs = scalar_cm_poles(np.array([0.0 + 0j]), np.array([1.0 + 0j]), np.linspace(0, 1.0, 1001))
    assert xs.shape == (1001, 1)
    assert abs(xs[-1][0] - 1.0) <= 1e-10


def test_scalar_cm_oracle_symmetric_pair():
    # mirror-symmetric pair stays mirror-symmetric; with this sign
    # convention the pair force x'' = -8 (x_i - x_k)^-3 pulls inward
    xs = np.sort(scalar_cm_poles(np.array([-1.0 + 0j, 1.0 + 0j]),
                                 np.array([0.0 + 0j, 0.0 + 0j]), np.linspace(0, 0.5, 501)))
    assert np.max(np.abs(xs[:, 0] + xs[:, 1])) <= 1e-10
    assert 0.0 < (xs[-1][1] - xs[-1][0]).real < 2.0
    # x'' = -8 (x_1 - x_0)^-3 on the first samples, by central differences
    h = 1e-3
    acc = (xs[2] - 2 * xs[1] + xs[0]) / h**2
    assert np.max(np.abs(acc - np.array([8, -8]) / (xs[1, 1] - xs[1, 0]) ** 3)) <= 1e-5


def test_matched_pole_error_pairs_unordered_poles():
    x = np.array([[0.0, 1.0, 2.0 + 1j], [5.0, -1.0, 3.0]])
    ref = x[:, ::-1] + np.array([[1e-9, -2e-9, 0.0], [0.0, 3e-9, 0.0]])
    assert matched_pole_error(x, ref) == pytest.approx(3e-9, rel=1e-6)
    assert matched_pole_error(x, x[:, [1, 2, 0]]) == 0.0


def test_suite_checks_collisions_at_the_configured_floor():
    # two uncoupled poles (R = I) 5e-7 apart, below the default floor
    eye = [[1.0, 0.0], [0.0, 1.0]]
    s = new_state([0.0, 5e-7], [0.3, 0.3], eye, eye, eps_coll=1e-11)
    report = run_suite(state=s, config=Config(eps_coll=1e-9))
    assert report.all_passed()
    assert [r.name for r in report.results if r.skipped] == ["n1_reduction"]
    assert not [r.name for r in report.results if "error" in r.details]
    # at the default floor every check that assembles the Lax data, or
    # integrates, stops on the collision
    report = run_suite(state=s)
    errors = {r.name: r.details["error"] for r in report.results if "error" in r.details}
    assert len(errors) == 13
    assert all("<= 1.000e-06" in e for e in errors.values())
    assert {r.name for r in report.results if r.skipped} == {
        "conservation", "constraint_drift", "n1_reduction"}
