import json
import math

import numpy as np
import pytest

from spincm import (
    CheckResult,
    CollidingPoles,
    Config,
    Gradient,
    PhaseState,
    VerificationReport,
    grad_hamiltonian,
    new_state,
    random_state,
    run_suite,
    solve_c,
)
from spincm import verify
from spincm.verify import (
    _scaled_error,
    finite_difference_gradient,
    scalar_cm_trajectory,
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
    assert set(first) == {
        "name",
        "residual",
        "threshold",
        "passed",
        "skipped",
        "details",
    }


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
    cfg = Config()
    assert cfg.thresholds["r_identity"] == 1e-12
    with pytest.raises(KeyError):
        cfg.thresholds["nonexistent"]


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
    assert _scaled_error(Gradient(g.dx, g.dp, g.da, db), g) == pytest.approx(1.0)


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
    assert verify._check_rank1_residues(s, Config())[0] == worst
    assert N == 1 or worst > 0.0  # rounding leaves a nonzero second singular value


def test_fd_gradient_chunks_leave_every_bit(state32, monkeypatch):
    whole = finite_difference_gradient(state32, 3, axis="imag")
    # fewer entries than one L holds: one perturbed point per chunk
    monkeypatch.setattr(verify, "RECORD_CHUNK", 1)
    chunked = finite_difference_gradient(state32, 3, axis="imag")
    for f in ("dx", "dp", "da", "db"):
        assert np.array_equal(getattr(chunked, f), getattr(whole, f))


def test_fd_gradient_raises_when_a_perturbed_point_collides():
    # x_1 - x_0 = h + 5e-7: the point is valid, x_0 + h lies within eps_coll of x_1
    s = new_state([0.0, 1e-5 + 5e-7], [0.1, 0.2], [[1.0], [1.0]], [[1.0], [1.0]])
    with pytest.raises(CollidingPoles, match="5.000e-07") as err:
        finite_difference_gradient(s, 2, h=1e-5)
    assert err.value.row is None and err.value.time is None


def test_scalar_cm_oracle_free_particle():
    ts, xs = scalar_cm_trajectory(
        np.array([0.0 + 0j]), np.array([1.0 + 0j]), t_final=1.0, dt=1e-3
    )
    assert ts[-1] == pytest.approx(1.0, abs=1e-12)
    assert abs(xs[-1][0] - 1.0) <= 1e-10


def test_scalar_cm_oracle_symmetric_pair():
    # mirror-symmetric pair stays mirror-symmetric; with this sign
    # convention the pair force x'' = -8 (x_i - x_k)^-3 pulls inward
    _, xs = scalar_cm_trajectory(
        np.array([-1.0 + 0j, 1.0 + 0j]),
        np.array([0.0 + 0j, 0.0 + 0j]),
        t_final=0.5,
        dt=1e-3,
    )
    assert np.max(np.abs(xs[:, 0] + xs[:, 1])) <= 1e-10
    assert 0.0 < (xs[-1][1] - xs[-1][0]).real < 2.0


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
