import json

import numpy as np
import pytest

from spincm import (
    CheckResult,
    Config,
    PhaseState,
    VerificationReport,
    grad_hamiltonian,
    random_state,
    run_suite,
)
from spincm.verify import (
    _grad_relative_error,
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
        assert _grad_relative_error(fd, g) <= 1e-6


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
