import argparse
import csv
import json

import numpy as np
import pytest

from spincm import ba_eval, load_state, random_state
from spincm.cli import main, parse_complex


@pytest.mark.parametrize(
    "text,value",
    [
        ("1.5", 1.5),
        ("-2", -2.0),
        ("1+2i", 1 + 2j),
        ("0.3-0.4i", 0.3 - 0.4j),
        ("1.0+0.5I", 1.0 + 0.5j),
    ],
)
def test_parse_complex(text, value):
    assert parse_complex(text) == value


def test_parse_complex_rejects_garbage():
    with pytest.raises(argparse.ArgumentTypeError):
        parse_complex("one+twoi")


def _gen(tmp_path, capsys, seed=3, particles=3, spin=2):
    path = tmp_path / "state.json"
    rc = main(
        [
            "gen",
            "--particles",
            str(particles),
            "--spin",
            str(spin),
            "--seed",
            str(seed),
            "--out",
            str(path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    return path


def test_gen_writes_state_and_prints_hamiltonians(tmp_path, capsys):
    path = tmp_path / "state.json"
    rc = main(["gen", "--particles", "3", "--spin", "2", "--seed", "7", "--out", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "H1 =" in out and "H5 =" in out
    loaded, _ = load_state(path)
    ref = random_state(3, 2, seed=7)
    assert np.array_equal(loaded.x, ref.x)
    assert np.array_equal(loaded.a, ref.a)


def test_gen_rejects_zero_particles(tmp_path):
    with pytest.raises(SystemExit):
        main(["gen", "--particles", "0", "--spin", "1", "--out", str(tmp_path / "s.json")])


def test_evolve_t1_is_shift(tmp_path, capsys):
    state_path = _gen(tmp_path, capsys, seed=11)
    prefix = str(tmp_path / "traj")
    rc = main(["evolve", str(state_path), "--m", "1", "--T", "0.5", "--out", prefix])
    out = capsys.readouterr().out
    assert rc == 0
    assert "samples" in out
    data = json.loads((tmp_path / "traj.json").read_text())
    start, _ = load_state(state_path)
    final = np.array(data["samples"][-1]["state"]["x"])
    shifted = start.x - 0.5
    assert np.max(np.abs(final[:, 0] + 1j * final[:, 1] - shifted)) <= 1e-12
    with open(tmp_path / "traj.csv") as fh:
        header = next(csv.reader(fh))
    assert "drift" in header


def test_evolve_conservation_summary(tmp_path, capsys):
    state_path = _gen(tmp_path, capsys, seed=11)
    prefix = str(tmp_path / "t2")
    rc = main(
        [
            "evolve",
            str(state_path),
            "--m",
            "2",
            "--T",
            "0.2",
            "--dt",
            "1e-3",
            "--record-every",
            "50",
            "--out",
            prefix,
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    dev = float(out.split("deviation over flow: ")[1].split()[0])
    assert dev <= 1e-8


def test_evolve_rejects_m_zero(tmp_path, capsys):
    state_path = _gen(tmp_path, capsys)
    with pytest.raises(SystemExit):
        main(["evolve", str(state_path), "--m", "0", "--T", "0.1", "--out", str(tmp_path / "x")])


def test_evolve_collision_exit_code(tmp_path, capsys):
    # head-on pair: the attractive t_2 flow drives the poles together
    state_path = tmp_path / "pair.json"
    from spincm import new_state

    new_state([-1.0, 1.0], [2.0, -2.0], [[1.0], [1.0]], [[1.0], [1.0]]).save(state_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"eps_coll": 0.5}))
    rc = main(
        [
            "evolve",
            str(state_path),
            "--m",
            "2",
            "--T",
            "2.0",
            "--config",
            str(config_path),
            "--out",
            str(tmp_path / "c"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "error" in err


def test_verify_exit_zero_and_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["verify", "--seed", "42", "--out", str(report_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "overall: pass" in out
    data = json.loads(report_path.read_text())
    assert data["all_passed"] is True


def test_verify_exit_one_on_failure(tmp_path, capsys):
    # corrupt the stored state so the normalization constraint is violated
    state_path = _gen(tmp_path, capsys, seed=4)
    raw = json.loads(state_path.read_text())
    raw["a"][0][0][0] *= 1.5
    raw["a"][0][1][0] *= 1.5
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(raw))
    # loading validates eagerly, so the CLI reports the violation as an error
    rc = main(["verify", str(bad_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "ConstraintViolated" in err


def test_ba_eval_writes_finite_values(tmp_path, capsys):
    state_path = _gen(tmp_path, capsys, seed=9)
    out_path = tmp_path / "ba.json"
    rc = main(
        [
            "ba-eval",
            str(state_path),
            "--z",
            "1.3+0.7i",
            "--x-min",
            "-6",
            "--x-max",
            "6",
            "--x-points",
            "11",
            "--x-imag",
            "1.5",
            "--out",
            str(out_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    assert len(data["grid"]) == 11
    assert np.all(np.isfinite(np.array(data["psi_tilde"], dtype=float)))


def test_ba_eval_z_on_spectrum_fails(tmp_path, capsys):
    state_path = _gen(tmp_path, capsys, seed=9)
    state, _ = load_state(state_path)
    from spincm import build_lax

    ev = np.linalg.eigvals(build_lax(state).L)[0]
    z_text = f"{ev.real}{'+' if ev.imag >= 0 else ''}{ev.imag}i"
    rc = main(
        [
            "ba-eval",
            str(state_path),
            f"--z={z_text}",
            "--x-min",
            "-5",
            "--x-max",
            "5",
            "--out",
            str(tmp_path / "ba.json"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "SpectralCollision" in err


def test_ba_eval_large_x_near_identity(tmp_path, capsys):
    state_path = _gen(tmp_path, capsys, seed=9)
    out_path = tmp_path / "far.json"
    rc = main(
        [
            "ba-eval",
            str(state_path),
            "--z",
            "2.0+1.0i",
            "--x-min",
            "1000",
            "--x-max",
            "2000",
            "--x-points",
            "3",
            "--out",
            str(out_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    psi = np.array(data["psi_tilde"], dtype=float)
    eye = np.zeros_like(psi[0])
    eye[0, 0, 0] = eye[1, 1, 0] = 1.0
    for point in psi:
        assert np.max(np.abs(point - eye)) <= 1e-2


def test_ba_eval_file_is_one_line_and_loads_bit_for_bit(tmp_path, capsys):
    state_path = _gen(tmp_path, capsys, seed=9)
    out_path = tmp_path / "ba.json"
    rc = main(["ba-eval", str(state_path), "--z", "1.3+0.7i", "--x-min", "-6", "--x-max", "6",
               "--x-points", "17", "--x-imag", "1.5", "--out", str(out_path)])
    assert rc == 0
    capsys.readouterr()
    text = out_path.read_text()
    assert "\n" not in text
    state, _ = load_state(state_path)
    grid = np.linspace(-6.0, 6.0, 17) + 1.5j
    assert json.loads(text) == ba_eval(state, 1.3 + 0.7j, grid)


def test_evolve_honours_config_eps_coll(tmp_path, capsys):
    # poles 5e-7 apart with R = I: a valid state under a 1e-9 floor
    from spincm import new_state

    state_path = tmp_path / "close.json"
    new_state([0.0, 5e-7], [0.3, 0.3], [[1.0, 0.0], [0.0, 1.0]],
              [[1.0, 0.0], [0.0, 1.0]], eps_coll=1e-9).save(state_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"eps_coll": 1e-9}))
    args = ["evolve", str(state_path), "--m", "2", "--T", "0.01", "--out", str(tmp_path / "c")]
    assert main(args) == 2  # the default floor rejects the state at load
    assert "CollidingPoles" in capsys.readouterr().err
    assert main(args + ["--config", str(config_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "c.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11
    assert float(rows[-1]["re_x_2"]) == pytest.approx(5e-7 + 0.006, abs=1e-15)


def test_config_eps_constr_applies_at_load(tmp_path, capsys):
    state_path = tmp_path / "loose.json"
    from spincm.phase import PhaseState

    base = random_state(2, 2, seed=1)
    # constraint drift 1e-8: above the default 1e-10, below the configured 1e-6
    PhaseState(x=base.x, p=base.p, a=base.a * (1 + 1e-8), b=base.b).save(state_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"eps_constr": 1e-6}))
    args = ["evolve", str(state_path), "--m", "2", "--T", "0.002", "--out", str(tmp_path / "c")]
    assert main(args) == 2
    assert "ConstraintViolated" in capsys.readouterr().err
    assert main(args + ["--config", str(config_path)]) == 0


def test_verify_and_ba_eval_honour_config_floor(tmp_path, capsys):
    # verify loads the state at the configured eps_coll and run_suite
    # checks every collision at it; ba-eval honours the configured floor
    # at load and on the grid
    from spincm import new_state

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"eps_coll": 1e-9}))
    paths = {}
    for gap in (5e-7, 5e-10):
        paths[gap] = tmp_path / f"close_{gap}.json"
        new_state([0.0, gap], [0.3, 0.3], [[1.0, 0.0], [0.0, 1.0]],
                  [[1.0, 0.0], [0.0, 1.0]], eps_coll=1e-11).save(paths[gap])
    config = ["--config", str(config_path)]
    report_path = tmp_path / "report.json"
    assert main(["verify", str(paths[5e-7]), "--out", str(report_path)] + config) in (0, 1)
    assert "CollidingPoles" not in capsys.readouterr().err
    results = json.loads(report_path.read_text())["results"]
    assert len(results) == 18
    assert not [r for r in results if "1.000e-06" in r["details"].get("error", "")]
    assert main(["verify", str(paths[5e-10])] + config) == 2
    assert "CollidingPoles" in capsys.readouterr().err
    ba = ["--z", "1.3+0.7i", "--x-min", "-1", "--x-max", "1", "--out", str(tmp_path / "ba.json")]
    assert main(["ba-eval", str(paths[5e-7])] + ba + config) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "ba.json").read_text())
    assert len(data["grid"]) == 20
    for key in ("psi_tilde", "psi_dagger_tilde", "V", "w1"):
        assert np.all(np.isfinite(np.array(data[key], dtype=float)))
    assert main(["ba-eval", str(paths[5e-10])] + ba + config) == 2
    assert "CollidingPoles" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,reason",
    [
        ('{"eps_coll": 1e-9', "Expecting"),  # malformed JSON
        ('{"epsilon": 1}', "unknown key(s): epsilon"),
        ('{"eps_coll": -1}', "eps_coll must be positive"),
        ('{"contour_nodes": 256}', "unknown key(s): contour_nodes"),  # removed setting
        ('{"thresholds": {"residue_idenity": 1e-9}}', "unknown key(s): thresholds.residue_idenity"),
        ('{"method": "Euler"}', "method must be RK4 or RK45"),
        ('{"dt": NaN}', "dt must be positive and finite"),
        ('{"eps_coll": Infinity}', "eps_coll must be positive and finite"),
        ('{"thresholds": {"conservation": NaN}}', "threshold conservation must be positive and finite"),
    ],
    ids=["malformed", "unknown-key", "non-positive", "removed-setting", "unknown-threshold",
         "bad-method", "nan-dt", "infinite-floor", "nan-threshold"],
)
def test_bad_config_file_exits_2_with_one_line(tmp_path, capsys, text, reason):
    config_path = tmp_path / "config.json"
    config_path.write_text(text)
    out_path = tmp_path / "report.json"
    rc = main(["verify", "--particles", "2", "--spin", "1", "--config", str(config_path),
               "--out", str(out_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ConfigError: ") and reason in lines[0]
    assert not out_path.exists()


@pytest.mark.parametrize(
    "command,flag,reason",
    [
        ("gen", "--separation=nan", "separation must be positive and finite, got nan"),
        ("gen", "--separation=inf", "separation must be positive and finite, got inf"),
        ("gen", "--separation=0", "separation must be positive and finite, got 0.0"),
        ("gen", "--separation=-1", "separation must be positive and finite, got -1.0"),
        ("ba-eval", "--z=nan", "z = (nan+0j) is not finite"),
        ("ba-eval", "--z=1e400", "z = (inf+0j) is not finite"),
        ("ba-eval", "--x-min=nan", "--x-min, --x-max and --x-imag must be finite"),
        ("ba-eval", "--x-max=inf", "--x-min, --x-max and --x-imag must be finite"),
        ("ba-eval", "--x-imag=nan", "--x-min, --x-max and --x-imag must be finite"),
    ],
    ids=["separation-nan", "separation-inf", "separation-zero", "separation-negative",
         "z-nan", "z-overflow", "x-min-nan", "x-max-inf", "x-imag-nan"],
)
def test_out_of_range_numbers_exit_2_with_one_line(tmp_path, capsys, command, flag, reason):
    out_path = tmp_path / "out.json"
    if command == "gen":
        argv = ["gen", "--particles", "2", "--spin", "1"]
    else:
        argv = ["ba-eval", str(_gen(tmp_path, capsys)), "--z", "1.3+0.7i",
                "--x-min", "-1", "--x-max", "1"]
    rc = main(argv + [flag, "--out", str(out_path)])  # the later flag wins
    captured = capsys.readouterr()
    assert rc == 2  # 1 is verify's FAIL verdict
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {reason}"]
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--particles", "2", "--spin", "1", "--config", "config.json"],
        ["evolve", "state.json", "--m", "2", "--T", "0.1", "--seed", "1"],
        ["ba-eval", "state.json", "--z", "1", "--x-min", "-1", "--x-max", "1", "--seed", "1"],
    ],
    ids=["gen-config", "evolve-seed", "ba-eval-seed"],
)
def test_commands_declare_only_the_flags_they_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,reason",
    [
        (["--dt", "0"], "dt must be positive and finite"),
        (["--dt", "nan"], "dt must be positive and finite"),
        (["--dt", "inf"], "dt must be positive and finite"),
        (["--T=nan"], "t_final must be finite"),
        (["--T=1e400"], "t_final must be finite"),
        (["--T=0.1+1e400i"], "t_final must be finite"),
    ],
    ids=["dt-zero", "dt-nan", "dt-inf", "T-nan", "T-overflow", "T-imag-overflow"],
)
def test_evolve_rejects_non_finite_spec_with_one_line(tmp_path, capsys, flag, reason):
    state_path = _gen(tmp_path, capsys)
    prefix = tmp_path / "t"
    rc = main(["evolve", str(state_path), "--m", "2", "--T", "0.1", *flag, "--out", str(prefix)])
    captured = capsys.readouterr()
    assert rc == 2  # 1 is verify's FAIL verdict
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and reason in lines[0]
    assert not (tmp_path / "t.csv").exists()


def test_verify_rejects_nan_config_dt(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"dt": NaN}')
    rc = main(["verify", "--config", str(config_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: ConfigError: {config_path}: dt must be positive and finite"]


def test_evolve_reports_max_deviation_over_all_samples(tmp_path, capsys):
    # RK45 from a state whose H deviation peaks before the last sample: the
    # printed value must be the max over every recorded sample
    state_path = _gen(tmp_path, capsys, seed=1, particles=5, spin=1)
    prefix = tmp_path / "t2"
    rc = main(["evolve", str(state_path), "--m", "2", "--T", "0.3", "--dt", "1e-3",
               "--method", "RK45", "--record-every", "10", "--out", str(prefix)])
    out = capsys.readouterr().out
    assert rc == 0
    printed = float(out.split("deviation over flow: ")[1].split()[0])
    samples = json.loads((tmp_path / "t2.json").read_text())["samples"]
    H = np.array([[complex(*h) for h in s["hamiltonians"]] for s in samples])
    devs = np.max(np.abs(H - H[0]) / (1.0 + np.abs(H[0])), axis=1)
    assert printed == float(f"{devs.max():.3e}")
    assert devs.max() > devs[-1]  # the last sample alone would understate it
    drift = float(out.split("max constraint drift: ")[1].split()[0])
    assert drift == float(f"{max(s['drift'] for s in samples):.3e}")


def test_verify_config_dt_and_threshold_reach_the_report(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"dt": 2e-3, "thresholds": {"r_identity": 1e-300}}))
    out_path = tmp_path / "report.json"
    rc = main(["verify", "--particles", "2", "--spin", "1", "--config", str(config_path),
               "--out", str(out_path)])
    capsys.readouterr()
    assert rc == 1  # r_identity is about 4e-16 here, above the configured 1e-300
    results = {r["name"]: r for r in json.loads(out_path.read_text())["results"]}
    assert results["r_identity"]["threshold"] == 1e-300
    assert not results["r_identity"]["passed"]
    assert results["constraint"]["threshold"] == 1e-12
    for name in ("lax_residual", "conservation", "constraint_drift", "commutativity"):
        assert results[name]["details"]["dt"] == 2e-3


def test_verify_notes_that_it_ignores_method(tmp_path, capsys):
    # every suite flow is fixed-step RK4; a configured RK45 is named on
    # stderr and changes neither the exit code nor the report
    reports = {}
    for method in ("RK4", "RK45"):
        config_path = tmp_path / f"{method}.json"
        config_path.write_text(json.dumps({"method": method, "dt": 4e-3}))
        reports[method] = tmp_path / f"report_{method}.json"
        rc = main(["verify", "--particles", "2", "--spin", "1", "--config", str(config_path),
                   "--out", str(reports[method])])
        out, err = capsys.readouterr()
        assert rc == (0 if "overall: pass" in out else 1)
        if method == "RK4":
            assert err == ""
            rc_rk4 = rc
        else:
            assert rc == rc_rk4
            assert len(err.splitlines()) == 1
            assert "RK45" in err and "fixed-step RK4" in err

    def results(path):
        data = json.loads(path.read_text())
        data.pop("integration_seconds")
        for r in data["results"]:
            r["details"].pop("seconds", None)
        return data

    assert results(reports["RK45"]) == results(reports["RK4"])
