"""Tests of the benchmark itself, on the smoke sizes: python3 -m pytest benchmarks"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from stats import tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_timed_smoke_run(workload):
    res = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--size", "smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= run.MIN_OPS and res["failed"] == 0
    assert list(res["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    proc = bench("--workload", "evolve_n100", "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--size", "smoke")
    res = last_json(proc)
    want = {n for n, _, _ in run.per_layer_metrics(layers.SMOKE_SIZES)}
    assert set(res["metrics"]) == want
    for count in run.COUNTS:
        assert res["metrics"][count]["value"] >= 1
    assert "spans/op" in proc.stdout and '"blas_threads": 1' in proc.stdout


def test_same_seed_same_inputs(tmp_path):
    a = WORKLOADS["ba_grid"].setup(run.import_spincm(), 5, "smoke", str(tmp_path))
    b = WORKLOADS["ba_grid"].setup(run.import_spincm(), 5, "smoke", str(tmp_path))
    assert a.extra["z"] == b.extra["z"]
    assert all((s.x == t.x).all() for s, t in zip(a.states, b.states))


def test_suite_fail_line_is_a_verdict_not_a_failed_op(tmp_path):
    sp = run.import_spincm()
    suite = WORKLOADS["suite"]
    ctx = suite.setup(sp, 1, "smoke", str(tmp_path))
    results = [{"name": name, "residual": 0.0, "threshold": thr, "passed": True, "skipped": False}
               for name, thr in sp.verify.DEFAULT_THRESHOLDS.items()]
    results[0].update(residual=1.0, passed=False)
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"all_passed": False, "results": results}))
    out = suite.check(sp, ctx, 0, (1, ""))
    assert not out.failed and out.over == "FAIL " + results[0]["name"]
    out = suite.check(sp, ctx, 0, (0, ""))  # exit code contradicts the report
    assert out.failed and out.wrong
    report.unlink()
    out = suite.check(sp, ctx, 0, (2, "boom"))
    assert out.failed and out.wrong


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = tail(list(range(30)))
    assert (value, n) == (19, 30) and sum(v > value for v in range(30)) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert tail([3.0, 1.0]) == (3.0, None, 2)


def test_tracer_installs_and_restores():
    sp = run.import_spincm()
    original = sp.flows.build_lax
    st = sp.phase.random_state(3, 2, 1)
    tracer = tracing.Tracer()
    with tracer:
        assert sp.flows.build_lax is not original and sp.lax.build_lax is sp.flows.build_lax
        tracer.op("op", lambda: sp.flows.vector_field_gradient(st, 2))
    assert sp.flows.build_lax is original
    names = [s[3] for s in tracer.spans]
    assert names.count("lax.build_lax") == 1 and "phase.PhaseState.spin_pairings" in names
    assert tracing.count_under(tracer.spans, "lax.build_lax", "flows.vector_field_gradient") == 1
    selfs = tracing.self_times(tracer.spans)[tracer.spans[-1][0]]
    root = tracer.spans[-1]
    assert sum(selfs.values()) == pytest.approx(root[5] - root[4])
