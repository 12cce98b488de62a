"""Per-layer timings, taken from outside by calling each layer's public
functions on states of n in SIZES particles with spin dimension N = 4.

Each case is timed in batches of calls lasting about BATCH_S; a case's
samples are the per-call times of its batches, reported as median and
quartiles. Which end-to-end metric each case should move, and on which
workload, is written down in README.md.
"""

from __future__ import annotations

import inspect
import os
import time

import numpy as np

from stats import quartiles

SIZES = (3, 10, 30, 100)
SMOKE_SIZES = (3, 10)
SPIN = 4
BATCH_S = 2e-3
STEPS = 50
DT = 1e-3
BA_POINTS = 50


def time_calls(fn, budget_s, min_reps):
    """Per-call seconds of fn(), one sample per batch of calls."""
    t0 = time.perf_counter()
    fn()
    one = time.perf_counter() - t0
    batch = max(1, int(BATCH_S / max(one, 1e-9)))
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_reps or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return samples


def _cases(sp, seed, sizes, workdir):
    """(metric name, unit, callable, work per call) for every timed case.
    A unit of "1/s" reports work per call divided by the time per call."""
    rng = np.random.default_rng([seed, 7])
    z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2))
    cases = []
    for n in sizes:
        st = sp.phase.random_state(n, SPIN, int(rng.integers(2**31 - 1)))
        lax = sp.lax.build_lax(st)
        span = float(np.max(np.abs(st.x))) + 1.0
        xs = []
        while len(xs) < 5:
            c = complex(rng.uniform(-span, span), rng.uniform(-span, span))
            if np.min(np.abs(c - st.x)) > 0.3:
                xs.append(c)
        spec = sp.flows.FlowSpec(m=2, t_final=STEPS * DT, dt=DT)
        cases += [
            (f"lax.build_lax.n{n}_s", "s", lambda st=st: sp.lax.build_lax(st), 1),
            (f"lax.hamiltonians.n{n}_s", "s", lambda st=st: sp.lax.hamiltonians(st), 1),
            (f"lax.grad_hamiltonian.n{n}_s", "s", lambda st=st: sp.lax.grad_hamiltonian(st, 3), 1),
            (f"lax.resolvent_residue.n{n}_s", "s",
             lambda L=lax.L, R=lax.R: sp.lax.resolvent_residue(L, 4, R), 1),
            (f"flows.vector_field_gradient.n{n}_s", "s",
             lambda st=st: sp.flows.vector_field_gradient(st, 2), 1),
            (f"flows.vector_field_residue.n{n}_s", "s",
             lambda st=st: sp.flows.vector_field_residue(st, 3), 1),
            (f"flows.integrate_steps_per_s.n{n}", "1/s",
             lambda st=st, spec=spec: sp.flows.integrate(st, spec), STEPS),
            (f"kp.solve_c.n{n}_s", "s", lambda st=st: sp.kp.solve_c(st, z), 1),
            (f"kp.residue_identity_residual.n{n}_s", "s",
             lambda st=st, xs=np.array(xs): sp.kp.residue_identity_residual(st, 3, xs), 1),
        ]
        if n == 30:
            grid = np.linspace(-6, 6, BA_POINTS) + 1.5j
            cases.append((f"kp.ba_eval_per_point.n{n}_s", "s",
                          lambda st=st, g=grid: sp.kp.ba_eval(st, z, g), BA_POINTS))
        if n == max(sizes):
            traj = sp.flows.integrate(st, spec)
            path = os.path.join(workdir, f"layer_state_{n}.json")
            st.save(path)
            csv_path = os.path.join(workdir, "layer_traj.csv")
            json_path = os.path.join(workdir, "layer_traj.json")
            s = int(rng.integers(2**31 - 1))
            cases += [
                (f"flows.export_csv.n{n}_s", "s", lambda: traj.export_csv(csv_path), 1),
                (f"flows.export_json.n{n}_s", "s", lambda: traj.export_json(json_path), 1),
                (f"phase.random_state.n{n}_s", "s",
                 lambda: sp.phase.random_state(n, SPIN, s), 1),
                (f"phase.save.n{n}_s", "s", lambda st=st: st.save(path), 1),
                (f"phase.load_state.n{n}_s", "s", lambda: sp.phase.load_state(path), 1),
            ]
    return cases


def case_names(sizes=SIZES):
    """Metric names and units of the timed cases, without running them."""
    out = [(f"{layer}.{fn}.n{n}_s", "s") for n in sizes for layer, fn in (
        ("lax", "build_lax"), ("lax", "hamiltonians"), ("lax", "grad_hamiltonian"),
        ("lax", "resolvent_residue"), ("flows", "vector_field_gradient"),
        ("flows", "vector_field_residue"))]
    out += [(f"flows.integrate_steps_per_s.n{n}", "1/s") for n in sizes]
    out += [(f"kp.{fn}.n{n}_s", "s") for n in sizes for fn in ("solve_c", "residue_identity_residual")]
    if 30 in sizes:
        out.append(("kp.ba_eval_per_point.n30_s", "s"))
    n = max(sizes)
    out += [(f"{name}.n{n}_s", "s") for name in (
        "flows.export_csv", "flows.export_json", "phase.random_state", "phase.save",
        "phase.load_state")]
    return out


def run_cases(sp, seed, sizes, workdir, budget_s, min_reps):
    """{metric: (value, q1, q3, samples, unit)} for every case."""
    cases = _cases(sp, seed, sizes, workdir)
    per_case = budget_s / len(cases)
    out = {}
    for name, unit, fn, work in cases:
        samples = time_calls(fn, per_case, min_reps)
        q1, med, q3 = quartiles(samples)
        if unit == "1/s":  # a rate: the quartiles swap places
            out[name] = (work / med, work / q3, work / q1, len(samples), unit)
        else:
            out[name] = (med / work, q1 / work, q3 / work, len(samples), unit)
    return out


def verify_checks(sp, seed, reps, n=3, spin=2):
    """Seconds of each suite check and the untimed rest of run_suite.

    Every private check function of spincm.verify is timed to full precision
    (the report rounds `details.seconds` to 0.1 ms); the timings pair with
    the report's non-skipped results in call order. `untimed` is run_suite
    wall time minus the sum of the report's `details.seconds`. A suite at
    spin dimension 1 adds the n1_reduction check, which is skipped above it.
    """
    verify = sp.verify
    checks = {k: v for k, v in vars(verify).items()
              if k.startswith("_check_") and inspect.isfunction(v)}
    durations = []

    def timed(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - t0)
        return wrapper

    seeds = np.random.default_rng([seed, 8]).integers(2**31 - 1, size=reps + 1)
    per_check, untimed, reported = {}, [], {}
    for k, s in enumerate(seeds):
        dim = spin if k < reps else 1
        durations.clear()
        for name, fn in checks.items():
            setattr(verify, name, timed(fn))
        try:
            t0 = time.perf_counter()
            report = verify.run_suite(seed=int(s), n_particles=n, spin_dim=dim)
            wall = time.perf_counter() - t0
        finally:
            for name, fn in checks.items():
                setattr(verify, name, fn)
        ran = [r for r in report.results if not r.skipped]
        exact = len(ran) == len(durations)
        for j, r in enumerate(ran):
            if dim == spin or r.name not in per_check:
                per_check.setdefault(r.name, []).append(
                    durations[j] if exact else r.details["seconds"])
                reported.setdefault(r.name, []).append(r.details["seconds"])
        if dim == spin:
            untimed.append(wall - sum(r.details["seconds"] for r in ran))
    return per_check, untimed, reported
