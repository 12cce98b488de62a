"""The four workloads: what one operation runs, its inputs and its check.

Every operation is closed-loop with one caller: the next one starts when
the previous one has ended. CLI operations call ``spincm.cli.main``
in-process with stdout discarded. Inputs come only from the workload seed;
a state is never re-drawn because an operation on it failed.

An operation *fails* when it raises or the command exits with an error, or
when its output is *wrong*: malformed, or off a reference computed here. One
wrong output makes the whole run incorrect.

A residual of the program's own output above its pinned threshold in
`spincm.verify.DEFAULT_THRESHOLDS`, including a FAIL line of a suite report
(which `spincm verify` signals by exit code 1), is a *verdict*, not a failed
operation: the operation ran and its output is right. Verdicts are the
program's known numerical limits at random states. Each run counts and
prints them; none is hidden and no state is re-drawn because of one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Outcome:
    failed: bool = False
    wrong: bool = False
    note: str = ""
    #: residuals above their thresholds, when the operation itself succeeded
    over: str = ""


@dataclass
class Context:
    """Inputs of one run, made by a workload's setup."""

    workdir: str
    states: list = field(default_factory=list)
    paths: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


def run_cli(cli, argv):
    """spincm.cli.main(argv) with stdout discarded; returns (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code
    return rc, err.getvalue()


def _seeds(seed, purpose, count):
    rng = np.random.default_rng([seed, purpose])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _complex_literal(z):
    return f"{z.real!r}{z.imag:+}i"


def _pairs(obj):
    arr = np.asarray(obj, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _offgrid_points(state, rng, count, span):
    """Sample points in the pole box, at least 0.3 away from every pole."""
    pts = []
    while len(pts) < count:
        cand = complex(rng.uniform(-span, span), rng.uniform(-span, span))
        if np.min(np.abs(cand - state.x)) > 0.3:
            pts.append(cand)
    return np.array(pts)


class Suite:
    """`spincm verify --seed s`, one report per operation."""

    short = "suite"
    name = "suite"
    item = "checks"
    why = ("spincm verify at the CLI default n=3 N=2: per-call Python overhead of "
           "integrate on 3x3 matrices, untimed conservation flows")
    sizes = {"full": {"n": 3, "N": 2, "dt": None}, "smoke": {"n": 2, "N": 2, "dt": 1e-2}}

    def setup(self, sp, seed, size, workdir):
        ctx = Context(workdir=workdir, extra=dict(self.sizes[size]))
        ctx.extra["seeds"] = _seeds(seed, 1, 64)
        if ctx.extra["dt"] is not None:
            cfg = os.path.join(workdir, "suite_config.json")
            with open(cfg, "w") as fh:
                json.dump({"dt": ctx.extra["dt"]}, fh)
            ctx.extra["config"] = cfg
        return ctx

    def items(self, sp, ctx, i):
        return len(sp.verify.DEFAULT_THRESHOLDS)

    def run(self, sp, ctx, i):
        seeds = ctx.extra["seeds"]
        out = os.path.join(ctx.workdir, "report.json")
        argv = ["verify", "--seed", str(seeds[i % len(seeds)]),
                "--particles", str(ctx.extra["n"]), "--spin", str(ctx.extra["N"]), "--out", out]
        if "config" in ctx.extra:
            argv += ["--config", ctx.extra["config"]]
        return run_cli(sp.cli, argv)

    def check(self, sp, ctx, i, res):
        rc, err = res
        try:
            with open(os.path.join(ctx.workdir, "report.json")) as fh:
                report = json.load(fh)
            results = report["results"]
        except (OSError, ValueError, KeyError) as exc:
            return Outcome(True, True, f"no report (exit {rc}): {exc} {err.strip()}")
        consistent = (
            rc == (0 if report["all_passed"] else 1)
            and len(results) == len(sp.verify.DEFAULT_THRESHOLDS)
            and all(r["passed"] == (r["residual"] <= r["threshold"])
                    for r in results if not r["skipped"])
        )
        if not consistent:
            return Outcome(True, True, f"report inconsistent with exit code {rc}")
        fails = [r["name"] for r in results if not r["passed"] and not r["skipped"]]
        return Outcome(over="FAIL " + ",".join(fails) if fails else "")


class Evolve:
    """`spincm evolve` of the t2 and t3 flows, exporting CSV and JSON."""

    short = "evolve"
    name = "evolve_n100"
    item = "steps"
    why = ("spincm evolve n=100 N=4, t2 and t3 flows, dt=1e-3, every sample written: "
           "array-bound RHS, hamiltonians per sample, CSV and JSON export")
    sizes = {
        "full": {"n": 100, "N": 4, "dt": 1e-3, "T": (0.05, 0.0325 + 0.0325j), "pool": 16},
        "smoke": {"n": 10, "N": 4, "dt": 1e-3, "T": (0.01, 0.0065 + 0.0065j), "pool": 2},
    }

    def setup(self, sp, seed, size, workdir):
        ctx = Context(workdir=workdir, extra=dict(self.sizes[size]))
        for k, s in enumerate(_seeds(seed, 2, ctx.extra["pool"])):
            st = sp.phase.random_state(ctx.extra["n"], ctx.extra["N"], s)
            path = os.path.join(workdir, f"evolve_{k}.json")
            st.save(path)
            ctx.states.append(st)
            ctx.paths.append(path)
        return ctx

    def _flow(self, ctx, i):
        m = 2 + i % 2
        return m, ctx.extra["T"][i % 2], ctx.states[(i // 2) % len(ctx.states)]

    def items(self, sp, ctx, i):
        _, T, _ = self._flow(ctx, i)
        return max(1, math.ceil(abs(T) / ctx.extra["dt"]))

    def run(self, sp, ctx, i):
        m, T, _ = self._flow(ctx, i)
        path = ctx.paths[(i // 2) % len(ctx.paths)]
        out = os.path.join(ctx.workdir, "traj")
        argv = ["evolve", path, "--m", str(m), f"--T={_complex_literal(complex(T))}",
                "--dt", repr(ctx.extra["dt"]), "--record-every", "1", "--out", out]
        return run_cli(sp.cli, argv)

    def check(self, sp, ctx, i, res):
        rc, err = res
        if rc != 0:
            return Outcome(True, False, f"exit {rc}: {err.strip()}")
        thr = sp.verify.DEFAULT_THRESHOLDS
        steps = self.items(sp, ctx, i)
        _, _, state = self._flow(ctx, i)
        prefix = os.path.join(ctx.workdir, "traj")
        with open(prefix + ".json") as fh:
            samples = json.load(fh)["samples"]
        with open(prefix + ".csv", newline="") as fh:
            csv_rows = sum(1 for _ in csv.reader(fh))
        if len(samples) != steps + 1 or csv_rows != steps + 2:
            return Outcome(True, True, f"{len(samples)} samples, {csv_rows} CSV rows for {steps} steps")
        if not np.array_equal(_pairs(samples[0]["state"]["x"]), state.x):
            return Outcome(True, True, "first sample is not the input state")
        H = np.array([_pairs(s["hamiltonians"]) for s in samples])
        dev = float(np.max(np.abs(H - H[0]) / (1.0 + np.abs(H[0]))))
        drift = max(s["drift"] for s in samples)
        if not (np.isfinite(dev) and np.isfinite(drift)):
            return Outcome(True, True, f"H deviation {dev}, drift {drift}")
        if not (dev <= thr["conservation"] and drift <= thr["constraint_drift"]):
            return Outcome(over=f"H deviation {dev:.3e}, drift {drift:.3e}")
        return Outcome()


class BAGrid:
    """`spincm ba-eval` on a 400-point grid, a few z per state."""

    short = "ba"
    name = "ba_grid"
    item = "points"
    why = ("spincm ba-eval n=30 N=4 on 400 points at Im x=1.5: one (state, z) per "
           "call, a solve_c per point, JSON dump")
    sizes = {
        "full": {"n": 30, "N": 4, "points": 400, "z_per_state": 3, "pool": 32},
        "smoke": {"n": 10, "N": 4, "points": 40, "z_per_state": 3, "pool": 2},
    }
    x_min, x_max, x_imag = -6.0, 6.0, 1.5

    def setup(self, sp, seed, size, workdir):
        ctx = Context(workdir=workdir, extra=dict(self.sizes[size]))
        rng = np.random.default_rng([seed, 3])
        zs, spots = [], []
        for k, s in enumerate(_seeds(seed, 4, ctx.extra["pool"])):
            st = sp.phase.random_state(ctx.extra["n"], ctx.extra["N"], s)
            path = os.path.join(workdir, f"ba_{k}.json")
            st.save(path)
            ctx.states.append(st)
            ctx.paths.append(path)
            for _ in range(ctx.extra["z_per_state"]):
                zs.append(complex(round(rng.uniform(-2, 2), 6), round(rng.uniform(0.3, 2), 6)))
                spots.append(rng.choice(ctx.extra["points"], size=3, replace=False))
        ctx.extra["z"], ctx.extra["spots"] = zs, spots
        return ctx

    def _op(self, ctx, i):
        k = i % len(ctx.extra["z"])
        return ctx.states[k // ctx.extra["z_per_state"]], ctx.paths[k // ctx.extra["z_per_state"]], \
            ctx.extra["z"][k], ctx.extra["spots"][k]

    def items(self, sp, ctx, i):
        return ctx.extra["points"]

    def run(self, sp, ctx, i):
        _, path, z, _ = self._op(ctx, i)
        argv = ["ba-eval", path, f"--z={_complex_literal(z)}",
                f"--x-min={self.x_min!r}", f"--x-max={self.x_max!r}",
                "--x-points", str(ctx.extra["points"]), f"--x-imag={self.x_imag!r}",
                "--out", os.path.join(ctx.workdir, "ba.json")]
        return run_cli(sp.cli, argv)

    def check(self, sp, ctx, i, res):
        """Spot-check grid points against a dense solve of (zI - L), with L
        assembled here from its definition rather than by spincm."""
        rc, err = res
        if rc != 0:
            return Outcome(True, False, f"exit {rc}: {err.strip()}")
        st, _, z, spots = self._op(ctx, i)
        with open(os.path.join(ctx.workdir, "ba.json")) as fh:
            data = json.load(fh)
        if len(data["grid"]) != ctx.extra["points"]:
            return Outcome(True, True, f"{len(data['grid'])} grid points")
        x, p, a, b = st.x, st.p, st.a, st.b
        n, N = len(x), a.shape[1]
        d = x[:, None] - x[None, :]
        np.fill_diagonal(d, 1.0)
        L = -(b @ a.T) / d
        np.fill_diagonal(L, -p)
        A = z * np.eye(n) - L
        c = -np.linalg.solve(A, b)
        c_star = np.linalg.solve(A.T, a)
        tol = 1e-13 * np.linalg.cond(A) + 1e-12
        grid = np.linspace(self.x_min, self.x_max, ctx.extra["points"]) + 1j * self.x_imag
        I = np.eye(N)
        for j in spots:
            inv = 1.0 / (grid[j] - x)
            ref = {
                "psi_tilde": I + np.einsum("i,ig,ih->gh", inv, a, c),
                "psi_dagger_tilde": I + np.einsum("i,ig,ih->gh", inv, c_star, b),
                "V": -2 * np.einsum("i,ig,ih->gh", inv**2, a, b),
                "w1": -np.einsum("i,ig,ih->gh", inv, a, b),
            }
            for key, want in ref.items():
                got = _pairs(data[key][j])
                err_ = float(np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))))
                if not err_ <= tol:
                    return Outcome(True, True, f"{key} at point {j}: error {err_:.3e} > {tol:.3e}")
        return Outcome()


class Identities:
    """Library sweep of the residue identities at n=100; no CLI entry."""

    short = "identities"
    name = "identities_n100"
    item = "residuals"
    why = ("library residue identities at n=100 N=4: resolvent_residue products and "
           "the residue-identity coefficient loop; no integrate, no solve_c")
    sizes = {"full": {"n": 100, "N": 4, "pool": 48}, "smoke": {"n": 10, "N": 4, "pool": 2}}
    dual_m = (1, 2, 3, 4)
    residue_m = (1, 2, 3)

    def setup(self, sp, seed, size, workdir):
        ctx = Context(workdir=workdir, extra=dict(self.sizes[size]))
        rng = np.random.default_rng([seed, 5])
        xs = []
        for s in _seeds(seed, 6, ctx.extra["pool"]):
            st = sp.phase.random_state(ctx.extra["n"], ctx.extra["N"], s)
            ctx.states.append(st)
            xs.append(_offgrid_points(st, rng, 5, float(np.max(np.abs(st.x))) + 1.0))
        ctx.extra["xs"] = xs
        return ctx

    def items(self, sp, ctx, i):
        return len(self.dual_m) + 2 * len(self.residue_m)

    def run(self, sp, ctx, i):
        k = i % len(ctx.states)
        st, xs = ctx.states[k], ctx.extra["xs"][k]
        dual = [(sp.flows.vector_field_residue(st, m), sp.flows.vector_field_gradient(st, m))
                for m in self.dual_m]
        residue = [sp.kp.residue_identity_residual(st, m, xs) for m in self.residue_m]
        first = [sp.kp.first_order_pole_cancellation(st, m) for m in self.residue_m]
        return dual, residue, first

    def check(self, sp, ctx, i, res):
        thr = sp.verify.DEFAULT_THRESHOLDS
        dual, residue, first = res
        worst_dual = max(
            float(np.max(np.abs(getattr(r, f) - getattr(g, f)) / (1.0 + np.abs(getattr(g, f)))))
            for r, g in dual for f in ("dx", "da", "db")
        )
        if not np.all(np.isfinite([worst_dual, *residue, *first])):
            return Outcome(True, True, f"non-finite residual: {worst_dual}, {residue}, {first}")
        bad = []
        if not worst_dual <= thr["dual_derivation"]:
            bad.append(f"dual_derivation {worst_dual:.3e}")
        if not max(residue) <= thr["residue_identity"]:
            bad.append(f"residue_identity {max(residue):.3e}")
        if not max(first) <= thr["first_order_cancellation"]:
            bad.append(f"first_order_cancellation {max(first):.3e}")
        return Outcome(over=", ".join(bad))


WORKLOADS = {w.name: w for w in (Suite(), Evolve(), BAGrid(), Identities())}
