"""Benchmark of spincm: user-facing runs timed end to end, and each layer
timed on its own and traced.

    python3 benchmarks/run.py --workload suite --seed 1 --seconds 25 --trace 0

With --trace 0 the workload runs closed-loop for --seconds and reports the
end-to-end metrics. With --trace 1 every layer is timed on its own, and one
untraced and one traced operation of every workload are paired to report
per-layer self time, exact call counts and the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Everything before it is for people.

spincm is imported from ../src of this file, never from an installed copy.
BLAS runs on one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
from reference import Reference  # noqa: E402
from stats import quartiles, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPS = 7
#: reference kernel time of an unloaded 2-vCPU KVM Xeon guest; set-up seconds
#: are scaled to it, so that setup_s does not follow the machine's drift
REF_NOMINAL_S = 0.008
#: operations per run at least, so that op_tail_ref has ten samples beyond it
MIN_OPS = 11
#: untraced/traced operation pairs per workload in a traced run
PROBE_PAIRS = {"full": 2, "smoke": 1}
#: share of --seconds given to the per-layer timings of a traced run
LAYER_SHARE = 0.3

END_TO_END = ("setup_s", "op_p50_ref", "op_tail_ref", "items_per_ref")
#: layers each workload calls, for its per-layer self time
WORKLOAD_LAYERS = {
    "suite": ("verify", "kp", "flows", "lax", "phase"),
    "evolve_n100": ("flows", "lax", "phase"),
    "ba_grid": ("kp", "lax", "phase"),
    "identities_n100": ("kp", "flows", "lax", "phase"),
}
CLI_WORKLOADS = ("suite", "evolve_n100", "ba_grid")
#: the 18 checks of the verification suite, version 1
VERIFY_CHECKS = (
    "constraint", "r_identity", "trace_lr", "h2_direct", "gradient_fd", "involution",
    "dual_derivation", "lax_residual", "conservation", "constraint_drift", "commutativity",
    "rank1_residues", "w1_v_consistency", "t1_shift", "linear_problem", "residue_identity",
    "first_order_cancellation", "n1_reduction",
)
COUNTS = ("flows.rhs_calls_per_step", "lax.build_lax_calls_per_rhs",
          "lax.hamiltonians_calls_per_sample", "kp.solve_c_calls_per_point")


def per_layer_metrics(sizes=layers.SIZES):
    """(name, unit, better) of every metric a traced run reports."""
    out = [(n, u, "higher" if u == "1/s" else "lower") for n, u in layers.case_names(sizes)]
    out += [("flows.export_bytes", "count", "lower"), ("kp.ba_json_bytes", "count", "lower")]
    out += [(f"verify.check.{c}_s", "s", "lower") for c in VERIFY_CHECKS]
    out.append(("verify.untimed_s", "s", "lower"))
    for w, lays in WORKLOAD_LAYERS.items():
        out += [(f"{w}.self.{layer}_s", "s", "lower") for layer in lays]
        if w in CLI_WORKLOADS:
            out.append((f"{w}.cli.overhead_s", "s", "lower"))
        out.append((f"{w}.trace.overhead_s", "s", "lower"))
    out += [(c, "count", "lower") for c in COUNTS]
    return out


def import_spincm():
    """Import spincm afresh from the checkout's src; returns its layers."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "spincm" or k.startswith("spincm.")]:
        del sys.modules[name]
    cli = importlib.import_module("spincm.cli")
    spincm = sys.modules["spincm"]
    if not Path(spincm.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"spincm imported from {spincm.__file__}, not from {SRC}")
    return SimpleNamespace(cli=cli, **{m: sys.modules[f"spincm.{m}"]
                                       for m in ("phase", "lax", "flows", "kp", "verify")})


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas():
    """(name, thread count) of numpy's BLAS."""
    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                fn = getattr(dll, sym)
                fn.restype = ctypes.c_int
                return name, fn()
    return name, f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def environment(args, workload):
    digest = hashlib.sha256()
    for path in sorted((SRC / "spincm").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    blas, threads = _blas()
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": json.loads(json.dumps(workload.sizes[args.size], default=str)),
    }


def setup(workload, seed, size, workdir):
    """Import spincm and make the workload's inputs, SETUP_REPS times, each
    after a timing of the reference kernel. Returns the layers and inputs of
    the last repetition, and the seconds and reference seconds of each."""
    ref = Reference()
    times, refs = [], []
    for _ in range(SETUP_REPS):
        refs.append(ref.seconds())
        t0 = time.perf_counter()
        sp = import_spincm()
        ctx = workload.setup(sp, seed, size, workdir)
        times.append(time.perf_counter() - t0)
    return sp, ctx, times, refs


def measure(workload, sp, ctx, seconds):
    """Closed loop for `seconds` (and at least MIN_OPS operations). Each
    operation is preceded by a timing of the reference kernel."""
    ref = Reference()
    op_s, ref_s, outcomes = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_OPS or time.perf_counter() < deadline:
        ref_s.append(ref.seconds())
        t0 = time.perf_counter()
        res = workload.run(sp, ctx, i)
        op_s.append(time.perf_counter() - t0)
        outcomes.append(workload.check(sp, ctx, i, res))
        i += 1
    return op_s, ref_s, outcomes


def fmt_metric(name, value, unit, extra=""):
    return f"  {name:<44} {value:>14.6g} {unit:<6} {extra}"


def report_outcomes(outcomes, label=""):
    """Print failed operations and threshold verdicts; returns the failed
    count and whether every output was right."""
    failed = [o for o in outcomes if o.failed]
    over = [o for o in outcomes if o.over]
    for o in failed[:5]:
        print(f"  {label}failed op: {o.note}" + ("  (wrong output)" if o.wrong else ""))
    for o in over[:5]:
        print(f"  {label}over threshold: {o.over}")
    print(fmt_metric(f"{label}failed_share", len(failed) / len(outcomes), "",
                     f"failed={len(failed)} attempted={len(outcomes)}"))
    print(fmt_metric(f"{label}over_threshold_share", len(over) / len(outcomes), "",
                     f"ops with a residual over its threshold={len(over)} attempted={len(outcomes)}"))
    return len(failed), not any(o.wrong for o in failed)


def run_timed(args, workload, workdir):
    sp, ctx, setup_times, setup_refs = setup(workload, args.seed, args.size, workdir)
    setup_s = median([t / r for t, r in zip(setup_times, setup_refs)]) * REF_NOMINAL_S
    op_s, ref_s, outcomes = measure(workload, sp, ctx, args.seconds)
    n = len(op_s)
    items = [workload.items(sp, ctx, i) for i in range(n)]
    op_ref = [t / r for t, r in zip(op_s, ref_s)]

    def tail_text(pct):
        return f"p{pct:.1f} of n={n}" if pct is not None else f"max of n={n} (fewer than 11)"

    print(f"end-to-end, {n} ops, closed loop, one caller; reference kernel "
          f"{median(ref_s) * 1e3:.3f} ms (median, q1 {quartiles(ref_s)[0] * 1e3:.3f} "
          f"q3 {quartiles(ref_s)[2] * 1e3:.3f}):")
    print(fmt_metric("setup_s", setup_s, "s",
                     f"median of {len(setup_times)} set-ups scaled to a {REF_NOMINAL_S * 1e3:g} ms "
                     f"reference; raw {['%.4f' % t for t in setup_times]} s, reference "
                     f"{['%.2f' % (r * 1e3) for r in setup_refs]} ms"))
    metrics = {"setup_s": (setup_s, "s")}
    w = workload
    for unit, values in (("s", op_s), ("ref", op_ref)):
        q1, p50, q3 = quartiles(values)
        t_val, t_pct, _ = tail(values)
        rate = median([k / v for k, v in zip(items, values)])
        for generic, name, value, u, note in (
            (f"op_p50_{unit}", f"{w.short}_{unit}_p50", p50, unit, f"n={n} q1={q1:.5g} q3={q3:.5g}"),
            (f"op_tail_{unit}", f"{w.short}_{unit}_tail", t_val, unit, tail_text(t_pct)),
            (f"items_per_{unit}", f"{w.short}_{w.item}_per_{unit}", rate, "1/" + unit,
             f"median over n={n} ops of {w.item} per {unit}"),
        ):
            print(fmt_metric(f"{name} ({generic})", value, u, note))
            if generic in END_TO_END:
                metrics[generic] = (value, u)
    failed, correct = report_outcomes(outcomes)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, n, failed, correct


def probe(workload, sp, ctx, pairs, tracer):
    """Pairs of one untraced and one traced run of the same operation, the
    order alternating, after one warm-up operation on other inputs.
    Returns per-op walls, traced op ids and outcomes."""
    untraced, traced, ops, outcomes = [], [], [], []
    workload.run(sp, ctx, pairs)  # warm-up: the first call of a command is slower
    for i in range(pairs):
        for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_run:
                with tracer:
                    t0 = time.perf_counter()
                    res = tracer.op(f"op.{workload.name}", lambda: workload.run(sp, ctx, i))
                    traced.append(time.perf_counter() - t0)
                ops.append(tracer.spans[-1][0])
            else:
                t0 = time.perf_counter()
                res = workload.run(sp, ctx, i)
                untraced.append(time.perf_counter() - t0)
            outcomes.append(workload.check(sp, ctx, i, res))
    return untraced, traced, ops, outcomes


def layer_metrics(args, sp, workdir, metrics, rows):
    """Time layer functions on their own, and the suite's checks."""
    sizes = layers.SIZES if args.size == "full" else layers.SMOKE_SIZES
    min_reps = 3 if args.size == "full" else 1
    for name, (val, q1, q3, n, unit) in layers.run_cases(
            sp, args.seed, sizes, workdir, LAYER_SHARE * args.seconds, min_reps).items():
        metrics[name] = (val, unit)
        rows.append(fmt_metric(name, val, unit, f"q1={q1:.4g} q3={q3:.4g} n={n}"))
    per_check, untimed, reported = layers.verify_checks(sp, args.seed, min_reps)
    for c in VERIFY_CHECKS:
        vals = per_check[c]
        q1, med, q3 = quartiles(vals)
        metrics[f"verify.check.{c}_s"] = (med, "s")
        rows.append(fmt_metric(f"verify.check.{c}_s", med, "s",
                               f"q1={q1:.4g} q3={q3:.4g} n={len(vals)} report={reported[c]}"))
    q1, med, q3 = quartiles(untimed)
    metrics["verify.untimed_s"] = (med, "s")
    rows.append(fmt_metric("verify.untimed_s", med, "s", f"q1={q1:.4g} q3={q3:.4g} n={len(untimed)}"))


def count_metrics(w, sp, ctx, spans_by_op, counts):
    """Accumulate the exact call counts of one workload's traced operations."""
    for i, spans in enumerate(spans_by_op):
        items = w.items(sp, ctx, i)
        if w.name == "evolve_n100":
            rhs = tracing.count_under(spans, "flows.vector_field_gradient", "flows.integrate")
            pairs = [("flows.rhs_calls_per_step", rhs, items),
                     ("lax.build_lax_calls_per_rhs",
                      tracing.count_under(spans, "lax.build_lax", "flows.vector_field_gradient"), rhs),
                     ("lax.hamiltonians_calls_per_sample",
                      tracing.count_under(spans, "lax.hamiltonians", "flows.integrate"), items + 1)]
        elif w.name == "ba_grid":
            pairs = [("kp.solve_c_calls_per_point",
                      tracing.count_under(spans, "kp.solve_c", "kp.ba_eval"), items)]
        else:
            pairs = []
        for key, num, den in pairs:
            counts[key][0] += num
            counts[key][1] += den


def run_traced(args, workload, workdir, env):
    sp = import_spincm()
    metrics, rows = {}, []
    layer_metrics(args, sp, workdir, metrics, rows)

    tracer = tracing.Tracer()
    attempted, failed, correct = 0, 0, True
    counts = {c: [0, 0] for c in COUNTS}
    keep_ops = []
    for w in [workload] + [w for w in WORKLOADS.values() if w is not workload]:
        wdir = os.path.join(workdir, w.name)
        os.makedirs(wdir)
        ctx = w.setup(sp, args.seed, args.size, wdir)
        untraced, traced, ops, outcomes = probe(w, sp, ctx, PROBE_PAIRS[args.size], tracer)
        attempted += len(outcomes)
        n_failed, ok = report_outcomes(outcomes, f"{w.name}: ")
        failed += n_failed
        correct &= ok
        if w is workload:
            keep_ops = ops
        spans_by_op = [[s for s in tracer.spans if s[2] == op] for op in ops]
        selfs = [tracing.self_times(spans)[op] for spans, op in zip(spans_by_op, ops)]
        for layer in WORKLOAD_LAYERS[w.name]:
            metrics[f"{w.name}.self.{layer}_s"] = (median([s[layer] for s in selfs]), "s")
        if w.name in CLI_WORKLOADS:
            metrics[f"{w.name}.cli.overhead_s"] = (median([s["cli"] for s in selfs]), "s")
        metrics[f"{w.name}.trace.overhead_s"] = ((sum(traced) - sum(untraced)) / len(traced), "s")
        n_spans = median([len(spans) for spans in spans_by_op])
        rows.append(f"  {w.name}: untraced {['%.4f' % t for t in untraced]} s, traced "
                    f"{['%.4f' % t for t in traced]} s, {n_spans:.0f} spans/op, per-op self time "
                    + ", ".join(f"{k}={median([s[k] for s in selfs]):.4f}"
                                for k in tracing.LAYERS + ("bench",)))
        count_metrics(w, sp, ctx, spans_by_op, counts)
        if w.name == "evolve_n100":
            metrics["flows.export_bytes"] = (sum(
                os.path.getsize(os.path.join(wdir, "traj" + ext)) for ext in (".csv", ".json")), "count")
        elif w.name == "ba_grid":
            metrics["kp.ba_json_bytes"] = (os.path.getsize(os.path.join(wdir, "ba.json")), "count")
    for c, (num, den) in counts.items():
        metrics[c] = (num / den, "count")

    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json.gz"
    OUT_DIR.mkdir(exist_ok=True)
    n_spans = tracer.write(spans_path, env, set(keep_ops))

    print("per-layer, median [quartiles] of per-call times:")
    for row in rows:
        print(row)
    print("exact counts:")
    for c in COUNTS + ("flows.export_bytes", "kp.ba_json_bytes"):
        print(fmt_metric(c, metrics[c][0], "count"))
    print(f"tracing overhead per op (traced minus untraced wall time), {PROBE_PAIRS[args.size]} pairs:")
    for w in WORKLOADS:
        print(fmt_metric(f"{w}.trace.overhead_s", metrics[f"{w}.trace.overhead_s"][0], "s"))
    print(f"wrote {n_spans} spans of {workload.name} to {spans_path.relative_to(ROOT)}")
    out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return out, attempted, failed, correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: small inputs that run in seconds, for tests")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "spincm" / "__init__.py").is_file():
        print(f"error: no spincm sources under {SRC}", file=sys.stderr)
        return 2
    env = environment(args, workload)
    print("environment: " + json.dumps(env))
    print(f"workload {workload.name}: {workload.why}")

    RUN_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUN_DIR)
    try:
        if args.trace:
            metrics, attempted, failed, correct = run_traced(args, workload, workdir, env)
        else:
            metrics, attempted, failed, correct = run_timed(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if RUN_DIR.exists() and not any(RUN_DIR.iterdir()):
            RUN_DIR.rmdir()
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
