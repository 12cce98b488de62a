"""Command-line interface: instance generation, flow integration,
Baker-Akhiezer evaluation and verification.

Complex arguments are accepted as "re" or "re+imi" / "re-imi" literals,
e.g. ``--z 1.3+0.7i`` or ``--T 0.5``.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from . import kp
from .config import Config
from .errors import SpinCMError
from .flows import FlowSpec, _scaled_error, integrate
from .lax import hamiltonians
from .phase import _positive_integer, load_state, random_state, write_json
from .verify import run_suite


def parse_complex(text: str) -> complex:
    """Parse "re" or "re+imi" / "re-imi" literals into a complex number."""
    cleaned = text.strip().replace(" ", "").replace("I", "i")
    try:
        return complex(cleaned.replace("i", "j"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex literal: {text!r}") from exc


def _positive_int(text):
    """An integer flag >= 1; argparse prints the refusal after the flag."""
    try:
        value = int(text)
    except ValueError:
        value = text
    return _positive_integer(value, "value", argparse.ArgumentTypeError)


def _print_hamiltonians(state):
    for k, h in enumerate(hamiltonians(state), start=1):
        print(f"H{k} = {h.real:+.12e} {h.imag:+.12e}i")


def cmd_gen(args, config):
    state = random_state(args.particles, args.spin, args.seed, separation=args.separation)
    state.save(args.out)
    print(f"wrote {args.out} (particles={args.particles}, spin={args.spin}, seed={args.seed})")
    print(f"min separation = {state.min_separation():.6e}")
    print(f"constraint drift = {state.constraint_drift():.3e}")
    _print_hamiltonians(state)
    return 0


def cmd_evolve(args, config):
    state, _ = load_state(args.state, eps_coll=config.eps_coll, eps_constr=config.eps_constr)
    spec = FlowSpec(
        m=args.m,
        t_final=args.T,
        dt=args.dt if args.dt is not None else config.dt,
        record_every=args.record_every,
    )
    traj = integrate(state, spec, eps_coll=config.eps_coll)
    traj.export_csv(args.out + ".csv")
    traj.export_json(args.out + ".json")
    dev = _scaled_error(traj.hamiltonians, traj.hamiltonians[0])
    drift = np.max(traj.drift)
    print(f"wrote {args.out}.csv and {args.out}.json ({len(traj.t)} samples)")
    print(f"max scaled Hamiltonian deviation over flow: {dev:.3e}")
    print(f"max constraint drift: {drift:.3e}")
    return 0


def cmd_verify(args, config):
    state = None
    if args.state is not None:
        state, _ = load_state(args.state, eps_coll=config.eps_coll, eps_constr=config.eps_constr)
    report = run_suite(
        state=state,
        config=config,
        seed=args.seed,
        n_particles=args.particles,
        spin_dim=args.spin,
    )
    if args.out is not None:
        report.save(args.out)  # before the summary: an unwritable --out prints nothing
    print(report.summary())
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0 if report.all_passed() else 1


def cmd_ba_eval(args, config):
    state, _ = load_state(args.state, eps_coll=config.eps_coll, eps_constr=config.eps_constr)
    if not np.isfinite([args.x_min, args.x_max, args.x_imag]).all():
        raise ValueError("--x-min, --x-max and --x-imag must be finite")
    grid = np.linspace(args.x_min, args.x_max, args.x_points) + 1j * args.x_imag
    data = kp.ba_eval(state, args.z, grid, eps_coll=config.eps_coll)
    write_json(args.out, data)
    print(f"wrote {args.out} ({args.x_points} grid points)")
    return 0


def build_parser():
    # each command declares only the flags it reads
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", default=None, help="path to a JSON config file")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=42, help="generator seed")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (or prefix)")

    parser = argparse.ArgumentParser(
        prog="spincm",
        description="Spin Calogero-Moser hierarchy / matrix-KP pole dynamics toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[seeded, common], help="generate a random phase point")
    g.add_argument("--particles", type=_positive_int, required=True)
    g.add_argument("--spin", type=_positive_int, required=True)
    g.add_argument("--separation", type=float, default=1.0)
    g.set_defaults(fn=cmd_gen, default_out="state.json")

    e = sub.add_parser("evolve", parents=[configured, common], help="integrate a hierarchy flow")
    e.add_argument("state", help="state JSON file")
    e.add_argument("--m", type=_positive_int, required=True, help="hierarchy time index")
    e.add_argument("--T", type=parse_complex, required=True, help="flow endpoint")
    e.add_argument("--dt", type=float, default=None)
    e.add_argument("--record-every", type=_positive_int, default=1)
    e.set_defaults(fn=cmd_evolve, default_out="trajectory")

    v = sub.add_parser("verify", parents=[configured, seeded, common],
                       help="run the verification suite")
    v.add_argument("state", nargs="?", default=None, help="state JSON file (optional)")
    v.add_argument("--particles", type=_positive_int, default=3)
    v.add_argument("--spin", type=_positive_int, default=2)
    v.set_defaults(fn=cmd_verify, default_out=None)

    b = sub.add_parser("ba-eval", parents=[configured, common],
                       help="evaluate Baker-Akhiezer data on an x grid")
    b.add_argument("state", help="state JSON file")
    b.add_argument("--z", type=parse_complex, required=True)
    b.add_argument("--x-min", type=float, required=True)
    b.add_argument("--x-max", type=float, required=True)
    b.add_argument("--x-points", type=_positive_int, default=20)
    b.add_argument("--x-imag", type=float, default=0.0,
                   help="constant imaginary offset of the grid")
    b.set_defaults(fn=cmd_ba_eval, default_out="ba_eval.json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = args.default_out
    # the one error path: the library's errors, its input rejections
    # (ValueError) and an unwritable --out (OSError); exit code 1 is only
    # verify's FAIL verdict
    try:
        config = Config.load(args.config) if getattr(args, "config", None) else Config()
        # the first file the command would write, if any: an --out in a
        # missing directory fails with the write's error before any work
        path = args.out + ".csv" if args.command == "evolve" else args.out
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        return args.fn(args, config)
    except (SpinCMError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
