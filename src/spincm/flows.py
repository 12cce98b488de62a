"""Hierarchy flows t_m as ODEs on phase points.

Each flow is realized by two independently derived vector fields, each a
:class:`spincm.lax.Tangent`: the Hamiltonian (gradient) route through the
H_m gradient kernel, and the residue route through the residue data of
:func:`spincm.lax._residue_rates`, the kernel that the residue identities
of :mod:`spincm.kp` read too. Integration runs along the straight
segment from 0 to a complex t_final, with constraint drift and H_1..H_5
recorded at every sample, by one stepper: DOP853, the embedded 8(5,3)
Runge-Kutta pair of Dormand and Prince whose step follows its error
estimate, with the samples on a fixed grid read from its continuous
extension.

The one integrator, :func:`integrate_stack`, owns the rows of a ragged
stack: a (B, dim) block of packed phase points that share (n, N), while
each row keeps its own m, endpoint, grid and record_every; each
right-hand-side call is one :func:`vector_field_gradient` of the block,
whatever the m of its rows. It alone knows a row's grid, budget,
chaining, recording and end; :mod:`spincm.dop853` holds only the tableau
and the continuous extension. A row ends alone, at its last step, its
own pole collision or MAX_STEPS, and the block changes only between
steps: a row that collides at a stage sits out the rest of its step. A
row may start from the last sample of an earlier row, so a sequence of
flows, such as the legs of :func:`commutativity_check`, runs in one
stack. :func:`integrate` is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import (
    CollidingPoles,
    DimensionMismatch,
    IntegrationFailed,
    SpinCMError,
    StepLimitExceeded,
)
from .lax import (Tangent, _chunked, _derived, _lax_derivative, _pack, _powers, _unpack,
                  build_lax, hamiltonians)
from .phase import (EPS_COLL, PhaseState, _freeze, _positive_finite, _positive_integer,
                    complex_to_pairs, write_json)

#: the samples a flow row may record and the steps it may take; read at call time
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class FlowSpec:
    """Which hierarchy time to flow and the grid of its samples."""

    m: int
    t_final: complex
    dt: float
    record_every: int = 1

    def __post_init__(self):
        for name in ("m", "record_every"):  # a bool, or a 0-d integer array, as its int
            object.__setattr__(self, name, _positive_integer(getattr(self, name), name))
        _positive_finite(self.dt, "dt")
        if not np.isfinite(self.t_final):
            raise ValueError(f"t_final must be finite, not {self.t_final}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one t_m flow, one row per sample.

    ``t`` holds the flow times (k,), ``x`` and ``p`` have shape (k, n), ``a``
    and ``b`` (k, n, N), ``drift`` the constraint drift (k,) and
    ``hamiltonians`` H_1..H_5 (k, 5). The phase arrays are views of one
    packed block on an immutable buffer (:func:`spincm.phase._freeze`);
    :meth:`state` returns sample k as a PhaseState that shares their memory.
    """

    t: np.ndarray
    x: np.ndarray
    p: np.ndarray
    a: np.ndarray
    b: np.ndarray
    drift: np.ndarray
    hamiltonians: np.ndarray
    m: int

    def state(self, k) -> PhaseState:
        return PhaseState(x=self.x[k], p=self.p[k], a=self.a[k], b=self.b[k])

    def export_csv(self, path):
        """CSV table: step, re/im of t, every x_i and p_i, drift, H_1..H_5."""
        n = self.x.shape[1]
        header = ["step", "re_t", "im_t"]
        header += [f"{c}_x_{i + 1}" for i in range(n) for c in ("re", "im")]
        header += [f"{c}_p_{i + 1}" for i in range(n) for c in ("re", "im")]
        header += ["drift"]
        header += [f"{c}_H{k + 1}" for k in range(5) for c in ("re", "im")]
        cols = [_re_im(self.t[:, None]), _re_im(self.x), _re_im(self.p),
                self.drift[:, None], _re_im(self.hamiltonians)]
        # the bytes csv.writer writes: repr of every number, "\r\n" ends a row
        lines = [",".join(header)]
        lines += [",".join(map(repr, [step, *row]))
                  for step, row in enumerate(np.hstack(cols).tolist())]
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join(lines) + "\r\n")

    def export_json(self, path):
        """JSON mirror of the PhaseState schema per sample."""
        n, N = self.a.shape[1:]
        ts, hs, xs, ps, as_, bs = (
            complex_to_pairs(v)
            for v in (self.t, self.hamiltonians, self.x, self.p, self.a, self.b)
        )
        out = {
            "m": self.m,
            "samples": [
                {
                    "t": ts[k],
                    "drift": drift,
                    "hamiltonians": hs[k],
                    "state": {"n_particles": n, "spin_dim": N,
                              "x": xs[k], "p": ps[k], "a": as_[k], "b": bs[k]},
                }
                for k, drift in enumerate(self.drift.tolist())
            ],
        }
        write_json(path, out)


def _re_im(z):
    """(k, ...) complex rows as (k, 2 * ...) floats, re and im interleaved."""
    return np.stack([z.real, z.imag], axis=-1).reshape(len(z), -1)


def _scaled_error(u, ref, scale=None) -> float:
    """The one comparison rule of the checks: max |u - ref| / scale, the
    scale 1 + |ref| unless given, over every entry of two arrays (or
    scalars), or over every field of two dataclasses of arrays, such as
    Tangents."""
    if is_dataclass(ref):
        return float(np.max([_scaled_error(getattr(u, f.name), getattr(ref, f.name), scale)
                             for f in fields(ref)]))
    scale = 1.0 + np.abs(ref) if scale is None else scale
    return float(np.max(np.abs(u - ref) / scale, initial=0.0))


def vector_field_gradient(state: PhaseState, m: int, eps_coll=EPS_COLL) -> Tangent:
    """The Hamiltonian vector field of H_m, a Tangent of velocities:
    dx = dH/dp, dp = -dH/dx, da = dH/db, db = -dH/da.

    ``state`` may stack B phase points along a leading axis, with m an int
    or a (B,) integer array of one m per point; each point's tangent is
    its own call's, bit for bit but for the sign of a zero. Raises
    ValueError if an m is below 1."""
    return Tangent(*_derived("field", state, build_lax(state, eps_coll), m))


def vector_field_residue(state: PhaseState, m: int, eps_coll=EPS_COLL) -> Tangent:
    """The H_m vector field, a Tangent of velocities, derived through the
    resolvent-residue calculus from the residue data (K_ii, u, v) of
    :func:`spincm.lax._residue_rates`.

    dx_i is the exact residue res_inf z^m (c_i . c*_i) = -K_ii.
    The raw residue split (u_i, v_i) of d(a_i b_i^T) leaves a free
    diagonal gauge rate per particle (only sufficient conditions fix the
    split); the rate is pinned to (res_inf z^m G)_ii = (L^m)_ii, the unique
    choice consistent with the t_2 equations of motion for the spin vectors.
    It is taken as sum_k (L^ceil(m/2))_ik (L^floor(m/2))_ki of
    :func:`spincm.lax._powers`. dp is delegated to the gradient kernel on
    the same Lax assembly, the only derivation of the momentum flow;
    keeping it there preserves the cross-check value of the two routes.
    The kernels' data and the powers come from the memo of the assembly
    (:mod:`spincm.lax`), which a frozen point keeps, shared across m with
    :func:`vector_field_gradient` and :mod:`spincm.kp`. Raises
    DimensionMismatch for a stack of points.
    """
    m = _positive_integer(m, "m")
    lax = build_lax(state, eps_coll)
    Kd, u, v = _derived("rates", state, lax, m)
    # the free diagonal gauge rate of the split, (L^m)_ii
    if m == 1:
        mu = lax.L.diagonal()[:, None]
    else:
        P = _powers(lax, (m + 1) // 2)
        mu = (P[-1] * P[m // 2 - 1].T).sum(axis=1)[:, None]
    pdot = _derived("field", state, lax, m)[1]
    return Tangent(dx=-Kd, dp=pdot, da=u - mu * state.a, db=v + mu * state.b)


def _at_time(exc, t, m, row):
    """CollidingPoles ``exc`` of stack row ``row`` at flow time t of its
    t_m flow, named in the message as IntegrationFailed names its own."""
    return CollidingPoles(f"pole collision in the t_{m} flow: {exc} at t = {_format_time(t)}",
                          time=t, row=row)


def _format_time(t):
    """Flow time t for a message: its real part alone when t is real."""
    t = complex(t)
    return repr(t.real) if t.imag == 0 else str(t)


def _record(row, m, times, Y, n, N, eps_coll):
    """The Trajectory of stack row ``row`` from its packed samples Y (k, dim)
    at the k flow times, with H_1..H_5 and the drift of all samples from
    stacked passes; or the error of the earliest sample that ends the row:
    CollidingPoles if it has two poles within eps_coll, IntegrationFailed
    if it is not finite, each with its flow time."""
    Y = _freeze(Y)
    times = np.asarray(times, dtype=complex)
    finite = np.isfinite(Y).all(axis=1)
    k_bad = len(Y) if finite.all() else int(np.argmin(finite))
    try:
        H = _chunked(lambda st: hamiltonians(st, eps_coll), Y[:k_bad], n, N, (5,))
    except CollidingPoles as exc:
        return _at_time(exc, complex(times[exc.row]), m, row)
    if k_bad < len(Y):
        t = complex(times[k_bad])
        return IntegrationFailed(
            f"the t_{m} flow left the finite numbers at t = {_format_time(t)}", time=t, row=row)
    drift = np.max(np.abs(PhaseState(*_unpack(Y, n, N)).constraint_values() - 1.0), axis=-1)
    return Trajectory(times, *_unpack(Y, n, N), drift=drift, hamiltonians=H, m=int(m))


def integrate(state: PhaseState, spec: FlowSpec, eps_coll=EPS_COLL) -> Trajectory:
    """Integrate the t_m flow from 0 to spec.t_final: the one-row case of
    :func:`integrate_stack`, raising the error that ends the row."""
    return _trajectories(integrate_stack([(state, spec)], eps_coll))[0]


def _tangent(state, m, u, eps_coll, out):
    """Write u F_m of ``state``, a stack of B phase points, packed, into
    the stage slot ``out`` (B, dim): one vector_field_gradient, whose
    fields view one packed block (lax._vector_field), times u."""
    f = vector_field_gradient(state, m, eps_coll)
    # F * u, not u * F: numpy's complex product does not commute bit for bit
    np.multiply(f.dx.base, u, out=out)


def _per_row(vals, column=True):
    """vals[0] when every active row shares it, which keeps numpy on its
    scalar paths; else one value per row, as a (B, 1) column or, with
    column=False, a (B,) array. Columns are complex: numpy casts a real
    factor of a complex product to complex anyway, and casting per call
    costs more than the product."""
    if len(set(vals)) == 1:
        return vals[0]
    return np.array(vals, dtype=complex)[:, None] if column else np.array(vals)


def integrate_stack(rows, eps_coll=EPS_COLL) -> list:
    """Integrate B flows as one ragged stack; one entry per row, its
    Trajectory or the SpinCMError that ended it.

    ``rows`` is a list of (start, FlowSpec) pairs. A start is a PhaseState,
    or the int index of an earlier row of the stack: a chained row, which
    starts from that row's last sample. It joins the block when that row
    finishes, at once if that row takes no step, and ends with that row's
    error, time and row included, if that row fails. The states share
    (n, N), else DimensionMismatch; a chained row that names no earlier row
    raises ValueError. Each row keeps its own m, t_final (real, complex or
    0), dt and record_every. Its segment is parameterized by arc length
    s in [0, |t_final|] with dy/ds = u F_m(y), u = t_final/|t_final|,
    on a grid of ceil(|t_final|/dt) steps of equal length h; the row
    records its sample at every record_every-th grid point j h u and at the
    last one.

    DOP853 (:mod:`spincm.dop853`, its tableau and continuous extension)
    steps each row by its own step dh, from a first step h, and accepts it
    when Hairer's err5/err3 estimate, scaled entrywise by
    dop853.ATOL + dop853.RTOL max(|y|, |y_new|), is below 1. The next step
    is dh clip(0.9 err^(-1/8), 0.2, 10), with no growth right after a
    rejection, and 0.2 dh after a step that is not finite. Only the segment
    end clips a step, so the last sample, which a chained row starts from,
    is a step's endpoint; each recorded grid point inside a step is read
    from the continuous extension. So record_every only thins the samples:
    the steps, and every sample they share, do not depend on it. Every row
    is bit-identical to integrating it alone, and a chained row to
    integrating its parent's last state alone.

    The rows step as one block, which changes only between steps: the
    rows that end at a step leave it after that step, and the rows chained
    to them join it for the next. A block step costs 12 right-hand-side
    calls, the 11 stages of the pair and F(y_new), the next step's first
    stage; 15 where a row records a grid point inside it, for the 3 stages
    of the extension; 11 where every row rejects it; F(y) is evaluated
    again when rows join.
    Each right-hand-side call is one vector_field_gradient of the block,
    with each stage input written in place into one (B, dim) buffer whose
    PhaseState views are built once per block composition.

    Every row has the budget MAX_STEPS, read at the call. A row that would
    record more than MAX_STEPS samples ends with StepLimitExceeded before
    any step, and so does a row that takes MAX_STEPS steps, accepted or
    rejected, unfinished. A row whose rejected step leaves it a step below
    10 ulp of its segment ends with IntegrationFailed. The collision floor
    eps_coll is checked at every right-hand-side call, inside the Lax
    assembly, and at every recorded sample. A pole separation at or below
    it ends only its own row, with CollidingPoles carrying the flow time,
    the row index in ``row`` and the row's m in the message. A row that
    collides at a stage of a step sits out the rest of that step: its input
    to that stage and to every later one is its own y, whose right-hand side
    did not collide, and the stage is evaluated again; no sample of that
    step is recorded for it. A row that collides at its start leaves the
    block at once, and F(y) is evaluated again for the rest. A step that is
    not finite is rejected, and numpy's warnings on the way are not raised;
    a sample that is not finite ends its row with IntegrationFailed. A
    finished row is recorded at once, so an error at one of its samples
    ends it too. The constraint is monitored, never re-projected.
    """
    if not rows:
        return []
    starts, specs = zip(*rows)
    parent = [st if isinstance(st, (int, np.integer)) else None for st in starts]
    if any(p is not None and not 0 <= p < r for r, p in enumerate(parent)):
        raise ValueError("a chained row must name an earlier row")
    states = [st for st, p in zip(starts, parent) if p is None]
    n, N = states[0].n_particles, states[0].spin_dim
    if any((st.n_particles, st.spin_dim) != (n, N) for st in states):
        raise DimensionMismatch("the states of a stack must share (n_particles, spin_dim)")
    B = len(rows)
    ms = [sp.m for sp in specs]
    out = [None] * B
    steps, hs, us = [0] * B, [0.0] * B, [1.0] * B
    for r, sp in enumerate(specs):
        tfin = complex(sp.t_final)
        if tfin == 0:
            continue
        S = abs(tfin)
        # true exactly when ceil(ceil(S/dt) / record_every) + 1 samples
        # exceed the budget; also for S/dt = inf
        if S / sp.dt > (MAX_STEPS - 1) * sp.record_every:
            out[r] = StepLimitExceeded(
                f"the t_{sp.m} flow's grid of {S / sp.dt:.6g} steps, recorded every "
                f"{sp.record_every}, gives more than {MAX_STEPS} samples")
            continue
        steps[r] = max(1, math.ceil(S / sp.dt))
        hs[r], us[r] = S / steps[r], tfin / S
    # per stack row: position s, proposed step h, next record index j and
    # its grid point P (inf at the segment end), last try rejected, steps
    # left and segment length span; a block step reads them at its rows a.
    # j holds Python ints, as a grid may have more than 2^63 steps
    s, h = np.zeros(B), np.array(hs)
    j = [min(sp.record_every, k) for sp, k in zip(specs, steps)]
    P = np.array([jr * hr if jr < k else np.inf for jr, hr, k in zip(j, hs, steps)])
    rej, left = np.zeros(B, dtype=bool), np.full(B, MAX_STEPS)
    span = np.array(steps, dtype=float) * h
    times = [[0.0] for _ in range(B)]
    samples = [[_pack(st)] if p is None else [] for st, p in zip(starts, parent)]
    kids = {}
    for r, p in enumerate(parent):
        if p is not None:
            kids.setdefault(p, []).append(r)
    from .dop853 import A, ATOL, BE, C, RTOL, _dense  # loaded at the first flow

    def start(rs):
        """The rows of ``rs`` that take steps; every other one ends at
        once, and the rows chained to it start in its place."""
        return [c for r in rs for c in ([r] if out[r] is None and steps[r] else follow(r))]

    def follow(r, exc=None):
        """start() of the rows chained to row r, which has ended: with exc
        if given; else, unless an error ended it, its samples are recorded
        (_record), which may end it with the error of a sample. Each chained
        row takes r's error, or else starts from r's last sample."""
        out[r] = exc or out[r] or _record(r, ms[r], times[r], samples[r], n, N, eps_coll)
        for c in kids.get(r, ()):
            if isinstance(out[r], SpinCMError):
                out[c] = out[r]
            else:
                samples[c].append(samples[r][-1])
        return start(kids.get(r, ()))

    def stage(k):
        """K[:, k] = u F_m of stage k's input for the block, k >= 1, written
        in place into z. A row whose input has two poles within eps_coll
        ends with CollidingPoles at the stage's flow time and sits out the
        rest of its step: its input is from then on its own y, whose F did
        not collide, and the stage is evaluated again."""
        if k == 12:
            np.copyto(z, y_new)
        else:  # z = y + dh (a_row K), in place
            np.matmul(A[k, :k], K[:, :k], out=z)
            np.multiply(dhc, z, out=z)
            np.add(y, z, out=z)
        if gone:
            z[gone] = y[gone]
        while len(gone) < len(act):
            try:
                return _tangent(at_z, m, u, eps_coll, K[:, k])
            except CollidingPoles as exc:
                i, r = exc.row, act[exc.row]
                ends[r] = _at_time(exc, (s[r] + C[k] * dh[i]) * us[r], ms[r], r)
                gone.append(i)
                z[i] = y[i]

    dim = 2 * n * (N + 1)
    act, y, K, ends = [], np.empty((0, dim), dtype=complex), None, {}
    new = start([r for r, p in enumerate(parent) if p is None])
    # a stage past the finite numbers warns; the step's finiteness test reports it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            # the one place where the block changes: the rows of ends leave,
            # and the rows chained to them join it with the rows of new
            new += [c for r, exc in ends.items() for c in follow(r, exc)]
            kept = [i for i, r in enumerate(act) if r not in ends]
            act = [act[i] for i in kept] + new
            if not act:
                break
            a = np.array(act)
            y = np.concatenate([y[kept], [samples[r][0] for r in new]]) if new else y[kept]
            K = None if new or K is None else K[kept]
            m = _per_row([ms[r] for r in act], column=False)
            u = _per_row([us[r] for r in act])
            z = np.empty_like(y)
            at_y, at_z = (PhaseState(*_unpack(w, n, N)) for w in (y, z))
            ends, new = {}, []
            if K is None:  # F(y) afresh: at the start, and when rows join
                K = np.empty((len(act), len(C), dim), dtype=complex)
                try:
                    _tangent(at_y, m, u, eps_coll, K[:, 0])
                except CollidingPoles as exc:  # a row at its start leaves at once
                    r = act[exc.row]
                    ends[r], K = _at_time(exc, s[r] * us[r], ms[r], r), None
                    continue
            while not ends:  # the block steps until a row ends
                sa, ha, spa = s[a], h[a], span[a]
                hit = ha >= spa - sa
                dh = np.where(hit, spa - sa, ha)
                dhc = dh.astype(complex)[:, None]  # complex: no cast per stage
                gone = []
                for k in range(1, 12):
                    stage(k)
                be = BE @ K[:, :12]
                y_new = y + dhc * be[:, 0]
                scale = ATOL + RTOL * np.maximum(np.abs(y), np.abs(y_new))
                e5 = np.add.reduce(np.abs(be[:, 1] / scale) ** 2, axis=1)
                e3 = np.add.reduce(np.abs(be[:, 2] / scale) ** 2, axis=1)
                den = e5 + 0.01 * e3
                err = np.where(den == 0, 0.0, dh * e5 / np.sqrt(den * dim))
                finite = np.isfinite(err) & np.isfinite(y_new).all(axis=1)
                ok = finite & (err < 1)
                ok[gone] = False
                factor = np.where(finite, np.minimum(np.maximum(0.9 * err ** -0.125, 0.2), 10.0), 0.2)
                h[a] = dh * np.where(ok & rej[a], np.minimum(factor, 1.0), factor)
                rej[a] = ~ok
                s_new = np.where(hit, spa, sa + dh)
                inside = ok & (P[a] <= s_new)
                left[a] -= 1
                # F(y_new), and the extension where a row records a grid point inside
                for k in range(12, 16 if inside.any() else 13) if ok.any() else ():
                    stage(k)
                ok[gone] = inside[gone] = False
                # the recorded grid points inside accepted steps, from the extension
                q, rec, theta, pos = np.flatnonzero(inside), [], [], []
                for p, i in enumerate(q):
                    r = act[i]
                    jr, k0 = j[r], len(theta)
                    while jr < steps[r] and jr * hs[r] <= s_new[i]:
                        times[r].append(jr * hs[r] * us[r])
                        theta.append((jr * hs[r] - sa[i]) / dh[i])
                        pos.append(p)
                        jr = min(jr + specs[r].record_every, steps[r])
                    j[r], P[r] = jr, jr * hs[r] if jr < steps[r] else np.inf
                    rec.append((r, k0, len(theta)))
                if rec:
                    Y = _dense(y[q], K[q], dhc[q], pos, np.array(theta)[:, None])
                    for r, k0, k1 in rec:
                        samples[r].extend(Y[k0:k1])
                np.copyto(y, y_new, where=ok[:, None])
                np.copyto(K[:, 0], K[:, 12], where=ok[:, None])
                s[a] = np.where(ok, s_new, sa)
                if ok.all() and not hit.any() and left[a].all():
                    continue  # no row ends here
                for i in np.flatnonzero(ok & hit):  # the last sample, the step's end
                    r = act[i]
                    times[r].append(steps[r] * hs[r] * us[r])
                    samples[r].append(y_new[i].copy())
                    ends[r] = None
                for i in np.flatnonzero(~ok & (h[a] < 10 * np.spacing(spa))):
                    r = act[i]
                    t = s[r] * us[r]
                    ends.setdefault(r, IntegrationFailed(
                        f"the t_{ms[r]} flow needs a step below {h[r]:.3g} "
                        f"at t = {_format_time(t)}"
                        + ("" if finite[i] else ", where its trial step is not finite"),
                        time=t, row=r))
                for i in np.flatnonzero(left[a] == 0):
                    r = act[i]
                    t = s[r] * us[r]
                    ends.setdefault(r, StepLimitExceeded(
                        f"the t_{ms[r]} flow took its {MAX_STEPS} steps by t = {_format_time(t)}",
                        time=t, row=r))
    return out


def _first_error(results):
    """The error of the :func:`integrate_stack` results that ended its row
    first: the earliest flow time, the lowest row on a tie. An error raised
    before any step (StepLimitExceeded) counts as time 0. None if every row
    finished."""
    errors = [res for res in results if isinstance(res, SpinCMError)]
    return min(errors, key=lambda exc: abs(getattr(exc, "time", None) or 0), default=None)


def _trajectories(results):
    """The Trajectories of :func:`integrate_stack` results, if every row
    finished; else raise the first error."""
    exc = _first_error(results)
    if exc is not None:
        raise exc
    return results


def _lax_pair(state, m, eps_coll=EPS_COLL):
    """(dL, [M_m, L]) of a phase point or a stack: the two sides of the t_m
    Lax equation, dL along the H_m field (:func:`spincm.lax._lax_derivative`)
    and M_m = -m (L^{m-1}) o inv from :func:`spincm.lax._powers`, formed
    here alone; M_1 = 0, as I o inv = 0."""
    lax = build_lax(state, eps_coll)
    dL = _lax_derivative(lax, state.a, state.b, *_derived("field", state, lax, m))
    M = -m * (_powers(lax, m - 1)[-1] if m > 1 else np.eye(lax.L.shape[-1])) * lax.inv
    return dL, M @ lax.L - lax.L @ M


def check_lax(trajectory: Trajectory, eps_coll=EPS_COLL) -> np.ndarray:
    """max |dL/dt - [M_m, L]| (:func:`_lax_pair`) at each sample of a t_m
    trajectory, at any spacing: dL/dt is exact, so it reads only the drift
    off the constraint surface, where the Lax equation holds."""
    dL, ML = _lax_pair(trajectory.state(slice(None)), trajectory.m, eps_coll)  # every sample
    return np.max(np.abs(dL - ML), axis=(-2, -1))


def _pole_pairing(x, ref):
    """Indices j (k, n) pairing each row of poles ref (k, n) to that row of
    x, ref[r, j[r, i]] to x[r, i], closest remaining pair first; unlike a
    sort on (Re x, Im x), it never splits poles that share a real part."""
    cost = np.abs(np.asarray(x)[:, :, None] - np.asarray(ref)[:, None, :])
    k, n = cost.shape[:2]
    rows, j = np.arange(k), np.empty((k, n), dtype=int)
    for _ in range(n):
        i, ji = np.divmod(cost.reshape(k, -1).argmin(axis=1), n)
        j[rows, i] = ji
        cost[rows, i, :] = np.inf
        cost[rows, :, ji] = np.inf
    return j


def _leg_spec(m, s) -> FlowSpec:
    """Spec of the leg t_m by s: a one-step grid, so it records only its
    endpoint. A zero span takes no step; its dt only has to be valid."""
    return FlowSpec(m=m, t_final=s, dt=abs(s) or 1.0)


def _commutativity_rows(state, m1, m2, s1, s2, first=0):
    """The four legs of :func:`commutativity_check` as rows of one
    stack in which they take the indices first..first + 3, each recording
    only its endpoint (:func:`_leg_spec`): t_{m1} by s1 and t_{m2} by s2
    from ``state``, then each second leg chained to its first leg."""
    return [(state, _leg_spec(m1, s1)), (state, _leg_spec(m2, s2)),
            (first, _leg_spec(m2, s2)), (first + 1, _leg_spec(m1, s1))]


def _commutativity_gap(legs) -> float:
    """The gap of :func:`commutativity_check` from ``legs``, the
    integrate_stack results of its four rows (:func:`_commutativity_rows`):
    the first error of the first legs, else of the second legs, is raised.
    Its gauge-invariant observables at the endpoints of the second legs
    are the poles, ba's paired to ab's (:func:`_pole_pairing`), H_1..H_5 as
    recorded there and tr R^k = tr (a^T b)^k for k <= min(n, N): R = b a^T
    has rank <= N, so by Newton's identities its higher traces follow."""
    _trajectories(legs[:2])
    ab, ba = _trajectories(legs[2:])

    def invariants(tr):
        S = tr.a[-1].T @ tr.b[-1]
        trR = [np.trace(np.linalg.matrix_power(S, k)) for k in range(1, min(tr.a.shape[1:]) + 1)]
        return np.concatenate([tr.hamiltonians[-1], trR])

    paired = ba.x[-1][_pole_pairing(ab.x[-1:], ba.x[-1:])[0]]
    return max(_scaled_error(ab.x[-1], paired), _scaled_error(invariants(ab), invariants(ba)))


def commutativity_check(state, m1, m2, s1, s2, eps_coll=EPS_COLL) -> float:
    """Scaled distance (:func:`_scaled_error`) of gauge-invariant
    observables (:func:`_commutativity_gap`) between flowing (t_{m1} by s1,
    then t_{m2} by s2) and the reverse order, which is the reference. The
    four legs run as one stack, each second leg chained to its first
    (:func:`_commutativity_rows`); a leg that fails raises the first error
    of the first legs, else of the second legs."""
    if m1 == m2:
        raise ValueError("m1 and m2 must differ")
    rows = _commutativity_rows(state, m1, m2, s1, s2)
    return _commutativity_gap(integrate_stack(rows, eps_coll))
