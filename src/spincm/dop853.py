"""The stepper of :func:`spincm.flows.integrate_stack`, loaded at the first
flow.

DOP853 is the embedded Runge-Kutta pair of Dormand and Prince: 12 stages,
order 8, with the error estimates of orders 5 and 3, and a continuous
extension of order 7 from F(y_new) and 3 more stages (Hairer, Norsett and
Wanner, Solving ODEs I, II.4-II.6). Its step follows the error estimate at
the pinned tolerances RTOL and ATOL, which are not settings, and the
recorded grid points inside a step are read from the extension.
"""

from __future__ import annotations

import importlib.util
import os

import numpy as np

from . import flows
from .errors import CollidingPoles, IntegrationFailed, SpinCMError, StepLimitExceeded
from .lax import _unpack
from .phase import PhaseState

#: a step is accepted when its error estimate, scaled entrywise by
#: ATOL + RTOL max(|y|, |y_new|), is below 1
RTOL, ATOL = 1e-12, 1e-14


def _tableau():
    """(A, C, BE, G) of DOP853, from the installed scipy's
    ``integrate/_ivp/dop853_coefficients.py``. A and C cover the 16 stages
    of the extension: stage 12 is F(y_new), and stages 13-15 are the
    extension's own. The rows of BE, B, E5 and E3, weigh the 12 stages of
    the pair for y_new - y and the two error estimates, per unit step. G
    weighs the 16 stages for the 7 coefficients of the interpolant, per
    unit step: those of scipy's Dop853DenseOutput, y_new - y,
    h F(y) - (y_new - y), 2 (y_new - y) - h (F(y) + F(y_new)) and h D K.
    The file is loaded on its own: importing it as a scipy module first
    imports all of scipy.integrate, about 0.6 s."""
    root = os.path.dirname(importlib.util.find_spec("scipy").origin)
    spec = importlib.util.spec_from_file_location(
        "spincm._dop853_coefficients",
        os.path.join(root, "integrate", "_ivp", "dop853_coefficients.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    s, S = mod.N_STAGES, mod.N_STAGES_EXTENDED
    b = np.pad(mod.B, (0, S - s))
    e0, e12 = np.eye(S)[[0, s]]
    G = np.vstack([b, e0 - b, 2 * b - e0 - e12, mod.D])
    # E3 and E5 carry a 13th weight, on F(y_new), which is 0. Complex, so
    # that no product with the complex stages casts them per call
    BE = np.stack([mod.B, mod.E5[:s], mod.E3[:s]])
    return mod.A.astype(complex), mod.C, BE.astype(complex), G.astype(complex)


A, C, BE, G = _tableau()
_ODD = np.arange(len(G)) % 2 == 1


def _dense(y, K, dhc, pos, theta):
    """The continuous extension inside accepted steps, one row per sample:
    y, the 16 stages K and the complex step dhc of each step, and per
    sample the index pos of its step and its fraction theta (k, 1) of the
    step. scipy's Dop853DenseOutput evaluates its polynomial as
    theta (F_0 + (1 - theta) (F_1 + theta (F_2 + ...))); here each F_i has
    its weight, a product of theta and 1 - theta."""
    w = np.cumprod(np.where(_ODD, 1 - theta, theta), axis=1)
    return y[pos] + dhc[pos] * np.matmul(w[:, None], (G @ K)[pos])[:, 0]


def dop853(ms, steps, hs, us, every, parent, times, samples, out, n, N, eps_coll):
    """Error-controlled DOP853 of the rows with steps to take, as one block
    whose rows join and leave as rows start and end. Row r flows t_m,
    m = ms[r], along us[r] on a grid of steps[r] steps hs[r], records every
    every[r]-th grid point and the last one into times[r] and samples[r],
    and takes at most flows.MAX_STEPS steps, accepted or rejected; parent[r]
    is the row it continues, or None. out[r] receives its Trajectory, or the
    error that ended it.

    Each row keeps its own step dh, from a first step hs[r], and accepts
    it when Hairer's err5/err3 estimate, scaled by ATOL + RTOL
    max(|y|, |y_new|), is below 1. The next step is
    dh clip(0.9 err^(-1/8), 0.2, 10), with no growth right after a
    rejection, and 0.2 dh after a step that is not finite. Only the segment
    end clips a step, so the last sample is a step's end; the grid points
    inside a step are read from the extension. A block step costs 12
    right-hand-side calls, the 11 stages of the pair and F(y_new), the next
    step's first stage; 15 where a row records a grid point inside it, for
    the 3 stages of the extension; 11 where every row rejects it. F(y) is
    evaluated again when rows join. A row ends, with its flow time, with
    IntegrationFailed when a rejection leaves it a step below 10 ulp of its
    segment, or StepLimitExceeded when it has taken MAX_STEPS unfinished.
    A finished row is recorded at once, so an error at one of its samples
    ends it too. Each row chained to an ended row starts from its last
    sample at the next step, or takes its error. y and the stage input z
    are written in place.
    """
    kids = {}
    for r, p in enumerate(parent):
        if p is not None:
            kids.setdefault(p, []).append(r)
    # per row: state y, position s, proposed step h, next record index j
    # and its grid point P (inf at the segment end), last try rejected,
    # steps left and segment length span; the stages K, afresh whenever
    # rows join; and the per-step arrays of each step
    first = [min(e, k) for e, k in zip(every, steps)]
    init = {"s": np.zeros(len(ms)), "h": np.array(hs), "j": np.array(first),
            "P": np.array([j * h if j < k else np.inf for j, h, k in zip(first, hs, steps)]),
            "rej": np.zeros(len(ms), dtype=bool), "left": np.full(len(ms), flows.MAX_STEPS),
            "span": np.array(steps) * np.array(hs)}
    dim = 2 * n * (N + 1)
    v = {key: val[:0] for key, val in init.items()}
    v["y"] = np.empty((0, dim), dtype=complex)
    act, m, u, z, at_y, at_z = [], None, None, None, None, None

    def keep(idx, new=()):
        """Keep the block rows ``idx`` and append the stack rows ``new``,
        which start at their first sample; set the per-row m and direction
        u and the views of the two buffers."""
        nonlocal act, m, u, z, at_y, at_z
        act = [act[i] for i in idx] + list(new)
        for key in v:
            v[key] = v[key][idx]
        if new:  # only between steps: the stages start afresh, at F(y)
            for key in list(v):
                if key in init:
                    v[key] = np.concatenate([v[key], init[key][new]])
                elif key != "y":
                    del v[key]
            v["y"] = np.concatenate([v["y"], [samples[r][0] for r in new]])
        m = flows._per_row([ms[r] for r in act], column=False)
        u = flows._per_row([us[r] for r in act])
        z = np.empty_like(v["y"])
        at_y, at_z = (PhaseState(*_unpack(w, n, N)) for w in (v["y"], z))

    def start(rows):
        """The rows of ``rows`` that take steps; every other one ends at
        once, and the rows chained to it start in its place."""
        return [c for r in rows for c in ([r] if out[r] is None and steps[r] else follow(r))]

    def follow(r):
        """start() of the rows chained to row r, which has ended: unless an
        error ended it, its samples are recorded (flows._record), which
        may end it with the error of a sample. Each chained row takes r's
        error, or else starts from r's last sample."""
        if out[r] is None:
            out[r] = flows._record(r, ms[r], times[r], samples[r], n, N, eps_coll)
        for c in kids.get(r, ()):
            if isinstance(out[r], SpinCMError):
                out[c] = out[r]
            else:
                samples[c].append(samples[r][-1])
        return start(kids.get(r, ()))

    def drop(ends):
        """End the block rows i with an error, or with None when finished:
        ends maps i to it. The rows chained to them join the block."""
        for i, exc in ends.items():
            out[act[i]] = exc
        new = [c for i in ends for c in follow(act[i])]
        keep([i for i in range(len(act)) if i not in ends], new)

    def stage(k):
        """K[:, k] = F of stage k's input for the block. A row whose input
        has two poles within eps_coll ends with CollidingPoles at the
        stage's flow time, and the stage is evaluated again for the rows
        left."""
        while act:
            if k == 12:
                np.copyto(z, v["y_new"])
            elif k:  # z = y + dh (a_row K), in place
                np.matmul(A[k, :k], v["K"][:, :k], out=z)
                np.multiply(v["dhc"], z, out=z)
                np.add(v["y"], z, out=z)
            try:
                flows._tangent(at_z if k else at_y, m, u, eps_coll, v["K"][:, k])
                return
            except CollidingPoles as exc:
                i, r = exc.row, act[exc.row]
                t = (v["s"][i] + C[k] * v["dh"][i]) * us[r]
                drop({i: flows._at_time(exc, t, ms[r], r)})

    keep([], start([r for r, p in enumerate(parent) if p is None]))
    while act:
        gap = v["span"] - v["s"]
        v["hit"] = v["h"] >= gap
        v["dh"] = np.where(v["hit"], gap, v["h"])
        v["dhc"] = v["dh"].astype(complex)[:, None]  # complex: no cast per stage
        if "K" not in v:
            v["K"] = np.empty((len(act), len(C), dim), dtype=complex)
            stage(0)
        for k in range(1, 12):
            stage(k)
        if not act:
            return
        y, K, dh = v["y"], v["K"], v["dh"]
        be = BE @ K[:, :12]
        y_new = y + v["dhc"] * be[:, 0]
        scale = ATOL + RTOL * np.maximum(np.abs(y), np.abs(y_new))
        e5 = np.add.reduce(np.abs(be[:, 1] / scale) ** 2, axis=1)
        e3 = np.add.reduce(np.abs(be[:, 2] / scale) ** 2, axis=1)
        den = e5 + 0.01 * e3
        err = np.where(den == 0, 0.0, dh * e5 / np.sqrt(den * dim))
        finite = np.isfinite(err) & np.isfinite(y_new).all(axis=1)
        ok = finite & (err < 1)
        factor = np.where(finite, np.minimum(np.maximum(0.9 * err ** -0.125, 0.2), 10.0), 0.2)
        v["h"] = dh * np.where(ok & v["rej"], np.minimum(factor, 1.0), factor)
        v["ok"], v["rej"], v["y_new"], v["finite"] = ok, ~ok, y_new, finite
        v["s_new"] = np.where(v["hit"], v["span"], v["s"] + dh)
        v["inside"] = ok & (v["P"] <= v["s_new"])
        v["left"] -= 1
        # F(y_new), and the extension where a row records a grid point inside
        for k in range(12, 16 if v["inside"].any() else 13) if ok.any() else ():
            stage(k)
        if not act:
            return
        y, K, dh, s, s_new, hit = v["y"], v["K"], v["dh"], v["s"], v["s_new"], v["hit"]
        ok, y_new = v["ok"], v["y_new"]
        # the recorded grid points inside accepted steps, from the extension
        rows, theta, pos = [], [], []
        for p, i in enumerate(np.flatnonzero(v["inside"])):
            r, j, k0 = act[i], int(v["j"][i]), len(theta)
            while j < steps[r] and j * hs[r] <= s_new[i]:
                times[r].append(j * hs[r] * us[r])
                theta.append((j * hs[r] - s[i]) / dh[i])
                pos.append(p)
                j = min(j + every[r], steps[r])
            v["j"][i], v["P"][i] = j, j * hs[r] if j < steps[r] else np.inf
            rows.append((i, r, k0, len(theta)))
        if rows:
            q = [i for i, *_ in rows]
            Y = _dense(y[q], K[q], v["dhc"][q], pos, np.array(theta)[:, None])
            for i, r, k0, k1 in rows:
                samples[r].extend(Y[k0:k1])
        np.copyto(y, y_new, where=ok[:, None])
        np.copyto(K[:, 0], K[:, 12], where=ok[:, None])
        v["s"] = np.where(ok, s_new, s)
        if ok.all() and not hit.any() and v["left"].all():
            continue  # no row ends here
        ends = {}
        for i in np.flatnonzero(ok & hit):  # the last sample, the step's end
            r = act[i]
            times[r].append(steps[r] * hs[r] * us[r])
            samples[r].append(y_new[i].copy())
            ends[i] = None
        for i in np.flatnonzero(~ok & (v["h"] < 10 * np.spacing(v["span"]))):
            r = act[i]
            t = v["s"][i] * us[r]
            ends[i] = IntegrationFailed(
                f"the t_{ms[r]} flow needs a step below {v['h'][i]:.3g} "
                f"at t = {flows._format_time(t)}"
                + ("" if v["finite"][i] else ", where its trial step is not finite"),
                time=t, row=r)
        for i in np.flatnonzero(v["left"] == 0):
            r = act[i]
            t = v["s"][i] * us[r]
            ends.setdefault(i, StepLimitExceeded(
                f"the t_{ms[r]} flow took its {flows.MAX_STEPS} steps by t = {flows._format_time(t)}",
                time=t, row=r))
        if ends:
            drop(ends)
