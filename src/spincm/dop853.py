"""The DOP853 stepper of :func:`spincm.flows.integrate_stack`, loaded at
the first DOP853 flow.

DOP853 is the embedded Runge-Kutta pair of Dormand and Prince: 12 stages,
order 8, with the error estimates of orders 5 and 3 (Hairer, Norsett and
Wanner, Solving ODEs I, II.4-II.5). Its step follows the error estimate at
the pinned tolerances RTOL and ATOL, which are not settings.
"""

from __future__ import annotations

import importlib.util
import os

import numpy as np

from . import flows
from .errors import CollidingPoles, IntegrationFailed, StepLimitExceeded
from .lax import _unpack
from .phase import PhaseState

#: a step is accepted when its error estimate, scaled entrywise by
#: ATOL + RTOL max(|y|, |y_new|), is below 1
RTOL, ATOL = 1e-12, 1e-14


def _tableau():
    """(A, B, C, E3, E5) of the 12-stage DOP853 pair, from the installed
    scipy's ``integrate/_ivp/dop853_coefficients.py``. The file is loaded
    on its own: importing it as a scipy module first imports all of
    scipy.integrate, about 0.6 s."""
    root = os.path.dirname(importlib.util.find_spec("scipy").origin)
    spec = importlib.util.spec_from_file_location(
        "spincm._dop853_coefficients",
        os.path.join(root, "integrate", "_ivp", "dop853_coefficients.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    s = mod.N_STAGES
    # E3 and E5 carry a 13th weight, on F(y_new), which is 0. Complex, so
    # that no product with the complex stages casts them per call
    return (mod.A[:s, :s].astype(complex), mod.B.astype(complex), mod.C[:s],
            mod.E3[:s].astype(complex), mod.E5[:s].astype(complex))


A, B, C, E3, E5 = _tableau()


def dop853(ms, steps, hs, us, every, budget, parent, times, samples, out, n, N, eps_coll):
    """Error-controlled DOP853 of the rows with steps to take, as one block
    whose rows join and leave as rows start and end; the arguments are
    those of flows._rk4, budget[r] bounds the steps, accepted or rejected,
    of row r, and parent[r] is the earlier row that row r continues, or
    None.

    Each row keeps its own step length dh, accepts or rejects each step on
    its own and is clipped to its next recorded grid point j hs[r], where
    it records its sample. A step evaluates the 12 stages at once for the
    block; its first stage is F at the step's start, the F(y_new) of the
    row's last accepted step, so a step costs 12 right-hand-side calls. The
    error is Hairer's err5/err3 estimate over the row, scaled by ATOL +
    RTOL max(|y|, |y_new|); a step is accepted when it is below 1. The next
    step is dh clip(0.9 err^(-1/8), 0.2, 10), with no growth right after a
    rejection, and a row's first step is its record spacing. A rejected row
    keeps y while the others advance; a step that is not finite is rejected
    by the factor 0.2. A row ends, with its flow time, with IntegrationFailed
    when a rejection leaves it a step below 10 ulp of its segment length, or
    StepLimitExceeded when it has taken its budget of steps unfinished.
    When a row ends, each row chained to it starts from its last sample
    and joins the block at the next step, or ends with its error. y and the
    stage input z are written in place, z by each stage and y by each
    accepted step.
    """
    kids = {}
    for r, p in enumerate(parent):
        if p is not None:
            kids.setdefault(p, []).append(r)
    first = np.array([min(e, k) for e, k in zip(every, steps)])  # the first record index
    hg = np.array(hs)
    # block arrays per row: state y, stages K, position s, proposed step h,
    # next record index j, last try rejected, steps left, grid step hg,
    # segment length span; per step, record point P, hit, step dh and its
    # complex column dhc
    init = {"s": np.zeros(len(ms)), "h": hg * first, "j": first,
            "rej": np.zeros(len(ms), dtype=bool), "left": np.array(budget), "hg": hg,
            "span": np.array(steps) * hg}
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
        if new:  # only between steps: the stages start afresh
            for key, val in init.items():
                v[key] = np.concatenate([v[key], val[new]])
            v["y"] = np.concatenate([v["y"], [samples[r][0] for r in new]])
            v["K"] = np.empty((len(act), len(B), dim), dtype=complex)
        m = flows._per_row([ms[r] for r in act], column=False)
        u = flows._per_row([us[r] for r in act])
        z = np.empty_like(v["y"])
        at_y, at_z = (PhaseState(*_unpack(w, n, N)) for w in (v["y"], z))

    def start(rows):
        """The rows of ``rows`` that take steps; every other one ends at
        once, and the rows chained to it start in its place."""
        return [c for r in rows for c in ([r] if out[r] is None and steps[r] else follow(r))]

    def follow(r):
        """start() of the rows chained to row r, which has ended: each
        takes r's error, or else starts from r's last sample."""
        for c in kids.get(r, ()):
            if out[r] is not None:
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

    keep([], start([r for r, p in enumerate(parent) if p is None]))
    a_rows = [A[stage, :stage] for stage in range(len(B))]  # each stage's row of A
    while act:
        v["P"] = v["j"] * v["hg"]
        gap = v["P"] - v["s"]
        v["hit"] = v["h"] >= gap
        v["dh"] = np.where(v["hit"], gap, v["h"])
        v["dhc"] = v["dh"].astype(complex)[:, None]  # complex: no cast per stage
        for stage, a_row in enumerate(a_rows):
            while act:
                if stage:  # z = y + dh (a_row K), in place
                    np.matmul(a_row, v["K"][:, :stage], out=z)
                    np.multiply(v["dhc"], z, out=z)
                    np.add(v["y"], z, out=z)
                try:
                    flows._tangent(at_z if stage else at_y, m, u, eps_coll, v["K"][:, stage])
                    break
                except CollidingPoles as exc:
                    i, r = exc.row, act[exc.row]
                    t = (v["s"][i] + C[stage] * v["dh"][i]) * us[r]
                    drop({i: flows._at_time(exc, t, ms[r], r)})
        if not act:
            return
        y, K, dh, hit, P = v["y"], v["K"], v["dh"], v["hit"], v["P"]
        y_new = y + v["dhc"] * (B @ K)
        scale = ATOL + RTOL * np.maximum(np.abs(y), np.abs(y_new))
        e5 = np.add.reduce(np.abs((E5 @ K) / scale) ** 2, axis=1)
        e3 = np.add.reduce(np.abs((E3 @ K) / scale) ** 2, axis=1)
        den = e5 + 0.01 * e3
        err = np.where(den == 0, 0.0, dh * e5 / np.sqrt(den * dim))
        finite = np.isfinite(err) & np.isfinite(y_new).all(axis=1)
        ok = finite & (err < 1)
        factor = np.where(finite, np.minimum(np.maximum(0.9 * err ** -0.125, 0.2), 10.0), 0.2)
        v["h"] = dh * np.where(ok & v["rej"], np.minimum(factor, 1.0), factor)
        np.copyto(y, y_new, where=ok[:, None])
        v["s"] = np.where(ok, np.where(hit, P, v["s"] + dh), v["s"])
        v["rej"] = ~ok
        v["left"] -= 1
        if ok.all() and not hit.any() and v["left"].all():
            continue
        ends = {}
        for i in np.flatnonzero(~ok & (v["h"] < 10 * np.spacing(v["span"]))):
            r = act[i]
            t = v["s"][i] * us[r]
            ends[i] = IntegrationFailed(
                f"the t_{ms[r]} flow needs a step below {v['h'][i]:.3g} "
                f"at t = {flows._format_time(t)}"
                + ("" if finite[i] else ", where its trial step is not finite"), time=t, row=r)
        for i in np.flatnonzero(ok & hit):
            r, j = act[i], int(v["j"][i])
            times[r].append(j * hs[r] * us[r])
            samples[r].append(y[i].copy())
            if j == steps[r]:
                ends[i] = None
            v["j"][i] = min(j + every[r], steps[r])
        for i in np.flatnonzero(v["left"] == 0):
            r = act[i]
            t = v["s"][i] * us[r]
            ends.setdefault(i, StepLimitExceeded(
                f"the t_{ms[r]} flow took its {budget[r]} steps by t = {flows._format_time(t)}",
                time=t, row=r))
        if ends:
            drop(ends)
