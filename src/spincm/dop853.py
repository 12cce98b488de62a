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


def dop853(y0, ms, steps, hs, us, every, budget, times, samples, out, n, N, eps_coll):
    """Error-controlled DOP853 of the rows with steps to take, as one block
    that shrinks as rows end; the arguments are those of flows._rk4, and
    budget[r] bounds the steps, accepted or rejected, of row r.

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
    """
    act = [r for r, k in enumerate(steps) if k]
    # block rows: state y, stages K, position s, proposed step h, next
    # record index j, last try rejected, steps left; per-row grid step hg,
    # segment length span; per step, record point P, hit, step dh, column dhc
    v = {
        "y": y0[act],
        "K": np.empty((len(act), len(B), y0.shape[1]), dtype=complex),
        "s": np.zeros(len(act)),
        "h": np.array([hs[r] * min(every[r], steps[r]) for r in act]),
        "j": np.array([min(every[r], steps[r]) for r in act]),
        "rej": np.zeros(len(act), dtype=bool),
        "left": np.array([budget[r] for r in act]),
        "hg": np.array([hs[r] for r in act]),
        "span": np.array([steps[r] * hs[r] for r in act]),
    }
    m = u = None

    def keep(idx):
        """Keep the block rows ``idx``, with their m and direction u."""
        nonlocal act, m, u
        act = [act[i] for i in idx]
        for key in v:
            v[key] = v[key][idx]
        m = flows._per_row([ms[r] for r in act], column=False)
        u = flows._per_row([us[r] for r in act])

    def drop(ends):
        """End the block rows i with an error: ends maps i to it."""
        for i, exc in ends.items():
            out[act[i]] = exc
        keep([i for i in range(len(act)) if i not in ends])

    keep(list(range(len(act))))
    dim = y0.shape[1]
    a_rows = [A[stage, :stage] for stage in range(len(B))]  # each stage's row of A
    while act:
        v["P"] = v["j"] * v["hg"]
        gap = v["P"] - v["s"]
        v["hit"] = v["h"] >= gap
        v["dh"] = np.where(v["hit"], gap, v["h"])
        v["dhc"] = v["dh"][:, None]
        for stage, a_row in enumerate(a_rows):
            while act:
                y, K = v["y"], v["K"]
                z = y + v["dhc"] * (a_row @ K[:, :stage]) if stage else y
                try:
                    flows._tangent(z, m, u, n, N, eps_coll, K[:, stage])
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
        v["y"] = np.where(ok[:, None], y_new, y)
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
            samples[r].append(v["y"][i])
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
