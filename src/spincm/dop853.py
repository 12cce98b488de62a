"""DOP853's own math, for the stepper of
:func:`spincm.flows.integrate_stack`, which owns the stack rows and loads
this module at the first flow: the tableau and the continuous extension.
It imports no module of spincm.

DOP853 is the embedded Runge-Kutta pair of Dormand and Prince: 12 stages,
order 8, with the error estimates of orders 5 and 3, and a continuous
extension of order 7 from F(y_new) and 3 more stages (Hairer, Norsett and
Wanner, Solving ODEs I, II.4-II.6). Its step follows the error estimate at
the pinned tolerances RTOL and ATOL, which are not settings.
"""

from __future__ import annotations

import importlib.util
import os

import numpy as np

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
