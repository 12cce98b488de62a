"""Pole dynamics of rational matrix-KP solutions.

Builds the Baker-Akhiezer pair of a random phase point, checks the stripped
t_2 linear problem along the H_2 vector field of the poles, and evaluates the
residue identity tying d/dt_m of the first moment w^(1) to res_inf z^m psi psi+
-- the bridge between the pole dynamics and the many-body system.
"""

import numpy as np

from spincm import (
    dlog_tau_dx,
    first_order_pole_cancellation,
    linear_problem_residual,
    psi_pair,
    random_state,
    residue_identity_residual,
    tau,
    w1,
)

state = random_state(n_particles=3, spin_dim=2, seed=33)
z = 1.7 + 0.9j
pts = np.array([2.5 + 1.0j, -3.0 + 0.7j, 0.4 - 2.2j])

print("=== Baker-Akhiezer pair at z =", z, "===")
psi, psid = psi_pair(state, None, z, x=4.0 + 1.0j)
print("psi_tilde(x=4+1i) =")
print(np.round(psi, 6))
print("psi_dagger_tilde(x=4+1i) =")
print(np.round(psid, 6))
print()

print("=== stripped-gauge t_2 linear problem (exact d/dt_2 along the H_2 flow) ===")
print(f"residual = {linear_problem_residual(state, z, pts):.3e}")
print()

print("=== residue identity res_inf z^m psi psi+ = -d_tm w^(1) ===")
for m in (1, 2, 3):
    print(f"m = {m}: entrywise residual = {residue_identity_residual(state, m, pts):.3e}, "
          f"first-order-pole trace = {first_order_pole_cancellation(state, m):.3e}")
print()

print("=== tau-function: roots at the poles, log-derivative ===")
for xi in state.x:
    print(f"|tau(x_i)| at pole {xi:.3f}: {abs(tau(state, complex(xi))):.3e}")
x0 = 5.0 + 0.5j
dlog, trace = dlog_tau_dx(state, x0), np.trace(-w1(state, x0))
print("d/dx log tau at x =", x0, "->", dlog)
print("trace of -w^(1) at the same point ->", trace)
print(f"they agree on the constraint surface b_i^T a_i = 1: |difference| = {abs(dlog - trace):.3e}")
