"""Hierarchy flows: integration, conservation, and commutativity.

Integrates the second and third flows of the hierarchy from the same random
initial point, tracking the conserved Hamiltonians and the normalization
constraint b_i^T a_i = 1 along the way, then demonstrates that the two
flows commute on gauge-invariant observables.
"""

import numpy as np

from spincm import FlowSpec, commutativity_check, integrate, random_state
from spincm.flows import check_lax

state = random_state(n_particles=3, spin_dim=2, seed=21)

for m in (2, 3):
    traj = integrate(state, FlowSpec(m=m, t_final=1.0, dt=1e-3, record_every=200))
    H = traj.hamiltonians
    devs = np.max(np.abs(H - H[0]) / (1 + np.abs(H[0])), axis=1)
    print(f"=== flow t_{m}, T = 1.0, dt = 1e-3 ===")
    print(f"{'t':>6}  {'max |H(t)-H(0)| scaled':>24}  {'constraint drift':>18}")
    for t, dev, drift in zip(traj.t, devs, traj.drift):
        print(f"{t.real:6.2f}  {dev:24.3e}  {drift:18.3e}")
    print()

print("=== Lax equation dL/dt_2 = [M, L] along the flow ===")
traj = integrate(state, FlowSpec(m=2, t_final=0.1, dt=1e-3, record_every=1))
print("max stencil residual:", np.max(check_lax(traj)))
print()

print("=== commutativity of the t_2 and t_3 flows ===")
res = commutativity_check(state, 2, 3, 0.1, 0.1, 1e-3)
print("max observable mismatch after swapping flow order:", res)

print()
print("=== t_1 is a rigid shift of the poles ===")
final = integrate(state, FlowSpec(m=1, t_final=0.5, dt=1e-2)).state(-1)
print("max |x(T) - (x(0) - T)| =", np.max(np.abs(final.x - (state.x - 0.5))))
print("max |p(T) - p(0)|       =", np.max(np.abs(final.p - state.p)))
