"""Lax pair, conserved Hamiltonians, and the rank structure of R.

Walks through the algebraic backbone: build the Lax matrix of a random
phase-space point, confirm the identity R = I + [L, X] at machine precision,
list the tower of Hamiltonians H_m = tr L^m, and show that the canonical
brackets put them in involution.
"""

import numpy as np

from spincm import (
    build_lax,
    grad_hamiltonian,
    hamiltonian,
    hamiltonians,
    poisson_bracket,
    random_state,
)

state = random_state(n_particles=4, spin_dim=2, seed=12)
lax = build_lax(state)

print("=== phase-space point (4 particles, spin dimension 2) ===")
print("positions:", np.round(state.x, 4))
print("momenta:  ", np.round(state.p, 4))
print()

X = np.diag(state.x)
comm = lax.L @ X - X @ lax.L
print("max |R - I - [L, X]| =", np.max(np.abs(lax.R - np.eye(4) - comm)))
print()

print("=== tower of conserved quantities H_m = tr L^m ===")
for m, h in enumerate(hamiltonians(state), start=1):
    print(f"H_{m} = {h:.12f}")
print()

print("=== involution: |{H_m, H_k}| for 1 <= m < k <= 4 ===")
grads = {m: grad_hamiltonian(state, m) for m in range(1, 5)}
for m in range(1, 5):
    for k in range(m + 1, 5):
        pb = poisson_bracket(state, grads[m], grads[k])
        print(f"|{{H_{m}, H_{k}}}| = {abs(pb):.3e}")
print()

print("H_1 equals minus the total momentum:",
      abs(hamiltonian(state, 1) + np.sum(state.p)))
