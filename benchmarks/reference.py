"""A fixed reference kernel, timed next to every operation.

On a shared machine the speed of Python code drifts by tens of percent over
minutes, and a whole run can land in a slow stretch. The kernel does fixed
work of the kinds spincm does: an interpreter loop, numpy calls on 3x3
matrices, and 100x100 complex matrix products. Dividing an operation's time
by the kernel's time measured just before it cancels most of that drift.
The kernel calls nothing from spincm, so no change to spincm moves it.
"""

from __future__ import annotations

import time

import numpy as np


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        self.big = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))

    def _kernel(self):
        acc = 0
        for k in range(40000):
            acc += k * k % 7
        x = self.small
        for _ in range(1500):
            x = (self.small @ x) / 2.0
        for _ in range(6):
            self.big @ self.big
        return acc

    def seconds(self, reps=3):
        """Fastest of `reps` runs of the kernel."""
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        return best
