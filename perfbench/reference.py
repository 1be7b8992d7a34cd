"""A fixed reference loop, timed next to the workload, that tracks machine speed.

On a shared machine the speed of a core flips between a fast and a slow state
a few seconds long, in CPU time as much as in wall time.  This loop does a
fixed mix of small numpy products and Python bookkeeping, like the package's
own hot paths, and never calls robustvar.  Its median time in a run, against
``NOMINAL_S``, rescales the run's times to a common machine speed; the raw
times are kept in the result file.

Run medians follow the loop closely (correlation 0.85-0.98 over ten runs) but
less than proportionally: the elasticity of the median task time to the
loop's median time was 0.5-1.0, depending on workload and batch.  Times are
therefore rescaled by the square root of the loop's speed ratio.  On two
batches of ten runs per workload that gave the smallest worst-case spread;
rescaling by the full ratio over-corrected ``fit`` in one batch and made its
spread larger than no rescaling at all.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_S = 1.4e-3  # median time of one loop on the 2-vCPU machine the bounds were set on


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((200, 50))
        self.y = rng.standard_normal(200)
        self.w = np.minimum(1.0, 3.0 / np.linalg.norm(self.x, axis=1))
        self.times: list[float] = []

    def _loop(self) -> float:
        x, y, w = self.x, self.y, self.w
        b = np.zeros(x.shape[1])
        norms = {}
        for i in range(60):
            r = y - x @ b
            lp = np.clip(w * r, -1.0, 1.0)
            v = b + 0.5 * ((lp * w * w) @ x) / x.shape[0]
            b = np.sign(v) * np.maximum(np.abs(v) - 1e-3, 0.0)
            norms[i] = float(np.linalg.norm(b))
        return norms[59]

    def measure(self, budget_s: float = 0.0) -> None:
        """Time the loop once, or repeatedly until ``budget_s`` is spent."""
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            self._loop()
            dt = time.perf_counter() - t0
            self.times.append(dt)
            spent += dt
            if spent >= budget_s:
                return

    def factor(self) -> float:
        """Multiply a raw time by this to get a time at the nominal speed."""
        return math.sqrt(NOMINAL_S / statistics.median(self.times))
