"""Per-operation timing and outcome record, shared by both kinds of operation."""

from __future__ import annotations

import time
from contextlib import nullcontext


class OpContext:
    """Times the library calls of one operation and collects its outcome."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.busy_s = 0.0
        self.residuals: list[float] = []
        self.extras: dict = {}

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.busy_s += time.perf_counter() - t0
        return out

    def checking(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def gate(self, values: dict[str, float], gates: dict[str, float]) -> bool:
        """Record gated residuals; True when each is below its gate (NaN fails)."""
        self.residuals += [values[k] for k in gates]
        return all(values[k] < tol for k, tol in gates.items())
