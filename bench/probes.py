"""Fixed-size probes of single layers, run once per traced run.

`jets` of a catalog field at orders 0, 1 and 2 on 10^3 and 10^5 points, the
curl of exp_x3 at orders 1 and 2 (order 2 takes the finite-difference
fallback), and the cold-interpreter import of mhstools.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# (points, label, repetitions): one pass at 10^5 points already takes 0.2-3 s
SIZES = ((1000, "1e3", 3), (100_000, "1e5", 1))


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _jets(field, pts: np.ndarray, order: int):
    from mhstools import fields

    ctx = fields.EvalContext(pts.shape[0])
    with np.errstate(all="ignore"):
        return field.jets(pts, order=order, ctx=ctx)


def field_probes(seed: int) -> dict[str, float]:
    from mhstools import beltrami, clebsch, domains, fields

    exp_x3, w4_3 = beltrami.catalog("exp_x3"), clebsch.catalog("w4_3")
    out = {}
    for tag, field, domain in (("exp_x3", exp_x3.field, exp_x3.domain),
                               ("w4_3", w4_3.w, w4_3.domain)):
        for n, label, reps in SIZES:
            pts = domains.sample(domain, n, generator="random", seed=seed).points
            for order in (0, 1, 2):
                out[f"fields.jets.{tag}.o{order}.n{label}_ms"] = _median_ms(
                    lambda: _jets(field, pts, order), reps)
    pts = domains.sample(exp_x3.domain, SIZES[0][0], generator="random", seed=seed).points
    curl = fields.Curl(exp_x3.field)
    for order in (1, 2):
        out[f"fields.curl.exp_x3.o{order}_ms"] = _median_ms(lambda: _jets(curl, pts, order),
                                                            SIZES[0][2])
    return out


def import_probe(reps: int) -> float:
    """Median wall time of a fresh interpreter that imports mhstools."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mhstools"], check=True,
                       stdin=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
