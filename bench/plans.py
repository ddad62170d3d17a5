"""Seeded operation lists for the benchmark workloads.

A run repeats rounds of one workload.  Round r of seed s draws every input
from numpy's PCG64 stream seeded with (s, r): sample seeds (always used with
generator="random", because the library ignores the Halton seed), family
parameters, generator coefficients, transport targets and CLI arguments.
The structure of a round (which calls, at which sizes) does not depend on
the seed, so every seed asks for the same amount of work.

This module imports numpy only, so the driver and the tests can build plans
without importing mhstools.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("catalog-sweep", "orbit-transport", "characteristics", "cli-session")

BELTRAMI_NAMES = ("abc_minimal", "cylindrical", "exp_x3", "zsq_x3", "example3")
PRESSURE_NAMES = ("w4_1", "w4_2", "w4_3", "w4_4")
CATALOG_NAMES = BELTRAMI_NAMES + PRESSURE_NAMES
# eigenfields whose coefficient depends on z only: every generator with
# a = (a1, a2, 0), b = (0, 0, b3) preserves it
H_Z_FIELDS = ("zsq_x3", "exp_x3", "example3")
# null dimensions the rigid-symmetry scan must find; abc_minimal carries the
# screw symmetry as its third generator, everything not listed has none
EXPECTED_NULL_DIM = {"abc_minimal": 3, "cylindrical": 1}

# Gates every output is checked against, declared once for the in-process and
# the CLI operations.  The two verify tables are those of `mhstools verify`
# (bench/test_bench.py compares them with mhstools.cli); ggse, the GS residual,
# the composite regions and the transport tolerance repeat literals of the
# CLI; the commutator gate is acceptance criterion 5's.
BELTRAMI_GATES = {"beltrami": 1e-8, "divergence": 1e-8, "h_invariance": 1e-9}
PRESSURE_GATES = {"force_balance": 1e-8, "divergence": 1e-9, "constraint": 1e-8,
                  "chi_along_w": 1e-8, "chi_along_curl": 1e-8}
GGSE_GATES = {"normalization": 1e-6, "ggse_lhs": 1e-6}
GS_GATE = 1e-8
REGION_GATE = 1e-8
COMMUTATOR_GATE = 1e-5
TRANSPORT_TOL = 1e-6

# Norm of the seeded rigid generators.  Depth-4 members carry finite-difference
# noise that grows as the fourth power of the generator norm; at norm 1 one
# draw in twelve crossed the 1e-2 depth gate, at 0.7 the noise stays a factor
# of four below it while still reading about 1e-3.
GENERATOR_NORM = 0.7

CATALOG_SAMPLES = 1000
GGSE_SAMPLES = 500
ORBIT_SAMPLES = 400
ROUND_DEPTH = 3
# One solve's cost is mostly a 52-step bisection per target; at the CLI's 200
# targets one round of the five problems took 27 s on a quiet host and 45 s on
# a busy one, more than a run can hold, so each call solves 50 targets.
TRANSPORT_TARGETS = 50
EXPORT_GRID = 32
MC_SAMPLES = 100_000


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 64), r])  # SeedSequence takes no negatives


def _sub(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 31))


def _generator(rng: np.random.Generator) -> tuple[list[float], list[float]]:
    v = rng.normal(size=3)
    v = GENERATOR_NORM * v / np.linalg.norm(v)
    return [float(v[0]), float(v[1]), 0.0], [0.0, 0.0, float(v[2])]


def _catalog_sweep(rng, tiny):
    n = 100 if tiny else CATALOG_SAMPLES
    ops = []
    for name in CATALOG_NAMES:
        ops.append({"op": "build", "name": name})
        ops.append({"op": "verify", "name": name, "n": n, "seed": _sub(rng)})
        ops.append({"op": "scan", "name": name, "n": n, "seed": _sub(rng)})
    alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    gamma, delta = rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.5)
    ops.append({"op": "clebsch_family", "params": [float(alpha), float(beta),
                                                   float(gamma), float(delta)]})
    ops.append({"op": "verify", "name": "clebsch_family", "n": n, "seed": _sub(rng)})
    c1, c2 = rng.uniform(0.5, 1.5, 2)
    ops.append({"op": "harmonic_pair", "coeffs": [float(c1), float(c2)]})
    ops.append({"op": "verify", "name": "harmonic_pair", "n": n, "seed": _sub(rng)})
    c, w3 = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    ops.append({"op": "gs", "c": float(c), "w3": float(w3), "n": n, "seed": _sub(rng)})
    ops.append({"op": "ggse", "n": n if tiny else GGSE_SAMPLES, "seed": _sub(rng)})
    return ops


def _orbit_transport(rng, tiny):
    ops = []
    for name in H_Z_FIELDS[:1] if tiny else H_Z_FIELDS:
        a, b = _generator(rng)
        s = _sub(rng)
        for depth in range(1, (2 if tiny else ROUND_DEPTH) + 1):
            ops.append({"op": "orbit", "name": name, "a": a, "b": b, "depth": depth,
                        "n": ORBIT_SAMPLES, "seed": s})
        # on the field itself (exact derivatives) and on its depth-1 member
        # (third derivatives, through the finite-difference fallback)
        for member in (0, 1):
            ops.append({"op": "commutator", "name": name, "a": a, "b": b, "member": member,
                        "n": ORBIT_SAMPLES, "seed": s})
    return ops


def deep_orbit_op(seed: int) -> dict:
    """The depth-4 orbit of round 0's first pair, run once per traced run.

    One depth-4 call takes 7-11 s here, most of a run: in every round it
    would leave one round per run and make wall_s swing with the host.
    """
    op = dict(_orbit_transport(_rng(seed, 0), False)[0])
    op["depth"] = 4
    return op


def _characteristics(rng, tiny):
    n = 10 if tiny else TRANSPORT_TARGETS
    ops = [{"op": "psi", "name": name, "n": n, "seed": _sub(rng)}
           for name in (("w4_2",) if tiny else PRESSURE_NAMES[:3])]
    if not tiny:
        for name in ("abc_minimal", "cylindrical"):
            c1, c2, c3 = rng.uniform(0.5, 1.5, 3)
            ops.append({"op": "alpha", "name": name, "n": n,
                        "p": [float(c1), float(c2)], "g": float(c3)})
    return ops


def _num(v: float) -> str:
    return f"{v:.6g}"


def _cli_session(rng, tiny):
    grid = 8 if tiny else EXPORT_GRID
    mc = 2000 if tiny else MC_SAMPLES
    verify_name = str(rng.choice(CATALOG_NAMES))
    verify = ["verify", verify_name, "--format", "json", "--generator", "random",
              "--seed", str(_sub(rng))]
    sym_name = str(rng.choice(CATALOG_NAMES))
    orbit_name = str(rng.choice(H_Z_FIELDS))
    a, b = _generator(rng)
    gen = ",".join(map(_num, a)) + ";" + ",".join(map(_num, b))
    # three decimals, so that the printed chi coefficient is exactly 2c
    c, w3 = round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(-1.0, 1.0), 3)
    export_name = str(rng.choice(CATALOG_NAMES))
    argvs = [
        (["catalog"], 0),
        (verify, 0),
        (["verify", "exp_x3", "--domain", "box:-1,1,-1,1,-1,1", "--h", "z^2",
          "--format", "json"], 1),
        (["symmetry", sym_name, "--format", "json", "--generator", "random",
          "--seed", str(_sub(rng))], 0),
        (["orbit", orbit_name, f"--gen={gen}", "--n", "1", "--format", "json"], 0),
        (["gs", "--chart", "translational", "--theta", f"{c:.3f}*(x^2+y^2)/2",
          "--chi", f"{2 * c:.3f}*T", "--w3", f"{w3:.3f}", "--format", "json",
          "--generator", "random", "--seed", str(_sub(rng))], 0),
        (["ggse", "--format", "json", "--generator", "random", "--seed", str(_sub(rng))], 0),
        (["composite", "--seed", str(_sub(rng)), "--mc-samples", str(mc),
          "--format", "json"], 0),
        (["export", export_name, "--grid", str(grid), "--format", "csv"], 0),
        (verify, 0),  # repeated: its JSON must be byte-identical to the first
    ]
    return [{"op": "cli", "argv": list(argv), "expect": code} for argv, code in argvs]


_BUILDERS = {
    "catalog-sweep": _catalog_sweep,
    "orbit-transport": _orbit_transport,
    "characteristics": _characteristics,
    "cli-session": _cli_session,
}


def round_ops(workload: str, seed: int, r: int, tiny: bool = False) -> list[dict]:
    """The operations of round r of a workload, drawn from (seed, r)."""
    return _BUILDERS[workload](_rng(seed, r), tiny)
