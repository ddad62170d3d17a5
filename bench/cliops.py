"""CLI operations: one `python -m mhstools.cli` invocation each, run to
completion before the next starts, interpreter start and import included.

In the traced run the invocation goes through `cli_launcher.py`, which
installs the tracer in the child, calls `mhstools.cli.main` and writes the
child's layer aggregates to a file the parent reads back.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from plans import (
    BELTRAMI_GATES,
    CATALOG_NAMES,
    EXPECTED_NULL_DIM,
    GS_GATE,
    PRESSURE_GATES,
    REGION_GATE,
)

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120


class CliSession:
    """Runs one round's invocations and checks each one's exit code and output."""

    def __init__(self, workdir: Path, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.first_verify: bytes | None = None
        self.n = 0

    def argv(self, args: list[str], trace_out: Path) -> list[str]:
        if self.traced:
            return [sys.executable, str(HERE / "cli_launcher.py"), str(trace_out), *args]
        return [sys.executable, "-m", "mhstools.cli", *args]

    def run(self, spec: dict, ctx) -> bool:
        args = list(spec["argv"])
        self.n += 1
        out_file = self.workdir / f"export_{os.getpid()}_{self.n}.csv"
        trace_out = self.workdir / f"trace_{os.getpid()}_{self.n}.json"
        if args[0] == "export":
            args += ["--out", str(out_file)]
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv(args, trace_out), stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=CLI_TIMEOUT_S)
        ctx.busy_s += time.perf_counter() - t0
        if self.traced:
            ctx.extras["trace"] = json.loads(trace_out.read_text())
            trace_out.unlink()
        if proc.returncode != spec["expect"]:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            return False
        check = getattr(self, "check_" + args[0])
        if args[0] == "export":
            try:
                return check(out_file, int(args[args.index("--grid") + 1]))
            finally:
                out_file.unlink(missing_ok=True)
        return check(proc.stdout, spec, ctx)

    def check_catalog(self, out: bytes, spec, ctx) -> bool:
        text = out.decode()
        return all(name in text for name in CATALOG_NAMES)

    def check_verify(self, out: bytes, spec, ctx) -> bool:
        doc = json.loads(out)
        if spec["expect"] == 1:  # the deliberate wrong coefficient must fail its gate
            return doc["passed"] is False
        if self.first_verify is None:
            self.first_verify = out
        elif out != self.first_verify:
            return False
        checks = {k: v["max"] for k, v in doc["report"]["checks"].items()}
        gates = BELTRAMI_GATES if "beltrami" in checks else PRESSURE_GATES
        gates = {k: v for k, v in gates.items() if k in checks}
        return doc["passed"] is True and ctx.gate(checks, gates)

    def check_symmetry(self, out: bytes, spec, ctx) -> bool:
        doc = json.loads(out)
        return doc["report"]["null_dim"] == EXPECTED_NULL_DIM.get(doc["field"], 0)

    def check_orbit(self, out: bytes, spec, ctx) -> bool:
        doc = json.loads(out)
        ok = doc["passed"] is True and len(doc["orbit"]["members"]) == 2
        for m in doc["orbit"]["members"]:
            ok &= ctx.gate({"m": max(m["beltrami_max"], m["divergence_max"])}, {"m": m["gate"]})
        return ok

    def check_gs(self, out: bytes, spec, ctx) -> bool:
        checks = {k: v["max"] for k, v in json.loads(out)["report"]["checks"].items()}
        return ctx.gate(checks, {"gs_residual": GS_GATE})

    def check_ggse(self, out: bytes, spec, ctx) -> bool:
        doc = json.loads(out)
        checks = {k: v["max"] for k, v in doc["report"]["checks"].items()}
        return doc["passed"] is True and ctx.gate(checks, doc["gates"])

    def check_composite(self, out: bytes, spec, ctx) -> bool:
        doc = json.loads(out)["report"]
        ok = json.loads(out)["passed"] is True
        for region in ("core", "shell"):
            checks = {k: v["max"] for k, v in doc[region]["checks"].items()}
            ok &= ctx.gate(checks, {k: REGION_GATE for k in checks
                                    if k in ("force_balance", "beltrami", "divergence")})
        return ok

    def check_export(self, path: Path, grid: int) -> bool:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = sum(1 for _ in fh)
        return header[:6] == ["x", "y", "z", "wx", "wy", "wz"] and rows == grid**3
