"""mhstools benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Runs from the root of a checkout holding `src/mhstools`.  Each run starts
fresh worker interpreters one after another (no pool): the first ones only
set up, so that set-up time is a median, and the last one also runs the
timed phase.  Every worker gets one BLAS/OpenMP thread.  The last line of
output is one JSON object: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The line before it records the machine,
versions and sizes.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import plans  # noqa: E402
from metrics import END_TO_END, PER_LAYER, RESIDUAL_FLOOR, RESIDUAL_OFFSET  # noqa: E402

SETUPS = {"cli-session": 9}  # set-ups measured per run; in-process workloads: 5
RUN_TIMEOUT_S = 170.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, ready_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and, unless ready_only, its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(ROOT / ".bench_run")]
    if args.tiny:
        cmd.append("--tiny")
    if ready_only:
        cmd.append("--ready-only")
    t0 = time.perf_counter()
    # its own session, so that a timeout also ends the CLI children it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if first.strip() != "READY":
            raise BenchError(f"worker did not set up: {first!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past {RUN_TIMEOUT_S:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    if ready_only:
        return setup_s, None
    lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise BenchError("worker printed no result")
    return setup_s, json.loads(lines[-1][len("RESULT "):])


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "commit": commit}


def run(args) -> dict:
    if not (ROOT / "src" / "mhstools" / "__init__.py").is_file():
        raise BenchError(f"no mhstools sources under {ROOT / 'src'}")
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = [run_worker(args, True, deadline)[0]
              for _ in range(SETUPS.get(args.workload, 5) - 1)]
    setup_s, res = run_worker(args, False, deadline)
    setups.append(setup_s)
    if res["leaked_wrappers"]:
        raise BenchError(f"untraced run found tracing wrappers: {res['leaked_wrappers']}")

    worst = max(res["worst_residual"], RESIDUAL_FLOOR)
    op_s = res["op_s"]
    record = {
        **machine_record(), **res["versions"], "pinned_env": PINNED_ENV,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": res["rounds"], "ops_per_round": res["ops_per_round"],
        "attempted": res["attempted"], "failed": res["failed"], "sizes": res["sizes"],
        "setup_runs_s": setups,
        "failed_frac": res["failed"] / res["attempted"],
        "worst_residual": res["worst_residual"],
    }
    kinds = res["op_kinds"]
    record["op_p50_ms_by_kind"] = {
        k: 1e3 * statistics.median(t for t, kk in zip(op_s, kinds) if kk == k)
        for k in sorted(set(kinds))}
    if len(op_s) >= 100:
        record["op_p90_ms"] = 1e3 * statistics.quantiles(op_s, n=10)[-1]
    if args.trace:
        record["layer_self_s"] = res["layer_self_s"]
        values = res["per_layer"]
        table = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["walls"]),
            "op_p50_ms": 1e3 * statistics.median(op_s),
            "peak_rss_mb": res["peak_rss_mb"],
            "worst_residual_log10": RESIDUAL_OFFSET + math.log10(worst),
        }
        table = END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, (unit, _) in table.items()}
    return {"record": record,
            "result": {"correct": res["failed"] == 0, "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics}}


def smoke() -> int:
    """Every workload at tiny size, both modes; every metric of BENCHMARK.json emitted."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in plans.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1.0, trace=trace,
                                      tiny=True)
            t0 = time.perf_counter()
            out = run(args)["result"]
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            ok = got == want and out["correct"] and out["failed"] == 0
            ok &= all(math.isfinite(v["value"]) for v in out["metrics"].values())
            print(f"smoke {workload:16s} trace={trace} {'ok' if ok else 'FAILED'} "
                  f"({time.perf_counter() - t0:.1f} s, {out['attempted']} ops)", flush=True)
            if not ok:
                problems.append(f"{workload} trace={trace}: {out}")
    for p in problems:
        print("smoke problem:", p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=plans.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    args.tiny = False  # only smoke() runs tiny inputs
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        out = run(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(out["record"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
