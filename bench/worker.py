"""One benchmark worker: a fresh interpreter that sets up one workload and
runs it as a closed loop, one operation at a time.

Set-up is the interpreter start, `import mhstools` (not for cli-session,
whose operations each pay their own import) and generating round 0's
inputs; the worker prints READY when it is done.  The timed phase repeats
rounds until the next one would end after the time budget (at least one
round).  With --trace 1 the same rounds run again with the tracer
installed, and the probes follow.  The last line of output is RESULT and a
JSON summary that run.py turns into metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import plans  # noqa: E402
import probes  # noqa: E402
from metrics import CLI_SUBCOMMANDS, PER_LAYER  # noqa: E402
from opcontext import OpContext  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402

IN_PROCESS = ("catalog-sweep", "orbit-transport", "characteristics")
MAX_ROUNDS = 10_000


def op_kind(spec: dict) -> str:
    if spec["op"] == "cli":
        return spec["argv"][0]
    if spec["op"] == "orbit":
        return f"orbit.d{spec['depth']}"
    if spec["op"] == "commutator":
        return f"commutator.m{spec['member']}"
    return spec["op"]


class Workload:
    def __init__(self, args):
        self.args = args
        self.cli = args.workload == "cli-session"
        if not self.cli:
            import inproc

            self.ops = inproc.OPS
        self.rounds = [plans.round_ops(args.workload, args.seed, 0, args.tiny)]

    def round_ops(self, r: int) -> list[dict]:
        while len(self.rounds) <= r:
            self.rounds.append(plans.round_ops(self.args.workload, self.args.seed,
                                               len(self.rounds), self.args.tiny))
        return self.rounds[r]

    def run_round(self, r: int, tracer: Tracer | None) -> list[dict]:
        state: dict = {}
        if self.cli:
            from cliops import CliSession

            session = CliSession(Path(self.args.workdir), traced=tracer is not None)
        records = []
        for spec in self.round_ops(r):
            ctx = OpContext(tracer)
            try:
                if self.cli:
                    ok = session.run(spec, ctx)
                else:
                    ok = self.ops[spec["op"]](spec, ctx, state)
            except Exception:
                traceback.print_exc()
                ok = False
            if tracer is not None and not self.cli:
                ctx.extras["layers"] = tracer.take()
            records.append({"kind": op_kind(spec), "s": ctx.busy_s, "ok": bool(ok),
                            "residuals": ctx.residuals, "extras": ctx.extras})
        return records

    def run_ops(self, ops: list[dict], tracer: Tracer | None) -> list[dict]:
        self.rounds.append(ops)
        return self.run_round(len(self.rounds) - 1, tracer)

    def run_rounds(self, budget_s: float, tracer: Tracer | None, count: int | None = None):
        """Rounds 0, 1, ... until the next would overrun the budget, or `count` rounds."""
        rounds = []
        t0 = time.perf_counter()
        while len(rounds) < (count or MAX_ROUNDS):
            r0 = time.perf_counter()
            rounds.append(self.run_round(len(rounds), tracer))
            last = time.perf_counter() - r0
            if count is None and time.perf_counter() - t0 + last > budget_s:
                break
        return rounds


def _median(xs, default=0.0):
    return statistics.median(xs) if xs else default


def _log10(v: float) -> float:
    return math.log10(v) if v > 0 else -16.0


def _merge(into: dict, layers: dict) -> None:
    for name, st in layers.items():
        acc = into.setdefault(name, {})
        for k, v in st.items():
            acc[k] = acc.get(k, 0) + v


def round_layers(records: list[dict], cli: bool) -> tuple[dict, float]:
    """Per-layer aggregates of one traced round, and its CLI self time."""
    layers: dict = {}
    self_s = 0.0
    for rec in records:
        if cli and "trace" in rec["extras"]:  # absent when the invocation crashed
            tr = rec["extras"]["trace"]
            _merge(layers, tr["layers"])
            self_s += rec["s"] - tr["import_s"] - tr["library_s"]
        elif not cli:
            _merge(layers, rec["extras"]["layers"][0])
    return layers, self_s


def layer_metrics(untraced: list[list[dict]], traced: list[list[dict]], extra: list[dict],
                  cli: bool, probe_values: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics (0 for a layer the workload does not reach), and the
    self time of each layer in the first traced round."""
    m = {name: 0.0 for name in PER_LAYER}
    per_round = [round_layers(rs, cli) for rs in traced]
    first = per_round[0][0]

    def count(layer, key="calls"):
        return float(first.get(layer, {}).get(key, 0))

    def busy(layer):
        return _median([lay.get(layer, {}).get("busy_s", 0.0) for lay, _ in per_round])

    for layer in ("domains.sample", "catalog.build", "checks.residual_report", "fields.values",
                  "symmetry.killing_scan", "symmetry.alpha", "lieops.lie_generate",
                  "characteristics.solve"):
        m[f"{layer}.calls"] = count(layer)
        m[f"{layer}.busy_s"] = busy(layer)
    for layer in ("checks.channel", "lieops.commutator", "gradshafranov.gs_residual",
                  "gradshafranov.ggse_check", "composite.assemble", "composite.l2_mc",
                  "composite.verify"):
        m[f"{layer}.busy_s"] = busy(layer)
    m["domains.sample.points"] = count("domains.sample", "points")
    m["fields.values.points"] = count("fields.values", "points")
    m["checks.residual_report.channels"] = count("checks.residual_report", "channels")
    m["lieops.lie_generate.members"] = count("lieops.lie_generate", "members")
    m["characteristics.solve.targets"] = count("characteristics.solve", "targets")
    m["characteristics.solve.values_calls"] = count("characteristics.solve", "values_calls")
    if m["characteristics.solve.targets"]:
        m["characteristics.solve.ok_ratio"] = (count("characteristics.solve", "ok")
                                               / m["characteristics.solve.targets"])

    ops = [rec for rs in untraced for rec in rs] + extra
    for d in (1, 2, 3, 4):
        times = [rec["s"] for rec in ops if rec["kind"] == f"orbit.d{d}"]
        m[f"lieops.orbit.d{d}.p50_ms"] = 1e3 * _median(times)
        res = [rec["extras"][f"member_{d}"] for rec in ops
               if math.isfinite(rec["extras"].get(f"member_{d}", math.nan))]
        if res:
            m[f"lieops.member_residual_log10.d{d}"] = _log10(max(res))
    comm = [rec["extras"]["commutator"] for rec in ops
            if math.isfinite(rec["extras"].get("commutator", math.nan))]
    if comm:
        m["lieops.commutator.log10"] = _log10(max(comm))
    errs = [rec["extras"]["err"] for rec in ops
            if math.isfinite(rec["extras"].get("err", math.nan))]
    ests = [rec["extras"]["estimate"] for rec in ops if "estimate" in rec["extras"]]
    if errs and max(ests) > 0:
        m["characteristics.solve.err_over_estimate"] = max(errs) / max(ests)
    if cli:
        for sub in CLI_SUBCOMMANDS:
            m[f"cli.{sub}.p50_ms"] = 1e3 * _median([r["s"] for r in ops if r["kind"] == sub])
        m["cli.self_s"] = _median([s for _, s in per_round])
    m["trace.overhead_frac"] = (_median([sum(r["s"] for r in rs) for rs in traced])
                                / _median([sum(r["s"] for r in rs) for rs in untraced]) - 1.0)
    m.update(probe_values)
    return m, {layer: st["self_s"] for layer, st in sorted(first.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=plans.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--ready-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    wl = Workload(args)
    print("READY", flush=True)
    if args.ready_only:
        return 0

    leaked = installed_wrappers()
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = wl.run_rounds(budget, None)
    leaked += installed_wrappers()
    if wl.cli:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    measured = untraced

    per_layer = self_s = None
    if args.trace:
        tracer = Tracer()
        if not wl.cli:
            tracer.install()
        try:
            traced = wl.run_rounds(0.0, tracer, count=len(untraced))
        finally:
            tracer.uninstall()
        extra = []
        if args.workload == "orbit-transport" and not args.tiny:
            extra = wl.run_ops([plans.deep_orbit_op(args.seed)], None)
        probe_values = probes.field_probes(args.seed)
        probe_values["cli.import_s"] = probes.import_probe(1 if args.tiny else 3)
        per_layer, self_s = layer_metrics(untraced, traced, extra, wl.cli, probe_values)
        measured = untraced + traced + [extra]

    records = [rec for rs in measured for rec in rs]
    round_worst = [max((v for rec in rs for v in rec["residuals"] if math.isfinite(v)),
                       default=0.0) for rs in untraced]
    result = {
        "walls": [sum(rec["s"] for rec in rs) for rs in untraced],
        "op_s": [rec["s"] for rs in untraced for rec in rs],
        "op_kinds": [rec["kind"] for rs in untraced for rec in rs],
        "attempted": len(records),
        "failed": sum(1 for rec in records if not rec["ok"]),
        "worst_residual": statistics.median(round_worst),
        "peak_rss_mb": rss_kb / 1024.0,
        "leaked_wrappers": leaked,
        "per_layer": per_layer,
        "layer_self_s": self_s,
        "rounds": len(untraced),
        "ops_per_round": len(untraced[0]),
        "sizes": {k: v for k, v in vars(plans).items() if k.isupper() and isinstance(v, int)},
        "versions": {p: metadata.version(p) for p in ("numpy", "scipy")},
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
