"""Names, units and directions of every metric the benchmark prints.

BENCHMARK.json must list exactly these; `run.py --smoke` checks that it does.
"""

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "worst_residual_log10": ("dex_over_1e-13", "lower"),
}

# floor of the worst gated residual, and the offset that keeps the reported
# value positive: 13 + log10(max(residual, 1e-12)), so the floor reads 1
RESIDUAL_FLOOR = 1e-12
RESIDUAL_OFFSET = 13.0

JET_PROBES = [f"fields.jets.{f}.o{o}.n{n}_ms"
              for f in ("exp_x3", "w4_3") for o in (0, 1, 2) for n in ("1e3", "1e5")]
CLI_SUBCOMMANDS = ("catalog", "verify", "symmetry", "orbit", "gs", "ggse", "composite", "export")


def _layer_table() -> dict[str, tuple[str, str]]:
    t: dict[str, tuple[str, str]] = {}

    def add(name, unit, better="lower"):
        t[name] = (unit, better)

    add("domains.sample.calls", "count")
    add("domains.sample.points", "count")
    add("domains.sample.busy_s", "s")
    add("catalog.build.calls", "count")
    add("catalog.build.busy_s", "s")
    add("checks.residual_report.calls", "count")
    add("checks.residual_report.channels", "count")
    add("checks.residual_report.busy_s", "s")
    add("checks.channel.busy_s", "s")
    add("fields.values.calls", "count")
    add("fields.values.points", "count")
    add("fields.values.busy_s", "s")
    for name in JET_PROBES:
        add(name, "ms")
    add("fields.curl.exp_x3.o1_ms", "ms")
    add("fields.curl.exp_x3.o2_ms", "ms")
    add("symmetry.killing_scan.calls", "count")
    add("symmetry.killing_scan.busy_s", "s")
    add("symmetry.alpha.calls", "count")
    add("symmetry.alpha.busy_s", "s")
    add("lieops.lie_generate.calls", "count")
    add("lieops.lie_generate.members", "count", "higher")
    add("lieops.lie_generate.busy_s", "s")
    for d in (1, 2, 3, 4):
        add(f"lieops.orbit.d{d}.p50_ms", "ms")
    for d in (1, 2, 3, 4):
        add(f"lieops.member_residual_log10.d{d}", "log10")
    add("lieops.commutator.busy_s", "s")
    add("lieops.commutator.log10", "log10")
    add("characteristics.solve.calls", "count")
    add("characteristics.solve.targets", "count", "higher")
    add("characteristics.solve.busy_s", "s")
    add("characteristics.solve.ok_ratio", "ratio", "higher")
    add("characteristics.solve.values_calls", "count")
    add("characteristics.solve.err_over_estimate", "ratio")
    add("gradshafranov.gs_residual.busy_s", "s")
    add("gradshafranov.ggse_check.busy_s", "s")
    add("composite.assemble.busy_s", "s")
    add("composite.l2_mc.busy_s", "s")
    add("composite.verify.busy_s", "s")
    add("cli.import_s", "s")
    for sub in CLI_SUBCOMMANDS:
        add(f"cli.{sub}.p50_ms", "ms")
    add("cli.self_s", "s")
    add("trace.overhead_frac", "ratio")
    return t


PER_LAYER = _layer_table()
