"""Spans around the public calls of each mhstools module.

The tracer replaces a public function wherever a module of the package
holds a reference to it (several modules import `residual_report`,
`sample` or `solve_characteristics` by name), and the `values` methods of
the field base classes.  Each call becomes a span on one stack: its
duration, and its self time (duration minus the time of the spans it
caused).  Spans are folded into per-layer aggregates as they close, so
tracing the characteristics solver's hundreds of thousands of `values()`
calls stays cheap in memory.

Only the traced run installs the wrappers; `installed_wrappers` lets the
untraced run assert that none are present.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from contextlib import contextmanager

MARK = "__bench_span__"

# layer name -> public callables, as (module, attribute) or (module, class, method)
LAYERS = {
    "domains.sample": [("domains", "sample")],
    "catalog.build": [("registry", "get"), ("beltrami", "catalog"), ("clebsch", "catalog"),
                      ("clebsch", "make_clebsch"), ("clebsch", "make_clebsch_family"),
                      ("beltrami", "from_harmonic_pair")],
    "checks.residual_report": [("checks", "residual_report")],
    "checks.channel": [("checks", "scalar_abs_stats"), ("checks", "vector_norm_stats")],
    "fields.values": [("fields", "ScalarField", "values"), ("fields", "VectorField", "values")],
    "symmetry.killing_scan": [("symmetry", "killing_scan")],
    "symmetry.alpha": [("symmetry", "alpha_from_characteristics")],
    "lieops.lie_generate": [("lieops", "lie_generate")],
    "lieops.commutator": [("lieops", "commutator_defect")],
    "characteristics.solve": [("characteristics", "solve_characteristics")],
    "gradshafranov.gs_residual": [("gradshafranov", "gs_residual")],
    "gradshafranov.ggse_check": [("gradshafranov", "ggse_check")],
    "composite.assemble": [("composite", "assemble")],
    "composite.l2_mc": [("composite", "l2_monte_carlo")],
    "composite.verify": [("composite", "verify_composite")],
}


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _count_points(stat, args, kwargs, out):
    stat.add("points", len(_arg(args, kwargs, 1, "pts")))


def _count_sample(stat, args, kwargs, out):
    stat.add("points", out.count)


def _count_channels(stat, args, kwargs, out):
    stat.add("channels", len(_arg(args, kwargs, 2, "channels")))


def _count_members(stat, args, kwargs, out):
    stat.add("members", len(out.members))


def _count_solve(stat, args, kwargs, out):
    stat.add("targets", len(out))
    stat.add("ok", sum(1 for r in out if r.ok))


COUNTERS = {
    "domains.sample": _count_sample,
    "checks.residual_report": _count_channels,
    "fields.values": _count_points,
    "lieops.lie_generate": _count_members,
    "characteristics.solve": _count_solve,
}


class LayerStat:
    """Aggregates of one layer: outermost calls and their time, self time, counts."""

    __slots__ = ("calls", "busy_s", "self_s", "counts", "depth")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}
        self.depth = 0

    def add(self, key: str, v: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + v

    def to_dict(self) -> dict:
        return {"calls": self.calls, "busy_s": self.busy_s, "self_s": self.self_s,
                **self.counts}


class _Frame:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, LayerStat] = {}
        self.root_s = 0.0
        self._stack: list[_Frame] = []
        self._paused = 0
        self._patches: list[tuple] = []

    # recording -----------------------------------------------------------

    def _wrap(self, layer: str, fn):
        stat = self.stats.setdefault(layer, LayerStat())
        counter = COUNTERS.get(layer)
        values = self.stats.setdefault("fields.values", LayerStat())
        stack = self._stack

        def span(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            frame = _Frame()
            stack.append(frame)
            stat.depth += 1
            values_before = values.calls
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stat.depth -= 1
                stat.self_s += dt - frame.child
                if stack:
                    stack[-1].child += dt
                else:
                    self.root_s += dt
                if stat.depth == 0:
                    stat.calls += 1
                    stat.busy_s += dt
                    if layer == "characteristics.solve":
                        stat.add("values_calls", values.calls - values_before)
            if counter is not None:
                counter(stat, args, kwargs, out)
            return out

        setattr(span, MARK, layer)
        span.__wrapped__ = fn
        return span

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own output checks record no spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def take(self) -> tuple[dict, float]:
        """Return and reset the aggregates recorded since the last take."""
        out = {k: v.to_dict() for k, v in self.stats.items()}
        root = self.root_s
        for v in self.stats.values():
            v.calls, v.busy_s, v.self_s, v.counts = 0, 0.0, 0.0, {}
        self.root_s = 0.0
        return out, root

    # installation --------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("mhstools")
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"mhstools.{info.name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "mhstools" or name.startswith("mhstools.")]
        for layer, targets in LAYERS.items():
            for target in targets:
                mod = importlib.import_module(f"mhstools.{target[0]}")
                if len(target) == 3:
                    cls = getattr(mod, target[1])
                    orig = cls.__dict__[target[2]]
                    self._patch(cls, target[2], orig, self._wrap(layer, orig))
                    continue
                orig = getattr(mod, target[1])
                wrapped = self._wrap(layer, orig)
                for m in modules:
                    for attr, v in list(vars(m).items()):
                        if v is orig:
                            self._patch(m, attr, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


def installed_wrappers() -> list[str]:
    """Names of mhstools attributes that are benchmark spans (empty when untraced)."""
    found = []
    for name, m in list(sys.modules.items()):
        if not (name == "mhstools" or name.startswith("mhstools.")):
            continue
        for attr, v in vars(m).items():
            if hasattr(v, MARK):
                found.append(f"{name}.{attr}")
            elif isinstance(v, type) and v.__module__ == name:
                found += [f"{name}.{attr}.{k}" for k, f in vars(v).items() if hasattr(f, MARK)]
    return found
