"""Command-line interface.

Subcommands: catalog, verify, symmetry, orbit, gs, ggse, composite, export,
characteristics.  Each `cmd_*` returns its document and its text lines and
writes nothing; `main` is the one output path.  It writes the document as
versioned JSON (schema "v1", sorted keys, every non-finite number as null)
under `--format json`, or to `--out` unless the text is export's CSV;
otherwise it writes the text lines, to `--out` or to stdout.  Identical
configurations produce byte-identical output.  Exit codes: 0 all gates pass,
1 gate failure (the document's "passed" is false), 2 input rejected, or a
precondition failed its sampled check (`ValueError`, `ConstructionError`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import beltrami, clebsch, registry
from .beltrami import beltrami_residual, verify_h_invariance
from .characteristics import CharacteristicsProblem, InitialCurve, solve_characteristics
from .domains import Domain, sample
from .fields import vector, y, z
from .fields import log as flog, sin as fsin
from .gradshafranov import example_decomposition, ggse_check, gs_problem_from_plane, gs_residual
from .lieops import lie_generate
from .parsing import parse_scalar, parse_univariate
from .reports import ConstructionError
from .composite import assemble, verify_composite
from .symmetry import (
    CANONICAL_GENERATORS,
    DEFAULT_THRESHOLD,
    S,
    T,
    KillingParams,
    alpha_from_characteristics,
    killing_scan,
)

SCHEMA = "v1"

# gates applied by `verify`
BELTRAMI_GATES = {"beltrami": 1e-8, "divergence": 1e-8, "h_invariance": 1e-9}
PRESSURE_GATES = {
    "force_balance": 1e-8,
    "divergence": 1e-9,
    "constraint": 1e-8,
    "chi_along_w": 1e-8,
    "chi_along_curl": 1e-8,
}


def _parse_domain(spec: str) -> Domain:
    try:
        kind, _, rest = spec.partition(":")
        vals = [float(v) for v in rest.split(",")] if rest else []
        if kind == "box" and len(vals) == 6:
            return Domain.box((vals[0], vals[2], vals[4]), (vals[1], vals[3], vals[5]))
        if kind == "ball" and len(vals) == 4:
            return Domain.ball(vals[:3], vals[3])
        if kind == "sshell" and len(vals) == 5:
            return Domain.spherical_shell(vals[:3], vals[3], vals[4])
        if kind == "cshell" and len(vals) == 4:
            return Domain.cylindrical_shell(vals[0], vals[1], vals[2], vals[3])
    except ValueError as e:
        raise ValueError(f"bad domain spec {spec!r}: {e}") from None
    raise ValueError(
        f"bad domain spec {spec!r}; use box:x0,x1,y0,y1,z0,z1 | ball:cx,cy,cz,r "
        f"| sshell:cx,cy,cz,rin,rout | cshell:rin,rout,zmin,zmax"
    )


def _samples(args, default: Domain):
    """--samples points from --generator and --seed on --domain, else on `default`."""
    domain = _parse_domain(args.domain) if args.domain else default
    return sample(domain, args.samples, generator=args.generator, seed=args.seed)


def _parse_generator(spec: str) -> KillingParams:
    names = [f"{kind}-{axis}" for kind in ("trans", "rot") for axis in "xyz"]
    named = dict(zip(names, CANONICAL_GENERATORS))
    if spec in named:
        return named[spec]
    try:
        apart, _, bpart = spec.partition(";")
        a = tuple(float(v) for v in apart.split(","))
        b = tuple(float(v) for v in bpart.split(","))
        return KillingParams(a, b)
    except (ValueError, TypeError):
        raise ValueError(
            f"bad generator {spec!r}; use one of {', '.join(named)} or ax,ay,az;bx,by,bz"
        ) from None


def _grid(domain: Domain, n: int) -> np.ndarray:
    """The n^3 points of the regular grid on the domain's bounding box, x slowest."""
    lo, hi = domain.bounding_box()
    axes = [np.linspace(lo[i], hi[i], n) for i in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def _finite(v):
    """`v` in plain JSON values: arrays as lists, and every non-finite float,
    however deeply nested, as None."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, np.ndarray):
        return _finite(v.tolist())
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return v


def _config_doc(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _report_lines(rep) -> list[str]:
    return [f"[{rep.label}]"] + [
        f"  {name:22s} max={st.max:.3e}  mean={st.mean:.3e}  rms={st.rms:.3e}"
        f"  (n={st.n_samples}, errors={st.n_errors})"
        for name, st in rep.checks.items()
    ]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_catalog(args) -> tuple[dict, list[str]]:
    if args.rest and args.rest[0] == "show":
        if len(args.rest) != 2:
            raise ValueError("usage: catalog show NAME")
        entry = registry.get(args.rest[1])
        e = entry.to_dict()
        text = [f"{entry.name} ({entry.kind})"]
        text += [f"  {k}: {e[k]}" for k in sorted(e) if k != "name"]
        return {"entry": e}, text
    if args.rest:
        raise ValueError("usage: catalog [show NAME]")
    entries = [registry.get(n).to_dict() for n in registry.names()]
    text = [f"{'name':12s} {'kind':9s} {'coefficient/pressure':28s} domain"]
    for e in entries:
        tag = e.get("h") or e.get("chi") or ""
        text.append(f"{e['name']:12s} {e['kind']:9s} {tag:28s} {e['domain']['shape']}")
    return {"entries": entries}, text


def cmd_verify(args) -> tuple[dict, list[str]]:
    entry = registry.get(args.name)
    if args.h and entry.kind != "beltrami":
        raise ValueError("--h applies to curl-eigenfield entries")
    samples = _samples(args, entry.domain)
    if entry.kind == "beltrami":
        h = parse_scalar(args.h) if args.h else entry.h
        rep = beltrami_residual(entry.field, h, samples)
        gates = dict(BELTRAMI_GATES)
        if args.h:
            # a user-supplied coefficient need not be transported by the field
            gates.pop("h_invariance")
        else:
            hin = verify_h_invariance(entry.record, samples)
            rep.checks["h_invariance"] = hin.stat("h_invariance")
    else:
        rep = entry.solution.residual_report(samples)
        gates = {k: v for k, v in PRESSURE_GATES.items() if k in rep.checks}
    doc = {
        "field": args.name,
        "config": _config_doc(args, ("samples", "seed", "generator", "domain", "h")),
        "report": rep.to_dict(),
        "gates": gates,
        "passed": bool(rep.passes(gates)),
    }
    return doc, _report_lines(rep)


def cmd_symmetry(args) -> tuple[dict, list[str]]:
    entry = registry.get(args.name)
    samples = _samples(args, entry.domain)
    rep = killing_scan(entry.field, samples.domain, samples=samples, threshold=args.threshold)
    doc = {
        "field": args.name,
        "config": _config_doc(args, ("samples", "seed", "generator", "threshold", "domain")),
        "report": rep.to_dict(),
    }
    return doc, [
        f"null dimension: {rep.null_dim}",
        "singular values: " + " ".join(f"{v:.3e}" for v in rep.singular_values),
        *(f"  generator a={k.a} b={k.b}" for k in rep.null_basis),
    ]


def cmd_orbit(args) -> tuple[dict, list[str]]:
    entry = registry.get(args.name)
    if entry.kind != "beltrami":
        raise ValueError("orbit generation needs a curl-eigenfield catalog entry")
    gen = _parse_generator(args.gen)
    orbit = lie_generate(entry.record, gen, args.n, samples=_samples(args, entry.domain))
    doc = {
        "field": args.name,
        "config": _config_doc(args, ("gen", "n", "samples", "seed", "generator", "domain")),
        "orbit": orbit.to_dict(),
        "passed": all(m.passed for m in orbit.members) and not orbit.truncated,
    }
    return doc, [
        f"member {m.index}: beltrami={m.report.max('beltrami'):.3e} "
        f"divergence={m.report.max('divergence'):.3e}"
        + (" (terminal null)" if m.terminal_null else "")
        for m in orbit.members
    ]


def cmd_gs(args) -> tuple[dict, list[str]]:
    theta = parse_scalar(args.theta)
    w3 = parse_univariate(args.w3)
    chi = parse_univariate(args.chi)
    prob = gs_problem_from_plane(args.chart, theta, w3=w3, chi=chi)
    rep = gs_residual(prob, _samples(args, prob.chart.default_domain()))
    doc = {
        "config": _config_doc(
            args, ("chart", "theta", "w3", "chi", "samples", "seed", "domain")
        ),
        "problem": prob.to_dict(),
        "report": rep.to_dict(),
    }
    return doc, _report_lines(rep)


def cmd_ggse(args) -> tuple[dict, list[str]]:
    data, default_domain = example_decomposition(args.name)
    rep = ggse_check(data, _samples(args, default_domain))
    gates = {"normalization": 1e-6, "ggse_lhs": 1e-6}
    doc = {
        "field": args.name,
        "config": _config_doc(args, ("samples", "seed", "domain")),
        "report": rep.to_dict(),
        "gates": gates,
        "passed": bool(rep.passes(gates)),
    }
    return doc, _report_lines(rep)


def cmd_composite(args) -> tuple[dict, list[str]]:
    core = clebsch.catalog(args.core)
    shell = beltrami.catalog(args.shell)
    pf = assemble(core, shell, eps=args.eps)
    rep = verify_composite(
        pf,
        samples_per_region=args.samples,
        mc_samples=args.mc_samples,
        seed=args.seed,
    )
    doc = {
        "config": _config_doc(args, ("core", "shell", "eps", "samples", "mc_samples", "seed")),
        "report": rep.to_dict(),
        "passed": bool(rep.passes()),
    }
    return doc, [
        f"L2 estimate: {rep.l2_estimate:.6f} +- {rep.l2_standard_error:.6f}",
        f"interface jump max/mean: {rep.interface_jump_max:.4f}/{rep.interface_jump_mean:.4f}",
        f"interface |w.n| core/shell: {rep.interface_flux_core_max:.4f}/{rep.interface_flux_shell_max:.4f}",
        f"outer boundary |w.n| max: {rep.boundary_flux_max:.4f}",
        f"core null dimension: {rep.core_killing.null_dim}",
    ]


def cmd_export(args) -> tuple[dict, list[str]]:
    """The grid as a JSON document, and as CSV lines: a header, then floats as
    %.17g, then the region tag of an assembly grid.  Under --format json, where
    only the document is written, the CSV lines are not formatted."""
    cols = ["x", "y", "z", "wx", "wy", "wz"]
    tags = None
    if args.name == "composite":
        pf = assemble(
            clebsch.catalog(args.core), beltrami.catalog(args.shell), eps=args.eps
        )
        pts = _grid(_parse_domain(args.domain) if args.domain else pf.ambient, args.grid)
        data = np.hstack([pts, pf.values(pts)])
        cols.append("region")
        tags = pf.region_tags(pts)
    else:
        entry = registry.get(args.name)
        pts = _grid(_parse_domain(args.domain) if args.domain else entry.domain, args.grid)
        data = np.hstack([pts, entry.field.values(pts)])
        if entry.chi is not None:
            cols.append("chi")
            data = np.column_stack([data, entry.chi.values(pts)])
    rows = data if tags is None else np.rec.fromarrays([*data.T, tags])
    doc = {"field": args.name, "columns": cols, "rows": rows}
    if args.format == "json":
        return doc, []
    fmt = ",".join(["%.17g"] * data.shape[1])
    lines = [fmt % tuple(row) for row in data.tolist()]
    if tags is not None:
        lines = [f"{line},{tag}" for line, tag in zip(lines, tags)]
    return doc, [",".join(cols), *lines]


_CHAR_TOL = 1e-6


def cmd_characteristics(args) -> tuple[dict, list[str]]:
    """Reproduce a catalog potential (or chart coefficient) by transport."""
    name = args.name
    if name in ("w4_1", "w4_2"):
        if name == "w4_2":
            data, closed = 2 * flog(y), z + 2 * flog(y)
        else:
            data, closed = 0.0 * y, -z
        prob = CharacteristicsProblem(
            advecting=vector(0.0, -y, 1.0),
            source=-1.0,
            initial=InitialCurve(surface=z, data=data),
            domain=Domain.box((-2, 0.02, -3), (2, 8, 3)),
        )
        targets = sample(Domain.box((-0.1, 0.5, 0.5), (0.1, 1.5, 1.5)), args.samples,
                         seed=args.seed)
        results = solve_characteristics(prob, targets)
        ref = closed.values(targets.points)
        vals, ok = results.value, results.ok
        sup = float(np.abs(vals[ok] - ref[ok]).max()) if ok.any() else float("inf")
        passed = bool(ok.all() and sup < _CHAR_TOL)
        result = {"quantity": "psi", "sup_error": sup, "n_failed": int((~ok).sum())}
        text = [f"sup error vs closed form: {sup:.3e} ({int(ok.sum())}/{len(ok)} points)"]
    elif name in ("abc_minimal", "cylindrical"):
        result, text, passed = {"quantity": "alpha"}, [], True
        try:
            alpha_from_characteristics(
                name, p=fsin(S) + T, g=-fsin(T), n_targets=args.samples,
                tol=_CHAR_TOL, seed=args.seed,
            )
        except ConstructionError as e:
            result["error"], text, passed = str(e), [f"error: {e}"], False
    else:
        raise ValueError(
            "characteristics supports w4_1, w4_2 (psi) and abc_minimal, cylindrical (alpha)"
        )
    doc = {
        "field": name,
        "config": _config_doc(args, ("samples", "seed")),
        **result,
        "passed": passed,
    }
    return doc, text


# ---------------------------------------------------------------------------


def _add_samples(p, samples):
    p.add_argument("--samples", type=int, default=samples)
    p.add_argument("--seed", type=int, default=0)


def _add_domain(p):
    p.add_argument("--domain", default=None, help="box:...|ball:...|sshell:...|cshell:...")


def _add_output(p, formats=("json", "text")):
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", default=None)


def _add_common(p, samples=1000):
    """The flags of a command that samples a domain of the user's choice (see `_samples`)."""
    _add_samples(p, samples)
    p.add_argument("--generator", choices=("halton", "random"), default="halton")
    _add_domain(p)
    _add_output(p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mhstools",
        description="Construct and verify magnetohydrostatic equilibrium fields.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list built-in fields")
    p.add_argument("rest", nargs="*")
    # catalog spells --format json as --json
    p.add_argument("--json", dest="format", action="store_const", const="json", default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("verify", help="run a field's residual suite")
    p.add_argument("name")
    p.add_argument("--h", default=None, help="override coefficient expression")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("symmetry", help="rigid-symmetry scan")
    p.add_argument("name")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    _add_common(p)
    p.set_defaults(fn=cmd_symmetry)

    p = sub.add_parser("orbit", help="Lie-transport orbit")
    p.add_argument("name")
    p.add_argument("--gen", required=True)
    p.add_argument("--n", type=int, default=1)
    _add_common(p, samples=400)
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("gs", help="reduced-equation residual")
    p.add_argument("--chart", choices=("translational", "axisymmetric"), required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--w3", default="0")
    p.add_argument("--chi", default="0")
    _add_common(p)
    p.set_defaults(fn=cmd_gs)

    p = sub.add_parser("ggse", help="generalized reduction check")
    p.add_argument("name", nargs="?", default="w4_1")
    _add_common(p, samples=500)
    p.set_defaults(fn=cmd_ggse)

    p = sub.add_parser("composite", help="piecewise boundary-value assembly")
    p.add_argument("--core", default="w4_1")
    p.add_argument("--shell", default="exp_x3")
    p.add_argument("--eps", type=float, default=0.4)
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=100_000)
    _add_samples(p, 1000)
    _add_output(p)
    p.set_defaults(fn=cmd_composite)

    p = sub.add_parser("export", help="sample a field on a regular grid")
    p.add_argument("name", help="catalog entry, or 'composite' for a tagged assembly grid")
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--core", default="w4_1")
    p.add_argument("--shell", default="exp_x3")
    p.add_argument("--eps", type=float, default=0.4)
    _add_domain(p)
    _add_output(p, formats=("json", "text", "csv"))
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("characteristics", help="transport solver vs closed forms")
    p.add_argument("name")
    _add_samples(p, 200)
    _add_output(p)
    p.set_defaults(fn=cmd_characteristics)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        doc, text = args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    doc = {"schema": SCHEMA, "command": args.command, **doc}
    code = 0
    if "passed" in doc:
        text = [*text, "passed" if doc["passed"] else "FAILED"]
        code = 0 if doc["passed"] else 1
    if args.format == "json" or (args.out and args.command != "export"):
        out = json.dumps(_finite(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        out = "\n".join(text) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
