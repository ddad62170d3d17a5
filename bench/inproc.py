"""In-process operations: one public mhstools call (or a short fixed chain
of them, sampling included) per operation, each followed by an output check.

Every library function is looked up on its module at call time, so the
tracer's wrappers see the calls.  Checks compare verdicts against gates,
never stored floats, and run with the tracer paused.
"""

from __future__ import annotations

import numpy as np

from mhstools import (
    beltrami,
    characteristics,
    clebsch,
    domains,
    fields,
    gradshafranov,
    lieops,
    parsing,
    registry,
    symmetry,
)

from plans import (
    BELTRAMI_GATES,
    COMMUTATOR_GATE,
    EXPECTED_NULL_DIM,
    GGSE_GATES,
    GS_GATE,
    PRESSURE_GATES,
    TRANSPORT_TOL,
)

_TARGET_BOX = ((-0.1, 0.5, 0.5), (0.1, 1.5, 1.5))


def _maxima(rep) -> dict[str, float]:
    return {k: st.max for k, st in rep.checks.items()}


def _samples(ctx, domain, spec):
    return ctx.call(domains.sample, domain, spec["n"], generator="random", seed=spec["seed"])


def _generator(spec):
    return symmetry.KillingParams(tuple(spec["a"]), tuple(spec["b"]))


# catalog-sweep -------------------------------------------------------------


def op_build(spec, ctx, state):
    entry = ctx.call(registry.get, spec["name"])
    state[spec["name"]] = entry
    return entry.name == spec["name"]


def op_clebsch_family(spec, ctx, state):
    sol = ctx.call(clebsch.make_clebsch_family, *spec["params"],
                   domains.Domain.box((-1.0, 0.5, 0.5), (1.0, 1.5, 1.5)))
    state["clebsch_family"] = sol
    return True


def op_harmonic_pair(spec, ctx, state):
    x, y, z = fields.x, fields.y, fields.z
    pair = beltrami.HarmonicPair(fields.exp(x) * fields.sin(y), -fields.exp(x) * fields.cos(y))
    c1, c2 = spec["coeffs"]
    rec = ctx.call(beltrami.from_harmonic_pair, pair, c1 * z + c2 * z**2,
                   domain=domains.Domain.box((-1.0, -1.0, 0.5), (1.0, 1.0, 1.5)))
    state["harmonic_pair"] = rec
    return True


def op_verify(spec, ctx, state):
    """The residual suite of `mhstools verify`, under the CLI's gates."""
    obj = state[spec["name"]]
    if isinstance(obj, registry.FieldEntry):
        obj = obj.record if obj.kind == "beltrami" else obj.solution
    ss = _samples(ctx, obj.domain, spec)
    if isinstance(obj, beltrami.BeltramiRecord):
        rep = ctx.call(beltrami.beltrami_residual, obj.field, obj.h, ss)
        hin = ctx.call(beltrami.verify_h_invariance, obj, ss)
        with ctx.checking():
            return ctx.gate({**_maxima(rep), **_maxima(hin)}, BELTRAMI_GATES)
    rep = ctx.call(obj.residual_report, ss)
    with ctx.checking():
        vals = _maxima(rep)
        return ctx.gate(vals, {k: v for k, v in PRESSURE_GATES.items() if k in vals})


def op_scan(spec, ctx, state):
    entry = state[spec["name"]]
    ss = _samples(ctx, entry.domain, spec)
    rep = ctx.call(symmetry.killing_scan, entry.field, entry.domain, samples=ss)
    return rep.null_dim == EXPECTED_NULL_DIM.get(spec["name"], 0)


def op_gs(spec, ctx, state):
    x, y = fields.x, fields.y
    c = spec["c"]
    prob = ctx.call(gradshafranov.gs_problem_from_plane, "translational",
                    c * (x**2 + y**2) / 2, w3=parsing.parse_univariate(repr(spec["w3"])),
                    chi=parsing.parse_univariate(f"{2 * c!r}*T"))
    ss = _samples(ctx, prob.chart.default_domain(), spec)
    rep = ctx.call(gradshafranov.gs_residual, prob, ss)
    with ctx.checking():
        return ctx.gate(_maxima(rep), {"gs_residual": GS_GATE})


def op_ggse(spec, ctx, state):
    data, domain = ctx.call(gradshafranov.example_decomposition, "w4_1")
    ss = _samples(ctx, domain, spec)
    rep = ctx.call(gradshafranov.ggse_check, data, ss)
    with ctx.checking():
        return ctx.gate(_maxima(rep), GGSE_GATES)


# orbit-transport -----------------------------------------------------------


def op_orbit(spec, ctx, state):
    rec = ctx.call(beltrami.catalog, spec["name"])
    ss = _samples(ctx, rec.domain, spec)
    orbit = ctx.call(lieops.lie_generate, rec, _generator(spec), spec["depth"], samples=ss)
    ok = not orbit.truncated and len(orbit.members) == spec["depth"] + 1
    for m in orbit.members:
        worst = max(m.report.max("beltrami"), m.report.max("divergence"))
        ctx.extras[f"member_{m.index}"] = worst
        ctx.residuals.append(worst)
        ok &= m.passed and worst < m.gate
    return ok


def op_commutator(spec, ctx, state):
    """Commutator defect of the field or of its depth-1 member along the generator."""
    rec = ctx.call(beltrami.catalog, spec["name"])
    ss = _samples(ctx, rec.domain, spec)
    k = _generator(spec)
    w = ctx.call(symmetry.lie_euclidean, rec.field, k) if spec["member"] else rec.field
    rep = ctx.call(lieops.commutator_defect, w, k, ss)
    ctx.extras["commutator"] = rep.max("commutator")
    return ctx.gate(_maxima(rep), {"commutator": COMMUTATOR_GATE})


# characteristics -----------------------------------------------------------


def _psi_problem(name):
    x, y, z, log, vector = fields.x, fields.y, fields.z, fields.log, fields.vector
    if name == "w4_3":
        return characteristics.CharacteristicsProblem(
            advecting=vector(0.0, -2 * y, z), source=-1.0,
            initial=characteristics.InitialCurve(surface=z - 1.0, data=log(y)),
            domain=domains.Domain.box((-2, 0.02, 0.02), (2, 8, 8)),
        ), log(y * z)
    data, closed = (0.0 * y, -z) if name == "w4_1" else (2 * log(y), z + 2 * log(y))
    return characteristics.CharacteristicsProblem(
        advecting=vector(0.0, -y, 1.0), source=-1.0,
        initial=characteristics.InitialCurve(surface=z, data=data),
        domain=domains.Domain.box((-2, 0.02, -3), (2, 8, 3)),
    ), closed


def op_psi(spec, ctx, state):
    """The psi potential of a pressure entry by transport, against its closed form."""
    prob, closed = _psi_problem(spec["name"])
    targets = _samples(ctx, domains.Domain.box(*_TARGET_BOX), spec)
    results = ctx.call(characteristics.solve_characteristics, prob, targets)
    with ctx.checking():
        ok = np.array([r.ok for r in results])
        vals = np.array([r.value for r in results])
        err = float(np.abs(vals - closed.values(targets.points)).max()) if ok.all() else np.inf
        ctx.extras["err"] = err
        ctx.extras["estimate"] = max(r.error_estimate for r in results)
        return ctx.gate({"sup_error": err}, {"sup_error": TRANSPORT_TOL})


def op_alpha(spec, ctx, state):
    """Chart coefficient by transport; the library raises on a mismatch.

    Its targets are Halton points, whose seed the library ignores, so the run
    seed reaches this operation through the free functions p and g only.  The
    fixed seed 0 keeps the targets when a later release honours that seed.
    """
    S, T, sin = symmetry.S, symmetry.T, fields.sin
    c1, c2 = spec["p"]
    ctx.call(symmetry.alpha_from_characteristics, spec["name"], p=sin(c1 * S) + c2 * T,
             g=-spec["g"] * sin(T), n_targets=spec["n"], tol=TRANSPORT_TOL, seed=0)
    return True


OPS = {
    "build": op_build,
    "verify": op_verify,
    "scan": op_scan,
    "clebsch_family": op_clebsch_family,
    "harmonic_pair": op_harmonic_pair,
    "gs": op_gs,
    "ggse": op_ggse,
    "orbit": op_orbit,
    "commutator": op_commutator,
    "psi": op_psi,
    "alpha": op_alpha,
}
