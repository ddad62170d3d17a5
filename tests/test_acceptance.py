"""Acceptance suite: every exit criterion at its stated tolerance.

Each test evaluates one criterion, prints a single PASS/FAIL verdict line,
and then asserts.  Criterion 3 counts three rigid symmetries for
`abc_minimal`, the single-mode ABC flow (A = 1, B = C = 0): the field depends
on z only and turns about z-hat at the rate of its curl eigenvalue, so besides
x-hat and y-hat it is killed by the screw z-hat - z-hat x r.
"""

import json
import time

import numpy as np
from conftest import random_solenoidal_field

from mhstools import beltrami, clebsch
from mhstools.characteristics import (
    CharacteristicsProblem,
    InitialCurve,
    solve_characteristics,
)
from mhstools.checks import force_balance_residual
from mhstools.cli import main as cli_main
from mhstools.composite import assemble, verify_composite
from mhstools.domains import Domain, sample
from mhstools.fields import Gradient, log, sin, vector, x, y, z
from mhstools.gradshafranov import example_decomposition, ggse_check, gs_problem_from_plane, gs_residual, gs_reconstruct
from mhstools.lieops import commutator_defect, lie_generate
from mhstools.parsing import parse_univariate
from mhstools.reports import ConstructionError
from mhstools.symmetry import (
    CANONICAL_GENERATORS,
    S,
    T,
    KillingParams,
    alpha_from_characteristics,
    killing_scan,
    lie_euclidean,
)


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def spans(null_basis, target) -> bool:
    """True when the scan's null basis spans exactly the rows of target."""
    basis = np.array([list(k.a) + list(k.b) for k in null_basis])
    if basis.shape != target.shape:
        return False
    # projection of target onto the reported span is the identity
    proj = basis.T @ np.linalg.solve(basis @ basis.T, basis @ target.T)
    return np.allclose(proj.T, target, atol=1e-10)


def test_criterion_01_beltrami_catalog():
    worst = {}
    for name in ("abc_minimal", "cylindrical", "exp_x3", "zsq_x3", "example3"):
        rec = beltrami.catalog(name)
        rep = rec.residual_report(sample(rec.domain, 1000))
        worst[name] = (rep.max("beltrami"), rep.max("divergence"))
    ok = all(b < 1e-8 and d < 1e-8 for b, d in worst.values())
    detail = "; ".join(f"{k}: curl {b:.1e}, div {d:.1e}" for k, (b, d) in worst.items())
    verdict(1, ok, f"eigenfield catalog residuals [{detail}]")
    assert ok


def test_criterion_02_pressure_catalog():
    worst = {}
    for name in ("w4_1", "w4_2", "w4_3", "w4_4"):
        sol = clebsch.catalog(name)
        rep = sol.residual_report(sample(sol.domain, 1000))
        worst[name] = rep.max("force_balance")
    sol = clebsch.catalog("w4_1")
    w0 = sol.w((0.0, 0.0, 0.0))
    g0 = Gradient(sol.chi)((0.0, 0.0, 0.0))
    spot_ok = (
        np.abs(w0 - np.array([1.0, 0.0, 1.0])).max() < 1e-12
        and np.abs(g0 - np.array([1.0, 0.0, -1.0])).max() < 1e-12
    )
    ok = all(v < 1e-8 for v in worst.values()) and spot_ok
    detail = "; ".join(f"{k}: {v:.1e}" for k, v in worst.items())
    verdict(2, ok, f"pressure catalog force balance [{detail}; spot values {'ok' if spot_ok else 'BAD'}]")
    assert ok


def test_criterion_03_symmetry_verdict_table():
    stated = {
        # x-hat, y-hat and the screw z-hat - z-hat x r
        "abc_minimal": 3,
        # rotation about z-hat
        "cylindrical": 1,
        "exp_x3": 0,
        "zsq_x3": 0,
        "w4_1": 0,
        "w4_2": 0,
        "w4_3": 0,
    }
    # generators (a, b) of a + b x r that the stated null spaces consist of
    stated_span = {
        "abc_minimal": np.array(
            [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, -1]], float
        ),
        "cylindrical": np.array([[0, 0, 0, 0, 0, 1]], float),
    }
    measured = {}
    stable = True
    span_ok = True
    for name in stated:
        if name.startswith("w4"):
            entry = clebsch.catalog(name)
            field, domain = entry.w, entry.domain
        else:
            entry = beltrami.catalog(name)
            field, domain = entry.field, entry.domain
        scans = (
            killing_scan(field, domain, samples=sample(domain, 500)),
            killing_scan(field, domain, samples=sample(domain, 1000)),
            killing_scan(field, domain,
                         samples=sample(domain, 500, generator="random", seed=42)),
        )
        measured[name] = scans[0].null_dim
        stable &= len({rep.null_dim for rep in scans}) == 1
        if name in stated_span:
            span_ok &= all(spans(rep.null_basis, stated_span[name]) for rep in scans)
    ok = stable and measured == stated and span_ok
    verdict(
        3,
        ok,
        f"stated {tuple(stated.values())}, measured {tuple(measured.values())}, "
        f"stable under doubling/reseeding: {stable}, stated spans: {span_ok}",
    )
    assert stable, "verdicts must be sampling-stable"
    assert measured == stated, (
        f"measured null dimensions {measured} differ from the stated table "
        f"{stated}; the single-mode ABC flow depends on z only and turns about "
        f"z-hat at its curl eigenvalue rate, so it carries x-hat, y-hat and "
        f"the screw z-hat - z-hat x r"
    )
    assert span_ok, (
        "null bases must span x-hat, y-hat, z-hat - z-hat x r for abc_minimal "
        "and the rotation about z-hat for cylindrical"
    )


def test_criterion_04_killing_sanity_oracle():
    w = vector(1.0, 0.0, 0.0)
    domain = Domain.ball((0.0, 0.0, 0.0), 1.0)
    rep = killing_scan(w, domain, samples=sample(domain, 600))
    pts = sample(domain, 200).points
    brute = [
        np.abs(lie_euclidean(w, g).values(pts)).max() < 1e-12
        for g in CANONICAL_GENERATORS
    ]
    brute_dim = sum(brute)
    target = np.zeros((4, 6))
    target[0, 0] = target[1, 1] = target[2, 2] = target[3, 3] = 1.0
    span_ok = spans(rep.null_basis, target)
    ok = rep.null_dim == 4 == brute_dim and span_ok
    verdict(
        4,
        ok,
        f"constant field null dim {rep.null_dim} (brute force {brute_dim}); "
        f"basis spans translations + field-axis rotation: {span_ok}",
    )
    assert ok


def test_criterion_05_commutator_property():
    rng = np.random.default_rng(2024)
    ss = sample(Domain.ball((0.0, 0.0, 0.0), 1.0), 200)
    worst = 0.0
    for _ in range(50):
        w = random_solenoidal_field(rng)
        k = KillingParams(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
        rep = commutator_defect(w, k, ss)
        worst = max(worst, rep.max("commutator"))
    ok = worst < 1e-10
    verdict(5, ok, f"50 random solenoidal fields, max defect {worst:.2e}")
    assert ok


def test_criterion_06_orbit_generation():
    rec = beltrami.catalog("zsq_x3")
    ss = sample(rec.domain, 400)
    # transport along the x-translation reproduces the field pointwise
    lw = lie_euclidean(rec.field, KillingParams((1, 0, 0), (0, 0, 0)))
    fixed = np.abs((lw - rec.field).values(ss.points)).max()
    # rotational transport: catalog-grade checks with the shared coefficient
    orbit = lie_generate(rec, KillingParams((0, 0, 0), (0, 0, 1)), 1, samples=ss)
    m1 = orbit.members[1]
    bel = m1.report.max("beltrami")
    dv = m1.report.max("divergence")
    dim = killing_scan(m1.field, rec.domain, samples=sample(rec.domain, 600)).null_dim
    ok = fixed < 1e-9 and bel < 1e-8 and dv < 1e-8 and dim == 0
    verdict(
        6,
        ok,
        f"translation fixes field to {fixed:.1e}; rotated member: curl {bel:.1e}, "
        f"div {dv:.1e}, null dim {dim}",
    )
    assert ok


def test_criterion_07_reduced_equation():
    prob = gs_problem_from_plane(
        "translational",
        (x**2 + y**2) / 2,
        w3=parse_univariate("1"),
        chi=parse_univariate("2*T"),
    )
    ss = sample(Domain.ball((0.0, 0.0, 0.0), 1.0), 1000)
    rep = gs_residual(prob, ss)
    w, chi = gs_reconstruct(prob)
    fb = force_balance_residual(w, chi, ss)
    ok = rep.max("gs_residual") < 1e-10 and fb.max("force_balance") < 1e-9
    verdict(
        7,
        ok,
        f"reduced residual {rep.max('gs_residual'):.1e}, reconstruction "
        f"force balance {fb.max('force_balance'):.1e}",
    )
    assert ok


def test_criterion_08_generalized_reduction():
    data, domain = example_decomposition("w4_1")
    ss = sample(domain, 500)
    rep = ggse_check(data, ss)
    ok = rep.max("normalization") < 1e-6 and rep.max("ggse_lhs") < 1e-6
    verdict(
        8,
        ok,
        f"normalization {rep.max('normalization'):.1e}, projected balance "
        f"{rep.max('ggse_lhs'):.1e} (sign convention confirmed, LHS = +1)",
    )
    assert ok


def test_criterion_09_characteristics():
    box = Domain.box((-0.1, 0.5, 0.5), (0.1, 1.5, 1.5))
    targets = sample(box, 200)
    errs = {}
    cases = (
        ("psi_4_1", vector(0.0, -y, 1.0), InitialCurve(surface=z, data=0.0 * y), -z,
         Domain.box((-2, 0.02, -3), (2, 8, 3))),
        ("psi_4_2", vector(0.0, -y, 1.0), InitialCurve(surface=z, data=2 * log(y)),
         z + 2 * log(y), Domain.box((-2, 0.02, -3), (2, 8, 3))),
        ("psi_4_3", vector(0.0, -2 * y, z), InitialCurve(surface=z - 1.0, data=log(y)),
         log(y * z), Domain.box((-2, 0.02, 0.02), (2, 8, 8))),
    )
    for name, adv, initial, closed, box_dom in cases:
        prob = CharacteristicsProblem(
            advecting=adv, source=-1.0, initial=initial, domain=box_dom
        )
        res = solve_characteristics(prob, targets)
        vals = np.array([r.value for r in res])
        ref = closed.values(targets.points)
        errs[name] = float(np.abs(vals - ref).max()) if all(r.ok for r in res) else np.inf
    for name, p, g in (
        ("alpha_planar", sin(S) + T, 0.0 * T),
        ("alpha_cylindrical", 0.0 * S + 1.0, -sin(T)),
    ):
        try:
            alpha_from_characteristics(
                name.replace("alpha_planar", "abc_minimal").replace(
                    "alpha_cylindrical", "cylindrical"
                ),
                p=p,
                g=g,
                n_targets=200,
                tol=1e-6,
            )
            errs[name] = 0.0
        except ConstructionError:
            errs[name] = np.inf
    ok = all(v < 1e-6 for v in errs.values())
    verdict(9, ok, "; ".join(f"{k}: {v:.1e}" for k, v in errs.items()))
    assert ok


def test_criterion_10_composite_assembly():
    t0 = time.time()
    pf = assemble(clebsch.catalog("w4_1"), beltrami.catalog("exp_x3"), eps=0.4)
    rep = verify_composite(pf, samples_per_region=1000, mc_samples=100_000)
    elapsed = time.time() - t0
    rel_se = rep.l2_standard_error / rep.l2_estimate
    ok = (
        np.isfinite(rep.l2_estimate)
        and rel_se < 0.02
        and elapsed < 120.0
        and rep.core_report.max("force_balance") < 1e-8
        and rep.core_report.max("divergence") < 1e-8
        and rep.shell_report.max("beltrami") < 1e-8
        and rep.shell_report.max("divergence") < 1e-8
        and rep.core_killing.null_dim == 0
    )
    verdict(
        10,
        ok,
        f"L2 {rep.l2_estimate:.3f} (rel SE {rel_se:.2%}), regions "
        f"{rep.core_report.max('force_balance'):.1e}/{rep.shell_report.max('beltrami'):.1e}, "
        f"core null dim {rep.core_killing.null_dim}, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_11_determinism(tmp_path, capsys):
    configs = [
        ("verify", "w4_1", "--samples", "400"),
        ("symmetry", "exp_x3", "--samples", "400", "--generator", "random", "--seed", "9"),
        ("orbit", "zsq_x3", "--gen", "rot-z", "--n", "1", "--samples", "200"),
    ]
    ok = True
    for i, argv in enumerate(configs):
        f1 = tmp_path / f"{i}_a.json"
        f2 = tmp_path / f"{i}_b.json"
        cli_main([*argv, "--out", str(f1)])
        cli_main([*argv, "--out", str(f2)])
        ok &= f1.read_bytes() == f2.read_bytes()
        json.loads(f1.read_text())  # valid JSON
    capsys.readouterr()
    verdict(11, ok, f"{len(configs)} configurations re-run byte-identically")
    assert ok
