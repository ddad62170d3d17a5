"""Curl-eigenfield catalog and constructors.

A Beltrami record pairs a solenoidal field w with the scalar coefficient h
in curl w = h w.  Records built from a pair of harmonic conjugates (u, v) in
the x-y plane and an axial angle sigma(z) satisfy the relation with
h = d(sigma)/dz; the catalog additionally carries closed-form entries whose
coefficients and natural domains are pinned here for reproducibility.
"""

from __future__ import annotations

import functools

import numpy as np

from . import fields as F
from .checks import residual_report
from .domains import DEFAULT_SAMPLES, Domain, SampleSet, sample
from .fields import (
    Divergence,
    Dot,
    Gradient,
    ScalarField,
    VComponent,
    VectorField,
    cos,
    exp,
    sin,
    vector,
    x,
    y,
    z,
)
from .reports import ConstructionError, Record, ResidualReport

# Construction-time gates.
BELTRAMI_TOL = 1e-8
DIVERGENCE_TOL = 1e-8
HARMONIC_TOL = 1e-9


class HarmonicPair(Record, frozen=True):
    """Conjugate harmonic functions u, v of (x, y): u_x = v_y, u_y = -v_x."""

    u: ScalarField
    v: ScalarField

    def residual_report(self, samples: SampleSet) -> ResidualReport:
        gu, gv = Gradient(self.u), Gradient(self.v)
        return residual_report(
            "harmonic_pair",
            samples,
            {
                "cauchy_riemann_1": VComponent(gu, 0) - VComponent(gv, 1),
                "cauchy_riemann_2": VComponent(gu, 1) + VComponent(gv, 0),
                "laplace_u": Divergence(gu),
                "laplace_v": Divergence(gv),
                "z_independence": VComponent(gu, 2) + VComponent(gv, 2),
            },
        )

    def verify(self, samples: SampleSet) -> ResidualReport:
        rep = self.residual_report(samples)
        gates = {k: HARMONIC_TOL for k in rep.checks}
        if not rep.passes(gates):
            raise ConstructionError(
                "not a conjugate harmonic pair: "
                + ", ".join(f"{k}={v.max:.3e}" for k, v in rep.checks.items()),
                rep,
            )
        return rep


class AdmissibleChart(Record, frozen=True):
    """Curvilinear coordinates feeding the angle-form construction."""

    x1: ScalarField
    x2: ScalarField
    x3: ScalarField
    orthogonal: bool = False


class BeltramiRecord(Record, frozen=True):
    """A solenoidal curl eigenfield with its coefficient and natural domain."""

    field: VectorField
    h: ScalarField
    domain: Domain
    provenance: str
    name: str = ""

    def residual_report(self, samples: SampleSet | None = None) -> ResidualReport:
        """Eigenrelation and divergence residuals; by default on 1000 Halton points."""
        if samples is None:
            samples = sample(self.domain, DEFAULT_SAMPLES)
        return beltrami_residual(self.field, self.h, samples, label=self.name or "beltrami")

    def helicity_density(self) -> ScalarField:
        return Dot(self.field, F.Curl(self.field))

    def to_dict(self):
        return {
            "name": self.name,
            "components": [
                VComponent(self.field, i).render() if not isinstance(self.field, F.FromComponents)
                else [self.field.fx, self.field.fy, self.field.fz][i].render()
                for i in range(3)
            ],
            "h": self.h.render(),
            "domain": self.domain.to_dict(),
            "provenance": self.provenance,
        }


def beltrami_residual(w: VectorField, h: ScalarField, samples: SampleSet,
                      label: str = "beltrami", memo: dict | None = None) -> ResidualReport:
    """|curl w - h w| and |div w| statistics (`memo` as in `residual_report`)."""
    res = F.Curl(w) - F.VScale(h, w)
    return residual_report(label, samples, {"beltrami": res, "divergence": Divergence(w)},
                           memo)


def from_harmonic_pair(
    pair: HarmonicPair,
    sigma: ScalarField,
    domain: Domain | None = None,
    name: str = "",
) -> BeltramiRecord:
    """Build w = cos(sigma) grad v + sin(sigma) grad u with h = d(sigma)/dz.

    sigma must depend on z only, with nonvanishing derivative on the domain;
    the record self-verifies the eigenrelation and solenoidality before it is
    returned.
    """
    if domain is None:
        domain = Domain.ball((0.0, 0.0, 0.0), 1.0)
    samples = sample(domain, DEFAULT_SAMPLES)
    pair.verify(samples)

    gs = Gradient(sigma)
    sig_rep = residual_report(
        "sigma_axial",
        samples,
        {"sigma_x": VComponent(gs, 0), "sigma_y": VComponent(gs, 1)},
    )
    if not sig_rep.passes({"sigma_x": HARMONIC_TOL, "sigma_y": HARMONIC_TOL}):
        raise ConstructionError("sigma must depend on z only", sig_rep)
    h = VComponent(gs, 2)
    hvals = h.values(samples.points)
    if not np.isfinite(hvals).all():
        raise ConstructionError("d(sigma)/dz could not be evaluated on the domain")
    if hvals.min() < 0.0 < hvals.max() or np.abs(hvals).min() < 1e-9 * max(
        1.0, np.abs(hvals).max()
    ):
        raise ConstructionError("d(sigma)/dz must not vanish on the domain")

    w = F.VScale(F.Cos(sigma), Gradient(pair.v)) + F.VScale(F.Sin(sigma), Gradient(pair.u))
    rec = BeltramiRecord(field=w, h=h, domain=domain, name=name or "harmonic_pair_field",
                         provenance=f"cos(s)*grad({pair.v.render()}) + sin(s)*grad({pair.u.render()}), s = {sigma.render()}")
    rep = rec.residual_report(samples)
    if not rep.passes({"beltrami": BELTRAMI_TOL, "divergence": DIVERGENCE_TOL}):
        raise ConstructionError(
            f"construction failed verification: beltrami={rep.max('beltrami'):.3e}, "
            f"divergence={rep.max('divergence'):.3e}",
            rep,
        )
    return rec


def verify_admissible(chart: AdmissibleChart, samples: SampleSet) -> ResidualReport:
    """Residuals of the metric conditions the chart must satisfy.

    General charts: the three mixed-angle conditions on g^{ij} and the
    Laplacians.  Orthogonal charts: equality of the first two diagonal metric
    entries, the solenoidality condition, and vanishing off-diagonal entries.
    """
    g1, g2, g3 = Gradient(chart.x1), Gradient(chart.x2), Gradient(chart.x3)
    g11, g22 = Dot(g1, g1), Dot(g2, g2)
    g12, g13, g23 = Dot(g1, g2), Dot(g1, g3), Dot(g2, g3)
    l1, l2 = Divergence(g1), Divergence(g2)
    c, s = cos(chart.x3), sin(chart.x3)
    if chart.orthogonal:
        channels = {
            "diagonal_equality": g11 - g22,
            "solenoidality": c * l2 + s * l1,
            "orthogonality_12": g12,
            "orthogonality_13": g13,
            "orthogonality_23": g23,
        }
        label = "admissible_orthogonal"
    else:
        channels = {
            "angle_metric": c * s * (g22 - g11) - g12 * (c * c - s * s),
            "axial_metric": s * g13 + c * g23,
            "solenoidality": c * (g13 + l2) + s * (l1 - g23),
        }
        label = "admissible_general"
    return residual_report(label, samples, channels)


def verify_h_invariance(rec: BeltramiRecord, samples: SampleSet) -> ResidualReport:
    """|w . grad h| statistics: the coefficient must be constant along w."""
    return residual_report(
        "h_invariance", samples, {"h_invariance": Dot(rec.field, Gradient(rec.h))}
    )


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _abc_minimal() -> BeltramiRecord:
    w = vector(sin(z), cos(z), 0.0)
    return BeltramiRecord(
        field=w,
        h=F.Const(1.0),
        domain=Domain.ball((0.0, 0.0, 0.0), 1.0),
        provenance="single-mode ABC flow (A = 1, B = C = 0): cos(z)*grad(y) + sin(z)*grad(x)",
        name="abc_minimal",
    )


def _cylindrical() -> BeltramiRecord:
    r2 = x**2 + y**2
    w = vector((x * cos(z) - y * sin(z)) / r2, (y * cos(z) + x * sin(z)) / r2, 0.0)
    return BeltramiRecord(
        field=w,
        h=F.Const(-1.0),
        domain=Domain.cylindrical_shell(0.5, 1.5, -1.0, 1.0),
        provenance="cos(z)*grad(log(r)) + sin(z)*grad(atan2(y, x)); |w| = 1/r",
        name="cylindrical",
    )


def _angled_exponential(angle: ScalarField, h: ScalarField, domain: Domain,
                        name: str, tag: str) -> BeltramiRecord:
    w = vector(-exp(x) * cos(y + angle), exp(x) * sin(y + angle), 0.0)
    return BeltramiRecord(field=w, h=h, domain=domain, provenance=tag, name=name)


def _exp_x3() -> BeltramiRecord:
    return _angled_exponential(
        exp(z),
        exp(z),
        Domain.ball((0.0, 0.0, 0.0), 1.0),
        "exp_x3",
        "harmonic pair (e^x sin y, -e^x cos y) with axial angle e^z",
    )


_HALF_SPACE_BOX = Domain.box((-1.0, -1.0, 0.5), (1.0, 1.0, 1.5))


def _zsq_x3() -> BeltramiRecord:
    return _angled_exponential(
        z**2,
        2.0 * z,
        _HALF_SPACE_BOX,
        "zsq_x3",
        "harmonic pair (e^x sin y, -e^x cos y) with axial angle z^2",
    )


def _example3() -> BeltramiRecord:
    return _zsq_x3().replace(
        name="example3",
        provenance="zsq_x3 field in the chart (e^x sin y, -e^x cos y, z^2); z > 0 branch",
    )


_BUILDERS = {
    "abc_minimal": _abc_minimal,
    "cylindrical": _cylindrical,
    "exp_x3": _exp_x3,
    "zsq_x3": _zsq_x3,
    "example3": _example3,
}
CATALOG_NAMES = tuple(_BUILDERS)


@functools.cache
def _built(name: str) -> BeltramiRecord:
    return _BUILDERS[name]()


def catalog(name: str) -> BeltramiRecord:
    """Return a named entry (field, coefficient, natural domain), built once per process."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown catalog entry {name!r}; choose from {', '.join(CATALOG_NAMES)}")
    return _built(name)
