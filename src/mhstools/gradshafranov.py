"""Flux-function reductions of force balance under an ignorable coordinate.

Two canonical symmetric charts are provided: translational (ignorable z)
and axisymmetric (ignorable azimuth).  For a flux function Theta of the two
remaining coordinates and prescribed profiles w3(Theta), chi(Theta), the
scalar residual

    Lap(Theta) - grad Theta . grad log g33 - g33 chi'(Theta)
    + (w3^2)'(Theta)/2 - g33 w3(Theta) div(tangent x grad x3 / g33)

vanishes exactly when the reconstructed three-dimensional field solves the
force-balance system.  The final divergence term is identically zero in both
canonical charts (the axis tangent is parallel to grad x3) and is evaluated
explicitly as a consistency channel.

The module also checks the symmetry-free generalization: given a Clebsch
split w = Psi grad Theta + grad Phi with curl w = grad x1 x grad x2, the
normalization Psi_1 Theta_2 - Psi_2 Theta_1 = 1 and the projected balance
equation (whose left-hand side must equal one) are verified sample-wise.
"""

from __future__ import annotations

import numpy as np

from . import clebsch
from . import fields as F
from .checks import residual_report, scalar_abs_stats
from .domains import Domain, SampleSet
from .fields import (
    Compose1,
    Cross,
    Divergence,
    Dot,
    Gradient,
    ScalarField,
    VectorField,
    evaluate,
    exp,
    log,
    sqrt,
    substitute,
    vector,
    x,
    y,
    z,
)
from .reports import ConstructionError, Record, ResidualReport

SYMMETRY_TOL = 1e-9
SINGULAR_TOL = 1e-10  # |grad Theta| below which a sample is singular for ggse_check


class SymmetricChart(Record, frozen=True):
    """Canonical chart with an ignorable third coordinate.

    kind "translational": plane slots (x, y), tangent z-hat, g33 = 1.
    kind "axisymmetric": plane slots (r, z), tangent (-y, x, 0), g33 = r^2.
    Both canonical charts have unit Jacobian (for the axisymmetric one this
    is realized by the flux pair (z, r^2/2) dual to the azimuth tangent).
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("translational", "axisymmetric"):
            raise ValueError(f"unknown chart kind {self.kind!r}")

    @property
    def g33(self) -> ScalarField:
        if self.kind == "translational":
            return F.Const(1.0)
        return x**2 + y**2

    @property
    def axis_tangent(self) -> VectorField:
        if self.kind == "translational":
            return vector(0.0, 0.0, 1.0)
        return vector(-y, x, 0.0)

    @property
    def grad_x3(self) -> VectorField:
        if self.kind == "translational":
            return vector(0.0, 0.0, 1.0)
        r2 = x**2 + y**2
        return vector(-y / r2, x / r2, 0.0)

    def embed(self, plane_expr: ScalarField) -> ScalarField:
        """Spatial field from an expression in the chart's plane slots."""
        if self.kind == "translational":
            return plane_expr
        return substitute(plane_expr, {"x": sqrt(x**2 + y**2), "y": z})

    def default_domain(self) -> Domain:
        if self.kind == "translational":
            return Domain.ball((0.0, 0.0, 0.0), 1.0)
        return Domain.cylindrical_shell(0.5, 1.5, -1.0, 1.0)


class GSProblem(Record, frozen=True):
    """Flux function plus
    univariate profiles for the reduced force-balance equation."""

    chart: SymmetricChart
    theta: ScalarField  # spatial field, constant along the axis tangent
    w3: ScalarField  # univariate expression in T (covariant axis component)
    chi: ScalarField  # univariate expression in T

    def verify_symmetry(self, samples: SampleSet) -> None:
        drift = Dot(self.chart.axis_tangent, Gradient(self.theta))
        st, _ = scalar_abs_stats(drift, samples)
        if not (st.max < SYMMETRY_TOL):
            raise ConstructionError(
                f"flux function varies along the ignorable direction (max {st.max:.3e})"
            )

    def to_dict(self):
        return {
            "chart": self.chart.kind,
            "theta": self.theta.render(),
            "w3": self.w3.render(),
            "chi": self.chi.render(),
        }


def gs_problem_from_plane(chart_kind: str, theta_plane: ScalarField,
                          w3: ScalarField, chi: ScalarField) -> GSProblem:
    chart = SymmetricChart(chart_kind)
    return GSProblem(chart=chart, theta=chart.embed(theta_plane), w3=w3, chi=chi)


def _residual_field(prob: GSProblem) -> tuple[ScalarField, ScalarField]:
    chart, theta = prob.chart, prob.theta
    g33 = chart.g33
    gtheta = Gradient(theta)
    lap = Divergence(gtheta)
    chi_prime = Compose1(prob.chi, theta, var="T")
    w3_of = substitute(prob.w3, {"T": theta})
    w3_prime = Compose1(prob.w3, theta, var="T")
    axial = Divergence(F.VScale(1.0 / g33, Cross(chart.axis_tangent, chart.grad_x3)))
    residual = lap - g33 * chi_prime + w3_of * w3_prime - g33 * w3_of * axial
    if chart.kind == "axisymmetric":
        residual = residual - Dot(gtheta, Gradient(F.Log(g33)))
    return residual, axial


def gs_residual(prob: GSProblem, samples: SampleSet) -> ResidualReport:
    """Pointwise residual of the reduced equation, plus consistency channels."""
    prob.verify_symmetry(samples)
    residual, axial = _residual_field(prob)
    return residual_report(
        "gs_residual",
        samples,
        {"gs_residual": residual, "axial_term": axial},
    )


def gs_reconstruct(prob: GSProblem) -> tuple[VectorField, ScalarField]:
    """Three-dimensional field and pressure function of a reduced problem.

    w = grad Theta x grad x3 + (w3(Theta)/g33) tangent; when the reduced
    residual vanishes, the pair passes the full force-balance check.
    """
    chart, theta = prob.chart, prob.theta
    w3_of = substitute(prob.w3, {"T": theta})
    w = Cross(Gradient(theta), chart.grad_x3) + F.VScale(
        w3_of / chart.g33, chart.axis_tangent
    )
    chi_field = substitute(prob.chi, {"T": theta})
    return w, chi_field


# ---------------------------------------------------------------------------
# generalized (symmetry-free) form
# ---------------------------------------------------------------------------


class GGSData(Record, frozen=True):
    """Clebsch split of a finite-pressure solution for the generalized check.

    x1, x2 are coordinates with curl w = grad x1 x grad x2; Theta and Psi are
    functions of them with Psi_1 Theta_2 - Psi_2 Theta_1 = 1; Phi (optional)
    is the single-valued potential with w = Psi grad Theta + grad Phi.
    """

    w: VectorField
    theta: ScalarField
    psi: ScalarField
    x1: ScalarField
    x2: ScalarField
    phi: ScalarField | None = None


def ggse_check(data: GGSData, samples: SampleSet) -> ResidualReport:
    """Residuals of the generalized reduction on the given samples.

    Channels: the normalization Psi_1 Theta_2 - Psi_2 Theta_1 - 1, the
    projected balance LHS - 1, the curl identity |curl w - grad Psi x grad
    Theta|, and the reconstruction gap |w - (Psi grad Theta + grad Phi)|
    when Phi is supplied.  Refuses (raises ConstructionError) when the
    flux gradient vanishes on most of the sample set, as happens for
    constant-pressure fields.
    """
    gtheta = Gradient(data.theta)
    norm2 = Dot(gtheta, gtheta)
    n2, _ = evaluate(norm2, samples.points)
    singular = ~np.isfinite(n2) | (n2 < SINGULAR_TOL**2)
    if singular.mean() > 0.5:
        raise ConstructionError(
            "grad Theta vanishes on the sampled region; the generalized "
            "reduction does not apply (constant-pressure field?)"
        )

    gpsi = Gradient(data.psi)
    v = data.w - F.VScale(data.psi, gtheta)  # equals grad Phi when data is consistent
    projector = F.VScale(1.0 / norm2, Cross(gtheta, Cross(v, gtheta)))
    q = Dot(gtheta, v) / norm2
    lhs = F.Const(-1.0) * Dot(projector, Gradient(q))

    g1, g2 = Gradient(data.x1), Gradient(data.x2)
    base = Cross(g1, g2)
    base2 = Dot(base, base)
    normalization = Dot(Cross(gpsi, gtheta), base) / base2

    channels = {
        "normalization": normalization - 1.0,
        "ggse_lhs": lhs - 1.0,
        "curl_identity": F.Curl(data.w) - Cross(gpsi, gtheta),
    }
    if data.phi is not None:
        channels["potential_gap"] = Gradient(data.phi) - v
    rep = residual_report("ggse", samples, channels)
    rep.notes["n_singular_samples"] = int(singular.sum())
    return rep


def example_decomposition(name: str) -> tuple[GGSData, Domain]:
    """Built-in Clebsch split for a catalog pressure field.

    For w4_1 the curl is grad(e^-z) x grad(x); taking x1 = e^-z, x2 = x gives
    Theta = -x1 x2 - x1^2/2 (= -chi), Psi = -log x1 = z, and the single-valued
    potential Phi integrates w - Psi grad Theta in closed form.
    """
    if name != "w4_1":
        raise ValueError(f"no built-in decomposition for {name!r}")
    sol = clebsch.catalog("w4_1")
    x1 = exp(-z)
    x2 = x
    theta = -x1 * x2 - x1**2 / 2
    psi = -log(x1)
    phi = x**2 / 2 - y**2 / 2 + x * exp(-z) * (1 + z) + z + exp(-2 * z) * (z / 2 + 0.25)
    data = GGSData(w=sol.w, theta=theta, psi=psi, x1=x1, x2=x2, phi=phi)
    return data, Domain.box((-1.0, -1.0, 0.2), (1.0, 1.0, 1.0))
