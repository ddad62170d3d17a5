"""Rigid-motion symmetry detection and locally constructed symmetries.

Continuous rigid symmetries of a field w are generators xi = a + b x r with
Lie(xi) w = 0.  The Lie derivative is linear in (a, b), so sampling it at n
points yields a 3n x 6 matrix whose numerical null space is the space of
symmetry generators on the sampled region; the scan reports the singular
spectrum, the null dimension and an orthonormal generator basis.

The module also builds, for the catalog curl eigenfields, the symmetry
directions that exist in adapted curvilinear charts.  These come from two
free functions p(t, s) and g(t) and are genuine symmetries of the field even
when no rigid symmetry exists.
"""

from __future__ import annotations

import numpy as np

from . import fields as F
from .characteristics import (
    CharacteristicsProblem,
    InitialCurve,
    solve_characteristics,
)
from .checks import residual_report
from .domains import DEFAULT_SAMPLES, Domain, SampleSet, sample
from .fields import (
    Compose1,
    Divergence,
    LieEuclidean,
    Placeholder,
    ScalarField,
    VectorField,
    atan2,
    cos,
    evaluate,
    exp,
    log,
    sin,
    sqrt,
    substitute,
    vector,
    x,
    y,
    z,
)
from .reports import ConstructionError, Record, ResidualReport

DEFAULT_THRESHOLD = 1e-6

# placeholders for free-function expressions: t is the chart angle, s the
# transport invariant of the characteristic system
T = Placeholder("t")
S = Placeholder("s")


class KillingParams(Record, frozen=True):
    """Generator of a rigid motion: translation a plus rotation b x r."""

    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if len(self.a) != 3 or len(self.b) != 3:
            raise ValueError("a and b must be 3-vectors")

    def field(self) -> VectorField:
        ax, ay, az = self.a
        bx, by, bz = self.b
        return vector(
            ax + by * z - bz * y,
            ay + bz * x - bx * z,
            az + bx * y - by * x,
        )

    def norm(self) -> float:
        return float(np.sqrt(sum(v * v for v in self.a) + sum(v * v for v in self.b)))

    def __add__(self, other: "KillingParams") -> "KillingParams":
        return KillingParams(
            tuple(p + q for p, q in zip(self.a, other.a)),
            tuple(p + q for p, q in zip(self.b, other.b)),
        )

    def to_dict(self):
        return {"a": list(self.a), "b": list(self.b)}


def lie_euclidean(w: VectorField, k: KillingParams) -> VectorField:
    """Lie derivative of w along a + b x r, as a structural node.

    Expands to (a + b x r) . grad w - b x w; the generator's own gradient is
    the constant cross-product matrix of b.
    """
    return LieEuclidean(k.a, k.b, w)


CANONICAL_GENERATORS = (
    KillingParams((1, 0, 0), (0, 0, 0)),
    KillingParams((0, 1, 0), (0, 0, 0)),
    KillingParams((0, 0, 1), (0, 0, 0)),
    KillingParams((0, 0, 0), (1, 0, 0)),
    KillingParams((0, 0, 0), (0, 1, 0)),
    KillingParams((0, 0, 0), (0, 0, 1)),
)


class KillingReport(Record):
    """SVD summary of the sampled rigid-symmetry operator."""

    singular_values: list[float]
    null_dim: int
    null_basis: list[KillingParams]
    threshold: float
    boundary_gap: float | None
    provenance: dict
    notes: dict = {}  # Record copies it per instance

    def to_dict(self):
        d = {
            "singular_values": self.singular_values,
            "null_dim": self.null_dim,
            "null_basis": [k.to_dict() for k in self.null_basis],
            "threshold": self.threshold,
            "boundary_gap": self.boundary_gap,
            "domain": self.provenance["domain"],
            "seed": self.provenance["seed"],
            "n_samples": self.provenance["count"],
            "generator": self.provenance["generator"],
        }
        if self.notes:
            d["notes"] = self.notes
        return d


def killing_scan(w: VectorField, domain: Domain, samples: SampleSet | None = None,
                 threshold: float = DEFAULT_THRESHOLD) -> KillingReport:
    """Null space of (a, b) -> Lie(a + b x r) w over samples (default: 1000 Halton of domain)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if samples is None:
        samples = sample(domain, DEFAULT_SAMPLES)
    if samples.count < 6:
        raise ValueError("need at least 6 samples for a 6-parameter scan")
    pts = samples.points

    # the six columns share one order-1 jet of w; its values are a truncation
    memo: dict = {}
    valid = np.ones(pts.shape[0], dtype=bool)
    cols = []
    for gen in CANONICAL_GENERATORS:
        col, ctx = evaluate(lie_euclidean(w, gen), pts, memo)
        valid &= ~ctx.invalid & np.isfinite(col).all(axis=1)
        cols.append(col)
    wvals, ctx = evaluate(w, pts, memo)
    valid &= ~ctx.invalid & np.isfinite(wvals).all(axis=1)
    if int(valid.sum()) < 6:
        raise ValueError("too few valid samples for the scan")

    # balance rows so large-magnitude fields do not dominate the spectrum
    scale = 1.0 / np.maximum(1.0, np.linalg.norm(wvals[valid], axis=1))
    a = np.stack([(col[valid] * scale[:, None]).reshape(-1) for col in cols], axis=1)

    _, s, vt = np.linalg.svd(a, full_matrices=False)
    notes = {}
    if s[0] <= 0.0:
        null_dim, basis_rows, gap = 6, np.eye(6), None
        notes["zero_operator"] = True
    else:
        ratios = s / s[0]
        null_dim = int((ratios < threshold).sum())
        basis_rows = vt[6 - null_dim:] if null_dim else np.empty((0, 6))
        gap = None
        if 0 < null_dim < 6 and ratios[6 - null_dim] > 0:
            g = ratios[5 - null_dim] / ratios[6 - null_dim]
            if np.isfinite(g):
                gap = float(g)
    basis = [KillingParams(tuple(row[:3]), tuple(row[3:])) for row in basis_rows]
    rep = KillingReport(
        singular_values=[float(v) for v in s],
        null_dim=null_dim,
        null_basis=basis,
        threshold=threshold,
        boundary_gap=gap,
        provenance=samples.provenance(),
        notes=notes,
    )
    if int(valid.sum()) != samples.count:
        rep.notes["n_invalid_samples"] = int(samples.count - valid.sum())
    return rep


# ---------------------------------------------------------------------------
# local symmetries of the catalog examples
# ---------------------------------------------------------------------------


def verify_local_symmetry(
    w: VectorField, xi: VectorField, samples: SampleSet
) -> ResidualReport:
    """|Lie(xi) w| and |div xi| statistics on the chart's validity region."""
    return residual_report(
        "local_symmetry",
        samples,
        {"lie_derivative": F.Lie(xi, w), "div_xi": Divergence(xi)},
    )


def _bind(expr: ScalarField, t_field: ScalarField, s_field: ScalarField | None = None):
    m = {"t": t_field}
    if s_field is not None:
        m["s"] = s_field
    return substitute(expr, m)


def _gprime(g: ScalarField, t_field: ScalarField) -> ScalarField:
    """g'(t) composed with the chart angle, exact via seeded jets."""
    return Compose1(g, t_field, var="t")


def example_symmetry(
    name: str,
    p: ScalarField,
    g: ScalarField,
    q: ScalarField | None = None,
) -> VectorField:
    """Symmetry direction of a catalog curl eigenfield from free functions.

    p is an expression in the placeholders (t, s); g (and q, cylindrical
    only) in t alone.  In the chart (l, m, t) adapted to the field the
    direction is xi = h [alpha d_l + beta d_m], beta = (g'(t) + alpha cos t)
    / sin t, with alpha the transport solution carrying p.
    """
    if name == "abc_minimal":
        t = z
        s_inv = y - cos(z) / sin(z) * x
        alpha = _bind(p, t, s_inv)
        beta = (_gprime(g, t) + alpha * cos(t)) / sin(t)
        xi: VectorField = vector(alpha, beta, 0.0)
    elif name == "cylindrical":
        t = z
        theta = atan2(y, x)
        logr = log(sqrt(x**2 + y**2))
        qt = _bind(q, t) if q is not None else F.Const(0.0)
        cot = cos(z) / sin(z)
        s_inv = logr - cot * (theta - qt)
        gp = _gprime(g, t)
        alpha = (
            0.5 * (sin(z) / cos(z)) * _bind(p, t, s_inv) * exp(2.0 * cot * (qt - theta))
            - gp / cos(z)
        )
        beta = (gp + alpha * cos(t)) / sin(t)
        # chart tangents: d_azimuth = (-y, x, 0), d_logr = (x, y, 0); h = -1
        xi = F.VScale(
            F.Const(-1.0),
            F.VScale(alpha, vector(-y, x, 0.0)) + F.VScale(beta, vector(x, y, 0.0)),
        )
    elif name in ("example3", "zsq_x3"):
        ell = exp(x) * sin(y)
        m = -exp(x) * cos(y)
        t = z**2
        cot = cos(t) / sin(t)
        s_inv = m - cot * ell
        r2 = ell**2 + m**2
        gp = _gprime(g, t)
        particular = (gp / sin(t)) * (ell * s_inv + r2 * atan2(ell / m, 1.0)) / s_inv**2
        alpha = r2 * _bind(p, t, s_inv) + particular
        beta = (gp + alpha * cos(t)) / sin(t)
        d_ell = F.VScale(exp(-x), vector(sin(y), cos(y), 0.0))
        d_m = F.VScale(exp(-x), vector(-cos(y), sin(y), 0.0))
        # h = 2z on the z > 0 branch of the angle t = z^2
        xi = F.VScale(2.0 * z, F.VScale(alpha, d_ell) + F.VScale(beta, d_m))
    else:
        raise ValueError(f"no local-symmetry construction for {name!r}")
    return xi


# ---------------------------------------------------------------------------
# transport construction of the alpha coefficient
# ---------------------------------------------------------------------------


def alpha_from_characteristics(
    example: str,
    p: ScalarField,
    g: ScalarField,
    n_targets: int = 200,
    tol: float = 1e-6,
    seed: int = 0,
) -> ScalarField:
    """Chart coefficient alpha of a catalog entry, built by transport.

    Integrates the characteristic system of the alpha equation in the field's
    adapted chart with initial data carrying the free function p, checks the
    result against the closed form at sampled targets, and returns the closed
    form.  Raises ConstructionError when transport and closed form disagree.
    """
    if example == "abc_minimal":
        # alpha_x + cot(z) alpha_y = 0 in the (x, y, z) chart
        domain = Domain.box((-1.0, -1.0, 0.5), (1.0, 1.0, 1.3))
        prob = CharacteristicsProblem(
            advecting=vector(1.0, cos(z) / sin(z), 0.0),
            source=0.0,
            initial=InitialCurve(surface=x, data=_bind(p, z, y)),
            domain=Domain.box((-5, -50, 0.05), (5, 50, 3.0)),
        )
        closed = _bind(p, z, y - cos(z) / sin(z) * x)
    elif example == "cylindrical":
        # Chart coordinates (azimuth, log r, z) are carried on the slots
        # (x, y, z).  alpha obeys a transport equation with a linear source;
        # the conserved quantity along characteristics is
        # u = (alpha + g'(z)/cos z) exp(2 cot(z) azimuth).
        domain = Domain.box((-0.5, -0.6, 0.5), (0.5, 0.4, 1.0))
        cot = cos(z) / sin(z)
        gp = _gprime(g, z)
        u_initial = 0.5 * (sin(z) / cos(z)) * _bind(p, z, y)
        prob = CharacteristicsProblem(
            advecting=vector(1.0, cot, 0.0),
            source=0.0,
            initial=InitialCurve(surface=x, data=u_initial),
            domain=Domain.box((-5, -50, 0.05), (5, 50, 1.4)),
        )
        closed = (
            0.5 * (sin(z) / cos(z)) * _bind(p, z, y - cot * x) * exp(-2.0 * cot * x)
            - gp / cos(z)
        )
    else:
        raise ValueError(f"no alpha construction for {example!r}")

    targets = sample(domain, n_targets, seed=seed)
    pts = targets.points
    numeric = solve_characteristics(prob, targets)
    alpha = numeric.value
    if example == "cylindrical":
        cotv = np.cos(pts[:, 2]) / np.sin(pts[:, 2])
        alpha = alpha * np.exp(-2.0 * cotv * pts[:, 0]) - gp.values(pts) / np.cos(pts[:, 2])
    _require_match(alpha, numeric.ok, closed.values(pts), tol)
    return closed


def _require_match(vals, ok, ref, tol):
    err = np.abs(vals[ok] - ref[ok]).max() if ok.any() else np.inf
    if not (ok.all() and err < tol):
        raise ConstructionError(
            f"characteristic alpha mismatch: sup error {err:.3e}, "
            f"{int((~ok).sum())} failed points"
        )
