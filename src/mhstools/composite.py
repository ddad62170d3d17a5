"""Piecewise assembly of square-integrable equilibria.

An asymmetric finite-pressure core inside a small ball is stitched to a curl
eigenfield on the surrounding shell.  The assembly checks each region with
the region owner's own residual routines, estimates the squared-field volume
integral by Monte Carlo (membership in L^2), and reports the jump and normal
flux on the interface sphere: the construction guarantees interior residuals
and square integrability, not interface continuity or boundary tangency, so
those magnitudes are reported rather than gated.
"""

from __future__ import annotations

import numpy as np

from .beltrami import BeltramiRecord, beltrami_residual
from .checks import force_balance_residual
from .clebsch import ClebschSolution
from .domains import Domain, fibonacci_sphere, sample
from .fields import VectorField
from .reports import ConstructionError, Record, ResidualReport
from .symmetry import KillingReport, killing_scan

AMBIENT_RADIUS = 1.0
N_PROBE = 2000  # samples probing the core domain and the shell field
N_INTERFACE = 500  # Fibonacci points on the interface and on the outer sphere
REGION_TOL = 1e-8  # residual gate of both regions
REL_SE_TOL = 0.02  # largest relative standard error of the L2 estimate


class Region(Record, frozen=True):
    domain: Domain
    kind: str  # "core" | "shell"
    clebsch: ClebschSolution | None = None
    beltrami: BeltramiRecord | None = None

    @property
    def field(self) -> VectorField:
        return self.clebsch.w if self.clebsch is not None else self.beltrami.field


class PiecewiseField(Record, frozen=True):
    ambient: Domain
    core: Region
    shell: Region
    interface_radius: float

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate the piecewise field; rows outside the ambient are NaN."""
        pts = np.asarray(pts, dtype=float)
        r = np.linalg.norm(pts, axis=1)
        out = np.full_like(pts, np.nan)
        inside = r < self.interface_radius
        amb = self.ambient.contains(pts)
        core_rows = inside & amb
        shell_rows = ~inside & amb
        if core_rows.any():
            out[core_rows] = self.core.field.values(pts[core_rows])
        if shell_rows.any():
            out[shell_rows] = self.shell.field.values(pts[shell_rows])
        return out

    def region_tags(self, pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(np.asarray(pts, float), axis=1)
        return np.where(r < self.interface_radius, "core", "shell")


def assemble(
    core: ClebschSolution | BeltramiRecord,
    shell_field: BeltramiRecord,
    eps: float,
) -> PiecewiseField:
    """Stitch a core ball into a curl-eigenfield shell.

    The core is normally a finite-pressure solution; a curl eigenfield is
    also accepted (useful as a consistency control with core = shell).
    Rejects when the interface ball is not strictly inside the ambient ball,
    when the core's own domain does not cover the ball, or when the shell
    field is singular somewhere on the shell region (probed on a sample).
    """
    if not 0 < eps < AMBIENT_RADIUS:
        raise ValueError("interface radius must satisfy 0 < eps < ambient radius")
    ball = Domain.ball((0.0, 0.0, 0.0), eps)
    probe = sample(ball, N_PROBE)
    if not core.domain.contains(probe.points).all():
        raise ConstructionError("core solution's domain does not contain the interface ball")

    shell_region = Domain.spherical_shell((0.0, 0.0, 0.0), eps, AMBIENT_RADIUS)
    shell_probe = sample(shell_region, N_PROBE)
    declared = shell_field.domain.contains(shell_probe.points)
    vals = shell_field.field.values(shell_probe.points)
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all() or not declared.all():
        raise ConstructionError(
            f"shell field invalid on {int((~(declared & finite)).sum())} of "
            f"{N_PROBE} shell probe points (singular set inside the shell?)"
        )

    ambient = Domain.ball((0.0, 0.0, 0.0), AMBIENT_RADIUS)
    if isinstance(core, BeltramiRecord):
        core_region = Region(domain=ball, kind="core", beltrami=core)
    else:
        core_region = Region(domain=ball, kind="core", clebsch=core)
    return PiecewiseField(
        ambient=ambient,
        core=core_region,
        shell=Region(domain=shell_region, kind="shell", beltrami=shell_field),
        interface_radius=eps,
    )


class CompositeReport(Record):
    core_report: ResidualReport
    shell_report: ResidualReport
    l2_estimate: float
    l2_standard_error: float
    mc_samples: int
    interface_jump_max: float
    interface_jump_mean: float
    interface_flux_core_max: float
    interface_flux_shell_max: float
    boundary_flux_max: float
    core_killing: KillingReport
    notes: dict = {}  # Record copies it per instance

    def passes(self) -> bool:
        core_gates = {
            k: REGION_TOL
            for k in ("force_balance", "beltrami", "divergence")
            if k in self.core_report.checks
        }
        ok = self.core_report.passes(core_gates)
        ok &= self.shell_report.passes(
            {"beltrami": REGION_TOL, "divergence": REGION_TOL}
        )
        ok &= np.isfinite(self.l2_estimate) and self.l2_estimate > 0
        ok &= self.l2_standard_error < REL_SE_TOL * self.l2_estimate
        ok &= self.core_killing.null_dim == 0
        return bool(ok)

    def to_dict(self):
        return {
            "core": self.core_report.to_dict(),
            "shell": self.shell_report.to_dict(),
            "l2_estimate": self.l2_estimate,
            "l2_standard_error": self.l2_standard_error,
            "mc_samples": self.mc_samples,
            "interface_jump_max": self.interface_jump_max,
            "interface_jump_mean": self.interface_jump_mean,
            "interface_flux_core_max": self.interface_flux_core_max,
            "interface_flux_shell_max": self.interface_flux_shell_max,
            "boundary_flux_max": self.boundary_flux_max,
            "core_killing": self.core_killing.to_dict(),
            **({"notes": self.notes} if self.notes else {}),
        }


def l2_monte_carlo(pf: PiecewiseField, n: int = 100_000, seed: int = 0):
    """Monte Carlo estimate of the squared-field integral over the ambient ball.

    Uniform sampling of the ambient ball; returns (estimate, standard error).
    """
    if n <= 0:
        raise ValueError("need a positive sample count")
    rng = np.random.default_rng(seed)
    R = pf.ambient.r_outer
    got = 0
    sq_sum = 0.0
    sq_sumsq = 0.0
    while got < n:
        m = min(max(2 * (n - got), 4096), 4 * n)
        cand = rng.uniform(-R, R, size=(m, 3))
        cand = cand[np.linalg.norm(cand, axis=1) <= R]
        take = cand[: n - got]
        vals = pf.values(take)
        sq = (vals**2).sum(axis=1)
        sq_sum += float(np.nansum(sq))
        sq_sumsq += float(np.nansum(sq**2))
        got += take.shape[0]
    vol = pf.ambient.volume()
    mean = sq_sum / n
    var = max(sq_sumsq / n - mean**2, 0.0)
    return vol * mean, vol * np.sqrt(var / n)


def verify_composite(
    pf: PiecewiseField,
    samples_per_region: int = 1000,
    mc_samples: int = 100_000,
    seed: int = 0,
) -> CompositeReport:
    """Region residuals, square-integrability estimate, interface diagnostics.

    The estimate runs first, so a non-positive `mc_samples` is rejected before
    any region work; its generator is its own, so the order changes no number.
    """
    l2, se = l2_monte_carlo(pf, n=mc_samples, seed=seed)
    core_samples = sample(pf.core.domain, samples_per_region, seed=seed)
    shell_samples = sample(pf.shell.domain, samples_per_region, seed=seed)

    if pf.core.clebsch is not None:
        core_rep = force_balance_residual(
            pf.core.clebsch.w, pf.core.clebsch.chi, core_samples
        )
    else:
        core_rep = beltrami_residual(
            pf.core.beltrami.field, pf.core.beltrami.h, core_samples
        )
    shell_rep = beltrami_residual(
        pf.shell.beltrami.field, pf.shell.beltrami.h, shell_samples
    )

    sphere = fibonacci_sphere(N_INTERFACE, radius=pf.interface_radius)
    normals = sphere / np.linalg.norm(sphere, axis=1, keepdims=True)
    core_vals = pf.core.field.values(sphere)
    shell_vals = pf.shell.field.values(sphere)
    jump = np.linalg.norm(core_vals - shell_vals, axis=1)
    flux_core = np.abs((core_vals * normals).sum(axis=1))
    flux_shell = np.abs((shell_vals * normals).sum(axis=1))

    outer = fibonacci_sphere(N_INTERFACE, radius=pf.ambient.r_outer)
    outer_normals = outer / np.linalg.norm(outer, axis=1, keepdims=True)
    outer_vals = pf.shell.field.values(outer)
    boundary_flux = np.abs((outer_vals * outer_normals).sum(axis=1))

    core_scan = killing_scan(pf.core.field, pf.core.domain, samples=core_samples)

    return CompositeReport(
        core_report=core_rep,
        shell_report=shell_rep,
        l2_estimate=float(l2),
        l2_standard_error=float(se),
        mc_samples=mc_samples,
        interface_jump_max=float(np.nanmax(jump)),
        interface_jump_mean=float(np.nanmean(jump)),
        interface_flux_core_max=float(np.nanmax(flux_core)),
        interface_flux_shell_max=float(np.nanmax(flux_shell)),
        boundary_flux_max=float(np.nanmax(boundary_flux)),
        core_killing=core_scan,
    )
