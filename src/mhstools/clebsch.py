"""Finite-pressure equilibria from a log-Clebsch ansatz.

Fields have the form w = grad((x^2 - y^2)/2 + phi) + e^psi grad x with
pressure function chi = e^psi (x + e^psi / 2), where phi(y, z) is harmonic
and psi(y, z) satisfies the linear transport constraint
-y psi_y + grad phi . grad psi = -1.  The potential names are kept distinct
from chart coordinates elsewhere in the package: psi here is always the
log-Clebsch potential (clebsch_psi), never a curvilinear coordinate.
"""

from __future__ import annotations

import functools

import numpy as np

from . import fields as F
from .checks import residual_report
from .domains import DEFAULT_SAMPLES, Domain, SampleSet, sample
from .fields import (
    Cross,
    Curl,
    Divergence,
    Dot,
    Gradient,
    ScalarField,
    VComponent,
    VectorField,
    exp,
    log,
    vector,
    x,
    y,
    z,
)
from .reports import ConstructionError, Record, ResidualReport

FORCE_TOL = 1e-8
DIV_TOL = 1e-9
CONSTRAINT_TOL = 1e-8
HARMONIC_TOL = 1e-9


class ClebschSolution(Record, frozen=True):
    """A verified finite-pressure equilibrium in log-Clebsch form."""

    phi: ScalarField
    psi: ScalarField
    w: VectorField
    chi: ScalarField
    domain: Domain
    name: str = ""

    def residual_report(self, samples: SampleSet | None = None) -> ResidualReport:
        """All invariants of the ansatz; by default on 1000 Halton points."""
        if samples is None:
            samples = sample(self.domain, DEFAULT_SAMPLES)
        return clebsch_residuals(self.phi, self.psi, self.w, self.chi, samples,
                                 label=self.name or "clebsch")

    def to_dict(self):
        return {
            "name": self.name,
            "phi": self.phi.render(),
            "psi": self.psi.render(),
            "chi": self.chi.render(),
            "domain": self.domain.to_dict(),
        }


def clebsch_residuals(phi, psi, w, chi, samples, label="clebsch") -> ResidualReport:
    """All invariants of the ansatz on one sample set."""
    gphi, gpsi = Gradient(phi), Gradient(psi)
    constraint = (
        -y * VComponent(gpsi, 1) + Dot(gphi, gpsi) + 1.0
    )
    cw, gchi = Curl(w), Gradient(chi)
    curl_identity = cw - Cross(Gradient(exp(psi)), vector(1.0, 0.0, 0.0))
    channels = {
        "force_balance": Cross(w, cw) - gchi,
        "divergence": Divergence(w),
        "laplace_phi": Divergence(gphi),
        "constraint": constraint,
        "curl_identity": curl_identity,
        "chi_along_w": Dot(w, gchi),
        "chi_along_curl": Dot(cw, gchi),
        # the x-independence of psi makes grad(e^psi) . grad(x) vanish
        "clebsch_orthogonality": VComponent(gpsi, 0),
    }
    return residual_report(label, samples, channels)


_GATES = {
    "force_balance": FORCE_TOL,
    "divergence": DIV_TOL,
    "laplace_phi": HARMONIC_TOL,
    "constraint": CONSTRAINT_TOL,
    "curl_identity": 1e-9,
    "chi_along_w": FORCE_TOL,
    "chi_along_curl": FORCE_TOL,
    "clebsch_orthogonality": 1e-9,
}


def make_clebsch(phi: ScalarField, psi: ScalarField, domain: Domain,
                 name: str = "") -> ClebschSolution:
    """Assemble and verify the equilibrium defined by potentials phi, psi."""
    big_phi = (x**2 - y**2) / 2 + phi
    w = Gradient(big_phi) + F.VScale(exp(psi), vector(1.0, 0.0, 0.0))
    chi = exp(psi) * (x + exp(psi) / 2)
    sol = ClebschSolution(phi=phi, psi=psi, w=w, chi=chi, domain=domain, name=name)
    rep = sol.residual_report()
    if not rep.passes(_GATES):
        failing = {k: rep.max(k) for k, tol in _GATES.items() if not (rep.max(k) < tol)}
        raise ConstructionError(f"clebsch construction failed: {failing}", rep)
    return sol


def make_clebsch_family(alpha: float, beta: float, gamma: float, delta: float,
                        domain: Domain, name: str = "") -> ClebschSolution:
    """Four-parameter family of solutions of the transport constraint.

    phi = alpha (z^2 - y^2)/2 + beta z + gamma y and psi built from
    S = (1 + alpha) y - gamma, which must stay positive on the domain:
    psi = log(S)/(1 + alpha) + delta S^(alpha/(1+alpha)) (beta/alpha + z).
    """
    if alpha == 0.0 or alpha == -1.0:
        raise ValueError("alpha must differ from 0 and -1")
    s_field = (1.0 + alpha) * y - gamma
    lo, hi = domain.bounding_box()
    corners = np.array(
        [[xc, yc, zc] for xc in (lo[0], hi[0]) for yc in (lo[1], hi[1]) for zc in (lo[2], hi[2])]
    )
    svals = (1.0 + alpha) * corners[:, 1] - gamma
    if not (svals > 0).all():
        raise ValueError("domain must keep (1 + alpha) y - gamma positive")
    phi = alpha * (z**2 - y**2) / 2 + beta * z + gamma * y
    psi = log(s_field) / (1.0 + alpha)
    if delta != 0.0:
        psi = psi + delta * s_field ** (alpha / (1.0 + alpha)) * (beta / alpha + z)
    return make_clebsch(phi, psi, domain, name=name or "clebsch_family")


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_OFFSET_BOX = Domain.box((-1.0, 0.5, 0.5), (1.0, 1.5, 1.5))

# default parameters of the four-parameter family entry
FAMILY_PARAMS = (1.0, 1.0, 0.0, 0.25)


def _w4_1() -> ClebschSolution:
    return make_clebsch(z, -z, Domain.ball((0.0, 0.0, 0.0), 1.0), name="w4_1")


def _w4_2() -> ClebschSolution:
    return make_clebsch(z, z + 2 * log(y), _OFFSET_BOX, name="w4_2")


def _w4_3() -> ClebschSolution:
    return make_clebsch((z**2 - y**2) / 2, log(y * z), _OFFSET_BOX, name="w4_3")


def _w4_4() -> ClebschSolution:
    a, b, g, d = FAMILY_PARAMS
    return make_clebsch_family(a, b, g, d, _OFFSET_BOX, name="w4_4")


_BUILDERS = {"w4_1": _w4_1, "w4_2": _w4_2, "w4_3": _w4_3, "w4_4": _w4_4}
CATALOG_NAMES = tuple(_BUILDERS)


@functools.cache
def _built(name: str) -> ClebschSolution:
    return _BUILDERS[name]()


def catalog(name: str) -> ClebschSolution:
    """Return a named finite-pressure catalog entry, built and checked once per process."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown catalog entry {name!r}; choose from {', '.join(CATALOG_NAMES)}")
    return _built(name)
