"""Finite-pressure catalog and the log-Clebsch constructor."""

import numpy as np
import pytest

import mhstools
from mhstools.clebsch import (
    CATALOG_NAMES,
    FAMILY_PARAMS,
    catalog,
    make_clebsch,
    make_clebsch_family,
)
from mhstools.domains import Domain, sample
from mhstools.fields import Gradient, cross, curl, log, y, z
from mhstools.reports import ConstructionError

OFFSET_BOX = Domain.box((-1.0, 0.5, 0.5), (1.0, 1.5, 1.5))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_force_balance(name):
    sol = catalog(name)
    rep = sol.residual_report(sample(sol.domain, 1000))
    assert rep.max("force_balance") < 1e-8
    assert rep.max("divergence") < 1e-9
    assert rep.max("constraint") < 1e-8
    assert rep.max("laplace_phi") < 1e-9


def test_simplest_entry_spot_values():
    sol = catalog("w4_1")
    origin = (0.0, 0.0, 0.0)
    np.testing.assert_allclose(sol.w(origin), [1.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(Gradient(sol.chi)(origin), [1.0, 0.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(
        cross(sol.w, curl(sol.w))(origin), [1.0, 0.0, -1.0], atol=1e-12
    )


def test_w4_1_closed_form_components():
    sol = catalog("w4_1")
    pts = sample(sol.domain, 200).points
    expect = np.stack(
        [pts[:, 0] + np.exp(-pts[:, 2]), -pts[:, 1], np.ones(len(pts))], axis=1
    )
    np.testing.assert_allclose(sol.w.values(pts), expect, atol=1e-13)


def test_w4_3_closed_form_components():
    sol = catalog("w4_3")
    pts = sample(sol.domain, 200).points
    xx, yy, zz = pts.T
    expect = np.stack([xx + yy * zz, -2 * yy, zz], axis=1)
    np.testing.assert_allclose(sol.w.values(pts), expect, atol=1e-12)
    chi_expect = yy * zz * (xx + yy * zz / 2)
    np.testing.assert_allclose(sol.chi.values(pts), chi_expect, atol=1e-12)


def test_curl_identity_and_chi_transport():
    sol = catalog("w4_2")
    rep = sol.residual_report(sample(sol.domain, 800))
    assert rep.max("curl_identity") < 1e-9
    assert rep.max("chi_along_w") < 1e-8
    assert rep.max("chi_along_curl") < 1e-8
    assert rep.max("clebsch_orthogonality") < 1e-9


class TestConstructor:
    def test_example_potentials(self):
        # phi = z, psi = z + 2 log y reproduces the second catalog entry
        sol = make_clebsch(z, z + 2 * log(y), OFFSET_BOX)
        ref = catalog("w4_2")
        pts = sample(OFFSET_BOX, 200).points
        np.testing.assert_allclose(sol.w.values(pts), ref.w.values(pts), atol=1e-12)

    def test_rejects_nonharmonic_phi(self):
        with pytest.raises(ConstructionError) as ei:
            make_clebsch(z**2, -z, OFFSET_BOX)
        assert ei.value.report is not None

    def test_package_error_catches_construction_failure(self):
        assert mhstools.ConstructionError is ConstructionError
        with pytest.raises(mhstools.ConstructionError):
            make_clebsch(z**2, -z, OFFSET_BOX)

    def test_rejects_constraint_violation(self):
        with pytest.raises(ConstructionError):
            make_clebsch(z, -2 * z, OFFSET_BOX)  # transport constraint off by 2


class TestFamily:
    def test_log_branch_instance(self):
        sol = make_clebsch_family(1.0, 0.0, 0.0, 0.0, OFFSET_BOX)
        pts = sample(OFFSET_BOX, 300).points
        np.testing.assert_allclose(
            sol.psi.values(pts), 0.5 * np.log(2 * pts[:, 1]), atol=1e-13
        )
        rep = sol.residual_report(sample(sol.domain, 500))
        assert rep.max("constraint") < 1e-8
        assert rep.max("force_balance") < 1e-8

    def test_default_instance_with_exponential_branch(self):
        a, b, g, d = FAMILY_PARAMS
        assert d != 0.0
        sol = make_clebsch_family(a, b, g, d, OFFSET_BOX)
        rep = sol.residual_report(sample(sol.domain, 800))
        assert rep.max("force_balance") < 1e-8

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_excluded_parameters(self, alpha):
        with pytest.raises(ValueError):
            make_clebsch_family(alpha, 0.0, 0.0, 0.0, OFFSET_BOX)

    def test_domain_sign_guard(self):
        bad_box = Domain.box((-1.0, -1.5, 0.5), (1.0, -0.5, 1.5))  # y < 0
        with pytest.raises(ValueError):
            make_clebsch_family(1.0, 0.0, 0.0, 0.0, bad_box)


def test_pressure_gradient_nonvanishing():
    # these are genuinely non-constant-pressure solutions
    for name in CATALOG_NAMES:
        sol = catalog(name)
        pts = sample(sol.domain, 300).points
        gchi = Gradient(sol.chi).values(pts)
        assert np.linalg.norm(gchi, axis=1).min() > 1e-6
