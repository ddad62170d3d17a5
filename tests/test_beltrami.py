"""Curl-eigenfield catalog, harmonic-pair construction, chart admissibility."""

import numpy as np
import pytest

from mhstools.beltrami import (
    CATALOG_NAMES,
    AdmissibleChart,
    ConstructionError,
    HarmonicPair,
    beltrami_residual,
    catalog,
    from_harmonic_pair,
    verify_admissible,
    verify_h_invariance,
)
from mhstools.domains import Domain, sample
from mhstools.fields import Dot, Gradient, exp, sin, cos, vector, x, y, z


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_entries_satisfy_eigenrelation(name):
    rec = catalog(name)
    rep = rec.residual_report(sample(rec.domain, 1000))
    assert rep.max("beltrami") < 1e-8
    assert rep.max("divergence") < 1e-8


@pytest.mark.parametrize(
    "name,point,expected",
    [
        ("abc_minimal", (0, 0, 0), (0.0, 1.0, 0.0)),
        ("exp_x3", (0, 0, 0), (-np.cos(1.0), np.sin(1.0), 0.0)),
    ],
)
def test_catalog_spot_values(name, point, expected):
    np.testing.assert_allclose(catalog(name).field(point), expected, atol=1e-15)


def test_cylindrical_magnitude_is_inverse_radius():
    rec = catalog("cylindrical")
    np.testing.assert_allclose(np.linalg.norm(rec.field((1.0, 0.0, 0.0))), 1.0)
    np.testing.assert_allclose(
        np.linalg.norm(rec.field((0.0, 1.25, 0.4))), 1 / 1.25, atol=1e-14
    )


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_h_constant_along_field(name):
    rec = catalog(name)
    ss = sample(rec.domain, 600)
    rep = verify_h_invariance(rec, ss)
    assert rep.max("h_invariance") < 1e-9


def test_h_invariance_is_finite_on_inconsistent_record():
    from mhstools.beltrami import BeltramiRecord

    bogus = BeltramiRecord(
        field=vector(x, y, z),  # not an eigenfield
        h=z * 0.0 + 1.0,
        domain=Domain.ball((0, 0, 0), 1.0),
        provenance="bogus",
        name="bogus",
    )
    ss = sample(bogus.domain, 200)
    rep = verify_h_invariance(bogus, ss)
    assert np.isfinite(rep.max("h_invariance"))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_helicity_density_nonzero(name):
    rec = catalog(name)
    ss = sample(rec.domain, 1000)
    hel = rec.helicity_density().values(ss.points)
    assert np.isfinite(hel).all()
    assert np.abs(hel).min() > 1e-12


def test_exp_x3_helicity_closed_form():
    rec = catalog("exp_x3")
    ss = sample(rec.domain, 1000)
    hel = rec.helicity_density().values(ss.points)
    expect = np.exp(2 * ss.points[:, 0] + ss.points[:, 2])
    assert np.abs(hel - expect).max() < 1e-8


class TestFromHarmonicPair:
    PAIR = HarmonicPair(exp(x) * sin(y), -exp(x) * cos(y))

    def test_rejects_non_conjugate_pair(self):
        with pytest.raises(ConstructionError) as ei:
            from_harmonic_pair(HarmonicPair(x, -y), z)
        assert "cauchy_riemann" in str(ei.value)

    def test_reproduces_exponential_angle_entry(self):
        rec = from_harmonic_pair(self.PAIR, exp(z))
        ref = catalog("exp_x3")
        pts = sample(ref.domain, 300).points
        np.testing.assert_allclose(
            rec.field.values(pts), ref.field.values(pts), atol=1e-12
        )
        np.testing.assert_allclose(
            rec.h.values(pts), np.exp(pts[:, 2]), atol=1e-12
        )
        rep = rec.residual_report(sample(rec.domain, 1000))
        assert rep.max("beltrami") < 1e-9

    def test_squared_angle_entry_on_offset_domain(self):
        dom = Domain.box((-1.0, -1.0, 0.5), (1.0, 1.0, 1.5))
        rec = from_harmonic_pair(self.PAIR, z**2, domain=dom)
        pts = sample(dom, 300).points
        np.testing.assert_allclose(rec.h.values(pts), 2 * pts[:, 2], atol=1e-12)
        ref = catalog("zsq_x3")
        np.testing.assert_allclose(
            rec.field.values(pts), ref.field.values(pts), atol=1e-12
        )

    def test_output_h_transported_by_field(self):
        rec = from_harmonic_pair(self.PAIR, exp(z))
        ss = sample(rec.domain, 500)
        drift = Dot(rec.field, Gradient(rec.h)).values(ss.points)
        assert np.abs(drift).max() < 1e-9

    def test_rejects_angle_with_transverse_dependence(self):
        with pytest.raises(ConstructionError):
            from_harmonic_pair(self.PAIR, z + 0.1 * x)

    def test_rejects_vanishing_angle_derivative(self):
        dom = Domain.box((-1.0, -1.0, -0.5), (1.0, 1.0, 0.5))
        with pytest.raises(ConstructionError):
            from_harmonic_pair(self.PAIR, z**2, domain=dom)  # dz sigma = 0 at z = 0


class TestAdmissibleCharts:
    def test_identity_chart_exact(self):
        ss = sample(Domain.ball((0, 0, 0), 1.0), 300)
        rep = verify_admissible(AdmissibleChart(x, y, z, orthogonal=True), ss)
        for name, st in rep.checks.items():
            assert st.max == 0.0, name

    def test_exponential_chart_orthogonal(self):
        ss = sample(Domain.ball((0, 0, 0), 1.0), 500)
        chart = AdmissibleChart(exp(x) * sin(y), -exp(x) * cos(y), exp(z), orthogonal=True)
        rep = verify_admissible(chart, ss)
        assert max(st.max for st in rep.checks.values()) < 1e-9

    def test_stretched_chart_reports_diagonal_defect(self):
        ss = sample(Domain.ball((0, 0, 0), 1.0), 300)
        rep = verify_admissible(AdmissibleChart(x, 2 * y, z, orthogonal=True), ss)
        assert rep.max("diagonal_equality") == pytest.approx(3.0)

    def test_general_conditions_on_admissible_chart(self):
        # the general residuals also vanish for an orthogonal admissible chart
        ss = sample(Domain.ball((0, 0, 0), 1.0), 300)
        chart = AdmissibleChart(exp(x) * sin(y), -exp(x) * cos(y), exp(z), orthogonal=False)
        rep = verify_admissible(chart, ss)
        assert max(st.max for st in rep.checks.values()) < 1e-9


def test_beltrami_residual_detects_wrong_coefficient():
    rec = catalog("exp_x3")
    ss = sample(rec.domain, 300)
    rep = beltrami_residual(rec.field, z**2, ss)
    assert rep.max("beltrami") > 1e-2


def test_catalog_unknown_name():
    with pytest.raises(ValueError, match="unknown catalog entry 'nope'") as ei:
        catalog("nope")
    assert type(ei.value) is ValueError
