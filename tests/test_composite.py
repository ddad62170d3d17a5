"""Piecewise core-plus-shell assemblies."""

import numpy as np
import pytest

from mhstools import beltrami, clebsch
from mhstools.composite import (
    assemble,
    l2_monte_carlo,
    verify_composite,
)
from mhstools.domains import sample
from mhstools.reports import ConstructionError


@pytest.fixture(scope="module")
def default_assembly():
    core = clebsch.catalog("w4_1")
    shell = beltrami.catalog("exp_x3")
    return assemble(core, shell, eps=0.4)


class TestAssemble:
    def test_default_assembly(self, default_assembly):
        pf = default_assembly
        assert pf.interface_radius == 0.4
        assert pf.ambient.r_outer == 1.0
        # piecewise evaluation picks the right region
        inner = np.array([[0.1, 0.0, 0.0]])
        outer = np.array([[0.7, 0.0, 0.0]])
        np.testing.assert_allclose(
            pf.values(inner)[0], pf.core.field.values(inner)[0]
        )
        np.testing.assert_allclose(
            pf.values(outer)[0], pf.shell.field.values(outer)[0]
        )
        assert pf.region_tags(np.vstack([inner, outer])).tolist() == ["core", "shell"]

    def test_outside_ambient_is_nan(self, default_assembly):
        vals = default_assembly.values(np.array([[2.0, 0.0, 0.0]]))
        assert np.isnan(vals).all()

    def test_interface_must_fit(self):
        core = clebsch.catalog("w4_1")
        shell = beltrami.catalog("exp_x3")
        for eps in (1.2, 0.0):
            with pytest.raises(ValueError, match="interface radius") as ei:
                assemble(core, shell, eps=eps)
            assert type(ei.value) is ValueError

    def test_core_domain_must_cover_ball(self):
        core = clebsch.catalog("w4_2")  # offset box, excludes the origin ball
        shell = beltrami.catalog("exp_x3")
        with pytest.raises(ConstructionError, match="does not contain the interface ball"):
            assemble(core, shell, eps=0.4)

    def test_singular_shell_rejected(self):
        core = clebsch.catalog("w4_1")
        shell = beltrami.catalog("cylindrical")  # singular on the z-axis
        with pytest.raises(ConstructionError) as ei:
            assemble(core, shell, eps=0.4)
        assert "shell" in str(ei.value)


class TestVerify:
    def test_default_report(self, default_assembly):
        rep = verify_composite(
            default_assembly, samples_per_region=800, mc_samples=50_000
        )
        assert rep.core_report.max("force_balance") < 1e-8
        assert rep.core_report.max("divergence") < 1e-8
        assert rep.shell_report.max("beltrami") < 1e-8
        assert rep.shell_report.max("divergence") < 1e-8
        assert np.isfinite(rep.l2_estimate) and rep.l2_estimate > 0
        assert rep.l2_standard_error < 0.02 * rep.l2_estimate
        assert rep.core_killing.null_dim == 0
        # the stitched field is genuinely discontinuous at the interface and
        # has nonzero normal flux there: both are reported, not gated
        assert rep.interface_jump_max > 0.1
        assert rep.interface_flux_core_max > 0.01
        assert rep.boundary_flux_max > 0.01
        assert rep.passes()

    def test_region_checks_match_owner_modules(self, default_assembly):
        # no drift between composite verification and the owning modules
        pf = default_assembly
        core_samples = sample(pf.core.domain, 300, seed=0)
        shell_samples = sample(pf.shell.domain, 300, seed=0)
        from mhstools.beltrami import beltrami_residual
        from mhstools.checks import force_balance_residual

        rep = verify_composite(pf, samples_per_region=300, mc_samples=5000)
        own_core = force_balance_residual(
            pf.core.clebsch.w, pf.core.clebsch.chi, core_samples
        )
        own_shell = beltrami_residual(
            pf.shell.beltrami.field, pf.shell.beltrami.h, shell_samples
        )
        assert abs(rep.core_report.max("force_balance") - own_core.max("force_balance")) < 1e-12
        assert abs(rep.shell_report.max("beltrami") - own_shell.max("beltrami")) < 1e-12

    def test_identical_fields_have_zero_jump(self):
        # consistency control: the same field on both sides of the interface
        # produces a continuous assembly with vanishing reported jump
        shell = beltrami.catalog("exp_x3")
        pf = assemble(beltrami.catalog("exp_x3"), shell, eps=0.4)
        rep = verify_composite(pf, samples_per_region=300, mc_samples=10_000)
        assert rep.interface_jump_max < 1e-12
        assert rep.core_report.max("beltrami") < 1e-8
        assert rep.passes()

    @pytest.mark.parametrize("mc", [0, -5])
    def test_sample_count_rejected_before_region_work(self, default_assembly, monkeypatch, mc):
        import mhstools.composite as composite

        reports = []
        for name in ("force_balance_residual", "beltrami_residual"):
            monkeypatch.setattr(composite, name, lambda *a, **k: reports.append(a))
        with pytest.raises(ValueError, match="positive sample count"):
            verify_composite(default_assembly, samples_per_region=50, mc_samples=mc)
        assert reports == []

    def test_l2_doubling_stability(self, default_assembly):
        l2a, sea = l2_monte_carlo(default_assembly, n=40_000, seed=0)
        l2b, seb = l2_monte_carlo(default_assembly, n=80_000, seed=0)
        assert abs(l2a - l2b) < 3 * max(sea, seb)

    def test_l2_seed_reproducible(self, default_assembly):
        a = l2_monte_carlo(default_assembly, n=20_000, seed=5)
        b = l2_monte_carlo(default_assembly, n=20_000, seed=5)
        assert a == b
