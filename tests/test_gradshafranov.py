"""Reduced-equation residuals, reconstruction, and the generalized check."""

import numpy as np
import pytest

from mhstools.checks import force_balance_residual
from mhstools.domains import Domain, sample
from mhstools.fields import Const, Gradient, VScale, x, y, z
from mhstools.gradshafranov import (
    GGSData,
    SymmetricChart,
    example_decomposition,
    ggse_check,
    gs_problem_from_plane,
    gs_reconstruct,
    gs_residual,
)
from mhstools.parsing import parse_univariate
from mhstools.reports import ConstructionError

BALL = Domain.ball((0.0, 0.0, 0.0), 1.0)
SHELL = Domain.cylindrical_shell(0.5, 1.5, -1.0, 1.0)


def path_integrate(field, base, target, order=(0, 1, 2)):
    """Line integral of a vector field along axis-parallel segments.

    Integrates with composite Simpson on each segment; `order` gives the
    sequence of axes stepped from base to target.  Used to recover the
    potential Phi from w - Psi grad Theta and to check path independence.
    """
    base = np.asarray(base, dtype=float)
    target = np.asarray(target, dtype=float)
    total = 0.0
    current = base.copy()
    for axis in order:
        end = current.copy()
        end[axis] = target[axis]
        seg = end - current
        length = abs(seg[axis])
        if length > 0:
            m = max(4, 2 * int(np.ceil(length / (2 * 1e-3))))
            t = np.linspace(0.0, 1.0, m + 1)
            pts = current[None, :] + t[:, None] * seg[None, :]
            vals = field.values(pts)[:, axis] * seg[axis]
            weights = np.ones(m + 1)
            weights[1:-1:2] = 4.0
            weights[2:-1:2] = 2.0
            total += float((weights * vals).sum() * (1.0 / (3.0 * m)))
        current = end
    return total


class TestTranslational:
    def test_quadratic_flux_zero_residual(self):
        prob = gs_problem_from_plane(
            "translational",
            (x**2 + y**2) / 2,
            w3=parse_univariate("1"),
            chi=parse_univariate("2*T"),
        )
        ss = sample(BALL, 1000)
        rep = gs_residual(prob, ss)
        assert rep.max("gs_residual") < 1e-10
        assert rep.max("axial_term") < 1e-10

    def test_reconstruction_passes_force_balance(self):
        prob = gs_problem_from_plane(
            "translational",
            (x**2 + y**2) / 2,
            w3=parse_univariate("1"),
            chi=parse_univariate("2*T"),
        )
        w, chi = gs_reconstruct(prob)
        np.testing.assert_allclose(w((0.5, 0.0, 0.0)), [0.0, -0.5, 1.0], atol=1e-14)
        ss = sample(BALL, 1000)
        rep = force_balance_residual(w, chi, ss)
        assert rep.max("force_balance") < 1e-9
        assert rep.max("divergence") < 1e-9

    def test_non_equilibrium_reports_two(self):
        prob = gs_problem_from_plane(
            "translational",
            (x**2 + y**2) / 2,
            w3=parse_univariate("0"),
            chi=parse_univariate("0"),
        )
        ss = sample(BALL, 300)
        rep = gs_residual(prob, ss)
        assert rep.stat("gs_residual").mean == pytest.approx(2.0)
        assert rep.max("gs_residual") == pytest.approx(2.0)

    def test_reconstruction_error_tracks_reduced_residual(self):
        # empirical constant of the contract |force residual| <= C |reduced
        # residual|: for a translational chart C is bounded by max |grad Theta|
        prob = gs_problem_from_plane(
            "translational",
            (x**2 + y**2) / 2,
            w3=parse_univariate("0"),
            chi=parse_univariate("0"),
        )
        ss = sample(BALL, 500)
        gs_max = gs_residual(prob, ss).max("gs_residual")
        w, chi = gs_reconstruct(prob)
        fb_max = force_balance_residual(w, chi, ss).max("force_balance")
        grad_max = np.linalg.norm(
            Gradient(prob.theta).values(ss.points), axis=1
        ).max()
        c_emp = fb_max / gs_max
        assert gs_max == pytest.approx(2.0)
        assert c_emp <= grad_max * 1.01

    def test_curl_free_reconstruction(self):
        # harmonic flux with no axial part: a curl-free solenoidal field
        prob = gs_problem_from_plane(
            "translational", x * y, w3=parse_univariate("0"), chi=parse_univariate("0")
        )
        w, chi = gs_reconstruct(prob)
        from mhstools.fields import curl, divergence

        ss = sample(BALL, 300)
        assert np.abs(curl(w).values(ss.points)).max() < 1e-12
        assert np.abs(divergence(w).values(ss.points)).max() < 1e-12

    def test_symmetry_violation_rejected(self):
        prob = gs_problem_from_plane(
            "translational", x * y + 0 * x, w3=parse_univariate("0"), chi=parse_univariate("0")
        )
        bad = gs_problem_from_plane(
            "translational", x * y, w3=parse_univariate("0"), chi=parse_univariate("0")
        )
        object.__setattr__(bad, "theta", x * y * z)  # inject axial dependence
        ss = sample(BALL, 200)
        gs_residual(prob, ss)
        with pytest.raises(ConstructionError, match="varies along the ignorable direction"):
            gs_residual(bad, ss)


class TestAxisymmetric:
    def test_quartic_flux_zero_residual_with_axial_component(self):
        prob = gs_problem_from_plane(
            "axisymmetric",
            x**4 / 8,  # plane slots are (r, z)
            w3=parse_univariate("0.7"),
            chi=parse_univariate("T"),
        )
        ss = sample(SHELL, 1000)
        rep = gs_residual(prob, ss)
        assert rep.max("gs_residual") < 1e-7
        assert rep.max("axial_term") < 1e-10
        w, chi = gs_reconstruct(prob)
        fb = force_balance_residual(w, chi, ss)
        assert fb.max("force_balance") < 1e-7
        assert fb.max("divergence") < 1e-9

    def test_against_independent_cylindrical_expansion(self):
        # w3 = c T with flat pressure: residual reduces to
        # T_rr - T_r/r + T_zz + c^2 T, coded here independently in (r, z)
        c = 0.6
        prob = gs_problem_from_plane(
            "axisymmetric",
            x**2 * y + x**3 / 3,
            w3=parse_univariate("0.6*T"),
            chi=parse_univariate("0"),
        )
        ss = sample(SHELL, 500)
        pts = ss.points
        r = np.hypot(pts[:, 0], pts[:, 1])
        zz = pts[:, 2]
        theta = r**2 * zz + r**3 / 3
        t_r = 2 * r * zz + r**2
        t_rr = 2 * zz + 2 * r
        t_zz = 0.0
        oracle = t_rr + t_r / r + t_zz - (2 / r) * t_r + c**2 * theta
        from mhstools.gradshafranov import _residual_field

        resid, _ = _residual_field(prob)
        np.testing.assert_allclose(resid.values(pts), oracle, atol=1e-8)


class TestChart:
    def test_chart_metadata(self):
        ax = SymmetricChart("axisymmetric")
        pts = np.array([[0.6, 0.8, 0.3]])
        assert ax.g33.values(pts)[0] == pytest.approx(1.0)  # r = 1 here
        np.testing.assert_allclose(ax.axis_tangent(pts[0]), [-0.8, 0.6, 0.0])
        with pytest.raises(ValueError):
            SymmetricChart("helical")

    def test_axis_tangent_parallel_grad_x3(self):
        # both canonical charts annihilate the fifth reduced-equation term
        for kind in ("translational", "axisymmetric"):
            chart = SymmetricChart(kind)
            from mhstools.fields import Cross

            cr = Cross(chart.axis_tangent, chart.grad_x3)
            ss = sample(SHELL, 200)
            assert np.abs(cr.values(ss.points)).max() < 1e-14


class TestGeneralized:
    def setup_method(self):
        self.data, self.domain = example_decomposition("w4_1")
        self.samples = sample(self.domain, 500)

    def test_normalization_and_lhs(self):
        rep = ggse_check(self.data, self.samples)
        assert rep.max("normalization") < 1e-6
        assert rep.max("ggse_lhs") < 1e-6
        assert rep.max("curl_identity") < 1e-9
        assert rep.max("potential_gap") < 1e-9

    def test_constant_shift_of_psi_preserves_residuals(self):
        shifted = GGSData(
            w=self.data.w,
            theta=self.data.theta,
            psi=self.data.psi + 3.7,
            x1=self.data.x1,
            x2=self.data.x2,
        )
        rep = ggse_check(shifted, self.samples)
        assert rep.max("normalization") < 1e-6
        # shifting Psi by a constant changes grad Phi = w - Psi grad Theta by
        # a gradient, so the projected-balance channel is preserved as well
        assert rep.max("ggse_lhs") < 1e-6

    def test_doubled_psi_breaks_normalization(self):
        bad = GGSData(
            w=self.data.w,
            theta=self.data.theta,
            psi=2.0 * self.data.psi,
            x1=self.data.x1,
            x2=self.data.x2,
        )
        rep = ggse_check(bad, self.samples)
        assert rep.max("normalization") == pytest.approx(1.0, abs=1e-9)

    def test_refuses_constant_pressure_data(self):
        from mhstools import beltrami

        rec = beltrami.catalog("exp_x3")
        data = GGSData(w=rec.field, theta=Const(1.0), psi=Const(0.0), x1=x, x2=y)
        with pytest.raises(ConstructionError, match="grad Theta vanishes"):
            ggse_check(data, sample(BALL, 200))

    def test_potential_by_path_integration(self):
        v = self.data.w - VScale(self.data.psi, Gradient(self.data.theta))
        base = np.array([0.1, -0.2, 0.5])
        for target in [np.array([0.6, 0.4, 0.8]), np.array([-0.7, 0.9, 0.3])]:
            i_a = path_integrate(v, base, target, order=(0, 1, 2))
            i_b = path_integrate(v, base, target, order=(2, 1, 0))
            assert abs(i_a - i_b) < 1e-6  # path independence: v is a gradient
            closed = self.data.phi(target) - self.data.phi(base)
            assert abs(i_a - closed) < 1e-6

    def test_decurl_identity(self):
        # grad Psi x grad Theta equals curl w for the derived split
        from mhstools.fields import Cross, Curl

        resid = Curl(self.data.w) - Cross(
            Gradient(self.data.psi), Gradient(self.data.theta)
        )
        assert np.abs(resid.values(self.samples.points)).max() < 1e-12

    def test_unknown_decomposition(self):
        with pytest.raises(ValueError, match="no built-in decomposition") as ei:
            example_decomposition("w4_2")
        assert type(ei.value) is ValueError
