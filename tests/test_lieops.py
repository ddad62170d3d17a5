"""Commutation of transport with the curl, and orbit generation."""

import numpy as np
import pytest
from conftest import random_solenoidal_field

from mhstools import beltrami, lieops
from mhstools.domains import Domain, sample
from mhstools.fields import cos, curl, exp, sin, vector, x, y, z
from mhstools.lieops import (
    H_SYMMETRY_TOL,
    commutator_defect,
    h_symmetry_check,
    lie_generate,
)
from mhstools.reports import ConstructionError
from mhstools.symmetry import KillingParams, killing_scan, lie_euclidean

BALL = Domain.ball((0.0, 0.0, 0.0), 1.0)


def isometry_pullback_values(w, k, eps, pts):
    """Values of the finite-isometry transport of w at parameter eps.

    For the rigid flow of xi = a + b x r the pullback is
    R(-eps) w(R(eps) p + t(eps)); the first-order term in eps is the Lie
    derivative, which the orbit machinery uses infinitesimally.
    """
    a = np.asarray(k.a)
    b = np.asarray(k.b)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        moved = pts + eps * a
        return w.values(moved)
    if np.linalg.norm(a) > 0:
        raise ValueError("pullback supports pure translations or pure rotations")
    axis = b / nb
    ang = eps * nb

    def rot(p, s):
        c, sn = np.cos(s), np.sin(s)
        return (
            c * p
            + sn * np.cross(np.broadcast_to(axis, p.shape), p)
            + (1 - c) * (p @ axis)[:, None] * axis[None, :]
        )

    moved = rot(pts, ang)
    vals = w.values(moved)
    return rot(vals, -ang)


class TestCommutator:
    def test_zero_generator_exact(self):
        w = beltrami.catalog("abc_minimal").field
        ss = sample(BALL, 100)
        rep = commutator_defect(w, KillingParams((0, 0, 0), (0, 0, 0)), ss)
        assert rep.max("commutator") == 0.0

    def test_catalog_field_translation(self):
        w = beltrami.catalog("abc_minimal").field
        ss = sample(BALL, 200)
        rep = commutator_defect(w, KillingParams((0, 0, 1), (0, 0, 0)), ss)
        assert rep.max("commutator") < 1e-10

    def test_random_solenoidal_fields(self, rng):
        ss = sample(BALL, 200)
        worst = 0.0
        for _ in range(50):
            w = random_solenoidal_field(rng)
            k = KillingParams(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
            rep = commutator_defect(w, k, ss)
            assert rep.notes["divergence_max"] < 1e-10
            worst = max(worst, rep.max("commutator"))
        assert worst < 1e-10

    def test_structural_curl_field(self, rng):
        # a field given as the curl of a potential takes third derivatives
        # of the potential, exact through the jets
        a = vector(sin(y * z), exp(x) * cos(z), x * y**2)
        w = curl(a)
        ss = sample(BALL, 100)
        k = KillingParams((0.3, -0.2, 0.5), (0.1, 0.4, -0.3))
        rep = commutator_defect(w, k, ss)
        assert rep.max("commutator") < 1e-10

    def test_non_rigid_transport_does_not_commute(self):
        # sanity: the cancellation is special to rigid generators, so a
        # generic solenoidal xi leaves a finite defect
        from mhstools.fields import Curl, Lie

        w = beltrami.catalog("abc_minimal").field
        xi = vector(y**2, z**2, x**2)
        ss = sample(BALL, 100)
        defect = Lie(xi, Curl(w)) - Curl(Lie(xi, w))
        assert np.abs(defect.values(ss.points)).max() > 1e-2


class TestHSymmetry:
    def test_linear_coefficient_translations(self):
        h = 2.0 * z
        ss = sample(beltrami.catalog("zsq_x3").domain, 200)
        assert h_symmetry_check(h, KillingParams((1, 0, 0), (0, 0, 0)), ss).max("h_symmetry") == 0.0
        assert h_symmetry_check(h, KillingParams((0, 0, 0), (0, 0, 1)), ss).max("h_symmetry") == 0.0

    def test_axial_translation_fails_hypothesis(self):
        h = 2.0 * z
        ss = sample(beltrami.catalog("zsq_x3").domain, 200)
        rep = h_symmetry_check(h, KillingParams((0, 0, 1), (0, 0, 0)), ss)
        assert rep.max("h_symmetry") == pytest.approx(2.0)
        assert rep.stat("h_symmetry").mean == pytest.approx(2.0)


class TestOrbits:
    def test_x_translation_fixes_the_field(self):
        rec = beltrami.catalog("zsq_x3")
        ss = sample(rec.domain, 300)
        orbit = lie_generate(rec, KillingParams((1, 0, 0), (0, 0, 0)), 3, samples=ss)
        assert len(orbit.members) == 4
        for m in orbit.members:
            diff = np.abs((m.field - rec.field).values(ss.points)).max()
            assert diff < 1e-9
        assert orbit.members[1].report.max("beltrami") < 1e-7

    def test_rotation_produces_asymmetric_eigenfield(self):
        rec = beltrami.catalog("zsq_x3")
        ss = sample(rec.domain, 300)
        orbit = lie_generate(rec, KillingParams((0, 0, 0), (0, 0, 1)), 1, samples=ss)
        m1 = orbit.members[1]
        assert m1.report.max("beltrami") < 1e-8
        assert m1.report.max("divergence") < 1e-8
        closed = vector(
            exp(x) * ((1 + x) * sin(y + z**2) + y * cos(y + z**2)),
            exp(x) * ((1 + x) * cos(y + z**2) - y * sin(y + z**2)),
            0.0,
        )
        diff = np.abs(m1.field.values(ss.points) - closed.values(ss.points)).max()
        assert diff < 1e-8
        scan = killing_scan(m1.field, rec.domain, samples=sample(rec.domain, 500))
        assert scan.null_dim == 0

    def test_second_member_keeps_eigenrelation(self):
        rec = beltrami.catalog("zsq_x3")
        ss = sample(rec.domain, 300)
        orbit = lie_generate(rec, KillingParams((0, 0, 0), (0, 0, 1)), 2, samples=ss)
        m2 = orbit.members[2]
        assert not m2.terminal_null
        assert m2.report.max("beltrami") < 1e-7
        assert m2.report.max("divergence") < 1e-8

    def test_base_norm_is_evaluated_once(self, monkeypatch):
        # member 0 is the base field: its norm also sets the terminal-null scale
        fields = []
        real = lieops.vector_norm_stats
        monkeypatch.setattr(lieops, "vector_norm_stats",
                            lambda w, samples, memo: fields.append(w) or real(w, samples, memo))
        rec = beltrami.catalog("zsq_x3")
        orbit = lie_generate(rec, KillingParams((0, 0, 0), (0, 0, 1)), 2,
                             samples=sample(rec.domain, 100))
        assert len(fields) == 3  # not 4: the base norm is member 0's
        assert [m.field for m in orbit.members] == fields

    def test_deep_member_is_exact(self):
        # member 4 takes fifth derivatives of the base field; exact jets keep
        # it at roundoff under the one member gate
        rec = beltrami.catalog("zsq_x3")
        ss = sample(rec.domain, 400)
        orbit = lie_generate(rec, KillingParams((0, 0, 0), (0, 0, 1)), 4, samples=ss)
        assert len(orbit.members) == 5 and not orbit.truncated
        m4 = orbit.members[4]
        assert m4.gate == 1e-8
        assert max(m4.report.max("beltrami"), m4.report.max("divergence")) < 1e-12

    def test_terminal_null_on_symmetry_direction(self):
        rec = beltrami.catalog("abc_minimal")
        orbit = lie_generate(rec, KillingParams((1, 0, 0), (0, 0, 0)), 3)
        assert len(orbit.members) == 2  # base plus the vanishing transport
        assert orbit.members[1].terminal_null
        assert orbit.members[1].max_magnitude < 1e-12

    def test_hypothesis_failure_raises(self):
        rec = beltrami.catalog("zsq_x3")
        with pytest.raises(ConstructionError, match="does not preserve the coefficient") as ei:
            lie_generate(rec, KillingParams((0, 0, 1), (0, 0, 0)), 1)
        assert ei.value.report.max("h_symmetry") > H_SYMMETRY_TOL

    def test_depth_cap(self):
        rec = beltrami.catalog("zsq_x3")
        with pytest.raises(ValueError):
            lie_generate(rec, KillingParams((1, 0, 0), (0, 0, 0)), 9)

    def test_linearity_of_first_member(self):
        rec = beltrami.catalog("zsq_x3")
        ss = sample(rec.domain, 200)
        k1 = KillingParams((1, 0, 0), (0, 0, 0))
        k2 = KillingParams((0, 0, 0), (0, 0, 1))
        o1 = lie_generate(rec, k1, 1, samples=ss)
        o2 = lie_generate(rec, k2, 1, samples=ss)
        o12 = lie_generate(rec, k1 + k2, 1, samples=ss)
        combined = o1.members[1].field.values(ss.points) + o2.members[1].field.values(
            ss.points
        )
        direct = o12.members[1].field.values(ss.points)
        assert np.abs(direct - combined).max() < 1e-10


class TestInfinitesimalIsometry:
    def test_pullback_remainder_is_second_order(self):
        # the finite rotation transport agrees with the linearization up to
        # a remainder scaling as the square of the parameter
        rec = beltrami.catalog("zsq_x3")
        k = KillingParams((0, 0, 0), (0, 0, 1))
        inner = Domain.box((-0.7, -0.7, 0.6), (0.7, 0.7, 1.4))
        pts = sample(inner, 150).points
        lw = lie_euclidean(rec.field, k).values(pts)
        w0 = rec.field.values(pts)
        eps_values = [1e-2, 1e-3, 1e-4]
        errs = []
        for eps in eps_values:
            pulled = isometry_pullback_values(rec.field, k, eps, pts)
            errs.append(np.abs(pulled - (w0 + eps * lw)).max())
        slopes = np.diff(np.log(errs)) / np.diff(np.log(eps_values))
        assert np.all(np.abs(slopes - 2.0) < 0.1)

    def test_translation_pullback(self):
        rec = beltrami.catalog("zsq_x3")
        k = KillingParams((1, 0, 0), (0, 0, 0))
        inner = Domain.box((-0.7, -0.7, 0.6), (0.7, 0.7, 1.4))
        pts = sample(inner, 100).points
        lw = lie_euclidean(rec.field, k).values(pts)
        w0 = rec.field.values(pts)
        errs = []
        eps_values = [1e-2, 1e-3]
        for eps in eps_values:
            pulled = isometry_pullback_values(rec.field, k, eps, pts)
            errs.append(np.abs(pulled - (w0 + eps * lw)).max())
        slope = (np.log(errs[1]) - np.log(errs[0])) / (
            np.log(eps_values[1]) - np.log(eps_values[0])
        )
        assert abs(slope - 2.0) < 0.1
