"""Rigid-symmetry scans and locally adapted symmetry constructions."""

import numpy as np
import pytest

from mhstools import beltrami, clebsch
from mhstools.domains import Domain, sample
from mhstools.fields import (
    EvalContext,
    Gradient,
    VScale,
    cos,
    cross,
    log,
    sin,
    vector,
    x,
    y,
    z,
)
from mhstools.reports import ConstructionError
from mhstools.symmetry import (
    CANONICAL_GENERATORS,
    S,
    T,
    KillingParams,
    alpha_from_characteristics,
    example_symmetry,
    killing_scan,
    lie_euclidean,
    verify_local_symmetry,
)

BALL = Domain.ball((0.0, 0.0, 0.0), 1.0)


class TestLieEuclidean:
    def test_zero_generator(self):
        w = beltrami.catalog("exp_x3").field
        L = lie_euclidean(w, KillingParams((0, 0, 0), (0, 0, 0)))
        pts = sample(BALL, 50).points
        assert np.abs(L.values(pts)).max() == 0.0

    def test_constant_field_rotation(self):
        w = vector(1.0, 0.0, 0.0)
        L = lie_euclidean(w, KillingParams((0, 0, 0), (0, 0, 1)))
        for p in [(0, 0, 0), (0.3, -0.2, 0.8)]:
            np.testing.assert_allclose(L(p), [0.0, -1.0, 0.0], atol=1e-15)

    @staticmethod
    def _exp_x3_x_projection(pts, a, b):
        # closed form of the x-projection of the transported exponential field
        xx, yy, zz = pts.T
        ax, ay, az = a
        bx, by, bz = b
        s = np.sin(yy + np.exp(zz))
        c = np.cos(yy + np.exp(zz))
        ex = np.exp(xx)
        return ex * s * (
            ay + bz * (1 + xx) - bx * zz + np.exp(zz) * (az + bx * yy - by * xx)
        ) - ex * c * (ax + by * zz - bz * yy)

    @pytest.mark.parametrize(
        "a,b",
        [
            ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
            ((0.2, -0.5, 0.9), (0.0, 0.0, 0.0)),
            ((0.0, 0.0, 0.0), (0.4, -1.1, 0.3)),
            ((0.7, 0.1, -0.2), (-0.3, 0.8, 0.5)),
        ],
    )
    def test_exponential_field_projection_closed_form(self, a, b):
        w = beltrami.catalog("exp_x3").field
        pts = sample(BALL, 100).points
        L = lie_euclidean(w, KillingParams(a, b)).values(pts)
        np.testing.assert_allclose(
            L[:, 0], self._exp_x3_x_projection(pts, a, b), atol=1e-12
        )

    @staticmethod
    def _zsq_x_projection(pts, a, b):
        xx, yy, zz = pts.T
        ax, ay, az = a
        bx, by, bz = b
        s = np.sin(yy + zz**2)
        c = np.cos(yy + zz**2)
        ex = np.exp(xx)
        return ex * s * (
            ay + 2 * zz * az + (2 * yy - 1) * zz * bx - 2 * zz * xx * by + (1 + xx) * bz
        ) - ex * c * (ax + zz * by - yy * bz)

    def test_squared_angle_field_projection_closed_form(self, rng):
        rec = beltrami.catalog("zsq_x3")
        pts = sample(rec.domain, 100).points
        for _ in range(5):
            a = tuple(rng.uniform(-1, 1, 3))
            b = tuple(rng.uniform(-1, 1, 3))
            L = lie_euclidean(rec.field, KillingParams(a, b)).values(pts)
            np.testing.assert_allclose(L[:, 0], self._zsq_x_projection(pts, a, b), atol=1e-12)


class TestKillingScan:
    @pytest.mark.parametrize("threshold", [float("nan"), 0.0, -1.0, 1.0])
    def test_threshold_must_lie_in_unit_interval(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            killing_scan(vector(1.0, 0.0, 0.0), BALL, samples=sample(BALL, 20),
                         threshold=threshold)

    def test_constant_field_dimension_four(self):
        w = vector(1.0, 0.0, 0.0)
        rep = killing_scan(w, BALL, samples=sample(BALL, 400))
        assert rep.null_dim == 4
        # brute force over canonical generators: all translations kill w,
        # among rotations only the one about the field axis does
        pts = sample(BALL, 100).points
        expected_null = []
        for gen in CANONICAL_GENERATORS:
            resid = np.abs(lie_euclidean(w, gen).values(pts)).max()
            expected_null.append(resid < 1e-12)
        assert expected_null == [True, True, True, True, False, False]
        # reported basis spans translations plus rotation about x-hat
        basis = np.array([list(k.a) + list(k.b) for k in rep.null_basis])
        target = np.zeros((4, 6))
        target[0, 0] = target[1, 1] = target[2, 2] = target[3, 3] = 1.0
        # projection of target onto the reported span is the identity
        proj = basis.T @ np.linalg.solve(basis @ basis.T, basis @ target.T)
        np.testing.assert_allclose(proj.T, target, atol=1e-10)

    def test_single_mode_abc_flow_has_translations_and_screw(self):
        # the z-dependent planar field is killed by both translations in the
        # plane and by the screw z-translation + z-rotation combination
        rec = beltrami.catalog("abc_minimal")
        rep = killing_scan(rec.field, rec.domain, samples=sample(rec.domain, 500))
        assert rep.null_dim == 3
        pts = sample(rec.domain, 200, generator="random", seed=11).points
        for gen in (
            KillingParams((1, 0, 0), (0, 0, 0)),
            KillingParams((0, 1, 0), (0, 0, 0)),
            KillingParams((0, 0, 1), (0, 0, -1)),
        ):
            resid = np.abs(lie_euclidean(rec.field, gen).values(pts)).max()
            assert resid < 1e-12

    def test_cylindrical_field_axis_rotation(self):
        rec = beltrami.catalog("cylindrical")
        rep = killing_scan(rec.field, rec.domain, samples=sample(rec.domain, 500))
        assert rep.null_dim == 1
        k = rep.null_basis[0]
        v = np.array(list(k.a) + list(k.b))
        target = np.zeros(6)
        target[5] = 1.0  # rotation about z-hat
        assert abs(abs(v @ target) - 1.0) < 1e-8

    @pytest.mark.parametrize("name", ["exp_x3", "zsq_x3", "example3"])
    def test_asymmetric_eigenfields(self, name):
        rec = beltrami.catalog(name)
        rep = killing_scan(rec.field, rec.domain, samples=sample(rec.domain, 600))
        assert rep.null_dim == 0

    @pytest.mark.parametrize("name", ["w4_1", "w4_2", "w4_3"])
    def test_asymmetric_pressure_fields(self, name):
        sol = clebsch.catalog(name)
        rep = killing_scan(sol.w, sol.domain, samples=sample(sol.domain, 600))
        assert rep.null_dim == 0

    def test_stability_under_sampling_changes(self):
        rec = beltrami.catalog("cylindrical")
        base = killing_scan(rec.field, rec.domain, samples=sample(rec.domain, 400))
        doubled = killing_scan(rec.field, rec.domain, samples=sample(rec.domain, 800))
        reseeded = killing_scan(
            rec.field, rec.domain,
            samples=sample(rec.domain, 400, generator="random", seed=123),
        )
        assert base.null_dim == doubled.null_dim == reseeded.null_dim == 1

    def test_stability_under_rigid_rotation_of_samples(self):
        rec = beltrami.catalog("exp_x3")
        ss = sample(rec.domain, 400)
        ang = 0.37
        rot = np.array(
            [[np.cos(ang), -np.sin(ang), 0], [np.sin(ang), np.cos(ang), 0], [0, 0, 1]]
        )
        from mhstools.domains import SampleSet

        rotated = SampleSet(
            points=ss.points @ rot.T, generator="halton", seed=0, domain=rec.domain
        )
        a = killing_scan(rec.field, rec.domain, samples=ss)
        b = killing_scan(rec.field, rec.domain, samples=rotated)
        assert a.null_dim == b.null_dim == 0

    def test_scale_equivariance(self):
        rec = beltrami.catalog("cylindrical")
        scaled = VScale(7.3, rec.field)
        ss = sample(rec.domain, 400)
        a = killing_scan(rec.field, rec.domain, samples=ss)
        b = killing_scan(scaled, rec.domain, samples=ss)
        assert a.null_dim == b.null_dim
        va = np.array(list(a.null_basis[0].a) + list(a.null_basis[0].b))
        vb = np.array(list(b.null_basis[0].a) + list(b.null_basis[0].b))
        assert abs(abs(va @ vb) - 1.0) < 1e-8

    def test_out_of_sample_validation_of_null_vectors(self):
        for name in ("abc_minimal", "cylindrical"):
            rec = beltrami.catalog(name)
            rep = killing_scan(rec.field, rec.domain, samples=sample(rec.domain, 500))
            fresh = sample(rec.domain, 500, generator="random", seed=99)
            grad_mag = max(
                np.abs(
                    np.stack(
                        [
                            c.grad
                            for c in rec.field.jets(fresh.points, 1, EvalContext(500))
                        ],
                        axis=1,
                    )
                ).max(),
                1e-30,
            )
            for k in rep.null_basis:
                resid = np.abs(lie_euclidean(rec.field, k).values(fresh.points)).max()
                assert resid / (k.norm() * grad_mag) < 10 * rep.threshold

    def test_needs_six_samples(self):
        with pytest.raises(ValueError):
            killing_scan(vector(1.0, 0.0, 0.0), BALL, samples=sample(BALL, 3))

    def test_needs_six_valid_samples(self):
        with pytest.raises(ValueError, match="too few valid samples"):
            killing_scan(vector(log(x - 10.0), y, 1.0), BALL, samples=sample(BALL, 20))

    def test_zero_field_has_every_generator_in_its_null_space(self):
        rep = killing_scan(vector(0.0, 0.0, 0.0), BALL, samples=sample(BALL, 20))
        assert rep.null_dim == 6 and len(rep.null_basis) == 6
        assert rep.notes["zero_operator"] is True
        assert rep.boundary_gap is None

    def test_invalid_samples_are_counted_and_excluded(self):
        cube = Domain.box((-1, -1, -1), (1, 1, 1))
        ss = sample(cube, 200)
        rep = killing_scan(vector(log(x), y, 1.0), cube, samples=ss)
        assert rep.notes["n_invalid_samples"] == int((ss.points[:, 0] <= 0.0).sum()) > 0


class TestSymbolicOracle:
    """Closed-form null space of the single-mode ABC flow, built in sympy."""

    @staticmethod
    def _lie_map(sp):
        # L_xi w = J(w) xi - J(xi) w for w = (sin z, cos z, 0), xi = a + b x r
        r = sp.Matrix(sp.symbols("x y z", real=True))
        params = sp.Matrix(sp.symbols("a1:4 b1:4", real=True))
        xi = params[:3, 0] + params[3:, 0].cross(r)
        w = sp.Matrix([sp.sin(r[2]), sp.cos(r[2]), 0])
        return r, params, w.jacobian(r) * xi - xi.jacobian(r) * w

    def test_abc_minimal_null_space_is_translations_and_screw(self):
        sp = pytest.importorskip("sympy")
        r, params, lie = self._lie_map(sp)
        xx, yy, zz = r
        c, s = sp.cos(zz), sp.sin(zz)
        stated = sp.Matrix(
            [
                [0, 0, c, yy * c, -xx * c, c],
                [0, 0, -s, -yy * s, xx * s, -s],
                [0, 0, 0, -c, s, 0],
            ]
        )
        assert sp.simplify(lie.jacobian(params) - stated) == sp.zeros(3, 6)
        # the functions x^i y^j cos z and x^i y^j sin z are linearly
        # independent, so a constant (a, b) kills w exactly when every
        # coefficient of every component vanishes
        cz, sz = sp.symbols("cz sz")
        eqs = []
        for comp in lie:
            poly = sp.Poly(sp.expand(comp).subs({c: cz, s: sz}), xx, yy, zz, cz, sz)
            eqs.extend(poly.coeffs())
        system, _ = sp.linear_eq_to_matrix(eqs, list(params))
        null = sp.Matrix.hstack(*system.nullspace()).T
        expected = sp.Matrix(
            [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, -1]]
        )
        assert null.rank() == 3
        assert sp.Matrix.vstack(null, expected).rank() == 3

    def test_symbolic_map_matches_program_operator(self, rng):
        sp = pytest.importorskip("sympy")
        r, params, lie = self._lie_map(sp)
        fn = sp.lambdify([*r, *params], list(lie), "numpy")
        rec = beltrami.catalog("abc_minimal")
        pts = sample(rec.domain, 100, generator="random", seed=5).points
        for _ in range(4):
            ab = rng.uniform(-1, 1, 6)
            k = KillingParams(tuple(ab[:3]), tuple(ab[3:]))
            ref = np.stack(fn(*pts.T, *ab), axis=1)
            got = lie_euclidean(rec.field, k).values(pts)
            np.testing.assert_allclose(got, ref, atol=1e-13)


class TestLocalSymmetries:
    def test_planar_translations_from_free_functions(self):
        w = beltrami.catalog("abc_minimal").field
        dom = Domain.box((-1, -1, 0.4), (1, 1, 1.3))
        ss = sample(dom, 400)
        # (p, g) = (1, -sin t) gives the x-translation
        xi = example_symmetry("abc_minimal", p=0.0 * S + 1.0, g=-sin(T))
        np.testing.assert_allclose(xi((0.3, 0.2, 0.8)), [1, 0, 0], atol=1e-14)
        rep = verify_local_symmetry(w, xi, ss)
        assert rep.max("lie_derivative") == 0.0
        # (p, g) = (0, -cos t) gives the y-translation
        xi2 = example_symmetry("abc_minimal", p=0.0 * S, g=-cos(T))
        np.testing.assert_allclose(xi2((0.3, 0.2, 0.8)), [0, 1, 0], atol=1e-14)

    def test_planar_generic_free_functions(self):
        w = beltrami.catalog("abc_minimal").field
        dom = Domain.box((-1, -1, 0.4), (1, 1, 1.3))
        ss = sample(dom, 400)
        xi = example_symmetry("abc_minimal", p=S**2 + sin(T), g=0.3 * T**2)
        rep = verify_local_symmetry(w, xi, ss)
        assert rep.max("lie_derivative") < 1e-10
        assert rep.max("div_xi") < 1e-10

    def test_axis_rotation_from_free_functions(self):
        w = beltrami.catalog("cylindrical").field
        xi = example_symmetry("cylindrical", p=0.0 * S, g=-sin(T))
        # the construction carries the coefficient factor -1, so the result
        # is minus the azimuthal tangent; either sign generates the rotation
        pt = (1.0, 0.3, 0.6)
        np.testing.assert_allclose(xi(pt), [0.3, -1.0, 0.0], atol=1e-13)
        dom = Domain.cylindrical_shell(0.5, 1.5, 0.3, 1.0)
        ss = sample(dom, 400)
        rep = verify_local_symmetry(w, xi, ss)
        assert rep.max("lie_derivative") < 1e-8
        assert rep.max("div_xi") < 1e-8

    def test_cylindrical_generic_free_functions(self):
        w = beltrami.catalog("cylindrical").field
        xi = example_symmetry("cylindrical", p=0.5 * S + sin(T), g=-sin(T), q=0.2 * T)
        # wedge domain keeps the azimuth away from the branch cut
        dom = Domain.box((0.6, -0.35, 0.7), (1.2, 0.35, 1.3))
        ss = sample(dom, 400)
        rep = verify_local_symmetry(w, xi, ss)
        assert rep.max("lie_derivative") < 1e-9
        assert rep.max("div_xi") < 1e-9

    def test_squared_angle_example_symmetry(self):
        w = beltrami.catalog("example3").field
        xi = example_symmetry("example3", p=0.0 * S, g=T)
        dom = Domain.box((-1.0, 0.1, 0.6), (1.0, 1.0, 1.4))
        ss = sample(dom, 500)
        rep = verify_local_symmetry(w, xi, ss)
        assert rep.max("lie_derivative") < 1e-7
        assert rep.max("div_xi") < 1e-8

    def test_cross_product_recovers_free_function_gradient(self):
        # w x xi = grad g for the construction's free function g
        cases = [
            ("abc_minimal", dict(p=0.0 * S + 1.0, g=-sin(T)), -sin(z), BALL),
            (
                "cylindrical",
                dict(p=0.0 * S, g=-sin(T)),
                -sin(z),
                Domain.cylindrical_shell(0.5, 1.5, 0.3, 1.0),
            ),
            (
                "example3",
                dict(p=0.0 * S, g=T),
                z**2,
                Domain.box((-1.0, 0.1, 0.6), (1.0, 1.0, 1.4)),
            ),
        ]
        for name, free, g_spatial, dom in cases:
            w = beltrami.catalog(name).field
            xi = example_symmetry(name, **free)
            ss = sample(dom, 300)
            resid = cross(w, xi) - Gradient(g_spatial)
            assert np.abs(resid.values(ss.points)).max() < 1e-7, name


class TestAlphaTransport:
    def test_planar_chart_alpha(self):
        closed = alpha_from_characteristics(
            "abc_minimal", p=sin(S) + T, g=0.0 * T, n_targets=100, tol=1e-6
        )
        # returned closed form solves the transport equation: alpha is
        # constant along (1, cot z, 0)
        dom = Domain.box((-1, -1, 0.5), (1, 1, 1.3))
        ss = sample(dom, 200)
        adv = vector(1.0, cos(z) / sin(z), 0.0)
        from mhstools.fields import Dot

        drift = Dot(adv, Gradient(closed))
        assert np.abs(drift.values(ss.points)).max() < 1e-9

    def test_cylindrical_chart_alpha(self):
        alpha_from_characteristics(
            "cylindrical", p=0.0 * S + 1.0, g=-sin(T), n_targets=100, tol=1e-6
        )

    def test_constant_data_transported_unchanged(self):
        closed = alpha_from_characteristics(
            "abc_minimal", p=0.0 * S + 2.5, g=0.0 * T, n_targets=50, tol=1e-9
        )
        ss = sample(Domain.box((-1, -1, 0.5), (1, 1, 1.3)), 100)
        np.testing.assert_allclose(closed.values(ss.points), 2.5, atol=1e-12)

    def test_mismatch_beyond_tolerance_raises(self):
        with pytest.raises(ConstructionError, match="characteristic alpha mismatch"):
            alpha_from_characteristics("abc_minimal", p=sin(S) + T, g=0.0 * T, n_targets=50,
                                       tol=1e-300)

    def test_unknown_example_rejected(self):
        with pytest.raises(ValueError, match="no alpha construction") as ei:
            alpha_from_characteristics("exp_x3", p=S, g=T)
        assert type(ei.value) is ValueError
