"""Expression-tree operators: spec examples, identities, FD agreement."""

import re

import numpy as np
import pytest
from conftest import fd_gradient, fd_hessian, random_scalar_field, random_solenoidal_field

from mhstools import fields
from mhstools.domains import Domain, sample
from mhstools.fields import (
    Compose1,
    Const,
    Coord,
    Divergence,
    EvalContext,
    EvaluationError,
    Gradient,
    Placeholder,
    ScalarField,
    atan2,
    cos,
    cross,
    curl,
    divergence,
    evaluate,
    exp,
    grad,
    lie_derivative,
    log,
    sin,
    sqrt,
    substitute,
    vector,
    x,
    y,
    z,
)
from mhstools.reports import CheckStats, ResidualReport

BALL = Domain.ball((0.0, 0.0, 0.0), 1.0)


class TestEvalJet:
    def test_polynomial(self):
        j = (x**2 - y**2).jet(np.array([[1.0, 2.0, 0.0]]), 2, EvalContext(1))
        assert j.value[0] == pytest.approx(-3.0)
        np.testing.assert_allclose(j.grad[0], [2.0, -4.0, 0.0])
        np.testing.assert_allclose(np.diag(j.hessian()[0]), [2.0, -2.0, 0.0])

    def test_exp_sin(self):
        j = (exp(x) * sin(y)).jet(np.zeros((1, 3)), 2, EvalContext(1))
        assert j.value[0] == pytest.approx(0.0)
        np.testing.assert_allclose(j.grad[0], [0.0, 1.0, 0.0])

    def test_exp_cos_hessian_vs_fd(self):
        f = exp(x) * cos(y)
        j = f.jet(np.zeros((1, 3)), 2, EvalContext(1))
        np.testing.assert_allclose(j.grad[0], [1.0, 0.0, 0.0], atol=1e-14)
        fd = fd_hessian(lambda p: f(p), np.zeros(3), h=1e-4)
        np.testing.assert_allclose(j.hessian()[0], fd, atol=1e-6)

    def test_domain_error_names_node(self):
        with pytest.raises(EvaluationError) as ei:
            log(y - 1.0)((0.0, 0.5, 0.0))
        assert "log" in str(ei.value)


class TestGrad:
    def test_constant_direction(self):
        g = grad(z + 0.0 * x)
        for p in [(0, 0, 0), (0.3, -0.7, 0.2)]:
            np.testing.assert_allclose(g(p), [0.0, 0.0, 1.0])

    def test_polynomial(self):
        g = grad((x**2 - y**2) / 2 + z)
        np.testing.assert_allclose(g((0.4, 0.5, -0.1)), [0.4, -0.5, 1.0])

    def test_exp_sin_at_quarter_turn(self):
        g = grad(exp(x) * sin(y))
        np.testing.assert_allclose(g((0.0, np.pi / 2, 0.0)), [1.0, 0.0, 0.0], atol=1e-15)
        fd = fd_gradient(lambda p: float(np.exp(p[0]) * np.sin(p[1])), (0.0, np.pi / 2, 0.0))
        np.testing.assert_allclose(g((0.0, np.pi / 2, 0.0)), fd, atol=1e-7)


class TestDivCurl:
    def test_div_shear(self):
        assert Divergence(vector(x, -y, 0.0))((0.7, 0.1, -0.3)) == pytest.approx(0.0)

    def test_div_radial(self):
        assert Divergence(vector(x, y, z))((0.2, 0.4, 0.6)) == pytest.approx(3.0)

    def test_div_of_pressure_field(self):
        w = vector(x + exp(-z), -y, 1.0)
        assert abs(Divergence(w)((0.3, -0.2, 0.5))) < 1e-12

    def test_curl_of_gradient_vanishes(self, rng):
        pts = sample(BALL, 100).points
        for _ in range(50):
            f = random_scalar_field(rng)
            vals = curl(grad(f)).values(pts)
            assert np.abs(vals).max() < 1e-9

    def test_curl_abc_at_origin(self):
        w = vector(sin(z), cos(z), 0.0)
        np.testing.assert_allclose(curl(w)((0.0, 0.0, 0.0)), [0.0, 1.0, 0.0], atol=1e-15)

    def test_curl_pressure_field_at_origin(self):
        w = vector(x + exp(-z), -y, 1.0)
        np.testing.assert_allclose(curl(w)((0.0, 0.0, 0.0)), [0.0, -1.0, 0.0], atol=1e-15)
        # cross-check against finite differences of the components
        h = 1e-4
        dwx_dz = (w((0, 0, h))[0] - w((0, 0, -h))[0]) / (2 * h)
        assert curl(w)((0.0, 0.0, 0.0))[1] == pytest.approx(dwx_dz, abs=1e-7)

    def test_div_of_curl_vanishes(self, rng):
        pts = sample(BALL, 100).points
        for _ in range(50):
            wf = vector(
                random_scalar_field(rng), random_scalar_field(rng), random_scalar_field(rng)
            )
            vals = divergence(curl(wf)).values(pts)
            assert np.abs(vals).max() < 1e-9


class TestLieDerivative:
    def test_self_transport_vanishes(self, rng):
        w = random_solenoidal_field(rng)
        pts = sample(BALL, 50).points
        vals = lie_derivative(w, w).values(pts)
        assert np.abs(vals).max() < 1e-12

    def test_constant_field_against_rotation(self):
        w = vector(1.0, 0.0, 0.0)
        xi = vector(-y, x, 0.0)  # b = z-hat
        ld = lie_derivative(w, xi)
        for p in [(0, 0, 0), (0.5, 0.2, -0.4)]:
            np.testing.assert_allclose(ld(p), [0.0, -1.0, 0.0], atol=1e-15)

    def test_translation_symmetry_of_abc(self):
        w = vector(sin(z), cos(z), 0.0)
        xi = vector(1.0, 0.0, 0.0)
        pts = sample(BALL, 100).points
        assert np.abs(lie_derivative(w, xi).values(pts)).max() == 0.0

    def test_solenoidal_identity_curl_form(self, rng):
        # for solenoidal w, xi: Lie(xi) w = curl(w x xi)
        pts = sample(BALL, 100).points
        for _ in range(5):
            w = random_solenoidal_field(rng)
            xi = random_solenoidal_field(rng)
            lhs = lie_derivative(w, xi).values(pts)
            rhs = curl(cross(w, xi)).values(pts)
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_linearity_in_xi(self, rng):
        w = random_solenoidal_field(rng)
        xi1 = random_solenoidal_field(rng)
        xi2 = random_solenoidal_field(rng)
        a, b = 0.7, -1.3
        pts = sample(BALL, 50).points
        combo = lie_derivative(w, a * xi1 + b * xi2).values(pts)
        split = a * lie_derivative(w, xi1).values(pts) + b * lie_derivative(w, xi2).values(pts)
        assert np.abs(combo - split).max() < 1e-10


class TestAdFdAgreement:
    def test_gradients_match_fd(self, rng):
        pts = sample(BALL, 30).points
        for _ in range(5):
            f = random_scalar_field(rng)
            g = Gradient(f)
            gv = g.values(pts)
            for p, gp in zip(pts[:10], gv[:10]):
                fd = fd_gradient(lambda q: f(q), p)
                scale = max(1.0, np.abs(fd).max())
                assert np.abs(gp - fd).max() / scale < 1e-5

    def test_divergence_matches_fd(self, rng):
        for _ in range(5):
            w = vector(
                random_scalar_field(rng), random_scalar_field(rng), random_scalar_field(rng)
            )
            p = rng.uniform(-0.5, 0.5, size=3)
            h = 1e-4
            fd = 0.0
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd += (w(p + e)[i] - w(p - e)[i]) / (2 * h)
            got = Divergence(w)(p)
            assert abs(got - fd) / max(1.0, abs(fd)) < 1e-5


class TestForceBalance:
    def test_gradient_field_is_curl_free_equilibrium(self, rng):
        from mhstools.checks import force_balance_residual

        ss = sample(BALL, 500)
        for _ in range(3):
            w = grad(random_scalar_field(rng))
            rep = force_balance_residual(w, Const(0.0), ss)
            assert rep.max("force_balance") < 1e-10

    def test_product_potential_equilibrium_on_unit_ball(self):
        # closed-form components stay regular on the whole ball even where
        # the generating log potential does not
        from mhstools.checks import force_balance_residual

        w = vector(x + y * z, -2 * y, z)
        chi = y * z * (x + y * z / 2)
        ss = sample(BALL, 1000)
        rep = force_balance_residual(w, chi, ss)
        assert rep.max("force_balance") < 1e-10
        assert rep.max("divergence") < 1e-12

    def test_simple_pressure_solution_on_unit_ball(self):
        from mhstools.checks import force_balance_residual

        w = vector(x + exp(-z), -y, 1.0)
        chi = exp(-z) * (x + exp(-z) / 2)
        ss = sample(BALL, 1000)
        rep = force_balance_residual(w, chi, ss)
        assert rep.max("force_balance") < 1e-10


class TestErrorHandling:
    def test_batch_evaluation_records_errors_per_sample(self):
        f = log(y)  # invalid for y <= 0
        pts = np.array([[0.0, 0.5, 0.0], [0.0, -0.5, 0.0], [0.0, 2.0, 0.0]])
        vals = f.values(pts)
        assert np.isfinite(vals[[0, 2]]).all()
        assert np.isnan(vals[1])

    def test_report_excludes_failed_samples(self):
        from mhstools.checks import scalar_abs_stats

        f = log(y)
        box = Domain.box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
        ss = sample(box, 200)
        st, errors = scalar_abs_stats(f, ss)
        assert st.n_errors > 0
        assert st.n_errors + (st.n_samples - st.n_errors) == 200
        assert np.isfinite(st.max)
        assert errors  # offending node recorded

    # rows: valid, x < 0, y = 0, x = 0
    INVALID_PTS = np.array(
        [[1.0, 1.0, 0.0], [-1.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.5, 1.0]]
    )

    @pytest.mark.parametrize(
        "field,flagged,bad_row,node",
        [
            (log(x), [False, True, False, True], 1, "log(x)"),
            (vector(log(x), y, 1 / y), [False, True, True, True], 2, "1/y"),
        ],
        ids=["scalar", "vector"],
    )
    def test_entry_points_agree_on_invalid_samples(self, field, flagged, bad_row, node):
        from mhstools.checks import scalar_abs_stats, vector_norm_stats
        from mhstools.domains import SampleSet
        from mhstools.fields import VectorField, evaluate

        pts = self.INVALID_PTS
        _, ctx = evaluate(field, pts)
        assert ctx.invalid.tolist() == flagged
        # values(): NaN rows exactly where evaluate flags them, whole rows
        vals = field.values(pts).reshape(len(pts), -1)
        assert np.isnan(vals).any(axis=1).tolist() == flagged
        assert np.isnan(vals[ctx.invalid]).all()
        # __call__: the failing node is named, a valid point evaluates
        with pytest.raises(EvaluationError) as ei:
            field(pts[bad_row])
        assert repr(node) in str(ei.value)
        assert np.isfinite(field(pts[0])).all()
        # checks: the same samples are counted as errors
        stats = vector_norm_stats if isinstance(field, VectorField) else scalar_abs_stats
        ss = SampleSet(points=pts.copy(), generator="halton", seed=0,
                       domain=Domain.box((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0)))
        st, errors = stats(field, ss)
        assert st.n_errors == sum(flagged)
        assert node in errors


class TestOrderZeroEntry:
    # one row with x < 0, where log(x) flags
    PTS = np.array([[0.5, 1.0, 0.2], [1.5, -0.5, 0.3], [-0.5, 2.0, 0.1], [2.0, 0.5, -1.0]])
    CASES = pytest.mark.parametrize(
        "field,flagged",
        [
            (vector(0.0, -y, 1.0), []),
            (Gradient(x * y + sin(z)), []),
            (vector(log(x), y, 1.0), [2]),
        ],
        ids=["const-coord", "gradient", "flags-one-row"],
    )

    @CASES
    def test_vector_evaluate_returns_a_fresh_array(self, field, flagged):
        pts = self.PTS.copy()
        memo = {}
        v, _ = evaluate(field, pts, memo)
        assert v.dtype == np.float64 and v.shape == (len(pts), 3)
        assert v.flags.c_contiguous
        assert not np.shares_memory(v, pts)
        # a walk that flagged is not kept, so only a clean one leaves blocks
        blocks = [b for *_, jets in memo.values() for j in jets for b in j.c if b is not None]
        assert blocks or flagged
        assert not any(np.shares_memory(v, b) for b in blocks)
        before = v.copy()
        v[:] = 7.0
        again, _ = evaluate(field, pts, memo)
        np.testing.assert_array_equal(again, before)

    @CASES
    def test_values_is_evaluate_with_nan_on_flagged_rows(self, field, flagged):
        v, ctx = evaluate(field, self.PTS)
        assert np.flatnonzero(ctx.invalid).tolist() == flagged
        vals = field.values(self.PTS)
        assert np.flatnonzero(np.isnan(vals).any(axis=1)).tolist() == flagged
        assert np.isnan(vals[flagged]).all()
        ok = ~ctx.invalid
        assert vals[ok].tobytes() == v[ok].tobytes()


class TestPowDomain:
    # rows: x = 0, x = -1
    PTS = np.array([[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])

    @pytest.mark.parametrize(
        "expo,flagged",
        [(-0.5, [True, True]), (-1.0, [True, False]), (0.5, [False, True])],
    )
    def test_flags_zero_for_negative_and_below_zero_for_fractional(self, expo, flagged):
        f = x**expo
        node = f.render()
        _, ctx = evaluate(f, self.PTS)
        assert ctx.invalid.tolist() == flagged
        assert list(ctx.errors) == ([node] if any(flagged) else [])
        for p, bad in zip(self.PTS, flagged):
            if bad:
                with pytest.raises(EvaluationError, match=re.escape(f"node {node!r}")):
                    f(p)
            else:
                assert np.isfinite(f(p))

    def test_nonnegative_integer_power_is_never_flagged(self):
        _, ctx = evaluate(x**2, self.PTS)
        assert not ctx.invalid.any() and not ctx.errors

    @pytest.mark.parametrize("f", [x**0.5, sqrt(x)], ids=["pow", "sqrt"])
    def test_infinite_derivative_at_zero_names_the_node(self, f):
        assert f((0.0, 0.0, 0.0)) == 0.0  # values alone are finite
        with pytest.raises(EvaluationError, match=re.escape(f"node {f.render()!r}")):
            grad(f)((0.0, 0.0, 0.0))

    def test_fractional_power_flags_zero_above_its_exponent(self):
        f, pts = x**1.5, self.PTS[:1]
        for order, flagged in ((0, False), (1, False), (2, True)):
            ctx = EvalContext(1)
            with np.errstate(all="ignore"):
                j = f.jet(pts, order=order, ctx=ctx)
            assert bool(ctx.invalid[0]) == flagged
            assert list(ctx.errors) == (["x^1.5"] if flagged else [])
            assert all(np.isfinite(b).all() for b in j.c) != flagged


def _scalar_node_classes(cls=None):
    """Every concrete ScalarField node class, found through `__subclasses__`."""
    for sub in (cls or ScalarField).__subclasses__():
        if sub._fields:
            yield sub
        yield from _scalar_node_classes(sub)


def _build(cls, scalar):
    """An instance of `cls` with every scalar child set to `scalar`."""
    args = []
    for name, kind in cls._fields.items():
        if name == "gexpr":
            args.append(Placeholder("T"))
        elif kind == "VectorField":
            args.append(vector(scalar, y, z))
        else:
            args.append({"ScalarField": scalar, "float": 2.0, "int": 0, "str": "T"}[kind])
    return cls(*args)


HOLDS_VECTOR = {"Dot", "VComponent", "Divergence"}
SCALAR_NODES = sorted(_scalar_node_classes(), key=lambda c: c.__name__)


class TestSubstitute:
    def test_every_node_class_is_covered(self):
        names = {c.__name__ for c in SCALAR_NODES}
        assert {"Add", "Sub", "Mul", "Div", "Exp", "Atan2", "Compose1"} | HOLDS_VECTOR <= names

    @pytest.mark.parametrize("cls", SCALAR_NODES, ids=lambda c: c.__name__)
    def test_rebuilds_every_node(self, cls):
        node = _build(cls, x)  # a node in HOLDS_VECTOR maps inside its vector children
        assert substitute(node, {}) == node
        expected = y if cls is Coord else _build(cls, y)
        out = substitute(node, {"x": y})
        assert out == expected
        assert out.render() == expected.render()

    def test_compose1_substitutes_once_per_node(self, monkeypatch):
        node = Compose1(sin(Placeholder("T")) + Placeholder("T") ** 2, x * y)
        pts = np.array([[0.3, 0.4, 0.5], [1.0, -2.0, 0.0]])
        first = node.values(pts)
        calls = []
        monkeypatch.setattr(fields, "substitute", lambda *a: calls.append(a))
        for _ in range(3):
            np.testing.assert_array_equal(node.values(pts), first)
        assert calls == []
        assert list(node._fields) == ["gexpr", "inner", "var"]
        assert node == Compose1(node.gexpr, node.inner) and "_gx" not in repr(node)

    def test_compose1_keeps_its_own_expression(self):
        g = x * Placeholder("T") + Placeholder("T") ** 2
        out = substitute(Compose1(g, x + Placeholder("T")), {"x": z, "T": y})
        assert out.gexpr is g
        assert out.inner.render() == "z + y"

    @pytest.mark.parametrize(
        "made,expected",
        [
            (lambda: exp(1.0), "exp(1)"),
            (lambda: atan2(1.0, x), "atan2(1, x)"),
            (lambda: vector(0.0, x, 1), "(0, x, 1)"),
            (lambda: fields.Add(1.0, x), "1 + x"),
            (lambda: fields.Neg(2.0), "-2"),
            (lambda: fields.Pow(3.0, 2.0), "3^2"),
            (lambda: fields.Mul(x, 2), "x*2"),
        ],
        ids=["exp", "atan2", "vector", "add", "neg", "pow", "mul"],
    )
    def test_constructors_turn_numbers_into_const(self, made, expected):
        node = made()
        kids = [getattr(node, name) for name in node._scalars]
        assert kids and all(isinstance(k, Const) for k in kids if not isinstance(k, Coord))
        assert node.render() == expected
        assert np.isfinite(node.values(np.ones((2, 3)))).all()

    def test_rebuild_maps_a_vector_tree(self):
        tree = curl(vector(x, y, z))
        out = fields.rebuild(tree, lambda n: y if n == x else None)
        assert out == curl(vector(y, y, z))
        assert out.render() == "curl((y, y, z))"
        assert fields.rebuild(tree, lambda n: None) is tree  # nothing mapped: nothing rebuilt


class TestDeclaredFields:
    def test_separately_built_equal_trees_are_equal_and_hash_alike(self):
        def build():
            return lie_derivative(curl(vector(exp(x) * sin(y), 2.0, z**2)), vector(0.0, 0.0, 1.0))

        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != lie_derivative(curl(vector(exp(x) * sin(y), 3.0, z**2)),
                                   vector(0.0, 0.0, 1.0))

    @pytest.mark.parametrize("obj,name", [
        (x + y, "a"),
        (vector(x, y, z), "fx"),
        (BALL, "r_outer"),
        (CheckStats(1.0, 1.0, 1.0, 3, 0), "max"),
    ], ids=["node", "vector_node", "domain", "check_stats"])
    def test_assignment_to_a_frozen_instance_raises(self, obj, name):
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(obj, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(obj, name)

    def test_mutable_record_copies_its_dict_default_and_is_unhashable(self):
        a, b = ResidualReport("r", {}, {}), ResidualReport("r", {}, {})
        assert a == b and a.notes is not b.notes  # the dict default is copied per instance
        a.label = "s"
        assert a != b and a.replace(label="r") == b
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)

    @pytest.mark.parametrize("args,kwargs", [
        ((1.0, 2.0, 3.0, 4, 0, 9), {}),
        ((1.0, 2.0, 3.0, 4), {}),
        ((1.0, 2.0, 3.0, 4), {"n_errors": 0, "max": 1.0}),
        ((1.0, 2.0, 3.0, 4), {"n_errors": 0, "median": 1.0}),
    ], ids=["too_many", "missing", "twice", "unknown"])
    def test_constructor_arguments_must_match_the_fields(self, args, kwargs):
        with pytest.raises(TypeError):
            CheckStats(*args, **kwargs)


_U, _V = vector(x, y, 1.0), vector(z, 0.0, x)


_RENDERED = [
    (fields.Dot(_U, _V), "dot((x, y, 1), (z, 0, x))"),
    (fields.VComponent(_U, 1), "(x, y, 1)[1]"),
    (fields.Divergence(_U), "div((x, y, 1))"),
    (fields.Gradient(x * y), "grad(x*y)"),
    (fields.Curl(_U), "curl((x, y, 1))"),
    (fields.Cross(_U, _V), "cross((x, y, 1), (z, 0, x))"),
    (fields.VAdd(_U, _V), "(x, y, 1) + (z, 0, x)"),
    (fields.VScale(x + 1.0, _U), "(x + 1)*(x, y, 1)"),
    (fields.Lie(_V, _U), "lie((z, 0, x), (x, y, 1))"),
    (fields.LieEuclidean((1, 0, 0.5), (0, 0, 1), _U),
     "lie_euclidean(a=(1,0,0.5), b=(0,0,1), (x, y, 1))"),
]


@pytest.mark.parametrize("node,expected", _RENDERED, ids=[type(n).__name__ for n, _ in _RENDERED])
def test_vector_consuming_nodes_render(node, expected):
    assert node.render() == expected
