"""Jet arithmetic against closed forms and finite differences, and
order-respecting evaluation of random expression trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhstools import fields as F
from mhstools.jets import Jet2, jatan2, jcos, jexp, jlog, jpow, jsin, jsqrt


def _seed(pts):
    pts = np.asarray(pts, dtype=float)
    return [Jet2.coordinate(pts, i) for i in range(3)]


def test_coordinate_jets():
    pts = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.0]])
    jx, jy, jz = _seed(pts)
    np.testing.assert_array_equal(jx.value, [1.0, 0.5])
    np.testing.assert_array_equal(jx.grad[:, 0], [1.0, 1.0])
    np.testing.assert_array_equal(jx.hess, 0.0)
    np.testing.assert_array_equal(jy.value, [2.0, -1.0])


def test_product_rule():
    pts = np.array([[1.5, -0.7, 2.0]])
    jx, jy, _ = _seed(pts)
    p = jx * jy
    assert p.value[0] == pytest.approx(-1.05)
    np.testing.assert_allclose(p.grad[0], [-0.7, 1.5, 0.0])
    # d2/dxdy (xy) = 1
    np.testing.assert_allclose(p.hessian()[0], [[0, 1, 0], [1, 0, 0], [0, 0, 0]])


def test_quotient_and_power():
    pts = np.array([[2.0, 4.0, 1.0]])
    jx, jy, _ = _seed(pts)
    q = jx / jy
    assert q.value[0] == pytest.approx(0.5)
    np.testing.assert_allclose(q.grad[0], [0.25, -0.125, 0.0])
    # d2/dy2 (x/y) = 2x/y^3 = 1/16
    assert q.hessian()[0][1, 1] == pytest.approx(2 * 2.0 / 64.0)
    cube = jpow(jx, 3)
    assert cube.value[0] == 8.0
    assert cube.grad[0, 0] == 12.0
    assert cube.hessian()[0][0, 0] == 12.0


def test_elementary_functions_closed_forms():
    pts = np.array([[0.3, 0.0, 0.0]])
    jx = _seed(pts)[0]
    e = jexp(jx)
    assert e.value[0] == e.grad[0, 0] == e.hessian()[0][0, 0] == pytest.approx(np.exp(0.3))
    s, c = jsin(jx), jcos(jx)
    assert s.grad[0, 0] == pytest.approx(np.cos(0.3))
    assert c.grad[0, 0] == pytest.approx(-np.sin(0.3))
    assert s.hessian()[0][0, 0] == pytest.approx(-np.sin(0.3))
    lg = jlog(jx)
    assert lg.grad[0, 0] == pytest.approx(1 / 0.3)
    assert lg.hessian()[0][0, 0] == pytest.approx(-1 / 0.09)
    r = jsqrt(jx)
    assert r.grad[0, 0] == pytest.approx(0.5 / np.sqrt(0.3))


def test_atan2_full_jet():
    pts = np.array([[0.8, 0.6, 0.0]])
    jx, jy, _ = _seed(pts)
    a = jatan2(jy, jx)
    assert a.value[0] == pytest.approx(np.arctan2(0.6, 0.8))
    # grad atan2(y, x) = (-y, x, 0)/r^2, r^2 = 1
    np.testing.assert_allclose(a.grad[0], [-0.6, 0.8, 0.0], atol=1e-14)
    h = a.hessian()[0]
    # d2/dx2 = 2xy/r^4, d2/dxdy = (y^2 - x^2)/r^4, d2/dy2 = -2xy/r^4
    np.testing.assert_allclose(h[0, 0], 2 * 0.8 * 0.6, atol=1e-14)
    np.testing.assert_allclose(h[0, 1], 0.36 - 0.64, atol=1e-14)
    np.testing.assert_allclose(h[1, 1], -2 * 0.8 * 0.6, atol=1e-14)


def test_chain_against_finite_differences(rng):
    # compound expression: exp(x) sin(y) / (1 + z^2)
    def build(pts):
        jx, jy, jz = _seed(pts)
        return jexp(jx) * jsin(jy) / (jpow(jz, 2) + 1.0)

    def value(p):
        return float(np.exp(p[0]) * np.sin(p[1]) / (1 + p[2] ** 2))

    pts = rng.uniform(-1, 1, size=(20, 3))
    j = build(pts)
    h = 1e-4
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = np.array([(value(p + e) - value(p - e)) / (2 * h) for p in pts])
        np.testing.assert_allclose(j.grad[:, i], fd, rtol=1e-6, atol=1e-8)


def test_partial_extracts_derivative_jet():
    pts = np.array([[0.4, -0.2, 0.9]])
    jx, jy, _ = _seed(pts)
    f = jx * jx * jy  # x^2 y
    fx = f.partial(0)  # 2xy
    assert fx.value[0] == pytest.approx(2 * 0.4 * -0.2)
    np.testing.assert_allclose(fx.grad[0], [2 * -0.2, 2 * 0.4, 0.0])


# -- order-respecting evaluation of random expression trees -------------------

_PTS = np.vstack([
    np.random.default_rng(1).uniform(-1.5, 1.5, size=(6, 3)),
    [[0.0, 0.5, -0.3], [0.0, 0.0, 0.0]],  # zeros reach the NaN and inf paths
])
_EXPONENTS = (-1.0, 0.0, 1.0, 2.0, 3.0, 0.5, 1.5)


def _arith(sub):
    return st.one_of(
        st.tuples(st.sampled_from((F.Add, F.Sub, F.Mul, F.Div)), sub, sub)
        .map(lambda t: t[0](t[1], t[2])),
        sub.map(F.Neg),
        st.tuples(sub, st.sampled_from(_EXPONENTS)).map(lambda t: F.Pow(*t)),
        st.tuples(st.sampled_from((F.exp, F.log, F.sin, F.cos, F.sqrt)), sub)
        .map(lambda t: t[0](t[1])),
        st.tuples(sub, sub).map(lambda t: F.atan2(*t)),
    )


_COORDS = st.sampled_from((F.x, F.y, F.z))
# coordinates fill half the leaves, so most trees vary from point to point
_LEAVES = st.one_of(
    _COORDS,
    _COORDS,
    st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)).map(F.Const),
    st.floats(-2, 2, allow_nan=False, allow_subnormal=False).map(F.Const),
)
# derivative nodes wrap only trees without derivative nodes, so the
# finite-difference third derivatives of order 2 nest at most twice
_PLAIN = st.recursive(_LEAVES, _arith, max_leaves=6)
_VECTORS = st.one_of(
    st.tuples(_PLAIN, _PLAIN, _PLAIN).map(lambda t: F.vector(*t)),
    _PLAIN.map(F.grad),
)
_VECTORS = st.one_of(_VECTORS, _VECTORS.map(F.curl))
_SCALARS = st.recursive(
    st.one_of(_LEAVES, _VECTORS.map(F.divergence)), _arith, max_leaves=10
)


def _bits_equal(a, b):
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()) and a[~nan].tobytes() == b[~nan].tobytes()


def _components(f, order):
    """Jets of a scalar or vector tree as a tuple, and the evaluation record."""
    ctx = F.EvalContext(_PTS.shape[0])
    with np.errstate(all="ignore"):
        if isinstance(f, F.ScalarField):
            return (f.jet(_PTS, order=order, ctx=ctx),), ctx
        return tuple(f.jets(_PTS, order=order, ctx=ctx)), ctx


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_SCALARS, _SCALARS, _VECTORS))  # two scalar trees per vector tree
def test_order_respecting_jets(f):
    # values and gradients come from the same expressions at every order, and
    # an order-k jet carries nothing above order k
    c0, ctx0 = _components(f, 0)
    c1, _ = _components(f, 1)
    c2, _ = _components(f, 2)
    for j0, j1, j2 in zip(c0, c1, c2):
        assert j0.order == 0 and j0.grad is None and j0.hess is None
        assert j1.order == 1 and j1.hess is None
        assert j2.order == 2
        assert _bits_equal(j0.value, j2.value)
        assert _bits_equal(j1.value, j2.value)
        assert _bits_equal(j1.grad, j2.grad)
    expect = np.stack([j.value for j in c0], axis=1)
    expect[ctx0.invalid] = np.nan
    got = f.values(_PTS)
    assert _bits_equal(got.reshape(expect.shape), expect)
