"""Jet arithmetic against closed forms and finite differences, order-respecting
evaluation of random expression trees, and their derivatives of degrees 1-4
against sympy."""

import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mhstools import beltrami, jets
from mhstools import fields as F
from mhstools.domains import sample
from mhstools.jets import (
    Jet, _pair_sum, jatan2, jcos, jexp, jlog, jpow, jsin, jsqrt, monomials,
)
from mhstools.symmetry import KillingParams


def _seed(pts):
    pts = np.asarray(pts, dtype=float)
    return [Jet.coordinate(pts, i, 2) for i in range(3)]


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
        return jexp(jx) * jsin(jy) / (jpow(jz, 2) + Jet.constant(1.0, pts.shape[0], 2))

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


def test_hessian_needs_a_second_order_jet():
    pts = np.array([[0.4, -0.2, 0.9]])
    for order in (0, 1):
        with pytest.raises(ValueError):
            Jet.coordinate(pts, 0, order).hessian()


def test_partial_extracts_derivative_jet():
    pts = np.array([[0.4, -0.2, 0.9]])
    jx, jy, _ = _seed(pts)
    f = jx * jx * jy  # x^2 y
    fx = f.partial(0)  # 2xy
    assert fx.value[0] == pytest.approx(2 * 0.4 * -0.2)
    np.testing.assert_allclose(fx.grad[0], [2 * -0.2, 2 * 0.4, 0.0])


def _dense(j):
    """The jet with its None blocks materialised as zeros."""
    return Jet([j.block(d) for d in range(j.order + 1)])


def test_constant_jets_carry_values_only():
    c = Jet.constant(2.5, 4, 3)
    assert c.order == 3 and c.c[1:] == [None, None, None]
    np.testing.assert_array_equal(c.value, 2.5)
    p = c.partial(1)
    assert p.order == 2 and p.c[1:] == [None, None]
    np.testing.assert_array_equal(p.value, 0.0)
    assert Jet.constant(2.5, 4, 0).c[1:] == []


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_constant_operands_match_dense_zero_blocks(op):
    # a None block is an exact zero: the result equals the one with dense zero
    # blocks bit for bit, up to the sign of zero (adding +0.0 maps -0.0 to +0.0)
    pts = np.random.default_rng(8).uniform(0.5, 1.5, size=(7, 3))
    for order in range(4):
        jx, jy, jz = (Jet.coordinate(pts, i, order) for i in range(3))
        f = jexp(jx) * jsin(jy) / (jz + jx * jy)
        for c in (Jet.constant(-1.7, 7, order), Jet.constant(0.3, 7, order + 1)):
            for a, b in ((c, f), (f, c), (c, c)):
                sparse, dense = op(a, b), op(_dense(a), _dense(b))
                assert sparse.order == dense.order
                for d in range(dense.order + 1):
                    assert _bits_equal(sparse.block(d) + 0.0, dense.c[d] + 0.0)
                if a is b:
                    assert sparse.c[1:] == [None] * sparse.order


def test_accessors_keep_their_shapes():
    pts = np.random.default_rng(9).uniform(-1, 1, size=(5, 3))
    for j in (Jet.constant(1.5, 5, 2), jsin(Jet.coordinate(pts, 1, 2)) * Jet.coordinate(pts, 0, 2)):
        assert j.value.shape == (5,)
        assert j.grad.shape == (5, 3)
        assert j.hess.shape == (5, 6)
        assert j.hessian().shape == (5, 3, 3)
    np.testing.assert_array_equal(j.grad[:, 1], np.cos(pts[:, 1]) * pts[:, 0])
    np.testing.assert_array_equal(j.hessian()[:, 0, 1], j.hessian()[:, 1, 0])
    assert Jet.constant(1.5, 5, 0).grad is None and Jet.constant(1.5, 5, 1).hess is None


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_jets_do_not_combine_with_numbers(op):
    # numbers enter a tree as `Const` nodes, so a jet has only jet operands
    with pytest.raises(TypeError):
        op(2.0, _seed(np.ones((1, 3)))[0])


@pytest.mark.parametrize("f", [F.Const(2.0), F.x, F.log(F.x), F.grad(F.x * F.y),
                               F.curl(F.vector(F.y, F.z, F.x))], ids=lambda f: type(f).__name__)
def test_every_walk_takes_a_context(f):
    # a walk records its failures in its context; there is no walk that drops them
    walk = f.jet if isinstance(f, F.ScalarField) else f.jets
    with pytest.raises(TypeError):
        walk(np.ones((2, 3)), 1)
    with pytest.raises(TypeError):
        walk(np.ones((2, 3)), ctx=F.EvalContext(2))


# -- order-respecting evaluation of random expression trees -------------------

_PTS = np.vstack([
    np.random.default_rng(1).uniform(-1.5, 1.5, size=(6, 3)),
    [[0.0, 0.5, -0.3], [0.0, 0.0, 0.0]],  # zeros reach the NaN and inf paths
])
_EXPONENTS = (-1.0, 0.0, 1.0, 2.0, 3.0, 0.5, 1.5)
_T = F.Placeholder("T")
# univariate expressions for Compose1, over the placeholder T
_UNIVARIATE = (_T**3, F.sin(_T), F.exp(_T) * _T, F.log(2.0 + _T * _T), 1.0 / (1.5 + F.cos(_T)))
_GENERATORS = (((0.3, -0.2, 0.5), (0.1, 0.4, -0.3)), ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
               ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)))


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


def _vectors(sub):
    """Vector trees over scalar trees `sub`; derivative nodes may nest."""
    base = st.one_of(
        st.tuples(sub, sub, sub).map(lambda t: F.vector(*t)),
        sub.map(F.grad),
    )
    return st.one_of(
        base,
        base.map(F.curl),
        st.tuples(base, base).map(lambda t: F.Lie(*t)),
        st.tuples(st.sampled_from(_GENERATORS), base)
        .map(lambda t: F.LieEuclidean(t[0][0], t[0][1], t[1])),
    )


def _nodes(sub):
    vec = _vectors(sub)
    return st.one_of(
        _arith(sub),
        vec.map(F.divergence),
        st.tuples(vec, st.sampled_from((0, 1, 2))).map(lambda t: F.VComponent(*t)),
        st.tuples(st.sampled_from(_UNIVARIATE), sub).map(lambda t: F.Compose1(t[0], t[1])),
    )


_COORDS = st.sampled_from((F.x, F.y, F.z))
# leaves whose derivative blocks are dense, so that the order of floating-point
# operations inside every block matters
_ATOMS = st.sampled_from((
    F.sin(F.x + 0.3 * F.y), F.exp(0.5 * F.z) * F.y, F.cos(F.y * F.z), F.x * F.x * F.y,
    1.0 / (2.0 + F.x), F.log(2.0 + F.y * F.z), F.sqrt(3.0 + F.z), F.atan2(F.y + 2.0, F.x + 2.0),
))
# coordinates and atoms fill most leaves, so most trees vary from point to point
_LEAVES = st.one_of(
    _COORDS,
    _ATOMS,
    _ATOMS,
    st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)).map(F.Const),
    st.floats(-2, 2, allow_nan=False, allow_subnormal=False).map(F.Const),
)
_SCALARS = st.recursive(_LEAVES, _nodes, max_leaves=6)
_VECTORS = _vectors(_SCALARS)


def _bits_equal(a, b):
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()) and a[~nan].tobytes() == b[~nan].tobytes()


def _blocks_equal(a, b):
    # a constant's derivative blocks are None, and None equals only None
    return a is b is None or (a is not None and b is not None and _bits_equal(a, b))


def _components(f, order, pts=_PTS):
    """Jets of a scalar or vector tree as a tuple, and the evaluation record."""
    ctx = F.EvalContext(pts.shape[0])
    with np.errstate(all="ignore"):
        if isinstance(f, F.ScalarField):
            return (f.jet(pts, order=order, ctx=ctx),), ctx
        return tuple(f.jets(pts, order=order, ctx=ctx)), ctx


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(_SCALARS, _SCALARS, _VECTORS))  # two scalar trees per vector tree
def test_order_respecting_jets(f):
    # block d is computed the same way at every order: the blocks 0..k of an
    # order-K jet are bit-identical to an order-k jet, and an order-k jet
    # carries nothing above order k
    evals = [_components(f, order) for order in range(5)]
    for k, (low, _) in enumerate(evals):
        for j in low:
            assert j.order == k and len(j.c) == k + 1
        for high, _ in evals[k + 1:]:
            for jl, jh in zip(low, high):
                for d in range(k + 1):
                    assert _blocks_equal(jl.c[d], jh.c[d])
    c0, ctx0 = evals[0]
    expect = np.stack([j.value for j in c0], axis=1)
    expect[ctx0.invalid] = np.nan
    got = f.values(_PTS)
    assert _bits_equal(got.reshape(expect.shape), expect)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_jets_do_not_depend_on_row_position(order):
    # Leibniz sums run over fixed-size passes of points; a point's jet must not
    # depend on which pass it falls in, so slices across pass boundaries
    # reproduce the points of the whole batch bit for bit
    u = F.sin(F.x + 0.3 * F.y) * F.exp(0.5 * F.z) / (2.0 + F.x)
    v = F.atan2(F.y + 2.0, F.x + 2.0) * F.log(2.0 + F.y * F.z)
    w = F.vector(u, v, u * v)
    pts = np.random.default_rng(4).uniform(-1, 1, size=(5000, 3))
    # the rigid Lie derivative's einsum sums must not depend on the batch either
    for f in (F.curl(w), F.LieEuclidean((0.3, -0.2, 0.5), (0.1, 0.4, -0.3), w)):
        whole, _ = _components(f, order, pts)
        for rows in (slice(2000, 2100), slice(1000, 5000), slice(4090, 4100), slice(7, 8)):
            part, _ = _components(f, order, pts[rows])
            for jw, jp in zip(whole, part):
                for d in range(order + 1):
                    assert _bits_equal(jw.c[d][..., rows], jp.c[d])


_RIGID = KillingParams((0.3, -0.2, 0.5), (0.1, 0.4, -0.3))


def test_rigid_lie_derivative_forms_no_leibniz_sum(monkeypatch):
    # once its child's jets are in the memo, the closed form is column gathers
    # and fixed tables: no Taylor product of the generator with the child
    field = beltrami.catalog("zsq_x3").field
    pts = np.random.default_rng(6).uniform(0.5, 1.5, size=(50, 3))
    ctx = F.EvalContext(pts.shape[0])
    ctx.memo = {}
    field.jets(pts, order=5, ctx=ctx)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2:])
        return _pair_sum(*args, **kwargs)

    monkeypatch.setattr(jets, "_pair_sum", counted)
    F.LieEuclidean(_RIGID.a, _RIGID.b, field).jets(pts, order=4, ctx=ctx)
    assert calls == []


@pytest.mark.parametrize("name", ["zsq_x3", "exp_x3", "example3"])
def test_rigid_lie_derivative_matches_general_lie_node(name):
    # the closed form against the general node on the generator's own field, block
    # by block through order 5; the worst error measured was 3.6e-16 of a block's
    # largest entry
    rec = beltrami.catalog(name)
    pts = sample(rec.domain, 200, generator="random", seed=5).points
    fast = F.LieEuclidean(_RIGID.a, _RIGID.b, rec.field).jets(pts, 5, F.EvalContext(len(pts)))
    general = F.Lie(_RIGID.field(), rec.field).jets(pts, 5, F.EvalContext(len(pts)))
    for jf, jg in zip(fast, general):
        assert jf.order == jg.order == 5
        for d in range(6):
            scale = np.abs(jg.c[d]).max()
            np.testing.assert_allclose(jf.c[d], jg.c[d], rtol=0, atol=1e-14 * scale)


def _leibniz_oracle(left: dict, right: dict, d: int, lo: int) -> np.ndarray:
    # row alpha of block d: the sum over multi-indices beta <= alpha with
    # lo <= |beta| < d of C(alpha, beta) left[beta] right[alpha - beta]
    def exps(m):
        return tuple(m.count(a) for a in range(3))

    rows = {k: {exps(m): r for r, m in enumerate(monomials(k))} for k in range(1, d)}
    out = []
    for alpha in map(exps, monomials(d)):
        acc = np.zeros(left[lo].shape[1])
        for beta in itertools.product(*(range(n + 1) for n in alpha)):
            i = sum(beta)
            if lo <= i < d:
                gamma = tuple(n - b for n, b in zip(alpha, beta))
                w = math.prod(math.comb(n, b) for n, b in zip(alpha, beta))
                acc = acc + w * left[i][rows[i][beta]] * right[d - i][rows[d - i][gamma]]
        out.append(acc)
    return np.stack(out)


_TABLES = [(d, lo, False) for d in range(2, 8) for lo in range(1, d)]
_TABLES += [(d, 1, True) for d in range(2, 8)]


@pytest.mark.parametrize("d, lo, square", _TABLES)
def test_pair_sum_matches_direct_leibniz_sum(d, lo, square):
    # every table the jets use, against the multi-index sum; small integers
    # make both sides exact, and 2100 points take two passes of 2048
    rng = np.random.default_rng(10 * d + lo + 100 * square)

    def blocks(n, first):
        return {i: rng.integers(-3, 4, (n, len(monomials(i)))).astype(float).T
                for i in range(first, d)}

    for n in (1, 8, 2100):
        left = blocks(n, lo)
        right = left if square else blocks(n, 1)
        got = _pair_sum(np.vstack([left[i] for i in range(lo, d)]),
                        np.vstack([right[i] for i in range(1, d - lo + 1)]), d, lo, square)
        want = _leibniz_oracle(left, right, d, lo)
        np.testing.assert_array_equal(got, want / 2 if square else want)


# -- derivatives of degrees 1-4 against sympy (tests only) --------------------

try:
    import sympy as sp
except ImportError:  # sympy is a test-only oracle
    sp = None
_XYZ = sp.symbols("x y z", real=True) if sp is not None else None
_BINARY = {F.Add: operator.add, F.Sub: operator.sub, F.Mul: operator.mul, F.Div: operator.truediv}


def _rational(v):
    return sp.Integer(int(v)) if float(v).is_integer() else sp.Rational(float(v))


def _sym(node):
    """Sympy expression (scalar) or 3-tuple (vector) of a field tree."""
    if isinstance(node, F.Const):
        return _rational(node.c)
    if isinstance(node, F.Coord):
        return _XYZ[node.axis]
    if isinstance(node, F.Placeholder):
        return sp.Symbol(node.name, real=True)
    if type(node) in _BINARY:
        return _BINARY[type(node)](_sym(node.a), _sym(node.b))
    if isinstance(node, F.Neg):
        return -_sym(node.a)
    if isinstance(node, F.Pow):
        return _sym(node.base) ** _rational(node.expo)
    for cls, fn in ((F.Exp, sp.exp), (F.Log, sp.log), (F.Sin, sp.sin), (F.Cos, sp.cos),
                    (F.Sqrt, sp.sqrt)):
        if isinstance(node, cls):
            return fn(_sym(node.a))
    if isinstance(node, F.Atan2):
        return sp.atan2(_sym(node.ynode), _sym(node.xnode))
    if isinstance(node, F.Divergence):
        w = _sym(node.w)
        return sum(sp.diff(w[i], _XYZ[i]) for i in range(3))
    if isinstance(node, F.VComponent):
        return _sym(node.w)[node.axis]
    if isinstance(node, F.Compose1):
        t = sp.Symbol(node.var, real=True)
        return sp.diff(_sym(node.gexpr), t).subs(t, _sym(node.inner))
    if isinstance(node, F.FromComponents):
        return (_sym(node.fx), _sym(node.fy), _sym(node.fz))
    if isinstance(node, F.Gradient):
        f = _sym(node.f)
        return tuple(sp.diff(f, v) for v in _XYZ)
    if isinstance(node, F.Curl):
        w = _sym(node.w)
        x, y, z = _XYZ
        return (sp.diff(w[2], y) - sp.diff(w[1], z), sp.diff(w[0], z) - sp.diff(w[2], x),
                sp.diff(w[1], x) - sp.diff(w[0], y))
    if isinstance(node, F.Lie):
        xi, w = _sym(node.xi), _sym(node.w)
        return tuple(sum(xi[i] * sp.diff(w[k], _XYZ[i]) - w[i] * sp.diff(xi[k], _XYZ[i])
                         for i in range(3)) for k in range(3))
    if isinstance(node, F.LieEuclidean):
        a = [_rational(v) for v in node.a]
        b = sp.Matrix([_rational(v) for v in node.b])
        xi = sp.Matrix(a) + b.cross(sp.Matrix(_XYZ))
        w = _sym(node.w)
        bw = b.cross(sp.Matrix(w))
        return tuple(sum(xi[i] * sp.diff(w[k], _XYZ[i]) for i in range(3)) - bw[k]
                     for k in range(3))
    raise TypeError(f"no sympy form for {node!r}")


# small trees keep the symbolic fourth derivatives cheap
_SMALL = st.recursive(st.one_of(_ATOMS, _COORDS), _nodes, max_leaves=3)
_ORACLE_PTS = np.array([[0.31, -0.47, 0.83], [-0.62, 0.25, 0.44]])


def _derivatives(expr, order):
    """Symbolic derivatives of expr for the columns of blocks 1..order."""
    der = {(): expr}
    for d in range(1, order + 1):
        for axes in monomials(d):
            der[axes] = sp.diff(der[axes[:-1]], _XYZ[axes[-1]])
    return [der[axes] for d in range(1, order + 1) for axes in monomials(d)]


# derandomize seeds from the test's source text, so an edit to its body would
# redraw the trees; this fixed seed keeps the 40 trees whose symbolic
# derivatives take about 2 s (a tree nesting three derivative nodes over atan2
# takes about 45 s alone)
_ORACLE_SEED = int(
    "1238604955116483394142243118655415363361455151665982231981518058971298859891246979894057"
    "24621613494929381807069368"
)


@pytest.mark.skipif(sp is None, reason="sympy is not installed")
@seed(_ORACLE_SEED)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(_SMALL)
def test_derivatives_through_fourth_order_match_sympy(f):
    import mpmath

    (j,), ctx = _components(f, 4, _ORACLE_PTS)
    got = np.vstack([j.block(d) for d in range(1, 5)]).T
    reference = sp.lambdify(_XYZ, _derivatives(_sym(f), 4), "mpmath")
    for p, pt in enumerate(_ORACLE_PTS):
        if ctx.invalid[p]:
            continue
        try:
            with mpmath.workdps(30):
                refs = reference(*(mpmath.mpf(float(v)) for v in pt))
        except ZeroDivisionError:
            continue
        for col, ref in enumerate(refs):
            if isinstance(ref, mpmath.mpc) or not mpmath.isfinite(ref) or abs(ref) > 1e8:
                continue
            ref = float(ref)
            assert abs(got[p, col] - ref) <= 1e-9 * max(1.0, abs(ref)), (col, got[p, col], ref)
