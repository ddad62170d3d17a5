"""Expression trees for scalar and vector fields on R^3.

Trees are immutable and evaluate to truncated Taylor jets (`jets.Jet`) at
batches of points, up to the requested order: an order-0 evaluation computes
values only, order 1 adds gradients, order 2 Hessians, and so on; nothing
above the order is computed.  Differentiation is exact forward-mode through
the tree at every order: a node that consumes a derivative (gradient, curl,
divergence, Lie derivative, the derivative of a composition) asks its child
for one order more and reads the derivative off by an exact row shift, so
nested derivative nodes such as repeated Lie transport stay exact to roundoff
and cost one tree walk.

Each node class declares its fields as annotations on a `reports.Record`
(frozen, slotted, compared and hashed field-wise).  A field annotated
`ScalarField` or `VectorField` is a child: a number given for a scalar child
becomes a `Const`, and `rebuild` maps a whole tree, scalar and vector nodes
alike, through its children; `substitute` is a leaf mapping on it.  The node
classes are their own public constructors (`exp = Exp`, `vector =
FromComponents`, ...).

Domain violations (log of a non-positive argument, division by zero, ...) are
recorded per sample point and never abort a batched evaluation; single-point
evaluation raises `EvaluationError` naming the offending node.
"""

from __future__ import annotations

import operator

import numpy as np

from .jets import Jet, _rotation, _shifts, jatan2, jcos, jexp, jlog, jpow, jsin, jsqrt
from .reports import Record

_AXES = "xyz"


class EvaluationError(ValueError):
    """A field could not be evaluated at the requested point."""


class EvalContext:
    """Record of the invalid sample points of one walk; every walk takes one.

    `memo`, when set, is a dict shared by the evaluations of one report, scan
    or orbit: each vector node keeps its component jets there, one entry per
    (node, points) at the highest order asked, and only from a walk that
    flagged nothing (see `VectorField.jets`).  `raised` counts the flags
    raised, so a walk can tell whether it flagged.
    """

    __slots__ = ("invalid", "errors", "raised", "memo")

    def __init__(self, n: int):
        self.invalid = np.zeros(n, dtype=bool)
        self.errors: dict[str, int] = {}
        self.raised = 0
        self.memo: dict | None = None

    def flag(self, node, mask: np.ndarray) -> None:
        if mask.any():
            self.invalid |= mask
            key = node.render()
            self.errors[key] = self.errors.get(key, 0) + int(mask.sum())
            self.raised += 1


def as_points(p) -> np.ndarray:
    """Coerce a point or array of points to shape (N, 3)."""
    a = np.asarray(p, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"expected points of shape (N, 3), got {a.shape}")
    return a


def _num(v: float) -> str:
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def evaluate(f: "ScalarField | VectorField", pts: np.ndarray,
             memo: dict | None = None) -> tuple[np.ndarray, EvalContext]:
    """Order-0 values at (N, 3) points, shape (N,) or (N, 3), as a fresh array.

    Invalid samples are flagged in the returned context, not masked, and
    floating-point warnings are silenced.  All order-0 evaluation goes here.
    Evaluations that pass the same `memo` dict walk a shared vector subtree
    once; the dict holds jets and must be dropped when the report, scan or
    orbit that owns it is done.
    """
    ctx = EvalContext(pts.shape[0])
    ctx.memo = memo
    with np.errstate(all="ignore"):
        if isinstance(f, VectorField):
            v = np.stack([c.value for c in f.jets(pts, order=0, ctx=ctx)], axis=1)
        else:
            v = f.jet(pts, order=0, ctx=ctx).value.copy()
    return v, ctx


class Field(Record, frozen=True):
    """What scalar and vector expression nodes share: order-0 entry points, rendering.

    `_children` names the fields that `rebuild` walks, by default those
    annotated `ScalarField` or `VectorField`; `_scalars` names the fields that
    turn a number into a `Const`.
    """

    def __init_subclass__(cls):
        super().__init_subclass__()
        kinds = cls._fields.items()
        cls._scalars = tuple(k for k, t in kinds if t == "ScalarField")
        if "_children" not in vars(cls):
            cls._children = tuple(k for k, t in kinds if t in ("ScalarField", "VectorField"))

    def __post_init__(self):
        for name in self._scalars:
            if not isinstance(getattr(self, name), ScalarField):
                object.__setattr__(self, name, as_scalar(getattr(self, name)))

    def values(self, pts) -> np.ndarray:
        """Values at (N, 3) points, shape (N,) or (N, 3); invalid samples are NaN."""
        v, ctx = evaluate(self, as_points(pts))
        v[ctx.invalid] = np.nan
        return v

    def __call__(self, p):
        """Value at one point; raises `EvaluationError` naming the failing node."""
        v, ctx = evaluate(self, as_points(p))
        if ctx.errors:
            raise EvaluationError(f"evaluation failed in node {next(iter(ctx.errors))!r}")
        if not np.isfinite(v).all():
            raise EvaluationError("evaluation produced a non-finite result")
        return v[0] if v.ndim == 2 else float(v[0])

    def render(self) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


class ScalarField(Field):
    """Base class for scalar expression nodes."""

    precedence = 100
    values = Field.values  # an attribute of its own: bench/tracer.py wraps each base's

    def jet(self, pts: np.ndarray, order: int, ctx: EvalContext) -> Jet:
        raise NotImplementedError

    def _wrap(self, prec: int) -> str:
        s = self.render()
        return f"({s})" if self.precedence < prec else s

    # operator sugar: + - * / and their reflections come from `_binary` ------

    def __pow__(self, e):
        return Pow(self, float(e))

    def __neg__(self):
        return Neg(self)


def as_scalar(obj) -> ScalarField:
    if isinstance(obj, ScalarField):
        return obj
    if isinstance(obj, (int, float, np.floating, np.integer)):
        return Const(float(obj))
    raise TypeError(f"cannot interpret {obj!r} as a scalar field")


class Const(ScalarField):
    c: float

    def jet(self, pts, order, ctx):
        return Jet.constant(self.c, pts.shape[0], order)

    def render(self):
        return _num(self.c)


class Coord(ScalarField):
    axis: int

    def jet(self, pts, order, ctx):
        return Jet.coordinate(pts, self.axis, order)

    def render(self):
        return _AXES[self.axis]


class Placeholder(ScalarField):
    """Free variable used in univariate expressions; must be substituted."""

    name: str

    def jet(self, pts, order, ctx):
        raise EvaluationError(f"unbound variable {self.name!r}; substitute it first")

    def render(self):
        return self.name


class Neg(ScalarField):
    a: ScalarField
    precedence = 15

    def jet(self, pts, order, ctx):
        return -self.a.jet(pts, order, ctx)

    def render(self):
        return f"-{self.a._wrap(16)}"


class Pow(ScalarField):
    base: ScalarField
    expo: float
    precedence = 30

    def jet(self, pts, order, ctx):
        j = self.base.jet(pts, order, ctx)
        e = self.expo
        neg, frac = e < 0, e != int(e)
        if neg or frac:
            # a fractional power fails below 0; at 0 blocks of degree above e are infinite
            ctx.flag(self, (j.value < 0.0) & frac)
            if order > e:
                ctx.flag(self, j.value == 0.0)
        return jpow(j, e)

    def render(self):
        return f"{self.base._wrap(31)}^{_num(self.expo)}"


def _binary(name: str, fn, symbol: str, precedence: int, domain=None):
    class Node(ScalarField):
        a: ScalarField
        b: ScalarField

        def jet(self, pts, order, ctx):
            ja = self.a.jet(pts, order, ctx)
            jb = self.b.jet(pts, order, ctx)
            if domain is not None:
                ctx.flag(self, domain(jb.value))
            return fn(ja, jb)

        def render(self):
            return f"{self.a._wrap(precedence)}{symbol}{self.b._wrap(precedence + 1)}"

    Node.precedence = precedence
    Node.__name__ = Node.__qualname__ = name
    op = fn.__name__  # "add", "sub", "mul" or "truediv": the operator sugar
    setattr(ScalarField, f"__{op}__", lambda self, other: Node(self, other))
    setattr(ScalarField, f"__r{op}__", lambda self, other: Node(other, self))
    return Node


Add = _binary("Add", operator.add, " + ", 10)
Sub = _binary("Sub", operator.sub, " - ", 10)
Mul = _binary("Mul", operator.mul, "*", 20)
Div = _binary("Div", operator.truediv, "/", 20, domain=np.logical_not)  # b == 0, no Python call


def _unary(name: str, fn, domain=None, pole=False):
    class Node(ScalarField):
        a: ScalarField

        def jet(self, pts, order, ctx):
            j = self.a.jet(pts, order, ctx)
            if domain is not None:
                ctx.flag(self, domain(j.value))
            if pole and order >= 1:
                ctx.flag(self, j.value == 0.0)
            return fn(j)

        def render(self):
            return f"{name}({self.a.render()})"

    Node.__name__ = Node.__qualname__ = name.capitalize()
    return Node


Exp = _unary("exp", jexp)
Log = _unary("log", jlog, domain=lambda v: v <= 0.0)
Sin = _unary("sin", jsin)
Cos = _unary("cos", jcos)
# sqrt's derivative blocks are infinite at 0: `pole` flags it there from order 1 on
Sqrt = _unary("sqrt", jsqrt, domain=lambda v: v < 0.0, pole=True)


class Atan2(ScalarField):
    ynode: ScalarField
    xnode: ScalarField

    def jet(self, pts, order, ctx):
        jy = self.ynode.jet(pts, order, ctx)
        jx = self.xnode.jet(pts, order, ctx)
        ctx.flag(self, (jy.value == 0.0) & (jx.value == 0.0))
        return jatan2(jy, jx)

    def render(self):
        return f"atan2({self.ynode.render()}, {self.xnode.render()})"


class Dot(ScalarField):
    """Pointwise inner product of two vector fields."""

    u: VectorField
    v: VectorField

    def jet(self, pts, order, ctx):
        ju = self.u.jets(pts, order, ctx)
        jv = self.v.jets(pts, order, ctx)
        return ju[0] * jv[0] + ju[1] * jv[1] + ju[2] * jv[2]

    def render(self):
        return f"dot({self.u.render()}, {self.v.render()})"


class VComponent(ScalarField):
    w: VectorField
    axis: int

    def jet(self, pts, order, ctx):
        return self.w.jets(pts, order, ctx)[self.axis]

    def render(self):
        return f"{self.w.render()}[{self.axis}]"


class Divergence(ScalarField):
    """Divergence of a vector field; consumes one derivative order."""

    w: VectorField

    def jet(self, pts, order, ctx):
        child = self.w.jets(pts, order + 1, ctx)
        return child[0].partial(0) + child[1].partial(1) + child[2].partial(2)

    def render(self):
        return f"div({self.w.render()})"


class Compose1(ScalarField):
    """Derivative g'(u) of a univariate expression g composed with a field u.

    `gexpr` is an expression over a single Placeholder `var`; the chain rule
    is applied exactly by evaluating `gexpr` on jets seeded along the first
    axis, one order above the caller's, and reading g', g'', ... off them.
    The composition g(u) itself is `substitute(gexpr, {var: u})`.  `gexpr`
    is not a child: it is written in its own variable, so `rebuild` keeps it.
    """

    __slots__ = ("_gx",)  # `gexpr` over the first axis, filled by the first walk
    _children = ("inner",)
    gexpr: ScalarField
    inner: ScalarField
    var: str = "T"

    def jet(self, pts, order, ctx):
        ju = self.inner.jet(pts, order, ctx)
        seeded = np.zeros((ju.value.shape[0], 3))
        seeded[:, 0] = ju.value
        if not hasattr(self, "_gx"):
            object.__setattr__(self, "_gx", substitute(self.gexpr, {self.var: X}))
        jt = self._gx.jet(seeded, order + 1, ctx)
        # g', g'', ... along the seeded axis: row 0 of each block
        return ju.chain([jt.block(d)[0] for d in range(1, order + 2)])

    def render(self):
        return f"[{self.gexpr.render()}]'({self.inner.render()})"


# public constructors --------------------------------------------------------

X = Coord(0)
Y = Coord(1)
Z = Coord(2)
x, y, z = X, Y, Z
exp, log, sin, cos, sqrt, atan2 = Exp, Log, Sin, Cos, Sqrt, Atan2
dot, divergence = Dot, Divergence


def rebuild(node: Field, fn) -> Field:
    """`node` with every subtree that `fn` maps replaced, scalar and vector alike.

    `fn` returns a node's replacement, or None to keep the node and rebuild
    it from its rebuilt `_children`; a node whose children all come back
    unchanged is returned as it is.
    """
    new = fn(node)
    if new is not None:
        return new
    kids = {k: rebuild(getattr(node, k), fn) for k in node._children}
    if all(v is getattr(node, k) for k, v in kids.items()):
        return node
    return node.replace(**kids)


def substitute(expr: Field, mapping: dict) -> Field:
    """Rebuild `expr` with Placeholder/Coord nodes replaced per `mapping`.

    Keys are placeholder names ("T", "s", ...) or axis letters "x", "y", "z";
    values are scalar fields or numbers.
    """

    def leaf(node):
        if isinstance(node, Placeholder):
            key = node.name
        elif isinstance(node, Coord):
            key = _AXES[node.axis]
        else:
            return None
        return as_scalar(mapping[key]) if key in mapping else None

    return rebuild(expr, leaf)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------


class VectorField(Field):
    """Base class for vector expression nodes; each computes its jets in `_jets`."""

    values = Field.values  # an attribute of its own, as on ScalarField

    def jets(self, pts: np.ndarray, order: int, ctx: EvalContext):
        """Component jets at (N, 3) points.

        Derivative blocks up to `order` (0: values, 1: +gradients,
        2: +Hessians, ...) are computed, nothing above it.  Under a memo
        (`ctx.memo`) each (node, points) pair keeps the jets of the highest
        order asked so far, if the walk that computed them flagged nothing: a
        request at that order or below is answered from them, truncated
        (block d is the same at every order, so a truncated jet is
        bit-identical to a fresh one), and a higher request recomputes and
        replaces them.  A flag raised at some order is raised at every higher
        one, so a clean entry has no flag to raise again at a lower order; a
        walk that flagged is not kept, and each request for it walks afresh
        and raises its own flags.  The blocks are shared, so no caller may
        write into them.
        """
        memo = ctx.memo
        if memo is None:
            return self._jets(pts, order, ctx)
        key = (id(self), id(pts))
        hit = memo.get(key)
        if hit is None or hit[2] < order:
            raised = ctx.raised
            out = self._jets(pts, order, ctx)
            if ctx.raised == raised:
                # the entry holds the node and the points, so neither id is reused
                memo[key] = (self, pts, order, out)
            return out
        _, _, have, out = hit
        if have == order:
            return out
        return tuple(Jet(j.c[:order + 1]) for j in out)

    def __add__(self, other):
        return VAdd(self, other)

    def __sub__(self, other):
        return VAdd(self, VScale(-1.0, other))

    def __neg__(self):
        return VScale(-1.0, self)

    def __mul__(self, other):
        return VScale(other, self)

    __rmul__ = __mul__


class FromComponents(VectorField):
    fx: ScalarField
    fy: ScalarField
    fz: ScalarField

    def _jets(self, pts, order, ctx):
        return (
            self.fx.jet(pts, order, ctx),
            self.fy.jet(pts, order, ctx),
            self.fz.jet(pts, order, ctx),
        )

    def render(self):
        return f"({self.fx.render()}, {self.fy.render()}, {self.fz.render()})"


class Gradient(VectorField):
    f: ScalarField

    def _jets(self, pts, order, ctx):
        j = self.f.jet(pts, order + 1, ctx)
        return j.partial(0), j.partial(1), j.partial(2)

    def render(self):
        return f"grad({self.f.render()})"


class Curl(VectorField):
    w: VectorField

    def _jets(self, pts, order, ctx):
        j = self.w.jets(pts, order + 1, ctx)
        return (
            j[2].partial(1) - j[1].partial(2),
            j[0].partial(2) - j[2].partial(0),
            j[1].partial(0) - j[0].partial(1),
        )

    def render(self):
        return f"curl({self.w.render()})"


class Cross(VectorField):
    u: VectorField
    v: VectorField

    def _jets(self, pts, order, ctx):
        a = self.u.jets(pts, order, ctx)
        b = self.v.jets(pts, order, ctx)
        return (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )

    def render(self):
        return f"cross({self.u.render()}, {self.v.render()})"


class VAdd(VectorField):
    u: VectorField
    v: VectorField

    def _jets(self, pts, order, ctx):
        a = self.u.jets(pts, order, ctx)
        b = self.v.jets(pts, order, ctx)
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def render(self):
        return f"{self.u.render()} + {self.v.render()}"


class VScale(VectorField):
    f: ScalarField
    w: VectorField

    def _jets(self, pts, order, ctx):
        jf = self.f.jet(pts, order, ctx)
        jw = self.w.jets(pts, order, ctx)
        return (jf * jw[0], jf * jw[1], jf * jw[2])

    def render(self):
        return f"({self.f.render()})*{self.w.render()}"


class Lie(VectorField):
    """Lie derivative of `w` along `xi`: (xi.grad) w - (w.grad) xi."""

    xi: VectorField
    w: VectorField

    def _jets(self, pts, order, ctx):
        jx = self.xi.jets(pts, order + 1, ctx)
        jw = self.w.jets(pts, order + 1, ctx)
        out = []
        for k in range(3):
            acc = jx[0] * jw[k].partial(0) - jw[0] * jx[k].partial(0)
            for i in (1, 2):
                acc = acc + jx[i] * jw[k].partial(i) - jw[i] * jx[k].partial(i)
            out.append(acc)
        return tuple(out)

    def render(self):
        return f"lie({self.xi.render()}, {self.w.render()})"


class LieEuclidean(VectorField):
    """Lie derivative of `w` along the rigid generator xi = a + b x r = a + B r.

    xi is linear, so the product rule needs no Leibniz sums: row alpha of
    block d of component k is sum_i xi_i D^(alpha + e_i) w_k (one row gather
    of block d + 1) + sum_(i != j) B_ij alpha_j D^(alpha - e_j + e_i) w_k
    (block d contracted with `jets._rotation(d)` and B) - sum_j B_kj D^alpha w_j.
    """

    a: tuple
    b: tuple
    w: VectorField

    def _jets(self, pts, order, ctx):
        jw = self.w.jets(pts, order + 1, ctx)
        (a0, a1, a2), (b0, b1, b2) = self.a, self.b
        x, y, z = pts.T
        xi = (a0 + (b1 * z - b2 * y), a1 + (b2 * x - b0 * z), a2 + (b0 * y - b1 * x))
        bmat = np.array([[0.0, -b2, b1], [b2, 0.0, -b0], [-b1, b0, 0.0]])
        # block d of the three components interleaved, (rows, 3, N); block 0 as one row
        w = [np.stack([j.block(d).reshape(-1, len(pts)) for j in jw], axis=1)
             for d in range(order + 2)]
        out = []
        for d in range(order + 1):
            q = len(w[d])
            g = w[d + 1][_shifts(d)]
            acc = xi[0] * g[:q] + xi[1] * g[q:2 * q] + xi[2] * g[2 * q:]
            if d:
                rot = np.einsum("ij,ijqp->qp", bmat, _rotation(d))
                acc = acc + np.einsum("qp,pkn->qkn", rot, w[d])
            w0, w1, w2 = w[d][:, 0], w[d][:, 1], w[d][:, 2]
            out.append((acc[:, 0] - (b1 * w2 - b2 * w1), acc[:, 1] - (b2 * w0 - b0 * w2),
                        acc[:, 2] - (b0 * w1 - b1 * w0)))
        return tuple(Jet([out[0][k][0], *(o[k] for o in out[1:])]) for k in range(3))

    def render(self):
        a = ",".join(_num(v) for v in self.a)
        b = ",".join(_num(v) for v in self.b)
        return f"lie_euclidean(a=({a}), b=({b}), {self.w.render()})"


# public constructors --------------------------------------------------------


vector, grad, curl, cross = FromComponents, Gradient, Curl, Cross


def lie_derivative(w: VectorField, xi: VectorField) -> VectorField:
    """Lie derivative of w along xi, as a structural node."""
    return Lie(xi, w)
