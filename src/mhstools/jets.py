"""Vectorized second-order jets.

A jet carries a value together with its gradient and Hessian with respect to
the three Cartesian coordinates, evaluated at a batch of points, up to its
order: 0 (value), 1 (+gradient) or 2 (+Hessian).  All arithmetic propagates
derivatives exactly (forward mode), so expression evaluation yields
machine-precision first and second derivatives, and an order-0 evaluation
pays for values only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Packed upper-triangle layout for symmetric Hessians: xx, xy, xz, yy, yz, zz.
PACKED_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
# Packed indices forming row i of the full 3x3 matrix.
_ROW = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


def sym_outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Packed symmetrized outer product u (x) v + v (x) u of (N,3) arrays."""
    out = np.empty(u.shape[:-1] + (6,))
    for k, (i, j) in enumerate(PACKED_PAIRS):
        out[..., k] = u[..., i] * v[..., j] + u[..., j] * v[..., i]
    return out


def outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Packed outer product with entries u_i v_j (symmetric inputs assumed)."""
    out = np.empty(u.shape[:-1] + (6,))
    for k, (i, j) in enumerate(PACKED_PAIRS):
        out[..., k] = u[..., i] * v[..., j]
    return out


class Jet2:
    """Batched value/gradient/Hessian triple of a given order.

    value: (N,), grad: (N, 3), hess: (N, 6) packed upper triangle.  An order-0
    jet carries `grad = hess = None`, an order-1 jet `hess = None`.  Arithmetic
    returns the lower order of its operands and computes nothing above it.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: np.ndarray, grad: np.ndarray | None = None,
                 hess: np.ndarray | None = None):
        self.value = value
        self.grad = grad
        self.hess = hess

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: np.ndarray, n: int | None = None, order: int = 2) -> "Jet2":
        v = np.asarray(value, dtype=float)
        if v.ndim == 0:
            if n is None:
                raise ValueError("batch size required for scalar constant")
            v = np.full(n, float(v))
        m = v.shape[0]
        return cls(
            v,
            np.zeros((m, 3)) if order >= 1 else None,
            np.zeros((m, 6)) if order >= 2 else None,
        )

    @classmethod
    def coordinate(cls, pts: np.ndarray, axis: int, order: int = 2) -> "Jet2":
        n = pts.shape[0]
        g = None
        if order >= 1:
            g = np.zeros((n, 3))
            g[:, axis] = 1.0
        return cls(pts[:, axis].astype(float, copy=True), g,
                   np.zeros((n, 6)) if order >= 2 else None)

    # -- helpers ------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.value.shape[0]

    @property
    def order(self) -> int:
        """Highest derivative order carried: 0, 1 or 2."""
        if self.grad is None:
            return 0
        return 1 if self.hess is None else 2

    def hessian(self) -> np.ndarray:
        """Full symmetric Hessian matrices, shape (N, 3, 3)."""
        h = np.empty(self.value.shape + (3, 3))
        for k, (i, j) in enumerate(PACKED_PAIRS):
            h[..., i, j] = self.hess[..., k]
            h[..., j, i] = self.hess[..., k]
        return h

    def hess_row(self, i: int) -> np.ndarray:
        """Row i of the full Hessian, shape (N, 3)."""
        return self.hess[:, _ROW[i]]

    def partial(self, i: int) -> "Jet2":
        """Jet of the i-th first partial derivative, one order lower."""
        if self.grad is None:
            raise ValueError("an order-0 jet has no partial derivatives")
        g = None if self.hess is None else self.hess_row(i).copy()
        return Jet2(self.grad[:, i].copy(), g)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            g = h = None
            if self.grad is not None and other.grad is not None:
                g = self.grad + other.grad
                if self.hess is not None and other.hess is not None:
                    h = self.hess + other.hess
            return Jet2(self.value + other.value, g, h)
        return Jet2(self.value + other, _copy(self.grad), _copy(self.hess))

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, _neg(self.grad), _neg(self.hess))

    def __sub__(self, other):
        if isinstance(other, Jet2):
            g = h = None
            if self.grad is not None and other.grad is not None:
                g = self.grad - other.grad
                if self.hess is not None and other.hess is not None:
                    h = self.hess - other.hess
            return Jet2(self.value - other.value, g, h)
        return Jet2(self.value - other, _copy(self.grad), _copy(self.hess))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            a, b = self, other
            value = a.value * b.value
            grad = hess = None
            if a.grad is not None and b.grad is not None:
                grad = a.value[:, None] * b.grad + b.value[:, None] * a.grad
                if a.hess is not None and b.hess is not None:
                    hess = (
                        a.value[:, None] * b.hess
                        + b.value[:, None] * a.hess
                        + sym_outer(a.grad, b.grad)
                    )
            return Jet2(value, grad, hess)
        c = float(other)
        return Jet2(
            self.value * c,
            None if self.grad is None else self.grad * c,
            None if self.hess is None else self.hess * c,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.reciprocal()
        return self * (1.0 / float(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self) -> "Jet2":
        v = self.value
        o = self.order
        return self.chain(1.0 / v, -1.0 / v**2 if o >= 1 else None,
                          2.0 / v**3 if o >= 2 else None)

    def chain(self, f0: np.ndarray, f1: np.ndarray | None = None,
              f2: np.ndarray | None = None) -> "Jet2":
        """Compose with a univariate function given f(v), f'(v), f''(v).

        Only the derivatives up to this jet's order are read; higher ones may
        be None.
        """
        grad = hess = None
        if self.grad is not None:
            grad = f1[:, None] * self.grad
        if self.hess is not None:
            hess = f1[:, None] * self.hess + f2[:, None] * outer(self.grad, self.grad)
        return Jet2(f0, grad, hess)


def _copy(a):
    return None if a is None else a.copy()


def _neg(a):
    return None if a is None else -a


# -- elementary functions ----------------------------------------------------


def jexp(j: Jet2) -> Jet2:
    e = np.exp(j.value)
    return j.chain(e, e, e)


def jlog(j: Jet2) -> Jet2:
    v = j.value
    o = j.order
    return j.chain(np.log(v), 1.0 / v if o >= 1 else None, -1.0 / v**2 if o >= 2 else None)


def jsin(j: Jet2) -> Jet2:
    s = np.sin(j.value)
    if j.order == 0:
        return Jet2(s)
    return j.chain(s, np.cos(j.value), -s)


def jcos(j: Jet2) -> Jet2:
    c = np.cos(j.value)
    if j.order == 0:
        return Jet2(c)
    return j.chain(c, -np.sin(j.value), -c)


def jsqrt(j: Jet2) -> Jet2:
    r = np.sqrt(j.value)
    o = j.order
    return j.chain(r, 0.5 / r if o >= 1 else None,
                   -0.25 / (j.value * r) if o >= 2 else None)


def jpow(j: Jet2, e: float) -> Jet2:
    v = j.value
    o = j.order
    if e == 0:
        return Jet2.constant(np.ones_like(v), order=o)
    if e == 1:
        return Jet2(v.copy(), _copy(j.grad), _copy(j.hess))
    if e == 2:
        return j * j
    f0 = v**e
    f1 = e * v ** (e - 1) if o >= 1 else None
    f2 = e * (e - 1) * v ** (e - 2) if o >= 2 else None
    return j.chain(f0, f1, f2)


def jatan2(jy: Jet2, jx: Jet2) -> Jet2:
    """Two-argument arctangent with full second-order chain rule."""
    a, b = jx.value, jy.value  # atan2(b, a)
    value = np.arctan2(b, a)
    o = min(jx.order, jy.order)
    if o == 0:
        return Jet2(value)
    r2 = a * a + b * b
    fa = -b / r2
    fb = a / r2
    grad = fa[:, None] * jx.grad + fb[:, None] * jy.grad
    if o == 1:
        return Jet2(value, grad)
    r4 = r2 * r2
    faa = 2 * a * b / r4
    fbb = -2 * a * b / r4
    fab = (b * b - a * a) / r4
    hess = (
        fa[:, None] * jx.hess
        + fb[:, None] * jy.hess
        + faa[:, None] * outer(jx.grad, jx.grad)
        + fbb[:, None] * outer(jy.grad, jy.grad)
        + fab[:, None] * sym_outer(jx.grad, jy.grad)
    )
    return Jet2(value, grad, hess)


class JetValue(NamedTuple):
    """Single-point jet: value, gradient (3,), full Hessian (3, 3)."""

    value: float
    grad: np.ndarray
    hess: np.ndarray
