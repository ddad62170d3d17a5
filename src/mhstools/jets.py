"""Vectorized truncated Taylor jets of any order.

A jet of order K holds, at each of N points, every partial derivative up to
total degree K of a scalar function of (x, y, z), in degree blocks: block 0
the values (N,), block d the degree-d derivatives ((d + 1)(d + 2)/2, N), one
row per sorted axis tuple of `monomials(d)`, the points along the last axis.
Block 1 is the gradient, block 2 the packed Hessian xx, xy, xz, yy, yz, zz.
Blocks hold derivatives, i.e. Taylor coefficients times alpha! (the Hessian
diagonal keeps its exact factor 2), so a partial derivative is an exact row
shift one block down.  A constant carries its values alone: its derivative
blocks are None, exact zeros that arithmetic skips, and `Jet.block`
materialises them for the few readers that need arrays.  A jet's derivative
blocks are all arrays or all None.

Arithmetic is exact forward-mode Taylor arithmetic (Griewank & Walther,
Evaluating Derivatives, 2008, ch. 13) at the lower order of its operands.
Every block of degree >= 2 takes one path: products sum Leibniz pair
tables, and compositions run through the powers of the jet's nilpotent part
(Faa di Bruno), whose blocks are Leibniz sums too.  Block d is computed the
same way at every order, so a high-order jet's low blocks are bit-identical
to a low-order jet.  Arithmetic never modifies a block in place, so jets
share them.
"""

from __future__ import annotations

import operator
from collections import Counter
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod

import numpy as np

_FULL = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])  # packed index of Hessian entry (i, j)


@lru_cache(maxsize=None)
def monomials(d: int) -> tuple:
    """Sorted axis tuples of the degree-d derivatives, in block row order."""
    return tuple(combinations_with_replacement(range(3), d))


@lru_cache(maxsize=None)
def _shift(d: int, axis: int) -> np.ndarray:
    """Rows of block d + 1 holding the axis-derivatives of block d."""
    return np.array([monomials(d + 1).index(tuple(sorted(m + (axis,)))) for m in monomials(d)])


@lru_cache(maxsize=None)
def _shifts(d: int) -> np.ndarray:
    """The x, y and z shifts of block d one after another: one gather of block d + 1."""
    return np.concatenate([_shift(d, i) for i in range(3)])


@lru_cache(maxsize=None)
def _rotation(d: int) -> np.ndarray:
    """Product-rule table of a linear field B r on block d: entry [i, j, q, p] is
    alpha_j where row q is alpha and row p is alpha - e_j + e_i, so row q of
    (sum_ij B_ij [i, j]) @ (block d) is sum_ij B_ij alpha_j D^(alpha - e_j + e_i)."""
    rows = monomials(d)
    table = np.zeros((3, 3, len(rows), len(rows)))
    for q, alpha in enumerate(rows):
        for n, j in enumerate(alpha):  # once per factor of axis j: alpha_j in all
            for i in range(3):
                table[i, j, q, rows.index(tuple(sorted(alpha[:n] + (i,) + alpha[n + 1:])))] += 1
    return table


@lru_cache(maxsize=None)
def _leibniz(d: int, lo: int, square: bool = False):
    """Pair table of the degree-d Leibniz sum over left degrees lo..d-1.

    Row alpha sums C(alpha, beta) left[beta] right[alpha - beta], with left
    rows in the concatenated left blocks lo, lo+1, ... and right rows in
    the concatenated right blocks 1, 2, ....  With `square`, left and right are
    the same blocks (lo = 1) and the table sums half the square: each
    unordered pair once, and a pair of equal factors at half weight.

    The pairs are laid out in slots: with the rows ranked by pair count,
    most first, slot s holds the s-th pair of the first `widths[s]` ranked
    rows, and `rank_of` takes the ranked rows back to block order.
    `weight` is the column (pairs, 1) of binomial weights, one float per pair.
    """
    rows = []
    for alpha in monomials(d):
        pairs = []
        for i in range(lo, d):
            for beta in sorted(set(combinations(alpha, i))):
                gamma = tuple(sorted((Counter(alpha) - Counter(beta)).elements()))
                li = comb(i + 2, 3) - comb(lo + 2, 3) + monomials(i).index(beta)
                ri = comb(d - i + 2, 3) - 1 + monomials(d - i).index(gamma)
                w = prod(comb(alpha.count(a), beta.count(a)) for a in range(3))
                if not square or li < ri:
                    pairs.append((li, ri, w))
                elif li == ri:
                    pairs.append((li, ri, w // 2))  # C(2k, k) is even
        rows.append(pairs)
    rank = sorted(range(len(rows)), key=lambda a: -len(rows[a]))
    widths = [sum(len(rows[a]) > s for a in rank) for s in range(len(rows[rank[0]]))]
    left, right, weight = zip(*(rows[a][s] for s, n in enumerate(widths) for a in rank[:n]))
    weight = np.array(weight, float)[:, None]
    return np.array(left), np.array(right), weight, widths, np.argsort(rank)


# points per pass of a Leibniz sum along the last axis, so its (pairs x points)
# products stay small
_PAIR_ROWS = 2048


def _pair_sum(left: np.ndarray, right: np.ndarray, d: int, lo: int,
              square: bool = False) -> np.ndarray:
    """Degree-d Leibniz sum of concatenated left blocks lo.. and right blocks 1..

    Products are formed pair-major, so every operation runs along the points,
    and each row adds only its own pairs, in table order.
    """
    li, ri, weight, widths, rank_of = _leibniz(d, lo, square)
    n = left.shape[1]
    out = np.empty((rank_of.size, n))
    for r in range(0, n, _PAIR_ROWS):
        span = slice(r, r + _PAIR_ROWS)
        p = left[li, span]
        p *= right[ri, span]
        p *= weight
        start = widths[0]
        for w in widths[1:]:
            p[:w] += p[start:start + w]
            start += w
        out[:, span] = p[rank_of]
    return out


def _joined(blocks: list) -> np.ndarray:
    """Blocks stacked row-wise; one block is used as it is."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _high_product(a: list, b: list, k: int) -> list:
    """Blocks 2..k of the product of the block lists a and b."""
    left, right = _joined(a[1:k]), _joined(b[1:k])
    return [a[0] * b[d] + b[0] * a[d] + _pair_sum(left, right, d, 1) for d in range(2, k + 1)]


def _high_chain(c: list, fs, k: int) -> list:
    """Blocks 2..k of f(u) from u's blocks c and f, f', f'', ... at u's values.

    Block d is the sum over m of f^(m) times block d of p_m = t^m / m!, the
    powers of the nilpotent part t = u - u(x0); p_m vanishes below degree m.
    p_2 is the half square of t, and p_m = p_(m-1) t / m above it.
    """
    t = _joined(c[1:k])
    half_square = [_pair_sum(t, t, d, 1, square=True) for d in range(2, k + 1)]
    powers = [None, c, [None, None] + half_square]
    for m in range(3, k + 1):
        left = _joined(powers[m - 1][m - 1:k])
        powers.append([None] * m + [_pair_sum(left, t, d, m - 1) / m for d in range(m, k + 1)])
    out = []
    for d in range(2, k + 1):
        acc = fs[1] * c[d]
        for m in range(2, d + 1):
            acc = acc + fs[m] * powers[m][d]
        out.append(acc)
    return out


def _times(v: np.ndarray, blocks) -> list:
    """The derivative blocks times the per-point values v; None stays None."""
    return [None if b is None else v * b for b in blocks]


class Jet:
    """Batched truncated Taylor jet: `c[d]` is the degree-d block, d = 0..order."""

    __slots__ = ("c",)

    def __init__(self, blocks: list):
        self.c = blocks

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c: float, n: int, order: int) -> "Jet":
        v = np.empty(n)
        v.fill(c)
        return cls([v] + [None] * order)

    @classmethod
    def coordinate(cls, pts: np.ndarray, axis: int, order: int) -> "Jet":
        n = pts.shape[0]
        blocks = [pts[:, axis].astype(float, copy=True)]
        for d in range(1, order + 1):
            blocks.append(np.zeros(((d + 1) * (d + 2) // 2, n)))
        if order >= 1:
            blocks[1][axis] = 1.0
        return cls(blocks)

    # -- accessors ----------------------------------------------------------

    def block(self, d: int) -> np.ndarray:
        """Block d as an array, zeros for a constant's derivative block."""
        b = self.c[d]
        if b is None:
            b = np.zeros(((d + 1) * (d + 2) // 2, self.c[0].shape[0]))
        return b

    @property
    def value(self) -> np.ndarray:
        return self.c[0]

    @property
    def grad(self) -> np.ndarray | None:  # (N, 3), None at order 0
        return self.block(1).T if len(self.c) > 1 else None

    @property
    def hess(self) -> np.ndarray | None:  # packed (N, 6), None below order 2
        return self.block(2).T if len(self.c) > 2 else None

    @property
    def order(self) -> int:
        """Highest derivative degree carried."""
        return len(self.c) - 1

    def hessian(self) -> np.ndarray:
        """Full symmetric Hessian matrices, shape (N, 3, 3)."""
        if len(self.c) < 3:
            raise ValueError("a jet below order 2 has no Hessian")
        return self.block(2)[_FULL].transpose(2, 0, 1)

    def partial(self, i: int) -> "Jet":
        """Jet of the i-th first partial derivative, one order lower."""
        c = self.c
        if len(c) < 2:
            raise ValueError("an order-0 jet has no partial derivatives")
        if c[1] is None:
            return Jet([np.zeros(c[0].shape[0]), *c[2:]])
        return Jet([c[1][i], *(c[d + 1][_shift(d, i)] for d in range(1, len(c) - 1))])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Jet") -> "Jet":
        a, b = self.c, other.c
        if len(a) == 1 or len(b) == 1:  # values only, the common case
            return Jet([a[0] + b[0]])
        if b[1] is None:
            return Jet([a[0] + b[0], *a[1:len(b)]])
        if a[1] is None:
            return Jet([a[0] + b[0], *b[1:len(a)]])
        return Jet(list(map(operator.add, a, b)))

    def __neg__(self):
        c = self.c
        return Jet([-c[0], *(None if b is None else -b for b in c[1:])])

    def __sub__(self, other: "Jet") -> "Jet":
        a, b = self.c, other.c
        if len(a) == 1 or len(b) == 1:
            return Jet([a[0] - b[0]])
        if b[1] is None:
            return Jet([a[0] - b[0], *a[1:len(b)]])
        if a[1] is None:
            return Jet([a[0] - b[0], *(-x for x in b[1:len(a)])])
        return Jet(list(map(operator.sub, a, b)))

    def __mul__(self, other: "Jet") -> "Jet":
        a, b = self.c, other.c
        k = min(len(a), len(b)) - 1
        if k == 0:
            return Jet([a[0] * b[0]])
        if a[1] is None:
            return Jet([a[0] * b[0], *_times(a[0], b[1:k + 1])])
        if b[1] is None:
            return Jet([a[0] * b[0], *_times(b[0], a[1:k + 1])])
        out = [a[0] * b[0], a[0] * b[1] + b[0] * a[1]]
        return Jet(out + _high_product(a, b, k) if k >= 2 else out)

    def __truediv__(self, other: "Jet") -> "Jet":
        return self * other.reciprocal()

    def reciprocal(self) -> "Jet":
        c = self.c
        v = c[0]
        fs = [1.0 / v]
        if c[-1] is not None:  # a constant reads f(v) alone
            for k in range(1, len(c)):
                fs.append((-1) ** k * factorial(k) / v ** (k + 1))
        return self.chain(fs)

    def chain(self, fs) -> "Jet":
        """Compose with a univariate f given f(v), f'(v), f''(v), ... (order + 1 read;
        f(v) alone for a constant, whose composition is a constant)."""
        c = self.c
        k = len(c) - 1
        if k == 0 or c[1] is None:
            return Jet([fs[0], *c[1:]])
        out = [fs[0], fs[1] * c[1]]
        return Jet(out + _high_chain(c, fs, k) if k >= 2 else out)


# -- elementary functions ----------------------------------------------------


def jexp(j: Jet) -> Jet:
    e = np.exp(j.c[0])
    return j.chain([e] * len(j.c))


def jlog(j: Jet) -> Jet:
    v = j.c[0]
    fs = [np.log(v)]
    for k in range(1, len(j.c)):
        fs.append(1.0 / v if k == 1 else (-1) ** (k - 1) * factorial(k - 1) / v**k)
    return j.chain(fs)


def _periodic(j: Jet, f: np.ndarray, df) -> Jet:
    """j composed with a function of values f, f' = df(v) and f'' = -f."""
    if len(j.c) == 1:
        return Jet([f])
    fs = [f, df(j.c[0])]
    while len(fs) < len(j.c):
        fs.append(-fs[-2])
    return j.chain(fs)


def jsin(j: Jet) -> Jet:
    return _periodic(j, np.sin(j.c[0]), np.cos)


def jcos(j: Jet) -> Jet:
    return _periodic(j, np.cos(j.c[0]), lambda v: -np.sin(v))


def jsqrt(j: Jet) -> Jet:
    v = j.c[0]
    r = np.sqrt(v)
    if len(j.c) == 1:
        return Jet([r])
    fs = [r, 0.5 / r]
    if j.order >= 2:
        fs.append(-0.25 / (v * r))
    for k in range(3, j.order + 1):
        fs.append(fs[-1] * ((1.5 - k) / v))
    return j.chain(fs)


def jpow(j: Jet, e: float) -> Jet:
    v = j.c[0]
    if e == 0:
        return Jet.constant(1.0, v.shape[0], j.order)
    if e == 1:
        return Jet(list(j.c))
    if e == 2:
        return j * j
    fs = [v**e]
    coef = 1.0
    for k in range(1, len(j.c)):
        coef *= e - k + 1
        # an integer power's derivatives above its degree vanish, also at v = 0
        fs.append(coef * v ** (e - k) if coef != 0.0 else np.zeros_like(v))
    return j.chain(fs)


def _scaled(j: Jet, v: np.ndarray) -> Jet:
    """j times the per-point constant v, block by block."""
    return Jet([v * j.c[0], *_times(v, j.c[1:])])


def jatan2(jy: Jet, jx: Jet) -> Jet:
    """Two-argument arctangent, through atan(s) at every derivative order.

    atan2(y, x) - atan2(b, a) = atan(s) with s = (a y - b x)/(a x + b y), where
    (a, b) are the values of (x, y); s vanishes at the point, where
    atan^(2m+1) = (-1)^m (2m)! and the even derivatives are 0.
    """
    a, b = jx.value, jy.value
    value = np.arctan2(b, a)
    if len(jx.c) == 1 or len(jy.c) == 1:
        return Jet([value])
    s = (_scaled(jy, a) - _scaled(jx, b)) / (_scaled(jx, a) + _scaled(jy, b))
    fs = []
    for k in range(s.order + 1):
        fs.append(np.full(a.shape, k % 2 * (-1.0) ** (k // 2) * factorial(max(k - 1, 0))))
    return Jet([value, *s.chain(fs).c[1:]])
