"""Vectorized truncated Taylor jets of any order.

A jet of order K holds, at each of N points, every partial derivative up to
total degree K of a scalar function of (x, y, z), in degree blocks: block 0
the values (N,), block d the degree-d derivatives (N, (d + 1)(d + 2)/2), one
column per sorted axis tuple of `monomials(d)`.  Block 1 is the gradient,
block 2 the packed Hessian xx, xy, xz, yy, yz, zz.  Blocks hold derivatives,
i.e. Taylor coefficients times alpha! (the Hessian diagonal keeps its exact
factor 2), so a partial derivative is an exact column shift one block down.

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
    """Sorted axis tuples of the degree-d derivatives, in block column order."""
    return tuple(combinations_with_replacement(range(3), d))


@lru_cache(maxsize=None)
def _shift(d: int, axis: int) -> np.ndarray:
    """Columns of block d + 1 holding the axis-derivatives of block d."""
    return np.array([monomials(d + 1).index(tuple(sorted(m + (axis,)))) for m in monomials(d)])


@lru_cache(maxsize=None)
def _rotation(d: int) -> np.ndarray:
    """Product-rule table of a linear field B r on block d: entry [i, j, p, q] is
    alpha_j where column q is alpha and column p is alpha - e_j + e_i, so column
    q of (block d) @ sum_ij B_ij [i, j] is sum_ij B_ij alpha_j D^(alpha - e_j + e_i)."""
    cols = monomials(d)
    table = np.zeros((3, 3, len(cols), len(cols)))
    for q, alpha in enumerate(cols):
        for n, j in enumerate(alpha):  # once per factor of axis j: alpha_j in all
            for i in range(3):
                table[i, j, cols.index(tuple(sorted(alpha[:n] + (i,) + alpha[n + 1:]))), q] += 1
    return table


@lru_cache(maxsize=None)
def _leibniz(d: int, lo: int, square: bool = False):
    """Pair table of the degree-d Leibniz sum over left degrees lo..d-1.

    Column alpha sums C(alpha, beta) left[beta] right[alpha - beta], with left
    columns in the concatenated left blocks lo, lo+1, ... and right columns in
    the concatenated right blocks 1, 2, ....  With `square`, left and right are
    the same blocks (lo = 1) and the table sums half the square: each
    unordered pair once, and a pair of equal factors at half weight.

    The pairs are laid out in slots: with the columns ranked by pair count,
    most first, slot s holds the s-th pair of the first `widths[s]` ranked
    columns, and `rank_of` takes the ranked columns back to block order.
    `weight` is the column (pairs, 1) of binomial weights, one float per pair.
    """
    columns = []
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
        columns.append(pairs)
    rank = sorted(range(len(columns)), key=lambda a: -len(columns[a]))
    widths = [sum(len(columns[a]) > s for a in rank) for s in range(len(columns[rank[0]]))]
    left, right, weight = zip(*(columns[a][s] for s, n in enumerate(widths) for a in rank[:n]))
    weight = np.array(weight, float)[:, None]
    return np.array(left), np.array(right), weight, widths, np.argsort(rank)


# points per pass of a Leibniz sum, so its (pairs x points) products stay small
_PAIR_ROWS = 2048


def _pair_sum(left: np.ndarray, right: np.ndarray, d: int, lo: int,
              square: bool = False) -> np.ndarray:
    """Degree-d Leibniz sum of concatenated left blocks lo.. and right blocks 1..

    Products are formed pair-major, so every operation runs along the points,
    and each column adds only its own pairs, in table order.
    """
    li, ri, weight, widths, rank_of = _leibniz(d, lo, square)
    out = np.empty((left.shape[0], rank_of.size))
    for r in range(0, left.shape[0], _PAIR_ROWS):
        rows = slice(r, r + _PAIR_ROWS)
        p = left[rows].T[li]
        p *= right[rows].T[ri]
        p *= weight
        start = widths[0]
        for n in widths[1:]:
            p[:n] += p[start:start + n]
            start += n
        out[rows] = p[:widths[0]].T[:, rank_of]
    return out


def _joined(blocks: list) -> np.ndarray:
    """Blocks side by side; one block is used as it is."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)


def _high_product(a: list, b: list, k: int) -> list:
    """Blocks 2..k of the product of the block lists a and b."""
    left, right = _joined(a[1:k]), _joined(b[1:k])
    return [a[0][:, None] * b[d] + b[0][:, None] * a[d] + _pair_sum(left, right, d, 1)
            for d in range(2, k + 1)]


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
        acc = fs[1][:, None] * c[d]
        for m in range(2, d + 1):
            acc = acc + fs[m][:, None] * powers[m][d]
        out.append(acc)
    return out


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
        blocks = [v]
        for d in range(1, order + 1):
            blocks.append(np.zeros((n, (d + 1) * (d + 2) // 2)))
        return cls(blocks)

    @classmethod
    def coordinate(cls, pts: np.ndarray, axis: int, order: int) -> "Jet":
        n = pts.shape[0]
        blocks = [pts[:, axis].astype(float, copy=True)]
        for d in range(1, order + 1):
            blocks.append(np.zeros((n, (d + 1) * (d + 2) // 2)))
        if order >= 1:
            blocks[1][:, axis] = 1.0
        return cls(blocks)

    # -- accessors ----------------------------------------------------------

    @property
    def value(self) -> np.ndarray:
        return self.c[0]

    @property
    def grad(self) -> np.ndarray | None:  # (N, 3), None at order 0
        return self.c[1] if len(self.c) > 1 else None

    @property
    def hess(self) -> np.ndarray | None:  # packed (N, 6), None below order 2
        return self.c[2] if len(self.c) > 2 else None

    @property
    def order(self) -> int:
        """Highest derivative degree carried."""
        return len(self.c) - 1

    def hessian(self) -> np.ndarray:
        """Full symmetric Hessian matrices, shape (N, 3, 3)."""
        return self.c[2][:, _FULL]

    def partial(self, i: int) -> "Jet":
        """Jet of the i-th first partial derivative, one order lower."""
        c = self.c
        if len(c) < 2:
            raise ValueError("an order-0 jet has no partial derivatives")
        blocks = [c[1][:, i].copy()]
        for d in range(1, len(c) - 1):
            blocks.append(c[d + 1][:, _shift(d, i)])
        return Jet(blocks)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Jet") -> "Jet":
        a, b = self.c, other.c
        if len(a) == 1 or len(b) == 1:  # values only, the common case
            return Jet([a[0] + b[0]])
        return Jet(list(map(operator.add, a, b)))

    def __neg__(self):
        return Jet(list(map(operator.neg, self.c)))

    def __sub__(self, other: "Jet") -> "Jet":
        a, b = self.c, other.c
        if len(a) == 1 or len(b) == 1:
            return Jet([a[0] - b[0]])
        return Jet(list(map(operator.sub, a, b)))

    def __mul__(self, other: "Jet") -> "Jet":
        a, b = self.c, other.c
        k = min(len(a), len(b)) - 1
        if k == 0:
            return Jet([a[0] * b[0]])
        out = [a[0] * b[0], a[0][:, None] * b[1] + b[0][:, None] * a[1]]
        return Jet(out + _high_product(a, b, k) if k >= 2 else out)

    def __truediv__(self, other: "Jet") -> "Jet":
        return self * other.reciprocal()

    def reciprocal(self) -> "Jet":
        v = self.c[0]
        fs = [1.0 / v]
        for k in range(1, len(self.c)):
            fs.append((-1) ** k * factorial(k) / v ** (k + 1))
        return self.chain(fs)

    def chain(self, fs) -> "Jet":
        """Compose with a univariate f given f(v), f'(v), f''(v), ... (order + 1 read)."""
        c = self.c
        k = len(c) - 1
        if k == 0:
            return Jet([fs[0]])
        out = [fs[0], fs[1][:, None] * c[1]]
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
    return Jet([v * j.c[0], *(v[:, None] * b for b in j.c[1:])])


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
