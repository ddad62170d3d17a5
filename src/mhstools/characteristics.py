"""Method-of-characteristics solver for linear transport equations.

Solves a . grad(psi) = c for psi by integrating the characteristic ODE
dp/dt = a(p) backwards from each target point until it crosses the initial
surface, then carrying the initial datum forward with the constant source.
Integration is fixed-step RK4, batched over all targets; the crossing inside
the bracketing step is located by a safeguarded Newton iteration on the step
fraction, run only on the lanes that crossed.  A rerun at half step supplies a
Richardson error estimate per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import Domain, SampleSet
from .fields import Gradient, ScalarField, VectorField


@dataclass(frozen=True)
class InitialCurve:
    """Initial data psi = data on the level set surface = 0."""

    surface: ScalarField
    data: ScalarField


@dataclass(frozen=True)
class CharacteristicsProblem:
    advecting: VectorField
    source: float
    initial: InitialCurve
    domain: Domain | None = None


@dataclass(frozen=True)
class CharacteristicResult:
    point: np.ndarray
    value: float
    error_estimate: float
    ok: bool
    message: str = ""


_SURFACE_TOL = 1e-13
_MAX_CROSSING_ITERATIONS = 52
# A Newton update below this fraction of a step moves the hit time by far less
# than the RK4 truncation error (it is scipy brentq's default xtol).  Roundoff
# in the surface value resolves the fraction only to ~1e-13 at h = 1e-3, so a
# tighter tolerance would leave lanes bouncing until the iteration cap.
_FRAC_TOL = 2e-12

# per-lane outcome codes; `_MESSAGES[code]` is the failure message
_OK, _LEFT_DOMAIN, _EVAL_FAILED, _BUDGET, _DATA_FAILED = range(5)
_MESSAGES = (
    "",
    "characteristic left the domain",
    "evaluation failed along the characteristic",
    "step budget exhausted before reaching the initial surface",
    "initial data evaluation failed",
)


def _rk4(f, p: np.ndarray, h) -> np.ndarray:
    """One RK4 step of dp/dt = f(p); h is a scalar or per-row array."""
    if np.ndim(h) == 1:
        h = h[:, None]
    k1 = f(p)
    k2 = f(p + 0.5 * h * k1)
    k3 = f(p + 0.5 * h * k2)
    k4 = f(p + h * k3)
    return p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _trace(prob: CharacteristicsProblem, pts: np.ndarray, h: float, max_time: float):
    """Flow every point along its characteristic to the initial surface.

    Each target is integrated both backwards and forwards (the surface may
    lie on either side); the first crossing wins.  Returns hit points, the
    signed flow time from the hit point to the target, an ok mask and a
    per-point outcome code (`_OK` where ok).
    """
    a = prob.advecting
    surf = prob.initial.surface
    gsurf = Gradient(surf)
    n = pts.shape[0]

    # lanes 0..n-1 flow backwards (dp/dtau = -a), lanes n..2n-1 forwards
    sign = np.concatenate([np.full(n, -1.0), np.full(n, 1.0)])

    def f(p):
        return a.values(p)

    p = np.vstack([pts, pts]).astype(float)
    t = np.zeros(2 * n)
    hit_p = np.zeros_like(p)
    hit_t = np.full(2 * n, np.inf)
    done = np.zeros(2 * n, dtype=bool)
    failed = np.zeros(2 * n, dtype=bool)
    reason = np.full(2 * n, _OK, dtype=np.int8)

    with np.errstate(all="ignore"):
        s = surf.values(p)
        # on the surface when |s| <= tol |grad s|, so that a multiple root does not
        # capture distant starts; grad s only where |s| passes the absolute test
        on_surface = np.abs(s) < _SURFACE_TOL
        near = np.flatnonzero(on_surface)
        if near.size:
            gnorm = np.linalg.norm(gsurf.values(p[near]), axis=1)
            on_surface[near] = np.abs(s[near]) <= _SURFACE_TOL * gnorm
        hit_p[on_surface] = p[on_surface]
        hit_t[on_surface] = 0.0
        done |= on_surface
        failed |= ~np.isfinite(s)

        nmax = int(max_time / h) + 1
        for _ in range(nmax):
            active = ~done & ~failed
            # a lane may stop once its twin has already hit
            twin_done = done[: n] | done[n:]
            active &= ~np.concatenate([twin_done, twin_done])
            if not active.any():
                break
            idx = np.flatnonzero(active)
            pa = p[idx]
            if prob.domain is not None:
                inside = prob.domain.contains(pa)
                out = idx[~inside]
                if out.size:
                    failed[out] = True
                    reason[out] = _LEFT_DOMAIN
                    idx = idx[inside]
                    pa = p[idx]
                    if idx.size == 0:
                        continue
            hrow = sign[idx] * h
            p_new = _rk4(f, pa, hrow)
            s_new = surf.values(p_new)
            bad = ~np.isfinite(p_new).all(axis=1) | ~np.isfinite(s_new)
            failed[idx[bad]] = True
            reason[idx[bad]] = _EVAL_FAILED
            crossed = (s[idx] * s_new <= 0.0) & ~bad
            if crossed.any():
                ci = idx[crossed]
                frac = _crossing_fraction(f, surf, gsurf, p[ci], s[ci], s_new[crossed],
                                          sign[ci] * h)
                hit_p[ci] = _rk4(f, p[ci], sign[ci] * h * frac)
                hit_t[ci] = t[ci] + h * frac
                done[ci] = True
            keep = ~crossed & ~bad
            ki = idx[keep]
            p[ki] = p_new[keep]
            s[ki] = s_new[keep]
            t[ki] += h

    # merge the two directions: earliest crossing wins, the backward one on ties
    back, fwd = np.arange(n), np.arange(n, 2 * n)
    ok = done[back] | done[fwd]
    use_fwd = done[fwd] & ~(done[back] & (hit_t[back] <= hit_t[fwd]))
    out_p = np.where(use_fwd[:, None], hit_p[fwd], hit_p[back])
    # backward: the target lies ahead of the hit point
    out_t = np.where(use_fwd, -hit_t[fwd], np.where(ok, hit_t[back], 0.0))
    code = np.where(reason[back] != _OK, reason[back], reason[fwd])
    code = np.where(ok, _OK, np.where(code != _OK, code, _BUDGET))
    return out_p, out_t, ok, code


def _crossing_fraction(f, surf, gsurf, p0: np.ndarray, s0: np.ndarray, s1: np.ndarray,
                       h: np.ndarray) -> np.ndarray:
    """Per-row step fraction in (0, 1] at which the surface is crossed.

    Safeguarded Newton iteration on s(frac) = surface(rk4(p0, h frac)), with
    d s/d frac = h a(p) . grad s(p), kept inside the bisection bracket
    [lo, hi] as in Numerical Recipes' rtsafe: a step that leaves the bracket,
    is not finite, or does not halve the step before last is replaced by the
    midpoint.  It starts from the secant guess and retires a lane once s == 0,
    once the bracket collapses, or once the update falls to roundoff
    (`_FRAC_TOL`).  A lane still running after `_MAX_CROSSING_ITERATIONS`
    keeps the evaluated fraction of least |s|.
    """
    m = p0.shape[0]
    lo = np.zeros(m)
    hi = np.ones(m)
    frac = s0 / (s0 - s1)
    frac = np.where(np.isfinite(frac) & (frac > 0.0) & (frac <= 1.0), frac, 0.5)
    dx = np.ones(m)
    dxold = np.ones(m)
    best = np.ones(m)
    sbest = np.abs(s1)
    live = np.arange(m)
    for _ in range(_MAX_CROSSING_ITERATIONS):
        fl = frac[live]
        hl = h[live]
        p = _rk4(f, p0[live], hl * fl)
        s = surf.values(p)
        ds = hl * np.einsum("ij,ij->i", f(p), gsurf.values(p))
        closer = np.abs(s) < sbest[live]
        best[live[closer]] = fl[closer]
        sbest[live[closer]] = np.abs(s[closer])
        left = s0[live] * s > 0.0
        lo[live] = np.where(left, fl, lo[live])
        hi[live] = np.where(left, hi[live], fl)
        lol, hil = lo[live], hi[live]
        newton = fl - s / ds
        bisect = (
            ~np.isfinite(newton)
            | (newton <= lol)
            | (newton >= hil)
            | (np.abs(2.0 * s) > np.abs(dxold[live] * ds))
        )
        mid = 0.5 * (lol + hil)
        new = np.where(bisect, mid, newton)
        dxold[live] = dx[live]
        dx[live] = np.abs(new - fl)
        zero = s == 0.0
        frac[live] = np.where(zero, fl, new)
        collapsed = bisect & ((mid <= lol) | (mid >= hil))
        live = live[~(zero | collapsed | (dx[live] <= _FRAC_TOL))]
        if live.size == 0:
            return frac
    frac[live] = best[live]
    return frac


def solve_characteristics(
    prob: CharacteristicsProblem,
    targets: SampleSet | np.ndarray,
    step: float = 1e-3,
    max_time: float = 50.0,
) -> list[CharacteristicResult]:
    """psi at each target point, with a Richardson error estimate."""
    pts = targets.points if isinstance(targets, SampleSet) else np.asarray(targets, float)
    if pts.ndim == 1:
        pts = pts[None, :]

    hit1, t1, ok1, code1 = _trace(prob, pts, step, max_time)
    hit2, t2, ok2, code2 = _trace(prob, pts, step / 2.0, max_time)
    with np.errstate(all="ignore"):
        d1 = prob.initial.data.values(hit1)
        d2 = prob.initial.data.values(hit2)
    v1 = d1 + prob.source * t1
    v2 = d2 + prob.source * t2
    ok = ok1 & ok2 & np.isfinite(v1) & np.isfinite(v2)
    err = np.abs(v1 - v2) / 15.0
    code = np.where(code1 != _OK, code1, code2)
    code = np.where(ok, _OK, np.where(code != _OK, code, _DATA_FAILED))

    return [
        CharacteristicResult(pts[i].copy(), float(v2[i]), float(err[i]), True)
        if ok[i]
        else CharacteristicResult(pts[i].copy(), float("nan"), float("nan"), False,
                                  _MESSAGES[code[i]])
        for i in range(pts.shape[0])
    ]
