"""Method-of-characteristics solver for linear transport equations.

Solves a . grad(psi) = c for psi by integrating the characteristic ODE
dp/dt = a(p) backwards from each target point until it crosses the initial
surface, then carrying the initial datum forward with the constant source.
Integration is the Dormand-Prince 5(4) pair with a step controller per lane,
batched over all targets (Dormand & Prince, J. Comput. Appl. Math. 6 (1980)
19-26; Hairer, Norsett & Wanner, Solving ODEs I, II.4-5).  The crossing inside
the bracketing step is located by a safeguarded Newton iteration on the step
fraction, run only on the lanes that crossed.  The embedded local error
estimates, summed along each lane with a roundoff term per step, give the
error estimate per point.
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
    value: float
    error_estimate: float
    ok: bool
    message: str = ""


_SURFACE_TOL = 1e-13
# local error per step relative to 1 + |p|, componentwise
_STEP_TOL = 1e-14
_FIRST_STEP = 0.05
_MAX_STEPS = 10_000
# the crossing is resolved to this much flow time; at a five-fold root the
# bracket must shrink to it by bisection, about 50 halvings of a unit step
_TIME_TOL = 1e-15
_MAX_CROSSING_ITERATIONS = 110
_EPS = np.finfo(float).eps

# Dormand-Prince 5(4): stage rows of the tableau (the last is the 5th-order
# solution, whose end point is the first stage of the next step) and the
# difference between the 5th- and 4th-order weights over all seven stages
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

# per-lane outcome codes; `_MESSAGES[code]` is the failure message
_OK, _LEFT_DOMAIN, _EVAL_FAILED, _BUDGET, _DATA_FAILED = range(5)
_MESSAGES = (
    "",
    "characteristic left the domain",
    "evaluation failed along the characteristic",
    "step budget exhausted before reaching the initial surface",
    "initial data evaluation failed",
)


def _dp_step(a: VectorField, p: np.ndarray, k1: np.ndarray, h: np.ndarray):
    """One Dormand-Prince step of dp/dt = a(p) with per-row step h.

    k1 = a(p).  Returns the 5th-order end point, a at the end point and the
    embedded local error vector.
    """
    h = h[:, None]
    k = [k1]
    for row in _A:
        q = p + h * sum(c * kj for c, kj in zip(row, k) if c)
        k.append(a.values(q))
    # the last row is the 5th-order solution, so q is the end point
    return q, k[-1], h * sum(e * kj for e, kj in zip(_E, k) if e)


def _trace(prob: CharacteristicsProblem, pts: np.ndarray, max_time: float):
    """Flow every point along its characteristic to the initial surface.

    Each target is integrated both backwards and forwards (the surface may
    lie on either side); the first crossing wins.  Returns hit points, the
    signed flow time from the hit point to the target, the accumulated
    position error bound, an ok mask and a per-point outcome code (`_OK`
    where ok).
    """
    a = prob.advecting
    surf = prob.initial.surface
    gsurf = Gradient(surf)
    dom = prob.domain
    n = pts.shape[0]

    # lanes 0..n-1 flow backwards (dp/dtau = -a), lanes n..2n-1 forwards
    sign = np.repeat([-1.0, 1.0], n)
    p = np.vstack([pts, pts]).astype(float)
    t = np.zeros(2 * n)
    h = np.full(2 * n, _FIRST_STEP)
    err = np.zeros(2 * n)
    hit_p = p.copy()
    hit_t = np.full(2 * n, np.inf)
    done = np.zeros(2 * n, dtype=bool)
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
        hit_t[on_surface] = 0.0
        done |= on_surface
        reason[~done & ~np.isfinite(s)] = _EVAL_FAILED
        if dom is not None:
            reason[~done & (reason == _OK) & ~dom.contains(p)] = _LEFT_DOMAIN
        k = a.values(p)  # a at each lane's point: the first stage of its next step

        for _ in range(_MAX_STEPS):
            # a lane may stop once its twin has already hit
            twin_done = done[:n] | done[n:]
            live = np.flatnonzero(~done & (reason == _OK) & (t < max_time)
                                  & ~np.concatenate([twin_done, twin_done]))
            if live.size == 0:
                break
            p0, s0 = p[live], s[live]
            hl = np.minimum(h[live], max_time - t[live])
            p1, k1, e = _dp_step(a, p0, k[live], sign[live] * hl)
            s1 = surf.values(p1)
            scale = 1.0 + np.maximum(np.abs(p0), np.abs(p1))
            enorm = np.max(np.abs(e) / scale, axis=1) / _STEP_TOL
            # a non-finite trial step fails at once: its NaN norm must not
            # become a NaN step size
            bad = ~np.isfinite(enorm) | ~np.isfinite(s1)
            reason[live[bad]] = _EVAL_FAILED
            accept = (enorm <= 1.0) & ~bad
            factor = np.clip(0.9 * enorm ** -0.2, 0.2, 5.0)
            h[live] = hl * np.where(accept, factor, np.minimum(factor, 1.0))

            ai = live[accept]
            p0, p1, k1, s0, s1, hl = (v[accept] for v in (p0, p1, k1, s0, s1, hl))
            t1 = np.where(hl < max_time - t[ai], t[ai] + hl, max_time)
            # the embedded estimate plus the roundoff of forming the end point
            err[ai] += (np.linalg.norm(e[accept], axis=1)
                        + 2 * _EPS * np.linalg.norm(p1, axis=1))
            crossed = s0 * s1 <= 0.0
            if crossed.any():
                ci = ai[crossed]
                frac, hp = _crossing(a, surf, gsurf, p0[crossed], k[ci], s0[crossed],
                                     p1[crossed], s1[crossed], sign[ci] * hl[crossed])
                hit_p[ci] = hp
                hit_t[ci] = t[ci] + hl[crossed] * frac
                # the hit time is resolved to _TIME_TOL
                err[ci] += _TIME_TOL * np.linalg.norm(k1[crossed], axis=1)
                done[ci] = True
            escaped = np.zeros(ai.size, dtype=bool)
            if dom is not None:
                escaped = ~dom.contains(np.where(crossed[:, None], hit_p[ai], p1))
                reason[ai[escaped]] = _LEFT_DOMAIN
                done[ai[escaped]] = False
            moved = ~crossed & ~escaped
            mi = ai[moved]
            p[mi], s[mi], k[mi], t[mi] = p1[moved], s1[moved], k1[moved], t1[moved]

    # merge the two directions: earliest crossing wins, the backward one on ties
    back, fwd = np.arange(n), np.arange(n, 2 * n)
    ok = done[back] | done[fwd]
    use_fwd = done[fwd] & ~(done[back] & (hit_t[back] <= hit_t[fwd]))
    out_p = np.where(use_fwd[:, None], hit_p[fwd], hit_p[back])
    # backward: the target lies ahead of the hit point
    out_t = np.where(use_fwd, -hit_t[fwd], np.where(ok, hit_t[back], 0.0))
    out_err = np.where(use_fwd, err[fwd], err[back])
    code = np.where(reason[back] != _OK, reason[back], reason[fwd])
    code = np.where(ok, _OK, np.where(code != _OK, code, _BUDGET))
    return out_p, out_t, out_err, ok, code


def _crossing(a, surf, gsurf, p0: np.ndarray, k0: np.ndarray, s0: np.ndarray,
              p1: np.ndarray, s1: np.ndarray, h: np.ndarray):
    """Per-row step fraction in (0, 1] at which the surface is crossed, and the point.

    Safeguarded Newton iteration on s(frac) = surface(dp_step(p0, h frac)),
    with d s/d frac = h a(p) . grad s(p), kept inside the bisection bracket
    [lo, hi] as in Numerical Recipes' rtsafe: a step that leaves the bracket,
    is not finite, or is more than half the previous step is replaced by the
    midpoint.  Newton's ratio is (m - 1)/m at an m-fold root, so there every
    other step bisects and the bracket keeps halving.  It starts from the
    secant guess and retires a lane once s == 0 or once the Newton update or
    the bracket is below `_TIME_TOL` in flow time.  Every lane returns the
    evaluated fraction of least |s| (the step's end, frac = 1, included).
    """
    m = p0.shape[0]
    lo = np.zeros(m)
    hi = np.ones(m)
    frac = s0 / (s0 - s1)
    frac = np.where(np.isfinite(frac) & (frac > 0.0) & (frac <= 1.0), frac, 0.5)
    dx = np.ones(m)
    best = np.ones(m)
    best_p = p1.copy()
    sbest = np.abs(s1)
    live = np.arange(m)
    for _ in range(_MAX_CROSSING_ITERATIONS):
        fl, hl = frac[live], h[live]
        p, kp, _ = _dp_step(a, p0[live], k0[live], hl * fl)
        s = surf.values(p)
        ds = hl * np.einsum("ij,ij->i", kp, gsurf.values(p))
        closer = np.abs(s) < sbest[live]
        best[live[closer]] = fl[closer]
        best_p[live[closer]] = p[closer]
        sbest[live[closer]] = np.abs(s[closer])
        left = s0[live] * s > 0.0
        lo[live] = lol = np.where(left, fl, lo[live])
        hi[live] = hil = np.where(left, hi[live], fl)
        step = s / ds
        newton = fl - step
        bisect = (
            ~np.isfinite(newton) | (newton <= lol) | (newton >= hil)
            | (np.abs(step) > 0.5 * dx[live])
        )
        new = np.where(bisect, 0.5 * (lol + hil), newton)
        dx[live] = np.abs(new - fl)
        frac[live] = new
        small = np.minimum(np.abs(step), hil - lol) * np.abs(hl) <= _TIME_TOL
        live = live[~((s == 0.0) | small)]
        if live.size == 0:
            break
    return best, best_p


def solve_characteristics(
    prob: CharacteristicsProblem,
    targets: SampleSet | np.ndarray,
    max_time: float = 50.0,
) -> list[CharacteristicResult]:
    """psi at each target point, with an error estimate.

    Each target is traced with adaptive Dormand-Prince 5(4) steps until its
    characteristic crosses the initial surface within `max_time`.  The error
    estimate is the accumulated position error of the trace (embedded local
    estimates, a roundoff term per step and the crossing tolerance) times
    |grad psi| at the hit point, where grad psi = grad data + n (c - a . grad
    data) / (a . n) with n the unit normal of the initial surface.  Where the
    surface has an m-fold root on the crossing, the hit time is resolved only
    to about m times the crossing tolerance, which the estimate does not
    count.  Points already on the surface get psi = data and estimate 0.
    """
    pts = targets.points if isinstance(targets, SampleSet) else np.asarray(targets, float)
    if pts.ndim == 1:
        pts = pts[None, :]

    hit, t, perr, ok, code = _trace(prob, pts, max_time)
    c = prob.source
    with np.errstate(all="ignore"):
        value = prob.initial.data.values(hit) + c * t
        gdata = Gradient(prob.initial.data).values(hit)
        ahit = prob.advecting.values(hit)
        normal = Gradient(prob.initial.surface).values(hit)
        # where grad s vanishes on the surface, any direction the flow crosses will do
        normal = np.where((normal == 0.0).all(axis=1)[:, None], ahit, normal)
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        a_n = np.einsum("ij,ij->i", ahit, normal)
        gpsi = gdata + normal * ((c - np.einsum("ij,ij->i", ahit, gdata)) / a_n)[:, None]
        err = np.where(perr > 0.0, perr * np.linalg.norm(gpsi, axis=1), 0.0)
    ok &= np.isfinite(value)
    code = np.where(ok, _OK, np.where(code != _OK, code, _DATA_FAILED))

    return [
        CharacteristicResult(float(value[i]), float(err[i]), True)
        if ok[i]
        else CharacteristicResult(float("nan"), float("nan"), False, _MESSAGES[code[i]])
        for i in range(pts.shape[0])
    ]
