"""Method-of-characteristics solver for linear transport equations.

Solves a . grad(psi) = c for psi by integrating the characteristic ODE
dp/dt = a(p) backwards from each target point until it crosses the initial
surface, then carrying the initial datum forward with the constant source.
Integration is the eighth-order Dormand-Prince pair DOP853 with a step
controller per lane, batched over all targets (Prince & Dormand, J. Comput.
Appl. Math. 7 (1981) 67-75; Hairer, Norsett & Wanner, Solving ODEs I, II.4-5
and II.10).  A lane whose step brackets the initial surface waits at that
step; once no lane is stepping, the crossings of all waiting lanes are
located in one batch by a safeguarded Newton iteration on the step fraction,
inside a bracket on which the surface changes sign.  The embedded
local error estimates, summed along each lane with a roundoff term per step,
plus the distance from the hit point that this bracket allows, give the
error estimate per point.
"""

from __future__ import annotations

import numpy as np

from .domains import Domain, SampleSet
from .fields import Gradient, ScalarField, VectorField, as_points
from .reports import Record


class InitialCurve(Record, frozen=True):
    """Initial data psi = data on the level set surface = 0."""

    surface: ScalarField
    data: ScalarField


class CharacteristicsProblem(Record, frozen=True):
    advecting: VectorField
    source: float
    initial: InitialCurve
    domain: Domain | None = None


_SURFACE_TOL = 1e-13
# local error per step relative to 1 + |p|, componentwise
_STEP_TOL = 1e-14
_FIRST_STEP = 0.5
_MAX_STEPS = 10_000
# the crossing is resolved to this much flow time; at a five-fold root the
# bracket must shrink to it by bisection, about 50 halvings of a unit step
_TIME_TOL = 1e-15
_MAX_CROSSING_ITERATIONS = 110
_EPS = np.finfo(float).eps

# Dormand-Prince 8(5,3) (DOP853; Hairer, Norsett & Wanner, Solving ODEs I,
# II.10): the rows of stages 2..12 and, last, the 8th-order weights, whose end
# point is the first stage of the next step; then the 5th- and 3rd-order error
# weights over stages 1..12, as arrays so that no stage converts them
_ROWS = tuple(map(np.array, (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
)))
_E5 = np.array((
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294,
))
_E3 = np.array((
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082,
))

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
    """One DOP853 step of dp/dt = a(p) with per-row step h.

    k1 = a(p).  Returns the 8th-order end point, a at the end point and the
    local error vector.  Each component of the error is Hairer's combination
    h err5 |err5| / sqrt(err5^2 + 0.01 err3^2) of the 5th- and 3rd-order
    embedded estimates.  It is O(h^8), so it bounds the O(h^9) local error
    of the 8th-order solution once h is small.
    """
    # stage derivatives stacked, so that each stage is one weighted sum
    k = np.empty((len(_ROWS) + 1,) + p.shape)
    k[0] = k1
    flat = k.reshape(k.shape[0], -1)
    h = h[:, None]
    for j, row in enumerate(_ROWS, 1):
        q = p + h * np.einsum("i,ij->j", row, flat[:j]).reshape(p.shape)
        k[j] = a.values(q)
    # the last row is the 8th-order solution, so q is the end point
    e5 = np.einsum("i,ij->j", _E5, flat[:-1]).reshape(p.shape)
    e3 = np.einsum("i,ij->j", _E3, flat[:-1]).reshape(p.shape)
    den = np.sqrt(e5 * e5 + 0.01 * e3 * e3)
    ratio = np.divide(np.abs(e5), den, out=np.zeros_like(den), where=den > 0.0)
    return q, k[-1], h * e5 * ratio


def _trace(prob: CharacteristicsProblem, pts: np.ndarray, max_time: float):
    """Flow every point along its characteristic to the initial surface.

    Each target is integrated both backwards and forwards (the surface may
    lie on either side); the first crossing inside the domain wins.
    Returns hit points, the signed flow time from the hit point to the
    target, the accumulated position error bound, an ok mask and a
    per-point outcome code (`_OK` where ok).
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
    steps = np.zeros(2 * n, dtype=int)
    # a lane whose step crossed keeps its step start in p, s, k, t and its
    # step end here until the one crossing search after stepping
    pending = np.zeros(2 * n, dtype=bool)
    end_p, end_k = np.empty_like(p), np.empty_like(p)
    end_s, end_h = np.empty(2 * n), np.empty(2 * n)

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

        while True:
            # a lane may stop once its twin has already hit; a lane waits while
            # its twin's crossing is pending, so each counts its own steps
            twin_done = done[:n] | done[n:]
            live = np.flatnonzero(~done & (reason == _OK) & (t < max_time)
                                  & (steps < _MAX_STEPS)
                                  & ~np.concatenate([twin_done, twin_done]))
            if live.size == 0:
                ci = np.flatnonzero(pending)
                if ci.size == 0:
                    break
                # every pending crossing in one search; a hit outside the
                # domain frees the twin, which resumes from its kept state
                frac, hp, miss = _crossing(a, surf, gsurf, p[ci], k[ci], s[ci], end_p[ci],
                                           end_k[ci], end_s[ci], sign[ci] * end_h[ci])
                hit_p[ci] = hp
                hit_t[ci] = t[ci] + end_h[ci] * frac
                err[ci] += miss
                pending[ci] = False
                if dom is not None:
                    out = ci[~dom.contains(hp)]
                    reason[out] = _LEFT_DOMAIN
                    done[out] = False
                continue
            steps[live] += 1
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
            factor = np.clip(0.9 * enorm ** -0.125, 0.2, 5.0)
            h[live] = hl * np.where(accept, factor, np.minimum(factor, 1.0))

            ai = live[accept]
            p1, k1, s0, s1, hl = (v[accept] for v in (p1, k1, s0, s1, hl))
            t1 = np.where(hl < max_time - t[ai], t[ai] + hl, max_time)
            # the embedded estimate plus the roundoff of forming the end point
            err[ai] += (np.linalg.norm(e[accept], axis=1)
                        + 2 * _EPS * np.linalg.norm(p1, axis=1))
            crossed = s0 * s1 <= 0.0
            ci = ai[crossed]
            end_p[ci], end_k[ci] = p1[crossed], k1[crossed]
            end_s[ci], end_h[ci] = s1[crossed], hl[crossed]
            pending[ci] = True
            done[ci] = True
            escaped = np.zeros(ai.size, dtype=bool)
            if dom is not None:
                escaped = ~crossed & ~dom.contains(p1)
                reason[ai[escaped]] = _LEFT_DOMAIN
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
              p1: np.ndarray, k1: np.ndarray, s1: np.ndarray, h: np.ndarray):
    """Per-row step fraction in (0, 1] at which the surface is crossed, the
    point there and a bound on that point's distance from the crossing.

    `_trace` calls it once per solve, after stepping, on every lane whose
    step crossed; it calls it again only when a hit outside the domain lets
    the lane's twin go on.

    Safeguarded Newton iteration on s(frac) = surface(dp_step(p0, h frac)),
    with d s/d frac = h a(p) . grad s(p), kept inside the bisection bracket
    [lo, hi] as in Numerical Recipes' rtsafe: a step that leaves the bracket,
    is not finite, or is more than half the previous step is replaced by the
    midpoint.  Newton's ratio is (m - 1)/m at an m-fold root, so there every
    other step bisects and the bracket keeps halving.  It starts from the
    secant guess.  Each call also evaluates two guards `_TIME_TOL` of flow
    time either side of the iterate, and every point inside the bracket
    narrows it, so a simple root is bracketed to 2 `_TIME_TOL` in the call
    that finds it.  A lane retires once its bracket is that narrow, or once
    s == 0 or the Newton update is below `_TIME_TOL`.  Every lane returns the
    evaluated iterate of least |s| (the step's end, frac = 1, included).

    At an m-fold root Newton's last update understates the distance to the
    root about m-fold, so a lane that retired on its update goes on to
    evaluate guards about the returned fraction, 4, 16, ... `_TIME_TOL` away,
    until they narrow its bracket to twice their distance.  The bracket
    always holds a sign change of s, so its end farther from the returned
    fraction, in flow time, times the largest |a| evaluated on the step
    bounds the distance of the returned point from the crossing.
    """
    m = p0.shape[0]
    lo = np.zeros(m)
    hi = np.ones(m)
    guard = _TIME_TOL / np.abs(h)  # in step fractions
    frac = s0 / (s0 - s1)
    frac = np.where(np.isfinite(frac) & (frac > 0.0) & (frac <= 1.0), frac, 0.5)
    dx = np.ones(m)
    best = np.ones(m)
    best_p = p1.copy()
    sbest = np.abs(s1)
    speed = np.maximum(np.linalg.norm(k0, axis=1), np.linalg.norm(k1, axis=1))

    def evaluate(live, rows):
        # rows stacks blocks of one fraction per live lane; the points inside
        # the bracket narrow it, and every |a| evaluated counts in speed
        blocks = rows.size // live.size
        p, kp, _ = _dp_step(a, np.tile(p0[live], (blocks, 1)),
                            np.tile(k0[live], (blocks, 1)), np.tile(h[live], blocks) * rows)
        s = surf.values(p)
        speed[live] = np.maximum(
            speed[live], np.linalg.norm(kp, axis=1).reshape(blocks, -1).max(axis=0))
        f = rows.reshape(blocks, -1)
        side = (np.tile(s0[live], blocks) * s).reshape(blocks, -1)
        # lo keeps the sign of s0, hi the other sign or a zero; a NaN moves neither
        lol, hil = lo[live], hi[live]
        inside = (lol < f) & (f < hil)
        new_lo = np.maximum(lol, np.where(inside & (side > 0.0), f, 0.0).max(axis=0))
        new_hi = np.minimum(hil, np.where(inside & (side <= 0.0), f, 1.0).min(axis=0))
        # where s changes sign more than once among the points, keep the bracket
        keep = new_lo < new_hi
        lo[live] = np.where(keep, new_lo, lol)
        hi[live] = np.where(keep, new_hi, hil)
        return p, kp, s

    live = np.arange(m)
    for _ in range(_MAX_CROSSING_ITERATIONS):
        n = live.size
        fl, hl, gl = frac[live], h[live], guard[live]
        lol, hil = lo[live], hi[live]
        p, kp, s = evaluate(live, np.concatenate(
            [fl, np.maximum(fl - gl, lol), np.minimum(fl + gl, hil)]))
        p, kp, s = p[:n], kp[:n], s[:n]
        ds = hl * np.einsum("ij,ij->i", kp, gsurf.values(p))
        closer = np.abs(s) < sbest[live]
        best[live[closer]] = fl[closer]
        best_p[live[closer]] = p[closer]
        sbest[live[closer]] = np.abs(s[closer])
        step = s / ds
        newton = fl - step
        lol, hil = lo[live], hi[live]
        bisect = (
            ~np.isfinite(newton) | (newton <= lol) | (newton >= hil)
            | (np.abs(step) > 0.5 * dx[live])
        )
        new = np.where(bisect, 0.5 * (lol + hil), newton)
        dx[live] = np.abs(new - fl)
        frac[live] = new
        small = np.minimum(np.abs(step), 0.5 * (hil - lol)) <= gl
        live = live[~((s == 0.0) | small)]
        if live.size == 0:
            break

    # lanes that retired on a small update: widen the guards about the
    # returned fraction until they narrow the bracket to 2 g, by g >= 1/2 at
    # the latest; a lane still open after the cap keeps its wider bracket
    live = np.flatnonzero(hi - lo > 2.0 * guard)
    g = 4.0 * guard
    for _ in range(_MAX_CROSSING_ITERATIONS):
        if live.size == 0:
            break
        fl, gl = best[live], g[live]
        evaluate(live, np.concatenate([np.maximum(fl - gl, lo[live]),
                                       np.minimum(fl + gl, hi[live])]))
        g[live] *= 4.0
        live = live[hi[live] - lo[live] > 2.0 * gl]
    miss = np.maximum(np.abs(best - lo), np.abs(hi - best)) * np.abs(h) * speed
    return best, best_p, miss


def solve_characteristics(
    prob: CharacteristicsProblem,
    targets: SampleSet | np.ndarray,
    max_time: float = 50.0,
) -> np.recarray:
    """psi at each target point, with an error estimate.

    Returns one record per target, with fields `value`, `error_estimate`,
    `ok` and `message`; read whole columns (`out.value`) or rows
    (`out[i].ok`).  A failed target has value and estimate nan and its
    failure message; an ok one has an empty message.

    Each target is traced with adaptive DOP853 steps until its
    characteristic crosses the initial surface within `max_time`.  The error
    estimate is the accumulated position error of the trace (embedded local
    estimates, a roundoff term per step and the distance of the hit point
    from the crossing) times |grad psi| at the hit point, where grad psi =
    grad data + n (c - a . grad data) / (a . n) with n the unit normal of the
    initial surface.  That distance is bounded by a bracket on which the
    surface changes sign, so it holds where the surface has an m-fold root
    on the crossing, whose hit time Newton's last update understates about
    m-fold.  Points already on the surface get psi = data and estimate 0.
    """
    pts = as_points(targets.points if isinstance(targets, SampleSet) else targets)

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
    return np.rec.fromarrays(
        [np.where(ok, value, np.nan), np.where(ok, err, np.nan), ok, np.array(_MESSAGES)[code]],
        names=("value", "error_estimate", "ok", "message"),
    )
