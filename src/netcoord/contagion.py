"""Contagion-wave machinery: lens geometry, wave solver, wave builder.

The geometric primitives describe how much of a unit-radius
neighborhood on the plane lies behind a front:

* ``lens_f0(d, r1, r2)``: area of the intersection of two discs (radii
  r1, r2, centers d apart) divided by pi;
* ``front_f_array(x)``: the limit profile f of a straight front at each
  x, the unit-disc segment of height 1 + x over pi.  It is "balanced":
  f(-1) = 0 and f(x) + f(-x) = 1.  The wave evaluator F(x|v) uses it.

``solve_wave`` computes step thresholds 0 = v_0 < v_1 < ... < v_L for
the steps and inverse positions of a step game via the monotone
fixed-point iteration of the capped first-crossing map, so that the
average action experienced at each threshold stays at or below the
inverse of the next step value.  Each sweep keeps a coordinate capped at
an unchanged cap without evaluating F there (the iterates only rise and
F(x|v) falls as v rises), and finds the other crossings by bracketed
Newton steps started at the previous iterate plus the last sweep's step,
each row's bracket held as Python floats between vector evaluations of F
and F'; the first Newton step reads the call that evaluates F at 0 and
at the caps.

``build_delta_wave`` assembles a delta-contagion wave for a game P with
P(1) < 1 and a strictly dominant low outcome: it lifts P by delta,
approximates from above by a fine staircase topping out at 1, shifts,
solves the wave, and verifies the wave inequality exactly, shrinking
delta geometrically until verification passes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .stepfn import StepFn, _dominance_integral, _ru_objective_at, ru_dominant

__all__ = [
    "lens_f0",
    "front_f_array",
    "WaveSolution",
    "solve_wave",
    "check_ru_wave",
    "ContagionWave",
    "build_delta_wave",
    "WaveConstructionError",
]

log = logging.getLogger("netcoord")


# The b* iteration stops when successive iterates differ by less than
# _TOL in max norm, and fails after _MAX_ITER sweeps.
_TOL = 1e-10
_MAX_ITER = 100_000

# build_delta_wave tries delta1 = min(eta, 1 - P(1)) / 2^k, k = 1.._MAX_HALVINGS.
_MAX_HALVINGS = 20

# _staircase_above refuses a staircase of more levels than this before
# allocating it, so build_delta_wave records that halving as failed: the
# wave solver would hold dense (L+1) x (L+1) fronts.
_MAX_LEVELS = 1024


class WaveConstructionError(RuntimeError):
    """Raised when no verified wave is found within the delta search."""


def lens_f0(d: float, r1: float, r2: float) -> float:
    """Disc intersection area over pi for radii r1 <= 1 <= r2 at distance d."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if not (0.0 < r1 <= 1.0):
        raise ValueError("r1 must lie in (0, 1]")
    if r2 < 1.0:
        raise ValueError("r2 must be at least 1")
    if d >= r1 + r2:
        return 0.0
    if d <= r2 - r1:
        return r1 * r1  # small disc contained; equals 1 when r1 = 1
    d1 = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    d2 = d - d1
    a1 = min(1.0, max(-1.0, d1 / r1))
    a2 = min(1.0, max(-1.0, d2 / r2))
    area = (
        r1 * r1 * math.acos(a1)
        - d1 * math.sqrt(max(0.0, r1 * r1 - d1 * d1))
        + r2 * r2 * math.acos(a2)
        - d2 * math.sqrt(max(0.0, r2 * r2 - d2 * d2))
    )
    return area / math.pi


def _front(y: np.ndarray):
    """f(y) and s = sqrt(1 - c^2), c = y clipped to [-1, 1] in place (so c^2 <= 1: no max(0, .))."""
    c = np.minimum(np.maximum(y, -1.0, out=y), 1.0, out=y)
    s = np.sqrt(1.0 - c * c)
    f = np.arccos(-c)
    f += np.multiply(c, s, out=c)
    f /= math.pi
    return f, s


def front_f_array(x: np.ndarray) -> np.ndarray:
    """Balanced front profile at each x: unit-disc segment of height 1 + x over pi."""
    return _front(np.array(x, dtype=float))[0]  # f(-1) = 0 and f(1) = 1 exactly


def _experienced(xs: np.ndarray, v: np.ndarray, steps: np.ndarray, slope: bool = False):
    """F(x|v) = a_0 + sum_k (1 - f(v_k - x)) (a_{k+1} - a_k) at each x of 1-d xs; with ``slope`` also
    F'(x|v) = sum_k f'(v_k - x) (a_{k+1} - a_k), f'(y) = 2 sqrt(1 - y^2) / pi, from one clipped y.
    Rows are summed without BLAS, whose blocking makes a row's bits depend on the other xs."""
    f, s = _front(v[None, :] - xs[:, None])
    da = steps[1:] - steps[:-1]
    F = steps[0] + np.einsum("ij,j->i", np.subtract(1.0, f, out=f), da)
    return (F, np.einsum("ij,j->i", np.multiply(s, 2.0 / math.pi, out=s), da)) if slope else F


@dataclass(frozen=True)
class WaveSolution:
    """Steps a_0 < ... < a_{L+1} and thresholds 0 = v_0 < ... < v_L.

    ``residuals[l]`` is the slack of target_{l} - F(v_l | v) for
    l = 1..L (nonnegative up to 1e-9 on valid solutions); ``sweeps`` is
    the number of b* sweeps the solver ran and ``evaluations`` the number
    of vector evaluations of F it made, the residuals' one included.
    """

    steps: np.ndarray
    thresholds: np.ndarray
    residuals: np.ndarray
    sweeps: int
    evaluations: int

    @property
    def L(self) -> int:
        return int(self.thresholds.size - 1)

    def to_json_dict(self) -> dict:
        return {
            "steps": self.steps.tolist(),
            "thresholds": self.thresholds.tolist(),
            "residuals": self.residuals.tolist(),
            "sweeps": self.sweeps,
            "evaluations": self.evaluations,
        }


def check_ru_wave(steps: np.ndarray, inv_positions: np.ndarray) -> tuple[bool, float, float]:
    """Check int_{a0}^{a} (Q^{-1}(x) - x) dx > 0 for each step value a > a0.

    ``inv_positions[l]`` is Q^{-1}(steps[l]), the inverse's value on
    (a_{l-1}, a_l], so the integral is minus the stepfn dominance
    integral over those segments.  The integrand is linear in x between
    consecutive step values, so the integral is checked at the values and
    midpoints, in the order mid_1, a_1, mid_2, a_2, ...  Returns (ok,
    worst value, worst location); a tie goes to the first point.
    """
    a = np.asarray(steps, dtype=float)
    q = np.asarray(inv_positions, dtype=float)
    if a.ndim != 1 or a.shape != q.shape or np.any(np.diff(a) < 0.0):
        raise ValueError("need nondecreasing step values, each with an inverse position")
    xs = np.column_stack([0.5 * (a[:-1] + a[1:]), a[1:]]).ravel()
    vals = -_dominance_integral(a[:-1], a[1:], q[1:], xs)
    above = xs > a[:1]
    if not above.any():
        return True, math.inf, math.nan
    worst = int(np.argmin(np.where(above, vals, np.inf)))
    return bool(vals[worst] > 0.0), float(vals[worst]), float(xs[worst])


def _b_star(v: np.ndarray, a: np.ndarray, targets: np.ndarray, lo: np.ndarray, x0: np.ndarray):
    """One b* sweep: b*_l(v) = min(b_l, v_{l-1} + 1), b_l = inf{x >= 0 : F(x|v) >= targets_l}.

    F at 0 and at the caps settles most l exactly.  Each other l starts at
    x0_l clipped into [lo_l, cap_l] and keeps its bracket state (l, lo_l,
    hi_l, target, x, last step) as Python floats; an iteration reads F and
    F' at x -/+ 0.45e-12 for all of them from one call (the first from the
    call that evaluates F at 0 and at the caps), then takes each l's Newton
    step inside [lo_l, cap_l] by scalar arithmetic, bisecting when the step
    leaves the bracket, is longer than half the step before or F' is 0
    (rtsafe; Numerical Recipes sec. 9.4), until a point reaching the target
    lies within 1e-12 of one that does not.  Returns (b*, lo, F calls).
    lo_l must miss the target where F(0|v) does; the returned lo keeps
    missing it at every v' >= v, since F(x|v) falls as v rises.  Only a
    capped l gets lo_l = cap_l; the others keep lo_l < cap_l.  So when lo
    is the previous sweep's and v no lower, lo_l == cap_l means l was
    capped at this same cap, F(cap_l|v) < targets_l still holds and b*_l =
    cap_l, without evaluating F there.
    """
    cap = v[:-1] + 1.0
    capped = lo == cap  # capped at this same cap in an earlier sweep (see above)
    rest = np.flatnonzero(~capped)
    m, x = rest.size, np.clip(x0[rest], lo[rest], cap[rest])
    F, dF = _experienced(np.concatenate(([0.0], cap[rest], x - 0.45e-12, x + 0.45e-12)), v, a, slope=True)
    capped[rest] = F[1 : m + 1] < targets[rest]  # b_l > cap, so b*_l = cap exactly
    b = np.where(targets <= F[0], 0.0, cap)
    lo = np.where(capped, cap, lo)
    sel = np.flatnonzero((targets[rest] > F[0]) & ~capped[rest])
    idx = rest[sel]
    state = (idx, lo[idx], cap[idx], targets[idx], x[sel], np.full(idx.size, np.inf))
    rows = list(zip(*(arr.tolist() for arr in state)))
    f, df = (np.concatenate((r[m + 1 :][sel], r[2 * m + 1 :][sel])).tolist() for r in (F, dF))
    for calls in range(1, 201):  # a stall guard: bisection alone closes 1e3 to 1e-12 in 50
        k, still_open = len(rows), []
        for j, (l, lo_l, hi, t, x, step) in enumerate(rows):
            # A pair that straddles the root closes the bracket in one call:
            # hi takes the lower reaching point, lo_l the higher missing one.
            p0, p1, f0, f1, d = x - 0.45e-12, x + 0.45e-12, f[j], f[k + j], df[j] + df[k + j]
            reach = p0 if f0 >= t else p1 if f1 >= t else math.inf
            miss = p1 if f1 < t else p0 if f0 < t else -math.inf
            hi = reach if reach <= hi else hi
            lo_l = miss if miss >= lo_l else lo_l
            newton = x - (f0 + f1 - 2.0 * t) / d if d else math.nan  # F' is 0 where no front is within 1
            if not (lo_l < newton < hi and abs(newton - x) <= 0.5 * step):
                newton = 0.5 * (lo_l + hi)
            step, x = abs(newton - x), newton
            if hi - lo_l <= 1e-12:
                b[l], lo[l] = hi, lo_l
            else:
                still_open.append((l, lo_l, hi, t, x, step))
        rows = still_open
        if not rows:
            return b, lo, calls
        xs = np.array([row[4] for row in rows])
        f, df = (r.tolist() for r in _experienced(np.concatenate((xs - 0.45e-12, xs + 0.45e-12)), v, a, slope=True))
    raise WaveConstructionError("first-crossing search did not close its bracket")


def solve_wave(steps: np.ndarray, inv_positions: np.ndarray) -> WaveSolution:
    """Wave thresholds for a step game via the monotone b* iteration.

    ``steps`` are the finite step values a_0 < ... < a_{L+1} and
    inv_positions[l] = Q^{-1}(steps[l]).  The map b*_l(v) = min(b_l(v),
    v_{l-1} + 1), with b_l the first location where F(x|v) reaches
    Q^{-1}(a_{l+1}), is iterated from the zero vector until successive
    iterates differ by less than 1e-10 in max norm.  Each sweep brackets
    b_l to 1e-12 by safeguarded Newton steps that start where the last
    step points, v^(n) + (v^(n) - v^(n-1)) (see ``_b_star``); the first
    sweep starts at 0.
    """
    a = np.asarray(steps, dtype=float)
    q = np.asarray(inv_positions, dtype=float)
    if a.ndim != 1 or a.shape != q.shape or not np.all(np.isfinite(a) & np.isfinite(q)):
        raise ValueError("need finite step values, each with a finite inverse position")
    if np.any(np.diff(a) <= 0.0):
        raise ValueError("step values must be strictly increasing")
    ok, worst, worst_at = check_ru_wave(a, q)
    if not ok:
        raise ValueError(
            f"RU wave condition violated: integral {worst:.3e} at a={worst_at:.6f}"
        )
    L = a.size - 2
    if L < 1:
        raise ValueError("need at least two steps above the base")
    targets = q[2:].copy()  # Q^{-1}(a_{l+1}) for l = 1..L
    v, step = np.zeros(L + 1), np.zeros(L + 1)
    lo = np.zeros(L)
    evaluations = 1  # the residuals' call
    for sweeps in range(1, _MAX_ITER + 1):
        b, lo, calls = _b_star(v, a, targets, lo, (v + step)[1:])
        evaluations += calls
        # The exact map is monotone; clip away root-finding jitter so the
        # iterate sequence stays nondecreasing.
        new = np.maximum(np.concatenate(([0.0], b)), v)
        step, v = new - v, new
        if step.max() < _TOL:  # new >= v
            break
    else:
        raise WaveConstructionError("wave iteration did not converge")
    residuals = targets - _experienced(v[1:], v, a)
    return WaveSolution(steps=a.copy(), thresholds=v, residuals=residuals, sweeps=sweeps, evaluations=evaluations)


@dataclass(frozen=True)
class ContagionWave:
    """A delta-contagion wave: base action, thresholds, and tail 1.

    sigma(x) = a_star for x < 0, the l-th step value on [v_{l-1}, v_l),
    and 1 at and beyond v_L; delta is the verified contagion margin.
    """

    wave: WaveSolution
    delta: float
    a_star: float

    @property
    def L(self) -> int:
        return self.wave.L

    def sigma_array(self, x: np.ndarray) -> np.ndarray:
        x, a = np.asarray(x, dtype=float), self.wave.steps
        return np.where(x < 0.0, a[0], a[np.searchsorted(self.wave.thresholds, x, side="right")])

    def experienced_fraction(self, x: np.ndarray) -> np.ndarray:
        """a* + sum over jumps (1 - f(jump_location - x)) * jump size."""
        x = np.asarray(x, dtype=float)
        return _experienced(x.ravel(), self.wave.thresholds, self.wave.steps).reshape(x.shape)

    def verify_grid(self, P: StepFn) -> tuple[bool, float, float]:
        """Check sigma(x - delta) >= delta + P(clip(delta + F(x))) for every x.

        Exact, without sampling: sigma(x - delta) takes the value a_l on
        the interval ending at r_l = v_l + delta (l = 0..L) and a_{L+1}
        on [v_L + delta, inf), while the right side is nondecreasing in x
        because F(.|v) and P are.  Its supremum on each interval is the
        left limit at r_l, which P's right value there bounds from above;
        on the last interval it is at most delta + P(1).  So L + 1
        evaluations of F decide the inequality (soundly: a P jump exactly
        at delta + F(r_l) is counted against the wave).  Returns (ok, min
        slack, worst x); the tail check reports x = v_L + delta + 1.
        """
        d = self.delta
        v = self.wave.thresholds
        a = self.wave.steps
        r = v + d
        rhs = d + P.eval_array(np.clip(d + self.experienced_fraction(r), 0.0, 1.0))
        slack = np.append(a[:-1] - rhs, a[-1] - d - P.top)
        xs = np.append(r, v[-1] + d + 1.0)
        worst = int(np.argmin(slack))
        return bool(slack[worst] >= -1e-12), float(slack[worst]), float(xs[worst])

    def to_json_dict(self) -> dict:
        doc = self.wave.to_json_dict()
        doc.update({"delta": self.delta, "a_star": self.a_star})
        return doc


def _staircase_above(P: StepFn, lift: float) -> StepFn:
    """Staircase Q >= P + lift with value gaps <= lift/4 and top exactly 1.

    Levels descend from 1 in steps of lift/4 down to the base level
    P(0) + lift; level j starts where P + lift first exceeds level j-1.
    Levels that P + lift never reaches are squeezed in just left of
    x = 1 (or of the next jump), in strictly increasing position order;
    nudging a jump left only raises Q, preserving the domination.
    More than _MAX_LEVELS levels raise WaveConstructionError.
    """
    gap = lift / 4.0
    base = P._vals[0] + lift
    if base > 1.0:
        raise WaveConstructionError("lift exceeds the headroom above P(0)")
    if 1.0 - base > _MAX_LEVELS * gap:
        raise WaveConstructionError(f"staircase needs more than {_MAX_LEVELS} levels")
    # d_k = d_{k-1} - gap from d_0 = 1, rounded step by step; the levels
    # stop before the first d_k at or below the base (the 3 spare steps
    # cover the rounding), and the base itself closes them.
    down = np.subtract.accumulate(np.append(1.0, np.full(int((1.0 - base) / gap) + 3, gap)))
    stop = int(np.argmax(down[1:] <= base + 1e-15))
    levels = np.append(down[: stop + 1], base)[::-1]
    n_levels = levels.size
    idx = np.searchsorted(P._vals, levels[:-1] - lift, side="right")
    raw = np.maximum.accumulate(np.append(0.0, np.append(P._pos, 1.0)[idx]))
    spread = min(1e-6, gap * 1e-3)
    pos = raw.copy()
    for j in range(n_levels - 2, 0, -1):
        pos[j] = min(pos[j], pos[j + 1] - spread)
    if n_levels > 1 and pos[1] <= 0.0:
        raise WaveConstructionError("staircase squeeze ran out of room near 0")
    # Safety: Q >= P + lift at every breakpoint of either function.
    Q = StepFn.from_grid(pos.tolist(), levels.tolist())
    probe = np.unique(np.concatenate([P._pos, pos, [1.0]]))
    if np.min(Q.eval_array(probe) - P.eval_array(probe) - lift) < -1e-12:
        raise AssertionError("staircase failed to dominate P + lift")
    return Q


def _ru_wave_margin(Q: StepFn, a_star: float) -> float:
    """Uniform strictness margin of the RU-wave integral above a_star.

    The minimum of int_{a_star}^{c} (Q^{-1}(y) - y) dy / (c - a_star) over
    the Q values c above a_star, 1, and the midpoints between them.
    """
    ups = np.unique(np.append(Q.piece_values[Q.piece_values > a_star], 1.0))
    cands = np.append(0.5 * (np.append(a_star, ups[:-1]) + ups), ups)
    cands = cands[cands > a_star]
    K = _ru_objective_at(Q, np.append(a_star, cands))
    return float(np.min((K[0] - K[1:]) / (cands - a_star)))


def build_delta_wave(P: StepFn, eta: float) -> ContagionWave:
    """Construct and verify a delta-contagion wave for P.

    Requires P(1) < 1 and a strictly dominant maximizer x* of the
    dominance integral.  The returned wave has base action a* <= x* + eta
    and passes the exact verification of the wave inequality.  delta is
    found by geometric search over {eta / 2^k}; if no k <= _MAX_HALVINGS
    succeeds, the WaveConstructionError gives each halving's reason.  Each
    halving's outcome is also logged at INFO on the ``netcoord`` logger.
    """
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    if P.top >= 1.0:
        raise ValueError("build_delta_wave requires P(1) < 1")
    maximizers, strict = ru_dominant(P)
    if not strict:
        raise ValueError("build_delta_wave requires a strictly dominant maximizer")
    x_star = maximizers[0]
    reasons: list[tuple[float, str]] = []
    for k in range(1, _MAX_HALVINGS + 1):
        delta1 = min(eta, 1.0 - P.top) / (2.0**k)
        try:
            Q = _staircase_above(P, delta1)
            q_max, _ = ru_dominant(Q)
            a_star = q_max[-1]
            if a_star > x_star + eta:
                raise WaveConstructionError(f"a*={a_star} drifted above x*+eta")
            margin = _ru_wave_margin(Q, a_star)
            if margin <= 0.0:
                raise WaveConstructionError("RU-wave margin nonpositive")
            delta2 = min(delta1 / 2.0, margin / 2.0)
            # Wave steps: base a_star plus the Q values above it; targets
            # are the shifted inverse positions of Q_{delta2}.
            vals = Q.piece_values
            keep = vals > a_star
            steps = np.concatenate([[a_star], vals[keep]])
            inv = np.concatenate([[0.0], Q.piece_positions[keep]]) - delta2
            inv[0] = 0.0
            sol = solve_wave(steps=steps, inv_positions=inv)
            if np.any(np.diff(sol.thresholds) <= 0):
                raise WaveConstructionError("wave thresholds not strictly increasing")
            delta = min(delta2, float(np.min(np.diff(sol.thresholds))))
            wave = ContagionWave(wave=sol, delta=delta, a_star=a_star)
            ok, slack, worst_x = wave.verify_grid(P)
            if not ok:
                raise WaveConstructionError(f"verification failed at x={worst_x:.6f} (slack {slack:.3e})")
            msg = "wave halving k=%d delta1=%.6g: verified after %d b* sweeps and %d F evaluations"
            log.info(msg, k, delta1, sol.sweeps, sol.evaluations)
            return wave
        except (ValueError, WaveConstructionError) as e:
            log.info("wave halving k=%d delta1=%.6g: %s", k, delta1, e)
            reasons.append((delta1, str(e)))
    tried = "; ".join(f"delta1={d:.6g}: {why}" for d, why in reasons)
    raise WaveConstructionError(f"no verified wave for eta={eta}: {tried}")
