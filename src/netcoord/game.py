"""Canonical representation of a random-utility coordination game.

Only the threshold distribution matters for equilibrium behavior, so a
game is its continuum best response step function P (a ``StepFn``), and
a realized population is its threshold array.  Per-agent best-response
thresholds are drawn by inverse transform: t_i = P^{-1}(u_i) with
u_i ~ U[0, 1).

Threshold conventions:

* t in (0, 1]  -- interior type: action 1 is the (upper) best response
  exactly when the neighborhood fraction reaches t;
* t = 0        -- action 1 dominant (the DOMINANT_1 marker; plays 1
  under both tie rules, mirroring the +inf marker);
* t = +inf     -- action 0 strictly dominant ("extraordinary" agent).

Sampling uses the counter-based Philox generator keyed on
(seed, stream) so parallel replications are bit-reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .stepfn import StepFn

__all__ = [
    "DOMINANT_1",
    "additive_game",
    "sample_shocks",
    "best_response_array",
]

# Threshold marker for "action 1 dominant": encoded as 0.0.
DOMINANT_1 = 0.0


def additive_game(alpha: float, lam: float, max_step: float, support: tuple[float, float] = (-0.5, 0.5)) -> StepFn:
    """Additive-shock coordination game reduced to its threshold law, in closed form.

    An agent with shock e ~ U[lo, hi] has threshold alpha - lam * e, so P is
    the clipped line (x - x0) / w with x0 = alpha - lam * hi and
    w = lam * (hi - lo).  The ramp is cut into n = ceil(1 / max_step) cells
    of width w / n, cell j taking (j + 1/2) / n: value gaps are at most
    max_step, P lies within max_step / 2 of the line, and P is exactly 0
    left of x0 and 1 right of x0 + w (at x0 = 0 the first cell takes 0
    below its middle, so P(0) = 0).  The staircase is cut to [0, 1].
    """
    lo, hi = support
    for name, v in (("alpha", alpha), ("lambda", lam), ("support", lo), ("support", hi), ("max_step", max_step)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    x0, w = alpha - lam * hi, lam * (hi - lo)
    if not (lo < hi and 0.0 < w < math.inf and math.isfinite(x0)):
        raise ValueError(f"support must be a pair lo < hi that gives a finite ramp, got {support}")
    if max_step < 1e-6:  # bounds the staircase at a million cells
        raise ValueError(f"max_step must be at least 1e-6, got {max_step}")
    n = math.ceil(1.0 / max_step)
    knots = x0 + w * (np.arange(n + 1) / n)  # cell j is [knots[j], knots[j + 1]); P = 1 from knots[n]
    if not np.all(np.diff(knots) > 0.0):
        raise ValueError(f"lambda must give cells that do not round together, got a ramp of width {w} in {n} cells")
    values = np.append((np.arange(n) + 0.5) / n, 1.0)
    if x0 == 0.0:
        knots, values = np.insert(knots, 1, w / (2 * n)), np.insert(values, 0, 0.0)
    base = np.append(0.0, values)[np.searchsorted(knots, 0.0, side="right")]
    keep = (knots > 0.0) & (knots <= 1.0)
    return StepFn(base, tuple(zip(knots[keep].tolist(), values[keep].tolist())))


def _philox(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def sample_shocks(P: StepFn, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """Draw n i.i.d. thresholds with law Prob(t <= x) = P(x).

    Deterministic given (seed, stream, n): same inputs give bit-identical
    thresholds.  Agents with u_i above P(1) get t_i = +inf.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return P.inverse_array(_philox(int(seed), int(stream)).random(n))


def best_response_array(t: np.ndarray, beta: np.ndarray, tie: str) -> np.ndarray:
    """Vectorized best responses as a bool array (True plays 1).

    Upper rule: 1 iff t <= beta.  Lower rule: 1 iff t < beta or t = 0
    (DOMINANT_1).  t = +inf plays 0 under both rules.
    """
    t = np.asarray(t, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if tie == "upper":
        return t <= beta
    if tie == "lower":
        return (t < beta) | (t == DOMINANT_1)
    raise ValueError("tie must be 'upper' or 'lower'")


def _count_thresholds(t: np.ndarray, g: int, tie: str, dtype) -> np.ndarray:
    """Per agent, the least count c in 0..g with best_response_array(t, c/g, tie), else g + 1.

    Exact against the float levels c/g that neighbour counts are divided
    into: ceil(t*g) is at most one off the least count, so one comparison
    with c/g in each direction corrects it, and a final clip bounds the
    infinite and out-of-range thresholds.  With these thresholds a best
    response to c of g unit-weight neighbours is just c >= k.
    """
    if tie not in ("upper", "lower"):
        raise ValueError("tie must be 'upper' or 'lower'")
    low, high = (np.less, np.greater_equal) if tie == "upper" else (np.less_equal, np.greater)
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):  # t * g may overflow to +-inf, which the clip bounds
        c = t * g
    np.ceil(c, out=c)
    level = c / g
    c += low(level, t)  # level c is too low to play 1: one more
    np.subtract(c, 1.0, out=level)
    level /= g
    c -= high(level, t)  # level c - 1 already plays 1: one fewer
    np.clip(c, 0, g + 1, out=c)
    if tie == "lower":
        c[t == DOMINANT_1] = 0
    return c.astype(dtype)
