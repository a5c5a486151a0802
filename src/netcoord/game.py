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
from typing import Callable

import numpy as np

from .stepfn import INV_SENTINEL, StepFn, step_approximate

__all__ = [
    "DOMINANT_1",
    "additive_game",
    "uniform_shock_cdf",
    "sample_shocks",
    "best_response",
    "best_response_array",
    "canonical_payoff",
]

# Threshold marker for "action 1 dominant": encoded as 0.0.
DOMINANT_1 = 0.0


def uniform_shock_cdf(lo: float = -0.5, hi: float = 0.5) -> Callable[[float], float]:
    """CDF of the uniform distribution on [lo, hi]."""
    width = hi - lo
    if width <= 0:
        raise ValueError("hi must exceed lo")

    def cdf(e: float) -> float:
        return min(1.0, max(0.0, (e - lo) / width))

    return cdf


def additive_game(
    alpha: float,
    lam: float,
    shock_cdf: Callable[[float], float],
    max_step: float,
) -> StepFn:
    """Additive-shock coordination game reduced to its threshold law.

    The threshold of an agent with shock e is beta(e) = alpha - lam * e,
    so P(x) = Prob(alpha - lam e <= x) = 1 - F((alpha - x) / lam) plus the
    mass of the atom at the boundary when F has one.  The returned P is a
    midpoint staircase with value gaps <= max_step.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")

    def P_exact(x: float) -> float:
        # Prob(e >= (alpha - x)/lam); atoms only matter on a null set of x
        # for the staircase grid, so the continuous formula is used.
        return 1.0 - shock_cdf((alpha - x) / lam)

    return step_approximate(P_exact, max_step, "midpoint")


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


def best_response(t: float, beta: float, tie: str) -> int:
    """Best response of an agent with threshold t facing fraction beta.

    Upper rule: 1 iff t <= beta.  Lower rule: 1 iff t < beta, except the
    two dominance markers: t = +inf always plays 0, t = 0 (DOMINANT_1)
    always plays 1.
    """
    if not (0.0 <= beta <= 1.0):
        raise ValueError("beta must lie in [0, 1]")
    if math.isinf(t):
        return 0
    if tie == "upper":
        return 1 if t <= beta else 0
    if tie == "lower":
        return 1 if (t < beta or t == DOMINANT_1) else 0
    raise ValueError("tie must be 'upper' or 'lower'")


def _best_response_mask(t: np.ndarray, beta: np.ndarray, tie: str) -> np.ndarray:
    """Vectorized best responses as a bool array (True plays 1)."""
    t = np.asarray(t, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if tie == "upper":
        return t <= beta
    if tie == "lower":
        return (t < beta) | (t == DOMINANT_1)
    raise ValueError("tie must be 'upper' or 'lower'")


def best_response_array(t: np.ndarray, beta: np.ndarray, tie: str) -> np.ndarray:
    """Vectorized best responses as a float 0/1 array."""
    return _best_response_mask(t, beta, tie).astype(float)


def canonical_payoff(x: float, eps: float, P: StepFn, action: int) -> float:
    """Payoff in the canonical game: x - P^{-1}(eps) for action 1, 0 else.

    The inverse is clamped at the sentinel used by the integral algebra so
    arithmetic stays finite for eps above P(1).
    """
    if action == 0:
        return 0.0
    if action != 1:
        raise ValueError("action must be 0 or 1")
    return x - min(P.inverse(eps), INV_SENTINEL)
