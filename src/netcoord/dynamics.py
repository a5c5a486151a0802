"""Best-response dynamics, equilibria, capacities, and the bound auditor.

Two layers of dynamics are provided:

* ``upper_dynamics`` / ``lower_dynamics``: asynchronous one-flip-per-step
  processes that revise the minimum-index agent whose best response
  disagrees with her action (upward under the upper tie rule, downward
  under the lower one).  They record a full ``DynamicsTrace`` with
  per-step capacities and are the objects audited against the capacity
  inequality.
* ``upper_closure`` / ``lower_closure``: synchronous, vectorized monotone
  iterations with the same limits (order independence), used where only
  the final profile matters.

Capacities:

* capacity_simple F0(a) = sum over ordered pairs (i plays 1, j plays 0)
  of g_ij -- mass of 1-0 links;
* capacity F(p) = 1/2 sum_ij g_ij (p_i - p_j)^2 on expected-action
  profiles p_i = P(beta_i); equals F0 on pure profiles.

``audit_main_bound`` replays an upper trace started from
``initial_profile`` and checks the deterministic per-realization
inequality

    2 sum_i g_i L(p_i^{T+1})
        <= F(p^0) + A + 2 sum_i g_i |beta_i^0 - x*| + 2 d(g) sum_i g_i,

with A the cross term accumulated along the trace.

The dynamics and the audit replay a path through one flip state,
``_FlipState``: a flip of agent i moves beta, p = P(beta) and q = Wp
only on J = N(i).  With dp = p' - p on J and q' = q + W dp,

    Delta F = dp . [(g_J p - q) + (g_J p' - q')]     (exact change of F),
    Delta A = dp . [(g_J beta - q) + (g_J beta' - q')],

restricted to J; one helper, ``_increment``, evaluates both.

A single dynamics run is strictly sequential (asynchronous revisions);
distinct replications run concurrently with no shared mutable state,
sharing the Network and the step function P read-only.  A realization
enters every entry point as its threshold array t (one threshold per
agent, see ``game``).
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .game import _best_response_mask, _philox, best_response_array
from .network import Network, fineness, is_pure, neighborhood_fractions
from .stepfn import StepFn, _ru_objective_at

__all__ = [
    "TraceStep",
    "DynamicsTrace",
    "BoundAudit",
    "is_equilibrium",
    "upper_dynamics",
    "lower_dynamics",
    "upper_closure",
    "lower_closure",
    "initial_profile",
    "extremal_equilibria",
    "enumerate_equilibria",
    "capacity_simple",
    "capacity",
    "audit_main_bound",
    "capacity_decrement_check",
    "trace_to_jsonl",
]

@dataclass(frozen=True)
class TraceStep:
    t: int
    agent: int
    beta_before: float
    capacity_simple: float
    capacity: float


@dataclass
class DynamicsTrace:
    steps: list[TraceStep]
    initial_profile: np.ndarray
    final_profile: np.ndarray
    stop_reason: str  # "fixed_point" | "step_limit"
    direction: str  # "upper" | "lower"

    @property
    def n_steps(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class BoundAudit:
    lhs: float
    capacity0: float
    cross_term_A: float
    beta_deviation: float
    fineness_term: float
    satisfied: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def _thresholds(t, n: int) -> np.ndarray:
    """t as a float array of n thresholds; a NaN threshold is rejected."""
    t = np.asarray(t, dtype=float)
    if t.size != n:
        raise ValueError(f"threshold array size {t.size} does not match n={n}")
    if np.isnan(t).any():
        raise ValueError("thresholds must not be NaN")
    return t


def is_equilibrium(g: Network, t: np.ndarray, a: np.ndarray, tie: str) -> bool:
    """True iff every agent's action equals her best response under tie."""
    a = np.asarray(a, dtype=float)
    if not is_pure(a):
        raise ValueError("is_equilibrium expects a pure profile")
    t = _thresholds(t, g.n)
    beta = neighborhood_fractions(g, a == 1.0)
    return bool(np.array_equal(best_response_array(t, beta, tie), a))


def capacity_simple(g: Network, a: np.ndarray) -> float:
    """F0(a): g-mass of ordered links from action-1 agents to action-0 agents."""
    a = np.asarray(a, dtype=float)
    if not is_pure(a):
        raise ValueError("capacity_simple expects a pure profile")
    return float(a @ (g.weights @ (1.0 - a)))


def capacity(g: Network, p: np.ndarray) -> float:
    """F(p) = 1/2 sum_ij g_ij (p_i - p_j)^2 by definition (a test oracle)."""
    p = np.asarray(p, dtype=float)
    W = g.weights.tocoo()
    d = p[W.row] - p[W.col]
    return 0.5 * float(np.dot(W.data, d * d))


# ------------------------------------------------------------------ dynamics


class _FlipState:
    """Profile a with beta = Wa/g and, given P, p = P(beta) and q = Wp.

    ``flip`` is the one place where a single revision updates these
    arrays; the async dynamics and the bound audit both replay their
    paths through it.
    """

    def __init__(self, g: Network, a: np.ndarray, P: StepFn | None):
        self.W = W = g.weights
        self.deg = g.degrees
        self.P = P
        self.a = a
        self.beta = neighborhood_fractions(g, a)
        self.offsets = np.arange(np.diff(W.indptr).max())
        if P is not None:
            self.p = P.eval_array(self.beta)
            self.q = W @ self.p

    def capacity(self) -> float:
        """F(p) = sum_i g_i p_i^2 - p.Wp, from the q the state holds."""
        return float(np.dot(self.deg, self.p * self.p) - np.dot(self.p, self.q))

    def flip(self, i: int, up: bool):
        """Set a_i to 1 (up) or 0 and update beta, p and q on N(i).

        Both updates gather the CSR rows of J = N(i) and add them in the
        order the matvecs do, so beta and q equal Wa/g and Wp bit for
        bit; W is symmetric, so row j of W is also its column j.
        Returns (J, beta_J before, dp, q_J before); dp and q_J are None
        when P is None or no p_j moves.
        """
        W = self.W
        J = W.indices[W.indptr[i] : W.indptr[i + 1]]
        self.a[i] = 1.0 if up else 0.0
        beta_old = self.beta[J]
        pos = W.indptr[J][:, None] + self.offsets
        real = pos < W.indptr[J + 1][:, None]
        pos = np.where(real, pos, 0)
        cols, w = W.indices[pos], np.where(real, W.data[pos], 0.0)
        self.beta[J] = np.cumsum(w * self.a[cols], axis=1)[:, -1] / self.deg[J]
        if self.P is None:
            return J, beta_old, None, None
        p_new = self.P.eval_array(self.beta[J])
        dp = p_new - self.p[J]
        if not np.any(dp != 0.0):
            return J, beta_old, None, None
        q_old = self.q[J]
        rows, inv = np.unique(cols[real], return_inverse=True)
        self.q[rows] += np.bincount(inv, weights=(w * dp[:, None])[real])
        self.p[J] = p_new
        return J, beta_old, dp, q_old


def _increment(g_J: np.ndarray, x_old, x_new, q_old, q_new, dp: np.ndarray) -> float:
    """dp . [(g x_old - q_old) + (g x_new - q_new)] over J.

    With x = p and q' = q + W dp this is the exact change of F(p); with
    x = beta it is the audit's cross-term increment.
    """
    return float(np.dot(dp, (g_J * x_old - q_old) + (g_J * x_new - q_new)))


def _async_dynamics(
    g: Network,
    t: np.ndarray,
    a0: np.ndarray,
    step_limit: int | None,
    direction: str,
    P: StepFn | None,
) -> DynamicsTrace:
    t = _thresholds(t, g.n)
    a = np.asarray(a0, dtype=float).copy()
    if not is_pure(a):
        raise ValueError("dynamics need a pure starting profile")
    if step_limit is None:
        step_limit = 4 * g.n
    up = direction == "upper"
    target = 1.0 if up else 0.0
    deg = g.degrees
    state = _FlipState(g, a, P)
    F0 = capacity_simple(g, a)
    F = math.nan if P is None else state.capacity()

    def movers(J):
        return (a[J] != target) & (best_response_array(t[J], state.beta[J], direction) == target)

    in_heap = movers(slice(None))
    heap = list(np.flatnonzero(in_heap))
    heapq.heapify(heap)

    steps: list[TraceStep] = []
    stop_reason = "fixed_point"
    step_idx = 0
    while heap:
        if step_idx >= step_limit:
            stop_reason = "step_limit"
            break
        i = int(heapq.heappop(heap))
        beta_before = float(state.beta[i])
        J, _, dp, q_old = state.flip(i, up)
        F0 += (1.0 if up else -1.0) * deg[i] * (1.0 - 2.0 * beta_before)
        if dp is not None:
            p_new = state.p[J]
            F += _increment(deg[J], p_new - dp, p_new, q_old, state.q[J], dp)
        steps.append(TraceStep(step_idx, i, beta_before, F0, F))
        # Newly flippable neighbors; flippability is monotone along the path.
        newly = J[movers(J) & ~in_heap[J]]
        for j in newly:
            heapq.heappush(heap, int(j))
        in_heap[newly] = True
        step_idx += 1
    return DynamicsTrace(steps=steps, initial_profile=np.asarray(a0, dtype=float).copy(), final_profile=a,
                         stop_reason=stop_reason, direction=direction)


def upper_dynamics(
    g: Network,
    t: np.ndarray,
    a0: np.ndarray,
    step_limit: int | None = None,
    P: StepFn | None = None,
) -> DynamicsTrace:
    """Flip the minimum-index agent with action 0 and upper best response 1.

    Terminates in at most n flips; the final profile has no agent who
    wants to move up, and is independent of the revision order.  Pass P
    to record the real capacity F alongside F0 in the trace.
    """
    return _async_dynamics(g, t, a0, step_limit, "upper", P)


def lower_dynamics(
    g: Network,
    t: np.ndarray,
    a0: np.ndarray,
    step_limit: int | None = None,
    P: StepFn | None = None,
) -> DynamicsTrace:
    """Mirror image: flips agents playing 1 whose lower best response is 0."""
    return _async_dynamics(g, t, a0, step_limit, "lower", P)


def _closure(g: Network, t: np.ndarray, a0: np.ndarray, tie: str, up: bool) -> tuple[np.ndarray, np.ndarray]:
    """Monotone synchronous sweeps from the pure profile a0 under the tie rule.

    Each sweep moves every agent whose best response lies above (up) or
    below (not up) its action.  The limit is the same as for the async
    dynamics, since the revision order does not matter for a monotone map.
    The sweeps run on a bool profile, so the network sums exact integer
    counts; beta is bit-identical to the float profile's.  Returns the
    limit a as a float64 array and beta = Wa/g from the final, unchanging
    sweep.  A sweep holds one beta and steps in the best-response mask's
    own buffer, so keeping beta costs no memory over a sweep without it.
    """
    if not is_pure(a0):
        raise ValueError("closures need a pure starting profile")
    step = np.logical_or if up else np.logical_and
    a = np.asarray(a0) == 1.0
    for _ in range(g.n + 2):
        beta = neighborhood_fractions(g, a)
        new = _best_response_mask(t, beta, tie)
        step(a, new, out=new)
        if np.array_equal(new, a):
            return a.astype(float), beta
        a = new
        del beta
    raise AssertionError(f"{tie} closure ({'up' if up else 'down'}) failed to converge in n+2 sweeps")


def upper_closure(g: Network, t: np.ndarray, a0: np.ndarray) -> np.ndarray:
    """Synchronous least up-stable profile above a0 (same limit as async)."""
    return _closure(g, _thresholds(t, g.n), a0, "upper", up=True)[0]


def lower_closure(g: Network, t: np.ndarray, a0: np.ndarray) -> np.ndarray:
    return _closure(g, _thresholds(t, g.n), a0, "lower", up=False)[0]


def initial_profile(P: StepFn, x_star: float, t: np.ndarray, seed: int) -> np.ndarray:
    """Profile of best responses to the constant neighborhood fraction x*.

    Agents strictly below threshold play 1, strictly above play 0, and
    the indifferent atom randomizes with the probability that makes each
    action's expectation exactly x*.
    """
    if not (0.0 <= x_star <= 1.0):
        raise ValueError("x_star must lie in [0, 1]")
    t = _thresholds(t, np.size(t))
    mass_below = 0.0 if x_star == 0.0 else P.eval_left(x_star)
    mass_at = P.eval(x_star) - mass_below
    if mass_below > x_star + 1e-12:
        raise ValueError(
            f"initial profile undefined: P(x*-)={mass_below} exceeds x*={x_star}"
        )
    a = np.zeros(t.size)
    a[t < x_star] = 1.0
    at_atom = t == x_star
    if np.any(at_atom):
        p = 0.0
        if mass_at > 0.0:
            p = min(1.0, max(0.0, (x_star - mass_below) / mass_at))
        draws = _philox(seed, 0xA11CE).random(t.size)
        a[at_atom] = (draws[at_atom] < p).astype(float)
    return a


def extremal_equilibria(g: Network, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest upper equilibrium and smallest lower equilibrium.

    Largest: monotone downward iteration from all-ones under the upper
    tie rule; smallest: upward from all-zeros under the lower rule.
    Both limits are equilibria of their tie rule and bracket every Nash
    equilibrium of the realized game.  Each is checked against the beta
    its closure's final sweep computed on it.
    """
    t = _thresholds(t, g.n)
    limits = []
    for name, a0, tie, up in (("largest", np.ones(g.n), "upper", False), ("smallest", np.zeros(g.n), "lower", True)):
        a, beta = _closure(g, t, a0, tie, up)
        if not np.array_equal(_best_response_mask(t, beta, tie), a):
            raise AssertionError(f"{name} iterate is not an equilibrium under the {tie} rule")
        limits.append(a)
        del a, beta  # before the second closure allocates its own
    largest, smallest = limits
    if np.any(largest < smallest):
        raise AssertionError("extremal equilibria are not ordered")
    return largest, smallest


def enumerate_equilibria(g: Network, t: np.ndarray, tie: str) -> np.ndarray:
    """All pure equilibrium profiles under the tie rule, for n <= 20.

    Returns an array of shape (k, n) in lexicographic order.
    """
    n = g.n
    if n > 20:
        raise ValueError("enumerate_equilibria is guarded at n <= 20")
    t = _thresholds(t, n)
    W = g.weights.toarray()
    deg = g.degrees
    found = []
    chunk = 1 << 14
    bits_of = np.arange(n)[::-1]
    for start in range(0, 1 << n, chunk):
        ints = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        prof = ((ints[:, None] >> bits_of) & 1).astype(float)
        beta = (prof @ W) / deg
        ok = np.all(best_response_array(t, beta, tie) == prof, axis=1)
        if np.any(ok):
            found.append(prof[ok])
    return np.concatenate(found, axis=0) if found else np.empty((0, n))


# --------------------------------------------------------------- bound audit


def audit_main_bound(
    g: Network,
    t: np.ndarray,
    P: StepFn,
    x_star: float,
    trace: DynamicsTrace,
) -> BoundAudit:
    """Replay an upper trace and check the capacity inequality exactly.

    Every term is recomputed from the replayed profile path; the check is
    a deterministic inequality per realization (slack 1e-9).
    """
    if trace.direction != "upper":
        raise ValueError("the bound audits upper dynamics traces")
    _thresholds(t, g.n)
    if trace.initial_profile.size != g.n:
        raise ValueError("trace does not match the network size")
    deg = g.degrees
    state = _FlipState(g, trace.initial_profile.copy(), P)
    beta0 = state.beta.copy()
    capacity0 = state.capacity()
    A = 0.0
    for step in trace.steps:
        i = step.agent
        if not (0 <= i < g.n) or state.a[i] != 0.0:
            raise ValueError("trace replay mismatch: invalid flip")
        J, beta_old, dp, q_old = state.flip(i, up=True)
        # sum_j g_ij (a_j - p_j) = g_i beta_i - (W p)_i at both s = t and
        # s = t+1; the increment is zero when no p_j moves.
        if dp is not None:
            A += _increment(deg[J], beta_old, state.beta[J], q_old, state.q[J], dp)
    p = state.p
    # lhs: expected actions take values in P's range; L(x*, v) = objective
    # at x* minus objective at v, over the unique values in one call.
    vals, inv = np.unique(p, return_inverse=True)
    K = _ru_objective_at(P, np.append(x_star, vals))
    lhs = 2.0 * float(np.dot(deg, (K[0] - K[1:])[inv]))
    beta_dev = 2.0 * float(np.dot(deg, np.abs(beta0 - x_star)))
    fine_term = 2.0 * fineness(g) * g.total_degree
    rhs = capacity0 + A + beta_dev + fine_term
    return BoundAudit(lhs=lhs, capacity0=capacity0, cross_term_A=A, beta_deviation=beta_dev,
                      fineness_term=fine_term, satisfied=bool(lhs <= rhs + 1e-9))


def capacity_decrement_check(g: Network, t: np.ndarray, trace: DynamicsTrace) -> bool:
    """Per-flip capacity decrement for constant thresholds alpha > 1/2.

    True iff at every flip F0 drops by at least (2 alpha - 1) g_i, i.e.
    the exact inequality Delta F0 = g_i (1 - 2 beta_i) <= g_i (1 - 2 alpha).
    """
    t = _thresholds(t, g.n)
    finite = t[np.isfinite(t)]
    if finite.size == 0 or np.any(t != finite[0]):
        raise ValueError("capacity_decrement_check needs constant thresholds")
    alpha = float(finite[0])
    if not (0.5 < alpha <= 1.0):
        raise ValueError("the decrement argument needs alpha > 1/2")
    if trace.direction != "upper":
        raise ValueError("capacity_decrement_check expects an upper trace")
    deg = g.degrees
    for step in trace.steps:
        d_f0 = deg[step.agent] * (1.0 - 2.0 * step.beta_before)
        if d_f0 > deg[step.agent] * (1.0 - 2.0 * alpha) + 1e-9:
            return False
    return True


def trace_to_jsonl(trace: DynamicsTrace) -> str:
    """One JSON record per step: {t, agent, beta_before, F0, F}."""
    lines = []
    for s in trace.steps:
        rec = {
            "t": s.t,
            "agent": s.agent,
            "beta_before": s.beta_before,
            "F0": s.capacity_simple,
            "F": None if math.isnan(s.capacity) else s.capacity,
        }
        lines.append(json.dumps(rec))
    return "\n".join(lines)
