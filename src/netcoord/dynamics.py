"""Best-response dynamics, equilibria, capacities, and the bound auditor.

Two layers of dynamics are provided:

* ``upper_dynamics`` / ``lower_dynamics``: asynchronous one-flip-per-step
  processes that revise the minimum-index agent whose best response
  disagrees with her action (upward under the upper tie rule, downward
  under the lower one).  Their ``DynamicsTrace`` is the flip order: the
  agents in the order they flipped and each one's beta just before its
  flip, which is all that the capacity checks below replay.
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
``_FlipState``: a flip of agent i moves beta (and, in the audit, p =
P(beta) and q = Wp) only on J = N(i).  With dp = p' - p on J and
q' = q + W dp, the audit's cross term grows by

    Delta A = dp . [(g_J beta - q) + (g_J beta' - q')],

restricted to J.

A single dynamics run is strictly sequential (asynchronous revisions);
distinct replications run concurrently with no shared mutable state,
sharing the Network and the step function P read-only.  A realization
enters every entry point as its threshold array t (one threshold per
agent, see ``game``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .game import _count_thresholds, _philox, best_response_array
from .network import (LatticeSpec, Network, _count_dtype, _matvec, _rows, _torus_sums, fineness, is_pure,
                      neighborhood_fractions)
from .stepfn import StepFn, _ru_objective_at

__all__ = [
    "DynamicsTrace",
    "BoundAudit",
    "upper_dynamics",
    "lower_dynamics",
    "upper_closure",
    "lower_closure",
    "initial_profile",
    "largest_equilibrium",
    "smallest_equilibrium",
    "extremal_equilibria",
    "enumerate_equilibria",
    "capacity_simple",
    "capacity",
    "audit_main_bound",
    "capacity_decrement_check",
]

@dataclass
class DynamicsTrace:
    """Flip order of an async run: agents[k] flipped at step k, when its beta was beta_before[k]."""

    agents: np.ndarray  # int64
    beta_before: np.ndarray
    initial_profile: np.ndarray
    final_profile: np.ndarray
    direction: str  # "upper" | "lower"

    @property
    def n_steps(self) -> int:
        return self.agents.size


@dataclass(frozen=True)
class BoundAudit:
    lhs: float
    capacity0: float
    cross_term_A: float
    beta_deviation: float
    fineness_term: float
    satisfied: bool


def _thresholds(t, n: int) -> np.ndarray:
    """t as a float array of n thresholds; a NaN threshold is rejected."""
    t = np.asarray(t, dtype=float)
    if t.size != n:
        raise ValueError(f"threshold array size {t.size} does not match n={n}")
    if np.isnan(t).any():
        raise ValueError("thresholds must not be NaN")
    return t


def capacity_simple(g: Network, a: np.ndarray) -> float:
    """F0(a): g-mass of ordered links from action-1 agents to action-0 agents."""
    a = np.asarray(a, dtype=float)
    if not is_pure(a):
        raise ValueError("capacity_simple expects a pure profile")
    return float(a @ _matvec(g, 1.0 - a))


def capacity(g: Network, p: np.ndarray) -> float:
    """F(p) = 1/2 sum_ij g_ij (p_i - p_j)^2 by definition (a test oracle)."""
    p = np.asarray(p, dtype=float)
    cols, w = _rows(g, np.arange(g.n))
    d = p[:, None] - p[cols]
    return 0.5 * float(np.sum(w * d * d))


# ------------------------------------------------------------------ dynamics


class _FlipState:
    """Profile a with beta = Wa/g and, given P, p = P(beta) and q = Wp.

    ``flip`` is the one place where a single revision updates these
    arrays; the async dynamics (without P) and the bound audit (with P)
    both replay their paths through it.  It reads the network's rows and
    its neighbour-sum operator (``_rows``, ``_matvec``), so a structured
    network builds no CSR.
    """

    def __init__(self, g: Network, a: np.ndarray, P: StepFn | None):
        self.g = g
        self.deg = g.degrees
        self.P = P
        self.a = a
        self.beta = neighborhood_fractions(g, a)
        if P is not None:
            self.p = P.eval_array(self.beta)
            self.q = _matvec(g, self.p)

    def capacity(self) -> float:
        """F(p) = sum_i g_i p_i^2 - p.Wp, from the q the state holds."""
        return float(np.dot(self.deg, self.p * self.p) - np.dot(self.p, self.q))

    def flip(self, i: int, up: bool):
        """Set a_i to 1 (up) or 0 and update beta, p and q on N(i).

        J = N(i) in ``_rows`` order.  beta_J adds J's weighted rows in
        that order: a CSR row ascends, as the CSR matvec adds it, and a
        structured row adds 0/1 terms exactly, so beta equals Wa/g bit for
        bit.  q moves by W[J].T dp (W is symmetric), so it drifts from Wp
        by rounding: 3.6e-15 after 866-989 flips of the three-point game on
        the (120,2)-lattice.
        Returns (J, beta_J before, dp, q_J before); dp and q_J are None
        when P is None or no p_j moves.
        """
        J = _rows(self.g, i)[0]
        self.a[i] = 1.0 if up else 0.0
        beta_old = self.beta[J]
        cols, w = _rows(self.g, J)
        self.beta[J] = np.add.accumulate(w * self.a[cols], axis=1)[:, -1] / self.deg[J]
        if self.P is None:
            return J, beta_old, None, None
        p_new = self.P.eval_array(self.beta[J])
        dp = p_new - self.p[J]
        if not np.any(dp != 0.0):
            return J, beta_old, None, None
        q_old = self.q[J]
        rows = np.unique(cols)  # searchsorted finds its inverse faster than return_inverse
        self.q[rows] += np.bincount(np.searchsorted(rows, cols.ravel()), weights=(w * dp[:, None]).ravel())
        self.p[J] = p_new
        return J, beta_old, dp, q_old


def _async_dynamics(g: Network, t: np.ndarray, a0: np.ndarray, direction: str) -> DynamicsTrace:
    t = _thresholds(t, g.n)
    a = np.asarray(a0, dtype=float).copy()
    if not is_pure(a):
        raise ValueError("dynamics need a pure starting profile")
    up = direction == "upper"
    target = 1.0 if up else 0.0
    state = _FlipState(g, a, None)

    def movers(J):
        return (a[J] != target) & (best_response_array(t[J], state.beta[J], direction) == target)

    in_heap = movers(slice(None))
    heap = list(np.flatnonzero(in_heap))
    heapq.heapify(heap)

    agents, beta_before = [], []
    while heap:
        i = int(heapq.heappop(heap))
        agents.append(i)
        beta_before.append(state.beta[i])
        J = state.flip(i, up)[0]
        # Newly flippable neighbors; flippability is monotone along the path.
        newly = J[movers(J) & ~in_heap[J]]
        for j in newly:
            heapq.heappush(heap, int(j))
        in_heap[newly] = True
    return DynamicsTrace(np.array(agents, dtype=np.int64), np.array(beta_before, dtype=float),
                         initial_profile=np.asarray(a0, dtype=float).copy(), final_profile=a, direction=direction)


def upper_dynamics(g: Network, t: np.ndarray, a0: np.ndarray) -> DynamicsTrace:
    """Flip the minimum-index agent with action 0 and upper best response 1.

    Each agent flips at most once, so a run ends within n flips, when no
    agent wants to move up; the final profile is independent of the
    revision order.
    """
    return _async_dynamics(g, t, a0, "upper")


def lower_dynamics(g: Network, t: np.ndarray, a0: np.ndarray) -> DynamicsTrace:
    """Mirror image: flips agents playing 1 whose lower best response is 0."""
    return _async_dynamics(g, t, a0, "lower")


def _closure(g: Network, t: np.ndarray, a0: np.ndarray, tie: str, up: bool) -> tuple[np.ndarray, np.ndarray]:
    """Monotone synchronous sweeps from the pure profile a0 under the tie rule.

    Each sweep moves every agent whose best response lies above (up) or
    below (not up) its action.  The limit is the same as for the async
    dynamics, since the revision order does not matter for a monotone map.
    The sweeps run on a bool profile.  On a lattice every neighbour has
    weight 1 and every agent the same degree g, so a sweep compares each
    agent's integer ball count with its count threshold
    (``_count_thresholds``, computed once), which decides exactly as t
    against count/g would.  k costs a few sweeps' savings, which lattice
    closures repay (6 sweeps for the lattice-analyze game on (300,3)).
    Blocks and CSR networks compare beta with t: a complete graph's
    closures take one or two sweeps, too few to repay k.  Returns the
    limit a as a float64 array and beta = Wa/g from the final, unchanging
    sweep (on a lattice formed once from its counts, bit-identical to
    ``neighborhood_fractions``).  A sweep steps in the best-response
    mask's own buffer.
    """
    if not is_pure(a0):
        raise ValueError("closures need a pure starting profile")
    step = np.logical_or if up else np.logical_and
    a = np.asarray(a0) == 1.0
    spec = g.structure if isinstance(g.structure, LatticeSpec) else None
    if spec is not None:
        k = _count_thresholds(t, int(g.degrees[0]), tie, _count_dtype(spec))
    for _ in range(g.n + 2):
        if spec is not None:
            x = _torus_sums(spec, a)  # counts
            new = x >= k
        else:
            x = neighborhood_fractions(g, a)  # beta
            new = best_response_array(t, x, tie)
        step(a, new, out=new)
        if np.array_equal(new, a):
            return a.astype(float), x if spec is None else x / g.degrees
        a = new
        del x  # before the next sweep allocates its own
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


def _checked_closure(g: Network, t: np.ndarray, a0: np.ndarray, tie: str, up: bool, name: str):
    """The closure's (a, beta), with a checked as an equilibrium against that beta."""
    a, beta = _closure(g, t, a0, tie, up)
    if not np.array_equal(best_response_array(t, beta, tie), a):
        raise AssertionError(f"{name} iterate is not an equilibrium under the {tie} rule")
    return a, beta


def largest_equilibrium(g: Network, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest upper equilibrium a and its beta = Wa/g.

    Monotone downward iteration from all-ones under the upper tie rule;
    a is checked against the beta its closure's final sweep computed,
    which is returned with it.
    """
    return _checked_closure(g, _thresholds(t, g.n), np.ones(g.n), "upper", False, "largest")


def smallest_equilibrium(g: Network, t: np.ndarray, largest: np.ndarray) -> np.ndarray:
    """Smallest lower equilibrium (upward from all-zeros), checked as the largest is and to lie below ``largest``."""
    smallest = _checked_closure(g, _thresholds(t, g.n), np.zeros(g.n), "lower", True, "smallest")[0]
    if np.any(largest < smallest):
        raise AssertionError("extremal equilibria are not ordered")
    return smallest


def extremal_equilibria(g: Network, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest upper and smallest lower equilibrium; they bracket every Nash equilibrium of the realized game."""
    largest = largest_equilibrium(g, t)[0]  # its beta is freed before the second closure allocates its own
    return largest, smallest_equilibrium(g, t, largest)


def enumerate_equilibria(g: Network, t: np.ndarray, tie: str) -> np.ndarray:
    """All pure equilibrium profiles under the tie rule, for n <= 20.

    Returns an array of shape (k, n) in lexicographic order.
    """
    n = g.n
    if n > 20:
        raise ValueError("enumerate_equilibria is guarded at n <= 20")
    t = _thresholds(t, n)
    cols, w = _rows(g, np.arange(n))
    W = np.zeros((n, n))
    np.add.at(W, (np.arange(n)[:, None], cols), w)  # a CSR row's padding adds zero weights
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
    for i in trace.agents.tolist():
        if not (0 <= i < g.n) or state.a[i] != 0.0:
            raise ValueError("trace replay mismatch: invalid flip")
        J, beta_old, dp, q_old = state.flip(i, up=True)
        # sum_j g_ij (a_j - p_j) = g_i beta_i - (W p)_i at both s = t and
        # s = t+1; the increment is zero when no p_j moves.
        if dp is not None:
            g_J = deg[J]
            A += float(np.dot(dp, (g_J * beta_old - q_old) + (g_J * state.beta[J] - state.q[J])))
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
    d = g.degrees[trace.agents]
    return bool(np.all(d * (1.0 - 2.0 * trace.beta_before) <= d * (1.0 - 2.0 * alpha) + 1e-9))

