import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcoord.stepfn import (
    INV_SENTINEL,
    TOL_X,
    _FEW_PIECES,
    FixedPoint,
    StepFn,
    _dominance_integral,
    _inverse_segments,
    fixed_points,
    is_strongly_stable,
    ru_dominant,
    ru_objective,
    step_approximate,
)
from conftest import random_stepfn, step_with_pieces

TWO_STEP = StepFn(base=0.2, steps=((0.5, 0.8),))


# ---------------------------------------------------------------- oracles


def riemann_ru_objective(P: StepFn, x: float, n: int = 1_000_000) -> float:
    """Left-Riemann sum of int_0^x (y - P^{-1}(y)) dy with the inverse
    clamped at INV_SENTINEL, independent of the exact piecewise path."""
    if x == 0.0:
        return 0.0
    ys = np.linspace(0.0, x, n, endpoint=False)
    inv = np.minimum(P.inverse_array(ys), INV_SENTINEL)
    return float(np.sum(ys - inv) * (x / n))


# ------------------------------------------------------------------- eval


def test_eval_constant():
    P = StepFn(0.3)
    assert P.eval(0.7) == 0.3


def test_eval_right_continuity_at_breakpoint():
    assert TWO_STEP.eval(0.5) == 0.8


def test_eval_left_of_breakpoint():
    assert TWO_STEP.eval(0.49) == 0.2


def test_eval_at_one_is_last_value():
    assert TWO_STEP.eval(1.0) == 0.8


def test_eval_domain_error():
    with pytest.raises(ValueError):
        TWO_STEP.eval(1.5)
    with pytest.raises(ValueError):
        TWO_STEP.eval(-0.1)


def test_array_domain_rejects_nan():
    many = StepFn.from_grid(np.linspace(0.0, 0.9, _FEW_PIECES + 1).tolist(), np.linspace(0.1, 0.9, _FEW_PIECES + 1).tolist())
    for P in (TWO_STEP, many):
        for bad in ([math.nan, 0.3], [0.3, math.nan], [math.nan]):
            with pytest.raises(ValueError):
                P.eval_array(np.array(bad))
            with pytest.raises(ValueError):
                P.inverse_array(np.array(bad))


def searchsorted_eval(P: StepFn, x) -> np.ndarray:
    """P(x) by binary search over the knots of the clipped x."""
    return P.piece_values[np.searchsorted(P.piece_positions[1:], np.clip(x, 0.0, 1.0), side="right")]


def searchsorted_inverse(P: StepFn, y) -> np.ndarray:
    """inf{x : P(x) >= y} by binary search over the values of the clipped y."""
    return np.append(P.piece_positions, np.inf)[np.searchsorted(P.piece_values, np.clip(y, 0.0, 1.0), side="left")]


def _edge_inputs(rng, points) -> np.ndarray:
    """The points, each +-1 ulp, the domain's +-1e-9 edges and uniforms, all inside the domain."""
    points = np.concatenate([points, [0.0, -0.0, 1.0, -1e-9, 1.0 + 1e-9], rng.random(50)])
    x = np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)])
    return x[(x >= -1e-9) & (x <= 1.0 + 1e-9)]


@pytest.mark.parametrize("k", [1, 2, 3, _FEW_PIECES, _FEW_PIECES + 1, 40])
def test_array_evaluation_matches_binary_search(rng, k):
    # Both sides of the piece-count switch give the binary search's result bit for bit.
    for _ in range(40):
        P = step_with_pieces(rng, k)
        assert P.piece_values.size == k
        for pts in (P.piece_positions, P.piece_values):
            x = _edge_inputs(rng, pts)
            assert np.array_equal(P.eval_array(x), searchsorted_eval(P, x))
            assert np.array_equal(P.inverse_array(x), searchsorted_inverse(P, x))
            grid = x[: 6 * (x.size // 6)].reshape(2, 3, -1)  # any shape
            assert P.eval_array(grid).shape == grid.shape
            assert np.array_equal(P.inverse_array(grid), searchsorted_inverse(P, grid))


@pytest.mark.parametrize("k", [1, 3, _FEW_PIECES + 1])
def test_inverse_clips_only_values_outside_the_unit_interval(rng, k):
    # Exactly 0 and 1 are not clipped; values up to 1e-10 outside [0, 1]
    # still map as 0 and 1 do, alone or mixed with inside values.
    dust = np.array([-1e-10, -5e-324, -0.0, 1.0 + 1e-10, np.nextafter(1.0, 2.0)])
    for _ in range(20):
        P = step_with_pieces(rng, k)
        inside = np.concatenate([[0.0, 1.0, 0.5], P.piece_values, rng.random(5)])
        assert np.array_equal(P.inverse_array(dust), P.inverse_array([0.0, 0.0, 0.0, 1.0, 1.0]))
        for y in (inside, np.concatenate([inside, dust]), dust[:3], dust[3:]):
            assert np.array_equal(P.inverse_array(y), searchsorted_inverse(P, y))


def test_invalid_construction():
    with pytest.raises(ValueError):
        StepFn(base=0.5, steps=((0.5, 0.4),))  # decreasing value
    with pytest.raises(ValueError):
        StepFn(base=0.1, steps=((0.5, 0.3), (0.5, 0.4)))  # duplicate x
    with pytest.raises(ValueError):
        StepFn(base=0.1, steps=((0.5, 1.3),))  # value outside [0,1]


# ---------------------------------------------------------------- inverse


def test_inverse_at_jump():
    assert TWO_STEP.inverse_array([0.5]).tolist() == [0.5]


def test_inverse_below_base():
    assert TWO_STEP.inverse_array([0.1]).tolist() == [0.0]


def test_inverse_empty_set_is_inf():
    assert TWO_STEP.inverse_array([0.9]).tolist() == [math.inf]


def test_inverse_domain_error():
    for bad in (1.2, -0.1):
        with pytest.raises(ValueError):
            TWO_STEP.inverse_array([0.5, bad])


def test_galois_property(rng):
    for _ in range(50):
        P = random_stepfn(rng)
        x, y = rng.uniform(0.0, 1.0, size=(2, 40))
        inv = P.inverse_array(y)
        fin = np.isfinite(inv)
        agree = (P.eval_array(x) >= y) == (x >= inv)
        assert np.all(agree[fin] | np.isclose(x, inv, rtol=1e-9, atol=0.0)[fin])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=6), st.floats(0, 1), st.floats(0, 1))
def test_monotone_eval_and_inverse(breaks, a, b):
    breaks = sorted(set(breaks))
    vals = np.linspace(0.1, 0.9, len(breaks) + 1)
    P = StepFn.from_grid([0.0] + breaks, vals.tolist())
    lo, hi = min(a, b), max(a, b)
    assert P.eval(lo) <= P.eval(hi)
    ia, ib = P.inverse_array([lo, hi])
    assert ia <= ib


def test_monotone_comparative_statics(rng):
    # P' >= P pointwise implies inverse(P', y) <= inverse(P, y).
    for _ in range(20):
        P = random_stepfn(rng)
        lift = rng.uniform(0.0, 0.3)
        Pp = StepFn.from_grid(P.piece_positions, np.minimum(P.piece_values + lift, 1.0))
        y = rng.uniform(0.0, 1.0, size=20)
        assert np.all(Pp.inverse_array(y) <= P.inverse_array(y))


# ------------------------------------------------------------ ru_objective


def test_ru_objective_zero_at_origin(rng):
    for _ in range(10):
        P = random_stepfn(rng)
        assert ru_objective(P, 0.0) == 0.0


def test_ru_objective_diagonal_staircase_near_zero():
    # Fine midpoint staircase of the identity: objective 0 up to step width.
    n = 200
    pos = np.arange(n) / n
    vals = (np.arange(n) + 0.5) / n
    P = StepFn.from_grid(pos.tolist(), vals.tolist())
    for x in np.linspace(0.0, 1.0, 17):
        assert abs(ru_objective(P, float(x))) <= 1.0 / n


def test_ru_objective_constant_inverse_closed_form():
    # P^{-1} == alpha on (0, 1]: objective is x^2/2 - alpha x.
    alpha = 0.6
    P = StepFn(base=0.0, steps=((alpha, 1.0),))
    for x in np.linspace(0.01, 1.0, 23):
        want = 0.5 * x * x - alpha * x
        assert abs(ru_objective(P, float(x)) - want) <= 1e-12


def test_ru_objective_matches_riemann_oracle_two_step():
    got = ru_objective(TWO_STEP, 0.2)
    want = riemann_ru_objective(TWO_STEP, 0.2)
    assert abs(got - want) <= 1e-6


def test_ru_objective_matches_riemann_oracle_random(rng):
    # 100 random step functions, coarser oracle grid for runtime.
    for _ in range(100):
        P = random_stepfn(rng)
        x = float(rng.uniform(0.0, 1.0))
        got = ru_objective(P, x)
        want = riemann_ru_objective(P, x, n=200_000)
        assert abs(got - want) <= 1e-4


def test_ru_objective_riemann_oracle_tight(rng):
    for _ in range(5):
        P = random_stepfn(rng)
        x = float(rng.uniform(0.0, 1.0))
        assert abs(ru_objective(P, x) - riemann_ru_objective(P, x)) <= 1e-6


# ------------------------------------------------------------- ru_dominant


def test_ru_dominant_constant_inverse_risk_dominant_zero():
    P = StepFn(base=0.0, steps=((0.6, 1.0),))
    maximizers, strict = ru_dominant(P)
    assert maximizers == [0.0]
    assert strict


def test_ru_dominant_flat_objective_not_strict():
    n = 8
    pos = np.arange(n) / n
    vals = (np.arange(n) + 0.5) / n
    P = StepFn.from_grid(pos.tolist(), vals.tolist())
    maximizers, strict = ru_dominant(P)
    assert not strict
    assert len(maximizers) > 1


def test_ru_dominant_matches_grid_search():
    # The symmetric two-plateau game ties exactly at 0.1 and 0.9; the grid
    # search must land on one of the reported maximizers, and every
    # near-optimal grid point must sit next to a reported one.
    P = StepFn(base=0.1, steps=((0.5, 0.9),))
    xs = np.linspace(0.0, 1.0, 100_001)
    vals = np.array([ru_objective(P, float(x)) for x in xs])
    maximizers, strict = ru_dominant(P)
    assert maximizers == [0.1, 0.9]
    assert not strict
    best = vals.max()
    for x in xs[vals >= best - 1e-12]:
        assert min(abs(x - m) for m in maximizers) <= 1e-5 + 1e-9


def test_ru_dominant_strict_asymmetric_grid_search():
    P = StepFn(base=0.1, steps=((0.45, 0.9),))
    xs = np.linspace(0.0, 1.0, 100_001)
    vals = np.array([ru_objective(P, float(x)) for x in xs])
    maximizers, strict = ru_dominant(P)
    assert strict
    assert abs(xs[np.argmax(vals)] - maximizers[0]) <= 1e-5 + 1e-9


# ----------------------------------------------------- dominance integral


def clipped_sum_objective(P: StepFn, x_lo: float, x_hi: float) -> float:
    """int_{x_lo}^{x_hi} (y - P^{-1}(y)) dy as one sum over the segments on
    which P^{-1} is constant, each clipped to [x_lo, x_hi]: the per-point
    formula the prefix-sum kernel replaced."""
    lo = np.concatenate(([0.0], P.piece_values))
    hi = np.concatenate((P.piece_values, [1.0]))
    c = np.concatenate((P.piece_positions, [INV_SENTINEL]))
    a, b = np.clip(lo, x_lo, x_hi), np.clip(hi, x_lo, x_hi)
    m = b > a
    return float(np.sum(0.5 * (b[m] ** 2 - a[m] ** 2) - c[m] * (b[m] - a[m])))


def per_candidate_ru_dominant(P: StepFn) -> tuple[list[float], bool]:
    """ru_dominant with every segment boundary scored by its own clipped sum."""
    cand = np.unique(np.concatenate([[0.0, 1.0], P.piece_values]))
    vals = np.array([clipped_sum_objective(P, 0.0, float(t)) for t in cand])
    merged = []
    for w in cand[vals >= vals.max() - 1e-12]:
        if not merged or w - merged[-1] > TOL_X:
            merged.append(float(w))
    return merged, len(merged) == 1


def _kernel_games(rng, n):
    """Random step functions; every other one has its values rounded to one
    decimal, which repeats values and sometimes reaches P(1) = 1."""
    for trial in range(n):
        P = random_stepfn(rng, max_pieces=int(rng.integers(1, 30)))
        if trial % 2:
            P = StepFn.from_grid(P.piece_positions.tolist(), np.round(P.piece_values, 1).tolist())
        yield P


def test_dominance_kernel_matches_clipped_sum(rng):
    sentinel = 0
    for P in _kernel_games(rng, 300):
        sentinel += P.top < 1.0
        # 0, 1, every breakpoint of P^{-1} and random points.
        xs = np.concatenate([[0.0, 1.0], P.piece_values, rng.uniform(0.0, 1.0, 8)])
        got = _dominance_integral(*_inverse_segments(P), xs)
        want = np.array([clipped_sum_objective(P, 0.0, float(x)) for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-15
        assert all(ru_objective(P, float(x)) == k for x, k in zip(xs, got))
        for x_star, x in rng.choice(xs, size=(6, 2)):
            if x <= x_star:
                want_loss = clipped_sum_objective(P, x, x_star)
            else:
                want_loss = -clipped_sum_objective(P, x_star, x)
            assert abs(ru_objective(P, float(x_star)) - ru_objective(P, float(x)) - want_loss) <= 1e-15
    assert 100 < sentinel < 300


def test_ru_dominant_matches_per_candidate_scoring(rng):
    for P in _kernel_games(rng, 2000):
        assert ru_dominant(P) == per_candidate_ru_dominant(P)


# ------------------------------------------------------------ fixed_points


def test_fixed_points_constant():
    fps = fixed_points(StepFn(0.4))
    assert fps == [FixedPoint(0.4, "exact")]


def test_fixed_points_two_plateaus_and_crossing():
    P = StepFn(base=0.1, steps=((0.5, 0.9),))
    fps = fixed_points(P)
    assert [f.x for f in fps] == [0.1, 0.5, 0.9]
    assert [f.kind for f in fps] == ["exact", "jump-crossing", "exact"]


def test_fixed_points_single_plateau():
    assert fixed_points(StepFn(0.8)) == [FixedPoint(0.8, "exact")]


def test_fixed_points_scan_oracle(rng):
    # Sign-change scan of P(x) - x on a fine grid finds no point that the
    # exact routine misses, and vice versa every exact point verifies.
    for _ in range(50):
        P = random_stepfn(rng)
        fps = fixed_points(P)
        assert fps, "nonempty by Tarski"
        for f in fps:
            if f.kind == "exact":
                assert abs(P.eval(f.x) - f.x) <= 1e-12
            else:
                assert P.eval_left(f.x) < f.x <= P.eval(f.x)
        xs = np.linspace(0.0, 1.0, 100_001)
        h = P.eval_array(xs) - xs
        sign_changes = np.nonzero(np.diff(np.sign(h)))[0]
        for i in sign_changes:
            # Each diagonal crossing on the grid lies near a reported point.
            assert min(abs(xs[i] - f.x) for f in fps) <= 2e-4 + 1e-9


# ------------------------------------------------------- is_strongly_stable


def test_strongly_stable_plateau_point():
    P = StepFn(base=0.1, steps=((0.5, 0.9),))
    assert is_strongly_stable(P, 0.1, gamma=0.0, radius=0.1)


def test_jump_crossing_not_strongly_stable():
    P = StepFn(base=0.1, steps=((0.5, 0.9),))
    for gamma in (0.0, 0.5, 0.99):
        assert not is_strongly_stable(P, 0.5, gamma=gamma, radius=0.05)


def test_strongly_stable_constant():
    P = StepFn(0.3)
    assert is_strongly_stable(P, 0.3, gamma=0.0, radius=0.2)


def test_strongly_stable_rejects_non_fixed_point():
    P = StepFn(0.3)
    with pytest.raises(ValueError):
        is_strongly_stable(P, 0.7, gamma=0.0, radius=0.1)


def test_one_sided_conditions_by_direct_evaluation():
    # Direct evaluation of the two one-sided conditions on a fine grid
    # agrees with the breakpoint-only decision.
    rng = np.random.default_rng(7)
    for _ in range(40):
        P = random_stepfn(rng)
        for f in fixed_points(P):
            for gamma, radius in ((0.0, 0.07), (0.5, 0.15)):
                got = is_strongly_stable(P, f.x, gamma=gamma, radius=radius)
                ys = np.linspace(max(0.0, f.x - radius), min(1.0, f.x + radius), 4001)
                px = P.eval(f.x)
                vals = P.eval_array(ys)
                lo = ys <= f.x
                ok = np.all(vals[lo] >= px + gamma * (ys[lo] - f.x) - 1e-9)
                hi = ys >= f.x
                ok = ok and np.all(vals[hi] <= px + gamma * (ys[hi] - f.x) + 1e-9)
                if got != bool(ok):
                    # The grid can miss a violation happening on a sliver
                    # between grid points only when the exact answer is
                    # False; never the other way around.
                    assert not got
                    continue
                assert got == bool(ok)


# ------------------------------------------------------------ ru_objective


def test_loss_constant_inverse_closed_form():
    # Constant inverse alpha: the loss from 0, -ru_objective, is alpha x - x^2 / 2.
    alpha = 0.6
    P = StepFn(base=0.0, steps=((alpha, 1.0),))
    for x in np.linspace(0.0, 1.0, 21):
        want = alpha * x - 0.5 * x * x
        assert abs(-ru_objective(P, float(x)) - want) <= 1e-12


# -------------------------------------------------------- step_approximate


def test_step_approximate_identity_quarters():
    Q = step_approximate(lambda x: x, max_step=0.25)
    assert np.allclose(Q.piece_positions, [0.0, 0.25, 0.5, 0.75])
    assert np.allclose(Q.piece_values, [0.125, 0.375, 0.625, 0.875])
    xs = np.linspace(0, 1, 1001)
    assert np.all(np.abs(Q.eval_array(xs) - xs) <= 0.125 + 1e-12)


def test_step_approximate_constant():
    Q = step_approximate(lambda x: 0.3, max_step=0.1)
    assert Q.piece_values.tolist() == [0.3]
    assert Q.eval(0.5) == 0.3


def test_step_approximate_logistic_dominance():
    # f + max_step/2 dominates the midpoint staircase, which dominates f - max_step/2.
    f = lambda x: 1.0 / (1.0 + math.exp(-6.0 * (x - 0.4)))
    Q = step_approximate(f, max_step=0.05)
    xs = np.linspace(0.0, 1.0, 100_001)
    fx = 1.0 / (1.0 + np.exp(-6.0 * (xs - 0.4)))
    assert np.all(np.abs(Q.eval_array(xs) - fx) <= 0.025 + 1e-12)
    assert np.any(np.abs(Q.eval_array(xs) - fx) > 0.02)  # the cells are as wide as max_step allows
    assert np.all(np.diff(Q.piece_values) <= 0.05 + 1e-12)


def test_step_approximate_rejects_non_monotone():
    with pytest.raises(ValueError):
        step_approximate(lambda x: 1.0 - x, max_step=0.1)


# ------------------------------------------------------------ serialization


def test_json_round_trip_bit_exact(rng):
    for _ in range(20):
        P = random_stepfn(rng)
        Q = StepFn.from_json_dict(json.loads(json.dumps({"base": P.base, "steps": P.steps})))
        assert Q == P
