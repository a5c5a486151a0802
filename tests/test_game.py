import math

import numpy as np
import pytest

from netcoord.game import (
    DOMINANT_1,
    _count_thresholds,
    additive_game,
    best_response_array,
    sample_shocks,
)
from netcoord.network import LatticeSpec, _count_dtype
from netcoord.stepfn import StepFn, ru_dominant, ru_objective
from conftest import random_stepfn

TWO_STEP = StepFn(base=0.2, steps=((0.5, 0.8),))


# ------------------------------------------------------------ additive_game


@pytest.mark.parametrize(
    "alpha, lam, support, max_step",
    [
        (0.6, 0.5, (-0.5, 0.5), 0.002),
        (0.6, 0.02, (-0.5, 0.5), 0.005),
        (0.5, 1.0, (-0.5, 0.5), 0.01),  # x0 = 0: the ramp starts at 0
        (0.5, 1.25, (-0.5, 0.5), 0.01),  # sticks out of [0, 1] at both ends
        (0.3, 2.0, (-0.1, 0.7), 0.03),  # sticks out on the left only
        (0.9, 0.7, (-0.2, 0.3), 0.007),  # sticks out on the right only
        (0.55, 0.3, (-1.0, 2.0), 0.004),
        (0.4, 0.05, (0.0, 1.0), 0.3),  # n = 4 cells
        (0.2, 3.0, (-0.5, 0.5), 1.5),  # one cell
        (0.9, 1.8, (-0.5, 0.5), 0.02),  # x0 = 0, sticks out on the right
        (0.75, 1.5, (-2.0, 0.5), 1.5),  # x0 = 0, one cell whose middle lies past 1
    ],
)
def test_additive_staircase_tracks_the_clipped_line(alpha, lam, support, max_step):
    lo, hi = support
    x0, w = alpha - lam * hi, lam * (hi - lo)
    P = additive_game(alpha, lam, max_step, support)

    def affine(x):
        return np.clip((x - x0) / w, 0.0, 1.0)

    assert np.all(np.diff(P.piece_values) <= max_step + 1e-15)  # the float (j + 1/2) / n gaps exceed 1/n by an ulp
    knots = P.piece_positions[1:]
    xs = np.r_[np.linspace(0.0, 1.0, 100_001), knots, np.nextafter(knots, -np.inf)]
    got = P.eval_array(xs)
    assert np.max(np.abs(got - affine(xs))) <= max_step / 2 + 1e-12
    assert np.all(got[xs < x0] == 0.0) and np.all(got[xs >= x0 + w] == 1.0)
    if x0 >= 0.0:  # no DOMINANT_1 atom, also where the ramp starts at 0
        assert P.eval(0.0) == 0.0


def test_additive_small_lambda_inverse_concentrates_at_alpha():
    alpha = 0.63
    P = additive_game(alpha, 0.01, max_step=0.02)
    assert np.all(np.abs(P.inverse_array(np.linspace(0.05, 0.95, 19)) - alpha) <= 0.01 + 1e-12)


def test_additive_uniform_unit_lambda_is_diagonal():
    # alpha = 1/2, lam = 1, uniform on [-1/2, 1/2]: P(x) = x.
    P = additive_game(0.5, 1.0, max_step=0.01)
    xs = np.linspace(0.0, 1.0, 401)
    got = P.eval_array(xs)
    assert np.max(np.abs(got - xs)) <= 0.01
    # Monte Carlo empirical CDF agreement.
    shocks = sample_shocks(P, 100_000, seed=11)
    for x in (0.25, 0.5, 0.75):
        emp = np.mean(shocks <= x)
        assert abs(emp - x) <= 0.01


def test_additive_small_lambda_ru_dominant_near_risk_dominant():
    # alpha = 0.6 > 1/2 makes 0 risk dominant; small lambda forces x* -> 0.
    P = additive_game(0.6, 0.02, max_step=0.005)
    maximizers, strict = ru_dominant(P)
    assert strict
    assert 0.0 <= maximizers[0] <= 0.05
    # Grid-search oracle agreement.
    xs = np.linspace(0.0, 1.0, 20_001)
    vals = np.array([ru_objective(P, float(x)) for x in xs])
    assert abs(xs[np.argmax(vals)] - maximizers[0]) <= 1e-3


def test_additive_rejects_bad_lambda():
    with pytest.raises(ValueError):
        additive_game(0.5, 0.0, max_step=0.01)


BAD_ADDITIVE = {
    "lambda-nan": {"lam": math.nan},
    "alpha-nan": {"alpha": math.nan},
    "alpha-1": {"alpha": 1.0},
    "support-inf": {"support": (-0.5, math.inf)},
    "support-nan": {"support": (math.nan, 0.5)},
    "support-empty": {"support": (0.5, 0.5)},
    "support-overflow": {"support": (-1e308, 1e308)},  # hi - lo overflows to inf
    "lambda-narrow": {"lam": 1e-15},  # cells narrower than an ulp of x0 cannot keep the gaps within max_step
    "max_step-nan": {"max_step": math.nan},
    "max_step-0": {"max_step": 0.0},
    "max_step-1e-9": {"max_step": 1e-9},  # a billion cells: rejected before anything is allocated
}


@pytest.mark.parametrize("case", BAD_ADDITIVE)
def test_additive_rejects_bad_inputs_naming_the_key(case):
    with pytest.raises(ValueError, match=f"^{case.split('-')[0]} must"):
        additive_game(**{"alpha": 0.5, "lam": 0.3, "max_step": 0.01, **BAD_ADDITIVE[case]})


def test_additive_smaller_lambda_crosses_nearer_alpha():
    alpha = 0.6
    d1 = additive_game(alpha, 0.1, max_step=0.002)
    d2 = additive_game(alpha, 0.5, max_step=0.002)
    # Interior diagonal crossing of P (an up-crossing) by scanning.
    def crossing(P):
        xs = np.linspace(0.01, 0.99, 9801)
        h = P.eval_array(xs) - xs
        interior = np.nonzero((h[:-1] <= 0) & (h[1:] > 0))[0]
        return xs[interior[0]] if len(interior) else math.nan

    c1, c2 = crossing(d1), crossing(d2)
    assert abs(c1 - alpha) < abs(c2 - alpha)


def test_additive_provenance_matches_formula_on_grid():
    alpha, lam = 0.55, 0.3
    P = additive_game(alpha, lam, max_step=0.004)
    xs = np.linspace(0.0, 1.0, 1000)
    # P(x) = Prob(alpha - lam e <= x) = 1 - F((alpha - x) / lam) for e ~ U[-1/2, 1/2].
    want = 1.0 - np.clip((alpha - xs) / lam + 0.5, 0.0, 1.0)
    got = P.eval_array(xs)
    assert np.max(np.abs(got - want)) <= 0.004


# ------------------------------------------------------------ sample_shocks


def test_sample_all_dominant_one():
    shocks = sample_shocks(StepFn(1.0), 100, seed=3)
    assert np.all(shocks == 0.0)


def test_sample_all_dominant_zero():
    shocks = sample_shocks(StepFn(0.0), 100, seed=3)
    assert np.all(np.isinf(shocks))


def test_sample_atom_frequencies():
    shocks = sample_shocks(TWO_STEP, 100_000, seed=5)
    t = shocks
    assert abs(np.mean(t == 0.0) - 0.2) <= 0.005
    assert abs(np.mean(t == 0.5) - 0.6) <= 0.005
    assert abs(np.mean(np.isinf(t)) - 0.2) <= 0.005


def test_sample_deterministic_given_seed():
    a = sample_shocks(TWO_STEP, 1000, seed=42, stream=7)
    b = sample_shocks(TWO_STEP, 1000, seed=42, stream=7)
    assert np.array_equal(a, b)
    c = sample_shocks(TWO_STEP, 1000, seed=42, stream=8)
    assert not np.array_equal(a, c)


def test_sample_shocks_inverts_the_philox_uniforms():
    t = sample_shocks(TWO_STEP, 1000, seed=42, stream=7)
    key = np.array([42, 7], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(1000)
    assert isinstance(t, np.ndarray)
    assert np.array_equal(t, TWO_STEP.inverse_array(u))


def test_sample_dkw_bound(rng):
    # KS distance <= 1.36/sqrt(n) holds at the nominal 95% level.
    n = 2000
    bound = 1.36 / math.sqrt(n)
    hits = 0
    for seed in range(100):
        P = random_stepfn(rng)
        shocks = sample_shocks(P, n, seed=seed)
        t = shocks
        xs = np.unique(np.concatenate([P.piece_positions, P.piece_values, [0.0, 1.0]]))
        emp = np.array([np.mean(t <= x) for x in xs])
        ks = np.max(np.abs(emp - P.eval_array(xs)))
        hits += ks <= bound
    assert hits >= 90


# ------------------------------------------------------ best_response_array


def test_tie_rules_at_indifference():
    assert best_response_array(0.5, 0.5, "upper") == 1
    assert best_response_array(0.5, 0.5, "lower") == 0


def test_inf_threshold_always_zero():
    assert best_response_array(math.inf, 1.0, "upper") == 0
    assert best_response_array(math.inf, 1.0, "lower") == 0


def test_dominant_one_marker():
    assert best_response_array(0.0, 0.0, "upper") == 1
    assert best_response_array(0.0, 0.0, "lower") == 1


def test_best_response_monotone_in_beta_antitone_in_t(rng):
    for tie in ("upper", "lower"):
        for _ in range(200):
            t = float(rng.uniform(0, 1))
            b1, b2 = sorted(rng.uniform(0, 1, size=2))
            assert best_response_array(t, b1, tie) <= best_response_array(t, b2, tie)
            t1, t2 = sorted(rng.uniform(0, 1, size=2))
            beta = float(rng.uniform(0, 1))
            assert best_response_array(t1, beta, tie) >= best_response_array(t2, beta, tie)


def test_diagonal_staircase_indifference_near_fixed_point():
    # The agent at u = 1/2 has threshold P^{-1}(1/2), so it is indifferent at beta within 1/n of 1/2.
    n = 100
    pos = np.arange(n) / n
    vals = (np.arange(n) + 0.5) / n
    P = StepFn.from_grid(pos.tolist(), vals.tolist())
    assert abs(0.5 - P.inverse_array([0.5])[0]) <= 1.0 / n


def scalar_best_response(t: float, beta: float, tie: str) -> int:
    """Oracle: upper plays 1 iff t <= beta, lower iff t < beta or t = 0; t = inf plays 0."""
    if math.isinf(t):
        return 0
    if tie == "upper":
        return int(t <= beta)
    return int(t < beta or t == 0.0)


def test_best_response_array_matches_scalar(rng):
    t = np.concatenate([rng.uniform(0, 1, 50), [0.0, math.inf]])
    beta = rng.uniform(0, 1, t.size)
    for tie in ("upper", "lower"):
        got = best_response_array(t, beta, tie)
        assert got.dtype == bool
        want = np.array([scalar_best_response(float(a), float(b), tie) for a, b in zip(t, beta)])
        assert np.array_equal(got, want)



# The lattice degrees for m = 1, 2, 3, 5, 8 in their count types (int8 up
# to m = 5, then int16), and other degrees in int64.
_COUNT_DEGREES = [(g, _count_dtype(LatticeSpec(M=3 * m, m=m))) for m, g in ((1, 4), (2, 12), (3, 28), (5, 80), (8, 196))]
_COUNT_DEGREES += [(g, np.int64) for g in (1, 2, 11, 129, 1999)]


@pytest.mark.parametrize("g, dtype", _COUNT_DEGREES)
def test_count_thresholds_match_searchsorted_over_the_levels(rng, g, dtype):
    # The levels c/g themselves, their nextafter neighbours, negatives,
    # 0 (DOMINANT_1), 1, beyond 1 and +-inf, under both tie rules.
    levels = np.arange(g + 1) / g
    pts = np.concatenate([levels, [-math.inf, -1.0, -1e-300, -0.0, DOMINANT_1, 5e-324, 1.0, 1.5, 1e17, math.inf], rng.uniform(-0.2, 1.2, 200)])
    t = np.concatenate([pts, np.nextafter(pts, -math.inf), np.nextafter(pts, math.inf)])
    upper = _count_thresholds(t, g, "upper", dtype)
    lower = _count_thresholds(t, g, "lower", dtype)
    assert upper.dtype == lower.dtype == dtype
    assert np.array_equal(upper, np.searchsorted(levels, t, side="left"))
    assert np.array_equal(lower, np.where(t == DOMINANT_1, 0, np.searchsorted(levels, t, side="right")))
    for c in range(g + 1):  # a best response to c of g neighbours is c >= k
        beta = np.full(t.size, c / g)
        assert np.array_equal(c >= upper, best_response_array(t, beta, "upper"))
        assert np.array_equal(c >= lower, best_response_array(t, beta, "lower"))
    with pytest.raises(ValueError, match="tie"):
        _count_thresholds(t, g, "middle", dtype)
