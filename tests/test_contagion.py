import math
import time
import warnings

import numpy as np
import pytest

import netcoord.contagion as contagion
from netcoord.contagion import (
    ContagionWave,
    WaveConstructionError,
    WaveSolution,
    build_delta_wave,
    check_ru_wave,
    front_f_array,
    lens_f0,
    solve_wave,
)
from netcoord.stepfn import StepFn, ru_dominant


# ----------------------------------------------------------------- oracles


def lens_mc(d, r1, r2, n=1_000_000, seed=0):
    """Rejection sampling on the radius-r1 disc."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-r1, r1, size=(n, 2))
    inside1 = (pts**2).sum(axis=1) <= r1 * r1
    pts = pts[inside1]
    inside2 = ((pts[:, 0] - d) ** 2 + pts[:, 1] ** 2) <= r2 * r2
    # disc area = pi r1^2; intersection/pi = fraction * r1^2.
    return inside2.mean() * r1 * r1


def wave_value(x, v, steps):
    """Scalar F(x|v) = a_0 + sum_k (1 - f(v_k - x)) (a_{k+1} - a_k), summed term by term."""
    f = front_f_array(v - x)
    total = float(steps[0])
    for k in range(v.size):
        total += (1.0 - float(f[k])) * float(steps[k + 1] - steps[k])
    return total


def experienced(x, v, steps):
    """F(x|v) from ContagionWave.experienced_fraction for thresholds v and steps a_0 .. a_{L+1}."""
    wave = WaveSolution(steps, v, np.zeros(v.size - 1), sweeps=0, evaluations=0)
    return ContagionWave(wave, delta=0.0, a_star=float(steps[0])).experienced_fraction(x)


def masked_front_f(x):
    """front_f_array as np.clip, the segment formula, then f = 0 and 1 stored past -1 and 1."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -1.0, 1.0)
    out = (np.arccos(-xc) + xc * np.sqrt(np.maximum(0.0, 1.0 - xc * xc))) / math.pi
    out[x <= -1.0] = 0.0
    out[x >= 1.0] = 1.0
    return out


def dense_b_star(v, a, targets, lo, x0):
    """One b* sweep that evaluates F at 0 and at every cap, then runs the
    Newton loop from x0 over 2-row stacks with min/max reductions."""
    cap = v[:-1] + 1.0
    ends = contagion._experienced(np.append(0.0, cap), v, a)
    capped = ends[1:] < targets
    b = np.where(targets <= ends[0], 0.0, cap)
    lo = np.where(capped, cap, lo)
    idx = np.flatnonzero((targets > ends[0]) & ~capped)
    lo_i, hi, t, step = lo[idx], cap[idx], targets[idx], np.inf
    x = np.clip(x0[idx], lo_i, hi)
    for _ in range(200):
        if not idx.size:
            return b, lo
        pts = np.stack([x - 0.45e-12, x + 0.45e-12])
        f, df = (r.reshape(2, -1) for r in contagion._experienced(pts.ravel(), v, a, slope=True))
        reach = f >= t
        hi = np.minimum(hi, np.where(reach, pts, np.inf).min(axis=0))
        lo_i = np.maximum(lo_i, np.where(reach, -np.inf, pts).max(axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - (f[0] + f[1] - 2.0 * t) / (df[0] + df[1])
        ok = (lo_i < newton) & (newton < hi) & (np.abs(newton - x) <= 0.5 * step)
        newton = np.where(ok, newton, 0.5 * (lo_i + hi))
        step, x = np.abs(newton - x), newton
        done = hi - lo_i <= 1e-12
        b[idx[done]], lo[idx[done]] = hi[done], lo_i[done]
        idx, lo_i, hi, t, x, step = (arr[~done] for arr in (idx, lo_i, hi, t, x, step))
    raise AssertionError("oracle did not close its bracket")


def bisection_solve_wave(a, q):
    """The b* iteration with every coordinate bisected from [0, v_L + 1]
    to 1e-12 in each sweep.  Returns (thresholds, sweeps)."""
    L = a.size - 2
    targets = q[2:]
    v = np.zeros(L + 1)
    for sweeps in range(1, 100_001):
        lo = np.zeros(L)
        hi = np.full(L, float(v[-1] + 1.0))
        done_zero = targets <= contagion._experienced(np.zeros(1), v, a)[0]
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            reach = contagion._experienced(mid, v, a) >= targets
            hi = np.where(reach, mid, hi)
            lo = np.where(reach, lo, mid)
            if np.max(hi - lo) <= 1e-12:
                break
        new = v.copy()
        new[1:] = np.minimum(np.where(done_zero, 0.0, hi), v[:-1] + 1.0)
        new = np.maximum(new, v)
        if np.max(np.abs(new - v)) < 1e-10:
            return new, sweeps
        v = new
    raise AssertionError("oracle did not converge")


# The first game of the benchmark's wave panel (94 sweeps, L = 44).
PANEL_GAME_0 = StepFn(
    base=0.09172123396241166,
    steps=((0.215327690175707, 0.11736508326369241), (0.8603709570607483, 0.23818937284156608)),
)


def panel_wave_inputs(monkeypatch, eta=0.15):
    """The steps and inverse positions of the wave build_delta_wave returns
    for PANEL_GAME_0 at eta (L = 44 at 0.15, L = 177 at 0.04)."""
    calls = []
    solve = contagion.solve_wave
    monkeypatch.setattr(contagion, "solve_wave", lambda **kw: calls.append(kw) or solve(**kw))
    build_delta_wave(PANEL_GAME_0, eta=eta)
    return np.asarray(calls[-1]["steps"]), np.asarray(calls[-1]["inv_positions"])


from conftest import random_admissible_wave_inputs


def loop_check_ru_wave(a, q):
    """check_ru_wave as a running sum over the segments (a_{l-1}, a_l],
    read at each midpoint and each value in turn."""
    worst, worst_at, total = math.inf, math.nan, 0.0
    for l in range(1, a.size):
        lo, hi, c = a[l - 1], a[l], q[l]
        mid = 0.5 * (lo + hi)
        part_mid = total + (c * (mid - lo) - 0.5 * (mid * mid - lo * lo))
        total += c * (hi - lo) - 0.5 * (hi * hi - lo * lo)
        for val, at in ((part_mid, mid), (total, hi)):
            if at > a[0] and val < worst:
                worst, worst_at = val, at
    return worst > 0.0, worst, worst_at


def loop_staircase(P, lift):
    """_staircase_above's positions and levels, built one level at a time."""
    gap, base = lift / 4.0, P.piece_values[0] + lift
    down = [1.0]
    while down[-1] - gap > base + 1e-15:
        down.append(down[-1] - gap)
    levels = np.asarray(down + [base])[::-1]
    raw = [0.0]
    for level in levels[:-1]:
        idx = int(np.searchsorted(P.piece_values, level - lift, side="right"))
        raw.append(float(P.piece_positions[idx]) if idx < P.piece_values.size else 1.0)
    pos = np.maximum.accumulate(raw)
    for j in range(levels.size - 2, 0, -1):
        pos[j] = min(pos[j], pos[j + 1] - min(1e-6, gap * 1e-3))
    return pos, levels


# ------------------------------------------------------------------ lens_f0


def test_lens_containment_and_disjoint():
    assert lens_f0(0.0, 1.0, 1.0) == 1.0
    assert lens_f0(2.0, 1.0, 1.0) == 0.0
    assert lens_f0(5.0, 0.5, 3.0) == 0.0


def test_lens_unit_circles_at_unit_distance():
    want = (2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0) / math.pi
    assert abs(lens_f0(1.0, 1.0, 1.0) - want) <= 1e-12
    assert abs(lens_f0(1.0, 1.0, 1.0) - lens_mc(1.0, 1.0, 1.0)) <= 1e-3


def test_lens_monte_carlo_oracle(rng):
    for k in range(30):
        d = float(rng.uniform(0.0, 3.0))
        r1 = float(rng.uniform(0.1, 1.0))
        r2 = float(rng.uniform(1.0, 2.5))
        got = lens_f0(d, r1, r2)
        assert abs(got - lens_mc(d, r1, r2, seed=k)) <= 1e-3


def test_lens_decreasing_and_lipschitz_in_d(rng):
    # The derivative in d is the chord length over pi, at most 2 r1 / pi.
    for _ in range(50):
        r1 = float(rng.uniform(0.1, 1.0))
        r2 = float(rng.uniform(1.0, 2.0))
        d1, d2 = sorted(rng.uniform(0.0, 3.5, size=2))
        f1, f2 = lens_f0(d1, r1, r2), lens_f0(d2, r1, r2)
        assert f1 >= f2 - 1e-12
        assert f1 - f2 <= (2.0 * r1 / math.pi) * (d2 - d1) + 1e-9


def test_lens_domain_errors():
    with pytest.raises(ValueError):
        lens_f0(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        lens_f0(0.5, 1.5, 1.0)
    with pytest.raises(ValueError):
        lens_f0(0.5, 0.5, 0.8)


# ------------------------------------------------------------------ front_f_array


def test_front_f_boundary_values():
    f = front_f_array(np.array([-1.0, 1.0, 0.0, -2.0, 2.0]))
    assert f[[0, 1, 3, 4]].tolist() == [0.0, 1.0, 0.0, 1.0]
    assert f[2] == pytest.approx(0.5, abs=1e-15)


def test_front_f_edges_match_masked_formula():
    f = front_f_array(np.array([-np.inf, np.inf, np.nan]))
    assert f[0] == 0.0 and f[1] == 1.0 and math.isnan(f[2])
    one_up, one_down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
    edges = np.array([1.0, one_up, one_down, 2.0])
    for xs in (edges, -edges, np.linspace(-2.0, 2.0, 10_001)):
        assert front_f_array(xs).tobytes() == masked_front_f(xs).tobytes()


def test_front_f_balanced_identity():
    xs = np.linspace(-1.0, 1.0, 10_001)
    vals = front_f_array(xs) + front_f_array(-xs)
    assert np.max(np.abs(vals - 1.0)) <= 1e-12


def test_front_f_strictly_increasing_interior():
    xs = np.linspace(-0.999, 0.999, 2001)
    assert np.all(np.diff(front_f_array(xs)) > 0)


def test_front_f_is_large_r2_lens_limit():
    r2 = 50.0
    xs = np.array([-0.7, -0.2, 0.0, 0.3, 0.5, 0.8])
    finite = [lens_f0(r2 - x, 1.0, r2) for x in xs]
    assert np.all(np.abs(front_f_array(xs) - finite) <= 5e-3)


# ------------------------------------------------------ experienced fraction


def test_experienced_slope_call_shares_the_clipped_front(rng):
    v = np.array([0.0, 0.5, 1.5, 2.0, 2.25])
    a = np.array([0.1, 0.3, 0.5, 0.8, 0.9, 1.0])
    xs = np.concatenate(([-1.0, 0.5, 1.0, 3.0, 3.25, 4.0], rng.uniform(-2.0, 4.0, 40)))
    y = v[None, :] - xs[:, None]
    assert (np.abs(y) < 1.0).any() and (np.abs(y) == 1.0).any() and (np.abs(y) > 1.0).any()
    F, slope = contagion._experienced(xs, v, a, slope=True)
    assert F.tobytes() == contagion._experienced(xs, v, a).tobytes()
    row_sums = lambda m: np.einsum("ij,j->i", m, np.diff(a))  # noqa: E731
    assert F.tobytes() == (a[0] + row_sums(1.0 - masked_front_f(y))).tobytes()
    assert slope.tobytes() == row_sums((2.0 / math.pi) * np.sqrt(np.maximum(0.0, 1.0 - y * y))).tobytes()


def test_experienced_rows_do_not_depend_on_the_other_points(rng):
    # A point's F and F' bits are the same alone and inside any larger call,
    # so a sweep may reuse one call's values where another sweep makes two.
    for _ in range(300):
        L = int(rng.integers(1, 200))
        v = np.sort(rng.uniform(0.0, 0.5 * L, L + 1))
        a = np.sort(rng.uniform(0.0, 1.0, L + 2))
        xs = rng.uniform(-1.0, v[-1] + 1.0, int(rng.integers(2, 400)))
        F, slope = contagion._experienced(xs, v, a, slope=True)
        j = int(rng.integers(0, xs.size))
        for part in (xs[j : j + 1], xs[j:]):
            F_part, slope_part = contagion._experienced(part.copy(), v, a, slope=True)
            assert (F_part[0], slope_part[0]) == (F[j], slope[j])


def test_wave_value_far_left_is_base():
    v = np.array([0.0, 0.8, 1.5])
    a = np.array([0.2, 0.5, 0.8, 1.0])
    assert experienced(-1.5, v, a) == pytest.approx(0.2, abs=1e-12)


def test_wave_value_far_right_is_one():
    v = np.array([0.0, 0.8, 1.5])
    a = np.array([0.2, 0.5, 0.8, 1.0])
    assert experienced(v[-1] + 1.0, v, a) == pytest.approx(1.0, abs=1e-12)


def test_wave_value_single_step_midpoint():
    v = np.array([0.0])
    a = np.array([0.0, 0.6])
    assert experienced(0.0, v, a) == pytest.approx(0.3, abs=1e-12)


def test_wave_value_monotone_in_x_and_v():
    v = np.array([0.0, 0.9, 1.7])
    a = np.array([0.1, 0.4, 0.7, 1.0])
    xs = np.linspace(-1.5, 3.5, 200)
    vals = experienced(xs, v, a)
    assert np.all(np.diff(vals) >= -1e-12)
    v_hi = v + np.array([0.0, 0.05, 0.1])
    assert np.all(experienced(xs[::20], v_hi, a) <= vals[::20] + 1e-12)


# --------------------------------------------------------------- solve_wave


def test_solve_wave_strongly_below_diagonal(rng):
    # Q^{-1}(a) >= a + 0.3 for all steps: solver converges, residuals >= 0.
    vals = np.array([0.1, 0.3, 0.5, 0.7, 1.0])
    pos = np.minimum(vals + 0.3, 1.0)
    pos[0] = 0.0
    sol = solve_wave(steps=vals, inv_positions=pos)
    assert np.all(sol.residuals >= -1e-9)
    assert np.all(np.diff(sol.thresholds) > 0)
    assert sol.thresholds[-1] <= sol.L + 1e-9


def test_solve_wave_precondition_guard():
    # Q at the diagonal (positions equal to values) violates the strict
    # dominance integral.
    vals = np.array([0.2, 0.5, 1.0])
    pos = np.array([0.0, 0.2, 0.5])  # Q^{-1}(0.5) = 0.2 < values
    with pytest.raises(ValueError):
        solve_wave(steps=vals, inv_positions=pos)


def test_solve_wave_random_admissible(rng):
    made = 0
    while made < 50:
        out = random_admissible_wave_inputs(rng)
        if out is None:
            continue
        vals, pos = out
        sol = solve_wave(steps=vals, inv_positions=pos)
        assert np.all(sol.residuals >= -1e-9)
        assert np.all(np.diff(sol.thresholds) > 0)
        assert sol.thresholds[-1] <= sol.L + 1e-9
        want, sweeps = bisection_solve_wave(vals, pos)
        assert np.max(np.abs(sol.thresholds - want)) <= 1e-10
        assert sol.sweeps == sweeps
        made += 1


def test_solve_wave_panel_game_matches_bisection_oracle(monkeypatch):
    vals, pos = panel_wave_inputs(monkeypatch)
    sol = solve_wave(steps=vals, inv_positions=pos)
    want, sweeps = bisection_solve_wave(vals, pos)
    assert (sol.L, sol.sweeps, sweeps) == (44, 94, 94)
    assert np.max(np.abs(sol.thresholds - want)) <= 1e-10
    assert np.all(sol.residuals >= -1e-9)


def _assert_sweep_exact(v, a, targets, b, lo_prev):
    """Each b*_l(v) is 0, the cap v_{l-1} + 1 bit for bit, or a point that
    reaches the target with x - 1e-12 short of it; every row the sweep
    skipped as capped before (lo_prev == cap) misses the target at its cap."""
    cap = v[:-1] + 1.0
    F = lambda x: contagion._experienced(x, v, a)  # noqa: E731
    zero = targets <= F(np.zeros(1))[0]
    capped = F(cap) < targets
    assert np.all(capped[lo_prev == cap])
    assert np.all(b[zero] == 0.0)
    assert np.array_equal(b[capped], cap[capped])
    rest = ~zero & ~capped
    assert np.all(b[rest] <= cap[rest])
    assert np.all(F(b[rest]) >= targets[rest])
    assert np.all(F(b[rest] - 1e-12) < targets[rest])


def test_every_sweep_caps_exactly_and_brackets_each_root(rng, monkeypatch):
    # solve_wave's own iteration, warm brackets and extrapolated starts
    # included, checked sweep by sweep against the first-crossing guarantee
    # of plain bisection, and bit for bit against the sweep that evaluates F
    # at every cap from the same start.  The L = 177 wave runs its first 40
    # sweeps only; they take many rows through the Newton loop at once.
    inputs = [(*panel_wave_inputs(monkeypatch), None), (*panel_wave_inputs(monkeypatch, eta=0.04), 40)]
    while len(inputs) < 12:
        out = random_admissible_wave_inputs(rng)
        if out is not None:
            inputs.append((*out, None))
    assert inputs[1][0].size == 177 + 2
    for a, q, limit in inputs:
        targets = q[2:]
        v, lo, step = np.zeros(a.size - 1), np.zeros(a.size - 2), np.zeros(a.size - 1)
        newton_rows = 0
        for sweeps in range(1, 10_000):
            x0 = v[1:] + step[1:]
            want_b, want_lo = dense_b_star(v, a, targets, lo, x0)
            b, lo_next, _ = contagion._b_star(v, a, targets, lo, x0)
            assert b.tobytes() == want_b.tobytes() and lo_next.tobytes() == want_lo.tobytes()
            _assert_sweep_exact(v, a, targets, b, lo)
            newton_rows += int(np.count_nonzero((b > 0.0) & (b < v[:-1] + 1.0)))
            lo = lo_next
            new = np.maximum(np.append(0.0, b), v)
            v, step = new, new - v
            if np.max(step) < 1e-10 or sweeps == limit:
                break
        if limit is not None:
            assert sweeps == limit and newton_rows >= 50 * limit
            continue
        sol = solve_wave(steps=a, inv_positions=q)
        assert sol.sweeps == sweeps
        assert np.array_equal(sol.thresholds, v)


def test_sweep_bisects_where_the_slope_is_zero():
    # Row 2's start x0 = v_2 = 5.5 lies far above its bracket [0, cap = 4.2],
    # so the row starts at its cap; the step is rejected and the sweep
    # bisects to x = 2.1, where every front is more than 1 away, so F' = 0 at
    # both Newton points.  That step must bisect again, as the oracle's inf
    # step does, and raise nothing.
    v, a = np.array([0.0, 3.2, 5.5]), np.array([0.1, 0.3, 0.99, 1.0])
    targets, lo = np.array([0.15, 0.35]), np.zeros(2)
    assert not contagion._experienced(np.array([2.1 - 0.45e-12, 2.1 + 0.45e-12]), v, a, slope=True)[1].any()
    b, lo_next, _ = contagion._b_star(v, a, targets, lo, v[1:])
    want_b, want_lo = dense_b_star(v, a, targets, lo, v[1:])
    assert b.tobytes() == want_b.tobytes() and lo_next.tobytes() == want_lo.tobytes()
    assert b[0] == 0.0 and 2.1 < b[1] < 4.2


def test_solve_wave_raises_no_runtime_warning(rng, monkeypatch):
    inputs = [panel_wave_inputs(monkeypatch)]
    while len(inputs) < 21:
        out = random_admissible_wave_inputs(rng)
        if out is not None:
            inputs.append(out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, q in inputs:
            solve_wave(steps=a, inv_positions=q)


@pytest.mark.parametrize(
    "steps, inv",
    [
        ([0.1, 0.3, 0.2], [0.0, 0.5, 0.6]),  # steps not increasing
        ([0.1, 0.3, 0.3, 1.0], [0.0, 0.5, 0.6, 1.0]),  # a repeated step
        ([0.1, math.nan, 1.0], [0.0, 0.5, 1.0]),
        ([0.1, 0.5, 1.0], [0.0, math.nan, 1.0]),
        ([0.1, 0.5, 1.0], [0.0, 0.7, math.inf]),
        ([0.1, 0.5, 1.0], [0.0, 0.7]),  # one inverse position short
    ],
)
def test_solve_wave_rejects_bad_inputs(steps, inv):
    with pytest.raises(ValueError):
        solve_wave(steps=np.array(steps), inv_positions=np.array(inv))


def test_solve_wave_iterates_monotone(rng):
    # Independent scalar re-implementation of one b* sweep, applied
    # repeatedly: iterates must be coordinatewise nondecreasing.
    made = 0
    while made < 20:
        out = random_admissible_wave_inputs(rng)
        if out is None:
            continue
        vals, pos = out
        L = vals.size - 2
        targets = pos[2:]

        def F(x, v):
            return wave_value(x, v, vals)

        def sweep(v):
            new = v.copy()
            for l in range(1, L + 1):
                tgt = targets[l - 1]
                if F(0.0, v) >= tgt:
                    b = 0.0
                else:
                    lo, hi = 0.0, v[-1] + 1.0
                    for _ in range(50):
                        mid = 0.5 * (lo + hi)
                        if F(mid, v) >= tgt:
                            hi = mid
                        else:
                            lo = mid
                    b = hi
                new[l] = min(b, v[l - 1] + 1.0)
            return new

        v = np.zeros(L + 1)
        for _ in range(60):
            nxt = sweep(v)
            assert np.all(nxt >= v - 1e-12)
            v = nxt
        sol = solve_wave(steps=vals, inv_positions=pos)
        assert np.max(np.abs(sol.thresholds - v)) <= 1e-6
        made += 1


def test_wave_summation_identity(rng):
    # sum_{k,l} (1 - f(v_k - v_l)) da db = (sum da)^2 / 2 by balancedness.
    made = 0
    while made < 20:
        out = random_admissible_wave_inputs(rng)
        if out is None:
            continue
        vals, pos = out
        sol = solve_wave(steps=vals, inv_positions=pos)
        v = sol.thresholds
        da = np.diff(sol.steps)
        total = np.sum((1.0 - front_f_array(v[:, None] - v[None, :])) * da[:, None] * da[None, :])
        assert abs(total - 0.5 * da.sum() ** 2) <= 1e-9
        made += 1


# ---------------------------------------------------------- build_delta_wave


def test_delta_wave_low_constant_game():
    P = StepFn(0.05)
    wave = build_delta_wave(P, eta=0.1)
    assert wave.a_star <= 0.15
    assert wave.delta > 0
    ok, slack, _ = wave.verify_grid(P)
    assert ok, f"wave inequality violated, slack {slack}"


def test_delta_wave_requires_top_below_one():
    P = StepFn(base=0.2, steps=((0.5, 1.0),))
    with pytest.raises(ValueError):
        build_delta_wave(P, eta=0.1)


def test_delta_wave_rejects_nan_eta():
    with pytest.raises(ValueError, match="eta must be positive"):
        build_delta_wave(StepFn(0.05), eta=math.nan)


def test_check_ru_wave_matches_running_loop(rng):
    # Admissible draws, unconstrained draws and repeated step values, with
    # ties going to the first point in both.
    for trial in range(3000):
        inputs = random_admissible_wave_inputs(rng) if trial % 3 == 0 else None
        if inputs is None:
            L = int(rng.integers(1, 40))
            a = np.sort(rng.uniform(0.0, 1.0, L + 1))
            a = np.round(a, 1) if trial % 3 == 1 else a
            q = np.sort(rng.uniform(0.0, 1.0, L + 1))
            inputs = (a, q)
        got, want = check_ru_wave(*inputs), loop_check_ru_wave(*inputs)
        assert got[:2] == want[:2]
        assert got[2] == want[2] or (math.isnan(got[2]) and math.isnan(want[2]))
    assert check_ru_wave(np.array([0.3]), np.array([0.0]))[0]


def test_staircase_matches_level_by_level_build(rng, monkeypatch):
    # Up to ~6,500 levels: the build is checked past the wave's level bound.
    monkeypatch.setattr(contagion, "_MAX_LEVELS", 10**6)
    games = [StepFn(0.05)]
    while len(games) < 6:
        k = int(rng.integers(1, 4))
        pos = np.sort(rng.uniform(0.1, 0.9, size=k))
        vals = np.sort(rng.uniform(0.02, 0.25, size=k + 1))
        games.append(StepFn.from_grid([0.0] + pos.tolist(), vals.tolist()))
    for P in games:
        for k in range(1, 9):
            lift = min(0.15, 1.0 - P.top) / 2.0**k
            pos, levels = loop_staircase(P, lift)
            try:
                Q = contagion._staircase_above(P, lift)
            except WaveConstructionError:
                assert pos[1] <= 0.0  # no room left near 0 in either build
                continue
            assert np.array_equal(Q.piece_positions, pos)
            assert np.array_equal(Q.piece_values, levels)


@pytest.mark.xfail(raises=WaveConstructionError, strict=True, reason="ROADMAP item 2(b)")
def test_staircase_level_one_survives_base_rounding():
    # (0.05 + 0.0375) - 0.0375 rounds one ulp below P(0) = 0.05, so level 1
    # lands at x = 0 and the squeeze finds no room (FOUND in CHANGES.md).
    Q = contagion._staircase_above(StepFn(0.05), 0.0375)
    assert Q.piece_positions[1] > 0.0


def test_dominance_scans_scale_to_late_halvings(monkeypatch):
    # Halving k = 10 of P = 0.05 at eta = 0.1.  Scoring each candidate with
    # its own objective call took 25.7 s for ru_dominant alone (2 CPUs).
    # The wave builder's level bound refuses this staircase; the scans are
    # timed on it all the same.
    monkeypatch.setattr(contagion, "_MAX_LEVELS", 10**6)
    Q = contagion._staircase_above(StepFn(0.05), 0.1 / 2**10)
    assert Q.piece_values.size == 38_910
    t0 = time.perf_counter()
    q_max, _ = ru_dominant(Q)
    margin = contagion._ru_wave_margin(Q, q_max[-1])
    assert time.perf_counter() - t0 < 1.0
    assert margin > 0.0


def test_delta_wave_failure_lists_every_halving(monkeypatch):
    # Failing at the staircase keeps the 20 halvings cheap: the staircase
    # at delta1 = 0.1 / 2^20 would have ~4e7 levels.
    def fail(P, lift):
        raise WaveConstructionError("no staircase")

    monkeypatch.setattr(contagion, "_staircase_above", fail)
    with pytest.raises(WaveConstructionError) as err:
        build_delta_wave(StepFn(0.05), eta=0.1)
    msg = str(err.value)
    assert msg.count("no staircase") == contagion._MAX_HALVINGS
    for k in range(1, contagion._MAX_HALVINGS + 1):
        assert f"delta1={0.1 / 2.0**k:.6g}: no staircase" in msg


def test_delta_wave_level_bound_fails_every_halving_fast():
    # P = 0.05 at eta = 1e-3 needs ~7,600 staircase levels at k = 1, so
    # every halving is over the bound and none is built.
    t0 = time.perf_counter()
    with pytest.raises(WaveConstructionError) as err:
        build_delta_wave(StepFn(0.05), eta=1e-3)
    assert time.perf_counter() - t0 < 1.0
    msg = str(err.value)
    bound = f"staircase needs more than {contagion._MAX_LEVELS} levels"
    assert msg.count(bound) == contagion._MAX_HALVINGS
    for k in range(1, contagion._MAX_HALVINGS + 1):
        assert f"delta1={1e-3 / 2.0**k:.6g}: {bound}" in msg
    # A subnormal eta drives the level count past any float (and delta1
    # to 0); it is one more halving over the bound, not an OverflowError.
    with pytest.raises(WaveConstructionError):
        build_delta_wave(StepFn(0.05), eta=1e-320)


def test_delta_wave_requires_strict_dominance():
    P = StepFn(base=0.1, steps=((0.5, 0.9),))  # exact tie at 0.1 and 0.9
    with pytest.raises(ValueError):
        build_delta_wave(P, eta=0.05)


def test_delta_wave_sigma_branches():
    P = StepFn(0.05)
    wave = build_delta_wave(P, eta=0.1)
    v = wave.wave.thresholds
    mid = 0.5 * (v[0] + v[1])
    low, top, far, inside = wave.sigma_array([-1e-9, v[-1], v[-1] + 5.0, mid])
    assert low == wave.a_star
    assert top == far == 1.0
    assert wave.a_star < inside < 1.0


def test_delta_wave_random_admissible_games(rng):
    # Low-lying games with strictly dominant maximizers.
    made = 0
    tried = 0
    while made < 10 and tried < 200:
        tried += 1
        k = int(rng.integers(1, 4))
        pos = np.sort(rng.uniform(0.1, 0.9, size=k))
        vals = np.sort(rng.uniform(0.02, 0.25, size=k + 1))
        P = StepFn.from_grid([0.0] + pos.tolist(), vals.tolist())
        maximizers, strict = ru_dominant(P)
        if not strict or P.top >= 1.0:
            continue
        try:
            wave = build_delta_wave(P, eta=0.15)
        except WaveConstructionError:
            continue
        ok, slack, worst = wave.verify_grid(P)
        assert ok, f"violation at x={worst}: slack={slack}"
        assert wave.a_star <= maximizers[0] + 0.15
        made += 1
    assert made == 10


# ------------------------------------------------------ exact verification


def _grid_slack(wave, P, spacing, chunk=50_000):
    """Minimum of sigma(x - delta) - delta - P(clip(delta + F(x))) on an
    uncapped grid of the given spacing over [-1 - delta, v_L + 1 + 2 delta].

    F is summed in chunks of x: fronts with v_k <= x - 1 contribute their
    whole jump, fronts with v_k >= x + 1 nothing, the rest front_f_array.
    """
    d, v, a = wave.delta, wave.wave.thresholds, wave.wave.steps
    jumps = np.diff(a)
    passed = np.concatenate([[0.0], np.cumsum(jumps)])
    lo_x = -1.0 - d
    n = int(math.ceil((float(v[-1]) + 2.0 + 3.0 * d) / spacing)) + 1
    worst = math.inf
    for i0 in range(0, n, chunk):
        xs = lo_x + spacing * np.arange(i0, min(n, i0 + chunk))
        lo = int(np.searchsorted(v, xs[0] - 1.0, side="right"))
        hi = int(np.searchsorted(v, xs[-1] + 1.0, side="left"))
        frac = a[0] + passed[lo] + (1.0 - front_f_array(v[None, lo:hi] - xs[:, None])) @ jumps[lo:hi]
        rhs = d + P.eval_array(np.clip(d + frac, 0.0, 1.0))
        worst = min(worst, float(np.min(wave.sigma_array(xs - d) - rhs)))
    return worst


def test_verify_catches_violation_narrower_than_capped_grid():
    # 21 thresholds 0.9 apart and delta = 1e-6: a grid capped at 2,000,001
    # points over [-1, v_L + 1] has spacing 1e-5.  P jumps so that the
    # right side exceeds sigma only on [v_L + delta - 1e-8, v_L + delta).
    v = 0.9 * np.arange(21)
    a = np.concatenate([np.linspace(0.1, 0.5, 21), [1.0]])
    d = 1e-6
    wave = ContagionWave(WaveSolution(a, v, np.zeros(20), sweeps=0, evaluations=0), delta=d, a_star=0.1)
    r = float(v[-1]) + d
    z = d + float(wave.experienced_fraction(np.array([r - 1e-8]))[0])
    P = StepFn.from_grid([0.0, z], [0.0, a[-2] - d + 0.01])
    ok, slack, worst = wave.verify_grid(P)
    assert not ok
    assert slack == pytest.approx(-0.01, abs=1e-12)
    assert worst == pytest.approx(r, abs=1e-12)
    # Without the jump the same wave passes.
    assert wave.verify_grid(StepFn(0.0))[0]


def test_verify_matches_dense_grid_oracle():
    # The exact check takes the supremum of the right side on each piece
    # of sigma, so it is never looser than any grid; on this wave the
    # delta/4 grid (about 9e6 points) finds the same minimum.
    P = StepFn(0.05)
    wave = build_delta_wave(P, eta=0.1)
    ok, slack, _ = wave.verify_grid(P)
    oracle = _grid_slack(wave, P, wave.delta / 4.0)
    assert slack <= oracle + 1e-12
    assert ok == (oracle >= -1e-12)
    assert slack == pytest.approx(oracle, abs=1e-12)
