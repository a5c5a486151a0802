"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; the Monte Carlo
criteria use fixed seeds, so outcomes are reproducible bit for bit.
"""

import math
import time

import numpy as np
import scipy.sparse as sp

from netcoord.contagion import build_delta_wave, front_f_array, lens_f0, solve_wave
from netcoord.dynamics import (
    capacity,
    capacity_decrement_check,
    capacity_simple,
    enumerate_equilibria,
    extremal_equilibria,
    upper_dynamics,
)
from netcoord.game import sample_shocks
from netcoord.harness import (
    ExperimentConfig,
    build_game,
    probe_theorem1,
    probe_theorem3,
    probe_theorem4,
    run_experiment,
)
from netcoord.network import LatticeSpec, Network, complete_graph, disjoint_copies, lattice
from netcoord.stepfn import StepFn, ru_dominant
from conftest import random_admissible_wave_inputs, random_stepfn

TWO_POINT = {"base": 0.1, "steps": [[0.5, 0.9]]}
THREE_POINT = {"base": 0.1, "steps": [[0.25, 0.5], [0.75, 0.9]]}


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {name} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def objective_grid_argmax(P: StepFn, n: int = 1_000_000):
    """Independent midpoint-Riemann oracle for the dominance objective."""
    ys = (np.arange(n) + 0.5) / n
    inv = np.minimum(P.inverse_array(ys), 2.0)
    cum = np.concatenate([[0.0], np.cumsum((ys - inv) / n)])
    xs = np.arange(n + 1) / n
    return float(xs[np.argmax(cum)])


def test_criterion_1_oracle_equivalence(rng):
    t0 = time.monotonic()
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 11))
        W = (rng.random((n, n)) < 0.6).astype(float) * rng.uniform(0.2, 1.0, (n, n))
        W = np.triu(W, 1)
        W = W + W.T
        if np.any(W.sum(axis=1) == 0):
            continue
        g = Network.from_weights(sp.csr_matrix(W))
        P = random_stepfn(rng)
        shocks = sample_shocks(P, n, seed=int(rng.integers(1 << 31)))
        largest, smallest = extremal_equilibria(g, shocks)
        upper_all = enumerate_equilibria(g, shocks, "upper")
        lower_all = enumerate_equilibria(g, shocks, "lower")
        assert np.array_equal(largest, upper_all.max(axis=0))
        assert np.array_equal(smallest, lower_all.min(axis=0))
        checked += 1
    elapsed = time.monotonic() - t0
    report(
        1,
        "extremal equilibria equal the brute-force hull on 500 instances",
        elapsed < 10.0,
        f"(500 exact matches, {elapsed:.1f}s < 10s)",
    )


def test_criterion_2_theorem1_desk_check():
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        game={"step_json": TWO_POINT},
        network={"complete": {"n": 2000}},
        replications=100,
        seed=101,
        eta=0.05,
        probes=("extremal", "seeded-local"),
    )
    out = probe_theorem1(cfg)
    assert out["stable_points"] == [0.1, 0.9]
    joint = 0
    for rec in out["records"]:
        av = rec["averages"]
        found = [av["largest"], av["smallest"]] + list(av["seeded"].values())
        if all(min(abs(x - v) for v in found) <= 0.05 for x in (0.1, 0.9)):
            joint += 1
    elapsed = time.monotonic() - t0
    report(
        2,
        "both stable points matched within 0.05 on complete n=2000",
        joint >= 95 and elapsed < 60.0,
        f"(joint hits {joint}/100, {elapsed:.1f}s < 60s)",
    )


def test_criterion_3_copies_mixing():
    n, k = 400, 50
    g = disjoint_copies(complete_graph(n), k)
    P = build_game({"step_json": TWO_POINT})
    targets = np.round(np.arange(0.1, 0.95, 0.1), 2)
    ok_reps = 0
    reps = 50
    for rep in range(reps):
        shocks = sample_shocks(P, g.n, seed=202, stream=rep)
        largest, smallest = extremal_equilibria(g, shocks)
        per_hi = largest.reshape(k, n).mean(axis=1)
        per_lo = smallest.reshape(k, n).mean(axis=1)
        # Mix: B copies at the high equilibrium, the rest at the low one.
        prefix_hi = np.concatenate([[0.0], np.cumsum(per_hi)])
        total_lo = per_lo.sum()
        prefix_lo = np.concatenate([[0.0], np.cumsum(per_lo)])
        combos = np.array(
            [(prefix_hi[B] + (total_lo - prefix_lo[B])) / k for B in range(k + 1)]
        )
        if all(np.min(np.abs(combos - t)) <= 0.05 for t in targets):
            ok_reps += 1
    report(
        3,
        "every target in {0.1..0.9} matched within 0.05 by mixed equilibria",
        ok_reps >= 0.95 * reps,
        f"({ok_reps}/{reps} replications)",
    )


def test_criterion_4_theorem2_desk_check():
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        game={"step_json": TWO_POINT},
        network={"lattice": {"M": 120, "m": 3}},
        replications=100,
        seed=303,
        eta=0.05,
        probes=("extremal",),
    )
    out = run_experiment(cfg)
    inside = sum(
        1
        for r in out["records"]
        if r["averages"]["largest"] <= 0.95 and r["averages"]["smallest"] >= 0.05
    )
    elapsed = time.monotonic() - t0
    report(
        4,
        "extremal averages inside [0.05, 0.95] on the (120,3)-lattice",
        inside >= 95 and elapsed < 300.0,
        f"({inside}/100 inside, {elapsed:.1f}s < 300s)",
    )


def test_criterion_5_theorem4_desk_check():
    t0 = time.monotonic()
    game = {"additive": {"alpha": 0.6, "lambda": 0.3, "max_step": 0.005}}
    P = build_game(game)
    maximizers, strict = ru_dominant(P)
    assert strict
    x_star_oracle = objective_grid_argmax(P)
    assert abs(maximizers[0] - x_star_oracle) <= 2e-6  # one grid cell
    cfg = ExperimentConfig(
        game=game,
        network={"lattice": {"M": 200, "m": 5}},
        replications=100,
        seed=404,
        eta=0.05,
    )
    out = probe_theorem4(cfg)
    close = sum(1 for d in out["distances"] if d <= 0.05)
    audits_ok = out["audit_pass_rate"] == 1.0
    elapsed = time.monotonic() - t0
    report(
        5,
        "sandwich average within 0.05 of x* with every bound audit green",
        close >= 90 and audits_ok and elapsed < 600.0,
        f"(close {close}/100, audit rate {out['audit_pass_rate']:.2f}, {elapsed:.1f}s < 600s)",
    )


def test_criterion_6_theorem3_substitutes(rng):
    # (i) paired dispersion comparison.
    cfg = ExperimentConfig(
        game={"step_json": THREE_POINT},
        network={"lattice": {"M": 120, "m": 2}},
        replications=50,
        seed=505,
        eta=0.05,
    )
    out = probe_theorem3(cfg)
    x_star = out["x_star"]
    assert x_star == 0.5
    lat = abs(out["median_lattice_largest"] - x_star)
    comp = abs(out["median_complete_largest"] - x_star)
    part_i = lat < comp
    # (ii) 50 random admissible wave solutions.
    made = 0
    part_ii = True
    while made < 50:
        inputs = random_admissible_wave_inputs(rng)
        if inputs is None:
            continue
        sol = solve_wave(steps=inputs[0], inv_positions=inputs[1])
        part_ii &= bool(np.all(sol.residuals >= -1e-9))
        part_ii &= bool(np.all(np.diff(sol.thresholds) > 0))
        made += 1
    # (iii) 10 verified delta waves on admissible games.
    made = 0
    part_iii = True
    while made < 10:
        kpieces = int(rng.integers(1, 4))
        pos = np.sort(rng.uniform(0.1, 0.9, size=kpieces))
        vals = np.sort(rng.uniform(0.02, 0.25, size=kpieces + 1))
        P = StepFn.from_grid([0.0] + pos.tolist(), vals.tolist())
        maxs, strict = ru_dominant(P)
        if not strict:
            continue
        wave = build_delta_wave(P, eta=0.15)
        ok, slack, _ = wave.verify_grid(P)
        part_iii &= ok
        made += 1
    report(
        6,
        "lattice pulls toward x*; wave machinery verified",
        part_i and part_ii and part_iii,
        f"(median dist lattice {lat:.3f} < complete {comp:.3f}; 50 waves; 10 delta waves)",
    )


def _ball_count_ratio(m: int, offset, r1: float, r2: float) -> float:
    R1 = int(math.floor(r1 * m)) + 1
    gpts = np.arange(-R1, R1 + 1)
    X, Y = np.meshgrid(gpts, gpts, indexing="ij")
    in1 = X * X + Y * Y <= (r1 * m) ** 2
    dx, dy = offset
    in2 = (X - dx) ** 2 + (Y - dy) ** 2 <= (r2 * m) ** 2
    inter = int(np.count_nonzero(in1 & in2))
    gg = np.arange(-m, m + 1)
    XX, YY = np.meshgrid(gg, gg, indexing="ij")
    unit = int(np.count_nonzero(XX * XX + YY * YY <= m * m))
    return inter / unit


def test_criterion_7_geometry_suite(rng):
    # lens_f0 against the Monte Carlo rejection oracle.
    worst_mc = 0.0
    for case in range(100):
        d = float(rng.uniform(0.0, 3.0))
        r1 = float(rng.uniform(0.1, 1.0))
        r2 = float(rng.uniform(1.0, 2.5))
        mc_rng = np.random.default_rng(9000 + case)
        pts = mc_rng.uniform(-r1, r1, size=(1_000_000, 2))
        pts = pts[(pts**2).sum(axis=1) <= r1 * r1]
        mc = ((pts[:, 0] - d) ** 2 + pts[:, 1] ** 2 <= r2 * r2).mean() * r1 * r1
        worst_mc = max(worst_mc, abs(lens_f0(d, r1, r2) - mc))
    part_lens = worst_mc <= 1e-3
    # front_f balanced identity.
    xs = np.linspace(-1.0, 1.0, 10_001)
    part_balanced = float(np.max(np.abs(front_f_array(xs) + front_f_array(-xs) - 1.0))) <= 1e-12
    # Lattice counting ratio converges to f0 as m grows.
    cases = [((0.0, 0.0), 1.0, 1.0), ((1, 0), 0.8, 1.3), ((0, 1), 1.0, 1.6), ((1, 1), 0.6, 1.1)]
    errs = {}
    for m in (50, 100, 200):
        worst = 0.0
        for (ux, uy), r1, r2 in cases:
            for scale in (0.4, 0.9, 1.5):
                off = (round(ux * scale * m), round(uy * scale * m))
                d = math.hypot(*off) / m
                if d > r1 + r2:
                    continue
                got = _ball_count_ratio(m, off, r1, r2)
                worst = max(worst, abs(got - lens_f0(d, r1, r2)))
        errs[m] = worst
    part_lattice = errs[200] <= 0.02 and errs[200] <= errs[50] + 1e-9
    report(
        7,
        "lens MC oracle, balanced front, lattice-count convergence",
        part_lens and part_balanced and part_lattice,
        f"(mc worst {worst_mc:.2e}, count errs {errs[50]:.3f}/{errs[100]:.3f}/{errs[200]:.3f})",
    )


def test_criterion_8_ru_dominance_limit():
    # The maximizer sits within half a staircase cell of the deterministic
    # selection (0), so monotonicity is judged at that resolution.
    max_step = 0.002
    xs_star = []
    for lam in (0.5, 0.1, 0.02):
        P = build_game({"additive": {"alpha": 0.6, "lambda": lam, "max_step": max_step}})
        maxs, strict = ru_dominant(P)
        assert strict
        oracle = objective_grid_argmax(P, n=200_000)
        assert abs(maxs[0] - oracle) <= 1e-5 + 1e-9  # one grid cell
        xs_star.append(maxs[0])
    nonincreasing = all(a >= b - max_step for a, b in zip(xs_star, xs_star[1:]))
    report(
        8,
        "additive-game maximizer decreases to the deterministic selection",
        nonincreasing and xs_star[-1] <= 0.05,
        f"(x* by lambda: {[round(x, 4) for x in xs_star]}, staircase cell {max_step})",
    )


def test_criterion_9_capacity_mechanics(rng):
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        W = (rng.random((n, n)) < 0.7).astype(float) * rng.uniform(0.1, 1.0, (n, n))
        W = np.triu(W, 1)
        W = W + W.T
        if np.any(W.sum(axis=1) == 0):
            continue
        g = Network.from_weights(sp.csr_matrix(W))
        a = (rng.random(n) < 0.5).astype(float)
        worst = max(worst, abs(capacity(g, a) - capacity_simple(g, a)))
    part_eq = worst <= 1e-12
    g = lattice(LatticeSpec(M=40, m=2))
    alpha = 0.7
    shocks = np.full(g.n, alpha)
    passes = 0
    for k in range(50):
        a0 = (np.random.default_rng(k).random(g.n) < 0.75).astype(float)
        tr = upper_dynamics(g, shocks, a0)
        passes += capacity_decrement_check(g, shocks, tr)
    report(
        9,
        "capacity identity and per-flip decrement bound",
        part_eq and passes == 50,
        f"(identity worst {worst:.1e}, decrement {passes}/50)",
    )


def test_criterion_10_worker_determinism(tmp_path, monkeypatch):
    outputs = {}
    for workers in (1, 2, 8):
        monkeypatch.setenv("SIM_WORKERS", str(workers))
        out_dir = tmp_path / f"w{workers}"
        cfg = ExperimentConfig(
            game={"step_json": TWO_POINT},
            network={"complete": {"n": 300}},
            replications=16,
            seed=606,
            eta=0.05,
            probes=("extremal", "seeded-local"),
            output=str(out_dir),
        )
        run_experiment(cfg)
        outputs[workers] = {
            name: (out_dir / name).read_bytes()
            for name in ("replications.jsonl", "aggregate.csv", "plot.csv")
        }
    same = outputs[1] == outputs[2] == outputs[8]
    report(10, "byte-identical outputs across 1, 2, and 8 workers", same)
