"""Experiment configuration, seeded Monte Carlo replication, and probes.

An experiment is a single JSON document: the game (inline step function
or additive parameters), the network generator, a replication count, a
64-bit seed, a tolerance eta, and the probe list.  Replications are
embarrassingly parallel: replication r draws its thresholds from the Philox
stream (seed, r), so output is byte-identical no matter how many worker
processes run (``SIM_WORKERS`` environment variable; the config file
stays the whole truth about the experiment).

Outputs per run: ``replications.jsonl`` (one record per replication),
``aggregate.csv`` (one row per replication), and ``plot.csv``
(replication/series/value rows for external plotting).  All numbers are
written with 12 significant digits.  Wall-clock timings go to the log
only, never into the output files, to keep reruns byte-identical.

Theorem-level probes live here as well; their checks are reported as
data, never raised as process failures.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, replace
from io import StringIO
from pathlib import Path

import numpy as np

from .contagion import WaveConstructionError, build_delta_wave
from .cubes import CubePartition, classify_bad, domination_check, extraordinary_cubes, good_set_search, partition
from .dynamics import (
    audit_main_bound,
    enumerate_equilibria,
    extremal_equilibria,
    initial_profile,
    lower_closure,
    upper_closure,
    upper_dynamics,
)
from .game import additive_game, sample_shocks, uniform_shock_cdf
from .network import (
    LatticeSpec,
    Network,
    complete_graph,
    disjoint_copies,
    fineness,
    imbalance,
    lattice,
    load_edgelist,
    unweighted_average,
    weighted_average,
)
from .stepfn import StepFn, fixed_points, is_strongly_stable, ru_dominant

__all__ = [
    "ExperimentConfig",
    "ReplicationResult",
    "build_game",
    "build_network",
    "stable_fixed_points",
    "run_replication",
    "run_experiment",
    "probe_theorem1",
    "probe_theorem2",
    "probe_theorem3",
    "probe_theorem4",
]

log = logging.getLogger("netcoord")

_ALL_PROBES = ("extremal", "enumerate", "seeded-local", "ru-path")
_CUBE_KEYS = ("b", "B", "gamma", "R", "rho")
# ExperimentConfig.from_dict coerces these fields and takes the others as given.
_COERCE = {"replications": int, "seed": int, "eta": float, "probes": tuple, "stability_gamma": float}


def _sig12(x):
    """Round floats to 12 significant digits for output stability."""
    if isinstance(x, float):
        if math.isnan(x):
            return None
        if math.isinf(x):
            return "inf"
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _sig12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig12(v) for v in x]
    if isinstance(x, (np.floating,)):
        return _sig12(float(x))
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    return x


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@dataclass(frozen=True)
class ExperimentConfig:
    game: dict
    network: dict
    replications: int = 1
    seed: int = 0
    eta: float = 0.05
    probes: tuple[str, ...] = ("extremal",)
    output: str | None = None
    stability_gamma: float = 0.9
    stability_radius: float | None = None
    cubes: dict | None = None

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not (0.0 < self.eta <= 0.5):
            raise ValueError("eta must lie in (0, 0.5]")
        if not (0 <= self.seed < 1 << 64):
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        bad = [p for p in self.probes if p not in _ALL_PROBES]
        if bad:
            raise ValueError(f"unknown probes: {bad}")
        if not (0.0 <= self.stability_gamma < 1.0):
            raise ValueError("stability_gamma must lie in [0, 1)")
        if self.stability_radius is not None and not self.stability_radius > 0.0:
            raise ValueError("stability_radius must be positive")
        if self.cubes is not None:
            unknown = sorted(set(self.cubes) - set(_CUBE_KEYS))
            if unknown:
                raise ValueError(f"unknown cubes keys: {unknown}")
            R = float(self.cubes.get("R", 2.0))
            if not (math.isfinite(R) and R >= 0.0):
                raise ValueError(f"cubes.R must be finite and nonnegative, got {R}")
            if not float(self.cubes.get("gamma", self.eta)) > 0.0:
                raise ValueError("cubes.gamma must be positive")

    @property
    def effective_stability_radius(self) -> float:
        """stability_radius, or max(1e-6, eta / 2) when it is unset."""
        return self.stability_radius if self.stability_radius is not None else max(1e-6, self.eta / 2)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in doc]
        if missing:
            raise ValueError(f"config needs the keys: {missing}")
        return cls(**{k: _COERCE.get(k, lambda v: v)(v) for k, v in doc.items()})

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self) -> dict:
        return {**asdict(self), "probes": list(self.probes)}


@dataclass
class ReplicationResult:
    replication_id: int
    record: dict
    wall_time: float  # logged only; excluded from serialized outputs


def _dist_from_doc(doc: dict) -> StepFn:
    """P from a wrapped {"P": ..., "provenance": ...} document or a bare step function."""
    return StepFn.from_json_dict(doc["P"] if "P" in doc else doc)


def build_game(spec: dict) -> StepFn:
    """Game source: inline step function, additive parameters, or file."""
    if "step_json" in spec:
        return _dist_from_doc(spec["step_json"])
    if "additive" in spec:
        a = spec["additive"]
        shock = a.get("shock", "uniform")
        if shock == "uniform":
            cdf = uniform_shock_cdf(*a.get("support", (-0.5, 0.5)))
        else:
            raise ValueError(f"unknown shock family {shock!r}")
        return additive_game(
            alpha=float(a["alpha"]),
            lam=float(a["lambda"]),
            shock_cdf=cdf,
            max_step=float(a.get("max_step", 0.005)),
        )
    if "file" in spec:
        return _dist_from_doc(json.loads(Path(spec["file"]).read_text()))
    raise ValueError("game spec needs one of: step_json, additive, file")


def build_network(spec: dict) -> Network:
    if "complete" in spec:
        return complete_graph(int(spec["complete"]["n"]))
    if "copies" in spec:
        c = spec["copies"]
        return disjoint_copies(complete_graph(int(c["n"])), int(c["k"]))
    if "lattice" in spec:
        l = spec["lattice"]
        return lattice(LatticeSpec(M=int(l["M"]), m=int(l["m"])))
    if "file" in spec:
        return load_edgelist(spec["file"])
    raise ValueError("network spec needs one of: complete, copies, lattice, file")


def stable_fixed_points(P: StepFn, gamma: float = 0.9, radius: float = 0.02) -> list[float]:
    """Fixed points passing the strong-stability test at (gamma, radius)."""
    return [f.x for f in fixed_points(P) if is_strongly_stable(P, f.x, gamma=gamma, radius=radius)]


def _cube_params(cfg: ExperimentConfig) -> tuple[CubePartition, float, float]:
    """Cube partition of the lattice, gamma (default eta) and R (default 2.0)."""
    c, lat = cfg.cubes, cfg.network["lattice"]
    part = partition(LatticeSpec(M=int(lat["M"]), m=int(lat["m"])), b=int(c["b"]), B=int(c["B"]))
    return part, float(c.get("gamma", cfg.eta)), float(c.get("R", 2.0))


def _mix_seed(seed: int, rep: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + rep + 1) % (1 << 63)


def run_replication(
    g: Network,
    P: StepFn,
    cfg: ExperimentConfig,
    rep: int,
) -> ReplicationResult:
    t0 = time.perf_counter()
    t = sample_shocks(P, g.n, cfg.seed, stream=rep)
    record: dict = {"replication_id": rep, "seed": cfg.seed}
    averages: dict = {}
    unweighted: dict = {}

    if "extremal" in cfg.probes or "seeded-local" in cfg.probes or "enumerate" in cfg.probes:
        largest, smallest = extremal_equilibria(g, t)
        averages["largest"] = weighted_average(g, largest)
        averages["smallest"] = weighted_average(g, smallest)
        unweighted["largest"] = unweighted_average(largest)
        unweighted["smallest"] = unweighted_average(smallest)

    if "enumerate" in cfg.probes:
        eqs = enumerate_equilibria(g, t, "upper")
        averages["enumerated"] = sorted(weighted_average(g, e) for e in eqs)

    if "seeded-local" in cfg.probes:
        seeded = {}
        for x in stable_fixed_points(P, cfg.stability_gamma, cfg.effective_stability_radius):
            # The sandwich: upward closure, then downward closure.
            eq = lower_closure(g, t, upper_closure(g, t, (t <= x).astype(float)))
            seeded[_fmt(x)] = weighted_average(g, eq)
        averages["seeded"] = seeded

    if "ru-path" in cfg.probes:
        maximizers, strict = ru_dominant(P)
        if not strict:
            raise ValueError("ru-path probe needs a strictly dominant maximizer")
        x_star = maximizers[0]
        a0 = initial_profile(P, x_star, t, seed=_mix_seed(cfg.seed, rep))
        trace = upper_dynamics(g, t, a0, P=P)
        sandwich = lower_closure(g, t, trace.final_profile)
        av = weighted_average(g, sandwich)
        audit = audit_main_bound(g, t, P, x_star, trace)
        averages["sandwich"] = av
        unweighted["sandwich"] = unweighted_average(sandwich)
        record["x_star"] = x_star
        record["x_star_distance"] = abs(av - x_star)
        record["bound_audit"] = audit.to_json_dict()
        record["upper_flips"] = trace.n_steps

    record["averages"] = averages
    record["unweighted"] = unweighted
    return ReplicationResult(rep, record, time.perf_counter() - t0)


def _run_chunk(args) -> tuple[list[tuple[int, dict]], dict]:
    """Replications ``reps`` of config ``cfg``, plus the network's statistics."""
    cfg, reps = args
    P = build_game(cfg.game)
    g = build_network(cfg.network)
    records = [(rep, run_replication(g, P, cfg, rep).record) for rep in reps]
    return records, {"fineness": fineness(g), "imbalance": imbalance(g)}


def _worker_count() -> int:
    raw = os.environ.get("SIM_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"SIM_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"SIM_WORKERS must be at least 1, got {workers}")
    return workers


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all replications and emit JSONL + CSV artifacts.

    Deterministic given (config, seed): replication r is seeded by the
    stream (seed, r) regardless of which worker executes it; results are
    serialized in replication order.  Exit is clean regardless of
    theorem-check outcomes -- the checks are data.  The result also holds
    the network's ``fineness`` and ``imbalance``.
    """
    workers = min(_worker_count(), cfg.replications)
    reps = list(range(cfg.replications))
    t0 = time.perf_counter()
    chunks = [(cfg, reps[w::workers]) for w in range(workers)]
    if workers == 1:
        parts = [_run_chunk(chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, chunks))
    records = sorted((pair for part, _ in parts for pair in part), key=lambda pair: pair[0])
    log.info("ran %d replications in %.2fs", len(records), time.perf_counter() - t0)

    jsonl_lines = [json.dumps(_sig12(rec)) for _, rec in records]
    agg = StringIO()
    writer = csv.writer(agg)
    writer.writerow(
        ["replication_id", "av_largest", "av_smallest", "av_largest_unweighted"]
        + ["av_smallest_unweighted", "av_sandwich", "x_star_distance", "audit_satisfied"]
    )
    plot = StringIO()
    plot_writer = csv.writer(plot)
    plot_writer.writerow(["replication", "series", "value"])
    for rep, rec in records:
        av = rec.get("averages", {})
        un = rec.get("unweighted", {})
        audit = rec.get("bound_audit")
        cells = (av.get("largest"), av.get("smallest"), un.get("largest"), un.get("smallest"))
        cells += (av.get("sandwich"), rec.get("x_star_distance"))
        writer.writerow([rep, *("" if v is None else _fmt(v) for v in cells), int(audit["satisfied"]) if audit else ""])
        for series in ("largest", "smallest", "sandwich"):
            if series in av:
                plot_writer.writerow([rep, series, _fmt(av[series])])
        for x, v in av.get("seeded", {}).items():
            plot_writer.writerow([rep, f"seeded@{x}", _fmt(v)])
        for j, v in enumerate(av.get("enumerated", [])):
            plot_writer.writerow([rep, f"enumerated[{j}]", _fmt(v)])
    outputs = {
        "replications.jsonl": "\n".join(jsonl_lines) + "\n",
        "aggregate.csv": agg.getvalue(),
        "plot.csv": plot.getvalue(),
    }
    if cfg.output:
        out_dir = Path(cfg.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in outputs.items():
            (out_dir / name).write_text(text)
    return {
        "replications": cfg.replications,
        "records": [rec for _, rec in records],
        "outputs": outputs,
        **parts[0][1],
    }


# ------------------------------------------------------------------- probes


def probe_theorem1(cfg: ExperimentConfig) -> dict:
    """Frequency with which each strongly stable fixed point is matched.

    For every strongly stable fixed point x of P, a replication succeeds
    when some found equilibrium average lies within eta of x.  The probe
    needs a complete graph or disjoint copies.  Reports per-point
    success frequencies with 95% binomial confidence intervals; small
    networks are reported but flagged against the fineness guidance.
    """
    if not ({"complete", "copies"} & set(cfg.network)):
        raise ValueError("probe_theorem1 needs a complete or copies network")
    cfg = replace(cfg, probes=("extremal", "seeded-local"), output=None)
    P = build_game(cfg.game)
    points = stable_fixed_points(P, cfg.stability_gamma, cfg.effective_stability_radius)
    out = run_experiment(cfg)
    successes = {x: 0 for x in points}
    for rec in out["records"]:
        av = rec["averages"]
        found = [av["largest"], av["smallest"]] + list(av.get("seeded", {}).values())
        for x in points:
            if min(abs(x - v) for v in found) <= cfg.eta:
                successes[x] += 1
    R = cfg.replications
    freq = {x: successes[x] / R for x in points}
    ci = {}
    for x, p in freq.items():
        half = 1.96 * math.sqrt(max(p * (1 - p), 1e-12) / R)
        ci[x] = (max(0.0, p - half), min(1.0, p + half))
    return {
        "stable_points": points,
        "success_frequency": freq,
        "ci95": ci,
        "fineness": out["fineness"],
        "coarse_network": out["fineness"] > 0.01,
        "records": out["records"],
    }


def probe_theorem2(cfg: ExperimentConfig) -> dict:
    """Escape frequencies of extremal averages from [x_min-eta, x_max+eta]."""
    cfg = replace(cfg, probes=("extremal",), output=None)
    P = build_game(cfg.game)
    fps = fixed_points(P)
    x_min, x_max = fps[0].x, fps[-1].x
    out = run_experiment(cfg)
    high = sum(1 for r in out["records"] if r["averages"]["largest"] > x_max + cfg.eta)
    low = sum(1 for r in out["records"] if r["averages"]["smallest"] < x_min - cfg.eta)
    R = cfg.replications
    return {
        "x_min": x_min,
        "x_max": x_max,
        "escape_high_frequency": high / R,
        "escape_low_frequency": low / R,
        "records": out["records"],
    }


def probe_theorem4(cfg: ExperimentConfig) -> dict:
    """Distance of the sandwich equilibrium average from x*, plus audits.

    Aborts unless the game has a strictly dominant maximizer.  Also
    reports unweighted averages together with the imbalance guard."""
    P = build_game(cfg.game)
    maximizers, strict = ru_dominant(P)
    if not strict:
        raise ValueError("probe_theorem4 requires strict dominance of the maximizer")
    out = run_experiment(replace(cfg, probes=("ru-path",), output=None))
    dists = [r["x_star_distance"] for r in out["records"]]
    audits = [r["bound_audit"]["satisfied"] for r in out["records"]]
    unweighted = [r["unweighted"]["sandwich"] for r in out["records"]]
    x_star = maximizers[0]
    return {
        "x_star": x_star,
        "distances": dists,
        "distance_quantiles": {
            "q50": float(np.quantile(dists, 0.5)),
            "q90": float(np.quantile(dists, 0.9)),
            "max": float(np.max(dists)),
        },
        "audit_pass_rate": sum(audits) / len(audits),
        "unweighted_distances": [abs(u - x_star) for u in unweighted],
        "fineness": out["fineness"],
        "imbalance": out["imbalance"],
        "records": out["records"],
    }


def probe_theorem3(cfg: ExperimentConfig) -> dict:
    """Lattice-vs-complete dispersion comparison plus wave diagnostics.

    Desk-scale stand-in: reports the paired largest/smallest equilibrium
    averages on the lattice and on the complete graph with the same M^2
    nodes, the delta-wave construction outcome, and good-set/domination
    results when cube parameters are configured.
    """
    if "lattice" not in cfg.network:
        raise ValueError("probe_theorem3 needs a lattice network")
    M = int(cfg.network["lattice"]["M"])
    P = build_game(cfg.game)
    maximizers, strict = ru_dominant(P)
    x_star = maximizers[0] if strict else None

    lat_cfg = replace(cfg, probes=("extremal",), output=None)
    lat_out = run_experiment(lat_cfg)
    comp_out = run_experiment(replace(lat_cfg, network={"complete": {"n": M * M}}))
    lat_large = [r["averages"]["largest"] for r in lat_out["records"]]
    comp_large = [r["averages"]["largest"] for r in comp_out["records"]]
    lat_small = [r["averages"]["smallest"] for r in lat_out["records"]]
    comp_small = [r["averages"]["smallest"] for r in comp_out["records"]]

    wave = None
    wave_error = None
    if strict and P.top < 1.0:
        try:
            wave = build_delta_wave(P, cfg.eta)
        except (ValueError, WaveConstructionError) as e:
            wave_error = str(e)
    else:
        wave_error = "wave prerequisites not met (strict dominance and P(1) < 1)"

    good_found = 0
    dominated = 0
    good_runs = 0
    if cfg.cubes:
        part, gamma, R = _cube_params(cfg)
        rho = float(cfg.cubes.get("rho", part.b / part.m))
        g = build_network(cfg.network)
        for rep in range(cfg.replications):
            t = sample_shocks(P, g.n, cfg.seed, stream=rep)
            found = good_set_search(part, classify_bad(part, t, P, gamma), extraordinary_cubes(part, t), gamma, R)
            good_runs += 1
            if found is None:
                continue
            good_found += 1
            if wave is not None:
                largest, _ = extremal_equilibria(g, t)
                ok, _ = domination_check(part, largest, wave, found.W, R, rho)
                dominated += ok
    return {
        "x_star": x_star,
        "lattice_largest": lat_large,
        "complete_largest": comp_large,
        "lattice_smallest": lat_small,
        "complete_smallest": comp_small,
        "median_lattice_largest": float(np.median(lat_large)),
        "median_complete_largest": float(np.median(comp_large)),
        "wave_found": wave is not None,
        "wave_error": wave_error,
        "wave_delta": wave.delta if wave is not None else None,
        "good_set_frequency": (good_found / good_runs) if good_runs else None,
        "domination_pass": dominated,
    }
