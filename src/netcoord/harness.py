"""Experiment configuration, seeded Monte Carlo replication, and probes.

An experiment is a single JSON document: the game (inline step function,
or additive parameters, which ``additive_game`` turns into the exact
staircase of a clipped line), the network generator, a replication count, a
64-bit seed, a tolerance eta, and the probe list.  ``_SECTIONS`` holds
each section's keys, number types and defaults; ``ExperimentConfig``
reads every section against it once, at construction, and nothing else
parses a section.  Replications are embarrassingly parallel: replication
r draws its thresholds from the Philox stream (seed, r), so output is
byte-identical no matter how many worker processes run (``SIM_WORKERS``
environment variable, capped at the usable CPUs; the config file stays
the whole truth about the experiment).

Outputs per run: ``replications.jsonl`` (one record per replication),
``aggregate.csv`` (one row per replication), and ``plot.csv``
(replication/series/value rows for external plotting).  All numbers are
written with 12 significant digits.

``run_replication`` is the one place where a replication's thresholds
become evidence: ``simulate``, the probes and ``lattice-analyze`` all
call it.  With a ``cubes`` section (lattices only) it first runs the cube
step: the largest equilibrium (whose profile the extremal probes reuse),
the cube report, and, after the probes, the good-set search on the
report's flags; the record gains ``bad_cubes`` and ``good_set``.  Each
stage's wall time (``ReplicationResult.stages``) goes to the log only,
never into the output files, to keep reruns byte-identical.

Theorem-level probes live here as well; their checks are reported as
data, never raised as process failures.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import numbers
import os
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from io import StringIO
from pathlib import Path

import numpy as np

from .contagion import WaveConstructionError, build_delta_wave
from .cubes import CubePartition, CubeReport, GoodSet, cube_report, domination_check, good_set_search
from .dynamics import (
    audit_main_bound,
    enumerate_equilibria,
    extremal_equilibria,
    initial_profile,
    largest_equilibrium,
    lower_closure,
    smallest_equilibrium,
    upper_closure,
    upper_dynamics,
)
from .game import additive_game, sample_shocks
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
    "probe_theorem3",
    "probe_theorem4",
]

log = logging.getLogger("netcoord")

_ALL_PROBES = ("extremal", "enumerate", "seeded-local", "ru-path")
# Every config section's keys: a key table maps each key to its number type (a tuple: a list of such numbers) and
# default (``...``: required).  A file kind takes a path; step_json's document is checked when the game is built.
_SECTIONS = {
    "game": {"step_json": None,
             "additive": {"alpha": (float, ...), "lambda": (float, ...), "support": ((float, float), (-0.5, 0.5)),
                          "max_step": (float, 0.005)}, "file": str},
    "network": {"complete": {"n": (int, ...)}, "copies": {"n": (int, ...), "k": (int, ...)},
                "lattice": {"M": (int, ...), "m": (int, ...)}, "file": str},
    "cubes": {"b": (int, ...), "B": (int, ...), "gamma": (float, None), "R": (float, 2.0), "rho": (float, None)},
}
# ExperimentConfig reads these fields as numbers of this type and checks the others' types.
_NUMBERS = {"replications": int, "seed": int, "eta": float, "stability_gamma": float, "stability_radius": float}


def _sig12(x):
    """Round floats to 12 significant digits for output stability."""
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _sig12(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_sig12(v) for v in x]
    return x


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _number(name: str, v, kind=float):
    """v as kind (as given for None; a list of numbers for a tuple of kinds); a bool, a non-number (numpy scalars
    are numbers), or a non-integral value for an int, is a ValueError."""
    if kind is None:
        return v
    if isinstance(kind, tuple):
        if not (isinstance(v, (list, tuple)) and len(v) == len(kind)):
            raise ValueError(f"{name} must be a list of {len(kind)} numbers, got {v!r}")
        return tuple(_number(name, x, k) for x, k in zip(v, kind))
    wrong_type = isinstance(v, bool) or not isinstance(v, (int, float, numbers.Real))  # int, float first: ABCs are slow
    if wrong_type or (kind is int and not isinstance(v, (int, numbers.Integral)) and not float(v).is_integer()):
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {v!r}")
    return kind(v)


def _read(where: str, params, keys: dict) -> dict:
    """params checked against the key table keys: each key's value as its type, or the key's default."""
    if not isinstance(params, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(params).__name__}")
    unknown = sorted(params.keys() - keys.keys())
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}")
    missing = [key for key, (_, default) in keys.items() if default is ... and key not in params]
    if missing:
        raise ValueError(f"{where} needs the keys: {missing}")
    return {key: _number(f"{where}.{key}", params[key], kind) if key in params else default
            for key, (kind, default) in keys.items()}


def _kind(section: str, spec) -> tuple[str, object]:
    """The one kind that the config section spec names, and its parameters read against ``_SECTIONS``."""
    kinds = _SECTIONS[section]
    if not (isinstance(spec, dict) and len(spec) == 1 and set(spec) <= kinds.keys()):
        raise ValueError(f"{section} must be an object naming exactly one of: {', '.join(kinds)}")
    ((kind, params),) = spec.items()
    if kinds[kind] is str and not isinstance(params, str):
        raise ValueError(f"{section}.{kind} must be a path, got {params!r}")
    return kind, _read(f"{section}.{kind}", params, kinds[kind]) if isinstance(kinds[kind], dict) else params


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked and typed at construction, whether by ``from_dict``, ``replace`` or the constructor.
    ``cube_params`` holds the cubes section as read there: (partition, gamma, R, rho), or None without one."""

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
        for k, kind in _NUMBERS.items():
            if not (k == "stability_radius" and self.stability_radius is None):
                object.__setattr__(self, k, _number(k, getattr(self, k), kind))
        if not (isinstance(self.probes, (list, tuple)) and all(isinstance(p, str) for p in self.probes)):
            raise ValueError(f"probes must be a list of names, got {self.probes!r}")
        object.__setattr__(self, "probes", tuple(self.probes))
        if not (self.output is None or isinstance(self.output, str)):
            raise ValueError(f"output must be a path, got {self.output!r}")
        _kind("game", self.game)
        network, params = _kind("network", self.network)
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
        cube_params = None
        if self.cubes is not None:
            b, B, gamma, R, rho = _read("cubes", self.cubes, _SECTIONS["cubes"]).values()
            gamma = self.eta if gamma is None else gamma
            if min(b, B) < 1:
                raise ValueError(f"cubes.b and cubes.B must be positive, got {b} and {B}")
            for key, v in (("R", R), ("rho", rho)):
                if v is not None and not (math.isfinite(v) and v >= 0.0):
                    raise ValueError(f"cubes.{key} must be finite and nonnegative, got {v}")
            if not 0.0 < gamma < 1.0:  # at gamma >= 1 no cube is gamma-bad
                raise ValueError(f"cubes.gamma must lie in (0, 1), got {gamma}")
            if network != "lattice":  # the cube step runs on lattices only
                raise ValueError("a cubes section needs a lattice network")
            part = CubePartition(LatticeSpec(**params), b, B)  # the partition checks b | B | M
            cube_params = (part, gamma, R, b / part.m if rho is None else rho)
        object.__setattr__(self, "cube_params", cube_params)

    @property
    def effective_stability_radius(self) -> float:
        """stability_radius, or max(1e-6, eta / 2) when it is unset."""
        return self.stability_radius if self.stability_radius is not None else max(1e-6, self.eta / 2)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """The config the JSON object doc describes: its keys are the fields, and an absent one takes its default."""
        keys = {f.name: (None, ... if f.default is MISSING else f.default) for f in fields(cls)}
        return cls(**_read("config", doc, keys))

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass
class ReplicationResult:
    replication_id: int
    record: dict
    stages: dict[str, float]  # wall seconds per stage; logged only, never serialized
    cubes: tuple[CubeReport, GoodSet | None] | None  # the cube step's report and good set; never serialized


def build_game(spec: dict) -> StepFn:
    """Game source: inline step function, additive parameters, or file."""
    kind, params = _kind("game", spec)
    if kind == "additive":
        return additive_game(params["alpha"], params["lambda"], params["max_step"], params["support"])
    return StepFn.from_json_dict(json.loads(Path(params).read_text()) if kind == "file" else params)


def build_network(spec: dict) -> Network:
    kind, params = _kind("network", spec)
    if kind == "lattice":
        return lattice(LatticeSpec(**params))
    if kind == "file":
        return load_edgelist(params)
    g = complete_graph(params["n"])
    return disjoint_copies(g, params["k"]) if kind == "copies" else g


def stable_fixed_points(P: StepFn, gamma: float, radius: float) -> list[float]:
    """Fixed points passing the strong-stability test at (gamma, radius)."""
    return [f.x for f in fixed_points(P) if is_strongly_stable(P, f.x, gamma=gamma, radius=radius)]


def _mix_seed(seed: int, rep: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + rep + 1) % (1 << 63)


def _stage_text(stages: dict[str, float]) -> str:
    return ", ".join(f"{stage} {s:.4f}s" for stage, s in stages.items())


def run_replication(
    g: Network,
    P: StepFn,
    cfg: ExperimentConfig,
    rep: int,
    t: np.ndarray,
) -> ReplicationResult:
    """Replication rep's record, stage times and cube evidence from its thresholds t."""
    marks = [("", time.perf_counter())]  # (stage, when it ended), after the start
    record: dict = {"replication_id": rep, "seed": cfg.seed}
    averages: dict = {}
    unweighted: dict = {}
    largest = report = cubes = None

    if cfg.cube_params is not None:
        part, gamma, R, _ = cfg.cube_params
        largest, beta = largest_equilibrium(g, t)
        marks.append(("largest", time.perf_counter()))
        report = cube_report(part, t, P, largest, beta, gamma)
        del beta  # before any further closure or the good-set search allocates
        marks.append(("report", time.perf_counter()))

    if "extremal" in cfg.probes or "seeded-local" in cfg.probes or "enumerate" in cfg.probes:
        if largest is None:
            largest, smallest = extremal_equilibria(g, t)
        else:
            smallest = smallest_equilibrium(g, t, largest)
        averages["largest"] = weighted_average(g, largest)
        averages["smallest"] = weighted_average(g, smallest)
        unweighted["largest"] = unweighted_average(largest)
        unweighted["smallest"] = unweighted_average(smallest)
        marks.append(("extremal", time.perf_counter()))
    del largest  # before the other probes and the good-set search allocate

    if "enumerate" in cfg.probes:
        for tie, key in (("upper", "enumerated"), ("lower", "enumerated_lower")):
            averages[key] = sorted(weighted_average(g, e) for e in enumerate_equilibria(g, t, tie))
        marks.append(("enumerate", time.perf_counter()))

    if "seeded-local" in cfg.probes:
        seeded = {}
        for x in stable_fixed_points(P, cfg.stability_gamma, cfg.effective_stability_radius):
            # The sandwich: upward closure, then downward closure.
            eq = lower_closure(g, t, upper_closure(g, t, (t <= x).astype(float)))
            seeded[_fmt(x)] = weighted_average(g, eq)
        averages["seeded"] = seeded
        marks.append(("seeded-local", time.perf_counter()))

    if "ru-path" in cfg.probes:
        maximizers, strict = ru_dominant(P)
        if not strict:
            raise ValueError("ru-path probe needs a strictly dominant maximizer")
        x_star = maximizers[0]
        a0 = initial_profile(P, x_star, t, seed=_mix_seed(cfg.seed, rep))
        trace = upper_dynamics(g, t, a0)
        sandwich = lower_closure(g, t, trace.final_profile)
        av = weighted_average(g, sandwich)
        audit = audit_main_bound(g, t, P, x_star, trace)
        averages["sandwich"] = av
        unweighted["sandwich"] = unweighted_average(sandwich)
        record["x_star"] = x_star
        record["x_star_distance"] = abs(av - x_star)
        record["bound_audit"] = asdict(audit)
        record["upper_flips"] = trace.n_steps
        marks.append(("ru-path", time.perf_counter()))

    if report is not None:
        found = good_set_search(part, report.bad, report.extraordinary, gamma, R)
        record["bad_cubes"], record["good_set"] = int(report.bad.sum()), found is not None
        cubes = (report, found)
        marks.append(("good set", time.perf_counter()))

    record["averages"] = averages
    record["unweighted"] = unweighted
    stages = {stage: end - start for (_, start), (stage, end) in zip(marks, marks[1:])}
    return ReplicationResult(rep, record, stages, cubes)


def _run_chunk(args) -> tuple[list[ReplicationResult], dict]:
    """Replications ``reps`` of config ``cfg`` on its game P and network g (built here when None), plus the
    network's statistics."""
    cfg, reps, P, g = args
    P = build_game(cfg.game) if P is None else P
    g = build_network(cfg.network) if g is None else g
    results = [run_replication(g, P, cfg, rep, sample_shocks(P, g.n, cfg.seed, stream=rep)) for rep in reps]
    return results, {"fineness": fineness(g), "imbalance": imbalance(g)}


def _worker_count() -> int:
    raw = os.environ.get("SIM_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"SIM_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"SIM_WORKERS must be at least 1, got {workers}")
    return workers


def run_experiment(cfg: ExperimentConfig, game: StepFn | None = None, network: Network | None = None) -> dict:
    """Run all replications and emit JSONL + CSV artifacts.

    Deterministic given (config, seed): replication r is seeded by the
    stream (seed, r) regardless of which worker executes it; results are
    serialized in replication order.  Exit is clean regardless of
    theorem-check outcomes -- the checks are data.  The result also holds
    the network's ``fineness`` and ``imbalance``, and under ``cubes`` each
    replication's ``ReplicationResult.cubes``.  ``game`` and ``network``,
    when given, are cfg's built game and network, and a single-process run
    uses them in place of building its own; each worker process builds its own.
    """
    workers = min(_worker_count(), cfg.replications)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if workers > cpus:  # a fork pool starts every worker at once
        log.warning("%d worker processes capped at the %d usable CPUs", workers, cpus)
        workers = cpus
    reps = list(range(cfg.replications))
    t0 = time.perf_counter()
    if workers == 1:
        parts = [_run_chunk((cfg, reps, game, network))]
    else:
        from concurrent.futures import ProcessPoolExecutor  # single-worker runs never load multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, [(cfg, reps[w::workers], None, None) for w in range(workers)]))
    results = sorted((r for part, _ in parts for r in part), key=lambda r: r.replication_id)
    log.info("ran %d replications in %.2fs", len(results), time.perf_counter() - t0)
    for r in results:
        log.info("replication %d: %.4fs", r.replication_id, sum(r.stages.values()))
        log.info("stages of replication %d: %s", r.replication_id, _stage_text(r.stages))
    records = [(r.replication_id, r.record) for r in results]

    jsonl_lines = [json.dumps(_sig12(rec), allow_nan=False) for _, rec in records]
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
        "cubes": [r.cubes for r in results],
        **parts[0][1],
    }


# ------------------------------------------------------------------- probes


def probe_theorem1(cfg: ExperimentConfig) -> dict:
    """Frequency with which each strongly stable fixed point is matched.

    For every strongly stable fixed point x of P, a replication succeeds
    when some found equilibrium average lies within eta of x.  The probe
    needs a complete graph or disjoint copies.  Reports per-point
    success frequencies with 95% Wilson score intervals; small
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
    ci, z2 = {}, 1.96**2 / R
    for x, p in freq.items():  # the Wilson score interval, which keeps its width at p = 0 and p = 1
        mid, half = (p + z2 / 2) / (1 + z2), math.sqrt(z2 * p * (1 - p) + z2 * z2 / 4) / (1 + z2)
        ci[x] = (max(0.0, mid - half), min(1.0, mid + half))
    return {
        "stable_points": points,
        "success_frequency": freq,
        "ci95": ci,
        "fineness": out["fineness"],
        "coarse_network": out["fineness"] > 0.01,
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
    kind, params = _kind("network", cfg.network)
    if kind != "lattice":
        raise ValueError("probe_theorem3 needs a lattice network")
    M = params["M"]
    P = build_game(cfg.game)
    maximizers, strict = ru_dominant(P)
    x_star = maximizers[0] if strict else None

    lat_cfg = replace(cfg, probes=("extremal",), output=None)
    lat_out = run_experiment(lat_cfg)
    comp_out = run_experiment(replace(lat_cfg, network={"complete": {"n": M * M}}, cubes=None))
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

    good_sets = [(report.a_c, found.W) for report, found in lat_out["cubes"] if found is not None] if cfg.cubes else []
    dominated = 0
    if wave is not None and good_sets:
        part, _, R, rho = cfg.cube_params
        dominated = sum(domination_check(part, a_c, wave, W, R, rho)[0] for a_c, W in good_sets)
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
        "good_set_frequency": len(good_sets) / cfg.replications if cfg.cubes else None,
        "domination_pass": dominated,
    }
