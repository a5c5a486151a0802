"""Command-line interface.

Subcommands:

* ``ru-dominant <game.json>``: maximizers of the dominance integral;
* ``fixed-points <game.json>``: fixed points and jump crossings of P;
* ``wave <game.json> --eta E``: build a delta-contagion wave and print
  the residual table;
* ``simulate <config.json>``: run a replicated experiment;
* ``lattice-analyze <config.json>``: per-cube report and good-set search
  on a lattice experiment;
* ``enumerate <config.json>``: exhaustive equilibrium averages (n <= 20).

Game files hold either a bare step function {"base": v, "steps": [...]}
or a wrapped {"P": ..., "provenance": ...} document.  All numbers print
with 12 significant digits.  A game or config file that cannot be read
or parsed ends the command with one ``netcoord <cmd>: cannot read`` line
on stderr and exit code 2; ``-v`` logs each ``lattice-analyze``
replication's stage times to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

from .contagion import WaveConstructionError, build_delta_wave
from .cubes import cube_report, good_set_search, report_to_csv
from .dynamics import enumerate_equilibria, extremal_equilibria
from .game import sample_shocks
from .harness import ExperimentConfig, _cube_params, _fmt, build_game, build_network, run_experiment
from .network import weighted_average
from .stepfn import fixed_points, ru_dominant, ru_objective

log = logging.getLogger("netcoord")


class _Unreadable(Exception):
    """An input file that could not be read or parsed; ``main`` reports it."""


def _load(path, fn, arg):
    """fn(arg), with a read or parse failure reported against path."""
    try:
        return fn(arg)
    except (OSError, ValueError) as e:
        raise _Unreadable(f"cannot read {path}: {e}") from e


def _cmd_ru_dominant(args) -> int:
    P = _load(args.game, build_game, {"file": args.game})
    maximizers, strict = ru_dominant(P)
    for x in maximizers:
        print(f"{_fmt(x)} objective={_fmt(ru_objective(P, x))}")
    print(f"strict={'true' if strict else 'false'}")
    return 0


def _cmd_fixed_points(args) -> int:
    P = _load(args.game, build_game, {"file": args.game})
    for f in fixed_points(P):
        print(f"{_fmt(f.x)} {f.kind}")
    return 0


def _cmd_wave(args) -> int:
    P = _load(args.game, build_game, {"file": args.game})
    try:
        wave = build_delta_wave(P, args.eta)
    except (ValueError, WaveConstructionError) as e:
        print(f"wave construction failed: {e}", file=sys.stderr)
        return 1
    print(f"a_star={_fmt(wave.a_star)} delta={_fmt(wave.delta)} L={wave.L}")
    print("l threshold residual")
    v = wave.wave.thresholds
    for l, r in enumerate(wave.wave.residuals, start=1):
        print(f"{l} {_fmt(float(v[l]))} {_fmt(float(r))}")
    if args.out:
        Path(args.out).write_text(json.dumps(wave.to_json_dict()))
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load(args.config, ExperimentConfig.from_json_file, args.config)
    _load(cfg.game.get("file", args.config), build_game, cfg.game)
    if cfg.output is None:
        cfg = replace(cfg, output=str(Path(args.config).with_suffix("")) + "_out")
    out = run_experiment(cfg)
    print(f"replications={out['replications']}")
    for name in out["outputs"]:
        print(f"wrote {Path(cfg.output) / name}")
    return 0


def _cmd_lattice_analyze(args) -> int:
    cfg = _load(args.config, ExperimentConfig.from_json_file, args.config)
    if "lattice" not in cfg.network:
        print("lattice-analyze needs a lattice network", file=sys.stderr)
        return 2
    if not cfg.cubes:
        print("lattice-analyze needs a cubes section (b, B, gamma, R)", file=sys.stderr)
        return 2
    part, gamma, R = _cube_params(cfg)
    P = _load(cfg.game.get("file", args.config), build_game, cfg.game)
    g = build_network(cfg.network)
    out_dir = Path(cfg.output or "lattice_analysis")
    out_dir.mkdir(parents=True, exist_ok=True)
    for rep in range(cfg.replications):
        t0 = time.perf_counter()
        t = sample_shocks(P, g.n, cfg.seed, stream=rep)
        t1 = time.perf_counter()
        largest, _ = extremal_equilibria(g, t)
        t2 = time.perf_counter()
        rep_report = cube_report(part, t, P, largest, gamma)
        (out_dir / f"cubes_{rep:04d}.csv").write_text(report_to_csv(rep_report))
        t3 = time.perf_counter()
        found = good_set_search(part, rep_report.bad, rep_report.extraordinary, gamma, R)
        if found is None:
            text = json.dumps({"found": False})
        else:
            text = found.to_json()
        (out_dir / f"goodset_{rep:04d}.json").write_text(text)
        log.info(
            "replication %d: shocks %.4fs, extremal %.4fs, report+csv %.4fs, good set %.4fs; %d bad cubes, good_set=%s",
            rep, t1 - t0, t2 - t1, t3 - t2, time.perf_counter() - t3,
            int(rep_report.bad.sum()), "yes" if found else "no",
        )
        print(f"replication {rep}: good_set={'yes' if found else 'no'}")
    print(f"wrote reports to {out_dir}")
    return 0


def _cmd_enumerate(args) -> int:
    cfg = _load(args.config, ExperimentConfig.from_json_file, args.config)
    P = _load(cfg.game.get("file", args.config), build_game, cfg.game)
    g = build_network(cfg.network)
    for rep in range(cfg.replications):
        t = sample_shocks(P, g.n, cfg.seed, stream=rep)
        for tie in ("upper", "lower"):
            try:
                eqs = enumerate_equilibria(g, t, tie)
            except ValueError as e:  # e.g. the n <= 20 guard
                print(e, file=sys.stderr)
                return 2
            avs = sorted(weighted_average(g, e) for e in eqs)
            print(f"replication {rep} {tie}: " + " ".join(_fmt(a) for a in avs))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="netcoord", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ru-dominant", help="maximizers of the dominance integral")
    p.add_argument("game")
    p.set_defaults(func=_cmd_ru_dominant)

    p = sub.add_parser("fixed-points", help="fixed points of P")
    p.add_argument("game")
    p.set_defaults(func=_cmd_fixed_points)

    p = sub.add_parser("wave", help="build a delta-contagion wave")
    p.add_argument("game")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(func=_cmd_wave)

    p = sub.add_parser("simulate", help="run a replicated experiment")
    p.add_argument("config")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("lattice-analyze", help="cube report and good-set search")
    p.add_argument("config")
    p.set_defaults(func=_cmd_lattice_analyze)

    p = sub.add_parser("enumerate", help="exhaustive equilibria for n <= 20")
    p.add_argument("config")
    p.set_defaults(func=_cmd_enumerate)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s [%(levelname)s] %(message)s",
    )
    try:
        return args.func(args)
    except _Unreadable as e:
        print(f"netcoord {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
