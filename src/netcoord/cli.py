"""Command-line interface.

Subcommands:

* ``ru-dominant <game.json>``: maximizers of the dominance integral;
* ``fixed-points <game.json>``: fixed points and jump crossings of P;
* ``wave <game.json> --eta E``: build a delta-contagion wave and print
  the residual table;
* ``simulate <config.json>``: run a replicated experiment;
* ``lattice-analyze <config.json>``: per-cube report and good-set search
  on a lattice experiment;
* ``enumerate <config.json>``: equilibrium averages, both tie rules (n <= 20).

Game files hold either a bare step function {"base": v, "steps": [...]}
or a wrapped {"P": ..., "provenance": ...} document.  All numbers print
with 12 significant digits.  A game or config file that cannot be read
or parsed, or whose game or network cannot be built, ends the command
with one ``netcoord <cmd>: cannot read`` line on stderr and exit code 2;
so do a bad ``SIM_WORKERS`` for ``simulate`` or ``enumerate`` and an
unwritable output path (``cannot write``), each before the work starts.
``-v`` logs each ``simulate`` and ``lattice-analyze`` replication's stage
times and each ``wave`` halving's outcome to stderr.  The stages are
``shocks`` (``lattice-analyze`` only), the cube step's ``largest``,
``report`` and ``good set``, and each probe by its name.  The parser
is built once per process, so a repeated in-process ``wave`` call's
set-up fell from ~1.09 to ~0.30 ms (perfbench ``setup_s``, 2-CPU
Linux host).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

from .contagion import WaveConstructionError, build_delta_wave
from .cubes import report_to_csv
from .game import sample_shocks
from .harness import (ExperimentConfig, _fmt, _stage_text, _worker_count, build_game, build_network, run_experiment,
                      run_replication)
from .stepfn import fixed_points, ru_dominant, ru_objective

log = logging.getLogger("netcoord")


class _BadInput(Exception):
    """An input file or setting the command cannot use; ``main`` reports it."""


def _load(path, fn, arg):
    """fn(arg), with a read or parse failure reported against path."""
    try:
        return fn(arg)
    except (OSError, ValueError) as e:
        raise _BadInput(f"cannot read {path}: {e}") from e


def _check_run(path, cfg) -> None:
    """The checks a config passes before ``run_experiment`` runs it."""
    P = _load(cfg.game.get("file", path), build_game, cfg.game)
    g = _load(cfg.network.get("file", path), build_network, cfg.network)  # a check: each worker builds its own
    if "ru-path" in cfg.probes and not ru_dominant(P)[1]:
        raise _BadInput(f"cannot read {path}: the ru-path probe needs a strictly dominant maximizer")
    if cfg.cubes is not None and "lattice" not in cfg.network:
        raise _BadInput(f"cannot read {path}: a cubes section needs a lattice network")
    if "enumerate" in cfg.probes and g.n > 20:
        raise _BadInput(f"cannot read {path}: enumerate needs a network of at most 20 nodes, got {g.n}")
    try:
        _worker_count()
    except ValueError as e:
        raise _BadInput(str(e)) from e


def _out_dir(path) -> Path:
    """The directory path, made before the command's work so that one it cannot write stops the command."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise _BadInput(f"cannot write {path}: {e.strerror}") from e
    return Path(path)


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
    if args.out and not Path(args.out).parent.is_dir():
        raise _BadInput(f"cannot write {args.out}: {Path(args.out).parent} is not a directory")
    if args.out and Path(args.out).is_dir():
        raise _BadInput(f"cannot write {args.out}: it is a directory")
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
        try:
            Path(args.out).write_text(json.dumps(wave.to_json_dict()))
        except OSError as e:
            raise _BadInput(f"cannot write {args.out}: {e.strerror}") from e
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load(args.config, ExperimentConfig.from_json_file, args.config)
    _check_run(args.config, cfg)
    if cfg.output is None:
        cfg = replace(cfg, output=str(Path(args.config).with_suffix("")) + "_out")
    _out_dir(cfg.output)
    out = run_experiment(cfg)
    print(f"replications={out['replications']}")
    for name in out["outputs"]:
        print(f"wrote {Path(cfg.output) / name}")
    return 0


def _cmd_lattice_analyze(args) -> int:
    cfg = _load(args.config, ExperimentConfig.from_json_file, args.config)
    if "lattice" not in cfg.network or not cfg.cubes:
        raise _BadInput(f"cannot read {args.config}: lattice-analyze needs a lattice network and a cubes section")
    P = _load(cfg.game.get("file", args.config), build_game, cfg.game)
    g = _load(args.config, build_network, cfg.network)
    cfg = replace(cfg, probes=())
    out_dir = _out_dir(cfg.output or "lattice_analysis")
    for rep in range(cfg.replications):
        t0 = time.perf_counter()
        t = sample_shocks(P, g.n, cfg.seed, stream=rep)
        shocks = time.perf_counter() - t0
        res = run_replication(g, P, cfg, rep, t)
        report, found = res.cubes
        (out_dir / f"cubes_{rep:04d}.csv").write_text(report_to_csv(report))
        found_text = json.dumps({"found": False}) if found is None else found.to_json()
        (out_dir / f"goodset_{rep:04d}.json").write_text(found_text)
        log.info("replication %d: shocks %.4fs, %s; %d bad cubes, good_set=%s",
                 rep, shocks, _stage_text(res.stages), res.record["bad_cubes"], "yes" if found else "no")
        print(f"replication {rep}: good_set={'yes' if found else 'no'}")
    print(f"wrote reports to {out_dir}")
    return 0


def _cmd_enumerate(args) -> int:
    cfg = replace(_load(args.config, ExperimentConfig.from_json_file, args.config), probes=("enumerate",), output=None)
    _check_run(args.config, cfg)
    for rec in run_experiment(cfg)["records"]:
        for tie, key in (("upper", "enumerated"), ("lower", "enumerated_lower")):
            print(f"replication {rec['replication_id']} {tie}: " + " ".join(_fmt(a) for a in rec["averages"][key]))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each ``func`` binds its ``_cmd_*`` at that first build, and the names
    a ``_cmd_*`` calls (``build_delta_wave``, ...) are looked up per call, so patching those still takes effect."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(format="%(asctime)s [%(levelname)s] %(message)s")  # adds a handler once per process
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except _BadInput as e:
        print(f"netcoord {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
