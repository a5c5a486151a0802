import hashlib
import importlib
import json
import logging
import math
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import netcoord.cli
import netcoord.cubes
import netcoord.dynamics
import netcoord.harness
from netcoord.cli import main as cli_main
from netcoord.contagion import build_delta_wave
from netcoord.cubes import (CubePartition, classify_bad, cube_means, domination_check, extraordinary_cubes,
                            good_set_search)
from netcoord.dynamics import enumerate_equilibria, largest_equilibrium
from netcoord.game import sample_shocks
from netcoord.harness import (
    ExperimentConfig,
    _worker_count,
    build_game,
    build_network,
    probe_theorem1,
    probe_theorem3,
    probe_theorem4,
    run_experiment,
    run_replication,
    stable_fixed_points,
)
from netcoord.network import LatticeSpec, weighted_average
from netcoord.stepfn import StepFn
from conftest import save_edgelist

TWO_POINT_GAME = {"base": 0.1, "steps": [[0.5, 0.9]]}
THREE_POINT_GAME = {"base": 0.1, "steps": [[0.25, 0.5], [0.75, 0.9]]}


def small_cfg(**kw):
    base = dict(
        game={"step_json": TWO_POINT_GAME},
        network={"complete": {"n": 50}},
        replications=3,
        seed=7,
        eta=0.05,
        probes=("extremal",),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_every_module_export_resolves():
    # perfbench/spans.py wraps each name of a module's __all__ through getattr.
    for info in pkgutil.iter_modules(netcoord.__path__):
        mod = importlib.import_module(f"netcoord.{info.name}")
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, (info.name, missing)


def test_package_lists_no_api_of_its_own():
    # Each name is imported from its module; a second listing in __init__.py would drift from the __all__ lists.
    extra = [k for k, v in vars(netcoord).items() if not (k.startswith("__") or isinstance(v, ModuleType))]
    assert extra == [] and netcoord.__version__


# ------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(replications=0)
    with pytest.raises(ValueError):
        small_cfg(eta=0.9)
    with pytest.raises(ValueError):
        small_cfg(probes=("bogus",))


def test_config_rejects_unknown_keys():
    doc = asdict(small_cfg())
    doc.pop("replications")
    doc.pop("probes")
    with pytest.raises(ValueError, match="probs.*replication"):
        ExperimentConfig.from_dict({**doc, "replication": 50, "probs": ["ru-path"]})


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_config_rejects_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed"):
        small_cfg(seed=seed)
    assert small_cfg(seed=(1 << 64) - 1).seed == (1 << 64) - 1


@pytest.mark.parametrize(
    "kw",
    [
        {"stability_gamma": 1.0},
        {"stability_gamma": -0.1},
        {"stability_radius": -1.0},
        {"stability_radius": 0.0},
    ],
)
def test_config_rejects_bad_stability_parameters(kw):
    with pytest.raises(ValueError, match="stability"):
        small_cfg(probes=("seeded-local",), **kw)


@pytest.mark.parametrize(
    "cubes, match",
    [
        ({"b": 3, "B": 6, "radius": 1.0}, "unknown cubes keys"),
        ({"b": 3, "B": 6, "R": -1.0}, "R must"),
        ({"b": 3, "B": 6, "R": math.inf}, "R must"),
        ({"b": 3, "B": 6, "R": math.nan}, "R must"),
        ({"b": 3, "B": 6, "gamma": 0.0}, "gamma must"),
        ({"b": 3, "B": 6, "gamma": -0.2}, "gamma must"),
        ({"b": 3, "B": 6, "rho": -0.1}, "rho must"),
        ({"b": 3, "B": 6, "rho": math.inf}, "rho must"),
        ({"b": 3, "B": 6, "rho": -math.inf}, "rho must"),
        ({"b": 3, "B": 6, "rho": math.nan}, "rho must"),
    ],
)
def test_config_rejects_bad_cubes(cubes, match):
    with pytest.raises(ValueError, match=match):
        small_cfg(cubes=cubes)
    small_cfg(cubes={"b": 3, "B": 6, "gamma": 0.2, "R": 0.0, "rho": 1.5})


@pytest.mark.parametrize("key", ["game", "network"])
def test_config_names_a_missing_required_key(key):
    doc = asdict(small_cfg())
    del doc[key]
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("doc, kind", [(5, "int"), ("abc", "str"), ([1, 2], "list")])
def test_config_must_be_a_json_object(tmp_path, capsys, doc, kind):
    with pytest.raises(ValueError, match=f"config must be a JSON object, got {kind}"):
        ExperimentConfig.from_dict(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["simulate", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"netcoord simulate: cannot read {path}: config must be a JSON object, got {kind}"]


@pytest.mark.parametrize("command", ["simulate", "lattice-analyze", "enumerate"])
def test_cli_rejects_malformed_config_sections(tmp_path, capsys, command):
    base = {
        "game": {"step_json": TWO_POINT_GAME},
        "network": {"lattice": {"M": 6, "m": 2}},
        "cubes": {"b": 3, "B": 6},
        "output": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    empty, far = tmp_path / "empty.edges", tmp_path / "far.edges"
    empty.write_text("")
    far.write_text("n 3\n0 1 1.0\n1 3 1.0\n")
    changes = [{"game": 5}, {"network": [1]}, {"cubes": 5}, {"cubes": {"B": 6}}, {"cubes": {"b": 5, "B": 6}}]
    changes += [{"network": {"lattice": {"M": 6}}}, {"network": {"complete": {"n": 1}}}]
    changes += [{"network": {"lattice": {"M": 6, "m": 3}}}]  # M < 3m
    changes += [{"network": {"file": str(f)}} for f in (tmp_path / "missing.edges", empty, far)]
    changes += [{"game": {"additive": {}}}, {"game": {"additive": 5}}, {"game": {"step_json": {"steps": []}}}]
    changes += [{"game": {"additive": {"alpha": 0.6, "lambda": 0.3, "support": 5}}}, {"network": {"file": 5}}]
    changes += [{"cubes": {"b": 3, "B": 6, key: value}} for key, value in
                (("R", [1]), ("gamma", True), ("rho", "x"), ("rho", math.nan), ("rho", math.inf))]  # JSON NaN, Infinity
    # A section names exactly one kind and holds only that kind's keys.
    changes += [{"network": {"lattice": {"M": 12, "m": 2}, "complete": {"n": 5}}}]
    changes += [{"network": {"complete": {"n": 5, "k": 3}}}]
    changes += [{"game": {"additive": {"alpha": 0.6, "lambda": 0.3, key: value}}} for key, value in
                (("max_stp", 0.5), ("shock", "uniform"))]
    changes += [{"game": {"step_json": TWO_POINT_GAME, "file": str(tmp_path / "game.json")}}, {"game": {}}]
    # A step function holds only base and steps: a typo in a key is not read as an absent key.
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"base": 0.1, "step": [[0.5, 0.9]]}))
    changes += [{"game": {"step_json": {"base": 0.1, "step": [[0.5, 0.9]]}}}, {"game": {"file": str(typo)}}]
    for change in changes:
        path.write_text(json.dumps({**base, **change}))
        assert cli_main([command, str(path)]) == 2, change
        err = capsys.readouterr().err.strip().splitlines()
        net = change.get("network")
        # lattice-analyze rejects a file network before it reads the file.
        read_first = isinstance(net, dict) and isinstance(net.get("file"), str) and command != "lattice-analyze"
        where = net["file"] if read_first else typo if change == {"game": {"file": str(typo)}} else path
        assert len(err) == 1 and err[0].startswith(f"netcoord {command}: cannot read {where}: "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [("seed", 1.5), ("replications", 2.7), ("seed", True), ("eta", None), ("probes", 5), ("stability_radius", "0.1")]
    + [("cubes", {"b": 3, "B": 6, key: value}) for key, value in (("R", [1]), ("R", "2"), ("gamma", True), ("rho", "x"))],
)
def test_config_rejects_values_of_the_wrong_type(tmp_path, capsys, key, value):
    doc = {**asdict(small_cfg(output=str(tmp_path / "out"))), key: value}
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["simulate", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"netcoord simulate: cannot read {path}: {key}"), err
    assert not (tmp_path / "out").exists()


def test_config_reads_integral_numbers_as_integers():
    cfg = ExperimentConfig.from_dict({**asdict(small_cfg()), "seed": 3.0, "replications": 2.0, "stability_gamma": 0})
    assert (cfg.seed, cfg.replications, cfg.stability_gamma) == (3, 2, 0.0)
    assert (type(cfg.seed), type(cfg.replications), type(cfg.stability_gamma)) == (int, int, float)


def test_cli_simulate_rejects_bad_sim_workers(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIM_WORKERS", "abc")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(asdict(small_cfg(output=str(tmp_path / "out")))))
    assert cli_main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == ["netcoord simulate: SIM_WORKERS must be an integer, got 'abc'"]
    assert not (tmp_path / "out").exists()


def test_config_stability_radius_default():
    assert small_cfg().effective_stability_radius == 0.025
    assert small_cfg(eta=1e-7).effective_stability_radius == 1e-6
    assert small_cfg(stability_radius=0.3).effective_stability_radius == 0.3


def test_config_round_trip(tmp_path):
    cfg = small_cfg()
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(asdict(cfg)))
    back = ExperimentConfig.from_json_file(p)
    assert back == cfg


# ------------------------------------------------------------------ builders


def test_build_game_inline_and_file(tmp_path):
    P = build_game({"step_json": TWO_POINT_GAME})
    assert P.eval(0.7) == 0.9
    f = tmp_path / "game.json"
    f.write_text(json.dumps(TWO_POINT_GAME))
    P2 = build_game({"file": str(f)})
    assert P2.eval(0.2) == 0.1


def test_build_game_reads_wrapped_and_bare_files_alike(tmp_path):
    bare, wrapped = tmp_path / "bare.json", tmp_path / "wrapped.json"
    bare.write_text(json.dumps(TWO_POINT_GAME))
    wrapped.write_text(json.dumps({"P": TWO_POINT_GAME, "provenance": {"kind": "direct"}}))
    P = build_game({"file": str(bare)})
    assert isinstance(P, StepFn)
    assert build_game({"file": str(wrapped)}) == P


def test_build_game_additive():
    P = build_game({"additive": {"alpha": 0.6, "lambda": 0.3, "max_step": 0.01}})
    # Midpoint staircase of P(x) = clamp((x - 0.45) / 0.3): within half a step.
    xs = np.linspace(0.0, 1.0, 501)
    exact = np.clip((xs - 0.45) / 0.3, 0.0, 1.0)
    assert np.max(np.abs(P.eval_array(xs) - exact)) <= 0.005 + 1e-12


def test_build_network_variants(tmp_path):
    assert build_network({"complete": {"n": 5}}).n == 5
    assert build_network({"copies": {"n": 4, "k": 3}}).n == 12
    assert build_network({"lattice": {"M": 9, "m": 1}}).n == 81
    g = build_network({"complete": {"n": 4}})
    f = tmp_path / "g.edges"
    save_edgelist(g, f)
    assert build_network({"file": str(f)}).n == 4


def test_stable_fixed_points_two_point_game():
    P = StepFn.from_json_dict(TWO_POINT_GAME)
    pts = stable_fixed_points(P, gamma=0.9, radius=0.025)
    assert pts == [0.1, 0.9]


# ------------------------------------------------------------ run_experiment


def test_single_replication_record():
    cfg = small_cfg(replications=1, network={"complete": {"n": 2}})
    out = run_experiment(cfg)
    assert len(out["records"]) == 1
    rec = out["records"][0]
    assert rec["replication_id"] == 0
    assert "largest" in rec["averages"]


def test_determinism_same_seed():
    cfg = small_cfg()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a["outputs"] == b["outputs"]


def test_row_counts_and_files(tmp_path):
    cfg = small_cfg(replications=5, output=str(tmp_path / "out"))
    out = run_experiment(cfg)
    agg = (tmp_path / "out" / "aggregate.csv").read_text().strip().splitlines()
    assert len(agg) == 6  # header + 5 rows
    jsonl = (tmp_path / "out" / "replications.jsonl").read_text().strip().splitlines()
    assert len(jsonl) == 5
    assert (tmp_path / "out" / "plot.csv").exists()


def test_worker_determinism(monkeypatch):
    cfg = small_cfg(replications=6)
    monkeypatch.setenv("SIM_WORKERS", "1")
    one = run_experiment(cfg)["outputs"]
    monkeypatch.setenv("SIM_WORKERS", "2")
    two = run_experiment(cfg)["outputs"]
    assert one == two


def test_replication_replayable():
    cfg = small_cfg(replications=4, probes=("extremal", "seeded-local"))
    out = run_experiment(cfg)
    rec = out["records"][2]
    g = build_network(cfg.network)
    P = build_game(cfg.game)
    t = sample_shocks(P, g.n, cfg.seed, stream=rec["replication_id"])
    replay = run_replication(g, P, cfg, rec["replication_id"], t).record
    assert replay["averages"]["largest"] == rec["averages"]["largest"]


def test_enumerate_probe_small_n():
    cfg = small_cfg(network={"complete": {"n": 6}}, probes=("extremal", "enumerate"))
    out = run_experiment(cfg)
    for rec in out["records"]:
        avs, lower = rec["averages"]["enumerated"], rec["averages"]["enumerated_lower"]
        assert avs == sorted(avs) and lower == sorted(lower)
        assert rec["averages"]["largest"] == pytest.approx(max(avs))
    # plot.csv plots the upper tie rule only.
    assert "enumerated_lower" not in out["outputs"]["plot.csv"] and "enumerated[0]" in out["outputs"]["plot.csv"]


def test_enumerate_probe_rejects_large_network():
    cfg = small_cfg(network={"complete": {"n": 30}}, probes=("enumerate",), replications=1)
    with pytest.raises(ValueError, match="n <= 20"):
        run_experiment(cfg)


@pytest.mark.parametrize("raw", ["abc", "1.5", "", "0", "-3"])
def test_worker_count_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("SIM_WORKERS", raw)
    with pytest.raises(ValueError, match="SIM_WORKERS"):
        _worker_count()


def test_worker_count_reads_environment(monkeypatch):
    monkeypatch.delenv("SIM_WORKERS", raising=False)
    assert _worker_count() == 1
    monkeypatch.setenv("SIM_WORKERS", "64")
    assert _worker_count() == 64


def test_ru_path_probe_records_audit():
    cfg = small_cfg(
        game={"step_json": {"base": 0.05, "steps": [[0.6, 0.3]]}},
        network={"lattice": {"M": 12, "m": 2}},
        probes=("ru-path",),
        replications=2,
    )
    out = run_experiment(cfg)
    for rec in out["records"]:
        assert rec["bound_audit"]["satisfied"]
        assert 0.0 <= rec["x_star_distance"] <= 1.0


# ---------------------------------------------------------------- probes


def test_probe_theorem1_two_point_game():
    cfg = small_cfg(network={"complete": {"n": 400}}, replications=10)
    out = probe_theorem1(cfg)
    assert out["stable_points"] == [0.1, 0.9]
    assert out["success_frequency"][0.1] >= 0.9
    assert out["success_frequency"][0.9] >= 0.9


def test_probe_theorem1_rejects_lattice():
    cfg = small_cfg(network={"lattice": {"M": 9, "m": 1}})
    with pytest.raises(ValueError):
        probe_theorem1(cfg)


def test_probe_theorem1_coarse_network_flagged():
    cfg = small_cfg(network={"complete": {"n": 10}}, replications=3)
    out = probe_theorem1(cfg)
    assert out["coarse_network"] and out["fineness"] == 1.0 / 9.0
    assert set(out["success_frequency"]) == {0.1, 0.9}


def test_probe_theorem4_smoke():
    cfg = small_cfg(
        game={"step_json": {"base": 0.05, "steps": [[0.6, 0.3]]}},
        network={"lattice": {"M": 18, "m": 2}},
        replications=5,
    )
    out = probe_theorem4(cfg)
    assert out["audit_pass_rate"] == 1.0
    assert (out["fineness"], out["imbalance"]) == (1.0 / 12.0, 1.0)  # 12 neighbours each
    assert out["distance_quantiles"]["q90"] <= 0.2


def test_probe_theorem4_rejects_tied_game():
    cfg = small_cfg(game={"step_json": TWO_POINT_GAME})
    with pytest.raises(ValueError):
        probe_theorem4(cfg)


def test_probe_theorem3_smoke():
    cfg = small_cfg(
        game={"step_json": THREE_POINT_GAME},
        network={"lattice": {"M": 24, "m": 2}},
        replications=3,
    )
    out = probe_theorem3(cfg)
    assert len(out["lattice_largest"]) == 3
    assert len(out["complete_largest"]) == 3
    assert out["x_star"] == 0.5


def test_probe_theorem3_counts_good_sets_and_domination_per_replication():
    game = {"base": 0.05, "steps": [[0.4, 0.3]]}
    cubes = {"b": 2, "B": 6, "gamma": 0.5, "R": 0.0}
    cfg = small_cfg(game={"step_json": game}, network={"lattice": {"M": 24, "m": 2}}, replications=4, seed=3, eta=0.15)
    P, g = build_game(cfg.game), build_network(cfg.network)
    part, wave = CubePartition(LatticeSpec(24, 2), 2, 6), build_delta_wave(P, 0.15)
    for rho, passes in ((None, 4), (0.5, 2)):  # the default rho is b/m = 1
        out = probe_theorem3(replace(cfg, cubes=cubes if rho is None else {**cubes, "rho": rho}))
        found = dominated = 0
        for rep in range(4):
            t = sample_shocks(P, g.n, 3, stream=rep)
            good = good_set_search(part, classify_bad(part, t, P, 0.5), extraordinary_cubes(part, t), 0.5, 0.0)
            if good is not None:
                found += 1
                a_c = cube_means(part, largest_equilibrium(g, t)[0])
                dominated += domination_check(part, a_c, wave, good.W, 0.0, rho or 1.0)[0]
        assert out["wave_found"] and (found, dominated) == (4, passes)
        assert (out["good_set_frequency"], out["domination_pass"]) == (found / 4, dominated)


def test_probe_theorem3_runs_one_upper_closure_per_replication(monkeypatch):
    # The cube step's largest equilibrium serves the extremal probe and the domination check.
    monkeypatch.setenv("SIM_WORKERS", "1")
    game = {"base": 0.05, "steps": [[0.4, 0.3]]}
    cubes = {"b": 2, "B": 6, "gamma": 0.5, "R": 0.0}
    cfg = small_cfg(game={"step_json": game}, network={"lattice": {"M": 24, "m": 2}}, replications=4, seed=3, eta=0.15,
                    cubes=cubes)
    ties = []
    closure = netcoord.dynamics._closure
    monkeypatch.setattr(netcoord.dynamics, "_closure", lambda g, t, a0, tie, up: ties.append(tie) or closure(g, t, a0, tie, up))
    out = probe_theorem3(cfg)
    assert out["good_set_frequency"] == 1.0 and out["domination_pass"] == 4
    assert ties.count("upper") == 4 + 4  # one per lattice and one per complete-graph replication


@pytest.mark.parametrize(
    "game, eta, error, good",
    [
        ({"base": 0.1, "steps": [[0.5, 1.0]]}, 0.05, "wave prerequisites not met (strict dominance and P(1) < 1)", 0.0),
        ({"base": 0.05, "steps": []}, 0.001, "no verified wave for eta=0.001", 0.5),
    ],
    ids=["P(1)=1", "no-wave-at-eta"],
)
def test_probe_theorem3_reports_why_it_has_no_wave(game, eta, error, good):
    # P(1) = 1 fails the prerequisites; P = 0.05 at eta = 0.001 fails the construction.
    cubes = {"b": 3, "B": 12, "gamma": 0.2, "R": 1.0}
    cfg = small_cfg(game={"step_json": game}, network={"lattice": {"M": 24, "m": 2}}, replications=2, seed=3, eta=eta)
    out = probe_theorem3(replace(cfg, cubes=cubes))
    assert out["wave_error"].startswith(error), out["wave_error"]
    assert (out["wave_found"], out["wave_delta"]) == (False, None)
    assert (out["good_set_frequency"], out["domination_pass"]) == (good, 0)


@pytest.mark.parametrize("network", [{"lattice": {"M": 24, "m": 2}}, {"copies": {"n": 10, "k": 6}}])
def test_ru_path_builds_no_csr_on_a_structured_network(network):
    cfg = small_cfg(game={"step_json": THREE_POINT_GAME}, network=network, probes=("ru-path",))
    g = build_network(network)
    P = build_game(cfg.game)
    record = run_replication(g, P, cfg, 0, sample_shocks(P, g.n, cfg.seed, stream=0)).record
    assert record["upper_flips"] > 0 and record["bound_audit"]["satisfied"]
    assert "weights" not in g.__dict__


# ------------------------------------------------------------------- CLI


def write_game(tmp_path, doc):
    p = tmp_path / "game.json"
    p.write_text(json.dumps(doc))
    return str(p)


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def test_cli_ru_dominant(tmp_path, capsys):
    rc = cli_main(["ru-dominant", write_game(tmp_path, TWO_POINT_GAME)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "strict=false" in out
    assert "0.1" in out and "0.9" in out


def test_cli_fixed_points(tmp_path, capsys):
    rc = cli_main(["fixed-points", write_game(tmp_path, TWO_POINT_GAME)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["0.1 exact", "0.5 jump-crossing", "0.9 exact"]


def test_cli_wave(tmp_path, capsys):
    game = write_game(tmp_path, {"base": 0.05, "steps": []})
    rc = cli_main(["wave", game, "--eta", "0.1", "--out", str(tmp_path / "w.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "a_star=" in out and "delta=" in out
    assert json.loads((tmp_path / "w.json").read_text())["sweeps"] >= 1


def test_cli_wave_verbose_logs_each_halving(tmp_path, capsys, caplog):
    # P = 0.1 at eta = 0.15 loses halving k = 1 to the staircase squeeze.
    game = write_game(tmp_path, {"base": 0.1, "steps": []})
    quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
    assert cli_main(["wave", game, "--eta", "0.15", "--out", str(quiet)]) == 0
    quiet_out = capsys.readouterr().out
    caplog.set_level(logging.INFO, logger="netcoord")
    assert cli_main(["-v", "wave", game, "--eta", "0.15", "--out", str(loud)]) == 0
    assert capsys.readouterr().out == quiet_out
    assert loud.read_bytes() == quiet.read_bytes()
    sweeps = json.loads(loud.read_text())["sweeps"]
    assert [r.getMessage() for r in caplog.records if r.name == "netcoord"] == [
        "wave halving k=1 delta1=0.075: staircase squeeze ran out of room near 0",
        f"wave halving k=2 delta1=0.0375: verified after {sweeps} b* sweeps",
    ]


def test_cli_verbose_flag_holds_on_every_call(tmp_path, caplog):
    # logging.basicConfig configures the root logger once per process; -v still decides each call's logging.
    argv = ["wave", write_game(tmp_path, {"base": 0.1, "steps": []}), "--eta", "0.15"]

    def logged(argv):
        caplog.clear()
        assert cli_main(argv) == 0
        return [r.getMessage() for r in caplog.records if r.name == "netcoord"]

    assert logged(argv) == []
    assert len(logged(["-v", *argv])) == 2
    assert logged(argv) == []


def test_cli_wave_checks_its_output_directory_before_building(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(netcoord.cli, "build_delta_wave", lambda *a: pytest.fail("built before the output was checked"))
    game, out = write_game(tmp_path, {"base": 0.05, "steps": []}), tmp_path / "missing_dir" / "x.json"
    assert cli_main(["wave", game, "--eta", "0.15", "--out", str(out)]) == 2
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err.splitlines() == [f"netcoord wave: cannot write {out}: {out.parent} is not a directory"]


def test_cli_wave_rejects_nan_eta(tmp_path, capsys):
    game = write_game(tmp_path, {"base": 0.05, "steps": []})
    assert cli_main(["wave", game, "--eta", "nan"]) == 1
    assert "eta must be positive" in capsys.readouterr().err


def test_cli_wave_failure_path(tmp_path, capsys):
    game = write_game(tmp_path, {"base": 0.2, "steps": [[0.5, 1.0]]})  # P(1)=1
    rc = cli_main(["wave", game, "--eta", "0.1"])
    assert rc == 1
    assert "failed" in capsys.readouterr().err


def test_cli_wave_reports_the_level_bound(tmp_path, capsys):
    game = write_game(tmp_path, {"base": 0.05, "steps": []})
    assert cli_main(["wave", game, "--eta", "0.001"]) == 1
    err = capsys.readouterr().err
    assert "wave construction failed" in err and "staircase needs more than" in err


def test_cli_simulate_and_enumerate(tmp_path, capsys):
    cfg = {
        "game": {"step_json": TWO_POINT_GAME},
        "network": {"complete": {"n": 6}},
        "replications": 2,
        "seed": 3,
        "eta": 0.05,
        "probes": ["extremal", "enumerate"],
        "output": str(tmp_path / "sim"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["simulate", str(cfg_path)]) == 0
    assert (tmp_path / "sim" / "aggregate.csv").exists()
    assert cli_main(["enumerate", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "replication 0 upper:" in out


def test_cli_enumerate_prints_both_tie_rules(tmp_path, capsys):
    # Seed 5 gives ties that the two rules break apart in both replications.
    cfg = {"game": {"step_json": {"base": 0.3, "steps": [[0.4, 0.8]]}}, "network": {"complete": {"n": 6}},
           "replications": 2, "seed": 5}
    assert cli_main(["enumerate", str(_write_json(tmp_path / "cfg.json", cfg))]) == 0
    P, g = build_game(cfg["game"]), build_network(cfg["network"])
    want = []
    for rep in range(2):
        t = sample_shocks(P, g.n, 5, stream=rep)
        lines = {}
        for tie in ("upper", "lower"):
            avs = sorted(weighted_average(g, e) for e in enumerate_equilibria(g, t, tie))
            lines[tie] = " ".join(f"{a:.12g}" for a in avs)
        assert lines["upper"] != lines["lower"]
        want += [f"replication {rep} {tie}: {text}" for tie, text in lines.items()]
    assert capsys.readouterr().out.splitlines() == want


def test_cli_enumerate_rejects_large_network(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"game": {"step_json": TWO_POINT_GAME}, "network": {"complete": {"n": 30}}}))
    assert cli_main(["enumerate", str(cfg_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"netcoord enumerate: cannot read {cfg_path}: enumerate needs a network of at most 20 nodes, got 30"]


def test_cli_simulate_rejects_the_enumerate_probe_on_a_large_network(tmp_path, capsys):
    cfg = {
        "game": {"step_json": TWO_POINT_GAME},
        "network": {"complete": {"n": 30}},
        "probes": ["extremal", "enumerate"],
        "output": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["simulate", str(cfg_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"netcoord simulate: cannot read {cfg_path}: enumerate needs a network of at most 20 nodes, got 30"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "lattice-analyze"])
def test_cli_reports_an_output_it_cannot_write_before_any_replication(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(netcoord.harness, "run_replication", lambda *a: pytest.fail("ran before the output was made"))
    monkeypatch.setattr(netcoord.cli, "run_replication", netcoord.harness.run_replication)
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = {"game": {"step_json": TWO_POINT_GAME}, "network": {"lattice": {"M": 6, "m": 2}}, "cubes": {"b": 3, "B": 6},
           "output": str(taken)}
    assert cli_main([command, str(_write_json(tmp_path / "cfg.json", cfg))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"netcoord {command}: cannot write {taken}: File exists"]


@pytest.mark.parametrize("network", [{"complete": {"n": 36}}, {"copies": {"n": 6, "k": 6}}])
def test_cli_simulate_rejects_a_cubes_section_it_would_ignore(tmp_path, capsys, network):
    # The cube step runs on lattices only; elsewhere the section would silently do nothing.
    cfg = {"game": {"step_json": TWO_POINT_GAME}, "network": network, "cubes": {"b": 3, "B": 6},
           "output": str(tmp_path / "out")}
    cfg_path = _write_json(tmp_path / "cfg.json", cfg)
    assert cli_main(["simulate", str(cfg_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"netcoord simulate: cannot read {cfg_path}: a cubes section needs a lattice network"]
    assert not (tmp_path / "out").exists()


def test_cli_simulate_rejects_the_ru_path_probe_without_a_strict_maximizer(tmp_path, capsys):
    # ru-dominant prints strict=false for this game; the probe used to fail
    # inside the first replication with a ValueError traceback and exit 1.
    cfg = {"game": {"step_json": TWO_POINT_GAME}, "network": {"complete": {"n": 12}},
           "probes": ["ru-path"], "output": str(tmp_path / "out")}
    cfg_path = _write_json(tmp_path / "cfg.json", cfg)
    assert cli_main(["simulate", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"netcoord simulate: cannot read {cfg_path}: "
                                "the ru-path probe needs a strictly dominant maximizer"]
    assert not (tmp_path / "out").exists()


def test_cli_lattice_analyze(tmp_path, capsys):
    cfg = {
        "game": {"step_json": {"base": 0.3, "steps": []}},
        "network": {"lattice": {"M": 12, "m": 2}},
        "replications": 1,
        "seed": 5,
        "eta": 0.1,
        "cubes": {"b": 3, "B": 6, "gamma": 0.2, "R": 1.0},
        "output": str(tmp_path / "lat"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["lattice-analyze", str(cfg_path)]) == 0
    assert (tmp_path / "lat" / "cubes_0000.csv").exists()
    assert (tmp_path / "lat" / "goodset_0000.json").exists()


@pytest.mark.parametrize("cmd", ["wave", "ru-dominant", "simulate"])
@pytest.mark.parametrize("broken", ["missing", "truncated", "unknown key"])
def test_cli_reports_an_unreadable_input_file(tmp_path, capsys, cmd, broken):
    path = tmp_path / "in.json"
    if broken == "truncated":
        path.write_text('{"base": 0.05, "ste')
    if broken == "unknown key":
        path.write_text('{"base": 0.05, "step": [[0.5, 0.9]]}')
    argv = [cmd, str(path)] + (["--eta", "0.1"] if cmd == "wave" else [])
    assert cli_main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"netcoord {cmd}: cannot read {path}: ")


def test_cli_simulate_writes_next_to_a_config_without_output(tmp_path, capsys):
    path = _write_json(tmp_path / "exp.json", {"game": {"step_json": TWO_POINT_GAME}, "network": {"complete": {"n": 6}}})
    assert cli_main(["simulate", str(path)]) == 0
    out = tmp_path / "exp_out"
    assert sorted(f.name for f in out.iterdir()) == ["aggregate.csv", "plot.csv", "replications.jsonl"]
    assert f"wrote {out / 'plot.csv'}" in capsys.readouterr().out


def test_cli_simulate_reports_a_missing_game_file(tmp_path, capsys):
    game = tmp_path / "nope.json"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"game": {"file": str(game)}, "network": {"complete": {"n": 6}}}))
    assert cli_main(["simulate", str(cfg_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"netcoord simulate: cannot read {game}: ")
    assert not (tmp_path / "cfg_out").exists()


@pytest.mark.parametrize("change", [{"network": {"complete": {"n": 36}}}, {"cubes": None}])
def test_cli_lattice_analyze_rejects_what_it_cannot_analyze_before_building(tmp_path, capsys, monkeypatch, change):
    for name in ("build_game", "build_network"):
        monkeypatch.setattr(netcoord.cli, name, lambda spec: pytest.fail("built before the config was checked"))
    cfg = {"game": {"step_json": TWO_POINT_GAME}, "network": {"lattice": {"M": 6, "m": 2}}, "cubes": {"b": 3, "B": 6},
           "output": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, **change}))
    assert cli_main(["lattice-analyze", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    reason = "lattice-analyze needs a lattice network and a cubes section"
    assert err == [f"netcoord lattice-analyze: cannot read {path}: {reason}"]
    assert not (tmp_path / "out").exists()


def test_benchmark_item_clocks_run_once_per_item(tmp_path, monkeypatch):
    # The benchmark times each item by rebinding one of these names.
    calls = Counter()
    clocked = ((netcoord.cli, "sample_shocks"), (netcoord.cli, "build_delta_wave"), (netcoord.harness, "run_replication"))
    for module, name in clocked:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    monkeypatch.setenv("SIM_WORKERS", "1")
    lat = {"game": {"step_json": {"base": 0.05, "steps": [[0.4, 0.3]]}}, "network": {"lattice": {"M": 24, "m": 2}},
           "replications": 3, "cubes": {"b": 3, "B": 12}, "output": str(tmp_path / "lat")}
    sim = {"game": {"step_json": TWO_POINT_GAME}, "network": {"complete": {"n": 12}}, "replications": 3,
           "output": str(tmp_path / "sim")}
    runs = [(["lattice-analyze", str(_write_json(tmp_path / "lat.json", lat))], "sample_shocks", 3)]
    runs += [(["simulate", str(_write_json(tmp_path / "sim.json", sim))], "run_replication", 3)]
    runs += [(["wave", write_game(tmp_path, {"base": 0.05, "steps": []}), "--eta", "0.1"], "build_delta_wave", 1)]
    for argv, name, items in runs:
        calls.clear()
        assert cli_main(argv) == 0
        assert calls == {name: items}, argv


def test_cli_lattice_analyze_classifies_once_per_replication(tmp_path, monkeypatch, caplog):
    cfg = {
        "game": {"step_json": {"base": 0.05, "steps": [[0.4, 0.3]]}},
        "network": {"lattice": {"M": 24, "m": 2}},
        "replications": 3,
        "seed": 5,
        "cubes": {"b": 3, "B": 12, "gamma": 0.2, "R": 1.0},
        "output": str(tmp_path / "lat"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    calls = []
    classify = netcoord.cubes.classify_bad
    monkeypatch.setattr(netcoord.cubes, "classify_bad", lambda *a: calls.append(1) or classify(*a))
    caplog.set_level(logging.INFO, logger="netcoord")
    assert cli_main(["-v", "lattice-analyze", str(cfg_path)]) == 0
    assert len(calls) == 3
    stages = [r.getMessage() for r in caplog.records if "largest" in r.getMessage()]
    assert len(stages) == 3
    assert all("shocks" in m and "good set" in m and "bad cubes" in m and "good_set=" in m for m in stages)


def test_cli_lattice_analyze_runs_no_lower_closure(tmp_path, monkeypatch):
    # Only the largest equilibrium is reported: one upper-rule closure per replication.
    cfg = {
        "game": {"step_json": {"base": 0.05, "steps": [[0.4, 0.3]]}},
        "network": {"lattice": {"M": 24, "m": 2}},
        "replications": 3,
        "seed": 5,
        "cubes": {"b": 3, "B": 12, "gamma": 0.2, "R": 1.0},
        "output": str(tmp_path / "lat"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    ties = []
    closure = netcoord.dynamics._closure
    monkeypatch.setattr(netcoord.dynamics, "_closure", lambda g, t, a0, tie, up: ties.append(tie) or closure(g, t, a0, tie, up))
    assert cli_main(["lattice-analyze", str(cfg_path)]) == 0
    assert ties == ["upper"] * 3


def test_simulate_records_the_cube_evidence_that_lattice_analyze_writes(tmp_path, capsys):
    cfg = {"game": {"step_json": _GOLDEN_GAMES["sparse"]}, "network": {"lattice": {"M": 30, "m": 3}},
           "replications": 2, "seed": 11, "cubes": {"b": 3, "B": 15, "gamma": 0.2, "R": 1.0}}
    sim = _write_json(tmp_path / "sim.json", {**cfg, "output": str(tmp_path / "sim")})
    lat = _write_json(tmp_path / "lat.json", {**cfg, "output": str(tmp_path / "lat")})
    assert cli_main(["simulate", str(sim)]) == 0 and cli_main(["lattice-analyze", str(lat)]) == 0
    records = [json.loads(line) for line in (tmp_path / "sim" / "replications.jsonl").read_text().splitlines()]
    written = []
    for rep in range(2):
        rows = (tmp_path / "lat" / f"cubes_{rep:04d}.csv").read_text().splitlines()[1:]
        found = json.loads((tmp_path / "lat" / f"goodset_{rep:04d}.json").read_text())["found"]
        written.append((sum(row.split(",")[4] == "1" for row in rows), found))
    assert [(r["bad_cubes"], r["good_set"]) for r in records] == written
    assert [found for _, found in written] == [False, True]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_logs_each_replication_wall_time(tmp_path, monkeypatch, caplog, workers):
    # One INFO line per replication, in id order after the pool returns;
    # the output files are those of a run without -v.
    monkeypatch.setenv("SIM_WORKERS", workers)
    outputs = {}
    for verbose in ([], ["-v"]):
        cfg = {"game": {"step_json": TWO_POINT_GAME}, "network": {"complete": {"n": 12}},
               "replications": 3, "seed": 4, "output": str(tmp_path / f"out{len(verbose)}")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        caplog.clear()
        caplog.set_level(logging.INFO, logger="netcoord")
        assert cli_main([*verbose, "simulate", str(cfg_path)]) == 0
        outputs[len(verbose)] = {p.name: p.read_bytes() for p in (tmp_path / f"out{len(verbose)}").iterdir()}
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("replication ")]
    assert [m.split(": ")[0] for m in lines] == ["replication 0", "replication 1", "replication 2"]
    assert all(m.endswith("s") and float(m.split(": ")[1][:-1]) >= 0.0 for m in lines)
    assert outputs[0] == outputs[1] and set(outputs[0]) == {"replications.jsonl", "aggregate.csv", "plot.csv"}


_GOLDEN_GAMES = {
    "cube": {"base": 0.05, "steps": [[0.4, 0.3]]},
    "three_point": {"base": 0.1, "steps": [[0.25, 0.5], [0.75, 0.9]]},
    "sparse": {"base": 0.0, "steps": [[0.3, 0.05]]},  # mostly +inf thresholds: finds a good set at b = 3
    "staircase": {"base": 0.02, "steps": [[i / 12, 0.02 + 0.07 * i] for i in range(1, 12)] + [[1.0, 0.9]]},  # 13 pieces
}
_GOLDEN_LATTICES = {1: (24, 2, 6), 2: (24, 2, 12), 3: (30, 3, 15), 8: (48, 3, 24)}  # b: (M, m, B)
# First 16 hex digits of the sha256 of cubes_0000.csv, cubes_0001.csv,
# goodset_0000.json and goodset_0001.json (seed 11, gamma 0.2, R 1),
# recorded before closures compared counts and cubes were reduced by slices.
_GOLDEN = {
    ("cube", 1): ("203fff0220b63754", "98a42d983753c4fd", "0ea0f25b83971f88", "0ea0f25b83971f88"),
    ("cube", 2): ("b4eab2295d8dbb0a", "d864133e7e966ad0", "0ea0f25b83971f88", "0ea0f25b83971f88"),
    ("cube", 3): ("bab2536399b17ca5", "27fbfbd423f8d794", "0ea0f25b83971f88", "0ea0f25b83971f88"),
    ("cube", 8): ("29a3a76ad9b6fe90", "715859ae6aa0d821", "0ea0f25b83971f88", "0ea0f25b83971f88"),
    ("three_point", 1): ("47011a883c8deabd", "2fa7d0c5efcdd836", "0ea0f25b83971f88", "0ea0f25b83971f88"),
    ("three_point", 2): ("1033f3697fb0a7c8", "19c773095c4e0c3d", "0ea0f25b83971f88", "0ea0f25b83971f88"),
    ("three_point", 3): ("79a071e7e5ee7823", "e1d63315f6899ec1", "0ea0f25b83971f88", "0ea0f25b83971f88"),
    ("three_point", 8): ("b26d614a9797f80a", "221ff2aacea49e02", "0ea0f25b83971f88", "0ea0f25b83971f88"),
    ("sparse", 1): ("f8c1c02f234e45e8", "26c3314c1f56352a", "0ea0f25b83971f88", "0ea0f25b83971f88"),
    ("sparse", 2): ("63958180ed49a692", "8bdcbb3f972f0d8f", "0ea0f25b83971f88", "0ea0f25b83971f88"),
    ("sparse", 3): ("89af432c53c1d1dc", "98c6d0212c96f98c", "0ea0f25b83971f88", "f9e2305d7873a2be"),
    ("sparse", 8): ("dc9a80886ba40a44", "56fdd58577a28976", "0ea0f25b83971f88", "0ea0f25b83971f88"),
    ("staircase", 1): ("0ee02fee850810a9", "f70258f5c25c2fa1", "0ea0f25b83971f88", "0ea0f25b83971f88"),
    ("staircase", 2): ("8d0d1f116e62422f", "8788a701a0770a8f", "0ea0f25b83971f88", "0ea0f25b83971f88"),
    ("staircase", 3): ("e3beaf131ddd8ff4", "acb79834e6384520", "0ea0f25b83971f88", "0ea0f25b83971f88"),
    ("staircase", 8): ("d250ac61f1d8c778", "16e895b512b882d8", "0ea0f25b83971f88", "0ea0f25b83971f88"),
}


_GOLDEN_NAMES = ["cubes_0000.csv", "cubes_0001.csv", "goodset_0000.json", "goodset_0001.json"]


def _golden_cfg(game, b, out):
    M, m, B = _GOLDEN_LATTICES[b]
    return {"game": {"step_json": _GOLDEN_GAMES[game]}, "network": {"lattice": {"M": M, "m": m}},
            "replications": 2, "seed": 11, "cubes": {"b": b, "B": B, "gamma": 0.2, "R": 1.0}, "output": str(out)}


@pytest.mark.parametrize("game, b", list(_GOLDEN))
def test_lattice_analyze_output_bytes_match_the_recorded_digests(tmp_path, game, b):
    cfg_path = _write_json(tmp_path / "cfg.json", _golden_cfg(game, b, tmp_path / "lat"))
    assert cli_main(["lattice-analyze", str(cfg_path)]) == 0
    assert sorted(p.name for p in (tmp_path / "lat").iterdir()) == _GOLDEN_NAMES
    got = tuple(hashlib.sha256((tmp_path / "lat" / n).read_bytes()).hexdigest()[:16] for n in _GOLDEN_NAMES)
    assert got == _GOLDEN[game, b]


_LAZY_MODULES = ("scipy.sparse", "scipy.ndimage", "concurrent.futures.process")
# Run in a fresh interpreter: conftest has already imported scipy.sparse into this one.
_LAZY_IMPORT_SCRIPT = """
import hashlib, json, sys
from pathlib import Path
from netcoord.cli import main
from netcoord.network import load_edgelist

work, lazy = Path(sys.argv[1]), sys.argv[2:]
assert main(["wave", str(work / "game.json"), "--eta", "0.15", "--out", str(work / "wave.json")]) == 0
assert main(["ru-dominant", str(work / "game.json")]) == 0 and main(["fixed-points", str(work / "game.json")]) == 0
assert main(["lattice-analyze", str(work / "early.json")]) == 0
before = [m for m in lazy if m in sys.modules]
weights = load_edgelist(work / "g.edges").weights.toarray().tolist()
assert main(["lattice-analyze", str(work / "sparse.json")]) == 0
digests = {d: {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in (work / d).iterdir()}
           for d in ("early", "lat")}
print(json.dumps({"before": before, "after": [m for m in lazy if m in sys.modules], "weights": weights,
                  "digests": digests, "thresholds": json.loads((work / "wave.json").read_text())["thresholds"]}))
"""


def test_wave_ru_and_early_lattice_runs_load_no_scipy_or_process_pool(tmp_path):
    # wave, ru-dominant, fixed-points and a lattice-analyze whose good-set
    # search stops at its early return import neither scipy module nor the
    # process pool; a CSR network loads scipy.sparse, and a found good set
    # (computed on the cube grid) loads nothing more; both give their
    # recorded bytes in the same interpreter.
    root = Path(__file__).resolve().parents[1]
    panel = json.loads((root / "perfbench" / "reference.json").read_text())["wave_panel"][0]
    _write_json(tmp_path / "game.json", panel["game"])
    _write_json(tmp_path / "early.json", _golden_cfg("cube", 3, tmp_path / "early"))
    _write_json(tmp_path / "sparse.json", _golden_cfg("sparse", 3, tmp_path / "lat"))
    (tmp_path / "g.edges").write_text("n 3\n0 1 0.5\n1 2 2.0\n")
    proc = subprocess.run([sys.executable, "-c", _LAZY_IMPORT_SCRIPT, str(tmp_path), *_LAZY_MODULES],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["before"] == []
    assert out["after"] == ["scipy.sparse"]
    assert out["thresholds"] == pytest.approx(panel["thresholds"], rel=0, abs=1e-9)  # the benchmark's check
    assert out["weights"] == [[0.0, 0.5, 0.0], [0.5, 0.0, 2.0], [0.0, 2.0, 0.0]]
    got = [tuple(out["digests"][d].get(n) for n in _GOLDEN_NAMES) for d in ("early", "lat")]
    assert got == [_GOLDEN["cube", 3], _GOLDEN["sparse", 3]]


_FAULTS_SCRIPT = """
import contextlib, io, resource, sys
from netcoord.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    main(["lattice-analyze", sys.argv[1]])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(40):
        main(["lattice-analyze", sys.argv[1]])
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 40)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap behaviour")
def test_repeated_lattice_analyze_calls_do_not_refault_the_heap(tmp_path):
    # Each call's temporaries reuse the heap that the previous call freed:
    # without the start-up block in netcoord.cli, glibc gives the freed
    # heap top back to the kernel and every call faults in ~1,000 pages.
    # The benchmark's lattice-analyze batch: (300,3), b = 3, B = 30, the cube game.
    cfg = {"game": {"step_json": _GOLDEN_GAMES["cube"]}, "network": {"lattice": {"M": 300, "m": 3}},
           "replications": 1, "seed": 11, "cubes": {"b": 3, "B": 30, "gamma": 0.2, "R": 2.0},
           "output": str(tmp_path / "lat")}
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT, str(_write_json(tmp_path / "cfg.json", cfg))],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 50
