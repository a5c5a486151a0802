import json
import logging
import math

import numpy as np
import pytest

import netcoord.cubes
from netcoord.cli import main as cli_main
from netcoord.harness import (
    ExperimentConfig,
    _worker_count,
    build_game,
    build_network,
    probe_theorem1,
    probe_theorem2,
    probe_theorem3,
    probe_theorem4,
    run_experiment,
    run_replication,
    stable_fixed_points,
)
from netcoord.stepfn import StepFn

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


# ------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(replications=0)
    with pytest.raises(ValueError):
        small_cfg(eta=0.9)
    with pytest.raises(ValueError):
        small_cfg(probes=("bogus",))


def test_config_rejects_unknown_keys():
    doc = small_cfg().to_dict()
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
    ],
)
def test_config_rejects_bad_cubes(cubes, match):
    with pytest.raises(ValueError, match=match):
        small_cfg(cubes=cubes)
    small_cfg(cubes={"b": 3, "B": 6, "gamma": 0.2, "R": 0.0, "rho": 1.5})


@pytest.mark.parametrize("key", ["game", "network"])
def test_config_names_a_missing_required_key(key):
    doc = small_cfg().to_dict()
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


def test_config_stability_radius_default():
    assert small_cfg().effective_stability_radius == 0.025
    assert small_cfg(eta=1e-7).effective_stability_radius == 1e-6
    assert small_cfg(stability_radius=0.3).effective_stability_radius == 0.3


def test_config_round_trip(tmp_path):
    cfg = small_cfg()
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
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
    assert build_game({"file": str(wrapped)}).to_json_dict() == P.to_json_dict()


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
    from netcoord.network import save_edgelist

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
    replay = run_replication(g, P, cfg, rec["replication_id"]).record
    assert replay["averages"]["largest"] == rec["averages"]["largest"]


def test_enumerate_probe_small_n():
    cfg = small_cfg(network={"complete": {"n": 6}}, probes=("extremal", "enumerate"))
    out = run_experiment(cfg)
    for rec in out["records"]:
        avs = rec["averages"]["enumerated"]
        assert avs == sorted(avs)
        assert rec["averages"]["largest"] == pytest.approx(max(avs))


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


def test_probe_theorem2_tiny_network_reports_only():
    # Escapes on an adversarial n=4 graph are recorded, never raised.
    cfg = small_cfg(network={"complete": {"n": 4}}, replications=5)
    out = probe_theorem2(cfg)
    assert 0.0 <= out["escape_high_frequency"] <= 1.0
    assert 0.0 <= out["escape_low_frequency"] <= 1.0


def test_probe_theorem2_constant_game():
    cfg = small_cfg(
        game={"step_json": {"base": 0.4, "steps": []}},
        network={"complete": {"n": 500}},
        replications=10,
    )
    out = probe_theorem2(cfg)
    assert out["x_min"] == out["x_max"] == 0.4
    assert out["escape_high_frequency"] <= 0.1
    assert out["escape_low_frequency"] <= 0.1


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


# ------------------------------------------------------------------- CLI


def write_game(tmp_path, doc):
    p = tmp_path / "game.json"
    p.write_text(json.dumps(doc))
    return str(p)


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


def test_cli_enumerate_rejects_large_network(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"game": {"step_json": TWO_POINT_GAME}, "network": {"complete": {"n": 30}}}))
    assert cli_main(["enumerate", str(cfg_path)]) == 2
    assert "n <= 20" in capsys.readouterr().err


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
@pytest.mark.parametrize("broken", ["missing", "truncated"])
def test_cli_reports_an_unreadable_input_file(tmp_path, capsys, cmd, broken):
    path = tmp_path / "in.json"
    if broken == "truncated":
        path.write_text('{"base": 0.05, "ste')
    argv = [cmd, str(path)] + (["--eta", "0.1"] if cmd == "wave" else [])
    assert cli_main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"netcoord {cmd}: cannot read {path}: ")


def test_cli_simulate_reports_a_missing_game_file(tmp_path, capsys):
    game = tmp_path / "nope.json"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"game": {"file": str(game)}, "network": {"complete": {"n": 6}}}))
    assert cli_main(["simulate", str(cfg_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"netcoord simulate: cannot read {game}: ")
    assert not (tmp_path / "cfg_out").exists()


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
    stages = [r.getMessage() for r in caplog.records if "extremal" in r.getMessage()]
    assert len(stages) == 3
    assert all("shocks" in m and "good set" in m and "bad cubes" in m and "good_set=" in m for m in stages)
